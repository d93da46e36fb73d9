"""Figure 7: roofline placement of the DG Laplacian for k = 1..6 on the
deformed lung geometry — ideal vs measured-style memory transfer.

The arithmetic (Flop) counts come from the analytic model of
:mod:`repro.perf.flops` as the operator's work model charges them — the
dense collocation sweeps the kernels actually run (the
paper validates its even-odd counts against LIKWID hardware counters to
a few percent); the transfer model
follows Section 5.1's description.  We verify the paper's conclusions:
all relevant degrees are *memory-bandwidth limited* (left of the ridge),
arithmetic intensity grows with the degree, and the measured transfer
exceeds the ideal model by 20-30%, lowering the effective intensity.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import dg_laplace_setup, emit, lung_test_forest

from repro.parallel.machine import SUPERMUC_NG
from repro.perf.memory import arithmetic_intensity, laplace_transfer, measured_transfer
from repro.perf.measure import measure_throughput

DEGREES = (1, 2, 3, 4, 5, 6)


def test_fig7_roofline(benchmark):
    lm = lung_test_forest(generations=3)
    rows = []
    for k in DEGREES:
        dof, geo, conn, op = dg_laplace_setup(lm.forest, k)
        n_cells = dof.n_cells
        flops_total = op.work_model()["flops"]  # Dirichlet faces only
        ideal = laplace_transfer(k)
        meas = measured_transfer(ideal)
        ai_ideal = arithmetic_intensity(flops_total, ideal.total_bytes(n_cells))
        ai_meas = arithmetic_intensity(flops_total, meas.total_bytes(n_cells))
        x = np.random.default_rng(0).standard_normal(op.n_dofs)
        r = measure_throughput(lambda: op.vmult(x), op.n_dofs, repetitions=5)
        gflops = flops_total / r.best_seconds / 1e9
        # GFlop/s the paper's node would reach at this intensity
        paper_gflops = SUPERMUC_NG.attainable_flops(ai_meas) / 1e9
        rows.append((k, ai_ideal, ai_meas, gflops, paper_gflops))

    lines = [
        "Figure 7: roofline data of the DG Laplacian (deformed lung geometry)",
        f"SuperMUC-NG node: peak {SUPERMUC_NG.peak_flops_dp/1e12:.2f} TFlop/s DP, "
        f"{SUPERMUC_NG.mem_bandwidth/1e9:.0f} GB/s, ridge at "
        f"{SUPERMUC_NG.flop_byte_ridge:.1f} Flop/B",
        "",
        f"{'k':>2} {'AI ideal':>9} {'AI meas.':>9} {'GFlop/s (local)':>16} {'roofline bound (paper node)':>28}",
    ]
    for k, ai_i, ai_m, g, pg in rows:
        lines.append(f"{k:>2} {ai_i:>9.2f} {ai_m:>9.2f} {g:>16.3f} {pg:>28.0f}")
    emit("fig7_roofline", "\n".join(lines))

    # benchmark the k=3 kernel itself
    dof, geo, conn, op = dg_laplace_setup(lm.forest, 3)
    x = np.random.default_rng(1).standard_normal(op.n_dofs)
    benchmark(op.vmult, x)

    # shape (i): all degrees are memory-bound on the paper's node
    for k, ai_i, ai_m, _, _ in rows:
        assert ai_i < SUPERMUC_NG.flop_byte_ridge
    # shape (ii): intensity increases with polynomial degree.  The dense
    # sweeps the kernels run have no parity effect (the paper's even-odd
    # counts oscillate with it), so the growth is strict at every step.
    ais = [r[1] for r in rows]
    assert all(b > a for a, b in zip(ais, ais[1:]))
    # shape (iii): measured transfer lowers the intensity by 20-30%
    for k, ai_i, ai_m, _, _ in rows:
        assert 0.7 < ai_m / ai_i < 0.85
