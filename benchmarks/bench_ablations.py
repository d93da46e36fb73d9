"""Ablation studies of the design choices DESIGN.md calls out.

The paper attributes its node-level speedup to specific algorithmic
choices (Section 3.1: Flop-minimizing sum-factorization variants give
"1.5x-2x compared to previous results"; Section 3.4: degree-3 Chebyshev
smoothing, degree-bisection p-coarsening, single-precision V-cycles).
Each ablation toggles one choice on the real implementation and reports
its effect.  (The even-odd decomposition is not among them: in NumPy
its fold/recombine passes made it 3-4x *slower* than the dense sweeps,
an ISA-level Flop saving that vectorized Python cannot express.  Nor is
the change of basis: it is the only cell path, with no second one to
compare against.)
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import bifurcation_forest, dg_laplace_setup, emit

from repro.solvers import HybridMultigridPreconditioner, conjugate_gradient


def _solve_with(mg_kwargs, levels=1):
    forest = bifurcation_forest(levels=levels)
    dof, geo, conn, op = dg_laplace_setup(forest, 3, dirichlet=(1, 2, 3))
    mg = HybridMultigridPreconditioner(op, **mg_kwargs)
    b = np.ones(dof.n_dofs)
    t0 = time.perf_counter()
    res = conjugate_gradient(op, b, mg, tol=1e-10, max_iter=80)
    return res, time.perf_counter() - t0, mg


def test_ablation_multigrid_choices(benchmark):
    """Toggle the hybrid-multigrid ingredients one at a time."""
    base, t_base, mg_base = _solve_with({})
    sm1, t_sm1, _ = _solve_with({"smoother_degree": 1})
    sm6, t_sm6, _ = _solve_with({"smoother_degree": 6})
    dp, t_dp, _ = _solve_with({"precision": np.float64})
    direct_p, t_direct, _ = _solve_with({"p_sequence": (3, 1)})
    benchmark(lambda: mg_base.vmult(np.ones(mg_base.dg_op.n_dofs)))

    lines = [
        "Ablation: hybrid multigrid configuration (bifurcation, k=3, tol 1e-10)",
        "",
        f"{'variant':<34} {'CG its':>7} {'solve [s]':>10}",
        f"{'baseline (Cheb-3, SP, bisection)':<34} {base.n_iterations:>7} {t_base:>10.2f}",
        f"{'Chebyshev degree 1':<34} {sm1.n_iterations:>7} {t_sm1:>10.2f}",
        f"{'Chebyshev degree 6':<34} {sm6.n_iterations:>7} {t_sm6:>10.2f}",
        f"{'double-precision V-cycle':<34} {dp.n_iterations:>7} {t_dp:>10.2f}",
        f"{'direct p-drop 3 -> 1':<34} {direct_p.n_iterations:>7} {t_direct:>10.2f}",
    ]
    emit("ablation_multigrid", "\n".join(lines))

    assert base.converged and sm1.converged and sm6.converged
    assert dp.converged and direct_p.converged
    # weaker smoothing costs iterations; stronger smoothing saves them
    assert sm1.n_iterations >= base.n_iterations
    assert sm6.n_iterations <= base.n_iterations
    # SP V-cycle does not change the count materially (Section 3.4)
    assert abs(dp.n_iterations - base.n_iterations) <= 2
    # skipping the intermediate p-level costs at most a few iterations
    assert direct_p.n_iterations <= base.n_iterations + 6


def test_ablation_penalty_factor(benchmark):
    """SIP penalty scaling: too small loses coercivity on sheared
    junction cells; larger factors trade conditioning."""
    from repro.core.dof_handler import DGDofHandler
    from repro.core.operators import DGLaplaceOperator
    from repro.mesh.connectivity import build_connectivity
    from repro.mesh.mapping import GeometryField
    from repro.solvers import JacobiPreconditioner

    forest = bifurcation_forest(levels=0)
    geo = GeometryField(forest, 2)
    conn = build_connectivity(forest)
    dof = DGDofHandler(forest, 2)
    rows = []
    for pf in (0.25, 2.5, 6.0):
        op = DGLaplaceOperator(dof, geo, conn, dirichlet_ids=(1, 2, 3),
                               penalty_factor=pf)
        n = dof.n_dofs
        A = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            A[:, j] = op.vmult(e)
        w = np.linalg.eigvalsh(0.5 * (A + A.T))
        rows.append((pf, w.min(), w.max() / max(w.min(), 1e-30)))
    benchmark(lambda: op.vmult(np.ones(dof.n_dofs)))

    lines = ["Ablation: SIP penalty factor on the bifurcation (k=2)",
             "",
             f"{'factor':>7} {'min eigenvalue':>15} {'condition':>12}"]
    for pf, lo, cond in rows:
        lines.append(f"{pf:>7.1f} {lo:>15.3e} {cond:>12.3e}")
    lines.append("")
    lines.append("under-penalization is indefinite on sheared junction cells;")
    lines.append("the default 2.5 is SPD at moderate conditioning cost")
    emit("ablation_penalty", "\n".join(lines))

    assert rows[0][1] < 0  # strongly under-penalized: indefinite
    assert rows[1][1] > 0  # default: SPD
    assert rows[2][1] > 0
    assert rows[2][2] > rows[1][2]  # larger penalty worsens conditioning
