"""Performance accounting: analytic Flop counts of the sum-factorized
kernels, the memory-transfer model of Figure 7, the throughput
measurement harness, span-level roofline attribution, and the benchmark
regression suites behind ``repro bench``."""

from .attribution import (
    MACHINES,
    ROOFLINE_SCHEMA,
    KernelAttribution,
    collect_attribution,
    render_roofline,
    roofline_doc,
    subtree_attribution,
)
from .bench import (
    BENCH_SCHEMA,
    SUITES,
    compare_bench,
    load_bench,
    machine_fingerprint,
    render_bench,
    render_compare,
    run_suite,
)
from .flops import (
    OperatorFlops,
    cg_laplace_flops,
    chebyshev_iteration_flops,
    flops_apply_1d,
    inverse_mass_flops,
    laplace_flops,
    mass_flops,
)
from .memory import (
    TransferModel,
    arithmetic_intensity,
    laplace_transfer,
    measured_transfer,
)
from .measure import (
    ThroughputResult,
    calibrate_local_machine,
    measure_operator,
    measure_throughput,
)

__all__ = [
    "OperatorFlops",
    "laplace_flops",
    "cg_laplace_flops",
    "chebyshev_iteration_flops",
    "flops_apply_1d",
    "inverse_mass_flops",
    "mass_flops",
    "TransferModel",
    "laplace_transfer",
    "measured_transfer",
    "arithmetic_intensity",
    "ThroughputResult",
    "measure_throughput",
    "measure_operator",
    "calibrate_local_machine",
    "MACHINES",
    "ROOFLINE_SCHEMA",
    "KernelAttribution",
    "collect_attribution",
    "render_roofline",
    "roofline_doc",
    "subtree_attribution",
    "BENCH_SCHEMA",
    "SUITES",
    "compare_bench",
    "load_bench",
    "machine_fingerprint",
    "render_bench",
    "render_compare",
    "run_suite",
]
