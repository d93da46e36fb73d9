"""Property tests of the single-precision compute path.

Every matrix-free operator must return its input dtype from
``vmult``/``apply`` — a silent float64 promotion anywhere in the chain
erases the memory-bandwidth win the fp32 path exists for.  Beyond the
dtype contract these tests check

* fp32 results agree with the fp64 reference within single-precision
  roundoff on a curved (bifurcation) mesh with mixed face orientations
  and randomized input, and
* the planned DG- and CG-Laplace vmults take measurably less scratch
  and allocate measurably fewer transient bytes at fp32 than at fp64
  (arena and tracemalloc high-water marks from an empty arena), i.e.
  the kernels do not secretly stage double-precision temporaries.

fp32 operators are built with :func:`repro.solvers.multigrid.operator_to_dtype`
— the same cast the NS solver and the benchmarks use — so the clones
exercised here share metrics provenance with production code.
"""

import numpy as np
import pytest

from repro.core.dof_handler import CGDofHandler, DGDofHandler
from repro.core.operators import (
    CGLaplaceOperator,
    ConvectiveOperator,
    DGLaplaceOperator,
    DivergenceContinuityPenalty,
    DivergenceOperator,
    GradientOperator,
    HelmholtzOperator,
    InverseMassOperator,
    MassOperator,
    PenaltyStepOperator,
    VectorDGLaplace,
)
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import bifurcation
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.ns.bc import BoundaryConditions, PressureDirichlet
from repro.solvers.multigrid import operator_to_dtype

#: fp32-vs-fp64 normwise agreement on the curved mesh.  Measured errors
#: sit around 1e-7 for every operator (a few ulps of single precision);
#: 1e-5 leaves ~100x headroom for unlucky cancellation in the SIP face
#: penalty while still catching any accidental fp32 truncation of the
#: metric terms.
FP32_RTOL = 1e-5


@pytest.fixture(scope="module")
def setup():
    """Operators on the curved bifurcation mesh (mixed orientations)."""
    forest = Forest(bifurcation())
    k = 2
    geo = GeometryField(forest, k)
    geo_over = GeometryField(forest, k, n_q_points=k + 2)
    conn = build_connectivity(forest)
    dof_s = DGDofHandler(forest, k)
    dof_u = DGDofHandler(forest, k, n_components=3)
    dof_p = DGDofHandler(forest, k - 1)
    bcs = BoundaryConditions({1: PressureDirichlet(0.0)})

    scalar = DGLaplaceOperator(dof_s, geo, conn, dirichlet_ids=(1,))
    ops = {
        "dg_laplace": scalar,
        "mass": MassOperator(dof_u, geo),
        "inverse_mass": InverseMassOperator(dof_u, geo),
        "vector_laplace": VectorDGLaplace(scalar, dof_u),
        "penalty": DivergenceContinuityPenalty(dof_u, geo, conn),
    }
    ops["helmholtz"] = HelmholtzOperator(ops["mass"], ops["vector_laplace"], nu=1e-2)
    ops["penalty_step"] = PenaltyStepOperator(ops["mass"], ops["penalty"])
    ops["divergence"] = DivergenceOperator(dof_u, dof_p, geo, conn, bcs)
    ops["gradient"] = GradientOperator(dof_u, dof_p, geo, conn, bcs)
    ops["convective"] = ConvectiveOperator(dof_u, geo_over, conn, bcs)

    cg_dof = CGDofHandler(forest, k)
    ops["cg_laplace"] = CGLaplaceOperator(cg_dof, geo)
    return forest, dof_s, dof_u, dof_p, ops


def _input_vector(op, name, dtype):
    rng = np.random.default_rng(7)
    if name in ("divergence",):
        n = op.dof_u.n_dofs
    elif name in ("gradient",):
        n = op.dof_p.n_dofs
    else:
        n = op.n_dofs
    return rng.standard_normal(n).astype(dtype)


def _apply(op, name, x):
    if name in ("divergence", "gradient", "convective"):
        return op.apply(x)
    return op.vmult(x)


ALL_OPS = [
    "dg_laplace",
    "cg_laplace",
    "mass",
    "inverse_mass",
    "vector_laplace",
    "helmholtz",
    "penalty",
    "penalty_step",
    "divergence",
    "gradient",
    "convective",
]


class TestDtypePreserved:
    """vmult/apply return the input dtype — no hidden upcast."""

    @pytest.mark.parametrize("name", ALL_OPS)
    def test_float64_stays_float64(self, setup, name):
        op = setup[4][name]
        x = _input_vector(op, name, np.float64)
        assert _apply(op, name, x).dtype == np.float64

    @pytest.mark.parametrize("name", ALL_OPS)
    def test_float32_stays_float32(self, setup, name):
        op32 = operator_to_dtype(setup[4][name], np.float32)
        x = _input_vector(op32, name, np.float32)
        assert _apply(op32, name, x).dtype == np.float32


class TestFp32MatchesFp64:
    """Single-precision results track the double reference to fp32
    roundoff on the randomized curved mesh."""

    @pytest.mark.parametrize("name", ALL_OPS)
    def test_agreement(self, setup, name):
        op = setup[4][name]
        op32 = operator_to_dtype(op, np.float32)
        x64 = _input_vector(op, name, np.float64)
        y64 = np.asarray(_apply(op, name, x64), dtype=np.float64)
        y32 = np.asarray(_apply(op32, name, x64.astype(np.float32)),
                         dtype=np.float64)
        scale = np.linalg.norm(y64)
        if scale == 0.0:
            assert np.linalg.norm(y32) < 1e-5
        else:
            assert np.linalg.norm(y32 - y64) / scale < FP32_RTOL


def arena_and_peak(op, x):
    """(arena high-water bytes, tracemalloc peak) of one application
    ``op.vmult(x)`` starting from an empty arena: every byte of scratch
    it takes, and everything else it allocates."""
    from repro.core.plans import SCRATCH
    from repro.perf.measure import measure_allocations

    SCRATCH.clear()
    peak, _ = measure_allocations(lambda: op.vmult(x))
    return SCRATCH.nbytes, peak


class TestNoDoubleTemporaries:
    """A vmult at fp32 must take well under the fp64 scratch and
    allocate well under the fp64 peak — if any hot temporary were
    secretly staged in double, the fp32 numbers would match the fp64
    ones instead of halving.  Each application starts from an empty
    arena (a pre-grown one would hand both out for free), after one
    warm call per dtype fills the plan caches."""

    @staticmethod
    def check(op64, op32, name):
        x64 = _input_vector(op64, name, np.float64)
        x32 = x64.astype(np.float32)
        op64.vmult(x64)
        op32.vmult(x32)
        arena32, peak32 = arena_and_peak(op32, x32)
        arena64, peak64 = arena_and_peak(op64, x64)
        assert arena64 > 0 and peak64 > 0
        assert arena32 <= 0.75 * arena64, (
            f"fp32 {name} vmult takes {arena32}B of scratch vs fp64 {arena64}B — "
            "hidden double-precision temporaries?"
        )
        assert peak32 <= 0.75 * peak64, (
            f"fp32 {name} vmult peak {peak32}B vs fp64 {peak64}B — "
            "hidden double-precision temporaries?"
        )

    def test_fp32_peak_allocation_is_smaller(self, setup):
        op64 = setup[4]["dg_laplace"]
        self.check(op64, operator_to_dtype(op64, np.float32), "dg_laplace")

    def test_cg_laplace_fp32_peak_allocation_is_smaller(self, setup):
        """The CG gather/scatter runs through the handler's sparse cell
        map; a map left in float64 would stage the whole vmult in double."""
        op64 = setup[4]["cg_laplace"]
        self.check(op64, operator_to_dtype(op64, np.float32), "cg_laplace")

    @pytest.mark.parametrize("name", ["dg_laplace", "cg_laplace"])
    def test_an_injected_fp64_temporary_fails_it(self, setup, name):
        """A clone whose kernel data escaped the cast (the metric, and the
        SIP flux coefficients) stages its products in double: the check
        must catch it."""
        import copy

        op64 = setup[4][name]
        bad = copy.copy(operator_to_dtype(op64, np.float32))
        for attr in ("laplace_d", "face_data"):
            if hasattr(op64, attr):
                setattr(bad, attr, getattr(op64, attr))
        with pytest.raises(AssertionError, match="hidden double"):
            self.check(op64, bad, name)


def assert_no_float64(op, path="op"):
    """No float64 array among ``op``'s attributes, walking into
    dataclasses, lists and tuples (the shared index plans — face loops,
    kernels, dof handlers — are plain objects and not walked)."""
    from dataclasses import fields, is_dataclass

    def walk(obj, path):
        if isinstance(obj, np.ndarray):
            assert obj.dtype != np.float64, path
        elif is_dataclass(obj) and not isinstance(obj, type):
            for f in fields(obj):
                walk(getattr(obj, f.name), f"{path}.{f.name}")
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                walk(v, f"{path}[{i}]")

    for attr, value in vars(op).items():
        walk(value, f"{path}.{attr}")


class TestNoDoubleFaceData:
    """A float32 clone keeps no float64 array — the flow operators'
    loop-order face metrics and penalty parameters and the Laplacians'
    metric and flux coefficients are cast, so no kernel promotes."""

    @pytest.mark.parametrize("name", ["convective", "divergence", "gradient", "penalty",
                                      "dg_laplace", "cg_laplace"])
    def test_fp32_clone_holds_no_float64_array(self, setup, name):
        *_, ops = setup
        clone = operator_to_dtype(ops[name], np.float32)
        if name == "penalty":
            clone.update_parameters(np.ones(clone.n_dofs, np.float32))
        assert ("laplace_d" if "laplace" in name else "face_data") in vars(clone)
        assert_no_float64(clone, name)
