"""Property tests of the single-precision compute path.

Every matrix-free operator must return its input dtype from
``vmult``/``apply`` — a silent float64 promotion anywhere in the chain
erases the memory-bandwidth win the fp32 path exists for.  Beyond the
dtype contract these tests check

* fp32 results agree with the fp64 reference within single-precision
  roundoff on a curved (bifurcation) mesh with mixed face orientations
  and randomized input, and
* the planned DG- and CG-Laplace vmults allocate measurably fewer transient
  bytes at fp32 than at fp64 (tracemalloc high-water mark), i.e. the
  kernels do not secretly stage double-precision temporaries.

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


class TestNoDoubleTemporaries:
    """tracemalloc check on the representative kernels: a warm planned
    vmult at fp32 must allocate well under the fp64 peak — if any hot
    temporary were secretly staged in double, the fp32 peak would match
    the fp64 one instead of halving."""

    @staticmethod
    def check(setup, name):
        from repro.perf.measure import measure_allocations

        op64 = setup[4][name]
        op32 = operator_to_dtype(op64, np.float32)
        x64 = _input_vector(op64, name, np.float64)
        x32 = x64.astype(np.float32)
        # warm both plan caches/workspaces so we measure steady state
        op64.vmult(x64)
        op32.vmult(x32)
        peak64, _ = measure_allocations(lambda: op64.vmult(x64))
        peak32, _ = measure_allocations(lambda: op32.vmult(x32))
        assert peak64 > 0
        assert peak32 <= 0.75 * peak64, (
            f"fp32 {name} vmult peak {peak32}B vs fp64 {peak64}B — "
            "hidden double-precision temporaries?"
        )

    def test_fp32_peak_allocation_is_smaller(self, setup):
        self.check(setup, "dg_laplace")

    def test_cg_laplace_fp32_peak_allocation_is_smaller(self, setup):
        """The CG gather/scatter runs through the handler's sparse cell
        map; a map left in float64 would stage the whole vmult in double."""
        self.check(setup, "cg_laplace")


class TestNoDoubleFaceData:
    """A float32 clone of a flow operator keeps no float64 array — its
    loop-order face metrics and penalty parameters are cast, so the face
    loop never promotes."""

    @pytest.mark.parametrize("name", ["convective", "divergence", "gradient", "penalty"])
    def test_fp32_clone_holds_no_float64_array(self, setup, name):
        from dataclasses import fields, is_dataclass

        *_, ops = setup
        clone = operator_to_dtype(ops[name], np.float32)
        if name == "penalty":
            clone.update_parameters(np.ones(clone.n_dofs, np.float32))

        def walk(obj, path):
            if isinstance(obj, np.ndarray):
                assert obj.dtype != np.float64, path
            elif is_dataclass(obj) and not isinstance(obj, type):
                for f in fields(obj):
                    walk(getattr(obj, f.name), f"{path}.{f.name}")
            elif isinstance(obj, (list, tuple)):
                for i, v in enumerate(obj):
                    walk(v, f"{path}[{i}]")

        assert "face_data" in vars(clone)
        for attr, value in vars(clone).items():
            walk(value, attr)
