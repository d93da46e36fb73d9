"""The in-place Chebyshev recurrence must be *bitwise* identical to the
plain allocating form it replaced — the smoother sits inside the
multigrid V-cycle, where any drift would change convergence histories.
"""

import numpy as np
import pytest

from repro.core.dof_handler import DGDofHandler
from repro.core.operators import DGLaplaceOperator
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import box
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.solvers import ChebyshevSmoother, JacobiPreconditioner
from repro.solvers.multigrid import operator_to_dtype


def reference_smooth(sm, b, x=None):
    """The textbook allocating three-term recurrence, written with fresh
    temporaries on every line (what ``smooth`` computed before the
    in-place rewrite)."""
    op, P = sm.op, sm.jacobi
    theta, delta = sm.theta, sm.delta
    if x is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        r = b - op.vmult(x)
    sigma = theta / delta
    rho_old = 1.0 / sigma
    d = P.vmult(r) / theta
    x = x + d
    for _ in range(1, sm.degree):
        rho = 1.0 / (2.0 * sigma - rho_old)
        r = r - op.vmult(d)
        d = (rho * rho_old) * d + (2.0 * rho / delta) * P.vmult(r)
        x = x + d
        rho_old = rho
    return x


@pytest.fixture(scope="module")
def smoother():
    forest = Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1})).refine_all(1)
    geo = GeometryField(forest, 2)
    conn = build_connectivity(forest)
    dof = DGDofHandler(forest, 2)
    op = DGLaplaceOperator(dof, geo, conn, dirichlet_ids=(1,))
    return ChebyshevSmoother(op, degree=3, jacobi=JacobiPreconditioner(op))


class TestInPlaceChebyshevBitwise:
    def test_zero_start_bitwise(self, smoother):
        rng = np.random.default_rng(42)
        b = rng.standard_normal(smoother.n_dofs)
        assert np.array_equal(smoother.smooth(b), reference_smooth(smoother, b))

    def test_initial_guess_bitwise(self, smoother):
        rng = np.random.default_rng(43)
        b = rng.standard_normal(smoother.n_dofs)
        x0 = rng.standard_normal(smoother.n_dofs)
        assert np.array_equal(
            smoother.smooth(b, x0), reference_smooth(smoother, b, x0)
        )

    def test_caller_x_not_mutated(self, smoother):
        rng = np.random.default_rng(44)
        b = rng.standard_normal(smoother.n_dofs)
        x0 = rng.standard_normal(smoother.n_dofs)
        keep = x0.copy()
        y = smoother.smooth(b, x0)
        assert np.array_equal(x0, keep)
        assert y is not x0

    def test_repeated_applications_bitwise(self, smoother):
        """Warm workspace/Jacobi buffers must not change results."""
        rng = np.random.default_rng(45)
        b = rng.standard_normal(smoother.n_dofs)
        first = smoother.smooth(b)
        for _ in range(3):
            assert np.array_equal(smoother.smooth(b), first)

    def test_float32_operator_bitwise(self, smoother):
        """Mixed-precision V-cycle configuration: float32 operator and
        Jacobi diagonal, float32 vectors."""
        sp = operator_to_dtype(smoother.op, np.float32)
        jac = JacobiPreconditioner(sp)
        sm = ChebyshevSmoother(sp, degree=3, jacobi=jac)
        rng = np.random.default_rng(46)
        b = rng.standard_normal(sm.n_dofs).astype(np.float32)
        y = sm.smooth(b)
        y_ref = reference_smooth(sm, b)
        assert y.dtype == y_ref.dtype
        assert np.array_equal(y, y_ref)

    def test_smoother_reduces_residual(self, smoother):
        rng = np.random.default_rng(47)
        b = rng.standard_normal(smoother.n_dofs)
        x = smoother.smooth(b)
        assert np.linalg.norm(b - smoother.op.vmult(x)) < np.linalg.norm(b)
