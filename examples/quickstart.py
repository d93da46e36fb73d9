"""Quickstart: matrix-free DG Poisson solve with the hybrid multigrid.

Solves -lap(u) = f on the unit cube with a manufactured solution, using
the symmetric interior penalty DG discretization (degree 3), the hybrid
geometric-polynomial-algebraic multigrid preconditioner (single-
precision V-cycle), and double-precision conjugate gradients — the
Figure 9/10 solver of the paper in ~40 lines.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core.dof_handler import DGDofHandler
from repro.core.operators import DGLaplaceOperator, InverseMassOperator
from repro.mesh import Forest, GeometryField, box, build_connectivity
from repro.solvers import HybridMultigridPreconditioner, conjugate_gradient


def main():
    """Solve, print the hierarchy and the result; returns the CG result
    and the L2 error."""
    # mesh: unit cube, 2 uniform octree refinements (512 cells)
    mesh = box(subdivisions=(1, 1, 1), boundary_ids={i: 1 for i in range(6)})
    forest = Forest(mesh).refine_all(2)

    degree = 3
    geometry = GeometryField(forest, degree)
    connectivity = build_connectivity(forest)
    dofs = DGDofHandler(forest, degree)
    print(f"mesh: {forest.n_cells} cells, {dofs.n_dofs} DoF (k={degree})")

    op = DGLaplaceOperator(dofs, geometry, connectivity, dirichlet_ids=(1,))

    exact = lambda x, y, z: np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
    rhs = op.assemble_rhs(
        f=lambda x, y, z: 3 * np.pi**2 * exact(x, y, z),
        dirichlet=lambda x, y, z: 0.0 * x,
    )

    mg = HybridMultigridPreconditioner(op)
    print("multigrid hierarchy:")
    print(mg.describe())

    result = conjugate_gradient(op, rhs, mg, tol=1e-10)
    print(f"\nCG converged in {result.n_iterations} iterations "
          f"(residual reduction rate {result.reduction_rate:.3f})")

    # L2 error against the manufactured solution
    cm = geometry.cell_metrics()
    uq = geometry.kernel.values(dofs.lanes(result.x))
    eq = exact(*cm.points)
    err = np.sqrt(np.sum((uq - eq) ** 2 * cm.jxw))
    print(f"L2 error vs manufactured solution: {err:.3e}")
    return result, err


if __name__ == "__main__":
    main()
