"""Mixed-space pressure gradient G and velocity divergence D operators.

Both use **central numerical fluxes** (Section 2.3) and couple the
velocity space of degree ``k`` with the pressure space of degree
``k - 1``; both spaces are integrated at the velocity quadrature (k+1
Gauss points), which is exact for all terms.

Boundary treatment (dual splitting, Fehn et al. 2017):

* Divergence flux on velocity-Dirichlet boundaries uses the *prescribed*
  velocity ``g`` — this is how the ventilation forcing enters the
  pressure Poisson right-hand side; elsewhere the interior trace.
* Gradient flux on pressure-Dirichlet boundaries uses the prescribed
  pressure ``g_p`` (PEEP + dp at the trachea, windkessel pressures at
  terminal airways); elsewhere the interior trace.

With matching homogeneous data the two operators are negative
transposes of each other, which tests assert.
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

from ...mesh.connectivity import MeshConnectivity
from ...mesh.mapping import GeometryField
from ..dof_handler import DGDofHandler
from ..plans import contract
from ..sum_factorization import TensorProductKernel
from .base import FaceKernels, MatrixFreeOperator

if TYPE_CHECKING:  # pragma: no cover - avoid circular import at runtime
    from ...ns.bc import BoundaryConditions


class _MixedSpaceOperator(MatrixFreeOperator):
    def __init__(
        self,
        dof_u: DGDofHandler,
        dof_p: DGDofHandler,
        geometry: GeometryField,
        connectivity: MeshConnectivity,
        bcs: "BoundaryConditions",
    ) -> None:
        if dof_u.degree != geometry.degree:
            raise ValueError("geometry must be built at the velocity degree")
        if dof_p.degree != dof_u.degree - 1:
            raise ValueError("pressure degree must be velocity degree - 1")
        self.dof_u = dof_u
        self.dof_p = dof_p
        self.kern_u = geometry.kernel
        self.kern_p = TensorProductKernel(dof_p.degree, geometry.kernel.n_q_points)
        self.fk_u = FaceKernels(self.kern_u)
        self.fk_p = FaceKernels(self.kern_p)
        self.geo = geometry
        self.conn = connectivity
        self.bcs = bcs
        self.cell_metrics = geometry.cell_metrics()
        self.face_metrics, self.bdry_metrics = geometry.all_face_metrics(connectivity)
        present = {b.boundary_id for b in connectivity.boundary}
        self.velocity_dirichlet = set(bcs.velocity_dirichlet_ids(present))
        self.pressure_dirichlet = set(bcs.pressure_dirichlet_ids(present))


class DivergenceOperator(_MixedSpaceOperator):
    """q -> (div u, q): maps a velocity vector to a pressure-space vector."""

    @property
    def n_dofs(self) -> int:
        return self.dof_p.n_dofs

    def apply(
        self,
        u_flat: np.ndarray,
        t: float = 0.0,
        interior_trace_everywhere: bool = False,
    ) -> np.ndarray:
        """``interior_trace_everywhere=True`` evaluates the boundary flux
        from the field's own trace — the form entering the pressure
        Poisson right-hand side of the dual splitting, where all boundary
        physics is carried by the consistent pressure Neumann data."""
        u = self.dof_u.cell_view(u_flat)  # (*lead, N, 3, n, n, n)
        cm = self.cell_metrics
        ax = u.ndim - 5
        # cell term: -int grad(q) . u
        uq = self.kern_u.values(u)
        rg = contract("cilzyx,...cizyx->l...czyx", cm.jinv_t, uq)
        rg *= -cm.jxw
        out = self.kern_p.integrate_gradients_cm(rg)
        # interior faces: central flux
        for ib, (batch, fm) in enumerate(zip(self.conn.interior, self.face_metrics)):
            um, up = self.fk_u.interior_values(u, batch, ax)
            un = contract("fiab,...fiab->...fab", fm.normal, 0.5 * (um + up))
            self._add_interior_flux(out, self.fk_p, ib, batch, un * fm.jxw, ax)
        # boundary faces
        for ib, (batch, fm) in enumerate(zip(self.conn.boundary, self.bdry_metrics)):
            if batch.boundary_id in self.velocity_dirichlet and not interior_trace_everywhere:
                pts = fm.points
                g = np.asarray(
                    self.bcs.velocity_value(
                        batch.boundary_id, pts[:, 0], pts[:, 1], pts[:, 2], t
                    ),
                    dtype=u.dtype,
                )
                # (.., 3, F, a, b) -> (.., F, 3, a, b); member-independent
                # data broadcasts across the batch in the scatter
                ustar = np.moveaxis(g, -4, -3)
            else:
                ustar = self.fk_u.side_values(
                    np.take(u, batch.cells, axis=ax), batch.face
                )
            un = contract("fiab,...fiab->...fab", fm.normal, ustar)
            contrib = self.fk_p.integrate_side(batch.face, un * fm.jxw, None)
            self._scatter_add(out, batch.cells, contrib, ("bdy", ib), axis=ax)
        return self.dof_p.flat(out)

    def vmult(self, u_flat: np.ndarray) -> np.ndarray:
        """Homogeneous-data (linear) application: velocity-Dirichlet
        boundary data treated as zero."""
        from ...ns.bc import BoundaryConditions, VelocityDirichlet

        saved = self.bcs
        self.bcs = BoundaryConditions(
            {bid: VelocityDirichlet.no_slip() for bid in self.velocity_dirichlet}
        )
        try:
            return self.apply(u_flat)
        finally:
            self.bcs = saved


class GradientOperator(_MixedSpaceOperator):
    """v -> (grad p, v): maps a pressure vector to a velocity-space vector."""

    @property
    def n_dofs(self) -> int:
        return self.dof_u.n_dofs

    def apply(self, p_flat: np.ndarray, t: float = 0.0) -> np.ndarray:
        p = self.dof_p.cell_view(p_flat)  # (*lead, N, n_p, n_p, n_p)
        cm = self.cell_metrics
        ax = p.ndim - 4
        # cell term: -int p div(v) -> component-major ref-grad
        # coefficients of each v_i
        coeff = -(self.kern_p.values(p) * cm.jxw)
        rg = contract("cilzyx,...czyx->l...cizyx", cm.jinv_t, coeff)
        out = self.kern_u.integrate_gradients_cm(rg)
        # interior faces: central flux {p} n . [v]
        for ib, (batch, fm) in enumerate(zip(self.conn.interior, self.face_metrics)):
            pm, pp = self.fk_p.interior_values(p, batch, ax)
            rv = (0.5 * (pm + pp) * fm.jxw)[..., None, :, :] * fm.normal
            self._add_interior_flux(out, self.fk_u, ib, batch, rv, ax)
        # boundary faces
        for ib, (batch, fm) in enumerate(zip(self.conn.boundary, self.bdry_metrics)):
            if batch.boundary_id in self.pressure_dirichlet:
                pts = fm.points
                # member-independent data broadcasts across the batch
                pstar = np.asarray(
                    self.bcs.pressure_value(
                        batch.boundary_id, pts[:, 0], pts[:, 1], pts[:, 2], t
                    ),
                    dtype=p.dtype,
                )
            else:
                pstar = self.fk_p.side_values(
                    np.take(p, batch.cells, axis=ax), batch.face
                )
            rv = (pstar * fm.jxw)[..., None, :, :] * fm.normal
            contrib = self.fk_u.integrate_side(batch.face, rv, None)
            self._scatter_add(out, batch.cells, contrib, ("bdy", ib), axis=ax)
        return self.dof_u.flat(out)

    def vmult(self, p_flat: np.ndarray) -> np.ndarray:
        """Homogeneous-data application (pressure-Dirichlet data = 0)."""
        from ...ns.bc import BoundaryConditions, PressureDirichlet

        saved = self.bcs
        self.bcs = BoundaryConditions(
            {bid: PressureDirichlet(0.0) for bid in self.pressure_dirichlet}
        )
        try:
            return self.apply(p_flat)
        finally:
            self.bcs = saved
