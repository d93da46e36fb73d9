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

    def _face_values(self, fk, cells_view, batch, ensemble: bool = False):
        """Value traces of both sides at minus-frame quad points."""
        kern = fk.kern
        cm = cells_view[:, batch.cells_m] if ensemble else cells_view[batch.cells_m]
        cp = cells_view[:, batch.cells_p] if ensemble else cells_view[batch.cells_p]
        tm = kern.face_nodal_trace(cm, batch.face_m)
        tp = kern.face_nodal_trace(cp, batch.face_p)
        vm = fk.to_quad(tm)
        vp = fk.to_quad(tp, batch.orientation, batch.subface)
        return vm, vp


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
        if u_flat.ndim == 2:
            # ensemble-stacked states; E=1 keeps the unbatched bitstream
            if u_flat.shape[0] == 1:
                return self._apply_impl(
                    u_flat[0], t, interior_trace_everywhere, ensemble=False
                )[None]
            return self._apply_impl(
                u_flat, t, interior_trace_everywhere, ensemble=True
            )
        return self._apply_impl(u_flat, t, interior_trace_everywhere, ensemble=False)

    def _apply_impl(
        self,
        u_flat: np.ndarray,
        t: float,
        interior_trace_everywhere: bool,
        ensemble: bool,
    ) -> np.ndarray:
        u = self.dof_u.cell_view(u_flat)  # (N, 3, n, n, n)
        kern_u, kern_p = self.kern_u, self.kern_p
        cm = self.cell_metrics
        ax = 1 if ensemble else 0
        # cell term: -int grad(q) . u
        uq = kern_u.values(u)  # (N, 3, q, q, q)
        if ensemble:
            rg = -contract("cilzyx,ecizyx->eclzyx", cm.jinv_t, uq)
        else:
            rg = -contract("cilzyx,cizyx->clzyx", cm.jinv_t, uq)
        out = kern_p.integrate_gradients(rg * cm.jxw[:, None])
        # interior faces: central flux
        for ib, (batch, fm) in enumerate(zip(self.conn.interior, self.face_metrics)):
            um, up = self._face_values(self.fk_u, u, batch, ensemble)
            sub = "fiab,efiab->efab" if ensemble else "fiab,fiab->fab"
            un = contract(sub, fm.normal, 0.5 * (um + up))
            w = fm.jxw
            rv_m = un * w
            contrib_m = self.fk_p.integrate_side(batch.face_m, rv_m, None)
            contrib_p = self.fk_p.integrate_side(
                batch.face_p, -rv_m, None, batch.orientation, batch.subface
            )
            self._scatter_add(out, batch.cells_m, contrib_m, ("int", ib, "m"), axis=ax)
            self._scatter_add(out, batch.cells_p, contrib_p, ("int", ib, "p"), axis=ax)
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
                # (.., 3, F, a, b) -> (.., F, 3, a, b)
                ustar = np.moveaxis(g, -4, -3)
                if ensemble and ustar.ndim == 4:
                    # member-independent data: shared across the batch
                    ustar = np.broadcast_to(
                        ustar, u.shape[:1] + ustar.shape
                    )
            else:
                uc = u[:, batch.cells] if ensemble else u[batch.cells]
                tm = self.kern_u.face_nodal_trace(uc, batch.face)
                ustar = self.fk_u.to_quad(tm)
            sub = "fiab,efiab->efab" if ensemble else "fiab,fiab->fab"
            un = contract(sub, fm.normal, ustar)
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
        if p_flat.ndim == 2:
            # ensemble-stacked states; E=1 keeps the unbatched bitstream
            if p_flat.shape[0] == 1:
                return self._apply_impl(p_flat[0], t, ensemble=False)[None]
            return self._apply_impl(p_flat, t, ensemble=True)
        return self._apply_impl(p_flat, t, ensemble=False)

    def _apply_impl(self, p_flat: np.ndarray, t: float, ensemble: bool) -> np.ndarray:
        p = self.dof_p.cell_view(p_flat)  # (N, n_p, n_p, n_p)
        kern_u, kern_p = self.kern_u, self.kern_p
        cm = self.cell_metrics
        ax = 1 if ensemble else 0
        # cell term: -int p div(v) -> ref-grad coefficients of each v_i
        pq = kern_p.values(p)  # (N, q, q, q)
        coeff = -(pq * cm.jxw)
        if ensemble:
            rg = contract("cilzyx,eczyx->ecilzyx", cm.jinv_t, coeff)
        else:
            rg = contract("cilzyx,czyx->cilzyx", cm.jinv_t, coeff)
        out = np.stack(
            [kern_u.integrate_gradients(rg[..., i, :, :, :, :]) for i in range(3)],
            axis=-4,
        )
        # interior faces: central flux {p} n . [v]
        for ib, (batch, fm) in enumerate(zip(self.conn.interior, self.face_metrics)):
            pm, pp = self._face_values(self.fk_p, p, batch, ensemble)
            pavg = 0.5 * (pm + pp)
            w = fm.jxw
            rv_m = (pavg * w)[..., None, :, :] * fm.normal  # (F, 3, a, b)
            contrib_m = self.fk_u.integrate_side(batch.face_m, rv_m, None)
            contrib_p = self.fk_u.integrate_side(
                batch.face_p, -rv_m, None, batch.orientation, batch.subface
            )
            self._scatter_add(out, batch.cells_m, contrib_m, ("int", ib, "m"), axis=ax)
            self._scatter_add(out, batch.cells_p, contrib_p, ("int", ib, "p"), axis=ax)
        # boundary faces
        for ib, (batch, fm) in enumerate(zip(self.conn.boundary, self.bdry_metrics)):
            pc = p[:, batch.cells] if ensemble else p[batch.cells]
            tm = self.kern_p.face_nodal_trace(pc, batch.face)
            pm = self.fk_p.to_quad(tm)
            if batch.boundary_id in self.pressure_dirichlet:
                pts = fm.points
                pstar = np.asarray(
                    self.bcs.pressure_value(
                        batch.boundary_id, pts[:, 0], pts[:, 1], pts[:, 2], t
                    ),
                    dtype=pm.dtype,
                )
                if ensemble and pstar.ndim == 3:
                    # member-independent data: shared across the batch
                    pstar = np.broadcast_to(pstar, p.shape[:1] + pstar.shape)
            else:
                pstar = pm
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
