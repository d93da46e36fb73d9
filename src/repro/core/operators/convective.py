"""Nonlinear convective operator ``div(u (x) u)`` with the local
Lax–Friedrichs flux (Section 2.3), evaluated explicitly in the splitting
scheme (Eq. (1)).

Over-integration: aliasing from the quadratic nonlinearity is tamed by
evaluating on ``k + 2`` Gauss points per direction (Fehn et al. 2018),
so the operator carries its own :class:`GeometryField` at the higher
quadrature.

Flux: ``F*(u_m, u_p) = {u (x) u} n + lambda/2 (u_m - u_p)`` with
``lambda = max(|u_m . n|, |u_p . n|)``.  Boundary data: mirrored
``u_p = -u_m + 2 g`` on velocity-Dirichlet boundaries (energy-stable),
``u_p = u_m`` on pressure/outflow boundaries.
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

from ...mesh.connectivity import MeshConnectivity
from ...mesh.mapping import GeometryField
from ..dof_handler import DGDofHandler
from ..plans import contract
from .base import FaceKernels, MatrixFreeOperator

if TYPE_CHECKING:  # pragma: no cover - avoid circular import at runtime
    from ...ns.bc import BoundaryConditions


class ConvectiveOperator(MatrixFreeOperator):
    def __init__(
        self,
        dof_u: DGDofHandler,
        geometry_over: GeometryField,
        connectivity: MeshConnectivity,
        bcs: "BoundaryConditions",
    ) -> None:
        if geometry_over.kernel.n_q_points < dof_u.degree + 2:
            raise ValueError("convective term expects over-integration (>= k+2 points)")
        self.dof = dof_u
        self.kern = geometry_over.kernel
        self.fk = FaceKernels(self.kern)
        self.geo = geometry_over
        self.conn = connectivity
        self.bcs = bcs
        self.cell_metrics = geometry_over.cell_metrics()
        self.face_metrics, self.bdry_metrics = geometry_over.all_face_metrics(connectivity)
        present = {b.boundary_id for b in connectivity.boundary}
        self.velocity_dirichlet = set(bcs.velocity_dirichlet_ids(present))

    @property
    def n_dofs(self) -> int:
        return self.dof.n_dofs

    def _lax_friedrichs(self, vm, vp, normal):
        """Numerical flux (..., F, 3, a, b) in the minus normal direction."""
        un_m = contract("fiab,...fiab->...fab", normal, vm)
        un_p = contract("fiab,...fiab->...fab", normal, vp)
        lam = np.maximum(np.abs(un_m), np.abs(un_p))
        central = 0.5 * (
            vm * un_m[..., None, :, :] + vp * un_p[..., None, :, :]
        )
        return central + 0.5 * lam[..., None, :, :] * (vm - vp)

    def apply(self, u_flat: np.ndarray, t: float = 0.0) -> np.ndarray:
        u = self.dof.cell_view(u_flat)  # (*lead, N, 3, n, n, n)
        kern = self.kern
        cm = self.cell_metrics
        ax = u.ndim - 5
        # cell term: -int (u (x) u) : grad(v)
        uq = kern.values(u)
        # F[i, j] = u_i u_j; ref-grad coefficient of v_i, component-major:
        #   rg[l, .., i] = -sum_j F[i,j] jinv_t[j,l] * jxw
        Fu = contract("...cizyx,...cjzyx->...cijzyx", uq, uq)
        rg = contract("...cijzyx,cjlzyx->l...cizyx", Fu, cm.jinv_t)
        rg *= -cm.jxw[:, None]
        out = kern.integrate_gradients_cm(rg)
        # interior faces
        for ib, (batch, fm) in enumerate(zip(self.conn.interior, self.face_metrics)):
            vm, vp = self.fk.interior_values(u, batch, ax)
            flux = self._lax_friedrichs(vm, vp, fm.normal) * fm.jxw[:, None]
            self._add_interior_flux(out, self.fk, ib, batch, flux, ax)
        # boundary faces
        for ib, (batch, fm) in enumerate(zip(self.conn.boundary, self.bdry_metrics)):
            vm = self.fk.side_values(np.take(u, batch.cells, axis=ax), batch.face)
            if batch.boundary_id in self.velocity_dirichlet:
                pts = fm.points
                g = np.asarray(
                    self.bcs.velocity_value(
                        batch.boundary_id, pts[:, 0], pts[:, 1], pts[:, 2], t
                    ),
                    dtype=vm.dtype,
                )
                # component axis behind the face axis: (.., 3, F, a, b)
                # -> (.., F, 3, a, b); member-independent data broadcasts
                vp = -vm + 2.0 * np.moveaxis(g, -4, -3)
            else:
                vp = vm
            flux = self._lax_friedrichs(vm, vp, fm.normal) * fm.jxw[:, None]
            contrib = self.fk.integrate_side(batch.face, flux, None)
            self._scatter_add(out, batch.cells, contrib, ("bdy", ib), axis=ax)
        return self.dof.flat(out)

    def vmult(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - nonlinear
        raise NotImplementedError("convective operator is nonlinear; use apply()")

    def diagonal(self) -> np.ndarray:  # pragma: no cover - explicit operator
        raise NotImplementedError

    def max_reference_velocity(self, u_flat: np.ndarray):
        """max_q |J^{-1} u| over the mesh — the inverse local transport
        time scale entering the adaptive CFL condition (Eq. (6)).

        Ensemble-stacked input ``(E, ndof)`` returns a per-member
        ``(E,)`` array (members share dt; the per-member CFL that this
        feeds is recorded in the step statistics).
        """
        uq = self.kern.values(self.dof.cell_view(u_flat))
        # J^{-1} u: ref-space velocity = (jinv)[l,i] u_i; jinv_t[i,l] = jinv[l,i]
        uref = contract("cilzyx,...cizyx->...clzyx", self.cell_metrics.jinv_t, uq)
        speed = np.sqrt((uref**2).sum(axis=-4))
        return speed.reshape(u_flat.shape[:-1] + (-1,)).max(axis=-1)
