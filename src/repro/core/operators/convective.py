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

The face term is one flux block of the planned value loop
(:class:`~repro.core.operators.base.FaceLoop`): the three velocity
components (and any ensemble members) ride the loop's leading axis, every
face side is a row of the same chunked gather, flux and scatter, and the
Dirichlet data of each boundary id is evaluated once per application on
all of that id's quadrature points.
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

from ...mesh.connectivity import MeshConnectivity
from ...mesh.mapping import GeometryField, normal_dot, to_reference
from ..dof_handler import DGDofHandler
from .base import MatrixFreeOperator, dirichlet_rows, value_faces

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
        self.geo = geometry_over
        self.conn = connectivity
        self.bcs = bcs
        cm = geometry_over.cell_metrics()
        self.jinv_t, self.jxw = cm.jinv_t, cm.jxw
        self.loop, self.face_data = value_faces(geometry_over, connectivity)
        present = {b.boundary_id for b in connectivity.boundary}
        self.velocity_dirichlet = set(bcs.velocity_dirichlet_ids(present))

    @property
    def n_dofs(self) -> int:
        return self.dof.n_dofs

    def _lax_friedrichs(self, vm, vp, normal):
        """Numerical flux (..., 3, F, q*q) in the minus normal direction."""
        un_m = normal_dot(normal, vm)
        un_p = normal_dot(normal, vp)
        lam = np.maximum(np.abs(un_m), np.abs(un_p))
        central = 0.5 * (vm * un_m[..., None, :, :] + vp * un_p[..., None, :, :])
        return central + 0.5 * lam[..., None, :, :] * (vm - vp)

    def apply(self, u_flat: np.ndarray, t: float = 0.0) -> np.ndarray:
        ul = self.dof.lanes(u_flat)  # (*lead, 3, n, n, n, N)
        kern = self.kern
        # cell term: -int (u (x) u) : grad(v), on lane blocks
        uq = kern.values(ul)
        # ref-grad coefficient of v_i, component-major: the physical
        # (u (x) u)[i, :] = u_i u to the reference frame, -u_i (J^{-1} u) jxw
        uref = to_reference(self.jinv_t, np.moveaxis(uq, -5, 0))
        uref *= -self.jxw
        out = kern.integrate_gradients_cm(uref[..., None, :, :, :, :] * uq)
        fd = self.face_data
        g, rows = dirichlet_rows(self.loop, fd.points, self.velocity_dirichlet,
                                 self.bcs.velocity_value, t, 1, out.dtype)

        def flux(v, ch):
            v = v.reshape((-1, 3) + v.shape[1:])
            F, Fi, b = ch.F, ch.Fi, slice(ch.b0, ch.b0 + ch.F - ch.Fi)
            vm, vp = v[:, :, :F], np.empty_like(v[:, :, :F])
            vp[:, :, :Fi] = v[:, :, F:]
            # mirrored ghost -u_m + 2 g on velocity-Dirichlet rows, the
            # interior trace elsewhere (member-independent g broadcasts)
            vb = vm[:, :, Fi:]
            vp[:, :, Fi:] = np.where(rows[b], -vb + 2.0 * g[:, :, b], vb)
            f = slice(ch.f0, ch.f0 + F)
            return self._lax_friedrichs(vm, vp, fd.normal[:, f]) * fd.jxw[f]

        self.loop.apply(ul.reshape((-1,) + ul.shape[-4:]), out.reshape((-1,) + out.shape[-4:]),
                        flux)
        return out.reshape(u_flat.shape)

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
        uq = self.kern.values(self.dof.lanes(u_flat))
        uref = to_reference(self.jinv_t, np.moveaxis(uq, -5, 0))
        speed = np.sqrt((uref**2).sum(axis=0))
        return speed.reshape(u_flat.shape[:-1] + (-1,)).max(axis=-1)
