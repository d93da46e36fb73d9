"""Divergence and continuity penalty operator A_pen (Eq. (5)).

Following Fehn et al. (2018), the stabilization that equips the L^2
space with H(div)-like robustness combines

* a **divergence penalty** per element,
  ``sum_e int tau_div (div u)(div v)``, and
* a **continuity penalty** per interior face,
  ``sum_f int tau_c [u . n][v . n]``,

with velocity-scaled parameters ``tau_div,e = zeta_div |u|_e h_e /
(k + 1)`` and ``tau_c,f = zeta_c |u|_f`` recomputed each time step from
the current solution (``|u|_e``: mean speed, ``h_e = V_e^{1/3}``).  The
penalty step solves ``(M + dt A_pen) u = M u_hat`` by inverse-mass
preconditioned CG — the mass operator the whole stabilization design
exploits (Section 2.3).

The continuity penalty is one flux block of the planned value loop
(:class:`~repro.core.operators.base.FaceLoop`) with the velocity
components and ensemble members on its leading axis; ``tau_c`` is one
``(*lead, faces)`` array over the interior faces in loop order.
"""

from __future__ import annotations

import numpy as np

from ...mesh.connectivity import MeshConnectivity
from ...mesh.mapping import (GeometryField, cell_sums, isotropic_to_reference, normal_dot,
                             to_physical, trace)
from ..dof_handler import DGDofHandler
from .base import MatrixFreeOperator, value_faces
from .mass import MassOperator


class DivergenceContinuityPenalty(MatrixFreeOperator):
    def __init__(
        self,
        dof_u: DGDofHandler,
        geometry: GeometryField,
        connectivity: MeshConnectivity,
        zeta_div: float = 1.0,
        zeta_cont: float = 1.0,
    ) -> None:
        self.dof = dof_u
        self.kern = geometry.kernel
        self.conn = connectivity
        cm = geometry.cell_metrics()
        self.jinv_t, self.jxw = cm.jinv_t, cm.jxw
        self.loop, self.face_data = value_faces(geometry, connectivity)
        (cm, _, cp, *_), _ = self.loop.table
        f = self.loop.src_faces[self.loop.src_faces < cm.size]
        self._face_cells = cm[f], cp[f]  # interior faces in loop order
        self.zeta_div = zeta_div
        self.zeta_cont = zeta_cont
        self.h_cell = cell_sums(self.jxw) ** (1.0 / 3.0)
        self.tau_div = np.zeros(dof_u.n_cells)
        self.tau_cont = np.zeros(connectivity.n_interior_faces)

    @property
    def n_dofs(self) -> int:
        return self.dof.n_dofs

    def update_parameters(self, u_flat: np.ndarray) -> None:
        """Recompute tau from the current velocity (called once per time
        step before the penalty solve).  ``(*lead, n)`` input yields
        ``tau_div`` ``(*lead, N)`` / ``tau_cont`` ``(*lead, F)`` fields
        (``tau_cont`` over the interior faces in loop order)."""
        uq = self.kern.values(self.dof.lanes(u_flat))
        speed = np.sqrt((uq**2).sum(axis=-5))
        jxw = self.jxw
        mean_speed = cell_sums(speed * jxw) / cell_sums(jxw)
        k = self.dof.degree
        self.tau_div = self.zeta_div * mean_speed * self.h_cell / (k + 1)
        cm, cp = self._face_cells
        self.tau_cont = self.zeta_cont * 0.5 * (mean_speed[..., cm] + mean_speed[..., cp])

    def vmult(self, x: np.ndarray) -> np.ndarray:
        ul = self.dof.lanes(x)  # (*lead, 3, n, n, n, N)
        kern = self.kern
        # divergence penalty: tau_div (div u)(div v), on lane blocks.
        # ROADMAP 1(A): the swapaxes transposes the trial-side gradient;
        # the fix deletes it.
        grads = np.swapaxes(kern.gradients_cm(ul), 0, -5)
        div = trace(to_physical(self.jinv_t, grads))
        coeff = div * self.jxw * self.tau_div[..., None, None, None, :]
        out = kern.integrate_gradients_cm(isotropic_to_reference(self.jinv_t, coeff))
        fd = self.face_data
        tau = np.reshape(self.tau_cont, (-1, np.shape(self.tau_cont)[-1]))

        def flux(v, ch):
            # continuity penalty tau_c [u.n][v.n] on the interior rows;
            # the boundary rows carry none
            v = v.reshape((-1, 3) + v.shape[1:])
            F, Fi, i0 = ch.F, ch.Fi, ch.f0 - ch.b0
            nrm, w = fd.normal[:, ch.f0:ch.f0 + Fi], fd.jxw[ch.f0:ch.f0 + Fi]
            jump_n = normal_dot(nrm, v[:, :, :Fi] - v[:, :, F:])
            q = tau[:, i0:i0 + Fi, None] * jump_n * w
            rv = np.zeros_like(v[:, :, :F])
            rv[:, :, :Fi] = q[:, None] * nrm
            return rv

        self.loop.apply(ul.reshape((-1,) + ul.shape[-4:]), out.reshape((-1,) + out.shape[-4:]),
                        flux)
        return out.reshape(x.shape)

    def diagonal(self) -> np.ndarray:  # pragma: no cover - inv-mass preconditioned
        raise NotImplementedError


class PenaltyStepOperator(MatrixFreeOperator):
    """``M + dt * A_pen`` of the penalty step (Eq. (5))."""

    def __init__(self, mass: MassOperator, penalty: DivergenceContinuityPenalty) -> None:
        self.mass = mass
        self.penalty = penalty
        self.dt = 1.0

    def set_dt(self, dt: float) -> None:
        self.dt = float(dt)

    @property
    def n_dofs(self) -> int:
        return self.mass.n_dofs

    def _build_work_model(self) -> dict:
        # own work: the scale-and-add of the nested mass/penalty results
        n = float(self.n_dofs)
        return {"flops": 2.0 * n, "bytes": 3.0 * self.precision_bytes * n, "dofs": n}

    def vmult(self, x: np.ndarray) -> np.ndarray:
        return self.mass.vmult(x) + self.dt * self.penalty.vmult(x)

    def diagonal(self) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError
