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
"""

from __future__ import annotations

import numpy as np

from ...mesh.connectivity import MeshConnectivity
from ...mesh.mapping import GeometryField
from ..dof_handler import DGDofHandler
from ..plans import contract
from .base import FaceKernels, MatrixFreeOperator
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
        self.fk = FaceKernels(self.kern)
        self.conn = connectivity
        self.cell_metrics = geometry.cell_metrics()
        self.face_metrics, _ = geometry.all_face_metrics(connectivity)
        self.zeta_div = zeta_div
        self.zeta_cont = zeta_cont
        vols = self.cell_metrics.jxw.reshape(dof_u.n_cells, -1).sum(axis=1)
        self.h_cell = vols ** (1.0 / 3.0)
        self.tau_div = np.zeros(dof_u.n_cells)
        self.tau_cont = [np.zeros(b.n_faces) for b in connectivity.interior]
        self._mass_weight = self.cell_metrics.jxw

    @property
    def n_dofs(self) -> int:
        return self.dof.n_dofs

    def update_parameters(self, u_flat: np.ndarray) -> None:
        """Recompute tau from the current velocity (called once per time
        step before the penalty solve).  ``(*lead, n)`` input yields
        ``tau_div`` ``(*lead, N)`` / ``tau_cont`` ``(*lead, F)`` fields."""
        u = self.dof.cell_view(u_flat)
        uq = self.kern.values(u)
        speed = np.sqrt((uq**2).sum(axis=-4))
        vols = self._mass_weight.reshape(self.dof.n_cells, -1).sum(axis=1)
        sp = speed * self._mass_weight
        mean_speed = sp.reshape(sp.shape[:-3] + (-1,)).sum(axis=-1) / vols
        k = self.dof.degree
        self.tau_div = self.zeta_div * mean_speed * self.h_cell / (k + 1)
        self.tau_cont = [
            self.zeta_cont
            * 0.5
            * (mean_speed[..., b.cells_m] + mean_speed[..., b.cells_p])
            for b in self.conn.interior
        ]

    def vmult(self, x: np.ndarray) -> np.ndarray:
        u = self.dof.cell_view(x)  # (*lead, N, 3, n, n, n)
        kern = self.kern
        cm = self.cell_metrics
        ax = u.ndim - 5
        # divergence penalty: tau_div (div u)(div v).  ROADMAP 1(A): the
        # swapaxes transposes the trial-side gradient; the fix deletes it.
        grads = np.swapaxes(kern.gradients(u), -4, -5)
        div = contract("cilzyx,...cilzyx->...czyx", cm.jinv_t, grads)
        coeff = div * cm.jxw * self.tau_div[..., None, None, None]
        rg = contract("cilzyx,...czyx->l...cizyx", cm.jinv_t, coeff)
        out = kern.integrate_gradients_cm(rg)
        # continuity penalty: tau_c [u.n][v.n]
        for ib, (batch, fm, tau) in enumerate(
            zip(self.conn.interior, self.face_metrics, self.tau_cont)
        ):
            vm, vp = self.fk.interior_values(u, batch, ax)
            jump_n = contract("fiab,...fiab->...fab", fm.normal, vm - vp)
            q = tau[..., None, None] * jump_n * fm.jxw
            rv = q[..., None, :, :] * fm.normal
            self._add_interior_flux(out, self.fk, ib, batch, rv, ax)
        return self.dof.flat(out)

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
