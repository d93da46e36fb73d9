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
        step before the penalty solve).  Ensemble-stacked input yields
        per-member ``tau_div`` (E, N) / ``tau_cont`` (E, F) fields."""
        if u_flat.ndim == 2 and u_flat.shape[0] == 1:
            return self.update_parameters(u_flat[0])
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
        if x.ndim == 2:
            # ensemble-stacked states; E=1 keeps the unbatched bitstream
            if x.shape[0] == 1:
                return self._vmult_impl(x[0], ensemble=False)[None]
            return self._vmult_impl(x, ensemble=True)
        return self._vmult_impl(x, ensemble=False)

    def _vmult_impl(self, x: np.ndarray, ensemble: bool) -> np.ndarray:
        u = self.dof.cell_view(x)
        kern = self.kern
        cm = self.cell_metrics
        ax = 1 if ensemble else 0
        # divergence penalty: tau_div (div u)(div v)
        grads = np.stack(
            [kern.gradients(u[..., i, :, :, :]) for i in range(3)], axis=-4
        )
        if ensemble:
            div = contract("cilzyx,ecilzyx->eczyx", cm.jinv_t, grads)
        else:
            div = contract("cilzyx,cilzyx->czyx", cm.jinv_t, grads)
        coeff = div * cm.jxw * self.tau_div[..., None, None, None]
        if ensemble:
            rg = contract("cilzyx,eczyx->ecilzyx", cm.jinv_t, coeff)
        else:
            rg = contract("cilzyx,czyx->cilzyx", cm.jinv_t, coeff)
        out = np.stack(
            [kern.integrate_gradients(rg[..., i, :, :, :, :]) for i in range(3)],
            axis=-4,
        )
        # continuity penalty: tau_c [u.n][v.n]
        for ib, (batch, fm, tau) in enumerate(
            zip(self.conn.interior, self.face_metrics, self.tau_cont)
        ):
            um = u[:, batch.cells_m] if ensemble else u[batch.cells_m]
            up = u[:, batch.cells_p] if ensemble else u[batch.cells_p]
            tm = kern.face_nodal_trace(um, batch.face_m)
            tp = kern.face_nodal_trace(up, batch.face_p)
            vm = self.fk.to_quad(tm)
            vp = self.fk.to_quad(tp, batch.orientation, batch.subface)
            sub = "fiab,efiab->efab" if ensemble else "fiab,fiab->fab"
            jump_n = contract(sub, fm.normal, vm - vp)
            q = tau[..., None, None] * jump_n * fm.jxw
            rv = q[..., None, :, :] * fm.normal
            contrib_m = self.fk.integrate_side(batch.face_m, rv, None)
            contrib_p = self.fk.integrate_side(
                batch.face_p, -rv, None, batch.orientation, batch.subface
            )
            self._scatter_add(out, batch.cells_m, contrib_m, ("int", ib, "m"), axis=ax)
            self._scatter_add(out, batch.cells_p, contrib_p, ("int", ib, "p"), axis=ax)
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
