"""Passive-scalar (gas) transport on a frozen velocity field.

Section 2.2: "Of high relevance is also the transport of oxygen and
carbon dioxide ... developments and performance improvements enabling
scale-resolving flow simulations are also a prerequisite for accurately
predicting the transport of particles (air pollution, pharmaceuticals)
in the respiratory system."  This module implements that extension: a
DG advection-diffusion solver for a scalar concentration,

    dc/dt + div(u c) - D lap(c) = 0,

with upwind advective fluxes, SIP diffusion, weak Dirichlet inflow data
(e.g. the O2 fraction delivered by the ventilator), and explicit
strong-stability-preserving RK time stepping preconditioned by the fast
mass inverse — the same matrix-free machinery as the flow solver.
"""

from __future__ import annotations

import numpy as np

from ..core.dof_handler import DGDofHandler
from ..core.operators.base import value_faces
from ..core.operators.laplace import DGLaplaceOperator
from ..core.operators.mass import InverseMassOperator
from ..mesh.connectivity import MeshConnectivity
from ..mesh.mapping import GeometryField, normal_dot, to_reference


class ScalarAdvectionOperator:
    """Weak form of ``div(u c)`` with upwind numerical fluxes.

    The advecting velocity is a DG field frozen per transport step (the
    usual operator-splitting between flow and transport); the scalar and
    the three velocity components ride the leading axis of the same
    planned value loop as the flow operators.
    """

    def __init__(
        self,
        dof_c: DGDofHandler,
        dof_u: DGDofHandler,
        geometry: GeometryField,
        connectivity: MeshConnectivity,
        inflow_values: dict[int, float] | None = None,
        outflow_ids: tuple[int, ...] = (),
    ) -> None:
        if dof_c.degree != geometry.degree:
            raise ValueError("geometry must match the scalar space degree")
        if dof_u.degree != dof_c.degree:
            raise ValueError(
                "the transport operator evaluates u and c at the same "
                "quadrature; use equal degrees (interpolate u if needed)"
            )
        self.dof_c = dof_c
        self.dof_u = dof_u
        self.kern = geometry.kernel
        self.conn = connectivity
        self.cell_metrics = geometry.cell_metrics()
        self.loop, self.face_data = value_faces(geometry, connectivity)
        #: boundary id -> prescribed inflow concentration
        self.inflow_values = dict(inflow_values or {})
        self.outflow_ids = set(outflow_ids)
        # inflow concentration per boundary face, NaN off the inflow ids
        self._c_in = np.array([self.inflow_values.get(b, np.nan) for b in self.loop.bids],
                              float)[:, None]

    @property
    def n_dofs(self) -> int:
        return self.dof_c.n_dofs

    def _upwind(self, cm_, cp_, un):
        """Upwind flux value (u.n) c* in the minus frame."""
        return np.where(un >= 0, un * cm_, un * cp_)

    def apply(self, c_flat: np.ndarray, u_flat: np.ndarray) -> np.ndarray:
        kern = self.kern
        cmx = self.cell_metrics
        # cell term: -int c u . grad(v), on lane blocks
        cl, ul = self.dof_c.lanes(c_flat), self.dof_u.lanes(u_flat)
        cq, uq = kern.values(cl), kern.values(ul)
        out = kern.integrate_gradients_cm(to_reference(cmx.jinv_t, uq * -(cq * cmx.jxw)))
        fd, c_in = self.face_data, self._c_in

        def flux(v, ch):
            # upwind on interior faces; boundary faces: inflow data where
            # u.n < 0 on inflow ids, the interior value elsewhere
            F, Fi, b = ch.F, ch.Fi, slice(ch.b0, ch.b0 + ch.F - ch.Fi)
            c_m, c_p = v[0, :F], np.empty_like(v[0, :F])
            c_p[:Fi] = v[0, F:]
            c_p[Fi:] = np.where(np.isnan(c_in[b]), c_m[Fi:], c_in[b])
            um = v[1:, :F].copy()
            um[:, :Fi] = 0.5 * (um[:, :Fi] + v[1:, F:])
            un = normal_dot(fd.normal[:, ch.f0:ch.f0 + F], um)
            return self._upwind(c_m, c_p, un) * fd.jxw[ch.f0:ch.f0 + F]

        self.loop.apply(np.concatenate([cl[None], ul]), out[None], flux)
        return out.reshape(-1)

    def boundary_mean(self, c_flat: np.ndarray, boundary_id: int) -> float:
        """Area-weighted mean of the concentration over one boundary id."""
        c = self.loop.boundary_values(self.dof_c.lanes(c_flat)[None])[0]
        sel = self.loop.bids == boundary_id
        w = self.face_data.jxw[self.loop.bface[sel]]
        return float((c[sel] * w).sum() / w.sum())


class ScalarTransportSolver:
    """Explicit SSP-RK2 advection-diffusion of a passive scalar."""

    def __init__(
        self,
        forest,
        degree: int,
        diffusivity: float,
        connectivity: MeshConnectivity,
        geometry: GeometryField,
        dof_u: DGDofHandler,
        inflow_values: dict[int, float] | None = None,
        dirichlet_ids: tuple[int, ...] = (),
    ) -> None:
        self.dof_c = DGDofHandler(forest, degree)
        self.diffusivity = float(diffusivity)
        self.advection = ScalarAdvectionOperator(
            self.dof_c, dof_u, geometry, connectivity, inflow_values
        )
        self.diffusion = DGLaplaceOperator(
            self.dof_c, geometry, connectivity, dirichlet_ids=dirichlet_ids
        )
        self.inv_mass = InverseMassOperator(self.dof_c, geometry)
        self._diffusion_rhs = None
        if dirichlet_ids and inflow_values:
            self._diffusion_rhs = self.diffusion.assemble_rhs(
                dirichlet={
                    bid: (lambda x, y, z, _v=v: np.full_like(np.asarray(x, float), _v))
                    for bid, v in inflow_values.items()
                    if bid in dirichlet_ids
                }
            )
        self.c = self.dof_c.zeros()

    def set_initial(self, value: float) -> None:
        self.c = np.full(self.dof_c.n_dofs, float(value))

    def _rhs(self, c: np.ndarray, u: np.ndarray) -> np.ndarray:
        r = -self.advection.apply(c, u) - self.diffusivity * self.diffusion.vmult(c)
        if self._diffusion_rhs is not None:
            r = r + self.diffusivity * self._diffusion_rhs
        return self.inv_mass.vmult(r)

    def step(self, dt: float, u_flat: np.ndarray) -> None:
        """One SSP-RK2 (Heun) step on the frozen velocity ``u_flat``."""
        c0 = self.c
        k1 = self._rhs(c0, u_flat)
        c1 = c0 + dt * k1
        k2 = self._rhs(c1, u_flat)
        self.c = c0 + 0.5 * dt * (k1 + k2)

    def mean_concentration(self, geometry: GeometryField) -> float:
        cm = geometry.cell_metrics()
        cq = geometry.kernel.values(self.dof_c.lanes(self.c))
        return float((cq * cm.jxw).sum() / cm.jxw.sum())
