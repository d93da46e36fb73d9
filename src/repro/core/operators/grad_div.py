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

Both face terms run the planned value loop
(:class:`~repro.core.operators.base.FaceLoop`) over one face table in two
spaces: the trial space's loop gathers and traces, the test space's loop
integrates and scatters — the two loops have identical chunks, so one
flux block per chunk connects them.  Velocity components and ensemble
members ride the loops' leading axis.
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

from ...mesh.connectivity import MeshConnectivity
from ...mesh.mapping import GeometryField, isotropic_to_reference, normal_dot, to_reference
from ..dof_handler import DGDofHandler
from ..sum_factorization import TensorProductKernel
from .base import MatrixFreeOperator, dirichlet_rows, value_faces

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
        self.geo = geometry
        self.conn = connectivity
        self.bcs = bcs
        cm = geometry.cell_metrics()
        self.jinv_t, self.jxw = cm.jinv_t, cm.jxw
        self.loop_u, self.face_data = value_faces(geometry, connectivity)
        self.loop_p, _ = value_faces(geometry, connectivity, self.kern_p)
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
        homogeneous: bool = False,
    ) -> np.ndarray:
        """``interior_trace_everywhere=True`` evaluates the boundary flux
        from the field's own trace — the form entering the pressure
        Poisson right-hand side of the dual splitting, where all boundary
        physics is carried by the consistent pressure Neumann data;
        ``homogeneous=True`` treats the velocity-Dirichlet data as zero."""
        ul = self.dof_u.lanes(u_flat)  # (*lead, 3, n, n, n, N)
        # cell term: -int grad(q) . u, on lane blocks
        uq = self.kern_u.values(ul)
        rg = to_reference(self.jinv_t, np.moveaxis(uq, -5, 0))
        rg *= -self.jxw
        out = self.kern_p.integrate_gradients_cm(rg)
        fd = self.face_data
        ids = () if interior_trace_everywhere else self.velocity_dirichlet
        g, rows = dirichlet_rows(self.loop_u, fd.points, ids, self.bcs.velocity_value, t, 1,
                                 out.dtype, homogeneous)

        def flux(v, ch):
            # central flux {u} . n on interior faces; the prescribed
            # velocity on velocity-Dirichlet rows, the trace elsewhere
            v = v.reshape((-1, 3) + v.shape[1:])
            F, Fi, b = ch.F, ch.Fi, slice(ch.b0, ch.b0 + ch.F - ch.Fi)
            ustar = np.empty_like(v[:, :, :F])
            ustar[:, :, :Fi] = 0.5 * (v[:, :, :Fi] + v[:, :, F:])
            ustar[:, :, Fi:] = np.where(rows[b], g[:, :, b], v[:, :, Fi:F])
            return normal_dot(fd.normal[:, ch.f0:ch.f0 + F], ustar) * fd.jxw[ch.f0:ch.f0 + F]

        self.loop_u.apply(ul.reshape((-1,) + ul.shape[-4:]), out.reshape((-1,) + out.shape[-4:]),
                          flux, self.loop_p)
        return out.reshape(u_flat.shape[:-1] + (-1,))

    def vmult(self, u_flat: np.ndarray) -> np.ndarray:
        """Homogeneous-data (linear) application: velocity-Dirichlet
        boundary data treated as zero."""
        return self.apply(u_flat, homogeneous=True)


class GradientOperator(_MixedSpaceOperator):
    """v -> (grad p, v): maps a pressure vector to a velocity-space vector."""

    @property
    def n_dofs(self) -> int:
        return self.dof_u.n_dofs

    def apply(self, p_flat: np.ndarray, t: float = 0.0, homogeneous: bool = False) -> np.ndarray:
        """``homogeneous=True`` treats the pressure-Dirichlet data as zero."""
        pl = self.dof_p.lanes(p_flat)  # (*lead, n_p, n_p, n_p, N)
        # cell term: -int p div(v) -> component-major ref-grad
        # coefficients of each v_i, on lane blocks
        coeff = -(self.kern_p.values(pl) * self.jxw)
        out = self.kern_u.integrate_gradients_cm(isotropic_to_reference(self.jinv_t, coeff))
        fd = self.face_data
        g, rows = dirichlet_rows(self.loop_u, fd.points, self.pressure_dirichlet,
                                 self.bcs.pressure_value, t, 0, out.dtype, homogeneous)

        def flux(v, ch):
            # central flux {p} n . [v]; the prescribed pressure on
            # pressure-Dirichlet rows, the trace elsewhere
            F, Fi, b = ch.F, ch.Fi, slice(ch.b0, ch.b0 + ch.F - ch.Fi)
            pstar = np.empty_like(v[:, :F])
            pstar[:, :Fi] = 0.5 * (v[:, :Fi] + v[:, F:])
            pstar[:, Fi:] = np.where(rows[b], g[:, b], v[:, Fi:F])
            return (pstar * fd.jxw[ch.f0:ch.f0 + F])[:, None] * fd.normal[:, ch.f0:ch.f0 + F]

        self.loop_p.apply(pl.reshape((-1,) + pl.shape[-4:]), out.reshape((-1,) + out.shape[-4:]),
                          flux, self.loop_u)
        return out.reshape(p_flat.shape[:-1] + (-1,))

    def vmult(self, p_flat: np.ndarray) -> np.ndarray:
        """Homogeneous-data application (pressure-Dirichlet data = 0)."""
        return self.apply(p_flat, homogeneous=True)
