"""Flow post-processing: integral quantities and probes.

The turbulence context of the paper (under-resolved LES of transitional
airway flow) is monitored through integral quantities: kinetic energy,
enstrophy (dissipation proxy), divergence norms, and boundary fluxes.
"""

from __future__ import annotations

import numpy as np

from ..core.dof_handler import DGDofHandler
from ..mesh.mapping import GeometryField, to_physical, trace


def curl_of_gradient(G: np.ndarray, n_point_axes: int) -> np.ndarray:
    """curl(u) from the physical gradient ``G[l, ..., i, <points>] =
    du_i/dx_l`` (:func:`~repro.mesh.mapping.to_physical`; ``n_point_axes``
    trailing quadrature axes), stacked on the component axis."""
    pts = (slice(None),) * n_point_axes

    def d(i: int, l: int) -> np.ndarray:
        return G[(l, ..., i) + pts]

    return np.stack(
        [d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1)],
        axis=-1 - n_point_axes,
    )


class FlowDiagnostics:
    """Integral diagnostics of a DG velocity field."""

    def __init__(self, dof_u: DGDofHandler, geometry: GeometryField) -> None:
        if dof_u.n_components != 3:
            raise ValueError("velocity space must have 3 components")
        self.dof = dof_u
        self.geo = geometry
        self.kern = geometry.kernel
        self.cm = geometry.cell_metrics()

    # ------------------------------------------------------------------
    def _values(self, u_flat: np.ndarray) -> np.ndarray:
        return self.kern.values(self.dof.lanes(u_flat))  # (3, q, q, q, N)

    def _phys_gradients(self, u_flat: np.ndarray) -> np.ndarray:
        return to_physical(self.cm.jinv_t, self.kern.gradients_cm(self.dof.lanes(u_flat)))

    # ------------------------------------------------------------------
    def volume(self) -> float:
        return float(self.cm.jxw.sum())

    def kinetic_energy(self, u_flat: np.ndarray) -> float:
        """E_k = 1/(2|Omega|) int |u|^2 (volume-specific, rho = 1)."""
        uq = self._values(u_flat)
        return float(0.5 * ((uq**2).sum(axis=-5) * self.cm.jxw).sum() / self.volume())

    def enstrophy(self, u_flat: np.ndarray) -> float:
        """1/(2|Omega|) int |curl u|^2 — the viscous-dissipation proxy of
        Taylor-Green-type analyses (epsilon = 2 nu * enstrophy for
        divergence-free fields)."""
        curl = curl_of_gradient(self._phys_gradients(u_flat), 4)
        return float(0.5 * ((curl**2).sum(axis=-5) * self.cm.jxw).sum() / self.volume())

    def divergence_l2(self, u_flat: np.ndarray) -> float:
        div = trace(self._phys_gradients(u_flat))
        return float(np.sqrt((div**2 * self.cm.jxw).sum()))

    def max_velocity(self, u_flat: np.ndarray) -> float:
        uq = self._values(u_flat)
        return float(np.sqrt((uq**2).sum(axis=-5)).max())

    def momentum(self, u_flat: np.ndarray) -> np.ndarray:
        """int u dx, one value per component."""
        uq = self._values(u_flat)
        return np.einsum("izyxc,zyxc->i", uq, self.cm.jxw, optimize="optimal")


def sample_centerline(dof_u: DGDofHandler, geometry: GeometryField,
                      u_flat: np.ndarray, points: np.ndarray,
                      tol_cells: float = 1e-9) -> np.ndarray:
    """Probe the velocity at arbitrary physical points (nearest owning
    cell found by reference-coordinate inversion via Newton on the
    trilinear map; points outside every cell get NaN)."""
    from ..core.basis import LagrangeBasis1D
    from ..mesh.hexmesh import trilinear, trilinear_jacobian

    forest = geometry.forest
    basis = LagrangeBasis1D(dof_u.degree)
    u = dof_u.lanes(u_flat)
    out = np.full((len(points), 3), np.nan)
    all_corners = forest.corner_points
    lows, highs = all_corners.min(axis=1), all_corners.max(axis=1)
    pads = 0.25 * (highs - lows) + tol_cells
    for ip, p in enumerate(np.atleast_2d(points)):
        near = np.all((p >= lows - pads) & (p <= highs + pads), axis=1)
        for c in np.nonzero(near)[0]:
            corners, lo, hi = all_corners[c], lows[c], highs[c]
            # Newton for the reference coordinates
            ref = np.full(3, 0.5)
            ok = False
            for _ in range(30):
                r = trilinear(corners, ref[None])[0] - p
                if np.linalg.norm(r) < 1e-12 * (np.linalg.norm(hi - lo) + 1e-30):
                    ok = True
                    break
                J = trilinear_jacobian(corners, ref[None])[0]
                ref = ref - np.linalg.solve(J, r)
            if not ok or np.any(ref < -1e-9) or np.any(ref > 1 + 1e-9):
                continue
            lx = basis.values(np.clip(ref[0:1], 0, 1))[0]
            ly = basis.values(np.clip(ref[1:2], 0, 1))[0]
            lz = basis.values(np.clip(ref[2:3], 0, 1))[0]
            out[ip] = np.einsum("izyx,z,y,x->i", u[..., c], lz, ly, lx, optimize="optimal")
            break
    return out
