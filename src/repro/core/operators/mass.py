"""(Inverse) mass operators — cell-local, no numerical fluxes.

With a nodal basis, Gauss quadrature of ``k+1`` points per direction, and
the change-of-basis matrix ``S`` (values of the nodal basis at the
quadrature points, square and invertible), the element mass matrix
factorizes as ``M_e = S^T W_e S`` with the diagonal ``W_e = diag(JxW)``.
Its inverse ``M_e^{-1} = S^{-1} W_e^{-1} S^{-T}`` is applied with two
tensorized triads of 1D products plus a pointwise division — the "fast
inversion of the mass operator of L^2-conforming DG methods" that the
penalty-based stabilization of the paper is designed to exploit, and the
preconditioner of the non-Poisson sub-steps of the splitting scheme.
"""

from __future__ import annotations

import numpy as np

from ...mesh.mapping import GeometryField
from ..dof_handler import DGDofHandler
from ..plans import SCRATCH
from .base import MatrixFreeOperator


class MassOperator(MatrixFreeOperator):
    """y = M x for a (vector-valued) DG space on deformed cells."""

    def __init__(self, dof: DGDofHandler, geometry: GeometryField) -> None:
        if geometry.degree != dof.degree:
            raise ValueError("geometry kernel degree must match the dof space")
        self.dof = dof
        self.kern = geometry.kernel
        self.jxw = geometry.cell_metrics().jxw

    @property
    def n_dofs(self) -> int:
        return self.dof.n_dofs

    def _build_work_model(self) -> dict:
        from ...perf.flops import mass_flops

        per_cell = mass_flops(
            self.dof.degree,
            self.kern.n_q_points,
            n_components=self.dof.n_components,
        )
        nq = self.kern.n_q_points
        pb = self.precision_bytes
        return {
            "flops": float(per_cell * self.dof.n_cells),
            "bytes": 3.0 * pb * self.n_dofs + pb * nq**3 * self.dof.n_cells,
            "dofs": float(self.n_dofs),
        }

    def vmult(self, x: np.ndarray) -> np.ndarray:
        # components (and members) ride the lane block's leading axes
        q = self.kern.values(self.dof.lanes(x), SCRATCH)
        q *= self.jxw
        y = np.empty(x.shape, q.dtype)
        self.kern.integrate_values(q, SCRATCH, self.dof.lanes(y))
        return y

    def diagonal(self) -> np.ndarray:
        """Matrix-free diagonal: x, y, z sweeps of the squared 1D
        interpolation factors over ``JxW``, in float64."""
        diag = self.kern.apply_tensor(self.kern.shape.interp.T ** 2, self.jxw)
        if self.dof.n_components > 1:
            diag = np.broadcast_to(diag, (self.dof.n_components,) + diag.shape)
        return diag.reshape(-1)


class InverseMassOperator(MatrixFreeOperator):
    """y = M^{-1} x via the collocation factorization (exact)."""

    def __init__(self, dof: DGDofHandler, geometry: GeometryField) -> None:
        if geometry.kernel.n_q_points != dof.degree + 1:
            raise ValueError(
                "exact inverse mass needs n_q == k+1 (collocation square S)"
            )
        self.dof = dof
        self.kern = geometry.kernel
        self.jxw = geometry.cell_metrics().jxw
        S = self.kern.shape.interp
        self.Sinv = np.linalg.inv(S)

    @property
    def n_dofs(self) -> int:
        return self.dof.n_dofs

    def _build_work_model(self) -> dict:
        from ...perf.flops import inverse_mass_flops

        per_cell = inverse_mass_flops(
            self.dof.degree, n_components=self.dof.n_components
        )
        n1 = self.dof.n1
        pb = self.precision_bytes
        return {
            "flops": float(per_cell * self.dof.n_cells),
            "bytes": 3.0 * pb * self.n_dofs + pb * n1**3 * self.dof.n_cells,
            "dofs": float(self.n_dofs),
        }

    def vmult(self, x: np.ndarray) -> np.ndarray:
        t = self.kern.apply_tensor(self.Sinv.T, self.dof.lanes(x))
        t /= self.jxw
        return self.kern.apply_tensor(self.Sinv, t).reshape(x.shape)

    def diagonal(self) -> np.ndarray:  # pragma: no cover - not used as smoother
        raise NotImplementedError("inverse mass is itself the preconditioner")
