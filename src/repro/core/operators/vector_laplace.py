"""Vector-valued viscous operator and the Helmholtz operator of the
viscous step (Eq. (4)).

The paper discretizes the viscous term ``-nu lap(u)`` with the interior
penalty method applied to the Laplace form, which acts componentwise —
so the vector operator reuses the scalar SIP machinery exactly: the
three velocity components ride the scalar kernel's leading batch axis
through one mat-vec over the same cached metric data (matching how
ExaDG vectorizes components)."""

from __future__ import annotations

import numpy as np

from ..dof_handler import DGDofHandler
from .base import MatrixFreeOperator
from .laplace import DGLaplaceOperator
from .mass import MassOperator


class VectorDGLaplace(MatrixFreeOperator):
    """Componentwise SIP Laplacian for a 3-component DG velocity."""

    def __init__(self, scalar_op: DGLaplaceOperator, vector_dof: DGDofHandler) -> None:
        if vector_dof.n_components != 3:
            raise ValueError("velocity space must have 3 components")
        if vector_dof.degree != scalar_op.dof.degree:
            raise ValueError("scalar operator degree must match the vector space")
        self.scalar = scalar_op
        self.dof = vector_dof

    @property
    def n_dofs(self) -> int:
        return self.dof.n_dofs

    def _build_work_model(self) -> dict:
        # no own work (the reshapes are views); the scalar Laplacian
        # annotates its own nested span
        return {"flops": 0.0, "bytes": 0.0, "dofs": float(self.n_dofs)}

    def vmult(self, x: np.ndarray) -> np.ndarray:
        # a velocity is three scalar fields: one scalar mat-vec on the
        # (3E, n_scalar) stack
        return self.scalar.vmult(x.reshape(-1, self.scalar.n_dofs)).reshape(x.shape)

    def diagonal(self) -> np.ndarray:
        return np.tile(self.scalar.diagonal(), 3)

    def assemble_rhs(self, dirichlet=None) -> np.ndarray:
        """Inhomogeneous weak Dirichlet data: ``dirichlet`` maps boundary
        ids to vector callables ``g(x, y, z) -> (3, F, a, b)`` (or
        member-stacked ``(E, 3, F, a, b)``); the components ride the
        scalar assembly's leading axis."""
        r = self.scalar.assemble_rhs(dirichlet=dirichlet)  # (*lead, 3, n_scalar)
        if r.ndim == 1:  # no data
            r = np.broadcast_to(r, (3,) + r.shape)
        return r.reshape(r.shape[:-2] + (-1,))


class HelmholtzOperator(MatrixFreeOperator):
    """``gamma0/dt * M + nu * L`` — the viscous-step matrix (Eq. (4)),
    preconditioned in the solver by the inverse mass operator."""

    def __init__(
        self,
        mass: MassOperator,
        laplace: VectorDGLaplace,
        nu: float,
        boundary_rhs_fn=None,
    ) -> None:
        if mass.n_dofs != laplace.n_dofs:
            raise ValueError("mass and Laplace operators must share the space")
        self.mass = mass
        self.laplace = laplace
        self.nu = float(nu)
        self.mass_factor = 1.0
        self._boundary_rhs_fn = boundary_rhs_fn

    def boundary_rhs(self, t: float) -> np.ndarray:
        """Weak (Nitsche) Dirichlet data contribution, scaled by nu.

        ``boundary_rhs_fn(t)`` returns the unscaled vector-Laplace rhs
        (see :meth:`VectorDGLaplace.assemble_rhs`); zero when absent."""
        if self._boundary_rhs_fn is None:
            return 0.0
        return self.nu * self._boundary_rhs_fn(t)

    def set_time_factor(self, gamma0_over_dt: float) -> None:
        self.mass_factor = float(gamma0_over_dt)

    @property
    def n_dofs(self) -> int:
        return self.mass.n_dofs

    def _build_work_model(self) -> dict:
        # own work: the two scalings and the axpy combining the nested
        # (self-annotating) mass and Laplace applications
        n = float(self.n_dofs)
        return {"flops": 3.0 * n, "bytes": 5.0 * self.precision_bytes * n, "dofs": n}

    def vmult(self, x: np.ndarray) -> np.ndarray:
        y = self.mass.vmult(x)
        y *= self.mass_factor
        L = self.laplace.vmult(x)
        L *= self.nu
        y += L
        return y

    def diagonal(self) -> np.ndarray:
        return self.mass_factor * self.mass.diagonal() + self.nu * self.laplace.diagonal()
