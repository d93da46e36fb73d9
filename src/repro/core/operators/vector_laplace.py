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
        # own work is only the component staging/result copies; the
        # scalar Laplacian annotates its own nested spans
        n = float(self.n_dofs)
        return {"flops": 0.0, "bytes": 4.0 * self.precision_bytes * n, "dofs": n}

    def vmult(self, x: np.ndarray) -> np.ndarray:
        u = self.dof.cell_view(x)  # (*lead, N, 3, n, n, n)
        # components ride the scalar kernel's batch axis: one transposing
        # copy into a reusable (*lead, 3, N, n, n, n) staging buffer, one
        # scalar mat-vec on the (3E, ndof) stack, one copy back
        comp = self.workspace().take(
            "veclap.comp", u.shape[:-5] + (3, u.shape[-5]) + u.shape[-3:], u.dtype
        )
        np.copyto(comp, np.moveaxis(u, -4, -5))
        y = self.scalar.vmult(comp.reshape(-1, self.scalar.n_dofs))
        return self.dof.flat(np.moveaxis(y.reshape(comp.shape), -5, -4))

    def diagonal(self) -> np.ndarray:
        d = self.scalar.dof.cell_view(self.scalar.diagonal())
        return self.dof.flat(np.repeat(d[:, None], 3, axis=1))

    def assemble_rhs(self, dirichlet=None) -> np.ndarray:
        """Inhomogeneous weak Dirichlet data: ``dirichlet`` maps boundary
        ids to vector callables ``g(x, y, z) -> (3, F, a, b)`` (or
        member-stacked ``(E, 3, F, a, b)``); the components ride the
        scalar assembly's leading axis."""
        r = self.scalar.assemble_rhs(dirichlet=dirichlet)  # (*lead, 3, n_scalar)
        cells = self.scalar.dof.cell_view(r)
        if cells.ndim == 4:  # no data
            cells = np.broadcast_to(cells, (3,) + cells.shape)
        return self.dof.flat(np.moveaxis(cells, -5, -4))


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
