"""Memory-transfer model of the matrix-free operator evaluation.

Figure 7's "ideal memory transfer" model (following Kronbichler &
Kormann 2019): a single main-memory transfer of every entry of the
source and destination vectors, the metric data ``D_e`` / ``D_f``, and a
few integers of element-neighbor metadata; all other accesses (the 1D
shape matrices, neighbor re-reads from the interleaved cell/face loop)
are served from cache.  The *measured* transfer on SuperMUC-NG is
reported 20-30% higher (MPI exchange and part of the neighbor access
exceed the caches); :func:`measured_transfer` applies that factor.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TransferModel:
    degree: int
    n_q: int
    bytes_per_cell: int

    def total_bytes(self, n_cells: int) -> int:
        return self.bytes_per_cell * n_cells

    def bytes_per_dof(self) -> float:
        return self.bytes_per_cell / (self.degree + 1) ** 3


def laplace_transfer(degree: int, n_q: int | None = None, precision_bytes: int = 8,
                     n_components: int = 1, cell_entries: int = 6,
                     face_components: int = 3) -> TransferModel:
    """Ideal bytes moved per cell for one DG Laplacian mat-vec:

    * source vector read + destination write (+ its read-for-update):
      3 x (k+1)^3 values per component,
    * cell metric block D_e: the ``cell_entries`` (6, or 3 if diagonal)
      stored entries of ``laplace_d`` (JxW folded in) per quadrature point,
    * face metric data: the flux coefficients of ``J^{-1} n`` stored for
      both sides (3 + 3, or 1 + 1) + the penalty weight (1) per face
      quadrature point, 6 faces shared between 2 cells -> 3 face-sheets per cell,
    * ~8 integers of connectivity metadata per cell.

    The metric terms are what the kernel stores and streams
    (:class:`repro.mesh.mapping.FaceMetrics`, ``CellMetrics.laplace_d``).
    """
    k = degree
    n = k + 1
    nq = n_q or n
    vec = 3 * n**3 * n_components * precision_bytes
    cell_metric = cell_entries * nq**3 * precision_bytes
    face_metric = 3 * ((2 * face_components + 1) * nq * nq) * precision_bytes
    metadata = 8 * 4
    return TransferModel(degree=k, n_q=nq,
                         bytes_per_cell=vec + cell_metric + face_metric + metadata)


def measured_transfer(model: TransferModel, excess: float = 1.25) -> TransferModel:
    """The paper reports actual transfers 20-30% above the ideal model."""
    return TransferModel(
        degree=model.degree,
        n_q=model.n_q,
        bytes_per_cell=int(model.bytes_per_cell * excess),
    )


def arithmetic_intensity(flops_per_cell: float, bytes_per_cell: float) -> float:
    return flops_per_cell / bytes_per_cell
