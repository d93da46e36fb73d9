"""Morton-curve mesh partitioning and its operator-free census.

The forests are already ordered along the per-tree Morton curve
(p4est ordering, :mod:`repro.mesh.morton`), so partitioning into P ranks
is a contiguous weighted cut of the leaf sequence — the same
"difficult problem of partitioning a partly adapted mesh with many
trees" the paper attributes the lung mesh's extra communication cost to.

:class:`PartitionStats` extracts, from the *real* connectivity, the
quantities the strong-scaling performance model consumes: cells and DoFs
per rank, cut faces, per-rank neighbor counts, and message volumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mesh.connectivity import MeshConnectivity
from ..mesh.morton import partition_contiguous
from ..mesh.octree import Forest


@dataclass
class PartitionStats:
    n_ranks: int
    cells_per_rank: np.ndarray  # (P,)
    cut_faces: int  # faces crossing rank boundaries (both dirs once)
    neighbors_per_rank: np.ndarray  # (P,) distinct neighbor ranks
    cut_faces_per_rank: np.ndarray  # (P,) faces with a remote neighbor

    def max_cells(self) -> int:
        return int(self.cells_per_rank.max())

    def max_neighbors(self) -> int:
        return int(self.neighbors_per_rank.max()) if self.n_ranks > 1 else 0

    def max_cut_faces(self) -> int:
        return int(self.cut_faces_per_rank.max()) if self.n_ranks > 1 else 0

    def message_bytes_per_rank(self, degree: int, n_components: int = 1,
                               precision_bytes: int = 8) -> float:
        """Ghost-face payload of the busiest rank: one face sheet of
        (k+1)^2 values per component and cut face."""
        sheet = (degree + 1) ** 2 * n_components * precision_bytes
        return float(self.max_cut_faces() * sheet)


def partition_forest(forest: Forest, n_ranks: int,
                     weights: np.ndarray | None = None) -> np.ndarray:
    """Rank of every leaf cell (contiguous Morton cut)."""
    if weights is None:
        weights = np.ones(forest.n_cells)
    return partition_contiguous(weights, n_ranks)


def partition_stats(forest: Forest, conn: MeshConnectivity, n_ranks: int,
                    weights: np.ndarray | None = None) -> PartitionStats:
    ranks = partition_forest(forest, n_ranks, weights)
    cells_per_rank = np.bincount(ranks, minlength=n_ranks)
    cut = 0
    cut_per_rank = np.zeros(n_ranks, dtype=np.int64)
    neighbor_sets: list[set] = [set() for _ in range(n_ranks)]
    for batch in conn.interior:
        rm = ranks[batch.cells_m]
        rp = ranks[batch.cells_p]
        remote = rm != rp
        cut += int(remote.sum())
        for a, b in zip(rm[remote], rp[remote]):
            cut_per_rank[a] += 1
            cut_per_rank[b] += 1
            neighbor_sets[a].add(int(b))
            neighbor_sets[b].add(int(a))
    neighbors = np.array([len(s) for s in neighbor_sets], dtype=np.int64)
    return PartitionStats(
        n_ranks=n_ranks,
        cells_per_rank=cells_per_rank,
        cut_faces=cut,
        neighbors_per_rank=neighbors,
        cut_faces_per_rank=cut_per_rank,
    )

