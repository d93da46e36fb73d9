"""Forest-of-octrees refinement over an unstructured coarse hex mesh.

Mirrors the p4est concept used by the paper (Section 3.3): every coarse
cell is the root of an octree; leaves are identified by
``(tree, level, i, j, k)`` with the integer anchor measured in units of
``2^-level`` of the tree.  The forest supports

* local refinement (:meth:`Forest.refine`) and uniform refinement,
* 2:1 balancing across faces, including across tree boundaries
  (:meth:`Forest.balance`),
* *global coarsening* (:meth:`Forest.global_coarsening_level`): towards
  the next coarser multigrid level every cell is coarsened if possible —
  the new deal.II algorithm the paper introduces for locally refined
  meshes, which promises better load balancing than local smoothing.

Neighbor detection is deferred to :mod:`repro.mesh.connectivity`, which
matches leaf faces geometrically (quantized trilinear corner positions),
handling arbitrary coarse-cell orientations without explicit transform
tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hexmesh import CORNER_OFFSETS, HexMesh, trilinear
from .morton import forest_order


@dataclass(frozen=True, order=True)
class CellId:
    """Identifier of one octree cell: anchor (i, j, k) in units 2^-level."""

    tree: int
    level: int
    i: int
    j: int
    k: int

    def __post_init__(self) -> None:
        top = 1 << self.level
        if not (0 <= self.i < top and 0 <= self.j < top and 0 <= self.k < top):
            raise ValueError(f"anchor outside tree: {self}")

    @property
    def anchor(self) -> tuple[int, int, int]:
        return (self.i, self.j, self.k)

    def children(self) -> list["CellId"]:
        """The 8 children in lexicographic (x fastest) order."""
        t, l = self.tree, self.level + 1
        i, j, k = 2 * self.i, 2 * self.j, 2 * self.k
        return [
            CellId(t, l, i + (c & 1), j + ((c >> 1) & 1), k + ((c >> 2) & 1))
            for c in range(8)
        ]

    def parent(self) -> "CellId":
        if self.level == 0:
            raise ValueError("root cell has no parent")
        return CellId(self.tree, self.level - 1, self.i // 2, self.j // 2, self.k // 2)

    def child_index(self) -> int:
        """Which of its parent's 8 children this cell is."""
        return (self.i & 1) + 2 * (self.j & 1) + 4 * (self.k & 1)

    def ref_corners(self) -> np.ndarray:
        """(8, 3) corner coordinates in the tree's reference cube."""
        return self.ref_points(CORNER_OFFSETS)

    def ref_points(self, unit_points: np.ndarray) -> np.ndarray:
        """Map points of the leaf's unit cube into the tree's unit cube."""
        return (np.array(self.anchor) + np.asarray(unit_points)) / (1 << self.level)


class Forest:
    """A forest of octrees over a coarse :class:`HexMesh`.

    Leaves are kept in p4est order (tree-major, Morton within the tree);
    the integer index of a leaf in :attr:`leaves` is its *cell index* used
    throughout dof handlers and operators.
    """

    def __init__(self, coarse: HexMesh, leaves=None) -> None:
        self.coarse = coarse
        if leaves is None:
            leaves = [CellId(t, 0, 0, 0, 0) for t in range(coarse.n_cells)]
        leaves = list(leaves)
        tree = np.array([c.tree for c in leaves], dtype=np.int64)
        level = np.array([c.level for c in leaves], dtype=np.int64)
        anchors = np.array([c.anchor for c in leaves], dtype=np.int64).reshape(-1, 3)
        order = forest_order(tree, level, anchors)
        self.leaves: list[CellId] = [leaves[q] for q in order.tolist()]
        self._leaf_arrays = (tree[order], level[order], anchors[order])
        for shared in self._leaf_arrays:
            shared.setflags(write=False)
        self._leaf_set = set(self.leaves)
        self._index = {c: i for i, c in enumerate(self.leaves)}

    # -- bookkeeping -----------------------------------------------------
    @property
    def n_cells(self) -> int:
        return len(self.leaves)

    @property
    def max_level(self) -> int:
        return int(self._leaf_arrays[1].max(initial=0))

    @property
    def min_level(self) -> int:
        level = self._leaf_arrays[1]
        return int(level.min()) if level.size else 0

    def is_leaf(self, cell: CellId) -> bool:
        return cell in self._leaf_set

    def index_of(self, cell: CellId) -> int:
        try:
            return self._index[cell]
        except KeyError as exc:
            raise KeyError(f"{cell} is not a leaf") from exc

    # -- refinement ------------------------------------------------------
    def refine(self, cells) -> "Forest":
        """Return a new forest with the given leaves replaced by their
        children.  ``cells`` may contain :class:`CellId` or leaf indices."""
        to_refine = {self._as_cellid(c) for c in cells}
        missing = to_refine - self._leaf_set
        if missing:
            raise KeyError(f"cannot refine non-leaf cells: {sorted(missing)[:3]}")
        new_leaves = []
        for leaf in self.leaves:
            if leaf in to_refine:
                new_leaves.extend(leaf.children())
            else:
                new_leaves.append(leaf)
        return Forest(self.coarse, new_leaves)

    def refine_all(self, times: int = 1) -> "Forest":
        f = self
        for _ in range(times):
            f = f.refine(list(f.leaves))
        return f

    def coarsen(self, parents) -> "Forest":
        """Replace complete sibling groups by their parent.  ``parents`` is
        an iterable of parent :class:`CellId`; raises if any child of a
        requested parent is not a leaf."""
        parents = {p for p in parents}
        removed = set()
        for p in parents:
            kids = p.children()
            if not all(k in self._leaf_set for k in kids):
                raise KeyError(f"not all children of {p} are leaves")
            removed.update(kids)
        new_leaves = [c for c in self.leaves if c not in removed]
        new_leaves.extend(parents)
        return Forest(self.coarse, new_leaves)

    def _as_cellid(self, c) -> CellId:
        if isinstance(c, CellId):
            return c
        return self.leaves[int(c)]

    # -- 2:1 balance -------------------------------------------------------
    def balance(self) -> "Forest":
        """Enforce the 2:1 face-balance condition (at most one level of
        difference between face neighbors), refining coarser cells until
        no violation remains."""
        from .connectivity import find_unbalanced_cells

        forest = self
        for _ in range(64):  # level differences shrink every sweep
            violators = find_unbalanced_cells(forest)
            if not violators:
                return forest
            forest = forest.refine(violators)
        raise RuntimeError("2:1 balancing did not converge")  # pragma: no cover

    # -- global coarsening (multigrid hierarchy) ---------------------------
    def global_coarsening_level(self) -> tuple["Forest", dict[CellId, list[CellId]]]:
        """One step of the global-coarsening algorithm (Section 3.4):
        every cell is coarsened if all 8 siblings are leaves; level-0
        cells and partial sibling groups stay.  Returns the coarser forest
        and the parent -> children map for the transfer operator (cells
        that stayed map to a single-entry list of themselves)."""
        by_parent: dict[CellId, list[CellId]] = {}
        for leaf in self.leaves:
            if leaf.level == 0:
                continue
            by_parent.setdefault(leaf.parent(), []).append(leaf)
        coarsenable = {
            p for p, kids in by_parent.items() if len(kids) == 8
        }
        new_leaves: list[CellId] = []
        transfer: dict[CellId, list[CellId]] = {}
        emitted = set()
        for leaf in self.leaves:
            if leaf.level > 0 and leaf.parent() in coarsenable:
                p = leaf.parent()
                if p not in emitted:
                    emitted.add(p)
                    new_leaves.append(p)
                    transfer[p] = p.children()
            else:
                new_leaves.append(leaf)
                transfer[leaf] = [leaf]
        coarse_forest = Forest(self.coarse, new_leaves)
        # Keep the coarse level 2:1 balanced as well; if balancing refines
        # cells back, drop them from coarsening (rare; simple retry).
        balanced = coarse_forest.balance()
        if balanced.n_cells != coarse_forest.n_cells:
            back = set(balanced.leaves)
            transfer = {}
            for leaf in balanced.leaves:
                if leaf in self._leaf_set:
                    transfer[leaf] = [leaf]
                else:
                    transfer[leaf] = leaf.children()
            # verify all children are fine-level leaves
            for p, kids in transfer.items():
                if kids != [p] and not all(k in self._leaf_set for k in kids):
                    # cannot represent -> give up coarsening this cell
                    raise RuntimeError(
                        "global coarsening produced an inconsistent level"
                    )  # pragma: no cover
            coarse_forest = balanced
        return coarse_forest, transfer

    def coarsening_hierarchy(self) -> list["Forest"]:
        """Full multigrid hierarchy from this (finest) forest down to the
        coarse mesh: repeatedly apply global coarsening until no cell can
        be coarsened.  Returns [finest, ..., coarsest]."""
        levels = [self]
        while levels[-1].max_level > 0:
            coarser, _ = levels[-1].global_coarsening_level()
            if coarser.n_cells == levels[-1].n_cells:
                break
            levels.append(coarser)
        return levels

    # -- geometry ----------------------------------------------------------
    def leaf_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tree, level, anchor) arrays of all leaves, in leaf order."""
        return self._leaf_arrays

    def leaf_points(self, unit_points: np.ndarray, smooth: bool = True) -> np.ndarray:
        """Physical images ``(n_cells, m, 3)`` of the unit-cube points
        ``(m, 3)`` in every leaf — the one owner of "points of all
        leaves".  The trilinear map is one batched evaluation over the
        leaves' coarse-cell corners; with ``smooth`` and a
        :attr:`HexMesh.geometry` the callable is invoked once per tree
        on that tree's concatenated leaf points."""
        tree, level, anchors = self._leaf_arrays
        coarse = self.coarse
        # leaf unit cube -> tree unit cube (exact: h is a power of two)
        ref = (anchors[:, None, :] + np.atleast_2d(unit_points)) * (0.5**level)[:, None, None]
        if coarse.geometry is None or not smooth:
            return trilinear(coarse.vertices[coarse.cells[tree]], ref)
        out = np.empty_like(ref)
        # leaves are tree-major, so each tree owns one contiguous slice
        bounds = np.searchsorted(tree, np.arange(coarse.n_cells + 1))
        for t, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if hi > lo:
                out[lo:hi] = coarse.geometry(t, ref[lo:hi].reshape(-1, 3)).reshape(hi - lo, -1, 3)
        return out

    @cached_property
    def corner_points(self) -> np.ndarray:
        """(n_cells, 8, 3) trilinear physical corners of every leaf (for
        matching; smooth geometry is handled by the mapping module).
        Computed once (read-only): a forest never changes after
        construction."""
        corners = self.leaf_points(CORNER_OFFSETS, smooth=False)
        corners.setflags(write=False)
        return corners

    def cell_corner_points(self, index: int) -> np.ndarray:
        """(8, 3) trilinear physical corners of leaf ``index``."""
        return self.corner_points[index]

    @cached_property
    def face_index(self):
        """The geometric face matching of this forest
        (:func:`repro.mesh.connectivity.build_face_index`), shared by
        :meth:`balance` and ``build_connectivity``."""
        from . import connectivity

        return connectivity.build_face_index(self)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Forest({self.coarse.n_cells} trees, {self.n_cells} leaves, "
            f"levels {self.min_level}..{self.max_level})"
        )
