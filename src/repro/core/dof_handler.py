"""Degree-of-freedom handlers for DG and continuous (CG) spaces.

*DG* unknowns are cell-local: the global vector stores the cells'
``(k+1)^3`` tensors in *lane order* ``(n, n, n, N)`` — nodes major, the
cell index fastest, as the SIMD lane is the innermost index of the
paper's vectorized kernels (Section 3.1).  The flat vector therefore is
the lane block the cell kernels and face loops read, and a reshape
(:meth:`DGDofHandler.lanes`) is all an operator needs to read it.  A
vector field is stored component-major, one such scalar field per
component, so its components are a batch axis like ensemble members and
the cell axis of every field is the last.

*CG* unknowns are shared between cells.  Nodes are identified by
quantized physical positions on the *trilinear* leaf geometry (the same
deterministic geometry used for face matching), which unifies nodes
across conforming faces/edges/vertices including across octrees.  On 2:1
hanging faces the fine-side nodes are *constrained* to the interpolation
of the coarse face through the 1D embedding matrices; constraint chains
are resolved by substitution.  The resulting space is exactly the
conforming auxiliary space of the hybrid multigrid algorithm
(Section 3.4), where hanging-node constraints must be handled in the
smoother diagonal, the transfer, and the operator application.

All of that indirection is planned once into one sparse *cell map*
``G = P·C`` (rows: the DG vector's dofs, in its lane order; columns:
the masters), so a CG gather is ``G x`` straight into the layout of the
cell kernels and of the DG vector, and a scatter
``Gᵀ c`` — one streaming sparse product each way.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..mesh.connectivity import MeshConnectivity, orient_face_array
from ..mesh.octree import Forest
from .backend import kernel_dtype, resolve_dtype
from .basis import LagrangeBasis1D
from .sum_factorization import TensorProductKernel


def csr_with_data(m: sp.csr_matrix, data: np.ndarray, indices=None) -> sp.csr_matrix:
    """``m`` with ``data`` (and ``indices``) in its stored entry order —
    scipy's ``astype`` and ``power`` sort each row, changing the order a
    product sums it in."""
    return sp.csr_matrix((data, m.indices if indices is None else indices, m.indptr),
                         shape=m.shape)


class DGDofHandler:
    """Cell-local numbering of a (vector-valued) DG space of degree k."""

    def __init__(self, forest: Forest, degree: int, n_components: int = 1) -> None:
        self.forest = forest
        self.degree = degree
        self.n_components = n_components
        self.n1 = degree + 1
        self.n_cells = forest.n_cells

    @property
    def dofs_per_cell(self) -> int:
        return self.n_components * self.n1**3

    @property
    def n_dofs(self) -> int:
        return self.n_cells * self.dofs_per_cell

    def zeros(self, dtype=None) -> np.ndarray:
        """A zero global vector at ``dtype`` (default:
        :data:`repro.core.backend.DEFAULT_DTYPE`)."""
        return np.zeros(self.n_dofs, dtype=resolve_dtype(dtype))

    def lanes(self, vec: np.ndarray) -> np.ndarray:
        """View a flat ``(*lead, n_dofs)`` vector as its lane block
        ``(*lead, [c,] n, n, n, N)`` — a reshape, never a copy of a
        contiguous vector, so writes go through."""
        n = self.n1
        comps = (self.n_components,) if self.n_components > 1 else ()
        return vec.reshape(vec.shape[:-1] + comps + (n, n, n, self.n_cells))


class CGDofHandler:
    """Continuous Lagrange space of degree k on a (2:1 balanced) forest,
    with hanging-node and strong Dirichlet constraints.

    The *unconstrained* ("master") dofs form the solution space; the
    rectangular operator ``C`` (n_global x n_master) expands a master
    vector to all nodal values (constrained nodes get interpolated
    values).  An operator in the CG space is applied as ``G^T A_loc G``
    with the cell map ``G = P·C`` of :meth:`cell_map`.
    """

    def __init__(
        self,
        forest: Forest,
        degree: int,
        connectivity: MeshConnectivity | None = None,
        dirichlet_ids: tuple[int, ...] = (),
    ) -> None:
        from ..mesh.connectivity import build_connectivity

        if degree < 1:
            raise ValueError("continuous elements need degree >= 1")
        self.forest = forest
        self.degree = degree
        self.n1 = degree + 1
        self.n_cells = forest.n_cells
        self.connectivity = connectivity or build_connectivity(forest)
        self.dirichlet_ids = tuple(dirichlet_ids)
        self._kernel = TensorProductKernel(degree)
        self._cell_maps: dict = {}
        self._number_dofs()
        self._build_constraints()

    # ------------------------------------------------------------------
    def _nodal_points_trilinear(self) -> np.ndarray:
        """(N, n^3, 3) physical nodal points via the trilinear geometry."""
        basis = LagrangeBasis1D(self.degree)
        nodes = basis.nodes
        zz, yy, xx = np.meshgrid(nodes, nodes, nodes, indexing="ij")
        ref = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
        return self.forest.leaf_points(ref, smooth=False)

    def _number_dofs(self) -> None:
        pts = self._nodal_points_trilinear()
        v = self.forest.coarse.vertices
        extent = float(np.max(v.max(axis=0) - v.min(axis=0))) if len(v) else 1.0
        tol = max(extent, 1e-12) * 1e-9
        keys = np.round(pts.reshape(-1, 3) / tol).astype(np.int64)
        # number the distinct rows in lexicographic (x, y, z) order — the
        # numbering of ``np.unique(keys, axis=0)``, without its structured
        # row sort
        order = np.lexsort(keys.T[::-1])
        sorted_keys = keys[order]
        new_row = np.ones(len(keys), dtype=bool)
        np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1, out=new_row[1:])
        inverse = np.empty(len(keys), dtype=np.intp)
        inverse[order] = np.cumsum(new_row) - 1
        n = self.n1
        self.n_global = int(new_row.sum())
        self.cell_to_global = inverse.reshape(self.n_cells, n, n, n)

    # ------------------------------------------------------------------
    def _build_constraints(self) -> None:
        n = self.n1
        kern = self._kernel
        basis = kern.shape.basis
        raw: dict[int, list[tuple[int, float]]] = {}

        # hanging-node constraints from 2:1 interior batches
        for batch in self.connectivity.interior:
            if not batch.is_hanging:
                continue
            sa, sb = batch.subface
            # 1D embeddings: value of coarse basis at the fine node mapped
            # into the coarse half-interval
            Ba = basis.values(0.5 * basis.nodes + 0.5 * sa)  # (n, n)
            Bb = basis.values(0.5 * basis.nodes + 0.5 * sb)
            for cm, cp in zip(batch.cells_m, batch.cells_p):
                fine_ids = self._face_trace_ids(int(cm), batch.face_m)
                coarse_ids = self._face_trace_ids(int(cp), batch.face_p)
                coarse_in_minus = orient_face_array(coarse_ids, batch.orientation)
                for ia in range(n):
                    for ib in range(n):
                        slave = int(fine_ids[ia, ib])
                        entries = []
                        for ja in range(n):
                            wa = Ba[ia, ja]
                            if abs(wa) < 1e-14:
                                continue
                            for jb in range(n):
                                w = wa * Bb[ib, jb]
                                if abs(w) < 1e-14:
                                    continue
                                entries.append((int(coarse_in_minus[ja, jb]), w))
                        # identity constraints (node coincides with a coarse
                        # node and was unified by the hashing) are dropped
                        if len(entries) == 1 and entries[0][0] == slave:
                            continue
                        raw[slave] = entries

        # strong Dirichlet constraints (constrained to zero)
        for batch in self.connectivity.boundary:
            if batch.boundary_id not in self.dirichlet_ids:
                continue
            for c in batch.cells:
                ids = self._face_trace_ids(int(c), batch.face)
                for dof in ids.ravel():
                    raw[int(dof)] = []

        # resolve constraint chains (a master that is itself constrained)
        resolved: dict[int, list[tuple[int, float]]] = {}

        def resolve(dof: int, depth: int = 0) -> list[tuple[int, float]]:
            if depth > 8:  # pragma: no cover - 2:1 meshes terminate quickly
                raise RuntimeError("constraint chain too deep")
            if dof in resolved:
                return resolved[dof]
            if dof not in raw:
                return [(dof, 1.0)]
            acc: dict[int, float] = {}
            for master, w in raw[dof]:
                for m2, w2 in resolve(master, depth + 1):
                    acc[m2] = acc.get(m2, 0.0) + w * w2
            out = [(m, w) for m, w in acc.items() if abs(w) > 1e-13]
            resolved[dof] = out
            return out

        for dof in list(raw):
            resolve(dof)
        self.constraints = resolved

        constrained = set(resolved)
        self.is_constrained = np.zeros(self.n_global, dtype=bool)
        for dof in constrained:
            self.is_constrained[dof] = True
        masters = np.nonzero(~self.is_constrained)[0]
        self.master_of = -np.ones(self.n_global, dtype=np.int64)
        self.master_of[masters] = np.arange(len(masters))
        self.n_dofs = int(len(masters))

        # expansion matrix C: global <- master
        rows, cols, vals = [], [], []
        for g in masters:
            rows.append(g)
            cols.append(self.master_of[g])
            vals.append(1.0)
        for slave, entries in resolved.items():
            for master, w in entries:
                if self.is_constrained[master]:  # pragma: no cover - resolved
                    raise RuntimeError("unresolved constraint chain")
                rows.append(slave)
                cols.append(self.master_of[master])
                vals.append(w)
        self.C = sp.csr_matrix(
            (vals, (rows, cols)), shape=(self.n_global, self.n_dofs)
        )
        self.Ct = self.C.T.tocsr()

    def _face_trace_ids(self, cell: int, face: int) -> np.ndarray:
        """(n, n) global ids of the nodal face lattice of a cell."""
        return self._kernel.face_nodal_trace(self.cell_to_global[cell], face)

    # ------------------------------------------------------------------
    def zeros(self, dtype=None) -> np.ndarray:
        """A zero global vector at ``dtype`` (default:
        :data:`repro.core.backend.DEFAULT_DTYPE`)."""
        return np.zeros(self.n_dofs, dtype=resolve_dtype(dtype))

    def expand(self, x_master: np.ndarray) -> np.ndarray:
        """Master vector -> all nodal values (constraints applied),
        ``(*lead, n_dofs)`` -> ``(*lead, n_global)``."""
        return (self.C @ x_master.T).T

    def cell_map(self, dtype) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """``(G, Gᵀ)`` in the kernel dtype of ``dtype``.

        ``G = P·C`` maps masters to the ``n_cells·(k+1)³`` cell nodes in
        the lane order of the DG vector (``P`` picks
        ``cell_to_global``): hanging-node weights, Dirichlet zeros and the
        node sharing are all in it.  ``Gᵀ`` is the cell-major map's
        transpose with its columns relabelled, so each row sums in the
        cell-major order.  Both are built once from ``C``; the float32
        copies are cached beside them, so a float32 vector never meets a
        float64 map."""
        maps = self._cell_maps
        if not maps:
            n = self.cell_to_global.size
            P = sp.csr_matrix(
                (np.ones(n), (np.arange(n), self.cell_to_global.ravel())),
                shape=(n, self.n_global),
            )
            G = P @ self.C
            Gt = G.T.tocsr()
            # lane row of every cell-major row c·n³ + node is node·N + c
            lane = np.arange(n).reshape(self.n_cells, -1).T.ravel()
            pos = np.empty(n, Gt.indices.dtype)
            pos[lane] = np.arange(n)
            maps[self.C.dtype] = (G[lane], csr_with_data(Gt, Gt.data, pos[Gt.indices]))
        dt = kernel_dtype(dtype)
        if dt not in maps:
            G, Gt = maps[self.C.dtype]
            maps[dt] = (G.astype(dt), csr_with_data(Gt, Gt.data.astype(dt)))
        return maps[dt]

    def gather_cells(self, x_master: np.ndarray) -> np.ndarray:
        """Master vector ``(*lead, n_dofs)`` -> lane block ``(*lead, n,
        n, n, N)``: one ``G x`` (any ``lead`` flattened to one axis, as
        :meth:`AssembledOperator.vmult` does)."""
        G, _ = self.cell_map(x_master.dtype)
        lead = x_master.shape[:-1]
        x2 = x_master.reshape(-1, self.n_dofs) if len(lead) > 1 else x_master
        n = self.n1
        return (G @ x2.T).T.reshape(lead + (n, n, n, self.n_cells))

    def scatter_add_cells(self, cell_data: np.ndarray) -> np.ndarray:
        """Accumulate a lane block ``(*lead, n, n, n, N)`` into a
        master-space residual ``(*lead, n_dofs)``: one ``Gᵀ c``."""
        _, Gt = self.cell_map(cell_data.dtype)
        lead = cell_data.shape[:-4]
        c2 = cell_data.reshape((-1, Gt.shape[1]) if lead else (Gt.shape[1],))
        return (Gt @ c2.T).T.reshape(lead + (self.n_dofs,))

    def nodal_points(self) -> np.ndarray:
        """(n_global, 3) trilinear position of every global node."""
        pts = self._nodal_points_trilinear().reshape(-1, 3)
        out = np.empty((self.n_global, 3))
        out[self.cell_to_global.ravel()] = pts
        return out
