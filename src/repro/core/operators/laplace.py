"""Matrix-free Laplacians: symmetric interior penalty DG and continuous FE.

``DGLaplaceOperator`` realizes Eq. (7) of the paper — the operator whose
throughput is benchmarked in Figures 6-8 and which (negated) forms the
pressure Poisson matrix of the splitting scheme.  ``CGLaplaceOperator``
is the conforming auxiliary-space operator of the two finest multigrid
levels (Section 3.4), including hanging-node constraints.

Weak Dirichlet data (SIP/Nitsche) and Neumann data enter through
:meth:`DGLaplaceOperator.assemble_rhs`.

Execution plans (see :mod:`repro.core.plans`): every instance owns a
lazily built cache of scatter plans, einsum contraction plans, and
workspace buffers, threaded through the whole hot path.
"""

from __future__ import annotations

import numpy as np

from ...mesh.connectivity import MeshConnectivity
from ...mesh.mapping import SYM_SLOT, GeometryField
from ..dof_handler import CGDofHandler, DGDofHandler
from ..plans import contract
from .base import FaceKernels, MatrixFreeOperator, tangential_dims


def cell_laplacian(kern, laplace_d: np.ndarray, u: np.ndarray, ws,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Cell term ``I_e^T D_e I_e u`` of the Laplacian: ``u`` is
    (..., c, n, n, n), ``laplace_d`` the six symmetric metric entries
    (6, c, q, q, q) (:data:`~repro.mesh.mapping.SYM_SLOT`).  The
    reference-gradient stack is component-major, so the 3x3 metric is
    nine flat multiply-adds.  ``out`` defaults to a fresh array (the
    result then escapes the workspace ``ws``)."""
    g = kern.gradients_cm(u, ws)
    dt = np.result_type(laplace_d.dtype, g.dtype)
    Dg = ws.take("lap.Dg", g.shape, dt)
    t = ws.take("lap.t", g.shape[1:], dt)
    for a in range(3):
        np.multiply(laplace_d[SYM_SLOT[a][0]], g[0], out=Dg[a])
        Dg[a] += np.multiply(laplace_d[SYM_SLOT[a][1]], g[1], out=t)
        Dg[a] += np.multiply(laplace_d[SYM_SLOT[a][2]], g[2], out=t)
    if out is None:
        out = np.empty(u.shape, dtype=dt)
    return kern.integrate_gradients_cm(Dg, ws, out)


def _normal_derivative(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``sum_j c[j] g[j]``: normal derivative at the face quadrature
    points from the stored ``c = J^{-1} n`` (3, F, q, q) and a component-
    major reference gradient ``g`` (3, ..., F, q, q)."""
    dn = c[0] * g[0]
    dn += c[1] * g[1]
    dn += c[2] * g[2]
    return dn


def _scaled_coefficient(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Test-side reference-gradient coefficients ``s c`` (3, ..., F, q, q)
    of the physical coefficient field ``s n`` (``s``: (..., F, q, q))."""
    rg = np.empty((3,) + s.shape, np.result_type(c.dtype, s.dtype))
    for j in range(3):
        np.multiply(c[j], s, out=rg[j])
    return rg


def _cell_laplace_diagonal(kern, laplace_d: np.ndarray) -> np.ndarray:
    """Diagonal of the cell term ``sum_q (d_a phi_i) D[a,b] (d_b phi_i)``
    via squared 1D shape-function factors; ``laplace_d`` is
    (6, c, q, q, q), the result (c, n, n, n)."""
    Ng = kern.shape.interp
    Dg = kern.shape.grad
    ldiag = np.zeros((laplace_d.shape[1],) + (kern.n_dofs_1d,) * 3)
    for a in range(3):
        for b in range(3):
            fx = (Dg if a == 0 else Ng) * (Dg if b == 0 else Ng)
            fy = (Dg if a == 1 else Ng) * (Dg if b == 1 else Ng)
            fz = (Dg if a == 2 else Ng) * (Dg if b == 2 else Ng)
            ldiag += contract("czyx,zZ,yY,xX->cZYX", laplace_d[SYM_SLOT[a][b]], fz, fy, fx)
    return ldiag


class DGLaplaceOperator(MatrixFreeOperator):
    """Symmetric interior penalty discretization of ``-div(grad u)``.

    Parameters
    ----------
    dof, geometry, connectivity:
        Space, metric terms, and face batches of the same forest.
    dirichlet_ids:
        Boundary indicators with (weak) Dirichlet conditions; all other
        boundary faces are natural (Neumann).
    penalty_factor:
        Multiplies the standard SIP penalty ``(k+1)^2 A_f / V``.  The
        default 2.5 keeps the bilinear form coercive on the strongly
        sheared cells of tube-junction meshes (factor 1 suffices on
        affine meshes but loses definiteness at the lung bifurcations).
    """

    def __init__(
        self,
        dof: DGDofHandler,
        geometry: GeometryField,
        connectivity: MeshConnectivity,
        dirichlet_ids: tuple[int, ...] = (),
        penalty_factor: float = 2.5,
    ) -> None:
        self.dof = dof
        self.geo = geometry
        self.conn = connectivity
        self.kern = geometry.kernel
        self.fk = FaceKernels(self.kern)
        self.dirichlet_ids = tuple(dirichlet_ids)
        self.cell_metrics = geometry.cell_metrics()
        self.face_metrics, self.bdry_metrics = geometry.all_face_metrics(connectivity)
        k = dof.degree
        self.tau = [penalty_factor * (k + 1) ** 2 * fm.penalty for fm in self.face_metrics]
        self.tau_b = [penalty_factor * (k + 1) ** 2 * fm.penalty for fm in self.bdry_metrics]

    # ------------------------------------------------------------------
    @property
    def n_dofs(self) -> int:
        return self.dof.n_dofs

    def _build_work_model(self) -> dict:
        """Analytic Flop count (Section 5.1 / Figure 7) and ideal
        transfer model of one SIP mat-vec on this mesh.  Only Dirichlet
        faces carry a boundary term (:meth:`vmult` skips the rest)."""
        from ...perf.flops import laplace_flops
        from ...perf.memory import laplace_transfer

        fl = laplace_flops(self.dof.degree, self.kern.n_q_points)
        tr = laplace_transfer(self.dof.degree, self.kern.n_q_points,
                              precision_bytes=self.precision_bytes)
        n_dirichlet = sum(b.n_faces for b in self.conn.boundary
                          if b.boundary_id in self.dirichlet_ids)
        return {
            "flops": float(
                fl.matvec_total(
                    self.dof.n_cells, self.conn.n_interior_faces, n_dirichlet
                )
            ),
            "bytes": float(tr.total_bytes(self.dof.n_cells)),
            "dofs": float(self.n_dofs),
        }

    def _face_flux(self, fm, tau, vm, gm, vp, gp):
        """SIP numerical flux in quadrature space (minus frame), from the
        value / component-major reference-gradient traces of both sides.

        Returns ``(rv, s)``: ``rv`` weights the minus-side test values
        (the plus side gets ``-rv``), and the scalar ``s = -0.5 [u] w``
        weights the test normal derivatives of both sides (reference-
        gradient coefficients ``s c_m`` / ``s c_p``).  ``fm`` supplies
        the rows ``c_m``, ``c_p``, ``jxw`` matching the traces.
        """
        jump = vm - vp
        dn = _normal_derivative(fm.c_m, gm)
        dn += _normal_derivative(fm.c_p, gp)
        w = fm.jxw
        return (tau[:, None, None] * jump - 0.5 * dn) * w, (-0.5) * jump * w

    def face_terms(self, batch, fm, tau, minus_traces, plus_traces,
                   minus: bool = True, plus: bool = True):
        """Contributions ``(minus cells, plus cells)`` of one interior
        face batch, each (..., F, n, n, n) or None when not requested.

        ``batch`` supplies ``face_m, face_p, orientation, subface``;
        ``fm`` the metric rows ``c_m, c_p, jxw``; ``*_traces`` are the
        ``(values, reference gradient)`` pairs of
        :meth:`FaceKernels.eval_side`.  The one SIP face kernel: the
        monolithic, rank-local and simulated-distributed mat-vecs all
        call it on their face subsets."""
        rv, s = self._face_flux(fm, tau, *minus_traces, *plus_traces)
        fk = self.fk
        contrib_m = contrib_p = None
        if minus:
            contrib_m = fk.integrate_side(
                batch.face_m, rv, _scaled_coefficient(fm.c_m, s)
            )
        if plus:
            contrib_p = fk.integrate_side(
                batch.face_p, np.negative(rv, out=rv), _scaled_coefficient(fm.c_p, s),
                batch.orientation, batch.subface,
            )
        return contrib_m, contrib_p

    def boundary_terms(self, face: int, fm, tau, u_cells: np.ndarray):
        """Weak-Dirichlet (Nitsche) contribution of one boundary batch."""
        vm, gm = self.fk.eval_side(u_cells, face)
        w = fm.jxw
        rv = (2.0 * tau[:, None, None] * vm - _normal_derivative(fm.c_m, gm)) * w
        return self.fk.integrate_side(face, rv, _scaled_coefficient(fm.c_m, -vm * w))

    def vmult(self, x: np.ndarray) -> np.ndarray:
        """``x`` is (ndof,) or batch-stacked ``(*lead, ndof)``: the
        leading axes ride along in front of the same kernels."""
        u = self.dof.cell_view(x)
        fk = self.fk
        ax = u.ndim - 4
        out = cell_laplacian(self.kern, self.cell_metrics.laplace_d, u, self.workspace())
        for ib, (batch, fm, tau) in enumerate(
            zip(self.conn.interior, self.face_metrics, self.tau)
        ):
            contrib_m, contrib_p = self.face_terms(
                batch, fm, tau,
                fk.eval_side(np.take(u, batch.cells_m, axis=ax), batch.face_m),
                fk.eval_side(np.take(u, batch.cells_p, axis=ax), batch.face_p,
                             batch.orientation, batch.subface),
            )
            self._scatter_add(out, batch.cells_m, contrib_m, ("int", ib, "m"), axis=ax)
            self._scatter_add(out, batch.cells_p, contrib_p, ("int", ib, "p"), axis=ax)
        for ib, (batch, fm, tau) in enumerate(
            zip(self.conn.boundary, self.bdry_metrics, self.tau_b)
        ):
            if batch.boundary_id not in self.dirichlet_ids:
                continue  # natural (Neumann) boundary: no operator term
            contrib = self.boundary_terms(
                batch.face, fm, tau, np.take(u, batch.cells, axis=ax)
            )
            self._scatter_add(out, batch.cells, contrib, ("bdy", ib), axis=ax)
        return self.dof.flat(out)

    # ------------------------------------------------------------------
    def assemble_rhs(
        self,
        f=None,
        dirichlet=None,
        neumann=None,
    ) -> np.ndarray:
        """Right-hand side for ``A u = b``: volume source ``f(x, y, z)``,
        weak Dirichlet data ``dirichlet(x, y, z)`` on ``dirichlet_ids``
        faces (or a dict mapping boundary id to a callable), Neumann data
        ``neumann(x, y, z)`` (= grad u . n) elsewhere.

        Boundary callables may return ensemble-stacked ``(E, F, a, b)``
        data (per-member windkessel pressures, say); the assembled
        vector is then ``(E, ndof)``, with unbatched data broadcast
        across the members.
        """
        # evaluate the boundary data first: an ensemble-stacked return
        # from any callable promotes the whole right-hand side to (E, .)
        face_data: list[tuple] = []
        lead: tuple = ()
        for ib, (batch, fm, tau) in enumerate(
            zip(self.conn.boundary, self.bdry_metrics, self.tau_b)
        ):
            p = fm.points
            if batch.boundary_id in self.dirichlet_ids:
                if dirichlet is None:
                    continue
                g_fn = (
                    dirichlet.get(batch.boundary_id)
                    if isinstance(dirichlet, dict)
                    else dirichlet
                )
                if g_fn is None:
                    continue
                g = np.asarray(g_fn(p[:, 0], p[:, 1], p[:, 2]))
                kind = "dirichlet"
            else:
                if neumann is None:
                    continue
                g = np.asarray(neumann(p[:, 0], p[:, 1], p[:, 2]))
                kind = "neumann"
            if g.ndim == 4:
                if lead and g.shape[:1] != lead:
                    raise ValueError(
                        "inconsistent ensemble sizes in boundary data: "
                        f"{g.shape[0]} vs {lead[0]}"
                    )
                lead = g.shape[:1]
            face_data.append((ib, batch, fm, tau, kind, g))
        out = np.zeros(lead + (self.dof.n_cells,) + (self.kern.n_dofs_1d,) * 3)
        if f is not None:
            pts = self.cell_metrics.points
            fv = f(pts[:, 0], pts[:, 1], pts[:, 2]) * self.cell_metrics.jxw
            out += self.kern.integrate_values(fv)
        fk = self.fk
        for ib, batch, fm, tau, kind, g in face_data:
            # member-independent data broadcasts across the batch in the
            # scatter
            if kind == "dirichlet":
                w = fm.jxw
                rv = 2.0 * tau[:, None, None] * g * w
                contrib = fk.integrate_side(
                    batch.face, rv, _scaled_coefficient(fm.c_m, -g * w)
                )
            else:
                contrib = fk.integrate_side(batch.face, g * fm.jxw, None)
            self._scatter_add(out, batch.cells, contrib, ("bdy", ib), axis=len(lead))
        return self.dof.flat(out)

    # ------------------------------------------------------------------
    def diagonal(self) -> np.ndarray:
        """Exact operator diagonal by closed-form tensor evaluation: the
        cell part by the squared-1D-factor einsum trick
        (:func:`_cell_laplace_diagonal`), the face self-couplings by
        precomputed trace-product tensors per (face, orientation,
        subface) signature — a handful of einsums instead of one full
        operator application per local basis function."""
        diag = _cell_laplace_diagonal(self.kern, self.cell_metrics.laplace_d)
        self._add_face_diagonal(diag)
        return self.dof.flat(diag)

    def _face_trace_products(self, face, orientation, subface):
        """Precompute, per (face, orientation, subface) signature, the
        quadrature products of own-frame nodal trace sheets:

        ``RR[qa,qb,ja,jb]``  = phi_{ja,jb}(q)^2,
        ``RRa[qa,qb,ja,jb]`` = phi_{ja,jb}(q) (d_a phi_{ja,jb})(q),
        ``RRb`` analogously for the second tangential direction —
        with the quadrature axes in the *minus* frame (orientation and
        2:1 subface interpolation included), built numerically by pushing
        the n^2 unit sheets through the face-evaluation kernel."""
        code = None if orientation is None else orientation.code
        sf = None if subface is None else tuple(subface)
        key = ("facediag", face, code, sf)
        cached = self.plan_cache.get(key)
        if cached is None:
            kern = self.kern
            n = kern.n_dofs_1d
            eye = np.eye(n * n).reshape(n * n, n, n)
            R = self.fk.to_quad(eye, orientation, subface)  # (n^2, qa, qb)
            qa, qb = R.shape[-2], R.shape[-1]
            R = np.ascontiguousarray(
                np.moveaxis(R.reshape(n, n, qa, qb), (0, 1), (2, 3))
            )  # (qa, qb, ja, jb)
            D = kern.nodal_diff
            Ra = contract("abkj,kJ->abJj", R, D)
            Rb = contract("abjk,kJ->abjJ", R, D)
            cached = (R * R, R * Ra, R * Rb)
            self.plan_cache[key] = cached
        return cached

    def _face_diag_contrib(self, fm, tau, c, face, orientation, subface,
                           sign: float, scale: float) -> np.ndarray:
        """Diagonal of one side's self-coupling over one face batch:

        ``scale * int_f w (tau phi^2 + sign * phi n.grad(phi))``

        with ``n`` the minus-side outward normal, ``c`` this side's stored
        ``J^{-1} n`` (normal-derivative coefficients in its own reference
        components) and ``phi`` ranging over this side's basis functions
        (sign = -1 minus side / Dirichlet boundary, +1 plus side;
        scale = 2 on Dirichlet boundaries)."""
        RR, RRa, RRb = self._face_trace_products(face, orientation, subface)
        d, s = divmod(face, 2)
        a_dim, b_dim = tangential_dims(face)
        w = fm.jxw  # (F, qa, qb)
        T_tau = contract("fab,abxy->fxy", tau[:, None, None] * w, RR)
        T_d = contract("fab,abxy->fxy", w * c[d], RR)
        T_a = contract("fab,abxy->fxy", w * c[a_dim], RRa)
        T_b = contract("fab,abxy->fxy", w * c[b_dim], RRb)
        f_v = self.kern.shape.face_value[s]  # (n,) value trace weights
        f_g = self.kern.shape.face_grad[s]  # (n,) normal-derivative weights
        vv = f_v * f_v
        vg = f_v * f_g
        tang = T_tau + sign * (T_a + T_b)
        per = (
            vv[None, :, None, None] * tang[:, None]
            + (sign * vg)[None, :, None, None] * T_d[:, None]
        )
        per *= scale
        # axes (F, i_d, ja, jb) -> cell layout (F, z, y, x): the
        # tangential dims (a_dim > b_dim) are already in descending
        # order, the normal-dim axis slots in at position 3 - d
        return np.moveaxis(per, 1, 3 - d)

    def _add_face_diagonal(self, diag: np.ndarray) -> None:
        """Accumulate the face self-coupling diagonals into ``diag``."""
        for ib, (batch, fm, tau) in enumerate(
            zip(self.conn.interior, self.face_metrics, self.tau)
        ):
            dm = self._face_diag_contrib(
                fm, tau, fm.c_m, batch.face_m, None, None,
                sign=-1.0, scale=1.0,
            )
            self._scatter_add(diag, batch.cells_m, dm, ("int", ib, "m"))
            dp = self._face_diag_contrib(
                fm, tau, fm.c_p, batch.face_p,
                batch.orientation, batch.subface, sign=+1.0, scale=1.0,
            )
            self._scatter_add(diag, batch.cells_p, dp, ("int", ib, "p"))
        for ib, (batch, fm, tau) in enumerate(
            zip(self.conn.boundary, self.bdry_metrics, self.tau_b)
        ):
            if batch.boundary_id not in self.dirichlet_ids:
                continue
            db = self._face_diag_contrib(
                fm, tau, fm.c_m, batch.face, None, None,
                sign=-1.0, scale=2.0,
            )
            self._scatter_add(diag, batch.cells, db, ("bdy", ib))


class CGLaplaceOperator(MatrixFreeOperator):
    """Continuous finite element Laplacian with hanging-node constraints
    and strong Dirichlet conditions (via the constraint machinery of
    :class:`~repro.core.dof_handler.CGDofHandler`)."""

    def __init__(self, dof: CGDofHandler, geometry: GeometryField) -> None:
        if geometry.degree != dof.degree:
            raise ValueError("geometry kernel degree must match the dof space")
        self.dof = dof
        self.kern = geometry.kernel
        self.cell_metrics = geometry.cell_metrics()

    @property
    def n_dofs(self) -> int:
        return self.dof.n_dofs

    def _build_work_model(self) -> dict:
        """Cell-only Flop count; transfer = global vectors + cell metric
        (gather/scatter indirection is extra memory, not Flops)."""
        from ...perf.flops import cg_laplace_flops

        nq = self.kern.n_q_points
        fl = cg_laplace_flops(self.dof.degree, nq)
        pb = self.precision_bytes
        vec_bytes = 3.0 * pb * self.n_dofs
        metric_bytes = 6.0 * nq**3 * pb * self.dof.n_cells
        return {
            "flops": float(fl.matvec_total(self.dof.n_cells, 0, 0)),
            "bytes": vec_bytes + metric_bytes,
            "dofs": float(self.n_dofs),
        }

    def vmult(self, x: np.ndarray) -> np.ndarray:
        u = self.dof.gather_cells(x)
        ws = self.workspace()
        D = self.cell_metrics.laplace_d
        # scatter_add_cells reduces into a fresh global vector, so the
        # workspace-owned cell residual never escapes
        r = ws.take("lap.out", u.shape, np.result_type(D.dtype, u.dtype))
        return self.dof.scatter_add_cells(cell_laplacian(self.kern, D, u, ws, r))

    def diagonal(self) -> np.ndarray:
        """Jacobi diagonal: local cell diagonals accumulated with squared
        constraint weights (the standard matrix-free approximation),
        ``(G∘G)ᵀ · ldiag`` through the handler's cell map."""
        ldiag = _cell_laplace_diagonal(self.kern, self.cell_metrics.laplace_d)
        _, Gt = self.dof.cell_map(ldiag.dtype)
        return Gt.power(2) @ ldiag.reshape(-1)
