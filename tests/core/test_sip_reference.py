"""The SIP Laplacian against a dense matrix assembled without the face
loop: cell and face integrals evaluated point by point from the 1D
Lagrange basis and the geometry nodes, the plus side of every face
located by its physical quadrature points (Gauss-Newton on the plus
cell's face).  No orientation code, subface matrix, sheet slot or
precomposed flux coefficient of :class:`FaceLoop` enters the reference,
so ``vmult``, ``diagonal`` and ``assemble_rhs`` are checked on the meshes
where face bugs hide: a box, the 2:1 hanging box with every
orientation, a curved cylinder and the g=2 lung's pressure operator.
The same meshes hold the loop's own contracts: the rank split equals
the serial mat-vec bit for bit, a one-member stack equals the flat run
and a stacked run its members' solo runs, and every chunk's slot
indices are row-minor."""

import numpy as np
import pytest

from repro.core.basis import LagrangeBasis1D
from repro.core.dof_handler import DGDofHandler
from repro.core.operators import DGLaplaceOperator
from repro.core.operators.base import tangential_dims, value_faces
from repro.core.quadrature import gauss
from repro.lung.airway_mesh import INLET_ID, airway_tree_mesh
from repro.lung.tree import grow_airway_tree
from repro.mesh.connectivity import build_connectivity
from repro.mesh.generators import box, cylinder
from repro.mesh.mapping import GeometryField
from repro.mesh.octree import Forest
from repro.parallel.runtime import InProcessGhostRuntime
from repro.solvers.multigrid import operator_to_dtype

from ..conftest import lane_block

PENALTY = 2.5  # DGLaplaceOperator's default penalty_factor


def _basis(geo, xi):
    """Nodal basis values ``(P, n^3)`` and reference gradients ``(3, P,
    n^3)`` at reference points ``xi`` ``(P, 3)`` (x, y, z); basis
    functions in the cells' (z, y, x) node order."""
    nodes = geo.kernel.shape.basis.nodes
    b = LagrangeBasis1D(len(nodes) - 1, nodes=nodes)
    (vx, vy, vz), (dx, dy, dz) = ([f(xi[:, i]) for i in range(3)]
                                  for f in (b.values, b.derivatives))
    P = len(xi)

    def t(z, y, x):
        return np.einsum("pz,py,px->pzyx", z, y, x).reshape(P, -1)

    return t(vz, vy, vx), np.stack([t(vz, vy, dx), t(vz, dy, vx), t(dz, vy, vx)])


def _map(geo, cell, xi):
    """Physical points ``(P, 3)``, basis values, physical gradients ``(P,
    3, n^3)`` and Jacobians ``(P, 3, 3)`` of ``cell`` at ``xi``."""
    V, G = _basis(geo, xi)
    X = geo.X[cell].reshape(3, -1)
    J = np.einsum("iI,aPI->Pia", X, G)
    grad = np.einsum("Pai,aPI->PiI", np.linalg.inv(J), G)
    return V @ X.T, V, grad, J


def _face_points(geo, face):
    """Reference points and weights of the minus-frame face lattice."""
    rule = gauss(geo.kernel.n_q_points)
    d, side = divmod(face, 2)
    a, b = tangential_dims(face)
    xi = np.empty((rule.n_points, rule.n_points, 3))
    xi[..., d] = side
    xi[..., a] = rule.points[:, None]
    xi[..., b] = rule.points[None, :]
    return xi.reshape(-1, 3), np.outer(rule.weights, rule.weights).ravel()


def _locate(geo, cell, face, x):
    """Reference points on ``face`` of ``cell`` whose image is ``x``."""
    d, side = divmod(face, 2)
    tang = [t for t in range(3) if t != d]
    grid = np.linspace(0.0, 1.0, 9)
    seed = np.zeros((81, 3))
    seed[:, d] = side
    seed[:, tang] = np.stack(np.meshgrid(grid, grid, indexing="ij"), -1).reshape(-1, 2)
    sx = _map(geo, cell, seed)[0]
    xi = seed[np.argmin(((x[:, None] - sx[None]) ** 2).sum(-1), axis=1)]
    for _ in range(20):
        y, _, _, J = _map(geo, cell, xi)
        Jt = J[:, :, tang]
        step = np.linalg.solve(np.einsum("Pia,Pib->Pab", Jt, Jt),
                               np.einsum("Pia,Pi->Pa", Jt, x - y)[..., None])
        xi[:, tang] += step[..., 0]
    np.testing.assert_allclose(_map(geo, cell, xi)[0], x, atol=1e-13)
    return xi


def _side(geo, cell, face, xi):
    """Values, outward normal of ``face`` and surface factor of one side."""
    _, V, grad, J = _map(geo, cell, xi)
    d, side = divmod(face, 2)
    m = np.linalg.inv(J)[:, d, :]  # J^{-T} e_d
    size = np.linalg.norm(m, axis=1)
    return V, grad, (2 * side - 1) * m / size[:, None], np.abs(np.linalg.det(J)) * size


def dense_sip(op):
    """``(A, rhs)``: the SIP matrix of ``op``'s mesh and a function
    assembling its right-hand side, both from the definitions
    ``a(u, v) = sum_K int grad u . grad v + sum_F int tau [u][v]
    - {d_n u}[v] - {d_n v}[u]`` with mirror ghosts on Dirichlet faces;
    built cell-major, returned in the DG vector's lane order."""
    geo, conn = op.geo, op.conn
    n = op.kern.n_dofs_1d
    n3 = n ** 3
    A = np.zeros((op.n_dofs, op.n_dofs))
    span = [slice(c * n3, (c + 1) * n3) for c in range(geo.n_cells)]
    rule = gauss(op.kern.n_q_points)
    g = rule.points
    xi = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1)[..., ::-1].reshape(-1, 3)
    w = np.einsum("z,y,x->zyx", rule.weights, rule.weights, rule.weights).ravel()
    cells = [_map(geo, c, xi) for c in range(geo.n_cells)]
    for c, (_, _, grad, J) in enumerate(cells):
        A[span[c], span[c]] += np.einsum("P,PiI,PiJ->IJ", w * np.abs(np.linalg.det(J)), grad, grad)
    fms, bms = geo.all_face_metrics(conn)
    tau = PENALTY * (op.dof.degree + 1) ** 2
    for batch, fm in zip(conn.interior, fms):
        for f in range(batch.n_faces):
            cm, cp = batch.cells_m[f], batch.cells_p[f]
            pts, wq = _face_points(geo, batch.face_m)
            Vm, gm, nrm, s = _side(geo, cm, batch.face_m, pts)
            x = _map(geo, cm, pts)[0]
            Vp, gp, _, _ = _side(geo, cp, batch.face_p, _locate(geo, cp, batch.face_p, x))
            W = wq * s
            jump = np.concatenate([Vm, -Vp], axis=1)
            avg = 0.5 * np.concatenate([np.einsum("Pi,PiI->PI", nrm, gm),
                                        np.einsum("Pi,PiI->PI", nrm, gp)], axis=1)
            B = (tau * fm.penalty[f] * np.einsum("P,PI,PJ->IJ", W, jump, jump)
                 - np.einsum("P,PI,PJ->IJ", W, jump, avg)
                 - np.einsum("P,PI,PJ->IJ", W, avg, jump))
            both = np.r_[np.arange(cm * n3, (cm + 1) * n3), np.arange(cp * n3, (cp + 1) * n3)]
            A[np.ix_(both, both)] += B
    faces = []  # (cell, face, basis values, d_n basis, points, weights, tau) per boundary face
    for batch, fm in zip(conn.boundary, bms):
        for f in range(batch.n_faces):
            c = batch.cells[f]
            pts, wq = _face_points(geo, batch.face)
            V, grad, nrm, s = _side(geo, c, batch.face, pts)
            dn = np.einsum("Pi,PiI->PI", nrm, grad)
            faces.append((batch.boundary_id, c, V, dn, _map(geo, c, pts)[0], wq * s,
                          tau * fm.penalty[f]))
            if batch.boundary_id in op.dirichlet_ids:
                A[span[c], span[c]] += (np.einsum("P,PI,PJ->IJ", wq * s * 2 * faces[-1][-1], V, V)
                                        - np.einsum("P,PI,PJ->IJ", wq * s, V, dn)
                                        - np.einsum("P,PI,PJ->IJ", wq * s, dn, V))

    def rhs(f, dirichlet, neumann):
        b = np.zeros(op.n_dofs)
        for c, (x, V, _, J) in enumerate(cells):
            b[span[c]] += (w * np.abs(np.linalg.det(J)) * f(*x.T)) @ V
        for bid, c, V, dn, x, W, t in faces:
            if bid in op.dirichlet_ids:
                b[span[c]] += (W * dirichlet(*x.T)) @ (2 * t * V - dn)
            else:
                b[span[c]] += (W * neumann(*x.T)) @ V
        return b[perm]

    perm = lane_block(np.arange(op.n_dofs).reshape((geo.n_cells,) + (n,) * 3)).reshape(-1)
    return A[np.ix_(perm, perm)], rhs


def _operator(forest, degree, dirichlet_ids):
    return DGLaplaceOperator(DGDofHandler(forest, degree), GeometryField(forest, degree),
                             build_connectivity(forest), dirichlet_ids=dirichlet_ids)


def _lung():
    lung = airway_tree_mesh(grow_airway_tree(2, seed=0))
    return _operator(lung.forest, 1, (INLET_ID, *lung.outlet_ids))


MESHES = {
    "box": lambda: _operator(
        Forest(box(subdivisions=(2, 1, 1), boundary_ids={0: 1})).refine_all(1), 3, (1,)),
    "cylinder": lambda: _operator(
        Forest(cylinder(radius=0.5, length=1.0, n_axial=2, smooth=True)), 2, (1, 2)),
    "lung_g2_pressure": _lung,
}


@pytest.fixture(scope="module")
def built():
    """Operators and dense references of :data:`MESHES`, built once."""
    return {}


@pytest.fixture(params=["box", "rotated_hanging_box", "cylinder", "lung_g2_pressure"])
def case(request, rng, built):
    """``(operator, (A, rhs), rng)``; the rotated box is redrawn per test."""
    name = request.param
    if name == "rotated_hanging_box":
        forest, _ = request.getfixturevalue("rotated_hanging_box")
        op = _operator(forest, 2, (1,))
        return op, dense_sip(op), rng
    if name not in built:
        op = MESHES[name]()
        built[name] = op, dense_sip(op)
    return built[name] + (rng,)


def _rel(y, ref):
    return np.linalg.norm(y - ref) / np.linalg.norm(ref)


def _data(x, y, z):
    return np.sin(x + 0.3) * np.cos(0.7 * y) + z * z


class TestDenseReference:
    def test_vmult(self, case):
        op, (A, _), rng = case
        X = rng.standard_normal((2, op.n_dofs))
        assert _rel(op.vmult(X[0]), A @ X[0]) <= 1e-13
        y32 = operator_to_dtype(op, np.float32).vmult(X.astype(np.float32))
        assert y32.dtype == np.float32
        assert _rel(y32, X @ A.T) <= 1e-5

    def test_diagonal(self, case):
        op, (A, _), _ = case
        assert _rel(op.diagonal(), np.diag(A)) <= 1e-13
        assert _rel(operator_to_dtype(op, np.float32).diagonal(), np.diag(A)) <= 1e-5

    def test_assemble_rhs(self, case):
        op, (_, rhs), _ = case

        def source(x, y, z):
            return np.cos(x) * (1.0 + y * z)

        ref = rhs(source, _data, lambda x, y, z: x - 2.0 * y * z)
        b = op.assemble_rhs(source, dirichlet=_data, neumann=lambda x, y, z: x - 2.0 * y * z)
        assert _rel(b, ref) <= 1e-13
        b32 = operator_to_dtype(op, np.float32).assemble_rhs(
            source, dirichlet=_data, neumann=lambda x, y, z: x - 2.0 * y * z)
        assert _rel(b32, ref) <= 1e-5


class TestLoopContracts:
    def test_two_ranks_equal_serial_bitwise(self, case):
        op, _, rng = case
        x = rng.standard_normal(op.n_dofs)
        assert np.array_equal(InProcessGhostRuntime(op, 2).vmult(x), op.vmult(x))

    def test_members(self, case):
        op, _, rng = case
        X = rng.standard_normal((3, op.n_dofs))
        Y = op.vmult(X)
        assert np.array_equal(op.vmult(X[:1])[0], op.vmult(X[0]))
        for e in range(3):
            assert np.array_equal(Y[e], op.vmult(X[e]))

    def test_slots_are_row_minor(self, case):
        """Every loop's gather and scatter slots are ``(sheets // 2, n*n,
        C)`` with the chunk's rows on the contiguous last axis, and a
        conforming row's slots run sheet-major, cell-minor: they differ
        from its first slot by multiples of its lane block's width."""
        op, _, _ = case
        rt = InProcessGhostRuntime(op, 2)
        loops = [op.face_loop, value_faces(op.geo, op.conn)[0]] + [r.faces for r in rt.locals]
        for loop in loops:
            nn = loop.n1 ** 2
            for ch in loop.chunks:
                C = ch.F + ch.Fi
                for idx in (ch.idx, ch.sidx):
                    assert idx.shape == (loop.ks, nn, C) and idx.flags.c_contiguous
        width = op.dof.n_cells
        for ch in op.face_loop.chunks:
            conforming = np.flatnonzero(ch.idx[0, 0] == ch.sidx[0, 0])
            rel = ch.idx[..., conforming] - ch.idx[:1, :1, conforming]
            assert conforming.size and np.all(rel % width == 0)
