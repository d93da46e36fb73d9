"""The hybrid geometric–polynomial–algebraic multigrid preconditioner.

Implements Algorithm 1 / Figure 5 of the paper for the pressure Poisson
operator: starting from the symmetric interior penalty DG discretization
of degree ``k`` on the (possibly locally refined) forest,

1. transfer to the *continuous* auxiliary space of the same degree and
   mesh (c-transfer),
2. coarsen the polynomial degree by bisection down to 1 (p-levels),
3. coarsen the mesh by global coarsening down to the unstructured coarse
   mesh (h-levels),
4. solve the coarsest problem with algebraic multigrid (substituting
   BoomerAMG by :class:`~repro.solvers.amg.SmoothedAggregationAMG`) in
   double precision.

Every level except the AMG root is smoothed by a degree-3 Chebyshev
iteration with point-Jacobi preconditioning, and the whole V-cycle runs
in **single precision** while the outer conjugate gradient iterates in
double precision — the mixed-precision strategy of Section 3.4.  Levels
of degree >= 2 are matrix-free; the degree-1 levels apply their
assembled ``C^T A C``, the same matrix the AMG root is built on.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from ..core.dof_handler import CGDofHandler
from ..core.operators.laplace import CGLaplaceOperator, DGLaplaceOperator
from ..mesh.mapping import GeometryField
from ..mesh.octree import Forest
from ..telemetry import TRACER
from ..telemetry.metrics import METRICS, REDUCTION_BUCKETS
from .amg import SmoothedAggregationAMG
from .assemble import AssembledOperator, assemble_cg_laplace
from .chebyshev import ChebyshevSmoother
from .transfer import Transfer, dg_from_cg, h_transfer, p_transfer

# module-level metric handles (no-ops while the registry is disabled).
# The per-level diagnostics are what explains matrix-free multigrid
# behavior (Kronbichler & Kormann, arXiv:1711.03590): how much of the
# residual each level's smoother removes, and how far one full level
# visit (pre-smooth, coarse correction, post-smooth) gets.
_MG_VCYCLES = METRICS.counter(
    "repro_mg_vcycles_total", "multigrid V-cycles applied")
_MG_AMG_SOLVES = METRICS.counter(
    "repro_mg_amg_solves_total", "coarse-level AMG solves")
_MG_NONFINITE = METRICS.counter(
    "repro_mg_nonfinite_vcycles_total",
    "V-cycles that returned a non-finite correction "
    "(reduced-precision overflow)")
_MG_PRESMOOTH = METRICS.histogram(
    "repro_mg_presmooth_reduction",
    "residual reduction of one pre-smoothing application per level "
    "(smoother effectiveness)",
    buckets=REDUCTION_BUCKETS, labels=("level",),
)
_MG_LEVEL_REDUCTION = METRICS.histogram(
    "repro_mg_level_reduction",
    "residual reduction over one full level visit (pre-smooth, coarse "
    "correction, post-smooth)",
    buckets=REDUCTION_BUCKETS, labels=("level",),
)
_MG_LEVEL_DOFS = METRICS.gauge(
    "repro_mg_level_dofs", "DoF count per multigrid level",
    labels=("level",),
)


#: what an operator's kernels read (arrays, or dataclasses of them)
_KERNEL_DATA = ("laplace_d", "jinv_t", "jxw", "face_data", "Sinv", "h_cell", "tau_div", "tau_cont")

#: nested operators a composite delegates to (cast recursively)
_SUB_OPERATORS = ("scalar", "mass", "laplace", "penalty")

#: ``(id(source), dtype) -> (weakref(source), weakref(cast))``
_CASTS: dict = {}


def _cast(obj, dtype: np.dtype):
    """``obj`` at ``dtype``: a float array cast once while a clone holds
    the cast, a dataclass field by field, anything else as it is."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return replace(obj, **{f.name: _cast(getattr(obj, f.name), dtype) for f in fields(obj)})
    if not isinstance(obj, np.ndarray) or obj.dtype.kind != "f" or obj.dtype == dtype:
        return obj
    key = (id(obj), dtype.str)
    src, ref = _CASTS.get(key, (None, None))
    cast = ref() if src is not None and src() is obj else None
    if cast is None:
        cast = obj.astype(dtype)
        _CASTS[key] = (weakref.ref(obj, lambda _, key=key: _CASTS.pop(key, None)),
                       weakref.ref(cast))
    return cast


def operator_to_dtype(op, dtype):
    """Shallow-clone an operator with the data its kernels read cast to
    ``dtype`` so NumPy keeps all kernel arithmetic in that precision.

    With ``dtype=float32`` this doubles the cells per 'SIMD' batch and
    halves the memory traffic, as in the paper; tabulated 1D shape
    factors are dtype-matched lazily by the kernels themselves (see
    :meth:`repro.core.sum_factorization.TensorProductKernel._mat`).
    Only :data:`_KERNEL_DATA` is cast, each source array once per dtype:
    clones over one geometry (the DG and CG(k) levels) share one metric.
    Nested operators of composites are cast recursively; the plan cache
    (work models keyed by dtype) and the dof handler (its CG cell map
    picked by the input dtype) are shared."""
    dtype = np.dtype(dtype)
    if np.dtype(getattr(op, "dtype", None)) == dtype:
        return op
    clone = copy.copy(op)
    for name in _KERNEL_DATA:
        if hasattr(clone, name):
            setattr(clone, name, _cast(getattr(op, name), dtype))
    for name in _SUB_OPERATORS:
        sub = getattr(clone, name, None)
        if sub is not None and hasattr(sub, "vmult"):
            setattr(clone, name, operator_to_dtype(sub, dtype))
    clone.dtype = dtype
    return clone


def _cg_operator(dof: CGDofHandler, geometry: GeometryField):
    """Operator of one continuous level: the assembled matrix at degree
    1, where a matrix-free mat-vec is all call overhead, and the
    matrix-free operator at every higher degree."""
    if dof.degree == 1:
        return AssembledOperator(assemble_cg_laplace(dof, geometry))
    return CGLaplaceOperator(dof, geometry)


@dataclass
class MGLevel:
    """One multigrid level: its operator, smoother (None on the coarsest
    level, which the AMG solves), and the transfer that connects it to
    the next *coarser* level."""

    name: str
    operator: object
    n_dofs: int
    smoother: ChebyshevSmoother | None = None
    to_coarser: Transfer | None = None


class HybridMultigridPreconditioner:
    """V-cycle preconditioner for a :class:`DGLaplaceOperator`.

    Parameters
    ----------
    dg_op:
        The fine-level operator (defines forest, degree, Dirichlet ids).
    smoother_degree:
        Chebyshev degree per pre/post smoothing (paper: 3).
    precision:
        dtype of the V-cycle (paper: single precision).
    coarse_amg_cycles:
        V-cycles of the SA-AMG coarse solver per visit (paper: 2).
    p_sequence:
        Optional explicit degree sequence; default bisection k, k/2, ..., 1.
    """

    def __init__(
        self,
        dg_op: DGLaplaceOperator,
        smoother_degree: int = 3,
        smoothing_range: float = 15.0,
        precision=np.float32,
        coarse_amg_cycles: int = 2,
        p_sequence: tuple[int, ...] | None = None,
    ) -> None:
        self.dg_op = dg_op
        self.precision = precision
        forest: Forest = dg_op.geo.forest
        degree = dg_op.dof.degree
        dirichlet = dg_op.dirichlet_ids
        conn = dg_op.conn

        if p_sequence is None:
            seq = [degree]
            while seq[-1] > 1:
                seq.append(max(1, seq[-1] // 2))
            p_sequence = tuple(seq)
        if p_sequence[0] != degree:
            raise ValueError("p_sequence must start at the DG degree")

        # finest: the DG level itself (levels are built in float64; the
        # precision cast and the smoothers follow once the hierarchy stands)
        levels = [MGLevel(f"DG(k={degree})", dg_op, dg_op.n_dofs)]
        # continuous levels of decreasing degree on the finest mesh
        cg_dofs: list[CGDofHandler] = []
        for k in p_sequence:
            dof = CGDofHandler(forest, k, connectivity=conn, dirichlet_ids=dirichlet)
            if dof.n_dofs == 0:
                break  # everything constrained: stop p-coarsening here
            coarse_geo = dg_op.geo if k == degree else GeometryField(forest, k)
            if cg_dofs:
                levels[-1].to_coarser = p_transfer(cg_dofs[-1], dof)
            cg_dofs.append(dof)
            levels.append(MGLevel(f"CG(k={k})", _cg_operator(dof, coarse_geo), dof.n_dofs))
        if not cg_dofs:
            raise ValueError(
                "the conforming auxiliary space has no unconstrained DoFs; "
                "the mesh is too coarse for the hybrid multigrid"
            )

        # geometric levels by global coarsening at degree 1
        h_forest = forest
        h_dof = cg_dofs[-1]
        while h_forest.max_level > 0:
            coarser, cmap = h_forest.global_coarsening_level()
            if coarser.n_cells == h_forest.n_cells:
                break
            c_dof = CGDofHandler(coarser, 1, dirichlet_ids=dirichlet)
            if c_dof.n_dofs == 0:
                break  # a fully constrained level cannot host the AMG
            coarse_geo = GeometryField(coarser, 1)
            levels[-1].to_coarser = h_transfer(h_dof, c_dof, cmap)
            levels.append(MGLevel(f"CG(k=1, {coarser.n_cells} cells)",
                                  _cg_operator(c_dof, coarse_geo), c_dof.n_dofs))
            h_forest, h_dof = coarser, c_dof

        # coarse AMG solver (double precision, as in the paper) on the
        # coarsest level's matrix — already assembled at degree 1
        coarsest = levels[-1].operator
        if isinstance(coarsest, AssembledOperator):
            A_coarse = coarsest.matrix
        else:
            A_coarse = assemble_cg_laplace(h_dof, coarse_geo)
        self.amg = SmoothedAggregationAMG(A_coarse, n_cycles=coarse_amg_cycles)

        # the V-cycle precision, and a smoother on every level but the
        # coarsest, which the AMG solves instead
        if precision == np.float32:
            for lev in levels:
                lev.operator = operator_to_dtype(lev.operator, np.float32)
                if lev.to_coarser is not None:
                    lev.to_coarser = lev.to_coarser.to_precision(np.float32)
        # the DG -> CG transfer is the CG handler's cell map, which the
        # handler already keeps at the V-cycle precision
        levels[0].to_coarser = dg_from_cg(dg_op.dof, cg_dofs[0], precision)
        for lev in levels[:-1]:
            lev.smoother = ChebyshevSmoother(lev.operator, smoother_degree, smoothing_range)
        self.levels = levels  # fine -> coarse
        self.level_mults: list[int] = [0] * (len(levels) + 1)
        self.amg_calls = 0
        self.nonfinite_vcycles = 0
        if METRICS.enabled:
            for lev in levels:
                _MG_LEVEL_DOFS.labels(lev.name).set(lev.n_dofs)

    # ------------------------------------------------------------------
    @property
    def n_levels(self) -> int:
        """Number of levels in Algorithm-1 terms: the coarsest stored
        level is solved by AMG (level 0)."""
        return len(self.levels)

    def describe(self) -> str:
        lines = []
        for i, lev in enumerate(self.levels):
            label = lev.name
            if i == len(self.levels) - 1:
                label += f" + AMG({self.amg.n_levels} alg. levels)"
            lines.append(
                f"level {len(self.levels) - 1 - i}: {label:<36s} {lev.n_dofs:>12d} DoF"
            )
        return "\n".join(lines)

    def _vcycle(self, i: int, b: np.ndarray) -> np.ndarray:
        """Algorithm 1 on level index ``i`` of self.levels (0 = finest).

        The coarsest stored level is the linear FE space on the coarse
        mesh — exactly the space the AMG hierarchy was assembled on — so
        reaching it triggers the coarse solve instead of smoothing."""
        if i == len(self.levels) - 1:
            self.amg_calls += 1
            _MG_AMG_SOLVES.inc()
            with TRACER.span("amg_coarse"):
                return self.amg.vmult(np.asarray(b, dtype=np.float64)).astype(b.dtype)
        lev = self.levels[i]
        # per-level numerics diagnostics: the residual after pre-smoothing
        # is computed anyway (it feeds the restriction), so smoother
        # effectiveness costs one extra norm; the reduction over the full
        # level visit needs one extra vmult and is therefore gated too
        sample = METRICS.enabled
        b_norm = float(np.linalg.norm(b)) if sample else 0.0
        with TRACER.span(f"level[{lev.name}]"):
            x = lev.smoother.smooth(b)  # pre-smoothing from zero initial guess
            self.level_mults[i] += lev.smoother.degree
            r = b - lev.operator.vmult(x)
            self.level_mults[i] += 1
            if sample and b_norm > 0:
                _MG_PRESMOOTH.labels(lev.name).observe(
                    float(np.linalg.norm(r)) / b_norm
                )
            bc = lev.to_coarser.restrict(r)
        xc = self._vcycle(i + 1, bc)
        with TRACER.span(f"level[{lev.name}]"):
            x = x + lev.to_coarser.prolongate(xc)
            x = lev.smoother.smooth(b, x)  # post-smoothing
            self.level_mults[i] += lev.smoother.degree + 1
            if sample and b_norm > 0:
                _MG_LEVEL_REDUCTION.labels(lev.name).observe(
                    float(np.linalg.norm(b - lev.operator.vmult(x))) / b_norm
                )
        return x

    def vmult(self, r: np.ndarray) -> np.ndarray:
        """One V-cycle in the configured (single) precision.

        A non-finite result (reduced-precision overflow on a mis-scaled
        residual) is counted but returned as-is: the outer CG detects
        the poisoned direction on its next residual and reports
        ``nan_residual``, which lets a fallback chain escalate to a
        more conservative tier."""
        with TRACER.span("mg_vcycle"):
            _MG_VCYCLES.inc()
            r_p = np.asarray(r, dtype=self.precision)
            x = self._vcycle(0, r_p)
            if not np.isfinite(x).all():
                self.nonfinite_vcycles += 1
                _MG_NONFINITE.inc()
            return np.asarray(x, dtype=np.float64)
