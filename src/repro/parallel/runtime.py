"""Rank-decomposed execution of the DG operators, in-process or on a
shared-memory multi-process pool.

The one implementation of the paper's ghost exchange (Section 3.2):
:class:`PartitionPlan` cuts the Morton-ordered cells into contiguous
rank ranges and derives who ships what, :class:`RankLocalOperator`
evaluates one rank's share, and two executors run the ranks —
:class:`InProcessGhostRuntime` sequentially in one process (the
reference), :class:`WorkerPool` as a persistent pool of worker
processes exchanging ghost cells through
``multiprocessing.shared_memory`` buffers.  The protocol per mat-vec
mirrors Kronbichler & Kormann's overlap strategy:

1. **pack** — each worker copies the owned cells its neighbors need
   into per-destination outboxes (one shared-memory segment per ordered
   rank pair),
2. **post** — the worker publishes its round number in a shared
   sequence array (the "message has been sent" flag),
3. **interior** — the cell term, the fully owned faces and the owned
   Dirichlet faces run while neighbor data is (potentially) in flight,
4. **wait/unpack** — the worker spins until every source neighbor has
   posted the current round, gathers the inboxes into the ghost cells'
   lane block, and runs the cut faces,
5. **accumulate** — the residual sheets are expanded onto the cell
   term, and the owned lane columns of the result vector are written to
   the shared output buffer.

A rank's cells are the lane columns ``[lo, hi)`` of the DG vector's lane
block (:meth:`~repro.core.dof_handler.DGDofHandler.lanes`): the rank
copies them once into its own block, and a ghost payload is the lane
columns of the cells a neighbor needs.

Bitwise reproducibility (the contract the parallel test battery
enforces): a rank runs the operator's own
:class:`~repro.core.operators.base.FaceLoop` restricted to its
faces.  Every step of a face-side row is elementwise or a GEMM row, and
in float64 a GEMM row is bitwise independent of the other rows as long
as the product has >= 2 rows (the loop never issues a one-row product:
dgemm rounds its gemv path differently).  Each owned residual slot is
written by exactly one row — the four subfaces of a coarse face fold
in a fixed order — so no accumulation order is left to replay, and
distributed fp64 results are bit-identical to single-process runs.
The float32 contract is a tolerance (1e-5), not bits — sgemm may
block subset rows differently — and :class:`DistributedSolverContext`
keeps the fp32 fine-level smoother serial by default to preserve the
fp64 bitwise contract of the outer iteration.

Measurement: a worker round is measured once, in its ``done`` reply —
the seven ``perf_counter`` stamps that bound the six phases, the
per-peer ``send``/``unpack`` intervals, and the per-source wait spins.
The master derives every view from that one record
(:meth:`WorkerPool._record_round`): the per-rank phase totals, the
``repro_parallel_worker_*`` metric families of its own registry, the
tracer's ``workers`` sub-spans, and — with ``trace_timeline`` — the
merged timeline.  The worker process never touches the telemetry
registries.

Limits: Linux-only (``fork`` start method and ``/dev/shm``); one
outstanding mat-vec at a time (the solvers are sequential in their
operator applications anyway); workers inherit the registered operators
copy-on-write at :meth:`WorkerPool.start`, so register every operator
before starting the pool.
"""

from __future__ import annotations

import atexit
import itertools
import math
import os
import time
from dataclasses import dataclass, field
from multiprocessing import get_context, get_all_start_methods
from multiprocessing import shared_memory

import numpy as np

from ..core.operators.base import MatrixFreeOperator
from ..core.operators.base import FaceLoop
from ..core.operators.laplace import cell_laplacian
from ..core.plans import SCRATCH
from ..telemetry import TRACER
from ..telemetry.metrics import METRICS
from ..telemetry.timeline import PHASES, merge_timeline
from .partition import partition_forest

_POOL_VMULTS = METRICS.counter(
    "repro_parallel_pool_vmults_total",
    "distributed mat-vecs dispatched by the worker pool",
    labels=("operator",),
)
_POOL_CRASHES = METRICS.counter(
    "repro_parallel_worker_crashes_total",
    "worker failures detected by the pool",
)
_WORKER_VMULTS = METRICS.counter(
    "repro_parallel_worker_vmults_total",
    "mat-vec shares completed by the pool's workers",
)
_WORKER_PHASE_SECONDS = METRICS.counter(
    "repro_parallel_worker_phase_seconds_total",
    "wall time of the workers' vmult shares by protocol phase",
    labels=("phase",),
)
_WORKER_WAIT_SPINS = METRICS.histogram(
    "repro_parallel_ghost_wait_spins",
    "spin iterations in the ghost-exchange wait loop per source rank "
    "(a growing tail is the leading indicator of 'ghost exchange "
    "stalled waiting for rank N')",
    buckets=(0.0, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6),
    labels=("src",),
)

#: exit code of an injected worker crash — the same code the hidden
#: ``repro lung --crash-after-step`` fault hook uses
CRASH_EXIT_CODE = 137


class WorkerCrash(RuntimeError):
    """A worker process died (or errored) during a pool operation.

    The pool tears itself down before raising: every worker is
    terminated and every shared-memory segment is unlinked, so a caller
    catching this exception holds no leaked ``/dev/shm`` handles.
    """

    def __init__(self, rank: int, message: str, exitcode=None) -> None:
        super().__init__(message)
        self.rank = rank
        self.exitcode = exitcode


# ----------------------------------------------------------------------
# partition plan
# ----------------------------------------------------------------------

@dataclass
class _RankPlan:
    """Everything one worker needs to know about its share."""

    rank: int
    lo: int  # owned cells are the Morton-contiguous range [lo, hi)
    hi: int
    #: sorted global ids of the ghost cells this rank receives
    ghosts: np.ndarray | None = None
    #: source rank -> slots into ``ghosts`` its payload fills
    recv: dict = field(default_factory=dict)
    #: destination rank -> owned-local cell indices to pack for it
    send: dict = field(default_factory=dict)

    @property
    def n_cells(self) -> int:
        return self.hi - self.lo


@dataclass
class ExchangeCensus:
    """Message accounting of one exchange round."""

    n_messages: int
    n_sheets: int
    bytes_total: int
    pairs: set


class PartitionPlan:
    """Morton partition of an operator's mesh plus the derived ghost
    exchange: who owns which cells, which ghost cells each rank
    receives, and the per-rank-pair payloads.

    :meth:`census` counts the exchange the paper's protocol needs; the
    test battery checks it against the operator-free model census
    :func:`~repro.parallel.partition.partition_stats` and against the
    outboxes this plan creates.
    """

    def __init__(self, op, n_workers: int, weights=None) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers)
        self.ranks = partition_forest(op.geo.forest, n_workers, weights=weights)
        if np.any(np.diff(self.ranks) < 0):
            raise ValueError("partition_forest must assign Morton-contiguous ranks")
        self.n1 = op.kern.n_dofs_1d
        self.npc = self.n1 ** 3
        self.n_cells = op.dof.n_cells
        self.n_dofs = op.dof.n_dofs
        # every byte count below follows the operator's compute dtype
        self.itemsize = np.dtype(op.dtype).itemsize
        self._sheet_bytes = 2 * self.n1 * self.n1 * self.itemsize
        ids = np.arange(n_workers)
        lo = np.searchsorted(self.ranks, ids, side="left")
        hi = np.searchsorted(self.ranks, ids, side="right")
        plans = [_RankPlan(rank=r, lo=int(lo[r]), hi=int(hi[r]))
                 for r in range(n_workers)]

        (cm, _, cp, *_), _ = op.face_loop.table
        rm, rq = self.ranks[cm], self.ranks[cp]
        cut = rm != rq
        self.n_cut_faces = int(cut.sum())
        self.pairs: set[tuple[int, int]] = set(zip(rm[cut].tolist(), rq[cut].tolist()))
        self.pairs |= {(d, s) for s, d in self.pairs}
        for rp_ in plans:
            r = rp_.rank
            ghosts = np.unique(np.concatenate([cp[cut & (rm == r)], cm[cut & (rq == r)]]))
            rp_.ghosts = ghosts
            # split the ghosts by owner (ownership ranges are contiguous)
            for s in range(n_workers):
                if s == r:
                    continue
                mask = (ghosts >= lo[s]) & (ghosts < hi[s])
                if mask.any():
                    rp_.recv[s] = np.nonzero(mask)[0]
        for rp_ in plans:
            for s, slots in rp_.recv.items():
                # what r receives from s is what s packs for r
                plans[s].send[rp_.rank] = rp_.ghosts[slots] - plans[s].lo
        self.rank_plans = plans

    def census(self) -> ExchangeCensus:
        """One message per ordered neighbor pair, two trace sheets
        (value + normal derivative, everything the SIP flux needs) per
        cut face and direction."""
        return ExchangeCensus(
            n_messages=len(self.pairs),
            n_sheets=2 * self.n_cut_faces,
            bytes_total=2 * self.n_cut_faces * self._sheet_bytes,
            pairs=set(self.pairs),
        )

    def payload_bytes(self) -> int:
        """Bytes actually shipped per exchange round by this runtime
        (full nodal ghost-cell tensors, unlike the minimal trace sheets
        of the census model)."""
        total = sum(int(rp.ghosts.size) for rp in self.rank_plans)
        return total * self.npc * self.itemsize

    def rank_exchange_bytes(self, value_bytes=None) -> dict:
        """Per-rank bytes moved per exchange round,
        ``{rank: {"send": ..., "recv": ...}}``, when every nodal value
        takes ``value_bytes`` (default: one value of the operator's
        dtype) — the denominator data of the per-rank achieved-bandwidth
        rows in the timeline analysis
        (:func:`repro.telemetry.timeline.analyze_timeline`)."""
        cell = self.npc * (self.itemsize if value_bytes is None else value_bytes)
        return {
            rp.rank: {
                "send": sum(int(idx.size) for idx in rp.send.values()) * cell,
                "recv": int(rp.ghosts.size) * cell,
            }
            for rp in self.rank_plans
        }


# ----------------------------------------------------------------------
# rank-local operator
# ----------------------------------------------------------------------

class RankLocalOperator:
    """One rank's owner-computes share of a
    :class:`~repro.core.operators.laplace.DGLaplaceOperator` mat-vec.

    The operator's face loop restricted to the faces of the owned cells,
    in two phases: fully owned and owned Dirichlet faces, then the cut
    faces, whose far side reads the sheets of the exchanged ghost cells.
    Every owned residual slot is written by the same row arithmetic as in
    the serial loop, so the owned output slice is bitwise identical to
    the corresponding slice of a single-process ``vmult``.  Scratch is
    the process arena's: the state :meth:`interior` returns lives in
    ``rank.lanes``/``sip.sheets`` until :meth:`accumulate` consumes it.
    """

    def __init__(self, op, plan: PartitionPlan, rank: int) -> None:
        self.op = op
        self.plan = plan
        self.rank = rank
        rp = plan.rank_plans[rank]
        self.rank_plan = rp
        self._laplace_d = np.ascontiguousarray(op.laplace_d[..., rp.lo:rp.hi])
        (cm, fm, cp, fp, code, kind), (cd, fd, bd) = op.face_loop.table
        n_own = rp.n_cells
        own_m, own_p, own_d = ((c >= rp.lo) & (c < rp.hi) for c in (cm, cp, cd))
        # local cell ids: the owned cells, then the ghosts
        lm, lp, ld = (np.where(o, c - rp.lo, n_own + np.searchsorted(rp.ghosts, c))
                      for o, c in ((own_m, cm), (own_p, cp), (own_d, cd)))
        self.faces = FaceLoop(
            op.kern, n_own + rp.ghosts.size, n_own, (lm, fm, lp, fp, code, kind), (ld, fd, bd),
            phases=((own_m & own_p, own_d), (own_m ^ own_p, np.zeros_like(own_d))),
        )
        self.data = op.face_data.restrict(op.face_loop, self.faces)

    # -- phases --------------------------------------------------------
    def interior(self, u: np.ndarray):
        """Cell term plus every face that needs no ghost data, on the
        rank's own copy of its lane columns ``u`` (:meth:`owned`);
        returns the state for :meth:`cut` and :meth:`accumulate`."""
        op = self.op
        ul = SCRATCH.take("rank.lanes", u.shape, u.dtype)
        np.copyto(ul, u)
        lanes = ul.reshape((math.prod(ul.shape[:-4]),) + ul.shape[-4:])
        buf = SCRATCH.take("sip.sheets", (lanes.shape[0], self.faces.size), ul.dtype)
        self.faces.sheets(lanes, buf)
        cell_laplacian(op.kern, self._laplace_d, ul, SCRATCH, ul)
        self.faces.run(buf, self.data, self.faces.phases[0])
        return ul, buf

    def cut(self, state, ug: np.ndarray) -> None:
        """The partition-crossing faces, once the ghost cells' lane
        block ``ug`` has arrived."""
        buf = state[1]
        self.faces.sheets(ug.reshape(buf.shape[:1] + ug.shape[-4:]), buf,
                          lo=self.rank_plan.n_cells)
        self.faces.run(buf, self.data, self.faces.phases[1])

    def accumulate(self, state) -> np.ndarray:
        """Add the owned residual sheets onto the cell term; returns the
        owned lane columns of the result (the arena's ``rank.lanes``)."""
        ul, buf = state
        self.faces.finish(buf)
        self.faces.expand(buf, ul.reshape(buf.shape[:1] + ul.shape[-4:]))
        return ul

    def owned(self, x: np.ndarray) -> np.ndarray:
        """The owned cells of a flat ``(*lead, n_dofs)`` vector: the lane
        columns ``[lo, hi)`` of its lane block, a ``(*lead, n1, n1, n1,
        n_cells)`` view."""
        return self.op.dof.lanes(x)[..., self.rank_plan.lo:self.rank_plan.hi]

    def pack(self, u: np.ndarray, dst: int) -> np.ndarray:
        """Ghost-cell payload (the lane columns of the owned cells) for
        rank ``dst``."""
        return u[..., self.rank_plan.send[dst]]

    def ghosts(self, inbox, lead: tuple, dtype, peers: list | None = None):
        """The ghost cells' lane block ``(*lead, n1, n1, n1, ghosts)``
        assembled from the per-source payloads ``inbox[src]``; with a
        ``peers`` list each source's copy is appended to it as an
        ``("unpack", src, t0, t1)`` interval."""
        rp = self.rank_plan
        ug = np.empty(lead + (self.plan.n1,) * 3 + (rp.ghosts.size,), dtype=dtype)
        for src, slots in rp.recv.items():
            ts = time.perf_counter()
            ug[..., slots] = inbox[src]
            if peers is not None:
                peers.append(("unpack", src, ts, time.perf_counter()))
        return ug

    def store(self, y: np.ndarray, y_own: np.ndarray) -> None:
        """Write the owned lane columns ``y_own`` into the flat ``(*lead,
        n_dofs)`` result ``y``."""
        self.op.dof.lanes(y)[..., self.rank_plan.lo:self.rank_plan.hi] = y_own


class InProcessGhostRuntime:
    """All ranks evaluated sequentially in one process.

    The reference executor of the runtime protocol: the parallel
    correctness battery checks it bitwise against the monolithic
    operator, and the multi-process pool against it.
    """

    def __init__(self, op, n_workers: int, weights=None) -> None:
        self.op = op
        self.plan = PartitionPlan(op, n_workers, weights=weights)
        self.locals = [RankLocalOperator(op, self.plan, r)
                       for r in range(self.plan.n_workers)]

    def mailbox(self, x: np.ndarray) -> dict:
        """One round's messages: ``mail[dst][src]`` is the payload rank
        ``src`` packs for rank ``dst``."""
        mail = {rlo.rank: {} for rlo in self.locals}
        for rlo in self.locals:
            u = rlo.owned(x)
            for dst in rlo.rank_plan.send:
                mail[dst][rlo.rank] = rlo.pack(u, dst)
        return mail

    def vmult(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        mail = self.mailbox(x)
        y = None
        for rlo in self.locals:
            work = rlo.interior(rlo.owned(x))
            rlo.cut(work, rlo.ghosts(mail[rlo.rank], x.shape[:-1], x.dtype))
            y_own = rlo.accumulate(work)
            if y is None:
                y = np.empty(x.shape[:-1] + (self.plan.n_dofs,),
                             dtype=y_own.dtype)
            rlo.store(y, y_own)
        return y


# ----------------------------------------------------------------------
# worker pool
# ----------------------------------------------------------------------

_pool_ids = itertools.count()


def _shm_create(name: str, nbytes: int) -> shared_memory.SharedMemory:
    return shared_memory.SharedMemory(name=name, create=True,
                                      size=max(1, int(nbytes)))


class _Session:
    """Master-side record of one (dtypes, ``lead`` shape) buffer set."""

    __slots__ = ("sid", "xdt", "ydt", "lead", "x", "y")

    def __init__(self, sid, xdt, ydt, lead, x, y):
        self.sid = sid
        self.xdt = xdt
        self.ydt = ydt
        self.lead = lead
        self.x = x
        self.y = y


class WorkerPool:
    """Persistent pool of worker processes sharing one partition plan.

    Register every operator (by tag) before :meth:`start`; the workers
    inherit them copy-on-write through ``fork``.  One mat-vec round:
    the master writes the input vector into a shared buffer, broadcasts
    a command over per-worker pipes, and the workers run the
    pack/post/interior/wait/cut protocol against shared-memory inboxes
    before writing their owned output slices.

    Cleanup invariant: :meth:`close` (also registered via ``atexit``
    and triggered by any detected worker failure) terminates the
    workers and **unlinks every shared-memory segment** — a healthy or
    crashed pool never leaks ``/dev/shm`` handles.
    """

    def __init__(self, n_workers: int, *, weights=None,
                 timeout: float = 300.0, trace_timeline: bool = False) -> None:
        if n_workers < 2:
            raise ValueError("WorkerPool needs >= 2 workers; use the "
                             "operator directly for serial execution")
        if "fork" not in get_all_start_methods():
            raise RuntimeError("WorkerPool requires the fork start method")
        self.n_workers = int(n_workers)
        self.timeout = float(timeout)
        self._weights = weights
        self._ops: dict[str, object] = {}
        self._plan: PartitionPlan | None = None
        self._procs: list = []
        self._pipes: list = []
        self._segments: list[shared_memory.SharedMemory] = []
        self._sessions: dict[tuple, _Session] = {}
        self._next_sid = 0
        self._round = 0
        #: bytes of one nodal value summed over the rounds run (a round
        #: of ``x`` moves ``prod(x.shape[:-1]) * x.itemsize`` per value)
        self._value_bytes = 0
        self._closed = False
        self._seq = None
        #: per-rank phase seconds of the last completed round
        self.last_timings: list = [None] * self.n_workers
        #: cumulative per-rank phase seconds over the pool's lifetime
        #: (always maintained — it is 6 float adds per rank and round)
        self.phase_totals: list[dict] = [dict() for _ in range(self.n_workers)]
        self.trace_timeline = bool(trace_timeline)
        #: rank -> the ``(round, stamps, peers)`` records of its completed
        #: rounds (kept only with ``trace_timeline``)
        self._rounds: dict[int, list] = {r: [] for r in range(self.n_workers)}
        self.shm_prefix = f"repro{os.getpid()}p{next(_pool_ids)}"

    # -- lifecycle -----------------------------------------------------
    def register(self, tag: str, op) -> None:
        if self._procs:
            raise RuntimeError("register() must be called before start()")
        if self._ops:
            first = next(iter(self._ops.values()))
            if op.conn is not first.conn or op.dof.n_cells != first.dof.n_cells:
                raise ValueError(
                    "all registered operators must share one mesh/connectivity"
                )
        self._ops[tag] = op

    def start(self) -> "WorkerPool":
        if self._procs:
            raise RuntimeError("pool already started")
        if not self._ops:
            raise RuntimeError("no operators registered")
        first = next(iter(self._ops.values()))
        self._plan = PartitionPlan(first, self.n_workers, weights=self._weights)
        seq = _shm_create(f"{self.shm_prefix}-seq", 8 * self.n_workers)
        self._segments.append(seq)
        self._seq = np.ndarray((self.n_workers,), dtype=np.int64, buffer=seq.buf)
        self._seq[:] = 0
        ctx = get_context("fork")
        for r in range(self.n_workers):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(r, child, self._ops, self._plan, self.shm_prefix),
                name=f"repro-worker-{r}",
                daemon=True,
            )
            proc.start()
            child.close()
            self._procs.append(proc)
            self._pipes.append(parent)
        atexit.register(self.close)
        return self

    @property
    def plan(self) -> PartitionPlan:
        if self._plan is None:
            raise RuntimeError("pool not started")
        return self._plan

    def census(self) -> ExchangeCensus:
        return self.plan.census()

    def __enter__(self) -> "WorkerPool":
        if not self._procs:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- mat-vec -------------------------------------------------------
    def vmult(self, tag: str, x: np.ndarray) -> np.ndarray:
        if self._closed:
            raise RuntimeError("pool is closed")
        op = self._ops[tag]
        x = np.asarray(x)
        lead = x.shape[:-1]
        ydt = np.result_type(np.dtype(op.dtype), x.dtype)
        sess = self._session(x.dtype, ydt, lead)
        sess.x[...] = x
        self._round += 1
        self._value_bytes += math.prod(lead) * x.dtype.itemsize
        _POOL_VMULTS.labels(tag).inc()
        self._broadcast(("vmult", tag, self._round, sess.sid,
                         sess.xdt.name, sess.ydt.name, lead))
        for r, reply in enumerate(self._gather_done()):
            self._record_round(r, self._round, *reply[2:])
        if TRACER.enabled:
            self._tracer_attach()
        return np.array(sess.y, copy=True)

    def _record_round(self, rank: int, rnd: int, stamps, peers, spins) -> None:
        """Derive every view of one completed worker round from its
        ``done`` reply: ``stamps`` are the seven ``perf_counter`` reads
        bounding the six phases, ``peers`` the ``(phase, peer, t0, t1)``
        ``send``/``unpack`` intervals, ``spins`` the ``(src, n)``
        wait-loop counts.  The phase durations are consecutive stamp
        differences, so they telescope to the round's wall time by
        construction."""
        times = {phase: b - a
                 for phase, a, b in zip(PHASES, stamps, stamps[1:])}
        self.last_timings[rank] = times
        tot = self.phase_totals[rank]
        for phase, sec in times.items():
            tot[phase] = tot.get(phase, 0.0) + sec
        if METRICS.enabled:
            _WORKER_VMULTS.inc()
            for phase, sec in times.items():
                _WORKER_PHASE_SECONDS.labels(phase).inc(sec)
            for src, n in spins:
                _WORKER_WAIT_SPINS.labels(str(src)).observe(n)
        if self.trace_timeline:
            self._rounds[rank].append((rnd, stamps, peers))

    def _tracer_attach(self) -> None:
        """Attach this round's worker timings as rank-tagged sub-spans
        under the currently open tracer span.

        The per-rank nodes run *concurrently*, so the ``workers`` node
        carries the round's wall footprint (the max over ranks) while
        its rank children carry each rank's full phase breakdown —
        exclusive time of the ``workers`` node is therefore not
        meaningful, but the enclosing solver span stays consistent."""
        node = TRACER._stack[-1].child("workers")
        node.count += 1
        node.total += max(sum(t.values()) for t in self.last_timings)
        for r, t in enumerate(self.last_timings):
            rn = node.child(f"rank{r}")
            rn.count += 1
            rn.total += sum(t.values())
            for phase, sec in t.items():
                pn = rn.child(phase)
                pn.count += 1
                pn.total += sec

    # -- timeline ------------------------------------------------------
    def timeline_events(self) -> list[dict]:
        """The merged global timeline (shared clock, shifted to t=0) of
        every round recorded so far (empty without ``trace_timeline``);
        see :func:`repro.telemetry.timeline.merge_timeline`."""
        return merge_timeline(self._rounds)

    def worker_phase_totals(self) -> dict:
        """Cumulative per-rank phase seconds,
        ``{"0": {"pack": ..., ...}, ...}`` (JSON-friendly string keys) —
        what run logs embed so ``repro monitor`` can render a
        per-worker phase breakdown mid-flight."""
        return {str(r): dict(tot)
                for r, tot in enumerate(self.phase_totals) if tot}

    def rank_exchange_bytes(self) -> dict:
        """Per-rank exchange payload bytes per round: the mean over the
        rounds run so far, each counted with its own ``lead`` and
        ``x.dtype``; before the first round, the plan figure for the
        first registered operator's dtype."""
        if not self._round:
            return self.plan.rank_exchange_bytes()
        return self.plan.rank_exchange_bytes(self._value_bytes / self._round)

    def _session(self, xdt, ydt, lead: tuple) -> _Session:
        xdt = np.dtype(xdt)
        ydt = np.dtype(ydt)
        key = (xdt.name, ydt.name, lead)
        sess = self._sessions.get(key)
        if sess is not None:
            return sess
        sid = self._next_sid
        self._next_sid += 1
        plan = self.plan
        shape = lead + (plan.n_dofs,)
        names = _session_names(self.shm_prefix, sid, plan, lead)
        xseg = _shm_create(names["x"], int(np.prod(shape)) * xdt.itemsize)
        yseg = _shm_create(names["y"], int(np.prod(shape)) * ydt.itemsize)
        self._segments += [xseg, yseg]
        for (s, d), (name, shp) in names["out"].items():
            seg = _shm_create(name, int(np.prod(shp)) * xdt.itemsize)
            self._segments.append(seg)
        sess = _Session(
            sid, xdt, ydt, lead,
            np.ndarray(shape, dtype=xdt, buffer=xseg.buf),
            np.ndarray(shape, dtype=ydt, buffer=yseg.buf),
        )
        self._sessions[key] = sess
        return sess

    # -- fault handling ------------------------------------------------
    def _broadcast(self, msg) -> None:
        for r, pipe in enumerate(self._pipes):
            try:
                pipe.send(msg)
            except (BrokenPipeError, OSError):
                self._fail(WorkerCrash(
                    r, f"worker {r} pipe is broken (worker died?)",
                    self._procs[r].exitcode,
                ))

    def _gather_done(self) -> list:
        """Every worker's ``done`` reply of the current round, by rank —
        or a :class:`WorkerCrash` if any worker fails to deliver one."""
        replies = [None] * self.n_workers
        pending = set(range(self.n_workers))
        deadline = time.monotonic() + self.timeout
        while pending:
            for r in sorted(pending):
                pipe, proc = self._pipes[r], self._procs[r]
                got = False
                try:
                    got = pipe.poll(0.002)
                    if got:
                        reply = pipe.recv()
                except (EOFError, OSError):
                    proc.join(timeout=5.0)  # harvest the exit code
                    self._fail(WorkerCrash(
                        r, f"worker {r} hung up mid-solve", proc.exitcode))
                if got:
                    if reply[0] == "error":
                        self._fail(WorkerCrash(
                            r, f"worker {r} failed: {reply[1]}"))
                    replies[r] = reply
                    pending.discard(r)
                elif not proc.is_alive():
                    self._fail(WorkerCrash(
                        r,
                        f"worker {r} died mid-solve "
                        f"(exit code {proc.exitcode})",
                        proc.exitcode,
                    ))
            if time.monotonic() > deadline:
                self._fail(WorkerCrash(-1, "pool timed out waiting for workers"))
        return replies

    def _fail(self, exc: WorkerCrash):
        _POOL_CRASHES.inc()
        self._teardown(graceful=False)
        raise exc

    def inject_crash(self, rank: int, when: str = "after_post") -> None:
        """Arm a fault in one worker: its next vmult share calls
        ``os._exit(137)`` at the requested protocol point (the
        ``--crash-after-step`` pattern, one layer down)."""
        if when not in ("before_post", "after_post"):
            raise ValueError(f"unknown crash point {when!r}")
        self._command(rank, ("crash", when))

    def _command(self, rank: int, msg):
        if self._closed:
            raise RuntimeError("pool is closed")
        try:
            self._pipes[rank].send(msg)
            return self._pipes[rank].recv()
        except (BrokenPipeError, EOFError, OSError):
            self._fail(WorkerCrash(
                rank, f"worker {rank} unreachable",
                self._procs[rank].exitcode,
            ))

    # -- shutdown ------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and unlink every shared-memory segment."""
        self._teardown(graceful=True)

    def _teardown(self, graceful: bool) -> None:
        if self._closed:
            return
        self._closed = True
        if graceful:
            for pipe in self._pipes:
                try:
                    pipe.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            for proc in self._procs:
                proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for pipe in self._pipes:
            try:
                pipe.close()
            except OSError:
                pass
        for seg in self._segments:
            try:
                seg.close()
            except OSError:
                pass
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()
        self._sessions.clear()
        try:
            atexit.unregister(self.close)
        except Exception:
            pass


def _session_names(prefix: str, sid: int, plan: PartitionPlan, lead: tuple):
    """Deterministic segment names shared by master and workers."""
    out = {}
    for rp in plan.rank_plans:
        for dst, idx in rp.send.items():
            shape = lead + (plan.n1,) * 3 + (idx.size,)
            out[(rp.rank, dst)] = (f"{prefix}-s{sid}-ob{rp.rank}to{dst}", shape)
    return {"x": f"{prefix}-s{sid}-x", "y": f"{prefix}-s{sid}-y", "out": out}


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------

class _WorkerState:
    def __init__(self, rank, ops, plan, prefix):
        self.rank = rank
        self.plan = plan
        self.prefix = prefix
        self.locals = {tag: RankLocalOperator(op, plan, rank)
                       for tag, op in ops.items()}
        seq_seg = shared_memory.SharedMemory(name=f"{prefix}-seq")
        self._segs = [seq_seg]
        self.seq = np.ndarray((plan.n_workers,), dtype=np.int64,
                              buffer=seq_seg.buf)
        self.sessions: dict[int, dict] = {}
        self.crash: str | None = None

    def attach_session(self, sid, xdt, ydt, lead):
        sess = self.sessions.get(sid)
        if sess is not None:
            return sess
        plan = self.plan
        xdt, ydt = np.dtype(xdt), np.dtype(ydt)
        shape = lead + (plan.n_dofs,)
        names = _session_names(self.prefix, sid, plan, lead)
        xseg = shared_memory.SharedMemory(name=names["x"])
        yseg = shared_memory.SharedMemory(name=names["y"])
        self._segs += [xseg, yseg]
        rp = plan.rank_plans[self.rank]
        out, inbox = {}, {}
        for (s, d), (name, shp) in names["out"].items():
            if s != self.rank and d != self.rank:
                continue
            seg = shared_memory.SharedMemory(name=name)
            self._segs.append(seg)
            arr = np.ndarray(shp, dtype=xdt, buffer=seg.buf)
            if s == self.rank:
                out[d] = arr
            else:
                inbox[s] = arr
        assert set(out) == set(rp.send) and set(inbox) == set(rp.recv)
        sess = {
            "x": np.ndarray(shape, dtype=xdt, buffer=xseg.buf),
            "y": np.ndarray(shape, dtype=ydt, buffer=yseg.buf),
            "out": out,
            "inbox": inbox,
            "lead": lead,
        }
        self.sessions[sid] = sess
        return sess

    def release(self):
        for seg in self._segs:
            try:
                seg.close()
            except OSError:
                pass


def _worker_vmult(state: _WorkerState, tag, rnd, sess):
    """One mat-vec share; returns the round's record ``(stamps, peers,
    spins)`` — see :meth:`WorkerPool._record_round`."""
    rlo = state.locals[tag]
    rp = rlo.rank_plan
    peers = []
    t0 = time.perf_counter()
    x = sess["x"]
    u = rlo.owned(x)
    for dst in rp.send:
        ts = time.perf_counter()
        sess["out"][dst][...] = rlo.pack(u, dst)
        peers.append(("send", dst, ts, time.perf_counter()))
    if state.crash == "before_post":
        os._exit(CRASH_EXIT_CODE)
    t1 = time.perf_counter()
    # post: publish this round so neighbors may read the outboxes
    state.seq[state.rank] = rnd
    if state.crash == "after_post":
        os._exit(CRASH_EXIT_CODE)
    t2 = time.perf_counter()
    # interior work overlaps the (conceptual) message flight time
    work = rlo.interior(u)
    t3 = time.perf_counter()
    deadline = time.monotonic() + 120.0
    spins = []
    for src in rp.recv:
        n = 0
        while state.seq[src] < rnd:
            n += 1
            time.sleep(0 if n < 1000 else 5e-5)
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"ghost exchange stalled waiting for rank {src}"
                )
        spins.append((src, n))
    t4 = time.perf_counter()
    ug = rlo.ghosts(sess["inbox"], x.shape[:-1], x.dtype, peers)
    rlo.cut(work, ug)
    t5 = time.perf_counter()
    rlo.store(sess["y"], rlo.accumulate(work))
    t6 = time.perf_counter()
    return (t0, t1, t2, t3, t4, t5, t6), peers, spins


def _worker_main(rank, pipe, ops, plan, prefix) -> None:
    state = _WorkerState(rank, ops, plan, prefix)
    # Forked siblings inherit each other's parent-side pipe fds, so a
    # dead master does not deliver EOF here.  Poll with a timeout and
    # watch for re-parenting (getppid changes when the master dies) so
    # orphaned workers always exit and release their shm segments.
    master_pid = os.getppid()
    try:
        while True:
            try:
                if not pipe.poll(1.0):
                    if os.getppid() != master_pid:
                        break
                    continue
                msg = pipe.recv()
            except (EOFError, KeyboardInterrupt):
                break
            kind = msg[0]
            if kind == "stop":
                break
            try:
                if kind == "vmult":
                    _, tag, rnd, sid, xdt, ydt, lead = msg
                    sess = state.attach_session(sid, xdt, ydt, lead)
                    pipe.send(("done", rank,
                               *_worker_vmult(state, tag, rnd, sess)))
                elif kind == "crash":
                    state.crash = msg[1]
                    pipe.send(("ok", rank))
                else:
                    pipe.send(("error", f"unknown command {kind!r}"))
            except Exception as exc:  # noqa: BLE001 - reported to master
                try:
                    pipe.send(("error", f"{type(exc).__name__}: {exc}"))
                except (BrokenPipeError, OSError):
                    break
    finally:
        state.release()
        try:
            pipe.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# solver integration
# ----------------------------------------------------------------------

class DistributedOperator(MatrixFreeOperator):
    """Drop-in operator front: ``vmult`` dispatches to the pool, while
    setup-time queries (diagonal, work model) delegate to the serial
    operator on the master — they run once, not per iteration."""

    def __init__(self, pool: WorkerPool, tag: str, op) -> None:
        self.pool = pool
        self.tag = tag
        self.serial_op = op
        self.dtype = op.dtype
        self.conn = op.conn
        self.dof = op.dof

    @property
    def n_dofs(self) -> int:
        return self.serial_op.n_dofs

    def vmult(self, x: np.ndarray) -> np.ndarray:
        return self.pool.vmult(self.tag, x)

    def diagonal(self) -> np.ndarray:
        return self.serial_op.diagonal()

    def _build_work_model(self) -> dict:
        return dict(self.serial_op.work_model())


class DistributedSolverContext:
    """Thread a worker pool through an operator and (optionally) its
    multigrid preconditioner.

    ``ctx.operator`` replaces the fp64 operator in the outer Krylov
    iteration.  The distributed fp64 mat-vec is bitwise identical to
    the serial one (every owned residual slot is written by the serial
    face loop's row arithmetic, and no GEMM has a single row), so CG
    iterates — and therefore ``repro poisson --workers N`` — reproduce
    the single-process run exactly.

    When a
    :class:`~repro.solvers.multigrid.HybridMultigridPreconditioner` is
    given and ``distribute_single_precision=True``, its finest (DG)
    level — operator and Chebyshev smoother — is swapped to
    pool-backed fronts as well.  This is *off* by default: sgemm may
    block a rank's subset of the face loop's rows differently from the
    full loop (~1e-7 relative), so distributing the fp32 smoother
    would perturb the preconditioner and break the fp64 bitwise
    contract of the outer iteration.  The Chebyshev eigenvalue
    estimates and the Jacobi diagonal were computed at preconditioner
    construction and are kept either way.  Exiting the context
    restores the serial objects and closes the pool.
    """

    def __init__(self, op, preconditioner=None, n_workers: int = 2,
                 weights=None, distribute_single_precision: bool = False,
                 trace_timeline: bool = False) -> None:
        self.pool = WorkerPool(n_workers, weights=weights,
                               trace_timeline=trace_timeline)
        self.pool.register("fine", op)
        self._mg = None
        self._saved = None
        mg = preconditioner
        swap_sp = (distribute_single_precision and mg is not None
                   and getattr(mg, "levels", None))
        if swap_sp:
            self.pool.register("fine_sp", mg.levels[0].operator)
        self.pool.start()
        self.operator = DistributedOperator(self.pool, "fine", op)
        if swap_sp:
            lev = mg.levels[0]
            self._mg = mg
            self._saved = (lev.operator, lev.smoother.op)
            fine_sp = DistributedOperator(self.pool, "fine_sp", lev.operator)
            lev.operator = fine_sp
            lev.smoother.op = fine_sp
        self.census = self.pool.census()

    def timeline_events(self) -> list[dict]:
        """Merged timeline of the pool's rounds so far."""
        return self.pool.timeline_events()

    def rank_exchange_bytes(self) -> dict:
        return self.pool.rank_exchange_bytes()

    def worker_phase_totals(self) -> dict:
        return self.pool.worker_phase_totals()

    def close(self) -> None:
        if self._mg is not None:
            lev = self._mg.levels[0]
            lev.operator, lev.smoother.op = self._saved
            self._mg = None
        self.pool.close()

    def __enter__(self) -> "DistributedSolverContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
