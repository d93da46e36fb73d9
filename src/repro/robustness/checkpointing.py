"""Automatic checkpointing with rotation, atomic writes, and a
``latest`` pointer for auto-resume.

Production deployments restart from checkpoints (``repro.ns.checkpoint``
holds the bit-identical state serialization); this module adds the
*policy* layer: write every N steps or every T simulated seconds, keep
the last K files, never leave a torn file behind (write to a temporary
name, then ``os.replace``), and maintain a ``latest`` pointer file so a
resuming process does not need to know checkpoint names.

File layout inside the checkpoint directory::

    ckpt-00000000.npz   oldest retained checkpoint
    ckpt-00000003.npz
    ckpt-00000004.npz   <- newest
    latest              text file containing "ckpt-00000004.npz"

Sequence numbers continue across resumed processes (the manager scans
the directory on construction), so a kill/resume cycle never overwrites
a checkpoint it might still need.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

from ..ns.checkpoint import load_lung_state, save_lung_state
from ..telemetry.metrics import METRICS
from .config import RobustnessSettings

_CKPT_RE = re.compile(r"-(\d{8})\.npz$")

_CHECKPOINTS = METRICS.counter(
    "repro_checkpoints_total",
    "checkpoint files written and loaded",
    labels=("action",),
)


class CheckpointManager:
    """Interval-policy checkpoint writer/reader for a lung simulation.

    Parameters
    ----------
    directory:
        Checkpoint directory (created if missing).
    every_steps:
        Write a checkpoint every N calls to :meth:`maybe_save`
        (0 disables the step policy).
    every_seconds:
        Write whenever at least this much *simulated* time has passed
        since the last write (0 disables the time policy).
    keep:
        Number of most recent checkpoints retained by rotation.
    """

    def __init__(
        self,
        directory: str | Path,
        every_steps: int = 0,
        every_seconds: float = 0.0,
        keep: int = 3,
        prefix: str = "ckpt",
    ) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.every_steps = int(every_steps or 0)
        self.every_seconds = float(every_seconds or 0.0)
        self.keep = int(keep)
        self.prefix = prefix
        self.n_writes = 0
        self._steps_since = 0
        self._last_t: float | None = None
        existing = self.checkpoints()
        self._seq = self._seq_of(existing[-1]) + 1 if existing else 0

    @classmethod
    def from_settings(cls, settings: RobustnessSettings) -> "CheckpointManager | None":
        """Build a manager from a :class:`RobustnessSettings`; ``None``
        when no checkpoint directory is configured."""
        if not settings.checkpoint_dir:
            return None
        return cls(
            settings.checkpoint_dir,
            every_steps=settings.checkpoint_every_steps,
            every_seconds=settings.checkpoint_every_seconds,
            keep=settings.checkpoint_keep,
        )

    # -- inspection ----------------------------------------------------
    @staticmethod
    def _seq_of(path: Path) -> int:
        m = _CKPT_RE.search(path.name)
        return int(m.group(1)) if m else -1

    def checkpoints(self) -> list[Path]:
        """Retained checkpoint files, oldest first."""
        return sorted(
            (p for p in self.directory.glob(f"{self.prefix}-*.npz")
             if _CKPT_RE.search(p.name)),
            key=self._seq_of,
        )

    def latest(self) -> Path | None:
        """The checkpoint the ``latest`` pointer names (falling back to
        the newest file when the pointer is missing or stale)."""
        pointer = self.directory / "latest"
        if pointer.exists():
            candidate = self.directory / pointer.read_text().strip()
            if candidate.exists():
                return candidate
        files = self.checkpoints()
        return files[-1] if files else None

    # -- writing -------------------------------------------------------
    def maybe_save(self, sim) -> Path | None:
        """Count one completed step and checkpoint if the interval
        policy (steps or simulated seconds) says it is due."""
        self._steps_since += 1
        t = float(sim.time)
        due = self.every_steps > 0 and self._steps_since >= self.every_steps
        if self.every_seconds > 0:
            if self._last_t is None:
                self._last_t = t  # baseline: first observed step
            elif t - self._last_t >= self.every_seconds * (1.0 - 1e-12):
                due = True
        return self.save(sim) if due else None

    def save(self, sim) -> Path:
        """Write one checkpoint atomically, advance the ``latest``
        pointer, and rotate old files."""
        name = f"{self.prefix}-{self._seq:08d}.npz"
        final = self.directory / name
        tmp = self.directory / f".tmp-{name}"
        written = save_lung_state(tmp, sim)
        os.replace(written, final)
        pointer_tmp = self.directory / ".tmp-latest"
        pointer_tmp.write_text(name + "\n")
        os.replace(pointer_tmp, self.directory / "latest")
        self._seq += 1
        self._steps_since = 0
        self._last_t = float(sim.time)
        self.n_writes += 1
        _CHECKPOINTS.labels("write").inc()
        self._rotate()
        return final

    def _rotate(self) -> None:
        files = self.checkpoints()
        for stale in files[: max(0, len(files) - self.keep)]:
            stale.unlink(missing_ok=True)

    # -- resuming ------------------------------------------------------
    def resume(self, sim, target: str | Path = "latest",
               config_drift: str = "warn") -> Path:
        """Restore ``sim`` from ``target`` ("latest" or an explicit
        path); returns the checkpoint path that was loaded.

        ``config_drift`` ("ignore" | "warn" | "raise") controls what
        happens when the checkpoint's stored :class:`RunConfig` differs
        from the simulation's."""
        path = self.latest() if str(target) == "latest" else Path(target)
        if path is None:
            raise FileNotFoundError(
                f"no checkpoint to resume from in {self.directory}"
            )
        if not Path(path).exists():
            raise FileNotFoundError(f"checkpoint {path} does not exist")
        load_lung_state(path, sim, config_drift=config_drift)
        _CHECKPOINTS.labels("load").inc()
        return Path(path)
