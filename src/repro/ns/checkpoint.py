"""Checkpoint / restart of flow and ventilation simulations.

The Table-2 runs take millions of time steps over wall-hours; any
production deployment restarts from checkpoints.  The state needed for a
*bit-identical* continuation of the dual splitting scheme is the BDF
history (velocities, their convective evaluations, pressures, step
sizes) plus the coupled 0D models (windkessel volumes/flows, ventilator
controller state); everything else is rebuilt from the mesh definition.

Format version 2 additionally embeds the run's configuration
(:class:`repro.robustness.RunConfig` as JSON) so a resume can detect
configuration drift — restoring a state into a simulation built with
different solver settings silently changes the trajectory, which is
exactly the class of bug a long checkpointed run cannot afford.
Version 4 stores every history in the lane order of
:class:`~repro.core.dof_handler.DGDofHandler`, ``(*lead, [3,] n³, N)``.
Older files are cell-major — pressures ``(N, n³)``, velocities
component-major ``(3, N, n³)`` in version 3 and interleaved per cell
``(N, 3, n³)`` before it — and are permuted once on load; version-1
files (no embedded config) still load.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

FORMAT_VERSION = 4

#: format versions this module can read
SUPPORTED_VERSIONS = (1, 2, 3, 4)


class CheckpointConfigDrift(UserWarning):
    """The configuration stored in a checkpoint differs from the
    simulation it is being restored into."""


def _written_path(path: Path) -> Path:
    """The file :func:`np.savez_compressed` actually wrote: numpy
    appends ``.npz`` unless the *name* already ends with it (a suffixed
    path like ``state.ckpt`` becomes ``state.ckpt.npz``)."""
    path = Path(path)
    return path if path.name.endswith(".npz") else path.with_name(path.name + ".npz")


def _config_dict(config) -> dict | None:
    if config is None:
        return None
    to_dict = getattr(config, "to_dict", None)
    return to_dict() if callable(to_dict) else dict(config)


def _stored_config(data):
    """The embedded config dict — a list of them for a member run, whose
    ``config_json`` has shape ``(E,)``; ``None`` for version-1 files."""
    if "config_json" in getattr(data, "files", ()):
        decode = np.vectorize(json.loads, otypes=[object])
        return decode(data["config_json"]).tolist()
    return None


def _check_version(data) -> int:
    version = int(data["version"])
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(
            f"unsupported checkpoint version {version} "
            f"(supported: {SUPPORTED_VERSIONS})"
        )
    return version


def _check_config_drift(stored: dict | None, current, mode: str) -> None:
    """Compare the checkpoint's embedded config against the target
    simulation's; ``mode`` is "ignore", "warn" (default), or "raise"."""
    if mode not in ("ignore", "warn", "raise"):
        raise ValueError(f"invalid config_drift mode {mode!r}")
    current = _config_dict(current)
    if mode == "ignore" or stored is None or current is None:
        return
    diffs = _dict_diff(stored, current)
    if not diffs:
        return
    message = (
        "checkpoint configuration differs from the running simulation: "
        + "; ".join(diffs)
    )
    if mode == "raise":
        raise ValueError(message)
    warnings.warn(message, CheckpointConfigDrift, stacklevel=3)


def _dict_diff(a: dict, b: dict, prefix: str = "") -> list[str]:
    out = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if isinstance(va, dict) and isinstance(vb, dict):
            out += _dict_diff(va, vb, f"{prefix}{key}.")
        elif va != vb:
            out.append(f"{prefix}{key}: checkpoint={va!r} current={vb!r}")
    return out


def _scheme_payload(scheme) -> dict:
    """Format version, time, step sizes and the BDF history arrays,
    which are always stored in double precision.

    A float32 state upcasts to float64 *exactly*, and the loader casts
    back to the scheme's ``state_dtype``, so a save/load round trip is
    bit-identical at either compute precision while the on-disk format
    stays precision-independent (a float32 run can resume a float64
    checkpoint and vice versa)."""
    payload = {
        "version": np.array(FORMAT_VERSION),
        "t": np.array(scheme.t),
        "dt_history": np.asarray(scheme.dt_history, dtype=float),
        "n_u": np.array(len(scheme.u_history)),
        "n_p": np.array(len(scheme.p_history)),
    }
    for i, u in enumerate(scheme.u_history):
        payload[f"u_{i}"] = np.asarray(u, dtype=np.float64)
    for i, c in enumerate(scheme.conv_history):
        payload[f"conv_{i}"] = np.asarray(c, dtype=np.float64)
    for i, p in enumerate(scheme.p_history):
        payload[f"p_{i}"] = np.asarray(p, dtype=np.float64)
    return payload


def _restore_scheme(data, scheme) -> None:
    """Set what :func:`_scheme_payload` stored on ``scheme``, history
    fields cast to its state dtype (stored fields are float64 already).
    The histories of a cell-major file (version < 4) go to the lane
    order ``(*lead, [3,] n³, N)``."""
    dt = np.dtype(getattr(scheme, "state_dtype", np.float64))
    n_cells = scheme.ops.mass.dof.n_cells
    version = int(data["version"])

    def fields(key, n):
        out = [data[f"{key}_{i}"].astype(dt, copy=False) for i in range(int(n))]
        if version < 4:  # (N, [3,] n³), or (3, N, n³) for a version-3 velocity
            c = 1 if key == "p" else 3
            v3 = version == 3 and c == 3
            pair = (c, n_cells) if v3 else (n_cells, c)
            out = [np.moveaxis(x.reshape(x.shape[:-1] + pair + (-1,)), -2 if v3 else -3, -1)
                   .reshape(x.shape) for x in out]
        return out

    scheme.t = float(data["t"])
    scheme.dt_history = [float(v) for v in data["dt_history"]]
    scheme.u_history = fields("u", data["n_u"])
    scheme.conv_history = fields("conv", data["n_u"])
    scheme.p_history = fields("p", data["n_p"])


def save_scheme_state(path, scheme, config=None) -> Path:
    """Serialize a :class:`~repro.timeint.dual_splitting.DualSplittingScheme`.

    ``config`` (anything with ``to_dict()``, normally a
    :class:`~repro.robustness.RunConfig`) is embedded for drift
    detection on resume.  Returns the path numpy actually wrote."""
    path = Path(path)
    payload = {**_scheme_payload(scheme), "order": np.array(scheme.order)}
    if config is not None:
        payload["config_json"] = np.array(json.dumps(_config_dict(config)))
    np.savez_compressed(path, **payload)
    return _written_path(path)


def load_scheme_state(path, scheme, config_drift: str = "warn") -> dict | None:
    """Restore a scheme in place; the scheme must be built over the same
    discretization (sizes are validated).  Returns the checkpoint's
    embedded config dict (``None`` for version-1 files)."""
    with np.load(Path(path)) as data:
        _check_version(data)
        stored_config = _stored_config(data)
        expected = scheme.ops.mass.n_dofs
        for i in range(int(data["n_u"])):
            if data[f"u_{i}"].shape != (expected,):
                raise ValueError(
                    f"checkpoint velocity size {data[f'u_{i}'].shape} does not "
                    f"match the discretization ({expected} DoF)"
                )
        _restore_scheme(data, scheme)
    return stored_config


def _ragged(rows, lead) -> np.ndarray:
    """Per-member histories as one ``lead + (longest,)`` array, NaN-
    padded: member breathing periods may differ, so members may have
    completed different numbers of cycles.  A single run pads nothing."""
    out = np.full((len(rows), max(len(r) for r in rows)), np.nan)
    for row, values in zip(out, rows):
        row[: len(values)] = values
    return out.reshape(lead + out.shape[1:])


def save_lung_state(path, sim) -> Path:
    """Serialize a :class:`~repro.lung.simulation.LungVentilationSimulation`
    (flow state + windkessels + ventilator controller + its embedded
    :class:`~repro.robustness.RunConfig`).  Per-member quantities carry
    the simulation's ``lead`` in front, ``config_json`` included: scalars
    and ``(n_outlets,)`` for a single run, ``(E,)`` and ``(E, n_outlets)``
    for a member run.  Returns the path numpy actually wrote."""
    path = Path(path)
    lead, banks, vents = sim.lead, sim.windkessel_banks, sim.ventilators

    def per_member(values, tail=()):
        return np.array(values).reshape(lead + tail)

    payload = {
        **_scheme_payload(sim.solver.scheme),
        "wk_volumes": per_member(
            [[c.volume for c in b.compartments] for b in banks], (-1,)),
        "wk_flows": per_member(
            [[c.flow for c in b.compartments] for b in banks], (-1,)),
        "vent_dp": per_member([v.dp for v in vents]),
        "vent_dp_history": _ragged([v.dp_history for v in vents], lead),
        "vent_tidal_history": _ragged([v.tidal_history for v in vents], lead),
        "inlet_flow": np.array(sim._inlet_flow),
        "cycle_inhaled": np.array(sim._cycle_inhaled),
        "steps_this_cycle": np.array(sim._steps_this_cycle),
        "current_cycle": np.array(sim._current_cycle),
        "config_json": per_member([json.dumps(c.to_dict()) for c in sim.configs]),
    }
    np.savez_compressed(path, **payload)
    return _written_path(path)


def load_lung_state(path, sim, config_drift: str = "warn"):
    """Restore a lung simulation in place (same mesh/settings/members).

    ``config_drift`` controls the reaction when a member's embedded
    config differs from the simulation's: "warn" (default, emits
    :class:`CheckpointConfigDrift`), "raise", or "ignore".  Returns the
    embedded config (see :func:`_stored_config`)."""
    lead, n_members = sim.lead, sim.n_members
    with np.load(Path(path)) as data:
        _check_version(data)
        if data["wk_volumes"].shape != lead + (sim.lung.n_outlets,):
            raise ValueError(
                "checkpoint member/outlet count "
                f"{data['wk_volumes'].shape} does not match the model "
                f"{lead + (sim.lung.n_outlets,)}"
            )
        stored_config = _stored_config(data)
        # np.ravel: one dict (or None) -> one item, a list -> its items
        for old, current in zip(np.ravel(stored_config), sim.configs):
            _check_config_drift(old, current, config_drift)
        _restore_scheme(data, sim.solver.scheme)

        def per_member(key):
            return data[key].reshape(n_members, -1)

        for bank, volumes, flows in zip(
            sim.windkessel_banks, per_member("wk_volumes"), per_member("wk_flows")
        ):
            for c, v, q in zip(bank.compartments, volumes, flows):
                c.volume = float(v)
                c.flow = float(q)
        for vent, dp, dp_hist, tidal_hist in zip(
            sim.ventilators, data["vent_dp"].ravel(),
            per_member("vent_dp_history"), per_member("vent_tidal_history"),
        ):
            vent.dp = float(dp)
            vent.dp_history = dp_hist[~np.isnan(dp_hist)].tolist()
            vent.tidal_history = tidal_hist[~np.isnan(tidal_hist)].tolist()
        sim._inlet_flow = data["inlet_flow"][()]
        sim._cycle_inhaled = data["cycle_inhaled"].astype(float)
        sim._steps_this_cycle = data["steps_this_cycle"].astype(int)
        sim._current_cycle = data["current_cycle"].astype(int)
    return stored_config
