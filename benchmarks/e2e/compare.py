"""``run.py --compare A.json B.json``: is B worse than A, and where.

Per workload, every end-to-end metric with both medians and the relative
change against its bound, then the per-layer deltas sorted by absolute
change in seconds, so a regression names its layer.  Verdicts follow the
choosing-metrics guide: a change inside the bound is ``ok``; one beyond
it is ``regressed``; when either document's own quartile spread is wider
than the bound the metric is ``unresolved`` — unless every value of B is
better than every value of A (``ok``) or worse than every value of A
(``regressed``), which no spread can explain away.
"""

from __future__ import annotations

import json
import sys

from spec import END_TO_END, UNITS

#: fingerprint fields that differ between any two runs of one machine
_VOLATILE = ("git_sha", "timestamp")


def comparable_environment(doc: dict) -> dict:
    env = doc["environment"]
    fingerprint = {k: v for k, v in env["fingerprint"].items() if k not in _VOLATILE}
    return {"fingerprint": fingerprint, "pinned_threads": env["pinned_threads"],
            "nproc": env["nproc"]}


def _values(workload: dict, metric: str) -> list[float]:
    """The individual values behind a pooled end-to-end metric."""
    if metric == "op_s":
        return [s for r in workload["rounds"] for s in r["op_s_samples"]]
    return [r[metric] for r in workload["rounds"]]


def verdict(a: dict, b: dict, metric: str, bound: float) -> tuple[str, float]:
    """``(status, relative change)`` of one end-to-end metric of one
    workload; positive change is worse."""
    base = a["end_to_end"][metric]
    change = (b["end_to_end"][metric] - base) / base
    spread = max(a["spread"][metric], b["spread"][metric]) / base
    if spread > bound:
        va, vb = _values(a, metric), _values(b, metric)
        if max(vb) < min(va):
            return "ok", change
        if min(vb) > max(va) and change > bound:
            return "regressed", change
        return "unresolved", change
    return ("regressed" if change > bound else "ok"), change


def compare(a: dict, b: dict, out=sys.stdout) -> int:
    """Print the comparison; 1 if anything regressed, else 0."""
    worst = 0
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"\n== {name} == missing from B", file=out)
            worst = 1
            continue
        print(f"\n== {name} ==", file=out)
        print(f"{'end-to-end metric':<20s} {'A':>12s} {'B':>12s} {'change':>9s} {'bound':>7s}  verdict", file=out)
        for metric, _, _, bound in END_TO_END:  # all lower-is-better
            status, change = verdict(wa, wb, metric, bound)
            worst |= status == "regressed"
            print(f"{metric:<20s} {wa['end_to_end'][metric]:>12.5g} {wb['end_to_end'][metric]:>12.5g} "
                  f"{change:>+9.1%} {bound:>7.0%}  {status}", file=out)
        fa, fb = wa["failed_ops_share"], wb["failed_ops_share"]
        status = "regressed" if fb > fa else "ok"
        worst |= status == "regressed"
        print(f"{'failed_ops_share':<20s} {fa:>12.5g} {fb:>12.5g} {fb - fa:>+9.3g} {'0 abs':>7s}  {status}", file=out)

        la, lb = wa["per_layer"], wb["per_layer"]
        seconds = sorted(
            ((lb[k] - la[k], k) for k in la if UNITS.get(k) == "s" and k in lb),
            key=lambda row: -abs(row[0]))
        print("per-layer seconds, largest absolute change first:", file=out)
        for delta, key in seconds:
            if la[key] or lb[key]:
                print(f"  {key:<50s} {la[key]:>12.5g} {lb[key]:>12.5g} {delta:>+12.3g}", file=out)
        changed = [k for k in la if UNITS.get(k) != "s" and k in lb and la[k] != lb[k]]
        if changed:
            print("other per-layer metrics that differ:", file=out)
            for key in changed:
                print(f"  {key:<50s} {la[key]:>12.6g} {lb[key]:>12.6g}", file=out)
    return int(worst)


def compare_files(path_a: str, path_b: str, force: bool = False) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    ea, eb = comparable_environment(a), comparable_environment(b)
    if ea != eb:
        print("the two documents come from different machine fingerprints:", file=sys.stderr)
        for key in ea:
            if ea[key] != eb[key]:
                print(f"  {key}: {ea[key]} != {eb[key]}", file=sys.stderr)
        if not force:
            print("refusing to compare (use --force)", file=sys.stderr)
            return 2
    return compare(a, b)
