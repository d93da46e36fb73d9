"""Self-contained HTML run dashboard (``repro report --html``).

Renders a JSONL run log into a single HTML file with no external
assets: stat tiles for the headline numbers, inline-SVG sparklines for
the per-step series (step rate, realized CFL, pressure residual, solver
iterations, step size, recovery activity, and the ventilation series
when present), the robustness/fault history, and the metric catalog
with the values the run's summary carries.

Design notes: single-series sparklines carry no legend (the card title
names the series); values and labels wear text colors, never the series
color; dark mode is a real second palette selected via
``prefers-color-scheme``, not an inverted light one.
"""

from __future__ import annotations

import html
import math
from pathlib import Path

from .metrics import METRICS
from .report import robustness_rows
from .sinks import read_run_log

# series-1 blue and the neutral surfaces of the validated default
# palette (light / dark)
_CSS = """
:root {
  --surface: #fcfcfb;
  --card: #ffffff;
  --border: #e3e2de;
  --text: #0b0b0b;
  --text-2: #52514e;
  --muted: #73726e;
  --series: #2a78d6;
  --series-fill: rgba(42, 120, 214, 0.12);
  --bad: #c23b22;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19;
    --card: #232322;
    --border: #3a3937;
    --text: #ffffff;
    --text-2: #c3c2b7;
    --muted: #8e8d86;
    --series: #3987e5;
    --series-fill: rgba(57, 135, 229, 0.18);
    --bad: #e06a50;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px;
  background: var(--surface); color: var(--text);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 10px; color: var(--text); }
.meta { color: var(--text-2); margin-bottom: 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--card); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 130px;
}
.tile .v { font-size: 22px; font-weight: 600; }
.tile .k { color: var(--text-2); font-size: 12px; }
.cards { display: grid; gap: 12px;
  grid-template-columns: repeat(auto-fill, minmax(300px, 1fr)); }
.card {
  background: var(--card); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px;
}
.card .t { font-weight: 600; margin-bottom: 2px; }
.card .s { color: var(--text-2); font-size: 12px; margin-bottom: 6px; }
.card svg { width: 100%; height: 56px; display: block; }
.card .last { color: var(--text-2); font-size: 12px; margin-top: 4px; }
svg polyline { fill: none; stroke: var(--series); stroke-width: 2;
  stroke-linejoin: round; stroke-linecap: round; }
svg .fill { fill: var(--series-fill); stroke: none; }
table { border-collapse: collapse; width: 100%;
  background: var(--card); border: 1px solid var(--border);
  border-radius: 8px; font-size: 13px; }
th, td { text-align: left; padding: 6px 10px;
  border-bottom: 1px solid var(--border); vertical-align: top; }
th { color: var(--text-2); font-weight: 600; }
tr:last-child td { border-bottom: none; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
code { font-size: 12px; color: var(--text); }
.warn { color: var(--bad); }
.empty { color: var(--muted); }
"""


def _finite(values) -> list[float]:
    return [v for v in values if isinstance(v, (int, float)) and math.isfinite(v)]


def _fmt_num(v: float) -> str:
    if v is None or not math.isfinite(v):
        return "–"
    a = abs(v)
    if a != 0 and (a < 1e-3 or a >= 1e5):
        return f"{v:.3g}"
    if a >= 100 or v == int(v):
        return f"{v:.0f}" if v == int(v) else f"{v:.1f}"
    return f"{v:.4g}"


def _sparkline(values, *, width: int = 300, height: int = 56,
               log_scale: bool = False) -> str:
    """Inline-SVG sparkline: a 2px series line over a soft area fill.
    Returns an empty-state span when fewer than two finite points
    exist."""
    pts = [(i, v) for i, v in enumerate(values)
           if isinstance(v, (int, float)) and math.isfinite(v)
           and (not log_scale or v > 0)]
    if len(pts) < 2:
        return '<span class="empty">not enough data</span>'
    ys = [math.log10(v) if log_scale else v for _, v in pts]
    lo, hi = min(ys), max(ys)
    span = (hi - lo) or 1.0
    x0, x1 = pts[0][0], pts[-1][0]
    xspan = (x1 - x0) or 1
    pad = 4
    coords = []
    for (i, _), y in zip(pts, ys):
        px = pad + (i - x0) / xspan * (width - 2 * pad)
        py = pad + (hi - y) / span * (height - 2 * pad)
        coords.append(f"{px:.1f},{py:.1f}")
    line = " ".join(coords)
    base = height - pad
    area = (f"{coords[0].split(',')[0]},{base} " + line +
            f" {coords[-1].split(',')[0]},{base}")
    return (
        f'<svg viewBox="0 0 {width} {height}" preserveAspectRatio="none" '
        f'role="img">'
        f'<polygon class="fill" points="{area}"/>'
        f'<polyline points="{line}"/></svg>'
    )


def _series_card(title: str, subtitle: str, values, *,
                 unit: str = "", log_scale: bool = False) -> str:
    finite = _finite(values)
    last = (f"last {_fmt_num(finite[-1])}{unit} · "
            f"min {_fmt_num(min(finite))} · max {_fmt_num(max(finite))}"
            if finite else "no samples")
    return (
        '<div class="card">'
        f'<div class="t">{html.escape(title)}</div>'
        f'<div class="s">{html.escape(subtitle)}</div>'
        f"{_sparkline(values, log_scale=log_scale)}"
        f'<div class="last">{html.escape(last)}</div></div>'
    )


def _member_cards(title: str, subtitle: str, values, *, unit: str) -> list[str]:
    """One series card per member for a per-step value that is a scalar
    (a single run) or a per-member list (a member run); a member run's
    cards are titled by member."""
    rows = [v if isinstance(v, list) else [v] for v in values]
    n = max((len(r) for r in rows), default=0)
    series = [[r[e] if e < len(r) else None for r in rows] for e in range(n)]
    return [
        _series_card(title if n == 1 else f"{title} · member {e}", subtitle,
                     col, unit=unit)
        for e, col in enumerate(series)
        if any(isinstance(v, (int, float)) for v in col)
    ]


def _tile(label: str, value: str) -> str:
    return (
        f'<div class="tile"><div class="v">{html.escape(value)}</div>'
        f'<div class="k">{html.escape(label)}</div></div>'
    )


def _deltas(cumulative) -> list[float]:
    out, prev = [], 0.0
    for v in cumulative:
        v = float(v or 0.0)
        out.append(max(v - prev, 0.0))
        prev = v
    return out


def _catalog_table(metrics: list[dict] | None) -> str:
    """Metric catalog + values from a run summary's metric list; falls
    back to the registered catalog, without values, for a run that
    recorded no metrics."""
    if metrics is None:
        entries = METRICS.catalog()
        for e in entries:
            e["samples"] = []
    else:
        entries = metrics
    if not entries:
        return '<p class="empty">no metrics recorded</p>'
    rows = []
    for m in entries:
        labels = ", ".join(m.get("labels", [])) or "–"
        samples = m.get("samples", [])
        if not samples:
            value = "–"
        elif m["type"] == "histogram":
            count = sum(s.get("count", 0) for s in samples)
            total = sum(s.get("sum", 0.0) for s in samples)
            mean = total / count if count else float("nan")
            value = f"n={count}, mean={_fmt_num(mean)}"
        elif len(samples) == 1:
            value = _fmt_num(samples[0].get("value", float("nan")))
        elif m["type"] == "counter":
            total = sum(s.get("value", 0.0) for s in samples)
            value = f"{_fmt_num(total)} ({len(samples)} series)"
        else:
            value = f"{len(samples)} series"
        rows.append(
            "<tr>"
            f"<td><code>{html.escape(m['name'])}</code></td>"
            f"<td>{html.escape(m['type'])}</td>"
            f"<td>{html.escape(labels)}</td>"
            f"<td>{html.escape(str(m.get('source', '') or '–'))}</td>"
            f'<td class="num">{html.escape(value)}</td>'
            f"<td>{html.escape(m.get('help', ''))}</td>"
            "</tr>"
        )
    return (
        "<table><thead><tr><th>metric</th><th>type</th><th>labels</th>"
        "<th>source</th><th>value</th><th>help</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _timeline_section(analysis: dict | None) -> str:
    """"Distributed timeline" section from a ``repro/timeline/1``
    analysis in the run-log summary (empty string when the run carried
    no worker timeline)."""
    if not analysis:
        return ""
    totals = analysis.get("totals") or {}
    rounds = analysis.get("rounds") or []
    overlap = totals.get("overlap_efficiency")
    imbalance = totals.get("imbalance")
    tiles = [
        _tile("ranks", str(analysis.get("n_ranks", 0))),
        _tile("exchange rounds", str(analysis.get("n_rounds", 0))),
        _tile("overlap efficiency",
              f"{overlap:.1%}" if isinstance(overlap, (int, float))
              and math.isfinite(overlap) else "–"),
        _tile("imbalance (max/mean)",
              f"{imbalance:.2f}" if isinstance(imbalance, (int, float))
              and math.isfinite(imbalance) else "–"),
        _tile("stall speedup bound",
              f"×{totals.get('stall_speedup_bound', 1.0):.2f}"),
    ]
    cards = [
        _series_card("Wait fraction", "wait / (interior + wait) per round "
                     "(0 = exchange fully hidden)",
                     [r.get("wait_fraction") for r in rounds]),
        _series_card("Load imbalance", "max/mean interior seconds per round",
                     [r.get("imbalance") for r in rounds]),
        _series_card("Round wall time", "per-round wall seconds (log scale)",
                     [r.get("wall_s") for r in rounds], unit=" s",
                     log_scale=True),
    ]
    return (
        "<h2>Distributed timeline</h2>"
        f'<div class="tiles">{"".join(tiles)}</div>'
        '<h2 style="margin-top:12px">Per-round series</h2>'
        f'<div class="cards">{"".join(cards)}</div>'
    )


def render_html_dashboard(
    header: dict,
    steps: list[dict],
    summary: dict | None,
    title: str = "repro run dashboard",
) -> str:
    """Render one self-contained HTML page from parsed run-log parts."""
    meta = {k: v for k, v in (header or {}).items()
            if k not in ("type", "schema")}
    meta_str = ", ".join(f"{k}={v}" for k, v in meta.items())

    walls = [s.get("wall_time_s") for s in steps]
    finite_walls = _finite(walls)
    total_wall = sum(finite_walls)
    rates = [1.0 / w if isinstance(w, (int, float)) and w and w > 0
             else float("nan") for w in walls]
    cfls = [s.get("cfl") for s in steps]
    finite_cfls = _finite(cfls)
    residuals = [s.get("pressure_residual") for s in steps]
    dts = [s.get("dt") for s in steps]
    p_iters = [(s.get("iterations") or {}).get("pressure") for s in steps]
    recovery = [s.get("recovery_events") for s in steps]
    has_recovery = any(isinstance(v, (int, float)) for v in recovery)
    inflow = [s.get("inflow_m3_s") for s in steps]
    tidal = [s.get("tidal_volume_ml") for s in steps]

    t_last = steps[-1].get("t") if steps else None
    tiles = [
        _tile("steps", str(len(steps))),
        _tile("sim time [s]", _fmt_num(t_last) if t_last is not None else "–"),
        _tile("wall time [s]", _fmt_num(total_wall)),
        _tile("steps / s",
              _fmt_num(len(finite_walls) / total_wall) if total_wall else "–"),
        _tile("mean CFL",
              _fmt_num(sum(finite_cfls) / len(finite_cfls))
              if finite_cfls else "–"),
    ]
    n_recovery = 0
    if has_recovery:
        n_recovery = int(max(_finite(recovery) or [0]))
        tiles.append(_tile("recovery events", str(n_recovery)))

    cards = [
        _series_card("Step rate", "completed steps per wall-clock second",
                     rates, unit=" /s"),
        _series_card("Realized CFL", "dt · k^1.5 · max|J⁻¹u| per step", cfls),
        _series_card("Pressure residual",
                     "final relative residual of the Poisson solve "
                     "(log scale)", residuals, log_scale=True),
        _series_card("Pressure iterations", "CG iterations per step", p_iters),
        _series_card("Step size", "dt per step [s]", dts, unit=" s"),
    ]
    if has_recovery:
        cards.append(_series_card(
            "Recovery activity", "new recovery events per step",
            _deltas([v or 0 for v in recovery])))
    cards += _member_cards("Inlet flow", "tracheal inflow [m³/s]", inflow,
                           unit=" m³/s")
    cards += _member_cards("Tidal volume",
                           "volume stored in the compartments [ml]", tidal,
                           unit=" ml")

    timeline_section = _timeline_section((summary or {}).get("timeline"))

    rob_rows = robustness_rows((summary or {}).get("metrics"))
    if rob_rows:
        robustness = (
            "<table><thead><tr><th>activity</th>"
            '<th class="num">count</th></tr></thead><tbody>'
            + "".join(
                f"<tr><td>{html.escape(k)}</td>"
                f'<td class="num">{n}</td></tr>'
                for k, n in rob_rows
            )
            + "</tbody></table>"
        )
    elif n_recovery:
        robustness = (f'<p class="warn">{n_recovery} recovery events '
                      "(no metrics in this log — rerun with --trace or "
                      "--metrics-file)</p>")
    else:
        robustness = '<p class="empty">no recovery activity recorded</p>'

    truncated = ("" if summary is not None else
                 '<p class="warn">no summary footer — the run is still in '
                 "flight or was truncated</p>")

    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{html.escape(title)}</title>
<style>{_CSS}</style>
</head>
<body>
<h1>{html.escape(title)}</h1>
<div class="meta">{html.escape(meta_str) or "no run metadata"}</div>
{truncated}
<div class="tiles">{''.join(tiles)}</div>
<h2>Per-step series</h2>
<div class="cards">{''.join(cards)}</div>
{timeline_section}
<h2>Robustness</h2>
{robustness}
<h2>Metric catalog</h2>
{_catalog_table((summary or {}).get("metrics"))}
</body>
</html>
"""


def write_html_dashboard(run_log, output, title: str | None = None) -> Path:
    """Render ``run_log`` to a self-contained HTML file at ``output``."""
    header, steps, summary = read_run_log(run_log, on_corrupt="warn")
    html_text = render_html_dashboard(
        header, steps, summary,
        title=title or f"repro run — {Path(run_log).name}",
    )
    output = Path(output)
    output.write_text(html_text)
    return output
