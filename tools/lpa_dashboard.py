#!/usr/bin/env python3
"""Render the run ledger (lpa-run-ledger/1 JSONL) as a static HTML dashboard.

Stdlib-only, no server: the output is a single self-contained HTML file with
inline SVG charts, suitable for a CI artifact or `python3 -m http.server`.

Sections:
  1. Run index — every ledger entry (newest first) with timestamp, git
     revision, seed, determinism digest, and adaptive stop reason.
  2. Fig. 7 leakage chart — total leakage per S-box style and age with 95%
     CI error bars, taken from the newest bench_fig7_total_leakage entry's
     `statistics.matrix` (the paper's total-leakage figure, with intervals).
  3. Adaptive acquisition — trace savings of convergence-gated acquisition
     per run (bench_adaptive_acquire entries).
  4. Perf trends — every `traces_per_sec*` param across ledger history, one
     line per (report, param), so throughput regressions are visible at a
     glance before the hard gate (tools/bench_compare.py) trips.

With `--live <url>` the dashboard additionally polls a running bench's
telemetry server (started with `--listen`; DESIGN.md §15) and prepends a
live section — heartbeat status, progress, key counters, and the newest
journal events — with an HTML meta-refresh so a browser left open tracks
the run. Ledger files are optional in live mode.

Usage:
  tools/lpa_dashboard.py ledger.jsonl [more.jsonl ...] --out dashboard.html
  tools/lpa_dashboard.py --live http://127.0.0.1:9187 --refresh 5
"""

import argparse
import datetime
import html
import json
import sys

import lpa_watch  # shared /metrics parser + endpoint fetch (stdlib-only)

LEDGER_SCHEMA = "lpa-run-ledger/1"
REPORT_SCHEMA = "lpa-run-report/4"

# Paper ordering of the styles (Fig. 7, most to least leaky) — used for a
# stable x-axis; styles absent from the matrix are simply skipped.
STYLE_ORDER = ["Unprotected", "Boolean-opt", "LUT", "OPT", "TI", "RSM-ROM",
               "RSM", "GLUT", "ISW"]
AGE_COLORS = ["#1f77b4", "#6baed6", "#fd8d3c", "#e6550d", "#a63603"]
LINE_COLORS = ["#1f77b4", "#e6550d", "#2ca02c", "#9467bd", "#8c564b",
               "#d62728", "#7f7f7f"]


def load_ledger(paths):
    """Returns the embedded run reports of all ledger lines, in file order."""
    reports = []
    for path in paths:
        try:
            with open(path) as f:
                lines = f.read().splitlines()
        except OSError as e:
            print(f"warning: {path}: {e}", file=sys.stderr)
            continue
        for ln, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as e:
                print(f"warning: {path}:{ln}: bad JSON ({e})", file=sys.stderr)
                continue
            if entry.get("schema") != LEDGER_SCHEMA:
                print(f"warning: {path}:{ln}: not {LEDGER_SCHEMA}; skipped",
                      file=sys.stderr)
                continue
            report = entry.get("report", {})
            if report.get("schema") != REPORT_SCHEMA:
                print(f"warning: {path}:{ln}: unknown report schema "
                      f"{report.get('schema')!r} (only {REPORT_SCHEMA} is "
                      "read); skipped", file=sys.stderr)
                continue
            reports.append(report)
    return reports


def fmt_time(ts):
    if not ts:
        return "-"
    return datetime.datetime.fromtimestamp(
        float(ts), tz=datetime.timezone.utc).strftime("%Y-%m-%d %H:%M:%SZ")


def esc(x):
    return html.escape(str(x))


# ----------------------------------------------------------------- SVG bits

def svg_open(width, height):
    return (f'<svg viewBox="0 0 {width} {height}" width="{width}" '
            f'height="{height}" xmlns="http://www.w3.org/2000/svg" '
            'font-family="sans-serif" font-size="11">')


def y_ticks(vmax):
    """~5 round tick values covering [0, vmax]."""
    if vmax <= 0:
        return [0.0]
    raw = vmax / 4.0
    mag = 10 ** len(str(int(raw))) / 10 if raw >= 1 else 1
    step = max(mag, round(raw / mag) * mag)
    ticks, v = [], 0.0
    while v <= vmax * 1.0001:
        ticks.append(v)
        v += step
    return ticks


def fig7_chart(matrix):
    """Grouped bar chart: styles x ages, CI half-widths as error bars."""
    ages = sorted({c["months"] for c in matrix})
    styles = [s for s in STYLE_ORDER
              if any(c["style"] == s for c in matrix)]
    styles += sorted({c["style"] for c in matrix} - set(styles))
    cell = {(c["style"], c["months"]): c for c in matrix}

    vmax = max((c["total"] + c.get("ci_halfwidth", 0.0)) for c in matrix)
    width, height = max(640, 90 * len(styles) + 120), 340
    left, right, top, bottom = 70, 20, 28, 58
    plot_w, plot_h = width - left - right, height - top - bottom

    def ypix(v):
        return top + plot_h - (v / vmax) * plot_h if vmax else top + plot_h

    group_w = plot_w / max(1, len(styles))
    bar_w = max(4.0, min(16.0, group_w / (len(ages) + 1.5)))

    out = [svg_open(width, height)]
    for t in y_ticks(vmax):
        y = ypix(t)
        out.append(f'<line x1="{left}" y1="{y:.1f}" x2="{width - right}" '
                   f'y2="{y:.1f}" stroke="#ddd"/>')
        out.append(f'<text x="{left - 6}" y="{y + 4:.1f}" '
                   f'text-anchor="end">{t:g}</text>')
    for si, style in enumerate(styles):
        gx = left + si * group_w
        for ai, months in enumerate(ages):
            c = cell.get((style, months))
            if c is None:
                continue
            x = gx + group_w / 2 + (ai - (len(ages) - 1) / 2) * bar_w
            y = ypix(max(0.0, c["total"]))
            color = AGE_COLORS[ai % len(AGE_COLORS)]
            out.append(
                f'<rect x="{x - bar_w / 2 + 0.5:.1f}" y="{y:.1f}" '
                f'width="{bar_w - 1:.1f}" height="{top + plot_h - y:.1f}" '
                f'fill="{color}"><title>{esc(style)} @ {months:g} months: '
                f'{c["total"]:.2f} (n={c.get("traces", "?")})</title></rect>')
            hw = c.get("ci_halfwidth")
            if hw is not None:
                ylo, yhi = ypix(max(0.0, c["total"] - hw)), ypix(c["total"] + hw)
                out.append(f'<line x1="{x:.1f}" y1="{yhi:.1f}" x2="{x:.1f}" '
                           f'y2="{ylo:.1f}" stroke="#222"/>')
                for ye in (yhi, ylo):
                    out.append(f'<line x1="{x - 3:.1f}" y1="{ye:.1f}" '
                               f'x2="{x + 3:.1f}" y2="{ye:.1f}" '
                               'stroke="#222"/>')
        out.append(f'<text x="{gx + group_w / 2:.1f}" y="{height - bottom + 16}" '
                   f'text-anchor="middle">{esc(style)}</text>')
    # Legend: one swatch per age.
    lx = left
    for ai, months in enumerate(ages):
        color = AGE_COLORS[ai % len(AGE_COLORS)]
        out.append(f'<rect x="{lx}" y="{height - 24}" width="10" height="10" '
                   f'fill="{color}"/>')
        label = "fresh" if months == 0 else f"{months / 12:g}y"
        out.append(f'<text x="{lx + 14}" y="{height - 15}">{label}</text>')
        lx += 14 + 10 * len(label) + 16
    out.append(f'<text x="{left}" y="{top - 10}" fill="#444">total leakage '
               '(debiased WHT energy, error bars = 95% jackknife CI)</text>')
    out.append("</svg>")
    return "".join(out)


def line_chart(series, title, unit):
    """One polyline per named series over run index."""
    width, height = 640, 240
    left, right, top, bottom = 70, 160, 28, 34
    plot_w, plot_h = width - left - right, height - top - bottom
    npoints = max(len(pts) for _, pts in series)
    vmax = max(v for _, pts in series for _, v in pts)

    def xpix(i):
        return left + (i / max(1, npoints - 1)) * plot_w

    def ypix(v):
        return top + plot_h - (v / vmax) * plot_h if vmax else top + plot_h

    out = [svg_open(width, height)]
    for t in y_ticks(vmax):
        y = ypix(t)
        out.append(f'<line x1="{left}" y1="{y:.1f}" x2="{width - right}" '
                   f'y2="{y:.1f}" stroke="#ddd"/>')
        out.append(f'<text x="{left - 6}" y="{y + 4:.1f}" '
                   f'text-anchor="end">{t:g}</text>')
    for i, (name, pts) in enumerate(series):
        color = LINE_COLORS[i % len(LINE_COLORS)]
        path = " ".join(f"{xpix(x):.1f},{ypix(v):.1f}" for x, v in pts)
        out.append(f'<polyline points="{path}" fill="none" '
                   f'stroke="{color}" stroke-width="2"/>')
        for x, v in pts:
            out.append(f'<circle cx="{xpix(x):.1f}" cy="{ypix(v):.1f}" r="3" '
                       f'fill="{color}"><title>{esc(name)} run {x}: '
                       f'{v:.4g} {unit}</title></circle>')
        ly = top + 14 * i
        out.append(f'<rect x="{width - right + 8}" y="{ly}" width="10" '
                   f'height="10" fill="{color}"/>')
        out.append(f'<text x="{width - right + 22}" y="{ly + 9}">'
                   f'{esc(name)}</text>')
    out.append(f'<text x="{left}" y="{top - 10}" fill="#444">{esc(title)}'
               "</text>")
    out.append(f'<text x="{left}" y="{height - 8}" fill="#888">run index '
               "(ledger order, oldest to newest)</text>")
    out.append("</svg>")
    return "".join(out)


# ----------------------------------------------------------------- sections

def run_index_rows(reports):
    rows = []
    for i, r in enumerate(reversed(reports)):
        st = r.get("statistics", {}) or {}
        stop = st.get("stop_reason", "-")
        traces = st.get("traces_total", "-")
        rows.append(
            "<tr>"
            f"<td>{len(reports) - i}</td>"
            f"<td>{esc(fmt_time(r.get('timestamp_unix')))}</td>"
            f"<td>{esc(r.get('name', '?'))}</td>"
            f"<td><code>{esc(r.get('git', '-'))}</code></td>"
            f"<td><code>{esc(r.get('seed', '-'))}</code></td>"
            f"<td>{esc(traces)}</td>"
            f"<td>{esc(stop)}</td>"
            f"<td><code>{esc(r.get('determinism_digest', '-'))}</code></td>"
            "</tr>")
    return "\n".join(rows)


def latest_fig7(reports):
    for r in reversed(reports):
        if r.get("name") == "bench_fig7_total_leakage":
            matrix = (r.get("statistics", {}) or {}).get("matrix")
            if matrix:
                return r, matrix
    return None, None


def adaptive_section(reports):
    runs = [r for r in reports if r.get("name") == "bench_adaptive_acquire"]
    if not runs:
        return "<p>No <code>bench_adaptive_acquire</code> entries yet.</p>"
    pts = [(i, float(r.get("params", {}).get("adaptive_savings_pct", 0.0)))
           for i, r in enumerate(runs)]
    latest = runs[-1].get("params", {})
    style = latest.get("adaptive_best_style", "?")
    ident = latest.get("adaptive_bit_identical")
    parts = [line_chart([("savings_pct", pts)],
                        "adaptive trace savings vs fixed-count protocol (%)",
                        "%")]
    parts.append(
        f"<p>Latest run: best style <b>{esc(style)}</b>, savings "
        f"<b>{pts[-1][1]:.1f}%</b>, thread-count bit-reproducible: "
        f"<b>{esc(ident)}</b>.</p>")
    return "\n".join(parts)


def perf_section(reports):
    series = {}
    for r in reports:
        name = r.get("name", "?")
        for key, val in (r.get("params", {}) or {}).items():
            if key.startswith("traces_per_sec") and isinstance(
                    val, (int, float)):
                series.setdefault(f"{name}.{key}", [])
    for i, r in enumerate(reports):
        name = r.get("name", "?")
        for key, val in (r.get("params", {}) or {}).items():
            label = f"{name}.{key}"
            if label in series:
                series[label].append((i, float(val)))
    series = [(k, v) for k, v in sorted(series.items()) if v]
    if not series:
        return "<p>No throughput params in the ledger yet.</p>"
    return line_chart(series, "acquisition throughput across runs",
                      "traces/s")


# ----------------------------------------------------------------- live mode

def live_status_block(hb):
    """HTML for one heartbeat dict (lpa-heartbeat/2)."""
    schema = hb.get("schema")
    warn = ("" if schema == lpa_watch.HEARTBEAT_SCHEMA else
            f'<p class="meta">unrecognized heartbeat schema {esc(schema)}</p>')
    done = hb.get("done", 0) or 0
    total = hb.get("total", 0) or 0
    pct = 100.0 * done / total if total else 0.0
    status = hb.get("status", "?")
    extra = []
    if hb.get("stop_reason") and status != "running":
        extra.append(f"stopped: <b>{esc(hb['stop_reason'])}</b>")
    if hb.get("lineage_id"):
        extra.append(f"lineage <code>{esc(hb['lineage_id'])}</code>")
    eta = hb.get("eta_sec", -1)
    eta_txt = f"{eta:.0f}s" if isinstance(eta, (int, float)) and eta >= 0 \
        else "unknown"
    return warn + (
        f"<p><b>{esc(hb.get('name', '?'))}</b> (pid {esc(hb.get('pid', '?'))})"
        f" — status <b>{esc(status)}</b>, phase {esc(hb.get('phase', '?'))}"
        f"{' · ' + ' · '.join(extra) if extra else ''}</p>"
        f'<div class="bar"><div class="fill" style="width:{pct:.1f}%"></div>'
        f"</div>"
        f'<p class="meta">{done}/{total} ({pct:.1f}%) · '
        f"{hb.get('rate_per_sec', 0.0):.1f}/s · eta {eta_txt} · "
        f"elapsed {hb.get('elapsed_sec', 0.0):.1f}s</p>")


def live_section(base):
    """Fetches /status + /metrics + /events from a telemetry server and
    renders the live block; degrades per-endpoint on errors."""
    parts = []
    code, health = lpa_watch.fetch(base + "/healthz")
    if code == 0:
        return (f"<p>No telemetry server at <code>{esc(base)}</code> "
                "(connection refused) — the run may have finished.</p>")
    code, status = lpa_watch.fetch(base + "/status")
    if code == 200:
        try:
            parts.append(live_status_block(json.loads(status)))
        except json.JSONDecodeError:
            parts.append("<p>/status returned malformed JSON.</p>")
    else:
        parts.append("<p>No heartbeat yet.</p>")

    code, metrics = lpa_watch.fetch(base + "/metrics")
    if code == 200:
        problems = lpa_watch.validate_exposition(metrics)
        if problems:
            parts.append(f"<p>/metrics INVALID: {esc(problems[0])}</p>")
        else:
            samples, _ = lpa_watch.parse_prometheus(metrics)
            rows = [
                f"<tr><td><code>{esc(k)}</code></td><td>{v:g}</td></tr>"
                for k, v in sorted(samples.items())
                if "{" not in k and not k.endswith(
                    ("_sum", "_count", "_p50", "_p95", "_p99"))
            ]
            parts.append("<table><tr><th>metric</th><th>value</th></tr>"
                         + "\n".join(rows[:16]) + "</table>")

    code, events = lpa_watch.fetch(base + "/events?n=12")
    if code == 200 and events.strip():
        rows = []
        for raw in events.splitlines():
            try:
                ev = json.loads(raw)
            except json.JSONDecodeError:
                continue
            if ev.get("schema") != lpa_watch.JOURNAL_SCHEMA:
                continue
            fields = " ".join(f"{k}={v}"
                              for k, v in ev.get("fields", {}).items())
            rows.append(f"<tr><td>{ev.get('t_mono_sec', 0.0):.3f}s</td>"
                        f"<td>{esc(ev.get('level', '?'))}</td>"
                        f"<td>{esc(ev.get('kind', '?'))}</td>"
                        f"<td><code>{esc(fields)}</code></td></tr>")
        if rows:
            parts.append("<h3>Recent events</h3><table>"
                         "<tr><th>t</th><th>level</th><th>kind</th>"
                         "<th>fields</th></tr>" + "\n".join(rows)
                         + "</table>")
    return "\n".join(parts)


PAGE = """<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">{refresh}
<title>LPA run ledger</title>
<style>
 body {{ font-family: sans-serif; margin: 2em auto; max-width: 980px;
         color: #222; }}
 h1 {{ border-bottom: 2px solid #e6550d; padding-bottom: 0.2em; }}
 table {{ border-collapse: collapse; font-size: 13px; width: 100%; }}
 th, td {{ border: 1px solid #ccc; padding: 3px 8px; text-align: left; }}
 th {{ background: #f4f4f4; }}
 code {{ font-size: 12px; }}
 .meta {{ color: #777; font-size: 13px; }}
 .bar {{ background: #eee; border: 1px solid #ccc; height: 14px;
         max-width: 480px; }}
 .fill {{ background: #e6550d; height: 100%; }}
</style></head><body>
<h1>Leakage-power-analysis run ledger</h1>
<p class="meta">{nruns} run(s) · generated {now} ·
schema {ledger_schema} · Bahrami et al., DATE 2022 reproduction</p>
{live}
<h2>Fig. 7 — total leakage with confidence intervals</h2>
{fig7}
<h2>Convergence-gated acquisition</h2>
{adaptive}
<h2>Throughput trends</h2>
{perf}
<h2>Run index</h2>
<table>
<tr><th>#</th><th>time (UTC)</th><th>bench</th><th>git</th><th>seed</th>
<th>traces</th><th>stop</th><th>digest</th></tr>
{rows}
</table>
</body></html>
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ledgers", nargs="*", help="ledger JSONL file(s)")
    ap.add_argument("--out", default="dashboard.html",
                    help="output HTML path (default: dashboard.html)")
    ap.add_argument("--live", metavar="URL",
                    help="telemetry server base URL of a running bench "
                         "(e.g. http://127.0.0.1:9187); adds a live section")
    ap.add_argument("--refresh", type=float, default=5.0,
                    help="meta-refresh seconds in live mode (default: 5)")
    args = ap.parse_args()
    if not args.ledgers and not args.live:
        ap.error("need ledger file(s), --live URL, or both")

    reports = load_ledger(args.ledgers) if args.ledgers else []
    if args.ledgers and not reports:
        sys.exit("no valid ledger entries found")

    live = ""
    refresh = ""
    if args.live:
        base = args.live.rstrip("/")
        live = (f'<h2>Live run — <code>{esc(base)}</code></h2>\n'
                + live_section(base))
        if args.refresh > 0:
            refresh = (f'\n<meta http-equiv="refresh" '
                       f'content="{args.refresh:g}">')

    fig7_report, matrix = latest_fig7(reports)
    if matrix:
        meta = (f'<p class="meta">from run of {esc(fmt_time(fig7_report.get("timestamp_unix")))}, '
                f'{esc((fig7_report.get("statistics", {}) or {}).get("traces_per_class", "?"))}'
                " traces/class</p>")
        fig7 = meta + fig7_chart(matrix)
    else:
        fig7 = ("<p>No <code>bench_fig7_total_leakage</code> entry with a "
                "statistics matrix yet.</p>")

    page = PAGE.format(
        nruns=len(reports),
        now=fmt_time(datetime.datetime.now(datetime.timezone.utc).timestamp()),
        ledger_schema=LEDGER_SCHEMA,
        refresh=refresh,
        live=live,
        fig7=fig7,
        adaptive=adaptive_section(reports),
        perf=perf_section(reports),
        rows=run_index_rows(reports),
    )
    with open(args.out, "w") as f:
        f.write(page)
    print(f"dashboard: {args.out} ({len(reports)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
