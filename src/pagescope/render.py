"""Text tables, CSV, and SVG bar charts for comparison reports.

Tables show three significant figures (timer rows at millisecond
precision); CSV carries full-precision values. The chart and its companion
CSV print each ratio through the same formatter, so bar data and CSV agree
byte for byte.
"""

from __future__ import annotations

from . import metrics as m

COL_WITHOUT = "Without HPs"
COL_WITH = "With HPs"

CHART_TITLE = "With/without huge pages: measure ratios"

_BAR_COLORS = ("#4472c4", "#d9534f", "#70ad47", "#ffc000", "#7030a0", "#2aa3a3")


def _fmt_ratio(value: float) -> str:
    return f"{value:.6g}"


def _fmt_full(value) -> str:
    return "n/a" if value is None else repr(float(value))


# What XML text and attribute values cannot hold literally. html.escape
# maps the same characters, but importing `html` loads its entity table,
# half a megabyte, into the process whose memory `run` measures.
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                              '"': "&quot;", "'": "&#x27;"})


def _xml(text: str) -> str:
    return text.translate(_XML_ESCAPES)


def _csv_field(text: str) -> str:
    """`text` as one CSV field: quoted, inner quotes doubled, only when it
    holds a comma, a quote or a line break, so plain text keeps its bytes."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def metrics_table(without: dict[str, float | None], with_: dict[str, float | None],
                  region: str) -> str:
    """One region's Without/With table from row-label -> value mappings."""
    lines = [f"Region: {region or '(unnamed region)'}"]
    header = f"{'Measure':<24}{COL_WITHOUT:>14}{COL_WITH:>14}"
    lines.append(header)
    lines.append("-" * len(header))
    for label in m.MEASURE_LABELS:
        if label not in without and label not in with_:
            continue
        left = m.format_cell(label, without.get(label))
        right = m.format_cell(label, with_.get(label))
        lines.append(f"{label:<24}{left:>14}{right:>14}")
    return "\n".join(lines) + "\n"


def ratio_rows_csv(rows_by_region: dict[str, list[m.RatioRow]]) -> str:
    lines = ["region,measure,without_hp,with_hp,ratio"]
    for region, rows in rows_by_region.items():
        for row in rows:
            lines.append(",".join([
                region,
                f"\"{row.measure}\"",
                _fmt_full(row.without_hp),
                _fmt_full(row.with_hp),
                "n/a" if row.ratio is None else _fmt_full(row.ratio),
            ]))
    return "\n".join(lines) + "\n"


def ratio_chart_csv(measure_labels: list[str], cases: list[str],
                    ratios: dict[tuple[str, str], float | None]) -> str:
    lines = ["measure,case,ratio"]
    for label in measure_labels:
        for case in cases:
            value = ratios.get((label, case))
            cell = "n/a" if value is None else _fmt_ratio(value)
            lines.append(f'"{label}",{_csv_field(case)},{cell}')
    return "\n".join(lines) + "\n"


def ratio_chart_svg(measure_labels: list[str], cases: list[str],
                    ratios: dict[tuple[str, str], float | None]) -> str:
    """Grouped bar chart: one group per measure, one bar per case, with a
    horizontal guide line at ratio 1. Bar heights come from the same
    formatted strings the companion CSV prints. Labels are report input,
    so they are escaped as XML text."""
    margin_left, margin_right = 70, 20
    margin_top, margin_bottom = 50, 110
    chart_w, chart_h = max(440, 110 * max(1, len(measure_labels))), 280
    width = margin_left + chart_w + margin_right
    height = margin_top + chart_h + margin_bottom

    values = [float(_fmt_ratio(v)) for v in ratios.values() if v is not None]
    top = max(values + [1.0]) * 1.15

    def y_of(v: float) -> float:
        return margin_top + chart_h - (v / top) * chart_h

    svg = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
           f'  <rect width="{width}" height="{height}" fill="#ffffff"/>',
           f'  <text x="{width / 2}" y="22" text-anchor="middle" '
           f'font-size="15" fill="#333">{CHART_TITLE}</text>']

    for tick in range(5):
        v = top * tick / 4
        y = y_of(v)
        svg.append(f'  <line x1="{margin_left}" y1="{y:.2f}" '
                   f'x2="{margin_left + chart_w}" y2="{y:.2f}" '
                   f'stroke="#e0e0e0"/>')
        svg.append(f'  <text x="{margin_left - 6}" y="{y + 4:.2f}" '
                   f'text-anchor="end" font-size="10" fill="#666">{v:.2f}</text>')

    # Guide line at ratio 1: bars below it are improvements.
    y1 = y_of(1.0)
    svg.append(f'  <line x1="{margin_left}" y1="{y1:.2f}" '
               f'x2="{margin_left + chart_w}" y2="{y1:.2f}" '
               f'stroke="#888888" stroke-dasharray="5,3"/>')

    n_groups = max(1, len(measure_labels))
    group_w = chart_w / n_groups
    n_cases = max(1, len(cases))
    bar_w = group_w * 0.8 / n_cases

    for gi, label in enumerate(measure_labels):
        gx = margin_left + gi * group_w
        for ci, case in enumerate(cases):
            value = ratios.get((label, case))
            if value is None:
                continue
            text = _fmt_ratio(value)
            v = float(text)
            x = gx + group_w * 0.1 + ci * bar_w
            y = y_of(v)
            color = _BAR_COLORS[ci % len(_BAR_COLORS)]
            svg.append(f'  <rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                       f'height="{margin_top + chart_h - y:.2f}" fill="{color}" '
                       f'data-measure="{_xml(label)}" data-case="{_xml(case)}" '
                       f'data-ratio="{text}"/>')
            svg.append(f'  <text x="{x + bar_w / 2:.2f}" y="{y - 3:.2f}" '
                       f'text-anchor="middle" font-size="9" '
                       f'fill="#444">{text}</text>')
        lx = gx + group_w / 2
        ly = margin_top + chart_h + 14
        svg.append(f'  <text x="{lx:.2f}" y="{ly}" text-anchor="end" '
                   f'font-size="10" fill="#333" '
                   f'transform="rotate(-30, {lx:.2f}, {ly})">{_xml(label)}</text>')

    legend_y = height - 28
    lx = margin_left
    for ci, case in enumerate(cases):
        color = _BAR_COLORS[ci % len(_BAR_COLORS)]
        svg.append(f'  <rect x="{lx}" y="{legend_y}" width="11" height="11" '
                   f'fill="{color}"/>')
        svg.append(f'  <text x="{lx + 15}" y="{legend_y + 10}" font-size="11" '
                   f'fill="#333">{_xml(case)}</text>')
        lx += 15 + 8 * len(case) + 30

    svg.append(f'  <line x1="{margin_left}" y1="{margin_top}" '
               f'x2="{margin_left}" y2="{margin_top + chart_h}" stroke="#333"/>')
    svg.append(f'  <line x1="{margin_left}" y1="{margin_top + chart_h}" '
               f'x2="{margin_left + chart_w}" y2="{margin_top + chart_h}" '
               f'stroke="#333"/>')
    svg.append('</svg>')
    return "\n".join(svg) + "\n"
