"""Paper-style tables and series for benchmark output.

Each benchmark regenerates one table or figure from the paper's §5.
Tables render like Figure 7 (system, runtime, normalized factor);
figures render as aligned x/y series, one row per x, one column per
line — enough to read off who wins and where curves cross.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Monospace table with right-aligned numeric columns."""
    rendered = [[_cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append(
            "  ".join(
                row[i].rjust(widths[i]) if _numericish(row[i]) else row[i].ljust(widths[i])
                for i in range(len(row))
            )
        )
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value >= 100:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def _numericish(text: str) -> bool:
    return bool(text) and (text[0].isdigit() or text[0] in "+-." or text.endswith("x"))


def normalized(value: float, baseline: float) -> str:
    """The paper's '(1.33x)' notation."""
    if baseline == 0:
        return "(--)"
    return f"({value / baseline:.2f}x)"


def format_series(
    x_label: str,
    xs: Sequence[object],
    series: Mapping[str, Sequence[float]],
    title: str = "",
    y_format: str = "{:.2f}",
) -> str:
    """A figure as aligned columns: x, then one column per line."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(xs):
        row: List[object] = [x]
        for name in series:
            row.append(y_format.format(series[name][i]))
        rows.append(row)
    return format_table(headers, rows, title=title)


def crossover_point(
    xs: Sequence[float], a: Sequence[float], b: Sequence[float]
) -> Optional[float]:
    """First x where series ``a`` stops beating series ``b`` (a <= b
    before, a > b after); None if they never cross."""
    for i in range(1, len(xs)):
        if a[i - 1] <= b[i - 1] and a[i] > b[i]:
            return xs[i]
    return None
