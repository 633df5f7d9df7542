"""Plain-text reporting helpers: aligned tables and ASCII bar charts.

The paper's figures are bar charts over applications; this module
renders the same shapes in a terminal so the benchmark harness and the
examples can *show* a figure, not just print numbers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def format_table(header: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned text table; returns the string."""
    rows = [[str(cell) for cell in row] for row in rows]
    header = [str(cell) for cell in header]
    widths = [max(len(header[i]), *(len(row[i]) for row in rows))
              if rows else len(header[i]) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(title: str, header: Sequence[str],
                rows: Iterable[Sequence[object]]) -> None:
    """Print one paper table: a blank line, ``=== title ===``, then
    :func:`format_table` — the layout every figure table shares."""
    print()
    print(f"=== {title} ===")
    print(format_table(header, rows))


def fmt(value: float, digits: int = 3) -> str:
    """Format a float for a table cell."""
    return f"{value:.{digits}f}"


def bar_chart(values: Dict[str, float], width: int = 50,
              baseline: Optional[float] = None,
              fmt: str = "{:.3f}", title: str = "") -> str:
    """Render a horizontal ASCII bar chart.

    ``baseline`` draws a reference mark (the paper's figures are
    normalized to 1.0); bars are scaled to the max value.
    """
    if not values:
        raise ValueError("bar_chart needs at least one value")
    if width < 10:
        raise ValueError("width must be at least 10")
    label_width = max(len(label) for label in values)
    peak = max(max(values.values()), baseline or 0.0)
    if peak <= 0:
        peak = 1.0
    lines = []
    if title:
        lines.append(title)
    mark = None
    if baseline is not None:
        mark = round(baseline / peak * width)
    for label, value in values.items():
        filled = max(0, round(value / peak * width))
        bar = list("#" * filled + " " * (width - filled))
        if mark is not None and 0 <= mark < width:
            bar[mark] = "|" if bar[mark] == " " else "+"
        lines.append(f"{label.rjust(label_width)} "
                     f"[{''.join(bar)}] {fmt.format(value)}")
    return "\n".join(lines)


def stacked_bars(parts: Dict[str, Dict[str, float]],
                 order: Sequence[str],
                 symbols: Optional[Dict[str, str]] = None,
                 width: int = 50) -> str:
    """Render 0..1 stacked fractions (Fig. 5/9/12-style breakdowns).

    ``parts`` maps a row label to {component: fraction}; ``order`` fixes
    the component stacking order; ``symbols`` maps components to single
    characters (defaults assigned from a palette).
    """
    palette = "#=+:.ox*"
    symbols = symbols or {name: palette[i % len(palette)]
                          for i, name in enumerate(order)}
    label_width = max(len(label) for label in parts)
    lines = ["legend: " + "  ".join(f"{symbols[n]}={n}" for n in order)]
    for label, fractions in parts.items():
        bar = []
        for name in order:
            n_chars = round(fractions.get(name, 0.0) * width)
            bar.append(symbols[name] * n_chars)
        row = "".join(bar)[:width].ljust(width)
        lines.append(f"{label.rjust(label_width)} [{row}]")
    return "\n".join(lines)


def speedup_summary(speedups: Dict[str, float]) -> str:
    """One-line min/mean/max summary of a normalized-metric dict."""
    values = list(speedups.values())
    if not values:
        raise ValueError("empty speedups")
    mean = len(values) / sum(1.0 / v for v in values)  # harmonic
    best = max(speedups, key=speedups.get)
    worst = min(speedups, key=speedups.get)
    return (f"hmean {mean:.3f} | best {best} {speedups[best]:.3f} | "
            f"worst {worst} {speedups[worst]:.3f}")
