"""Plain-text table rendering for experiment results.

The experiment harness prints each reproduced table/figure as an aligned
text table so a reader can compare against the paper side by side.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.util.units import rate_to_mbps


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render rows as an aligned ASCII table.

    Cells are stringified with ``str``; floats should be pre-formatted by
    the caller so each experiment controls its own precision.
    """
    str_rows: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def fmt(value: float, digits: int = 2) -> str:
    """Format a float with fixed decimals (the tables' default look)."""
    return f"{value:.{digits}f}"


def fmt_mbps(bps: float, digits: int = 2) -> str:
    """Format a bits/second rate in Mbps."""
    return f"{rate_to_mbps(bps):.{digits}f}"
