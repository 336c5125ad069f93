"""Paper-style table and series rendering for the benchmark harness.

Every bench prints the rows/series of the table or figure it reproduces,
so `pytest benchmarks/ --benchmark-only -s` regenerates a textual version
of the paper's evaluation section.
"""

from __future__ import annotations

__all__ = [
    "format_table",
    "print_table",
    "print_header",
    "format_count",
    "format_ms",
    "format_cache_stats",
    "speedup",
]


def format_cache_stats(counter) -> str:
    """One-line predicate-cache summary from a ``CostCounter``."""
    hits = int(counter.predicate_cache_hits)
    misses = int(counter.predicate_cache_misses)
    total = hits + misses
    if total == 0:
        return "predicate cache: unused"
    return (f"predicate cache: {hits}/{total} hits "
            f"({100.0 * hits / total:.1f}%), {misses} unseals")


def format_count(value: float) -> str:
    """Compact human form for counters (1.2k, 3.4M, ...)."""
    value = float(value)
    for threshold, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= threshold:
            return f"{value / threshold:.2f}{suffix}"
    if value == int(value):
        return str(int(value))
    return f"{value:.2f}"


def format_ms(value: float) -> str:
    """Milliseconds with adaptive precision."""
    if value >= 1000:
        return f"{value / 1000:.2f}s"
    if value >= 1:
        return f"{value:.1f}ms"
    return f"{value:.3f}ms"


def speedup(baseline: float, other: float) -> str:
    """Human-readable ratio ``baseline / other``."""
    if other <= 0:
        return "inf"
    return f"{baseline / other:.1f}x"


def format_table(headers: list[str], rows: list[list]) -> str:
    """Render a monospace table with right-aligned data columns."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [
        max(len(line[i]) for line in cells)
        for i in range(len(headers))
    ]
    out = []
    for line_index, line in enumerate(cells):
        rendered = "  ".join(
            line[i].ljust(widths[i]) if i == 0 else line[i].rjust(widths[i])
            for i in range(len(line))
        )
        out.append(rendered)
        if line_index == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Print a titled paper-style table."""
    print_header(title)
    print(format_table(headers, rows))
    print()


def print_header(title: str) -> None:
    """Section banner for one experiment."""
    print()
    print("=" * len(title))
    print(title)
    print("=" * len(title))
