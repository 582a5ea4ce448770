"""ASCII report formatting for paper-style tables and figures."""

from __future__ import annotations

from typing import Sequence


def format_ratio(value: float) -> str:
    """Format a normalized runtime (two decimals, paper-style)."""
    return f"{value:.2f}"


def format_bar_chart(
    labels: Sequence[str], values: Sequence[float], width: int = 40, title: str = ""
) -> str:
    """A horizontal ASCII bar chart (stand-in for the paper's figures)."""
    peak = max(values) if values else 1.0
    peak = peak or 1.0
    lines = [title] if title else []
    label_width = max((len(l) for l in labels), default=0)
    for label, value in zip(labels, values):
        bar = "#" * max(1, int(round(width * value / peak))) if value > 0 else ""
        lines.append(f"{label.ljust(label_width)} | {bar} {value:.4f}")
    return "\n".join(lines)
