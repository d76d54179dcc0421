"""Report rendering: SVG confusion heat map and markdown summary tables."""
from __future__ import annotations

import numpy as np

from .core import ActivityClass
from .evaluate import GridCell

_CELL = 64
_MARGIN = 150


def _heat_color(value: float) -> str:
    # White -> deep blue ramp.
    v = min(max(value, 0.0), 1.0)
    r = int(round(255 - 205 * v))
    g = int(round(255 - 180 * v))
    b = int(round(255 - 80 * v))
    return f"rgb({r},{g},{b})"


def confusion_svg(normalized: np.ndarray) -> str:
    """Row-normalized confusion matrix as a standalone SVG heat map."""
    names = [c.class_name for c in ActivityClass]
    n = len(names)
    width = _MARGIN + n * _CELL + 20
    height = _MARGIN + n * _CELL + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="12">',
        f'<text x="{_MARGIN + n * _CELL / 2}" y="20" text-anchor="middle">'
        'normalized confusion (rows: true class)</text>',
    ]
    for i, true_name in enumerate(names):
        y = _MARGIN + i * _CELL
        parts.append(f'<text x="{_MARGIN - 8}" y="{y + _CELL / 2 + 4}" '
                     f'text-anchor="end">{true_name}</text>')
        for j in range(n):
            x = _MARGIN + j * _CELL
            v = float(normalized[i, j])
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                f'fill="{_heat_color(v)}" stroke="#888"/>')
            text_fill = "#fff" if v > 0.6 else "#000"
            parts.append(
                f'<text x="{x + _CELL / 2}" y="{y + _CELL / 2 + 4}" text-anchor="middle" '
                f'fill="{text_fill}">{v:.2f}</text>')
    for j, pred_name in enumerate(names):
        x = _MARGIN + j * _CELL + _CELL / 2
        y = _MARGIN - 10
        parts.append(f'<text x="{x}" y="{y}" text-anchor="start" '
                     f'transform="rotate(-45 {x} {y})">{pred_name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def grid_markdown(cells: list[GridCell]) -> str:
    """Pivot the long-format grid into epoch blocks with lr column pairs."""
    lrs = sorted({c.lr for c in cells})
    epochs = sorted({c.epochs for c in cells}, reverse=True)
    kinds = list(dict.fromkeys(c.kind for c in cells))
    by_key = {(c.kind, c.epochs, c.lr): c for c in cells}
    lines = []
    for ep in epochs:
        header = f"| epochs = {ep} |" + "".join(
            f" lr = {lr:g} accuracy | lr = {lr:g} loss |" for lr in lrs)
        lines.append(header)
        lines.append("|" + "---|" * (1 + 2 * len(lrs)))
        for kind in kinds:
            row = [kind]
            for lr in lrs:
                cell = by_key.get((kind, ep, lr))
                if cell is None or cell.failed:
                    row.extend(["failed", "failed"])
                else:
                    row.extend([f"{cell.accuracy:.4f}", f"{cell.mean_loss:.4f}"])
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    return "\n".join(lines)
