"""Minimal deterministic SVG rendering of ROC curves.

Hand-rolled on purpose: identical inputs must produce byte-identical files,
so no plotting library (they embed environment-dependent ids and metadata).
"""

from __future__ import annotations

from pathlib import Path

from .errors import GraphError

WIDTH, HEIGHT = 640, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 30, 30, 60

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _x(pfa: float) -> float:
    return MARGIN_L + pfa * (WIDTH - MARGIN_L - MARGIN_R)


def _y(pd: float) -> float:
    return HEIGHT - MARGIN_B - pd * (HEIGHT - MARGIN_T - MARGIN_B)


def _pt(pfa, pd) -> str:
    return f"{_x(pfa):.2f},{_y(pd):.2f}"


def render_roc_svg(curves) -> str:
    """Render labeled (name, RocCurve) pairs with two-sigma error bands."""
    curves = list(curves)
    if not curves:
        raise GraphError("nothing to plot")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" font-family="sans-serif" '
        'font-size="14">Detection ROC</text>',
    ]
    # axes, gridlines, tick labels
    for i in range(6):
        f = i / 5.0
        parts.append(
            f'<line x1="{_x(f):.2f}" y1="{_y(0):.2f}" x2="{_x(f):.2f}" y2="{_y(1):.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{_x(0):.2f}" y1="{_y(f):.2f}" x2="{_x(1):.2f}" y2="{_y(f):.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_x(f):.2f}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{f:.1f}</text>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{_y(f) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{f:.1f}</text>'
        )
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_x(0.5):.2f}" y="{HEIGHT - 18}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13">probability of false alarm</text>'
    )
    parts.append(
        f'<text x="18" y="{_y(0.5):.2f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 18 {_y(0.5):.2f})">probability of detection</text>'
    )

    for i, (name, curve) in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        lo = [(p, max(d - 2 * s, 0.0)) for p, d, s in zip(curve.pfa, curve.pd, curve.se_pd)]
        hi = [(p, min(d + 2 * s, 1.0)) for p, d, s in zip(curve.pfa, curve.pd, curve.se_pd)]
        band = " ".join(_pt(p, d) for p, d in hi) + " " + " ".join(_pt(p, d) for p, d in reversed(lo))
        parts.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.15" stroke="none"/>')
        line = " ".join(_pt(p, d) for p, d in zip(curve.pfa, curve.pd))
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        ly = MARGIN_T + 16 + 18 * i
        parts.append(
            f'<line x1="{WIDTH - 190}" y1="{ly}" x2="{WIDTH - 160}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{WIDTH - 152}" y="{ly + 4}" font-family="sans-serif" font-size="12">'
            f"{name} (AUC {curve.auc:.3f})</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot_roc(curves, out_path) -> None:
    Path(out_path).write_text(render_roc_svg(curves))
