"""Dependency-free SVG line charts for step-response curves.

Output is deterministic: the same curves produce byte-identical files.
Every polyline coordinate is written exactly as "%.2f" writes it, the
correctly rounded decimal with ties to even.  ``_points`` forms the text of
a curve from whole arrays: rint(fl(100 v)) is that rounding of 100 v unless
fl(100 v) lies within 100 v 2**-51 of a half, and digit tables spell out
the result.  A curve with such a near-tie, or with a coordinate that is
negative, -0.0, not finite or rounds to 1000.00 or more, is formatted by
"%.2f" itself.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .model import TimeSeries

_WIDTH, _HEIGHT = 840, 520
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 180, 24, 48
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b", "#17becf")


# 4-byte words of "%d" of 0 .. 999 right-aligned after NULs, and of ".00" .. ".99" then a NUL.  Built
# from strings: integer arithmetic in numpy would map about 0.4 MB of its code that plotting never uses.
_WHOLE = np.frombuffer("".join(["%4d" % i for i in range(1000)]).replace(" ", "\0").encode("ascii"), np.uint32)
_CENTS = np.frombuffer("".join([".%02d\0" % i for i in range(100)]).encode("ascii"), np.uint32)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _points(xy: np.ndarray) -> str:
    """The points text of a polyline through the rows of xy: "%.2f,%.2f" per row, joined by spaces."""
    with np.errstate(all="ignore"):
        s = 100.0 * xy
        q = np.rint(s)
        exact = q.max() < 1e5 and not np.signbit(s).any() and (np.abs(s - q) + s * 2.0**-51).max() < 0.5
    if not exact:
        return " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
    whole, cents = np.divmod(q.astype(np.intp), 100)
    words = np.empty(xy.shape + (2,), np.uint32)  # per coordinate: its whole part, then its cents
    words[..., 0], words[..., 1] = _WHOLE.take(whole), _CENTS.take(cents)
    text = words.view(np.uint8)
    text[:, 0, 7], text[:, 1, 7] = ord(","), ord(" ")  # the NUL after each coordinate's cents
    return text.tobytes().translate(None, b"\0")[:-1].decode("ascii")


def emit_step_plot(curves: Sequence[tuple[str, TimeSeries]], path: str | Path) -> None:
    """Write one polyline per named curve with auto-scaled linear axes."""
    if not curves:
        raise ValueError("no curves to plot")
    x_min = min(float(ts.t[0]) for _, ts in curves)
    x_max = max(float(ts.t[-1]) for _, ts in curves)
    y_min = min(float(ts.values.min()) for _, ts in curves)
    y_max = max(float(ts.values.max()) for _, ts in curves)
    if y_min == y_max:
        y = y_min
        y_min, y_max = y - 0.5, y + 0.5
        if y_min == y_max:  # 0.5 rounds away at this magnitude: pad relative to it, within the float range
            pad = abs(y) * 2.0**-20
            y_min, y_max = max(y - pad, -sys.float_info.max), min(y + pad, sys.float_info.max)

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # a y range past the float maximum is mapped in eighths (exact), so that even
    # the tick arithmetic below stays finite
    scale = 0.125 if math.isinf(y_max - y_min) else 1.0

    # px and py map a number or, with the same rounding per element, an array
    def px(x):
        return _MARGIN_L + (x - x_min) / (x_max - x_min) * plot_w

    def py(y):
        return _MARGIN_T + (y_max * scale - y * scale) / (y_max * scale - y_min * scale) * plot_h

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
    ]
    # frame and tick labels
    left, right = _MARGIN_L, _MARGIN_L + plot_w
    top, bottom = _MARGIN_T, _MARGIN_T + plot_h
    lines.append(f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="#000" stroke-width="1"/>')
    lines.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="#000" stroke-width="1"/>')
    for i in range(5):
        fx = x_min + (x_max - x_min) * i / 4
        fy = (y_min * scale + (y_max * scale - y_min * scale) * i / 4) / scale
        lines.append(
            f'<text x="{px(fx):.2f}" y="{bottom + 16}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{fx:.6g}</text>'
        )
        lines.append(
            f'<text x="{left - 6}" y="{py(fy) + 4:.2f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{fy:.6g}</text>'
        )
    lines.append(
        f'<text x="{(left + right) / 2:.2f}" y="{_HEIGHT - 8}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">t</text>'
    )
    lines.append(
        f'<text x="14" y="{(top + bottom) / 2:.2f}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 14 {(top + bottom) / 2:.2f})">output</text>'
    )
    for idx, (name, ts) in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = _points(np.column_stack((px(ts.t), py(ts.values))))
        lines.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        ly = top + 14 + idx * 18
        lines.append(f'<line x1="{right + 12}" y1="{ly}" x2="{right + 34}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        lines.append(
            f'<text x="{right + 40}" y="{ly + 4}" text-anchor="start" font-size="12" '
            f'font-family="sans-serif">{_escape(name)}</text>'
        )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
