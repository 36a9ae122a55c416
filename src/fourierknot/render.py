"""SVG and PNG output: knot projections with under-strand gaps, phase maps."""

from __future__ import annotations

import base64
import math
import struct
import zlib

import numpy as np

from .crossings import CrossingSet
from .phases import _phi2_along
from .series import TWO_PI, FourierKnot, reduce_angles


def png_bytes(rgb: np.ndarray) -> bytes:
    """Encode an (H, W, 3) uint8 array as a PNG (filter 0, one IDAT)."""
    h, w, _ = rgb.shape
    raw = np.zeros((h, 1 + 3 * w), dtype=np.uint8)  # each row starts with filter byte 0
    raw[:, 1:] = rgb.reshape(h, 3 * w)

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data))
            + tag
            + data
            + struct.pack(">I", zlib.crc32(tag + data))
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw, 6))
        + chunk(b"IEND", b"")
    )


def _f(x: float) -> str:
    return format(x, ".2f")


# ---------------------------------------------------------------------------
# Knot projection


def knot_diagram_svg(knot: FourierKnot, crossings: CrossingSet, size: int = 640) -> str:
    """The xy-projection with the under-strand broken at every crossing.

    One path per continuous strand piece (class "strand"), an orientation
    arrowhead at t = 0, and a dot at each crossing point.  The curve is
    sampled max(1024, 128 * max frequency) times; each break is a window of
    0.12 in t, narrowed to 0.35 of the closest spacing of under-passages.
    """
    samples = max(1024, 128 * knot.max_frequency())
    under_times = sorted(c.t_under for c in crossings.crossings)
    gap = 0.12
    if len(under_times) >= 2:
        spacings = [b - a for a, b in zip(under_times, under_times[1:])]
        spacings.append(under_times[0] + TWO_PI - under_times[-1])
        gap = min(0.12, 0.35 * min(spacings))

    # visible t-intervals: the circle minus a window around each under-passage
    if under_times:
        intervals = []
        for a, b in zip(under_times, under_times[1:] + [under_times[0] + TWO_PI]):
            lo, hi = a + gap, b - gap
            if hi > lo:
                intervals.append((lo, hi))
    else:
        intervals = [(0.0, TWO_PI)]

    # world-to-screen transform from the curve's bounding box
    ts = np.linspace(0.0, TWO_PI, samples, endpoint=False)
    xs = np.asarray(knot.x.eval(ts))
    ys = np.asarray(knot.y.eval(ts))
    pad = 0.08 * max(np.ptp(xs), np.ptp(ys), 1e-9)
    x0, x1 = xs.min() - pad, xs.max() + pad
    y0, y1 = ys.min() - pad, ys.max() + pad
    span = max(x1 - x0, y1 - y0)

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (size * (x - x0) / span, size * (y1 - y) / span)

    paths = []
    for lo, hi in intervals:
        m = max(8, int(samples * (hi - lo) / TWO_PI))
        tt = np.linspace(lo, hi, m)
        px = knot.x.eval(tt)
        py = knot.y.eval(tt)
        pts = " L ".join(
            f"{_f(u)} {_f(v)}" for u, v in (to_px(a, b) for a, b in zip(px, py))
        )
        paths.append(
            f'<path class="strand" d="M {pts}" fill="none" stroke="#1f3352" stroke-width="2.2" stroke-linecap="round"/>'
        )

    # orientation arrowhead at t = 0
    ax, ay = to_px(knot.x.eval(0.0), knot.y.eval(0.0))
    vx = knot.x.eval_derivative(0.0)
    vy = knot.y.eval_derivative(0.0)
    ang = math.atan2(-vy, vx)  # screen y runs downward
    tri = []
    for da, rr in ((0.0, 12.0), (2.5, 7.0), (-2.5, 7.0)):
        tri.append((ax + rr * math.cos(ang + da), ay + rr * math.sin(ang + da)))
    arrow = (
        '<polygon class="arrow" points="'
        + " ".join(f"{_f(u)},{_f(v)}" for u, v in tri)
        + '" fill="#b02020"/>'
    )

    dots = "".join(
        f'<circle cx="{_f(to_px(*c.position)[0])}" cy="{_f(to_px(*c.position)[1])}" r="1.6" fill="#88889060"/>'
        for c in crossings.crossings
    )

    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
        f'<rect width="{size}" height="{size}" fill="white"/>'
        + "".join(paths)
        + dots
        + arrow
        + "</svg>"
    )


# ---------------------------------------------------------------------------
# Phase map


def phase_map_png(pmap, scale: int = 2) -> bytes:
    """Raster of the class grid with singular lines and marks drawn on top.

    Row 0 of the image is phi2 = 2*pi (phase square drawn with phi2 upward).
    A line is drawn at 4 * side samples of phi1.  Its pixels depend only on
    its (slope, intercept), and many lines share one (at T(13,29), 1424
    lines have 185 distinct pairs), so each distinct pair is drawn once.
    """
    grid = pmap.grid
    img = np.repeat(np.repeat(pmap._rgb()[::-1], scale, axis=0), scale, axis=1)
    side = grid * scale

    def px(phi):
        return np.minimum((np.asarray(phi) / TWO_PI * side).astype(np.intp), side - 1)

    white = (255, 255, 255)
    distinct = {(line.slope, line.intercept) for line in pmap.lines}
    # slope 0: phi2 is the reduced intercept at every sample, and sample
    # 4 c + 2 sits at column c + 1/2, so the samples fill the whole row
    level = np.array([intercept for slope, intercept in distinct if slope == 0])
    img[side - 1 - px(reduce_angles(level))] = white
    # diagonals: a block of lines is drawn with one indexed write, and blocks
    # of side // 16 lines keep the index arrays near the size of the image
    slopes, intercepts = np.array([pair for pair in distinct if pair[0] != 0]).reshape(-1, 2).T
    phi1 = TWO_PI * np.arange(4 * side) / (4 * side)
    cols = px(phi1)
    block = max(1, side // 16)
    for start in range(0, len(slopes), block):
        phi2 = _phi2_along(slopes[start : start + block], intercepts[start : start + block], phi1)
        img[side - 1 - px(phi2), cols] = white
    for point, _label in pmap.marks:
        ci, cj = px(point.phi1), px(point.phi2)
        r = max(2, scale)
        lo_y, hi_y = max(0, side - 1 - cj - r), min(side, side - 1 - cj + r + 1)
        lo_x, hi_x = max(0, ci - r), min(side, ci + r + 1)
        img[lo_y:hi_y, lo_x:hi_x] = (255, 230, 0)
    return png_bytes(np.ascontiguousarray(img))


def phase_map_svg(pmap, size: int = 640) -> str:
    """Vector phase map: raster background, line overlay, point markers."""
    raster = base64.b64encode(phase_map_png(pmap, scale=max(1, 512 // pmap.grid))).decode("ascii")

    def to_px(phi1: float, phi2: float) -> tuple[float, float]:
        return (size * phi1 / TWO_PI, size * (1.0 - phi2 / TWO_PI))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" xmlns:xlink="http://www.w3.org/1999/xlink" '
        f'version="1.1" width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<image x="0" y="0" width="{size}" height="{size}" '
        f'xlink:href="data:image/png;base64,{raster}"/>',
    ]
    for line in pmap.lines:
        if line.slope == 0:
            x1, y1 = to_px(0.0, line.intercept)
            x2, y2 = to_px(TWO_PI, line.intercept)
            segs = [((x1, y1), (x2, y2))]
        else:
            # split the diagonal where it wraps across phi2 = 0 or 2*pi
            segs = []
            breaks = [0.0]
            for wrap in range(-2, 3):
                phi1b = (wrap * TWO_PI - line.intercept) * line.slope
                if 0.0 < phi1b < TWO_PI:
                    breaks.append(phi1b)
            breaks.append(TWO_PI)
            breaks.sort()
            for a, b in zip(breaks, breaks[1:]):
                if b - a < 1e-9:
                    continue
                mid = 0.5 * (a + b)
                off = line.slope * mid + line.intercept
                shift = -TWO_PI * math.floor(off / TWO_PI)
                segs.append(
                    (
                        to_px(a, line.slope * a + line.intercept + shift),
                        to_px(b, line.slope * b + line.intercept + shift),
                    )
                )
        for (x1, y1), (x2, y2) in segs:
            parts.append(
                f'<line class="singular" x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
                f'stroke="white" stroke-width="1.2"/>'
            )
    for point, label in pmap.marks:
        x, y = to_px(point.phi1, point.phi2)
        parts.append(
            f'<circle class="mark" cx="{_f(x)}" cy="{_f(y)}" r="5" fill="#ffe600" stroke="black"/>'
            f'<text x="{_f(x + 8)}" y="{_f(y - 6)}" font-size="13" fill="black">{label}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)
