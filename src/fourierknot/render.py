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


def png_bytes(raw: np.ndarray) -> bytes:
    """Encode 8-bit RGB scanlines as a PNG (one IDAT).

    raw is (H, 1 + 3 W) uint8: each row is its filter byte, 0 here, then W
    pixels of 3 bytes.
    """
    h, w = raw.shape[0], (raw.shape[1] - 1) // 3

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
    if size < 1:
        raise ValueError(f"size must be at least 1, got {size}")
    samples = max(1024, 128 * knot.max_frequency())
    under_times = np.sort(np.where(crossings.over_t1, crossings.t2, crossings.t1)).tolist()
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
        f'<circle cx="{_f(u)}" cy="{_f(v)}" r="1.6" fill="#88889060"/>'
        for u, v in map(to_px, *crossings.positions())
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


# class id mod 16 picks a cell's colour, and singular cells (id -1) are black
_PALETTE = (
    (31, 119, 180), (255, 127, 14), (44, 160, 44), (214, 39, 40),
    (148, 103, 189), (140, 86, 75), (227, 119, 194), (127, 127, 127),
    (188, 189, 34), (23, 190, 207), (174, 199, 232), (255, 187, 120),
    (152, 223, 138), (255, 152, 150), (197, 176, 213), (196, 156, 148),
)
_SINGULAR_COLOR = (0, 0, 0)
# the colours as 4-byte items, RGB and a pad byte, which numpy gathers faster
# than 3-byte ones; a pixel of the scanlines is one 3-byte item (numpy "V3")
_PALETTE_RGBX = (
    np.pad(np.array(_PALETTE + (_SINGULAR_COLOR,), np.uint8), ((0, 0), (0, 1))).view(np.uint32).ravel()
)
# cell rows per block in phase_map_png's copy of a block's first pixel row
_COPY_ROWS = 64
_LINE_COLOR = np.void(bytes((255, 255, 255)))
_MARK_COLOR = np.void(bytes((255, 230, 0)))


def phase_map_png(pmap, scale: int = 2) -> bytes:
    """Raster of the class grid with singular lines and marks drawn on top.

    Row 0 of the image is phi2 = 2*pi (phase square drawn with phi2 upward),
    and each cell is a scale x scale block of pixels.  The pixels are written
    straight into the PNG's scanlines, each a filter byte 0 and then one
    3-byte item per pixel.  The colours are looked up once per cell, from a
    table over the class ids (pmap.classes holds ids below pmap.n_classes,
    or -1).  The first row of each block is filled from them by strided
    slices and copied to the block's other rows.  Lines and marks are then
    written over it, one item per pixel.
    A line is drawn at 4 * side samples of phi1.  Its pixels depend only on
    its (slope, intercept), and many lines share one (at T(13,29), 1424
    lines have 185 distinct pairs), so each distinct pair is drawn once.
    Peaks under tracemalloc, at scale 2: 4.0 MB at T(3,4)/512 and 64 MB at
    T(7,13)/2048 (MAX_GRID), the scanlines and the colour of each cell; the
    row copies and the line index arrays stay below that.
    """
    if scale < 1:
        raise ValueError(f"scale must be at least 1, got {scale}")
    grid = pmap.grid
    side = grid * scale
    # the colour of every class id, the palette repeated, then the singular
    # colour, where take's mode "wrap" sends the id -1
    colours = np.resize(_PALETTE_RGBX[:-1], pmap.n_classes + 1)
    colours[-1] = _PALETTE_RGBX[-1]
    rgbx = colours.take(pmap.classes.T[::-1], mode="wrap")  # image order: rows follow phi2 downward
    cells = rgbx.view(np.uint8).reshape(grid, grid, 4)[..., :3].view("V3")[..., 0]
    raw = np.zeros((side, 1 + 3 * side), dtype=np.uint8)  # each row starts with filter byte 0
    pixels = raw[:, 1:].view("V3")
    top = pixels[::scale]
    for j in range(scale):
        top[:, j::scale] = cells
    del rgbx, cells
    # numpy copies a source that shares memory with its target first, so the
    # rows are copied _COPY_ROWS blocks at a time to keep that temporary small
    for start in range(0, grid, _COPY_ROWS):
        block = top[start : start + _COPY_ROWS]
        for j in range(1, scale):
            pixels[start * scale + j : (start + len(block)) * scale : scale] = block

    def px(phi):
        return np.minimum((np.asarray(phi) / TWO_PI * side).astype(np.intp), side - 1)

    distinct = {(line.slope, line.intercept) for line in pmap.lines}
    # slope 0: phi2 is the reduced intercept at every sample, and sample
    # 4 c + 2 sits at column c + 1/2, so the samples fill the whole row
    level = np.array([intercept for slope, intercept in distinct if slope == 0])
    pixels[side - 1 - px(reduce_angles(level))] = _LINE_COLOR
    # diagonals: a block of lines is drawn with one indexed write; a block of
    # side // 256 lines makes each index array side^2 / 8 bytes, 1/24 of the image
    slopes, intercepts = np.array([pair for pair in distinct if pair[0] != 0]).reshape(-1, 2).T
    phi1 = TWO_PI * np.arange(4 * side) / (4 * side)
    cols = px(phi1)
    block = max(1, side // 256)
    for start in range(0, len(slopes), block):
        phi2 = _phi2_along(slopes[start : start + block], intercepts[start : start + block], phi1)
        pixels[side - 1 - px(phi2), cols] = _LINE_COLOR
    for point, _label in pmap.marks:
        ci, cj = px(point.phi1), px(point.phi2)
        r = max(2, scale)
        lo_y, hi_y = max(0, side - 1 - cj - r), min(side, side - 1 - cj + r + 1)
        lo_x, hi_x = max(0, ci - r), min(side, ci + r + 1)
        pixels[lo_y:hi_y, lo_x:hi_x] = _MARK_COLOR
    return png_bytes(raw)


def phase_map_svg(pmap, size: int = 640) -> str:
    """Vector phase map: raster background, line overlay, point markers."""
    if size < 1:
        raise ValueError(f"size must be at least 1, got {size}")
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
            # split the diagonal where it wraps across phi2 = 0 or 2*pi.  With the
            # intercept c in [0, 2*pi) and slope +-1, phi1 + c passes 2*pi only at
            # phi1 = 2*pi - c, and c - phi1 passes 0 only at phi1 = c, so over
            # phi1 in (0, 2*pi) there is at most one break
            wrap = TWO_PI - line.intercept if line.slope > 0 else line.intercept
            breaks = [0.0, wrap, TWO_PI] if 0.0 < wrap < TWO_PI else [0.0, TWO_PI]
            segs = []
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
