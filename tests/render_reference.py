"""Test-side reference for the phase map's PNG: an RGB image, upscaled, then copied into scanlines.

phase_rgb looks the palette up per cell on the transposed class grid, with
3 channels per pixel; upscaled repeats each cell scale times along both
axes; rgb_png copies an RGB image into zero-filled scanlines and encodes
them.  This is how render.phase_map_png built its PNG before it wrote the
scanlines directly, so the tests compare its bytes with these.
"""

import numpy as np

from fourierknot.render import _PALETTE, _SINGULAR_COLOR, png_bytes


def phase_rgb(pmap):
    """(grid, grid, 3) uint8 image of the classes, row 0 at phi2 = 0 (flip when drawing)."""
    cls = pmap.classes.T  # rows follow phi2
    colour = cls % len(_PALETTE)
    colour[cls < 0] = len(_PALETTE)  # _SINGULAR_COLOR, after the palette
    return np.take(np.array(_PALETTE + (_SINGULAR_COLOR,), dtype=np.uint8), colour, axis=0)


def upscaled(rgb, scale):
    """The phase image drawn with phi2 upward, each cell a scale x scale block."""
    return np.repeat(np.repeat(rgb[::-1], scale, axis=0), scale, axis=1)


def rgb_png(rgb):
    """PNG of an (H, W, 3) uint8 image: the rows copied into zero-filled scanlines."""
    h, w, _ = rgb.shape
    raw = np.zeros((h, 1 + 3 * w), dtype=np.uint8)  # each row starts with filter byte 0
    raw[:, 1:] = rgb.reshape(h, 3 * w)
    return png_bytes(raw)
