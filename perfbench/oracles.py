"""Output checks that share no code with the package.

Every expected value here is recomputed from the paper's closed forms with
the benchmark's own code: crossing times, crossing signs, the torus-knot
Alexander polynomial (integer arithmetic), PNG structure and the count of
coprime pairs.  A check returns None when the output is right and a short
cause string when it is wrong.
"""

from __future__ import annotations

import base64
import json
import math
import re
import struct
import zlib

import numpy as np

TWO_PI = 2.0 * math.pi
MATCH_TOL = 1e-6  # numeric crossings must land this close to a closed-form pair


# ---------------------------------------------------------------------------
# Closed-form crossings of the theorem knot
#   x = cos(p t), y = cos(q t + pi/(2p)),
#   z = cos(p t + pi/2) + cos((q-p) t + pi/(2p) - pi/(4q))


def _canonical_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.mod(a, TWO_PI)
    b = np.mod(b, TWO_PI)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    # every (k, j) family member appears more than once; keep one per pair
    keep = np.ones(lo.size, dtype=bool)
    keep[1:] = (np.diff(lo) > 1e-9) | (np.abs(np.diff(hi)) > 1e-9)
    return lo[keep], hi[keep]


def crossing_pairs(p: int, q: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Distinct crossing time pairs per family, without the package's index bounds.

    Same-direction ("I"): t = j*pi/q - pi/(2pq) -+ k*pi/p over all k, j.
    Opposite-direction ("II"): t = j*pi/p -+ k*pi/q over all k, j.
    The families are enumerated over every residue and deduplicated, so the
    counts pq - q and pq - p are a real check of the package's enumeration.
    """
    k1, j1 = np.meshgrid(np.arange(1, p), np.arange(2 * q), indexing="ij")
    base1 = j1 * math.pi / q - math.pi / (2 * p * q)
    half1 = k1 * math.pi / p
    k2, j2 = np.meshgrid(np.arange(1, q), np.arange(2 * p), indexing="ij")
    base2 = j2 * math.pi / p
    half2 = k2 * math.pi / q
    out = {}
    for kind, base, half in (("I", base1, half1), ("II", base2, half2)):
        t1, t2 = _canonical_pairs((base - half).ravel(), (base + half).ravel())
        # drop the trivial diagonal t1 == t2 (mod 2 pi)
        gap = np.minimum(t2 - t1, TWO_PI - (t2 - t1))
        keep = gap > 1e-9
        out[kind] = (t1[keep], t2[keep])
    return out


def theorem_signs(p: int, q: int, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Crossing signs: sign of [x'(t1) y'(t2) - x'(t2) y'(t1)] * [z(t1) - z(t2)]."""
    phy = math.pi / (2 * p)
    phz = math.pi / (2 * p) - math.pi / (4 * q)

    def dx(t):
        return -p * np.sin(p * t)

    def dy(t):
        return -q * np.sin(q * t + phy)

    def z(t):
        return np.cos(p * t + math.pi / 2) + np.cos((q - p) * t + phz)

    planar = dx(t1) * dy(t2) - dx(t2) * dy(t1)
    return np.where(planar * (z(t1) - z(t2)) > 0, 1, -1)


class Crossings:
    """The closed-form crossing table of T(p, q), sorted by t1."""

    def __init__(self, p: int, q: int):
        fam = crossing_pairs(p, q)
        self.p, self.q = p, q
        self.counts = {kind: fam[kind][0].size for kind in fam}
        t1 = np.concatenate([fam["I"][0], fam["II"][0]])
        t2 = np.concatenate([fam["I"][1], fam["II"][1]])
        kinds = np.array(["I"] * self.counts["I"] + ["II"] * self.counts["II"])
        order = np.argsort(t1)
        self.t1, self.t2, self.kinds = t1[order], t2[order], kinds[order]
        self.signs = theorem_signs(p, q, self.t1, self.t2)

    def check_counts(self) -> str | None:
        p, q = self.p, self.q
        if self.counts["I"] != p * q - q or self.counts["II"] != p * q - p:
            return f"closed form gives {self.counts} crossings, expected I={p * q - q}, II={p * q - p}"
        return None

    def match(self, t1s, t2s) -> tuple[np.ndarray | None, str | None]:
        """Index of the closed-form pair each (t1, t2) matches, one-to-one."""
        t1s = np.asarray(t1s, dtype=float)
        t2s = np.asarray(t2s, dtype=float)
        if t1s.size != self.t1.size:
            return None, f"{t1s.size} crossings, closed form has {self.t1.size}"
        # passage times are distinct, so the nearest t1 names the only candidate
        pos = np.clip(np.searchsorted(self.t1, t1s), 1, self.t1.size - 1)
        best = np.where(np.abs(self.t1[pos - 1] - t1s) < np.abs(self.t1[pos] - t1s), pos - 1, pos)
        err = np.maximum(np.abs(self.t1[best] - t1s), np.abs(self.t2[best] - t2s))
        if err.size and err.max() > MATCH_TOL:
            i = int(err.argmax())
            return None, f"crossing ({t1s[i]:.9f}, {t2s[i]:.9f}) is {err[i]:.2e} from every closed-form pair"
        if np.unique(best).size != best.size:
            return None, "two crossings match the same closed-form pair"
        return best, None


def check_crossing_json(table: Crossings, text: str, indexed: bool) -> str | None:
    """A serialized crossing set: every row matches a closed-form pair and sign."""
    rows = json.loads(text)
    idx, cause = table.match([r["t1"] for r in rows], [r["t2"] for r in rows])
    if cause:
        return cause
    signs = np.array([r["sign"] for r in rows])
    if not np.array_equal(signs, table.signs[idx]):
        return f"{int((signs != table.signs[idx]).sum())} crossing signs differ from the closed form"
    if indexed:
        kinds = np.array([r["kind"] for r in rows])
        if not np.array_equal(kinds, table.kinds[idx]):
            return "crossing families differ from the closed form"
    return None


# ---------------------------------------------------------------------------
# Alexander polynomial of T(p, q), integer-exact


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    rem = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c, r = divmod(rem[i + len(den) - 1], den[-1])
        if r:
            raise ArithmeticError("inexact division")
        out[i] = c
        for j, d in enumerate(den):
            rem[i + j] -= c * d
    if any(rem):
        raise ArithmeticError("inexact division")
    return out


def torus_alexander(p: int, q: int) -> list[tuple[int, int]]:
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)) as sorted (exponent, coefficient)."""

    def cyc(n):
        return [-1] + [0] * (n - 1) + [1]

    num = _poly_mul(cyc(p * q), cyc(1))
    poly = _poly_divexact(_poly_divexact(num, cyc(p)), cyc(q))
    return [(e, c) for e, c in enumerate(poly) if c]


def summary_json(p: int, q: int, table: Crossings) -> str:
    """The exact DiagramSummary.to_json() text expected for T(p, q)."""
    alex = ",".join(f"[{e},{c}]" for e, c in torus_alexander(p, q))
    return (
        f'{{"crossings":{table.t1.size},"writhe":{int(table.signs.sum())},'
        f'"type1":{p * q - q},"type2":{p * q - p},"alexander":[{alex}]}}'
    )


# ---------------------------------------------------------------------------
# Phase torus


def theorem_times(p: int, q: int, kind: str, k: int, j: int) -> tuple[float, float]:
    if kind == "I":
        base, half = j * math.pi / q - math.pi / (2 * p * q), k * math.pi / p
    else:
        base, half = j * math.pi / p, k * math.pi / q
    return base - half, base + half


def height_gaps(table: Crossings, phi1: np.ndarray, phi2: np.ndarray) -> np.ndarray:
    """z(t1) - z(t2) for every crossing (rows) at every phase point (columns)."""
    p, q = table.p, table.q
    t1, t2 = table.t1[:, None], table.t2[:, None]
    phi1, phi2 = np.asarray(phi1)[None, :], np.asarray(phi2)[None, :]
    return (
        np.cos(p * t1 + phi1) + np.cos((q - p) * t1 + phi2)
        - np.cos(p * t2 + phi1) - np.cos((q - p) * t2 + phi2)
    )


def check_raster(table: Crossings, classes: np.ndarray, grid: int, cells: np.ndarray) -> str | None:
    """Sampled cells share a class id exactly when their sign vectors agree."""
    if classes.shape != (grid, grid):
        return f"class grid has shape {classes.shape}, expected {(grid, grid)}"
    h = TWO_PI / grid
    gaps = height_gaps(table, (cells[:, 0] + 0.5) * h, (cells[:, 1] + 0.5) * h)
    ids = classes[cells[:, 0], cells[:, 1]]
    clear = np.abs(gaps).min(axis=0) > 1e-7
    if np.any(ids[clear] < 0):
        return "a cell away from every singular line is marked singular"
    keys = {}
    for cid, col in zip(ids[clear], (gaps[:, clear] > 0).T):
        key = col.tobytes()
        if keys.setdefault(key, cid) != cid:
            return "one sign vector maps to two class ids"
    if len(set(keys.values())) != len(keys):
        return "one class id holds two sign vectors"
    return None


def class_counts(classes: np.ndarray, n_classes: int) -> dict[str, int]:
    """Recorded as data: n_classes also counts keys of cells masked singular."""
    return {
        "n_classes": int(n_classes),
        "classes_nonsingular": int(np.unique(classes[classes >= 0]).size),
        "singular_cells": int(np.count_nonzero(classes < 0)),
    }


# ---------------------------------------------------------------------------
# Images


def check_png(data: bytes, side: int) -> str | None:
    """RGB PNG of side x side whose IDAT inflates to h * (3w + 1) bytes."""
    if data[:8] != b"\x89PNG\r\n\x1a\n":
        return "missing PNG signature"
    pos, idat, dims = 8, [], None
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        tag = data[pos + 4:pos + 8]
        body = data[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])
        if zlib.crc32(tag + body) != crc:
            return f"bad CRC in {tag!r} chunk"
        if tag == b"IHDR":
            dims = struct.unpack(">IIBB", body[:10])
        elif tag == b"IDAT":
            idat.append(body)
        pos += 12 + length
    if dims is None or dims[:2] != (side, side) or dims[2:] != (8, 2):
        return f"IHDR {dims} is not an 8-bit RGB {side}x{side} image"
    raw = zlib.decompress(b"".join(idat))
    if len(raw) != side * (3 * side + 1):
        return f"IDAT inflates to {len(raw)} bytes, expected {side * (3 * side + 1)}"
    return None


_SVG_PNG = re.compile(r'xlink:href="data:image/png;base64,([A-Za-z0-9+/=]+)"')


def check_svg(text: str, side: int) -> str | None:
    if not (text.startswith("<svg") and text.endswith("</svg>")):
        return "SVG is not a single <svg> element"
    m = _SVG_PNG.search(text)
    if m is None:
        return "SVG embeds no PNG raster"
    return check_png(base64.b64decode(m.group(1)), side)


# ---------------------------------------------------------------------------
# verify


def coprime_pairs(pmax: int, qmax: int) -> int:
    return sum(
        1 for p in range(2, pmax + 1) for q in range(p + 1, qmax + 1) if math.gcd(p, q) == 1
    )


_WALL = re.compile(r"\s+\d+\.\d+s$", re.M)


def verify_stable_text(out: str) -> str:
    """verify's stdout without its per-pair wall-time column."""
    return _WALL.sub("", out)


def check_verify(code: int, out: str, pmax: int, qmax: int) -> str | None:
    expect = coprime_pairs(pmax, qmax)
    if code != 0:
        return f"verify exited {code}"
    lines = out.rstrip("\n").split("\n")
    if lines[-1] != f"all {expect} pairs pass":
        return f"verify reports {lines[-1]!r}, expected {expect} pairs"
    if len(lines) != expect + 4:
        return f"verify printed {len(lines) - 4} rows, expected {expect}"
    return None
