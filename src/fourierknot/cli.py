"""Command-line interface: gen, crossings, verify, render, phase-map.

`main` is the one frame around every command: it refuses an -o path before
any work, then writes the str or bytes the command returns (to stdout without
-o), so a command writes nothing unless it succeeds.  Exit codes: 0 success,
1 verification failure, 2 invalid arguments or an unwritable output path,
3 oracle disagreement.  Angles are radians everywhere; --degrees converts the
text output of gen and crossings.  The log level is the level name in the
KNOT_LOG env var, WARNING for any other value.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys
import time

import numpy as np

from .crossings import (
    MAX_NUMERIC_GRID,
    TYPE_II,
    analytic_crossing_set,
    crossing_count,
    find_crossings_numeric,
    near_pairs,
)
from .diagram import identify
from .errors import IdentificationFailure, KnotError, SingularPoint
from .phases import (
    MAX_GRID,
    MAX_SIGN_TABLE,
    certified_line_arrays,
    certify_intercept_reading,
    gen_theorem_knot,
    phase_map_render,
    same_knot_by_phases,
    sign_vector,
    simplified_phase_point,
    theorem_phase_point,
)
from .render import knot_diagram_svg
from .series import (
    FLOAT_FORMAT,
    StandardTorusGeometry,
    TorusParams,
    fmt_float,
    gen_standard_knot,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_ORACLE_DISAGREE = 3

# verify's budget on the corner pair's 2pq - p - q, set from whole-range wall
# times: the slowest range a budget admits should take no longer than the
# slowest one the Wirtinger-minor identify admitted under its budget of 712,
# `--pmax 16 --qmax 23` (11.6-13.2 s at 44 MB max RSS in the same runs).  At
# 1054 crossings, the count of T(19,29), the slowest admitted range is
# `--pmax 19 --qmax 29` (211 pairs, 1.7-2.3 s at 40 MB, fresh process, 2-core
# Linux); `--pmax 2 --qmax 352` takes 0.8-1.2 s at 37 MB, `--pmax 17 --qmax 32`
# 1.8-2.8 s and `--pmax 15 --qmax 36` 1.4-2.1 s.  The rule admits at least 1570
# (`--pmax 22 --qmax 37`, 6.8-7.8 s in-process); the budget stays at 1054.
MAX_VERIFY_CROSSINGS = 1054

# crossings' and render's budget on 2pq - p - q: at the cap `crossings` peaks near
# 123 MB max RSS (2 s), and `render`, which samples the curve 128q times, 286 MB
# (9 s) at its worst case p = 2, T(2, 21845), and 152 MB at T(181, 182)
MAX_CROSSINGS = 1 << 16


def _write(path: str | None, payload: str | bytes) -> None:
    if isinstance(payload, bytes):
        if path is None or path == "-":
            sys.stdout.buffer.write(payload)
        else:
            with open(path, "wb") as fh:
                fh.write(payload)
        return
    if path is None or path == "-":
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _check_output(path: str | None) -> None:
    """Refuse, before any work, an -o path that names no file (empty, ending
    in a separator, or a directory), or a path in a missing or unwritable
    directory; creates nothing."""
    if path in (None, "-"):
        return
    if not os.path.basename(path) or os.path.isdir(path):
        raise OSError(f"cannot write {path!r}: the -o path must name a file")
    folder = os.path.abspath(os.path.dirname(path))
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise OSError(f"cannot write {path}: {folder} is not a writable directory")


def _torus_params(args) -> TorusParams:
    """(p, q) from the arguments, refused before any work above MAX_CROSSINGS crossings."""
    params = TorusParams(args.p, args.q)
    n = crossing_count(params.p, params.q)
    if n > MAX_CROSSINGS:
        raise ValueError(
            f"T({params.p},{params.q}) would have {n} crossings, above the budget of {MAX_CROSSINGS}"
        )
    return params


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def cmd_gen(args) -> str:
    params = TorusParams(args.p, args.q)
    if args.standard:
        knot = gen_standard_knot(params, StandardTorusGeometry(args.major, args.minor))
    else:
        knot = gen_theorem_knot(params, simplified=args.simplified)
    if args.format == "json":
        return knot.to_json()
    lines = []
    for axis in ("x", "y", "z"):
        terms = " + ".join(
            f"{fmt_float(t.amplitude)}*cos({t.frequency}*t + "
            f"{fmt_float(math.degrees(t.phase) if args.degrees else t.phase)})"
            for t in getattr(knot, axis).terms
        )
        lines.append(f"{axis}(t) = {terms}")
    return "\n".join(lines) + "\n"


def _crossings_text(crossings, degrees: bool) -> str:
    """A count line, then one row per crossing read off the columns: its CrossingIndices.key()
    or "-", its times as FLOAT_FORMAT (in degrees when asked), its sign and over-strand."""
    keys = [ix.key() if ix else "-" for ix in crossings._indices()]
    t1, t2 = crossings.t1.tolist(), crossings.t2.tolist()
    if degrees:
        t1, t2 = list(map(math.degrees, t1)), list(map(math.degrees, t2))
    overs = [("t2", "t1")[over] for over in crossings.over_t1.tolist()]
    row = f"  %-10s t1={FLOAT_FORMAT} t2={FLOAT_FORMAT} sign=%+d over=%s"
    rows = map(row.__mod__, zip(keys, t1, t2, crossings.sign.tolist(), overs))
    return "\n".join([f"{len(crossings)} crossings ({crossings.method})", *rows]) + "\n"


def cmd_crossings(args) -> str | int:
    params = _torus_params(args)
    knot = gen_theorem_knot(params, simplified=args.simplified)
    analytic = analytic_crossing_set(knot, params) if args.check or not args.numeric else None
    numeric = find_crossings_numeric(knot, args.grid) if args.numeric or args.check else None
    chosen = numeric if args.numeric else analytic
    if args.check:
        assert analytic is not None and numeric is not None
        # equal counts, and every numeric pair within EPS_DEDUPE of an analytic one
        n = len(analytic)
        pairs = near_pairs(np.concatenate((analytic.t1, numeric.t1)), np.concatenate((analytic.t2, numeric.t2)))
        matched = {j for i, j in pairs if i < n <= j}
        if len(numeric) != n or len(matched) != n:
            print(
                f"oracle disagreement: analytic {len(analytic)} vs numeric {len(numeric)} crossings",
                file=sys.stderr,
            )
            return EXIT_ORACLE_DISAGREE
    if args.format == "csv":
        return chosen.to_csv()
    if args.format == "text":
        return _crossings_text(chosen, args.degrees)
    return chosen.to_json()


# identify's conditions in the order it checks them, each with its verify column
_VERIFY_CONDITIONS = (("type1-count", "counts"), ("type2-count", "counts"),
                      ("type1-handedness", "type1-hand"), ("type2-over-direction", "type2-dir"),
                      ("alexander-mismatch", "alexander"))
_VERIFY_COLUMNS = (*dict.fromkeys(column for _, column in _VERIFY_CONDITIONS), "phase")


def _verify_pair(params: TorusParams) -> tuple[dict[str, str], bool]:
    """Run every identification condition for one (p, q); returns (row, ok)."""
    knot = gen_theorem_knot(params)
    crossings = analytic_crossing_set(knot, params)
    try:
        identify(knot, crossings, params)
        failed = None
    except IdentificationFailure as exc:
        failed = exc.condition
    # a column passes before the failing condition, fails at it and reads "-" after it
    row: dict[str, str] = {}
    verdict = "pass"
    for cond, column in _VERIFY_CONDITIONS:
        if cond == failed:
            row[column], verdict = "FAIL", "-"
        row.setdefault(column, verdict)
    # phase condition: the lines certify, and even p must keep the same region
    # (its simplified knot identifies too) while odd p must be singular on at
    # least two type-II crossings; the line records are not needed
    try:
        certified_line_arrays(params)
        if params.p % 2 == 0:
            good = same_knot_by_phases(params, theorem_phase_point(params), simplified_phase_point(params))
            simplified = gen_theorem_knot(params, simplified=True)
            identify(simplified, analytic_crossing_set(simplified, params), params)
        else:
            try:
                sign_vector(params, simplified_phase_point(params))
                good = False
            except SingularPoint as sp:
                good = sum(ix.kind == TYPE_II for ix in sp.indices) >= 2
        row["phase"] = "pass" if good else "FAIL"
    except KnotError as exc:
        row["phase"] = f"FAIL ({exc})"
    return row, failed is None and row["phase"] == "pass"


def cmd_verify(args) -> int:
    # the crossing count grows in p and in q, so the range's largest pair has
    # at most the count of its corner p = min(pmax, qmax - 1), q = qmax
    p, q = min(args.pmax, args.qmax - 1), args.qmax
    if p >= 2 and crossing_count(p, q) > MAX_VERIFY_CROSSINGS:
        raise ValueError(
            f"verify range too large: T({p},{q}) would have {crossing_count(p, q)} crossings, "
            f"above the budget of {MAX_VERIFY_CROSSINGS} (T(19,29))"
        )
    pairs = [
        (p, q)
        for p in range(2, args.pmax + 1)
        for q in range(p + 1, args.qmax + 1)
        if math.gcd(p, q) == 1
    ]
    if not pairs:
        raise ValueError("no coprime pairs in range")
    header = f"{'p':>3} {'q':>3}  " + "  ".join(f"{c:<10}" for c in _VERIFY_COLUMNS) + "  wall"
    print(header)
    print("-" * len(header))
    failures = []
    for p, q in pairs:
        t0 = time.perf_counter()
        row, ok = _verify_pair(TorusParams(p, q))
        wall = time.perf_counter() - t0
        print(f"{p:>3} {q:>3}  " + "  ".join(f"{row[c]:<10}" for c in _VERIFY_COLUMNS) + f"  {wall:.2f}s")
        if not ok:
            failures.append((p, q))
    reading, res_ok, res_bad = certify_intercept_reading(TorusParams(*pairs[0]))
    print(
        f"type-I singular-line intercept certified as {reading} "
        f"(residual {res_ok:.2e}; alternative reading rejected at {res_bad:.2e})"
    )
    if failures:
        print(f"{len(failures)} pair(s) failed: {failures}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print(f"all {len(pairs)} pairs pass")
    return EXIT_OK


def cmd_render(args) -> str:
    params = _torus_params(args)
    knot = gen_theorem_knot(params, simplified=args.simplified)
    return knot_diagram_svg(knot, analytic_crossing_set(knot, params), size=args.size)


def cmd_phase_map(args) -> str | bytes:
    params = TorusParams(args.p, args.q)
    pmap = phase_map_render(params, args.grid, mark_theorem_points=args.mark_theorem_points)
    fmt = args.format or ("png" if (args.output or "").lower().endswith(".png") else "svg")
    return pmap.to_png_bytes() if fmt == "png" else pmap.to_svg(size=args.size)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; main dispatches on args.command."""
    parser = argparse.ArgumentParser(
        prog="fourierknot",
        description="Torus knots as cosine-series curves: generation, crossings, invariants, phase maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pq(sp):
        sp.add_argument("-p", type=int, required=True, help="longitudinal winding (2 <= p < q)")
        sp.add_argument("-q", type=int, required=True, help="meridional winding, coprime to p")

    def add_common(sp, degrees=False):
        sp.add_argument("-o", "--output", default=None, help="output path (default: stdout)")
        if degrees:
            sp.add_argument("--degrees", action="store_true", help="display angles in degrees (text output only)")

    g = sub.add_parser("gen", help="emit a knot parameterization as JSON")
    add_pq(g)
    add_common(g, degrees=True)
    g.add_argument("--simplified", action="store_true", help="use the short z phase pi/(2p) (even p only)")
    g.add_argument("--standard", action="store_true", help="emit the three-term winding form instead")
    g.add_argument("--major", type=float, default=2.0, help="winding form: major radius R (default 2)")
    g.add_argument("--minor", type=float, default=1.0, help="winding form: tube radius r (default 1)")
    g.add_argument("--format", choices=["json", "text"], default="json")

    budget = f"A knot with more than {MAX_CROSSINGS} crossings (2pq - p - q) is refused with exit 2."
    c = sub.add_parser("crossings", help="enumerate and classify projection crossings", description=budget)
    add_pq(c)
    add_common(c, degrees=True)
    c.add_argument("--simplified", action="store_true")
    c.add_argument("--numeric", action="store_true", help="use the numeric double-point finder")
    c.add_argument(
        "--grid",
        type=int,
        default=2048,
        help=f"sampling grid for the numeric finder, at most {MAX_NUMERIC_GRID} (about 490 MB at the cap)",
    )
    c.add_argument("--check", action="store_true", help="cross-check numeric against analytic (exit 3 on mismatch)")
    c.add_argument("--format", choices=["json", "csv", "text"], default="json")

    v = sub.add_parser(
        "verify",
        help="run the identification conditions over a (p, q) range",
        description="Run the identification conditions for every coprime 2 <= p < q, p <= pmax, "
        f"q <= qmax.  A range whose largest pair would have more than {MAX_VERIFY_CROSSINGS} "
        "crossings (2pq - p - q, the count of T(19,29)) is refused with exit 2 before any work; "
        "the slowest admitted range, --pmax 19 --qmax 29 (211 pairs), takes about 10 s and "
        "--pmax 2 --qmax 352 about 8 s.",
    )
    v.add_argument("--pmax", type=int, required=True)
    v.add_argument(
        "--qmax", type=int, required=True,
        help=f"the corner pair (min(pmax, qmax - 1), qmax) may have at most {MAX_VERIFY_CROSSINGS} crossings",
    )

    r = sub.add_parser("render", help="SVG of the xy-projection with under-strand gaps", description=budget)
    add_pq(r)
    add_common(r)
    r.add_argument("--simplified", action="store_true")
    r.add_argument("--size", type=_positive_int, default=640, help="image side in pixels")

    m = sub.add_parser("phase-map", help="phase-square map of sign-vector classes")
    add_pq(m)
    add_common(m)
    m.add_argument(
        "--grid",
        type=int,
        default=256,
        help=f"cells per side, 64 to {MAX_GRID}, with crossings x grid at most {MAX_SIGN_TABLE}: about 3 MB "
        f"at 512 and 52 MB at {MAX_GRID} for T(7,13), and up to 40 bytes per crossing x grid at large p, q",
    )
    m.add_argument("--size", type=_positive_int, default=640, help="SVG image side in pixels")
    m.add_argument("--format", choices=["svg", "png"], help="image format; by default PNG for a .png output, else SVG")
    m.add_argument(
        "--mark-theorem-points",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="mark the theorem and simplified phase points (on by default)",
    )
    return parser


def main(argv=None) -> int:
    level = logging.getLevelName(os.environ.get("KNOT_LOG", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)
    args = build_parser().parse_args(argv)
    # looked up on every call, so a cmd_* rebound on the module is the one that runs
    commands = {"gen": cmd_gen, "crossings": cmd_crossings, "verify": cmd_verify,
                "render": cmd_render, "phase-map": cmd_phase_map}
    path = getattr(args, "output", None)  # verify prints as it goes and takes no -o
    try:
        _check_output(path)
        # a command returns its payload, or an exit code when it printed its own output
        result = commands[args.command](args)
        if isinstance(result, int):
            return result
        _write(path, result)
        return EXIT_OK
    except (KnotError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
