import hashlib
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from fourierknot.cli import build_parser, main
from planted import crossing_set


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_gen_json_3_7(capsys):
    code, out, _ = run_cli(capsys, "gen", "-p", "3", "-q", "7")
    assert code == 0
    data = json.loads(out)
    assert data["y"][0][2] == pytest.approx(0.5235987755982988, abs=0)
    assert "0.52359877559829882" in out  # 17 significant digits on the wire


def test_gen_rejects_equal_windings(capsys):
    code, _, err = run_cli(capsys, "gen", "-p", "3", "-q", "3")
    assert code == 2
    assert "p < q required" in err


def test_gen_simplified_phases(capsys):
    code, out, _ = run_cli(capsys, "gen", "-p", "2", "-q", "3", "--simplified")
    assert code == 0
    data = json.loads(out)
    assert data["z"][0][2] == pytest.approx(math.pi / 2)
    assert data["z"][1][2] == pytest.approx(math.pi / 4)


def test_gen_standard_form(capsys):
    code, out, _ = run_cli(capsys, "gen", "-p", "2", "-q", "3", "--standard", "--major", "2", "--minor", "1")
    assert code == 0
    data = json.loads(out)
    assert data["x"] == [[2, 2, 0], [0.5, 5, 0], [0.5, 1, 0]]
    assert len(data["z"]) == 1


def test_gen_text_degrees(capsys):
    code, out, _ = run_cli(capsys, "gen", "-p", "2", "-q", "3", "--format", "text", "--degrees")
    assert code == 0
    assert "cos(3*t + 45" in out  # pi/4 rad shown as 45 degrees


def test_crossings_count_3_7(capsys):
    code, out, _ = run_cli(capsys, "crossings", "-p", "3", "-q", "7", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 32
    keys = [(r["t1"], r["t2"]) for r in records]
    assert keys == sorted(keys)


def test_crossings_check_agrees(capsys):
    code, _, _ = run_cli(capsys, "crossings", "-p", "2", "-q", "3", "--numeric", "--grid", "512", "--check")
    assert code == 0


def test_crossings_check_disagreement_exits_3(capsys, monkeypatch):
    import fourierknot.cli as cli_mod
    from fourierknot import find_crossings_numeric

    def broken(knot, grid, diagnostics=None):
        cs = find_crossings_numeric(knot, grid)
        return crossing_set(cs.knot, cs.crossings[:-1], cs.method)

    monkeypatch.setattr(cli_mod, "find_crossings_numeric", broken)
    code, _, err = run_cli(capsys, "crossings", "-p", "2", "-q", "3", "--numeric", "--grid", "512", "--check")
    assert code == 3
    assert "disagreement" in err


def test_crossings_non_coprime(capsys):
    code, _, err = run_cli(capsys, "crossings", "-p", "2", "-q", "4")
    assert code == 2
    assert "coprime" in err


def test_crossings_csv(capsys):
    code, out, _ = run_cli(capsys, "crossings", "-p", "2", "-q", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,k,j,t1,t2,sign,over,x,y"
    assert len(lines) == 8


def test_verify_smallest_pair(capsys):
    code, out, _ = run_cli(capsys, "verify", "--pmax", "2", "--qmax", "3")
    assert code == 0
    assert "all 1 pairs pass" in out
    assert "intercept certified as (1/p - 1/q) * pi/2" in out
    assert "s" in out  # wall time column rendered


def test_verify_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--pmax", "5", "--qmax", "9")
    assert code == 0
    assert "all 15 pairs pass" in out
    for pair in ["2   3", "3   5", "4   9", "5   9"]:
        assert pair in out


def test_verify_output_pinned(capsys):
    # stdout without the per-pair wall-time column
    code, out, _ = run_cli(capsys, "verify", "--pmax", "7", "--qmax", "13")
    assert code == 0
    stable = re.sub(r"\s+\d+\.\d+s$", "", out, flags=re.M)
    assert hashlib.sha256(stable.encode()).hexdigest() == (
        "ef019d734a00a5c431cc226de348e014166fb91d1d2680b5e77fffa4636fe124"
    )


@pytest.mark.parametrize("pmax,qmax", [(19, 30), (20, 29), (2, 400), (50, 40)])
def test_verify_rejects_oversized_range(capsys, monkeypatch, pmax, qmax):
    import fourierknot.cli as cli_mod

    def no_work(params):
        raise AssertionError("a pair was verified")

    monkeypatch.setattr(cli_mod, "_verify_pair", no_work)
    code, out, err = run_cli(capsys, "verify", "--pmax", str(pmax), "--qmax", str(qmax))
    assert code == 2
    assert out == ""
    assert "1054" in err


def test_verify_accepts_the_budget_corner(capsys, monkeypatch):
    import fourierknot.cli as cli_mod

    seen = []

    def passing(params):
        seen.append((params.p, params.q))
        return dict.fromkeys(["counts", "type1-hand", "type2-dir", "alexander", "phase"], "pass"), True

    monkeypatch.setattr(cli_mod, "_verify_pair", passing)
    code, out, _ = run_cli(capsys, "verify", "--pmax", "19", "--qmax", "29")
    assert code == 0
    assert max(seen, key=lambda pq: 2 * pq[0] * pq[1] - pq[0] - pq[1]) == (19, 29)


def test_verify_empty_range_is_an_error(capsys):
    # refused through main's one error path, with its prefix
    code, out, err = run_cli(capsys, "verify", "--pmax", "2", "--qmax", "2")
    assert (code, out, err) == (2, "", "error: no coprime pairs in range\n")


def test_verify_failure_exits_1(capsys, monkeypatch):
    import fourierknot.cli as cli_mod
    from fourierknot import IdentificationFailure

    def always_fails(knot, crossings, params):
        raise IdentificationFailure("type1-handedness", "forced failure for the test")

    monkeypatch.setattr(cli_mod, "identify", always_fails)
    code, out, err = run_cli(capsys, "verify", "--pmax", "2", "--qmax", "3")
    assert code == 1
    assert "FAIL" in out
    assert "failed" in err


# verify's row for T(2,3) when identify fails at each condition, wall column removed
VERIFY_FAIL_ROWS = {
    "type1-count": "  2   3  FAIL        -           -           -           FAIL (type1-count: forced)",
    "type2-count": "  2   3  FAIL        -           -           -           FAIL (type2-count: forced)",
    "type1-handedness": "  2   3  pass        FAIL        -           -           FAIL (type1-handedness: forced)",
    "type2-over-direction":
        "  2   3  pass        pass        FAIL        -           FAIL (type2-over-direction: forced)",
    "alexander-mismatch": "  2   3  pass        pass        pass        FAIL        FAIL (alexander-mismatch: forced)",
}


@pytest.mark.parametrize("condition", list(VERIFY_FAIL_ROWS))
def test_verify_row_per_failed_condition(capsys, monkeypatch, condition):
    import fourierknot.cli as cli_mod
    from fourierknot import IdentificationFailure

    def fails(knot, crossings, params):
        raise IdentificationFailure(condition, "forced")

    monkeypatch.setattr(cli_mod, "identify", fails)
    code, out, _ = run_cli(capsys, "verify", "--pmax", "2", "--qmax", "3")
    assert code == 1
    assert re.sub(r"\s+\d+\.\d+s$", "", out.splitlines()[2]) == VERIFY_FAIL_ROWS[condition]


def test_render_break_counts(tmp_path, capsys):
    out_path = tmp_path / "t23.svg"
    code, _, _ = run_cli(capsys, "render", "-p", "2", "-q", "3", "-o", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    ET.fromstring(svg)
    assert svg.count('class="strand"') == 7


def test_render_3_7_break_count(tmp_path, capsys):
    out_path = tmp_path / "t37.svg"
    code, _, _ = run_cli(capsys, "render", "-p", "3", "-q", "7", "-o", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    ET.fromstring(svg)
    assert svg.count('class="strand"') == 32
    assert 'class="arrow"' in svg


def test_phase_map_svg(tmp_path, capsys):
    out_path = tmp_path / "map.svg"
    code, _, _ = run_cli(
        capsys, "phase-map", "-p", "2", "-q", "3", "--grid", "64", "-o", str(out_path),
        "--mark-theorem-points",
    )
    assert code == 0
    svg = out_path.read_text()
    ET.fromstring(svg)
    assert 'class="mark"' in svg
    assert 'class="singular"' in svg


def test_phase_map_marks_default_on_and_disable(tmp_path, capsys):
    marked = tmp_path / "marked.svg"
    bare = tmp_path / "bare.svg"
    code, _, _ = run_cli(capsys, "phase-map", "-p", "2", "-q", "3", "--grid", "64", "-o", str(marked))
    assert code == 0
    code, _, _ = run_cli(
        capsys, "phase-map", "-p", "2", "-q", "3", "--grid", "64", "-o", str(bare),
        "--no-mark-theorem-points",
    )
    assert code == 0
    assert 'class="mark"' in marked.read_text()
    assert 'class="mark"' not in bare.read_text()


def test_phase_map_png(tmp_path, capsys):
    out_path = tmp_path / "map.png"
    code, _, _ = run_cli(capsys, "phase-map", "-p", "2", "-q", "3", "--grid", "64", "-o", str(out_path))
    assert code == 0
    assert out_path.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"


def test_phase_map_grid_too_small(capsys):
    code, _, err = run_cli(capsys, "phase-map", "-p", "2", "-q", "3", "--grid", "8")
    assert code == 2
    assert "64" in err


def test_phase_map_grid_too_large(capsys, monkeypatch):
    import fourierknot.phases as ph

    def no_raster(params):
        raise AssertionError("the raster started")

    monkeypatch.setattr(ph, "_crossing_table", no_raster)
    code, out, err = run_cli(capsys, "phase-map", "-p", "2", "-q", "3", "--grid", "4096")
    assert code == 2
    assert out == ""
    assert "2048" in err


def test_phase_map_too_many_crossings(capsys, monkeypatch):
    import fourierknot.phases as ph

    def no_raster(params):
        raise AssertionError("the raster started")

    # 1,996,001 crossings x 2048 cells: hundreds of GB before the budget
    monkeypatch.setattr(ph, "_crossing_table", no_raster)
    code, out, err = run_cli(capsys, "phase-map", "-p", "999", "-q", "1000", "--grid", "2048")
    assert code == 2
    assert out == ""
    assert str(ph.MAX_SIGN_TABLE) in err and "1996001 crossings" in err


class Reached(Exception):
    pass


def stop_at_crossing_set(monkeypatch):
    import fourierknot.cli as cli_mod

    def reached(knot, params):
        raise Reached(params)

    monkeypatch.setattr(cli_mod, "analytic_crossing_set", reached)


@pytest.mark.parametrize("command", ["crossings", "render"])
@pytest.mark.parametrize("p,q", [(2, 21847), (182, 183)])
def test_crossing_budget_refuses_large_knots(capsys, monkeypatch, command, p, q):
    stop_at_crossing_set(monkeypatch)
    code, out, err = run_cli(capsys, command, "-p", str(p), "-q", str(q))
    assert code == 2
    assert out == ""
    assert f"{2 * p * q - p - q} crossings" in err and "65536" in err


@pytest.mark.parametrize("command", ["crossings", "render"])
def test_crossing_budget_admits_its_largest_knots(capsys, monkeypatch, command):
    stop_at_crossing_set(monkeypatch)
    with pytest.raises(Reached):  # 65,533 crossings
        run_cli(capsys, command, "-p", "2", "-q", "21845")


@pytest.mark.parametrize("command", ["render", "phase-map"])
@pytest.mark.parametrize("size", ["0", "-5"])
def test_non_positive_size_is_refused(capsys, command, size):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, command, "-p", "2", "-q", "3", "--size", size)
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "--size: must be a positive integer" in err


@pytest.mark.parametrize("command", ["render", "phase-map"])
def test_degrees_is_refused_where_no_text_is_printed(capsys, command):
    # render and phase-map print no angles, so they take no --degrees
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, command, "-p", "2", "-q", "3", "--degrees")
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "unrecognized arguments: --degrees" in err


def test_numeric_grid_too_large(capsys, monkeypatch):
    import numpy as np

    import fourierknot.crossings as cr

    class NumpyWithoutArange:
        def __getattr__(self, name):
            if name == "arange":
                raise AssertionError("the sample grid was allocated")
            return getattr(np, name)

    monkeypatch.setattr(cr, "np", NumpyWithoutArange())
    code, out, err = run_cli(
        capsys, "crossings", "-p", "2", "-q", "3", "--numeric", "--grid", "100000000"
    )
    assert code == 2
    assert out == ""
    assert "2097152" in err


def test_determinism_byte_identical():
    cmd =[sys.executable, "-m", "fourierknot", "crossings", "-p", "3", "-q", "7", "--format", "json"]
    a = subprocess.run(cmd, capture_output=True).stdout
    b = subprocess.run(cmd, capture_output=True).stdout
    assert a == b and len(a) > 100


# sha256 of stdout per knot: crossings as json, csv and text, then render.
# Recorded before the crossing set held columns.  The simplified point of an
# even p gives the same crossings, so the same bytes.  x, y and the SVG
# coordinates come from libm, so these run on Linux only.
PINNED_CLI_OUTPUTS = {
    (2, 3): ("e12da3353eb6764af2eeac1dd019d672a14396d6cc8acb7ddf59a3f2bc618917",
             "deac61a2747f1861e2fe0c2416abb797c8ea97c44d42c37bcb5b853cfdcb2ed7",
             "7d3e4ab31a8c0b37c902b3c1a3f817c765e364db1aa3fdb746502a5dfd1cfb6d",
             "a777dfeade1aab3bec869f8c5c675cfbec4d407412ce6aade57eaaed71200c24"),
    (3, 7): ("e05a093b3812dcecfc6672a0f7429a3fa9f30dc6973dcab3491706beeabecfe5",
             "036dacbd0f1e5e036b305d9865d6ffe89b4c3fd6b17f806d06b65fd701508442",
             "5be10573b781d5752dbc12025d85bd68bcdaaebf377c9f3aa49d2ce2de71d011",
             "37e821bf0908be5a80158ca48139ae6c56c38b2342cbdb78cd80e77066a6fed0"),
    (4, 9): ("ecada707ca9caa03f6ed672a0a999ff831774a74847e74344e11a434a0dad6f9",
             "0555dc032d0b6ec7880fba75dc24c93954da068037f1a20d827fec54186d2594",
             "b28ae4d1d83e119ea8514eec68fb37e17ddf2ea7e2d6825892b46430aab15fdd",
             "c1e2dde9fd396cd1b23493479524f5aae289f65ce9fdab67e295aca4af8607e4"),
    (7, 13): ("e1503d0751e060a4ee25bae4057a53a8ae47077c96eff2b2b587eb752aff2a8a",
              "afa5120b9cb9240a7577a3a18517aaf36e3fcdf593495836839557f961365012",
              "29256b6a12298ccab9c6c60b2f73807f7599db2919d00a32c242097d752285fa",
              "7b9b756ae51392545f5e27030c929ee0d1014cccfe07c6259c28763a06212339"),
}


def sha256_of_stdout(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("pq,simplified", [(pq, False) for pq in PINNED_CLI_OUTPUTS] + [((2, 3), True), ((4, 9), True)])
def test_crossings_and_render_outputs_pinned(capsys, pq, simplified):
    knot = ["-p", str(pq[0]), "-q", str(pq[1])] + ["--simplified"] * simplified
    json_digest, csv_digest, text_digest, svg_digest = PINNED_CLI_OUTPUTS[pq]
    for fmt, digest in (("json", json_digest), ("csv", csv_digest), ("text", text_digest)):
        assert sha256_of_stdout(capsys, "crossings", *knot, "--format", fmt) == digest
    # --check prints the analytic set it checked
    assert sha256_of_stdout(capsys, "crossings", *knot, "--check") == json_digest
    assert sha256_of_stdout(capsys, "render", *knot) == svg_digest


# sha256 of `crossings --numeric` JSON per (p, q, grid).  The finder samples
# with np.cos and refines with math.cos, so these run on Linux only.
PINNED_NUMERIC_JSON = {
    (3, 7, 2048): "fae35efb785e0b7b1e717f633764ad7ca04c0dd934cd73b44295eb451a91c0b0",
    (7, 13, 2048): "f6a5319d47141469bb437cf09d5d348b525ec46df5b8c4d40040b8cd13f7ee4b",
    (13, 29, 2048): "0f3678015add29ab7cda88da12803c22e09a83c68947d067c673198ba77e5b68",
    (3, 7, 4096): "292398776531e95715cb2ef9621582d904b05ef0afaf9abbe2145499807d9e6b",
}


@pytest.mark.parametrize("p, q, grid", list(PINNED_NUMERIC_JSON))
def test_numeric_crossings_json_pinned(capsys, p, q, grid):
    argv = ("crossings", "-p", str(p), "-q", str(q), "--numeric", "--grid", str(grid), "--format", "json")
    assert sha256_of_stdout(capsys, *argv) == PINNED_NUMERIC_JSON[p, q, grid]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_numeric_crossings_build_no_analytic_set(capsys, monkeypatch, fmt):
    # --numeric without --check prints the numeric set only, so it builds no analytic set
    argv = ("crossings", "-p", "3", "-q", "7", "--numeric", "--format", fmt)
    expected = sha256_of_stdout(capsys, *argv)
    stop_at_crossing_set(monkeypatch)
    assert sha256_of_stdout(capsys, *argv) == expected


def test_crossings_text_in_degrees_pinned(capsys):
    assert sha256_of_stdout(capsys, "crossings", "-p", "3", "-q", "7", "--format", "text", "--degrees") == (
        "ef160cdfa9640516598dc134fe3b289d3709a17990d7aa42630926a1b277665e"
    )


def stop_before_work(monkeypatch):
    import fourierknot.cli as cli_mod

    def reached(*args, **kwargs):
        raise Reached(args)

    # crossings, render and phase-map check -o before their expensive call
    monkeypatch.setattr(cli_mod, "analytic_crossing_set", reached)
    monkeypatch.setattr(cli_mod, "phase_map_render", reached)


@pytest.mark.parametrize("argv", [
    ["gen", "-p", "2", "-q", "3"],
    ["render", "-p", "2", "-q", "3"],
    ["phase-map", "-p", "2", "-q", "3", "--grid", "64"],
    ["crossings", "-p", "2", "-q", "3"],
])
def test_unwritable_output_exits_2(tmp_path, capsys, monkeypatch, argv):
    stop_before_work(monkeypatch)
    target = tmp_path / "missing" / "out.svg"
    code, out, err = run_cli(capsys, *argv, "-o", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not target.parent.exists()


@pytest.mark.parametrize("target", ["", "directory", "missing directory/"])
@pytest.mark.parametrize("argv", [
    ["render", "-p", "2", "-q", "3"],
    ["phase-map", "-p", "2", "-q", "3", "--grid", "64"],
    ["crossings", "-p", "2", "-q", "3", "--numeric"],
    ["gen", "-p", "2", "-q", "3"],
])
def test_output_that_names_no_file_exits_2(tmp_path, capsys, monkeypatch, argv, target):
    # an empty -o, an existing directory and a path ending in a separator
    # are refused before the expensive call
    stop_before_work(monkeypatch)
    path = {"": "", "directory": str(tmp_path), "missing directory/": str(tmp_path / "missing") + os.sep}[target]
    code, out, err = run_cli(capsys, *argv, "-o", path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path!r}") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_output_check_neither_creates_nor_truncates(tmp_path, capsys):
    # the path passes the check, then the grid is refused: nothing is written
    kept, new = tmp_path / "kept.svg", tmp_path / "new.svg"
    kept.write_text("keep")
    for target in (kept, new):
        code, _, err = run_cli(capsys, "phase-map", "-p", "2", "-q", "3", "--grid", "8", "-o", str(target))
        assert code == 2 and "64" in err
    assert kept.read_text() == "keep"
    assert not new.exists()


def test_knot_log_accepts_only_level_names():
    # a module constant that is no level name falls back to WARNING
    cmd = [sys.executable, "-m", "fourierknot", "gen", "-p", "2", "-q", "3"]
    done = subprocess.run(cmd, capture_output=True, text=True, env={**os.environ, "KNOT_LOG": "basic_format"})
    assert done.returncode == 0, done.stderr
    json.loads(done.stdout)


def test_knot_log_env():
    # in a fresh process, where no handler is on the root logger yet, so
    # logging.basicConfig does take the level that main reads from KNOT_LOG
    code = (
        "import logging, os; from fourierknot.cli import main; "
        "main(['gen', '-p', '2', '-q', '3', '-o', os.devnull]); print(logging.getLogger().level)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "KNOT_LOG": "DEBUG"}
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "10\n"
