"""The package's public surface: the names it exports, and the README's Library example."""

import contextlib
import io
import re
from pathlib import Path

import fourierknot

# every exported name; a change to the surface is an edit here
PUBLIC_NAMES = [
    "CertificationFailure", "Crossing", "CrossingIndices", "CrossingSet", "DiagramSummary",
    "FourierKnot", "FourierSeries", "FourierTerm", "GaussCode", "IdentificationFailure",
    "IncompleteCrossingSet", "InvalidGeometry", "InvalidParams", "KnotError", "LaurentPolynomial",
    "NotAKnot", "PDCode", "PhaseMap", "PhasePoint", "SignVector", "SimplifyRequiresEvenP",
    "SingularCrossing", "SingularDiagram", "SingularLine", "SingularPoint", "StandardTorusGeometry",
    "TYPE_I", "TYPE_II", "TorusParams", "WrongKnotShape", "alexander_from_diagram",
    "analytic_crossing_set", "build_gauss_code", "build_pd_code", "certify_intercept_reading",
    "classify", "det_poly_matrix", "find_crossings_numeric", "gen_standard_knot", "gen_theorem_knot",
    "identify", "knot_diagram_svg", "knot_with_phases", "phase_map_render", "same_knot_by_phases",
    "sign_vector", "simplified_phase_point", "singular_lines", "theorem_phase_point",
    "torus_alexander_oracle", "writhe",
]


def test_public_names_pinned():
    assert sorted(fourierknot.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        getattr(fourierknot, name)


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"^```python\n(.*?)^```$", library, re.S | re.M)
    scope = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, scope)
    # the results the example's comments state
    assert len(scope["crossings"]) == 32
    assert scope["writhe"] == -14
    assert out.getvalue().startswith("t^12 - t^11 + t^9 - ")
