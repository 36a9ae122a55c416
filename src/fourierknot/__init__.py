"""Torus knots as cosine-series space curves.

Generation of the two standard parameterizations, exact enumeration and
classification of all projection crossings (with a numeric cross-check),
diagram invariants (Gauss/PD codes, writhe, Alexander polynomial) and the
phase-torus analysis of the two z phases.
"""

from .crossings import (
    TYPE_I,
    TYPE_II,
    Crossing,
    CrossingIndices,
    CrossingSet,
    analytic_crossing_set,
    classify,
    find_crossings_numeric,
)
from .diagram import (
    DiagramSummary,
    GaussCode,
    PDCode,
    alexander_from_diagram,
    build_gauss_code,
    build_pd_code,
    identify,
    torus_alexander_oracle,
    writhe,
)
from .errors import (
    CertificationFailure,
    IdentificationFailure,
    IncompleteCrossingSet,
    InvalidGeometry,
    InvalidParams,
    KnotError,
    NotAKnot,
    SimplifyRequiresEvenP,
    SingularCrossing,
    SingularDiagram,
    SingularPoint,
    WrongKnotShape,
)
from .laurent import LaurentPolynomial, det_poly_matrix
from .phases import (
    PhaseMap,
    PhasePoint,
    SignVector,
    SingularLine,
    certify_intercept_reading,
    gen_theorem_knot,
    knot_with_phases,
    phase_map_render,
    same_knot_by_phases,
    sign_vector,
    simplified_phase_point,
    singular_lines,
    theorem_phase_point,
)
from .render import knot_diagram_svg
from .series import (
    FourierKnot,
    FourierSeries,
    FourierTerm,
    StandardTorusGeometry,
    TorusParams,
    gen_standard_knot,
)

__version__ = "0.1.0"

__all__ = [
    "Crossing",
    "CrossingIndices",
    "CrossingSet",
    "CertificationFailure",
    "DiagramSummary",
    "FourierKnot",
    "FourierSeries",
    "FourierTerm",
    "GaussCode",
    "IdentificationFailure",
    "IncompleteCrossingSet",
    "InvalidGeometry",
    "InvalidParams",
    "KnotError",
    "LaurentPolynomial",
    "NotAKnot",
    "PDCode",
    "PhaseMap",
    "PhasePoint",
    "SignVector",
    "SimplifyRequiresEvenP",
    "SingularCrossing",
    "SingularDiagram",
    "SingularLine",
    "SingularPoint",
    "StandardTorusGeometry",
    "TorusParams",
    "TYPE_I",
    "TYPE_II",
    "WrongKnotShape",
    "alexander_from_diagram",
    "analytic_crossing_set",
    "build_gauss_code",
    "build_pd_code",
    "certify_intercept_reading",
    "classify",
    "det_poly_matrix",
    "find_crossings_numeric",
    "gen_standard_knot",
    "gen_theorem_knot",
    "identify",
    "knot_diagram_svg",
    "knot_with_phases",
    "phase_map_render",
    "same_knot_by_phases",
    "sign_vector",
    "simplified_phase_point",
    "singular_lines",
    "theorem_phase_point",
    "torus_alexander_oracle",
    "writhe",
]
