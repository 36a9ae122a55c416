import collections
import functools
import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourierknot import (
    Crossing,
    CrossingSet,
    FourierKnot,
    FourierSeries,
    FourierTerm,
    GaussCode,
    IdentificationFailure,
    IncompleteCrossingSet,
    LaurentPolynomial,
    NotAKnot,
    PDCode,
    PhasePoint,
    SingularCrossing,
    SingularDiagram,
    TorusParams,
    alexander_from_diagram,
    analytic_crossing_set,
    build_gauss_code,
    build_pd_code,
    det_poly_matrix,
    find_crossings_numeric,
    gen_standard_knot,
    gen_theorem_knot,
    identify,
    knot_with_phases,
    same_knot_by_phases,
    simplified_phase_point,
    singular_lines,
    theorem_phase_point,
    torus_alexander_oracle,
    writhe,
)
from fourierknot import diagram
from fourierknot.crossings import TYPE_I, TYPE_II, crossing_count, near_pairs
from fourierknot.series import TWO_PI
from laurent_reference import exact_div
from planted import crossing_set

# the whole module runs on the second platform and libm (marker in pyproject.toml)
pytestmark = pytest.mark.platform_pinned

L = LaurentPolynomial


def value_at(poly, t):
    """The exact value of a polynomial with non-negative exponents at an integer t."""
    return sum(c * t**e for e, c in poly.pairs())


def palindromic(poly):
    """Delta(1/t) equals Delta(t) up to a unit, and poly is in normalized form."""
    return L({-e: c for e, c in poly.pairs()}).normalized() == poly


@functools.lru_cache(maxsize=None)
def theorem_set(p, q, simplified=False):
    # shared by the tests that walk PINNED_PAIRS; nothing mutates a set
    params = TorusParams(p, q)
    knot = gen_theorem_knot(params, simplified=simplified)
    return params, knot, analytic_crossing_set(knot, params)


def of_kind(cs, kind):
    """The set's records of one analytic family, in the set's order."""
    return [c for c in cs.crossings if c.indices is not None and c.indices.kind == kind]


def mirrored(knot):
    """Negate z by shifting both phases by pi."""
    flipped = FourierSeries(
        tuple(FourierTerm(t.amplitude, t.frequency, t.phase + math.pi) for t in knot.z.terms)
    )
    return FourierKnot(knot.x, knot.y, flipped)


# -- oracle ------------------------------------------------------------------


def test_oracle_2_3():
    assert torus_alexander_oracle(TorusParams(2, 3)) == L({0: 1, 1: -1, 2: 1})


def test_oracle_2_5():
    assert torus_alexander_oracle(TorusParams(2, 5)) == L({0: 1, 1: -1, 2: 1, 3: -1, 4: 1})


def test_oracle_determinant_at_minus_one():
    assert abs(value_at(torus_alexander_oracle(TorusParams(2, 5)), -1)) == 5


@pytest.mark.parametrize("pq", [(2, 3), (2, 7), (3, 4), (3, 5), (4, 5)])
def test_oracle_symmetry_and_unit_value(pq):
    poly = torus_alexander_oracle(TorusParams(*pq))
    assert palindromic(poly)
    assert abs(value_at(poly, 1)) == 1


def exact_div_oracle(p, q):
    """The reference closed form (t^{pq}-1)(t-1)/((t^p-1)(t^q-1)) by exact division."""

    def cyc(n):  # t^n - 1 as a coefficient list
        return [-1] + [0] * (n - 1) + [1]

    numerator = [1, -1] + [0] * (p * q - 2) + [-1, 1]  # (t^{pq} - 1)(t - 1)
    return L(enumerate(exact_div(exact_div(numerator, cyc(p)), cyc(q)))).normalized()


ORACLE_PAIRS = [(p, q) for q in range(3, 30) for p in range(2, q) if math.gcd(p, q) == 1]
ORACLE_PAIRS += [(19, 41), (23, 47), (29, 59)]


def test_oracle_matches_exact_division():
    assert len(ORACLE_PAIRS) == 241 + 3
    for p, q in ORACLE_PAIRS:
        poly = torus_alexander_oracle(TorusParams(p, q))
        assert poly == exact_div_oracle(p, q), (p, q)
        # degree (p-1)(q-1) from the constant 1, value 1 at t = 1, palindromic, coefficients in {-1, 0, 1}
        assert poly.valuation() == 0 and poly.degree() == (p - 1) * (q - 1), (p, q)
        assert value_at(poly, 1) == 1, (p, q)
        assert palindromic(poly), (p, q)
        assert {c for _, c in poly.pairs()} <= {-1, 1}, (p, q)


# -- gauss code ---------------------------------------------------------------


def test_gauss_code_2_3_structure():
    params, knot, cs = theorem_set(2, 3)
    gc = build_gauss_code(knot, cs)
    assert len(gc) == 14
    ids = [cid for cid, _, _ in gc.entries]
    assert sorted(set(ids)) == list(range(1, 8))
    assert all(ids.count(i) == 2 for i in set(ids))


def test_gauss_code_type1_signs_negative():
    params, knot, cs = theorem_set(2, 3)
    gc = build_gauss_code(knot, cs)
    type1_ids = {
        i + 1 for i, c in enumerate(cs.crossings) if c.indices.kind == TYPE_I
    }
    for cid, _, sign in gc.entries:
        if cid in type1_ids:
            assert sign == -1


def test_gauss_code_empty():
    params = TorusParams(2, 3)
    knot = gen_theorem_knot(params)
    empty = crossing_set(knot, ())
    assert len(build_gauss_code(knot, empty)) == 0


def test_gauss_code_validation():
    with pytest.raises(IncompleteCrossingSet):
        GaussCode(((1, "O", 1), (1, "O", 1)))
    with pytest.raises(IncompleteCrossingSet):
        GaussCode(((1, "O", 1), (1, "U", -1)))
    with pytest.raises(IncompleteCrossingSet):
        GaussCode(((1, "O", 1),))


@pytest.mark.parametrize("code, message", [
    (((1, "X", 1), (1, "U", 1)), "malformed entry (1, 'X', 1)"),
    (((1, "O", 2), (1, "U", 2)), "malformed entry (1, 'O', 2)"),
    # a malformed entry is named before any count, wherever it sits
    (((1, "O", 1), (2, "X", 1)), "malformed entry (2, 'X', 1)"),
    (((1, "O", 1),), "crossing 1 appears 1 times, expected 2"),
    (((1, "O", 1), (1, "U", 1), (1, "O", 1)), "crossing 1 appears 3 times, expected 2"),
    (((1, "O", 1), (1, "O", 1)), "crossing 1 lacks an over/under pair"),
    (((1, "O", 1), (1, "U", -1)), "crossing 1 has inconsistent signs"),
    # two bad crossings: the one that appears first is named, whatever its fault
    (((2, "O", 1), (1, "O", 1), (1, "U", 1), (2, "U", -1), (1, "O", 1)),
     "crossing 2 has inconsistent signs"),
    (((2, "O", 1), (1, "O", 1), (1, "U", 1), (2, "U", 1), (3, "U", 1), (1, "O", 1)),
     "crossing 1 appears 3 times, expected 2"),
])
def test_gauss_code_refusal_messages(code, message):
    with pytest.raises(IncompleteCrossingSet) as err:
        GaussCode(code)
    assert str(err.value) == message


def test_gauss_code_accepts_any_hashable_id_and_the_empty_code():
    code = (("a", "O", -1), ("b", "U", 1), ("a", "U", -1), ("b", "O", 1))
    assert GaussCode(code).entries == code
    assert GaussCode(()).entries == ()
    assert len(GaussCode([])) == 0


# -- pd code ------------------------------------------------------------------


def test_pd_code_labels_twice():
    params, knot, cs = theorem_set(2, 3)
    pd = build_pd_code(cs)
    counts: dict[int, int] = {}
    for tup in pd.crossings:
        for label in tup:
            counts[label] = counts.get(label, 0) + 1
    assert set(counts.values()) == {2}
    assert set(counts) == set(range(1, 15))


def test_pd_code_rejects_bad_labels():
    # a label seen once; labels seen twice but outside 1..2N
    for code in [((1, 2, 3, 4),), ((5, 6, 6, 5),), ((3, 3, 2, 2),), ((1, 1, 0, 0),)]:
        with pytest.raises(SingularDiagram):
            PDCode(code)


@pytest.mark.parametrize("code, message", [
    (((1, 2, 3),), "PD tuple (1, 2, 3) must have four edge labels"),
    # violations in first-appearance order, not sorted
    (((4, 2, 2, 1), (1, 3, 3, 3)), "edge labels must appear exactly twice, violations: {4: 1, 3: 3}"),
    (((5, 6, 6, 5),), "edge labels must be 1..2"),
])
def test_pd_code_refusal_messages(code, message):
    with pytest.raises(SingularDiagram) as err:
        PDCode(code)
    assert str(err.value) == message


def test_malformed_entries_raise_the_domain_error():
    # not a triple: no unpacking error
    with pytest.raises(IncompleteCrossingSet, match=r"^malformed entry \(1, 'O'\)$"):
        GaussCode(((1, "O"),))
    with pytest.raises(IncompleteCrossingSet, match=r"^malformed entry \(1, 'O', 1, 2\)$"):
        GaussCode(((1, "O", 1, 2), (1, "U", 1)))
    # a float label is refused by PDCode, so alexander_from_diagram never indexes with it
    params, knot, cs = theorem_set(2, 3)
    (a, b, c, d), *rest = build_pd_code(cs).crossings
    with pytest.raises(SingularDiagram) as err:
        alexander_from_diagram(PDCode(((a, b, float(c), d), *rest)))
    assert str(err.value) == f"PD tuple {(a, b, float(c), d)} has a non-integer edge label {float(c)!r}"
    with pytest.raises(SingularDiagram, match="non-integer edge label '1'"):
        PDCode((("1", 1, 2, 2),))
    with pytest.raises(SingularDiagram, match=r"non-integer edge label \(2, 2\)$"):
        PDCode(((1, 1, 2, (2, 2)),))
    # numpy integers are integers
    assert alexander_from_diagram(PDCode(np.array(build_pd_code(cs).crossings))) == L({0: 1, 1: -1, 2: 1})


def test_non_iterable_entries_and_unhashable_ids_raise_the_domain_error():
    with pytest.raises(IncompleteCrossingSet, match=r"^malformed entry 1$"):
        GaussCode((1,))
    # the first malformed entry is named, wherever it sits
    with pytest.raises(IncompleteCrossingSet, match=r"^malformed entry None$"):
        GaussCode(((1, "O", 1), None, (1, "U", 1), 2))
    with pytest.raises(IncompleteCrossingSet, match=r"^malformed entry \(\['a'\], 'O', 1\)$"):
        GaussCode(((["a"], "O", 1), (["a"], "U", 1)))
    with pytest.raises(IncompleteCrossingSet, match=r"^malformed entry \(\{\}, 'U', -1\)$"):
        GaussCode((("a", "O", -1), ("a", "U", -1), ({}, "U", -1)))
    with pytest.raises(SingularDiagram, match=r"^PD tuple 5 must have four edge labels$"):
        PDCode((5,))
    with pytest.raises(SingularDiagram, match=r"^PD tuple None must have four edge labels$"):
        PDCode(((1, 2, 1, 2), None))


def test_numpy_arrays_in_entries_raise_the_domain_error():
    # an array compares element by element, and a 0-d int array passes
    # operator.index but cannot be counted: each is refused, first offender first
    with pytest.raises(IncompleteCrossingSet, match=r"^malformed entry \(1, 'O', \[1 1\]\)$"):
        GaussCode(((1, "O", np.array([1, 1])), (1, "U", 1)))
    with pytest.raises(IncompleteCrossingSet, match=r"^malformed entry \(1, array\(\['O', 'U'\]"):
        GaussCode(((1, np.array(["O", "U"]), 1), (1, "U", 1)))
    with pytest.raises(IncompleteCrossingSet, match=r"^malformed entry \(2, 'X', 1\)$"):
        GaussCode(((1, "O", 1), (2, "X", 1), (1, "U", np.array([1])), (2, "U", 1)))
    with pytest.raises(IncompleteCrossingSet, match=r"^malformed entry \(1, 'U', \[1\]\)$"):
        GaussCode(((1, "O", 1), (1, "U", np.array([1]))))
    with pytest.raises(SingularDiagram,
                       match=r"^PD tuple \(1, 2, 1, array\(2\)\) has a non-integer edge label array\(2\)$"):
        PDCode(((1, 2, 1, np.array(2)),))
    with pytest.raises(SingularDiagram, match=r"non-integer edge label array\(\[1\]\)$"):
        PDCode(((1, 2, 2, 1), (np.array([1]), 3, 4, 4)))


def test_built_codes_hold_python_ints():
    params, knot, cs = theorem_set(3, 7)
    gauss, pd = build_gauss_code(knot, cs), build_pd_code(cs)
    assert {type(v) for cid, _, sign in gauss.entries for v in (cid, sign)} == {int}
    assert {type(label) for tup in pd.crossings for label in tup} == {int}
    assert GaussCode(gauss.entries) == gauss and PDCode(pd.crossings) == pd


# -- code validation against the entry-by-entry reference ----------------------


def reference_gauss_check(entries):
    """GaussCode's entry-by-entry validation before it moved to a bincount."""
    entries = tuple(tuple(e) for e in entries)
    seen = {}
    for cid, passage, sign in entries:
        if passage not in ("O", "U") or sign not in (1, -1):
            raise IncompleteCrossingSet(f"malformed entry ({cid}, {passage!r}, {sign})")
        seen.setdefault(cid, []).append((passage, sign))
    for cid, events in seen.items():
        if len(events) != 2:
            raise IncompleteCrossingSet(f"crossing {cid} appears {len(events)} times, expected 2")
        (p1, s1), (p2, s2) = events
        if {p1, p2} != {"O", "U"}:
            raise IncompleteCrossingSet(f"crossing {cid} lacks an over/under pair")
        if s1 != s2:
            raise IncompleteCrossingSet(f"crossing {cid} has inconsistent signs")


def reference_pd_check(crossings):
    """PDCode's tuple-by-tuple validation before it moved to a bincount (integer labels)."""
    crossings = tuple(tuple(x) for x in crossings)
    for tup in crossings:
        if len(tup) != 4:
            raise SingularDiagram(f"PD tuple {tup} must have four edge labels")
    counts = collections.Counter(itertools.chain.from_iterable(crossings))
    bad = {k: v for k, v in counts.items() if v != 2}
    if bad:
        raise SingularDiagram(f"edge labels must appear exactly twice, violations: {bad}")
    if set(counts) != set(range(1, 2 * len(crossings) + 1)):
        raise SingularDiagram(f"edge labels must be 1..{2 * len(crossings)}")


def outcome(check, code):
    """None when check accepts the code, else the exception's type and message."""
    try:
        check(code)
    except Exception as err:
        return type(err), str(err)
    return None


@st.composite
def gauss_codes(draw):
    """A valid code of small int and string ids in random order, then up to three mutations."""
    ids = draw(st.lists(st.integers(-2, 5) | st.sampled_from("ab"), unique=True, max_size=5))
    entries = []
    for cid in ids:
        sign = draw(st.sampled_from([1, -1]))
        entries += [(cid, "O", sign), (cid, "U", sign)]
    entries = draw(st.permutations(entries))
    for _ in range(draw(st.integers(0, 3))):
        if not entries:
            break
        i = draw(st.integers(0, len(entries) - 1))
        cid, passage, sign = entries[i]
        mutation = draw(st.sampled_from(["drop", "copy", "id", "passage", "sign"]))
        if mutation == "drop":
            del entries[i]
        elif mutation == "copy":
            entries.insert(draw(st.integers(0, len(entries))), entries[i])
        elif mutation == "id":
            entries[i] = (draw(st.integers(-2, 6) | st.sampled_from("abc")), passage, sign)
        elif mutation == "passage":
            entries[i] = (cid, draw(st.sampled_from(["O", "U", "X", ""])), sign)
        else:
            entries[i] = (cid, passage, draw(st.sampled_from([1, -1, 0, 2, True, 1.0])))
    return tuple(entries)


@st.composite
def pd_codes(draw):
    """Labels 1..2N, each twice, in random order, then up to three mutations."""
    n = draw(st.integers(0, 4))
    labels = draw(st.permutations([label for label in range(1, 2 * n + 1) for _ in range(2)]))
    code = [list(labels[4 * i:4 * i + 4]) for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        if not code:
            break
        i = draw(st.integers(0, len(code) - 1))
        mutation = draw(st.sampled_from(["label", "drop", "copy", "length"]))
        if mutation == "label":
            code[i][draw(st.integers(0, 3)) % len(code[i])] = draw(st.integers(-1, 2 * n + 2))
        elif mutation == "drop":
            del code[i]
        elif mutation == "copy":
            code.insert(draw(st.integers(0, len(code))), list(code[i]))
        elif draw(st.booleans()):
            code[i].append(draw(st.integers(1, 2 * n)))
        elif code[i]:
            code[i].pop()
    return tuple(map(tuple, code))


@settings(max_examples=400, deadline=None)
@example(code=())
@example(code=((2, "O", 1), (1, "O", 1), (1, "U", 1), (2, "U", -1), (1, "O", 1)))  # first to appear is named
@example(code=((1, "O", 1), (2, "X", 1)))  # a malformed entry is named before any count
@example(code=((1, "O", 1), (True, "U", 1.0)))  # 1 == True == 1.0: one crossing, one sign
@given(code=gauss_codes())
def test_gauss_code_check_matches_reference(code):
    assert outcome(GaussCode, code) == outcome(reference_gauss_check, code)


@settings(max_examples=400, deadline=None)
@example(code=())
@example(code=((4, 2, 2, 1), (1, 3, 3, 3)))  # violations in first-appearance order
@example(code=((1, 2, 3), (1, 2, 3, 4, 4)))  # the first tuple of the wrong length
@example(code=((3, 3, 4, 4), (1, 1, 2, 5)))  # counts before the range
@given(code=pd_codes())
def test_pd_code_check_matches_reference(code):
    assert outcome(PDCode, code) == outcome(reference_pd_check, code)


def test_pd_code_rejects_links():
    # Hopf-link-like pairing: edges split into two strand cycles
    with pytest.raises(NotAKnot):
        alexander_from_diagram(PDCode(((1, 3, 2, 4), (3, 1, 4, 2))))


# -- alexander from the diagram ------------------------------------------------


def test_alexander_2_3():
    params, knot, cs = theorem_set(2, 3)
    assert alexander_from_diagram(build_pd_code(cs)) == L({0: 1, 1: -1, 2: 1})


def test_alexander_2_5():
    params, knot, cs = theorem_set(2, 5)
    assert alexander_from_diagram(build_pd_code(cs)) == torus_alexander_oracle(params)


def test_alexander_unknot():
    assert alexander_from_diagram(PDCode(())) == L.one()


def test_alexander_2_7():
    params, knot, cs = theorem_set(2, 7)
    assert alexander_from_diagram(build_pd_code(cs)) == torus_alexander_oracle(params)


@pytest.mark.parametrize("pq", [(2, 3), (2, 5), (3, 4), (3, 5)])
def test_alexander_symmetry_from_diagram(pq):
    params, knot, cs = theorem_set(*pq)
    poly = alexander_from_diagram(build_pd_code(cs))
    assert palindromic(poly)
    assert abs(value_at(poly, 1)) == 1


# -- writhe --------------------------------------------------------------------


def test_writhe_empty():
    knot = gen_theorem_knot(TorusParams(2, 3))
    assert writhe(crossing_set(knot, ())) == 0


def test_writhe_type1_contribution_3_7():
    params, knot, cs = theorem_set(3, 7)
    assert sum(c.sign for c in of_kind(cs, TYPE_I)) == -14


def test_writhe_decomposition_2_3():
    params, knot, cs = theorem_set(2, 3)
    type2_sum = sum(c.sign for c in of_kind(cs, TYPE_II))
    assert writhe(cs) == -3 + type2_sum


# -- identify ------------------------------------------------------------------


def test_identify_3_7():
    params, knot, cs = theorem_set(3, 7)
    summary = identify(knot, cs, params)
    assert (summary.type1_count, summary.type2_count) == (14, 18)
    assert summary.crossing_count == 32
    assert summary.alexander == torus_alexander_oracle(params)


def test_identify_mirror_fails_on_handedness():
    params = TorusParams(2, 3)
    knot = mirrored(gen_theorem_knot(params))
    cs = analytic_crossing_set(knot, params)
    assert len(cs) == 7  # counts are mirror-invariant
    assert all(c.sign == 1 for c in of_kind(cs, TYPE_I))
    with pytest.raises(IdentificationFailure) as err:
        identify(knot, cs, params)
    assert err.value.condition == "type1-handedness"


def test_identify_names_first_over_direction_failure():
    # x = cos(3t - pi/2) keeps the crossing times but turns half the
    # over-strands of T(3, 7) leftward, the fourth one first; identify names
    # the first in the set's order
    params, knot, cs = theorem_set(3, 7)
    turned = FourierKnot(FourierSeries((FourierTerm(1.0, 3, -math.pi / 2),)), knot.y, knot.z)
    over_times = [c.t1 if c.over == "t1" else c.t2 for c in of_kind(cs, TYPE_II)]
    wrong = [t for t in over_times if turned.x.eval_derivative(t) <= 0.0]
    assert wrong and wrong[0] != over_times[0]
    with pytest.raises(IdentificationFailure, match=f"over-strand at t = {wrong[0]:.6f} is not") as err:
        identify(turned, cs, params)
    assert err.value.condition == "type2-over-direction"


@pytest.mark.parametrize("kind, condition, message", [
    (0, "type1-count", "expected 14 same-direction crossings, found 13"),
    (1, "type2-count", "expected 18 opposite-direction crossings, found 17"),
], ids=["type1", "type2"])
def test_identify_names_a_missing_crossing_of_each_family(kind, condition, message):
    params, knot, cs = theorem_set(3, 7)
    keep = np.arange(len(cs)) != np.flatnonzero(cs.kind == kind)[0]
    columns = (cs.t1, cs.t2, cs.sign, cs.over_t1, cs.kind, cs.k, cs.j)
    fewer = CrossingSet(knot, *(column[keep] for column in columns), cs.method)
    with pytest.raises(IdentificationFailure, match=f"^{condition}: {message}$") as err:
        identify(knot, fewer, params)
    assert err.value.condition == condition


def test_identify_names_an_alexander_mismatch():
    # a numeric set carries no family indices, so only the polynomial can refuse it
    knot = gen_theorem_knot(TorusParams(3, 7))
    cs = find_crossings_numeric(knot, 2048)
    with pytest.raises(IdentificationFailure, match=r"^alexander-mismatch: diagram gives .*, closed form gives ") as err:
        identify(knot, cs, TorusParams(2, 5))
    assert err.value.condition == "alexander-mismatch"
    assert identify(knot, cs, TorusParams(3, 7)).alexander == torus_alexander_oracle(TorusParams(3, 7))


def test_identify_standard_knot_numeric():
    params = TorusParams(2, 3)
    knot = gen_standard_knot(params)
    cs = find_crossings_numeric(knot, 512)
    summary = identify(knot, cs, params)
    assert summary.alexander == L({0: 1, 1: -1, 2: 1})
    assert summary.type1_count is None and summary.type2_count is None
    assert summary.crossing_count == 3


@pytest.mark.parametrize("pq", [(2, 3), (2, 5), (3, 4)])
def test_identify_small_range(pq):
    params, knot, cs = theorem_set(*pq)
    summary = identify(knot, cs, params)
    assert summary.crossing_count == 2 * pq[0] * pq[1] - pq[0] - pq[1]


def test_summary_json():
    params, knot, cs = theorem_set(2, 3)
    text = identify(knot, cs, params).to_json()
    import json

    data = json.loads(text)
    assert data["crossings"] == 7
    assert data["type1"] == 3 and data["type2"] == 4
    assert data["alexander"] == [[0, 1], [1, -1], [2, 1]]


# every coprime p < q <= 29 with fewer than 330 crossings in (q, p) order, then T(11, 24)
PINNED_PAIRS = [
    (p, q) for q in range(3, 30) for p in range(2, q)
    if math.gcd(p, q) == 1 and 2 * p * q - p - q < 330
] + [(11, 24)]


def test_identify_outputs_pinned():
    # identify(...).to_json() as "p q json" lines over PINNED_PAIRS
    lines = []
    for p, q in PINNED_PAIRS:
        params = TorusParams(p, q)
        knot = gen_theorem_knot(params)
        lines.append(f"{p} {q} {identify(knot, analytic_crossing_set(knot, params), params).to_json()}")
    assert len(lines) == 113
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "807284a3314f5c00369d446dc3348ca8c11968926f35712113100a71528a22d1"
    )


def test_identify_path_builds_no_crossing_records(monkeypatch):
    # the set, both codes, identify and verify's phase column read the
    # columns, never a Crossing record or a crossing table's index record
    from fourierknot import crossings as crossings_mod
    from fourierknot import phases as phases_mod

    def refused(name):
        def build(*args, **kwargs):
            raise AssertionError(f"a {name} record was built")
        return build

    real_records = crossings_mod._records

    def records(cls, *columns):
        # _records builds its records without calling cls, so a refused class is called here
        return real_records(cls, *columns) if isinstance(cls, type) else cls()

    monkeypatch.setattr(crossings_mod, "Crossing", refused("Crossing"))
    for module in (crossings_mod, phases_mod):
        monkeypatch.setattr(module, "CrossingIndices", refused("CrossingIndices"))
        monkeypatch.setattr(module, "_records", records)
    crossings_mod._crossing_table.cache_clear()
    params = TorusParams(13, 29)
    knot = gen_theorem_knot(params)
    cs = analytic_crossing_set(knot, params)
    assert len(build_gauss_code(knot, cs)) == 2 * len(cs) == 2 * len(build_pd_code(cs))
    assert identify(knot, cs, params).alexander == torus_alexander_oracle(params)
    params = TorusParams(3, 7)
    knot = gen_theorem_knot(params)
    assert identify(knot, find_crossings_numeric(knot, 2048), params).type1_count is None
    # verify's phase column for an even p
    params = TorusParams(8, 17)
    assert len(singular_lines(params)) == 2 * crossing_count(8, 17)
    assert same_knot_by_phases(params, theorem_phase_point(params), simplified_phase_point(params))
    with pytest.raises(AssertionError, match="record was built"):
        cs.crossings


def test_incomplete_passages_detected():
    params = TorusParams(2, 3)
    knot = gen_theorem_knot(params)
    cs = analytic_crossing_set(knot, params)
    # clone one crossing onto a distinct-but-coincident passage time
    bad = list(cs.crossings)
    bad[1] = bad[1]._replace(t1=bad[0].t1)
    bad.sort(key=lambda c: (c.t1, c.t2))
    broken = crossing_set(knot, bad)
    with pytest.raises(IncompleteCrossingSet):
        build_gauss_code(knot, broken)
    with pytest.raises(IncompleteCrossingSet, match="coincide"):
        identify(knot, broken, params)


def test_passages_coinciding_across_the_wrap_are_refused():
    # the last passage lies within EPS_DEDUPE of the first across t = 2*pi;
    # the two crossings are far apart, so the set itself accepts them
    knot = gen_theorem_knot(TorusParams(2, 3))
    cs = crossing_set(knot, [Crossing(1e-8, 2.0, 1, "t1", (0.0, 0.0)),
                             Crossing(3.0, TWO_PI - 1e-8, 1, "t1", (0.0, 0.0))], "numeric")
    assert cs.coincident_passage == 2 * len(cs) - 1
    with pytest.raises(IncompleteCrossingSet, match="^first and last passages coincide across the wrap$"):
        build_gauss_code(knot, cs)


# -- Wirtinger rows ----------------------------------------------------------------


class _Captured(Exception):
    """Raised by a determinant stand-in once it holds the minor."""


def captured_minor(monkeypatch, fn, *args):
    """The minor fn(*args) hands to det_poly_matrix: rows of (column, pairs) in dict order."""
    seen = []

    def record(minor):
        seen.append(tuple(tuple((col, e.pairs()) for col, e in row.items()) for row in minor))
        raise _Captured

    monkeypatch.setattr(diagram, "det_poly_matrix", record)
    with pytest.raises(_Captured):
        fn(*args)
    return seen[0]


def test_pd_rows_pinned(monkeypatch):
    # the (n-1)-row crossing-relation minors alexander_from_diagram builds
    # from the PD code, entry for entry and in dict order
    digest = hashlib.sha256()
    for p, q in PINNED_PAIRS:
        params, knot, cs = theorem_set(p, q)
        rows = captured_minor(monkeypatch, alexander_from_diagram, build_pd_code(cs))
        digest.update(f"{p} {q} {rows!r}\n".encode())
    assert digest.hexdigest() == (
        "5da002cba82176582a518076789cb517f8a6c3a112de7142b854b5d9e8dca9c5"
    )


SWEEP_ROWS_DIGEST = "141e2a216e89153effa602795f3c65d2b57e02e61966a7dda4e44c56d0f7447a"


def sweep_rows(minor):
    """A sweep minor's term rows as rows of (column, pairs), the form the sweep digests hash.

    Terms are grouped as they come, so a minor whose terms leave column and
    then exponent order renders differently and fails a digest.
    """
    by_column = (itertools.groupby(row, key=lambda term: term[0]) for row in minor)
    return tuple(tuple((c, tuple((e, v) for _, e, v in entry)) for c, entry in row) for row in by_column)


def captured_sweep_rows(monkeypatch, fn, *args):
    """The minor fn(*args) hands to the determinant engine, _det_bareiss_lists, rendered by sweep_rows."""
    seen = []

    def record(minor):
        seen.append(sweep_rows(minor))
        raise _Captured

    with monkeypatch.context() as patch:
        patch.setattr(diagram, "_det_bareiss_lists", record)
        with pytest.raises(_Captured):
            fn(*args)
    return seen[0]


def test_sweep_rows_pinned(monkeypatch):
    # the (p-1)-row bridge minors identify builds from the x-sweep
    digest = hashlib.sha256()
    for p, q in PINNED_PAIRS:
        params, knot, cs = theorem_set(p, q)
        rows = captured_sweep_rows(monkeypatch, identify, knot, cs, params)
        assert len(rows) == p - 1
        digest.update(f"{p} {q} {rows!r}\n".encode())
    assert digest.hexdigest() == SWEEP_ROWS_DIGEST


# -- the x-sweep ---------------------------------------------------------------


def test_sweep_matches_pd_route_on_pinned_pairs():
    for p, q in PINNED_PAIRS:
        params, knot, cs = theorem_set(p, q)
        assert diagram._alexander_from_sweep(knot, cs) == alexander_from_diagram(build_pd_code(cs)), (p, q)


def test_sweep_matches_oracle_beyond_pinned_pairs():
    # the coprime pairs with q < 30 and p <= 13 that PINNED_PAIRS leaves out
    # (50 pairs, 330 to 712 crossings); all 241 pairs with q < 30 agree too
    rest = [(p, q) for q in range(3, 30) for p in range(2, min(q, 14))
            if math.gcd(p, q) == 1 and (p, q) not in PINNED_PAIRS]
    assert len(rest) == 50
    for p, q in rest:
        params, knot, cs = theorem_set(p, q)
        assert diagram._alexander_from_sweep(knot, cs) == torus_alexander_oracle(params), (p, q)


@pytest.mark.parametrize("p, q, grid", [(3, 7, 2048), (7, 13, 4096), (5, 12, 4096)])
def test_sweep_on_numeric_sets(p, q, grid):
    params = TorusParams(p, q)
    knot = gen_theorem_knot(params)
    cs = find_crossings_numeric(knot, grid)
    assert len(cs) == 2 * p * q - p - q
    alex = diagram._alexander_from_sweep(knot, cs)
    assert alex == alexander_from_diagram(build_pd_code(cs)) == torus_alexander_oracle(params)
    assert identify(knot, cs, params).alexander == alex


def test_sweep_refuses_passage_at_critical_time():
    # the type I crossing whose earlier time is nearest a critical time k*pi/3
    # of x = cos(3t), moved to within 5e-7 of it, could lie on either strand
    params, knot, cs = theorem_set(3, 7)
    critical = [k * math.pi / 3 for k in range(1, 6)]
    i = min((i for i, c in enumerate(cs.crossings) if c.indices.kind == TYPE_I),
            key=lambda i: min(abs(cs.crossings[i].t1 - t) for t in critical))
    t = min(critical, key=lambda t: abs(cs.crossings[i].t1 - t))
    moved = list(cs.crossings)
    moved[i] = moved[i]._replace(t1=t + 5e-7)
    moved.sort(key=lambda c: (c.t1, c.t2))
    with pytest.raises(SingularDiagram, match="critical time"):
        diagram._alexander_from_sweep(knot, crossing_set(knot, moved))


@pytest.mark.parametrize("pq", [(2, 3), (2, 5), (3, 4)])
def test_sweep_on_winding_form_numeric_sets(pq):
    # three cosine terms in x: the strands come from the direction of x at the passages
    params = TorusParams(*pq)
    knot = gen_standard_knot(params)
    cs = find_crossings_numeric(knot, 2048)
    alex = diagram._alexander_from_sweep(knot, cs)
    assert alex == alexander_from_diagram(build_pd_code(cs)) == torus_alexander_oracle(params)


def test_sweep_refuses_constant_x():
    # x' = 0 at every passage: no passage has a direction
    params, knot, cs = theorem_set(2, 3)
    constant = FourierKnot(FourierSeries((FourierTerm(1.0, 0),)), knot.y, knot.z)
    with pytest.raises(SingularDiagram, match="critical time"):
        diagram._alexander_from_sweep(constant, cs)


def test_sweep_refuses_a_cycle():
    # x = cos t: strand 0 (t in [0, pi], x falls) meets crossing B before A
    # towards rising x, strand 1 (t in [pi, 2*pi]) meets A before B
    from fourierknot.crossings import Crossing

    knot = one_crossing_knot()
    a = Crossing(0.5, 4.0, -1, "t1", (0.0, 0.0))
    b = Crossing(1.0, 5.0, -1, "t1", (0.0, 0.0))
    with pytest.raises(SingularDiagram, match="cycle through 2 crossing"):
        diagram._alexander_from_sweep(knot, crossing_set(knot, (a, b)))


def test_sweep_refuses_a_determinant_off_one_at_t_1(monkeypatch):
    # a one-component bridge minor has Delta(1) = +-1; a doubled determinant does not
    params, knot, cs = theorem_set(3, 7)
    engine = diagram._det_bareiss_lists

    def doubled(rows):
        low, det = engine(rows)
        return low, [2 * c for c in det]

    monkeypatch.setattr(diagram, "_det_bareiss_lists", doubled)
    with pytest.raises(SingularDiagram, match=r"bridge-relation determinant has Delta\(1\) = -?2, not"):
        diagram._alexander_from_sweep(knot, cs)


def test_pd_route_refuses_a_determinant_off_one_at_t_1(monkeypatch):
    # the Wirtinger minor of one closed strand has Delta(1) = +-1; a doubled determinant does not
    params, knot, cs = theorem_set(3, 7)
    pd = build_pd_code(cs)
    monkeypatch.setattr(diagram, "det_poly_matrix", lambda minor: det_poly_matrix(minor) * 2)
    with pytest.raises(SingularDiagram, match=r"crossing-relation determinant has Delta\(1\) = -?2, not"):
        alexander_from_diagram(pd)


def test_sweep_without_crossings_is_one():
    # no crossing leaves every label at its minimum's generator: a unimodular minor
    params, knot, cs = theorem_set(3, 7)
    assert diagram._alexander_from_sweep(knot, crossing_set(knot, ())) == L.one()


@pytest.mark.parametrize("first", [16, 32, 64, 128, 256])
def test_sweep_width_ladder(monkeypatch, first):
    # passes in fields narrower than `first` bits are refused as if a field
    # had overflowed, so every pinned pair widens from 8 bits to `first` and
    # decodes there: as int64 up to 64 bits, or through Python ints from
    # 64-bit limbs from 128 bits up; every captured minor stays as it was
    label_pass = diagram._label_pass
    widths = set()

    def narrow_refused(steps, f, depth, bits):
        widths.add(bits)
        return label_pass(steps, f, depth, bits) if bits >= first else None

    monkeypatch.setattr(diagram, "_label_pass", narrow_refused)
    digest = hashlib.sha256()
    for p, q in PINNED_PAIRS:
        params, knot, cs = theorem_set(p, q)
        rows = captured_sweep_rows(monkeypatch, diagram._alexander_from_sweep, knot, cs)
        digest.update(f"{p} {q} {rows!r}\n".encode())
    assert digest.hexdigest() == SWEEP_ROWS_DIGEST
    assert sorted(widths) == [8 << k for k in range(first.bit_length() - 3)]
    # equal minors give equal polynomials; a sample runs the whole route
    for p, q in PINNED_PAIRS[::8]:
        params, knot, cs = theorem_set(p, q)
        assert diagram._alexander_from_sweep(knot, cs) == torus_alexander_oracle(params), (p, q)


def sweep_minor_reference(steps, f):
    """The sweep's bridge rows from its steps by LaurentPolynomial arithmetic, generator 0 kept until the end.

    Each row is a {column: entry} dict of its nonzero entries, the form det_poly_matrix takes.
    """
    units = {True: L.monomial(1), False: L.monomial(-1)}
    labels = [[L.one() if g == s // 2 else L.zero() for g in range(f)] for s in range(2 * f)]
    for under, over, rising in steps:
        labels[under] = [o + units[rising] * (l - o) for l, o in zip(labels[under], labels[over])]
    rows = []
    for m in range(1, f):
        entries = [a - b for a, b in zip(labels[2 * m - 1], labels[2 * m])][1:]
        rows.append({c: e for c, e in enumerate(entries) if not e.is_zero})
    return rows


def reference_rows(rows):
    """sweep_minor_reference's rows rendered as sweep_rows renders a minor."""
    return tuple(tuple((c, e.pairs()) for c, e in row.items()) for row in rows)


def recorded_widths(monkeypatch):
    """The list of field widths that _label_pass is called with from now on, in call order."""
    label_pass = diagram._label_pass
    widths = []

    def spy(steps, f, depth, bits):
        widths.append(bits)
        return label_pass(steps, f, depth, bits)

    monkeypatch.setattr(diagram, "_label_pass", spy)
    return widths


# three crossings on a 2-bridge sweep that make the coefficients about four
# times larger per round (42 after three rounds, 169,766 after nine)
GROWING_ROUND = [(0, 2, True), (1, 0, True), (2, 1, True)]


def test_sweep_widens_a_field_that_overflows(monkeypatch):
    # nine rounds make an update leave an 8-bit field and then a 16-bit one;
    # the mask catches both, and the rows come from the 32-bit pass, equal to
    # LaurentPolynomial arithmetic rather than wrapped
    steps = GROWING_ROUND * 9
    depth = len(steps)  # one crossing per level
    for bits in (8, 16):
        assert diagram._label_pass(steps, 2, depth, bits) is None
    assert diagram._label_pass(steps, 2, depth, 32) is not None
    widths = recorded_widths(monkeypatch)
    minor = diagram._sweep_minor(steps, 2, depth)
    rows = sweep_rows(minor)
    assert widths == [8, 16, 32]
    assert all(type(x) is int for row in minor for term in row for x in term)  # read from int64 fields
    assert rows == reference_rows(sweep_minor_reference(steps, 2))
    assert max(abs(v) for row in rows for _, pairs in row for _, v in pairs) > 1 << 13
    # three rounds leave only the 8-bit field, and 16 bits hold them
    steps = steps[:9]
    widths.clear()
    rows = sweep_rows(diagram._sweep_minor(steps, 2, len(steps)))
    assert widths == [8, 16]
    assert rows == reference_rows(sweep_minor_reference(steps, 2))


@pytest.mark.parametrize("rounds", [17, 20, 30])
def test_sweep_det_is_exact_in_64_bit_fields(monkeypatch, rounds):
    # from 17 rounds the coefficients pass 2^32 (about 2^60 after 30), so the
    # labels settle in 64-bit fields; there the squared L1 norms that the
    # Kronecker bound multiplies wrap in int64, and a k sized from wrapped
    # sums gives a wrong polynomial
    steps = GROWING_ROUND * rounds
    widths = recorded_widths(monkeypatch)
    minor = diagram._sweep_minor(steps, 2, len(steps))
    assert widths[-1] == 64
    assert max(abs(v) for row in minor for _, _, v in row) > 1 << 32
    assert all(type(x) is int for row in minor for term in row for x in term)  # np.int64 << k would wrap
    low, det = diagram._det_bareiss_lists(minor)
    assert L(enumerate(det, low)) == det_poly_matrix(sweep_minor_reference(steps, 2))


def test_sweep_matches_oracle_on_the_p2_line():
    # one generator, a 1 x 1 minor and about q levels, up to T(2, 351), the
    # largest p = 2 pair within verify's budget; no pinned pair reaches it
    for q in range(3, 352, 2):
        params = TorusParams(2, q)
        knot = gen_theorem_knot(params)
        cs = analytic_crossing_set(knot, params)
        assert diagram._alexander_from_sweep(knot, cs) == torus_alexander_oracle(params), q


def test_sweep_matches_pd_route_at_random_phases():
    # no oracle: knots at random phase points have diagrams that are not the
    # torus knot's, and the sweep must agree with the PD route on each
    pairs = [(p, q) for q in range(3, 9) for p in range(2, q) if math.gcd(p, q) == 1]
    rng = random.Random(17)
    polys = set()
    for _ in range(60):
        params = TorusParams(*rng.choice(pairs))
        knot = knot_with_phases(params, PhasePoint(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)))
        try:
            cs = analytic_crossing_set(knot, params)
        except SingularCrossing:
            continue
        alex = diagram._alexander_from_sweep(knot, cs)
        assert alex == alexander_from_diagram(build_pd_code(cs)), (params, knot)
        polys.add(alex.pairs())
    assert len(polys) >= 10


def random_pd_codes(rng, count):
    """PD codes of 2-4 crossings, a third of each kind.

    Knot diagrams written the way build_pd_code writes them (random passage
    positions and signs), the same with two label slots swapped, and random
    shuffles of the label multiset (every label twice, so PDCode accepts them).
    """
    for i in range(count):
        n = rng.randint(2, 4)
        if i % 3 < 2:
            pos = list(range(2 * n))
            rng.shuffle(pos)
            flat = []
            for under, over in zip(pos[::2], pos[1::2]):
                a, c, o_in, o_out = under or 2 * n, under + 1, over or 2 * n, over + 1
                flat += (a, o_out, c, o_in) if rng.random() < 0.5 else (a, o_in, c, o_out)
            if i % 3 == 1:
                s, u = rng.sample(range(4 * n), 2)
                flat[s], flat[u] = flat[u], flat[s]
        else:
            flat = [e for e in range(1, 2 * n + 1) for _ in range(2)]
            rng.shuffle(flat)
        yield tuple(tuple(flat[k:k + 4]) for k in range(0, 4 * n, 4))


def test_random_pd_codes_pinned():
    # which codes are accepted, and their polynomials; every rejection is a
    # NotAKnot or a SingularDiagram
    one_crossing = [(code,) for code in itertools.product((1, 2), repeat=4)]
    codes = one_crossing + list(random_pd_codes(random.Random(20261018), 3000))
    digest = hashlib.sha256()
    accepted = 0
    for code in codes:
        try:
            poly = alexander_from_diagram(PDCode(code))
        except (NotAKnot, SingularDiagram):
            continue
        accepted += 1
        digest.update(f"{code} {poly.pairs()}\n".encode())
    assert (accepted, digest.hexdigest()) == (
        1190, "469678a050e62ad0044f2873783d2f5ad72930a1d964f4d085cc626bf2c5c067"
    )


def test_pd_code_under_pair_fault():
    # one closed strand (1-2-3-4-1 through the strand pairings), but the
    # first crossing's under-strand edges (2, 1) are not consecutive
    with pytest.raises(NotAKnot, match="under-strand"):
        alexander_from_diagram(PDCode(((2, 3, 1, 4), (2, 1, 3, 4))))


def test_pd_code_over_pair_fault():
    # one closed strand (1-2-4-3-1), but neither over pair is consecutive
    with pytest.raises(SingularDiagram, match="over-strand"):
        alexander_from_diagram(PDCode(((1, 2, 2, 4), (3, 3, 4, 1))))


def test_pd_code_link_with_over_pair_fault():
    # two faults: several components and a non-consecutive over pair; the
    # over pair is read first
    with pytest.raises(SingularDiagram, match="over-strand"):
        alexander_from_diagram(PDCode(((4, 5, 5, 6), (2, 4, 3, 1), (3, 1, 2, 6))))


# -- passage positions -----------------------------------------------------------


def passage_positions(cs):
    """(under position, over position, sign) per crossing, as _pd_orientation reads them back."""
    return [(u, o, s) for (u, o), s in zip(diagram._passage_positions(cs).tolist(), cs.sign.tolist())]


def one_crossing_knot():
    """x = cos t, y = cos(2t + pi/2), z = cos(t - pi/2): a single left-handed crossing."""
    def term(frequency, phase):
        return FourierSeries((FourierTerm(1.0, frequency, phase),))

    return FourierKnot(term(1, 0.0), term(2, math.pi / 2), term(1, -math.pi / 2))


def test_one_crossing_code_reads_back_left_handed():
    knot = one_crossing_knot()
    cs = find_crossings_numeric(knot, 2048)
    assert [c.sign for c in cs.crossings] == [-1]
    pd = build_pd_code(cs)
    assert pd.crossings == ((1, 2, 2, 1),)
    # with N = 1 both readings of the over pair fit; the over-strand enters
    # on the edge the under-strand does not
    assert diagram._pd_orientation(pd) == passage_positions(cs) == [(1, 0, -1)]
    assert alexander_from_diagram(pd) == L.one()


@pytest.mark.parametrize("q", [5, 7])
def test_set_with_dropped_singular_candidates_is_refused(q):
    # the short phase pi/(2p) lies on singular lines for odd p: the finder
    # drops the candidates whose strands meet in space, and what is left is
    # no knot diagram
    params = TorusParams(3, q)
    knot = knot_with_phases(params, simplified_phase_point(params))
    diagnostics = []
    cs = find_crossings_numeric(knot, 2048, diagnostics)
    dropped = sum(status == "singular" for status, _, _ in diagnostics)
    assert dropped > 0 and cs.singular_candidates == dropped
    assert len(cs) == 2 * 3 * q - 3 - q - dropped
    for build in (lambda: build_gauss_code(knot, cs), lambda: build_pd_code(cs),
                  lambda: identify(knot, cs, params)):
        with pytest.raises(IncompleteCrossingSet, match=f"{dropped} singular candidate"):
            build()


def random_cosine_series(rng, terms=2, top=4):
    """1 to terms cosine terms with frequencies 1 to top."""
    return FourierSeries(tuple(
        FourierTerm(rng.uniform(0.5, 1.5), rng.randint(1, top), rng.uniform(0.0, 2 * math.pi))
        for _ in range(rng.randint(1, terms))
    ))


def has_fold(knot, cs):
    """Whether x turns twice between two passages that move the same way: the sweep must cut there."""
    t = cs.passages[0]
    up = knot.x.eval_derivative(t) > 0.0
    back = np.diff(knot.x.eval(t)) * np.where(up[1:], 1.0, -1.0) <= 0.0
    return bool(np.any((up[1:] == up[:-1]) & back))


def with_phases(knot, phase):
    """The knot with every term's phase replaced by phase(term)."""
    def series(s):
        return FourierSeries(tuple(FourierTerm(t.amplitude, t.frequency, phase(t)) for t in s.terms))

    return FourierKnot(series(knot.x), series(knot.y), series(knot.z))


def numeric_alexander(knot, folds=None):
    """Alexander polynomial of the knot's numeric set at grid 2048 by the PD route and the sweep.

    None when the finder reported a failed candidate.  A set that dropped a
    singular candidate must be refused.
    """
    diagnostics = []
    cs = find_crossings_numeric(knot, 2048, diagnostics)
    if any(status == "singular" for status, _, _ in diagnostics):
        with pytest.raises(IncompleteCrossingSet, match="singular candidate"):
            build_pd_code(cs)
    if diagnostics:
        return None
    pd = build_pd_code(cs)
    assert diagram._pd_orientation(pd) == passage_positions(cs)
    alex = alexander_from_diagram(pd)
    assert diagram._alexander_from_sweep(knot, cs) == alex
    if folds is not None:
        folds.append(has_fold(knot, cs))
    return alex


def test_random_cosine_knots_alexander_metamorphic():
    # no oracle: the PD route and the sweep agree, and the polynomial is
    # unchanged by the mirror z -> -z, a shift of t and a reversal of t; with
    # 1-3 terms and frequencies up to 7 several knot types come out, and
    # some sets make the sweep cut at a fold of x
    rng = random.Random(4)
    usable = 0
    seen = set()
    folds: list[bool] = []
    for _ in range(80):
        knot = FourierKnot(*(random_cosine_series(rng, 3, 7) for _ in range(3)))
        delta = rng.uniform(0.0, 2 * math.pi)
        variants = [
            mirrored(knot),
            with_phases(knot, lambda t: t.phase + t.frequency * delta),
            with_phases(knot, lambda t: -t.phase),
        ]
        alex = numeric_alexander(knot, folds)
        if alex is None:
            continue
        polys = [numeric_alexander(k, folds) for k in variants]
        if None in polys:
            continue
        usable += 1
        seen.add(alex.pairs())
        assert polys == [alex] * 3
        assert abs(value_at(alex, 1)) == 1
        assert palindromic(alex)
    assert usable >= 50 and len(seen) >= 10 and any(folds)


def test_random_cosine_knots_grid_doubling():
    # no oracle: of 60 seeded knots with 1-2 terms and frequencies up to 4,
    # every one without diagnostics at grids 2048 and 4096 finds the same
    # crossings at both
    rng = random.Random(4)
    compared = 0
    for _ in range(60):
        knot = FourierKnot(*(random_cosine_series(rng) for _ in range(3)))
        diagnostics = []
        coarse = find_crossings_numeric(knot, 2048, diagnostics)
        fine = find_crossings_numeric(knot, 4096, diagnostics)
        if diagnostics:
            continue
        compared += 1
        n = len(coarse)
        assert len(fine) == n
        pairs = near_pairs(np.concatenate((coarse.t1, fine.t1)), np.concatenate((coarse.t2, fine.t2)))
        across = [(i, j) for i, j in pairs if i < n <= j]
        assert {i for i, _ in across} == set(range(n))
        assert {j for _, j in across} == set(range(n, 2 * n))
    assert compared >= 20
