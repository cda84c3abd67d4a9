import json
from fractions import Fraction
from itertools import count, islice
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cherloc import (
    ASSUMED_LEMMAS,
    Certificate,
    DeformationError,
    IndexMode,
    KappaMode,
    Params,
    content_table,
    deform_formal,
    deform_rational,
    index_classes,
    localize,
    theta_of_p,
    verify_preservation,
)
from cherloc import deform
from cherloc.boxorder import box_equiv, box_less
from cherloc.deform import RETRY_BOUND, _candidate, _gap_vector, required_checks
from test_acceptance import box_grid

HALF = KappaMode.rational(Fraction(1, 2))
FORMAL = KappaMode.formal()


def test_pinned_instance_certificate():
    cert = localize(Params.build(HALF, [0]), 2)
    assert cert.plan == {"M": 3, "m": [0]}
    assert cert.p_prime.kappa.a == Fraction(3, 2)
    assert [s.a for s in cert.p_prime.h] == [0]
    assert [(t.a, t.b) for t in cert.theta.theta] == [(Fraction(-3, 2), 0)]
    assert [(c["name"], c["passed"]) for c in cert.checks] == [
        ("integral_difference", True),
        ("box_order_preserved", True),
        ("theta_generic", True),
        ("order_relation_equal", True),
        ("spherical", None),
    ]
    assert cert.conventions == {
        "h_normalization": "sum-zero",
        "p_prime_first_slot": "kappa-prime",
        "genericity_index_mode": "literal",
    }


def test_integer_kappa_takes_the_first_multiplier():
    p2, plan = deform_rational(Params.build(KappaMode.rational(1), [0]), 2)
    assert plan == {"M": 2, "m": [0]}
    assert p2.kappa.a == 2


def test_formal_example_plan_and_parameters():
    p = Params.build(FORMAL, [Fraction(1, 4), Fraction(-1, 4)])
    cert = localize(p, 2)
    assert cert.plan == {"M": 1, "m": [0, 2]}
    assert [(s.a, s.b) for s in cert.p_prime.h] == [
        (Fraction(5, 4), 0),
        (Fraction(-5, 4), 0),
    ]
    assert [(t.a, t.b) for t in cert.theta.theta] == [
        (Fraction(5, 2), -1),
        (Fraction(-5, 2), 0),
    ]
    assert not cert.p_prime.mode.is_rational


def test_tight_instance_widens_the_last_gap():
    p = Params.build(
        KappaMode.rational(1), [Fraction(1, 8), 0, 0, Fraction(-1, 8)]
    )
    p2, plan = deform_rational(p, 2)
    assert plan == {"M": 9, "m": [0, 1, 3, 8]}
    assert [s.a for s in p2.h] == [Fraction(9, 8), 1, 1, Fraction(-25, 8)]
    assert p2.kappa.a == 9
    assert verify_preservation(p, p2, 2) is None


# h = (-1/4, 1/4): box (1,1,0) lies below (1,1,1).  Every candidate has
# m_1 > m_0, so h_1 - m_1 <= h_0 - m_0 - 1/2 and the pair no longer holds.
BLOCKED_FAILURE = {
    "check": "box_order_preserved",
    "b1": [1, 1, 0],
    "b2": [1, 1, 1],
    "predicate": "less",
    "before": True,
    "after": False,
}


def test_blocked_formal_instance_raises():
    p = Params.build(FORMAL, [Fraction(-1, 4), Fraction(1, 4)])
    with pytest.raises(DeformationError) as info:
        deform_formal(p, 2)
    diagnostics = info.value.diagnostics
    assert sorted(diagnostics) == ["candidates_tried", "index_classes", "last", "mode"]
    assert diagnostics["mode"] == "formal"
    assert diagnostics["candidates_tried"] == 64
    assert diagnostics["last"]["failure"] == BLOCKED_FAILURE
    assert diagnostics["index_classes"] == [[0, 1]]


def test_blocked_benchmark_instance_reports_the_same_pair():
    # The blocked localize instance of the benchmark: ell = 2, n = 8.
    p = Params.build(FORMAL, [Fraction(-1, 4), Fraction(1, 4)])
    with pytest.raises(DeformationError) as info:
        deform_formal(p, 8)
    assert info.value.diagnostics["candidates_tried"] == 64
    assert info.value.diagnostics["last"]["failure"] == BLOCKED_FAILURE


def test_search_reports_a_genericity_failure_by_its_witness():
    p = Params.build(KappaMode.rational(1), [Fraction(1, 4), Fraction(-1, 4)])
    with pytest.raises(DeformationError) as info:
        deform_rational(p, 2, IndexMode.INCLUDE_ZERO, retry_bound=2)
    assert info.value.diagnostics["last"] == {
        "plan": {"M": 5, "m": [0, 2]},
        "failure": {
            "check": "theta_generic",
            "witness": {"kind": "difference", "i": 0, "j": 1, "m": 0},
        },
    }


@pytest.mark.parametrize(
    "p, p2, detail",
    [
        # kappa moved by a non-integer
        (Params.build(HALF, [0]), Params.build(KappaMode.rational(Fraction(3, 4)), [0]),
         {"slot": "kappa", "difference": "1/4"}),
        # integral kappa shift, non-integral rational h shift
        (Params.build(HALF, [0, 0]),
         Params.build(KappaMode.rational(Fraction(3, 2)), [Fraction(1, 2), Fraction(-1, 2)]),
         {"slot": "h_0", "difference": "1/2"}),
        # a formal h shift with a kappa part
        (Params.build(FORMAL, [0, 0]),
         Params.build(FORMAL, [FORMAL.scalar(Fraction(1, 2), 1),
                               FORMAL.scalar(Fraction(-1, 2), -1)]),
         {"slot": "h_0", "difference": "1/2+1/1k"}),
    ],
)
def test_integral_difference_reports_the_first_bad_slot(p, p2, detail):
    # Neither schedule builds such a candidate, so craft p2 directly.
    first = next(required_checks(p, p2, 1, IndexMode.LITERAL))
    assert first == {"name": "integral_difference", "passed": False, "detail": detail}


def test_blocked_instance_respects_retry_bound():
    p = Params.build(FORMAL, [Fraction(-1, 4), Fraction(1, 4)])
    with pytest.raises(DeformationError) as info:
        deform_formal(p, 2, retry_bound=5)
    assert info.value.diagnostics["candidates_tried"] == 5


def test_negative_retry_bound_rejected():
    for p in (Params.build(HALF, [0]), Params.build(FORMAL, [0])):
        deform = deform_rational if p.mode.is_rational else deform_formal
        with pytest.raises(ValueError, match="retry_bound"):
            deform(p, 2, retry_bound=-1)
        with pytest.raises(DeformationError) as info:  # 0 tries no candidate
            deform(p, 2, retry_bound=0)
        assert info.value.diagnostics["candidates_tried"] == 0


def test_mode_guards():
    rational = Params.build(HALF, [0, 0])
    formal = Params.build(FORMAL, [0, 0])
    with pytest.raises(ValueError):
        deform_rational(formal, 2)
    with pytest.raises(ValueError):
        deform_formal(rational, 2)
    with pytest.raises(ValueError, match="^kappa must be nonzero$"):
        deform_rational(Params.build(KappaMode.rational(0), [0]), 2)
    # The retry bound is checked by the search, after the mode's own guards.
    with pytest.raises(ValueError, match="^kappa must be nonzero$"):
        deform_rational(Params.build(KappaMode.rational(0), [0]), 2, retry_bound=-1)


def test_localize_input_guards():
    with pytest.raises(ValueError):
        localize(Params.build(HALF, [0]), 0)
    with pytest.raises(ValueError):
        localize(Params.build(KappaMode.rational(0), [0]), 2)


# At ell = 3 the shifts (i - j)/ell of box_equiv and (j - i)/ell of
# index_classes differ: h = (0, 1/3, 2/3) puts boxes (1,1,i) of all three
# components in one content class, yet its index classes are singletons.
# ROADMAP item 3's open question (which i/ell shift relates components)
# decides the ell = 3 rows.
@pytest.mark.parametrize(
    "mode, h, expected",
    [
        (FORMAL, [Fraction(1, 4), Fraction(-1, 4)], [[0, 1]]),
        (FORMAL, [Fraction(1, 3), Fraction(-1, 3)], [[0], [1]]),
        (HALF, [Fraction(1, 4), Fraction(-1, 4)], [[0, 1]]),
        (HALF, [Fraction(1, 2), Fraction(-1, 2)], [[0], [1]]),
        (FORMAL, [0, Fraction(1, 3), Fraction(2, 3)], [[0], [1], [2]]),
        (FORMAL, [0, Fraction(-1, 3), Fraction(-2, 3)], [[0, 1, 2]]),
        (HALF, [0, Fraction(1, 3), Fraction(2, 3)], [[0], [1], [2]]),
        (HALF, [0, Fraction(-1, 3), Fraction(-2, 3)], [[0, 1, 2]]),
    ],
)
def test_index_classes(mode, h, expected):
    assert index_classes(Params.build(mode, h)) == expected


def index_classes_from_s_coordinates(p):
    """Oracle: the classes as first written, through coordinates s_i.

    kappa*s_i = h_i + i/ell; each s_i is (constant part, coefficient of
    1/kappa), and in rational mode the value collapses into the constant
    part.  s_i ~ s_j when s_i - s_j lies in (1/kappa)*Z.
    """
    coords = []
    for i, entry in enumerate(p.h):
        inv_part = entry.a + Fraction(i, p.ell)
        if p.mode.is_rational:
            coords.append((inv_part / p.mode.value, Fraction(0)))
        else:
            coords.append((entry.b, inv_part))
    classes, reps = [], []
    for i, (const, inv) in enumerate(coords):
        for idx, (rep_const, rep_inv) in enumerate(reps):
            if p.mode.is_rational:
                related = ((const - rep_const) * p.mode.value).denominator == 1
            else:
                related = const == rep_const and (inv - rep_inv).denominator == 1
            if related:
                classes[idx].append(i)
                break
        else:
            reps.append((const, inv))
            classes.append([i])
    return classes


@st.composite
def deform_params(draw, max_ell=5):
    """Parameters of either mode, ell <= max_ell, offsets with denominators up to
    12 or ell, so that components often share classes; formal offsets carry
    equal or unequal kappa parts.  kappa is nonzero, as localize requires."""
    ell = draw(st.integers(1, max_ell))
    dens = sorted({1, 2, 3, 4, 6, 12, ell, 2 * ell})
    rationals = st.builds(Fraction, st.integers(-12, 12), st.sampled_from(dens))
    a = [draw(rationals) for _ in range(ell)]
    if draw(st.booleans()):
        kappa = draw(rationals.filter(lambda value: value != 0))
        return Params.build(KappaMode.rational(kappa), a)
    k_parts = st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-2, 3)])
    if draw(st.booleans()):
        b = [draw(k_parts)] * ell
    else:
        b = [draw(k_parts) for _ in range(ell)]
    return Params.build(FORMAL, [FORMAL.scalar(x, y) for x, y in zip(a, b)])


@settings(max_examples=300, deadline=None)
@given(p=deform_params())
def test_index_classes_agree_with_the_s_coordinate_oracle(p):
    assert index_classes(p) == index_classes_from_s_coordinates(p)


def rational_candidates_oracle(p, retry_bound):
    """Oracle: deform_rational's candidate generator as first written."""
    kappa = p.mode.value
    base = [p.h[i].a + Fraction(i, p.ell) for i in range(p.ell)]
    D = lcm(kappa.denominator, *(value.denominator for value in base))
    sweep = ((t, total - t) for total in count(2) for t in range(1, total))
    for t, gap in islice(sweep, retry_bound):
        M = 1 + t * D
        m = _gap_vector(p.ell, gap)
        delta = [(M - 1) * base[i] - m[i] for i in range(p.ell)]
        remainder = int(sum(delta)) % p.ell
        m[-1] += remainder
        delta[-1] -= remainder
        p2 = Params.build(
            KappaMode.rational(M * kappa),
            [p.h[i].a + delta[i] for i in range(p.ell)],
        )
        yield p2, {"M": M, "m": m}


def formal_candidates_oracle(p, retry_bound):
    """Oracle: deform_formal's candidate generator as first written."""
    for gap in range(1, retry_bound + 1):
        m = _gap_vector(p.ell, gap)
        m[-1] += (-sum(m)) % p.ell
        p2 = Params(p.mode, tuple(p.h[i] - m[i] for i in range(p.ell)))
        yield p2, {"M": 1, "m": m}


def fed_candidates(p, size):
    """The candidates of the first size (M, gap) pairs of the schedule that
    deform_rational or deform_formal hands to the search."""
    seen = []

    def capture(p, n, index_mode, schedule, retry_bound, diagnostics):
        seen.extend(_candidate(p, M, gap) for M, gap in islice(schedule, retry_bound))
        return seen[0]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(deform, "_search", capture)
        (deform_rational if p.mode.is_rational else deform_formal)(p, 1, retry_bound=size)
    return seen


@settings(max_examples=200, deadline=None)
@given(p=deform_params(), size=st.integers(1, 6))
def test_candidates_agree_with_the_per_mode_generators(p, size):
    oracle = rational_candidates_oracle if p.mode.is_rational else formal_candidates_oracle
    assert fed_candidates(p, size) == list(oracle(p, size))


def test_preservation_violation_reports_the_pair():
    p = Params.build(HALF, [0])
    p2 = Params.build(KappaMode.rational(Fraction(1, 3)), [0])
    violation = verify_preservation(p, p2, 2)
    assert violation == {
        "b1": [1, 2, 0],
        "b2": [2, 1, 0],
        "predicate": "equiv",
        "before": True,
        "after": False,
    }


def verify_preservation_pairwise(p, p2, n):
    """Oracle: box_equiv and box_less evaluated pair by pair with exact scalars.

    Same walk as verify_preservation: b1 outer, b2 inner, equivalence
    tested before order; returns the first disagreement, or None.
    """
    grid = box_grid(p.ell, n)
    for b1 in grid:
        for b2 in grid:
            before, after = box_equiv(p, b1, b2), box_equiv(p2, b1, b2)
            if before != after:
                return {"b1": [*b1], "b2": [*b2], "predicate": "equiv",
                        "before": before, "after": after}
            before, after = box_less(p, b1, b2), box_less(p2, b1, b2)
            if before != after:
                return {"b1": [*b1], "b2": [*b2], "predicate": "less",
                        "before": before, "after": after}
    return None


SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=6)
# kappa = 0 ties every box of a component, so "<" and "<=" part there.
KAPPAS = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(1)]) | SMALL


@st.composite
def offsets(draw, ell):
    """Rational parts of h: arbitrary, or h_i = i/ell + integer so that
    the components share content classes and cross-component order
    relations exist to break."""
    if draw(st.booleans()):
        return [draw(SMALL) for _ in range(ell)]
    return [Fraction(i, ell) + draw(st.integers(-2, 2)) for i in range(ell)]


@st.composite
def preservation_cases(draw):
    ell = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    shifts = [draw(st.integers(-3, 3)) for _ in range(ell)]
    kind = draw(st.sampled_from(["rational", "formal", "ties", "unrelated"]))
    if kind == "rational":
        # kappa' = M*kappa with M = 1 + t*D, as deform_rational builds it:
        # every content minus i/ell is scaled by M, then shifted by -m_i.
        kappa = draw(KAPPAS)
        h = draw(offsets(ell))
        base = [h[i] + Fraction(i, ell) for i in range(ell)]
        D = lcm(kappa.denominator, *(value.denominator for value in base))
        M = 1 + draw(st.integers(0, 3)) * D
        p = Params.build(KappaMode.rational(kappa), h)
        p2 = Params.build(
            KappaMode.rational(M * kappa),
            [M * base[i] - Fraction(i, ell) - shifts[i] for i in range(ell)],
        )
    elif kind == "formal":
        k_parts = st.sampled_from([0, 1, -1, Fraction(1, 2)])
        h = [FORMAL.scalar(a, draw(k_parts)) for a in draw(offsets(ell))]
        p = Params.build(FORMAL, h)
        p2 = Params.build(FORMAL, [h[i] - shifts[i] for i in range(ell)])
    elif kind == "ties":
        # Under kappa = 0 all boxes of a component tie; an integer kappa'
        # keeps the classes and orders those boxes by their diagonal.
        h = draw(offsets(ell))
        p = Params.build(KappaMode.rational(0), h)
        kappa2 = KappaMode.rational(draw(st.sampled_from([1, -1, 2])))
        p2 = Params.build(kappa2, [h[i] - shifts[i] for i in range(ell)])
    else:
        # Independent parameters, mostly with a different class partition.
        p = Params.build(KappaMode.rational(draw(KAPPAS)), [draw(SMALL) for _ in range(ell)])
        mode = draw(st.sampled_from([FORMAL, KappaMode.rational(draw(KAPPAS))]))
        p2 = Params.build(mode, [draw(SMALL) for _ in range(ell)])
    return p, p2, n


@settings(max_examples=150, deadline=None)
@given(case=preservation_cases())
def test_preservation_from_tables_agrees_with_the_pairwise_oracle(case):
    p, p2, n = case
    assert verify_preservation(p, p2, n) == verify_preservation_pairwise(p, p2, n)


@settings(max_examples=150, deadline=None)
@given(case=preservation_cases())
def test_pair_outcomes_depend_only_on_components_and_diagonal_difference(case):
    # The lemma behind the row-1/column-1 walk: whether two boxes share a class,
    # and whether the first has the smaller content, is a function of
    # (i1, i2, d1 - d2); so every violation lies in row 1 or column 1.
    p, p2, n = case
    for q in (p, p2):
        outcomes = {}
        table = content_table(q, box_grid(q.ell, n)).items()
        for b1, (class1, content1) in table:
            for b2, (class2, content2) in table:
                key = (b1.i, b2.i, (b1.y - b1.x) - (b2.y - b2.x))
                outcome = (class1 == class2, content1 < content2)
                assert outcomes.setdefault(key, outcome) == outcome
    violation = verify_preservation(p, p2, n)
    if violation is not None:
        assert 1 in violation["b1"][:2] and 1 in violation["b2"][:2]


def test_preservation_is_reflexive():
    p = Params.build(HALF, [Fraction(1, 4), Fraction(-1, 4)])
    assert verify_preservation(p, p, 3) is None


def test_preservation_compiles_only_row_1_and_column_1(monkeypatch):
    p = Params.build(HALF, [Fraction(1, 7), Fraction(2, 7), Fraction(3, 7), 0])
    p2, _ = deform._candidate(p, 15, 1)
    expected = {n: verify_preservation(p, p2, n) for n in (1, 3, 8)}
    compiled = []

    def recording_table(q, boxes):
        boxes = list(boxes)
        compiled.append((q, boxes))
        return content_table(q, boxes)

    monkeypatch.setattr(deform, "content_table", recording_table)
    for n, violation in expected.items():
        compiled.clear()
        assert verify_preservation(p, p2, n) == violation
        edge = [box for box in box_grid(p.ell, n) if 1 in (box.x, box.y)]
        assert len(edge) == p.ell * (2 * n - 1)
        assert compiled == [(p, edge), (p2, edge)]


def test_preservation_refuses_an_empty_grid():
    p = Params.build(HALF, [Fraction(1, 4), Fraction(-1, 4)])
    for n in (0, -1):
        with pytest.raises(ValueError, match="n >= 1"):
            verify_preservation(p, p, n)


@settings(max_examples=100, deadline=None)
@given(p=deform_params(max_ell=4))
def test_every_candidate_plan_is_well_formed(p):
    # _candidate is the only producer of plans, over both schedules.
    for p2, plan in fed_candidates(p, RETRY_BOUND):
        assert sorted(plan) == ["M", "m"]
        assert all(a < b for a, b in zip(plan["m"], plan["m"][1:]))
        # kappa' = M*kappa; M = 1, which keeps the mode, exactly in formal mode.
        assert (plan["M"] == 1) == (not p.mode.is_rational)
        if p.mode.is_rational:
            assert p2.mode == KappaMode.rational(plan["M"] * p.mode.value)
        else:
            assert p2.mode == p.mode


def test_certificate_rejects_failed_checks():
    cert = localize(Params.build(HALF, [0]), 1)
    bad = ({"name": "integral_difference", "passed": False, "detail": {}},)
    with pytest.raises(ValueError):
        Certificate(cert.p, cert.p_prime, cert.plan, bad, cert.index_mode)


@pytest.mark.parametrize("mode", list(IndexMode))
@pytest.mark.parametrize("kappa", [HALF, FORMAL])
def test_certificate_reads_theta_and_conventions_off_what_it_verified(mode, kappa):
    cert = localize(Params.build(kappa, [Fraction(1, 4), Fraction(-1, 4)]), 2,
                    index_mode=mode)
    assert cert.index_mode is mode
    assert cert.theta == theta_of_p(cert.p_prime)
    assert cert.conventions["genericity_index_mode"] == mode.value
    assert cert.to_json()["theta"] == theta_of_p(cert.p_prime).to_json()
    with pytest.raises(TypeError):
        Certificate(cert.p, cert.p_prime, cert.plan, cert.checks, theta=cert.theta)


def test_certificate_requires_two_lemmas():
    cert = localize(Params.build(HALF, [0]), 1)
    assert len(cert.assumed_lemmas) == 2
    assert cert.assumed_lemmas == ASSUMED_LEMMAS


def test_oracle_bound_skips_the_relation_check():
    cert = localize(Params.build(HALF, [0]), 2, oracle_bound=1)
    check = {c["name"]: c for c in cert.checks}["order_relation_equal"]
    assert check["passed"] is None
    assert check["detail"] == {"skipped": "n > 1"}


def test_negative_oracle_bound_rejected():
    p = Params.build(HALF, [0])
    with pytest.raises(ValueError, match="need oracle_bound >= 0"):
        localize(p, 2, oracle_bound=-1)
    check = {c["name"]: c for c in localize(p, 2, oracle_bound=0).checks}
    assert check["order_relation_equal"]["detail"] == {"skipped": "n > 0"}


def test_localize_is_deterministic():
    p = Params.build(HALF, [Fraction(1, 4), Fraction(-1, 4)])
    first = localize(p, 2).to_json()
    second = localize(p, 2).to_json()
    assert first == second
    json.dumps(first)


def test_certificate_json_shape():
    cert = localize(Params.build(HALF, [0]), 2)
    blob = cert.to_json()
    assert sorted(blob) == [
        "assumed_lemmas",
        "checks",
        "conventions",
        "p",
        "p_prime",
        "plan",
        "theta",
    ]
    json.dumps(blob)


@pytest.mark.parametrize(
    "mode, h",
    [
        (KappaMode.rational(Fraction(1, 2)), [0]),
        (KappaMode.rational(Fraction(-1, 2)), [0]),
        (KappaMode.rational(Fraction(2, 3)), [Fraction(1, 3), Fraction(-1, 3)]),
        (KappaMode.rational(1), [Fraction(1, 8), 0, 0, Fraction(-1, 8)]),
        (FORMAL, [Fraction(1, 4), Fraction(-1, 4)]),
        (FORMAL, [0, 0, 0]),
    ],
)
def test_certified_theta_sums_to_minus_kappa_prime(mode, h):
    p = Params.build(mode, h)
    cert = localize(p, 2)
    assert all(c["passed"] for c in cert.checks if c["passed"] is not None)
    assert cert.theta.total() == -cert.p_prime.kappa
