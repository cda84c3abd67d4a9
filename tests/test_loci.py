import random
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from cherloc import (
    ContentHyperplane,
    IndexMode,
    KappaFraction,
    KappaMode,
    Params,
    Stability,
    aspherical_witnesses,
    genericity_witness,
    index_classes,
    is_N_in_bound,
    theta_of_p,
)

FORMAL = KappaMode.formal()


def theta_of(mode, *values):
    return Stability(tuple(mode.scalar(v) for v in values))


def test_zero_sum_is_never_generic():
    mode = KappaMode.rational(1)
    witness = genericity_witness(theta_of(mode, 0), 5)
    assert witness == {"kind": "sum"}
    assert genericity_witness(theta_of(mode, 1, -1), 2) == {"kind": "sum"}


def test_genericity_needs_nonnegative_n():
    theta = theta_of(KappaMode.rational(1), 1, 2)
    with pytest.raises(ValueError, match="need n >= 0"):
        genericity_witness(theta, -2)
    assert genericity_witness(theta, 0) is None


def test_literal_mode_skips_component_zero():
    p = Params.build(KappaMode.rational(Fraction(3, 2)), [0, 0])
    theta = theta_of_p(p)
    assert genericity_witness(theta, 2, IndexMode.LITERAL) is None
    witness = genericity_witness(theta, 2, IndexMode.INCLUDE_ZERO)
    assert witness == {"kind": "difference", "i": 0, "j": 1, "m": 1}


def test_difference_condition_scans_small_multiples():
    mode = KappaMode.rational(1)
    # sum = 3, theta_1 - theta_2 = 6 = 2 * sum, caught only once n > 2
    theta = theta_of(mode, -4, Fraction(13, 2), Fraction(1, 2))
    assert genericity_witness(theta, 2) is None
    witness = genericity_witness(theta, 3)
    assert witness == {"kind": "difference", "i": 1, "j": 2, "m": 2}


def test_include_zero_genericity_implies_literal():
    mode = KappaMode.rational(Fraction(2, 3))
    vectors = [
        theta_of(mode, 1, 2, 3),
        theta_of(mode, Fraction(1, 2), Fraction(1, 3), Fraction(-1, 5)),
        theta_of(mode, -1, 5),
        theta_of(mode, 0, 1),
    ]
    for theta in vectors:
        if genericity_witness(theta, 4, IndexMode.INCLUDE_ZERO) is None:
            assert genericity_witness(theta, 4, IndexMode.LITERAL) is None


def test_formal_theta_genericity_uses_both_coefficients():
    theta = Stability((FORMAL.scalar(0, -1), FORMAL.scalar(5)))
    # sum is 5 - kappa, never zero; difference -5 - kappa = m*(5 - kappa)
    # would force m = 1 and -5 = 5 at the constant part
    assert genericity_witness(theta, 9, IndexMode.INCLUDE_ZERO) is None


def test_stability_json_round_trip():
    theta = Stability((FORMAL.scalar(Fraction(5, 2), -1), FORMAL.scalar(Fraction(-5, 2))))
    assert Stability.from_json(theta.to_json()) == theta


def test_bound_examples_and_monotonicity():
    assert is_N_in_bound(2, 0, 1, 2, 1)  # 1 <= sqrt(2)
    assert not is_N_in_bound(2, 0, 1, 2, 2)  # 3/2 > sqrt(2)
    assert is_N_in_bound(1, 0, 1, 2, 1)  # exact tie: 1 = sqrt(1)
    assert is_N_in_bound(1, -5, 0, 1, 1)  # nonpositive left side
    for n, m, i, ell in [(5, 1, 2, 3), (8, -3, 0, 2), (3, 0, 1, 4)]:
        allowed = [N for N in range(1, 40) if is_N_in_bound(n, m, i, ell, N)]
        assert allowed == list(range(1, len(allowed) + 1))


def test_kappa_fraction_family_literal_scan():
    p = Params.build(KappaMode.rational(Fraction(1, 2)), [0])
    assert aspherical_witnesses(p, 2) == [KappaFraction(1, 2)]
    assert aspherical_witnesses(p, 4)[:2] == [KappaFraction(1, 2), KappaFraction(2, 4)]

    negative = Params.build(KappaMode.rational(Fraction(-1, 2)), [0])
    assert all(
        not isinstance(w, KappaFraction) for w in aspherical_witnesses(negative, 4)
    )

    integer = Params.build(KappaMode.rational(2), [0])
    assert aspherical_witnesses(integer, 4) == []


def test_single_component_second_family_is_empty():
    for kappa in (Fraction(1, 2), Fraction(3, 1), Fraction(-2, 3)):
        p = Params.build(KappaMode.rational(kappa), [Fraction(1, 5)])
        assert all(
            isinstance(w, KappaFraction) for w in aspherical_witnesses(p, 6)
        )


def test_content_hyperplane_pinned_instance():
    p = Params.build(KappaMode.rational(1), [Fraction(1, 4), Fraction(-1, 4)])
    assert aspherical_witnesses(p, 1) == [ContentHyperplane(1, 0, 1, 0)]

    formal = Params.build(FORMAL, [Fraction(1, 4), Fraction(-1, 4)])
    assert aspherical_witnesses(formal, 1) == [ContentHyperplane(1, 0, 1, 0)]

    # The JSON form keeps its keys, and both records hash.
    assert KappaFraction(1, 2).to_json() == {"family": "kappa-fraction", "r": 1, "s": 2}
    assert ContentHyperplane(1, 0, 1, 0).to_json() == {
        "family": "content-hyperplane", "i": 1, "m": 0, "N": 1, "j": 0}
    assert len({KappaFraction(1, 2), KappaFraction(1, 2), ContentHyperplane(1, 0, 1, 0)}) == 2


def test_content_hyperplane_structure():
    p = Params.build(
        KappaMode.rational(Fraction(1, 3)), [Fraction(1, 2), 0, Fraction(-1, 2)]
    )
    for witness in aspherical_witnesses(p, 4):
        if isinstance(witness, KappaFraction):
            continue
        assert witness.N >= 1 and witness.N % p.ell != 0
        assert 0 <= witness.j < p.ell
        assert witness.j % p.ell == (witness.i - witness.N) % p.ell
        assert abs(witness.m) < 4
        lhs = p.mode.scalar(Fraction(witness.N, p.ell))
        assert lhs == p.h[witness.j] - p.h[witness.i] + p.kappa * witness.m


def test_witnesses_invariant_under_common_offset_shift():
    mode = KappaMode.rational(Fraction(1, 2))
    base = Params.build(mode, [Fraction(1, 4), Fraction(-1, 4)])
    shifted = Params.build(mode, [Fraction(1, 4) + 2, Fraction(-1, 4) + 2])
    assert aspherical_witnesses(base, 3) == aspherical_witnesses(shifted, 3)


def test_spherical_rejects_degenerate_sizes():
    p = Params.build(KappaMode.rational(1), [0])
    with pytest.raises(ValueError):
        aspherical_witnesses(p, 0)


def test_theta_single_component_is_minus_kappa():
    p = Params.build(KappaMode.rational(Fraction(1, 2)), [0])
    theta = theta_of_p(p)
    assert theta.theta == (p.mode.scalar(Fraction(-1, 2)),)

    formal = Params.build(FORMAL, [0])
    assert theta_of_p(formal).theta == (FORMAL.scalar(0, -1),)


def test_theta_telescopes_to_minus_kappa():
    for mode in (KappaMode.rational(Fraction(2, 3)), FORMAL):
        p = Params.build(mode, [Fraction(1, 4), Fraction(1, 8), Fraction(-3, 8)])
        theta = theta_of_p(p)
        assert theta.ell == p.ell
        assert theta.total() == -p.kappa


def test_theta_consecutive_differences():
    mode = KappaMode.rational(Fraction(3, 2))
    p = Params.build(mode, [Fraction(1, 4), Fraction(-1, 4)])
    theta = theta_of_p(p)
    assert theta.theta[0] == -p.kappa + p.h[0] - p.h[1]
    assert theta.theta[1] == p.h[1] - p.h[0]


def aspherical_witnesses_stepping(p, n):
    """Oracle: the aspherical scan as first written, stepping r up to s and
    N upward while it stays within the square-root bound."""
    witnesses = []
    if p.mode.is_rational:
        for s in range(2, n + 1):
            for r in range(1, s + 1):
                if p.mode.value == Fraction(r, s):
                    witnesses.append(KappaFraction(r, s))
    for i in range(p.ell):
        for m in range(-(n - 1), n):
            N = 1
            while is_N_in_bound(n, m, i, p.ell, N):
                if N % p.ell != 0:
                    j = (i - N) % p.ell
                    if p.mode.scalar(Fraction(N, p.ell)) == p.h[j] - p.h[i] + p.kappa * m:
                        witnesses.append(ContentHyperplane(i, m, N, j))
                N += 1
    return witnesses


def index_classes_pairwise(p):
    """Oracle: index_classes as first written, testing h_i - h_j in
    Z + (j - i)/ell against the first member of each class so far."""
    classes = []
    for j in range(p.ell):
        for members in classes:
            i = members[0]
            if (p.h[i] - p.h[j]).in_integers_plus(Fraction(j - i, p.ell)):
                members.append(j)
                break
        else:
            classes.append([j])
    return classes


def shift_grid(seed=10):
    """(p, n) for ell 1..4 and n 1..9 in both modes.  Offsets are random with
    small denominators, +i/ell or -i/ell plus integers (which put several
    components on one content hyperplane), and in formal mode carry k parts."""
    rng = random.Random(seed)
    kappas = [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3), Fraction(1), Fraction(-2),
              Fraction(3, 4), Fraction(5, 2)]
    grid = []
    for ell in range(1, 5):
        for n in range(1, 10):
            for mode in (KappaMode.rational(rng.choice(kappas)), FORMAL):
                random_a = [Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 6, ell]))
                            for _ in range(ell)]
                plus_a = [Fraction(i, ell) + rng.randint(-3, 3) for i in range(ell)]
                minus_a = [Fraction(-i, ell) + rng.randint(-3, 3) for i in range(ell)]
                for a in (random_a, plus_a, minus_a):
                    b = [0] * ell
                    if not mode.is_rational:
                        b = rng.choice([b, [rng.choice([0, 1, -1]) for _ in range(ell)]])
                    grid.append((Params.build(mode, [mode.scalar(x, y) for x, y in zip(a, b)]), n))
    return grid


SHIFT_GRID = shift_grid()


def test_solved_scan_equals_the_stepping_oracle():
    most = 0
    for p, n in SHIFT_GRID:
        witnesses = aspherical_witnesses(p, n)
        assert witnesses == aspherical_witnesses_stepping(p, n), (p, n)
        per_i_m = Counter((w.i, w.m) for w in witnesses if isinstance(w, ContentHyperplane))
        most = max(most, *per_i_m.values(), 0)
    assert most >= 2  # the grid reaches (i, m) with several witnesses


def test_index_classes_equal_the_pairwise_oracle():
    for p, _ in SHIFT_GRID:
        assert index_classes(p) == index_classes_pairwise(p), p


def genericity_witness_oracle(stability, n, index_mode):
    """Oracle: genericity_witness as first written, stepping m through
    -(n-1)..n-1 for each pair."""
    total = stability.total()
    if total.is_zero:
        return {"kind": "sum"}
    start = 1 if index_mode is IndexMode.LITERAL else 0
    for i, j in permutations(range(start, stability.ell), 2):
        diff = stability.theta[i] - stability.theta[j]
        for m in range(-(n - 1), n):
            if diff == total * m:
                return {"kind": "difference", "i": i, "j": j, "m": m}
    return None


def genericity_grid(seed=11):
    """(theta, n, index mode, planted (i, j, m) or None) for ell 1..4 and
    n 0..9, rational and formal, in both index modes: random theta, theta
    summing to zero, and theta with theta_i - theta_j = m*sum planted for
    |m| <= n + 1 (entries other than i and j random, then theta_i and
    theta_j solved from the sum and the difference)."""
    rng = random.Random(seed)
    kappas = [Fraction(1, 2), Fraction(-2, 3), Fraction(1), Fraction(5, 2)]

    def entry(mode):
        a = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5]))
        return mode.scalar(a, 0 if mode.is_rational else rng.choice([0, 0, 1, -1, 2]))

    grid = []
    for ell in range(1, 5):
        for n in range(10):
            for mode in (KappaMode.rational(rng.choice(kappas)), FORMAL):
                for index_mode in IndexMode:
                    for _ in range(3):
                        grid.append((Stability(tuple(entry(mode) for _ in range(ell))),
                                     n, index_mode, None))
                    theta = [entry(mode) for _ in range(ell)]
                    theta[-1] -= sum(theta, mode.zero())
                    grid.append((Stability(tuple(theta)), n, index_mode, None))
                    start = 1 if index_mode is IndexMode.LITERAL else 0
                    if ell - start < 2:
                        continue
                    for _ in range(6):
                        i, j = rng.sample(range(start, ell), 2)
                        m = rng.randint(-(n + 1), n + 1)
                        theta = [entry(mode) for _ in range(ell)]
                        total = entry(mode)
                        if total.is_zero:
                            continue
                        rest = sum((x for k, x in enumerate(theta) if k not in (i, j)),
                                   mode.zero())
                        theta[i] = (total - rest + total * m) / 2
                        theta[j] = (total - rest - total * m) / 2
                        grid.append((Stability(tuple(theta)), n, index_mode, (i, j, m)))
    return grid


def test_solved_genericity_equals_the_stepping_oracle():
    differences = Counter()
    unreported = 0
    for theta, n, index_mode, planted in genericity_grid():
        witness = genericity_witness(theta, n, index_mode)
        assert witness == genericity_witness_oracle(theta, n, index_mode), (theta, n, index_mode)
        if witness is not None and witness["kind"] == "difference" and witness["m"] != 0:
            differences[theta.mode.is_rational] += 1
        if planted is not None and abs(planted[2]) == n:
            i, j, m = planted
            assert witness != {"kind": "difference", "i": i, "j": j, "m": m}
            unreported += 1
    assert min(differences[True], differences[False]) >= 100, differences
    assert unreported >= 1
