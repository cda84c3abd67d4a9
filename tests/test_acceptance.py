"""Acceptance gate: one test per criterion, one pass line per criterion.

Each test prints a single "criterion N PASS" line when it holds; a
failing criterion shows up as the test's FAILED line instead.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import mpmath
import pytest

from cherloc import (
    Box,
    ContentHyperplane,
    IndexMode,
    KappaFraction,
    KappaMode,
    Multipartition,
    OrderInstance,
    Params,
    Relation,
    Stability,
    aspherical_witnesses,
    boxes,
    common_refinement,
    genericity_witness,
    is_N_in_bound,
    is_partial_order,
    leq_p,
    localize,
    refines,
    relation_p,
    theta_of_p,
)
from cherloc.boxorder import box_equiv, box_less
from cherloc.cli import canonical_dumps, main
from cherloc.poset import transitive_closure

RATIONAL_KAPPAS = [
    Fraction(1),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3, 2),
    Fraction(2, 3),
]

H_BY_ELL = {
    1: [(0,)],
    2: [(0, 0), (Fraction(1, 4), Fraction(-1, 4))],
    3: [(Fraction(1, 3), 0, Fraction(-1, 3))],
}


def box_grid(ell: int, n: int) -> list[Box]:
    """The n-by-n grid of boxes of each component, ordered by (i, x, y):
    the boxes the box order is specified on."""
    return [Box(x, y, i) for i in range(ell) for x in range(1, n + 1) for y in range(1, n + 1)]


def parameter_suite() -> list[Params]:
    suite = []
    for kappa in RATIONAL_KAPPAS:
        mode = KappaMode.rational(kappa)
        for h in H_BY_ELL[2]:
            suite.append(Params.build(mode, h))
    for kappa in (Fraction(1), Fraction(1, 2)):
        suite.append(Params.build(KappaMode.rational(kappa), H_BY_ELL[1][0]))
    for kappa in (Fraction(1, 2), Fraction(2, 3)):
        suite.append(Params.build(KappaMode.rational(kappa), H_BY_ELL[3][0]))
    formal = KappaMode.formal()
    suite.append(Params.build(formal, H_BY_ELL[1][0]))
    for h in H_BY_ELL[2]:
        suite.append(Params.build(formal, h))
    suite.append(Params.build(formal, H_BY_ELL[3][0]))
    return suite


def leq_p_oracle(inst, lam, mu, bound=6):
    """Exhaustive check over all bijections between the two box sets.

    Only the box predicate is shared with leq_p; the matching algorithm
    is not involved.  The box predicate is tabulated once per pair.
    """
    if lam.ell != inst.p.ell or mu.ell != inst.p.ell:
        raise ValueError("multipartition has the wrong number of components")
    if lam.n != inst.n or mu.n != inst.n:
        raise ValueError("multipartition has the wrong size")
    if inst.n > bound:
        raise ValueError(f"oracle limited to n <= {bound}")
    below = [[a == b or box_less(inst.p, a, b) for b in boxes(mu)] for a in boxes(lam)]
    return any(
        all(below[a][b] for a, b in enumerate(image))
        for image in itertools.permutations(range(len(below)))
    )


def test_criterion_1_matching_oracle_equivalence():
    started = time.monotonic()
    suite = parameter_suite()
    assert len(suite) >= 10
    compared = 0
    for p in suite:
        for n in range(0, 5):
            inst = OrderInstance(p, n)
            for lam, mu in itertools.product(inst.labels, repeat=2):
                assert leq_p(inst, lam, mu) == leq_p_oracle(inst, lam, mu)
                compared += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(f"criterion 1 PASS: {compared} pairs across {len(suite)} parameters "
          f"agree with the oracle in {elapsed:.1f}s")


def test_criterion_2_order_axioms(tmp_path):
    for p in parameter_suite():
        for n in range(0, 5):
            rel = relation_p(OrderInstance(p, n))
            assert all(rel.matrix[i][i] for i in range(rel.size))
            assert transitive_closure(rel) == rel
            violation = is_partial_order(rel)
            if violation is not None:
                kind, labels = violation
                artifact = tmp_path / "criterion2_counterexample.json"
                artifact.write_text(canonical_dumps({
                    "params": p.to_json(),
                    "n": n,
                    "violation": {"kind": kind, "labels": [list(map(list, labels))]},
                }))
                pytest.fail(f"{kind} violated, counterexample at {artifact}")
    print("criterion 2 PASS: relations are reflexive, transitive, antisymmetric")


def test_criterion_3_shift_and_translation_invariance():
    rng = random.Random(20260817)
    shifts = [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(5)]
    sample = [
        Params.build(KappaMode.rational(Fraction(1, 2)), H_BY_ELL[2][1]),
        Params.build(KappaMode.rational(Fraction(2, 3)), H_BY_ELL[3][0]),
        Params.build(KappaMode.formal(), H_BY_ELL[2][1]),
    ]
    for p in sample:
        base = relation_p(OrderInstance(p, 3))
        for t in shifts:
            shifted = Params.build(p.mode, [s.a + t for s in p.h])
            assert relation_p(OrderInstance(shifted, 3)) == base
    p = sample[0]
    boxes = box_grid(p.ell, 3)
    for k in (1, 2, 5):
        for b1, b2 in itertools.product(boxes, repeat=2):
            moved1 = Box(b1.x + k, b1.y + k, b1.i)
            moved2 = Box(b2.x + k, b2.y + k, b2.i)
            assert box_equiv(p, b1, b2) == box_equiv(p, moved1, moved2)
            assert box_less(p, b1, b2) == box_less(p, moved1, moved2)
    print("criterion 3 PASS: h-shifts and box translations leave the order alone")


def deformation_sample() -> list[tuple[Params, int]]:
    formal = KappaMode.formal()
    sample = [
        (Params.build(KappaMode.rational(Fraction(1)), (0,)), 5),
        (Params.build(KappaMode.rational(Fraction(1, 2)), (0,)), 5),
        (Params.build(KappaMode.rational(Fraction(-1, 2)), (0,)), 5),
        (Params.build(KappaMode.rational(Fraction(3, 2)), (0,)), 5),
        (Params.build(KappaMode.rational(Fraction(2, 3)), (0,)), 5),
        (Params.build(KappaMode.rational(Fraction(1, 2)), (0, 0)), 5),
        (Params.build(KappaMode.rational(Fraction(1, 2)), H_BY_ELL[2][1]), 5),
        (Params.build(KappaMode.rational(Fraction(-1, 2)), H_BY_ELL[2][1]), 5),
        (Params.build(KappaMode.rational(Fraction(3, 2)),
                      (Fraction(1, 2), Fraction(-1, 2))), 5),
        (Params.build(KappaMode.rational(Fraction(2, 3)),
                      (Fraction(1, 3), Fraction(-1, 3))), 5),
        (Params.build(KappaMode.rational(Fraction(-1)), (0, 0)), 5),
        (Params.build(KappaMode.rational(Fraction(1)), (0, 0, 0)), 4),
        (Params.build(KappaMode.rational(Fraction(1, 2)), H_BY_ELL[3][0]), 4),
        (Params.build(KappaMode.rational(Fraction(-1)),
                      (Fraction(1, 4), 0, Fraction(-1, 4))), 4),
        (Params.build(KappaMode.rational(Fraction(2, 3)),
                      (Fraction(1, 6), 0, Fraction(-1, 6))), 4),
        (Params.build(formal, (0,)), 5),
        (Params.build(formal, (0, 0)), 5),
        (Params.build(formal, H_BY_ELL[2][1]), 5),
        (Params.build(formal, (Fraction(1, 2), Fraction(-1, 2))), 5),
        (Params.build(formal, (0, 0, 0)), 4),
        (Params.build(formal, H_BY_ELL[3][0]), 4),
    ]
    return sample


def test_criterion_4_deformation_soundness():
    sample = deformation_sample()
    assert len(sample) >= 20
    for p, n in sample:
        started = time.monotonic()
        cert = localize(p, n)
        elapsed = time.monotonic() - started
        named = {check["name"]: check["passed"] for check in cert.checks}
        assert named["integral_difference"] is True
        assert named["box_order_preserved"] is True
        assert named["theta_generic"] is True
        assert named["order_relation_equal"] is True
        assert elapsed < 10
    print(f"criterion 4 PASS: {len(sample)} certificates verified")


def test_criterion_5_pinned_worked_instance():
    p = Params.build(KappaMode.rational(Fraction(1, 2)), (0,))
    cert = localize(p, 2)
    assert cert.plan["M"] == 3
    assert cert.plan["m"] == [0]
    assert [(t.a, t.b) for t in cert.theta.theta] == [(Fraction(-3, 2), 0)]
    assert aspherical_witnesses(p, 2) == [KappaFraction(1, 2)]
    print("criterion 5 PASS: pinned instance gives theta=(-3/2), M=3, m=(0), "
          "witness KappaFraction(1, 2)")


def brute_content_hyperplanes(p: Params, n: int, cap: int = 200):
    found = []
    for i in range(p.ell):
        for m in range(-(n - 1), n):
            for N in range(1, cap + 1):
                if N % p.ell == 0:
                    continue
                j = (i - N) % p.ell
                lhs = p.mode.scalar(Fraction(N, p.ell))
                if lhs == p.h[j] - p.h[i] + p.kappa * m:
                    found.append(ContentHyperplane(i, m, N, j))
    return [w for w in found if is_N_in_bound(n, w.m, w.i, p.ell, w.N)]


def test_criterion_6_aspherical_locus_structure():
    for n in range(1, 9):
        p = Params.build(KappaMode.rational(Fraction(1, 2)), (0,))
        family2 = [w for w in aspherical_witnesses(p, n)
                   if isinstance(w, ContentHyperplane)]
        assert family2 == []
    on_wall = Params.build(KappaMode.rational(Fraction(5, 7)),
                           (Fraction(1, 4), Fraction(-1, 4)))
    assert aspherical_witnesses(on_wall, 1) == [ContentHyperplane(1, 0, 1, 0)]
    off_wall = Params.build(KappaMode.rational(Fraction(5, 7)), (0, 0))
    assert aspherical_witnesses(off_wall, 1) == []
    checked = 0
    for p, n in [
        (Params.build(KappaMode.rational(Fraction(1, 2)), (0,)), 4),
        (on_wall, 1),
        (on_wall, 3),
        (off_wall, 2),
        (Params.build(KappaMode.formal(), (Fraction(1, 4), Fraction(-1, 4))), 3),
        (Params.build(KappaMode.rational(Fraction(1, 3)), H_BY_ELL[3][0]), 3),
    ]:
        production = [w for w in aspherical_witnesses(p, n)
                      if isinstance(w, ContentHyperplane)]
        assert production == brute_content_hyperplanes(p, n)
        checked += 1
    print(f"criterion 6 PASS: family-2 scan matches brute enumeration on "
          f"{checked} instances and is empty for ell=1")


def test_criterion_7_exact_sqrt_bound():
    mpmath.mp.prec = 200
    rng = random.Random(7)
    tuples = [(ell * ell, 0, 0, 1, ell - 1) for ell in range(2, 6)]
    tuples.append((1, 0, 1, 2, 1))
    while len(tuples) < 1000:
        ell = rng.randint(1, 6)
        tuples.append((
            rng.randint(1, 12),
            rng.randint(-6, 6),
            rng.randint(0, ell - 1),
            ell,
            rng.randint(1, 40),
        ))
    ties = 0
    for n, m, i, ell, N in tuples:
        exact = is_N_in_bound(n, m, i, ell, N)
        lhs = Fraction(N - i, ell) + 1 + Fraction(m, 2)
        if lhs > 0 and lhs * lhs == n + Fraction(m * m, 4):
            assert exact is True
            ties += 1
            continue
        lhs_float = (mpmath.mpf(N - i) / ell + 1 + mpmath.mpf(m) / 2)
        rhs_float = mpmath.sqrt(n + mpmath.mpf(m * m) / 4)
        assert exact == (lhs <= 0 or lhs_float <= rhs_float)
    print(f"criterion 7 PASS: {len(tuples)} tuples agree with 200-bit floats, "
          f"{ties} exact ties resolved inclusively")


def random_relation(rng: random.Random, labels: tuple[str, ...]) -> Relation:
    size = len(labels)
    matrix = tuple(
        tuple(a == b or rng.random() < 0.2 for b in range(size))
        for a in range(size)
    )
    return Relation(labels, matrix)


def union_has_linear_extension(r1: Relation, r2: Relation) -> bool:
    size = len(r1.labels)
    edges = {
        (a, b)
        for a in range(size)
        for b in range(size)
        if a != b and (r1.matrix[a][b] or r2.matrix[a][b])
    }
    state = [0] * size
    def visit(node: int) -> bool:
        state[node] = 1
        for a, b in edges:
            if a == node:
                if state[b] == 1:
                    return False
                if state[b] == 0 and not visit(b):
                    return False
        state[node] = 2
        return True
    return all(state[node] or visit(node) for node in range(size))


def test_criterion_8_poset_algebra():
    rng = random.Random(8)
    orders = 0
    for _ in range(500):
        size = rng.randint(1, 12)
        labels = tuple(f"v{i}" for i in range(size))
        r1 = random_relation(rng, labels)
        r2 = random_relation(rng, labels)
        result = common_refinement(r1, r2)
        assert (result.order is not None) == union_has_linear_extension(r1, r2)
        if result.order is not None:
            orders += 1
            assert refines(r1, result.order)
            assert refines(r2, result.order)
            assert is_partial_order(result.order) is None
        else:
            assert result.cycle is not None
    print(f"criterion 8 PASS: 500 random pairs, {orders} refinements, "
          "all matching the topological-sort oracle")


def test_criterion_9_determinism_and_round_trip(capsys, tmp_path):
    invocations = [
        ("enumerate", "--ell", "2", "--n", "3"),
        ("order", "--ell", "2", "--n", "2", "--kappa", "1/2", "--h", "1/4,-1/4"),
        ("spherical", "--ell", "1", "--n", "4", "--kappa", "1/2"),
        ("generic", "--ell", "2", "--n", "2", "--kappa", "3/2", "--theta=-3/2,0"),
        ("theta", "--ell", "2", "--kappa", "formal", "--h", "1/4,-1/4"),
        ("localize", "--ell", "1", "--n", "2", "--kappa", "1/2"),
    ]
    for argv in invocations:
        main(list(argv))
        first = capsys.readouterr().out
        main(list(argv))
        second = capsys.readouterr().out
        assert first == second
        assert first.endswith("\n")

    round_trips = [
        (Multipartition, Multipartition(((2, 1), (), (1,)))),
        (Params, Params.build(KappaMode.rational(Fraction(1, 2)),
                              (Fraction(1, 4), Fraction(-1, 4)))),
        (Params, Params.build(KappaMode.formal(), (Fraction(1, 4), Fraction(-1, 4)))),
        (Stability, theta_of_p(Params.build(KappaMode.rational(Fraction(3, 2)),
                                            (0, 0)))),
        (Stability, theta_of_p(Params.build(KappaMode.formal(), (0, 0, 0)))),
        (Relation, relation_p(OrderInstance(
            Params.build(KappaMode.rational(Fraction(1, 2)), (0,)), 2))),
    ]
    for cls, value in round_trips:
        blob = value.to_json()
        assert cls.from_json(json.loads(canonical_dumps(blob))).to_json() == blob

    produced = tmp_path / "order.json"
    refined = tmp_path / "refined.json"
    main(["order", "--ell", "2", "--n", "2", "--kappa", "1/2",
          "--h", "1/4,-1/4", "--out", str(produced)])
    main(["common-refinement", str(produced), str(produced), "--out", str(refined)])
    assert refined.read_text() == produced.read_text()
    print("criterion 9 PASS: byte-identical reruns and write-read-write "
          "fixed points on every schema")
