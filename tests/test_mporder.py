from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cherloc import (
    KappaMode,
    Multipartition,
    OrderInstance,
    Params,
    boxes,
    content_table,
    is_partial_order,
    leq_p,
    relation_p,
)
from cherloc import mporder
from cherloc.boxorder import box_less, content_class_key
from cherloc.poset import transitive_closure
from test_acceptance import leq_p_oracle

HALF = KappaMode.rational(Fraction(1, 2))
FORMAL = KappaMode.formal()

ROW2 = Multipartition(((2,),))
COL2 = Multipartition(((1, 1),))


def test_column_below_row_for_positive_kappa():
    inst = OrderInstance(Params.build(HALF, [0]), 2)
    assert leq_p(inst, COL2, ROW2)
    assert not leq_p(inst, ROW2, COL2)


def test_order_flips_with_kappa_sign():
    inst = OrderInstance(Params.build(KappaMode.rational(Fraction(-1, 2)), [0]), 2)
    assert leq_p(inst, ROW2, COL2)
    assert not leq_p(inst, COL2, ROW2)


def test_integer_kappa_gives_a_chain():
    inst = OrderInstance(Params.build(KappaMode.rational(1), [0]), 3)
    chain = [
        Multipartition(((1, 1, 1),)),
        Multipartition(((2, 1),)),
        Multipartition(((3,),)),
    ]
    for k, lam in enumerate(chain):
        for mu in chain[k:]:
            assert leq_p(inst, lam, mu)
        for mu in chain[:k]:
            assert not leq_p(inst, lam, mu)


def test_formal_kappa_with_zero_offsets_is_discrete():
    # only equal-content matchings exist, so distinct shapes are incomparable
    inst = OrderInstance(Params.build(FORMAL, [0]), 2)
    assert leq_p(inst, ROW2, ROW2)
    assert not leq_p(inst, COL2, ROW2)
    assert not leq_p(inst, ROW2, COL2)


def test_reflexive_via_identity_matching():
    inst = OrderInstance(Params.build(HALF, [Fraction(1, 4), Fraction(-1, 4)]), 3)
    for lam in inst.labels:
        assert leq_p(inst, lam, lam)


def test_size_zero_is_a_single_true_cell():
    inst = OrderInstance(Params.build(HALF, [0]), 0)
    rel = relation_p(inst)
    assert rel.matrix == ((True,),)


def test_instance_compiles_each_held_box_once(monkeypatch):
    compiled = []

    def recording_table(p, boxes):
        boxes = list(boxes)
        compiled.append(boxes)
        return content_table(p, boxes)

    monkeypatch.setattr(mporder, "content_table", recording_table)
    for p in (Params.build(HALF, [0]), Params.build(FORMAL, [0, Fraction(1, 3), Fraction(2, 3)])):
        for n in range(5):
            compiled.clear()
            inst = OrderInstance(p, n)
            (passed,) = compiled
            assert len(passed) == len(set(passed))
            assert set(passed) == {box for mp in inst.labels for box in boxes(mp)}


def test_wrong_shape_inputs_rejected():
    inst = OrderInstance(Params.build(HALF, [0]), 2)
    with pytest.raises(ValueError, match="^multipartition has the wrong number of components$"):
        leq_p(inst, Multipartition(((1,), ())), ROW2)
    with pytest.raises(ValueError, match="^multipartition has the wrong size$"):
        leq_p(inst, Multipartition(((3,),)), ROW2)
    with pytest.raises(ValueError, match="^multipartition has the wrong size$"):
        leq_p(inst, ROW2, Multipartition(((3,),)))


def sample_instances(max_n=3):
    params = [
        Params.build(HALF, [0]),
        Params.build(KappaMode.rational(Fraction(-1, 2)), [0]),
        Params.build(KappaMode.rational(Fraction(2, 3)), [Fraction(1, 4), Fraction(-1, 4)]),
        Params.build(FORMAL, [Fraction(1, 4), Fraction(-1, 4)]),
        Params.build(KappaMode.rational(Fraction(3, 2)), [Fraction(1, 3), Fraction(1, 6), Fraction(-1, 2)]),
    ]
    for p in params:
        for n in range(max_n + 1):
            yield OrderInstance(p, n)


def test_matching_agrees_with_bijection_oracle():
    for inst in sample_instances():
        for lam in inst.labels:
            for mu in inst.labels:
                assert leq_p(inst, lam, mu) == leq_p_oracle(inst, lam, mu)


def test_oracle_refuses_large_n():
    inst = OrderInstance(Params.build(HALF, [0]), 7)
    with pytest.raises(ValueError):
        leq_p_oracle(inst, inst.labels[0], inst.labels[0])


def test_relation_matrix_matches_pointwise_queries():
    inst = OrderInstance(Params.build(HALF, [Fraction(1, 4), Fraction(-1, 4)]), 2)
    rel = relation_p(inst)
    assert rel.labels == tuple(mp.parts for mp in inst.labels)
    for a, lam in enumerate(inst.labels):
        for b, mu in enumerate(inst.labels):
            assert rel.matrix[a][b] == leq_p(inst, lam, mu)


def test_relation_is_reflexive_transitive_antisymmetric_on_samples():
    for inst in sample_instances():
        rel = relation_p(inst)
        assert transitive_closure(rel).matrix == rel.matrix
        assert is_partial_order(rel) is None


def test_relation_invariant_under_common_offset_shift():
    base = Params.build(HALF, [Fraction(1, 4), Fraction(-1, 4)])
    shifted = Params.build(HALF, [Fraction(1, 4) + 3, Fraction(-1, 4) + 3])
    assert (
        relation_p(OrderInstance(base, 2)).matrix
        == relation_p(OrderInstance(shifted, 2)).matrix
    )


def _adjacency(inst, lam, mu):
    """Edge lists from boxes(lam) to boxes(mu), pruned by content class."""
    left, right = boxes(lam), boxes(mu)
    by_class = {}
    for idx, box in enumerate(right):
        by_class.setdefault(content_class_key(inst.p, box), []).append(idx)
    adj = []
    for box in left:
        candidates = by_class.get(content_class_key(inst.p, box), ())
        adj.append(
            [idx for idx in candidates if box == right[idx] or box_less(inst.p, box, right[idx])]
        )
    return adj, len(right)


def _max_matching_size(adj, n_right):
    """Maximum bipartite matching via augmenting paths."""
    match_right = [-1] * n_right

    def augment(u, seen):
        for v in adj[u]:
            if seen[v]:
                continue
            seen[v] = True
            if match_right[v] == -1 or augment(match_right[v], seen):
                match_right[v] = u
                return True
        return False

    return sum(augment(u, [False] * n_right) for u in range(len(adj)))


def leq_p_matching(inst, lam, mu):
    """Second oracle: a perfect matching in the box graph, by augmenting paths."""
    adj, n_right = _adjacency(inst, lam, mu)
    return _max_matching_size(adj, n_right) == inst.n


@st.composite
def instances(draw, max_ell=4, max_n=5):
    ell = draw(st.integers(1, max_ell))
    n = draw(st.integers(0, max_n))
    small = st.fractions(min_value=-2, max_value=2, max_denominator=6)
    kind = draw(st.sampled_from(["rational", "formal-shared", "formal-k"]))
    if kind == "rational":
        # Negative kappa included; with kappa = 0 every box of a component
        # has the same content, so distinct boxes tie.
        named = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(-2, 3)])
        mode = KappaMode.rational(draw(named | small))
        h = [draw(small) for _ in range(ell)]
    elif kind == "formal-shared":
        # h_i = i/ell: every component shares its content classes
        mode = KappaMode.formal()
        h = [Fraction(i, ell) for i in range(ell)]
    else:
        mode = KappaMode.formal()
        h = [mode.scalar(draw(small), draw(st.sampled_from([0, 1, -1, Fraction(1, 2)])))
             for _ in range(ell)]
    return OrderInstance(Params.build(mode, h), n)


@settings(max_examples=150, deadline=None)
@given(inst=instances(), data=st.data())
def test_sorted_dominance_agrees_with_the_augmenting_path_matcher(inst, data):
    labels = inst.labels
    counts = [Counter(content_class_key(inst.p, box) for box in boxes(mp)) for mp in labels]
    for _ in range(4):
        a = data.draw(st.integers(0, len(labels) - 1))
        # Half the draws come from lam's class-count group, where the
        # answer is not decided by the counts alone.
        same = [b for b in range(len(labels)) if counts[b] == counts[a]]
        b = data.draw(st.sampled_from(same) if data.draw(st.booleans())
                      else st.integers(0, len(labels) - 1))
        lam, mu = labels[a], labels[b]
        assert leq_p(inst, lam, mu) == leq_p_matching(inst, lam, mu)


@settings(max_examples=60, deadline=None)
@given(inst=instances(max_ell=3, max_n=4))
def test_relation_equals_the_matrix_of_pairwise_queries(inst):
    rel = relation_p(inst)
    assert rel.matrix == tuple(
        tuple(leq_p(inst, lam, mu) for mu in inst.labels) for lam in inst.labels
    )


def key_dominance(p, lam, mu):
    """The lemma the matching order rests on away from kappa = 0: with the
    content_table values of each label sorted, lam <= mu exactly when the two
    lists have the same class ids and each content of lam lies weakly below
    the content of mu at its position."""
    left, right = (sorted(content_table(p, boxes(mp)).values()) for mp in (lam, mu))
    return ([cid for cid, _ in left] == [cid for cid, _ in right]
            and all(x <= y for (_, x), (_, y) in zip(left, right)))


@settings(max_examples=60, deadline=None)
@given(inst=instances(max_ell=3, max_n=4).filter(
    lambda inst: not inst.p.mode.is_rational or inst.p.mode.value != 0))
def test_leq_p_is_key_dominance_when_kappa_is_nonzero(inst):
    for lam in inst.labels:
        for mu in inst.labels:
            assert leq_p(inst, lam, mu) == key_dominance(inst.p, lam, mu)


def test_kappa_zero_ties_distinct_boxes_so_key_dominance_fails():
    # Every box of (2) and of (1, 1) has content h_0: the key lists agree,
    # yet the box (1, 2) is not below (2, 1), nor the other way round.
    p = Params.build(KappaMode.rational(0), [0])
    inst = OrderInstance(p, 2)
    assert key_dominance(p, ROW2, COL2) and key_dominance(p, COL2, ROW2)
    assert not leq_p(inst, ROW2, COL2) and not leq_p(inst, COL2, ROW2)
