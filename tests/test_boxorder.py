import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cherloc import Box, KappaMode, Params, content_table
from cherloc.boxorder import box_equiv, box_less, cont, content_class_key
from test_acceptance import box_grid

HALF = KappaMode.rational(Fraction(1, 2))
FORMAL = KappaMode.formal()


def sample_params():
    return [
        Params.build(HALF, [0]),
        Params.build(KappaMode.rational(Fraction(-2, 3)), [Fraction(1, 4), Fraction(-1, 4)]),
        Params.build(KappaMode.rational(1), [Fraction(1, 3), 0, Fraction(-1, 3)]),
        Params.build(FORMAL, [Fraction(1, 4), Fraction(-1, 4)]),
        Params.build(FORMAL, [FORMAL.scalar(0, Fraction(1, 2)), FORMAL.scalar(0, Fraction(-1, 2))]),
    ]


def test_params_normalized_to_sum_zero():
    p = Params.build(HALF, [1, 2, 3])
    total = p.mode.zero()
    for entry in p.h:
        total = total + entry
    assert total.is_zero
    assert [entry.a for entry in p.h] == [Fraction(-1), Fraction(0), Fraction(1)]


def test_params_normalization_is_shift_invariant():
    base = Params.build(HALF, [Fraction(1, 4), Fraction(-1, 4)])
    shifted = Params.build(HALF, [Fraction(1, 4) + 7, Fraction(-1, 4) + 7])
    assert base == shifted


def test_params_rejects_foreign_mode_scalars():
    with pytest.raises(ValueError):
        Params(HALF, (FORMAL.scalar(0),))


def test_params_json_round_trip():
    for p in sample_params():
        assert Params.from_json(p.to_json()) == p


def test_cont_formula():
    p = Params.build(HALF, [Fraction(1, 4), Fraction(-1, 4)])
    assert cont(p, Box(1, 2, 0)).a == Fraction(3, 4)  # 1/4 + (2-1)/2
    assert cont(p, Box(3, 1, 1)).a == Fraction(-5, 4)  # -1/4 + (1-3)/2
    q = Params.build(FORMAL, [Fraction(1, 4), Fraction(-1, 4)])
    c = cont(q, Box(1, 3, 1))
    assert (c.a, c.b) == (Fraction(-1, 4), Fraction(2))


def test_equiv_and_less_single_component():
    p = Params.build(HALF, [0])
    a, b, c = Box(1, 1, 0), Box(1, 3, 0), Box(1, 2, 0)
    assert box_equiv(p, a, b)  # contents 0 and 1
    assert box_less(p, a, b)
    assert not box_less(p, b, a)
    assert not box_equiv(p, a, c)  # contents 0 and 1/2
    assert not box_less(p, a, c)
    assert not box_less(p, Box(2, 2, 0), Box(1, 1, 0))  # equal content, distinct boxes


def test_equiv_across_components_uses_index_offset():
    p = Params.build(FORMAL, [Fraction(1, 4), Fraction(-1, 4)])
    a, b = Box(1, 1, 0), Box(1, 1, 1)
    # difference 1/2 lies in Z + (0-1)/2
    assert box_equiv(p, a, b)
    assert box_less(p, b, a)
    assert not box_less(p, a, b)
    # a kappa offset breaks comparability in formal mode
    assert not box_equiv(p, Box(1, 2, 0), b)


def test_equivalence_relation_properties():
    for p in sample_params():
        grid = box_grid(p.ell, 3)
        for a in grid:
            assert box_equiv(p, a, a)
            for b in grid:
                assert box_equiv(p, a, b) == box_equiv(p, b, a)
        related = {
            (a, b) for a in grid for b in grid if box_equiv(p, a, b)
        }
        for a, b in related:
            for c in grid:
                if (b, c) in related:
                    assert (a, c) in related


def test_strict_order_properties():
    for p in sample_params():
        grid = box_grid(p.ell, 3)
        for a in grid:
            assert not box_less(p, a, a)
            for b in grid:
                if box_less(p, a, b):
                    assert box_equiv(p, a, b)
                    assert not box_less(p, b, a)
                for c in grid:
                    if box_less(p, a, b) and box_less(p, b, c):
                        assert box_less(p, a, c)


def test_translation_invariance_of_predicates():
    for p in sample_params():
        grid = box_grid(p.ell, 2)
        for k in (1, 2, 5):
            for a in grid:
                for b in grid:
                    sa, sb = Box(a.x + k, a.y + k, a.i), Box(b.x + k, b.y + k, b.i)
                    assert box_equiv(p, a, b) == box_equiv(p, sa, sb)
                    assert box_less(p, a, b) == box_less(p, sa, sb)


def table_params():
    return sample_params() + [
        Params.build(KappaMode.rational(0), [Fraction(1, 2), 0]),
        Params.build(KappaMode.rational(Fraction(-3, 4)), [Fraction(1, 6), 0, Fraction(1, 3)]),
        Params.build(FORMAL, [0, Fraction(1, 3), Fraction(2, 3)]),
        Params.build(FORMAL, [FORMAL.scalar(Fraction(1, 2), Fraction(1, 3)), 0]),
    ]


def test_content_table_agrees_with_the_box_predicates():
    for p in table_params():
        grid = box_grid(p.ell, 3)
        table = content_table(p, grid)
        assert list(table) == grid
        D = lcm(p.ell, p.kappa.a.denominator, *(entry.a.denominator for entry in p.h))
        for a in grid:
            class_a, content_a = table[a]
            assert isinstance(class_a, int) and isinstance(content_a, int)
            assert Fraction(content_a, D) == cont(p, a).a
            for b in grid:
                class_b, content_b = table[b]
                assert (class_a == class_b) == box_equiv(p, a, b)
                assert (class_a == class_b and content_a < content_b) == box_less(p, a, b)
                # Class ids sort like the (kappa coefficient, residue) keys.
                key_a, key_b = content_class_key(p, a), content_class_key(p, b)
                assert (class_a < class_b) == (key_a < key_b)


def test_content_table_ties_stay_inside_one_component():
    # Equal content inside one class forces the same component, so no
    # tie between components needs breaking.
    for p in table_params():
        entries = content_table(p, box_grid(p.ell, 3))
        for a in entries:
            for b in entries:
                if entries[a] == entries[b]:
                    assert a.i == b.i


def test_content_table_denominator_and_empty_grid():
    p = Params.build(KappaMode.rational(Fraction(2, 3)), [Fraction(1, 4), Fraction(-1, 4)])
    # D = lcm(2, 3, 4) = 12, so h_0 = 1/4 scales to 3.
    assert content_table(p, [Box(1, 1, 0)])[Box(1, 1, 0)][1] == 3
    assert content_table(p, []) == {}


def test_content_table_compiles_the_boxes_it_is_given():
    rng = random.Random(23)
    for p in table_params():
        grid = box_grid(p.ell, 4)
        whole = content_table(p, grid)
        given = rng.sample(grid, len(grid) // 3)
        given += rng.sample(given, 5)  # repeats keep their first position
        rng.shuffle(given)
        table = content_table(p, given)
        assert list(table) == list(dict.fromkeys(given))
        assert table == {box: whole[box] for box in given}


def test_content_table_refuses_a_component_outside_ell():
    for p in table_params():
        for i in (-1, p.ell):
            with pytest.raises(ValueError):
                content_table(p, [Box(1, 1, 0), Box(1, 1, i)])


def test_content_class_key_matches_equivalence():
    for p in sample_params():
        grid = box_grid(p.ell, 3)
        for a in grid:
            for b in grid:
                assert (content_class_key(p, a) == content_class_key(p, b)) == box_equiv(
                    p, a, b
                )


@given(
    data=st.data(),
    kappa=st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(-1), None]),
)
def test_offset_list_never_reduced_mod_ell(data, kappa):
    # Z + (i - i')/ell is invariant under integer shifts of the offset, so
    # literal and mod-reduced indices agree; assert the underlying predicate.
    mode = KappaMode.formal() if kappa is None else KappaMode.rational(kappa)
    x = mode.scalar(
        data.draw(st.fractions(max_denominator=24)),
        data.draw(st.fractions(max_denominator=24)),
    )
    offset = data.draw(st.fractions(max_denominator=8))
    k = data.draw(st.integers(-4, 4))
    assert x.in_integers_plus(offset) == x.in_integers_plus(offset + k)
