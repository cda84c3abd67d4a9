"""The record classes compare and hash by their fields, class included."""

from fractions import Fraction
from itertools import permutations

import pytest

from cherloc import KappaMode, Multipartition, Params, ParamScalar, Relation, Stability

HALF = KappaMode.rational(Fraction(1, 2))
FORMAL = KappaMode.formal()

# class name -> (a factory of one fixed record, a record that differs in one field)
RECORDS = {
    "KappaMode": (lambda: KappaMode.rational(Fraction(1, 2)), FORMAL),
    "ParamScalar": (lambda: ParamScalar(Fraction(1), Fraction(2), FORMAL),
                    ParamScalar(Fraction(1), Fraction(3), FORMAL)),
    "Params": (lambda: Params.build(FORMAL, [Fraction(1, 4), 0]),
               Params.build(HALF, [Fraction(1, 4), 0])),
    "Multipartition": (lambda: Multipartition(((2, 1), ())), Multipartition(((2,), (1,)))),
    "Stability": (lambda: Stability((HALF.scalar(1), HALF.scalar(-1))),
                  Stability((HALF.scalar(-1), HALF.scalar(1)))),
    "Relation": (lambda: Relation(("a", "b"), [0b11, 0b10]), Relation(("a", "b"), [0b01, 0b10])),
}


@pytest.mark.parametrize("make, other", RECORDS.values(), ids=RECORDS)
def test_equal_fields_give_equal_records_with_equal_hashes(make, other):
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert {first: 1}[second] == 1
    assert first != other and not first == other


@pytest.mark.parametrize("make, _", RECORDS.values(), ids=RECORDS)
def test_a_subclass_with_the_same_fields_is_unequal(make, _):
    record = make()
    twin = object.__new__(type("Twin", (type(record),), {}))
    vars(twin).update(vars(record))
    assert record != twin and twin != record


def test_records_of_different_classes_are_unequal():
    for first, second in permutations([make() for make, _ in RECORDS.values()], 2):
        assert first != second
