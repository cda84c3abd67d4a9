"""Three identities of the matching order, each a second derivation of it.

Each follows from the content h_i + kappa*(y - x) of box (x, y, i) and
the class test: two boxes are comparable when their contents differ by an
element of Z + (i - i')/ell.  Each costs two relation_p calls, so the same
checks run at the size-guard corner ell = 4, n = 8 as well:

    PYTHONPATH=src:tests python -c "import test_identities as t; t.check_the_guard_corner()"
"""

from fractions import Fraction
from itertools import count
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from cherloc import KappaMode, OrderInstance, Params, relation_p

FRACTIONS = st.fractions(min_value=-2, max_value=2, max_denominator=6)


def order(mode: KappaMode, h: list, n: int):
    return relation_p(OrderInstance(Params.build(mode, h), n))


def conjugate(partition: tuple) -> tuple:
    return tuple(sum(row > col for row in partition) for col in range(max(partition, default=0)))


def relabelled(rel, image, labels) -> list[int]:
    """The bit rows of rel over labels, with each label a of rel renamed image(a)."""
    position = {label: k for k, label in enumerate(labels)}
    moved = [position[image(label)] for label in rel.labels]
    assert sorted(moved) == list(range(len(labels)))  # image is a bijection onto labels
    rows = [0] * len(labels)
    for a, row in enumerate(rel.rows):
        rows[moved[a]] = sum(1 << moved[b] for b, bit in enumerate(bin(row)[:1:-1]) if bit == "1")
    return rows


def transposed(rows: list[int]) -> list[int]:
    columns = [0] * len(rows)
    for a, row in enumerate(rows):
        for b, bit in enumerate(bin(row)[:1:-1]):
            if bit == "1":
                columns[b] |= 1 << a
    return columns


def conjugation_holds(kappa: Fraction, h: list, n: int) -> bool:
    """order(kappa; h) is order(-kappa; h) with every component conjugated:
    box (x, y, i) has the same content at kappa as box (y, x, i) at -kappa."""
    before = order(KappaMode.rational(kappa), h, n)
    after = order(KappaMode.rational(-kappa), h, n)
    rows = relabelled(before, lambda label: tuple(map(conjugate, label)), after.labels)
    return rows == list(after.rows)


def reversal_holds(kappa: Fraction, h: list, n: int) -> bool:
    """order(-kappa; -h_{ell-1}, ..., -h_0) is the transpose of order(kappa; h)
    with the components reversed: box (x, y, i) goes to (x, y, ell-1-i), every
    content is negated, and the residue (i - i')/ell becomes (i' - i)/ell."""
    before = order(KappaMode.rational(kappa), h, n)
    after = order(KappaMode.rational(-kappa), [-entry for entry in reversed(h)], n)
    rows = relabelled(before, lambda label: label[::-1], after.labels)
    return transposed(rows) == list(after.rows)


def specialization_prime(a: list, b: list, n: int) -> int:
    """The least prime Q at which kappa = 1/Q, h_i = a_i + b_i/Q orders the
    ell-multipartitions of n as the formal h_i = a_i + b_i*k does, by this bound.

    Box (x, y, i) has the content a_i + m/Q, m = b_i + y - x, at kappa = 1/Q.
    Let E = lcm of the denominators of the b_i and D = lcm(ell, the
    denominators of the a_i).  Two boxes are comparable when
    alpha + c/(E*Q) is an integer, where alpha = a_i - a_i' - (i - i')/ell has
    a denominator dividing D and c = E*(m - m') is an integer.  Times D*E*Q,
    that integer makes D*c a multiple of Q.  Take Q prime and above D*E, so
    that Q divides neither D nor E, and above every |c|, so that Q divides c
    only when c = 0.  A box of a partition of n has |y - x| <= n - 1, so
    |c| <= E*(2*(n - 1) + max(b) - min(b)).  Then the boxes are comparable
    exactly when m = m' and alpha is an integer, which is the formal class
    test: the kappa coefficient of the difference vanishes and the rest lies
    in Z + (i - i')/ell.  Inside a class m = m', so both orders compare
    a_i and a_i', and the two orders agree.
    """
    E = lcm(*(entry.denominator for entry in b))
    D = lcm(len(a), *(entry.denominator for entry in a))
    spread = E * (2 * max(n - 1, 0) + max(b) - min(b))
    return next(q for q in count(max(spread, D * E) + 1)
                if q > 1 and all(q % d for d in range(2, int(q ** 0.5) + 1)))


def specialization_holds(a: list, b: list, n: int) -> bool:
    """The formal order at h_i = a_i + b_i*k is the rational order at
    kappa = 1/Q, h_i = a_i + b_i/Q, for Q = specialization_prime(a, b, n)."""
    formal = KappaMode.formal()
    rational = KappaMode.rational(Fraction(1, specialization_prime(a, b, n)))
    before = order(formal, [formal.scalar(x, y) for x, y in zip(a, b)], n)
    after = order(rational, [rational.scalar(x, y) for x, y in zip(a, b)], n)
    return before == after


def offsets(draw, ell: int) -> list[Fraction]:
    """ell rational offsets; an offset i/ell plus an integer puts component i's
    boxes in the classes of component 0, which a random one seldom does."""
    shared = st.integers(-1, 1).map(Fraction)
    return [draw(FRACTIONS | shared.map(lambda z: z + Fraction(i, ell))) for i in range(ell)]


@st.composite
def rational_instances(draw):
    ell, n = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    return draw(FRACTIONS), offsets(draw, ell), n


@settings(max_examples=60, deadline=None)
@given(instance=rational_instances())
def test_conjugating_every_component_negates_kappa(instance):
    assert conjugation_holds(*instance)


@settings(max_examples=60, deadline=None)
@given(instance=rational_instances())
def test_reversing_the_components_and_negating_p_transposes_the_order(instance):
    assert reversal_holds(*instance)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_formal_order_is_the_rational_order_at_a_large_prime(data):
    ell, n = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 4))
    a = offsets(data.draw, ell)
    b = [Fraction(data.draw(st.sampled_from([-1, 0, 1, Fraction(1, 2)]))) for _ in range(ell)]
    assert specialization_holds(a, b, n)


def test_the_identities_are_not_vacuous():
    # The maps move labels, and reversal transposes an order that is not symmetric.
    assert conjugate((3, 1)) == (2, 1, 1) and conjugate(()) == ()
    rel = order(KappaMode.rational(Fraction(1, 2)), [0, Fraction(1, 3)], 3)
    assert transposed(list(rel.rows)) != list(rel.rows)
    assert specialization_prime([Fraction(1, 4), 0], [Fraction(1), Fraction(-1)], 4) == 11


def check_the_guard_corner() -> None:
    """The three identities at ell = 4, n = 8, the corner of the default size guard."""
    half = Fraction(1, 2)
    assert conjugation_holds(half, [0] * 4, 8)
    assert reversal_holds(half, [Fraction(1, 7), Fraction(2, 7), Fraction(3, 7), 0], 8)
    assert specialization_holds([Fraction(i, 4) for i in range(4)], [Fraction(0)] * 4, 8)
