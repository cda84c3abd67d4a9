"""Parameters, box contents, and the content-based order on boxes.

The content of box (x, y, i) is h_i + kappa*(y - x).  Two boxes are
comparable only when their contents differ by an integer plus
(i - i')/ell, taken with the literal component indices.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import lcm

from .combinatorics import Box
from .scalars import KappaMode, ParamScalar, RationalLike, refuse_foreign_keys


class Params:
    """A kappa mode together with the component offsets h_0, ..., h_{ell-1}.

    The offsets are only meaningful up to a common summand; the
    constructor normalizes to the representative with sum(h) = 0.
    """

    def __init__(self, mode: KappaMode, h: tuple[ParamScalar, ...]) -> None:
        if not h:
            raise ValueError("need at least one component offset")
        h = tuple(h)
        for entry in h:
            if not isinstance(entry, ParamScalar) or entry.mode != mode:
                raise ValueError("offsets must be scalars in the declared kappa mode")
        shift = sum(h, mode.zero()) / len(h)
        self.mode = mode
        self.h = tuple(entry - shift for entry in h)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and (self.mode, self.h) == (other.mode, other.h)

    def __hash__(self) -> int:
        return hash((self.mode, self.h))

    @classmethod
    def build(
        cls, mode: KappaMode, h: "list[ParamScalar | RationalLike]"
    ) -> Params:
        entries = tuple(
            entry if isinstance(entry, ParamScalar) else mode.scalar(entry)
            for entry in h
        )
        return cls(mode, entries)

    @property
    def ell(self) -> int:
        return len(self.h)

    @property
    def kappa(self) -> ParamScalar:
        return self.mode.kappa()

    @property
    def kappa_s(self) -> tuple[ParamScalar, ...]:
        """kappa*s_i = h_i + i/ell; the box order (content_table, box_equiv) shifts by -i/ell."""
        return tuple(entry + Fraction(i, self.ell) for i, entry in enumerate(self.h))

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "kappa": self.mode.label(),
            "h": [entry.to_json() for entry in self.h],
        }

    @classmethod
    def from_json(cls, data: dict) -> Params:
        if not isinstance(data, dict) or not isinstance(data.get("h"), list):
            raise ValueError("params must be a JSON object with a list h")
        refuse_foreign_keys(data, ("ell", "kappa", "h"), "params")
        mode = KappaMode.from_label(data["kappa"])
        h = tuple(ParamScalar.from_json(entry, mode) for entry in data["h"])
        p = cls(mode, h)
        if type(data["ell"]) is not int:
            raise ValueError("params field 'ell' must be of type int")
        if p.ell != data["ell"]:
            raise ValueError("ell does not match the number of offsets")
        return p


def cont(p: Params, box: Box) -> ParamScalar:
    """Content of a box: h_i + kappa*(y - x)."""
    return p.h[box.i] + p.kappa * (box.y - box.x)


def box_equiv(p: Params, b1: Box, b2: Box) -> bool:
    """Whether two boxes are comparable under p.

    True when cont(b1) - cont(b2) lies in Z + (b1.i - b2.i)/ell with the
    literal component indices (no reduction mod ell).
    """
    diff = cont(p, b1) - cont(p, b2)
    return diff.in_integers_plus(Fraction(b1.i - b2.i, p.ell))


def box_less(p: Params, b1: Box, b2: Box) -> bool:
    """Strict order: comparable boxes whose content difference is negative.

    Comparability forces the kappa part of the difference to vanish.
    """
    return box_equiv(p, b1, b2) and (cont(p, b1) - cont(p, b2)).a < 0


def content_class_key(p: Params, box: Box):
    """Hashable key constant exactly on comparability classes.

    Derived from cont(box) - i/ell: the kappa coefficient and the
    fractional part of the rational coefficient are invariants of the
    class, and together they separate distinct classes.
    """
    shifted = cont(p, box) - Fraction(box.i, p.ell)
    return (shifted.b, shifted.a % 1)


def content_table(p: Params, boxes: Iterable[Box]) -> dict[Box, tuple[int, int]]:
    """The contents of the given boxes, compiled to exact integers.

    The table is keyed in the order the boxes are given; a repeated box
    keeps its first position.  A box whose component lies outside
    0..ell-1 raises ValueError.

    Every content is scaled by one common denominator D = lcm(ell, the
    denominator of kappa, the denominators of the h_i), so D*a is an
    integer for the rational part a of each content.  A box maps to
    (class id, D*a).  The class id is the integer K*D + (D*a - (D/ell)*i)
    mod D, where K is the kappa coefficient times E, the lcm of the
    denominators of the kappa parts of the h_i (K = 0 in rational mode).
    The residue is below D, so the id is injective in (K, residue) and
    keeps its order; the ids give the same partition as
    content_class_key.  Inside one class, b1 < b2 exactly when
    D*a(b1) < D*a(b2), since the kappa coefficients agree there.  Equal
    contents inside one class force the same component: (D/ell)*(i - i')
    is then a multiple of D, and |i - i'| < ell leaves only i = i'.  So
    no tie between components ever has to be broken.
    """
    kappa = p.kappa  # a = the value of kappa (0 if formal), b = 1 if formal
    D = lcm(p.ell, kappa.a.denominator, *(entry.a.denominator for entry in p.h))
    step = D // p.ell
    base = [int(entry.a * D) for entry in p.h]
    slope = int(kappa.a * D)
    E = lcm(*(entry.b.denominator for entry in p.h))
    kappa_base = [int(entry.b * E) for entry in p.h]
    kappa_slope = int(kappa.b * E)
    entries = {}
    for box in boxes:
        if not 0 <= box.i < p.ell:
            raise ValueError("box component outside 0..ell-1")
        diagonal = box.y - box.x
        content = base[box.i] + slope * diagonal
        kappa_part = kappa_base[box.i] + kappa_slope * diagonal
        entries[box] = (kappa_part * D + (content - step * box.i) % D, content)
    return entries
