"""Stability vectors, genericity, and the aspherical parameter locus.

Everything here is decided in exact arithmetic; the square-root bound
for hyperplane enumeration is evaluated by clearing the root and
comparing rationals.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from itertools import combinations, product

from .boxorder import Params
from .scalars import KappaMode, ParamScalar


class Stability:
    """A stability vector theta_0, ..., theta_{ell-1} of exact scalars."""

    def __init__(self, theta: tuple[ParamScalar, ...]) -> None:
        theta = tuple(theta)
        if not theta:
            raise ValueError("stability vector must be nonempty")
        if any(entry.mode != theta[0].mode for entry in theta):
            raise ValueError("stability entries must share one kappa mode")
        self.theta = theta

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.theta == other.theta

    def __hash__(self) -> int:
        return hash((self.theta,))

    @property
    def ell(self) -> int:
        return len(self.theta)

    @property
    def mode(self) -> KappaMode:
        return self.theta[0].mode

    def total(self) -> ParamScalar:
        return sum(self.theta, self.mode.zero())

    def to_json(self) -> dict:
        return {
            "kappa": self.mode.label(),
            "theta": [entry.to_json() for entry in self.theta],
        }

    @classmethod
    def from_json(cls, data: dict) -> Stability:
        if not isinstance(data, dict) or not isinstance(data.get("theta"), list):
            raise ValueError("theta must be a JSON object with a list theta")
        mode = KappaMode.from_label(data["kappa"])
        return cls(tuple(ParamScalar.from_json(entry, mode) for entry in data["theta"]))


class IndexMode(Enum):
    """Index range for the pairwise genericity conditions.

    LITERAL uses components 1..ell-1 as written in the source
    inequalities; INCLUDE_ZERO extends them to all of 0..ell-1.
    """

    LITERAL = "literal"
    INCLUDE_ZERO = "include-zero"


def genericity_witness(
    stability: Stability, n: int, index_mode: IndexMode = IndexMode.LITERAL
) -> dict | None:
    """First violated genericity condition, or None when theta is generic.

    The witness is {"kind": "sum"} or {"kind": "difference", "i", "j", "m"}.
    Checks sum(theta) != 0, then theta_i - theta_j != m*sum(theta), solving
    for m, over |m| < n and i < j in the index range: (j, i) fails with -m.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    total = stability.total()
    if total.is_zero:
        return {"kind": "sum"}
    start = 1 if index_mode is IndexMode.LITERAL else 0
    for i, j in combinations(range(start, stability.ell), 2):
        diff = stability.theta[i] - stability.theta[j]
        m = diff.b / total.b if total.b else diff.a / total.a
        if m.denominator == 1 and abs(m) < n and diff == total * m:
            return {"kind": "difference", "i": i, "j": j, "m": int(m)}
    return None


class KappaFraction(namedtuple("KappaFraction", "r s")):
    """Aspherical hyperplane kappa = r/s with 0 < r <= s <= n, s > 1."""

    def to_json(self) -> dict:
        return {"family": "kappa-fraction", **self._asdict()}


class ContentHyperplane(namedtuple("ContentHyperplane", "i m N j")):
    """Aspherical hyperplane N/ell = h_j - h_i + m*kappa with j = i - N mod ell."""

    def to_json(self) -> dict:
        return {"family": "content-hyperplane", **self._asdict()}


def is_N_in_bound(n: int, m: int, i: int, ell: int, N: int) -> bool:
    """Exact test of N <= i + (sqrt(n + m^2/4) - m/2 - 1)*ell.

    Rearranged to (N - i)/ell + 1 + m/2 <= sqrt(n + m^2/4); a
    nonpositive left side is always in bound, otherwise both sides are
    squared and compared as rationals.
    """
    lhs = Fraction(N - i, ell) + 1 + Fraction(m, 2)
    if lhs <= 0:
        return True
    return lhs * lhs <= n + Fraction(m * m, 4)


def aspherical_witnesses(p: Params, n: int) -> list[KappaFraction | ContentHyperplane]:
    """All aspherical hyperplanes through p, in scan order.

    The kappa-fraction family applies only in rational mode and is taken
    literally: no gcd condition, and no mirror image for negative kappa.
    Each s allows the one r = kappa*s.  A content hyperplane through
    (i, m, j) holds exactly when t = kappa*s_j - kappa*s_i + m*kappa is an
    integer, at the one N = i - j + ell*t; its witnesses for one (i, m)
    come in increasing N, those with N >= 1 within the bound.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    witnesses: list[KappaFraction | ContentHyperplane] = []
    if p.mode.is_rational:
        for s in range(2, n + 1):
            r = p.mode.value * s
            if r.denominator == 1 and 1 <= r <= s:
                witnesses.append(KappaFraction(int(r), s))
    kappa, kappa_s = p.kappa, p.kappa_s
    for i, m in product(range(p.ell), range(-(n - 1), n)):
        shifts = ((j, kappa_s[j] - kappa_s[i] + kappa * m) for j in range(p.ell) if j != i)
        solved = sorted((i - j + p.ell * int(t.a), j) for j, t in shifts if t.in_integers_plus(0))
        witnesses += [ContentHyperplane(i, m, N, j) for N, j in solved
                      if N >= 1 and is_N_in_bound(n, m, i, p.ell, N)]
    return witnesses


def spherical_report(p: Params, n: int) -> dict:
    """Whether p is spherical at size n, with every aspherical witness as JSON."""
    witnesses = aspherical_witnesses(p, n)
    return {"spherical": not witnesses, "witnesses": [w.to_json() for w in witnesses]}


def theta_of_p(p: Params) -> Stability:
    """The stability vector attached to p.

    theta_0 = -kappa + h_0 - h_{ell-1} and theta_i = h_i - h_{i-1} for
    i >= 1; for ell = 1 this is just (-kappa).
    """
    entries = [-p.kappa + p.h[0] - p.h[p.ell - 1]]
    entries.extend(p.h[i] - p.h[i - 1] for i in range(1, p.ell))
    return Stability(tuple(entries))
