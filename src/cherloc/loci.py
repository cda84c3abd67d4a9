"""Stability vectors, genericity, and the aspherical parameter locus.

Everything here is decided in exact arithmetic; the square-root bound
for hyperplane enumeration is evaluated by clearing the root and
comparing rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import permutations, product

from .boxorder import Params
from .scalars import KappaMode, ParamScalar


@dataclass(frozen=True)
class Stability:
    """A stability vector theta_0, ..., theta_{ell-1} of exact scalars."""

    theta: tuple[ParamScalar, ...]

    def __post_init__(self) -> None:
        theta = tuple(self.theta)
        if not theta:
            raise ValueError("stability vector must be nonempty")
        if any(entry.mode != theta[0].mode for entry in theta):
            raise ValueError("stability entries must share one kappa mode")
        object.__setattr__(self, "theta", theta)

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


@dataclass(frozen=True)
class GenericityWitness:
    kind: str  # "sum" | "difference"
    i: int | None = None
    j: int | None = None
    m: int | None = None

    def to_json(self) -> dict:
        if self.kind == "sum":
            return {"kind": "sum"}
        return {"kind": "difference", "i": self.i, "j": self.j, "m": self.m}


def genericity_witness(
    stability: Stability, n: int, index_mode: IndexMode = IndexMode.LITERAL
) -> GenericityWitness | None:
    """First violated genericity condition, or None when theta is generic.

    Checks sum(theta) != 0, then theta_i - theta_j != m*sum(theta) for all
    distinct i, j in the index range and |m| < n, solving for the one m.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    total = stability.total()
    if total.is_zero:
        return GenericityWitness("sum")
    start = 1 if index_mode is IndexMode.LITERAL else 0
    for i, j in permutations(range(start, stability.ell), 2):
        diff = stability.theta[i] - stability.theta[j]
        m = diff.b / total.b if total.b else diff.a / total.a
        if m.denominator == 1 and abs(m) < n and diff == total * m:
            return GenericityWitness("difference", i, j, int(m))
    return None


@dataclass(frozen=True)
class KappaFraction:
    """Aspherical hyperplane kappa = r/s with 0 < r <= s <= n, s > 1."""

    r: int
    s: int

    def to_json(self) -> dict:
        return {"family": "kappa-fraction", "r": self.r, "s": self.s}


@dataclass(frozen=True)
class ContentHyperplane:
    """Aspherical hyperplane N/ell = h_j - h_i + m*kappa with j = i - N mod ell."""

    i: int
    m: int
    N: int
    j: int

    def to_json(self) -> dict:
        return {
            "family": "content-hyperplane",
            "i": self.i,
            "m": self.m,
            "N": self.N,
            "j": self.j,
        }


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


def theta_of_p(p: Params) -> Stability:
    """The stability vector attached to p.

    theta_0 = -kappa + h_0 - h_{ell-1} and theta_i = h_i - h_{i-1} for
    i >= 1; for ell = 1 this is just (-kappa).
    """
    entries = [-p.kappa + p.h[0] - p.h[p.ell - 1]]
    entries.extend(p.h[i] - p.h[i - 1] for i in range(1, p.ell))
    return Stability(tuple(entries))
