"""Parameter deformation with machine-checked certificates.

Given parameters p and a size n, produce deformed parameters p' that
differ from p by integers, induce the same box order on the relevant
coordinate grid, and whose attached stability vector is generic.  The
construction follows a fixed candidate schedule and every candidate is
verified outright, so correctness never rests on an asymptotic
"sufficiently large" argument.  A successful run returns a Certificate;
an exhausted schedule raises with diagnostics of the last failure.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import count, islice
from math import lcm

from .boxorder import Params, content_table
from .loci import (
    IndexMode,
    Stability,
    genericity_witness,
    spherical_report,
    theta_of_p,
)
from .mporder import OrderInstance, relation_p
from .scalars import KappaMode, format_rational

ASSUMED_LEMMAS = (
    "the box-matching order on multipartitions is contained in the "
    "c-function preorder of the given parameters",
    "for the deformed parameters, the c-function preorder is contained in "
    "the geometric order attached to the emitted stability vector",
)

# The defaults of localize's options, of --oracle-bound and of --retry-bound.
ORACLE_BOUND = 6
RETRY_BOUND = 64


class DeformationError(Exception):
    """Raised when no candidate in the schedule passes verification."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


def index_classes(p: Params) -> list[list[int]]:
    """Partition of the component indices by s_i - s_j in (1/kappa)*Z.

    That is kappa*s_i - kappa*s_j in Z, kappa parts included, so the
    kappa part and the fractional rational part of p.kappa_s[i] key the
    class of i.  Classes are listed by their first index.
    """
    classes: dict[tuple, list[int]] = {}
    for i, entry in enumerate(p.kappa_s):
        classes.setdefault((entry.b, entry.a % 1), []).append(i)
    return list(classes.values())


def verify_preservation(p: Params, p2: Params, n: int) -> dict | None:
    """Check that p and p2 induce the same box order on the full grid.

    Reads both orders off the content_table of each: two boxes are
    equivalent when their class ids agree, and b1 < b2 when besides
    b1 has the smaller integer content.  Both depend only on (i1, i2,
    d1 - d2), d = y - x, and the box of each (component, diagonal) in row 1
    or column 1 comes first in relevant_boxes order; so the pairs of those
    boxes, b1 outer, equivalence first, hold the first disagreement of the
    grid, returned as {"b1", "b2", "predicate", "before", "after"}, or None.
    """
    if p.ell != p2.ell:
        raise ValueError("parameter vectors have different lengths")
    if n < 1:
        raise ValueError("need n >= 1")
    old, new = content_table(p, n), content_table(p2, n)
    grid = [(box, *old[box], *new[box]) for box in old if 1 in (box.x, box.y)]
    for b1, old_class1, old_content1, new_class1, new_content1 in grid:
        for b2, old_class2, old_content2, new_class2, new_content2 in grid:
            before, after = old_class1 == old_class2, new_class1 == new_class2
            if before != after:
                return {"b1": [*b1], "b2": [*b2], "predicate": "equiv",
                        "before": before, "after": after}
            before = before and old_content1 < old_content2
            after = after and new_content1 < new_content2
            if before != after:
                return {"b1": [*b1], "b2": [*b2], "predicate": "less",
                        "before": before, "after": after}
    return None


def _integral_difference_failure(p: Params, p2: Params) -> dict | None:
    """Componentwise p2 - p must be an integer tuple (kappa slot included)."""
    slots = [("kappa", p.kappa, p2.kappa)]
    slots += [(f"h_{i}", p.h[i], p2.h[i]) for i in range(p.ell)]
    for slot, old, new in slots:
        a, b = new.a - old.a, new.b - old.b
        if a.denominator != 1 or b != 0:
            shown = format_rational(a) + ("" if p.mode.is_rational else f"+{format_rational(b)}k")
            return {"slot": slot, "difference": shown}
    return None


def required_checks(p: Params, p2: Params, n: int, index_mode: IndexMode) -> Iterator[dict]:
    """The checks a candidate must pass, in order, each run when reached.

    A check is {"name", "passed", "detail"}; passed is None for the
    informational entries localize appends.  The candidate search stops
    at the first failed check; localize runs them all again as its
    independent re-check.  A passed check carries the detail the
    certificate records; a failed one carries the witness the search
    reports.
    """
    failure = _integral_difference_failure(p, p2)
    yield {"name": "integral_difference", "passed": failure is None, "detail": failure or {}}
    violation = verify_preservation(p, p2, n)
    yield {"name": "box_order_preserved", "passed": violation is None,
           "detail": violation or {"n": n}}
    witness = genericity_witness(theta_of_p(p2), n, index_mode)
    detail = {"witness": witness} if witness else {"index_mode": index_mode.value}
    yield {"name": "theta_generic", "passed": witness is None, "detail": detail}


def _search(
    p: Params, n: int, index_mode: IndexMode, candidates, diagnostics: dict
) -> tuple[Params, dict]:
    """The first (p2, plan) of candidates that passes every required check.

    Raises DeformationError with diagnostics, the number of candidates
    tried and the last candidate's first failed check.
    """
    attempts = 0
    last: dict | None = None
    for p2, plan in candidates:
        attempts += 1
        checks = required_checks(p, p2, n, index_mode)
        failed = next((check for check in checks if not check["passed"]), None)
        if failed is None:
            return p2, plan
        last = {"plan": plan, "failure": {"check": failed["name"], **failed["detail"]}}
    raise DeformationError(
        "no deformation candidate passed verification",
        {**diagnostics, "candidates_tried": attempts, "last": last},
    )


def _rational_schedule(retry_bound: int):
    """Diagonal sweep over (t, g): multiplier steps and m-gap scalings.

    Both knobs genuinely matter: growing t rescales kappa, growing g
    widens the m-gaps, and some parameters need gaps comparable to M.
    """
    sweep = ((t, total - t) for total in count(2) for t in range(1, total))
    return islice(sweep, retry_bound)


def _gap_vector(ell: int, gap: int) -> list[int]:
    # Consecutive differences gap, gap+1, ... stay pairwise distinct, so
    # a zero h-vector still deforms to pairwise distinct theta entries.
    return [gap * i + i * (i - 1) // 2 for i in range(ell)]


def _candidate(p: Params, M: int, gap: int) -> tuple[Params, dict]:
    """The candidate kappa' = M*kappa, h' = h + (M-1)*kappa*s - m; plan {"M", "m"}.

    kappa*s is p.kappa_s, and m is the gap vector of gap.  The last m
    entry absorbs a remainder so that the sum-zero renormalization shift
    is itself an integer.  M = 1 keeps kappa, and so its mode, fixed; only
    formal mode takes it, as the rational schedule has t >= 1.
    """
    m = _gap_vector(p.ell, gap)
    shift = [(M - 1) * entry - m[i] for i, entry in enumerate(p.kappa_s)]
    remainder = int(sum(shift).a) % p.ell
    m[-1] += remainder
    shift[-1] -= remainder
    mode = p.mode if M == 1 else KappaMode.rational(M * p.mode.value)
    h = (entry + delta for entry, delta in zip(p.h, shift))
    p2 = Params(mode, tuple(mode.scalar(value.a, value.b) for value in h))
    return p2, {"M": M, "m": m}


def deform_rational(
    p: Params,
    n: int,
    index_mode: IndexMode = IndexMode.LITERAL,
    retry_bound: int = RETRY_BOUND,
) -> tuple[Params, dict]:
    """Deform rational-kappa parameters through candidates with M = 1 + t*D.

    D clears the denominators of kappa and of every kappa*s_i, so all
    differences are integral by construction.
    """
    if not p.mode.is_rational:
        raise ValueError("parameters are not in rational mode")
    if retry_bound < 0:
        raise ValueError("need retry_bound >= 0")
    kappa = p.mode.value
    if kappa == 0:
        raise ValueError("kappa must be nonzero")
    D = lcm(kappa.denominator, *(entry.a.denominator for entry in p.kappa_s))
    candidates = (_candidate(p, 1 + t * D, gap) for t, gap in _rational_schedule(retry_bound))
    return _search(p, n, index_mode, candidates, {"mode": "rational"})


def deform_formal(
    p: Params,
    n: int,
    index_mode: IndexMode = IndexMode.LITERAL,
    retry_bound: int = RETRY_BOUND,
) -> tuple[Params, dict]:
    """Deform formal-kappa parameters through candidates with M = 1: h' = h - m.

    Kappa stays fixed, so the component classes are carried over
    verbatim; only the integer vector m varies over the schedule.
    """
    if p.mode.is_rational:
        raise ValueError("parameters are not in formal mode")
    if retry_bound < 0:
        raise ValueError("need retry_bound >= 0")
    candidates = (_candidate(p, 1, gap) for gap in range(1, retry_bound + 1))
    diagnostics = {"mode": "formal", "index_classes": index_classes(p)}
    return _search(p, n, index_mode, candidates, diagnostics)


class Certificate:
    """Verified record of one deformation run.

    Every check with a boolean outcome has passed; informational entries
    carry passed = None.  The two standing assumptions that cannot be
    checked mechanically are listed verbatim in assumed_lemmas.  theta and
    conventions are read off p_prime and index_mode.
    """

    assumed_lemmas = ASSUMED_LEMMAS

    def __init__(self, p: Params, p_prime: Params, plan: dict, checks: tuple[dict, ...],
                 index_mode: IndexMode = IndexMode.LITERAL) -> None:
        if any(check["passed"] is False for check in checks):
            raise ValueError("certificates cannot carry failed checks")
        self.p, self.p_prime, self.plan, self.checks = p, p_prime, plan, checks
        self.index_mode = index_mode

    @property
    def theta(self) -> Stability:
        return theta_of_p(self.p_prime)

    @property
    def conventions(self) -> dict:
        return {"h_normalization": "sum-zero", "p_prime_first_slot": "kappa-prime",
                "genericity_index_mode": self.index_mode.value}

    def to_json(self) -> dict:
        return {
            "p": self.p.to_json(),
            "p_prime": self.p_prime.to_json(),
            "theta": self.theta.to_json(),
            "plan": self.plan,
            "checks": [dict(check) for check in self.checks],
            "assumed_lemmas": list(self.assumed_lemmas),
            "conventions": self.conventions,
        }


def localize(p: Params, n: int, *, index_mode: IndexMode = IndexMode.LITERAL,
             oracle_bound: int = ORACLE_BOUND, retry_bound: int = RETRY_BOUND) -> Certificate:
    """Produce a generic stability vector for p with a verified certificate.

    Deforms p per its kappa mode, reads theta off the deformed
    parameters, and re-runs every check independently of the retry loop.
    The order relations are compared only for n <= oracle_bound.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if oracle_bound < 0:
        raise ValueError("need oracle_bound >= 0")
    deform = deform_rational if p.mode.is_rational else deform_formal
    p2, plan = deform(p, n, index_mode, retry_bound)
    checks = list(required_checks(p, p2, n, index_mode))
    if n <= oracle_bound:
        same = relation_p(OrderInstance(p, n)) == relation_p(OrderInstance(p2, n))
        checks.append({"name": "order_relation_equal", "passed": same, "detail": {"n": n}})
    else:
        skipped = {"skipped": f"n > {oracle_bound}"}
        checks.append({"name": "order_relation_equal", "passed": None, "detail": skipped})
    checks.append({"name": "spherical", "passed": None, "detail": spherical_report(p, n)})

    failed = [check["name"] for check in checks if check["passed"] is False]
    if failed:
        raise DeformationError(
            "verification failed after deformation",
            {"failed_checks": failed, "plan": plan},
        )

    return Certificate(p, p2, plan, tuple(checks), index_mode)
