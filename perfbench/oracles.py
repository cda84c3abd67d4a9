"""Independent checks of cherloc artifacts.

Nothing here imports cherloc: every check recomputes what it needs from
the definitions (contents h_i + kappa*(y - x), the matching order, the
aspherical hyperplanes, the genericity inequalities, closure of a
relation) with its own arithmetic and algorithms.  Each check returns
None when the artifact passes, or a one-line reason when it does not.

A scalar a + b*kappa is a pair (a, b) of Fractions.  In rational mode
kappa is substituted at once, so b is always 0 there.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

# ---------------------------------------------------------------- labels


def partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n with parts <= cap, largest part first."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    out = []
    for first in range(1, min(n, cap) + 1):
        out.extend((first,) + rest for rest in partitions(n - first, first))
    return out


def multipartitions(ell: int, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All ell-multipartitions of n, in descending lexicographic order."""
    if ell == 1:
        found = [(p,) for p in partitions(n)]
    else:
        found = [
            (p,) + rest
            for size in range(n + 1)
            for p in partitions(size)
            for rest in multipartitions(ell - 1, n - size)
        ]
    return sorted(found, reverse=True)


def label_key(label) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(component) for component in label)


# -------------------------------------------------------------- scalars


def parse_q(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def parse_scalar_text(text: str) -> tuple[Fraction, Fraction]:
    """Command-line scalar syntax: '3', '-1/2', '1/2-3k', 'k'."""
    if not text.endswith("k"):
        return parse_q(text), Fraction(0)
    body = text[:-1]
    cut = max(body.rfind("+", 1), body.rfind("-", 1))
    a_text, b_text = (body[:cut], body[cut:]) if cut > 0 else ("", body)
    b = {"": 1, "+": 1, "-": -1}.get(b_text)
    return (parse_q(a_text) if a_text else Fraction(0),
            Fraction(b) if b is not None else parse_q(b_text))


class Param:
    """p = (kappa; h) as exact pairs; kappa is None in formal mode."""

    def __init__(self, kappa: Fraction | None, h):
        self.kappa = kappa
        h = [self.scalar(a, b) for a, b in h]
        shift_a = sum(a for a, _ in h) / len(h)
        shift_b = sum(b for _, b in h) / len(h)
        self.h = [(a - shift_a, b - shift_b) for a, b in h]

    @classmethod
    def from_args(cls, kappa_text: str, h_texts: list[str]) -> Param:
        kappa = None if kappa_text == "formal" else parse_q(kappa_text)
        return cls(kappa, [parse_scalar_text(t) for t in h_texts])

    @classmethod
    def from_json(cls, data: dict) -> Param:
        kappa = None if data["kappa"] == "formal" else parse_q(data["kappa"])
        h = [(parse_q(e["a"]), parse_q(e.get("b", "0/1"))) for e in data["h"]]
        if len(h) != data["ell"]:
            raise ValueError("ell does not match the number of offsets")
        return cls(kappa, h)

    def scalar(self, a, b) -> tuple[Fraction, Fraction]:
        a, b = Fraction(a), Fraction(b)
        if self.kappa is not None:
            return a + b * self.kappa, Fraction(0)
        return a, b

    @property
    def ell(self) -> int:
        return len(self.h)

    def kappa_pair(self) -> tuple[Fraction, Fraction]:
        return self.scalar(0, 1)

    def content(self, x: int, y: int, i: int) -> tuple[Fraction, Fraction]:
        ka, kb = self.kappa_pair()
        return self.h[i][0] + ka * (y - x), self.h[i][1] + kb * (y - x)

    def same_as(self, other: Param) -> bool:
        return self.kappa == other.kappa and self.h == other.h


def box_relations(p: Param, b1, b2) -> tuple[bool, bool]:
    """(equivalent, strictly less) for two boxes (x, y, i) under p."""
    c1, c2 = p.content(*b1), p.content(*b2)
    da, db = c1[0] - c2[0], c1[1] - c2[1]
    equiv = db == 0 and (da - Fraction(b1[2] - b2[2], p.ell)).denominator == 1
    return equiv, equiv and da < 0


# ------------------------------------------------------- matching order


def _boxes(label) -> list[tuple[int, int, int]]:
    return [
        (x, y, i)
        for i, component in enumerate(label)
        for x, row in enumerate(component, start=1)
        for y in range(1, row + 1)
    ]


def _class_key(p: Param, box) -> tuple[Fraction, Fraction]:
    a, b = p.content(*box)
    a -= Fraction(box[2], p.ell)
    return b, a - (a.numerator // a.denominator)


def matching_leq(p: Param, lam, mu) -> bool:
    """lam <= mu: a bijection of boxes sending each box weakly below its image.

    Boxes of different classes are never comparable, so the bijection
    splits by class; each class is settled by a subset dynamic programme
    over the boxes of mu (classes hold at most n boxes).
    """
    left: dict = {}
    right: dict = {}
    for box in _boxes(lam):
        left.setdefault(_class_key(p, box), []).append(box)
    for box in _boxes(mu):
        right.setdefault(_class_key(p, box), []).append(box)
    if {k: len(v) for k, v in left.items()} != {k: len(v) for k, v in right.items()}:
        return False
    for key, lboxes in left.items():
        rboxes = right[key]
        ok = [
            [a == b or box_relations(p, a, b)[1] for b in rboxes] for a in lboxes
        ]
        reachable = {0}
        for row in ok:
            reachable = {
                mask | (1 << j)
                for mask in reachable
                for j, edge in enumerate(row)
                if edge and not mask >> j & 1
            }
        if not reachable:
            return False
    return True


# ------------------------------------------------------------ relations


def bit_rows(matrix) -> list[int]:
    return [sum(1 << j for j, v in enumerate(row) if v) for row in matrix]


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_relation_shape(artifact, labels) -> str | None:
    got = [label_key(label) for label in artifact.get("labels", ())]
    if got != [label_key(label) for label in labels]:
        return "labels differ from the independent enumeration"
    matrix = artifact.get("matrix")
    k = len(labels)
    if not isinstance(matrix, list) or len(matrix) != k:
        return "matrix has the wrong number of rows"
    for row in matrix:
        if not isinstance(row, list) or len(row) != k or any(v not in (0, 1) for v in row):
            return "matrix row is not a 0/1 row of the label count"
    return None


def order_axioms(rows: list[int]) -> str | None:
    k = len(rows)
    cols = [sum(1 << a for a in range(k) if rows[a] >> b & 1) for b in range(k)]
    for a in range(k):
        if not rows[a] >> a & 1:
            return f"not reflexive at {a}"
        if (rows[a] & cols[a]) & ~(1 << a):
            return f"not antisymmetric at {a}"
        for b in _bits(rows[a]):
            if rows[b] & ~rows[a]:
                return f"not transitive at {a} <= {b}"
    return None


def check_order(
    artifact, ell: int, n: int, p: Param, seed: int, samples: int | None
) -> str | None:
    """Labels, partial-order axioms, and pairs re-decided by matching_leq.

    The pairs are `samples` random pairs plus `samples` random related
    pairs, drawn from `seed`; samples=None re-decides every pair.
    """
    labels = multipartitions(ell, n)
    reason = check_relation_shape(artifact, labels)
    if reason:
        return reason
    rows = bit_rows(artifact["matrix"])
    reason = order_axioms(rows)
    if reason:
        return reason
    k = len(labels)
    if samples is None:
        pairs = [(a, b) for a in range(k) for b in range(k)]
    else:
        rng = random.Random(seed)
        pairs = [(rng.randrange(k), rng.randrange(k)) for _ in range(samples)]
        related = [(a, b) for a in range(k) for b in range(k) if a != b and rows[a] >> b & 1]
        pairs += rng.sample(related, min(samples, len(related)))
    for a, b in pairs:
        if matching_leq(p, labels[a], labels[b]) != bool(rows[a] >> b & 1):
            return f"pair ({a}, {b}) re-decided differently"
    return None


def closure(rows: list[int]) -> list[int]:
    """Reflexive-transitive closure: breadth-first reachability from each label."""
    out = []
    for a, row in enumerate(rows):
        reach = frontier = row | (1 << a)
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= rows[v]
            frontier = nxt & ~reach
            reach |= nxt
        out.append(reach)
    return out


def girth(rows: list[int]) -> int | None:
    """Length of a shortest directed cycle of distinct labels, or None."""
    k = len(rows)
    strict = [row & ~(1 << a) for a, row in enumerate(rows)]
    best = None
    for start in range(k):
        seen, frontier, depth = 1 << start, 1 << start, 0
        while frontier and (best is None or depth + 1 < best):
            depth += 1
            nxt = 0
            for v in _bits(frontier):
                nxt |= strict[v]
            if nxt >> start & 1:
                best = depth
                break
            frontier = nxt & ~seen
            seen |= nxt
    return best


def check_refinement(
    artifact, exit_code: int, labels, rows1: list[int], rows2: list[int], planted: bool
) -> str | None:
    """Closure of the union when the inputs share a linear extension, else a
    shortest cycle of the union."""
    if exit_code != (1 if planted else 0):
        return f"exit {exit_code} does not match how the input was built"
    union = [a | b for a, b in zip(rows1, rows2)]
    labels = [label_key(label) for label in labels]
    if not planted:
        reason = check_relation_shape(artifact, labels)
        if reason:
            return reason
        if bit_rows(artifact["matrix"]) != closure(union):
            return "refinement is not the closure of the union"
        return None
    cycle = [label_key(label) for label in artifact.get("cycle", ())]
    index = {label: pos for pos, label in enumerate(labels)}
    if len(cycle) < 2 or any(label not in index for label in cycle):
        return "cycle is not a list of known labels"
    nodes = [index[label] for label in cycle]
    if len(set(nodes)) != len(nodes):
        return "cycle repeats a label"
    for a, b in zip(nodes, nodes[1:] + nodes[:1]):
        if not union[a] >> b & 1:
            return f"cycle step {a} -> {b} is not in the union"
    if len(nodes) != girth(union):
        return "cycle is longer than the union's girth"
    return None


# ------------------------------------------------------- aspherical locus


def brute_witnesses(p: Param, n: int) -> list[dict]:
    """Every aspherical hyperplane through p, by direct enumeration.

    The bound N <= i + (sqrt(n + m^2/4) - m/2 - 1)*ell is multiplied
    through by 2*ell: A = 2(N - i) + 2*ell + m*ell must satisfy
    A <= ell*sqrt(4n + m^2), decided on integers.
    """
    out = []
    if p.kappa is not None:
        out += [
            {"family": "kappa-fraction", "r": r, "s": s}
            for s in range(2, n + 1)
            for r in range(1, s + 1)
            if p.kappa == Fraction(r, s)
        ]
    ell = p.ell
    ka, kb = p.kappa_pair()
    for i in range(ell):
        for m in range(-(n - 1), n):
            limit = i + ell * (isqrt(4 * n + m * m) + abs(m) + 2)
            for N in range(1, limit + 1):
                A = 2 * (N - i) + 2 * ell + m * ell
                if A > 0 and A * A > ell * ell * (4 * n + m * m):
                    continue
                if N % ell == 0:
                    continue
                j = (i - N) % ell
                rhs = (p.h[j][0] - p.h[i][0] + ka * m, p.h[j][1] - p.h[i][1] + kb * m)
                if rhs == (Fraction(N, ell), Fraction(0)):
                    out.append(
                        {"family": "content-hyperplane", "i": i, "m": m, "N": N, "j": j}
                    )
    return out


def _witness_key(w: dict) -> str:
    return repr(sorted(w.items()))


def check_spherical(artifact, exit_code: int, p: Param, n: int) -> str | None:
    expected = brute_witnesses(p, n)
    got = artifact.get("witnesses")
    if not isinstance(got, list):
        return "no witness list"
    if sorted(map(_witness_key, got)) != sorted(map(_witness_key, expected)):
        return "witnesses differ from the brute enumeration"
    if artifact.get("spherical") is not (not expected):
        return "spherical flag contradicts the witnesses"
    if exit_code != (1 if expected else 0):
        return f"exit {exit_code} contradicts the decision"
    return None


# ------------------------------------------------------------- localize


def theta(p: Param) -> list[tuple[Fraction, Fraction]]:
    ka, kb = p.kappa_pair()
    h, ell = p.h, p.ell
    out = [(-ka + h[0][0] - h[ell - 1][0], -kb + h[0][1] - h[ell - 1][1])]
    out += [(h[i][0] - h[i - 1][0], h[i][1] - h[i - 1][1]) for i in range(1, ell)]
    return out


def generic(th, n: int) -> bool:
    """sum(theta) != 0 and theta_i - theta_j != m*sum for i != j >= 1, |m| < n."""
    total = (sum(a for a, _ in th), sum(b for _, b in th))
    if total == (0, 0):
        return False
    for i in range(1, len(th)):
        for j in range(1, len(th)):
            if i == j:
                continue
            diff = (th[i][0] - th[j][0], th[i][1] - th[j][1])
            if any(diff == (total[0] * m, total[1] * m) for m in range(-(n - 1), n)):
                return False
    return True


def grid(ell: int, n: int):
    return [(x, y, i) for i in range(ell) for x in range(1, n + 1) for y in range(1, n + 1)]


def preservation_violation(p: Param, p2: Param, n: int):
    """First box pair whose (equivalent, less) differs between p and p2."""
    boxes = grid(p.ell, n)
    for b1 in boxes:
        for b2 in boxes:
            if box_relations(p, b1, b2) != box_relations(p2, b1, b2):
                return b1, b2
    return None


def check_certificate(artifact, exit_code: int, p: Param, n: int) -> str | None:
    if exit_code != 0:
        return f"exit {exit_code} for an instance that deforms"
    try:
        p_in = Param.from_json(artifact["p"])
        p2 = Param.from_json(artifact["p_prime"])
        th = [(parse_q(e["a"]), parse_q(e.get("b", "0/1"))) for e in artifact["theta"]["theta"]]
    except (KeyError, TypeError, ValueError):
        return "certificate is missing p, p_prime or theta"
    if not p_in.same_as(p):
        return "certificate p is not the input parameter"
    if p2.ell != p.ell or (p.kappa is None) != (p2.kappa is None):
        return "p_prime has another shape than p"
    diffs = [(a2 - a, b2 - b) for (a, b), (a2, b2) in zip(p.h, p2.h)]
    if p.kappa is not None:
        diffs.append((p2.kappa - p.kappa, Fraction(0)))
    if any(b != 0 or a.denominator != 1 for a, b in diffs):
        return "p_prime - p is not integral"
    if th != theta(p2):
        return "theta is not the one read off p_prime"
    if not generic(th, n):
        return "theta is not generic"
    if preservation_violation(p, p2, n) is not None:
        return "p_prime changes the box order on the grid"
    if any(check.get("passed") is False for check in artifact.get("checks", ())):
        return "certificate carries a failed check"
    return None


def _violations(node, plan=None):
    """(violation, plan) for every reported box-order violation, at any depth."""
    if isinstance(node, dict):
        plan = node.get("plan", plan)
        if {"b1", "b2", "predicate", "before", "after"} <= node.keys():
            yield node, plan
        for value in node.values():
            yield from _violations(value, plan)
    elif isinstance(node, list):
        for value in node:
            yield from _violations(value, plan)


def deformed(p: Param, plan: dict) -> Param:
    """The formal-mode candidate a plan describes: kappa kept, h' = h - m."""
    return Param(None, [(a - m_i, b) for (a, b), m_i in zip(p.h, plan["m"])])


def check_blocked(artifact, exit_code: int, p: Param, n: int) -> str | None:
    """Exit 1 without a certificate; every reported violation is real.

    The blocked instances are formal, so a plan's candidate is h - m.
    """
    if exit_code != 1:
        return f"exit {exit_code} for a blocked instance"
    if "p_prime" in artifact or artifact.get("failed") != "deformation":
        return "a blocked instance reports a certificate"
    for violation, plan in _violations(artifact):
        if plan is None:
            return "violation reported without its plan"
        p2 = deformed(p, plan)
        b1, b2 = tuple(violation["b1"]), tuple(violation["b2"])
        slot = 0 if violation["predicate"] == "equiv" else 1
        before, after = box_relations(p, b1, b2)[slot], box_relations(p2, b1, b2)[slot]
        if (before, after) != (violation["before"], violation["after"]) or before == after:
            return f"reported violation at {b1}, {b2} is not real"
    return None
