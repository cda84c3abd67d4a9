"""The benchmark's workloads: job lists and generated inputs, all from a seed.

A job is one `python -m cherloc.cli` invocation with default options, plus
the independent check its artifact must pass.  The seed picks the
generic `h` vectors, the labelling of the relations of `refine-orders` and
the pairs the order check re-decides; it changes how much work a job is
only by a few percent, in `refine-orders`, so figures from different seeds
are comparable.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import oracles

# Generic offsets r/GENERIC_DEN with distinct r: no two components share a
# content class, whatever r the seed draws, so the work a job does is the
# same for every seed.
GENERIC_DEN = 101
ORDER_SAMPLE = 200


@dataclass
class Job:
    name: str
    argv: list[str]
    check: Callable[[dict, int], str | None]
    extra_outputs: list[str] = field(default_factory=list)
    # The job largest_job_s reports.
    heaviest: bool = False


def generic_h(rng: random.Random, ell: int) -> list[str]:
    picks = rng.sample(range(1, GENERIC_DEN), ell)
    return [f"{r}/{GENERIC_DEN}" for r in picks]


def _h_args(h: list[str] | None) -> list[str]:
    return [f"--h={','.join(h)}"] if h else []


def _param(kappa: str, ell: int, h: list[str] | None) -> oracles.Param:
    return oracles.Param.from_args(kappa, h or ["0"] * ell)


def order_job(ell, n, kappa, h, rng, dot=None, heaviest=False) -> Job:
    p = _param(kappa, ell, h)
    check_seed = rng.randrange(2**32)
    argv = ["order", "--ell", str(ell), "--n", str(n), "--kappa", kappa, *_h_args(h)]
    if dot:
        argv += ["--dot", dot]
    return Job(
        f"order-{ell}-{n}-{kappa}-{'h' if h else '0'}",
        argv,
        lambda art, code: (f"exit {code}" if code else None)
        or oracles.check_order(art, ell, n, p, check_seed, ORDER_SAMPLE),
        extra_outputs=[dot] if dot else [],
        heaviest=heaviest,
    )


def localize_job(ell, n, kappa, h, blocked: bool, heaviest=False) -> Job:
    p = _param(kappa, ell, h)
    check = oracles.check_blocked if blocked else oracles.check_certificate
    argv = ["localize", "--ell", str(ell), "--n", str(n), "--kappa", kappa, *_h_args(h)]
    return Job(
        f"localize-{ell}-{n}-{kappa}-{'blocked' if blocked else 'ok'}",
        argv,
        lambda art, code: check(art, code, p, n),
        heaviest=heaviest,
    )


def spherical_job(ell, n, kappa, h) -> Job:
    p = _param(kappa, ell, h)
    argv = ["spherical", "--ell", str(ell), "--n", str(n), "--kappa", kappa, *_h_args(h)]
    return Job(
        f"spherical-{ell}-{n}-{kappa}",
        argv,
        lambda art, code: oracles.check_spherical(art, code, p, n),
    )


# A formal parameter with h_i = i/ell: every component's offsets share
# content classes, so boxes of different components are compared and the
# order is not the identity (a formal order with generic or zero h is).
SHARED_FORMAL_H = ["0", "1/3", "2/3"]


def order_ladder(rng: random.Random, workdir: str) -> list[Job]:
    """order jobs from (1, 6) to (4, 4) over kappa in {1/2, 2/3, formal}.

    Every rung is a non-trivial order: pairs reach the matcher and some
    of them hold, on the heaviest job too.
    """
    g = lambda ell: generic_h(rng, ell)  # noqa: E731
    return [
        order_job(1, 6, "1/2", None, rng),
        order_job(1, 6, "2/3", None, rng),
        order_job(2, 4, "1/2", None, rng, dot=os.path.join(workdir, "order-2-4.dot")),
        order_job(2, 4, "2/3", g(2), rng),
        order_job(3, 4, "formal", SHARED_FORMAL_H, rng),
        order_job(4, 4, "1/2", g(4), rng, heaviest=True),
    ]


# A formal parameter with h_1 - h_0 = 1/ell: box (1,1,0) lies below (1,1,1)
# and stays so only if m_1 - m_0 <= 0, while every candidate needs
# m_1 > m_0.  No candidate can pass, so localize must exit 1.
BLOCKED = (2, 8, ["-1/4", "1/4"])


def localize_grid(rng: random.Random, workdir: str) -> list[Job]:
    """localize above the oracle bound (n = 7, 8), a blocked instance, spherical."""
    ell, n, h = BLOCKED
    return [
        localize_job(1, 7, "1/2", None, blocked=False),
        localize_job(2, 7, "formal", generic_h(rng, 2), blocked=False, heaviest=True),
        localize_job(ell, n, "formal", h, blocked=True),
        spherical_job(1, 7, "1/2", None),
        spherical_job(ell, n, "formal", h),
        spherical_job(3, 8, "formal", generic_h(rng, 3)),
    ]


# --------------------------------------------------------------- relations


def random_order(rank: list[int], dims: int, rng: random.Random) -> list[int]:
    """Bit rows of the intersection of `rank` with `dims - 1` random linear orders.

    Every such relation is a partial order with `rank` as a linear
    extension; a random d-dimensional order has about 1/2^d of its
    off-diagonal entries set.
    """
    k = len(rank)
    rows = [(1 << k) - 1] * k
    for d in range(dims):
        if d:
            rank = list(range(k))
            rng.shuffle(rank)
        above = 0
        for label in sorted(range(k), key=rank.__getitem__, reverse=True):
            rows[label] &= above
            above |= 1 << label
    return [row | 1 << a for a, row in enumerate(rows)]


def plant_reversal(rank: list[int], rows1: list[int], rows2: list[int]) -> list[int]:
    """rows2 closed again after adding b <= a for some a < b of rows1.

    The pair is incomparable in rows2, so the result is still a partial
    order, and the union of the two relations now holds the cycle a, b.
    Of the possible pairs, the one nearest to the 30% and 70% points of
    the shared linear extension is taken, so that a fair share of the
    labels ends up on cycles.
    """
    k = len(rows1)
    candidates = [
        (a, b)
        for a in range(k)
        for b in range(k)
        if a != b and rows1[a] >> b & 1 and not (rows2[a] >> b & 1 or rows2[b] >> a & 1)
    ]
    a, b = min(
        candidates,
        key=lambda ab: (abs(10 * rank[ab[0]] - 3 * k) + abs(10 * rank[ab[1]] - 7 * k), ab),
    )
    return [row | rows2[a] if row >> b & 1 else row for row in rows2]


def relation_text(labels, rows: list[int]) -> str:
    """The relation as cherloc writes it: sorted keys, two-space indent.

    Built row by row from bit strings; json.dumps with an indent falls
    back to the pure-Python encoder and dominates set-up at 574 labels.
    """
    k = len(labels)
    head = json.dumps({"labels": [[list(part) for part in label] for label in labels]},
                      indent=2)
    matrix = ",\n".join(
        "    [\n      " + ",\n      ".join(format(row, f"0{k}b")[::-1]) + "\n    ]"
        for row in rows
    )
    return head[:-2] + ',\n  "matrix": [\n' + matrix + "\n  ]\n}\n"


# (ell, n, dims of the first relation, dims of the second, planted reversal)
REFINE_PAIRS = [
    (4, 5, 2, 3, False),
    (4, 5, 2, 3, True),
    (4, 6, 5, 5, False),
    (4, 6, 5, 5, True),
]


def relabel(rows: list[int], perm: list[int]) -> list[int]:
    """The same relation with label a moved to position perm[a]."""
    out = [0] * len(rows)
    for a, row in enumerate(rows):
        moved = 0
        while row:
            low = row & -row
            moved |= 1 << perm[low.bit_length() - 1]
            row ^= low
        out[perm[a]] = moved
    return out


def refine_orders(rng: random.Random, workdir: str) -> list[Job]:
    """common-refinement on generated relation pairs over (4, 5) and (4, 6).

    The relations are drawn once, from a fixed generator, and the seed
    only relabels them.  Drawn afresh for every seed, the closure and
    cycle-search work of the 574-label cycle pair varied by a tenth
    between seeds; relabelled, by a few percent.
    """
    shape = random.Random("refine-orders")
    jobs = []
    for idx, (ell, n, dims1, dims2, planted) in enumerate(REFINE_PAIRS):
        labels = oracles.multipartitions(ell, n)
        rank = list(range(len(labels)))
        shape.shuffle(rank)
        rows1 = random_order(rank, dims1, shape)
        rows2 = random_order(rank, dims2, shape)
        if planted:
            rows2 = plant_reversal(rank, rows1, rows2)
        perm = list(range(len(labels)))
        rng.shuffle(perm)
        rows1, rows2 = relabel(rows1, perm), relabel(rows2, perm)
        paths = []
        for side, rows in (("a", rows1), ("b", rows2)):
            path = os.path.join(workdir, f"refine-{idx}-{side}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(relation_text(labels, rows))
            paths.append(path)
        jobs.append(
            Job(
                f"refine-{ell}-{n}-{'cycle' if planted else 'order'}",
                ["common-refinement", *paths],
                lambda art, code, lb=labels, r1=rows1, r2=rows2, pl=planted: (
                    oracles.check_refinement(art, code, lb, r1, r2, pl)
                ),
                heaviest=(ell, n, planted) == (4, 6, True),
            )
        )
    return jobs


WORKLOADS = {
    "order-ladder": order_ladder,
    "localize-grid": localize_grid,
    "refine-orders": refine_orders,
}


def make_jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), workdir)
