"""The benchmark's oracles accept real artifacts and reject corrupted ones.

Artifacts come from cherloc itself at small sizes, built the way the
command line builds them.  Run with `PYTHONPATH=src python3 -m pytest perfbench`.
"""

import copy
import json
import os
import random
from fractions import Fraction

import oracles
import run
import workloads
from cherloc import (
    DeformationError,
    KappaMode,
    OrderInstance,
    Params,
    Relation,
    aspherical_witnesses,
    common_refinement,
    localize,
    relation_p,
)
from cherloc.cli import canonical_dumps
from cherloc.scalars import parse_scalar


def _params(kappa: str, h: list[str]) -> Params:
    mode = KappaMode.from_label(kappa)
    return Params(mode, tuple(parse_scalar(entry, mode) for entry in h))


def _order(kappa, h, n):
    artifact = relation_p(OrderInstance(_params(kappa, h), n)).to_json()
    return artifact, oracles.Param.from_args(kappa, h)


def test_order_check_rejects_every_flipped_entry():
    artifact, p = _order("1/2", ["0", "0"], 3)
    ell, n = 2, 3
    assert oracles.check_order(artifact, ell, n, p, 0, None) is None
    size = len(artifact["matrix"])
    for a in range(size):
        for b in range(size):
            bad = copy.deepcopy(artifact)
            bad["matrix"][a][b] ^= 1
            assert oracles.check_order(bad, ell, n, p, 0, None), (a, b)


def test_order_check_rejects_reordered_labels():
    artifact, p = _order("formal", ["1/5", "-1/5"], 3)
    assert oracles.check_order(artifact, 2, 3, p, 0, 20) is None
    artifact["labels"][0], artifact["labels"][1] = artifact["labels"][1], artifact["labels"][0]
    assert oracles.check_order(artifact, 2, 3, p, 0, 20)


def test_matching_leq_agrees_with_cherloc_on_a_denser_order():
    artifact, p = _order("2/3", ["0", "0", "0"], 3)
    assert oracles.check_order(artifact, 3, 3, p, 0, None) is None


def _relations(planted: bool):
    rng = random.Random(7)
    labels = oracles.multipartitions(2, 4)
    rank = list(range(len(labels)))
    rng.shuffle(rank)
    rows1 = workloads.random_order(rank, 2, rng)
    rows2 = workloads.random_order(rank, 2, rng)
    if planted:
        rows2 = workloads.plant_reversal(rank, rows1, rows2)
    perm = list(range(len(labels)))
    rng.shuffle(perm)
    rows1, rows2 = workloads.relabel(rows1, perm), workloads.relabel(rows2, perm)
    rels = [
        Relation(tuple(labels), tuple(tuple(bool(r >> j & 1) for j in range(len(labels)))
                                      for r in rows))
        for rows in (rows1, rows2)
    ]
    result = common_refinement(*rels)
    if result.order is not None:
        return result.order.to_json(), 0, labels, rows1, rows2
    cycle = [[list(part) for part in label] for label in result.cycle]
    return {"cycle": cycle}, 1, labels, rows1, rows2


def test_relation_text_is_canonical():
    labels = oracles.multipartitions(2, 3)
    rows = workloads.random_order(list(range(len(labels))), 2, random.Random(1))
    rel = Relation(tuple(labels), tuple(tuple(bool(r >> j & 1) for j in range(len(labels)))
                                        for r in rows))
    assert workloads.relation_text(labels, rows) == canonical_dumps(rel.to_json())


def test_refinement_check_rejects_a_flipped_closure_entry():
    artifact, code, labels, rows1, rows2 = _relations(planted=False)
    assert oracles.check_refinement(artifact, code, labels, rows1, rows2, False) is None
    bad = copy.deepcopy(artifact)
    bad["matrix"][0][1] ^= 1
    assert oracles.check_refinement(bad, code, labels, rows1, rows2, False)
    assert oracles.check_refinement(artifact, 1, labels, rows1, rows2, False)


def test_refinement_check_rejects_a_cycle_that_is_not_one():
    artifact, code, labels, rows1, rows2 = _relations(planted=True)
    assert code == 1
    assert oracles.check_refinement(artifact, code, labels, rows1, rows2, True) is None
    union = [a | b for a, b in zip(rows1, rows2)]
    first = labels.index(oracles.label_key(artifact["cycle"][0]))
    for idx, label in enumerate(labels):
        if idx != first and not union[first] >> idx & 1:
            bad = {"cycle": [artifact["cycle"][0], [list(part) for part in label]]}
            assert oracles.check_refinement(bad, code, labels, rows1, rows2, True)
            break
    else:
        raise AssertionError("no label outside the union's row")
    repeated = {"cycle": artifact["cycle"] * 2}
    assert oracles.check_refinement(repeated, code, labels, rows1, rows2, True)


def test_refinement_check_rejects_a_cycle_longer_than_the_girth():
    labels = oracles.multipartitions(1, 5)
    edges1, edges2 = [(0, 1), (2, 3), (4, 5)], [(1, 2), (3, 0), (5, 4)]
    rows1 = [sum(1 << b for a2, b in edges1 if a2 == a) | 1 << a for a in range(len(labels))]
    rows2 = [sum(1 << b for a2, b in edges2 if a2 == a) | 1 << a for a in range(len(labels))]
    as_json = lambda idx: [list(part) for part in labels[idx]]  # noqa: E731
    square = {"cycle": [as_json(idx) for idx in (0, 1, 2, 3)]}
    pair = {"cycle": [as_json(idx) for idx in (4, 5)]}
    assert oracles.check_refinement(pair, 1, labels, rows1, rows2, True) is None
    assert oracles.check_refinement(square, 1, labels, rows1, rows2, True)


def test_certificate_check_rejects_an_altered_p_prime():
    for kappa, h in (("1/2", ["0", "0"]), ("formal", ["1/5", "-1/5"])):
        n = 3
        artifact = localize(_params(kappa, h), n).to_json()
        p = oracles.Param.from_args(kappa, h)
        assert oracles.check_certificate(artifact, 0, p, n) is None
        for delta in ("1/2", "1/1"):
            bad = copy.deepcopy(artifact)
            entry = bad["p_prime"]["h"][0]
            entry["a"] = str(Fraction(entry["a"]) + Fraction(delta))
            assert oracles.check_certificate(bad, 0, p, n), (kappa, delta)
        assert oracles.check_certificate(artifact, 1, p, n)


def _blocked_artifact():
    kappa, h, n = "formal", ["-1/4", "1/4"], 2
    try:
        localize(_params(kappa, h), n)
    except DeformationError as err:
        return {"failed": "deformation", **err.diagnostics}, oracles.Param.from_args(kappa, h), n
    raise AssertionError("instance deformed")


def test_blocked_check_rejects_a_fake_violation():
    artifact, p, n = _blocked_artifact()
    assert oracles.check_blocked(artifact, 1, p, n) is None
    swapped = copy.deepcopy(artifact)
    failure = swapped["last"]["failure"]
    failure["before"], failure["after"] = failure["after"], failure["before"]
    assert oracles.check_blocked(swapped, 1, p, n)
    moved = copy.deepcopy(artifact)
    moved["last"]["failure"]["b2"] = moved["last"]["failure"]["b1"]
    assert oracles.check_blocked(moved, 1, p, n)
    assert oracles.check_blocked(artifact, 0, p, n)


def test_spherical_check_rejects_missing_and_invented_witnesses():
    for kappa, h, n in (("1/2", ["0", "0"], 4), ("formal", ["-1/4", "1/4"], 3)):
        witnesses = [w.to_json() for w in aspherical_witnesses(_params(kappa, h), n)]
        assert witnesses
        artifact = {"spherical": False, "witnesses": witnesses}
        p = oracles.Param.from_args(kappa, h)
        assert oracles.check_spherical(artifact, 1, p, n) is None
        assert oracles.check_spherical({**artifact, "witnesses": witnesses[1:]}, 1, p, n)
        invented = {"family": "content-hyperplane", "i": 0, "m": 0, "N": 99, "j": 1}
        assert oracles.check_spherical(
            {**artifact, "witnesses": witnesses + [invented]}, 1, p, n
        )
        assert oracles.check_spherical(artifact, 0, p, n)


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
