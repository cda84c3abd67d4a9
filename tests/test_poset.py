import io
import json
import os
import random
import tempfile
from unittest import mock

import pytest

import cherloc.cli
import cherloc.poset
from hypothesis import given, settings
from hypothesis import strategies as st

from cherloc import (
    RefinementResult,
    Relation,
    common_refinement,
    hasse,
    is_partial_order,
    refines,
    reflexive_closure,
    to_dot,
)
from cherloc.cli import canonical_dumps
from cherloc.poset import transitive_closure


def rel(labels, pairs, reflexive=True):
    index = {label: k for k, label in enumerate(labels)}
    matrix = [[False] * len(labels) for _ in labels]
    if reflexive:
        for k in range(len(labels)):
            matrix[k][k] = True
    for a, b in pairs:
        matrix[index[a]][index[b]] = True
    return Relation(tuple(labels), tuple(tuple(row) for row in matrix))


class CycleError(Exception):
    pass


def linear_extension(relation):
    """Independent topological sort (DFS, three colors) of the strict part."""
    k = relation.size
    color = {}
    order = []

    def visit(node):
        color[node] = "gray"
        for dst in range(k):
            if dst == node or not relation.matrix[node][dst]:
                continue
            if color.get(dst) == "gray":
                raise CycleError(dst)
            if dst not in color:
                visit(dst)
        color[node] = "black"
        order.append(node)

    for node in range(k):
        if node not in color:
            visit(node)
    order.reverse()
    return order


# The matrix algorithms that the bit-row search replaced, kept as oracles.


def closure_warshall(rel):
    k = rel.size
    m = [list(row) for row in rel.matrix]
    for mid in range(k):
        for src in range(k):
            if m[src][mid]:
                for dst in range(k):
                    if m[mid][dst]:
                        m[src][dst] = True
    return Relation(rel.labels, tuple(tuple(row) for row in m))


def shortest_cycle_oracle(labels, edges):
    """Fresh breadth-first search from every label, scanning all k labels per step."""
    k = len(labels)
    best = None
    for start in range(k):
        parent = {start: -1}
        frontier = [start]
        found = None
        while frontier and found is None:
            nxt = []
            for node in frontier:
                for dst in range(k):
                    if node != dst and edges[node][dst]:
                        if dst == start:
                            found = node
                            break
                        if dst not in parent:
                            parent[dst] = node
                            nxt.append(dst)
                if found is not None:
                    break
            frontier = nxt
        if found is None:
            continue
        path = [found]
        while path[-1] != start:
            path.append(parent[path[-1]])
        path.reverse()
        if best is None or len(path) < len(best):
            best = path
    return tuple(labels[idx] for idx in best)


def common_refinement_oracle(r1, r2):
    k = r1.size
    union = [[a or b for a, b in zip(x, y)] for x, y in zip(r1.matrix, r2.matrix)]
    closed = closure_warshall(Relation(r1.labels, union)).matrix
    for a in range(k):
        for b in range(k):
            if a != b and closed[a][b] and closed[b][a]:
                return RefinementResult(None, shortest_cycle_oracle(r1.labels, union))
    loops = [[v or a == b for b, v in enumerate(row)] for a, row in enumerate(closed)]
    return RefinementResult(Relation(r1.labels, loops), None)


def is_partial_order_oracle(rel):
    m, k, labels = rel.matrix, rel.size, rel.labels
    for a in range(k):
        if not m[a][a]:
            return "reflexivity", (labels[a],)
    for a in range(k):
        for b in range(k):
            if a != b and m[a][b] and m[b][a]:
                return "antisymmetry", (labels[a], labels[b])
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if m[a][b] and m[b][c] and not m[a][c]:
                    return "transitivity", (labels[a], labels[b], labels[c])
    return None


def hasse_oracle(rel):
    k = rel.size
    strict = [[rel.matrix[a][b] and a != b for b in range(k)] for a in range(k)]
    return Relation(rel.labels, tuple(
        tuple(
            strict[a][b] and not any(strict[a][c] and strict[c][b] for c in range(k))
            for b in range(k)
        )
        for a in range(k)
    ))


@st.composite
def relations(draw, size):
    density = draw(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3, 0.5]))
    loops = draw(st.sampled_from(["none", "all", "random"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    matrix = [[rng.random() < density for _ in range(size)] for _ in range(size)]
    for a in range(size):
        matrix[a][a] = {"none": False, "all": True, "random": matrix[a][a]}[loops]
    return Relation(tuple(range(size)), tuple(tuple(row) for row in matrix))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_poset_algebra_equals_the_matrix_oracles(data):
    size = data.draw(st.integers(1, 12))
    r1, r2 = data.draw(relations(size)), data.draw(relations(size))
    assert common_refinement(r1, r2) == common_refinement_oracle(r1, r2)
    assert transitive_closure(r1) == closure_warshall(r1)
    assert reflexive_closure(r1).matrix == tuple(
        tuple(v or a == b for b, v in enumerate(row)) for a, row in enumerate(r1.matrix)
    )
    assert refines(r1, r2) == all(
        not x or y for row1, row2 in zip(r1.matrix, r2.matrix) for x, y in zip(row1, row2)
    )
    order = reflexive_closure(closure_warshall(r1))
    # a near-order: one entry of a (pre)order flipped
    a, b = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
    near = [list(row) for row in order.matrix]
    near[a][b] = not near[a][b]
    near = Relation(order.labels, near)
    for candidate in (r1, order, near):
        assert is_partial_order(candidate) == is_partial_order_oracle(candidate)
        if is_partial_order_oracle(candidate) is None:
            assert hasse(candidate) == hasse_oracle(candidate)


def planted_pair(seed, size, cycles=(), spanning=False, density=0.05):
    """Two random relations over size labels whose union is acyclic, but for
    planted cycles: for each length in cycles, a run through fresh labels in
    the first relation and the edge back to its start in the second.  With
    spanning, a chain through every label in the first and its reverse in the
    second make one strongly connected component of everything."""
    rng = random.Random(seed)
    rank = list(range(size))
    rng.shuffle(rank)
    pair = [
        [[rank[a] < rank[b] and rng.random() < density for b in range(size)]
         for a in range(size)]
        for _ in range(2)
    ]
    free = list(range(size))
    rng.shuffle(free)
    for length in cycles:
        ring = [free.pop() for _ in range(length)]
        for a, b in zip(ring, ring[1:]):
            pair[0][a][b] = True
        pair[1][ring[-1]][ring[0]] = True
    if spanning:
        for a, b in zip(free, free[1:]):
            pair[0][a][b] = pair[1][b][a] = True
    return tuple(Relation(tuple(range(size)), matrix) for matrix in pair)


@pytest.mark.parametrize(
    "seed, size, cycles, spanning",
    [
        # acyclic pairs
        (1, 30, (), False), (2, 55, (), False), (3, 80, (), False),
        # planted 2-cycles
        (4, 30, (2,), False), (5, 60, (2, 2), False), (6, 80, (2,), False),
        # several disjoint cycles of different lengths
        (7, 40, (5, 3, 4), False), (8, 70, (6, 3, 8, 4), False), (9, 80, (7, 5), False),
        # one component spanning every label
        (10, 30, (), True), (11, 80, (), True),
    ],
)
def test_scc_closure_equals_the_oracles_on_larger_pairs(
    seed, size, cycles, spanning, monkeypatch
):
    r1, r2 = planted_pair(seed, size, cycles, spanning)
    searched = []
    search = cherloc.poset._shortest_cycle

    def spy(rows, start, within):
        searched.append((start, within))
        return search(rows, start, within)

    monkeypatch.setattr(cherloc.poset, "_shortest_cycle", spy)
    result = common_refinement(r1, r2)
    assert result == common_refinement_oracle(r1, r2)
    assert (result.order is None) == bool(cycles or spanning) == bool(searched)
    union = Relation(r1.labels, [a | b for a, b in zip(r1.rows, r2.rows)])
    closed = closure_warshall(union)
    assert transitive_closure(union) == closed
    assert transitive_closure(r1) == closure_warshall(r1)
    # The cycle search runs only from labels of components with two or
    # more members, in increasing order, inside the start's component.
    assert [start for start, _ in searched] == sorted({start for start, _ in searched})
    for start, within in searched:
        assert within >> start & 1 and within & within - 1
        assert closed.matrix[start][start]


def test_long_chain_and_cycle_need_no_recursion():
    k = 3000
    full = (1 << k) - 1
    chain = Relation(tuple(range(k)), [1 << (a + 1) & full for a in range(k)])
    assert transitive_closure(chain).rows == tuple(full & -(2 << a) for a in range(k))
    cycle = Relation(chain.labels, [1 << (a + 1) % k for a in range(k)])
    assert transitive_closure(cycle).rows == (full,) * k
    none = Relation(chain.labels, [0] * k)
    assert common_refinement(chain, none).order.rows == tuple(full & -(1 << a) for a in range(k))
    back = Relation(chain.labels, [1 << (k - 3) if a == k - 1 else 0 for a in range(k)])
    assert common_refinement(chain, back).cycle == (k - 3, k - 2, k - 1)


def label_json(label):
    if isinstance(label, tuple):
        return [label_json(part) for part in label]
    return label


def to_json_per_entry(labels, matrix):
    """The per-entry encoder that Relation.dumps replaced: the reference for to_json."""
    return {
        "labels": [label_json(label) for label in labels],
        "matrix": [[1 if v else 0 for v in row] for row in matrix],
    }


LABELS = st.one_of(
    st.integers(-3, 40), st.text(max_size=2), st.tuples(st.integers(0, 2), st.text(max_size=1))
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bit_rows_are_the_matrix_packed(data):
    size = data.draw(st.integers(0, 12))
    labels = tuple(data.draw(st.lists(LABELS, min_size=size, max_size=size, unique=True)))
    matrix = data.draw(
        st.lists(st.lists(st.booleans(), min_size=size, max_size=size),
                 min_size=size, max_size=size)
    )
    packed = [sum(2**b for b in range(size) if row[b]) for row in matrix]
    rel = Relation(labels, matrix)
    assert rel == Relation(labels, packed)
    assert rel.rows == tuple(packed)
    assert rel.matrix == tuple(map(tuple, matrix))
    assert rel.to_json() == to_json_per_entry(labels, matrix)
    assert Relation.from_json(rel.to_json()) == rel
    if size:
        a = data.draw(st.integers(0, size - 1))
        for bad in (-1, 2**size, packed[a] | 2**size):
            with pytest.raises(ValueError):
                Relation(labels, packed[:a] + [bad] + packed[a + 1:])
        for bad in (matrix[a] + [False], matrix[a][1:]):
            with pytest.raises(ValueError):
                Relation(labels, matrix[:a] + [bad] + matrix[a + 1:])


def refuse(token):
    raise ValueError(f"not JSON: {token}")


def full_parse(text):
    """The relation file reader that Relation.load must agree with."""
    return Relation.from_json(json.loads(text, parse_constant=refuse))


def load_text(text):
    """Relation.load over a text held in memory."""
    return Relation.load(io.StringIO(text))


def outcome(read, text):
    try:
        return read(text)
    except ValueError as err:
        return f"{type(err).__name__}: {err}"


def layout(labels, rows):
    """The text of order's artifact, written token by token: labels as JSON
    values, rows as lists of entry texts."""
    head = json.dumps({"labels": labels}, indent=2, sort_keys=True)[:-2]
    body = ",\n".join("    [\n      " + ",\n      ".join(row) + "\n    ]" for row in rows)
    return head + ',\n  "matrix": [\n' + body + "\n  ]\n}\n"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_relation_text_reads_as_the_full_parse_reads_it(data):
    k = data.draw(st.integers(1, 40))
    labels = tuple(data.draw(st.lists(LABELS, min_size=k, max_size=k, unique=True)))
    rel = Relation(labels, data.draw(st.lists(st.integers(0, 2**k - 1), min_size=k, max_size=k)))
    values = to_json_per_entry(labels, rel.matrix)["labels"]
    tokens = [[str(int(v)) for v in row] for row in rel.matrix]
    text = canonical_dumps(rel)
    assert layout(values, tokens) == text
    cut = text.index(',\n  "matrix": [')
    a, b = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))

    def entry(token):
        return [row[:b] + [token] + row[b + 1:] if i == a else row for i, row in enumerate(tokens)]

    # Texts in the layout dump writes, read without the full parse.
    canonical = [
        text,
        '{\n  "extra": {"matrix": [[2]]},\n' + text[2:],
        '{\n  "matrix": [[2]],\n' + text[2:],
        canonical_dumps(Relation((',\n  "matrix": [',) + labels[1:], rel.rows)),
        canonical_dumps(Relation(('"matrix": [',) + labels[1:], rel.rows)),
    ]
    for case in canonical:
        expected = full_parse(case)
        with mock.patch.object(Relation, "from_json", side_effect=AssertionError(case)):
            assert load_text(case) == expected
    assert load_text(text) == rel
    others = [
        layout(values, entry("true" if tokens[a][b] == "1" else "false")),
        json.dumps(rel.to_json(), indent=4),
        json.dumps(rel.to_json()),
        text.replace("\n", "\r\n"),
        "\ufeff" + text,
        '{\n  "extra": 0,\n  "matrix": [[2]],\n' + text[2:],
        text[:-3] + ',\n  "extra": 0\n}\n',
        layout(values, [row[:-1] if i == a else row for i, row in enumerate(tokens)]),
        layout(values, tokens[:-1]),
        layout(values, tokens + tokens[:1]),
        layout(values, entry("2")),
        layout(values, entry("01")),
        layout(values, entry("1.0")),
        text[:-6] + ",\n  ]\n}\n",
        text[:-2] + "]\n",
        text.replace('"matrix": [\n', '"matrix": [x', 1),
        text[:cut] + text[cut:].replace("\n    ],\n", "\n    ] \n", 1),
        text[:cut] + text[cut:].replace(",\n      ", " \n      ", 1),
        text.replace('"labels": [', '"labels": [\n    NaN,', 1),
        layout(values[:a] + [float("nan")] + values[a + 1:], tokens).replace("NaN", "Infinity"),
        layout(values[:a] + [{"a": 1}] + values[a + 1:], tokens),
        layout(values[:a] + values[a + 1:] + [values[a]], tokens),
        layout(values[:-1] + [values[0]], tokens),
        layout([], []),
        canonical_dumps(Relation((), ())),
        text + " ",
        text + " x",
        text[:-1],
    ]
    for case in others:
        assert outcome(load_text, case) == outcome(full_parse, case)
    # Each text as a file: the CLI reads what text mode reads, as the full parse reads it.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "relation.json")
        for case in canonical + others:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(case)
            with open(path, encoding="utf-8") as handle:
                read = handle.read()
            assert outcome(cherloc.cli._read_relation, path) == outcome(full_parse, read)


@pytest.mark.parametrize("offset", range(-17, 3))
def test_a_matrix_marker_across_two_read_chunks_is_found(offset):
    # The head is read in chunks; a marker may start in one and end in the next.
    at = cherloc.poset._CHUNK + offset
    empty = canonical_dumps(Relation(("", "b"), [0b11, 0b10])).index(cherloc.poset._MATRIX)
    rel = Relation(("a" * (at - empty), "b"), [0b11, 0b10])
    text = canonical_dumps(rel)
    assert text.index(cherloc.poset._MATRIX) == at
    with mock.patch.object(Relation, "from_json", side_effect=AssertionError(offset)):
        assert load_text(text) == rel


@pytest.mark.parametrize("entry", [2, 1.0, None, [1], -1, 256, "0", "1"])
def test_relation_file_entries_other_than_0_1_true_false_are_refused(entry):
    with pytest.raises(ValueError, match="^relation matrix entries must be 0, 1, true or false$"):
        Relation.from_json({"labels": [1, 2], "matrix": [[1, entry], [0, 1]]})


def test_relation_file_rows_must_match_the_labels():
    for matrix in ([[1, 0], [0]], [[1, 0], [0, 1, 0]], [[1, 0]], []):
        with pytest.raises(ValueError, match="^matrix shape must match the label count$"):
            Relation.from_json({"labels": [1, 2], "matrix": matrix})
    bits = {"labels": [1, 2], "matrix": [[1, 1], [0, 1]]}
    bools = {"labels": [1, 2], "matrix": [[True, True], [False, True]]}
    assert Relation.from_json(bits) == Relation.from_json(bools) == Relation((1, 2), [3, 2])


def test_labels_are_told_apart_by_json_text():
    # 1, 1.0 and true are equal in Python; only their JSON texts differ.
    rel = Relation((1, True), [0b01, 0b11])
    assert rel.holds(True, 1) and rel.holds(True, True) and not rel.holds(1, True)
    with pytest.raises(ValueError):
        rel.holds(1.0, 1)
    assert Relation((1, 1.0, True, (1, 2), (True, 2)), [0] * 5).size == 5
    # Equality follows the same identity: each pair is two relations, in one slot.
    for other in ((True,), (1.0,)):
        assert Relation((1,), [1]) != Relation(other, [1])
        assert len({Relation((1,), [1]), Relation(other, [1])}) == 2
    for labels in ((1, 1), ("a", "a"), ((1, 2), (1, 2))):
        with pytest.raises(ValueError, match="^labels must be unique$"):
            Relation(labels, [0, 0])


def test_closure_of_chain_adds_long_edge():
    chain = rel("abc", [("a", "b"), ("b", "c")], reflexive=False)
    closed = transitive_closure(chain)
    assert closed.holds("a", "c")
    assert not closed.holds("c", "a")
    assert not closed.holds("a", "a")


def test_closure_is_idempotent():
    r = rel("abcd", [("a", "b"), ("b", "c"), ("d", "a")])
    once = transitive_closure(r)
    assert transitive_closure(once).matrix == once.matrix


def test_partial_order_violations_are_witnessed():
    missing_diag = rel("ab", [("a", "b")], reflexive=False)
    assert is_partial_order(missing_diag) == ("reflexivity", ("a",))

    mutual = rel("ab", [("a", "b"), ("b", "a")])
    assert is_partial_order(mutual) == ("antisymmetry", ("a", "b"))

    gap = rel("abc", [("a", "b"), ("b", "c")])
    assert is_partial_order(gap) == ("transitivity", ("a", "b", "c"))
    message = r"^not a partial order: transitivity at \('a', 'b', 'c'\)$"
    with pytest.raises(ValueError, match=message):
        hasse(gap)
    assert is_partial_order(transitive_closure(gap)) is None


def test_refines_is_edge_containment():
    fine = rel("abc", [("a", "b")])
    coarse = rel("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert refines(fine, coarse)
    assert not refines(coarse, fine)
    with pytest.raises(ValueError):
        refines(fine, rel("abd", []))
    # 1 == True == 1.0 in Python, but they are distinct JSON labels
    for other in ((True, 2), (1.0, 2)):
        with pytest.raises(ValueError, match="different label tuples"):
            refines(rel((1, 2), []), rel(other, []))


def test_common_refinement_merges_two_chains():
    r1 = rel("abc", [("a", "b")])
    r2 = rel("abc", [("b", "c")])
    result = common_refinement(r1, r2)
    assert result.cycle is None
    assert result.order.holds("a", "c")
    assert is_partial_order(result.order) is None
    assert refines(r1, result.order) and refines(r2, result.order)


def test_common_refinement_reports_shortest_cycle():
    r1 = rel("abc", [("a", "b")])
    r2 = rel("abc", [("b", "a"), ("b", "c")])
    result = common_refinement(r1, r2)
    assert result.order is None
    assert sorted(result.cycle) == ["a", "b"]


def test_common_refinement_is_the_minimum_order():
    # any order containing both inputs contains the closure of their union
    r1 = rel("abcd", [("a", "b"), ("c", "d")])
    r2 = rel("abcd", [("b", "c")])
    merged = common_refinement(r1, r2).order
    bigger = rel(
        "abcd",
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c"), ("a", "d"), ("b", "d")],
    )
    assert refines(merged, bigger)
    assert merged.holds("a", "d")


def random_relation(rng, size, density):
    labels = tuple(range(size))
    matrix = tuple(
        tuple(rng.random() < density for _ in range(size)) for _ in range(size)
    )
    return Relation(labels, matrix)


def test_refinement_decision_matches_topological_sort_oracle():
    rng = random.Random(20260817)
    for _ in range(300):
        size = rng.randint(1, 8)
        r1 = random_relation(rng, size, rng.uniform(0.05, 0.4))
        r2 = random_relation(rng, size, rng.uniform(0.05, 0.4))
        union = Relation(
            r1.labels,
            tuple(
                tuple(a or b for a, b in zip(row1, row2))
                for row1, row2 in zip(r1.matrix, r2.matrix)
            ),
        )
        result = common_refinement(r1, r2)
        try:
            linear_extension(union)
            sortable = True
        except CycleError:
            sortable = False
        assert (result.order is not None) == sortable
        if result.order is not None:
            assert is_partial_order(result.order) is None
            assert refines(reflexive_closure(transitive_closure(r1)), result.order)
        else:
            cycle = result.cycle
            assert len(cycle) >= 2
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert union.holds(a, b)


def test_hasse_reduction_of_a_diamond():
    diamond = reflexive_closure(
        transitive_closure(
            rel("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        )
    )
    reduced = hasse(diamond)
    assert reduced.holds("a", "b") and reduced.holds("b", "d")
    assert not reduced.holds("a", "d")
    assert not reduced.holds("a", "a")


def test_hasse_requires_a_partial_order():
    with pytest.raises(ValueError):
        hasse(rel("ab", [("a", "b"), ("b", "a")]))


@settings(max_examples=60)
@given(data=st.data())
def test_hasse_then_closures_reconstruct_the_order(data):
    size = data.draw(st.integers(1, 6))
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
            max_size=10,
        )
    )
    base = Relation(
        tuple(range(size)),
        tuple(
            tuple((a, b) in pairs or a == b for b in range(size))
            for a in range(size)
        ),
    )
    order = reflexive_closure(transitive_closure(base))
    if is_partial_order(order) is not None:
        return  # the random pairs produced a cycle; nothing to check
    assert reflexive_closure(transitive_closure(hasse(order))).matrix == order.matrix


def test_dot_output_is_deterministic_and_loop_free():
    order = reflexive_closure(
        transitive_closure(rel("abc", [("a", "b"), ("b", "c")]))
    )
    text = to_dot(order)
    assert text == to_dot(order)
    assert "n0 -> n1;" in text and "n1 -> n2;" in text
    assert "n0 -> n2;" not in text
    assert "n0 -> n0;" not in text
