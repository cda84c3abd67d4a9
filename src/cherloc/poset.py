"""Finite relations over labelled elements and basic order algebra."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable


@dataclass(frozen=True)
class Relation:
    """A dense boolean matrix over an ordered tuple of opaque labels."""

    labels: tuple[Hashable, ...]
    matrix: tuple[tuple[bool, ...], ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        matrix = tuple(tuple(bool(v) for v in row) for row in self.matrix)
        if len(matrix) != len(labels) or any(len(row) != len(labels) for row in matrix):
            raise ValueError("matrix shape must match the label count")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "matrix", matrix)

    @property
    def size(self) -> int:
        return len(self.labels)

    def holds(self, a: Hashable, b: Hashable) -> bool:
        return self.matrix[self.labels.index(a)][self.labels.index(b)]

    def to_json(self) -> dict:
        return {
            "labels": [label_json(label) for label in self.labels],
            "matrix": [[1 if v else 0 for v in row] for row in self.matrix],
        }

    @classmethod
    def from_json(cls, data: dict) -> Relation:
        if not isinstance(data, dict):
            raise ValueError("a relation must be a JSON object")
        labels, matrix = data["labels"], data["matrix"]
        if not isinstance(labels, list):
            raise ValueError("relation labels must be a list")
        if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
            raise ValueError("a relation matrix must be a list of rows")
        return cls(tuple(_label_from_json(label) for label in labels), matrix)


def label_json(label):
    if isinstance(label, tuple):
        return [label_json(part) for part in label]
    return label


def _label_from_json(label):
    if isinstance(label, list):
        return tuple(_label_from_json(part) for part in label)
    if isinstance(label, dict):
        raise ValueError("a relation label cannot be a JSON object")
    return label


@dataclass(frozen=True)
class OrderViolation:
    """Witness that a relation is not a partial order."""

    kind: str  # "reflexivity" | "antisymmetry" | "transitivity"
    labels: tuple


@dataclass(frozen=True)
class RefinementResult:
    order: Relation | None
    cycle: tuple | None


def _rows(rel: Relation) -> list[int]:
    """Each row as an int whose bit b is set when the row relates to label b."""
    return [sum(1 << b for b, v in enumerate(row) if v) for row in rel.matrix]


def _relation(labels: tuple, rows: list[int]) -> Relation:
    """The Relation whose rows are the given bit rows."""
    k = len(labels)
    return Relation(
        labels, tuple(tuple(c == "1" for c in format(row, f"0{k}b")[::-1]) for row in rows)
    )


def _bits(row: int):
    """Indices of the set bits of row, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def _search(rows: list[int], start: int) -> tuple[int, tuple[int, ...] | None]:
    """Breadth-first search from start over bit rows.

    Returns the labels reached by paths of length >= 1, as a bit row, and a
    shortest strict cycle through start (None when start lies on none).
    Nodes are expanded in discovery order and successors taken lowest index
    first; the cycle closes at the first node other than start, in that
    order, with an edge back to start, and follows the parent links to it.
    """
    start_bit = 1 << start
    parent = {start: start}
    seen, reach, cycle = start_bit, 0, None
    queue = [start]
    for node in queue:
        row = rows[node]
        reach |= row
        if cycle is None and node != start and row & start_bit:
            path = [node]
            while path[-1] != start:
                path.append(parent[path[-1]])
            cycle = tuple(reversed(path))
        for dst in _bits(row & ~seen):
            parent[dst] = node
            queue.append(dst)
        seen |= row
    return reach, cycle


def transitive_closure(rel: Relation) -> Relation:
    """Smallest transitive relation containing rel."""
    rows = _rows(rel)
    return _relation(rel.labels, [_search(rows, a)[0] for a in range(rel.size)])


def reflexive_closure(rel: Relation) -> Relation:
    return _relation(rel.labels, [row | 1 << a for a, row in enumerate(_rows(rel))])


def is_partial_order(rel: Relation) -> OrderViolation | None:
    """None when rel is reflexive, antisymmetric, and transitive.

    Otherwise the first witness: reflexivity before antisymmetry before
    transitivity, each at the lowest a, then b, then c.
    """
    rows = _rows(rel)
    labels = rel.labels
    for a, row in enumerate(rows):
        if not row >> a & 1:
            return OrderViolation("reflexivity", (labels[a],))
    for a, row in enumerate(rows):
        for b in _bits(row & ~(1 << a)):
            if rows[b] >> a & 1:
                return OrderViolation("antisymmetry", (labels[a], labels[b]))
    for a, row in enumerate(rows):
        for b in _bits(row):
            c = next(_bits(rows[b] & ~row), None)
            if c is not None:
                return OrderViolation("transitivity", (labels[a], labels[b], labels[c]))
    return None


def _require_same_labels(r1: Relation, r2: Relation) -> None:
    if r1.labels != r2.labels:
        raise ValueError("relations are over different label tuples")


def refines(fine: Relation, coarse: Relation) -> bool:
    """Whether every pair related in fine is related in coarse."""
    _require_same_labels(fine, coarse)
    return all(not f & ~c for f, c in zip(_rows(fine), _rows(coarse)))


def common_refinement(r1: Relation, r2: Relation) -> RefinementResult:
    """The minimum partial order containing both relations, if one exists.

    Returns the reflexive-transitive closure of the union, or the
    obstruction: a shortest strict cycle of the union, through the
    lowest-indexed label among the shortest.
    """
    _require_same_labels(r1, r2)
    union = [a | b for a, b in zip(_rows(r1), _rows(r2))]
    closed, best = [], None
    for start in range(len(union)):
        reach, cycle = _search(union, start)
        closed.append(reach | 1 << start)
        if cycle is not None and (best is None or len(cycle) < len(best)):
            best = cycle
    if best is not None:
        return RefinementResult(None, tuple(r1.labels[idx] for idx in best))
    return RefinementResult(_relation(r1.labels, closed), None)


def hasse(rel: Relation) -> Relation:
    """Transitive reduction of a partial order; no loops in the result."""
    violation = is_partial_order(rel)
    if violation is not None:
        raise ValueError(f"not a partial order: {violation.kind} at {violation.labels}")
    strict = [row & ~(1 << a) for a, row in enumerate(_rows(rel))]
    reduced = []
    for row in strict:
        through = 0
        for c in _bits(row):
            through |= strict[c]
        reduced.append(row & ~through)
    return _relation(rel.labels, reduced)


def to_dot(rel: Relation) -> str:
    """Deterministic DOT text for the Hasse diagram of a partial order."""
    import json

    diagram = hasse(rel)
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for idx, label in enumerate(diagram.labels):
        text = json.dumps(label_json(label), separators=(",", ":"))
        lines.append(f'  n{idx} [label="{text.replace(chr(34), chr(39))}"];')
    for a in range(diagram.size):
        for b in range(diagram.size):
            if diagram.matrix[a][b]:
                lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
