"""Finite relations over labelled elements and basic order algebra."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence


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


def transitive_closure(rel: Relation) -> Relation:
    """Smallest transitive relation containing rel (Warshall)."""
    k = rel.size
    m = [list(row) for row in rel.matrix]
    for mid in range(k):
        row_mid = m[mid]
        for src in range(k):
            if m[src][mid]:
                row_src = m[src]
                for dst in range(k):
                    if row_mid[dst]:
                        row_src[dst] = True
    return Relation(rel.labels, tuple(tuple(row) for row in m))


def reflexive_closure(rel: Relation) -> Relation:
    m = [list(row) for row in rel.matrix]
    for idx in range(rel.size):
        m[idx][idx] = True
    return Relation(rel.labels, tuple(tuple(row) for row in m))


def is_partial_order(rel: Relation) -> OrderViolation | None:
    """None when rel is reflexive, antisymmetric, and transitive."""
    m = rel.matrix
    k = rel.size
    for a in range(k):
        if not m[a][a]:
            return OrderViolation("reflexivity", (rel.labels[a],))
    for a in range(k):
        for b in range(k):
            if a != b and m[a][b] and m[b][a]:
                return OrderViolation("antisymmetry", (rel.labels[a], rel.labels[b]))
    for a in range(k):
        for b in range(k):
            if not m[a][b]:
                continue
            for c in range(k):
                if m[b][c] and not m[a][c]:
                    return OrderViolation(
                        "transitivity", (rel.labels[a], rel.labels[b], rel.labels[c])
                    )
    return None


def _require_same_labels(r1: Relation, r2: Relation) -> None:
    if r1.labels != r2.labels:
        raise ValueError("relations are over different label tuples")


def refines(fine: Relation, coarse: Relation) -> bool:
    """Whether every pair related in fine is related in coarse."""
    _require_same_labels(fine, coarse)
    return all(
        not a or b
        for row_f, row_c in zip(fine.matrix, coarse.matrix)
        for a, b in zip(row_f, row_c)
    )


def _shortest_cycle(labels: Sequence[Hashable], edges: list[list[bool]]) -> tuple:
    """Shortest strict directed cycle, as a label tuple without the closing repeat."""
    k = len(labels)
    best: list[int] | None = None
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
    assert best is not None
    return tuple(labels[idx] for idx in best)


def common_refinement(r1: Relation, r2: Relation) -> RefinementResult:
    """The minimum partial order containing both relations, if one exists.

    Returns the reflexive-transitive closure of the union, or the
    obstruction: a shortest strict cycle of the union.
    """
    _require_same_labels(r1, r2)
    k = r1.size
    union = [
        [a or b for a, b in zip(row1, row2)]
        for row1, row2 in zip(r1.matrix, r2.matrix)
    ]
    closed = transitive_closure(Relation(r1.labels, tuple(tuple(r) for r in union)))
    for a in range(k):
        for b in range(k):
            if a != b and closed.matrix[a][b] and closed.matrix[b][a]:
                return RefinementResult(None, _shortest_cycle(r1.labels, union))
    return RefinementResult(reflexive_closure(closed), None)


def hasse(rel: Relation) -> Relation:
    """Transitive reduction of a partial order; no loops in the result."""
    violation = is_partial_order(rel)
    if violation is not None:
        raise ValueError(f"not a partial order: {violation.kind} at {violation.labels}")
    k = rel.size
    strict = [
        [rel.matrix[a][b] and a != b for b in range(k)] for a in range(k)
    ]
    reduced = [
        [
            strict[a][b]
            and not any(strict[a][c] and strict[c][b] for c in range(k))
            for b in range(k)
        ]
        for a in range(k)
    ]
    return Relation(rel.labels, tuple(tuple(row) for row in reduced))


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
