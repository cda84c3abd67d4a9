"""Finite relations over labelled elements and basic order algebra."""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Hashable


class Relation:
    """A relation over an ordered tuple of opaque labels, held as bit rows.

    Bit b of rows[a] is set when label a relates to label b; a row may also
    be given as k truth values.  matrix, the per-entry form, is derived.
    Labels are told apart by their JSON texts: 1, 1.0 and true are three.
    """

    def __init__(self, labels: tuple[Hashable, ...], rows: tuple[int, ...]) -> None:
        labels, rows = tuple(labels), tuple(rows)
        k = len(labels)
        if len(rows) != k or any(
            not 0 <= row < 1 << k if isinstance(row, int) else len(row) != k for row in rows
        ):
            raise ValueError("matrix shape must match the label count")
        # A set merges 1, 1.0 and true; only its collisions need the JSON texts.
        if len(set(labels)) != k and len(set(map(_label_text, labels))) != k:
            raise ValueError("labels must be unique")
        self.labels = labels
        self.rows = tuple(row if isinstance(row, int) else _packed([*map(bool, row)])
                          for row in rows)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self)
                and (self.labels, self.rows) == (other.labels, other.rows)
                and _label_text(self.labels) == _label_text(other.labels))

    def __hash__(self) -> int:
        return hash((self.labels, self.rows))

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def matrix(self) -> tuple[tuple[bool, ...], ...]:
        return tuple(tuple(map(bool, _entries(row, self.size))) for row in self.rows)

    def holds(self, a: Hashable, b: Hashable) -> bool:
        texts = [*map(_label_text, self.labels)]
        return bool(self.rows[texts.index(_label_text(a))] >> texts.index(_label_text(b)) & 1)

    def dumps(self) -> str:
        """The canonical JSON text of labels and matrix.

        Each row is the row template with the row's reversed bit string
        written over its entries by one stride-9 slice assignment.
        """
        k = self.size
        head = json.dumps({"labels": self.labels}, indent=2, sort_keys=True)[:-2]
        if not k:
            return head + ',\n  "matrix": []\n}\n'
        buffer, spec, rows = bytearray(_row_template(k).encode()), f"0{k}b", []
        for row in self.rows:
            buffer[12::9] = format(row, spec)[::-1].encode()
            rows.append(buffer.decode())
        rows[0] = head + _MATRIX + rows[0]
        rows[-1] += _TAIL
        return ",\n".join(rows)

    @classmethod
    def loads(cls, text: str) -> Relation:
        """The relation a JSON text holds, read as from_json(json.loads(text)) reads it.

        Text in the layout dumps writes is read row by row.  Up to the first
        _MATRIX marker, closed by a brace, it must parse as an object with
        k >= 1 labels; then come k copies of the row template with some
        entries 1, joined as dumps joins them.  A raw newline cannot occur
        in a JSON string, so the marker lies outside every string; the head
        parses as a whole object only when the marker is at its top level;
        and the matrix member, coming last, overrides any earlier one, as in
        json.loads.  Any other text takes the full parse, with its errors.
        """
        cut, rows = text.find(_MATRIX), None
        if cut > 0:
            try:
                head = json.loads(text[:cut] + "\n}", parse_constant=refuse_constant)
            except ValueError:
                head = None
            labels = head.get("labels") if isinstance(head, dict) else None
            if isinstance(labels, list) and labels:
                rows = _template_rows(text, cut + len(_MATRIX), len(labels))
        if rows is None:
            return cls.from_json(json.loads(text, parse_constant=refuse_constant))
        return cls(tuple(map(_label_from_json, labels)), rows)

    def to_json(self) -> dict:
        return json.loads(self.dumps())

    @classmethod
    def from_json(cls, data: dict) -> Relation:
        if not isinstance(data, dict):
            raise ValueError("a relation must be a JSON object")
        labels, matrix = data["labels"], data["matrix"]
        if not isinstance(labels, list):
            raise ValueError("relation labels must be a list")
        if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
            raise ValueError("a relation matrix must be a list of rows")
        rows = [_packed(row) for row in matrix]
        labels = tuple(_label_from_json(label) for label in labels)
        if any(len(row) != len(labels) for row in matrix):
            raise ValueError("matrix shape must match the label count")
        return cls(labels, rows)


_ENTRY = bytes.maketrans(b"01", b"\0\1")
_DIGIT = bytes.maketrans(b"\0\1", b"01")


# The text between the labels and the rows in dumps' layout, and after the rows.
_MATRIX = ',\n  "matrix": [\n'
_TAIL = "\n  ]\n}\n"


def refuse_constant(token: str):
    """parse_constant for json: NaN, Infinity and -Infinity are not JSON."""
    raise ValueError(f"not JSON: {token}")


def _row_template(k: int) -> str:
    """A row of k entries 0 as dumps writes it; entry b sits at offset 12 + 9*b."""
    return "    [\n      " + "0,\n      " * (k - 1) + "0\n    ]"


def _template_rows(text: str, at: int, k: int) -> list[int] | None:
    """The k bit rows of dumps' layout from offset at of text to its end, or
    None when the text there is not that layout."""
    template = _row_template(k)
    width = len(template)
    end = at + k * (width + 2) - 2  # where the last row ends
    if text[end:] != _TAIL:
        return None
    rows = []
    for start in range(at, end, width + 2):
        row = text[start:start + width]
        if row.replace("1", "0") != template or not (
                start + width == end or text.startswith(",\n", start + width)):
            return None
        rows.append(int(row[12::9][::-1], 2))
    return rows


def _packed(row: list) -> int:
    """A list of entries 0, 1, True or False as a bit row, checked and packed at C speed."""
    try:
        entries = bytes(row)
    except (TypeError, ValueError):  # a non-int entry, or an int outside 0..255
        entries = None
    if entries is None or entries.translate(None, b"\0\1"):
        raise ValueError("relation matrix entries must be 0, 1, true or false")
    return int(entries[::-1].translate(_DIGIT) or b"0", 2)


def _entries(row: int, k: int) -> bytes:
    """The k entries of a bit row as bytes 0 and 1, label 0 first."""
    return format(row, f"0{k}b").encode()[::-1].translate(_ENTRY)


def _label_text(label) -> str:
    return json.dumps(label, default=repr)


def _label_from_json(label):
    if isinstance(label, list):
        return tuple(_label_from_json(part) for part in label)
    if isinstance(label, dict):
        raise ValueError("a relation label cannot be a JSON object")
    return label


RefinementResult = namedtuple("RefinementResult", "order cycle")


def _bits(row: int):
    """Indices of the set bits of row, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def _closure(rows: list[int]) -> tuple[list[int], list[int]]:
    """Reach rows and strongly connected components of bit rows.

    Bit b of reach[a] is set when a path of length >= 1 leads from a to b.
    The components come as bit rows of their members, sinks first, from an
    iterative Tarjan pass.  A component's reach is the union of its members'
    rows and of the reach of each successor outside it; a successor that an
    already merged reach covers adds nothing and is skipped.
    """
    k = len(rows)
    index, low, reach = [-1] * k, [0] * k, [0] * k
    stack, components, done, count = [], [], 0, 0
    for root in range(k):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [[root, rows[root]]]  # node and its successors not yet taken
        while work:
            frame = work[-1]
            node, todo = frame[0], frame[1] & ~done
            while todo:
                bit = todo & -todo
                todo ^= bit
                dst = bit.bit_length() - 1
                if index[dst] < 0:
                    frame[1] = todo
                    index[dst] = low[dst] = count
                    count += 1
                    stack.append(dst)
                    work.append([dst, rows[dst]])
                    break
                low[node] = min(low[node], index[dst])  # dst is on the stack
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    members = 0
                    while not members >> node & 1:
                        members |= 1 << stack.pop()
                    out = 0
                    for member in _bits(members):
                        out |= rows[member]
                    merged, todo = 0, out & ~members
                    while todo:
                        bit = todo & -todo
                        merged |= reach[bit.bit_length() - 1]
                        todo &= ~(merged | bit)
                    for member in _bits(members):
                        reach[member] = out | merged
                    done |= members
                    components.append(members)
    return reach, components


def _shortest_cycle(rows: list[int], start: int, within: int) -> tuple[int, ...]:
    """A shortest strict cycle through start, searched inside the bit row within.

    Breadth-first: nodes are expanded in discovery order and successors
    taken lowest index first; the cycle closes at the first node other than
    start, in that order, with an edge back to start, and follows the parent
    links to it.  Every node and parent link of a cycle through start lies in
    start's strongly connected component; within is that component, of two or
    more members, so the search closes the cycle an unrestricted one would.
    """
    start_bit = 1 << start
    parent = {start: start}
    seen = start_bit
    queue = [start]
    for node in queue:
        row = rows[node] & within
        if node != start and row & start_bit:
            path = [node]
            while path[-1] != start:
                path.append(parent[path[-1]])
            return tuple(reversed(path))
        for dst in _bits(row & ~seen):
            parent[dst] = node
            queue.append(dst)
        seen |= row


def transitive_closure(rel: Relation) -> Relation:
    """Smallest transitive relation containing rel."""
    return Relation(rel.labels, _closure(rel.rows)[0])


def reflexive_closure(rel: Relation) -> Relation:
    return Relation(rel.labels, [row | 1 << a for a, row in enumerate(rel.rows)])


def is_partial_order(rel: Relation) -> tuple[str, tuple] | None:
    """None when rel is reflexive, antisymmetric, and transitive.

    Otherwise the first witness (kind, labels): reflexivity before
    antisymmetry before transitivity, each at the lowest a, then b, then c.
    """
    rows, labels = rel.rows, rel.labels
    for a, row in enumerate(rows):
        if not row >> a & 1:
            return "reflexivity", (labels[a],)
    for a, row in enumerate(rows):
        for b in _bits(row & -(2 << a)):
            if rows[b] >> a & 1:
                return "antisymmetry", (labels[a], labels[b])
    for a, row in enumerate(rows):
        for b in _bits(row):
            c = next(_bits(rows[b] & ~row), None)
            if c is not None:
                return "transitivity", (labels[a], labels[b], labels[c])
    return None


def _require_same_labels(r1: Relation, r2: Relation) -> None:
    if _label_text(r1.labels) != _label_text(r2.labels):
        raise ValueError("relations are over different label tuples")


def refines(fine: Relation, coarse: Relation) -> bool:
    """Whether every pair related in fine is related in coarse."""
    _require_same_labels(fine, coarse)
    return all(not f & ~c for f, c in zip(fine.rows, coarse.rows))


def common_refinement(r1: Relation, r2: Relation) -> RefinementResult:
    """The minimum partial order containing both relations, if one exists.

    Returns the reflexive-transitive closure of the union, or the
    obstruction: a shortest strict cycle of the union, through the
    lowest-indexed label among the shortest.
    """
    _require_same_labels(r1, r2)
    union = [a | b for a, b in zip(r1.rows, r2.rows)]
    reach, components = _closure(union)
    # A strict cycle lies inside one component of two or more members.
    starts = sorted((start, members) for members in components if members & members - 1
                    for start in _bits(members))
    best = None
    for start, within in starts:
        cycle = _shortest_cycle(union, start, within)
        if best is None or len(cycle) < len(best):
            best = cycle
            if len(best) == 2:
                break  # no strict cycle is shorter
    if best is not None:
        return RefinementResult(None, tuple(r1.labels[idx] for idx in best))
    return RefinementResult(Relation(r1.labels, [r | 1 << a for a, r in enumerate(reach)]), None)


def hasse(rel: Relation) -> Relation:
    """Transitive reduction of a partial order; no loops in the result."""
    violation = is_partial_order(rel)
    if violation is not None:
        raise ValueError("not a partial order: {} at {}".format(*violation))
    strict = [row & ~(1 << a) for a, row in enumerate(rel.rows)]
    reduced = []
    for row in strict:
        through = 0
        for c in _bits(row):
            through |= strict[c]
        reduced.append(row & ~through)
    return Relation(rel.labels, reduced)


def to_dot(rel: Relation) -> str:
    """Deterministic DOT text for the Hasse diagram of a partial order."""
    diagram = hasse(rel)
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for idx, label in enumerate(diagram.labels):
        text = json.dumps(label, separators=(",", ":"))
        lines.append(f'  n{idx} [label="{text.replace(chr(34), chr(39))}"];')
    for a, row in enumerate(diagram.rows):
        lines.extend(f"  n{a} -> n{b};" for b in _bits(row))
    lines.append("}")
    return "\n".join(lines) + "\n"
