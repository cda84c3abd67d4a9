"""Multipartitions of n with a fixed number of components, and their boxes."""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import NamedTuple


class Box(NamedTuple):
    """A box of a multipartition: row x, column y (both 1-based), component i."""

    x: int
    y: int
    i: int


class Multipartition:
    """A tuple of partitions, each a weakly decreasing tuple of positive int rows."""

    def __init__(self, parts: tuple[tuple[int, ...], ...]) -> None:
        parts = tuple(tuple(component) for component in parts)
        for component in parts:
            if any(type(r) is not int for r in component):
                raise ValueError("partition rows must be integers")
            if any(r <= 0 for r in component):
                raise ValueError("partition rows must be positive")
            if any(component[k] < component[k + 1] for k in range(len(component) - 1)):
                raise ValueError("partition rows must be weakly decreasing")
        self.parts = parts

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash((self.parts,))

    @property
    def ell(self) -> int:
        return len(self.parts)

    @property
    def n(self) -> int:
        return sum(sum(component) for component in self.parts)

    def to_json(self) -> list[list[int]]:
        return [list(component) for component in self.parts]

    @classmethod
    def from_json(cls, data: list[list[int]]) -> Multipartition:
        return cls(tuple(tuple(component) for component in data))


@lru_cache(maxsize=None)
def _partitions(n: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_multipartitions(ell: int, n: int) -> list[Multipartition]:
    """All ell-multipartitions of n, in descending lexicographic order.

    Tuples of partitions are compared componentwise, partitions as plain
    integer tuples.
    """
    if ell < 1 or n < 0:
        raise ValueError("need ell >= 1 and n >= 0")
    found = [parts for sizes in product(range(n + 1), repeat=ell) if sum(sizes) == n
             for parts in product(*(_partitions(size, size) for size in sizes))]
    found.sort(reverse=True)
    return [Multipartition(parts) for parts in found]


def boxes(mp: Multipartition) -> list[Box]:
    """Boxes of a multipartition, ordered by (component, row, column)."""
    out = []
    for i, component in enumerate(mp.parts):
        for x, row_length in enumerate(component, start=1):
            out.extend(Box(x, y, i) for y in range(1, row_length + 1))
    return out


def relevant_boxes(ell: int, n: int) -> list[Box]:
    """The full n-by-n coordinate grid in each component.

    Contains boxes(mp) for every ell-multipartition mp of at most n.
    """
    if ell < 1 or n < 1:
        raise ValueError("need ell >= 1 and n >= 1")
    return [
        Box(x, y, i)
        for i in range(ell)
        for x in range(1, n + 1)
        for y in range(1, n + 1)
    ]
