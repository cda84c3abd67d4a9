"""The matching order on multipartitions of n.

lambda <= mu holds when the boxes of lambda can be matched bijectively
onto the boxes of mu with every box weakly below its image in the box
order.  Boxes in different comparability classes are never related, so
a matching exists only if both labels have the same number of boxes in
every class.  A box the two labels share can always be matched to
itself: if b went to r and l came to b, then l < b < r, and l -> r,
b -> b is a matching too.  What is left, class by class, is a bipartite
graph in which a box is joined to every box of larger content; Hall's
condition on such a threshold graph reads: the k-th smallest content
of lambda is below the k-th smallest content of mu, for every k.
"""

from __future__ import annotations

from .boxorder import Params, content_table
from .combinatorics import Multipartition, boxes, enumerate_multipartitions
from .poset import Relation


class OrderInstance:
    """The order on all ell-multipartitions of n for fixed parameters."""

    def __init__(self, p: Params, n: int) -> None:
        if n < 0:
            raise ValueError("need n >= 0")
        self.p, self.n = p, n
        self.labels = tuple(enumerate_multipartitions(p.ell, n))
        # Box ids number the boxes the labels hold, in the order they first occur.
        box_ids = {}
        label_ids = [[box_ids.setdefault(box, len(box_ids)) for box in boxes(mp)]
                     for mp in self.labels]
        entries = content_table(p, box_ids)
        contents = [content for _, content in entries.values()]
        low = min(contents, default=0)
        span = max(contents, default=0) - low + 1
        # box id -> class id * span + content - lowest content: sorting these
        # groups boxes by class, and by content inside a class.
        self._keys = [cid * span + content - low for cid, content in entries.values()]
        # label -> (its box ids, the sorted class ids of its boxes)
        self._compiled: dict[Multipartition, tuple[frozenset[int], tuple]] = {}
        for mp, ids in zip(self.labels, label_ids):
            self._compiled[mp] = frozenset(ids), tuple(sorted(self._keys[k] // span for k in ids))

    def _compiled_label(self, mp: Multipartition) -> tuple[frozenset[int], tuple]:
        compiled = self._compiled.get(mp)
        if compiled is None:
            # Every ell-multipartition of n is a label, so mp is malformed.
            if mp.ell != self.p.ell:
                raise ValueError("multipartition has the wrong number of components")
            if mp.n != self.n:
                raise ValueError("multipartition has the wrong size")
            raise ValueError("not an ell-multipartition of n")
        return compiled


def leq_p(inst: OrderInstance, lam: Multipartition, mu: Multipartition) -> bool:
    """Whether lam <= mu in the matching order, by per-class sorted dominance."""
    (a, sig_a), (b, sig_b) = inst._compiled_label(lam), inst._compiled_label(mu)
    if sig_a != sig_b:
        return False
    keys = inst._keys
    left = sorted([keys[k] for k in a - b])
    right = sorted([keys[k] for k in b - a])
    # Equal signatures leave equal counts per class, so the k-th keys of
    # the two sides lie in the same class.
    return all(x < y for x, y in zip(left, right))


def relation_p(inst: OrderInstance) -> Relation:
    """The full order relation over the canonical labels, as bit rows.

    leq_p decides the pairs inside one signature group; labels with
    different per-class box counts are never related.
    """
    labels = inst.labels
    groups: dict[tuple, list[int]] = {}
    for k, mp in enumerate(labels):
        groups.setdefault(inst._compiled[mp][1], []).append(k)
    rows = [0] * len(labels)
    for members in groups.values():
        for a in members:
            rows[a] = sum(1 << b for b in members if leq_p(inst, labels[a], labels[b]))
    return Relation(tuple(mp.parts for mp in labels), rows)
