"""Spans and counters around cherloc's public functions, kept in memory.

Installed only in the child processes of a traced pass.  Each wrapped
name is replaced in every cherloc module that holds it (so
`cherloc.deform.relation_p` is wrapped as well as
`cherloc.mporder.relation_p`).  A span records a name, its start and end
in monotonic nanoseconds, the index of its parent span and whether it
raised; a counter counts calls or outcomes at the same boundary.
Hot leaf predicates get a counter only, so the trace stays small.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, attribute) -> span name; a timed span and a `<name>.calls` count
# per call.
SPANS = {
    ("combinatorics", "enumerate_multipartitions"): "combinatorics.enumerate_multipartitions",
    ("mporder", "relation_p"): "mporder.relation_p",
    ("mporder", "leq_p"): "mporder.leq_p",
    ("deform", "localize"): "deform.localize",
    ("deform", "deform_rational"): "deform.deform_rational",
    ("deform", "deform_formal"): "deform.deform_formal",
    ("deform", "verify_preservation"): "deform.verify_preservation",
    ("loci", "aspherical_witnesses"): "loci.aspherical_witnesses",
    ("loci", "genericity_witness"): "loci.genericity_witness",
    ("poset", "common_refinement"): "poset.common_refinement",
    ("poset", "transitive_closure"): "poset.transitive_closure",
    ("poset", "hasse"): "poset.hasse",
    ("cli", "canonical_dumps"): "cli.canonical_dumps",
}

# (module, attribute) -> counter name; calls counted, not timed.
COUNTS = {
    ("combinatorics", "boxes"): "combinatorics.boxes.calls",
    ("boxorder", "cont"): "boxorder.cont.calls",
    ("boxorder", "box_equiv"): "boxorder.box_equiv.calls",
    ("boxorder", "box_less"): "boxorder.box_less.calls",
    ("boxorder", "content_class_key"): "boxorder.content_class_key.calls",
    ("loci", "theta_of_p"): "loci.theta_of_p.calls",
}

# span name -> (counter name, predicate on the return value)
OUTCOMES = {
    "mporder.leq_p": ("mporder.leq_p.true", lambda result: result is True),
    "poset.common_refinement": (
        "poset.common_refinement.cycles",
        lambda result: result.order is None,
    ),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        outcome = OUTCOMES.get(name)
        calls = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[calls] += 1
            record = [name, time.monotonic_ns(), 0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4] = True
                raise
            finally:
                record[2] = time.monotonic_ns()
                stack.pop()
            if outcome is not None and outcome[1](result):
                counters[outcome[0]] += 1
            return result

        return wrapper

    def count(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever a cherloc module holds it."""
        import cherloc.cli  # noqa: F401  (loads every cherloc module)

        modules = [m for name, m in sys.modules.items() if name.startswith("cherloc")]
        for table, make in ((SPANS, self.span), (COUNTS, self.count)):
            for (module, attr), name in table.items():
                original = getattr(sys.modules[f"cherloc.{module}"], attr)
                wrapped = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

        from cherloc.poset import Relation
        from cherloc.scalars import ParamScalar

        from_json = Relation.__dict__["from_json"].__func__
        Relation.from_json = classmethod(self.span("poset.Relation.from_json", from_json))
        ParamScalar.__post_init__ = self.count(
            "scalars.param_scalars", ParamScalar.__post_init__
        )

    def dump(self, path: str, startup_ns: int) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"startup_ns": startup_ns, "spans": self.spans, "counters": self.counters},
                handle,
            )
