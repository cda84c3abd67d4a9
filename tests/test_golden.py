"""Golden digests of fixed CLI runs.

Each case is one in-process `main(argv)` call, run in a directory that
holds the input files of FILES and nothing else.  The digest is the
SHA-256 over the exit code, stdout, stderr and every file the run wrote
(`--dot`, `--out`), and it must equal the one recorded in
tests/golden_sha256.json.  A refactor that is meant to keep every artifact
byte-identical therefore fails here, naming the argv of each case whose
bytes moved.

After a deliberate output change, rewrite the digests with

    PYTHONPATH=src python tests/test_golden.py

and name every case whose digest changed in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

from cherloc.cli import main

GOLDEN = Path(__file__).with_name("golden_sha256.json")


def _relation(labels, rows):
    return {"labels": labels, "matrix": rows}


def _generated_pair(seed: int, k: int, reversals: int):
    """Two relations over k nested-list labels whose union is acyclic, but for
    `reversals` planted cycles: a run up the shared ranking in the first and
    the edge back down in the second."""
    rng = random.Random(seed)
    labels = [[[idx // 10], [idx % 10, "x"]] for idx in range(k)]
    rank = list(range(k))
    rng.shuffle(rank)
    pair = []
    for _ in range(2):
        rows = [[int(a == b or (rank[a] < rank[b] and rng.random() < 0.05)) for b in range(k)]
                for a in range(k)]
        pair.append(rows)
    below = sorted(range(k), key=rank.__getitem__)
    for _ in range(reversals):
        lo, length = rng.randrange(k - 8), rng.randint(2, 7)
        for step in range(lo, lo + length - 1):
            pair[0][below[step]][below[step + 1]] = 1
        pair[1][below[lo + length - 1]][below[lo]] = 1
    return [_relation(labels, rows) for rows in pair]


def _order_layout(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# Input files, written afresh for every case: a text as it is, anything else
# as compact JSON.
FILES = {
    "chain.json": _relation([1, 2, 3], [[1, 0, 0], [1, 1, 0], [1, 1, 1]]),
    "pair.json": _relation([1, 3], [[1, 1], [0, 1]]),
    "antichain.json": _relation([1, 2, 3], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    "reversed.json": _relation([1, 2, 3], [[1, 1, 1], [0, 1, 1], [0, 0, 1]]),
    "partial.json": _relation(["a", "b", "c"], [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
    "partial-cycle.json": _relation(["a", "b", "c"], [[1, 0, 0], [1, 1, 0], [0, 0, 1]]),
    "job-order.json": {
        "command": "order", "ell": 2, "n": 2,
        "params": {"ell": 2, "kappa": "1/2", "h": [{"a": "1/4"}, {"a": "-1/4"}]},
        "options": {"dot": "job.dot"},
    },
    "job-localize.json": {
        "command": "localize", "ell": 2, "n": 3,
        "params": {"ell": 2, "kappa": "formal",
                   "h": [{"a": "1/3", "b": "0/1"}, {"a": "-1/3", "b": "0/1"}]},
        "options": {"index_mode": "include-zero", "retry_bound": 8},
    },
    "job-blocked.json": {
        "command": "localize", "n": 2,
        "params": {"ell": 3, "kappa": "formal",
                   "h": [{"a": "0/1", "b": "0/1"}, {"a": "-1/3", "b": "0/1"},
                         {"a": "0/1", "b": "1/1"}]},
    },
    "job-generic.json": {
        "command": "generic", "n": 2,
        "theta": {"kappa": "1/2", "theta": [{"a": "1/3"}, {"a": "1/5"}]},
        "options": {"index_mode": "include-zero"},
    },
    "job-refine.json": {"command": "common-refinement",
                        "inputs": ["partial.json", "partial-cycle.json"]},
    "job-enumerate-max-n.json": {"command": "enumerate", "ell": 1, "n": 9,
                                 "options": {"max_n": 9, "out": "enum.json"}},
    "job-big-ell.json": {"command": "order", "n": 1,
                         "params": {"ell": 5, "kappa": "1/2", "h": [{"a": "0/1"}] * 5}},
    "job-big-n.json": {"command": "enumerate", "ell": 1, "n": 9},
    "job-bad-n.json": {"command": "enumerate", "ell": 1, "n": "3"},
    "job-unknown.json": {"command": "explode"},
    "job-no-ell.json": {"command": "theta",
                        "params": {"kappa": "1/2", "h": [{"a": "0/1"}]}},
    "job-no-kappa.json": {"command": "theta", "params": {"ell": 1, "h": [{"a": "0/1"}]}},
    "job-no-a.json": {"command": "theta",
                      "params": {"ell": 1, "kappa": "1/2", "h": [{"b": "0/1"}]}},
    "job-misspelt-scalar.json": {
        "command": "theta",
        "params": {"ell": 2, "kappa": "formal", "h": [{"a": "1/4", "bb": "1"}, {"a": "-1/4"}]},
    },
    "no-matrix.json": {"labels": [1]},
}
FILES["gen-order-1.json"], FILES["gen-order-2.json"] = _generated_pair(8, 100, 0)
FILES["gen-cycle-1.json"], FILES["gen-cycle-2.json"] = _generated_pair(9, 104, 4)
# Relations in the layout `order` writes, which Relation.load reads row by row;
# the compact files above take its full parse.
FILES.update({f"laid-{name}": _order_layout(FILES[name]) for name in (
    "chain.json", "antichain.json", "partial.json", "gen-cycle-1.json", "gen-cycle-2.json")})
FILES["laid-entry-2.json"] = _order_layout(_relation([1, 2], [[1, 2], [0, 1]]))
# laid-partial.json with CRLF newlines, which text mode reads as the layout itself;
# then that file with a leading BOM, cut in the middle of its second row, and with
# text after its tail: each of the last three takes the full parse and its error.
FILES["laid-crlf.json"] = FILES["laid-partial.json"].replace("\n", "\r\n")
FILES["laid-bom.json"] = "\ufeff" + FILES["laid-crlf.json"]
FILES["laid-cut.json"] = FILES["laid-crlf.json"][:FILES["laid-crlf.json"].index("    ],") + 22]
FILES["laid-extra.json"] = FILES["laid-crlf.json"] + " x"
# A label 1e400 or -1e400 is JSON but reads as an infinite float, in the
# compact layout and in the order layout.
_TWO = _relation(["INF", 2], [[1, 0], [0, 1]])
for _name, _label in (("inf", "1e400"), ("neg-inf", "-1e400")):
    FILES[f"{_name}.json"] = json.dumps(_TWO).replace('"INF"', _label)
    FILES[f"laid-{_name}.json"] = _order_layout(_TWO).replace('"INF"', _label)
# A job file that holds a constant JSON does not have.
FILES["job-nan.json"] = {"command": "enumerate", "ell": 1, "n": float("nan")}


def _localize_cases():
    cases = []
    # Both kappa modes over ell = 1..3: zero, i/ell, -i/ell, generic and k-part h.
    grid = [
        ("1", ["1/2"], ["1/2", "-1/2", "formal"]),
        ("2", ["0,0", "1/4,-1/4", "-1/4,1/4", "1/2,-1/2", "1/7,-1/7", "k,0"],
         ["1/2", "-2/3", "3/2", "1", "formal"]),
        ("3", ["0,0,0", "0,1/3,2/3", "0,-1/3,-2/3", "1/5,-1/7,0", "0,2/3,2/3",
               "0,-1/3,k"],
         ["1/2", "-1", "formal"]),
    ]
    for ell, hs, kappas in grid:
        for h in hs:
            for kappa in kappas:
                if "k" in h and kappa != "formal":
                    continue
                cases.append(["localize", "--ell", ell, "--n", "2", f"--kappa={kappa}",
                              f"--h={h}"])
    for ell, h in [("1", "0"), ("2", "1/4,-1/4"), ("2", "-1/4,1/4"), ("2", "1/3,-1/3"),
                   ("2", "1/2-k,k"), ("3", "0,-1/3,-2/3")]:
        for kappa in ("1/2", "-1", "formal"):
            if "k" not in h or kappa == "formal":
                cases.append(["localize", "--ell", ell, "--n", "3", f"--kappa={kappa}",
                              f"--h={h}"])
    # Retry bounds, index modes and the oracle bound.
    for bound in ("0", "1", "2", "3"):
        cases.append(["localize", "--ell", "2", "--n", "2", "--kappa", "formal",
                      "--h=-1/4,1/4", "--retry-bound", bound])
        cases.append(["localize", "--ell", "2", "--n", "2", "--kappa", "1",
                      "--h=1/4,-1/4", "--index-mode", "include-zero", "--retry-bound", bound])
    cases += [
        ["localize", "--ell", "2", "--n", "8", "--kappa", "formal", "--h=-1/4,1/4"],
        # Blocked after all 64 candidates, on a grid twice that size.
        ["localize", "--ell", "2", "--n", "16", "--kappa", "formal", "--h=-1/4,1/4",
         "--max-n", "16"],
        ["localize", "--ell", "3", "--n", "3", "--kappa", "formal", "--h=0,0,1/3"],
        ["localize", "--ell", "3", "--n", "2", "--kappa", "formal", "--h=0,1/3+k,k"],
        ["localize", "--ell", "3", "--n", "2", "--kappa", "formal", "--h=0,0,0",
         "--index-mode", "include-zero"],
        ["localize", "--ell", "2", "--n", "3", "--kappa", "1/2", "--h=1/4,-1/4",
         "--index-mode", "include-zero"],
        ["localize", "--ell", "1", "--n", "3", "--kappa", "1/2", "--oracle-bound", "2"],
        ["localize", "--ell", "4", "--n", "1", "--kappa", "1", "--h=1/8,0,0,-1/8"],
        ["localize", "--ell", "4", "--n", "2", "--kappa", "formal", "--h=0,0,1/2,1/2"],
        ["localize", "--ell", "1", "--n", "2", "--kappa", "0"],
        ["localize", "--ell", "2", "--n", "0", "--kappa", "1/2"],
        # Preservation witnesses away from box (1, 1): b1 = (2,1,0) with b2 = (1,5,2),
        # b1 = (1,2,0) with b2 = (2,1,2), and b2 = (1,2,1).
        ["localize", "--ell", "3", "--n", "5", "--kappa", "1/3", "--h=2/3,-1/3,-1/3",
         "--retry-bound", "1"],
        ["localize", "--ell", "3", "--n", "2", "--kappa", "1/2", "--h=0,1/4,2/3",
         "--retry-bound", "2"],
        ["localize", "--ell", "2", "--n", "2", "--kappa", "formal", "--h=k,1/2",
         "--retry-bound", "2"],
    ]
    return cases


def _cases():
    cases = [
        ["enumerate", "--ell", "1", "--n", "3"],
        ["enumerate", "--ell", "2", "--n", "2"],
        ["enumerate", "--ell", "3", "--n", "2", "--out", "enum.json"],
        ["enumerate", "--ell", "2", "--n", "9", "--max-n", "9"],
    ]
    for ell, n, kappa, h in [
        ("1", "3", "1/2", None), ("1", "4", "-2/3", None), ("1", "3", "0", None),
        ("2", "2", "1/2", "1/4,-1/4"), ("2", "3", "formal", "-1/4,1/4"),
        ("2", "2", "-1", "0,1/2"), ("3", "2", "formal", "0,1/3,2/3"),
        ("3", "2", "formal", "0,-1/3,-2/3"), ("3", "2", "1/2", "0,1/3,2/3"),
        ("2", "2", "formal", "k,1/2"), ("4", "1", "2/3", "1/7,2/7,3/7,0"),
        ("2", "3", "formal", "1/4-3k,-1/4-k"),
    ]:
        argv = ["order", "--ell", ell, "--n", n, f"--kappa={kappa}"]
        cases.append(argv + ([f"--h={h}"] if h else []))
    cases += [
        ["order", "--ell", "2", "--n", "2", "--kappa", "1/2", "--dot", "order.dot"],
        ["order", "--ell", "3", "--n", "2", "--kappa", "formal", "--h=0,1/3,2/3",
         "--dot", "order.dot"],
        # The size-guard corner, and components that share classes with kappa parts.
        ["order", "--ell", "4", "--n", "8", "--kappa", "1/2", "--out", "corner.json"],
        ["order", "--ell", "3", "--n", "6", "--kappa", "formal", "--h=0,1/3,2/3"],
    ]
    for ell, n, kappa, h in [
        ("1", "2", "1/2", None), ("1", "3", "-1", None), ("2", "3", "formal", "-1/4,1/4"),
        ("2", "2", "1/3", "1/5,-1/5"), ("3", "2", "formal", "0,1/3,k"),
        ("2", "3", "formal", "1/7,-1/7"),
        # Two or three content-hyperplane witnesses for one (i, m).
        ("3", "8", "-1/3", "0,-1/3,-2/3"), ("4", "6", "formal", "0,-1/4+k,-1/2,-3/4+k"),
        ("4", "8", "1/2", "0,-1/4,-1/2,-3/4"),
    ]:
        argv = ["spherical", "--ell", ell, "--n", n, f"--kappa={kappa}"]
        cases.append(argv + ([f"--h={h}"] if h else []))
    for ell, n, kappa, theta in [
        ("2", "2", "1/2", "1/3,1/5"), ("2", "2", "1/2", "1,1/5"),
        ("3", "2", "formal", "k,1/3,1/5"), ("3", "2", "formal", "1/2,1/3,1/5"),
        ("1", "2", "-1", "1/3"),
        # Difference witnesses with |m| = 2, and the same theta at n = 2, where it is generic.
        ("3", "3", "1", "-4,13/2,1/2"), ("3", "2", "1", "-4,13/2,1/2"),
        ("3", "3", "formal", "1+k,-1-k,1+k"),
    ]:
        for mode in ("literal", "include-zero"):
            cases.append(["generic", "--ell", ell, "--n", n, f"--kappa={kappa}",
                          f"--theta={theta}", "--index-mode", mode])
    # A zero-sum theta: the "sum" witness.
    cases += [["generic", "--ell", "2", "--n", "2", "--kappa", "1/2", "--theta=1/2,-1/2"],
              ["generic", "--ell", "2", "--n", "2", "--kappa", "formal", "--theta=k,-k"]]
    for ell, kappa, h in [
        ("1", "1/2", None), ("2", "formal", "1/4,-1/4"), ("3", "-2/3", "1/5,0,-1/5"),
        ("3", "formal", "k,1/3,2-k"),
        # Kappa coefficients other than +-1.
        ("2", "formal", "1/2-3k,3/4k"),
    ]:
        argv = ["theta", "--ell", ell, f"--kappa={kappa}"]
        cases.append(argv + ([f"--h={h}"] if h else []))
    cases += _localize_cases()
    cases += [
        ["common-refinement", "chain.json", "antichain.json"],
        ["common-refinement", "chain.json", "reversed.json"],
        ["common-refinement", "partial.json", "partial-cycle.json"],
        ["common-refinement", "partial.json", "partial.json", "--out", "refined.json"],
        ["common-refinement", "pair.json", "pair.json"],
        ["common-refinement", "chain.json", "pair.json"],
        ["common-refinement", "chain.json", "no-matrix.json"],
        ["common-refinement", "chain.json", "missing.json"],
        ["common-refinement", "gen-order-1.json", "gen-order-2.json"],
        ["common-refinement", "gen-cycle-1.json", "gen-cycle-2.json"],
        ["common-refinement", "laid-chain.json", "laid-antichain.json"],
        ["common-refinement", "laid-gen-cycle-1.json", "laid-gen-cycle-2.json"],
        ["common-refinement", "laid-partial.json", "partial-cycle.json"],
        # An entry 2 fails the row template, so the full parse refuses it.
        ["common-refinement", "chain.json", "laid-entry-2.json"],
    ]
    cases += [["common-refinement", name, name]
              for name in ("laid-crlf.json", "laid-bom.json", "laid-cut.json", "laid-extra.json",
                           "inf.json", "neg-inf.json", "laid-inf.json", "laid-neg-inf.json")]
    cases += [["job", name] for name in sorted(FILES) if name.startswith("job-")]
    # Invalid input: exit 2 with one line.
    cases += [
        ["enumerate", "--ell", "2", "--n", "9"],
        ["enumerate", "--ell", "5", "--n", "1"],
        ["order", "--ell", "5", "--n", "1", "--kappa", "1/2", "--h", "0"],
        ["order", "--ell", "5", "--n", "1", "--kappa", "junk"],
        ["order", "--ell", "2", "--n", "1", "--kappa", "1/2", "--h", "0"],
        ["order", "--ell", "1", "--n", "2", "--kappa", "1/0"],
        ["order", "--ell", "1", "--n", "2", "--kappa", "1/2", "--dot", "no-dir/x.dot"],
        ["theta", "--ell", "1", "--kappa", "1/2", "--h", "0.5"],
        ["generic", "--ell", "1", "--n", "1", "--kappa", "1/2", "--theta="],
        ["job", "missing.json"],
        ["order", "--ell", "1"],
        ["order", "--ell", "1", "--n", "2", "--kappa", "-1/2"],
    ]
    return cases


CASES = _cases()


def digest(argv: list[str]) -> str:
    """SHA-256 over exit code, stdout, stderr and every file the run wrote."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, payload in FILES.items():
            text = payload if isinstance(payload, str) else json.dumps(payload)
            Path(tmp, name).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(argv))
                except SystemExit as exit_:  # argparse's usage errors
                    code = exit_.code
        finally:
            os.chdir(cwd)
        sha = hashlib.sha256()
        for part in (str(code), out.getvalue(), err.getvalue()):
            sha.update(part.encode())
            sha.update(b"\0")
        for path in sorted(Path(tmp).iterdir()):
            if path.name not in FILES:
                sha.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return sha.hexdigest()


def _key(argv: list[str]) -> str:
    return " ".join(argv)


def test_every_run_matches_its_golden_digest():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    mismatched = [_key(argv) for argv in CASES if golden.get(_key(argv)) != digest(argv)]
    assert not mismatched, "changed bytes:\n" + "\n".join(mismatched)
    assert sorted(golden) == sorted(_key(argv) for argv in CASES)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({_key(argv): digest(argv) for argv in CASES}, indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
