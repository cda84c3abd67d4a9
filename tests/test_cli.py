import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cherloc import IndexMode, Params, ParamScalar, Relation
from cherloc.cli import (
    COMMANDS as CLI_COMMANDS,
    _build_parser,
    _job_from_args,
    _job_from_json,
    canonical_dumps,
    main,
)
from cherloc.combinatorics import enumerate_multipartitions
from cherloc.deform import ORACLE_BOUND, RETRY_BOUND
from test_poset import to_json_per_entry

P2_OF_2 = [
    [[2], []],
    [[1, 1], []],
    [[1], [1]],
    [[], [2]],
    [[], [1, 1]],
]


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exit_:  # argparse's usage errors
        code = exit_.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_artifact(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--ell", "2", "--n", "2")
    assert code == 0
    assert err == ""
    assert json.loads(out) == {"ell": 2, "n": 2, "labels": P2_OF_2}


def test_enumerate_is_byte_deterministic(capsys):
    _, first, _ = run_cli(capsys, "enumerate", "--ell", "2", "--n", "2")
    _, second, _ = run_cli(capsys, "enumerate", "--ell", "2", "--n", "2")
    assert first == second
    assert first.endswith("\n")


def test_order_artifact(capsys):
    code, out, _ = run_cli(capsys, "order", "--ell", "1", "--n", "2", "--kappa", "1/2")
    assert code == 0
    assert json.loads(out) == {
        "labels": [[[2]], [[1, 1]]],
        "matrix": [[1, 0], [1, 1]],
    }


def test_order_writes_dot_hasse(capsys, tmp_path):
    dot = tmp_path / "order.dot"
    code, out, _ = run_cli(
        capsys,
        "order", "--ell", "1", "--n", "2", "--kappa", "1/2", "--dot", str(dot),
    )
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph hasse {")
    assert "n1 -> n0;" in text
    assert "n0 -> n0;" not in text


def test_out_redirects_stdout(capsys, tmp_path):
    target = tmp_path / "artifact.json"
    code, out, _ = run_cli(
        capsys, "enumerate", "--ell", "1", "--n", "3", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["labels"] == [[[3]], [[2, 1]], [[1, 1, 1]]]


def test_spherical_negative_decision(capsys):
    code, out, _ = run_cli(capsys, "spherical", "--ell", "1", "--n", "2", "--kappa", "1/2")
    assert code == 1
    assert json.loads(out) == {
        "spherical": False,
        "witnesses": [{"family": "kappa-fraction", "r": 1, "s": 2}],
    }


def test_spherical_positive_decision(capsys):
    code, out, _ = run_cli(capsys, "spherical", "--ell", "1", "--n", "2", "--kappa", "2")
    assert code == 0
    assert json.loads(out) == {"spherical": True, "witnesses": []}


def test_generic_exit_depends_on_index_mode(capsys):
    argv = ["generic", "--ell", "2", "--n", "2", "--kappa", "3/2", "--theta=-3/2,0"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out) == {"generic": True, "index_mode": "literal", "witness": None}
    code, out, _ = run_cli(capsys, *argv, "--index-mode", "include-zero")
    assert code == 1
    assert json.loads(out) == {
        "generic": False,
        "index_mode": "include-zero",
        "witness": {"kind": "difference", "i": 0, "j": 1, "m": 1},
    }


def test_theta_artifact(capsys):
    code, out, _ = run_cli(capsys, "theta", "--ell", "2", "--kappa", "3/2", "--h", "0,0")
    assert code == 0
    assert json.loads(out) == {"kappa": "3/2", "theta": [{"a": "-3/2"}, {"a": "0/1"}]}


def test_localize_pinned_instance(capsys):
    code, out, _ = run_cli(capsys, "localize", "--ell", "1", "--n", "2", "--kappa", "1/2")
    assert code == 0
    blob = json.loads(out)
    assert blob["plan"] == {"m": [0], "M": 3}
    assert blob["p_prime"]["kappa"] == "3/2"
    assert blob["theta"]["theta"] == [{"a": "-3/2"}]
    assert [c["passed"] for c in blob["checks"]] == [True, True, True, True, None]


def test_localize_is_byte_deterministic(capsys):
    argv = ["localize", "--ell", "2", "--n", "2", "--kappa", "formal", "--h", "1/4,-1/4"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_localize_blocked_instance_reports_failure(capsys):
    code, out, _ = run_cli(
        capsys,
        "localize", "--ell", "2", "--n", "2", "--kappa", "formal",
        "--h=-1/4,1/4", "--retry-bound", "8",
    )
    assert code == 1
    blob = json.loads(out)
    assert blob["failed"] == "deformation"
    assert blob["mode"] == "formal"
    assert blob["candidates_tried"] == 8
    assert blob["last"]["failure"]["check"] == "box_order_preserved"


def test_common_refinement_merges(capsys, tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    first.write_text(canonical_dumps(
        {"labels": ["a", "b", "c"],
         "matrix": [[1, 1, 0], [0, 1, 0], [0, 0, 1]]}
    ))
    second.write_text(canonical_dumps(
        {"labels": ["a", "b", "c"],
         "matrix": [[1, 0, 0], [0, 1, 1], [0, 0, 1]]}
    ))
    code, out, _ = run_cli(capsys, "common-refinement", str(first), str(second))
    assert code == 0
    blob = json.loads(out)
    assert blob["labels"] == ["a", "b", "c"]
    assert blob["matrix"][0][2] == 1


def test_common_refinement_reports_cycles(capsys, tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    first.write_text(canonical_dumps(
        {"labels": ["a", "b"], "matrix": [[1, 1], [0, 1]]}
    ))
    second.write_text(canonical_dumps(
        {"labels": ["a", "b"], "matrix": [[1, 0], [1, 1]]}
    ))
    code, out, _ = run_cli(capsys, "common-refinement", str(first), str(second))
    assert code == 1
    assert sorted(json.loads(out)["cycle"]) == ["a", "b"]


def test_order_artifact_is_a_refinement_fixed_point(capsys, tmp_path):
    produced = tmp_path / "order.json"
    refined = tmp_path / "refined.json"
    run_cli(
        capsys,
        "order", "--ell", "2", "--n", "2", "--kappa", "1/2",
        "--h", "1/4,-1/4", "--out", str(produced),
    )
    # order's layout is read row by row; the json.tool copy (four-space
    # indent) takes the full parse.
    copy = tmp_path / "copy.json"
    copy.write_text(json.dumps(json.loads(produced.read_text()), indent=4) + "\n")
    for inputs in ((produced, produced), (produced, copy), (copy, copy)):
        code, _, _ = run_cli(
            capsys, "common-refinement", *map(str, inputs), "--out", str(refined)
        )
        assert code == 0
        assert refined.read_text() == produced.read_text()


def test_job_file_matches_direct_invocation(capsys, tmp_path):
    jobfile = tmp_path / "job.json"
    jobfile.write_text(canonical_dumps({"command": "enumerate", "ell": 1, "n": 3}))
    code, from_job, _ = run_cli(capsys, "job", str(jobfile))
    assert code == 0
    _, direct, _ = run_cli(capsys, "enumerate", "--ell", "1", "--n", "3")
    assert from_job == direct


def test_job_file_carries_params_and_options(capsys, tmp_path):
    jobfile = tmp_path / "job.json"
    jobfile.write_text(canonical_dumps({
        "command": "localize",
        "ell": 1,
        "n": 2,
        "params": {"ell": 1, "kappa": "1/2", "h": [{"a": "0/1"}]},
        "options": {"oracle_bound": 1},
    }))
    code, out, _ = run_cli(capsys, "job", str(jobfile))
    assert code == 0
    blob = json.loads(out)
    assert blob["plan"]["M"] == 3
    named = {c["name"]: c for c in blob["checks"]}
    assert named["order_relation_equal"]["passed"] is None


# command -> its shortest command line and the job file that says the same.
ZERO_H = {"ell": 1, "kappa": "1/2", "h": [{"a": "0/1"}]}
SHORTEST = {
    "enumerate": ("--ell 1 --n 2", {"ell": 1, "n": 2}),
    "order": ("--ell 1 --n 2 --kappa 1/2", {"ell": 1, "n": 2, "params": ZERO_H}),
    "spherical": ("--ell 1 --n 2 --kappa 1/2", {"ell": 1, "n": 2, "params": ZERO_H}),
    "generic": ("--ell 1 --n 2 --kappa 1/2 --theta 1",
                {"ell": 1, "n": 2, "theta": {"kappa": "1/2", "theta": [{"a": "1"}]}}),
    "theta": ("--ell 1 --kappa 1/2", {"ell": 1, "params": ZERO_H}),
    "localize": ("--ell 1 --n 2 --kappa 1/2", {"ell": 1, "n": 2, "params": ZERO_H}),
    "common-refinement": ("a.json b.json", {"inputs": ["a.json", "b.json"]}),
}


def test_flag_and_file_jobs_agree():
    # A handler and run() read the command and the dest of each of its
    # flags, --h read as params and --kappa riding in params or theta.
    assert set(SHORTEST) == set(CLI_COMMANDS)
    for command, (flags, fields) in SHORTEST.items():
        argv = [command, *flags.split()]
        from_flags = _job_from_args(_build_parser(argv).parse_args(argv))
        from_file = _job_from_json({"command": command, **fields})
        read = ["command"] + [{"--h": "params"}.get(flag, flag.lstrip("-").replace("-", "_"))
                              for flag in CLI_COMMANDS[command].arguments.split()
                              if flag != "--kappa"]
        for name in read:
            assert getattr(from_flags, name) == getattr(from_file, name), (command, name)


def test_jobspec_from_json_defaults():
    job = _job_from_json({"command": "enumerate", "ell": 2, "n": 1})
    assert job.params is None
    assert job.oracle_bound == 6
    assert job.index_mode.value == "literal"


def test_localize_jobs_carry_the_localize_defaults():
    argv = ["localize", "--ell", "1", "--n", "2", "--kappa", "1/2"]
    from_flags = _job_from_args(_build_parser(argv).parse_args(argv))
    from_file = _job_from_json({"command": "localize", "ell": 1, "n": 2, "params": ZERO_H})
    for job in (from_flags, from_file):
        assert (job.index_mode, job.oracle_bound, job.retry_bound) == (
            IndexMode.LITERAL, ORACLE_BOUND, RETRY_BOUND)


def test_size_guard_refuses_large_n(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--ell", "2", "--n", "9")
    assert code == 2
    assert out == ""
    assert "size guard" in err


def test_size_guard_raised_by_flag(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--ell", "2", "--n", "9", "--max-n", "9")
    assert code == 0
    assert json.loads(out)["n"] == 9


def test_size_guard_raised_by_job_option(capsys, tmp_path):
    jobfile = tmp_path / "job.json"
    jobfile.write_text(json.dumps(
        {"command": "enumerate", "ell": 2, "n": 9, "options": {"max_n": 9}}
    ))
    code, out, _ = run_cli(capsys, "job", str(jobfile))
    assert code == 0
    assert json.loads(out)["n"] == 9


def test_size_guard_refuses_large_ell(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--ell", "5", "--n", "1")
    assert code == 2
    assert "size guard" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("order", "--ell", "2", "--n", "1", "--kappa", "1/2", "--h", "0"),
        ("order", "--ell", "1", "--n", "1", "--kappa", "junk"),
        ("theta", "--ell", "1", "--kappa", "1/2", "--h", "0.5"),
        ("common-refinement", "missing-a.json", "missing-b.json"),
        ("job", "no-such-job.json"),
        ("order", "--ell", "1", "--n", "2", "--kappa", "1/0"),
        ("order", "--ell", "1", "--n", "2", "--kappa", "1/2", "--dot", "no-dir/x.dot"),
        # --max-n exists only where --n does
        ("theta", "--ell", "1", "--kappa", "1/2", "--max-n", "3"),
        ("common-refinement", "valid.json", "valid.json", "--max-n", "3"),
        # an empty --theta is not the zero vector
        ("generic", "--ell", "1", "--n", "1", "--kappa", "1/2", "--theta="),
        ("generic", "--ell", "2", "--n", "-2", "--kappa", "1/2", "--theta", "1,2"),
        # a negative retry bound is invalid input, not a failed deformation
        ("localize", "--ell", "1", "--n", "2", "--kappa", "1/2", "--retry-bound", "-1"),
        ("localize", "--ell", "1", "--n", "2", "--kappa", "formal", "--retry-bound", "-1"),
        # so is a negative oracle bound
        ("localize", "--ell", "1", "--n", "2", "--kappa", "1/2", "--oracle-bound", "-1"),
    ],
)
def test_invalid_input_exits_2(capsys, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "valid.json").write_text(json.dumps({"labels": [1], "matrix": [[1]]}))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("cherloc: ") and err.count("\n") == 1


# Files that lack one key -> that key.  Each exits 2 with one line naming it.
MISSING_FIELD = {
    "ell": {"command": "theta", "params": {"kappa": "1/2", "h": [{"a": "0/1"}]}},
    "kappa": {"command": "theta", "params": {"ell": 1, "h": [{"a": "0/1"}]}},
    "a": {"command": "theta", "params": {"ell": 1, "kappa": "1/2", "h": [{"b": "0/1"}]}},
    "matrix": {"labels": [1]},
}


# Jobs with a key their command does not take -> the first such key: a
# misspelt option, options of other commands, a misspelt top-level key.
FOREIGN_KEY = {
    "retry_bund": {"command": "localize", "n": 2, "options": {"retry_bund": 3},
                   "params": {"ell": 2, "kappa": "formal", "h": [{"a": "-1/4"}, {"a": "1/4"}]}},
    "max_n": {"command": "theta", "options": {"max_n": 3, "dot": "x.dot", "retry_bound": -5},
              "params": {"ell": 1, "kappa": "1/2", "h": [{"a": "0/1"}]}},
    "nn": {"command": "order", "ell": 1, "n": 2, "nn": 9, "option": {"out": "o.json"},
           "params": {"ell": 1, "kappa": "1/2", "h": [{"a": "0/1"}]}},
}


# Jobs with a key that params, theta or a scalar does not take -> the object
# and the key.
NESTED_KEY = {
    ("a scalar", "bb"): {"command": "theta", "params": {
        "ell": 2, "kappa": "formal", "h": [{"a": "1/4", "bb": "1"}, {"a": "-1/4"}]}},
    ("params", "hh"): {"command": "theta",
                       "params": {"ell": 1, "kappa": "1/2", "h": [{"a": "0/1"}], "hh": []}},
    ("theta", "ell"): {"command": "generic", "n": 1,
                       "theta": {"ell": 1, "kappa": "1/2", "theta": [{"a": "1"}]}},
}


# Jobs whose index_mode option has the wrong type or is not one of its choices.
GENERIC_JOB = {"command": "generic", "ell": 1, "n": 1,
               "theta": {"kappa": "1/2", "theta": [{"a": "1"}]}}
BAD_INDEX_MODE = [{**GENERIC_JOB, "options": {"index_mode": 5}},
                  {**GENERIC_JOB, "options": {"index_mode": "bogus"}}]


def assert_names_the_key(case, err):
    for key, missing in MISSING_FIELD.items():
        if missing is case:
            assert err == f"cherloc: missing field {key!r}\n"
    for key, foreign in FOREIGN_KEY.items():
        if foreign is case:
            assert err == f"cherloc: {case['command']} takes no job field {key!r}\n"
    for (what, key), nested in NESTED_KEY.items():
        if nested is case:
            assert err == f"cherloc: {what} takes no field {key!r}\n"
    if any(bad is case for bad in BAD_INDEX_MODE):
        assert err.startswith("cherloc: job field 'index_mode' must be ")


@pytest.mark.parametrize(
    "job",
    [
        # not a JSON object
        [{"command": "order", "ell": 1, "n": 2}],
        # no n
        {"command": "order", "ell": 1,
         "params": {"ell": 1, "kappa": "1/2", "h": [{"a": "0/1"}]}},
        # n of the wrong type
        {"command": "enumerate", "ell": 1, "n": "3"},
        {"command": "enumerate", "ell": 1, "n": 1, "options": 5},
        {"command": "common-refinement", "inputs": [1]},
        {"command": "common-refinement", "inputs": ["only-one.json"]},
        {"command": "generic", "ell": 1, "n": 1, "theta": 5},
        {"command": "localize", "n": 2, "options": {"retry_bound": -5},
         "params": {"ell": 1, "kappa": "1/2", "h": [{"a": "0/1"}]}},
        MISSING_FIELD["ell"],
        MISSING_FIELD["kappa"],
        MISSING_FIELD["a"],
        {"command": "localize", "n": 2, "options": {"oracle_bound": -1},
         "params": {"ell": 1, "kappa": "1/2", "h": [{"a": "0/1"}]}},
        # a top-level ell that disagrees with params or theta
        {"command": "order", "ell": 3, "n": 2,
         "params": {"ell": 1, "kappa": "1/2", "h": [{"a": "0"}]}},
        {"command": "generic", "ell": 3, "n": 2,
         "theta": {"kappa": "1/2", "theta": [{"a": "1"}, {"a": "2"}]}},
        # a params ell that is not an int
        {"command": "theta", "params": {"ell": True, "kappa": "1/2", "h": [{"a": "0"}]}},
        {"command": "theta", "params": {"ell": 1.0, "kappa": "1/2", "h": [{"a": "0"}]}},
        # -Infinity is not JSON
        {"command": "localize", "n": 2, "options": {"oracle_bound": float("-inf")},
         "params": {"ell": 1, "kappa": "1/2", "h": [{"a": "0/1"}]}},
        *FOREIGN_KEY.values(),
        *NESTED_KEY.values(),
        # nesting deeper than json.load recurses, written out as text
        pytest.param('{"command": "theta", "params": ' + "[" * 100000 + "]" * 100000 + "}",
                     id="params-nested-100000-deep"),
        *BAD_INDEX_MODE,
    ],
)
def test_malformed_job_file_exits_2_with_one_line(capsys, tmp_path, job):
    jobfile = tmp_path / "job.json"
    jobfile.write_text(job if isinstance(job, str) else json.dumps(job))
    code, out, err = run_cli(capsys, "job", str(jobfile))
    assert code == 2
    assert out == ""
    assert err.startswith("cherloc: ") and err.count("\n") == 1
    assert_names_the_key(job, err)


@pytest.mark.parametrize(
    "job",
    [
        {"command": "order", "n": 3,
         "params": {"ell": 5, "kappa": "1/2", "h": [{"a": "0/1"}] * 5}},
        {"command": "generic", "n": 2,
         "theta": {"theta": [{"a": "1/1"}] * 5, "kappa": "1/2"}},
    ],
)
def test_size_guard_reads_ell_from_params_and_theta(capsys, tmp_path, job):
    jobfile = tmp_path / "job.json"
    jobfile.write_text(json.dumps(job))
    code, out, err = run_cli(capsys, "job", str(jobfile))
    assert code == 2
    assert out == ""
    assert "size guard" in err


GUARD_ELL = "cherloc: ell > 4 refused by the size guard\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("order", "--ell", "100000", "--n", "1", "--kappa", "1/2"),
        # oversized and malformed (--h too short): the guard speaks first
        ("order", "--ell", "5", "--n", "1", "--kappa", "1/2", "--h", "0"),
        ("order", "--ell", "5", "--n", "1", "--kappa", "junk"),
        ("job", "big.json"),
    ],
)
def test_size_guard_runs_before_any_scalar_is_parsed(capsys, tmp_path, monkeypatch, argv):
    def refuse(self, *args):
        raise AssertionError("a scalar was built before the size guard ran")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "big.json").write_text(json.dumps({
        "command": "order", "n": 1,
        "params": {"ell": 100000, "kappa": "1/2", "h": [{"a": "0/1"}] * 100000},
    }))
    monkeypatch.setattr(Params, "__init__", refuse)
    monkeypatch.setattr(ParamScalar, "__post_init__", refuse)
    assert run_cli(capsys, *argv) == (2, "", GUARD_ELL)


# SHA-256 of the stdout of `cherloc --help` ("") and `cherloc <command> --help`
# at 80 columns, recorded from the parser that gave every subcommand all of
# its arguments.  Python 3.13 wraps the top-level usage line differently.
HELP_SHA256 = {
    "": "bd33dc9a1eb09f19353e7046f711be73f4c1f06836779f8d077922c881bc4c3c"
    if sys.version_info >= (3, 13)
    else "b38e6a84b93597437e56e78d5bfe5d0dcabc6cccd7d40045e5c4954099064c01",
    "enumerate": "ed08aa25a7ebd0e90c272c09d2b26cd5574b1fc6d6a8ef4a0c94111e717560ec",
    "order": "e8a105a490e2f5a794a7fb043515c0a7ff7f4a74cd955fd9da6e02f4bdf1e6d7",
    "spherical": "9d3f6aee6e4cd43bbc1d5ea51790ec7e490f1f3c25939f47bf408d65734ecd3d",
    "generic": "4f48f7596f7e3861565374dca17f9abb41123801f9dca24dc9f970cd889d8771",
    "theta": "f23c69d380867ea698bfe345b7063676cb06259afb8d39a0b94ebc0f25165e55",
    "localize": "c0da5c55cc90f76c033b7eb605007c9b9d8d5f14ff01ee6812f5ca0447c4adc7",
    "common-refinement": "a4e6429d1a8b262cd021d586e59c12cc144aa77753b520072d8f1bc9b0033bae",
    "job": "37f214b3f90eb34ea4e602d764c7ea7b3003eab0e1ccc7f3b471b2643a8d1308",
}


@pytest.mark.parametrize("command", HELP_SHA256)
def test_help_texts_are_pinned(capsys, monkeypatch, command):
    # The parser adds arguments only to the subcommand that argv names, so
    # each help text must still come out byte for byte as before.
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *filter(None, [command, "--help"]))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]


def test_job_rejects_unknown_command(capsys, tmp_path):
    jobfile = tmp_path / "job.json"
    jobfile.write_text(canonical_dumps({"command": "explode"}))
    code, _, err = run_cli(capsys, "job", str(jobfile))
    assert code == 2
    assert "unknown command" in err


def test_h_defaults_to_zero_vector(capsys):
    code, out, _ = run_cli(capsys, "order", "--ell", "2", "--n", "1", "--kappa", "1/2")
    assert code == 0
    assert json.loads(out)["matrix"] == [[1, 0], [0, 1]]


def nested(depth):
    """An empty list inside depth - 1 more lists."""
    label = []
    for _ in range(depth - 1):
        label = [label]
    return label


def test_a_deeply_nested_label_within_the_recursion_limit_is_read(capsys, tmp_path):
    relation = {"labels": [nested(450)], "matrix": [[1]]}
    path = tmp_path / "relation.json"
    path.write_text(json.dumps(relation))
    code, out, err = run_cli(capsys, "common-refinement", str(path), str(path))
    assert (code, err) == (0, "")
    assert json.loads(out) == relation


@pytest.mark.parametrize(
    "relation",
    [
        {"labels": [[[1]]], "matrix": 5},
        {"labels": [[[1]]], "matrix": [5]},
        {"labels": 5, "matrix": [[1]]},
        [1],
        {"labels": [1, 2], "matrix": [[1, "0"], [0, 1]]},
        {"labels": [1, 2], "matrix": [[1, 2], [0, 1]]},
        {"labels": [1, 1], "matrix": [[1, 0], [0, 1]]},
        MISSING_FIELD["matrix"],
        # entries that bytes() refuses or packs to something other than 0 or 1
        {"labels": [1, 2], "matrix": [[1, 1.0], [0, 1]]},
        {"labels": [1, 2], "matrix": [[1, None], [0, 1]]},
        {"labels": [1, 2], "matrix": [[1, [1]], [0, 1]]},
        {"labels": [1, 2], "matrix": [[1, -1], [0, 1]]},
        {"labels": [1, 2], "matrix": [[1, 256], [0, 1]]},
        # a ragged row
        {"labels": [1, 2], "matrix": [[1, 0], [0]]},
        # NaN and Infinity are not JSON
        {"labels": [float("inf"), 1], "matrix": [[1, 0], [0, 1]]},
        {"labels": [float("nan"), float("nan")], "matrix": [[1, 0], [0, 1]]},
        # a label nested deeper than reading it recurses
        {"labels": [nested(600)], "matrix": [[1]]},
    ],
)
def test_malformed_relation_file_exits_2_with_one_line(capsys, tmp_path, relation):
    path = tmp_path / "relation.json"
    path.write_text(json.dumps(relation))
    code, out, err = run_cli(capsys, "common-refinement", str(path), str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("cherloc: ") and err.count("\n") == 1
    assert_names_the_key(relation, err)


@pytest.mark.parametrize("label", ["1e400", "-1e400", "[2, 1e400]"])
@pytest.mark.parametrize("order_layout", [False, True])
def test_a_label_that_reads_as_infinity_exits_2(capsys, tmp_path, label, order_layout):
    # 1e400 is JSON, but it reads as inf, which no artifact can write back.
    relation = {"labels": ["LABEL", 2], "matrix": [[1, 0], [0, 1]]}
    text = json.dumps(relation, **({"indent": 2, "sort_keys": True} if order_layout else {}))
    path, out_path = tmp_path / "relation.json", tmp_path / "refined.json"
    path.write_text(text.replace('"LABEL"', label) + "\n")
    argv = ["common-refinement", str(path), str(path), "--out", str(out_path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "cherloc: a relation label cannot be infinite\n")
    assert not out_path.exists()


@pytest.mark.parametrize("other", [[True, 2], [1.0, 2]])
def test_relation_files_over_different_json_labels_exit_2(capsys, tmp_path, other):
    paths = []
    for name, labels in (("first", [1, 2]), ("second", other)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"labels": labels, "matrix": [[1, 0], [0, 1]]}))
    code, out, err = run_cli(capsys, "common-refinement", *map(str, paths))
    assert (code, out) == (2, "")
    assert err == "cherloc: relations are over different label tuples\n"


@pytest.mark.parametrize("labels", [[1, True], [1, 1.0]])
def test_labels_equal_only_in_python_are_distinct(capsys, tmp_path, labels):
    relation = {"labels": labels, "matrix": [[1, 0], [0, 1]]}
    path = tmp_path / "relation.json"
    path.write_text(json.dumps(relation))
    code, out, err = run_cli(capsys, "common-refinement", str(path), str(path))
    assert (code, err) == (0, "")
    assert out == json.dumps(relation, indent=2, sort_keys=True) + "\n"


def test_true_and_false_entries_read_as_1_and_0(capsys, tmp_path):
    bits = [[1, 0, 1], [0, 1, 1], [0, 0, 1]]
    outputs = []
    for name, matrix in (("ints", bits), ("bools", [[v == 1 for v in row] for row in bits])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"labels": ["a", "b", "c"], "matrix": matrix}))
        code, out, err = run_cli(capsys, "common-refinement", str(path), str(path))
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["matrix"] == bits


def chain_pair(ell: int, n: int, cycle: bool) -> tuple[Relation, Relation]:
    """Two total orders on the ell-multipartitions of n, in one shuffled ranking;
    with cycle, the second swaps two neighbours of the first, which plants a
    2-cycle in their union."""
    labels = tuple(mp.parts for mp in enumerate_multipartitions(ell, n))
    ranked = list(range(len(labels)))
    random.Random(ell * 100 + n).shuffle(ranked)
    orders = [ranked, ranked[:]]
    if cycle:
        orders[1][5], orders[1][6] = orders[1][6], orders[1][5]
    relations = []
    for order in orders:
        rows, above = [0] * len(labels), 0
        for label in reversed(order):
            above |= 1 << label
            rows[label] = above
        relations.append(Relation(labels, rows))
    return relations[0], relations[1]


def write_relation(path, rel: Relation) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        rel.dump(handle)


def peak_bytes(argv: list[str], stdout) -> tuple[int, int]:
    """The exit code of main(argv), writing stdout to the given file, and the
    peak of the memory tracemalloc traces while it runs."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cycle", [False, True])
def test_common_refinement_holds_less_than_one_relation_file(tmp_path, cycle):
    # Rows are read, refined and written one at a time; the whole text is never held.
    first, second = chain_pair(4, 6, cycle)
    assert first.size == 574
    paths = [str(tmp_path / "first.json"), str(tmp_path / "second.json")]
    for path, rel in zip(paths, (first, second)):
        write_relation(path, rel)
    with open(tmp_path / "out.json", "w", encoding="utf-8") as stdout:
        code, peak = peak_bytes(["common-refinement", *paths], stdout)
    assert code == (1 if cycle else 0)
    assert peak < os.path.getsize(paths[0])
    if not cycle:
        assert (tmp_path / "out.json").read_text(encoding="utf-8") == canonical_dumps(first)


def test_order_holds_less_than_the_artifact_it_writes(tmp_path):
    out = str(tmp_path / "order.json")
    with open(tmp_path / "stdout.txt", "w", encoding="utf-8") as stdout:
        code, peak = peak_bytes(["order", "--ell", "4", "--n", "6", "--kappa", "1/2",
                                 "--out", out], stdout)
    assert code == 0
    assert peak < os.path.getsize(out)


def test_a_bad_byte_is_reported_at_its_offset_in_the_file(capsys, tmp_path):
    # The row reader decodes in chunks; the message still names the file offset.
    data = bytearray(canonical_dumps(chain_pair(4, 5, False)[0]).encode())
    assert len(data) > 200000
    data[200000] = 0xFF
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as err:
        bytes(data).decode("utf-8")
    assert "position 200000" in str(err.value)
    code, out, stderr = run_cli(capsys, "common-refinement", str(path), str(path))
    assert (code, out, stderr) == (2, "", f"cherloc: {err.value}\n")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("cycle", [False, True])
@pytest.mark.parametrize("layout", ["order", "crlf", "compact"])
def test_a_relation_read_from_a_pipe_reads_as_from_a_file(capsys, tmp_path, cycle, layout):
    first, second = chain_pair(4, 5, cycle)
    path, other = tmp_path / "first.json", str(tmp_path / "second.json")
    text = canonical_dumps(first)
    path.write_bytes((text.replace("\n", "\r\n") if layout == "crlf" else text).encode())
    (tmp_path / "second.json").write_text(canonical_dumps(second), encoding="utf-8")
    if layout == "compact":
        subprocess.run([sys.executable, "-m", "json.tool", "--compact", str(path), str(path)],
                       check=True)
    data = path.read_bytes()
    assert len(data) > 1 << 16  # more than a pipe buffer holds
    expected = run_cli(capsys, "common-refinement", str(path), other)
    read, write = os.pipe()

    def feed():
        with contextlib.suppress(BrokenPipeError), open(write, "wb") as sink:
            sink.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        piped = run_cli(capsys, "common-refinement", f"/dev/fd/{read}", other)
    finally:
        os.close(read)
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert piped[:2] == expected[:2]
    assert expected[0] == (1 if cycle else 0)


# Every label a relation file may hold: ints, finite floats, true, false and
# null, strings with quotes, backslashes and non-ASCII text, and nested lists
# (tuples once read).
RELATION_LABELS = st.recursive(
    st.integers(-10**20, 10**20) | st.floats(allow_nan=False, allow_infinity=False)
    | st.booleans() | st.none() | st.text(alphabet=st.sampled_from('ab"\\/\n\té☃\U0001f600')),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_relation_writer_equals_the_generic_encoder(data):
    size = data.draw(st.sampled_from([0, 1, 2, 3]) | st.integers(0, 40))
    labels = data.draw(st.lists(RELATION_LABELS, min_size=size, max_size=size, unique=True))
    rows = data.draw(st.lists(st.integers(0, 2**size - 1), min_size=size, max_size=size))
    rel = Relation(tuple(labels), rows)
    reference = to_json_per_entry(rel.labels, rel.matrix)
    written = io.StringIO()
    rel.dump(written)
    assert canonical_dumps(rel) == written.getvalue()
    assert canonical_dumps(rel) == json.dumps(reference, indent=2, sort_keys=True) + "\n"
    assert rel.to_json() == json.loads(canonical_dumps(rel)) == reference
    assert Relation.load(io.StringIO(canonical_dumps(rel))) == rel


def test_the_writers_refuse_a_non_finite_float():
    # NaN and Infinity are not JSON.  Each writer encodes before it writes,
    # so a refused artifact leaves the handle empty.
    rel = Relation((float("inf"), float("nan")), [1, 2])
    writes = [rel.dump, lambda handle: canonical_dumps({"x": float("nan")}, handle)]
    for write in writes:
        handle = io.StringIO()
        # Python 3.11 and later append ": inf" or ": nan" to the message.
        with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
            write(handle)
        assert handle.getvalue() == ""


# Fuzz of main.  Each input is well formed (ell <= 3, n <= 4) except for at
# most one field, which is replaced by a malformed value or dropped.
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.sampled_from(["", "x", "1/2", "ab"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "b", "ell", "kappa", "h"]), inner, max_size=3),
    max_leaves=6,
)
BAD_TEXT = st.sampled_from(["", "x", "-1", "0", "1.5", "1/0", "k", "0.5", "1/2,", "5"])
KAPPAS = st.sampled_from(["formal", "0", "1", "-1", "1/2", "-2/3", "3/2"])
COMMANDS = ["enumerate", "order", "spherical", "generic", "theta", "localize"]
# command -> its flags; ell and n are always present, the rest optional
FLAGS = {
    "enumerate": ["ell", "n"],
    "order": ["ell", "n", "kappa", "h"],
    "spherical": ["ell", "n", "kappa", "h"],
    "generic": ["ell", "n", "kappa", "theta", "index-mode"],
    "theta": ["ell", "kappa", "h"],
    "localize": ["ell", "n", "kappa", "h", "index-mode", "retry-bound"],
}


def _scalar_text(a, b, formal):
    return f"{a}{b:+}k" if formal and b else str(a)


@st.composite
def well_formed_fields(draw, command):
    """Valid values of every field of one command, as strings."""
    ell = draw(st.integers(1, 3))
    kappa = draw(KAPPAS)
    small = st.fractions(min_value=-1, max_value=1, max_denominator=4)
    vectors = st.lists(st.tuples(small, st.sampled_from([0, 1, -1])), min_size=ell, max_size=ell)
    values = {
        "ell": ell,
        "n": draw(st.integers(0, 4)),
        "kappa": kappa,
        "h": [_scalar_text(a, b, kappa == "formal") for a, b in draw(vectors)],
        "theta": [_scalar_text(a, b, kappa == "formal") for a, b in draw(vectors)],
        "index-mode": draw(st.sampled_from(["literal", "include-zero"])),
        "retry-bound": draw(st.integers(0, 3)),
    }
    return {name: values[name] for name in FLAGS[command]}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(COMMANDS))
    fields = draw(well_formed_fields(command))
    broken = draw(st.sampled_from([None, *fields]))
    argv = [command]
    for name, value in fields.items():
        if name == broken:
            if draw(st.booleans()):
                continue
            value = draw(BAD_TEXT)
        elif isinstance(value, list):
            value = ",".join(value)
        argv.append(f"--{name}={value}")
    return argv


@st.composite
def job_files(draw):
    """A job holding only its command's keys, well formed except for at most
    one breakage: a key dropped, a value replaced by junk, or one key added
    that the command, its params, its theta or a scalar does not take; and
    whether that key was added."""
    command = draw(st.sampled_from(COMMANDS))
    fields = draw(well_formed_fields(command))
    mode = fields.get("kappa", "1/2")
    job = {"command": command, "ell": fields["ell"]}
    if "n" in fields:
        job["n"] = fields["n"]
    scalars = [{"a": str(draw(st.fractions(-1, 1, max_denominator=4)))}
               for _ in range(fields["ell"])]
    if "h" in fields:
        job["params"] = {"ell": fields["ell"], "kappa": mode, "h": scalars}
    if "theta" in fields:
        job["theta"] = {"kappa": mode, "theta": scalars}
    options = {"index_mode": fields["index-mode"]} if "index-mode" in fields else {}
    if command == "localize":
        options.update(retry_bound=fields["retry-bound"], oracle_bound=2)
    job["options"] = options
    target = draw(st.sampled_from([None, "job", "params", "theta", "options", "foreign"]))
    if target == "foreign":
        foreign = [(job, "nn"), (job, "inputs"), (options, "retry_bund"), (options, "ell")]
        foreign += [(job, "n")] * (command == "theta") + [(options, "dot")] * (command != "order")
        foreign += [(job, "params")] * ("h" not in fields)
        foreign += [(job[name], "ell" if name == "theta" else "hh")
                    for name in ("params", "theta") if name in job]
        foreign += [(scalars[0], "bb")] * ("h" in fields or "theta" in fields)
        where, key = draw(st.sampled_from(foreign))
        where[key] = draw(JUNK)
        return job, True
    where = {"job": job, "options": options}.get(target, job.get(target))
    if isinstance(where, dict) and where:
        key = draw(st.sampled_from(sorted(where)))
        if draw(st.booleans()):
            del where[key]
        else:
            where[key] = draw(JUNK)
    return job, False


def _assert_exit_contract(code, out, err, wrote_file=False):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("cherloc: ") and err.count("\n") == 1
    if code == 1:
        assert out or wrote_file


def _main_in(directory, argv):
    """Run main inside directory; returns the exit code, stdout, stderr and
    whether main wrote a file there."""
    before = set(os.listdir(directory))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    written = set(os.listdir(directory)) != before
    return code, out.getvalue(), err.getvalue(), written


@settings(max_examples=200, deadline=None)
@given(argv=command_lines())
def test_fuzzed_command_lines_keep_the_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    _assert_exit_contract(code, out.getvalue(), err.getvalue())


@settings(max_examples=200, deadline=None)
@given(case=job_files())
def test_fuzzed_job_files_keep_the_exit_contract(case, tmp_path_factory):
    job, foreign = case
    tmp = tmp_path_factory.mktemp("job")
    (tmp / "job.json").write_text(json.dumps(job))
    code, out, err, written = _main_in(tmp, ["job", "job.json"])
    _assert_exit_contract(code, out, err, written)
    assert code == 2 or not foreign


def _scalar_json(text, formal):
    """The JSON object of a scalar _scalar_text wrote: {"a", "b"} when formal."""
    a, b = re.fullmatch(r"(.+?)(?:([+-]1)k)?", text).groups()
    return {"a": a, "b": b or "0"} if formal else {"a": a}


@st.composite
def command_lines_and_job_files(draw):
    """A well-formed command line and the job file that says the same."""
    command = draw(st.sampled_from(COMMANDS))
    fields = draw(well_formed_fields(command))
    argv = [command]
    job = {"command": command, "options": {}}
    for name, value in fields.items():
        argv.append(f"--{name}={','.join(value) if isinstance(value, list) else value}")
        if name in ("h", "theta"):
            scalars = [_scalar_json(text, fields["kappa"] == "formal") for text in value]
            job[{"h": "params"}.get(name, name)] = {"kappa": fields["kappa"], name: scalars}
            if name == "h":  # a theta object holds no ell
                job["params"]["ell"] = fields["ell"]
        elif name in ("ell", "n"):
            job[name] = value
        elif name != "kappa":
            job["options"][name.replace("-", "_")] = value
    return argv, job


@settings(max_examples=200, deadline=None)
@given(case=command_lines_and_job_files())
def test_a_job_file_gives_what_its_command_line_gives(case, tmp_path_factory):
    argv, job = case
    tmp = tmp_path_factory.mktemp("same")
    (tmp / "job.json").write_text(json.dumps(job))
    from_flags = _main_in(tmp, argv)
    from_file = _main_in(tmp, ["job", "job.json"])
    assert from_file[:2] == from_flags[:2]


@st.composite
def relation_pairs(draw):
    """Two relation files over one label list, or either of them junk."""
    labels = draw(st.lists(JUNK, max_size=4, unique_by=json.dumps))
    k = len(labels)
    rows = st.lists(st.lists(st.sampled_from([0, 1]), min_size=k, max_size=k),
                    min_size=k, max_size=k)
    relation = st.builds(lambda matrix: {"labels": labels, "matrix": matrix}, rows)
    return [draw(relation | JUNK) for _ in range(2)]


@settings(max_examples=200, deadline=None)
@given(relations=relation_pairs())
def test_fuzzed_relation_files_keep_the_exit_contract(relations, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("relations")
    for idx, relation in enumerate(relations):
        (tmp / f"r{idx}.json").write_text(json.dumps(relation))
    code, out, err, written = _main_in(tmp, ["common-refinement", "r0.json", "r1.json"])
    _assert_exit_contract(code, out, err, written)

