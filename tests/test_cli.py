import json

import pytest

from cherloc.cli import JobSpec, canonical_dumps, main

P2_OF_2 = [
    [[2], []],
    [[1, 1], []],
    [[1], [1]],
    [[], [2]],
    [[], [1, 1]],
]


def run_cli(capsys, *argv):
    code = main(list(argv))
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
    assert blob["plan"] == {"m": [0], "M": 3, "kappa_shift": None}
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
    code, _, _ = run_cli(
        capsys, "common-refinement", str(produced), str(produced), "--out", str(refined)
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


def test_jobspec_from_json_defaults():
    job = JobSpec.from_json({"command": "enumerate", "ell": 2, "n": 1})
    assert job.params is None
    assert job.oracle_bound == 6
    assert job.index_mode.value == "literal"


def test_size_guard_refuses_large_n(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--ell", "2", "--n", "9")
    assert code == 2
    assert out == ""
    assert "size guard" in err


def test_size_guard_raised_by_flag(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--ell", "2", "--n", "9", "--max-n", "9")
    assert code == 0
    assert json.loads(out)["n"] == 9


def test_size_guard_raised_by_env(capsys, monkeypatch):
    monkeypatch.setenv("CHERLOC_MAX_N", "9")
    code, _, _ = run_cli(capsys, "enumerate", "--ell", "2", "--n", "9")
    assert code == 0


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
    ],
)
def test_invalid_input_exits_2(capsys, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("cherloc: ") and err.count("\n") == 1


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
    ],
)
def test_malformed_job_file_exits_2_with_one_line(capsys, tmp_path, job):
    jobfile = tmp_path / "job.json"
    jobfile.write_text(json.dumps(job))
    code, out, err = run_cli(capsys, "job", str(jobfile))
    assert code == 2
    assert out == ""
    assert err.startswith("cherloc: ") and err.count("\n") == 1


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
