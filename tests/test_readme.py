"""The README's examples, run as written."""

import json
import re
import shlex
from pathlib import Path

import test_golden
from cherloc.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def commands():
    """[argv, printed lines] for each `cherloc ...` line of the sh blocks, in
    order; the printed lines are those that follow it up to a blank line or
    a comment."""
    found = []
    for block in blocks("sh"):
        current = None
        for line in block.splitlines():
            if line.startswith("cherloc "):
                current = [shlex.split(line)[1:], []]
                found.append(current)
            elif not line.strip() or line.startswith("#"):
                current = None
            elif current is not None:
                current[1].append(line)
    return found


def test_readme_commands_exit_and_print_as_documented(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "job.json").write_text(blocks("json")[0], encoding="utf-8")
    runs = commands()
    assert len(runs) == 10
    assert sum(bool(printed) for _, printed in runs) == 2
    for argv, printed in runs:
        # spherical's example is a negative decision
        assert main(argv) == (1 if argv[0] == "spherical" else 0), argv
        out = capsys.readouterr().out
        if printed:
            assert json.loads(out) == json.loads("\n".join(printed)), argv


def test_readme_library_example_runs():
    (example,) = blocks("python")
    exec(compile(example, "README.md", "exec"), {})


def test_readme_states_the_golden_count():
    (count,) = re.findall(r"pins the SHA-256 of (\d+) CLI runs", README)
    assert int(count) == len(test_golden.CASES)
