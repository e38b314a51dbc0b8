"""The README's library example and CLI block run as written and compute the
values their comments state."""

import json
import re
import shlex
from pathlib import Path

import pytest

from procmat.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()


def python_block() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_library_example_runs_and_matches_its_comments():
    block = python_block()
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    h_ab = float(re.search(r"# H_AB = ([0-9.]+) bits", block).group(1))
    p_succ = float(re.search(r"# ([0-9.]+) > 1/2: violation", block).group(1))
    assert (h_ab, p_succ) == (1.845653, 0.533471)
    assert namespace["report"].h_ab == pytest.approx(h_ab, abs=5e-7)
    assert namespace["score"] == pytest.approx(p_succ, abs=5e-7)
    # the quick configuration its comment names, not the 100-restart default
    result = namespace["result"]
    assert len(result.records) == 3
    assert result.best_value < namespace["report"].h_ab


def cli_block() -> list[tuple[list[str], str]]:
    """(argv after ``procmat``, comment) of each command of the CLI block."""
    blocks = re.findall(r"```\n(procmat .*?)```", README, flags=re.S)
    assert len(blocks) == 1
    commands = []
    for line in filter(None, blocks[0].splitlines()):
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "procmat"
        commands.append((argv[1:], comment.strip()))
    return commands


#: criterion 3 of tests/test_acceptance.py runs this command and checks its
#: result, so it is not run a second time here
SEPARABLE_RUN = ["optimize", "sep", "--restarts", "100", "--jobs", "2"]
#: the one command of the block that exits 1 (a validation failure)
INVALID_RUN = ["validate", "feix", "--q", "0.5", "--eps", "10"]


def test_cli_example_runs_and_matches_its_comments(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PROCMAT_OUT_DIR", str(tmp_path))
    (tmp_path / "W.json").write_text(json.dumps({"IIII": 0.25}))
    commands = cli_block()
    assert [argv for argv, _ in commands].count(SEPARABLE_RUN) == 1
    checked = set()
    for argv, comment in commands:
        if argv == SEPARABLE_RUN:
            continue
        code = main(argv)
        out = capsys.readouterr().out
        assert code == (1 if argv == INVALID_RUN else 0), argv
        if argv == INVALID_RUN:
            assert "PSD failure" in comment
            assert "FAIL  positive semidefinite" in out
            checked.add("invalid")
        if "p_succ" in comment:
            p_succ = re.search(r"p_succ = ([0-9.]+), VIOLATION", comment).group(1)
            assert p_succ == "0.533471"
            assert f"p_succ = {p_succ}" in out and "VIOLATION" in out
            checked.add("game")
        if "Feix maximum" in comment:
            stated = float(re.search(r"\(~([0-9.]+)\)", comment).group(1))
            best = float(re.search(r"over feix family = ([0-9.]+) bits", out).group(1))
            assert stated == 1.68
            assert best == pytest.approx(stated, abs=0.01)
            checked.add("feix")
    assert len(commands) == 8
    assert checked == {"invalid", "game", "feix"}
