"""The README's library example runs as written and computes the values its
comments state."""

import re
from pathlib import Path

import pytest

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
