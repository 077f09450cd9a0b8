"""The README's library example runs against the package as documented."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks(heading: str) -> list[str]:
    """The ```python blocks of one `## ` section of the README."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"## {heading}\n"):]
    end = section.find("\n## ", 1)
    return re.findall(r"```python\n(.*?)```", section if end < 0 else section[:end], re.S)


def test_library_entry_points_example_runs():
    (block,) = _python_blocks("Library entry points")
    ns: dict = {}
    exec(compile(block, f"{README}:Library entry points", "exec"), ns)
    # The values its comments state.
    assert ns["n"] == 25_907_459
    assert ns["lam"] == pytest.approx(0.91184, abs=1e-5)
    cal, tf, plan = ns["cal"], ns["tf"], ns["plan"]
    assert np.array_equal(tf.matched, cal.factor.matched) and tf.mismatch == cal.factor.mismatch
    assert plan.n == 48_839_430
    assert plan.lam_mix == pytest.approx(0.5826, abs=1e-4)
    assert ns["res"].passed is True
    assert ns["res"].log2_p == pytest.approx(124.0, abs=0.05)
    assert ns["adv"]["comparable"].ratio == pytest.approx(4.47, abs=0.01)
    assert ns["every"][3]["comparable"].ratio == pytest.approx(4.52, abs=0.01)
    assert ns["sizes"][1]["quantum"] == pytest.approx(78.90, abs=0.005)
