"""README's library example runs as written, so an API change that leaves it
stale fails here."""

from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_quick_start_runs():
    namespace = {}
    exec(compile(_quick_start(), str(README), "exec"), namespace)
    # the value its comment states
    assert namespace["lz_probability"](namespace["drive"]) == pytest.approx(0.9067, abs=5e-5)
