"""Every Python file of the project parses as Python 3.10, the oldest
version it supports (``requires-python`` in pyproject.toml), so syntax
such as ``except*`` or a PEP 695 generic fails here on a newer
interpreter too. Names that only a newer standard library has are not
caught: the CI job on 3.10 runs for those. The files are only read."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for folder in ("src", "tests", "scripts", "bench")
                 for p in (ROOT / folder).rglob("*.py"))


def test_the_sources_are_found():
    assert len(SOURCES) > 20
    assert ROOT / "src" / "critflow" / "points.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
