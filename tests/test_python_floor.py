"""The library keeps to the oldest Python that pyproject.toml and the
README promise (`requires-python`)."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                                 (ROOT / "pyproject.toml").read_text()).groups()))


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "nomhol").glob("*.py")),
                         ids=lambda p: p.name)
def test_the_library_parses_at_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=FLOOR)
