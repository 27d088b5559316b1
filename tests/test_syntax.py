"""Every source file parses under the oldest supported Python grammar.

The package declares requires-python >= 3.10; this catches newer syntax even
where only a later interpreter is installed.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def test_files_are_found():
    assert any(p.name == "polylog.py" for p in FILES)
    assert any(p.parent.name == "perfbench" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_with_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
