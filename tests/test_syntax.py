"""Every Python file under ``src/``, ``tests/`` and ``scripts/`` parses
under the oldest Python that ``pyproject.toml`` declares, so syntax newer
than that fails here and not only on an older interpreter."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = tuple(int(part) for part in re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups())
SOURCES = sorted(path for top in ("src", "tests", "scripts") for path in (ROOT / top).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_under_the_oldest_declared_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST)


def test_newer_syntax_is_refused():
    """The check bites: ``except*`` came in Python 3.11."""
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)
