"""The runtime of nalg is stdlib-only: every absolute import in
``src/nalg/*.py`` names a module of the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "nalg").glob("*.py"))


def absolute_imports(path):
    """(line, top-level module name) of every absolute import in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_sources_are_found():
    assert Path(SOURCES[0]).name == "__init__.py" and len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library(path):
    outside = [
        "%s:%d imports %s" % (path.name, line, name)
        for line, name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    ]
    assert not outside
