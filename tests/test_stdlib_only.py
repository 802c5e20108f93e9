"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "globflow").glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_sources_import_only_the_standard_library():
    assert SOURCES
    allowed = sys.stdlib_module_names | {"globflow"}
    outside = {
        f"{path.name}: {module}"
        for path in SOURCES
        for module in _absolute_imports(path)
        if module not in allowed
    }
    assert not outside, sorted(outside)
