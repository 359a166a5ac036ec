"""The package has no runtime dependencies: every absolute import in it names
a standard-library module or ``chartloop`` itself.  Every name it exports
resolves."""

import ast
import sys
from pathlib import Path

import chartloop

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chartloop"


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {m}" for m in modules
                        if m.split(".")[0] not in sys.stdlib_module_names | {"chartloop"}]
    assert foreign == []


def test_every_exported_name_resolves():
    missing = [name for name in chartloop.__all__ if not hasattr(chartloop, name)]
    assert chartloop.__all__ and missing == []
