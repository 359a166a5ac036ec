"""Every module-level function, class and constant of ``chartloop`` has a use.

A use is a reference from another statement: in the package (the CLI
included), in ``demos/`` or in ``perfbench/``.  A re-export in ``__init__``
and an entry in ``__all__`` are not uses.  In ``perfbench/`` a string that
names the definition counts too, because its traced run patches functions by
name.  Dunder names such as ``__version__`` are read by Python and packaging
tools, not by statements, so they are exempt.  Names are matched by name
alone, whatever module a reference reaches them through.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _definitions(statement: ast.stmt) -> list[str]:
    """The names a module-level statement defines as a function, class or constant."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def _references(node: ast.AST, strings: bool) -> set[str]:
    """Names read in ``node``: loaded names and attributes, and with
    ``strings`` each part of a string constant that is a dotted name."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif (strings and isinstance(child, ast.Constant) and isinstance(child.value, str)
              and _DOTTED_NAME.fullmatch(child.value)):
            names.update(child.value.split("."))
    return names


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused_names(root: Path = ROOT) -> list[str]:
    """``module.name`` for each definition in ``root``'s package that nothing
    else references."""
    statements = [(path.stem, index, statement)
                  for path in sorted((root / "src" / "chartloop").glob("*.py"))
                  for index, statement in enumerate(_parse(path).body)]
    outside: set[str] = set()
    for folder, strings in (("demos", False), ("perfbench", True)):
        for path in sorted((root / folder).rglob("*.py")):
            outside |= _references(_parse(path), strings)
    used_by = {(module, index): _references(statement, strings=False)
               for module, index, statement in statements}
    unused = []
    for module, index, statement in statements:
        for name in _definitions(statement):
            if name.startswith("__") and name.endswith("__") or name in outside:
                continue
            if not any(name in names for key, names in used_by.items()
                       if key != (module, index)):
                unused.append(f"{module}.{name}")
    return sorted(unused)


def test_every_package_definition_has_a_use():
    assert unused_names() == []


def test_the_guard_counts_only_uses(tmp_path):
    """A re-export, an ``__all__`` entry, a self-reference and a string
    outside ``perfbench/`` are no uses; a perfbench string is one."""
    files = {
        "src/chartloop/__init__.py": 'from .mod import dead, patched\n'
                                     '__all__ = ["dead", "patched"]\n__version__ = "1"\n',
        "src/chartloop/mod.py": "def dead():\n    return dead\n\n\ndef patched():\n    pass\n\n\n"
                                "def helper():\n    pass\n\n\nLIMIT = helper()\n",
        "demos/demo.py": 'from chartloop import mod\nprint(mod.LIMIT, "dead")\n',
        "perfbench/run.py": 'patch(mod, "patched", "mod.patched")\n',
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert unused_names(tmp_path) == ["mod.dead"]
