"""No module of the package may read another module's private names.

A ``_name`` is private to the module that defines it: a sibling module may
neither import it (``from .finitefield import _helper``) nor read it through
a module alias (``finitefield._helper`` after ``from . import finitefield``).
Private attributes of instances, such as ``ps._index()``, are not module
names and are out of scope.  Dunder names such as ``__version__`` are public.
"""
import ast
from pathlib import Path

import latslice

PACKAGE = Path(latslice.__file__).parent
SIBLINGS = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _own_package(node: ast.ImportFrom) -> bool:
    module = node.module or ""
    return node.level > 0 or module == "latslice" \
        or module.startswith("latslice.")


def private_reads(source: str) -> list[str]:
    """``line: name`` for every sibling-private name ``source`` reads."""
    tree = ast.parse(source)
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _own_package(node):
            package_level = node.module in (None, "latslice")
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.lineno}: {alias.name}")
                elif package_level and alias.name in SIBLINGS:
                    aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_scanner_finds_both_forms():
    source = ("from . import finitefield, __version__\n"
              "from . import generators as gen\n"
              "from .acceptance import _battery, run_criterion\n"
              "finitefield._check(B)\n"
              "gen._band(1)\n"
              "ps._index()\n"
              "finitefield.ff_double_count(B)\n")
    assert private_reads(source) == ["3: _battery", "4: finitefield._check",
                                     "5: gen._band"]


def test_no_module_reads_a_sibling_private_name():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 1
    found = [f"{path.name}:{hit}" for path in sources
             for hit in private_reads(path.read_text(encoding="utf-8"))]
    assert found == []
