"""No module of the package reaches into another module's private names.

A name that starts with an underscore belongs to its module.  The scan reads
src/trapdoor/*.py with ast and flags ``from .mod import _name`` (and the
absolute ``from trapdoor.mod import _name``) and ``mod._name`` where ``mod``
was bound by ``from . import mod`` or ``import trapdoor.mod as mod``.  Dunder
names are not private.  A name that must be shared gets a public name in the
module that owns it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(package: dict[str, str]) -> list[str]:
    """"module: name" for each private name that a module of the package
    (module name -> source) takes from another of its modules."""
    found = []
    for module, text in package.items():
        tree = ast.parse(text)
        modules = set()  # local names bound to modules of the package
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                inside = node.level > 0 or (node.module or "").split(".")[0] == "trapdoor"
                if not inside:
                    continue
                from_package = node.level > 0 and not node.module or node.module == "trapdoor"
                for alias in node.names:
                    if from_package:
                        modules.add(alias.asname or alias.name)
                    if _private(alias.name):
                        found.append(f"{module}: {alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("trapdoor.") and alias.asname:
                        modules.add(alias.asname)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and _private(node.attr)
            ):
                found.append(f"{module}: {node.value.id}.{node.attr}")
    return found


def test_no_module_imports_another_modules_private_name():
    package = {p.stem: p.read_text(encoding="utf-8") for p in sorted((ROOT / "src" / "trapdoor").glob("*.py"))}
    assert package, "no package sources found"
    assert private_imports(package) == []


def test_the_scan_sees_each_form_of_private_import():
    package = {
        "a": "from .b import _hidden, shown\nfrom .b import public as _alias\n",
        "b": "from . import c\nimport trapdoor.d as d\n\ndef f():\n    return c._inner + d._deep + c.fine\n",
        "c": "from __future__ import annotations\nfrom trapdoor.e import _absolute\n",
        "d": "from . import c as _c_alias\nimport os\n\nx = os._exit\ny = __name__\n",
        "e": "from .f import __version__\n",
    }
    assert private_imports(package) == ["a: _hidden", "b: c._inner", "b: d._deep", "c: _absolute"]
