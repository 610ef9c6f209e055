"""Every public function in the package has a caller outside the tests.

A helper whose only callers are tests belongs in tests/oracles.py.  A public
module-level function of src/trapdoor counts as used when its name appears
elsewhere in src/trapdoor or in perfbench/ as a name, an attribute, an
imported name or a string (perfbench wraps functions by name).  Its own def
and the re-export in trapdoor/__init__.py do not count.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names(tree, imports=True) -> Counter:
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias) and imports:
            out[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def unreferenced(package: dict[str, str], others: dict[str, str]) -> list[str]:
    """module.function for each public module-level function of the package
    (module name -> source) that nothing in the package or the others uses."""
    trees = {name: ast.parse(text) for name, text in package.items()}
    used = Counter()
    for text in others.values():
        used += _names(ast.parse(text))
    for name, tree in trees.items():
        used += _names(tree, imports=name != "__init__")
    # a use inside the function's own body does not count
    return [
        f"{module}.{d.name}"
        for module, tree in trees.items()
        for d in tree.body
        if isinstance(d, ast.FunctionDef)
        and not d.name.startswith("_")
        and used[d.name] <= _names(d)[d.name]
    ]


def _sources(directory: Path) -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(directory.glob("*.py"))}


def test_every_public_function_has_a_caller_outside_the_tests():
    package = _sources(ROOT / "src" / "trapdoor")
    assert package, "no package sources found"
    assert unreferenced(package, _sources(ROOT / "perfbench")) == []


def test_the_scan_sees_what_counts_as_a_reference():
    package = {
        "__init__": "from .a import helper, used, wrapped, recursive\n",
        "a": (
            "def helper():\n    return helper()\n\n"  # only itself and the re-export
            "def used():\n    pass\n\n"
            "def wrapped():\n    pass\n\n"
            "def recursive():\n    return recursive()\n\n"
            "def _private():\n    pass\n"
        ),
        "b": "from . import a\n\ndef caller():\n    return a.used()\n",
    }
    others = {"bench": "LAYERS = [('a', 'wrapped')]\nfrom trapdoor.a import recursive\n"}
    assert unreferenced(package, others) == ["a.helper", "b.caller"]
