"""The package's surface: `__all__` lists only names that exist, and every
function, method and class in `src/potholesim` is used by the package."""

import ast
from pathlib import Path

import potholesim

SRC = Path(potholesim.__file__).resolve().parent

# definitions that nothing in the package references, each with its reason
ENTRY_POINTS = {
    "server.Server.query": "the server's query entry point, driven by perfbench/worker.py",
}


def unreferenced_definitions(src: Path) -> list[str]:
    """The dotted names (module.Class.method) of the functions, methods and
    classes in `src/*.py`, dunders aside, whose name no Name, attribute or
    import anywhere in `src` mentions outside the definition itself."""
    defs = []  # (dotted name, name, the definition node's id)
    refs = []  # (name, ids of the definitions the mention lies in)

    def visit(node, owners: frozenset, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((scope + child.name, child.name, id(child)))
                visit(child, owners | {id(child)}, f"{scope}{child.name}.")
                continue
            if isinstance(child, ast.Name):
                refs.append((child.id, owners))
            elif isinstance(child, ast.Attribute):
                refs.append((child.attr, owners))
            elif isinstance(child, ast.alias):
                refs.append((child.name, owners))
            visit(child, owners, scope)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset(), f"{path.stem}.")
    return [dotted for dotted, name, key in defs
            if not (name.startswith("__") and name.endswith("__"))
            and not any(ref == name and key not in owners for ref, owners in refs)]


def test_every_exported_name_imports():
    namespace: dict = {}
    exec("from potholesim import *", namespace)  # fails on a stale name
    exported = set(potholesim.__all__)
    assert len(exported) == len(potholesim.__all__), "duplicate names in __all__"
    assert exported <= namespace.keys()


def test_every_definition_is_used_by_the_package():
    assert sorted(unreferenced_definitions(SRC)) == sorted(ENTRY_POINTS)


def test_the_guard_flags_a_definition_only_it_uses(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Used:\n"
        "    def method(self):\n"
        "        return helper()\n"
        "    def recursive(self, n):\n"
        "        return self.recursive(n - 1) if n else 0\n"
        "def helper():\n"
        "    return Used\n"
        "def __getattr__(name):\n"
        "    return name\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("from .a import Used\nUsed().method()\n",
                                   encoding="utf-8")
    assert unreferenced_definitions(tmp_path) == ["a.Used.recursive"]
