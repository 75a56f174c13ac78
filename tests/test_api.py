"""The package's surface: `__all__` lists only names that exist, every
function, method and class in `src/potholesim` is used by the package,
every parameter default is one that some call in the package overrides,
and no module reads an underscore attribute that another module defines."""

import ast
from pathlib import Path

import potholesim

SRC = Path(potholesim.__file__).resolve().parent

# definitions that nothing in the package references, each with its reason
ENTRY_POINTS: dict[str, str] = {}


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


# parameters with a default that no call in the package sets, each with its reason
UNSET_DEFAULTS = {
    "cli.main.argv": "the console entry point's: it runs with sys.argv",
}


def unset_defaults(src: Path) -> list[str]:
    """The dotted names (module.Class.function.parameter) of the parameters
    with a default in `src/*.py` that no call in `src` sets, by position or
    by keyword.  A call is matched by the callee's name alone (`f(...)`,
    `x.f(...)`, or a class's name for its `__init__`), so a name two
    definitions share counts as a call of both.  A method's first parameter
    is bound by the attribute access, and a starred argument sets every
    parameter of its kind."""
    params = []  # (dotted name, callee names, position or None, parameter name)
    calls = []

    def visit(node, scope: str, in_class: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{scope}{child.name}.", child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if in_class and not static else 0
                names = {in_class if in_class and child.name == "__init__" else child.name}
                dotted = f"{scope}{child.name}."
                for k, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                        len(positional) - len(args.defaults)):
                    params.append((dotted + arg.arg, names, k - skip, arg.arg))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        params.append((dotted + arg.arg, names, None, arg.arg))
                visit(child, f"{dotted}<locals>.", None)
                continue
            if isinstance(child, ast.Call):
                calls.append(child)
            visit(child, scope, in_class)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.", None)

    def callee(call: ast.Call) -> str | None:
        func = call.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    def sets(call: ast.Call, position: int | None, name: str) -> bool:
        if any(kw.arg in (name, None) for kw in call.keywords):  # None: **kwargs
            return True
        if position is None:
            return False
        return (len(call.args) > position
                or any(isinstance(a, ast.Starred) for a in call.args))

    return [dotted for dotted, names, position, name in params
            if not any(callee(call) in names and sets(call, position, name)
                       for call in calls)]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def foreign_private_reads(src: Path) -> list[str]:
    """`reader: _name (definer)` for each module of `src/*.py` that reads an
    attribute `_name` (`obj._name`, dunders aside) that it does not define
    and another module does.  A module defines `_name` by assigning
    `obj._name`, or by a function, class or assignment of that name at its
    top level or in a class body.  A name no module defines (`_asdict`)
    belongs to a library and is not flagged."""
    defined: dict[str, set[str]] = {}  # module -> the private names it defines
    read: dict[str, set[str]] = {}  # module -> the private attributes it reads
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = defined[path.stem] = set()
        reads = read[path.stem] = set()
        scopes = [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        for stmt in (stmt for body in scopes for stmt in body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _private(node.attr):
                (names if isinstance(node.ctx, ast.Store) else reads).add(node.attr)
    return sorted(f"{reader}: {attr} ({definer})"
                  for reader, attrs in read.items() for attr in attrs
                  if attr not in defined[reader]
                  for definer, names in defined.items() if attr in names)


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


def test_every_parameter_default_is_overridden_by_the_package():
    assert sorted(unset_defaults(SRC)) == sorted(UNSET_DEFAULTS)


def test_the_guard_flags_a_default_no_call_sets(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Thing:\n"
        "    def __init__(self, size=1, colour='red'):\n"
        "        self.size = size\n"
        "    def grow(self, by=1, *, times=1):\n"
        "        return by * times\n"
        "    @staticmethod\n"
        "    def make(size=1, colour='red'):\n"
        "        return Thing(size)\n"
        "def spread(first, second=0, third=0):\n"
        "    return first + second + third\n"
        "def relay(*args, **kwargs):\n"
        "    return spread(*args), Thing(**kwargs)\n", encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from .a import Thing\n"
        "Thing.make(3).grow(times=2)\n", encoding="utf-8")
    # `Thing(size)` sets `size` and `Thing(**kwargs)` every keyword of
    # __init__; `spread(*args)` sets every positional parameter; `grow(times=2)`
    # leaves `by` unset; the staticmethod call `make(3)` binds its first
    # parameter, `size`, and leaves `colour` unset
    assert unset_defaults(tmp_path) == ["a.Thing.grow.by", "a.Thing.make.colour"]


def test_no_module_reads_another_modules_private_attribute():
    assert foreign_private_reads(SRC) == []


def test_the_guard_flags_a_private_attribute_another_module_defines(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n"
        "class Box:\n"
        "    _kind = 'box'\n"
        "    def __init__(self):\n"
        "        self._items = []\n"
        "    def _check(self):\n"
        "        return len(self._items) < _LIMIT\n", encoding="utf-8")
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "class Crate:\n"
        "    def __init__(self):\n"
        "        self._own = 1\n"
        "box, crate = a.Box(), Crate()\n"
        "print(box._items, box._check(), a._LIMIT, box._kind, crate._own,\n"
        "      box.__class__, a.Box._asdict)\n", encoding="utf-8")
    # `_own` is b's own, `_asdict` no module defines and `__class__` is a dunder
    assert foreign_private_reads(tmp_path) == [
        "b: _LIMIT (a)", "b: _check (a)", "b: _items (a)", "b: _kind (a)"]
