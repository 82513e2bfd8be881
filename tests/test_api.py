"""The library keeps only the routes and options something runs.

Every public function and class of ``src/ncqmlab``, and every public
method of a public class, is referenced (by name, attribute or import)
from ``src/``, ``scripts/`` or ``perfbench/`` outside its own definition.
A route only tests call belongs in ``tests/oracles.py``.

Every parameter with a default of those functions and methods, and of the
``__init__`` of a public class, is passed (by keyword or by position) in
some call there, matched by the function's name or, for ``__init__``, by
the class name; a call through ``*args`` or ``**kwargs`` passes everything.
An option only tests set becomes a constant, or its other values move to
``tests/oracles.py``.  Matching by name alone may miss a dead route or
option that shares a live one's name, but never reports a live one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "scripts", "perfbench")
# Public names kept without a caller, each with the reason it stays.
UNCALLED = {
    "star.sw_first_order":
        "ROADMAP item 3: the SW identity goes into the sw manifest",
}


def _public(node) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_"))


def _definitions(module: str, tree: ast.Module):
    """(qualified name, node) of each public top-level function and class
    and each public method of a public class."""
    for node in filter(_public, tree.body):
        yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in filter(_public, node.body):
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item


def _referenced_name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    return None


def uncalled(library: dict, callers: list) -> list:
    """The qualified names of the public definitions in ``library`` (module
    name -> tree) that no node of the ``callers`` trees references outside
    the definition itself."""
    references: dict = {}
    for tree in callers:
        for node in ast.walk(tree):
            name = _referenced_name(node)
            if name is not None:
                references.setdefault(name, set()).add(id(node))
    return [qualified for module, tree in library.items()
            for qualified, node in _definitions(module, tree)
            if not references.get(node.name, set())
            - {id(inner) for inner in ast.walk(node)}]


def _optional(function: ast.FunctionDef, method: bool):
    """(position, name) of each parameter with a default; the position
    counts from the first argument a call writes (after self or cls), and
    is None for a keyword-only parameter."""
    args = function.args
    positional = args.posonlyargs + args.args
    if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in function.decorator_list):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    yield from ((i, arg.arg) for i, arg in enumerate(positional) if i >= first)
    yield from ((None, arg.arg)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None)


def _options(module: str, tree: ast.Module):
    """(qualified name, name a call uses, function node, whether it is a
    method) of each public function, each public method of a public class
    and the ``__init__`` of each public class."""
    for node in filter(_public, tree.body):
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    yield f"{module}.{node.name}", node.name, item, True
                elif _public(item):
                    yield (f"{module}.{node.name}.{item.name}", item.name,
                           item, True)


def _passed(call: ast.Call) -> tuple:
    """(positional count, keyword names) a call writes; None for either
    when it spreads ``*args`` or ``**kwargs`` and so may write anything."""
    if (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(kw.arg is None for kw in call.keywords)):
        return None, None
    return len(call.args), {kw.arg for kw in call.keywords}


def unset(library: dict, callers: list) -> list:
    """``qualified(parameter)`` for each parameter with a default of the
    public functions in ``library`` (module name -> tree) that no call in
    the ``callers`` trees passes, outside the function itself."""
    calls: dict = {}
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _referenced_name(node.func)
                if name is not None:
                    calls.setdefault(name, []).append(node)
    found = []
    for module, tree in library.items():
        for qualified, name, function, method in _options(module, tree):
            inner = {id(node) for node in ast.walk(function)}
            written = [_passed(call) for call in calls.get(name, [])
                       if id(call) not in inner]
            for position, param in _optional(function, method):
                if not any(count is None or param in keywords
                           or (position is not None and count > position)
                           for count, keywords in written):
                    found.append(f"{qualified}({param})")
    return found


def _trees():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for top in CALLERS for path in sorted((ROOT / top).rglob("*.py"))}
    library = {path.stem: tree for path, tree in trees.items()
               if path.parent == ROOT / "src" / "ncqmlab"}
    return library, list(trees.values())


def test_every_public_route_has_a_caller():
    library, callers = _trees()
    found = uncalled(library, callers)
    assert set(found) <= set(UNCALLED), (
        f"{len(found)} public names no program calls: {found}; only "
        f"{sorted(UNCALLED)} may stay, the rest go to tests/oracles.py")
    # an exception that gains a caller leaves the list
    assert set(UNCALLED) <= set(found)


def test_scan_reports_a_route_only_it_calls():
    module = ast.parse(
        "def used():\n    return 1\n\n\n"
        "def dead():\n    return dead() + used()\n\n\n"
        "class Record:\n"
        "    def read(self):\n        return used()\n\n\n"
        "Record().read()\n")
    assert uncalled({"m": module}, [module]) == ["m.dead"]
    # an import elsewhere is a reference
    assert not uncalled({"m": module}, [module, ast.parse("import m.dead")])


def test_every_option_is_set_by_a_program():
    found = unset(*_trees())
    assert not found, (
        f"{len(found)} parameters no program passes: {found}; make each a "
        "constant, or move its other values to tests/oracles.py")


def test_scan_reports_an_option_only_it_sets():
    module = ast.parse(
        "def run(n, scale=1.0, *, mode='a', seed=0):\n    return n\n\n\n"
        "def spread(n=1, tol=0.0):\n    return spread(n, tol)\n\n\n"
        "class Box:\n"
        "    def __init__(self, size=1, open=False):\n        pass\n\n"
        "    def fill(self, level=0):\n        return level\n\n"
        "    @staticmethod\n"
        "    def make(size=1):\n        return Box(size)\n\n\n"
        "run(1, 2.0, mode='b')\n"
        "Box(2).fill(level=3)\n"
        "Box.make()\n")
    # spread's call to itself sets nothing
    assert unset({"m": module}, [module]) == [
        "m.run(seed)", "m.spread(n)", "m.spread(tol)", "m.Box(open)",
        "m.Box.make(size)"]
    # an argument at or past a default's position passes it, and a spread
    # call passes everything
    others = ast.parse("m.run(1, seed=3)\nBox(1, True)\nspread(**options)")
    assert unset({"m": module}, [module, others]) == ["m.Box.make(size)"]
