"""The library keeps only the routes something runs: every public function
and class of ``src/ncqmlab``, and every public method of a public class,
is referenced (by name, attribute or import) from ``src/``, ``scripts/``
or ``perfbench/`` outside its own definition.  A route only tests call
belongs in ``tests/oracles.py``.  Matching by name alone may miss a dead
route that shares a live one's name, but never reports a live one.
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


def test_every_public_route_has_a_caller():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for top in CALLERS for path in sorted((ROOT / top).rglob("*.py"))}
    library = {path.stem: tree for path, tree in trees.items()
               if path.parent == ROOT / "src" / "ncqmlab"}
    found = uncalled(library, list(trees.values()))
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
