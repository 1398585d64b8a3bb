"""src/ keeps only what a subcommand runs.

Every top-level function, class and assigned name of a src/picard20 module
must be referred to by some other top-level statement of src/: by a Name in
its own module, by an import of it from another module, or by an attribute
of that name anywhere. The dunders and the names in EXEMPT are exempt.
Reference implementations that only the tests call live in tests/oracles.py.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "picard20"

EXEMPT = {
    # README documents it as the writer of the model-file format that
    # model_from_json reads; no subcommand writes a model file
    "modelfile.model_to_json",
    # the count's oracle; perfbench/claims.py wraps it by this name, so it
    # moves to tests/oracles.py only together with that script
    "ellsurf._charsum_count",
}


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    if isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _references(module: str, stmt: ast.stmt) -> set:
    """(module, name) pairs that stmt refers to; module None for attributes."""
    refs = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            refs.add((module, node.id))
        elif isinstance(node, ast.Attribute):
            refs.add((None, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.level and node.module:
            refs.update((node.module, alias.name) for alias in node.names)
    return refs


def test_every_top_level_name_of_src_has_a_caller_in_src():
    statements = [
        (path.stem, stmt)
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    refs = {id(stmt): _references(module, stmt) for module, stmt in statements}
    defined, dead = set(), []
    for module, stmt in statements:
        for name in _defined(stmt):
            qualified = f"{module}.{name}"
            defined.add(qualified)
            if name.startswith("__") and name.endswith("__") or qualified in EXEMPT:
                continue
            wanted = {(module, name), (None, name)}
            if not any(
                wanted & refs[id(other)] for _, other in statements if other is not stmt
            ):
                dead.append(qualified)
    assert dead == []
    assert EXEMPT <= defined  # an exemption whose name is gone is stale


def test_only_the_package_init_lists_public_names():
    # the leading underscore is the one statement of what is private
    listing = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
    ]
    assert listing == []
