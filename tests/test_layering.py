"""Module layering: every import sits at module level, the package's
imports of its own modules form a directed acyclic graph, no module
imports another's private (underscore-prefixed) names, only the graph
core imports a queue, and every public member of a class has a reader."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oddholes"


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _package_imports(tree) -> set[str]:
    """The package modules a module imports, wherever the import sits."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("oddholes."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("oddholes.")
            )
    return out


def test_no_import_below_module_level():
    nested = [
        f"{name}.py:{node.lineno}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    ]
    assert nested == []


def test_package_imports_form_a_dag():
    deps = {name: _package_imports(tree) for name, tree in _trees().items()}
    done: set[str] = set()

    def visit(name, path):
        assert name not in path, "import cycle: " + " -> ".join(path[path.index(name):] + [name])
        if name in done:
            return
        for dep in sorted(deps.get(name, ())):
            visit(dep, path + [name])
        done.add(name)

    for name in sorted(deps):
        visit(name, [])


def test_no_private_names_across_modules():
    private = [
        f"{name}.py:{node.lineno} {alias.name}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level == 1 or (node.module or "").startswith("oddholes"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_only_the_graph_core_imports_deque():
    # Distances, layers, spheres and components go through graph.bfs_levels;
    # a queue anywhere else is a breadth-first search written again.
    users = {
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module == "collections"
        and any(alias.name == "deque" for alias in node.names)
        or isinstance(node, ast.Import)
        and any(alias.name == "collections" for alias in node.names)
    }
    assert users == {"graph"}


def _attributes_read() -> set[str]:
    """Every ``.name`` read in the sources, tests, bench and docs."""
    names: set[str] = set()
    for folder in ("src", "tests", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            names.update(
                node.attr
                for node in ast.walk(ast.parse(path.read_text(), str(path)))
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            )
    docs = [ROOT / "README.md", *(ROOT / "docs").rglob("*.md"), *(ROOT / "bench").rglob("*.md")]
    for path in docs:
        names.update(re.findall(r"\.(\w+)", path.read_text()))
    return names


def _public_members(cls: ast.ClassDef):
    """The names of a class's public methods and annotated fields."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name


def test_every_public_class_member_is_read():
    # A method or field nothing reads is surface kept working for no caller.
    read = _attributes_read()
    unread = [
        f"{cls.name}.{name}"
        for tree in _trees().values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for name in _public_members(cls)
        if name not in read
    ]
    assert unread == []
