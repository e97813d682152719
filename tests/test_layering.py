"""The package's layers import only downward, and every public name is used.

``world``, ``mapping`` and ``nn`` are the bottom layers, ``agent`` builds on
them, and ``harness`` and ``cli`` sit on top.  Every import statement of every
module is read from its syntax tree, lazy imports inside functions included.
A public name that nothing in the package reads is dead weight: tests and
``__init__`` re-exports alone do not keep it.
"""

import ast
from pathlib import Path

import gridnav

PACKAGE = Path(gridnav.__file__).parent

#: layer -> the packages it may not import
FORBIDDEN = {
    "world": ("gridnav.agent", "gridnav.harness", "gridnav.cli"),
    "mapping": ("gridnav.agent", "gridnav.harness", "gridnav.cli"),
    "nn": ("gridnav.agent", "gridnav.harness", "gridnav.cli"),
    "agent": ("gridnav.harness", "gridnav.cli"),
}


def module_name(path: Path) -> str:
    parts = ("gridnav",) + path.relative_to(PACKAGE).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_names(path: Path) -> set[str]:
    """Every module an import in ``path`` may load, as an absolute name.
    ``from a import b`` counts as both ``a`` and ``a.b``."""
    name = module_name(path)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")[:len(package.split(".")) - node.level + 1]
                source = ".".join(base + ([node.module] if node.module else []))
            else:
                source = node.module
            names.add(source)
            names.update(f"{source}.{alias.name}" for alias in node.names)
    return names


MODULES = {module_name(path): path for path in sorted(PACKAGE.rglob("*.py"))}


def test_every_layer_is_covered():
    layers = {name.split(".")[1] for name in MODULES if name != "gridnav"}
    assert layers == {"world", "mapping", "nn", "agent", "harness", "cli"}


def test_no_module_imports_a_layer_above_it():
    upward = []
    for name, path in MODULES.items():
        forbidden = FORBIDDEN.get(name.split(".")[1] if name != "gridnav" else "", ())
        upward += [f"{name} imports {imported}" for imported in sorted(imported_names(path))
                   if any(imported == top or imported.startswith(top + ".")
                          for top in forbidden)]
    assert not upward


#: the kinds of use that count for a module-level name, a method or
#: property, and an annotated class field
NAME, ATTRIBUTE, STRING = "name", "attribute", "string"
MODULE_LEVEL, MEMBER, FIELD = {NAME, ATTRIBUTE}, {ATTRIBUTE}, {ATTRIBUTE, STRING}


def public_definitions(tree: ast.Module):
    """``(label, name, node, counted)`` of every public module-level
    function, class and constant of ``tree``, of every public method and
    property of its module-level classes, and of every public annotated
    field of its public classes; ``counted`` holds the kinds of use that
    keep the definition alive."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from ((name, name, node, MODULE_LEVEL) for name in names
                    if not name.startswith("_"))
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    name, counted = member.name, MEMBER
                elif (isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)
                      and not node.name.startswith("_")):
                    name, counted = member.target.id, FIELD
                else:
                    continue
                if not name.startswith("_"):
                    yield f"{node.name}.{name}", name, member, counted


def test_every_public_name_has_a_caller():
    """A module-level name counts as used where an ``ast.Name`` or
    ``ast.Attribute`` of it appears outside its own definition and outside
    ``__init__.py`` files; a method or property only where an
    ``ast.Attribute`` of it does; an annotated class field where an
    ``ast.Attribute`` of it or a string constant equal to it does (fields
    are also read by name, as in ``getattr(t, "reward")``)."""
    trees = {name: ast.parse(path.read_text(encoding="utf-8"))
             for name, path in MODULES.items() if path.name != "__init__.py"}
    uses: dict[str, list[tuple[ast.AST, str]]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((node, NAME))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((node, ATTRIBUTE))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                uses.setdefault(node.value, []).append((node, STRING))
    uncalled = []
    for module, tree in trees.items():
        for label, name, definition, counted in public_definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if not any(id(node) not in own and kind in counted
                       for node, kind in uses.get(name, ())):
                uncalled.append(f"{module}.{label}")
    assert not uncalled
