"""The package's layers import only downward.

``world``, ``mapping`` and ``nn`` are the bottom layers, ``agent`` builds on
them, and ``harness`` and ``cli`` sit on top.  Every import statement of every
module is read from its syntax tree, lazy imports inside functions included.
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
