"""Package structure: modules share kernels through public names only."""

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "inscribed_extrema"


def _private(name):
    return name.startswith("_") and not name.endswith("__")  # dunders are public


def _private_sibling_imports(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found += [
                f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                for alias in node.names
                if _private(alias.name)
            ]
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            # module._name through "from . import module"
            if isinstance(node.value, ast.Name) and (PACKAGE_DIR / f"{node.value.id}.py").exists():
                found.append(f"{path.name}: {node.value.id}.{node.attr}")
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 5
    offenders = [hit for path in modules for hit in _private_sibling_imports(path)]
    assert offenders == []


def test_package_exports_the_submodule_names_only():
    import inscribed_extrema as pkg

    assert "Ellipsoid" in pkg.__all__ and "DEFAULT_TOLERANCES" in pkg.__all__
    assert not {"linalg", "oracle", "cli"} & set(pkg.__all__)
    assert all(hasattr(pkg, name) for name in pkg.__all__)
