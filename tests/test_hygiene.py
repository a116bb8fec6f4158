"""Source hygiene: every imported name is used or re-exported through __all__,
and every name in __all__ is used outside the module that defines it."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "scripts")


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for folder in SCANNED
        for path in sorted((ROOT / folder).rglob("*.py"))
        for line, name in unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == [], "unused imports:\n" + "\n".join(found)


def names_used(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_exported_name_is_used_outside_its_module():
    package = ROOT / "src" / "noisecal"
    init = ast.parse((package / "__init__.py").read_text())
    home = {  # exported name -> file of the module that defines it
        alias.asname or alias.name: package / f"{node.module}.py"
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    exported = next(
        ast.literal_eval(node.value)
        for node in init.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "__all__"
    )
    files = [
        path
        for folder in SCANNED
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path != package / "__init__.py"
    ]
    used = {path: names_used(ast.parse(path.read_text(), str(path))) for path in files}
    readme = (ROOT / "README.md").read_text()
    unused = [
        name
        for name in exported
        if not re.search(rf"\b{name}\b", readme)
        and not any(name in used[path] for path in files if path != home[name])
    ]
    assert unused == [], f"exported but used only in their own module: {unused}"
