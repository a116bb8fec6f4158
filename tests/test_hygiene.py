"""Source hygiene: every imported name is used or re-exported through __all__,
every name in __all__ is used by code outside the module that defines it, every
top-level function and class of the package is named somewhere beyond its
definition, private names stay inside their modules, JSON is parsed in one
place, threads are started in one place, and every package name and config
field the benchmark harness looks up exists; of its span targets, only four
known to be stale may not."""

import ast
import dataclasses
import importlib
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


def names_used(tree: ast.Module, attributes: bool = True) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and attributes:
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
    # a name that only tests use needs no place in the public API
    files = [
        path
        for folder in ("src", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path != package / "__init__.py"
    ]
    # an attribute of the same name, such as a MetricReport's r.mse, is no use
    used = {
        path: names_used(ast.parse(path.read_text(), str(path)), attributes=False)
        for path in files
    }
    # perfbench counts through what it imports from the package and the span
    # targets it wraps; other words in its text, or in the README, call nothing
    bench = {attr for _, _, attr in span_targets()} | {
        alias.name
        for _, tree in perfbench_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "noisecal"
        for alias in node.names
    }
    unused = [
        name
        for name in exported
        if name not in bench and not any(name in used[path] for path in files if path != home[name])
    ]
    assert unused == [], f"exported but used only in their own module: {unused}"


def test_every_top_level_definition_is_named_beyond_it():
    # a function or class that no code and no entry point names is dead code
    named = set(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text()))
    for folder in (*SCANNED, "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            named |= names_used(ast.parse(path.read_text(), str(path)))
    dead = [
        f"{path.name}:{node.lineno}: {node.name}"
        for path in sorted((ROOT / "src" / "noisecal").glob("*.py"))
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in named
    ]
    assert dead == [], "defined but never named:\n" + "\n".join(dead)


def test_private_names_are_imported_only_from_tensor():
    # tensor holds the package's shared internals; any other module's _names are its own
    found = [
        f"{path.name}:{node.lineno}: {node.module}.{alias.name}"
        for path in sorted((ROOT / "src" / "noisecal").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.module not in ("tensor", "noisecal.tensor")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == [], "private names imported from another module:\n" + "\n".join(found)


def test_only_tensor_imports_threads():
    # tensor._map is the package's one pool, and so its one rule for a failing item
    found = set()
    for path in sorted((ROOT / "src" / "noisecal").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("threading", "concurrent") for name in names):
                found.add(path.name)
    assert found == {"tensor.py"}


def test_json_is_parsed_in_one_place():
    # the run config and the mixture spec share one strict reader, which refuses
    # a key given twice and nesting too deep to parse; a second parse would not
    found = []
    for path in sorted((ROOT / "src" / "noisecal").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                found.append(f"{path.name}:{node.lineno}: from json import")
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in ("load", "loads")
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
            ):
                home = [d.name for d in defs if d.lineno <= node.lineno <= d.end_lineno]
                found.append(f"{path.name}: json.{node.attr} in {home}")
    assert found == ["tensor.py: json.loads in ['_read_json']"], "\n".join(found)


def perfbench_trees() -> list[tuple[str, ast.Module]]:
    """Each perfbench module, plus each code string in it that imports the package."""
    trees = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        trees.append((path.name, tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.search(r"^(from|import) noisecal\b", node.value, re.M):
                    try:
                        trees.append((f"{path.name}:{node.lineno}", ast.parse(node.value)))
                    except SyntaxError:  # prose, such as a docstring
                        pass
    return trees


def span_targets() -> tuple[tuple[str, str, str], ...]:
    """perfbench's spans.TARGETS: (span name, owner, attribute) triples."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "TARGETS"
    )


def resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_package_name_the_benchmark_uses_exists():
    # the span targets in spans.TARGETS are strings and may name what is gone;
    # `cfg` and `self.cfg` there hold what cli.load_config returns
    fields = {f.name for f in dataclasses.fields(importlib.import_module("noisecal.cli").RunConfig)}
    missing = []
    for where, tree in perfbench_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "noisecal":
                missing += [
                    f"{where}:{node.lineno}: {node.module}.{alias.name}"
                    for alias in node.names
                    if not resolves(node.module, alias.name)
                ]
            elif isinstance(node, ast.Attribute):
                owner = node.value
                owner = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
                if owner in ("cli", "vio") and not resolves(f"noisecal.{owner}", node.attr):
                    missing.append(f"{where}:{node.lineno}: noisecal.{owner}.{node.attr}")
                elif owner == "cfg" and node.attr not in fields:
                    missing.append(f"{where}:{node.lineno}: cli.RunConfig.{node.attr}")
    assert missing == [], "perfbench uses names the package does not have:\n" + "\n".join(missing)


# span targets known not to resolve; the benchmark change that mends them may
# shrink this set, and nothing may join it
STALE_SPAN_TARGETS = {
    "noisecal.calibration.sdedit_init",
    "noisecal.calibration.high_pass",
    "noisecal.calibration.content_objective",
    "noisecal.cli.write_pnm",
}


def test_every_span_target_resolves():
    # perfbench skips a span target the package no longer has, so its per-layer
    # figure would go missing without an error
    missing = set()
    for _, owner, attr in span_targets():
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        if not hasattr(getattr(obj, cls) if cls else obj, attr):
            missing.add(f"{module}.{cls + '.' if cls else ''}{attr}")
    assert missing <= STALE_SPAN_TARGETS, f"span targets gone: {sorted(missing - STALE_SPAN_TARGETS)}"
