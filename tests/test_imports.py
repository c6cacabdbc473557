import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "filippov"


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        inside = node.level > 0 or (node.module or "").startswith("filippov")
        for alias in node.names:
            name = alias.name
            if inside and name.startswith("_") and not name.endswith("__"):
                found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_no_private_names_imported_across_modules():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 9
    offenders = [hit for path in sources for hit in _private_imports(path)]
    assert offenders == []


def test_traced_bindings_resolve():
    # perfbench/spans.py wraps these (module, attribute) bindings by name
    # for ``perfbench/run.py --trace 1``; a refactor that drops one would
    # break tracing without failing any other test
    import importlib.util

    import filippov  # the tracer patches after this import
    path = PACKAGE.parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, attr, _ in spans.FUNCTIONS:
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.append(f"{module}.{attr}")
    for module, cls, attr, _ in spans.METHODS:
        owner = getattr(importlib.import_module(module), cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{module}.{cls}.{attr}")
    assert len(spans.FUNCTIONS) >= 20 and missing == []
