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


def _package_imports(path: Path) -> set[str]:
    """The package modules (or, for ``from . import name``, the names) a
    source file imports, named relative to the package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "filippov":
                    continue
                module = module.removeprefix("filippov").lstrip(".")
            found.update([module] if module
                         else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.removeprefix("filippov").lstrip(".")
                         for alias in node.names
                         if alias.name.split(".")[0] == "filippov")
    return found


def test_hybrid_imports_only_errors():
    # the return map is the bottom layer: it may grow no dependency on
    # spectrum, stability or any other module of the package
    assert _package_imports(PACKAGE / "hybrid.py") == {"errors"}


def test_hybrid_has_no_overflow_path():
    # log Lambda is a sum of logs of closed-form terms: no value on the
    # way leaves the float range, so no overflow is caught and no start
    # is rescaled by a power of two
    tree = ast.parse((PACKAGE / "hybrid.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = (node.type.elts if isinstance(node.type, ast.Tuple)
                      else [node.type])
            found += [f"except {ast.unparse(t)}" for t in caught
                      if ast.unparse(t).endswith("OverflowError")]
        if isinstance(node, ast.Attribute) and node.attr in ("frexp",
                                                             "ldexp"):
            found.append(f"{ast.unparse(node)}")
        if isinstance(node, ast.alias) and node.name in ("frexp", "ldexp"):
            found.append(f"import {node.name}")
    assert found == []


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


def test_a_fresh_import_releases_the_earlier_one():
    # typing caches the unions it builds: a module-level typing.Union of
    # the package's classes kept every earlier import of the package alive
    # (the benchmark re-imports it for each of its set-ups); ``|`` unions
    # are not cached
    import os
    import subprocess
    import sys

    code = "\n".join([
        "import gc, importlib, sys, weakref",
        "import filippov",
        "old = [weakref.ref(getattr(sys.modules[f'filippov.{module}'], name))",
        "       for module, name in (('expr', 'Num'), ('spectrum', 'ThreeReal'),",
        "                            ('stability', 'Rotational'))]",
        "filippov.parse_expr('2*x1'), filippov.parse_expr('3*x1')",
        "for name in [n for n in sys.modules if n.startswith('filippov')]:",
        "    del sys.modules[name]",
        "del filippov",
        "importlib.import_module('filippov')",
        "gc.collect()",
        "print(sum(ref() is not None for ref in old))",
    ])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ,
                               "PYTHONPATH": str(PACKAGE.parent)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"
