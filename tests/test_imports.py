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


def _reads(tree: ast.AST, skip: str) -> set[str]:
    """The names a module reads (as names or attributes), outside the
    body of any function or class named ``skip``; an import is not a
    read."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node.name == skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_exported_functions_are_not_test_only():
    # every function and class that a module of filippov exports is read
    # by another part of the package (outside its own definition), or
    # named by the benchmark (which binds it by name); one that only
    # tests read belongs in tests/
    import importlib
    import inspect

    exported = set()
    for path in PACKAGE.glob("*.py"):
        module = importlib.import_module(
            "filippov" + ("" if path.stem == "__init__" else f".{path.stem}"))
        exported.update(name for name in getattr(module, "__all__", ())
                        if inspect.isfunction(getattr(module, name))
                        or inspect.isclass(getattr(module, name)))
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"]
    bench = set()
    for name in ("spans.py", "workloads.py", "run.py"):
        path = PACKAGE.parents[1] / "perfbench" / name
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bench |= _reads(tree, "") | {
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unread = [name for name in sorted(exported) if name not in bench
              and not any(name in _reads(tree, name) for tree in trees)]
    assert len(exported) >= 60 and unread == []


def test_every_all_resolves():
    import importlib
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "filippov" + ("" if path.stem == "__init__" else f".{path.stem}"))
        missing += [f"{path.stem}.{name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


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
        # the compile caches hold generated functions of the earlier import
        "[filippov.FilippovSystem.parse(['x2', f'{k}*x1', 'x3'], ['1', '0',"
        " '0'], 'x1').slide_step for k in (2, 3)]",
        "expr = sys.modules['filippov.expr']",
        "print(len(expr._PROGRAMS), expr._binder.cache_info().currsize)",
        "del expr",
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
    cached, alive = done.stdout.split("\n", 1)
    assert min(map(int, cached.split())) > 0 and alive.strip() == "0"


def _imports_numpy(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "numpy"
                   for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "numpy":
            return True
    return False


def test_the_scalar_chain_holds_no_arrays():
    # the local data, the trichotomy, the simulator and the CLI run on
    # float tuples; numpy stays in the array path (hybrid, sweep) and in
    # expr's two finite-difference helpers
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert [name for name in ("core", "stability", "spectrum", "simulate",
                              "cli") if _imports_numpy(trees[name])] == []
    fd_helpers = ("gradient_fd", "jacobian_fd")
    expr_reads = set()
    for node in trees["expr"].body:
        if not (isinstance(node, ast.FunctionDef)
                and node.name in fd_helpers):
            expr_reads |= _reads(node, "")
    assert "np" not in expr_reads and "numpy" not in expr_reads
    # no module tells the two formats apart
    tolist_probes = [
        f"{name}:{node.lineno}" for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "hasattr" and len(node.args) == 2
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value == "tolist"]
    assert tolist_probes == []


def test_only_main_turns_an_error_into_a_failure():
    # the commands raise; one handler in ``main`` prints the ``error:``
    # line and returns exit 1 for every command
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    failing = sorted(
        func.name for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "_fail"
                for handler in ast.walk(func)
                if isinstance(handler, ast.ExceptHandler)
                for call in ast.walk(handler)))
    assert failing == ["main"]
