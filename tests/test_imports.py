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
