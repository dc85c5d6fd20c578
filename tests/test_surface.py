"""The package's public surface is what it uses: every public module-level
function in ``src/measure_lab`` is referenced by code elsewhere in the
package or is a tracer target of ``bench/tracing.py``."""

import ast
from pathlib import Path

from helpers import bench_tracing

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "measure_lab"


def _references(node: ast.AST) -> set[str]:
    """Names read in code under node: plain names and attribute names.
    Imports are not uses, and docstrings are strings, not names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unreferenced_public_functions(package: Path, targets: set[str]) -> list[str]:
    defined, used = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            refs = _references(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                refs.discard(node.name)  # a recursive call is not a caller
                if not node.name.startswith("_"):
                    defined.append(f"{path.stem}.{node.name}")
            used |= refs
    return [name for name in defined if name.split(".")[1] not in used and name not in targets]


def test_every_public_function_has_a_caller():
    targets = {f"{module}.{qualname}" for module, qualname, _timed in bench_tracing().TARGETS}
    assert unreferenced_public_functions(PACKAGE, targets) == []


def test_scan_finds_an_unreferenced_function(tmp_path):
    (tmp_path / "a.py").write_text(
        'def used():\n    """Calls unused() only in this docstring."""\n    return used\n\n\n'
        "def unused():\n    return unused()\n\n\n"
        "def traced():\n    pass\n\n\n"
        "def _private():\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import unused\n\nprint(used)\n")
    assert unreferenced_public_functions(tmp_path, {"a.traced"}) == ["a.unused"]
