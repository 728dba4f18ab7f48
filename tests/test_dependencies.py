"""The package has no runtime dependency: it imports only the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "turncue"


def test_package_imports_only_the_standard_library_and_itself():
    allowed = sys.stdlib_module_names | {"turncue"}
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0 is turncue itself
                modules = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {m}" for m in modules if m.split(".")[0] not in allowed]
    assert len(list(PACKAGE.glob("*.py"))) > 1
    assert foreign == []
