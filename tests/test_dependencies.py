"""The package has no runtime dependencies: it imports the standard library and itself."""

from __future__ import annotations

import ast
import sys

from conftest import ROOT


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted((ROOT / "src" / "racerepro").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in (*sys.stdlib_module_names, "racerepro")
            ]
    assert outside == []
