"""The package has no runtime dependencies: it imports the standard library and itself."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import racerepro
from conftest import MV_DIR, ROOT


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


#: Run ``racerepro pipeline`` on the mv fixture, then print which of the
#: OpenSSL-backed hash modules the run imported (about 3.5 MB of resident
#: memory on x86-64 Linux) and where the package was imported from.
_PIPELINE_THEN_HASH_MODULES = """
import sys
import racerepro
from racerepro.cli import main
mv, out = sys.argv[1:]
code = main(["pipeline", "--report", mv + "/mv_438076.txt", "--src", mv + "/src",
             "--scenario", mv + "/scenario.json", "--tsl", mv + "/mv.tsl", "--out-dir", out])
print(racerepro.__file__)
print(code, [name for name in ("hashlib", "_hashlib") if name in sys.modules])
"""


def test_a_pipeline_run_loads_no_hash_module(tmp_path):
    # the child inherits this environment, so it imports the package under test
    done = subprocess.run(
        [sys.executable, "-c", _PIPELINE_THEN_HASH_MODULES, str(MV_DIR), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    imported, result = done.stdout.splitlines()[-2:]
    assert Path(imported).resolve() == Path(racerepro.__file__).resolve()
    assert result == "0 []"
