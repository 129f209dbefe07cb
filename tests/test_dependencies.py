"""The package has no runtime dependencies: it imports the standard library and itself."""

from __future__ import annotations

import ast
import os
import subprocess
import sys

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
#: memory on x86-64 Linux).
_PIPELINE_THEN_HASH_MODULES = """
import sys
from racerepro.cli import main
mv, out = sys.argv[1:]
code = main(["pipeline", "--report", mv + "/mv_438076.txt", "--src", mv + "/src",
             "--scenario", mv + "/scenario.json", "--tsl", mv + "/mv.tsl", "--out-dir", out])
print(code, [name for name in ("hashlib", "_hashlib") if name in sys.modules])
"""


def test_a_pipeline_run_loads_no_hash_module(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _PIPELINE_THEN_HASH_MODULES, str(MV_DIR), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.splitlines()[-1] == "0 []"
