"""The runtime is pure stdlib: importing every skelgraph module loads
nothing from outside the standard library."""

import json
import os
import subprocess
import sys
from pathlib import Path

import skelgraph

SRC = Path(skelgraph.__file__).resolve().parent.parent

# -S keeps site-packages hooks (.pth files, editable-install finders) out
# of the interpreter, so only the standard library and skelgraph can load
PROBE = """
import importlib, json, pkgutil, sys
import skelgraph
names = [m.name for m in pkgutil.iter_modules(skelgraph.__path__, "skelgraph.")]
for name in names:
    importlib.import_module(name)
print(json.dumps({"submodules": names,
                  "loaded": sorted({m.split(".")[0] for m in sys.modules})}))
"""


def test_importing_every_module_loads_only_the_stdlib():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert "skelgraph.potential" in report["submodules"]
    assert "skelgraph.cli" in report["submodules"]
    outside = [m for m in report["loaded"]
               if m not in sys.stdlib_module_names and m not in ("skelgraph", "__main__")]
    assert outside == []
