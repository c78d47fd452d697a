"""The runtime is pure stdlib: importing every skelgraph module loads
nothing from outside the standard library.  Every function the
benchmark's tracer wraps by name exists, and no module, in the package
or in ``tools/``, imports a name it never uses."""

import ast
import importlib
import importlib.util
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


def test_every_traced_function_exists():
    # perfbench/tracing.py wraps skelgraph functions by (module, name); a
    # rename fails here on every Python the tests run on, not only in the
    # benchmark's own smoke test
    path = SRC.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [f"{m}.{f}" for m, f in tracing.TRACED
               if not callable(getattr(importlib.import_module(f"skelgraph.{m}"), f, None))]
    assert missing == []


def _unused_imports(path):
    """(name, line) of each name the module imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports names only to export them
    tools = SRC.parent / "tools"
    modules = sorted((SRC / "skelgraph").glob("*.py")) + sorted(tools.glob("*.py"))
    assert len(modules) > 1 and tools / "replay.py" in modules
    unused = {path.name: _unused_imports(path) for path in modules if path.name != "__init__.py"}
    assert {name: found for name, found in unused.items() if found} == {}
