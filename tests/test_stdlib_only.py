"""The package runs on the standard library alone, through its public names."""
import ast
import json
import subprocess
import sys
from pathlib import Path

import pulsesched

PACKAGE_DIR = Path(pulsesched.__file__).parent

# without site-packages on the path (-S), import the package and every module
# of it, then print the modules the imports added
CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
for name in sys.argv[2:]:
    __import__(name)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_importing_the_package_adds_only_standard_library_modules():
    names = ["pulsesched", *(f"pulsesched.{p.stem}" for p in sorted(PACKAGE_DIR.glob("[!_]*.py")))]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, str(PACKAGE_DIR.parent), *names],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert set(names) <= set(added)
    allowed = sys.stdlib_module_names | {"pulsesched"}
    assert [m for m in added if m.partition(".")[0] not in allowed] == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _stdlib(module: str | None) -> bool:
    return module is not None and module.partition(".")[0] in sys.stdlib_module_names


def test_the_package_reads_no_private_name_of_a_standard_library_module():
    """No `mod._name` and no `from mod import _name` for a standard-library `mod`, dunders
    excepted: a private name can change or go in any Python release."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), path.name)
        bound = set()  # the local names that imports bind to standard-library modules and names
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update(a.asname or a.name.partition(".")[0] for a in node.names if _stdlib(a.name))
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and _stdlib(node.module):
                bound.update(a.asname or a.name for a in node.names)
                found += [
                    f"{path.name}:{node.lineno}: from {node.module} import {a.name}"
                    for a in node.names
                    if _private(a.name)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _private(node.attr):
                base = node.value
                while isinstance(base, ast.Attribute):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in bound:
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []
