"""The package runs on the standard library alone."""
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
