"""Every shipped scenario run reproduces the benchmark's recorded digests.

Each digest covers one run's exit code, stdout and every file it wrote;
`perfbench/checks.py` defines the runs and `perfbench/golden.json` holds the
digests. Both are read, never edited.
"""
import importlib.util
import json
import sys
from pathlib import Path

from helpers import REFERENCE_DIR

import pulsesched
from pulsesched import cli


def test_shipped_runs_match_the_golden_digests(tmp_path):
    if str(REFERENCE_DIR) not in sys.path:
        sys.path.append(str(REFERENCE_DIR))  # checks.py imports fleets.py beside it
    module_spec = importlib.util.spec_from_file_location("perfbench_checks", REFERENCE_DIR / "checks.py")
    checks = importlib.util.module_from_spec(module_spec)
    sys.modules[module_spec.name] = checks  # its dataclasses look their module up there
    module_spec.loader.exec_module(checks)
    scenarios = Path(pulsesched.__file__).parent / "scenarios"
    found = checks.golden_digests(cli.main, scenarios, tmp_path)
    expected = json.loads(checks.GOLDEN_FILE.read_text())
    assert len(expected) == 25
    assert found == expected
