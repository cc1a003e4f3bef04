"""The functions that perfbench's span tracer wraps stay bound where it looks for them."""
import importlib
import importlib.util

from helpers import REFERENCE_DIR


def test_every_tracer_target_resolves():
    module_spec = importlib.util.spec_from_file_location("perfbench_spans", REFERENCE_DIR / "spans.py")
    spans = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(spans)
    missing = [
        (module, attr)
        for module, attr, _, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
