"""Every function the benchmark's layer tracer wraps by name must exist.

perfbench/tracer.py replaces (module, attribute) pairs at run time and
reports the metrics of a missing one as absent, so a renamed or deleted
function would blank its layer metrics without failing anything else.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = load_tracer().TARGETS
    assert targets
    missing = [
        (module, attr) for module, attr, _ in targets if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
