"""Every function the benchmark tracer wraps still exists in commsyz.

`perfbench/tracer.py` wraps its LAYERS targets by name when `--trace 1`
runs; a refactor that drops or renames one breaks that run.  This test only
reads the tracer's table and never installs it.
"""

import importlib
import importlib.util
from pathlib import Path

from commsyz.verify import DeskContext

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_target_resolves():
    layers = _layers()
    assert layers
    for layer in layers:
        module = importlib.import_module(f"commsyz.{layer['module']}")
        for path, _, _ in layer["targets"]:
            owner = module
            for part in path.split("."):
                assert hasattr(owner, part), f"commsyz.{layer['module']}.{path} is gone"
                owner = getattr(owner, part)
            assert callable(owner), f"commsyz.{layer['module']}.{path} is not callable"


def test_desk_context_keeps_the_cache_the_tracer_reads():
    ctx = DeskContext()
    assert ctx._cache == {}
    assert ctx._get("k", lambda: 1) == 1 and ctx._cache == {"k": 1}
