"""The benchmark's tracer wraps chargeopt functions by module attribute name.

A deleted or renamed attribute would only fail the traced benchmark run; this
reads the tracer's table without installing it, so no module is patched.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def test_every_wrapped_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    missing = [
        f"{module.__name__}.{name}"
        for module, name, _, _ in tracing.WRAPPED
        if not callable(getattr(module, name, None))
    ]
    assert not missing, f"the tracer wraps names chargeopt no longer has: {missing}"
