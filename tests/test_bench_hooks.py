"""The benchmark's span tracing wraps topsym callables by name.

The tier-1 suite does not collect ``bench/``, so a rename that breaks
``bench/run.py --trace 1`` has to fail here.  The check only resolves
the names; it installs no wrapper.
"""

import importlib.util
from pathlib import Path


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    functions, methods = load_tracing()._targets()
    assert functions and methods
    for key, owner, name, _ in functions:
        assert callable(getattr(owner, name, None)), (key, owner.__name__, name)
    for key, cls, name, _ in methods:
        # ``install`` reads methods from the class dictionary itself.
        assert name in vars(cls), (key, cls.__name__, name)
