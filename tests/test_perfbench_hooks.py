"""The benchmark's tracer hooks still resolve against the package.

perfbench/layers.py wraps spikecrown functions by module attribute. A
rename or move in the package would leave this suite green and break
only the benchmark, so this test installs every hook once and removes
it again. Both perfbench modules are loaded from their files, leaving
sys.path as it is.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    # a class's own dict holds the plain function, as the tracer records
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_hook_installs_and_unpatch_restores_it():
    tracer, layers = _load("tracer"), _load("layers")
    t = tracer.Tracer()
    try:
        layers.instrument(t)
        # per patched attribute, the value it held before the first patch
        first = {}
        for owner, attr, orig in t._patches:
            first.setdefault((id(owner), attr), (owner, attr, orig))
        assert first
        for owner, attr, orig in first.values():
            assert _current(owner, attr) is not orig, attr
    finally:
        t.unpatch()
    for owner, attr, orig in first.values():
        assert _current(owner, attr) is orig, attr
