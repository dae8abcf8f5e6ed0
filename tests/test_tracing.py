"""The benchmark's tracer wraps opint by name; every name must resolve.

``bench/tracing.py`` reads ``vars(owner)[attr]`` for each of its
``TARGETS``, so a renamed or deleted function or method would raise
``KeyError`` only in a traced benchmark run.  This test makes it a
tier-1 failure that names the target.
"""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name, module, attr in tracing.TARGETS:
        owner = importlib.import_module("opint." + module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = vars(owner).get(cls_name)
        if owner is None or attr not in vars(owner):
            missing.append((name, module, attr))
    assert not missing, "bench/tracing.py names what opint lacks: %r" % missing
