"""The benchmark's per-layer metrics name functions that exist.

``perfbench.tracer`` sums the self time and call counts of spans named
``<layer>.<function>``.  A span whose function was removed or renamed is
never recorded, so its metric would silently read 0; this test fails instead.
"""
from __future__ import annotations

import importlib
import inspect
from pathlib import Path


def test_every_metric_span_names_a_function_of_its_module(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    tracer = importlib.import_module("perfbench.tracer")
    spans = {
        name
        for table in (tracer.SELF_TIME, tracer.CALLS)
        for names in table.values()
        for name in names
    }
    spans.discard(tracer.TABLE_BUILD)  # a method's span, not a module function
    assert len(spans) > 20
    unresolved = []
    for span in sorted(spans):
        layer, name = span.split(".")
        fn = getattr(importlib.import_module(f"rshds.{layer}"), name, None)
        if not (inspect.isfunction(fn) and fn.__module__ == f"rshds.{layer}"):
            unresolved.append(span)
    assert unresolved == []
