"""The benchmark's tracer sees the calls that ``rshds.screen`` makes.

``perfbench.tracer`` wraps the public functions of the layer modules in
every ``rshds`` namespace that holds them.  The lattice walks, the screens
and the quotient checks run in ``screen``, and reach ``subgroups_of_order``,
``closure_members``, ``quotient`` and the others under the names screen
imports from ``groups``.  A reference screen bound some other way (a
default argument, a copy taken before the wrappers went in) would make the
screen's per-layer metrics read 0 without any error; this test fails
instead.  As in the benchmark's worker, ``screen`` is loaded (by
``fixtures``) before the tracer is installed.
"""
from __future__ import annotations

import importlib
from pathlib import Path

from rshds import certify, fixtures, groups
from rshds.constructions import gnk_difference_set


def test_the_tracer_counts_the_lattice_calls_of_a_screen_and_a_quotient_check(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    tracer_module = importlib.import_module("perfbench.tracer")
    g36 = fixtures.g36_1()
    (g36_h,) = groups.subgroups_of_order(g36, 6, normal=True)
    cand = gnk_difference_set(2, 0)
    kernel, _ = groups.normal_subgroups_of_prime_index(cand.group)[0]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        # through the modules, whose names the tracer wraps; with H given the
        # screen runs T4, and only quotient_check builds a quotient here
        assert certify.structural_tests(g36, 6, g36_h).passed
        assert certify.quotient_check(cand.group, cand.subgroup, cand.elements, kernel).passed
        groups.normal_subgroups_of_prime_index(cand.group)
    finally:
        tracer.remove()
    calls = {name: tracer.stats.get(name, [0])[0] for name in (
        "groups.subgroups_of_order", "groups.closure", "groups.closure_members",
        "groups.quotient", "groups.normal_subgroups_of_prime_index",
        "certify.structural_tests", "certify.quotient_check",
    )}
    # each closure makes one closure_members call; the walks make the rest
    assert calls["groups.closure_members"] > calls["groups.closure"], calls
    # one quotient for quotient_check, one for the kernels of index 2
    assert calls["groups.quotient"] == 2, calls
    assert all(calls.values()), calls
    metrics = tracer_module.summarize([tracer.snapshot()])
    screen_metrics = {name: metrics[name] for name in (
        "groups.closure_calls", "groups.subgroups_found", "groups.quotient_s",
        "groups.normal_prime_index_s", "certify.structural_tests_s", "certify.quotient_check_s",
    )}
    assert all(screen_metrics.values()), screen_metrics
