"""Tests of the benchmark's own code: oracles, relabelling and the tracer."""
from __future__ import annotations

import inspect
import json
import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import oracles, run, tracer, workloads
from perfbench.worker import relabel
from rshds import certify, constructions, fixtures, formats, groups

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("n,k", [(2, 0), (3, 1), (4, 2)])
def test_gnk_table_matches_library(n, k):
    assert np.array_equal(oracles.gnk_table(n, k), np.asarray(groups.GnkGroup(n, k).table))


@pytest.mark.parametrize("n", [2, 3])
def test_c4n_table_matches_library(n):
    assert np.array_equal(oracles.c4n_table(n), np.asarray(groups.C4PowerGroup(n).table))


def test_difference_tally_accepts_construction_and_catches_swap():
    cand = constructions.gnk_difference_set(3, 1)
    table = oracles.gnk_table(3, 1)
    assert oracles.difference_set_problem(table, range(8), cand.elements) is None
    outside = next(g for g in range(8, 64) if g not in cand.elements)
    broken = list(cand.elements[1:]) + [outside]
    assert "tally" in oracles.difference_set_problem(table, range(8), broken)
    assert "subgroup" in oracles.difference_set_problem(table, range(8), list(cand.elements[1:]) + [3])


def test_flipped_matrix_entry_is_caught(tmp_path):
    cand = constructions.gnk_difference_set(3, 1)
    path = tmp_path / "m.had"
    formats.write_hadamard(path, certify.hadamard_matrix(cand.group, cand.elements))
    table = oracles.gnk_table(3, 1)
    matrix = formats.read_hadamard(path)
    assert oracles.hadamard_problem(matrix, table, cand.elements) is None
    matrix[5][9] = -matrix[5][9]
    assert "H H^T" in oracles.hadamard_problem(matrix, table, cand.elements)


def test_hadamard_matrix_of_another_set_is_caught():
    cand = constructions.gnk_difference_set(3, 1)
    matrix = np.asarray(certify.hadamard_matrix(cand.group, cand.elements))
    swapped = matrix[:, ::-1]  # still Hadamard, no longer 2D - J of the set
    problem = oracles.hadamard_problem(swapped, oracles.gnk_table(3, 1), cand.elements)
    assert "not 2D - J" in problem


def test_wrong_search_count_is_caught():
    expected = workloads.SEARCH["gnk:2,0"]
    good = {"count": 16, "sets": [[0]] * 16}
    assert oracles.search_problem(good, expected) is None
    assert "found 15" in oracles.search_problem({"count": 15, "sets": [[0]] * 15}, expected)
    budgeted = workloads.SEARCH["gnk:3,1"]
    stop = {"budget_stop": True, "nodes": budgeted["budget"] + 1}
    assert oracles.search_problem(stop, budgeted) is None
    stop["nodes"] += 1
    assert "stopped at" in oracles.search_problem(stop, budgeted)
    assert "did not stop" in oracles.search_problem(good, budgeted)


def test_found_sets_oracle_on_real_search():
    group = groups.GnkGroup(2, 0)
    result = constructions.exhaustive_search(group, group.distinguished_subgroup())
    sets = [list(c.elements) for c in result.candidates]
    table = oracles.gnk_table(2, 0)
    assert oracles.found_sets_problem(table, range(4), sets) is None
    assert "twice" in oracles.found_sets_problem(table, range(4), sets + sets[:1])


def test_changed_verdict_is_caught():
    report = certify.structural_tests(fixtures.g36_1(), 6, None)
    result = {"passed": report.passed, "witnesses": report.witnesses}
    expected = workloads.SCREEN["G36_1"]
    assert oracles.screen_problem(result, expected) is None
    flipped = json.loads(json.dumps(result))
    flipped["witnesses"]["T1"]["pass"] = False
    assert "differs" in oracles.screen_problem(flipped, expected)
    failing = dict(result, passed=False)
    assert "differs" in oracles.screen_problem(failing, expected)
    certified = dict(expected, certified=True)
    assert "certified" in oracles.screen_problem(failing, certified)


def test_only_the_recorded_c4n4_rejections_are_expected():
    report = json.dumps([{"checkName": n, "pass": n not in workloads.REJECTED_CHECKS}
                         for n in ("difference-set-equation", "rshds-structure", "coset-profile",
                                   "schur", "spectrum", "hadamard")])
    refusal = workloads.EXPORT_REFUSAL + "\n"
    assert run.recorded_rejection("c4n:4", "certify", run.Proc(1, 1.0, 30.0, report, ""))
    assert run.recorded_rejection("c4n:4", "export-hadamard", run.Proc(1, 1.0, 30.0, "", refusal))
    traceback = "Traceback (most recent call last):\n  ...\nKeyError: 3\n"
    assert not run.recorded_rejection("c4n:4", "certify", run.Proc(1, 1.0, 30.0, "", traceback))
    assert not run.recorded_rejection("c4n:4", "export-hadamard", run.Proc(1, 1.0, 30.0, "", traceback))
    assert not run.recorded_rejection(
        "c4n:4", "export-hadamard", run.Proc(1, 1.0, 30.0, "", traceback + refusal))
    other = json.dumps([{"checkName": "difference-set-equation", "pass": False}])
    assert not run.recorded_rejection("c4n:4", "certify", run.Proc(1, 1.0, 30.0, other, ""))
    assert not run.recorded_rejection("gnk:4,2", "certify", run.Proc(1, 1.0, 30.0, report, ""))
    assert not run.recorded_rejection("c4n:4", "construct", run.Proc(1, 1.0, 30.0, "", refusal))


def _fake_round(wall: float, broken: bool = False):
    calls = []

    def fake(ctx, plan, traced):
        calls.append(traced)
        return run.RoundResult(wall, {}, 1.0, [run.Op("x", "died" if broken else None)],
                               broken=broken)
    return fake, calls


def test_slow_untraced_round_still_gets_its_traced_round():
    ctx = SimpleNamespace(deadline=time.monotonic() + 10.0)  # a 30 s round would overrun it
    fake, calls = _fake_round(30.0)
    plain, traced = run.run_rounds(fake, ctx, {}, 60.0, trace=True)
    assert calls == [False, True] and len(plain) == 1 and len(traced) == 1
    fake, calls = _fake_round(30.0)
    plain, traced = run.run_rounds(fake, ctx, {}, 60.0, trace=False)
    assert calls == [False] and len(plain) == 1 and not traced
    fake, calls = _fake_round(0.0)  # the time is up after the first round
    plain, traced = run.run_rounds(fake, ctx, {}, 0.0, trace=True)
    assert calls == [False, True]


def test_rounds_repeat_until_the_time_is_up():
    ctx = SimpleNamespace(deadline=time.monotonic() + 1000.0)
    fake, calls = _fake_round(0.0)
    between = []
    plain, traced = run.run_rounds(fake, ctx, {}, 0.05, trace=True, between=lambda: between.append(1))
    assert len(calls) > 2 and calls[:4] == [False, True, False, True]
    assert len(between) == len(calls) and len(plain) + len(traced) == len(calls)


def test_traced_run_without_a_traced_round_fails():
    ctx = SimpleNamespace(deadline=time.monotonic() + 1000.0)
    fake, calls = _fake_round(1.0, broken=True)
    with pytest.raises(RuntimeError, match="no traced round"):
        run.run_rounds(fake, ctx, {}, 60.0, trace=True)
    assert calls == [False]


def test_figures_are_round_means_divided_by_the_slowdown():
    rounds = [
        run.RoundResult(4.0, {"construct gnk:2,0": 1.0, "construct gnk:4,2": 2.5}, 50.0, []),
        run.RoundResult(3.0, {"construct gnk:2,0": 1.5, "construct gnk:4,2": 1.5}, 40.0, []),
    ]
    factor = run.slowdown([run.PROBE_REF_S, 3 * run.PROBE_REF_S])
    assert factor == pytest.approx(2.0)
    figures = run.end_to_end("certify-ladder", rounds, factor)
    assert figures["wall_s"] == pytest.approx(1.75)
    assert figures["top_rung_s"] == pytest.approx(1.0) == pytest.approx(figures["matrix_256_s"])
    assert figures["rest_s"] == pytest.approx(0.75) and figures["peak_rss_mb"] == 40.0


def test_relabelling_keeps_the_group_and_its_verdict():
    original = fixtures.g36_1()
    group, perm = relabel(original, random.Random(5))
    groups.validate_group_table(group.table)
    assert perm[0] == 0 and sorted(perm) == list(range(36))
    assert group.mul(perm[7], perm[11]) == perm[original.mul(7, 11)]
    report = certify.structural_tests(group, 6, None)
    assert oracles.screen_problem(
        {"passed": report.passed, "witnesses": report.witnesses}, workloads.SCREEN["G36_1"]
    ) is None


def _bindings():
    """Every attribute the tracer may replace: rshds module globals and group class dicts."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "rshds" or name.startswith("rshds."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in vars(groups).values():
        if inspect.isclass(cls) and issubclass(cls, groups.FiniteGroup):
            out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_tracer_records_and_then_removes_every_wrapper():
    from rshds import cli  # noqa: F401  (the tracer wraps the CLI too)

    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert certify.check_difference_set is not before[("rshds.certify", "check_difference_set")]
        assert sys.modules["rshds.cli"].closure is not before[("rshds.cli", "closure")]
        cand = constructions.gnk_difference_set(2, 0)
        assert certify.check_difference_set(cand.group, cand.elements).passed
        certify.structural_tests(fixtures.g36_1(), 6, None)
    finally:
        t.remove()
    assert _bindings() == before
    assert all(before[k] is v for k, v in _bindings().items())
    metrics = tracer.summarize([t.snapshot()])
    assert metrics["groups.table_builds"] == 1
    assert metrics["algebra.convolve_calls"] == 1
    assert metrics["algebra.max_abs_coeff"] == 6  # k = 6 at the identity for h = 4
    assert metrics["groups.mul_calls"] > 0 and metrics["groups.closure_calls"] > 0
    assert metrics["groups.subgroups_found"] > 0
    names = {s[0] for s in t.spans}
    assert "certify.check_difference_set" in names and "groups.closure_members" not in names


def test_self_time_subtracts_direct_children():
    t = tracer.Tracer()
    inner = t.span("x.inner", lambda: sum(range(20000)))
    outer = t.span("x.outer", lambda: [inner() for _ in range(3)])
    outer()
    calls, total, self_s = t.stats["x.outer"]
    assert calls == 1 and t.stats["x.inner"][0] == 3
    assert self_s == pytest.approx(total - t.stats["x.inner"][1])
    assert [s[1] for s in t.spans] == [-1, 0, 0, 0]


def test_benchmark_json_lists_every_reported_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer = list(tracer.summarize([{"stats": {}, "counters": {}, "maxima": {}, "values": {}}]))
    assert sorted(m["name"] for m in doc["per_layer"]) == sorted(layer + ["trace.overhead_s"])
    assert [m["name"] for m in doc["end_to_end"]] == ["setup_s", "wall_s", "top_rung_s", "peak_rss_mb"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
