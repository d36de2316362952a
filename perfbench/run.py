"""Benchmark for rshds: certify-ladder, screen and search workloads.

    python3 perfbench/run.py --workload certify-ladder --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout (it needs ``src/rshds``).  A run
repeats one round of its workload's items until ``--seconds`` have passed.
Every round runs in fresh interpreters, one process at a time, because CLI
users pay a cold start and rebuild tables on every invocation.  The seed
relabels the elements of every table input (identity kept at 0) and shuffles
the order of items in a round; verdicts and counts do not depend on it.
Times are reported in reference seconds (see ``slowdown``): on a shared
host, phases of a fraction of a second to minutes run the same CPU-bound
code 15-60% slower (CPU time rises with wall time, so it is contention on
the core, not preemption), so the run times a fixed probe loop between its
items and divides every time by the host's slowdown over the run.
``wall_s`` is the mean round time and ``setup_s`` the median of several
set-ups spread over the run.
Outputs are checked by oracles outside the timed region, and the last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 1`` the run alternates untraced and traced
rounds and reports per-layer metrics plus the tracing overhead (traced minus
untraced round time).
``--workload all`` runs the three workloads one after another.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The oracles' numpy calls run single-threaded: idle BLAS threads spin for a
# while after each call and would compete with the next timed process.  The
# processes under test get the environment as it was.
CHILD_ENV = dict(os.environ)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import oracles, workloads as W  # noqa: E402
from perfbench.probe import probe  # noqa: E402
from perfbench.tracer import summarize  # noqa: E402

WORKER = ROOT / "perfbench" / "worker.py"
# Set-ups per run: one before the first round, one after each of the next
# rounds, and the rest after the last round, so that they sample the whole run.
SETUP_REPEATS = 7
# Best probe time (perfbench/probe.py) seen on a 2.1 GHz Xeon vCPU of a
# shared host: a reference second is a second of that host at its quietest.
PROBE_REF_S = 0.0025
RUN_DEADLINE_S = 165.0  # every run must end within 180 s
PROCESS_TIMEOUT_S = 150.0

# Figures printed for reading only: rest_s and workload-specific names.
ALIASES = {
    "certify-ladder": {"rest_s": "s", "matrix_256_s": "s"},
    "screen": {"rest_s": "s", "screen_100_s": "s"},
    "search": {"rest_s": "s", "nodes_per_s": "1/s"},
}


@dataclass
class Proc:
    rc: int
    seconds: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Op:
    name: str
    problem: Optional[str] = None
    expected_failure: bool = False


@dataclass
class RoundResult:
    wall: float
    items: Dict[str, float]  # seconds per timed item: a CLI process, a screen, a search
    rss_mb: float
    ops: List[Op]
    dumps: List[dict] = field(default_factory=list)
    broken: bool = False  # the round's worker died; later rounds would fail the same way


class Context:
    """Per-run state: the work directory, child environment and cached oracle tables."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(CHILD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), CHILD_ENV.get("PYTHONPATH", "")) if p
        )
        self.tables: Dict[str, object] = {}
        self.spans = 0
        self.probes: List[float] = []

    def table(self, spec: str):
        if spec not in self.tables:
            path_spec = spec if not spec.startswith("file:") else f"file:{self.work / spec[5:]}"
            self.tables[spec] = oracles.spec_table(path_spec)
        return self.tables[spec]

    def spans_file(self) -> Path:
        self.spans += 1
        return self.work / "spans" / f"{self.spans}.json"

    def spawn(self, cmd: List[str]) -> Proc:
        """Probe the host, then run one process to completion; records wall time and peak RSS."""
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        self.probes.append(probe())
        timeout = max(1.0, min(PROCESS_TIMEOUT_S, self.deadline - time.monotonic()))
        env = dict(self.env, PERFBENCH_SPAWN_T=repr(time.time()))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=env, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            proc.returncode,
            seconds,
            usage.ru_maxrss / 1024.0,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def rshds(self, args: List[str], spans: Optional[Path]) -> Proc:
        if spans is None:
            return self.spawn([sys.executable, "-m", "rshds.cli", *args])
        return self.spawn([sys.executable, str(WORKER), "cli", "--spans", str(spans), "--", *args])


def _stem(spec: str) -> str:
    return spec.replace(":", "_").replace(",", "_")


def _load_dumps(paths: List[Path]) -> List[dict]:
    dumps = []
    for p in paths:
        if p.exists():
            dumps.append(json.loads(p.read_text(encoding="utf-8")))
            p.unlink()
    return dumps


def _failure(proc: Proc) -> str:
    tail = (proc.stderr.strip().splitlines() or proc.stdout.strip().splitlines() or [""])[-1]
    return f"exit code {proc.rc}: {tail[:200]}"


# ---------------------------------------------------------------------------
# certify-ladder
# ---------------------------------------------------------------------------


def _ladder_steps(item: dict):
    spec, stem = item["spec"], _stem(item["spec"])
    if item["kind"] == "thm81":
        return [("thm81", ["thm81", spec, "distinguished", "--out", f"{stem}.thm81.dset.json"])]
    return [
        ("construct", ["construct", spec, "--out", f"{stem}.dset.json"]),
        ("certify", ["certify", f"{stem}.dset.json", "--json"]),
        ("export-hadamard", ["export-hadamard", f"{stem}.dset.json", "--out", f"{stem}.had"]),
    ]


def _written_set(ctx: Context, path: str, spec: str):
    """Elements of a dset-v1 file the CLI wrote, checked against the numpy oracle."""
    doc = json.loads((ctx.work / path).read_text(encoding="utf-8"))
    if doc.get("group") != spec or doc.get("subgroup") != "distinguished":
        return None, f"{path} names group {doc.get('group')!r}, subgroup {doc.get('subgroup')!r}"
    table = ctx.table(spec)
    h = math.isqrt(len(table))
    # the distinguished subgroup is the first coset in the documented element order
    return doc["elements"], oracles.difference_set_problem(table, range(h), doc["elements"])


def _failing_checks(proc: Proc) -> Optional[List[str]]:
    """Names of the failing checks in a ``certify --json`` report, None if unreadable."""
    try:
        return [r["checkName"] for r in json.loads(proc.stdout) if not r["pass"]]
    except (ValueError, KeyError, TypeError):
        return None


def recorded_rejection(spec: str, step: str, proc: Proc) -> bool:
    """Whether a failed step is exactly the seed's rejection of c4n:4 (ROADMAP item 3)."""
    if spec != W.REJECTED_SPEC or proc.rc != 1 or "Traceback" in proc.stderr:
        return False
    if step == "certify":
        return _failing_checks(proc) == W.REJECTED_CHECKS
    if step == "export-hadamard":
        return W.EXPORT_REFUSAL in proc.stderr
    return False


def _ladder_oracle(ctx: Context, item: dict, step: str, args: List[str], proc: Proc) -> Op:
    # imported here, not at the top, so that a checkout without src/ fails cleanly in main()
    from rshds import formats

    spec = item["spec"]
    op = Op(f"{step} {spec}")
    if proc.rc != 0:
        op.problem = _failure(proc)
        failing = _failing_checks(proc) if step == "certify" else None
        if failing is not None:
            op.problem = f"exit code {proc.rc}, failing checks {failing}"
        op.expected_failure = recorded_rejection(spec, step, proc)
        return op
    try:
        if step in ("construct", "thm81"):
            op.problem = _written_set(ctx, args[args.index("--out") + 1], spec)[1]
        elif step == "certify":
            failed = _failing_checks(proc)
            if failed is None:
                op.problem = "unreadable certify --json report"
            elif failed:
                op.problem = f"exit code 0 but checks failed: {failed}"
        else:
            elements, problem = _written_set(ctx, args[1], spec)
            if problem is None:
                matrix = formats.read_hadamard(ctx.work / args[args.index("--out") + 1])
                problem = oracles.hadamard_problem(matrix, ctx.table(spec), elements)
            op.problem = problem
    except (OSError, ValueError, KeyError, TypeError) as exc:
        op.problem = f"unreadable output: {type(exc).__name__}: {exc}"
    return op


def ladder_round(ctx: Context, plan: dict, traced: bool) -> RoundResult:
    for old in list(ctx.work.glob("*.dset.json")) + list(ctx.work.glob("*.had")):
        old.unlink()
    runs, spans = [], []
    for item in plan["items"]:
        for step, args in _ladder_steps(item):
            path = ctx.spans_file() if traced else None
            spans.append(path)
            runs.append((item, step, args, ctx.rshds(args, path)))
    items = {f"{step} {item['spec']}": p.seconds for item, step, _, p in runs}
    wall = sum(items.values())  # processes only: no probes, no oracles
    ops = [_ladder_oracle(ctx, item, step, args, p) for item, step, args, p in runs]
    rss = max(p.rss_mb for *_, p in runs)
    return RoundResult(wall, items, rss, ops, _load_dumps([p for p in spans if p]))


# ---------------------------------------------------------------------------
# screen and search: one worker interpreter per round
# ---------------------------------------------------------------------------


def _worker_round(ctx: Context, traced: bool):
    """Run one worker round; returns the process, its results by item name,
    the round time without the worker's probes, and the span dumps."""
    result_path = ctx.work / "result.json"
    if result_path.exists():
        result_path.unlink()
    spans = ctx.spans_file() if traced else None
    cmd = [sys.executable, str(WORKER), "round", str(ctx.work)]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = ctx.spawn(cmd)
    results, wall = {}, proc.seconds
    if proc.rc == 0 and result_path.exists():
        doc = json.loads(result_path.read_text(encoding="utf-8"))
        results = {r["name"]: r for r in doc["items"]}
        ctx.probes += doc["probes"]
        wall -= sum(doc["probes"])
    return proc, results, wall, _load_dumps([spans] if spans else [])


def _missing(plan: dict, results: dict, proc: Proc) -> List[Op]:
    return [Op(item["name"], f"no result: {_failure(proc)}") for item in plan["items"]
            if item["name"] not in results]


def screen_round(ctx: Context, plan: dict, traced: bool) -> RoundResult:
    proc, results, wall, dumps = _worker_round(ctx, traced)
    ops = _missing(plan, results, proc)
    for item in plan["items"]:
        r = results.get(item["name"])
        if r is None:
            continue
        if item["kind"] == "screen":
            ops.append(Op(f"screen {item['name']}", oracles.screen_problem(r, W.SCREEN[item["group"]])))
        elif "error" in r:
            ops.append(Op(item["name"], f"raised {r['error']}"))
        else:
            checks = r["checks"]
            if len(checks) != W.QUOTIENT_KERNELS:
                ops.append(Op(item["name"], f"{len(checks)} prime-index kernels, expected {W.QUOTIENT_KERNELS}"))
            for i, c in enumerate(checks):
                problem = None if c["passed"] else f"quotient check failed: {c['witnesses']}"
                ops.append(Op(f"{item['name']} kernel {i}", problem))
    items = {name: r["seconds"] for name, r in results.items()}
    return RoundResult(wall, items, proc.rss_mb, ops, dumps, broken=not results)


def search_round(ctx: Context, plan: dict, traced: bool) -> RoundResult:
    proc, results, wall, dumps = _worker_round(ctx, traced)
    ops = _missing(plan, results, proc)
    for item in plan["items"]:
        r = results.get(item["name"])
        if r is None:
            continue
        problem = oracles.search_problem(r, W.SEARCH[item["group"]])
        if problem is None and r.get("sets"):
            table = ctx.table(item["spec"])
            sub = item["subgroup"] if item["subgroup"] is not None else range(math.isqrt(len(table)))
            problem = oracles.found_sets_problem(table, sub, r["sets"])
        ops.append(Op(f"search {item['name']}", problem))
    items = {name: r["seconds"] for name, r in results.items()}
    return RoundResult(wall, items, proc.rss_mb, ops, dumps, broken=not results)


ROUNDS = {"certify-ladder": ladder_round, "screen": screen_round, "search": search_round}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def slowdown(probes: List[float]) -> float:
    """How much slower than the reference the host ran over the run.

    The probe samples the host between the timed items all through the run,
    so its mean rises and falls with the mean speed the items got; a time
    divided by this factor is in reference seconds.  Means, not medians or
    best times: an item lasting a second averages the host's speed over that
    second, as the mean of many short probes does.
    """
    return statistics.fmean(probes) / PROBE_REF_S


def end_to_end(workload: str, rounds: List[RoundResult], factor: float) -> Dict[str, float]:
    """Round figures: mean over the rounds, in reference seconds.

    ``rest_s`` includes round time outside any item (worker start and
    imports), and ``wall_s`` is ``top_rung_s + rest_s``.
    """
    wall = statistics.fmean(r.wall for r in rounds) / factor
    top = statistics.fmean(
        sum(v for k, v in r.items.items() if W.is_top(workload, k)) for r in rounds
    ) / factor
    figures = {
        "wall_s": wall,
        "top_rung_s": top,
        "rest_s": wall - top,
        "peak_rss_mb": min(r.rss_mb for r in rounds),
    }
    if workload == "certify-ladder":
        figures["matrix_256_s"] = top
    elif workload == "screen":
        figures["screen_100_s"] = top
    else:
        nodes = sum(W.SEARCH[name]["budget"] + 1 for name in W.SEARCH_TOP)
        figures["nodes_per_s"] = nodes / top
    return figures


def run_rounds(run_round, ctx: Context, plan: dict, seconds: float, trace: bool, between=None):
    """Repeat rounds for ``seconds``; with ``trace``, alternate untraced and traced, untraced first.

    ``between`` is called after every round.  A round that would end past
    the run deadline is skipped, except the first traced round of a traced
    run, which always runs (the process timeout still holds it to the
    deadline).  A traced run that ends without a traced round raises
    RuntimeError.
    """
    plain: List[RoundResult] = []
    traced: List[RoundResult] = []
    last: Optional[RoundResult] = None
    end = time.monotonic() + seconds
    while True:
        want_traced = trace and len(plain) > len(traced)
        must_run = last is None or (want_traced and not traced)
        now = time.monotonic()
        if not must_run and (now >= end or now + 1.5 * last.wall > ctx.deadline):
            break
        last = run_round(ctx, plan, want_traced)
        (traced if want_traced else plain).append(last)
        if last.broken:  # later rounds would fail the same way
            break
        if between is not None:
            between()
    if trace and not traced:
        problems = [f"{op.name}: {op.problem}" for r in plain for op in r.ops if op.problem]
        raise RuntimeError(f"no traced round ran; untraced round problems: {problems[:3]}")
    return plain, traced


def run_workload(workload: str, seed: int, seconds: float, trace: bool, units: Dict[str, dict]) -> dict:
    # One CPU for the driver, its probes and every process it starts: the two
    # vCPUs of a shared host slow down independently, and a probe on the other
    # one tracked the timed processes half as well (correlation 0.45, not 0.85).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "spans").mkdir(parents=True)
    setups: List[float] = []
    try:
        ctx = Context(work, time.monotonic() + RUN_DEADLINE_S)

        def setup() -> None:
            if len(setups) >= SETUP_REPEATS:
                return
            proc = ctx.spawn([sys.executable, str(WORKER), "setup", workload, str(seed), str(work)])
            if proc.rc != 0:
                raise RuntimeError(f"set-up failed: {_failure(proc)}\n{proc.stderr}")
            setups.append(proc.seconds)

        setup()
        plan = json.loads((work / "plan.json").read_text(encoding="utf-8"))
        plain, traced = run_rounds(ROUNDS[workload], ctx, plan, seconds, trace, setup)
        while len(setups) < SETUP_REPEATS:  # same seed, same inputs
            setup()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's directory
            work.parent.rmdir()
    rounds = plain + traced
    ops = [op for r in rounds for op in r.ops]
    bad = [op for op in ops if op.problem and not op.expected_failure]
    failed = sum(1 for op in ops if op.problem)
    for op in ops:
        if op.problem:
            tag = "expected failure" if op.expected_failure else "FAILED"
            print(f"[{workload}] {tag}: {op.name}: {op.problem}")
    print(f"[{workload}] operations: {len(ops)} attempted, {failed} failed, "
          f"failed_frac = {failed / len(ops):.4f}")
    factor = slowdown(ctx.probes)
    print(f"[{workload}] host slowdown {factor:.4f} (mean of {len(ctx.probes)} probes "
          f"{statistics.fmean(ctx.probes) * 1e3:.3f} ms, fastest {min(ctx.probes) * 1e3:.3f} ms); "
          f"times below are divided by it")
    walls = [r.wall for r in plain]
    print(f"[{workload}] {len(plain)} untraced rounds, measured: fastest {min(walls):.4g} s, "
          f"mean {statistics.fmean(walls):.4g} s, slowest {max(walls):.4g} s; {len(setups)} set-ups: "
          f"fastest {min(setups):.4g} s, median {statistics.median(setups):.4g} s")
    e2e = {"setup_s": statistics.median(setups) / factor, **end_to_end(workload, plain, factor)}
    for name, unit in {**units["end_to_end"], **ALIASES[workload]}.items():
        print(f"[{workload}] {name} = {e2e[name]:.4f} {unit}")
    if trace:
        layer_runs = [summarize(r.dumps) for r in traced]  # run_rounds made at least one
        layer = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
        layer["trace.overhead_s"] = (
            end_to_end(workload, traced, factor)["wall_s"] - e2e["wall_s"]
        )
        for name, unit in units["per_layer"].items():
            print(f"[{workload}] {name} = {layer[name]:.6g} {unit}")
        metrics = {n: {"value": layer[n], "unit": u} for n, u in units["per_layer"].items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in units["end_to_end"].items()}
    return {
        "correct": not bad,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def _units() -> Dict[str, Dict[str, str]]:
    """Metric names and units, in order, from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in doc[kind]} for kind in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rshds" / "__init__.py").is_file():
        print(f"error: {SRC / 'rshds'} not found; run from a full source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one driver process per workload: on Linux a child's peak RSS includes
        # its parent's RSS at spawn, and the certify-ladder oracles grow the parent
        codes = [
            subprocess.call([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", str(args.trace)])
            for w in W.WORKLOADS
        ]
        return max(codes)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), _units())
    except RuntimeError as exc:
        print(f"error: [{args.workload}] {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.path.insert(1, str(SRC))
    sys.exit(main())
