"""Span tracer that wraps the public functions of the rshds modules from outside.

``Tracer.install`` replaces every public function of each layer module with a
wrapper in every ``rshds`` module namespace that holds it, so calls made
through ``from .groups import closure`` are seen too.  Each wrapped call is a
span with a parent: self time is the span's duration minus the durations of
its direct child spans.  Per-element group operations (``mul``, ``inv``) get
counters only, and the per-candidate closure routines keep no span record
(they run hundreds of thousands of times in one screening round) but still
count towards their callers' child time.  ``Tracer.remove`` restores every
original object.

``summarize`` turns the dumps of all processes of one round into the per-layer
metrics listed in ``BENCHMARK.json``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional

LAYERS = ("groups", "algebra", "certify", "constructions", "formats", "cli")
COUNTED_METHODS = {"mul": ("groups.mul_calls", 2), "inv": ("groups.inv_calls", 1)}
TABLE_BUILD = "groups.table_build"
# Called once per candidate generating set inside subgroup enumeration: timed
# and counted, but not kept as individual span records.
UNRECORDED = frozenset({"groups.closure", "groups.closure_members"})


def _coeff_bound(tracer: "Tracer", args, kwargs, result, exc) -> None:
    if exc is not None:
        return
    top = max(max(map(abs, v.coeffs)) for v in (*args[:2], result))
    if top > tracer.maxima.get("algebra.max_abs_coeff", 0):
        tracer.maxima["algebra.max_abs_coeff"] = top


def _search_counts(tracer: "Tracer", args, kwargs, result, exc) -> None:
    if exc is None:
        nodes, leaves, found = result.nodes, result.leaves, result.count
    elif hasattr(exc, "nodes"):
        nodes, leaves, found = exc.nodes, exc.leaves, exc.found
    else:
        return
    tracer.count("search.nodes", nodes)
    tracer.count("search.leaves", leaves)
    tracer.count("search.found", found)


def _subgroups_found(tracer: "Tracer", args, kwargs, result, exc) -> None:
    if exc is None:
        tracer.count("groups.subgroups_found", len(result))


def _bytes_hook(key: str) -> Callable:
    """Adds the size of the file named by the call's first argument."""
    def hook(tracer: "Tracer", args, kwargs, result, exc) -> None:
        if exc is None:
            tracer.count(key, os.path.getsize(args[0]))

    return hook


# Post-call hooks: they run after the span has closed, so their cost is not
# charged to the layer they measure.
HOOKS = {
    "algebra.convolve": _coeff_bound,
    "constructions.exhaustive_search": _search_counts,
    "groups.subgroups_of_order": _subgroups_found,
    "formats.write_hadamard": _bytes_hook("formats.hadamard_bytes"),
    "formats.read_cayley": _bytes_hook("formats.cayley_bytes"),
}


class Tracer:
    """In-memory spans, per-name aggregates and counters for one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, parent index, start, end]
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: Dict[str, int] = {}
        self.maxima: Dict[str, int] = {}
        self.values: Dict[str, float] = {}
        self._cells: Dict[str, List[int]] = {}  # hot call counters
        self._stack: List[list] = []  # [name, record index or -1, start, child_s]
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def span(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so that every call is a span named ``name``; ``hook`` runs after it."""
        stack, spans, stats, clock = self._stack, self.spans, self.stats, time.perf_counter
        keep = name not in UNRECORDED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if keep:
                index = len(spans)
                spans.append([name, parent, 0.0, 0.0])
            else:
                index = parent
            frame = [name, index, clock(), 0.0]
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                if keep:
                    spans[index][2:] = [frame[2], end]
                agg = stats.get(name)
                if agg is None:
                    agg = stats[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                if hook is not None:
                    hook(self, args, kwargs, result, exc)

        return wrapper

    def counter(self, key: str, fn: Callable, arity: int) -> Callable:
        """Count calls of a group method taking ``arity`` element arguments.

        Fixed arity and a list cell keep the cost near 50 ns a call; a
        screening round makes over 10^7 of them.
        """
        cell = self._cells.setdefault(key, [0])
        if arity == 2:
            def wrapper(group, a, b):
                cell[0] += 1
                return fn(group, a, b)
        else:
            def wrapper(group, a):
                cell[0] += 1
                return fn(group, a)
        return functools.wraps(fn)(wrapper)

    # -- installing and removing wrappers ------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public function of the layer modules, everywhere it is bound."""
        layer_modules = [importlib.import_module(f"rshds.{layer}") for layer in LAYERS]
        namespaces = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "rshds" or name.startswith("rshds."))
        ]
        for layer, mod in zip(LAYERS, layer_modules):
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and not attr.startswith("_cmd_"):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.span(name, obj, HOOKS.get(name))
                for ns in namespaces:
                    if vars(ns).get(attr) is obj:
                        self._patch(ns, attr, wrapped)
        groups = layer_modules[0]
        for cls in vars(groups).values():
            if not (inspect.isclass(cls) and issubclass(cls, groups.FiniteGroup)):
                continue
            for meth, (key, arity) in COUNTED_METHODS.items():
                if meth in vars(cls):
                    self._patch(cls, meth, self.counter(key, vars(cls)[meth], arity))
        table = vars(groups.FiniteGroup)["table"]
        build = self.span(TABLE_BUILD, table.fget)

        def traced_table(group):
            if getattr(group, "_table", None) is None:
                return build(group)
            return table.fget(group)

        self._patch(groups.FiniteGroup, "table", property(traced_table, doc=table.__doc__))

    def remove(self) -> None:
        """Put back every object ``install`` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """Everything recorded so far, in the form ``summarize`` reads."""
        return {
            "spans": self.spans,
            "stats": self.stats,
            "counters": {**self.counters, **{k: c[0] for k, c in self._cells.items()}},
            "maxima": self.maxima,
            "values": self.values,
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

CERTIFY_FUNCTIONS = (
    "check_difference_set", "check_rshds", "coset_profile", "check_schur_ring",
    "spectrum", "check_hadamard", "hadamard_matrix", "structural_tests", "quotient_check",
)
CLI_SUBCOMMANDS = ("construct", "certify", "export_hadamard", "thm81")

# metric -> span names whose self time it sums
SELF_TIME = {
    "groups.table_build_s": [TABLE_BUILD],
    "groups.closure_s": ["groups.closure", "groups.closure_members"],
    "groups.subgroups_of_order_s": ["groups.subgroups_of_order"],
    "groups.is_normal_s": ["groups.is_normal"],
    "groups.quotient_s": ["groups.quotient"],
    "groups.cosets_s": ["groups.cosets"],
    "groups.normal_prime_index_s": ["groups.normal_subgroups_of_prime_index"],
    "algebra.convolve_s": ["algebra.convolve"],
    **{f"certify.{fn}_s": [f"certify.{fn}"] for fn in CERTIFY_FUNCTIONS},
    "constructions.gnk_s": ["constructions.gnk_difference_set"],
    "constructions.c4n_s": ["constructions.c4n_difference_set", "constructions.c4n_standard_assignment"],
    "constructions.thm81_s": [
        "constructions.find_hyperplane_assignment",
        "constructions.assignment_difference_set",
        "constructions.verify_hyperplane_assignment",
    ],
    "constructions.search_s": ["constructions.exhaustive_search"],
    "formats.write_dset_s": ["formats.write_dset"],
    "formats.read_dset_s": ["formats.read_dset"],
    "formats.write_hadamard_s": ["formats.write_hadamard"],
    "formats.read_cayley_s": ["formats.read_cayley"],
    **{f"cli.{sub}_s": [f"cli._cmd_{sub}"] for sub in CLI_SUBCOMMANDS},
}
# metric -> span names whose call count it sums
CALLS = {
    "groups.table_builds": [TABLE_BUILD],
    "groups.closure_calls": ["groups.closure", "groups.closure_members"],
    "groups.is_normal_calls": ["groups.is_normal"],
    "algebra.convolve_calls": ["algebra.convolve"],
}
COUNTERS = (
    "groups.mul_calls", "groups.inv_calls", "groups.subgroups_found",
    "search.nodes", "search.leaves", "search.found",
    "formats.hadamard_bytes", "formats.cayley_bytes",
)
MAXIMA = ("algebra.max_abs_coeff",)
VALUES = ("cli.process_start_s",)


def summarize(dumps: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of one round from the dumps of all its processes.

    Times are self times in seconds summed over processes; counters and call
    counts are summed; maxima are maximised.  ``<layer>.self_s`` is the self
    time of every span of that layer, listed or not.
    """
    stats: Dict[str, List[float]] = {}
    out: Dict[str, float] = {}
    for d in dumps:
        for name, (calls, total, self_s) in d["stats"].items():
            agg = stats.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
    for metric, names in SELF_TIME.items():
        out[metric] = sum(stats[n][2] for n in names if n in stats)
    for metric, names in CALLS.items():
        out[metric] = sum(stats[n][0] for n in names if n in stats)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            s[2] for n, s in stats.items() if n.startswith(layer + ".")
        )
    for key in COUNTERS:
        out[key] = sum(d["counters"].get(key, 0) for d in dumps)
    for key in MAXIMA:
        out[key] = max((d["maxima"].get(key, 0) for d in dumps), default=0)
    for key in VALUES:
        out[key] = sum(d["values"].get(key, 0.0) for d in dumps)
    out["search.leaf_ratio"] = (
        out["search.leaves"] / out["search.nodes"] if out["search.nodes"] else 0.0
    )
    return out
