"""Fresh-interpreter side of the benchmark.

    python3 perfbench/worker.py setup WORKLOAD SEED DIR
        build the workload's inputs in DIR and write DIR/plan.json
    python3 perfbench/worker.py round DIR [--spans FILE]
        run one screen or search round from DIR/plan.json, write DIR/result.json
    python3 perfbench/worker.py cli --spans FILE -- ARGS...
        run ``rshds ARGS`` with the tracer installed

Run with ``src`` on PYTHONPATH.  With ``--spans`` the tracer wraps the
library before any work starts and dumps its spans to FILE at the end.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from rshds import certify, cli, constructions, fixtures, formats, groups  # noqa: E402

from perfbench import workloads as W  # noqa: E402
from perfbench.probe import probe  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def _screen_group(name: str) -> groups.FiniteGroup:
    cyc, dih, prod = groups.cyclic_group, groups.dihedral_group, groups.direct_product
    if name == "G36_1":
        return fixtures.g36_1()
    if ":" in name:
        return formats.build_group(name)
    left, right = name.split("x")
    factor = {"C": cyc, "D": dih}
    return prod(factor[left[0]](int(left[1:])), factor[right[0]](int(right[1:])))


def relabel(group: groups.FiniteGroup, rng: random.Random):
    """Copy of the group's table under a random relabelling fixing the identity.

    Returns the relabelled table group and the map old index -> new index.
    """
    n = group.order
    rest = list(range(1, n))
    rng.shuffle(rest)
    perm = [0] + rest
    table = [[0] * n for _ in range(n)]
    for a, row in enumerate(group.table):
        new_row = table[perm[a]]
        for b, ab in enumerate(row):
            new_row[perm[b]] = perm[ab]
    names = [""] * n
    for a in range(n):
        names[perm[a]] = group.element_name(a)
    return groups.CayleyTableGroup(table, names=names), perm


def _file_name(name: str, suffix: str) -> str:
    return name.replace(":", "_").replace(",", "_") + suffix


def _g36_normal_6(group: groups.FiniteGroup) -> groups.Subgroup:
    normal = [s for s in groups.subgroups_of_order(group, 6) if groups.is_normal(group, s)]
    if len(normal) != 1:
        raise RuntimeError(f"G36_1 has {len(normal)} normal subgroups of order 6, expected 1")
    return normal[0]


def setup(workload: str, seed: int, directory: Path) -> None:
    rng = random.Random(seed)
    items = []
    if workload == "certify-ladder":
        items = [{"kind": "chain", "spec": s} for s in W.LADDER]
        items.append({"kind": "thm81", "spec": W.THM81_SPEC})
    elif workload == "screen":
        for name, info in W.SCREEN.items():
            original = _screen_group(name)
            for copy in range(W.SCREEN_COPIES):
                group, perm = relabel(original, rng)
                path = _file_name(f"{name}_{copy}", ".cayley.json")
                formats.write_cayley(group, directory / path)
                item = {"kind": "screen", "name": f"{name}#{copy}", "group": name, "file": path,
                        "h": info["h"], "subgroup": None}
                if info.get("with_subgroup"):
                    item["subgroup"] = sorted(perm[m] for m in original.distinguished_subgroup().members)
                items.append(item)
        candidate = constructions.gnk_difference_set(*map(int, W.QUOTIENT_SPEC[4:].split(",")))
        for copy in range(W.SCREEN_COPIES):
            group, perm = relabel(candidate.group, rng)
            table_path = _file_name(f"{W.QUOTIENT_SPEC}_{copy}", ".cayley.json")
            formats.write_cayley(group, directory / table_path)
            dset_path = _file_name(f"{W.QUOTIENT_SPEC}_{copy}", ".dset.json")
            formats.write_dset(
                directory / dset_path,
                f"file:{table_path}",
                sorted(perm[m] for m in candidate.subgroup.members),
                [perm[e] for e in candidate.elements],
            )
            items.append({"kind": "quotient", "name": f"quotient {W.QUOTIENT_SPEC}#{copy}",
                          "dset": dset_path})
    elif workload == "search":
        g36 = fixtures.g36_1()
        g36_normal = _g36_normal_6(g36).members
        for name, info in W.SEARCH.items():
            for copy in range(info.get("copies", 1)):
                item = {"kind": "search", "name": f"{name}#{copy}", "group": name, "spec": name,
                        "subgroup": None, "budget": info.get("budget")}
                if name == "G36_1":
                    group, perm = relabel(g36, rng)
                    path = _file_name(f"{name}_{copy}", ".cayley.json")
                    formats.write_cayley(group, directory / path)
                    item["spec"] = f"file:{path}"
                    item["subgroup"] = sorted(perm[m] for m in g36_normal)
                items.append(item)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    plan = {"workload": workload, "seed": seed, "items": items}
    (directory / "plan.json").write_text(json.dumps(plan, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# screen and search rounds
# ---------------------------------------------------------------------------


def _screen_item(item: dict) -> dict:
    group = formats.read_cayley(item["file"])
    sub = groups.Subgroup(group, item["subgroup"]) if item["subgroup"] is not None else None
    report = certify.structural_tests(group, item["h"], sub)
    return {"passed": report.passed, "witnesses": report.witnesses}


def _quotient_item(item: dict) -> dict:
    group, sub, elements, _ = formats.read_dset(item["dset"])
    kernels = groups.normal_subgroups_of_prime_index(group)
    reports = [certify.quotient_check(group, sub, elements, n) for n, _ in kernels]
    return {"checks": [{"passed": r.passed, "witnesses": r.witnesses} for r in reports]}


def _search_item(item: dict) -> dict:
    group = formats.build_group(item["spec"])
    if item["subgroup"] is None:
        sub = group.distinguished_subgroup()
    else:
        sub = groups.Subgroup(group, item["subgroup"])
    try:
        result = constructions.exhaustive_search(group, sub, budget=item["budget"])
    except constructions.BudgetExceededError as exc:
        return {"budget_stop": True, "nodes": exc.nodes, "leaves": exc.leaves, "found": exc.found}
    return {"count": result.count, "nodes": result.nodes, "leaves": result.leaves,
            "sets": [list(c.elements) for c in result.candidates]}


ITEM_RUNNERS = {"screen": _screen_item, "quotient": _quotient_item, "search": _search_item}


def run_round(directory: Path) -> None:
    plan = json.loads((directory / "plan.json").read_text(encoding="utf-8"))
    results, probes = [], []
    for item in plan["items"]:
        probes.append(probe())
        start = time.perf_counter()
        try:
            out = ITEM_RUNNERS[item["kind"]](item)
        except Exception:  # reported as a failed operation, the round goes on
            out = {"error": traceback.format_exc(limit=-2).strip().replace("\n", " | ")}
        out["seconds"] = time.perf_counter() - start
        out["name"] = item["name"]
        results.append(out)
    doc = {"items": results, "probes": probes}
    (directory / "result.json").write_text(json.dumps(doc) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    modes = parser.add_subparsers(dest="mode", required=True)
    p = modes.add_parser("setup")
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("dir", type=Path)
    p = modes.add_parser("round")
    p.add_argument("dir", type=Path)
    p.add_argument("--spans")
    p = modes.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args.workload, args.seed, args.dir)
        return 0
    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
        tracer.values["cli.process_start_s"] = time.time() - float(os.environ["PERFBENCH_SPAWN_T"])
    try:
        if args.mode == "round":
            os.chdir(args.dir)
            run_round(Path("."))
            return 0
        return cli.main(args.args[1:] if args.args[:1] == ["--"] else args.args)
    finally:
        if tracer is not None:
            tracer.remove()
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
