"""What each workload runs, and the answers its oracles expect.

Plain data, shared by the driver (``run.py``) and the fresh-interpreter
worker (``worker.py``).  A run repeats one round of its workload's items
until its time is up, so every item here lasts at most about a second: a
run of many short rounds samples the host's speed evenly.
"""
from __future__ import annotations

# -- certify-ladder: construct -> certify -> export-hadamard per spec, plus thm81
LADDER = ("gnk:2,0", "gnk:3,1", "gnk:4,2", "c4n:4")
TOP_RUNG = ("gnk:4,2", "c4n:4")  # order 256: both chains and thm81 gnk:4,2
THM81_SPEC = "gnk:4,2"
# At the seed, certify (default checks) and export-hadamard reject the valid
# self-inverse c4n:4 set with exit code 1.  These count as failed operations
# when they look exactly like this: certify's --json report fails these checks
# and no others, and export-hadamard prints the refusal without a traceback.
# Any other failure makes the run incorrect.
REJECTED_SPEC = "c4n:4"
REJECTED_CHECKS = ["rshds-structure", "schur", "spectrum", "hadamard"]
EXPORT_REFUSAL = "refusing to export: candidate is not a certified m=0 set"


def _w(t1, t2, t3, t4):
    return {"T1": t1, "T2": t2, "T3": t3, "T4": t4}


def _t1(ok, core, prime, swallowing):
    return {"pass": ok, "core_order": core, "prime_index_kernels": prime, "swallowing_kernels": swallowing}


def _t2(ok, closure_order):
    return {"pass": ok, "involution_closure_order": closure_order}


def _t3(ok, normal):
    return {"pass": ok, "normal_subgroups_of_order_h": normal}


# -- screen: structural_tests on relabelled cayley-v1 tables.  Verdicts and
# label-free witnesses as the seed version reports them; groups that carry a
# certified set must pass.  "with_subgroup" passes the distinguished subgroup
# so that T4 runs.  The order-144 groups are left out: one screen there takes
# 1.5 s (C12xC12, 20% more or less depending on the labels) to 13 s (D6xD6),
# and would leave a run only a few rounds.
SCREEN = {
    "G36_1": {"h": 6, "passed": True, "witnesses": _w(
        _t1(True, 6, 1, 1), _t2(True, 2), _t3(True, 1), {"pass": None})},
    "C6xC6": {"h": 6, "passed": False, "witnesses": _w(
        _t1(False, 1, 7, 18), _t2(False, 4), _t3(True, 12), {"pass": None})},
    "D3xC6": {"h": 6, "passed": False, "witnesses": _w(
        _t1(False, 1, 4, 7), _t2(False, 12), _t3(True, 4), {"pass": None})},
    "C10xC10": {"h": 10, "passed": False, "witnesses": _w(
        _t1(False, 1, 9, 19), _t2(False, 4), _t3(True, 18), {"pass": None})},
    "D5xD5": {"h": 10, "passed": False, "witnesses": _w(
        _t1(False, 1, 3, 3), _t2(False, 100), _t3(True, 2), {"pass": None})},
    "gnk:3,1": {"h": 8, "with_subgroup": True, "certified": True, "passed": True, "witnesses": _w(
        _t1(True, 8, 7, 8), _t2(True, 8), _t3(True, 19), {"pass": True})},
    "c4n:3": {"h": 8, "with_subgroup": True, "certified": True, "passed": True, "witnesses": _w(
        _t1(True, 8, 7, 8), _t2(True, 8), _t3(True, 43), {"pass": True})},
}
SCREEN_TOP = ("C10xC10", "D5xD5")  # order 100; their time does not depend on the labels
# Each group and the quotient checks appear this many times in a round, each
# copy under its own relabelling: the time of the order-64 screens and of the
# quotient checks moves by up to 20% with the labels, and a sum over copies
# keeps the seed from deciding the figure.
SCREEN_COPIES = 3
QUOTIENT_SPEC = "gnk:4,2"
QUOTIENT_KERNELS = 15

# -- search: complete enumerations and budgeted runs of exhaustive_search.
# The search tree on G36_1 depends on the element labels (5984 to 8264 nodes,
# 0.20 to 0.27 s), so it appears under eight relabellings; the budgeted runs
# on gnk:3,1 and c4n:3 build their groups from the spec and need one copy.
SEARCH = {
    "gnk:2,0": {"count": 16},
    "c4n:2": {"count": 16},
    "G36_1": {"count": 0, "copies": 8},
    "gnk:3,1": {"budget": 750},
    "c4n:3": {"budget": 2000},
}
SEARCH_TOP = ("gnk:3,1", "c4n:3")

WORKLOADS = ("certify-ladder", "screen", "search")


def is_top(workload: str, label: str) -> bool:
    """Whether a timed item belongs to the workload's largest rung (``top_rung_s``).

    certify-ladder labels are "<step> <spec>"; screen and search items are
    labelled "<name>#<copy>".
    """
    if workload == "certify-ladder":
        return label.split()[-1] in TOP_RUNG
    return label.split("#")[0] in (SCREEN_TOP if workload == "screen" else SEARCH_TOP)
