"""Correctness oracles for the benchmark, independent of ``rshds.certify``.

Group tables for the ``gnk:`` and ``c4n:`` specs are rebuilt here with numpy
from the product laws and the element order documented in ``rshds.groups``;
table inputs are read back from the cayley-v1 files the set-up wrote.  Each
check returns ``None`` when the output is right and a one-line reason when
it is not.
"""
from __future__ import annotations

import itertools
import json
from typing import Dict, List, Optional, Sequence

import numpy as np


def gnk_table(n: int, k: int) -> np.ndarray:
    """Multiplication table of the gnk:n,k group, index = e * 2^n + f.

    Exponent vectors are read with their first coordinate as the most
    significant bit, which is the lexicographic order of ``f2.all_vectors``.
    The product is (e1 ^ e2, f1 ^ f2 ^ c) where c collects the twists
    a_j a_1 = a_1 a_j b_(j-1) for 2 <= j <= k+1 and the squares
    a_i^2 = b_(i+k mod n).
    """
    m = 1 << n
    e = np.arange(m, dtype=np.int64)
    bit = [(e >> (n - 1 - j)) & 1 for j in range(n)]
    c = np.zeros((m, m), dtype=np.int64)
    for j in range(1, k + 1):
        c ^= (bit[j][:, None] & bit[0][None, :]) << (n - j)
    for i in range(n):
        c ^= (bit[i][:, None] & bit[i][None, :]) << (n - 1 - (i + k) % n)
    f = np.arange(m, dtype=np.int64)
    table = ((e[:, None, None, None] ^ e[None, None, :, None]) << n) | (
        f[None, :, None, None] ^ f[None, None, None, :] ^ c[:, None, :, None]
    )
    return table.reshape(m * m, m * m)


def c4n_table(n: int) -> np.ndarray:
    """Multiplication table of C4^n with words ordered by (parity vector, word)."""
    words = sorted(itertools.product(range(4), repeat=n), key=lambda w: (tuple(x % 2 for x in w), w))
    w = np.asarray(words, dtype=np.int64)
    place = 4 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    index_of_code = np.empty(4**n, dtype=np.int64)
    index_of_code[w @ place] = np.arange(len(words))
    sums = (w[:, None, :] + w[None, :, :]) % 4
    return index_of_code[sums @ place]


def spec_table(spec: str) -> np.ndarray:
    kind, _, params = spec.partition(":")
    if kind == "gnk":
        n, k = (int(x) for x in params.split(","))
        return gnk_table(n, k)
    if kind == "c4n":
        return c4n_table(int(params))
    if kind == "file":
        with open(params, encoding="utf-8") as fh:
            return np.asarray(json.load(fh)["table"], dtype=np.int64)
    raise ValueError(f"unknown group spec {spec!r}")


def inverses(table: np.ndarray) -> np.ndarray:
    """inv[a] is the b with a*b = identity (index 0, the smallest entry)."""
    return np.argmin(table, axis=1)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def difference_set_problem(
    table: np.ndarray, subgroup: Sequence[int], elements: Sequence[int]
) -> Optional[str]:
    """D avoids H and {x y^-1 : x, y in D} hits 1 k times and all else lambda times."""
    v = len(table)
    h = len(subgroup)
    if h * h != v or h % 2:
        return f"subgroup order {h} does not fit group order {v}"
    k, lam = h * (h - 1) // 2, h * (h - 2) // 4
    d = np.asarray(sorted(elements), dtype=np.int64)
    if len(d) != k or len(np.unique(d)) != k:
        return f"set has {len(np.unique(d))} distinct elements, expected k={k}"
    if d.min() < 0 or d.max() >= v:
        return "element index out of range"
    if np.isin(d, np.asarray(subgroup)).any():
        return "set meets the excluded subgroup"
    tally = np.bincount(table[d][:, inverses(table)[d]].ravel(), minlength=v)
    expected = np.full(v, lam)
    expected[0] = k
    bad = np.nonzero(tally != expected)[0]
    if bad.size:
        g = int(bad[0])
        return f"difference tally at element {g} is {int(tally[g])}, expected {int(expected[g])}"
    return None


def hadamard_problem(
    matrix: Sequence[Sequence[int]], table: np.ndarray, elements: Sequence[int]
) -> Optional[str]:
    """H H^T = v I, and H is 2D - J of the set: H[a][b] = +1 iff a b^-1 in D."""
    v = len(table)
    mat = np.asarray(matrix, dtype=np.int64)
    if mat.shape != (v, v):
        return f"matrix shape {mat.shape} != ({v}, {v})"
    if not np.isin(mat, (-1, 1)).all():
        return "matrix has entries other than +-1"
    gram = mat.astype(np.float64) @ mat.T.astype(np.float64)
    if not np.array_equal(gram, v * np.eye(v)):
        a, b = (int(x) for x in np.argwhere(gram != v * np.eye(v))[0])
        return f"H H^T differs from {v} I at ({a}, {b})"
    indicator = np.zeros(v, dtype=np.int64)
    indicator[np.asarray(list(elements), dtype=np.int64)] = 1
    expected = 2 * indicator[table[:, inverses(table)]] - 1
    if not np.array_equal(mat, expected):
        a, b = (int(x) for x in np.argwhere(mat != expected)[0])
        return f"matrix entry ({a}, {b}) is not 2D - J of the written set"
    return None


def invariant_witnesses(witnesses: Dict[str, dict]) -> Dict[str, dict]:
    """The label-free part of structural-test witnesses: drop member lists."""
    return {
        test: {key: val for key, val in entry.items() if not isinstance(val, list)}
        for test, entry in witnesses.items()
    }


def screen_problem(result: dict, expected: dict) -> Optional[str]:
    if "error" in result:
        return f"raised {result['error']}"
    if expected.get("certified") and not result["passed"]:
        return "group carries a certified set but the screen fails it"
    got = invariant_witnesses(result["witnesses"])
    if result["passed"] != expected["passed"] or got != expected["witnesses"]:
        return f"verdict {result['passed']} {got} differs from the recorded {expected['passed']} {expected['witnesses']}"
    return None


def search_problem(result: dict, expected: dict) -> Optional[str]:
    if "error" in result:
        return f"raised {result['error']}"
    budget = expected.get("budget")
    if budget is not None:
        if not result.get("budget_stop"):
            return f"search with budget {budget} did not stop on the budget"
        if result["nodes"] != budget + 1:
            return f"budgeted search stopped at {result['nodes']} nodes, expected {budget + 1}"
        return None
    if result.get("budget_stop"):
        return "complete search stopped on a budget"
    if result["count"] != expected["count"] or len(result["sets"]) != expected["count"]:
        return f"search found {result['count']} sets, expected {expected['count']}"
    return None


def found_sets_problem(table: np.ndarray, subgroup: Sequence[int], sets: List[List[int]]) -> Optional[str]:
    if len({tuple(sorted(s)) for s in sets}) != len(sets):
        return "search returned a set twice"
    for s in sets:
        problem = difference_set_problem(table, subgroup, s)
        if problem:
            return f"found set {s[:6]}...: {problem}"
    return None
