"""Exact certificates for difference-set structure.

Every check here is an exact integer statement evaluated in the group
algebra or by set arithmetic: the difference-set equation, the three-part
partition with its coset profile, Schur-ring closure of the four principal
sets, the minimal polynomial and trace/multiplicity data, the Hadamard
property of 2D - J, quotient distributions, and the four structural
screening tests.  Checks return a :class:`CertReport`; violated
preconditions raise :class:`PreconditionError` instead of reporting.
The bodies of ``quotient_check`` and ``structural_tests`` live in
``screen``, with the subgroup lattice they walk, and each imports its body
inside the call: ``rshds certify`` and ``export-hadamard`` never load them.

The coset lemma: if D is a (h^2, h(h-1)/2, h(h-2)/4) difference set in G
that misses a subgroup H of order h, then |D meet Hx| = h/2 for every right
coset Hx other than H.  Write a_x = |D meet Hx|.  Two elements d, e of D lie
in one right coset exactly when d e^-1 lies in H; the difference equation
gives k such pairs with d e^-1 = 1 and lam for each of the h - 1 other
elements of H, so sum a_x^2 = k + lam(h-1), while sum a_x = k over the h - 1
cosets other than H.  Cauchy-Schwarz, k^2 <= (h-1)(k + lam(h-1)), holds
here with equality (both sides are h^2(h-1)^2/4), so every a_x is
k/(h-1) = h/2.  Hence D contains no whole coset of H, D meet D^-1 can be a
union of m cosets only with m = 0, and ``check_rshds`` proves the partition
G = D + D^-1 + H directly: D misses H, |D| = k and D meets D^-1 nowhere,
and 2k + h = h^2 leaves no room for anything else.

The bodies of ``check_schur_ring``, ``spectrum`` and ``check_hadamard``
live in ``schur``, whose docstring holds how the three share one table of
structure constants of {1, H-1, D, D^-1} and why evaluating in Z^4 is
exact; each entry imports its body inside the call, and ``run_checks``
imports ``schur`` only when one of the three is named.  So ``rshds
construct``, ``export-hadamard``, ``thm81`` and ``certify --checks
dset,rshds,profile`` never compile them.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import convolve, from_set
from .groups import IDENTITY, FiniteGroup, ParameterSet, Subgroup, _index_set, cosets

if TYPE_CHECKING:
    from .schur import SchurStructure


class PreconditionError(ValueError):
    pass


# the checks of ``run_checks`` (and ``rshds certify``), in report order
CHECK_ORDER = ("dset", "rshds", "profile", "schur", "spectrum", "hadamard")


class _ReportFields(NamedTuple):
    check_name: str
    passed: bool
    params: Optional[ParameterSet] = None
    witnesses: Optional[Dict[str, object]] = None
    warnings: Optional[List[str]] = None


class CertReport(_ReportFields):
    """Structured pass/fail record; a failed report always carries a witness."""

    __slots__ = ()

    def __new__(
        cls,
        check_name: str,
        passed: bool,
        params: Optional[ParameterSet] = None,
        witnesses: Optional[Dict[str, object]] = None,
        warnings: Optional[List[str]] = None,
    ) -> "CertReport":
        witnesses = {} if witnesses is None else witnesses
        warnings = [] if warnings is None else warnings
        return super().__new__(cls, check_name, passed, params, witnesses, warnings)

    def to_json_dict(self) -> dict:
        return {
            "checkName": self.check_name,
            "pass": self.passed,
            "params": self.params.as_dict() if self.params else None,
            "witnesses": self.witnesses,
            "warnings": self.warnings,
        }

    def summary(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        ptxt = ""
        if self.params:
            p = self.params
            ptxt = f" (h={p.h}, v={p.v}, k={p.k}, lambda={p.lam}, m={p.m})"
        return f"{tag} {self.check_name}{ptxt}"


def _unpinned_params(h: int) -> Optional[ParameterSet]:
    """The parameters of subgroup order h with m left open, or None if h is not even >= 2."""
    return ParameterSet(h, m=None) if h >= 2 and h % 2 == 0 else None


def _degenerate_warnings(h: int) -> List[str]:
    if h == 2:
        return ["degenerate h=2: lambda = 0, the structural theorems are vacuous"]
    return []


# ---------------------------------------------------------------------------
# the difference-set equation
# ---------------------------------------------------------------------------


def check_difference_set(group: FiniteGroup, elements: Sequence[int]) -> CertReport:
    """Certify D * star(D) = lambda*G + (k - lambda)*1 by exact convolution.

    Elements that break the rule of ``groups._index_set`` raise :class:`PreconditionError`.
    """
    d = from_set(group, _index_set(elements, group.order, PreconditionError))
    k = len(d.support())
    v = group.order
    witnesses: Dict[str, object] = {"k": k}
    if v > 1:
        num, den = k * (k - 1), v - 1
        if num % den:
            witnesses["lambda_numerator"] = num
            witnesses["lambda_denominator"] = den
            return CertReport(
                "difference-set-equation", False, None, witnesses,
                ["replication count k(k-1)/(v-1) is not an integer"],
            )
        lam = num // den
    else:
        lam = 0
    witnesses["lambda"] = lam
    conv = convolve(d, d.star())
    for g in range(v):
        expected = k if g == IDENTITY else lam
        if conv.coeffs[g] != expected:
            witnesses["element"] = g
            witnesses["count"] = conv.coeffs[g]
            witnesses["expected"] = expected
            return CertReport("difference-set-equation", False, None, witnesses)
    params = _matching_params(v, k, lam)
    warns = _degenerate_warnings(params.h) if params else []
    return CertReport("difference-set-equation", True, params, witnesses, warns)


def _matching_params(v: int, k: int, lam: int) -> Optional[ParameterSet]:
    params = _unpinned_params(math.isqrt(v))
    if params is None or (params.v, params.k, params.lam) != (v, k, lam):
        return None
    return params


# ---------------------------------------------------------------------------
# the relative skew Hadamard structure
# ---------------------------------------------------------------------------


def check_rshds(group: FiniteGroup, sub: Subgroup, elements: Sequence[int]) -> CertReport:
    """Certify G = D + D^-1 + H disjointly, then the difference equation.

    |G| = h^2, D misses H, |D| = k and D meets D^-1 nowhere; D^-1 misses H
    too, and 2k + h = h^2, so the three parts cover G.  By the coset lemma
    in the module docstring a difference set that misses H meets every
    other coset in h/2 points, so none holds a whole coset and m = 0 is the
    only partition.  When D meets D^-1 the witness is the least coset the
    intersection meets but does not fill, or else m, with a warning.  An H
    of another group is a :class:`PreconditionError`.
    """
    return _rshds(group, sub, elements, lambda: check_difference_set(group, elements))


def _rshds(
    group: FiniteGroup, sub: Subgroup, elements: Sequence[int], equation: Callable[[], CertReport]
) -> CertReport:
    """``check_rshds``, with the difference-equation report from ``equation()``."""
    if sub.parent is not group:
        raise PreconditionError("subgroup belongs to a different group")
    name = "rshds-structure"
    h = sub.order
    refusal = _order_refusal(name, group, h)
    if refusal is not None:
        return refusal
    witnesses: Dict[str, object] = {}
    params = _unpinned_params(h)
    dset = _index_set(elements, group.order, PreconditionError)
    overlap = dset & sub.member_set
    if overlap:
        witnesses["element_in_subgroup"] = min(overlap)
        return CertReport(name, False, params, witnesses)
    if len(dset) != params.k:
        witnesses["size"] = len(dset)
        return CertReport(name, False, params, witnesses)
    inter = {g for g in dset if group.inv(g) in dset}
    if inter:
        dec = cosets(group, sub)
        touched = sorted({dec.coset_of[g] for g in inter})
        for ci in touched:
            if not set(dec.coset_members(ci)) <= inter:
                witnesses["intersection_not_coset_union_at"] = ci
                return CertReport(name, False, params, witnesses)
        witnesses["m"] = len(touched)
        return CertReport(name, False, params, witnesses, [
            f"D meet D^-1 fills {len(touched)} coset(s) of H; a difference set that "
            "misses H meets every other coset in h/2 points, so m = 0"
        ])
    witnesses["m"] = 0
    witnesses["intersection_cosets"] = []
    witnesses["complement_cosets"] = [0]
    params = ParameterSet(h, m=0)
    eq = equation()
    witnesses["difference_equation"] = eq.passed
    if not eq.passed:
        witnesses["difference_equation_witness"] = eq.witnesses
    return CertReport(name, eq.passed, params, witnesses, _degenerate_warnings(h))


def _order_refusal(name: str, group: FiniteGroup, h: int) -> Optional[CertReport]:
    """The failing report of a check that needs h even >= 2 and |G| = h^2, or None."""
    params = _unpinned_params(h)
    if params is None:
        return CertReport(name, False, None, {"subgroup_order": h},
                          ["subgroup order must be even and at least 2"])
    if group.order != h * h:
        return CertReport(name, False, params,
                          {"group_order": group.order, "required_order": h * h})
    return None


def coset_profile(group: FiniteGroup, sub: Subgroup, elements: Sequence[int]) -> CertReport:
    """Certify |D meet Hg| = h/2 on every nontrivial coset and 0 on H.

    Like ``check_rshds`` it fails, with the same witnesses, unless h is even
    and |G| = h^2: h/2 is no count for odd h, and the coset lemma's h/2
    holds only for the parameters (h^2, h(h-1)/2, h(h-2)/4).
    """
    if sub.parent is not group:
        raise PreconditionError("subgroup belongs to a different group")
    refusal = _order_refusal("coset-profile", group, sub.order)
    if refusal is not None:
        return refusal
    dec = cosets(group, sub)
    profile = [0] * dec.num_cosets
    for g in _index_set(elements, group.order, PreconditionError):
        profile[dec.coset_of[g]] += 1
    h = sub.order
    witnesses: Dict[str, object] = {"profile": profile}
    params = _unpinned_params(h)
    if profile[0] != 0:
        witnesses["bad_coset"] = 0
        return CertReport("coset-profile", False, params, witnesses)
    for i in range(1, dec.num_cosets):
        if profile[i] != h // 2:
            witnesses["bad_coset"] = i
            return CertReport("coset-profile", False, params, witnesses)
    return CertReport("coset-profile", True, params, witnesses)


# ---------------------------------------------------------------------------
# Schur ring, spectrum and Hadamard matrix
# ---------------------------------------------------------------------------


def check_schur_ring(
    group: FiniteGroup, sub: Subgroup, elements: Sequence[int]
) -> Tuple[CertReport, Optional[SchurStructure]]:
    """Certify that {1, H-1, D, D^-1} spans a commutative Schur ring.

    The 16 class products, read from five convolutions and the certified
    D*D^-1 = lam(D + D^-1 + (H-1)) + k, must resolve exactly into the four
    classes with non-negative integer coordinates.  Then the closed forms
    H*D = (h/2)(G-H) and D^2 = (k-lam-h/2)(D+D^-1) + (k-lam)(H-1), and the
    commutation of D with H and with D^-1 (the convolved D^-1*D against
    the certified D*D^-1), are compared coordinate by coordinate, which is
    exact by the injectivity argument in the docstring of ``schur``.
    """
    from .schur import _schur_ring, _schur_structure

    return _schur_ring(*_schur_structure(group, sub, elements))


def spectrum(group: FiniteGroup, sub: Subgroup, elements: Sequence[int]) -> CertReport:
    """Certify the minimal polynomial and eigenvalue multiplicities of D.

    (a) the integerized polynomial (x-k)(2x+h)(4x^2+h^2) annihilates D;
    (b) none of its three maximal divisors does, so the product is minimal;
    (c) traces of D^0..D^3 match the eigenvalues k, -h/2, ih/2, -ih/2 with
    multiplicities 1, h-1, h(h-1)/2, h(h-1)/2; (d) the closed forms for D^3
    and D^4 hold.  Everything is evaluated in Z^4 with the structure
    constants of the Schur ring: its coordinate map is an injective ring
    homomorphism, so a polynomial in D vanishes in the group algebra exactly
    when it vanishes in Z^4, and a trace is the group order times the
    coordinate on {1}.
    """
    from .schur import _closed, _schur_structure, _spectrum

    return _spectrum(*_closed(_schur_structure(group, sub, elements)))


def check_hadamard(group: FiniteGroup, sub: Subgroup, elements: Sequence[int]) -> CertReport:
    """Certify that 2D - J is a Hadamard matrix with minimal polynomial
    (x+h)(x^2+h^2), working with M = 2D - G (star = transpose).

    M lies in the span of the four classes, so M M* = h^2 and the
    annihilation are evaluated in Z^4, exactly as in :func:`spectrum`.
    """
    from .schur import _closed, _hadamard, _schur_structure

    return _hadamard(*_closed(_schur_structure(group, sub, elements)))


def run_checks(
    group: FiniteGroup, sub: Subgroup, elements: Sequence[int], names: Sequence[str]
) -> List[CertReport]:
    """The named checks of :data:`CHECK_ORDER`, in the order given.

    The checks of one call share one difference-equation report, one
    ``check_rshds`` report and one Schur structure, each built on first use
    and dropped on return.  So a run of every check convolves D*D^-1 once
    for dset and rshds together and the five class products once, not once
    per check: 6 convolutions in all.
    A check whose precondition fails reports under its name with a
    ``precondition`` witness.
    """
    equation = lru_cache(maxsize=None)(lambda: check_difference_set(group, elements))
    base = lru_cache(maxsize=None)(lambda: _rshds(group, sub, elements, equation))
    checks = {
        "dset": equation,
        "rshds": base,
        "profile": lambda: coset_profile(group, sub, elements),
    }
    if not checks.keys() >= set(names):  # schur, spectrum or hadamard is named
        from .schur import _closed, _hadamard, _schur_ring, _schur_structure, _spectrum

        found = lru_cache(maxsize=None)(lambda: _schur_structure(group, sub, elements, base()))
        checks["schur"] = lambda: _schur_ring(*found())[0]
        checks["spectrum"] = lambda: _spectrum(*_closed(found()))
        checks["hadamard"] = lambda: _hadamard(*_closed(found()))
    reports = []
    for name in names:
        try:
            reports.append(checks[name]())
        except PreconditionError as exc:
            reports.append(CertReport(name, False, None, {"precondition": str(exc)}))
    return reports


def hadamard_matrix(group: FiniteGroup, elements: Sequence[int]) -> List[List[int]]:
    """The +-1 matrix 2D - J in element order: entry (a, b) is +1 iff a b^-1 lies in D."""
    dset = _index_set(elements, group.order, PreconditionError)
    sign = [1 if g in dset else -1 for g in range(group.order)]
    inv = group._inv
    return [[sign[row[bi]] for bi in inv] for row in group.table]


# ---------------------------------------------------------------------------
# quotient distributions
# ---------------------------------------------------------------------------


def quotient_check(
    group: FiniteGroup,
    sub: Subgroup,
    elements: Sequence[int],
    normal_sub: Subgroup,
) -> CertReport:
    """Certify the distribution of D and H over the cosets of a normal N.

    Prime index p: H must lie in N, N meets D in h(h-p)/(2p) points and every
    other coset in h^2/(2p).  Quotient cyclic of order 4: the profile must
    match one of the three solved families.  Quotients on the
    fingerprint list of H-swallowing shapes: H must lie in N.  Anything
    else: the profile is reported without judgment.
    """
    from .screen import _quotient_check

    return _quotient_check(group, sub, elements, normal_sub)


# ---------------------------------------------------------------------------
# structural screening tests
# ---------------------------------------------------------------------------


def structural_tests(
    group: FiniteGroup,
    h_candidate: int,
    sub: Optional[Subgroup] = None,
    *,
    unique_normal_h: bool = False,
) -> CertReport:
    """Run the four screening tests for candidate subgroup order h.

    T1: the intersection of all prime-index normal subgroups (and of normal
    subgroups whose quotient fingerprint forces H inside the kernel) has
    order divisible by h.  T2: the subgroup generated by the involutions
    fits inside a subgroup of order h (containment in H exactly, when H is
    given).  T3: some normal subgroup of order h exists.  T4 (needs H): no
    order-h subgroup intersects H trivially.

    T1 walks to no kernel of an elementary abelian quotient.  A surjection
    of G onto C_p^r, abelian of exponent p, kills every commutator and
    every p-th power, so its kernel holds K_p = G'G^p and is the preimage of
    the kernel of a surjection of G/K_p onto C_p^r.  G/K_p is elementary
    abelian, F_p^s with p^s = |G:K_p|, and those kernels are its subspaces
    of codimension r: there are [s r]_p of them (``screen._subspace_count``, 0 when
    r > s), and for 1 <= r <= s they meet in 0.  So the kernels of index p
    (r = 1) number (|G:K_p| - 1)/(p - 1), those of the shapes C2^2, C2^3
    and C3xC3 (r = 2, 3 and 2) are counted the same way, and all of them
    meet in K_p (when there are none, K_p = G or p^r > |G:K_p|, and K_p
    changes no intersection).  T1's core is the intersection of the K_p from
    ``screen._commutator_power_subgroup`` with the kernels of the other
    swallowing shapes.

    A bad h or H is refused before any walk: h must be a positive int with
    |G| = h^2, and H a subgroup of this group of order h.  One normal walk
    (``subgroups_of_order``) finds the normal subgroups of order h for T3
    and of order |G|/d, d the order of a swallowing shape that is not
    elementary abelian, for T1, and ``screen.fingerprint`` reads each
    such kernel's quotient shape off G.  T4 walks only the subgroups that
    meet H in the identity alone (the ``avoid`` set of
    ``screen._subgroups_dividing``), and its witness is the least complement
    in member-tuple order.

    With ``unique_normal_h`` and no H given, H is the normal subgroup of
    order h when the walk finds exactly one, so T2 and T4 run on it; this is
    how ``rshds screen`` picks H on a table with no distinguished subgroup.
    """
    from .screen import _structural_tests

    return _structural_tests(group, h_candidate, sub, unique_normal_h)
