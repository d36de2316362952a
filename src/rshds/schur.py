"""The Schur-ring, spectrum and Hadamard certificates.

This is the certificate code that only some commands run, kept apart from
``certify``, which every ``rshds`` process loads.  A default ``rshds
certify`` imports it, and so does ``certify --checks`` naming ``schur``,
``spectrum`` or ``hadamard``; ``construct``, ``export-hadamard``, ``thm81``
and a ``certify`` of the dset, rshds and profile checks alone never do.
``certify.check_schur_ring``, ``certify.spectrum`` and
``certify.check_hadamard``, whose docstrings state what the bodies prove,
import their bodies from here inside the call.

The three checks share one table of structure constants of
{1, H-1, D, D^-1}, read from five convolutions ((H-1)^2, (H-1)D,
(H-1)D^-1, D*D, D^-1*D) and from the difference equation
D*D^-1 = k + lam(G-1) that ``check_rshds`` certified; one ``run_checks``
call builds it once.  Once the partition is certified, the four classes
are disjoint, non-empty and cover G; once their span is certified closed,
the map to class coordinates is an injective ring homomorphism onto Z^4
with that table as its product.  So an element of the span is zero
exactly when its four coordinates are, a polynomial in D vanishes in the
group algebra exactly when it vanishes in Z^4, and a trace is the group
order times the coordinate on {1}.  The spectral and Hadamard identities
are evaluated there, on 4-vectors of ints: exact, not sampled.
"""
from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import AlgebraElement, convolve, from_set
from .certify import CertReport, PreconditionError, _degenerate_warnings, _once_per_run, check_rshds
from .groups import IDENTITY, FiniteGroup, Subgroup

# ---------------------------------------------------------------------------
# Schur ring
# ---------------------------------------------------------------------------


Coords = Tuple[int, int, int, int]
_BASIS: Tuple[Coords, ...] = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
_G: Coords = (1, 1, 1, 1)  # the whole group, which the partition splits into the four classes


class SchurStructure(NamedTuple):
    """Structure constants of the 4-class partition {1, H-1, D, D^-1}.

    ``coordinates[i][j]`` expresses class_i * class_j in the basis, in the
    class order above; all entries are non-negative integers.
    """

    coordinates: Tuple[Tuple[Coords, ...], ...]

    def mul(self, x: Sequence[int], y: Sequence[int]) -> Coords:
        """Product of two elements of the span, both given in class coordinates."""
        out = [0, 0, 0, 0]
        for xi, row in zip(x, self.coordinates):
            for yj, consts in zip(y, row):
                for t, c in enumerate(consts):
                    out[t] += xi * yj * c
        return tuple(out)


def _comb(*terms: Tuple[int, Sequence[int]]) -> Coords:
    """The integer combination sum of c*x over the (c, x) pairs."""
    return tuple(sum(c * x[i] for c, x in terms) for i in range(4))


# star fixes 1 and H-1 and swaps D with D^-1: class i goes to class _STAR[i]
_STAR = (0, 1, 3, 2)


def _star(x: Sequence[int]) -> Coords:
    """star in class coordinates."""
    return tuple(x[i] for i in _STAR)


@_once_per_run
def _schur_structure(
    group: FiniteGroup, sub: Subgroup, elements: Sequence[int]
) -> Tuple[CertReport, Optional[SchurStructure], Dict[str, object]]:
    """The partition report and the structure constants of {1, H-1, D, D^-1}.

    Only (H-1)^2, (H-1)D, (H-1)D^-1, D*D and D^-1*D are convolved.  D*D^-1
    is not: a passing ``check_rshds`` has certified D*D^-1 = k + lam(G-1)
    exactly, and G is the sum of the four classes, so its coordinates are
    (k, lam, lam, lam).  The unit row and column are the basis, and each
    product XY also fills the cell of its star, (XY)* = Y*X*, since star is
    an anti-automorphism permuting the classes as ``_STAR``.  Every
    coordinate is a count, never negative.  If a class product does not
    close, the structure is None and the witness names the first in row order.
    """
    base = check_rshds(group, sub, elements)
    if not base.passed:
        raise PreconditionError(
            "candidate is not a certified m=0 relative skew Hadamard difference set"
        )
    d = from_set(group, elements)
    classes = (None, from_set(group, [m for m in sub.members if m != IDENTITY]), d, d.star())
    class_members = [[IDENTITY]] + [x.support() for x in classes[1:]]

    def expand(x: AlgebraElement) -> Optional[Coords]:
        coords = []
        for members in class_members:
            vals = {x.coeffs[g] for g in members}
            if len(vals) != 1:
                return None
            coords.append(vals.pop())
        return tuple(coords)

    lam = base.params.lam
    table = [list(_BASIS)] + [[b, None, None, None] for b in _BASIS[1:]]
    table[2][3] = (base.params.k, lam, lam, lam)
    for i, j in ((1, 1), (1, 2), (1, 3), (2, 2), (3, 2)):
        coords = expand(convolve(classes[i], classes[j]))
        table[i][j] = coords
        table[_STAR[j]][_STAR[i]] = None if coords is None else _star(coords)
    for i, row in enumerate(table):
        if None in row:
            return base, None, {"non_closing_product": [i, row.index(None)]}
    return base, SchurStructure(tuple(tuple(row) for row in table)), {}


def _schur_ring(
    base: CertReport, structure: Optional[SchurStructure], witnesses: Dict[str, object]
) -> Tuple[CertReport, Optional[SchurStructure]]:
    warns = _degenerate_warnings(base.params.h)
    if structure is None:
        return CertReport("schur-ring", False, base.params, witnesses, warns), None
    t, k, lam = base.params.h // 2, base.params.k, base.params.lam
    table = structure.coordinates
    hd = _comb((1, table[0][2]), (1, table[1][2]))
    dh = _comb((1, table[2][0]), (1, table[2][1]))
    problems: List[str] = []
    if hd != (0, 0, t, t):
        problems.append("H*D != (h/2)(G-H)")
    if table[2][2] != (0, k - lam, k - lam - t, k - lam - t):
        problems.append("D^2 != (k-lam-h/2)(D+D^-1) + (k-lam)(H-1)")
    if dh != hd:
        problems.append("D and H do not commute")
    if table[2][3] != table[3][2]:
        problems.append("D and D^-1 do not commute")
    for i in range(4):
        for j in range(4):
            if table[i][j] != table[j][i]:
                problems.append(f"structure constants not symmetric at ({i},{j})")
    witnesses["structure_constants"] = [
        [list(c) for c in row] for row in table
    ]
    if problems:
        witnesses["problems"] = problems
        return CertReport("schur-ring", False, base.params, witnesses, warns), structure
    return CertReport("schur-ring", True, base.params, witnesses, warns), structure


def _closed(
    found: Tuple[CertReport, Optional[SchurStructure], Dict[str, object]]
) -> Tuple[CertReport, SchurStructure]:
    """The report and structure of ``_schur_structure``, which must have closed."""
    base, structure, _ = found
    if structure is None:
        raise PreconditionError("{1, H-1, D, D^-1} does not span a Schur ring")
    return base, structure


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def _spectrum(base: CertReport, s: SchurStructure) -> CertReport:
    h = base.params.h
    k = base.params.k
    t = h // 2
    witnesses: Dict[str, object] = {}
    warns = _degenerate_warnings(h)
    one, _, d, dinv = _BASIS
    lin_k = _comb((-k, one), (1, d))
    lin_h = _comb((h, one), (2, d))
    quad = _comb((h * h, one), (4, s.mul(d, d)))
    if any(s.mul(s.mul(lin_k, lin_h), quad)):
        witnesses["annihilation"] = False
        return CertReport("spectrum", False, base.params, witnesses, warns)
    witnesses["annihilation"] = True
    divisors = {
        "(x-k)(2x+h)": s.mul(lin_k, lin_h),
        "(x-k)(4x^2+h^2)": s.mul(lin_k, quad),
        "(2x+h)(4x^2+h^2)": s.mul(lin_h, quad),
    }
    nonzero = {label: any(x) for label, x in divisors.items()}
    witnesses["maximal_divisors_nonzero"] = nonzero
    if not all(nonzero.values()):
        return CertReport("spectrum", False, base.params, witnesses, warns)
    powers = [one]
    for _ in range(4):
        powers.append(s.mul(powers[-1], d))
    traces = [base.params.v * p[0] for p in powers[:4]]
    witnesses["traces"] = traces
    # sum of z^e over the eigenvalues; (it)^e + (-it)^e = 2 t^e Re(i^e)
    expected = [
        k**e + (h - 1) * (-t) ** e + 2 * k * t**e * (1, 0, -1, 0)[e % 4] for e in range(4)
    ]
    witnesses["expected_traces"] = expected
    if traces != expected:
        return CertReport("spectrum", False, base.params, witnesses, warns)
    c_cube = 2 * t**4 - 3 * t**3 + t * t
    cube_ok = powers[3] == _comb((t * t, dinv), (c_cube, _G))
    witnesses["cube_identity"] = cube_ok
    c_fourth = 4 * t**6 - 8 * t**5 + 6 * t**4 - 2 * t**3
    fourth_ok = powers[4] == _comb((c_fourth, _G), (t**4, one))
    witnesses["fourth_identity"] = fourth_ok
    passed = cube_ok and fourth_ok
    return CertReport("spectrum", passed, base.params, witnesses, warns)


# ---------------------------------------------------------------------------
# Hadamard matrix
# ---------------------------------------------------------------------------


def _hadamard(base: CertReport, s: SchurStructure) -> CertReport:
    h = base.params.h
    one, _, d, _ = _BASIS
    m_el = _comb((2, d), (-1, _G))
    witnesses: Dict[str, object] = {}
    warns = _degenerate_warnings(h)
    gram_ok = s.mul(m_el, _star(m_el)) == _comb((h * h, one))
    witnesses["gram_identity"] = gram_ok
    f_lin = _comb((1, m_el), (h, one))
    f_quad = _comb((1, s.mul(m_el, m_el)), (h * h, one))
    ann_ok = not any(s.mul(f_lin, f_quad))
    witnesses["minimal_polynomial_annihilates"] = ann_ok
    factors_nonzero = any(f_lin) and any(f_quad)
    witnesses["factors_nonzero"] = factors_nonzero
    passed = gram_ok and ann_ok and factors_nonzero
    return CertReport("hadamard", passed, base.params, witnesses, warns)
