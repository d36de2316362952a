"""Construction and exact certification of difference sets disjoint from a subgroup.

The names below are re-exported from the submodules that define them, and
each resolves on first use (PEP 562): importing ``rshds`` or one of its
submodules loads no other layer, so a CLI process compiles only the modules
its subcommand runs.
"""
import importlib

_EXPORTS = {
    "algebra": ("AlgebraElement", "convolve", "from_set"),
    "certify": (
        "CertReport",
        "PreconditionError",
        "SchurStructure",
        "check_difference_set",
        "check_hadamard",
        "check_rshds",
        "check_schur_ring",
        "coset_profile",
        "hadamard_matrix",
        "parameter_formulas",
        "quotient_check",
        "spectrum",
        "structural_tests",
    ),
    "constructions": (
        "BudgetExceededError",
        "ConstructionError",
        "DifferenceSetCandidate",
        "HyperplaneAssignment",
        "SearchResult",
        "assignment_difference_set",
        "c4n_difference_set",
        "c4n_standard_assignment",
        "exhaustive_search",
        "find_hyperplane_assignment",
        "gnk_difference_set",
        "verify_hyperplane_assignment",
    ),
    "formats": ("GroupSpec", "build_group", "read_cayley", "read_dset", "write_cayley", "write_dset"),
    "groups": (
        "C4PowerGroup",
        "CayleyTableGroup",
        "CosetDecomposition",
        "FiniteGroup",
        "GnkGroup",
        "GroupError",
        "ParameterSet",
        "Subgroup",
        "closure",
        "cosets",
        "involutions",
        "is_normal",
        "normal_subgroups_of_prime_index",
        "quotient",
        "subgroups_of_order",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE})
