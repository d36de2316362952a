"""Construction and exact certification of difference sets disjoint from a subgroup."""

from .algebra import AlgebraElement, convolve, from_set, full_sum, unit
from .certify import (
    CertReport,
    PreconditionError,
    SchurStructure,
    check_difference_set,
    check_hadamard,
    check_rshds,
    check_schur_ring,
    coset_profile,
    hadamard_matrix,
    m_bound,
    parameter_formulas,
    quotient_check,
    spectrum,
    structural_tests,
)
from .constructions import (
    BudgetExceededError,
    ConstructionError,
    DifferenceSetCandidate,
    HyperplaneAssignment,
    SearchResult,
    assignment_difference_set,
    c4n_difference_set,
    c4n_standard_assignment,
    exhaustive_search,
    find_hyperplane_assignment,
    gnk_difference_set,
    verify_hyperplane_assignment,
)
from .formats import GroupSpec, build_group, read_cayley, read_dset, write_cayley, write_dset
from .groups import (
    C4PowerGroup,
    CayleyTableGroup,
    CosetDecomposition,
    FiniteGroup,
    GnkGroup,
    GroupError,
    ParameterSet,
    Subgroup,
    closure,
    cosets,
    involutions,
    is_normal,
    normal_subgroups_of_prime_index,
    quotient,
    subgroups_of_order,
)

__version__ = "0.1.0"
