"""Exact groupoid cardinality and random-permutation cycle statistics.

Finite groupoids are handled through skeletons (multisets of automorphism
group orders) and weak quotients of finite group actions; all cardinalities
are exact rationals. Cycle statistics of uniform random permutations are
computed by two independent exact methods plus a seeded Monte Carlo route,
and the equivalence between the decorated-permutation groupoid and its
product form is verified at the skeleton level. A conjugation-equivariant
functor is checked as its category of elements: one law pass over that
action validates both, and its weak quotient's cardinality must equal the
functor's average fiber size.
"""

from .categorified import (
    CategorifiedReport,
    categorified_rhs_skeleton,
    cycle_tuple_action,
    cycle_tuple_actions,
    verify_categorified,
    verify_categorifieds,
)
from .cycle_stats import (
    METHOD_BRUTE,
    METHOD_CYCLE_TYPE,
    METHOD_MONTE_CARLO,
    MONTE_CARLO_MAX_N,
    MomentReport,
    cll_rhs,
    cycle_count_histogram,
    decorated_permutation_counts,
    expected_product_brute,
    expected_product_by_type,
    expected_products_by_type,
    expected_total_cycles,
    monte_carlo_moment,
    monte_carlo_moments,
    uncorrelated_check,
    verify_cll,
    verify_clls,
)
from .functors import (
    EquivariantFunctor,
    GeneralTheoremReport,
    category_of_elements,
    expected_size,
    functor_from_json,
    make_cycle_tuple_functor,
    make_fixed_point_functor,
    make_trivial_functor,
    validate_functor,
    verify_general_theorem,
)
from .groups import (
    CayleyGroup,
    CyclicGroup,
    FiniteGroup,
    GroupValidationError,
    ProductGroup,
    SymmetricGroup,
    from_cayley_json,
    from_cayley_table,
    make_cyclic,
    make_product,
    make_symmetric,
    to_cayley_json,
)
from .groupoids import (
    EMPTY_SKELETON,
    ActionValidation,
    ActionValidationError,
    GroupAction,
    GroupoidSkeleton,
    Orbit,
    SkeletonComponent,
    cardinality,
    cardinality_via_outdegrees,
    conjugation_action,
    coproduct,
    delooping,
    orbit_decomposition,
    perm_groupoid_skeleton,
    power,
    product,
    rational_str,
    skeletons_equivalent,
    weak_quotient,
)
from .permutations import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_PARTITION_CAP,
    DEFAULT_TYPE_TERM_CAP,
    CapExceededError,
    Cycle,
    CycleTupleChoice,
    CycleType,
    Permutation,
    all_cycle_types,
    canonical_cycle,
    cycle_counts,
    cycle_decomposition,
    cycle_type_table,
    enumerate_permutations,
    falling_power,
    iter_pvectors,
    list_cycle_tuples,
    weight,
)
from .rng import SplitMix64

__version__ = "0.1.0"
