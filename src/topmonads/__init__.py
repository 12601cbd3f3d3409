"""Exact finite models of hyperspace, valuation, and probability monads.

Finite topological spaces are finite preorders; closed sets, continuous
valuations, and tau-smooth probability valuations over them form monads
whose laws, strengths, dualities, and interactions this package computes
and verifies with exact rational arithmetic.
"""

from .errors import (
    InfiniteMass,
    InfinityIndeterminate,
    InvalidValue,
    InvalidValueType,
    LawViolation,
    MalformedValue,
    NotAFailure,
    NotAKernel,
    NotAPreorder,
    NotATopology,
    NotAValidFunctional,
    NotClosedFamily,
    NotLowerSemicontinuous,
    NotModular,
    NotMonotone,
    NotNormalized,
    NotOpen,
    NotStrict,
    OrderNotClosed,
    PreconditionFailed,
    ShapeMismatch,
    TopmonadsError,
    UnknownSuite,
    ZeroDenominator,
)
from .extrat import INF, ONE, ZERO, ExtRat, ext, monus, ratio, sgn
from .spaces import (
    ContinuousMap,
    FiniteSpace,
    Product,
    SeparationReport,
    chain,
    check_separation,
    compose,
    constant_map,
    discrete,
    empty_space,
    from_opens,
    from_preorder,
    identity_map,
    indiscrete,
    is_equivalence,
    kolmogorov_quotient,
    le_2cell,
    one_point,
    product,
    sierpinski,
    subspace,
    w_lattice,
    way_below,
)
from .hyperspace import (
    ClosedSet,
    HitFunctional,
    Hyperspace,
    build_hyperspace,
    closed_of_functional,
    costrength_H,
    functional_of_closed,
    hit,
    join_algebra_map,
    marginals,
    mult_union,
    product_closed,
    push_closed,
    strength_H,
    unit_sigma,
)
from .valuations import (
    Kernel,
    LowerSemiFn,
    SimpleSecondOrder,
    Valuation,
    big_theta_membership,
    costrength_V,
    delta_kernel,
    indicator,
    integrate,
    kernel_from_map,
    kleisli_compose,
    mult_E,
    order_checks,
    portmanteau_witness,
    product_valuation,
    pushforward,
    strength_V,
    theta_membership,
    unit_delta,
    validate_valuation,
    valuation_from_weights,
    zero_valuation,
)
from .probability import (
    FiniteMeasure,
    ProbValuation,
    extend_to_measure,
    integrate_measure,
    mult_E_measure,
    product_measure,
)
# the star operation lives at topmonads.support.support; re-exporting it
# here would shadow the submodule, so it keeps its qualified name
from .support import (
    support_of_measure,
    support_test_lsc,
)
from .lawcheck import (
    GenConfig,
    SuiteReport,
    all_topologies,
    generate_space,
    mutation_detected,
    run_all,
    run_suite,
    run_with_mutation,
    shrink,
)

__version__ = "1.0.0"
