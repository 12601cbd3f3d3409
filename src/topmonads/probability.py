"""Normalized valuations and their extension to measures on the power set.

On a finite T0 space the point closures separate points, so the Borel
sigma-algebra is the full power set and a measure is just a table of
nonnegative point weights.  A valuation is stored as its point weights
(see `weighted`), so on a T0 space a finite-mass valuation extends to the
measure with those same weights; they are nonnegative by construction.
Non-T0 spaces route through the Kolmogorov quotient (valuations cannot see
more), and the result carries the quotient map as an explicit marker.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import weighted as wt
from .errors import (
    InfiniteMass,
    NotNormalized,
    ShapeMismatch,
)
from .extrat import ExtRat, ONE, ZERO, ext
from .spaces import (
    ContinuousMap,
    FiniteSpace,
    Product,
    bits,
    kolmogorov_quotient,
    product,
)
from .valuations import (
    LowerSemiFn,
    SimpleSecondOrder,
    Valuation,
    mult_E,
    product_valuation,
    pushforward,
    theta_membership,
    valuation_from_weights,
)


@dataclass(frozen=True)
class ProbValuation:
    """A valuation of total mass one: its weights are finite and sum to 1,
    so every open has a value in [0, 1]."""

    underlying: Valuation

    def __post_init__(self):
        mass = self.underlying.mass
        if mass != ONE:
            raise NotNormalized(f"total mass is {mass}, not 1")

    @property
    def space(self) -> FiniteSpace:
        return self.underlying.space


@dataclass(frozen=True)
class FiniteMeasure:
    """Point weights, i.e. a measure on the full power set of a T0 space.

    `quotient_map` is set when the measure was produced from a valuation
    on a non-T0 space: the weights then live on the Kolmogorov quotient.
    """

    space: FiniteSpace
    point_weights: tuple[ExtRat, ...]
    quotient_map: ContinuousMap | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "point_weights", tuple(ext(w) for w in self.point_weights)
        )
        if len(self.point_weights) != self.space.n:
            raise ShapeMismatch("one weight per point required")
        for w in self.point_weights:
            if w.is_infinite:
                raise InfiniteMass("point weights must be finite")

    def measure_of(self, subset: int) -> ExtRat:
        """Measure of an arbitrary subset (every subset is Borel here)."""
        if subset & ~self.space.full:
            raise ShapeMismatch("subset has bits outside the point set")
        return sum((self.point_weights[x] for x in bits(subset)), ZERO)

    @property
    def total(self) -> ExtRat:
        return self.measure_of(self.space.full)

    def restriction(self) -> Valuation:
        """The measure restricted to the opens, as a valuation."""
        return valuation_from_weights(self.space, self.point_weights)


def extend_to_measure(nu: Valuation) -> FiniteMeasure:
    """Extend a finite-mass valuation to a measure: on a T0 space the
    measure of a point is its weight."""
    if nu.mass.is_infinite:
        raise InfiniteMass("only finite-mass valuations extend to measures")
    space = nu.space
    if any(c != 1 << x for x, c in enumerate(space.classes)):  # not T0
        quotient, qmap = kolmogorov_quotient(space)
        inner = extend_to_measure(pushforward(qmap, nu))
        return FiniteMeasure(quotient, inner.point_weights, qmap)
    return FiniteMeasure(space, nu.weights)


def integrate_measure(m: FiniteMeasure, g: LowerSemiFn) -> ExtRat:
    """Integral against the measure: the pairing of its restriction with g."""
    m.space.require_here(g)
    return wt.pairing(wt.EXT, m.restriction().weights, g.values)


def mult_E_measure(xi: SimpleSecondOrder) -> ProbValuation:
    """Multiplication of P on molecular input: a convex mixture of
    probability valuations, computed by the valuation-level multiplication.

    Its extension equals the mixture of the extended measures on every
    Borel set.
    """
    for _, nu in xi.atoms:
        ProbValuation(nu)  # raises unless the atom is normalized
    total = sum((c for c, _ in xi.atoms), ZERO)
    if total != ONE:
        raise NotNormalized(f"atom weights sum to {total}, not 1")
    return ProbValuation(mult_E(xi))


def product_measure(
    p: ProbValuation, q: ProbValuation, prod: Product | None = None
) -> ProbValuation:
    """Product of probability valuations; its marginals are the factors."""
    if prod is None:
        prod = product(p.space, q.space)
    return ProbValuation(product_valuation(p.underlying, q.underlying, prod))


def a_topology_membership(p: ProbValuation, u: int, r) -> bool:
    """Membership in the subbasic open O(U, r) of the probability space;
    the subspace topology makes this the restriction of theta(U, r)."""
    return theta_membership(p.underlying, u, r)
