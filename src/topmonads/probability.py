"""Normalized valuations and their extension to measures on the power set.

On a finite T0 space the point closures separate points, so the Borel
sigma-algebra is the full power set.  A valuation is stored as its point
weights (see `weighted`), so a finite-mass valuation there extends to the
measure with the same weights, and a `FiniteMeasure` is a view of that
valuation: the measure of a set is the pairing of the weights with its
indicator.  Non-T0 spaces route through the Kolmogorov quotient
(valuations cannot see more), and the result carries the quotient map as
an explicit marker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import weighted as wt
from .errors import InfiniteMass, NotNormalized, PreconditionFailed, ShapeMismatch
from .extrat import ExtRat, ONE, ZERO
from .spaces import (
    ContinuousMap, FiniteSpace, Product, check_separation, kolmogorov_quotient, product
)
from .valuations import (
    LowerSemiFn,
    SimpleSecondOrder,
    Valuation,
    integrate,
    mult_E,
    product_valuation,
    pushforward,
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
    """A measure on a T0 space, whose Borel sets are all its subsets: a
    view of `valuation`, the finite-mass valuation with the same point
    weights, which is the measure restricted to the opens.

    `quotient_map` is set when the measure was produced from a valuation
    on a non-T0 space: the weights then live on the Kolmogorov quotient.
    """

    space: FiniteSpace
    point_weights: tuple[ExtRat, ...]
    quotient_map: ContinuousMap | None = None
    valuation: Valuation = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not check_separation(self.space).is_T0:
            raise PreconditionFailed("a measure needs a T0 space, where every subset is Borel")
        nu = Valuation(self.space, self.point_weights)
        if nu.mass.is_infinite:
            raise InfiniteMass("point weights must be finite")
        object.__setattr__(self, "point_weights", nu.weights)
        object.__setattr__(self, "valuation", nu)

    def measure_of(self, subset: int) -> ExtRat:
        """The measure of any subset: the pairing of the weights with its indicator."""
        if subset & ~self.space.full:
            raise ShapeMismatch("subset has bits outside the point set")
        return wt.value(self.point_weights, subset)

    @property
    def total(self) -> ExtRat:
        return self.valuation.mass

    def restriction(self) -> Valuation:
        """The measure restricted to the opens: the valuation it views."""
        return self.valuation


def _view(nu: Valuation, quotient_map: ContinuousMap | None = None) -> FiniteMeasure:
    """The measure that views nu, which the caller has checked: its space
    is T0 and its mass finite.  It skips the checks of `FiniteMeasure(...)`
    and holds nu itself."""
    measure = object.__new__(FiniteMeasure)
    measure.__dict__.update(
        space=nu.space, point_weights=nu.weights, quotient_map=quotient_map, valuation=nu
    )
    return measure


def extend_to_measure(nu: Valuation) -> FiniteMeasure:
    """Extend a finite-mass valuation to a measure: on a T0 space the
    measure of a point is its weight."""
    if nu.mass.is_infinite:
        raise InfiniteMass("only finite-mass valuations extend to measures")
    if not check_separation(nu.space).is_T0:
        quotient, qmap = kolmogorov_quotient(nu.space)
        return _view(pushforward(qmap, nu), qmap)
    return _view(nu)


def integrate_measure(m: FiniteMeasure, g: LowerSemiFn) -> ExtRat:
    """Integral against the measure: the integral against its restriction."""
    return integrate(m.valuation, g)


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
