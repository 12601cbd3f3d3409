"""P is V at mass one: probability valuations, and their extension to
measures on the power set.

A `ProbValuation` is a `Valuation` whose weights are finite and sum to 1,
so the inclusion P -> V is the identity on elements.  P's multiplication
and product are V's, looked up in `valuations` when they run, with the
mass of every input checked and the result rebuilt as a `ProbValuation`.

On a finite T0 space the point closures separate points, so the Borel
sigma-algebra is the full power set, and a finite-mass valuation extends
to the measure with the same weights: a `FiniteMeasure` is that valuation,
read on every subset, so it integrates by `valuations.integrate` and its
support is `support.support`.  Non-T0 spaces route through the Kolmogorov
quotient (valuations cannot see more), and the result carries the
quotient map as an explicit marker.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import valuations as va
from . import weighted as wt
from .errors import InfiniteMass, NotNormalized, PreconditionFailed, ShapeMismatch
from .extrat import INF, ExtRat, ONE, ZERO
from .spaces import ContinuousMap, Product, kolmogorov_quotient


def _require_mass_one(nu: va.Valuation) -> None:
    if nu.mass != ONE:
        raise NotNormalized(f"total mass is {nu.mass}, not 1")


class ProbValuation(va.Valuation):
    """A valuation of total mass one: its weights are finite and sum to 1,
    so every open has a value in [0, 1]."""

    def __post_init__(self):
        super().__post_init__()
        _require_mass_one(self)


def _as_prob(nu: va.Valuation) -> ProbValuation:
    """nu as a ProbValuation, once its mass is checked: its fields, and
    what it has cached, are taken over as they are, so its weights are not
    converted and pushed to least points a second time."""
    _require_mass_one(nu)
    prob = object.__new__(ProbValuation)
    prob.__dict__.update(nu.__dict__)
    return prob


@dataclass(frozen=True, eq=False)
class FiniteMeasure(va.Valuation):
    """A measure on a T0 space, whose Borel sets are all its subsets: the
    finite-mass valuation with the same point weights, read on every
    subset.  On the opens it is that valuation, and it equals it.

    `quotient_map` is set when the measure was produced from a valuation
    on a non-T0 space: the weights then live on the Kolmogorov quotient.
    It marks the measure's origin and takes no part in equality.
    """

    quotient_map: ContinuousMap | None = None

    def __post_init__(self):
        if not self.space.is_T0:
            raise PreconditionFailed("a measure needs a T0 space, where every subset is Borel")
        super().__post_init__()
        if INF in self.weights:
            raise InfiniteMass("point weights must be finite")

    @property
    def point_weights(self) -> tuple[ExtRat, ...]:
        return self.weights

    def measure_of(self, subset: int) -> ExtRat:
        """The measure of any subset: the pairing of the weights with its indicator."""
        if subset & ~self.space.full:
            raise ShapeMismatch("subset has bits outside the point set")
        return wt.value(self.weights, subset)


def extend_to_measure(nu: va.Valuation) -> FiniteMeasure:
    """Extend a finite-mass valuation to a measure: on a T0 space the
    measure of a point is its weight."""
    if nu.mass.is_infinite:
        raise InfiniteMass("only finite-mass valuations extend to measures")
    if nu.space.is_T0:
        return FiniteMeasure(nu.space, nu.weights)
    quotient, qmap = kolmogorov_quotient(nu.space)
    return FiniteMeasure(quotient, va.pushforward(qmap, nu).weights, qmap)


def mult_E_measure(xi: va.SimpleSecondOrder) -> ProbValuation:
    """Multiplication of P on molecular input: a convex mixture of
    probability valuations, computed by the valuation-level multiplication.

    Its extension equals the mixture of the extended measures on every
    Borel set.
    """
    for _, nu in xi.atoms:
        _require_mass_one(nu)
    total = sum((c for c, _ in xi.atoms), ZERO)
    if total != ONE:
        raise NotNormalized(f"atom weights sum to {total}, not 1")
    return _as_prob(va.mult_E(xi))


def product_measure(
    p: va.Valuation, q: va.Valuation, prod: Product | None = None
) -> ProbValuation:
    """Product of probability valuations; its marginals are the factors."""
    _require_mass_one(p)
    _require_mass_one(q)
    return _as_prob(va.product_valuation(p, q, prod))
