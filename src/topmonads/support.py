"""The support map from valuations to closed sets, and the valuation
algebra map it induces.

A valuation is a [0, oo]-weight per point (`valuations`) and a closed set
the mask of its points (`hyperspace`); the support is the change of
scalars along the semiring homomorphism sgn, each weight sent to its sign,
then the closure, taken once: the closed set hitting exactly the opens of
positive mass.  A measure is a valuation, so `support` is its support too,
its least closed set of full measure.  A table a : HA -> A induces
e = a after support on the valuations of A (`algebra_evaluate`).

The laws about both live in `lawcheck`: the squares that make taking
supports a morphism of monads V -> H, with the sign route through the
duality, the integral sign test sgn<nu, g> and the scan for the least
closed set of full measure as oracles, and the transfer laws, by which e
is a V-algebra and a cone when a is an H-algebra.  `sgn` and `support` are
looked up when a function here runs, so a mutation patched into one of
them is seen.
"""

from __future__ import annotations

from .errors import ShapeMismatch
from .extrat import sgn
from .hyperspace import ClosedSet, closed_of_mask
from .spaces import FiniteSpace
from .valuations import Valuation


def support(nu: Valuation) -> ClosedSet:
    """The change of scalars along sgn, each weight sent to its sign, then
    the closure: the closure of the points of positive weight, which hits
    exactly the opens of positive mass."""
    positive = 0
    for x, w in enumerate(nu.weights):
        if sgn(w):
            positive |= 1 << x
    return closed_of_mask(nu.space, positive)


# --- the induced valuation algebra map ----------------------------------------


def algebra_evaluate(a_space: FiniteSpace, a_map, nu: Valuation) -> int:
    """The induced valuation-algebra map e = a after support; a_map is a
    table from the points of HA, the closed sets of A in ascending order,
    to the points of A."""
    a_space.require_here(nu)
    index = a_space.closed_index
    if len(a_map) != len(index):
        raise ShapeMismatch("a_map is not a table on the points of HA")
    for y in a_map:
        a_space.require_point(y)
    return a_map[index[support(nu).members]]
