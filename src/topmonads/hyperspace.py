"""The hyperspace of closed sets with the lower Vietoris topology.

A closed set is the bit-mask of its points, and every operation computes
on masks with the kernels of `spaces`: the unit, push, multiplication,
strength, costrength and product each form a mask (a point, an image, the
OR of a family's members, a rectangle {x} x C, C x {y} or C x D) and close
it once, in `closed_of_mask`.  A `HitFunctional` reads its closed set off
its table, the complement of the opens valued False, and checks its table.

Points of HX are the closed subsets of X (always including the empty set),
ordered by inclusion; the lower Vietoris topology generated by the sets
Hit(U) coincides with the up-set topology of that order, so the builder
constructs HX from the inclusion order alone; `lawcheck.vietoris_topology`
regenerates the topology from the Hit subbasis as an oracle.  Iterated
hyperspaces reuse the same machinery through inclusion orders on
bit-masks, so HHX and HHHX never materialize a power set.

`lawcheck` writes the structural laws of H and V once, over both, and
checks the support V -> H there as a monad morphism.  Both composites of
the commutativity square are oracles there too, compared in a named law
with the product of closed sets.  So are the H-algebra laws:
`join_algebra_map` gives the table that `lawcheck` checks against the
algebra diagrams and the join-semilattice characterization.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import (
    LawViolation,
    NotAValidFunctional,
    NotClosedFamily,
    ShapeMismatch,
)
from .spaces import (
    ContinuousMap,
    FiniteSpace,
    Product,
    bits,
    distinct_names,
    upsets_of_up_masks,
)


def inclusion_up_masks(member_masks: Sequence[int]) -> list[int]:
    """up[i] = indices j with member_masks[i] included in member_masks[j].

    The order is transposed: contains[x] is the mask of the members that
    hold the point x, and up[i] is the AND of contains[x] over the points x
    of member i (every member, when member i is empty).  For m members on
    n points that is O(m * n) steps on m-bit masks, not m ** 2 subset
    tests.
    """
    if not member_masks:
        return []
    contains = [0] * max(member_masks).bit_length()
    for j, mask in enumerate(member_masks):
        bit = 1 << j
        while mask:  # step by the lowest set bit
            low = mask & -mask
            contains[low.bit_length() - 1] |= bit
            mask ^= low
    everything = (1 << len(member_masks)) - 1
    up = []
    for mask in member_masks:
        acc = everything
        while mask:
            low = mask & -mask
            acc &= contains[low.bit_length() - 1]
            mask ^= low
        up.append(acc)
    return up


def inclusion_downsets(member_masks: Sequence[int]) -> list[int]:
    """All down-sets of the inclusion order on member_masks, as bit-masks.

    A down-set may add j whenever all members below j are in; this walks the
    down-set lattice and never touches the ambient power set.
    """
    n = len(member_masks)
    full = (1 << n) - 1  # down-sets are the complements of up-sets
    return sorted(full & ~u for u in upsets_of_up_masks(n, inclusion_up_masks(member_masks)))


@dataclass(frozen=True)
class ClosedSet:
    """A closed set, as the mask of its points; built from outside input,
    it checks that the mask is closed, where `closed_of_mask` closes it."""

    space: FiniteSpace
    members: int

    def __post_init__(self):
        if not isinstance(self.members, int) or self.members & ~self.space.full:
            raise ShapeMismatch(f"members {self.members} outside the point set")
        if self.space.closure(self.members) != self.members:
            raise NotClosedFamily(
                f"{self.space.mask_names(self.members)} is not closed"
            )

    def names(self) -> list[str]:
        return self.space.mask_names(self.members)


def closed_of_mask(space: FiniteSpace, mask: int) -> ClosedSet:
    """The closure of a mask of points, as a closed set: one closure, and
    no second one to check it (a ShapeMismatch for bits outside the points)."""
    c = object.__new__(ClosedSet)
    c.__dict__.update(space=space, members=space.closure(mask))
    return c


@dataclass(frozen=True)
class Hyperspace:
    base: FiniteSpace
    space: FiniteSpace
    members: tuple[int, ...]  # base.closed_sets(): the closed-set mask per HX point

    def point_of(self, mask: int) -> int:
        index = self.base.closed_index
        if mask not in index:
            raise ShapeMismatch(f"{mask!r} is not a closed set of the base")
        return index[mask]

    def closed_of(self, idx: int) -> ClosedSet:
        self.space.require_point(idx)
        return ClosedSet(self.base, self.members[idx])

    def hit_mask(self, u: int) -> int:
        """Hit(U) as a bit-mask over HX points."""
        self.base.require_open(u)
        return sum(1 << i for i, m in enumerate(self.members) if m & u)


def _hyperspace_name(base: FiniteSpace, mask: int) -> str:
    return "{" + ",".join(base.mask_names(mask)) + "}"


def build_hyperspace(x: FiniteSpace) -> Hyperspace:
    """Construct HX as the up-set topology of inclusion on closed sets.

    A closed set is named by its points' names, joined with "," inside
    braces, made distinct by `spaces.distinct_names` where two such names
    coincide."""
    closed = tuple(x.closed_sets())
    up_masks = inclusion_up_masks(closed)
    names = distinct_names(_hyperspace_name(x, c) for c in closed)
    space = FiniteSpace(names, tuple(up_masks))
    return Hyperspace(x, space, closed)


# --- hit coupling and duality -------------------------------------------


def hit(c: ClosedSet, u: int) -> bool:
    """The coupling <C|U>: true iff C intersects the open U."""
    c.space.require_open(u)
    return bool(c.members & u)


@dataclass(frozen=True)
class HitFunctional:
    """A strict, join-preserving boolean table on the opens: the hit table of `closed`."""

    space: FiniteSpace
    table: tuple[bool, ...]  # aligned with space.opens
    closed: ClosedSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        opens, table = self.space.opens, self.table
        if not isinstance(table, Sequence) or [type(t) for t in table] != [bool] * len(opens):
            raise ShapeMismatch(f"the table needs one bool per open, {len(opens)} in all")
        object.__setattr__(self, "table", tuple(table))
        false = 0  # the union of the opens the table misses, itself open
        for u, t in zip(opens, table):
            if not t:
                false |= u
        closed = self.space.full & ~false
        if tuple([bool(closed & u) for u in opens]) != self.table:  # scan the pairs
            lookup = dict(zip(opens, table))
            if lookup[0]:
                raise NotAValidFunctional("not strict", witness=(0,))
            for u in opens:
                for v in opens:
                    if lookup[u | v] != (lookup[u] or lookup[v]):
                        witness = (self.space.mask_names(u), self.space.mask_names(v))
                        raise NotAValidFunctional("not join-preserving", witness=witness)
            raise LawViolation("the closed set read off a valid table does not reproduce it")
        object.__setattr__(self, "closed", closed_of_mask(self.space, closed))

    def value(self, u: int) -> bool:
        return hit(self.closed, u)


def functional_of_closed(c: ClosedSet) -> HitFunctional:
    return HitFunctional(c.space, [bool(c.members & u) for u in c.space.opens])


def closed_of_functional(phi: HitFunctional) -> ClosedSet:
    """The closed set read off its hit table: the complement of the opens
    it misses."""
    return phi.closed


# --- monad structure ------------------------------------------------------


def unit_sigma(space: FiniteSpace, x: int) -> ClosedSet:
    """The unit of H: the closure of the singleton {x}."""
    space.require_point(x)
    return closed_of_mask(space, 1 << x)


def push_closed(f: ContinuousMap, c: ClosedSet) -> ClosedSet:
    """Functorial action: the closure of the image of C under f."""
    f.source.require_here(c)
    return closed_of_mask(f.target, f.image(c.members))


def mult_union(hx: Hyperspace, family) -> ClosedSet:
    """The multiplication of H: the closure of the union of the members of
    a closed family."""
    if not isinstance(family, ClosedSet):
        # HX is specialized by inclusion, so its closed sets are the down-sets
        family = ClosedSet(hx.space, family)
    hx.space.require_here(family)
    members, union, rest = hx.members, 0, family.members
    while rest:  # step by the lowest set bit
        low = rest & -rest
        union |= members[low.bit_length() - 1]
        rest ^= low
    return closed_of_mask(hx.base, union)


def unit_closure_membership(space: FiniteSpace, c: ClosedSet) -> bool:
    """Is c in the closure of the image of sigma inside HX?

    Decided by the finite-intersection criterion: all opens hit by c must
    have a common point.  Every open that hits c contains the smallest
    neighbourhood of a point of c, so it suffices to intersect those.
    """
    space.require_here(c)
    common = space.full
    for x in bits(c.members):
        common &= space.min_nbhd[x]
    return bool(common)


# --- strength and products ------------------------------------------------


def strength_H(prod: Product, x: int, c: ClosedSet) -> ClosedSet:
    """s(x, C): the push of C along y -> (x, y), the closure of {x} x C."""
    prod.right.require_here(c)
    prod.left.require_point(x)
    return closed_of_mask(prod.space, prod.rectangle(1 << x, c.members))


def costrength_H(prod: Product, c: ClosedSet, y: int) -> ClosedSet:
    """t(C, y): the push of C along x -> (x, y), the closure of C x {y}."""
    prod.left.require_here(c)
    prod.right.require_point(y)
    return closed_of_mask(prod.space, prod.rectangle(c.members, 1 << y))


def product_closed(prod: Product, c: ClosedSet, d: ClosedSet) -> ClosedSet:
    """The monoidal structure map of H: (C, D) -> C x D."""
    prod.left.require_here(c)
    prod.right.require_here(d)
    return closed_of_mask(prod.space, prod.rectangle(c.members, d.members))


def marginals(prod: Product, e: ClosedSet) -> tuple[ClosedSet, ClosedSet]:
    """Opmonoidal comultiplication: project a closed set to both factors."""
    prod.space.require_here(e)
    return push_closed(prod.proj1, e), push_closed(prod.proj2, e)


# --- algebras ---------------------------------------------------------------


def join_of_closed(space: FiniteSpace, mask: int) -> int | None:
    """Least upper bound of a closed subset in specialization, if it exists.

    The join of the empty set is the bottom element.
    """
    uppers = space.full  # the points above every point of mask
    for x in bits(space.closure(mask)):  # which has the same upper bounds
        uppers &= space.min_nbhd[x]
    least = [z for z in bits(uppers) if uppers & ~space.min_nbhd[z] == 0]
    return least[0] if len(least) == 1 else None


def join_algebra_map(space: FiniteSpace) -> list[int] | None:
    """The join-of-closed-sets table on HX points, or None if a join is
    missing.  HX orders its points as closed_sets() does, ascending."""
    table = [join_of_closed(space, m) for m in space.closed_sets()]
    return None if None in table else table
