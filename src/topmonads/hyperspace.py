"""The hyperspace of closed sets with the lower Vietoris topology.

Points of HX are the closed subsets of X (always including the empty set),
ordered by inclusion; the lower Vietoris topology generated by the sets
Hit(U) coincides with the up-set topology of that order, so the builder
constructs HX from the inclusion order alone; `_vietoris_topology`
regenerates the topology from the Hit subbasis as an oracle for the law
suites.  Iterated hyperspaces reuse the same machinery through inclusion
orders on bit-masks, so HHX and HHHX never materialize a power set.

The strength and costrength push a closed set along the sections
y -> (x, y) and x -> (x, y) of a product.  Both composites of the
commutativity square are oracles in `lawcheck`, where a named law compares
them with the product of closed sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import (
    NotATopology,
    NotAValidFunctional,
    NotClosedFamily,
    ShapeMismatch,
)
from .spaces import (
    ContinuousMap,
    FiniteSpace,
    Product,
    bits,
    check_separation,
    product,
    upsets_of_up_masks,
)


def inclusion_up_masks(member_masks: Sequence[int]) -> list[int]:
    """up[i] = indices j with member_masks[i] included in member_masks[j]."""
    n = len(member_masks)
    return [
        sum(1 << j for j in range(n) if member_masks[i] & ~member_masks[j] == 0)
        for i in range(n)
    ]


def inclusion_downsets(member_masks: Sequence[int]) -> list[int]:
    """All down-sets of the inclusion order on member_masks, as bit-masks.

    A down-set may add j whenever all members below j are in; this walks the
    down-set lattice and never touches the ambient power set.
    """
    n = len(member_masks)
    # down-sets of <= are up-sets of >=
    rev_up = [
        sum(1 << j for j in range(n) if member_masks[j] & ~member_masks[i] == 0)
        for i in range(n)
    ]
    return upsets_of_up_masks(n, rev_up)


@dataclass(frozen=True)
class ClosedSet:
    space: FiniteSpace
    members: int

    def __post_init__(self):
        if self.members & ~self.space.full:
            raise ShapeMismatch("members outside the point set")
        if self.space.closure(self.members) != self.members:
            raise NotClosedFamily(
                f"{self.space.mask_names(self.members)} is not closed"
            )

    def names(self) -> list[str]:
        return self.space.mask_names(self.members)


@dataclass(frozen=True)
class Hyperspace:
    base: FiniteSpace
    space: FiniteSpace
    members: tuple[int, ...]  # closed-set mask of the base per HX point

    @cached_property
    def _index(self) -> dict[int, int]:
        """The HX point of each closed-set mask."""
        return {m: i for i, m in enumerate(self.members)}

    def point_of(self, mask: int) -> int:
        return self._index[mask]

    def closed_of(self, idx: int) -> ClosedSet:
        if idx not in range(len(self.members)):
            raise ShapeMismatch(f"{idx!r} is not a point of the hyperspace")
        return ClosedSet(self.base, self.members[idx])

    def hit_mask(self, u: int) -> int:
        """Hit(U) as a bit-mask over HX points."""
        self.base.require_open(u)
        return sum(1 << i for i, m in enumerate(self.members) if m & u)


def _hyperspace_name(base: FiniteSpace, mask: int) -> str:
    return "{" + ",".join(base.mask_names(mask)) + "}"


def build_hyperspace(x: FiniteSpace) -> Hyperspace:
    """Construct HX as the up-set topology of inclusion on closed sets."""
    closed = tuple(sorted(x.closed_sets()))
    up_masks = inclusion_up_masks(closed)
    names = tuple(_hyperspace_name(x, c) for c in closed)
    space = FiniteSpace(names, tuple(up_masks))
    return Hyperspace(x, space, closed)


def _vietoris_topology(hx: Hyperspace) -> set[int]:
    """Topology generated by the subbasis {Hit(U) : U open}, via closure
    under pairwise intersection then pairwise union."""
    full = hx.space.full
    subbasis = {hx.hit_mask(u) for u in hx.base.opens}
    basis = {full} | subbasis
    frontier = set(basis)
    while frontier:
        new = set()
        for a in frontier:
            for b in subbasis:
                c = a & b
                if c not in basis:
                    new.add(c)
        basis |= new
        frontier = new
    family = {0} | basis
    frontier = set(family)
    while frontier:
        new = set()
        for a in frontier:
            for b in basis:
                c = a | b
                if c not in family:
                    new.add(c)
        family |= new
        frontier = new
    return family


# --- hit coupling and duality -------------------------------------------


def hit(c: ClosedSet, u: int) -> bool:
    """The coupling <C|U>: true iff C intersects the open U."""
    c.space.require_open(u)
    return bool(c.members & u)


@dataclass(frozen=True)
class HitFunctional:
    """A strict, join-preserving boolean functional on the open lattice."""

    space: FiniteSpace
    table: tuple[bool, ...]  # aligned with space.opens

    def __post_init__(self):
        opens = self.space.opens
        if len(self.table) != len(opens):
            raise NotAValidFunctional("table size differs from number of opens")
        lookup = {u: t for u, t in zip(opens, self.table)}
        if lookup[0]:
            raise NotAValidFunctional("not strict", witness=(0,))
        for u in opens:
            for v in opens:
                if lookup[u | v] != (lookup[u] or lookup[v]):
                    raise NotAValidFunctional(
                        "not join-preserving",
                        witness=(
                            self.space.mask_names(u),
                            self.space.mask_names(v),
                        ),
                    )

    def value(self, u: int) -> bool:
        self.space.require_open(u)
        return self.table[self.space.opens.index(u)]


def functional_of_closed(c: ClosedSet) -> HitFunctional:
    return HitFunctional(
        c.space, tuple(bool(c.members & u) for u in c.space.opens)
    )


def closed_of_functional(phi: HitFunctional) -> ClosedSet:
    null = 0
    for u, t in zip(phi.space.opens, phi.table):
        if not t:
            null |= u
    return ClosedSet(phi.space, phi.space.full & ~null)


# --- monad structure ------------------------------------------------------


def unit_sigma(space: FiniteSpace, x: int) -> ClosedSet:
    """The unit of H: the closure of the singleton {x}."""
    if x not in range(space.n):
        raise ShapeMismatch(f"{x!r} is not a point of the space")
    return ClosedSet(space, space.closure(1 << x))


def push_closed(f: ContinuousMap, c: ClosedSet) -> ClosedSet:
    """Functorial action: the closure of the image of C under f."""
    if c.space != f.source:
        raise ShapeMismatch("closed set does not live on the map's source")
    return ClosedSet(f.target, f.target.closure(f.image(c.members)))


def mult_union(hx: Hyperspace, family) -> ClosedSet:
    """The multiplication of H: closure of the union of a closed family."""
    if isinstance(family, ClosedSet):
        if family.space != hx.space:
            raise ShapeMismatch("family does not live on the hyperspace")
        mask = family.members
    else:
        mask = int(family)
        if mask & ~hx.space.full:  # negative, or bits outside HX's points
            raise ShapeMismatch(f"family {mask} is not a set of hyperspace points")
        # HX is specialized by inclusion, so its closed sets are the down-sets
        if hx.space.closure(mask) != mask:
            raise NotClosedFamily("family is not down-closed under inclusion")
    union = 0
    for i in bits(mask):
        union |= hx.members[i]
    return ClosedSet(hx.base, hx.base.closure(union))


def sigma_is_embedding(space: FiniteSpace) -> bool:
    """sigma is a subspace embedding exactly when the space is T0."""
    return check_separation(space).is_T0


def unit_closure_membership(space: FiniteSpace, c: ClosedSet) -> bool:
    """Is c in the closure of the image of sigma inside HX?

    Decided by the finite-intersection criterion: all opens hit by c must
    have a common point.  Every open that hits c contains the smallest
    neighbourhood of a point of c, so it suffices to intersect those.
    """
    if c.space != space:
        raise ShapeMismatch("closed set lives on a different space")
    common = space.full
    for x in bits(c.members):
        common &= space.min_nbhd[x]
    return bool(common)


# --- strength and products ------------------------------------------------


def strength_H(prod: Product, x: int, c: ClosedSet) -> ClosedSet:
    """s(x, C): the push of C along y -> (x, y), the closure of {x} x C."""
    if c.space != prod.right:
        raise ShapeMismatch("closed set must live on the right factor")
    return push_closed(prod.at_left(x), c)


def costrength_H(prod: Product, c: ClosedSet, y: int) -> ClosedSet:
    """t(C, y): the push of C along x -> (x, y), the closure of C x {y}."""
    if c.space != prod.left:
        raise ShapeMismatch("closed set must live on the left factor")
    return push_closed(prod.at_right(y), c)


def product_closed(prod: Product, c: ClosedSet, d: ClosedSet) -> ClosedSet:
    """The monoidal structure map of H: (C, D) -> C x D."""
    if c.space != prod.left or d.space != prod.right:
        raise ShapeMismatch("closed sets do not match the product factors")
    return ClosedSet(prod.space, prod.rectangle(c.members, d.members))


def marginals(prod: Product, e: ClosedSet) -> tuple[ClosedSet, ClosedSet]:
    """Opmonoidal comultiplication: project a closed set to both factors."""
    if e.space != prod.space:
        raise ShapeMismatch("closed set does not live on the product")
    return push_closed(prod.proj1, e), push_closed(prod.proj2, e)


# --- algebras ---------------------------------------------------------------


@dataclass(frozen=True)
class HAlgebraVerdict:
    unit_ok: bool
    square_ok: bool
    map_continuous: bool
    equals_join: bool
    is_join_semilattice: bool
    binary_join_continuous: bool
    closed_join_continuous: bool

    @property
    def is_algebra(self) -> bool:
        return self.unit_ok and self.square_ok and self.map_continuous

    @property
    def characterization(self) -> bool:
        return self.equals_join and self.is_join_semilattice


def join_of_closed(space: FiniteSpace, mask: int) -> int | None:
    """Least upper bound of a closed subset in specialization, if it exists.

    The join of the empty set is the bottom element.
    """
    uppers = [
        z
        for z in range(space.n)
        if all(space.leq(x, z) for x in bits(mask))
    ]
    least = [
        z for z in uppers if all(space.leq(z, w) for w in uppers)
    ]
    if len(least) != 1:
        return None
    return least[0]


def join_algebra_map(space: FiniteSpace) -> list[int] | None:
    """The join-of-closed-sets table on HX points, or None if a join is missing."""
    hx = build_hyperspace(space)
    table = []
    for m in hx.members:
        j = join_of_closed(space, m)
        if j is None:
            return None
        table.append(j)
    return table


def check_H_algebra(a_space: FiniteSpace, a_map: Sequence[int]) -> HAlgebraVerdict:
    """Verify the two algebra diagrams for the table a_map : HA -> A and
    compare against the join-semilattice characterization."""
    hx = build_hyperspace(a_space)
    if len(a_map) != len(hx.members):
        raise ShapeMismatch("a_map is not a table on the points of HA")
    a_map = tuple(a_map)

    try:
        ContinuousMap(hx.space, a_space, a_map)
        map_continuous = True
    except NotATopology:
        map_continuous = False

    unit_ok = all(
        a_map[hx.point_of(a_space.closure(1 << x))] == x
        for x in range(a_space.n)
    )

    square_ok = True
    for fam in inclusion_downsets(hx.members):
        union = 0
        for i in bits(fam):
            union |= hx.members[i]
        via_mult = a_map[hx.point_of(a_space.closure(union))]
        image = 0
        for i in bits(fam):
            image |= 1 << a_map[i]
        via_push = a_map[hx.point_of(a_space.closure(image))]
        if via_mult != via_push:
            square_ok = False
            break

    joins = [join_of_closed(a_space, m) for m in hx.members]
    equals_join = all(j is not None for j in joins) and all(
        a_map[i] == joins[i] for i in range(len(joins))
    )

    sep = check_separation(a_space)
    complete = all(j is not None for j in joins)
    binary_join_continuous = False
    closed_join_continuous = False
    if complete:
        try:
            ContinuousMap(hx.space, a_space, tuple(joins))
            closed_join_continuous = True
        except NotATopology:
            closed_join_continuous = False
        # every closed set has a join, so every pair {x, y} does too
        pair_join = tuple(
            joins[hx.point_of(a_space.closure(1 << x | 1 << y))]
            for x in range(a_space.n)
            for y in range(a_space.n)
        )
        try:
            ContinuousMap(product(a_space, a_space).space, a_space, pair_join)
            binary_join_continuous = True
        except NotATopology:
            binary_join_continuous = False
    is_tcjs = (
        sep.is_T0
        and sep.is_sober
        and complete
        and binary_join_continuous
        and closed_join_continuous
    )
    return HAlgebraVerdict(
        unit_ok,
        square_ok,
        map_continuous,
        equals_join,
        is_tcjs,
        binary_join_continuous,
        closed_join_continuous,
    )
