"""Finite topological spaces as finite preorders.

A finite space is stored as an ordered tuple of point names plus, per point,
its smallest open neighbourhood as a bit-mask over point indices: the
up-set of the point in the specialization preorder.  Finite topologies are
exactly the Alexandrov topologies, so the opens are the up-sets of that
preorder; they are derived from it on demand, which is what makes the whole
order-theoretic toolbox below exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import (
    NotAPreorder,
    NotATopology,
    NotOpen,
    ShapeMismatch,
)


class cached:
    """A cached property without the lock that functools.cached_property
    takes on each first read before Python 3.12 (about 1 us): the value is
    stored in the instance's __dict__, where later reads find it first."""

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def distinct_names(names: Iterable[str]) -> tuple[str, ...]:
    """The names, made distinct: while some name is shared by several
    points, each of those points gets "#" and its index appended.

    Names that no other point shares stay as they are, and names of which
    none is shared cost one pass.  Two points renamed in the same or in
    different rounds end in their own, different, indices, so each round
    leaves fewer names never renamed, and the rounds stop.
    """
    names = tuple(names)
    while len(set(names)) != len(names):
        seen: dict[str, int] = {}
        for name in names:
            seen[name] = seen.get(name, 0) + 1
        names = tuple(
            f"{name}#{i}" if seen[name] > 1 else name for i, name in enumerate(names)
        )
    return names


def upsets_of_up_masks(
    n: int, up_masks: Sequence[int], limit: int | None = None
) -> list[int]:
    """All up-sets of the preorder with up(i) = up_masks[i], as sorted bit-masks.

    Adds one specialization class at a time, classes with fewer points
    above them first, so the classes above the one being added are already
    decided; the cost is at most the number of classes times the number of
    up-sets.  The points added so far always form an up-set, so every set
    found on the way is an up-set; with a limit, the search stops as soon as
    it has found more than limit of them and returns those, unsorted.
    """
    classes: dict[int, int] = {}  # up-mask -> the points sharing it
    for i in range(n):
        classes[up_masks[i]] = classes.get(up_masks[i], 0) | 1 << i
    sets = [0]
    for up, members in sorted(classes.items(), key=lambda item: popcount(item[0])):
        above = up & ~members
        sets += [s | members for s in sets if above & ~s == 0]
        if limit is not None and len(sets) > limit:
            return sets
    return sorted(sets)


@dataclass(frozen=True)
class FiniteSpace:
    """A finite topological space, stored as its specialization preorder:
    min_nbhd[x] is the smallest open neighbourhood of x, the points above x.
    Immutable after validated construction."""

    points: tuple[str, ...]
    min_nbhd: tuple[int, ...]
    # read in nearly every loop, so plain attributes set once
    n: int = field(init=False, repr=False, compare=False)
    full: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", len(self.points))
        object.__setattr__(self, "full", (1 << len(self.points)) - 1)

    def __eq__(self, other):
        # operands usually share their space object, so test identity first
        if self is other:
            return True
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self.points == other.points and self.min_nbhd == other.min_nbhd

    @cached
    def opens(self) -> tuple[int, ...]:
        """The open sets, sorted: the up-sets of the specialization preorder."""
        return tuple(upsets_of_up_masks(self.n, self.min_nbhd))

    def index(self, point: str) -> int:
        if point not in self.points:
            raise ShapeMismatch(f"{point!r} is not a point of the space")
        return self.points.index(point)

    def require_point(self, x) -> None:
        """Raise ShapeMismatch naming x unless it is a point index."""
        if not (isinstance(x, int) and 0 <= x < self.n):
            raise ShapeMismatch(f"{x!r} is not a point of the space")

    def require_here(self, *objects) -> tuple:
        """The objects, after checking that each lives on this space: raise
        ShapeMismatch naming the first that does not."""
        for obj in objects:
            space = getattr(obj, "space", None)
            if space is not self and space != self:
                raise ShapeMismatch(
                    f"{type(obj).__name__} does not live on the space {self.points}"
                )
        return objects

    def is_open(self, mask: int) -> bool:
        """Is mask an up-set of the specialization preorder?"""
        if mask >> len(self.points):  # negative, or bits outside the points
            return False
        rest = mask
        while rest:
            low = rest & -rest
            if self.min_nbhd[low.bit_length() - 1] & ~mask:
                return False
            rest ^= low
        return True

    def require_open(self, mask: int) -> None:
        if not self.is_open(mask):
            if mask >> len(self.points):
                raise NotOpen(f"mask {mask:b} has bits outside the point set")
            raise NotOpen(f"{self.mask_names(mask)} is not open")

    def mask_of(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self.index(name)
        return mask

    def mask_names(self, mask: int) -> list[str]:
        if mask & ~self.full:
            raise ShapeMismatch(f"mask {mask} has bits outside the point set")
        points, names = self.points, []
        while mask:  # step by the lowest set bit
            low = mask & -mask
            names.append(points[low.bit_length() - 1])
            mask ^= low
        return names

    # --- order-theoretic structure -------------------------------------

    def leq(self, x: int, y: int) -> bool:
        """Specialization: x <= y iff x lies in the closure of {y}."""
        n = self.n
        if type(x) is not int or type(y) is not int or not (0 <= x < n and 0 <= y < n):
            self.require_point(x)  # raises unless both are points (bools are ints)
            self.require_point(y)
        return bool(self.min_nbhd[x] >> y & 1)

    def specialization(self) -> set[tuple[str, str]]:
        points = self.points
        return {(points[x], points[y]) for x, up in enumerate(self.min_nbhd) for y in bits(up)}

    @cached
    def classes(self) -> tuple[int, ...]:
        """Per point x, the mask of its specialization class [x]: the points
        with the same smallest open neighborhood as x."""
        by_nbhd: dict[int, int] = {}
        for x, up in enumerate(self.min_nbhd):
            by_nbhd[up] = by_nbhd.get(up, 0) | 1 << x
        return tuple(by_nbhd[up] for up in self.min_nbhd)

    @cached
    def is_T0(self) -> bool:
        """Distinct points have distinct smallest neighbourhoods."""
        return len(set(self.min_nbhd)) == self.n

    @cached
    def least(self) -> tuple[int, ...]:
        """Per point x, the least point of its specialization class [x]."""
        return tuple((c & -c).bit_length() - 1 for c in self.classes)

    @cached
    def order_pairs(self) -> tuple[tuple[int, int], ...]:
        """The strict specialization pairs (x, y), y in min_nbhd[x] and
        y != x, ordered by x and then by y: the pairs that a monotonicity
        check walks, one step each.  Built on first use, in one step per
        pair and one per point."""
        pairs = []
        for x, up in enumerate(self.min_nbhd):
            up ^= 1 << x
            while up:  # step by the lowest set bit
                pairs.append((x, (up & -up).bit_length() - 1))
                up &= up - 1
        return tuple(pairs)

    def up_mask(self, x: int) -> int:
        """Points above x; equals the smallest open neighborhood of x."""
        return self.min_nbhd[x]

    @cached
    def _point_closures(self) -> tuple[int, ...]:
        """Per point y, the mask of cl{y}: the points x with y in min_nbhd[x]."""
        closures = [0] * len(self.points)
        for x, up in enumerate(self.min_nbhd):
            for y in bits(up):
                closures[y] |= 1 << x
        return tuple(closures)

    def closure(self, subset: int) -> int:
        """Smallest closed superset: the specialization down-set of subset,
        the union of the closures of its points."""
        if subset & ~self.full:
            raise ShapeMismatch("subset has bits outside the point set")
        closures = self._point_closures
        acc = 0
        while subset:
            low = subset & -subset
            acc |= closures[low.bit_length() - 1]
            subset ^= low
        return acc

    def closed_sets(self) -> list[int]:
        return sorted(self.full & ~u for u in self.opens)

    @cached
    def closed_index(self) -> dict[int, int]:
        """Each closed set's position in closed_sets(), which is its point
        in the hyperspace HX."""
        return {c: i for i, c in enumerate(self.closed_sets())}

    def is_closed(self, mask: int) -> bool:
        return self.is_open(self.full ^ mask)


def _min_nbhds(n: int, opens: Iterable[int]) -> tuple[int, ...]:
    full = (1 << n) - 1
    result = []
    for x in range(n):
        acc = full
        for u in opens:
            if u >> x & 1:
                acc &= u
        result.append(acc)
    return tuple(result)


def _intransitive(up_masks: Sequence[int]) -> tuple[int, int] | None:
    """None for a transitive relation; otherwise a witness (a, d): a is the
    least point with a point b above it whose up-mask is not inside a's,
    and d is the least point above the first such b but not above a."""
    for a, up in enumerate(up_masks):
        rest = up
        while rest:
            low = rest & -rest
            missing = up_masks[low.bit_length() - 1] & ~up
            if missing:
                return a, (missing & -missing).bit_length() - 1
            rest ^= low
    return None


def _unhashable(names: Iterable) -> object:
    """The first name that no dict can hold as a key."""
    for name in names:
        try:
            hash(name)
        except TypeError:
            return name
    return None


def from_opens(points: Sequence[str], opens: Iterable[int]) -> FiniteSpace:
    """Build a space from an explicit open family, validating the axioms.

    In a topology the smallest neighbourhood of x is the smallest member
    holding x, and a proper superset is a larger integer, so one pass over
    the members in ascending order guesses the preorder: each member
    becomes the least neighbourhood of the points it holds that no earlier
    member holds, and a point no member holds keeps the full set.  The
    family is accepted when the guess is a preorder whose up-sets are
    exactly the members; a family that passes is a topology, and the guess
    is then the intersection of the members holding each point.  Those
    up-sets, sorted, are kept as the space's opens.

    Only a family that fails reads the preorder off the intersections:
    every member holds the intersection for each of its points, so the
    family lies strictly inside the up-sets of that preorder, and the least
    up-set missing from the family is the witness.  A point name that is
    not hashable, and an open that is not an int, are named in a
    NotATopology.
    """
    points = tuple(points)
    try:
        distinct = len(set(points)) == len(points)
    except TypeError:
        raise NotATopology(f"point name {_unhashable(points)!r} is not hashable") from None
    if not distinct:
        raise NotATopology("duplicate point names")
    n = len(points)
    full = (1 << n) - 1
    try:
        family = set(opens)
        members = sorted(family)
        if members and (members[0] < 0 or members[-1] > full):
            u = next(u for u in members if u & ~full)
            raise NotATopology(f"open {u:b} has bits outside the point set")
        least = [full] * n
        uncovered = full
        for u in members:
            fresh = u & uncovered
            if fresh:
                uncovered ^= fresh
                while fresh:
                    low = fresh & -fresh
                    least[low.bit_length() - 1] = u
                    fresh ^= low
                if not uncovered:
                    break
    except TypeError:  # only a member that is not an int raises it here
        # a one-pass family no longer holds the member that raised
        named = [f"open {u!r}" for u in opens if not isinstance(u, int)] or ["an open"]
        raise NotATopology(f"{named[0]} is not a mask of points") from None
    # the up-set search assumes a preorder; the guess is reflexive
    if _intransitive(least) is None:
        upsets = upsets_of_up_masks(n, least, limit=len(family))
        # as many up-sets as members, all of them members: the search ran
        # to the end and sorted them
        if len(upsets) == len(family) and family.issuperset(upsets):
            space = FiniteSpace(points, tuple(least))
            space.__dict__["opens"] = tuple(upsets)
            return space
    space = FiniteSpace(points, _min_nbhds(n, family))
    # more up-sets than members already proves one missing
    upsets = upsets_of_up_masks(n, space.min_nbhd, limit=len(family))
    names = ",".join(space.mask_names(min(u for u in upsets if u not in family)))
    raise NotATopology(
        f"not a topology: {{{names}}} is a union of intersections of"
        " members but not a member"
    )


def from_preorder(
    points: Sequence[str], relation: Iterable[tuple[str, str]]
) -> FiniteSpace:
    """Build the Alexandrov space whose opens are the up-sets of a preorder.

    The relation is validated; a point name that is not hashable, an
    entry that is not a pair or names no point, and missing reflexive or
    transitive pairs, are rejected with a witness, never silently closed
    over.
    """
    points = tuple(points)
    n = len(points)
    try:
        idx = {p: i for i, p in enumerate(points)}
    except TypeError:
        raise NotAPreorder("point name is not hashable", _unhashable(points)) from None
    if len(idx) != n:
        raise NotAPreorder("duplicate point names", None)
    up_masks = [0] * n
    for entry in relation:
        try:
            a, b = entry
        except (TypeError, ValueError):
            raise NotAPreorder("entry is not a pair", entry) from None
        try:
            up_masks[idx[a]] |= 1 << idx[b]
        except (KeyError, TypeError):  # a name that is no point, or unhashable
            raise NotAPreorder("pair mentions unknown point", (a, b)) from None
    for i in range(n):
        if not up_masks[i] >> i & 1:
            raise NotAPreorder("not reflexive", (points[i], points[i]))
    witness = _intransitive(up_masks)
    if witness is not None:
        a, d = witness
        raise NotAPreorder("not transitive", (points[a], points[d]))
    # in a preorder, up(x) is the smallest up-set containing x
    return FiniteSpace(points, tuple(up_masks))


# --- continuous maps ----------------------------------------------------


@dataclass(frozen=True)
class ContinuousMap:
    """A map of finite spaces, as the target index of each source point.

    Continuity between Alexandrov spaces is monotonicity, checked by one
    membership test per strict specialization pair of the source.  Only a
    failing map is scanned again, to name its witness.
    """

    source: FiniteSpace
    target: FiniteSpace
    assignment: tuple[int, ...]  # per-source-point target index

    def __post_init__(self):
        if len(self.assignment) != self.source.n:
            raise ShapeMismatch("assignment length differs from source size")
        n = self.target.n
        for y in self.assignment:
            if type(y) is not int or not 0 <= y < n:
                self.target.require_point(y)  # raises unless y is a point
        f, up = self.assignment, self.target.min_nbhd
        for x, y in self.source.order_pairs:
            if not up[f[x]] >> f[y] & 1:
                self._discontinuity(x)

    def _discontinuity(self, x: int):
        """Raise NotATopology for the first point x whose neighbourhood is
        not mapped into that of f(x), naming the least target point outside."""
        fx = self.assignment[x]
        outside = self.image(self.source.min_nbhd[x]) & ~self.target.min_nbhd[fx]
        y = (outside & -outside).bit_length() - 1
        raise NotATopology(
            f"not continuous: {self.source.points[x]} lies below a point"
            f" mapped to {self.target.points[y]}, which is not above"
            f" {self.target.points[fx]}"
        )

    def __call__(self, x: int) -> int:
        return self.assignment[x]

    def preimage(self, mask: int) -> int:
        return sum(
            1 << x for x in range(self.source.n) if mask >> self.assignment[x] & 1
        )

    def image(self, mask: int) -> int:
        """The image of a subset, one step per point of it."""
        f = self.assignment
        out = 0
        while mask:  # step by the lowest set bit
            low = mask & -mask
            out |= 1 << f[low.bit_length() - 1]
            mask ^= low
        return out


def identity_map(space: FiniteSpace) -> ContinuousMap:
    return ContinuousMap(space, space, tuple(range(space.n)))


def compose(g: ContinuousMap, f: ContinuousMap) -> ContinuousMap:
    if f.target != g.source:
        raise ShapeMismatch("maps are not composable")
    return ContinuousMap(
        f.source, g.target, tuple(g.assignment[f.assignment[x]] for x in range(f.source.n))
    )


def constant_map(source: FiniteSpace, target: FiniteSpace, y: int) -> ContinuousMap:
    return ContinuousMap(source, target, (y,) * source.n)


# --- products -----------------------------------------------------------


@dataclass(frozen=True)
class Product:
    """The product space with its factors and projections; the pair
    (x, y) is the point x * |Y| + y."""

    space: FiniteSpace
    left: FiniteSpace
    right: FiniteSpace
    proj1: ContinuousMap
    proj2: ContinuousMap

    def pair(self, i: int, j: int) -> int:
        self.left.require_point(i)
        self.right.require_point(j)
        return i * self.right.n + j

    def split(self, p: int) -> tuple[int, int]:
        self.space.require_point(p)
        return divmod(p, self.right.n)

    def rectangle(self, u: int, v: int) -> int:
        """The mask of U x V in the product space: the mask of V shifted
        into the row of each point of U, one shift per point of U.  Both
        masks are checked first, so an empty U does not excuse a bad V."""
        for side, mask in ((self.left, u), (self.right, v)):
            if mask & ~side.full:
                raise ShapeMismatch(f"mask {mask} has bits outside the point set")
        return _rows(u, self.right.n) * v


def _rows(u: int, m: int) -> int:
    """One bit at the start of the row of each point of u, rows m bits
    wide: times a mask below 2 ** m, it shifts that mask into each row."""
    rows = 0
    while u:
        low = u & -u
        rows |= 1 << (low.bit_length() - 1) * m
        u ^= low
    return rows


def product(a: FiniteSpace, b: FiniteSpace) -> Product:
    """Product space with the rectangle-generated (= product preorder) topology.

    The point (x, y) is named "(x,y)" from the factors' names, made
    distinct by `distinct_names` where two such names coincide.  Its
    smallest neighbourhood is the rectangle of those of x and y: the
    factor mask of y shifted into the row of each point above x, by one
    multiplication per product point.
    """
    names = distinct_names(f"({p},{q})" for p in a.points for q in b.points)
    m = b.n
    up_masks = []
    for up in a.min_nbhd:
        rows = _rows(up, m)
        up_masks += [rows * v for v in b.min_nbhd]
    space = FiniteSpace(names, tuple(up_masks))
    proj1 = ContinuousMap(space, a, tuple(i for i in range(a.n) for _ in range(b.n)))
    proj2 = ContinuousMap(space, b, tuple(j for _ in range(a.n) for j in range(b.n)))
    return Product(space, a, b, proj1, proj2)


# --- separation, quotient, 2-cells, equivalence -------------------------


@dataclass(frozen=True)
class SeparationReport:
    is_T0: bool
    is_T1: bool
    is_sober: bool


def check_separation(space: FiniteSpace) -> SeparationReport:
    """T0: distinct points have distinct smallest neighbourhoods.  T1: each
    smallest neighbourhood is the point alone.

    Sober here means every irreducible closed set is the closure of a point.
    Every finite space is sober: a nonempty closed C is the union of the
    closures of its points, so an irreducible C is one of them.  That the
    generic point is unique is T0, reported separately.
    """
    return SeparationReport(
        is_T0=space.is_T0,
        is_T1=all(up == 1 << x for x, up in enumerate(space.min_nbhd)),
        is_sober=True,
    )


def kolmogorov_quotient(space: FiniteSpace) -> tuple[FiniteSpace, ContinuousMap]:
    """Identify specialization-equivalent points; result is T0.  The
    classes keep the order of their least points, and each is named by
    its points' names joined with "|", made distinct by `distinct_names`
    where two such names coincide.  A class lies below the classes that
    meet the up-mask of its points."""
    classes = list(dict.fromkeys(space.classes))
    class_of = tuple(classes.index(c) for c in space.classes)
    names = distinct_names("|".join(space.mask_names(c)) for c in classes)
    ups = [space.min_nbhd[(c & -c).bit_length() - 1] for c in classes]
    quotient = FiniteSpace(
        names, tuple(sum(1 << k for k, c in enumerate(classes) if c & up) for up in ups)
    )
    return quotient, ContinuousMap(space, quotient, class_of)


def le_2cell(f: ContinuousMap, g: ContinuousMap) -> bool:
    """2-cell order: f <= g pointwise in the target's specialization."""
    if f.source != g.source or f.target != g.target:
        raise ShapeMismatch("2-cell comparison needs shared source and target")
    up = f.target.min_nbhd
    return all(up[fx] >> gx & 1 for fx, gx in zip(f.assignment, g.assignment))


def is_equivalence(f: ContinuousMap) -> tuple[bool, ContinuousMap | None]:
    """2-categorical equivalence test with an explicit quasi-inverse witness.

    f is an equivalence exactly when it preserves and reflects the
    specialization preorder, the preimage of the up-mask of each f(x) being
    the up-mask of x, and every target point is equivalent to some f(x).
    """
    src, tgt = f.source, f.target
    if any(
        f.preimage(tgt.min_nbhd[fx]) != up for fx, up in zip(f.assignment, src.min_nbhd)
    ):
        return False, None
    # quasi-inverse: send y to the first x with f(x) ~ y
    found = [
        [x for x, fx in enumerate(f.assignment) if tgt.classes[y] >> fx & 1]
        for y in range(tgt.n)
    ]
    if not all(found):
        return False, None
    return True, ContinuousMap(tgt, src, tuple(xs[0] for xs in found))


def way_below(space: FiniteSpace, v: int, u: int) -> bool:
    """Relative compactness: every open cover of u has a finite subcover of v.

    On a finite space every subfamily of opens is finite, so the condition
    collapses to v being a subset of u.
    """
    space.require_open(v)
    space.require_open(u)
    return v & ~u == 0


def subspace(space: FiniteSpace, mask: int) -> tuple[FiniteSpace, ContinuousMap]:
    """Induced subspace on the points of mask, with its inclusion map: the
    preorder restricted to those points."""
    if mask >> space.n:
        raise ShapeMismatch("mask has bits outside the point set")
    kept = list(bits(mask))
    names = tuple(space.points[x] for x in kept)
    min_nbhd = tuple(
        sum(1 << i for i, y in enumerate(kept) if space.min_nbhd[x] >> y & 1)
        for x in kept
    )
    sub = FiniteSpace(names, min_nbhd)
    incl = ContinuousMap(sub, space, tuple(kept))
    return sub, incl


# --- canned corpus -------------------------------------------------------


def empty_space() -> FiniteSpace:
    return from_opens((), [0])


def one_point() -> FiniteSpace:
    return from_opens(("*",), [0, 1])


def sierpinski() -> FiniteSpace:
    """Points 0, 1 with opens {}, {1}, {0,1}; 0 <= 1 in specialization."""
    return from_preorder(("0", "1"), [("0", "0"), ("1", "1"), ("0", "1")])


def discrete(n: int) -> FiniteSpace:
    names = tuple(f"d{i}" for i in range(n))
    return from_preorder(names, [(p, p) for p in names])


def indiscrete(n: int) -> FiniteSpace:
    names = tuple(f"i{i}" for i in range(n))
    return from_preorder(names, [(p, q) for p in names for q in names])


def chain(n: int) -> FiniteSpace:
    names = tuple(f"c{i}" for i in range(n))
    rel = [(names[i], names[j]) for i in range(n) for j in range(i, n)]
    return from_preorder(names, rel)


def w_lattice() -> FiniteSpace:
    """The four-point diamond: bottom 0, incomparable x and y, top t."""
    names = ("0", "x", "y", "t")
    rel = {(p, p) for p in names}
    rel |= {("0", "x"), ("0", "y"), ("0", "t"), ("x", "t"), ("y", "t")}
    return from_preorder(names, rel)
