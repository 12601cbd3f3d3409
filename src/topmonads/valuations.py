"""Continuous valuations with exact extended-rational values, stored as
point weights.

A valuation assigns a value in [0, oo] to every open set, strictly,
monotonely, and modularly; on a finite open lattice every directed family
contains its supremum, so these three conditions already give Scott
continuity (a theorem, not a runtime check).  On a finite space every such
valuation is a finite sum of weighted Diracs (Jones 1990; Heckmann 1996),
so a `Valuation` is one [0, oo] weight per point, and V is the monad of
[0, oo]-valued multisets (Coumans and Jacobs, "Scalars, monads, and
categories", 2013; Kock, TAC 2012), H being the {0, 1} instance on masks
(`hyperspace`).  Each operation of V is written once, here, on weight
tuples with the weights' own `+` and `*`; the loops several operations
share are `_push`, `_mix`, `_pairing` and `Valuation._total`, and a sum
starts from its first nonzero term.  The module also provides the weak
topology subbasis, the Portmanteau certificates that place a valuation in
a subbasic open, and order comparisons.  The second routes that confirm
these operations are laws in `lawcheck`, among them the double-dual side
of the multiplication, xi(nu -> <nu, g>), the monotone test functions and
the soundness check of a certificate.

Every stored weight tuple is in normal form: one `ExtRat` per point, each
specialization class's weight on its least point and zero on the class's
other points.  The operations build their results in that form, so each
valuation they return is built once, by `_of_weights`, as computed.  Only
the public constructor `Valuation(space, weights)` normalises weights from
outside: it coerces them and pushes each to the least point of its class,
a push it skips on a T0 space, where every point is least.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    LawViolation,
    NotAKernel,
    NotAPreorder,
    NotLowerSemicontinuous,
    NotModular,
    NotMonotone,
    NotStrict,
    OrderNotClosed,
    PreconditionFailed,
    ShapeMismatch,
)
from .extrat import INF, ExtRat, ONE, ZERO, ext, monus, sgn
from .spaces import ContinuousMap, FiniteSpace, Product, cached, from_preorder, product


def _push(assignment: Sequence[int], n: int, w: Sequence) -> tuple:
    """Each weight w_x moves to assignment[x], one of n target points."""
    out = [ZERO] * n
    for x, a in enumerate(w):
        y = assignment[x]
        out[y] = a if out[y] is ZERO else out[y] + a
    return tuple(out)


def _mix(n: int, mixture: Iterable[tuple[ExtRat, Sequence]]) -> tuple:
    """The sum of c * w over the (c, w) pairs of a finite mixture, on n
    points."""
    out = [ZERO] * n
    for c, w in mixture:
        for x, a in enumerate(w):
            if a:
                ca = c * a
                out[x] = ca if out[x] is ZERO else out[x] + ca
    return tuple(out)


def _pairing(w: Sequence, g: Sequence) -> ExtRat:
    """<w, g>, the sum of w_x * g(x)."""
    acc = ZERO
    for a, b in zip(w, g):
        if a:
            acc = a * b if acc is ZERO else acc + a * b
    return acc


@dataclass(frozen=True, eq=False)
class Valuation:
    """The valuation U -> sum of the point weights over U.

    Each specialization class keeps its total weight on its least point.
    Two valuations are equal when they agree on every open, which is when
    their weights agree in canonical form, which fills in the weights an
    oo hides.
    """

    space: FiniteSpace
    weights: tuple[ExtRat, ...]

    def __post_init__(self):
        space = self.space
        weights = [w if type(w) is ExtRat else ext(w) for w in self.weights]
        if len(weights) != space.n:
            raise ShapeMismatch("one weight per point required")
        # push each weight to the least point of its class
        object.__setattr__(
            self,
            "weights",
            tuple(weights) if space.is_T0 else _push(space.least, space.n, weights),
        )

    @cached
    def _canonical(self) -> tuple[ExtRat, ...]:
        """The weights with oo on every point below an oo weight, which
        fixes every other weight by the values on the opens."""
        w = self.weights
        tops = sum([1 << x for x, a in enumerate(w) if a == INF])
        if not tops:
            return w
        below = self.space.closure(tops)
        return tuple([INF if below >> x & 1 else a for x, a in enumerate(w)])

    def __eq__(self, other):
        if not isinstance(other, Valuation):
            return NotImplemented
        return self.space == other.space and self._canonical == other._canonical

    def __hash__(self):
        return hash((self.space, self._canonical))

    def _total(self, subset: int) -> ExtRat:
        """The sum of the weights over any subset of the points."""
        w = self.weights
        acc = ZERO
        while subset:  # step by the lowest set bit
            a = w[(subset & -subset).bit_length() - 1]
            if a:
                acc = a if acc is ZERO else acc + a
            subset &= subset - 1
        return acc

    @cached
    def table(self) -> tuple[ExtRat, ...]:
        """The values on `space.opens`, in order."""
        total = self._total
        return tuple([total(u) for u in self.space.opens])

    def value(self, u: int) -> ExtRat:
        """nu(U), the sum of the weights over U: an open holds whole
        specialization classes, so it holds each class's weight whole."""
        self.space.require_open(u)
        return self._total(u)

    @cached
    def mass(self) -> ExtRat:
        return sum(self.weights, ZERO)

    def is_zero(self) -> bool:
        return not any(self.weights)


def _of_weights(space: FiniteSpace, weights: tuple[ExtRat, ...]) -> Valuation:
    """The valuation with weights already in normal form, as the
    operations build them: no coercion and no push."""
    nu = object.__new__(Valuation)
    fields = nu.__dict__
    fields["space"] = space
    fields["weights"] = weights
    return nu


def valuation_from_weights(space: FiniteSpace, weights) -> Valuation:
    """The valuation U -> sum of weights over the points of U; `weights` is
    a sequence per point or a dict from point names."""
    if isinstance(weights, dict):
        unknown = [name for name in weights if name not in space.points]
        if unknown:
            raise ShapeMismatch(f"{unknown[0]!r} is not a point of the space")
        weights = tuple(weights.get(p, ZERO) for p in space.points)
    return Valuation(space, tuple(weights))


def validate_valuation(space: FiniteSpace, table) -> Valuation:
    """The valuation with the given values on `space.opens`, after checking
    strictness, monotonicity, and modularity: the weights
    w_x = v(up x) - v(up x minus [x]), truncated, are read back off the
    table onto the least point of each class, and only a table they do not
    give back is scanned pairwise for a NotMonotone or NotModular witness.
    `monus` is looked up in this module when it runs.
    """
    if isinstance(table, dict):
        if set(table) != set(space.opens):
            raise ShapeMismatch("table keys are not the opens of the space")
        table = tuple(table[u] for u in space.opens)
    table = tuple(ext(v) for v in table)
    if len(table) != len(space.opens):
        raise ShapeMismatch("table size differs from number of opens")
    if table[0] != ZERO:
        raise NotStrict(f"value on the empty set is {table[0]}")
    value = dict(zip(space.opens, table))
    nu = _of_weights(space, tuple([
        monus(value[up], value[up & ~c]) if c & -c == 1 << x else ZERO
        for x, (up, c) in enumerate(zip(space.min_nbhd, space.classes))
    ]))
    if nu.table == table:
        return nu
    for u in space.opens:
        for v in space.opens:
            if u & ~v == 0 and value[u] > value[v]:
                raise NotMonotone((space.mask_names(u), space.mask_names(v)))
    for u in space.opens:
        for v in space.opens:
            if value[u | v] + value[u & v] != value[u] + value[v]:
                raise NotModular((space.mask_names(u), space.mask_names(v)))
    raise LawViolation("the weights read off a valid table do not reproduce it")


def zero_valuation(space: FiniteSpace) -> Valuation:
    return _of_weights(space, (ZERO,) * space.n)


def unit_delta(space: FiniteSpace, x: int) -> Valuation:
    """The Dirac valuation: mass 1 on every open containing x, kept on the
    least point of its class."""
    space.require_point(x)
    weights = [ZERO] * space.n
    weights[space.least[x]] = ONE
    return _of_weights(space, tuple(weights))


# --- lower semicontinuous functions ---------------------------------------


@dataclass(frozen=True)
class LowerSemiFn:
    """A [0, oo]-valued function whose strict upper level sets are open:
    one that is monotone for specialization, checked by one comparison per
    strict specialization pair of the space."""

    space: FiniteSpace
    values: tuple[ExtRat, ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "values",
            tuple([v if type(v) is ExtRat else ext(v) for v in self.values]),
        )
        if len(self.values) != self.space.n:
            raise ShapeMismatch("one value per point required")
        values = self.values
        for x, y in self.space.order_pairs:
            if not values[x] <= values[y]:
                raise NotLowerSemicontinuous(
                    "values are not monotone for specialization"
                )

    def __call__(self, x: int) -> ExtRat:
        self.space.require_point(x)
        return self.values[x]

    def upper_level(self, r: ExtRat) -> int:
        """The strict upper level set {x : value > r} as a bit-mask."""
        r = ext(r)
        return sum(1 << x for x in range(self.space.n) if self.values[x] > r)

    def weak_level(self, r: ExtRat) -> int:
        """{x : value >= r}; open whenever r is a value (it equals a strict
        level at the next value down)."""
        r = ext(r)
        return sum(1 << x for x in range(self.space.n) if self.values[x] >= r)


def indicator(space: FiniteSpace, u: int) -> LowerSemiFn:
    space.require_open(u)
    return LowerSemiFn(
        space, tuple(ONE if u >> x & 1 else ZERO for x in range(space.n))
    )


def compose_lsc(g: LowerSemiFn, f: ContinuousMap) -> LowerSemiFn:
    f.target.require_here(g)
    return LowerSemiFn(f.source, tuple(g.values[f(x)] for x in range(f.source.n)))


# --- integration -----------------------------------------------------------


def integrate(nu: Valuation, g: LowerSemiFn) -> ExtRat:
    """The pairing <nu, g> = sum of w_x * g(x), with oo * 0 = 0."""
    nu.space.require_here(g)
    return _pairing(nu.weights, g.values)


# --- functor and monad ------------------------------------------------------


def pushforward(f: ContinuousMap, nu: Valuation) -> Valuation:
    """f_* nu, the valuation U -> nu(f^{-1} U): each weight moves to f(x),
    and on to the least point of its class."""
    f.source.require_here(nu)
    target = f.target
    least = target.least
    assignment = [least[y] for y in f.assignment]
    return _of_weights(target, _push(assignment, target.n, nu.weights))


@dataclass(frozen=True)
class SimpleSecondOrder:
    """A molecular second-order valuation: a finite positive combination of
    Dirac valuations on VX."""

    space: FiniteSpace
    atoms: tuple[tuple[ExtRat, Valuation], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "atoms",
            tuple([(c if type(c) is ExtRat else ext(c), nu) for c, nu in self.atoms]),
        )
        for c, nu in self.atoms:
            if not sgn(c):
                raise PreconditionFailed("atom weights must be positive")
        space = self.space
        for _, nu in self.atoms:
            if getattr(nu, "space", None) is not space:
                space.require_here(nu)


def mult_E(xi: SimpleSecondOrder) -> Valuation:
    """The multiplication of V on molecular input: sum of c_j * nu_j."""
    mixture = [(c, nu.weights) for c, nu in xi.atoms]
    return _of_weights(xi.space, _mix(xi.space.n, mixture))


@dataclass(frozen=True)
class Kernel:
    """A Kleisli morphism X -> VY: a continuous family of valuations.

    Continuity is k(x) <= k(y) on every open of Y for each strict
    specialization pair (x, y) of X: one pass over the two rows' tables
    per pair, |O(Y)| comparisons, and a row's table is built only when a
    pair needs it, so a discrete source checks nothing.  Only a failing
    family is scanned open by open, for the first open whose row of values
    is not lower semicontinuous.
    """

    source: FiniteSpace
    target: FiniteSpace
    table: tuple[Valuation, ...]  # per source point

    def __post_init__(self):
        if len(self.table) != self.source.n:
            raise ShapeMismatch("one valuation per source point required")
        self.target.require_here(*self.table)
        rows = self.table
        for x, y in self.source.order_pairs:
            if not all(map(operator.le, rows[x].table, rows[y].table)):
                self._discontinuity()

    def _discontinuity(self):
        for u in self.target.opens:
            try:
                LowerSemiFn(
                    self.source, tuple(nu.value(u) for nu in self.table)
                )
            except NotLowerSemicontinuous as exc:
                raise NotAKernel(
                    f"x -> k(x)({self.target.mask_names(u)}) is not"
                    " lower semicontinuous"
                ) from exc
        raise LawViolation("rows that differ in order agree on every open")

    def __call__(self, x: int) -> Valuation:
        self.source.require_point(x)
        return self.table[x]


def delta_kernel(space: FiniteSpace) -> Kernel:
    return Kernel(space, space, tuple(unit_delta(space, x) for x in range(space.n)))


def kernel_from_map(f: ContinuousMap) -> Kernel:
    return Kernel(
        f.source, f.target, tuple(unit_delta(f.target, f(x)) for x in range(f.source.n))
    )


def kleisli_compose(k: Kernel, h: Kernel) -> Kernel:
    """(k .! h)(x) = sum over y of h(x)_y * k(y), avoiding second-order values."""
    if h.target != k.source:
        raise ShapeMismatch("kernels are not composable")
    rows = [ky.weights for ky in k.table]
    table = tuple(
        _of_weights(k.target, _mix(k.target.n, zip(hx.weights, rows)))
        for hx in h.table
    )
    return Kernel(h.source, k.target, table)


# --- strength and products ---------------------------------------------------


def strength_V(prod: Product, x: int, nu: Valuation) -> Valuation:
    """s(x, nu): the pushforward of nu along y -> (x, y); W -> nu(W_x).
    The weights of nu sit on least points, so they move to the row of the
    least point of x's class, the points x * |Y| + y, where each lands on
    its least pair."""
    prod.right.require_here(nu)
    prod.left.require_point(x)
    m = prod.right.n
    row = prod.left.least[x] * m
    return _of_weights(prod.space, _push(range(row, row + m), prod.space.n, nu.weights))


def costrength_V(prod: Product, nu: Valuation, y: int) -> Valuation:
    """t(nu, y): the pushforward of nu along x -> (x, y), into the column
    of the least point of y's class, every |Y|-th point from it, as in
    `strength_V`."""
    prod.left.require_here(nu)
    prod.right.require_point(y)
    n = prod.space.n
    column = range(prod.right.least[y], n, prod.right.n)
    return _of_weights(prod.space, _push(column, n, nu.weights))


def product_valuation(nu: Valuation, rho: Valuation, prod: Product | None = None) -> Valuation:
    """The product valuation, determined by (U x V) -> nu(U) * rho(V): the
    weight of the pair (x, y) is w_x * w_y, nonzero only where x and y are
    least points, so only on the least pair (x, y) of a product class."""
    if prod is None:
        prod = product(nu.space, rho.space)
    prod.left.require_here(nu)
    prod.right.require_here(rho)
    return _of_weights(prod.space, tuple([a * b for a in nu.weights for b in rho.weights]))


# --- the weak topology and Portmanteau certificates -------------------------


def theta_membership(nu: Valuation, u: int, r) -> bool:
    """Membership in the subbasic open theta(U, r) = {nu : nu(U) > r}."""
    r = ext(r)
    if r.is_infinite:
        raise PreconditionFailed("threshold must be finite")
    return nu.value(u) > r


def big_theta_membership(nu: Valuation, f: LowerSemiFn, r) -> bool:
    """Membership in Theta(f, r) = {nu : <nu, f> > r}."""
    r = ext(r)
    if r.is_infinite:
        raise PreconditionFailed("threshold must be finite")
    nu.space.require_here(f)
    return integrate(nu, f) > r


def portmanteau_witness(
    nu: Valuation, f: LowerSemiFn, r
) -> list[tuple[ExtRat, int, ExtRat]]:
    """A certificate (c_i, U_i, r_i) that nu lies in Theta(f, r).

    The pairs satisfy nu(U_i) > r_i >= 0 and sum c_i r_i > r with
    sum c_i 1_{U_i} <= f, so the intersection of the theta(U_i, r_i) is
    contained in Theta(f, r) for every valuation, not just nu.
    """
    r = ext(r)
    if not big_theta_membership(nu, f, r):  # which requires r finite
        raise PreconditionFailed("<nu, f> does not exceed the threshold")
    layers = []  # f is the sum of c_i 1_{U_i}; keep those with nu(U_i) > 0
    prev = ZERO
    for v in sorted({v for v in f.values if v}):
        u = f.weak_level(v)
        if sgn(nu.value(u)):
            layers.append((v - prev, u))
        prev = v
    # an infinite term certifies alone with any sufficient finite r_i
    for c, u in layers:
        if (c * nu.value(u)).is_infinite:
            if c.is_infinite:
                ri = ONE if nu.value(u).is_infinite else nu.value(u) / ExtRat(2)
            else:
                ri = (r + ONE) / c
            return [(c, u, ri)]
    coeffs = [c for c, _ in layers]
    slack = _pairing(coeffs, [nu.value(u) for _, u in layers]) - r
    coeff_sum = sum(coeffs, ZERO)
    eps = slack / (ExtRat(2) * coeff_sum)
    cert = []
    for c, u in layers:
        drop = min(eps, nu.value(u) / ExtRat(2))
        cert.append((c, u, nu.value(u) - drop))
    return cert


# --- order comparisons --------------------------------------------------------


@dataclass(frozen=True)
class OrderReport:
    opens_le: bool
    stochastic_le: bool | None


def _closed_preorder(space: FiniteSpace, relation: set[tuple[int, int]]) -> FiniteSpace:
    """The auxiliary preorder as a space on the same points, after checking
    that it is a preorder (with a witness) whose graph is closed."""
    for a, b in relation:
        try:
            space.require_point(a)
            space.require_point(b)
        except ShapeMismatch as exc:
            raise NotAPreorder("pair mentions a point outside the space", (a, b)) from exc
    names = space.points
    aux = from_preorder(names, [(names[a], names[b]) for a, b in relation])
    prod = product(space, space)
    graph = 0
    for a, b in relation:
        graph |= 1 << prod.pair(a, b)
    if not prod.space.is_closed(graph):
        raise OrderNotClosed(
            "preorder graph is not closed in the product topology"
        )
    return aux


def order_checks(
    nu: Valuation,
    rho: Valuation,
    aux_preorder: Iterable[tuple[int, int]] | None = None,
) -> OrderReport:
    """Compare nu <= rho on opens and (optionally) in the stochastic order of
    a closed-graph auxiliary preorder: on every open up-set of it.

    The opens order coincides with the integral order <nu, g> <= <rho, g>
    over lower semicontinuous g.
    """
    space = nu.space
    space.require_here(rho)
    opens_le = all(a <= b for a, b in zip(nu.table, rho.table))
    stochastic = None
    if aux_preorder is not None:
        aux = _closed_preorder(space, {(a, b) for a, b in aux_preorder})
        stochastic = all(
            nu.value(u) <= rho.value(u) for u in space.opens if aux.is_open(u)
        )
    return OrderReport(opens_le, stochastic)
