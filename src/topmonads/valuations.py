"""Continuous valuations with exact extended-rational values, stored as
point weights.

A valuation assigns a value in [0, oo] to every open set, strictly,
monotonely, and modularly; on a finite open lattice every directed family
contains its supremum, so these three conditions already give Scott
continuity (that implication is a theorem, not a runtime check).  On a
finite space every such valuation is simple, a finite sum of weighted
Diracs (Jones 1990; Heckmann 1996), so a `Valuation` stores only its point
weights, and every operation computes on them: integration is a weighted
sum, the monad structure (Dirac unit, molecular multiplication, Kleisli
composition), pushforward and the product are index sums and products, and
the strength is the pushforward along a section y -> (x, y) of the product.
The value of an open is the sum of the weights in it; the table of values
on all opens is derived on demand, and `validate_valuation` reads weights
off a table.  The module also provides the weak topology subbasis with
Portmanteau certificates and order comparisons.  The routes that confirm
these (the layer-cake integral, the inclusion-exclusion product, both
composites of the Fubini square, the pairwise validity scan) are laws in
`lawcheck`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
from .extrat import ExtRat, INF, ONE, ZERO, ext, monus, sgn
from .spaces import ContinuousMap, FiniteSpace, Product, bits, from_preorder, product


@dataclass(frozen=True, eq=False)
class Valuation:
    """The valuation U -> sum of the point weights over U.

    Each specialization class keeps its total weight on its least point.
    Two valuations are equal when they agree on every open, which is when
    their weights agree after `_canonical` fills in the weights an oo hides.
    """

    space: FiniteSpace
    weights: tuple[ExtRat, ...]

    def __post_init__(self):
        weights = [ext(w) for w in self.weights]
        if len(weights) != self.space.n:
            raise ShapeMismatch("one weight per point required")
        for x, c in enumerate(self.space.classes):
            least = (c & -c).bit_length() - 1
            if least != x:
                weights[least] = weights[least] + weights[x]
                weights[x] = ZERO
        object.__setattr__(self, "weights", tuple(weights))

    @cached_property
    def _canonical(self) -> tuple[ExtRat, ...]:
        """The weights, with oo on each point that has an oo-weight point
        strictly above it: every open containing such a point has value oo
        whatever the point's own weight, and otherwise a weight is fixed by
        the values on the opens."""
        infinite = sum(1 << x for x, w in enumerate(self.weights) if w.is_infinite)
        if not infinite:
            return self.weights
        space = self.space
        return tuple(
            INF if c & -c == 1 << x and up & ~c & infinite else w
            for x, (w, up, c) in enumerate(
                zip(self.weights, space.min_nbhd, space.classes)
            )
        )

    def __eq__(self, other):
        if not isinstance(other, Valuation):
            return NotImplemented
        return self.space == other.space and self._canonical == other._canonical

    def __hash__(self):
        return hash((self.space, self._canonical))

    @cached_property
    def table(self) -> tuple[ExtRat, ...]:
        """The values on `space.opens`, in order."""
        positive = [(1 << x, w) for x, w in enumerate(self.weights) if w]
        return tuple(
            sum((w for bit, w in positive if u & bit), ZERO)
            for u in self.space.opens
        )

    def value(self, u: int) -> ExtRat:
        """nu(U), the sum of the weights over U: an open holds whole
        specialization classes, so it holds each class's weight whole."""
        self.space.require_open(u)
        return sum((self.weights[x] for x in bits(u)), ZERO)

    @cached_property
    def mass(self) -> ExtRat:
        return sum(self.weights, ZERO)

    def is_zero(self) -> bool:
        return not any(self.weights)


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
    strictness, monotonicity, and modularity, with witnesses.

    The weights are read off the table: w_x = nu(up x) - nu(up x minus [x]),
    truncated, so oo - oo = 0, on the least point x of each class.  By
    modularity they reproduce every valid table, so only a table they fail
    to reproduce is scanned pairwise for a NotMonotone or NotModular witness.
    """
    if isinstance(table, dict):
        table = tuple(table[u] for u in space.opens)
    table = tuple(ext(v) for v in table)
    if len(table) != len(space.opens):
        raise ShapeMismatch("table size differs from number of opens")
    if table[0] != ZERO:
        raise NotStrict(f"value on the empty set is {table[0]}")
    value = dict(zip(space.opens, table))
    weights = [ZERO] * space.n
    for x, c in enumerate(space.classes):
        if c & -c == 1 << x:
            up = space.min_nbhd[x]
            weights[x] = monus(value[up], value[up & ~c])
    nu = Valuation(space, tuple(weights))
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
    return Valuation(space, (ZERO,) * space.n)


def unit_delta(space: FiniteSpace, x: int) -> Valuation:
    """The Dirac valuation: mass 1 on every open containing x."""
    if x not in range(space.n):
        raise ShapeMismatch(f"{x!r} is not a point of the space")
    return Valuation(space, tuple(ONE if y == x else ZERO for y in range(space.n)))


# --- lower semicontinuous functions ---------------------------------------


@dataclass(frozen=True)
class LowerSemiFn:
    """A [0, oo]-valued function whose strict upper level sets are open."""

    space: FiniteSpace
    values: tuple[ExtRat, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "values", tuple(ext(v) for v in self.values)
        )
        if len(self.values) != self.space.n:
            raise ShapeMismatch("one value per point required")
        values = self.values
        for x, up in enumerate(self.space.min_nbhd):
            for y in bits(up):
                if not values[x] <= values[y]:
                    raise NotLowerSemicontinuous(
                        "values are not monotone for specialization"
                    )

    def __call__(self, x: int) -> ExtRat:
        if x not in range(self.space.n):
            raise ShapeMismatch(f"{x!r} is not a point of the space")
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


def indicator(space: FiniteSpace, u: int, coefficient=ONE) -> LowerSemiFn:
    space.require_open(u)
    c = ext(coefficient)
    return LowerSemiFn(
        space, tuple(c if u >> x & 1 else ZERO for x in range(space.n))
    )


def compose_lsc(g: LowerSemiFn, f: ContinuousMap) -> LowerSemiFn:
    if g.space != f.target:
        raise ShapeMismatch("function does not live on the map's target")
    return LowerSemiFn(f.source, tuple(g.values[f(x)] for x in range(f.source.n)))


def canonical_lsc_family(space: FiniteSpace, max_value: int | None = None):
    """All monotone functions into {0, 1, ..., max_value} (default |X|)."""
    if max_value is None:
        max_value = space.n
    values = [ExtRat(k) for k in range(max_value + 1)]

    def extend(partial):
        x = len(partial)
        if x == space.n:
            yield LowerSemiFn(space, tuple(partial))
            return
        for v in values:
            ok = all(
                (not space.leq(y, x) or partial[y] <= v)
                and (not space.leq(x, y) or v <= partial[y])
                for y in range(x)
            )
            if ok:
                yield from extend(partial + [v])

    yield from extend([])


# --- integration -----------------------------------------------------------


def integrate(nu: Valuation, g: LowerSemiFn) -> ExtRat:
    """The pairing <nu, g> = sum of w_x * g(x), with oo * 0 = 0."""
    if nu.space != g.space:
        raise ShapeMismatch("valuation and function live on different spaces")
    return sum((w * v for w, v in zip(nu.weights, g.values) if w), ZERO)


# --- functor and monad ------------------------------------------------------


def pushforward(f: ContinuousMap, nu: Valuation) -> Valuation:
    """f_* nu, the valuation U -> nu(f^{-1} U): each weight moves to f(x)."""
    if nu.space != f.source:
        raise ShapeMismatch("valuation does not live on the map's source")
    weights = [ZERO] * f.target.n
    for x, w in enumerate(nu.weights):
        if w:
            weights[f.assignment[x]] = weights[f.assignment[x]] + w
    return Valuation(f.target, tuple(weights))


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
            tuple((ext(c), nu) for c, nu in self.atoms),
        )
        for c, nu in self.atoms:
            if not sgn(c):
                raise PreconditionFailed("atom weights must be positive")
            if nu.space != self.space:
                raise ShapeMismatch("atom valuation on a different space")


def mult_E(xi: SimpleSecondOrder) -> Valuation:
    """The multiplication of V on molecular input: sum of c_j * nu_j."""
    weights = [ZERO] * xi.space.n
    for c, nu in xi.atoms:
        for x, w in enumerate(nu.weights):
            if w:
                weights[x] = weights[x] + c * w
    return Valuation(xi.space, tuple(weights))


def pairing_with_evaluation(xi: SimpleSecondOrder, g: LowerSemiFn) -> ExtRat:
    """<xi, nu -> <nu, g>>, the other side of the multiplication identity."""
    total = ZERO
    for c, nu in xi.atoms:
        total = total + c * integrate(nu, g)
    return total


@dataclass(frozen=True)
class Kernel:
    """A Kleisli morphism X -> VY: a continuous family of valuations."""

    source: FiniteSpace
    target: FiniteSpace
    table: tuple[Valuation, ...]  # per source point

    def __post_init__(self):
        if len(self.table) != self.source.n:
            raise ShapeMismatch("one valuation per source point required")
        for nu in self.table:
            if nu.space != self.target:
                raise ShapeMismatch("kernel valuation on a different space")
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

    def __call__(self, x: int) -> Valuation:
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
    table = []
    for hx in h.table:
        weights = [ZERO] * k.target.n
        for y, w in enumerate(hx.weights):
            if w:
                for z, v in enumerate(k.table[y].weights):
                    weights[z] = weights[z] + w * v
        table.append(Valuation(k.target, tuple(weights)))
    return Kernel(h.source, k.target, tuple(table))


# --- strength and products ---------------------------------------------------


def strength_V(prod: Product, x: int, nu: Valuation) -> Valuation:
    """s(x, nu): the pushforward of nu along y -> (x, y); W -> nu(W_x)."""
    if nu.space != prod.right:
        raise ShapeMismatch("valuation must live on the right factor")
    return pushforward(prod.at_left(x), nu)


def costrength_V(prod: Product, nu: Valuation, y: int) -> Valuation:
    """t(nu, y): the pushforward of nu along x -> (x, y)."""
    if nu.space != prod.left:
        raise ShapeMismatch("valuation must live on the left factor")
    return pushforward(prod.at_right(y), nu)


def product_valuation(nu: Valuation, rho: Valuation, prod: Product | None = None) -> Valuation:
    """The product valuation, determined by (U x V) -> nu(U) * rho(V): the
    weight of the pair (x, y) is w_x * w_y."""
    if prod is None:
        prod = product(nu.space, rho.space)
    if nu.space != prod.left or rho.space != prod.right:
        raise ShapeMismatch("valuations do not match the product factors")
    return Valuation(
        prod.space, tuple(a * b for a in nu.weights for b in rho.weights)
    )


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
    if nu.space != f.space:
        raise ShapeMismatch("valuation and function live on different spaces")
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
    if r.is_infinite:
        raise PreconditionFailed("threshold must be finite")
    if not big_theta_membership(nu, f, r):
        raise PreconditionFailed("<nu, f> does not exceed the threshold")
    layers = []  # (c_i, U_i) with nu(U_i) > 0
    finite_values = sorted({v.frac for v in f.values if v.is_finite})
    prev = Fraction(0)
    for v in finite_values:
        if v == 0:
            continue
        u = f.weak_level(ExtRat(v))
        if sgn(nu.value(u)):
            layers.append((ExtRat(v - prev), u))
        prev = v
    inf_level = f.weak_level(INF)
    if sgn(nu.value(inf_level)):
        layers.append((INF, inf_level))
    # an infinite term certifies alone with any sufficient finite r_i
    for c, u in layers:
        if (c * nu.value(u)).is_infinite:
            if c.is_infinite:
                ri = ONE if nu.value(u).is_infinite else nu.value(u) / ExtRat(2)
            else:
                ri = (r + ONE) / c
            return [(c, u, ri)]
    total = ZERO
    for c, u in layers:
        total = total + c * nu.value(u)
    slack = total - r
    coeff_sum = ZERO
    for c, u in layers:
        coeff_sum = coeff_sum + c
    eps = slack / (ExtRat(2) * coeff_sum)
    cert = []
    for c, u in layers:
        drop = min(eps, nu.value(u) / ExtRat(2))
        cert.append((c, u, nu.value(u) - drop))
    return cert


def check_certificate(
    f: LowerSemiFn, r, cert: Sequence[tuple[ExtRat, int, ExtRat]], nu: Valuation | None = None
) -> bool:
    """Independent soundness check of a Portmanteau certificate."""
    r = ext(r)
    space = f.space
    for x in range(space.n):
        g_x = ZERO
        for c, u, _ in cert:
            space.require_open(u)
            if u >> x & 1:
                g_x = g_x + ext(c)
        if g_x > f(x):
            raise LawViolation("certificate's simple function exceeds f")
    weighted = ZERO
    for c, u, ri in cert:
        ri = ext(ri)
        if ri < ZERO or ri.is_infinite:
            raise LawViolation("certificate threshold out of range")
        if nu is not None and not nu.value(u) > ri:
            raise LawViolation("certificate threshold not met by the valuation")
        weighted = weighted + ext(c) * ri
    if not weighted > r:
        raise LawViolation("certificate does not clear the target threshold")
    return True


# --- order comparisons --------------------------------------------------------


@dataclass(frozen=True)
class OrderReport:
    opens_le: bool
    stochastic_le: bool | None


def _closed_preorder(space: FiniteSpace, relation: set[tuple[int, int]]) -> FiniteSpace:
    """The auxiliary preorder as a space on the same points, after checking
    that it is a preorder (with a witness) whose graph is closed."""
    for a, b in relation:
        if a not in range(space.n) or b not in range(space.n):
            raise NotAPreorder("pair mentions a point outside the space", (a, b))
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
    if nu.space != rho.space:
        raise ShapeMismatch("valuations live on different spaces")
    space = nu.space
    opens_le = all(a <= b for a, b in zip(nu.table, rho.table))
    stochastic = None
    if aux_preorder is not None:
        aux = _closed_preorder(space, {(a, b) for a, b in aux_preorder})
        stochastic = all(
            nu.value(u) <= rho.value(u) for u in space.opens if aux.is_open(u)
        )
    return OrderReport(opens_le, stochastic)
