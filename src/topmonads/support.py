"""The support map from valuations to closed sets, and its morphism laws.

The support of a valuation or a measure is the closure of its points of
positive weight; for a valuation, the closed set hitting exactly the opens
of positive mass.  The sign route through the duality and the scan for the
least closed set of full measure are oracles in `lawcheck`.  This module
verifies that taking supports commutes with units, multiplications,
pushforwards, strengths, and products, and transfers hyperspace algebras
to valuation algebras.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LawViolation, NotAnHAlgebra, ShapeMismatch
from .extrat import ExtRat, ONE, ZERO, ext, sgn
from .hyperspace import (
    ClosedSet,
    build_hyperspace,
    check_H_algebra,
    hit,
    mult_union,
    product_closed,
    push_closed,
    strength_H,
    unit_sigma,
)
from .probability import FiniteMeasure
from .spaces import ContinuousMap, FiniteSpace, Product
from .valuations import (
    LowerSemiFn,
    SimpleSecondOrder,
    Valuation,
    integrate,
    mult_E,
    product_valuation,
    pushforward,
    strength_V,
    unit_delta,
    valuation_from_weights,
    zero_valuation,
)


@dataclass(frozen=True)
class MorphismVerdict:
    """Per-diagram results; a failing check carries its counterexample."""

    checks: tuple[tuple[str, bool], ...]
    counterexample: tuple | None = None

    def __post_init__(self):
        if not self.ok and self.counterexample is None:
            raise LawViolation("failing verdict without a counterexample")

    @property
    def ok(self) -> bool:
        return all(result for _, result in self.checks)


def support(nu: Valuation) -> ClosedSet:
    """The closure of the points of positive weight: the closed set that
    hits exactly the opens of positive mass."""
    positive = sum(1 << x for x, w in enumerate(nu.weights) if sgn(w))
    return ClosedSet(nu.space, nu.space.closure(positive))


def support_test_lsc(nu: Valuation, g: LowerSemiFn) -> bool:
    """sgn<nu, g>; equals whether the support hits {g > 0}."""
    if nu.space != g.space:
        raise ShapeMismatch("valuation and function live on different spaces")
    return sgn(integrate(nu, g))


def support_of_measure(m: FiniteMeasure) -> ClosedSet:
    """The least closed set of full measure: the closure of the points of
    positive weight.  It equals the support of the measure's restriction."""
    positive = sum(1 << x for x, w in enumerate(m.point_weights) if sgn(w))
    return ClosedSet(m.space, m.space.closure(positive))


# --- morphism diagrams ------------------------------------------------------


def check_supp_continuity(space: FiniteSpace, valuations) -> MorphismVerdict:
    """Preimage identity supp^{-1}(Hit(U)) = theta(U, 0), extensionally."""
    checks = []
    witness = None
    for u in space.opens:
        ok = True
        for nu in valuations:
            if hit(support(nu), u) != sgn(nu.value(u)):
                ok = False
                witness = (space, nu, u)
                break
        checks.append((f"preimage of Hit({space.mask_names(u)})", ok))
    return MorphismVerdict(tuple(checks), witness)


def check_supp_naturality(f: ContinuousMap, nu: Valuation) -> MorphismVerdict:
    """supp(f_* nu) = f_sharp(supp nu)."""
    if nu.space != f.source:
        raise ShapeMismatch("valuation does not live on the map's source")
    lhs = support(pushforward(f, nu))
    rhs = push_closed(f, support(nu))
    ok = lhs == rhs
    return MorphismVerdict(
        (("naturality square", ok),), None if ok else (f, nu, lhs, rhs)
    )


def check_monad_morphism(space: FiniteSpace, xis) -> MorphismVerdict:
    """Unit square (exhaustive over points) and multiplication square
    (over the given molecular second-order valuations).

    The right route composes the diagram through H(VX): the support of a
    molecular valuation on VX is the closure of its atom set, whose image
    under H(supp) is the down-closure in HX of the atom supports; the
    closure step only contributes subsets of the union, so the final
    union map is evaluated on that down-closure.
    """
    checks = []
    witness = None
    unit_ok = all(
        support(unit_delta(space, x)) == unit_sigma(space, x)
        for x in range(space.n)
    )
    checks.append(("unit square", unit_ok))
    if not unit_ok:
        witness = (space, "unit")
    hx = build_hyperspace(space)
    mult_ok = True
    for xi in xis:
        left = support(mult_E(xi))
        atom_supports = 0
        for _, nu in xi.atoms:  # atom weights are positive
            atom_supports |= 1 << hx.point_of(support(nu).members)
        family = hx.space.closure(atom_supports)
        right = mult_union(hx, ClosedSet(hx.space, family))
        if left != right:
            mult_ok = False
            witness = (space, xi, left, right)
            break
    checks.append(("multiplication square", mult_ok))
    return MorphismVerdict(tuple(checks), witness)


def check_supp_monoidal(
    prod: Product, nu: Valuation, rho: Valuation
) -> MorphismVerdict:
    """Strength, product, and marginal compatibility of the support."""
    checks = []
    witness = None
    strength_ok = True
    for x in range(prod.left.n):
        lhs = support(strength_V(prod, x, rho))
        rhs = strength_H(prod, x, support(rho))
        if lhs != rhs:
            strength_ok = False
            witness = (prod, x, rho, lhs, rhs)
            break
    checks.append(("strength square", strength_ok))
    prod_val = product_valuation(nu, rho, prod)
    lhs = support(prod_val)
    rhs = product_closed(prod, support(nu), support(rho))
    monoidal_ok = lhs == rhs
    checks.append(("monoidal square", monoidal_ok))
    if not monoidal_ok and witness is None:
        witness = (prod, nu, rho, lhs, rhs)
    opmonoidal_ok = True
    for proj in (prod.proj1, prod.proj2):
        lhs = support(pushforward(proj, prod_val))
        rhs = push_closed(proj, support(prod_val))
        if lhs != rhs:
            opmonoidal_ok = False
            if witness is None:
                witness = (prod, nu, rho, proj, lhs, rhs)
            break
    checks.append(("opmonoidal (marginal) square", opmonoidal_ok))
    return MorphismVerdict(tuple(checks), witness)


# --- algebra transfer --------------------------------------------------------


def algebra_evaluate(a_space: FiniteSpace, a_map, nu: Valuation) -> int:
    """The induced valuation-algebra map e = a after support."""
    hx = build_hyperspace(a_space)
    return a_map[hx.point_of(support(nu).members)]


@dataclass(frozen=True)
class InducedAlgebraReport:
    unit_ok: bool
    mult_ok: bool
    add_table: tuple[tuple[int, ...], ...]
    smul_grid: tuple[ExtRat, ...]
    smul_table: tuple[tuple[int, ...], ...]  # per scalar, per point
    zero_element: int
    semimodule_ok: bool

    @property
    def ok(self) -> bool:
        return self.unit_ok and self.mult_ok and self.semimodule_ok


DEFAULT_SCALAR_GRID = (
    ExtRat(0),
    ext("1/2"),
    ExtRat(1),
    ExtRat(2),
    ext("7/3"),
)


def induced_V_algebra(
    a_space: FiniteSpace, a_map, xis=(), scalar_grid=DEFAULT_SCALAR_GRID
) -> InducedAlgebraReport:
    """Transfer a hyperspace algebra to a valuation algebra via supports.

    Checks the unit law exhaustively and the multiplication law on the
    given molecular instances, then derives the cone operations
    x + y = e(delta_x + delta_y) and r.x = e(r.delta_x) and verifies the
    semimodule axioms on the scalar grid.
    """
    verdict = check_H_algebra(a_space, a_map)
    if not verdict.is_algebra:
        raise NotAnHAlgebra("the given table is not a hyperspace algebra")
    n = a_space.n
    hx = build_hyperspace(a_space)

    def e(nu: Valuation) -> int:
        """algebra_evaluate on the HX built once above."""
        return a_map[hx.point_of(support(nu).members)]

    unit_ok = all(e(unit_delta(a_space, x)) == x for x in range(n))
    mult_ok = True
    for xi in xis:
        left = e(mult_E(xi))
        pushed = mult_E(
            SimpleSecondOrder(
                a_space,
                tuple((c, unit_delta(a_space, e(nu))) for c, nu in xi.atoms),
            )
        )
        if left != e(pushed):
            mult_ok = False
            break

    def dirac_weights(pairs) -> Valuation:
        weights = [ZERO] * n
        for c, x in pairs:
            weights[x] = weights[x] + c
        return valuation_from_weights(a_space, weights)

    add = tuple(
        tuple(e(dirac_weights([(ONE, x), (ONE, y)])) for y in range(n))
        for x in range(n)
    )
    grid = tuple(ext(r) for r in scalar_grid)
    smul = tuple(
        tuple(e(dirac_weights([(r, x)])) for x in range(n)) for r in grid
    )
    zero_element = e(zero_valuation(a_space))

    ok = True
    leq = a_space.leq
    for x in range(n):
        if add[x][zero_element] != x or add[zero_element][x] != x:
            ok = False
        for y in range(n):
            if add[x][y] != add[y][x]:
                ok = False
            for z in range(n):
                if add[add[x][y]][z] != add[x][add[y][z]]:
                    ok = False
    for ri, r in enumerate(grid):
        for x in range(n):
            if r == ZERO and smul[ri][x] != zero_element:
                ok = False
            if r == ONE and smul[ri][x] != x:
                ok = False
            for y in range(n):
                if smul[ri][add[x][y]] != add[smul[ri][x]][smul[ri][y]]:
                    ok = False
        for si, s in enumerate(grid):
            rs = r * s
            if rs in grid:
                ki = grid.index(rs)
                for x in range(n):
                    if smul[ki][x] != smul[ri][smul[si][x]]:
                        ok = False
            plus = r + s
            for x in range(n):
                if e(dirac_weights([(plus, x)])) != add[smul[ri][x]][smul[si][x]]:
                    ok = False
            # monotone in the scalar within the specialization order
            if r <= s:
                for x in range(n):
                    if not leq(smul[ri][x], smul[si][x]):
                        ok = False
    return InducedAlgebraReport(
        unit_ok, mult_ok, add, grid, smul, zero_element, ok
    )
