"""The support map from valuations to closed sets, and its morphism laws.

Valuations and closed sets are point weights in [0, oo] and {0, 1}
(`weighted`); the support is the change of scalars along the semiring
homomorphism sgn, then the Boolean canonical form, the closure: the closed
set hitting exactly the opens of positive mass.  The support of a measure
is the support of its restriction.  The sign route through the duality
and the scan for the least closed set of full measure are oracles in
`lawcheck`.  This module verifies that taking supports commutes with
units, multiplications, pushforwards, strengths, and products, and
transfers hyperspace algebras to valuation algebras.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import weighted as wt
from .errors import LawViolation, NotAnHAlgebra
from .extrat import ExtRat, ONE, ZERO, ext, sgn
from .hyperspace import (
    ClosedSet,
    build_hyperspace,
    check_H_algebra,
    closed_of_weights,
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
    Valuation,
    integrate,
    mult_E,
    product_valuation,
    pushforward,
    strength_V,
    unit_delta,
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
    """The change of scalars along sgn, each weight sent to its sign, in
    canonical form: the closure of the points of positive weight, which
    hits exactly the opens of positive mass."""
    return closed_of_weights(nu.space, tuple(map(sgn, nu.weights)))


def support_test_lsc(nu: Valuation, g: LowerSemiFn) -> bool:
    """sgn<nu, g>; equals whether the support hits {g > 0}."""
    nu.space.require_here(g)
    return sgn(integrate(nu, g))


def support_of_measure(m: FiniteMeasure) -> ClosedSet:
    """The least closed set of full measure: the support of the measure's
    restriction, the closure of the points of positive weight."""
    return support(m.restriction())


# --- morphism diagrams ------------------------------------------------------


def _verdict(squares) -> MorphismVerdict:
    """The verdict on (name, cases) squares, each case an (inputs, lhs, rhs)
    triple: a square holds when every case's two routes agree, and the
    first case that fails, with both routes, is the counterexample."""
    checks, witness = [], None
    for name, cases in squares:
        bad = next(((*args, lhs, rhs) for args, lhs, rhs in cases if lhs != rhs), None)
        checks.append((name, bad is None))
        witness = witness or bad
    return MorphismVerdict(tuple(checks), witness)


def check_supp_continuity(space: FiniteSpace, valuations) -> MorphismVerdict:
    """Preimage identity supp^{-1}(Hit(U)) = theta(U, 0), extensionally."""
    pairs = [(nu, support(nu)) for nu in space.require_here(*valuations)]
    return _verdict(
        (
            f"preimage of Hit({space.mask_names(u)})",
            [((space, nu, u), hit(c, u), sgn(nu.value(u))) for nu, c in pairs],
        )
        for u in space.opens
    )


def check_supp_naturality(f: ContinuousMap, nu: Valuation) -> MorphismVerdict:
    """supp(f_* nu) = f_sharp(supp nu)."""
    f.source.require_here(nu)
    lhs, rhs = support(pushforward(f, nu)), push_closed(f, support(nu))
    return _verdict([("naturality square", [((f, nu), lhs, rhs)])])


def check_monad_morphism(space: FiniteSpace, xis) -> MorphismVerdict:
    """Unit square (exhaustive over points) and multiplication square
    (over the given molecular second-order valuations).

    The right route composes the diagram through H(VX): the support of a
    molecular valuation on VX is the closure of its atom set, whose image
    under H(supp) is the down-closure in HX of the atom supports; the
    closure step only contributes subsets of the union, so the final
    union map is evaluated on that down-closure.
    """
    xis = space.require_here(*xis)
    hx = build_hyperspace(space)

    def through_hvx(xi) -> ClosedSet:
        atom_supports = 0
        for _, nu in xi.atoms:  # atom weights are positive
            atom_supports |= 1 << hx.point_of(support(nu).members)
        return mult_union(hx, ClosedSet(hx.space, hx.space.closure(atom_supports)))

    units = (
        ((space, x), support(unit_delta(space, x)), unit_sigma(space, x))
        for x in range(space.n)
    )
    mults = (((space, xi), support(mult_E(xi)), through_hvx(xi)) for xi in xis)
    return _verdict([("unit square", units), ("multiplication square", mults)])


def check_supp_monoidal(
    prod: Product, nu: Valuation, rho: Valuation
) -> MorphismVerdict:
    """Strength, product, and marginal compatibility of the support."""
    prod_val = product_valuation(nu, rho, prod)
    joint = support(prod_val)
    strengths = (
        ((prod, x, rho), support(strength_V(prod, x, rho)), strength_H(prod, x, support(rho)))
        for x in range(prod.left.n)
    )
    monoidal = [((prod, nu, rho), joint, product_closed(prod, support(nu), support(rho)))]
    marginal = (
        ((prod, nu, rho, proj), support(pushforward(proj, prod_val)), push_closed(proj, joint))
        for proj in (prod.proj1, prod.proj2)
    )
    return _verdict(
        [
            ("strength square", strengths),
            ("monoidal square", monoidal),
            ("opmonoidal (marginal) square", marginal),
        ]
    )


# --- algebra transfer --------------------------------------------------------


def algebra_evaluate(a_space: FiniteSpace, a_map, nu: Valuation) -> int:
    """The induced valuation-algebra map e = a after support; the points of
    HA are the closed sets of A, sorted."""
    a_space.require_here(nu)
    return a_map[sorted(a_space.closed_sets()).index(support(nu).members)]


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
    if not check_H_algebra(a_space, a_map).is_algebra:
        raise NotAnHAlgebra("the given table is not a hyperspace algebra")
    xis = a_space.require_here(*xis)
    n = a_space.n
    point_of = {m: i for i, m in enumerate(sorted(a_space.closed_sets()))}

    def e(nu: Valuation) -> int:
        """algebra_evaluate, with HA's point index built once."""
        return a_map[point_of[support(nu).members]]

    def dirac_weights(pairs) -> Valuation:
        """The sum of c * delta_x over the (c, x) pairs: each c pushed to x."""
        pairs = list(pairs)
        points = [x for _, x in pairs]
        return Valuation(a_space, wt.push(wt.EXT, points, n, [c for c, _ in pairs]))

    unit_ok = all(e(unit_delta(a_space, x)) == x for x in range(n))
    # e o mult = e o V(e): V(e) sends each atom nu of xi to the Dirac at e(nu)
    mult_ok = all(
        e(mult_E(xi)) == e(dirac_weights((c, e(nu)) for c, nu in xi.atoms))
        for xi in xis
    )

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
