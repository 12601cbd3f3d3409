"""The support map from valuations to closed sets, and algebra transfer.

Valuations and closed sets are point weights in [0, oo] and {0, 1}
(`weighted`); the support is the change of scalars along the semiring
homomorphism sgn, then the Boolean canonical form, the closure: the closed
set hitting exactly the opens of positive mass.  The support of a measure
is the support of its restriction.  Along the support, hyperspace algebras
transfer to valuation algebras.  That taking supports is a morphism of
monads V -> H (the unit, multiplication, naturality, strength and monoidal
squares) is checked by laws in `lawcheck`, together with the oracles: the
sign route through the duality and the scan for the least closed set of
full measure.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import weighted as wt
from .errors import NotAnHAlgebra, ShapeMismatch
from .extrat import ExtRat, ONE, ZERO, ext, sgn
from .hyperspace import ClosedSet, check_H_algebra, closed_of_weights
from .probability import FiniteMeasure
from .spaces import FiniteSpace
from .valuations import (
    LowerSemiFn,
    Valuation,
    integrate,
    mult_E,
    unit_delta,
    zero_valuation,
)


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


# --- algebra transfer --------------------------------------------------------


def algebra_evaluate(a_space: FiniteSpace, a_map, nu: Valuation) -> int:
    """The induced valuation-algebra map e = a after support; a_map is a
    table from the points of HA, the closed sets of A in ascending order,
    to the points of A."""
    a_space.require_here(nu)
    closed = a_space.closed_sets()
    if len(a_map) != len(closed):
        raise ShapeMismatch("a_map is not a table on the points of HA")
    for y in a_map:
        a_space.require_point(y)
    return a_map[closed.index(support(nu).members)]


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
