"""Support as a morphism of monads, and algebra transfer to cones."""

import itertools
import random

from topmonads import hyperspace as hy
from topmonads import probability as pb
from topmonads import spaces as sp
from topmonads import support as su
from topmonads import valuations as va
from topmonads.extrat import INF, ONE, ZERO, ExtRat, ext
from topmonads.lawcheck import (
    MUTATIONS,
    SCALAR_GRID,
    GenConfig,
    all_topologies,
    cone_value,
    h_algebra,
    join_characterization,
    rand_sso,
    rand_valuation,
    supp_hits_positive_mass,
    supp_mult,
    supp_naturality,
    supp_product_squares,
    supp_unit,
    support_test_lsc,
    transfer_laws,
)


def test_support_of_dirac_is_point_closure():
    for space in (sp.sierpinski(), sp.discrete(3), sp.w_lattice(), sp.chain(4)):
        for x in range(space.n):
            assert su.support(va.unit_delta(space, x)) == hy.unit_sigma(space, x)


def test_support_of_zero_is_empty():
    s = sp.sierpinski()
    assert su.support(va.zero_valuation(s)).members == 0


def test_support_sees_only_positivity():
    s = sp.sierpinski()
    tiny = va.valuation_from_weights(s, (ext("1/100"), ZERO))
    huge = va.valuation_from_weights(s, (INF, ZERO))
    assert su.support(tiny) == su.support(huge)
    assert su.support(tiny).members == 1


def test_support_test_lsc():
    s = sp.sierpinski()
    nu = va.valuation_from_weights(s, (ONE, ZERO))
    g = va.LowerSemiFn(s, (ZERO, ONE))  # positive only on {1}
    assert support_test_lsc(nu, g) is False
    g2 = va.LowerSemiFn(s, (ONE, ONE))
    assert support_test_lsc(nu, g2) is True


def test_support_test_lsc_reaches_integrate_when_it_runs(monkeypatch):
    # integrate-strict-levels patches valuations.integrate, which the sign
    # test looks up through its module, not at import
    s = sp.sierpinski()
    nu, g = va.unit_delta(s, 1), va.LowerSemiFn(s, (ZERO, ONE))
    assert support_test_lsc(nu, g) is True
    _, attr, mutant = MUTATIONS["integrate-strict-levels"]
    monkeypatch.setattr(va, attr, mutant)
    assert support_test_lsc(nu, g) is False


def test_support_of_measure_full_measure():
    s = sp.sierpinski()
    nu = va.valuation_from_weights(s, (ext("1/2"), ext("1/2")))
    m = pb.extend_to_measure(nu)
    supp = su.support(m)
    assert m.measure_of(supp.members) == m.mass
    # dropping any support point loses mass
    for x in range(s.n):
        if supp.members >> x & 1:
            assert m.measure_of(supp.members & ~(1 << x)) < m.mass


def test_product_of_discrete_fours_without_its_opens():
    d4 = sp.discrete(4)
    prod = sp.product(d4, d4)
    space = prod.space  # 16 points, 65,536 opens
    nu = va.valuation_from_weights(d4, (ONE, ext("1/2"), ZERO, INF))
    rho = va.unit_delta(d4, 2)
    assert va.unit_delta(space, 0).value(1) == ONE
    pv = va.product_valuation(nu, rho, prod)
    assert pv.value(prod.rectangle(0b0011, d4.full)) == ext("3/2")
    assert su.support(pv).members == prod.rectangle(0b1011, 0b0100)
    c = hy.ClosedSet(d4, 0b0011)
    assert hy.strength_H(prod, 1, c).members == prod.rectangle(0b0010, 0b0011)
    assert hy.costrength_H(prod, c, 3).members == prod.rectangle(0b0011, 0b1000)
    assert va.strength_V(prod, 1, rho) == va.unit_delta(space, prod.pair(1, 2))
    assert va.costrength_V(prod, nu, 3) == va.valuation_from_weights(
        space, tuple(w if y == 3 else ZERO for w in nu.weights for y in range(4))
    )
    assert va.pushforward(prod.proj1, pv) == nu
    assert va.pushforward(prod.proj2, pv) == va.valuation_from_weights(
        d4, (ZERO, ZERO, INF, ZERO)
    )
    assert "opens" not in space.__dict__
    assert "opens" not in d4.__dict__


def test_monad_morphism_squares():
    rng = random.Random(17)
    cfg = GenConfig(seed=17)
    for space in (sp.sierpinski(), sp.discrete(2), sp.w_lattice(), sp.chain(3)):
        xis = [rand_sso(rng, cfg, space) for _ in range(10)]
        hx = hy.build_hyperspace(space)
        assert all(supp_unit(space, x) for x in range(space.n))
        assert all(supp_mult(space, hx, xi.atoms) for xi in xis)


def test_naturality():
    d = sp.discrete(2)
    s = sp.sierpinski()
    f = sp.ContinuousMap(d, s, (s.index("1"), s.index("1")))
    nu = va.valuation_from_weights(d, (ext("1/2"), ZERO))
    assert supp_naturality(f, nu)


def test_monoidality():
    rng = random.Random(19)
    cfg = GenConfig(seed=19)
    s = sp.sierpinski()
    prod = sp.product(s, s)
    for _ in range(10):
        nu = rand_valuation(rng, cfg, s)
        rho = rand_valuation(rng, cfg, s)
        assert supp_product_squares(prod, nu, rho) == (True, True)
        # supp(nu x rho) = supp nu x supp rho, stated directly
        assert su.support(va.product_valuation(nu, rho, prod)) == hy.product_closed(
            prod, su.support(nu), su.support(rho)
        )


def test_supp_continuity():
    rng = random.Random(23)
    cfg = GenConfig(seed=23)
    w = sp.w_lattice()
    vals = [rand_valuation(rng, cfg, w) for _ in range(8)]
    assert all(supp_hits_positive_mass(v) for v in vals)


def test_induced_algebra_on_w_lattice():
    w = sp.w_lattice()
    rng = random.Random(29)
    cfg = GenConfig(seed=29)
    xis = [rand_sso(rng, cfg, w) for _ in range(5)]
    joins = hy.join_algebra_map(w)
    assert transfer_laws(w, joins, xis)
    bottom, x, y, top = (w.index(p) for p in ("0", "x", "y", "t"))
    # addition is join
    assert cone_value(w, joins, [(ONE, x), (ONE, y)]) == top
    assert cone_value(w, joins, [(ONE, x), (ONE, bottom)]) == x
    assert cone_value(w, joins, [(ONE, x), (ONE, x)]) == x
    # scalar action: r > 0 acts trivially, 0 collapses to bottom
    assert cone_value(w, joins, []) == bottom
    for r in SCALAR_GRID:
        for p in range(w.n):
            want = bottom if r == ZERO else p
            assert cone_value(w, joins, [(r, p)]) == want


def test_induced_algebra_rejects_non_algebras():
    d = sp.discrete(2)
    assert not h_algebra(d, hy.build_hyperspace(d), (0, 0, 0, 0))


def test_algebra_evaluate_is_join_of_support():
    w = sp.w_lattice()
    joins = hy.join_algebra_map(w)
    x, y, top = w.index("x"), w.index("y"), w.index("t")
    nu = va.valuation_from_weights(w, (ZERO, ONE, ONE, ZERO))  # mass on x, y
    assert su.algebra_evaluate(w, joins, nu) == top


def _cone_tables(space, joins):
    """The cone operations that cone_value reads, and the same from
    algebra_evaluate on valuations built from their weights."""

    def e(pairs):
        weights = [ZERO] * space.n
        for c, x in pairs:
            weights[x] = weights[x] + c
        nu = va.valuation_from_weights(space, weights)
        return su.algebra_evaluate(space, joins, nu)

    points = range(space.n)
    tables = []
    for evaluate in (lambda pairs: cone_value(space, joins, pairs), e):
        tables.append((
            tuple(tuple(evaluate([(ONE, x), (ONE, y)]) for y in points) for x in points),
            tuple(tuple(evaluate([(r, x)]) for x in points) for r in SCALAR_GRID),
            evaluate([]),
        ))
    return tables


def test_induced_algebra_evaluates_as_algebra_evaluate(monkeypatch):
    # every join algebra on at most 3 points; cone_value and the transfer
    # laws look support up when they run, through algebra_evaluate, so a
    # patched support reaches them
    algebras = []
    for space in (t for n in range(4) for t in all_topologies(n)):
        joins = hy.join_algebra_map(space)
        if joins is not None and h_algebra(space, hy.build_hyperspace(space), joins):
            algebras.append((space, joins))
    assert len(algebras) == 9
    pristine = []
    for space, joins in algebras:
        tables, direct = _cone_tables(space, joins)
        assert tables == direct
        assert transfer_laws(space, joins, ())
        pristine.append(tables)
    _, attr, mutant = MUTATIONS["support-null-union"]
    monkeypatch.setattr(su, attr, mutant)
    mutated = []
    for space, joins in algebras:
        tables, direct = _cone_tables(space, joins)
        assert tables == direct
        mutated.append(tables)
    assert mutated != pristine
    assert not all(transfer_laws(space, joins, ()) for space, joins in algebras)


def test_every_join_map_on_at_most_4_points_is_an_algebra_that_transfers():
    # all 390 topologies on at most 4 points: each join map is an H-algebra
    # and a topological complete join-semilattice, and it transfers to a
    # V-algebra and a cone, checked on one canned mixture per space
    spaces = [t for n in range(5) for t in all_topologies(n)]
    assert len(spaces) == 390
    with_joins = 0
    for space in spaces:
        joins = hy.join_algebra_map(space)
        if joins is None:
            continue
        with_joins += 1
        hx = hy.build_hyperspace(space)
        assert h_algebra(space, hx, joins)
        assert join_characterization(space, hx, joins)
        spread = va.Valuation(space, (ONE,) * space.n)
        xi = va.SimpleSecondOrder(
            space, ((ext("1/2"), va.unit_delta(space, space.n - 1)), (ExtRat(2), spread))
        )
        assert transfer_laws(space, joins, [xi])
    assert with_joins == 45


def test_h_algebra_is_the_join_characterization_on_every_small_table():
    tables = 0
    for space in (t for n in range(3) for t in all_topologies(n)):
        hx = hy.build_hyperspace(space)
        for table in itertools.product(range(space.n), repeat=len(hx.members)):
            tables += 1
            assert h_algebra(space, hx, table) == join_characterization(space, hx, table)
    assert tables == 37
