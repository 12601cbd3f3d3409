"""Continuous valuations: integration oracle, monad laws, products, order."""

import itertools
import random
import re

import pytest

from topmonads import spaces as sp
from topmonads import valuations as va
from topmonads.errors import (
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
from topmonads.extrat import INF, ONE, ZERO, ExtRat, ext
from topmonads.lawcheck import (
    GenConfig,
    all_topologies,
    certificate_is_sound,
    integral_order_le,
    monotone_functions,
    pairing_with_evaluation,
    rand_lsc,
    rand_valuation,
)


def oracle_integral(nu, g):
    """Sup over dominated simple functions, by brute-force enumeration.

    Any dominated simple function can be raised to one valued in the
    (finite) value set of g plus zero, so the enumeration is complete;
    each candidate is integrated with an independent step-sum formula.
    """
    space = nu.space
    candidates = sorted({ZERO} | {v for v in g.values if v.is_finite})
    best = ZERO
    for choice in itertools.product(candidates, repeat=space.n):
        if any(choice[x] > g(x) for x in range(space.n)):
            continue
        if any(
            space.leq(x, y) and choice[x] > choice[y]
            for x in range(space.n)
            for y in range(space.n)
        ):
            continue
        total = ZERO
        prev = ZERO
        for v in sorted(set(choice)):
            if v == ZERO:
                continue
            level = sum(
                1 << x for x in range(space.n) if choice[x] >= v
            )
            total = total + (v - prev) * nu.value(level)
            prev = v
        if total > best:
            best = total
    return best


def test_valuation_validation_witnesses():
    s = sp.sierpinski()
    with pytest.raises(NotStrict):
        va.validate_valuation(s, (ONE, ONE, ONE))
    with pytest.raises(NotMonotone):
        va.validate_valuation(s, (ZERO, ONE, ext("1/2")))
    d = sp.discrete(2)
    # monotone but not modular: nu({a}) + nu({b}) != nu({a,b}) + nu({})
    with pytest.raises(NotModular):
        va.validate_valuation(d, (ZERO, ONE, ONE, ONE))


def test_weights_define_a_valuation():
    s = sp.sierpinski()
    nu = va.valuation_from_weights(s, (ext("1/2"), ext("1/2")))
    assert nu.value(s.mask_of(["1"])) == ext("1/2")
    assert nu.mass == ONE
    va.validate_valuation(s, nu.table)
    assert va.valuation_from_weights(s, {"1": ONE}).value(s.mask_of(["1"])) == ONE
    with pytest.raises(ShapeMismatch, match="zz"):
        va.valuation_from_weights(s, {"zz": ONE})


def test_sierpinski_running_example_integral():
    s = sp.sierpinski()
    nu = va.valuation_from_weights(s, (ext("1/2"), ext("1/2")))
    g = va.LowerSemiFn(s, (ONE, ExtRat(2)))
    assert va.integrate(nu, g) == ext("3/2")


def test_lsc_validation():
    s = sp.sierpinski()
    # 0 <= 1 in the specialization order, so values must be monotone
    with pytest.raises(Exception):
        va.LowerSemiFn(s, (ONE, ZERO))
    g = va.LowerSemiFn(s, (ZERO, ONE))
    assert g.upper_level(ZERO) == s.mask_of(["1"])
    assert g.weak_level(ONE) == s.mask_of(["1"])
    assert g(1) == ONE
    for x in (-1, 2):
        with pytest.raises(ShapeMismatch):
            g(x)


def test_lsc_check_is_the_pairwise_monotonicity_scan():
    # every {0, 1, oo}-valued function on every topology with at most 3 points
    for n in range(4):
        for space in all_topologies(n):
            for values in itertools.product((ZERO, ONE, INF), repeat=n):
                monotone = all(
                    values[x] <= values[y]
                    for x in range(n)
                    for y in range(n)
                    if space.leq(x, y)
                )
                if monotone:
                    assert va.LowerSemiFn(space, values).values == values
                else:
                    with pytest.raises(
                        NotLowerSemicontinuous,
                        match="values are not monotone for specialization",
                    ):
                        va.LowerSemiFn(space, values)


def test_integration_against_brute_force_oracle():
    rng = random.Random(7)
    cfg = GenConfig(
        seed=7, max_points=4, weight_denominator_bound=16, allow_infinity=False
    )
    spaces = [sp.sierpinski(), sp.w_lattice(), sp.chain(4), sp.discrete(3)]
    checked = 0
    for _ in range(30):
        space = rng.choice(spaces)
        nu = rand_valuation(rng, cfg, space)
        g = rand_lsc(rng, cfg, space)
        assert va.integrate(nu, g) == oracle_integral(nu, g)
        checked += 1
    assert checked == 30


def test_integral_with_infinite_values():
    s = sp.sierpinski()
    nu = va.valuation_from_weights(s, (ONE, ZERO))
    g = va.LowerSemiFn(s, (ZERO, INF))
    # {g = inf} = {1} has measure zero, and inf * 0 = 0
    assert va.integrate(nu, g) == ZERO
    nu2 = va.valuation_from_weights(s, (ZERO, ONE))
    assert va.integrate(nu2, g) == INF


def test_representation_independence():
    # two weight presentations of the same table integrate identically
    i2 = sp.indiscrete(2)
    nu1 = va.valuation_from_weights(i2, (ONE, ZERO))
    nu2 = va.valuation_from_weights(i2, (ZERO, ONE))
    assert nu1.table == nu2.table
    g = va.LowerSemiFn(i2, (ExtRat(2), ExtRat(2)))
    assert va.integrate(nu1, g) == va.integrate(nu2, g)


def test_unit_and_mult():
    s = sp.sierpinski()
    delta = va.unit_delta(s, s.index("1"))
    assert delta.value(s.mask_of(["1"])) == ONE
    nu = va.valuation_from_weights(s, (ext("1/2"), ext("1/2")))
    assert va.mult_E(va.SimpleSecondOrder(s, ((ONE, nu),))) == nu
    mixed = va.mult_E(
        va.SimpleSecondOrder(
            s, ((ext("1/2"), va.unit_delta(s, 0)), (ext("1/2"), va.unit_delta(s, 1)))
        )
    )
    assert mixed == nu
    with pytest.raises(ShapeMismatch):
        va.unit_delta(sp.discrete(2), 5)


def test_sso_rejects_zero_weights():
    s = sp.sierpinski()
    with pytest.raises(PreconditionFailed):
        va.SimpleSecondOrder(s, ((ZERO, va.unit_delta(s, 0)),))


def test_pushforward():
    d = sp.discrete(2)
    s = sp.sierpinski()
    f = sp.ContinuousMap(d, s, (s.index("1"), s.index("0")))
    nu = va.valuation_from_weights(d, (ext("1/4"), ext("3/4")))
    pushed = va.pushforward(f, nu)
    assert pushed.value(s.mask_of(["1"])) == ext("1/4")
    assert pushed.mass == ONE


def test_kernel_continuity_enforced():
    s = sp.sierpinski()
    # x -> delta_x is the unit kernel; fine
    va.delta_kernel(s)
    # mass jumping down along the specialization order is not lsc
    with pytest.raises(NotAKernel):
        va.Kernel(s, s, (va.unit_delta(s, 1), va.zero_valuation(s)))


def test_kleisli_matches_composition_of_maps():
    s = sp.sierpinski()
    f = sp.identity_map(s)
    k1 = va.kernel_from_map(f)
    k2 = va.kleisli_compose(k1, k1)
    assert k2.table == k1.table


def test_strength_rectangles():
    s = sp.sierpinski()
    d = sp.discrete(2)
    prod = sp.product(s, d)
    nu = va.valuation_from_weights(d, (ext("1/3"), ext("2/3")))
    st = va.strength_V(prod, s.index("1"), nu)
    for u in s.opens:
        for v in d.opens:
            want = nu.value(v) if u >> s.index("1") & 1 else ZERO
            assert st.value(prod.rectangle(u, v)) == want
    # a point outside the factor is a shape error, not the zero valuation
    with pytest.raises(ShapeMismatch):
        va.strength_V(prod, 5, nu)
    with pytest.raises(ShapeMismatch):
        va.costrength_V(sp.product(d, s), nu, 7)


def test_product_valuation_cross_example():
    s = sp.sierpinski()
    prod = sp.product(s, s)
    nu = va.valuation_from_weights(s, (ext("1/2"), ext("1/2")))
    rho = va.valuation_from_weights(s, (ext("1/3"), ext("2/3")))
    pv = va.product_valuation(nu, rho, prod)
    one = s.mask_of(["1"])
    cross = prod.rectangle(one, s.full) | prod.rectangle(s.full, one)
    # 1/2 + 2/3 - 1/2 * 2/3 by inclusion-exclusion
    assert pv.value(cross) == ext("5/6")
    assert pv.value(prod.rectangle(one, one)) == ext("1/3")


def test_sierpinski_product_with_an_infinite_weight():
    s = sp.sierpinski()
    nu = va.valuation_from_weights(s, (INF, ONE))
    rho = va.valuation_from_weights(s, (ONE, ONE))
    pv = va.product_valuation(nu, rho)
    assert pv.weights == (INF, INF, ONE, ONE)
    assert pv == va.valuation_from_weights(pv.space, (INF, INF, ONE, ONE))


def test_equality_means_equality_on_opens():
    # the weight of 0 is invisible under the oo weight of 1 above it
    s = sp.sierpinski()
    hidden = va.valuation_from_weights(s, (ONE, INF))
    assert hidden == va.valuation_from_weights(s, (ZERO, INF))
    assert hash(hidden) == hash(va.valuation_from_weights(s, (INF, INF)))
    assert hidden != va.valuation_from_weights(s, (ZERO, ONE))
    # a specialization class keeps its total on its least point
    i2 = sp.indiscrete(2)
    assert va.valuation_from_weights(i2, (ext("1/3"), ext("1/2"))).weights == (
        ext("5/6"),
        ZERO,
    )


def test_validate_round_trips_every_three_point_valuation():
    grid = (ZERO, ext("1/2"), ONE, INF)
    for space in all_topologies(3):
        for weights in itertools.product(grid, repeat=space.n):
            nu = va.valuation_from_weights(space, weights)
            assert va.validate_valuation(space, nu.table) == nu


def test_perturbed_table_raises_a_witness():
    w = sp.w_lattice()
    nu = va.valuation_from_weights(w, (ONE, ext("1/2"), ext("1/3"), ONE))
    for i in range(1, len(w.opens)):
        table = list(nu.table)
        table[i] = table[i] + ONE
        if i == len(w.opens) - 1:
            # raising the whole space alone adds weight to the bottom point
            assert va.validate_valuation(w, table).mass == nu.mass + ONE
            continue
        with pytest.raises((NotModular, NotMonotone)):
            va.validate_valuation(w, table)


def test_theta_and_portmanteau():
    s = sp.sierpinski()
    nu = va.valuation_from_weights(s, (ext("1/2"), ext("1/2")))
    one = s.mask_of(["1"])
    assert va.theta_membership(nu, one, ext("1/4"))
    assert not va.theta_membership(nu, one, ext("1/2"))
    assert not va.theta_membership(nu, 0, ZERO)
    with pytest.raises(PreconditionFailed):
        va.theta_membership(nu, one, INF)
    g = va.LowerSemiFn(s, (ONE, ExtRat(2)))
    r = ONE
    assert va.big_theta_membership(nu, g, r)
    cert = va.portmanteau_witness(nu, g, r)
    assert certificate_is_sound(g, r, cert, nu)
    # certificates must fail the checker when tampered with
    c0, u0, r0 = cert[0]
    bad = [(c0 + ONE, u0, r0)] + list(cert[1:])
    assert not certificate_is_sound(g, r, bad, nu)


def test_portmanteau_witness_requires_membership():
    s = sp.sierpinski()
    nu = va.zero_valuation(s)
    g = va.LowerSemiFn(s, (ONE, ONE))
    with pytest.raises(PreconditionFailed):
        va.portmanteau_witness(nu, g, ONE)


def test_order_checks_agree():
    s = sp.sierpinski()
    nu = va.valuation_from_weights(s, (ext("1/4"), ext("1/4")))
    rho = va.valuation_from_weights(s, (ext("1/2"), ext("1/2")))
    assert va.order_checks(nu, rho).opens_le and integral_order_le(nu, rho)
    assert not va.order_checks(rho, nu).opens_le
    assert not integral_order_le(rho, nu)


def test_stochastic_order_needs_closed_graph():
    d = sp.discrete(2)
    nu = va.unit_delta(d, 0)
    # the identity relation has closed graph on a discrete space
    report = va.order_checks(nu, nu, aux_preorder=[(0, 0), (1, 1)])
    assert report.stochastic_le is True
    s = sp.sierpinski()
    nu = va.unit_delta(s, 0)
    # on Sierpinski the identity graph is not closed in the product
    with pytest.raises(OrderNotClosed):
        va.order_checks(nu, nu, aux_preorder=[(0, 0), (1, 1)])
    # a pair outside the points is not a preorder on them, and is named
    nu = va.unit_delta(d, 0)
    for pair in ((0, 5), (-1, -1)):
        with pytest.raises(NotAPreorder, match=re.escape(str(pair))):
            va.order_checks(nu, nu, aux_preorder=[(0, 0), (1, 1), pair])
    with pytest.raises(NotAPreorder, match="not reflexive"):
        va.order_checks(nu, nu, aux_preorder=[(0, 0)])


def test_canonical_lsc_family_is_monotone_and_complete():
    s = sp.sierpinski()
    family = list(monotone_functions(s))
    # monotone pairs (a, b) with a <= b in {0,1,2}: 6 of them
    assert len(family) == 6
    for g in family:
        assert g(0) <= g(1)


def test_pairing_with_evaluation():
    s = sp.sierpinski()
    nu = va.valuation_from_weights(s, (ext("1/2"), ext("1/2")))
    xi = va.SimpleSecondOrder(s, ((ExtRat(2), nu),))
    g = va.LowerSemiFn(s, (ONE, ExtRat(2)))
    assert pairing_with_evaluation(xi, g) == ExtRat(3)
    assert va.integrate(va.mult_E(xi), g) == ExtRat(3)
