"""Probability valuations, measure extension, and their interplay."""

import random

import pytest

from topmonads import probability as pb
from topmonads import spaces as sp
from topmonads import valuations as va
from topmonads.errors import (
    InfiniteMass,
    NotNormalized,
)
from topmonads.extrat import INF, ONE, ZERO, ExtRat, ext
from topmonads.lawcheck import GenConfig, p_subbasis_restricts, rand_prob, rand_valuation


def test_prob_valuation_normalization():
    s = sp.sierpinski()
    pb.ProbValuation(s, (ext("1/2"), ext("1/2")))
    with pytest.raises(NotNormalized):
        pb.ProbValuation(s, (ONE, ONE))
    with pytest.raises(NotNormalized):
        pb.ProbValuation(s, (ZERO, ZERO))
    with pytest.raises(NotNormalized):
        pb.ProbValuation(s, (INF, ZERO))


def test_p_and_measures_are_the_valuations_with_their_weights():
    """The inclusion P -> V is the identity: a probability valuation and a
    measure each equal, and hash like, the valuation with their weights."""
    s = sp.sierpinski()
    nu = va.valuation_from_weights(s, (ext("2/3"), ext("1/3")))
    for element in (
        pb.ProbValuation(s, (ext("2/3"), ext("1/3"))),
        pb.FiniteMeasure(s, (ext("2/3"), ext("1/3"))),
        pb.extend_to_measure(nu),
    ):
        assert isinstance(element, va.Valuation)
        assert element == nu and nu == element
        assert hash(element) == hash(nu)
    assert pb.ProbValuation(s, nu.weights) == pb.FiniteMeasure(s, nu.weights)


def test_extend_sierpinski_example():
    s = sp.sierpinski()
    nu = va.valuation_from_weights(s, (ext("2/3"), ext("1/3")))
    m = pb.extend_to_measure(nu)
    assert m.point_weights == (ext("2/3"), ext("1/3"))
    assert m.quotient_map is None
    for u in s.opens:
        assert m.measure_of(u) == nu.value(u)


def test_extend_round_trip_randomized():
    rng = random.Random(11)
    cfg = GenConfig(seed=11, allow_infinity=False)
    for space in (sp.sierpinski(), sp.w_lattice(), sp.chain(4), sp.discrete(3)):
        for _ in range(20):
            nu = rand_valuation(rng, cfg, space)
            m = pb.extend_to_measure(nu)
            for u in space.opens:
                assert m.measure_of(u) == nu.value(u)
            assert all(not w.is_infinite for w in m.point_weights)


def test_extend_rejects_infinite_mass():
    s = sp.sierpinski()
    nu = va.valuation_from_weights(s, (INF, ZERO))
    with pytest.raises(InfiniteMass):
        pb.extend_to_measure(nu)


def test_extend_non_t0_routes_through_quotient():
    i2 = sp.indiscrete(2)
    nu = va.valuation_from_weights(i2, (ext("1/2"), ext("1/2")))
    m = pb.extend_to_measure(nu)
    assert m.quotient_map is not None
    assert m.space.n == 1
    assert m.mass == ONE


def test_extend_is_the_checked_measure_and_views_nu():
    """The extension equals the measure built through the checking
    constructor, and on a T0 space it equals nu itself."""
    rng = random.Random(12)
    cfg = GenConfig(seed=12, allow_infinity=False)
    for space in (sp.sierpinski(), sp.w_lattice(), sp.indiscrete(2), sp.chain(3)):
        nu = rand_valuation(rng, cfg, space)
        m = pb.extend_to_measure(nu)
        if m.quotient_map is None:
            assert m == nu and m.weights == nu.weights
            assert m == pb.FiniteMeasure(space, nu.weights)
        else:
            pushed = va.pushforward(m.quotient_map, nu)
            assert m == pb.FiniteMeasure(m.space, pushed.weights, m.quotient_map)
            assert m == pushed
        assert m.mass == nu.mass


def test_integrate_measure_matches_valuation():
    w = sp.w_lattice()
    nu = va.valuation_from_weights(
        w, (ext("1/4"), ext("1/4"), ext("1/4"), ext("1/4"))
    )
    m = pb.extend_to_measure(nu)
    g = va.LowerSemiFn(w, (ZERO, ONE, ONE, ExtRat(2)))
    assert va.integrate(m, g) == va.integrate(nu, g)


def test_mult_E_measure():
    s = sp.sierpinski()
    p1 = va.valuation_from_weights(s, (ONE, ZERO))
    p2 = va.valuation_from_weights(s, (ZERO, ONE))
    xi = va.SimpleSecondOrder(s, ((ext("1/2"), p1), (ext("1/2"), p2)))
    result = pb.mult_E_measure(xi)
    assert result == va.valuation_from_weights(
        s, (ext("1/2"), ext("1/2"))
    )
    bad = va.SimpleSecondOrder(s, ((ext("1/3"), p1),))
    with pytest.raises(NotNormalized):
        pb.mult_E_measure(bad)


def test_mult_E_measure_randomized_agreement():
    rng = random.Random(13)
    cfg = GenConfig(seed=13)
    for space in (sp.sierpinski(), sp.chain(3), sp.w_lattice()):
        for _ in range(10):
            atoms = []
            raw = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
            total = sum(raw)
            from fractions import Fraction

            for c in raw:
                atoms.append(
                    (
                        ExtRat(Fraction(c, total)),
                        rand_prob(rng, cfg, space),
                    )
                )
            xi = va.SimpleSecondOrder(space, tuple(atoms))
            result = pb.mult_E_measure(xi)
            assert result.mass == ONE
            # the measure route: mix the extended atom measures per subset
            measure = pb.extend_to_measure(result)
            extended = [(c, pb.extend_to_measure(nu)) for c, nu in atoms]
            for subset in range(1 << space.n):
                mixture = ZERO
                for c, m in extended:
                    mixture = mixture + c * m.measure_of(subset)
                assert mixture == measure.measure_of(subset)


def test_product_measure_marginals():
    s = sp.sierpinski()
    p = pb.ProbValuation(s, (ext("1/4"), ext("3/4")))
    q = pb.ProbValuation(s, (ext("2/5"), ext("3/5")))
    prod = sp.product(s, s)
    pm = pb.product_measure(p, q, prod)
    assert va.pushforward(prod.proj1, pm) == p
    assert va.pushforward(prod.proj2, pm) == q
    # the extension's weights are pointwise products
    weights = pb.extend_to_measure(pm).point_weights
    wp = pb.extend_to_measure(p).point_weights
    wq = pb.extend_to_measure(q).point_weights
    assert weights == tuple(a * b for a in wp for b in wq)


def test_product_and_mixture_measures_are_the_rebuilt_ones():
    # the results take V's weights over as they are: the same weights as a
    # ProbValuation rebuilt from them, on spaces where weights move to
    # least points
    rng = random.Random(7)
    cfg = GenConfig(seed=7)
    for space in (sp.sierpinski(), sp.indiscrete(2), sp.w_lattice(), sp.chain(3)):
        p, q = rand_prob(rng, cfg, space), rand_prob(rng, cfg, space)
        for result, v in (
            (pb.product_measure(p, q), va.product_valuation(p, q)),
            (
                pb.mult_E_measure(va.SimpleSecondOrder(space, ((ext("1/3"), p), (ext("2/3"), q)))),
                va.mult_E(va.SimpleSecondOrder(space, ((ext("1/3"), p), (ext("2/3"), q)))),
            ),
        ):
            assert type(result) is pb.ProbValuation
            rebuilt = pb.ProbValuation(v.space, v.weights)
            assert result.weights == rebuilt.weights == v.weights
            assert result.table == rebuilt.table and result == rebuilt
            assert result.mass == ONE
    with pytest.raises(NotNormalized, match="total mass is 3, not 1"):
        pb.product_measure(va.valuation_from_weights(space, (ONE,) * 3), q)


def test_a_topology_membership():
    # the subbasic opens of P are those of V, read on the valuation, and
    # agree with the mass of the measure, on the Kolmogorov quotient when
    # the space is not T0
    s = sp.sierpinski()
    p = pb.ProbValuation(s, (ext("1/2"), ext("1/2")))
    one = s.mask_of(["1"])
    assert va.theta_membership(p, one, ext("1/4"))
    assert not va.theta_membership(p, one, ext("3/4"))
    i = sp.indiscrete(2)
    q = pb.ProbValuation(i, (ext("1/3"), ext("2/3")))
    for space, prob in ((s, p), (i, q)):
        for u in space.opens:
            for r in (ZERO, ext("1/4"), ext("1/2"), ext("3/4"), ONE):
                assert p_subbasis_restricts(prob, u, r)


def test_finite_measure_basics():
    s = sp.sierpinski()
    m = pb.FiniteMeasure(s, (ext("1/3"), ext("2/3")))
    assert m.mass == ONE
    assert m.measure_of(1) == ext("1/3")
    assert m.value(s.mask_of(["1"])) == ext("2/3")  # on the opens, the valuation
    assert m.point_weights is m.weights  # one copy of the weights
    with pytest.raises(InfiniteMass):
        pb.FiniteMeasure(s, (INF, ZERO))
