"""The core's results are in normal form as they are built.

A stored weight tuple holds one ExtRat per point, each specialization
class's weight on its least point and zero on the class's other points.
The public constructor `Valuation(space, weights)` brings outside weights
to that form; the core's operations build their results in it and skip
the constructor.  `normalised` is the constructor's rule as it was applied
to every result: coerce each weight, then push it to its least point.

On every topology of at most 3 points (35 labelled spaces) and on the 36
products of two topologies of at most 2 points, with and without oo
weights, each operation below gives the weights that `normalised` gives
for the tuple the core computes, and zero off the least points: the unit
at every point, the zero valuation, the pushforward along seeded
continuous maps, the multiplication of seeded second-order valuations,
Kleisli composition of seeded kernels, and, on the products, strength,
costrength and the product valuation.
"""

import random

import pytest

from topmonads import lawcheck as lc
from topmonads import spaces as sp
from topmonads import valuations as va
from topmonads import weighted as wt
from topmonads.extrat import ExtRat, ZERO, ext

TOPOLOGIES = [space for n in range(4) for space in lc.all_topologies(n)]
PRODUCTS = [
    sp.product(a, b)
    for a in TOPOLOGIES if a.n <= 2
    for b in TOPOLOGIES if b.n <= 2
]
SPACES = TOPOLOGIES + [prod.space for prod in PRODUCTS]


def normalised(space, weights):
    """The weights as `Valuation.__post_init__` stored them before the
    core built its results in normal form."""
    weights = [w if type(w) is ExtRat else ext(w) for w in weights]
    return wt.push(space.least, space.n, weights)


def assert_normal(nu, space, raw):
    assert nu.space == space
    assert type(nu.weights) is tuple
    assert all(type(w) is ExtRat for w in nu.weights)
    assert nu.weights == normalised(space, raw)
    assert all(w == ZERO for x, w in enumerate(nu.weights) if space.least[x] != x)


def test_there_are_35_topologies_and_36_products():
    assert (len(TOPOLOGIES), len(PRODUCTS)) == (35, 36)


@pytest.mark.parametrize("infinity", [False, True])
def test_core_results_are_the_normalised_weights(infinity):
    cfg = lc.GenConfig(seed=31, allow_infinity=infinity)
    rng = random.Random(31 + infinity)
    for space in SPACES:
        n = space.n
        assert_normal(va.zero_valuation(space), space, (ZERO,) * n)
        for x in range(n):
            assert_normal(va.unit_delta(space, x), space, wt.unit(n, x))
        nu = lc.rand_valuation(rng, cfg, space)
        for target in rng.sample(SPACES, 3):
            f = lc.rand_map(rng, space, target)
            if f is not None:
                raw = wt.push(f.assignment, target.n, nu.weights)
                assert_normal(va.pushforward(f, nu), target, raw)
        xi = lc.rand_sso(rng, cfg, space)
        raw = wt.mult(n, [(c, atom.weights) for c, atom in xi.atoms])
        assert_normal(va.mult_E(xi), space, raw)
        middle = rng.choice(SPACES)
        h = lc.rand_kernel(rng, cfg, space, middle)
        k = lc.rand_kernel(rng, cfg, middle, space)
        composite = va.kleisli_compose(k, h)
        rows = [ky.weights for ky in k.table]
        for hx, row in zip(h.table, composite.table):
            assert_normal(row, space, wt.mult(n, zip(hx.weights, rows)))


@pytest.mark.parametrize("infinity", [False, True])
def test_product_results_are_the_normalised_weights(infinity):
    cfg = lc.GenConfig(seed=32, allow_infinity=infinity)
    rng = random.Random(32 + infinity)
    for prod in PRODUCTS:
        nu = lc.rand_valuation(rng, cfg, prod.left)
        rho = lc.rand_valuation(rng, cfg, prod.right)
        raw = wt.product(nu.weights, rho.weights)
        assert_normal(va.product_valuation(nu, rho, prod), prod.space, raw)
        for x in range(prod.left.n):
            raw = wt.strength(prod, x, rho.weights)
            assert_normal(va.strength_V(prod, x, rho), prod.space, raw)
        for y in range(prod.right.n):
            raw = wt.costrength(prod, nu.weights, y)
            assert_normal(va.costrength_V(prod, nu, y), prod.space, raw)


def test_the_constructor_normalises_outside_weights():
    """On a T0 space the constructor keeps the weights as given, coerced;
    elsewhere it pushes them to least points, as `normalised` does."""
    rng = random.Random(33)
    for space in SPACES:
        raw = [rng.choice((0, 1, "1/2", "inf")) for _ in range(space.n)]
        nu = va.Valuation(space, raw)
        assert_normal(nu, space, raw)
        if space.is_T0:
            assert nu.weights == tuple(ext(w) for w in raw)
