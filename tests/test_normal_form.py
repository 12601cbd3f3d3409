"""V's results are in normal form as they are built.

A stored weight tuple holds one ExtRat per point, each specialization
class's weight on its least point and zero on the class's other points.
The public constructor `Valuation(space, weights)` brings outside weights
to that form; the operations of `valuations` build their results in it
and skip the constructor.  `normalised` is the constructor's rule as it
was applied to every result: coerce each weight, then push it to its least
point.  The raw results it is applied to come from the plain loops below,
written here apart from the library's own: the push, the mixture sum, the
unit, the product and the pushes along a product's sections, built from
`Product.pair`.

On every topology of at most 3 points (35 labelled spaces) and on the 36
products of two topologies of at most 2 points, with and without oo
weights, each operation below gives the weights that `normalised` gives
for the raw tuple, and zero off the least points: the unit
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
from topmonads.extrat import ExtRat, ONE, ZERO, ext

TOPOLOGIES = [space for n in range(4) for space in lc.all_topologies(n)]
PRODUCTS = [
    sp.product(a, b)
    for a in TOPOLOGIES if a.n <= 2
    for b in TOPOLOGIES if b.n <= 2
]
SPACES = TOPOLOGIES + [prod.space for prod in PRODUCTS]


def push(assignment, n, weights):
    """Each weight moves to assignment[x], one of n target points."""
    out = [ZERO] * n
    for x, a in enumerate(weights):
        out[assignment[x]] = out[assignment[x]] + a
    return tuple(out)


def mix(n, mixture):
    """The sum of c * w over the (c, w) pairs, on n points."""
    out = [ZERO] * n
    for c, weights in mixture:
        for x, a in enumerate(weights):
            out[x] = out[x] + c * a
    return tuple(out)


def normalised(space, weights):
    """The weights as `Valuation.__post_init__` stored them before the
    operations built their results in normal form."""
    weights = [w if type(w) is ExtRat else ext(w) for w in weights]
    return push(space.least, space.n, weights)


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
            assert_normal(va.unit_delta(space, x), space, push((x,), n, (ONE,)))
        nu = lc.rand_valuation(rng, cfg, space)
        for target in rng.sample(SPACES, 3):
            f = lc.rand_map(rng, space, target)
            if f is not None:
                raw = push(f.assignment, target.n, nu.weights)
                assert_normal(va.pushforward(f, nu), target, raw)
        xi = lc.rand_sso(rng, cfg, space)
        raw = mix(n, [(c, atom.weights) for c, atom in xi.atoms])
        assert_normal(va.mult_E(xi), space, raw)
        middle = rng.choice(SPACES)
        h = lc.rand_kernel(rng, cfg, space, middle)
        k = lc.rand_kernel(rng, cfg, middle, space)
        composite = va.kleisli_compose(k, h)
        rows = [ky.weights for ky in k.table]
        for hx, row in zip(h.table, composite.table):
            assert_normal(row, space, mix(n, zip(hx.weights, rows)))


@pytest.mark.parametrize("infinity", [False, True])
def test_product_results_are_the_normalised_weights(infinity):
    cfg = lc.GenConfig(seed=32, allow_infinity=infinity)
    rng = random.Random(32 + infinity)
    for prod in PRODUCTS:
        nu = lc.rand_valuation(rng, cfg, prod.left)
        rho = lc.rand_valuation(rng, cfg, prod.right)
        raw = tuple(a * b for a in nu.weights for b in rho.weights)
        assert_normal(va.product_valuation(nu, rho, prod), prod.space, raw)
        for x in range(prod.left.n):
            raw = push([prod.pair(x, y) for y in range(prod.right.n)], prod.space.n, rho.weights)
            assert_normal(va.strength_V(prod, x, rho), prod.space, raw)
        for y in range(prod.right.n):
            raw = push([prod.pair(x, y) for x in range(prod.left.n)], prod.space.n, nu.weights)
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
