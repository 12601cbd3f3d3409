"""The weighted core, checked on every topology of at most four points
(390 labelled spaces): reading a closed set's weights off its hit table
gives the closed set back, for each of the 2,483 closed sets, and the
support is the closure of the points of positive weight, for 20 seeded
valuations per space with weights in {0, 1/2, 1, oo}."""

import itertools
import random

from topmonads import hyperspace as hy
from topmonads import support as su
from topmonads import valuations as va
from topmonads import weighted as wt
from topmonads.extrat import INF, ONE, ZERO, ext
from topmonads.lawcheck import all_topologies

SPACES = [space for n in range(5) for space in all_topologies(n)]


def test_there_are_390_topologies_on_at_most_four_points():
    assert len(SPACES) == 390


def test_every_closed_set_is_read_back_off_its_hit_table():
    count = 0
    for space in SPACES:
        for mask in space.closed_sets():
            c = hy.ClosedSet(space, mask)
            table = hy.functional_of_closed(c).table
            weights = wt.read_weights(wt.BOOL, space, table)
            assert hy.closed_of_weights(space, weights) == c
            assert hy.closed_of_functional(hy.functional_of_closed(c)) == c
            count += 1
    assert count == 2483


def test_support_is_the_closure_of_the_positive_points():
    grid = (ZERO, ext("1/2"), ONE, INF)
    rng = random.Random(0)
    for space in SPACES:
        for _ in range(20):
            weights = [rng.choice(grid) for _ in range(space.n)]
            nu = va.Valuation(space, weights)
            positive = sum(1 << x for x, w in enumerate(weights) if w != ZERO)
            members = su.support(nu).members
            assert members == space.closure(positive)
            # the closed set that hits exactly the opens of positive mass
            null = 0
            for u in space.opens:
                if nu.value(u) == ZERO:
                    null |= u
            assert members == space.full & ~null


def test_sgn_is_a_semiring_homomorphism_on_the_grid():
    grid = (ZERO, ext("1/3"), ONE, ext(5), INF)
    for a, b in itertools.product(grid, repeat=2):
        assert su.sgn(a + b) == (su.sgn(a) or su.sgn(b))
        assert su.sgn(a * b) == (su.sgn(a) and su.sgn(b))


def test_canonical_form_fills_the_weights_below_a_top_weight():
    space = all_topologies(2)[1]  # a two-point space with one point below the other
    low, high = (0, 1) if space.leq(0, 1) else (1, 0)
    weights = [ZERO, ZERO]
    weights[high] = INF
    filled = wt.canonical(wt.EXT, space, weights)
    assert filled[low] == INF and filled[high] == INF
    booleans = [False, False]
    booleans[high] = True
    assert wt.canonical(wt.BOOL, space, booleans) == (True, True)
