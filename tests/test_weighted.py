"""The weighted core, checked on every topology of at most four points
(390 labelled spaces): the support is the closure of the points of
positive weight, for 20 seeded valuations per space with weights in
{0, 1/2, 1, oo}.  The closed sets of H are masks, checked against the
Boolean-weight route in `test_h_masks`.

Validation reads the weights back and compares tables; on the 35
topologies of at most three points it agrees with the pairwise scan on
every table: all 1,070 Boolean tables (145 valid) through `HitFunctional`
and all 13,449 tables valued in {0, 1, oo} (335 valid) through
`validate_valuation`, with the scan's error type and first failing pair.

The strength and costrength compute on offsets: on each of the 35 ** 2
products of those topologies, they equal the pushes along the section
maps built from `Product.pair`, at every point and for every closed set of
the factor, and for a valuation with seeded weights on each closed set."""

import itertools
import random

import pytest

from topmonads import hyperspace as hy
from topmonads import spaces as sp
from topmonads import support as su
from topmonads import valuations as va
from topmonads import weighted as wt
from topmonads.errors import NotAValidFunctional, NotModular, NotMonotone, NotStrict
from topmonads.extrat import INF, ONE, ZERO, ext
from topmonads.lawcheck import all_topologies, count_valid_functional_tables, table_is_valuation

SPACES = [space for n in range(5) for space in all_topologies(n)]
SMALL = [space for space in SPACES if space.n <= 3]


def test_there_are_390_topologies_on_at_most_four_points():
    assert len(SPACES) == 390


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
    filled = wt.canonical(space, weights)
    assert filled[low] == INF and filled[high] == INF


def _first_pair(space, fails):
    """The first pair of opens, in `space.opens` order, on which fails
    holds, as lists of point names; None if there is none."""
    for u in space.opens:
        for v in space.opens:
            if fails(u, v):
                return space.mask_names(u), space.mask_names(v)
    return None


def test_hit_functional_verdicts_match_the_pairwise_scan():
    assert len(SMALL) == 35
    tables = valid = 0
    for space in SMALL:
        for table in itertools.product((False, True), repeat=len(space.opens)):
            t = dict(zip(space.opens, table))
            join = _first_pair(space, lambda u, v: t[u | v] != (t[u] or t[v]))
            witness = (0,) if t[0] else join
            try:
                phi = hy.HitFunctional(space, table)
            except NotAValidFunctional as exc:
                assert witness is not None and exc.witness == witness
            else:
                assert witness is None
                assert hy.functional_of_closed(phi.closed) == phi
                valid += 1
            tables += 1
    assert (tables, valid) == (1070, 145)
    assert valid == sum(count_valid_functional_tables(space) for space in SMALL)


def test_validate_valuation_verdicts_match_the_pairwise_scan():
    tables = valid = 0
    for space in SMALL:
        for table in itertools.product((ZERO, ONE, INF), repeat=len(space.opens)):
            t = dict(zip(space.opens, table))
            monotone = _first_pair(space, lambda u, v: u & ~v == 0 and t[u] > t[v])
            modular = _first_pair(space, lambda u, v: t[u | v] + t[u & v] != t[u] + t[v])
            if t[0] != ZERO:
                expected = (NotStrict, None)
            elif monotone or modular:
                expected = (NotMonotone, monotone) if monotone else (NotModular, modular)
            else:
                expected = None
            assert (expected is None) == table_is_valuation(space, table)
            try:
                nu = va.validate_valuation(space, table)
            except (NotStrict, NotMonotone, NotModular) as exc:
                assert (type(exc), getattr(exc, "witness", None)) == expected
            else:
                assert expected is None and nu.table == table
                valid += 1
            tables += 1
    assert (tables, valid) == (13449, 335)


@pytest.mark.parametrize("allow_infinity", [False, True])
def test_strengths_are_the_pushes_along_the_sections(allow_infinity):
    grid = (ZERO, ext("1/2"), ONE, INF) if allow_infinity else (ZERO, ext("1/2"), ONE, ext(3))
    rng = random.Random(allow_infinity)
    for a, b in itertools.product(SMALL, repeat=2):
        prod = sp.product(a, b)
        for x in range(a.n):
            row = tuple(prod.pair(x, y) for y in range(b.n))
            section = sp.ContinuousMap(b, prod.space, row)
            for members in b.closed_sets():
                c = hy.ClosedSet(b, members)
                assert hy.strength_H(prod, x, c) == hy.push_closed(section, c)
                weights = [rng.choice(grid) if members >> y & 1 else ZERO for y in range(b.n)]
                nu = va.Valuation(b, weights)
                assert va.strength_V(prod, x, nu) == va.pushforward(section, nu)
        for y in range(b.n):
            column = tuple(prod.pair(x, y) for x in range(a.n))
            section = sp.ContinuousMap(a, prod.space, column)
            for members in a.closed_sets():
                c = hy.ClosedSet(a, members)
                assert hy.costrength_H(prod, c, y) == hy.push_closed(section, c)
                weights = [rng.choice(grid) if members >> x & 1 else ZERO for x in range(a.n)]
                nu = va.Valuation(a, weights)
                assert va.costrength_V(prod, nu, y) == va.pushforward(section, nu)
