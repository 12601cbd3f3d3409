"""H on masks against the Boolean-weight route.

A closed set is the mask of its points, and each H operation closes one
mask.  The reference below is the other encoding: a closed set as a tuple
of Boolean point weights, each operation written on the tuples (the unit,
push, multiplication, strength, costrength, product, hit table and the
read of weights off a table), and the canonical form filling in every
point below a weight True.  The canonical form is written from the
specialization order point by point, not with `FiniteSpace.closure`.

Both routes are run on every topology with at most 4 points and on random
preorders of up to 8 points; the closed sets, hit tables and supports must
agree.  On the 35 topologies with at most 3 points, every Boolean table on
the opens goes through `HitFunctional` and the reference, with the same
verdict, exception type and witness.
"""

import itertools
import random

import pytest

from topmonads import hyperspace as hy
from topmonads import spaces as sp
from topmonads import support as su
from topmonads import valuations as va
from topmonads.errors import NotAValidFunctional
from topmonads.extrat import INF, ONE, ZERO, ext, sgn
from topmonads.lawcheck import all_topologies

SPACES = [space for n in range(5) for space in all_topologies(n)]
SMALL = [space for space in SPACES if space.n <= 3]


def random_preorder(rng: random.Random, n: int) -> sp.FiniteSpace:
    """The reflexive transitive closure of a random relation on n points;
    cycles make equivalent points, so non-T0 spaces occur."""
    up = [1 << i | sum(1 << j for j in range(n) if rng.random() < 0.25) for i in range(n)]
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return sp.FiniteSpace(tuple(f"p{i}" for i in range(n)), tuple(up))


LARGE = [random_preorder(random.Random(seed), 1 + seed % 8) for seed in range(60)]


# --- the Boolean-weight route -----------------------------------------------


def weights_of(space, mask):
    return tuple(mask >> x & 1 == 1 for x in range(space.n))


def canonical(space, w):
    """Weight True on every point below a point of weight True."""
    return tuple(
        any(w[x] and space.min_nbhd[y] >> x & 1 for x in range(space.n))
        for y in range(space.n)
    )


def mask_of(space, w):
    """The closed set that weights denote: the mask of their canonical form."""
    return sum(1 << x for x, a in enumerate(canonical(space, w)) if a)


def unit(n, x):
    return tuple(y == x for y in range(n))


def push(assignment, n, w):
    out = [False] * n
    for x, a in enumerate(w):
        out[assignment[x]] = out[assignment[x]] or a
    return tuple(out)


def mult(n, mixture):
    out = [False] * n
    for c, w in mixture:
        for x, a in enumerate(w):
            out[x] = out[x] or (c and a)
    return tuple(out)


def strength(prod, x, w):
    return push([prod.pair(x, y) for y in range(prod.right.n)], prod.space.n, w)


def costrength(prod, w, y):
    return push([prod.pair(x, y) for x in range(prod.left.n)], prod.space.n, w)


def product(w, v):
    return tuple(a and b for a in w for b in v)


def table(space, w):
    return tuple(any(w[x] for x in sp.bits(u)) for u in space.opens)


def validate(space, values):
    """Weights read off values on the opens, on the least point of each
    class, if they give the values back; else None."""
    v = dict(zip(space.opens, values))
    w = tuple(
        v[up] and not v[up & ~c] if c & -c == 1 << x else False
        for x, (up, c) in enumerate(zip(space.min_nbhd, space.classes))
    )
    return w if table(space, w) == tuple(values) else None


def functional_outcome(space, values):
    """The reference verdict on a Boolean table: ("ok", the closed mask),
    or the exception type and witness of the pairwise scan."""
    w = validate(space, values)
    if w is not None:
        return "ok", mask_of(space, w)
    v = dict(zip(space.opens, values))
    if v[0]:
        return NotAValidFunctional, (0,)
    for p, q in itertools.product(space.opens, repeat=2):
        if v[p | q] != (v[p] or v[q]):
            return NotAValidFunctional, (space.mask_names(p), space.mask_names(q))
    raise AssertionError("a table that fails validation has a failing pair")


# --- maps and products to run the operations on -----------------------------


def continuous_maps(rng, space):
    """Self-maps: every continuous one on at most 3 points; else the
    identity, the constants, and random assignments that are continuous."""
    if space.n <= 3:
        candidates = itertools.product(range(space.n), repeat=space.n)
    else:
        candidates = [tuple(range(space.n))]
        candidates += [(y,) * space.n for y in range(space.n)]
        candidates += [tuple(rng.randrange(space.n) for _ in range(space.n)) for _ in range(30)]
    maps = []
    for a in candidates:
        if all(space.min_nbhd[a[x]] >> a[y] & 1 for x, y in space.order_pairs):
            maps.append(sp.ContinuousMap(space, space, tuple(a)))
    return maps


def some_closed_sets(rng, space, limit=12):
    closed = space.closed_sets()
    return closed if len(closed) <= limit else rng.sample(closed, limit)


# --- the comparisons ----------------------------------------------------------


def test_unit_and_push_match_the_weight_route():
    rng = random.Random(1)
    for space in SPACES + LARGE:
        for x in range(space.n):
            assert hy.unit_sigma(space, x).members == mask_of(space, unit(space.n, x))
        for f in continuous_maps(rng, space):
            for c in some_closed_sets(rng, space):
                want = mask_of(space, push(f.assignment, space.n, weights_of(space, c)))
                assert hy.push_closed(f, hy.ClosedSet(space, c)).members == want


def test_mult_union_matches_the_weight_route():
    rng = random.Random(2)
    for space in SPACES + LARGE:
        hx = hy.build_hyperspace(space)
        if hx.space.n <= 16:
            families = hx.space.closed_sets()
        else:
            families = [hx.space.closure(rng.getrandbits(hx.space.n)) for _ in range(20)]
        for family in families:
            mixture = [(True, weights_of(space, hx.members[i])) for i in sp.bits(family)]
            want = mask_of(space, mult(space.n, mixture))
            assert hy.mult_union(hx, family).members == want


def test_strength_costrength_and_product_match_the_weight_route():
    rng = random.Random(3)
    lefts = SPACES[::5] + LARGE[::3]
    for a in lefts:
        for b in (sp.sierpinski(), rng.choice(SPACES), rng.choice(LARGE[:16])):
            prod = sp.product(a, b)
            for c, d in itertools.product(some_closed_sets(rng, a, 6), some_closed_sets(rng, b, 6)):
                wc, wd = weights_of(a, c), weights_of(b, d)
                c_set, d_set = hy.ClosedSet(a, c), hy.ClosedSet(b, d)
                assert hy.product_closed(prod, c_set, d_set).members == mask_of(
                    prod.space, product(wc, wd)
                )
                for x in range(a.n):
                    assert hy.strength_H(prod, x, d_set).members == mask_of(
                        prod.space, strength(prod, x, wd)
                    )
                for y in range(b.n):
                    assert hy.costrength_H(prod, c_set, y).members == mask_of(
                        prod.space, costrength(prod, wc, y)
                    )


def test_hit_tables_match_the_weight_route():
    for space in SPACES + LARGE:
        for c in space.closed_sets():
            phi = hy.functional_of_closed(hy.ClosedSet(space, c))
            assert phi.table == table(space, weights_of(space, c))
            assert hy.closed_of_functional(phi).members == c
            assert mask_of(space, validate(space, phi.table)) == c


def test_support_matches_the_weight_route():
    grid = (ZERO, ext("1/2"), ONE, INF)
    rng = random.Random(4)
    for space in SPACES + LARGE:
        for _ in range(10):
            nu = va.Valuation(space, [rng.choice(grid) for _ in range(space.n)])
            want = mask_of(space, tuple(map(sgn, nu.weights)))
            assert su.support(nu).members == want


def test_every_boolean_table_gets_the_weight_route_verdict():
    assert len(SMALL) == 35
    tables = valid = 0
    for space in SMALL:
        for values in itertools.product((False, True), repeat=len(space.opens)):
            want = functional_outcome(space, values)
            try:
                got = "ok", hy.HitFunctional(space, values).closed.members
            except NotAValidFunctional as exc:
                got = type(exc), exc.witness
            assert got == want
            valid += got[0] == "ok"
            tables += 1
    assert (tables, valid) == (1070, 145)


def test_every_closed_set_is_read_back_off_its_hit_table():
    count = 0
    for space in SPACES:
        for mask in space.closed_sets():
            c = hy.ClosedSet(space, mask)
            phi = hy.functional_of_closed(c)
            missed = 0
            for u, t in zip(space.opens, phi.table):
                if not t:
                    missed |= u
            assert space.full & ~missed == mask
            assert hy.closed_of_functional(phi) == c
            count += 1
    assert count == 2483


def test_the_closure_fills_the_points_below_a_point_of_the_set():
    space = all_topologies(2)[1]  # a two-point space with one point below the other
    low, high = (0, 1) if space.leq(0, 1) else (1, 0)
    assert hy.closed_of_mask(space, 1 << high).members == space.full
    assert hy.closed_of_mask(space, 1 << low).members == 1 << low


@pytest.fixture
def closures(monkeypatch):
    """Counts the calls of FiniteSpace.closure."""
    calls = []
    original = sp.FiniteSpace.closure

    def counted(self, subset):
        calls.append(subset)
        return original(self, subset)

    monkeypatch.setattr(sp.FiniteSpace, "closure", counted)
    return calls


def test_each_operation_closes_one_mask(closures):
    w = sp.w_lattice()
    prod = sp.product(w, sp.sierpinski())
    hx = hy.build_hyperspace(w)
    c, d = hy.ClosedSet(w, w.closed_sets()[2]), hy.ClosedSet(sp.sierpinski(), 1)
    family = hy.ClosedSet(hx.space, hx.space.closed_sets()[3])
    nu = va.Valuation(w, [ONE] * w.n)
    phi_table = hy.functional_of_closed(c).table
    operations = [
        lambda: hy.unit_sigma(w, 1),
        lambda: hy.push_closed(sp.identity_map(w), c),
        lambda: hy.mult_union(hx, family),
        lambda: hy.strength_H(prod, 0, d),
        lambda: hy.costrength_H(prod, c, 1),
        lambda: hy.product_closed(prod, c, d),
        lambda: hy.HitFunctional(w, phi_table),
        lambda: su.support(nu),
    ]
    for operation in operations:
        closures.clear()
        operation()
        assert len(closures) == 1
