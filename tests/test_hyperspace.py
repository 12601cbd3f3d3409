"""Hyperspace of closed sets: lower Vietoris topology, duality, monad ops."""

import time

import pytest

from topmonads import hyperspace as hy
from topmonads import spaces as sp
from topmonads.errors import (
    NotAValidFunctional,
    NotClosedFamily,
    ShapeMismatch,
)
from topmonads.lawcheck import (
    H,
    all_topologies,
    associativity,
    commutativity,
    count_valid_functional_tables,
    h_algebra,
    h_tower,
    join_characterization,
    join_continuity,
    left_unit,
    right_unit,
)


def test_sierpinski_hyperspace_is_a_three_chain():
    s = sp.sierpinski()
    hx = hy.build_hyperspace(s)
    assert hx.members == (0, 1, 3)  # {}, {0}, {0,1}
    assert hx.space.n == 3
    # inclusion is a total order here, so HX is the 3-chain
    chain = sp.chain(3)
    assert len(hx.space.opens) == len(chain.opens) == 4


def test_discrete_pair_hyperspace_is_the_boolean_square():
    d = sp.discrete(2)
    hx = hy.build_hyperspace(d)
    assert len(hx.members) == 4
    # the inclusion order is the Boolean lattice on two atoms
    empty = hx.point_of(0)
    full = hx.point_of(3)
    a, b = hx.point_of(1), hx.point_of(2)
    assert hx.space.leq(empty, a) and hx.space.leq(empty, b)
    assert hx.space.leq(a, full) and hx.space.leq(b, full)
    assert not hx.space.leq(a, b)


def test_hyperspace_names_stay_distinct():
    # the closed sets {a, b} and {"a,b"} both join to "{a,b}"
    names = ("a", "b", "a,b")
    hx = hy.build_hyperspace(sp.from_preorder(names, [(p, p) for p in names]))
    assert hx.space.points == (
        "{}", "{a}", "{b}", "{a,b}#3", "{a,b}#4", "{a,a,b}", "{b,a,b}", "{a,b,a,b}"
    )
    assert hx.members[3:5] == (0b011, 0b100)
    # names that do not collide are the joined names
    assert hy.build_hyperspace(sp.sierpinski()).space.points == ("{}", "{0}", "{0,1}")


def test_discrete_six_hyperspace_without_its_opens():
    # HX has 7,828,354 opens here; building it must not enumerate them
    start = time.monotonic()
    hx = hy.build_hyperspace(sp.discrete(6))
    elapsed = time.monotonic() - start
    assert len(hx.members) == 64
    m = hx.members
    assert all(
        hx.space.leq(i, j) == (m[i] & ~m[j] == 0)
        for i in range(64)
        for j in range(64)
    )
    assert elapsed < 1.0


def test_closed_set_rejects_non_closed():
    s = sp.sierpinski()
    with pytest.raises(NotClosedFamily):
        hy.ClosedSet(s, 1 << s.index("1"))  # {1} is open, not closed


def test_hit_and_sigma():
    s = sp.sierpinski()
    sigma1 = hy.unit_sigma(s, s.index("1"))
    assert sigma1.members == 3  # cl({1}) = {0,1}
    sigma0 = hy.unit_sigma(s, s.index("0"))
    assert sigma0.members == 1
    u = s.mask_of(["1"])
    assert hy.hit(sigma1, u)
    assert not hy.hit(sigma0, u)
    for x in (-1, 2):
        with pytest.raises(ShapeMismatch):
            hy.unit_sigma(s, x)


def test_sigma_preimage_of_hit_is_the_open():
    for space in (sp.sierpinski(), sp.discrete(3), sp.w_lattice(), sp.chain(4)):
        for u in space.opens:
            got = sum(
                1 << x
                for x in range(space.n)
                if hy.hit(hy.unit_sigma(space, x), u)
            )
            assert got == u


def test_sigma_embedding_iff_t0():
    # sigma reflects the specialization order, so it is an embedding
    # exactly when it is injective
    for space in (t for n in range(4) for t in all_topologies(n)):
        closures = {hy.unit_sigma(space, x).members for x in range(space.n)}
        assert (len(closures) == space.n) == sp.check_separation(space).is_T0
    assert sp.check_separation(sp.sierpinski()).is_T0
    assert not sp.check_separation(sp.indiscrete(2)).is_T0


def test_duality_round_trip_and_order():
    for space in (sp.sierpinski(), sp.discrete(2), sp.w_lattice()):
        closed = space.closed_sets()
        for c in closed:
            phi = hy.functional_of_closed(hy.ClosedSet(space, c))
            assert phi.closed.members == c
        for c in closed:
            for d in closed:
                phic = hy.functional_of_closed(hy.ClosedSet(space, c)).table
                phid = hy.functional_of_closed(hy.ClosedSet(space, d)).table
                assert (c & ~d == 0) == all(
                    x <= y for x, y in zip(phic, phid)
                )


def test_duality_brute_force_surjectivity():
    for space in (sp.sierpinski(), sp.discrete(2), sp.w_lattice(), sp.chain(4)):
        assert count_valid_functional_tables(space) == len(space.closed_sets())


def test_functional_validation():
    s = sp.sierpinski()
    with pytest.raises(NotAValidFunctional):
        hy.HitFunctional(s, (True, False, True))  # not strict at the empty set
    with pytest.raises(NotAValidFunctional):
        hy.HitFunctional(s, (False, True, False))  # not monotone under joins
    phi = hy.HitFunctional(s, [False, True, True])  # a list is stored as a tuple
    assert phi.table == (False, True, True)
    assert hash(phi) == hash(hy.functional_of_closed(hy.ClosedSet(s, s.full)))
    assert phi.value(s.mask_of(["1"])) and not phi.value(0)


def test_functional_of_closed_validates_without_a_scan_of_pairs():
    # 4,096 opens: a scan of every pair of opens takes about 2 s
    space = sp.discrete(12)
    c = hy.ClosedSet(space, 0b100000000101)
    assert len(space.opens) == 4096
    start = time.monotonic()
    phi = hy.functional_of_closed(c)
    assert time.monotonic() - start < 0.5
    assert phi.closed == c


def test_push_closed_takes_closure_of_image():
    d = sp.discrete(2)
    s = sp.sierpinski()
    f = sp.ContinuousMap(d, s, (s.index("1"), s.index("1")))
    pushed = hy.push_closed(f, hy.ClosedSet(d, 1))
    assert pushed.members == 3  # cl({1}) = {0,1}


def test_mult_union():
    s = sp.sierpinski()
    hx = hy.build_hyperspace(s)
    # family {emptyset, {0}} as a down-set of HX
    fam = (1 << hx.point_of(0)) | (1 << hx.point_of(1))
    assert hy.mult_union(hx, hy.ClosedSet(hx.space, fam)).members == 1
    with pytest.raises(NotClosedFamily):
        hy.mult_union(hx, 1 << hx.point_of(3))  # not down-closed
    # an int family with bits outside HX's three points
    for family in (8, -1, 1 << len(hx.members)):
        with pytest.raises(ShapeMismatch):
            hy.mult_union(hx, family)
    assert hx.closed_of(2).members == hx.members[2]
    for idx in (-1, 3):
        with pytest.raises(ShapeMismatch):
            hx.closed_of(idx)


def _down_closed_under_inclusion(hx, mask):
    """Every member below a member of the family is in the family."""
    return all(
        mask >> j & 1
        for i in sp.bits(mask)
        for j, m in enumerate(hx.members)
        if m & ~hx.members[i] == 0
    )


def test_mult_union_accepts_exactly_the_inclusion_down_sets():
    # every int family on every topology with at most 3 points
    accepted = 0
    for space in (t for n in range(4) for t in all_topologies(n)):
        hx = hy.build_hyperspace(space)
        for mask in range(1 << len(hx.members)):
            try:
                hy.mult_union(hx, mask)
            except NotClosedFamily:
                assert not _down_closed_under_inclusion(hx, mask)
            else:
                assert _down_closed_under_inclusion(hx, mask)
                accepted += 1
    assert accepted > 0


def test_unit_laws_exhaustive_small():
    for space in (sp.sierpinski(), sp.discrete(2), sp.w_lattice(), sp.chain(3)):
        hx = hy.build_hyperspace(space)
        for i in range(len(hx.members)):
            assert left_unit(H, hx, hx.closed_of(i))
            assert right_unit(H, hx, hx.closed_of(i))


def test_associativity_exhaustive_two_points():
    for space in (sp.sierpinski(), sp.discrete(2), sp.indiscrete(2)):
        hx = hy.build_hyperspace(space)
        hhx = hy.inclusion_downsets(hx.members)
        for xi in hy.inclusion_downsets(hhx):
            assert associativity(H, hx, *h_tower(hx, hhx, xi), {})


def test_unit_closure_membership():
    s = sp.sierpinski()
    assert hy.unit_closure_membership(s, hy.unit_sigma(s, 0))
    assert hy.unit_closure_membership(s, hy.unit_sigma(s, 1))
    d = sp.discrete(2)
    # the full closed set of a discrete pair is not a point closure
    assert not hy.unit_closure_membership(d, hy.ClosedSet(d, 3))


def test_strength_and_costrength():
    s = sp.sierpinski()
    d = sp.discrete(2)
    prod = sp.product(s, d)
    c = hy.ClosedSet(d, 1)
    got = hy.strength_H(prod, s.index("1"), c)
    # closure of {1} x {d0} = {0,1} x {d0}
    want = prod.space.closure(1 << prod.pair(s.index("1"), 0))
    assert got.members == want
    co = hy.costrength_H(sp.product(d, s), hy.ClosedSet(d, 1), s.index("0"))
    assert co.members == 1 << sp.product(d, s).pair(0, s.index("0"))
    # a point outside the factor is a shape error, not a silent result
    with pytest.raises(ShapeMismatch):
        hy.strength_H(prod, 2, c)
    with pytest.raises(ShapeMismatch):
        hy.costrength_H(sp.product(d, s), hy.ClosedSet(d, 1), -1)


def test_product_closed_and_marginals():
    s = sp.sierpinski()
    prod = sp.product(s, s)
    c = hy.ClosedSet(s, 1)
    d = hy.ClosedSet(s, 3)
    pc = hy.product_closed(prod, c, d)
    assert commutativity(H, prod, c, d, pc)
    assert hy.marginals(prod, pc) == (c, d)


def test_h_algebra_w_lattice():
    w = sp.w_lattice()
    hw, joins = hy.build_hyperspace(w), hy.join_algebra_map(w)
    assert h_algebra(w, hw, joins)
    assert join_characterization(w, hw, joins)
    assert sp.check_separation(w).is_sober
    assert join_continuity(w, hw, joins) == (True, True)


def test_h_algebra_discrete_pair_has_none():
    d = sp.discrete(2)
    assert hy.join_algebra_map(d) is None
    hx = hy.build_hyperspace(d)
    for table in [(0, 0, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0)]:
        assert not h_algebra(d, hx, table)
        assert not join_characterization(d, hx, table)


def test_h_algebra_shape_mismatch():
    s = sp.sierpinski()
    hs = hy.build_hyperspace(s)
    for law in (h_algebra, join_characterization):
        with pytest.raises(ShapeMismatch):
            law(s, hs, (0,))
        # an entry that is not a point of the algebra
        with pytest.raises(ShapeMismatch):
            law(s, hs, (-1, 0, 1))
        # a hyperspace of another space
        with pytest.raises(ShapeMismatch):
            law(s, hy.build_hyperspace(sp.chain(3)), (0, 0, 1))
