"""Finite spaces as preorders: construction, maps, products, separation."""

import pytest

from topmonads import spaces as sp
from topmonads.lawcheck import all_topologies, rectangle_topology
from topmonads.errors import (
    NotAPreorder,
    NotATopology,
    NotOpen,
    ShapeMismatch,
)


def test_sierpinski_structure():
    s = sp.sierpinski()
    assert s.points == ("0", "1")
    assert s.opens == (0, 2, 3)  # {}, {1}, {0,1}
    assert s.leq(s.index("0"), s.index("1"))
    assert not s.leq(s.index("1"), s.index("0"))
    assert s.closure(1 << s.index("1")) == 3
    assert s.closed_sets() == [0, 1, 3]
    assert [m for m in range(4) if s.is_open(m)] == [0, 2, 3]
    # a mask reaching past the points is not open
    assert not s.is_open(1 << s.n)
    with pytest.raises(NotOpen):
        s.require_open(1 << s.n)
    assert not s.is_closed(s.full | 1 << s.n)


def test_from_opens_rejects_bad_families():
    with pytest.raises(NotATopology):
        sp.from_opens(("a", "b"), [0, 1, 2])  # full set missing
    with pytest.raises(NotATopology):
        sp.from_opens(("a", "b"), [3])  # empty set missing
    with pytest.raises(NotATopology):
        sp.from_opens(("a", "b", "c"), [0, 1, 2, 7])  # not union-closed
    # 40 singletons generate 2**40 opens; the witness is found without them
    names = tuple(f"p{i}" for i in range(40))
    with pytest.raises(NotATopology):
        sp.from_opens(names, [0, (1 << 40) - 1] + [1 << i for i in range(40)])


def test_from_opens_round_trips_a_large_family():
    p = sp.product(sp.discrete(3), sp.discrete(3)).space
    assert len(p.opens) == 512
    assert sp.from_opens(p.points, p.opens) == p


def test_from_preorder_requires_reflexivity_and_transitivity():
    with pytest.raises(NotAPreorder):
        sp.from_preorder(("a", "b"), [("a", "a"), ("a", "b")])
    with pytest.raises(NotAPreorder):
        sp.from_preorder(
            ("a", "b", "c"),
            [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")],
        )


def test_preorder_round_trip():
    for space in (sp.sierpinski(), sp.discrete(3), sp.chain(4), sp.w_lattice()):
        rebuilt = sp.from_preorder(space.points, space.specialization())
        assert rebuilt == space


def test_continuous_map_validation():
    s = sp.sierpinski()
    d = sp.discrete(2)
    # collapsing the discrete pair anywhere is continuous
    sp.ContinuousMap(d, s, (0, 0))
    # 0 -> 1, 1 -> 0 reverses the order, hence discontinuous into Sierpinski
    with pytest.raises(NotATopology):
        sp.ContinuousMap(s, s, (s.index("1"), s.index("0")))
    # on the diamond, sending x to the open point and the top t to the
    # closed point breaks x <= t
    w = sp.w_lattice()
    sp.ContinuousMap(w, s, (0, 0, 0, 1))
    with pytest.raises(NotATopology):
        sp.ContinuousMap(w, s, (0, 1, 0, 0))
    # an entry that is not a target point is a shape error, not a
    # continuity failure
    for bad in ((0, 99), (-1, 0)):
        with pytest.raises(ShapeMismatch):
            sp.ContinuousMap(s, s, bad)


def test_compose_and_identity():
    s = sp.sierpinski()
    f = sp.identity_map(s)
    assert sp.compose(f, f).assignment == f.assignment
    with pytest.raises(ShapeMismatch):
        sp.compose(f, sp.identity_map(sp.discrete(2)))


def test_closure_is_the_down_set_scan_on_every_small_topology():
    checked = 0
    for n in range(5):
        for space in all_topologies(n):
            for m in range(1 << n):
                scan = sum(1 << x for x in range(n) if space.min_nbhd[x] & m)
                assert space.closure(m) == scan
                checked += 1
    assert checked == 1 + 2 + 4 * 4 + 29 * 8 + 355 * 16
    with pytest.raises(ShapeMismatch):
        sp.sierpinski().closure(4)
    with pytest.raises(ShapeMismatch):
        sp.sierpinski().closure(-1)


def test_product_is_componentwise_order():
    s = sp.sierpinski()
    prod = sp.product(s, s)
    assert prod.space.n == 4
    assert set(prod.space.opens) == rectangle_topology(prod)
    p = prod.pair(0, 1)
    assert prod.split(p) == (0, 1)
    assert prod.space.leq(prod.pair(0, 0), prod.pair(1, 1))
    assert not prod.space.leq(prod.pair(1, 0), prod.pair(0, 1))
    # the sections y -> (x, y) and x -> (x, y)
    assert prod.at_left(1).assignment == (prod.pair(1, 0), prod.pair(1, 1))
    assert prod.at_right(0).assignment == (prod.pair(0, 0), prod.pair(1, 0))
    with pytest.raises(ShapeMismatch):
        prod.at_left(2)
    with pytest.raises(ShapeMismatch):
        prod.at_right(-1)
    for i, j in ((0, 2), (0, -1), (2, 0), (-1, 0)):
        with pytest.raises(ShapeMismatch):
            prod.pair(i, j)


def test_separation_flags():
    assert sp.check_separation(sp.sierpinski()).is_T0
    assert not sp.check_separation(sp.sierpinski()).is_T1
    assert sp.check_separation(sp.sierpinski()).is_sober
    report = sp.check_separation(sp.discrete(2))
    assert report.is_T0 and report.is_T1 and report.is_sober
    report = sp.check_separation(sp.indiscrete(2))
    assert not report.is_T0
    assert sp.check_separation(sp.w_lattice()).is_sober


def test_kolmogorov_quotient():
    quotient, qmap = sp.kolmogorov_quotient(sp.indiscrete(3))
    assert quotient.n == 1
    assert sp.check_separation(quotient).is_T0
    assert sp.is_equivalence(qmap)[0]
    # a T0 space quotients to itself
    quotient, qmap = sp.kolmogorov_quotient(sp.chain(3))
    assert quotient.n == 3


def test_le_2cell():
    s = sp.sierpinski()
    bottom = sp.constant_map(s, s, s.index("0"))
    top = sp.constant_map(s, s, s.index("1"))
    assert sp.le_2cell(bottom, top)
    assert not sp.le_2cell(top, bottom)
    assert sp.le_2cell(bottom, sp.identity_map(s))


def test_is_equivalence():
    s = sp.sierpinski()
    ok, inverse = sp.is_equivalence(sp.identity_map(s))
    assert ok and inverse.assignment == (0, 1)
    assert not sp.is_equivalence(sp.constant_map(s, s, 0))[0]


def test_way_below_is_inclusion():
    s = sp.w_lattice()
    for u in s.opens:
        for v in s.opens:
            assert sp.way_below(s, u, v) == (u & ~v == 0)


def test_subspace():
    w = sp.w_lattice()
    mask = w.mask_of(["0", "x", "t"])
    sub, incl = sp.subspace(w, mask)
    assert sub.n == 3
    with pytest.raises(ShapeMismatch):
        sp.subspace(w, 1 << w.n)
    assert incl.target is w
    # the inclusion preimage of an open is the trace on the subspace
    for u in w.opens:
        assert incl.preimage(u) == sum(
            1 << i for i, x in enumerate(incl.assignment) if u >> x & 1
        )


def test_w_lattice_is_a_diamond():
    w = sp.w_lattice()
    bottom, x, y, top = (w.index(p) for p in ("0", "x", "y", "t"))
    assert w.leq(bottom, x) and w.leq(bottom, y)
    assert w.leq(x, top) and w.leq(y, top)
    assert not w.leq(x, y) and not w.leq(y, x)


def test_alexandrov_identity_enforced():
    # union-closed but not intersection-closed: {a,b} & {b,c} = {b} missing
    with pytest.raises(NotATopology, match=r"\{b\}"):
        sp.from_opens(("a", "b", "c"), [0, 3, 6, 7])


def test_empty_and_one_point():
    e = sp.empty_space()
    assert e.n == 0 and e.opens == (0,)
    o = sp.one_point()
    assert o.opens == (0, 1)
