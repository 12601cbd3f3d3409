"""Finite spaces as preorders: construction, maps, products, separation."""

import pytest

from topmonads import cli
from topmonads import probability as pb
from topmonads import spaces as sp
from topmonads import valuations as va
from topmonads.lawcheck import all_topologies, rectangle_topology
from topmonads.errors import (
    NotAPreorder,
    NotATopology,
    NotOpen,
    ShapeMismatch,
)
from topmonads.extrat import ONE, ext


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


def test_from_opens_keeps_the_up_sets_it_enumerated():
    """The opens of a space read from its family are a fresh enumeration
    of the up-sets, whatever the order and repetition of the family."""
    spaces = [s for n in range(5) for s in all_topologies(n)]
    spaces.append(sp.product(sp.discrete(3), sp.discrete(3)).space)
    for space in spaces:
        family = list(reversed(space.opens)) + [0]
        built = sp.from_opens(space.points, family)
        assert "opens" in built.__dict__  # kept, not enumerated on first read
        fresh = tuple(sp.upsets_of_up_masks(built.n, built.min_nbhd))
        assert built.opens == fresh == space.opens


def test_from_preorder_requires_reflexivity_and_transitivity():
    with pytest.raises(NotAPreorder):
        sp.from_preorder(("a", "b"), [("a", "a"), ("a", "b")])
    with pytest.raises(NotAPreorder):
        sp.from_preorder(
            ("a", "b", "c"),
            [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")],
        )


def test_from_preorder_names_the_least_transitivity_witness():
    # a < b and b < c, b < d are given, a < c and a < d are missing; the
    # witness is the least point with a gap, then the least missing point
    names = ("a", "b", "c", "d")
    rel = [(p, p) for p in names] + [("a", "b"), ("b", "c"), ("b", "d"), ("c", "d")]
    for order in (rel, rel[::-1], sorted(rel, key=lambda pair: pair[::-1])):
        with pytest.raises(NotAPreorder) as info:
            sp.from_preorder(names, order)
        assert (info.value.reason, info.value.witness) == ("not transitive", ("a", "c"))


def test_from_preorder_agrees_with_the_pairwise_scan():
    # every relation on at most 3 points: accepted exactly when reflexive
    # and closed under composition of pairs
    for n in range(4):
        names = tuple("abc"[:n])
        pairs = [(i, j) for i in range(n) for j in range(n)]
        for selector in range(1 << len(pairs)):
            rel = {pairs[k] for k in sp.bits(selector)}
            valid = all((i, i) in rel for i in range(n)) and all(
                (a, d) in rel for a, b in rel for c, d in rel if b == c
            )
            named = [(names[a], names[b]) for a, b in rel]
            if valid:
                space = sp.from_preorder(names, named)
                order = {(a, b) for a in range(n) for b in range(n) if space.leq(a, b)}
                assert order == rel
            else:
                with pytest.raises(NotAPreorder):
                    sp.from_preorder(names, named)


def test_chain_of_64_points():
    c = sp.chain(64)
    assert c.n == 64 and c.full == (1 << 64) - 1
    assert c.min_nbhd == tuple(c.full & ~((1 << i) - 1) for i in range(64))
    assert len(c.opens) == 65
    assert c.closure(1 << 63) == c.full


def test_mask_kernels_agree_with_bit_scans():
    for mask in [*range(1 << 10), (1 << 64) - 1, 1 << 100 | 5]:
        scan = [i for i in range(mask.bit_length()) if mask >> i & 1]
        assert list(sp.bits(mask)) == scan
    for n in range(4):
        for space in all_topologies(n):
            for mask in range(1 << n + 1):
                upset = mask <= space.full and all(
                    space.min_nbhd[x] & ~mask == 0 for x in range(n) if mask >> x & 1
                )
                assert space.is_open(mask) == upset


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


# --- derived point names ---------------------------------------------------


def test_distinct_names_rename_only_what_collides():
    assert sp.distinct_names(["a", "b", "(a,b)"]) == ("a", "b", "(a,b)")
    assert sp.distinct_names(["a", "b", "a"]) == ("a#0", "b", "a#2")
    # a renamed point may meet a name that was unique: a second round
    assert sp.distinct_names(["a", "a", "a#1"]) == ("a#0", "a#1#1", "a#1#2")


def test_product_names_stay_distinct():
    a = sp.from_preorder(("p", "p,q"), [("p", "p"), ("p,q", "p,q")])
    b = sp.from_preorder(("q,r", "r"), [("q,r", "q,r"), ("r", "r")])
    prod = sp.product(a, b)
    # (p)x(q,r) and (p,q)x(r) both join to "(p,q,r)"
    assert prod.space.points == ("(p,q,r)#0", "(p,r)", "(p,q,q,r)", "(p,q,r)#3")
    assert cli.parse_space(cli.space_document(prod.space)) == prod.space
    # names that do not collide are the joined names
    s = sp.sierpinski()
    assert sp.product(s, s).space.points == ("(0,0)", "(0,1)", "(1,0)", "(1,1)")


def test_kolmogorov_quotient_names_stay_distinct():
    # the class {a, b} and the point "a|b" both join to "a|b"
    names = ("a", "b", "a|b")
    space = sp.from_preorder(names, [(p, p) for p in names] + [("a", "b"), ("b", "a")])
    quotient, qmap = sp.kolmogorov_quotient(space)
    assert quotient.points == ("a|b#0", "a|b#1")
    assert qmap.assignment == (0, 0, 1)
    nu = va.valuation_from_weights(space, (ONE, ONE, ONE))
    m = pb.extend_to_measure(nu)
    assert m.space == quotient and m.point_weights == (ext(2), ONE)
