"""from_opens against its intersection route.

The reference reads the preorder off a family by intersecting, for each
point, every member that holds it, and accepts the family when no up-set
of that preorder is missing from it, naming the least missing one
otherwise.  from_opens guesses the preorder in one pass over the members
and computes the intersections only for a family it rejects.  On every
topology with at most 4 points, on each of them with a member removed, a
random mask added, a negative member or a bit outside the points, and on
random families of up to 6 points, both must give the same points,
preorder and opens, or the same exception type and message.
"""

import random

from topmonads import spaces as sp
from topmonads.errors import NotATopology
from topmonads.lawcheck import all_topologies

SMALL = [t for n in range(5) for t in all_topologies(n)]


def reference(points, opens):
    points = tuple(points)
    if len(set(points)) != len(points):
        raise NotATopology("duplicate point names")
    n = len(points)
    full = (1 << n) - 1
    family = set(opens)
    for u in sorted(family):
        if u & ~full:
            raise NotATopology(f"open {u:b} has bits outside the point set")
    space = sp.FiniteSpace(points, sp._min_nbhds(n, family))
    upsets = sp.upsets_of_up_masks(n, space.min_nbhd, limit=len(family))
    missing = [u for u in upsets if u not in family]
    if missing:
        names = ",".join(space.mask_names(min(missing)))
        raise NotATopology(
            f"not a topology: {{{names}}} is a union of intersections of"
            " members but not a member"
        )
    space.__dict__["opens"] = tuple(upsets)
    return space


def outcome(build, points, family):
    try:
        space = build(points, family)
    except NotATopology as exc:
        return type(exc), str(exc)
    return space.points, space.min_nbhd, space.opens


def agree(points, family) -> bool:
    """Whether both routes agree on the family; True when it is accepted."""
    want = outcome(reference, points, family)
    assert outcome(sp.from_opens, points, family) == want, (points, family)
    return want[0] is not NotATopology


def families_near(space, rng):
    """The space's opens with each member removed, a random mask added, a
    negative member and a bit outside the points."""
    opens = list(space.opens)
    for i in range(len(opens)):
        yield opens[:i] + opens[i + 1 :]
    yield opens + [rng.randrange(1 << space.n)]
    yield opens + [-1 - rng.randrange(1 << space.n)]
    yield opens + [1 << space.n | rng.randrange(1 << space.n)]


def test_every_small_topology_and_its_neighbours():
    rng = random.Random(2021)
    for space in SMALL:
        assert agree(space.points, space.opens)
        for family in families_near(space, rng):
            agree(space.points, family)


def _close(up, i):
    """The points reachable from i through up, i included."""
    seen, todo = 0, 1 << i
    while todo:
        low = todo & -todo
        seen |= low
        todo = (todo | up[low.bit_length() - 1]) & ~seen
    return seen


def test_random_families():
    rng = random.Random(7)
    accepted = rejected = 0
    for _ in range(3000):
        n = rng.randint(0, 6)
        points = tuple(f"p{i}" for i in range(n))
        if rng.random() < 0.5:
            # a random preorder's opens, sometimes broken
            up = [rng.getrandbits(n) if rng.random() < 0.3 else 0 for _ in range(n)]
            family = sp.upsets_of_up_masks(n, [_close(up, i) for i in range(n)])
            if rng.random() < 0.5:
                family = [u for u in family if rng.random() < 0.9]
        else:
            family = [rng.randrange(1 << n) for _ in range(rng.randint(0, 12))]
            family += [0, (1 << n) - 1][: rng.randint(0, 2)]
        if agree(points, family):
            accepted += 1
        else:
            rejected += 1
    # both verdicts are exercised
    assert accepted > 500 and rejected > 500


def test_duplicate_names_and_the_empty_space():
    for points, family in [
        (("a", "a"), [0, 3]),
        ((), [0]),
        ((), []),
        (("a",), [1]),
        (("a", "b"), []),
    ]:
        agree(points, family)
