"""The order kernels against their pairwise forms.

Each reference below is the pairwise form of a kernel that walks a space's
strict specialization pairs or the transposed inclusion order: the m ** 2
subset tests of the inclusion order, the per-point continuity loop, the
per-point lower semicontinuity loop and the per-open kernel loop.  They are
run on every topology with at most 4 points and on random preorders of up
to 8 points, with passing and failing maps, functions and kernels; masks,
verdicts, exception types, messages and the causes of NotAKernel must
agree.

The forms that read the specialization order through `leq` or through
name pairs and `from_preorder` are kept here too, for the functions that
now read the up-masks: `specialization`, `le_2cell`, `is_equivalence`,
`kolmogorov_quotient` and `all_topologies`.  They are run on every
topology with at most 4 points, its identity map, its Kolmogorov quotient
map and a few random continuous maps.
"""

import itertools
import random

from topmonads import hyperspace as hy
from topmonads import spaces as sp
from topmonads import valuations as va
from topmonads.errors import NotAKernel, NotATopology, NotLowerSemicontinuous
from topmonads.extrat import INF, ONE, ZERO, ext
from topmonads.lawcheck import all_topologies

SMALL = [t for n in range(5) for t in all_topologies(n)]
POOL = [ZERO, ext("1/2"), ONE, ext(2), INF]


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


# --- the pairwise forms -----------------------------------------------------


def inclusion_up_masks_pairwise(member_masks):
    n = len(member_masks)
    return [
        sum(1 << j for j in range(n) if member_masks[i] & ~member_masks[j] == 0)
        for i in range(n)
    ]


def continuity_per_point(source, target, assignment):
    """None, or the NotATopology of the first point whose neighbourhood is
    not mapped into that of its image, naming the least point outside."""
    for x, fx in enumerate(assignment):
        image = 0
        for y in sp.bits(source.min_nbhd[x]):
            image |= 1 << assignment[y]
        outside = image & ~target.min_nbhd[fx]
        if outside:
            y = next(sp.bits(outside))
            return NotATopology(
                f"not continuous: {source.points[x]} lies below a point"
                f" mapped to {target.points[y]}, which is not above"
                f" {target.points[fx]}"
            )
    return None


def lsc_per_point(space, values):
    for x, up in enumerate(space.min_nbhd):
        for y in sp.bits(up):
            if not values[x] <= values[y]:
                return NotLowerSemicontinuous("values are not monotone for specialization")
    return None


def kernel_per_open(source, target, rows):
    for u in target.opens:
        if lsc_per_point(source, [nu.value(u) for nu in rows]) is not None:
            error = NotAKernel(
                f"x -> k(x)({target.mask_names(u)}) is not lower semicontinuous"
            )
            error.__cause__ = NotLowerSemicontinuous("")
            return error
    return None


def specialization_by_leq(space):
    return {
        (space.points[x], space.points[y])
        for x in range(space.n)
        for y in range(space.n)
        if space.leq(x, y)
    }


def le_2cell_by_leq(f, g):
    return all(f.target.leq(f.assignment[x], g.assignment[x]) for x in range(f.source.n))


def is_equivalence_by_leq(f):
    src, tgt = f.source, f.target
    if not all(
        src.leq(x, y) == tgt.leq(f.assignment[x], f.assignment[y])
        for x in range(src.n)
        for y in range(src.n)
    ):
        return False, None
    found = [
        [x for x, fx in enumerate(f.assignment) if tgt.classes[y] >> fx & 1]
        for y in range(tgt.n)
    ]
    if not all(found):
        return False, None
    return True, sp.ContinuousMap(tgt, src, tuple(xs[0] for xs in found))


def kolmogorov_quotient_by_preorder(space):
    classes = list(dict.fromkeys(space.classes))
    class_of = tuple(classes.index(c) for c in space.classes)
    names = sp.distinct_names("|".join(space.mask_names(c)) for c in classes)
    rel = {
        (names[class_of[x]], names[class_of[y]])
        for x in range(space.n)
        for y in sp.bits(space.min_nbhd[x])
    }
    quotient = sp.from_preorder(names, rel)
    return quotient, sp.ContinuousMap(space, quotient, class_of)


def all_topologies_by_pairs(n):
    names = tuple("abcdef"[i] for i in range(n))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for selector in range(1 << len(pairs)):
        rel = {(i, i) for i in range(n)}
        for k in sp.bits(selector):
            rel.add(pairs[k])
        if all((a, d) in rel for a, b in rel for c, d in rel if b == c):
            out.append(sp.from_preorder(names, [(names[a], names[b]) for a, b in rel]))
    return out


def outcome(build):
    """What a constructor does: ("ok", result) or the exception's type,
    message and the type of its cause."""
    try:
        return "ok", build()
    except (NotATopology, NotLowerSemicontinuous, NotAKernel) as exc:
        return type(exc), str(exc), type(exc.__cause__)


def expected(error, result):
    if error is None:
        return "ok", result
    return type(error), str(error), type(error.__cause__)


# --- the kernels ------------------------------------------------------------


def test_order_pairs_are_the_strict_specialization_pairs():
    for space in SMALL + LARGE:
        want = [
            (x, y) for x in range(space.n) for y in range(space.n) if x != y and space.leq(x, y)
        ]
        assert list(space.order_pairs) == want


def test_inclusion_order_matches_the_subset_tests():
    families = [list(space.opens) for space in SMALL + LARGE]
    families += [space.closed_sets() for space in SMALL + LARGE]
    families += [[], [0], [5, 0, 5, 3], [1 << 9, 0, 7]]  # repeats, gaps above
    for family in families:
        assert hy.inclusion_up_masks(family) == inclusion_up_masks_pairwise(family)
    for space in SMALL:  # the down-set families of HHX
        members = hy.build_hyperspace(space).members
        hhx = hy.inclusion_downsets(members)
        assert hy.inclusion_up_masks(hhx) == inclusion_up_masks_pairwise(hhx)


def _maps(rng, source, target):
    """Assignments from source to target: constant, monotone into a chain
    and random ones, so both verdicts occur."""
    if target.n == 0:
        return [()] if source.n == 0 else []
    out = [(0,) * source.n, tuple(rng.randrange(target.n) for _ in range(source.n))]
    if source.n <= 3:
        out += list(itertools.product(range(target.n), repeat=source.n))
    out += [tuple(rng.randrange(target.n) for _ in range(source.n)) for _ in range(4)]
    return out


def test_continuity_matches_the_per_point_loop():
    rng = random.Random(5)
    verdicts = set()
    pairs = [(s, t) for s in SMALL[::3] for t in (SMALL[5], SMALL[-1], sp.chain(3))]
    pairs += [(s, t) for s in LARGE for t in (sp.chain(s.n), rng.choice(LARGE))]
    for source, target in pairs:
        assignments = _maps(rng, source, target)
        if target.n:  # monotone by construction: up-set sizes fall along the order
            assignments.append(
                tuple(min(target.n - 1, source.n - sp.popcount(u)) for u in source.min_nbhd)
            )
        for a in assignments:
            got = outcome(lambda: sp.ContinuousMap(source, target, a).assignment)
            assert got == expected(continuity_per_point(source, target, a), a)
            verdicts.add(got[0])
    assert verdicts == {"ok", NotATopology}


def _lsc_values(rng, space):
    raw = [rng.choice(POOL) for _ in range(space.n)]
    monotone = [min(raw[y] for y in sp.bits(u)) for u in space.min_nbhd]
    return [raw, monotone, [ONE] * space.n]


def test_lower_semicontinuity_matches_the_per_point_loop():
    rng = random.Random(6)
    verdicts = set()
    for space in SMALL + LARGE:
        for values in _lsc_values(rng, space) + _lsc_values(rng, space):
            got = outcome(lambda: va.LowerSemiFn(space, values).values)
            assert got == expected(lsc_per_point(space, values), tuple(values))
            verdicts.add(got[0])
    assert verdicts == {"ok", NotLowerSemicontinuous}


def _kernel_rows(rng, source, target):
    """Random rows, and rows k(x) = the sum over z <= x of c_z at g(z),
    which grow along the order of the source."""
    weights = lambda: [rng.choice(POOL) for _ in range(target.n)]
    random_rows = [va.Valuation(target, weights()) for _ in range(source.n)]
    if target.n == 0:
        return [random_rows]
    g = [rng.randrange(target.n) for _ in range(source.n)]
    c = [rng.choice(POOL) for _ in range(source.n)]
    grown = []
    for x in range(source.n):
        w = [ZERO] * target.n
        for z in range(source.n):
            if source.leq(z, x):
                w[g[z]] += c[z]
        grown.append(va.Valuation(target, w))
    return [random_rows, grown]


def test_kernel_check_matches_the_per_open_loop():
    rng = random.Random(7)
    verdicts = set()
    targets = [sp.sierpinski(), sp.w_lattice(), sp.indiscrete(2), sp.discrete(2)]
    pairs = [(s, t) for s in SMALL[::4] for t in targets]
    pairs += [(s, t) for s in LARGE[::2] for t in targets[:2]]
    for source, target in pairs:
        for rows in _kernel_rows(rng, source, target) + _kernel_rows(rng, source, target):
            got = outcome(lambda: va.Kernel(source, target, tuple(rows)).table)
            assert got == expected(kernel_per_open(source, target, rows), tuple(rows))
            verdicts.add(got[0])
    assert verdicts == {"ok", NotAKernel}


def test_a_discrete_source_enumerates_no_target_opens():
    target = sp.discrete(12)
    k = va.delta_kernel(target)
    assert "opens" not in target.__dict__
    assert all("table" not in nu.__dict__ for nu in k.table)


def test_products_and_rectangles_match_the_pairwise_forms():
    spaces = SMALL[::7] + LARGE[:12:3]
    for a, b in itertools.product(spaces, repeat=2):
        prod = sp.product(a, b)
        m = b.n
        assert prod.space.min_nbhd == tuple(
            sum(1 << k * m + l for k in sp.bits(a.min_nbhd[i]) for l in sp.bits(b.min_nbhd[j]))
            for i in range(a.n)
            for j in range(b.n)
        )
        for u, v in itertools.product(a.opens[:6], b.opens[:6]):
            assert prod.rectangle(u, v) == sum(
                1 << prod.pair(i, j) for i in sp.bits(u) for j in sp.bits(v)
            )


def _continuous_maps(rng, source, target):
    """Up to six continuous maps from source to target, drawn by _maps."""
    maps = []
    for a in _maps(rng, source, target):
        try:
            maps.append(sp.ContinuousMap(source, target, a))
        except NotATopology:
            continue
    return rng.sample(maps, min(6, len(maps)))


def test_all_topologies_match_the_pair_set_form():
    for n in range(5):
        assert all_topologies(n) == all_topologies_by_pairs(n)


def test_order_readers_match_their_leq_forms():
    rng = random.Random(8)
    verdicts, orders = set(), set()
    for space in SMALL:
        assert space.specialization() == specialization_by_leq(space)
        quotient, qmap = sp.kolmogorov_quotient(space)
        assert (quotient, qmap) == kolmogorov_quotient_by_preorder(space)
        target = rng.choice(SMALL)
        families = [
            [sp.identity_map(space), *_continuous_maps(rng, space, space)],
            [qmap, *_continuous_maps(rng, space, quotient)],
            _continuous_maps(rng, space, target),
        ]
        for maps in families:
            for f in maps:
                got = sp.is_equivalence(f)
                assert got == is_equivalence_by_leq(f)
                verdicts.add(got[0])
            for f, g in itertools.product(maps, repeat=2):
                got = sp.le_2cell(f, g)
                assert got == le_2cell_by_leq(f, g)
                orders.add(got)
    assert verdicts == orders == {True, False}
