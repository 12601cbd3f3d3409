"""Seeded generators, law suites, counterexample shrinking, and mutation
sensitivity checks.

Every suite draws its instances from deterministic streams seeded by a
GenConfig, so identical configurations replay identical checks.  Two rules
keep a run that ends early (mutation_detected) cheap:

  - streams are drawn lazily: _spaces and _space_pairs are iterators, so a
    run builds a space only when it checks one;
  - fixed witnesses come before random instances: a suite checks the
    canned cases that draw nothing from an RNG first, ahead of its loops
    over the streams.

Each mutation is caught before its suites draw a random space: by a
canned witness (push-closed-no-closure and closure-up-set in h-monad,
inclusion-exclusion-all-plus in v-duality) or by a check on the canned
corpus that every stream starts with.  So what a detection costs does not
depend on the seed.

The library computes each operation by one route.  Second routes, such as
hit identities, integral forms, the layer-cake integral, the
inclusion-exclusion product, both composites of the commutativity squares
of H and V built from strength and multiplication, the pairwise validity
scan of a table, the scan for the least closed set of full measure, the
rectangle-generated product topology, the pairwise closure scan of an open
family, the sobriety scan, continuity by preimages and equivalence by
preimage lattices, live here as oracles, each compared in a named law of
the suite that owns the operation.

The mutation harness re-runs selected suites with one semantic bug patched in
(see MUTATIONS) and asserts that at least one suite notices.
mutation_detected ends at the first failing check, with no report;
run_with_mutation runs the same suites to the end and gives the full
reports, with replay lines and shrunk counterexamples.  The ten mutations
are:

  1. push-closed-no-closure      image of a closed set not closed over
  2. sigma-no-closure            unit returns the bare singleton
  3. mult-union-intersection     union map intersects instead
  4. sgn-not-strict              sign test returns true on zero
  5. integrate-strict-levels     layer-cake uses strict level sets
  6. mult-E-ignores-weights      second-order multiplication drops weights
  7. inclusion-exclusion-all-plus  weights read off a table add, not subtract
  8. support-null-union          support returns the null set, not its complement
  9. closure-up-set              closure computes the up-set
 10. moebius-no-inversion        measure extension weighs a point by its
                                 neighborhood's mass
"""

from __future__ import annotations

import contextlib
import itertools
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from . import hyperspace as hy
from . import probability as pb
from . import spaces as sp
from . import support as su
from . import valuations as va
from .errors import (
    InfiniteMass,
    InfinityIndeterminate,
    NotAFailure,
    NotATopology,
    NotLowerSemicontinuous,
    NotModular,
    NotMonotone,
    NotStrict,
    ShapeMismatch,
    UnknownSuite,
)
from .extrat import ExtRat, INF, ONE, ZERO, ext, sgn


@dataclass(frozen=True)
class GenConfig:
    seed: int = 42
    max_points: int = 4
    instance_count: int = 60
    weight_denominator_bound: int = 16
    allow_infinity: bool = True


@dataclass(frozen=True)
class Failure:
    index: int
    message: str
    replay: str
    counterexample: "Counterexample | None" = None


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    instances: int
    failures: tuple[Failure, ...]
    wall_time: float

    @property
    def ok(self) -> bool:
        return not self.failures


# --- generators ---------------------------------------------------------------


def _corpus(max_points):
    out = [
        sp.empty_space(),
        sp.one_point(),
        sp.sierpinski(),
        sp.discrete(2),
        sp.indiscrete(2),
        sp.w_lattice(),
        sp.chain(3),
        sp.chain(4),
    ]
    return [s for s in out if s.n <= max_points]


def _random_space(rng: random.Random, max_points: int) -> sp.FiniteSpace:
    """A random preorder: reachability closure of a random edge set.

    Cycles collapse to equivalence classes, so non-T0 spaces occur too.
    """
    n = rng.randint(0, max_points)
    rel = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.3:
                rel[i][j] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if rel[i][k] and rel[k][j]:
                    rel[i][j] = True
    names = tuple(f"p{i}" for i in range(n))
    up_masks = [
        sum(1 << j for j in range(n) if rel[i][j]) for i in range(n)
    ]
    return sp.FiniteSpace(names, tuple(up_masks))


def generate_space(cfg: GenConfig):
    """Deterministic stream: the canned corpus, then random preorders."""
    yield from _corpus(cfg.max_points)
    rng = random.Random(cfg.seed)
    while True:
        yield _random_space(rng, cfg.max_points)


def all_topologies(n: int) -> list[sp.FiniteSpace]:
    """All labeled topologies on n points (as preorders); 29 for n = 3."""
    names = tuple("abcdef"[i] for i in range(n))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for selector in range(1 << len(pairs)):
        rel = {(i, i) for i in range(n)}
        for k in sp.bits(selector):
            rel.add(pairs[k])
        if all(
            (a, d) in rel for a, b in rel for c, d in rel if b == c
        ):
            out.append(
                sp.from_preorder(names, [(names[a], names[b]) for a, b in rel])
            )
    return out


def _rand_extrat(rng, cfg, allow_zero=True, allow_inf=None):
    if allow_inf is None:
        allow_inf = cfg.allow_infinity
    if allow_inf and rng.random() < 0.1:
        return INF
    den = rng.randint(1, cfg.weight_denominator_bound)
    num = rng.randint(0 if allow_zero else 1, 2 * den)
    return ExtRat(Fraction(num, den))


def rand_valuation(rng, cfg, space) -> va.Valuation:
    return va.valuation_from_weights(
        space, tuple(_rand_extrat(rng, cfg) for _ in range(space.n))
    )


def rand_prob(rng, cfg, space) -> pb.ProbValuation:
    if space.n == 0:
        raise ValueError("no probability valuation on the empty space")
    raw = [rng.randint(0, cfg.weight_denominator_bound) for _ in range(space.n)]
    if sum(raw) == 0:
        raw[rng.randrange(space.n)] = 1
    total = sum(raw)
    weights = tuple(ExtRat(Fraction(w, total)) for w in raw)
    return pb.ProbValuation(va.valuation_from_weights(space, weights))


def rand_lsc(rng, cfg, space, pool=None) -> va.LowerSemiFn:
    if pool is None:
        pool = [ZERO, ext("1/2"), ONE, ExtRat(2)]
        if cfg.allow_infinity:
            pool = pool + [INF]
    raw = [rng.choice(pool) for _ in range(space.n)]
    values = tuple(
        min(raw[y] for y in sp.bits(space.min_nbhd[x]))
        for x in range(space.n)
    )
    return va.LowerSemiFn(space, values)


def rand_closed(rng, space) -> hy.ClosedSet:
    return hy.ClosedSet(space, space.closure(rng.randrange(space.full + 1)))


def rand_map(rng, source, target) -> sp.ContinuousMap | None:
    if target.n == 0:
        if source.n == 0:
            return sp.identity_map(source)
        return None
    for _ in range(60):
        assignment = tuple(rng.randrange(target.n) for _ in range(source.n))
        try:
            return sp.ContinuousMap(source, target, assignment)
        except NotATopology:
            continue
    return sp.constant_map(source, target, rng.randrange(target.n))


def rand_sso(rng, cfg, space, prob=False) -> va.SimpleSecondOrder:
    k = rng.randint(1, 3)
    if prob:
        raw = [rng.randint(1, 4) for _ in range(k)]
        total = sum(raw)
        return va.SimpleSecondOrder(
            space,
            tuple(
                (ExtRat(Fraction(c, total)), rand_prob(rng, cfg, space).underlying)
                for c in raw
            ),
        )
    return va.SimpleSecondOrder(
        space,
        tuple(
            (_rand_extrat(rng, cfg, allow_zero=False), rand_valuation(rng, cfg, space))
            for _ in range(k)
        ),
    )


def rand_kernel(rng, cfg, source, target) -> va.Kernel:
    """Continuity by construction: a sum of terms g_i(x) * (fixed valuation)."""
    terms = []
    for _ in range(rng.randint(1, 2)):
        g = rand_lsc(rng, cfg, source, pool=[ZERO, ext("1/2"), ONE, ExtRat(2)])
        base = tuple(_rand_extrat(rng, cfg, allow_inf=False) for _ in range(target.n))
        terms.append((g, base))
    table = []
    for x in range(source.n):
        weights = [ZERO] * target.n
        for g, base in terms:
            for y in range(target.n):
                weights[y] = weights[y] + g(x) * base[y]
        table.append(va.valuation_from_weights(target, tuple(weights)))
    return va.Kernel(source, target, tuple(table))


def _rand_downset(rng, member_masks) -> int:
    mask = 0
    for i in range(len(member_masks)):
        if rng.random() < 0.3:
            for j in range(len(member_masks)):
                if member_masks[j] & ~member_masks[i] == 0:
                    mask |= 1 << j
    return mask


# --- counterexamples and shrinking -------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    """A law instance given by a space plus valuations-as-weight-lists.

    `law` takes (space, [valuations]) and returns True when the law holds;
    shrinking preserves the way the instance fails while dropping points,
    zeroing weights, and simplifying fractions.
    """

    space: sp.FiniteSpace
    weight_lists: tuple[tuple[ExtRat, ...], ...]
    law: object
    description: str = ""

    def valuations(self) -> list[va.Valuation]:
        return [
            va.valuation_from_weights(self.space, w) for w in self.weight_lists
        ]

    def holds(self) -> bool:
        return _failure(self) is None

    def size(self) -> tuple:
        weight_size = 0
        for wl in self.weight_lists:
            for w in wl:
                if w.is_infinite:
                    weight_size += 100
                elif w != ZERO:
                    weight_size += w.frac.numerator + w.frac.denominator
        return (self.space.n, weight_size)


def _failure(cex: Counterexample):
    """How cex fails its law: None if the law holds, False for a False
    verdict, or the type of the exception the law raises."""
    try:
        return None if cex.law(cex.space, cex.valuations()) else False
    except Exception as exc:
        return type(exc)


def _drop_point(cex: Counterexample, x: int) -> Counterexample:
    sub, _ = sp.subspace(cex.space, cex.space.full & ~(1 << x))
    kept = [y for y in range(cex.space.n) if y != x]
    lists = tuple(tuple(wl[y] for y in kept) for wl in cex.weight_lists)
    return replace(cex, space=sub, weight_lists=lists)


def _set_weight(cex: Counterexample, i: int, j: int, value: ExtRat) -> Counterexample:
    lists = list(map(list, cex.weight_lists))
    lists[i][j] = value
    return replace(cex, weight_lists=tuple(map(tuple, lists)))


def _simpler_weights(w: ExtRat):
    if w.is_infinite:
        yield ONE
        return
    for cand in (ZERO, ONE, ext("1/2")):
        if cand != w and (
            cand == ZERO
            or cand.frac.numerator + cand.frac.denominator
            < w.frac.numerator + w.frac.denominator
        ):
            yield cand


def shrink(cex: Counterexample) -> Counterexample:
    """Greedy minimization of a failing instance; idempotent.

    A smaller instance is kept only if it fails the way cex does: by a
    False verdict, or by an exception of the same type.  So a shrink never
    walks from one failure to another.
    """
    failure = _failure(cex)
    if failure is None:
        raise NotAFailure("input does not fail the law")
    current = cex
    improved = True
    while improved:
        improved = False
        for x in range(current.space.n):
            try:
                cand = _drop_point(current, x)
            except (ShapeMismatch, NotATopology):  # what sp.subspace raises
                continue
            if _failure(cand) is failure:
                current = cand
                improved = True
                break
        if improved:
            continue
        for i, wl in enumerate(current.weight_lists):
            for j, w in enumerate(wl):
                for value in _simpler_weights(w):
                    cand = _set_weight(current, i, j, value)
                    if _failure(cand) is failure and cand.size() < current.size():
                        current = cand
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break
    return current


# --- suite machinery ----------------------------------------------------------


class _Run:
    def __init__(self, suite: str, cfg: GenConfig):
        self.suite = suite
        self.cfg = cfg
        self.instances = 0
        self.failures: list[Failure] = []
        self.replay = (
            f"laws {suite} --seed {cfg.seed}"
            f" --max-points {cfg.max_points}"
            f" --count {cfg.instance_count}"
        )

    def check(self, thunk, message: str, cex: Counterexample | None = None):
        index = self.instances
        self.instances += 1
        try:
            ok = thunk()
        except Exception as exc:
            self.fail(index, f"{message}: {type(exc).__name__}: {exc}", cex)
            return
        if ok is False:
            self.fail(index, message, cex)

    def check_law(self, cex: Counterexample, message: str):
        """Check cex's law on cex itself, shrinking it if the law fails."""
        self.check(lambda: cex.law(cex.space, cex.valuations()), message, cex)

    def fail(self, index: int, message: str, cex: Counterexample | None):
        """Record a failure with the replay line and the shrunk cex."""
        if cex is not None:
            try:
                cex = shrink(cex)
            except NotAFailure:
                pass
        self.failures.append(Failure(index, message, self.replay, cex))


class _Detected(BaseException):
    """Raised by _DetectingRun at the first failure.

    A BaseException, so that the handlers of run_suite and of the suites
    let it through to mutation_detected.
    """


class _DetectingRun(_Run):
    """A run that ends at its first failing check, with no report."""

    def fail(self, index, message, cex):
        raise _Detected


def _spaces(cfg, limit=None, min_points=0, max_points=None):
    """The first limit spaces of the stream with min_points..max_points
    points, drawn lazily."""
    limit = cfg.instance_count if limit is None else limit
    fitting = (
        s
        for s in generate_space(cfg)
        if s.n >= min_points and (max_points is None or s.n <= max_points)
    )
    return itertools.islice(fitting, max(limit, 0))


def _space_pairs(cfg, limit=None, min_points=0, max_points=None, max_opens=None):
    """Up to limit pairs of neighbours among the first 2 * limit spaces of
    _spaces, skipping pairs whose open counts multiply past max_opens."""
    spaces = _spaces(cfg, (limit or cfg.instance_count) * 2, min_points, max_points)
    limit = cfg.instance_count if limit is None else limit
    pairs = itertools.pairwise(spaces)
    if max_opens is not None:
        pairs = (
            (a, b) for a, b in pairs if len(a.opens) * len(b.opens) <= max_opens
        )
    return itertools.islice(pairs, max(limit, 0))


# --- H-monad helpers (order-level, no iterated topologies) --------------------


def h_left_unit(hx: hy.Hyperspace, i: int) -> bool:
    """U after the unit of HX: the principal down-set of C multiplies to C."""
    family = hx.space.closure(1 << i)
    return hy.mult_union(hx, hy.ClosedSet(hx.space, family)).members == hx.members[i]


def h_right_unit(hx: hy.Hyperspace, i: int) -> bool:
    """U after H(sigma): pushing the unit pointwise and multiplying is id."""
    image = 0
    for x in sp.bits(hx.members[i]):
        image |= 1 << hx.point_of(hy.unit_sigma(hx.base, x).members)
    family = hx.space.closure(image)
    return hy.mult_union(hx, hy.ClosedSet(hx.space, family)).members == hx.members[i]


def h_associativity(
    hx: hy.Hyperspace, hhx: list[int], xi_mask: int, inner: dict | None = None
) -> bool:
    """Compare U after U_{HX} with U after H(U) on a down-set of down-sets.

    inner maps j to the point of HX that U(hhx[j]) is; it is filled as the
    members are reached, so a caller checking many xi on one space can
    pass one dict and multiply each member once."""
    if inner is None:
        inner = {}
    union_members = 0
    for j in sp.bits(xi_mask):
        union_members |= hhx[j]
    left = hy.mult_union(hx, hy.ClosedSet(hx.space, union_members))
    image = 0
    for j in sp.bits(xi_mask):
        if j not in inner:
            members = hy.mult_union(hx, hy.ClosedSet(hx.space, hhx[j])).members
            inner[j] = hx.point_of(members)
        image |= 1 << inner[j]
    right = hy.mult_union(hx, hy.ClosedSet(hx.space, hx.space.closure(image)))
    return left == right


def h_push_naturality(f: sp.ContinuousMap, hx, hx_target, fam_mask: int) -> bool:
    """f_sharp after U equals U after (f_sharp)_sharp on a closed family."""
    left = hy.push_closed(f, hy.mult_union(hx, hy.ClosedSet(hx.space, fam_mask)))
    image = 0
    for i in sp.bits(fam_mask):
        image |= 1 << hx_target.point_of(hy.push_closed(f, hx.closed_of(i)).members)
    right = hy.mult_union(
        hx_target, hy.ClosedSet(hx_target.space, hx_target.space.closure(image))
    )
    return left == right


def h_strength_mult(prod: sp.Product, x: int, hx_right, fam_mask: int) -> bool:
    """Strength after multiplication equals multiplication after double
    strength; the push step only adds subsets, absorbed by the union."""
    inner = hy.mult_union(hx_right, hy.ClosedSet(hx_right.space, fam_mask))
    left = hy.strength_H(prod, x, inner)
    union = 0
    for j in sp.bits(fam_mask):
        union |= hy.strength_H(prod, x, hx_right.closed_of(j)).members
    right = hy.ClosedSet(prod.space, prod.space.closure(union))
    return left == right


def _associator():
    """For X, Y, Z = Sierpinski, chain(2), one point: the products X x Y,
    Y x Z, (X x Y) x Z and X x (Y x Z), and the associator between the last
    two."""
    X, Y, Z = sp.sierpinski(), sp.chain(2), sp.one_point()
    pxy = sp.product(X, Y)
    pyz = sp.product(Y, Z)
    pxy_z = sp.product(pxy.space, Z)
    px_yz = sp.product(X, pyz.space)
    assignment = tuple(
        px_yz.pair(x, pyz.pair(y, z))
        for x in range(X.n)
        for y in range(Y.n)
        for z in range(Z.n)
    )
    assoc = sp.ContinuousMap(pxy_z.space, px_yz.space, assignment)
    return pxy, pyz, pxy_z, px_yz, assoc


def _swap_map(prod_ab: sp.Product, prod_ba: sp.Product) -> sp.ContinuousMap:
    assignment = tuple(
        prod_ab.pair(i, j)
        for j in range(prod_ba.left.n)
        for i in range(prod_ba.right.n)
    )
    return sp.ContinuousMap(prod_ba.space, prod_ab.space, assignment)


def count_valid_functional_tables(space: sp.FiniteSpace) -> int:
    """Brute force over all boolean tables on the opens, counting the
    strict join-preserving ones; equals the number of closed sets."""
    opens = space.opens
    k = len(opens)
    index = {u: i for i, u in enumerate(opens)}
    pair_checks = [
        (i, j, index[opens[i] | opens[j]])
        for i in range(k)
        for j in range(i, k)
    ]
    count = 0
    for table in range(0, 1 << k, 2):  # bit 0 is the empty set, forced 0
        ok = True
        for i, j, u in pair_checks:
            if (table >> u & 1) != ((table >> i | table >> j) & 1):
                ok = False
                break
        if ok:
            count += 1
    return count


# --- second routes: the oracles the named laws compare against ----------------


def way_below_by_covers(space: sp.FiniteSpace, v: int, u: int) -> bool:
    """The cover quantifier read literally: every family of opens whose
    union covers u also covers v."""
    for r in range(len(space.opens) + 1):
        for family in itertools.combinations(space.opens, r):
            union = 0
            for w in family:
                union |= w
            if u & ~union == 0 and v & ~union != 0:
                return False
    return True


def rectangle_topology(prod: sp.Product) -> set[int]:
    """Topology generated from rectangles U x V, by closing under union.

    Rectangles are intersection-closed, so finite unions of rectangles are
    already the generated topology.
    """
    base = {
        prod.rectangle(u, v) for u in prod.left.opens for v in prod.right.opens
    }
    family = set(base)
    frontier = set(base)
    while frontier:
        new = set()
        for w in frontier:
            for r in base:
                cand = w | r
                if cand not in family:
                    new.add(cand)
        family |= new
        frontier = new
    return family


def family_is_topology(n: int, family) -> bool:
    """The axioms read literally: the family lies in the n points, holds
    the empty and the full set, and is closed under pairwise union and
    intersection."""
    fam = set(family)
    full = (1 << n) - 1
    return (
        {0, full} <= fam
        and all(u & ~full == 0 for u in fam)
        and all(u | v in fam and u & v in fam for u in fam for v in fam)
    )


def upsets_by_filter(space: sp.FiniteSpace) -> list[int]:
    """The up-sets of the specialization, by testing every subset."""
    return [
        m
        for m in range(space.full + 1)
        if all(
            m >> y & 1
            for x in sp.bits(m)
            for y in range(space.n)
            if space.leq(x, y)
        )
    ]


def _is_irreducible(c: int, closed: list[int]) -> bool:
    """c is nonempty and not the union of two closed proper subsets."""
    if c == 0:
        return False
    for a in closed:
        if a & ~c:
            continue
        for b in closed:
            if b & ~c:
                continue
            if a | b == c and a != c and b != c:
                return False
    return True


def irreducibles_are_point_closures(space: sp.FiniteSpace) -> bool:
    """Sobriety scanned literally over the closed sets."""
    closed = space.closed_sets()
    point_closures = {space.closure(1 << x) for x in range(space.n)}
    return all(
        c in point_closures for c in closed if _is_irreducible(c, closed)
    )


def continuity_by_preimages(source, target, assignment) -> bool:
    """Every preimage of a target open is a source open."""
    opens = set(source.opens)
    return all(
        sum(1 << x for x in range(source.n) if u >> assignment[x] & 1) in opens
        for u in target.opens
    )


def continuity_is_monotonicity(source, target) -> bool:
    """ContinuousMap accepts an assignment exactly when every preimage of a
    target open is open, over all assignments."""
    for assignment in itertools.product(range(target.n), repeat=source.n):
        try:
            sp.ContinuousMap(source, target, assignment)
            accepted = True
        except NotATopology:
            accepted = False
        if accepted != continuity_by_preimages(source, target, assignment):
            return False
    return True


def equivalence_by_preimage_lattices(f: sp.ContinuousMap) -> bool:
    """Taking preimages is a bijection of the open lattices, and every
    target point is equivalent to some f(x)."""
    target = f.target
    preimages = {f.preimage(u) for u in target.opens}
    return len(preimages) == len(target.opens) == len(f.source.opens) and all(
        any(target.classes[y] >> fx & 1 for fx in f.assignment)
        for y in range(target.n)
    )


def equivalence_criteria_agree(*maps: sp.ContinuousMap) -> bool:
    """is_equivalence and the preimage-lattice criterion agree on each map."""
    return all(
        sp.is_equivalence(f)[0] == equivalence_by_preimage_lattices(f)
        for f in maps
    )


def equivalence_with_witness(f: sp.ContinuousMap) -> bool:
    """f is an equivalence whose quasi-inverse g has g o f and f o g
    isomorphic to the identities as 2-cells."""
    ok, g = sp.is_equivalence(f)
    return ok and all(
        sp.le_2cell(h, sp.identity_map(h.source))
        and sp.le_2cell(sp.identity_map(h.source), h)
        for h in (sp.compose(g, f), sp.compose(f, g))
    )


def h_specialization_is_inclusion(hx: hy.Hyperspace) -> bool:
    m = hx.members
    return all(
        hx.space.leq(i, j) == (m[i] & ~m[j] == 0)
        for i in range(len(m))
        for j in range(len(m))
    )


def h_push_hits(f: sp.ContinuousMap, c: hy.ClosedSet) -> bool:
    """f_sharp(C) hits U iff C hits the preimage of U."""
    pushed = hy.push_closed(f, c)
    return all(hy.hit(pushed, u) == hy.hit(c, f.preimage(u)) for u in f.target.opens)


def h_union_hits(hx: hy.Hyperspace, fam_mask: int) -> bool:
    """The union of a closed family hits U iff some member does."""
    union = hy.mult_union(hx, hy.ClosedSet(hx.space, fam_mask))
    return all(
        hy.hit(union, u) == bool(fam_mask & hx.hit_mask(u)) for u in hx.base.opens
    )


def h_rectangle_hits(prod: sp.Product, e: hy.ClosedSet, c, d) -> bool:
    """E hits U x V iff C hits U and D hits V, for all opens U and V.  With
    C = sigma(x) this is the strength law, since x is in U iff sigma(x)
    hits U."""
    return all(
        hy.hit(e, prod.rectangle(u, v)) == (hy.hit(c, u) and hy.hit(d, v))
        for u in prod.left.opens
        for v in prod.right.opens
    )


def h_product_composites(
    prod: sp.Product, c: hy.ClosedSet, d: hy.ClosedSet
) -> tuple[hy.ClosedSet, hy.ClosedSet]:
    """Both diagonal composites of the commutativity square of H, from the
    strengths and the multiplication (the closure of a union): the union of
    the costrengths t(C, y) over y in D, and of the strengths s(x, D) over
    x in C."""

    def mult(closed_sets) -> hy.ClosedSet:
        union = 0
        for e in closed_sets:
            union |= e.members
        return hy.ClosedSet(prod.space, prod.space.closure(union))

    return (
        mult(hy.costrength_H(prod, c, y) for y in sp.bits(d.members)),
        mult(hy.strength_H(prod, x, d) for x in sp.bits(c.members)),
    )


def lsc_criteria_agree(space: sp.FiniteSpace, values) -> bool:
    """LowerSemiFn accepts exactly the tables whose strict upper level sets
    are all open."""
    levels_open = all(
        space.is_open(sum(1 << x for x in range(space.n) if values[x] > r))
        for r in set(values) | {ZERO}
    )
    try:
        va.LowerSemiFn(space, values)
        return levels_open
    except NotLowerSemicontinuous:
        return not levels_open


def pushforward_integral_identity(f: sp.ContinuousMap, nu: va.Valuation) -> bool:
    """<f_* nu, 1_U> = <nu, 1_U o f> for every open U of the target."""
    pushed = va.pushforward(f, nu)
    return all(
        va.integrate(pushed, va.indicator(f.target, u))
        == va.integrate(nu, va.compose_lsc(va.indicator(f.target, u), f))
        for u in f.target.opens
    )


def signed_sum(terms) -> ExtRat:
    """Sum of (sign, ExtRat) terms: the terms of each sign are summed in
    [0, oo], and the negative sum is then subtracted from the positive one.

    Raises InfinityIndeterminate if both +oo and -oo terms occur, or if the
    result would be negative or -oo.
    """
    positive = negative = ZERO
    for sign, value in terms:
        if sign > 0:
            positive = positive + value
        else:
            negative = negative + value
    if positive.is_infinite and negative.is_infinite:
        raise InfinityIndeterminate("both +oo and -oo terms in signed sum")
    if positive.is_infinite:
        return INF
    if negative.is_infinite:
        raise InfinityIndeterminate("signed sum is -oo but must lie in [0, oo]")
    if positive < negative:
        raise InfinityIndeterminate(
            f"signed sum {positive.frac - negative.frac} is negative"
        )
    return positive - negative


def layer_cake_integral(nu: va.Valuation, g: va.LowerSemiFn) -> ExtRat:
    """<nu, g> from the table of nu, by layer-cake over g's values.

    Sorting the distinct finite values 0 = v0 < v1 < ..., the integral is
    sum_i (v_i - v_{i-1}) * nu({g >= v_i}) + oo * nu({g = oo}); each weak
    level {g >= v_i} equals the open strict level {g > v_{i-1}}.
    """
    finite_values = sorted({v for v in g.values if v.is_finite})
    total = ZERO
    prev = ZERO
    for v in finite_values:
        if not v:
            continue
        total = total + (v - prev) * nu.value(g.weak_level(v))
        prev = v
    return total + INF * nu.value(g.weak_level(INF))


def inclusion_exclusion_product(
    prod: sp.Product, nu: va.Valuation, rho: va.Valuation
) -> tuple[ExtRat, ...]:
    """The table of the product valuation from the factors' tables alone.

    Every open of the product is the union of the minimal-neighborhood
    rectangles of its points; its value is fixed by the n-ary modularity
    law, i.e. signed inclusion-exclusion over nonempty subfamilies of the
    rectangles, each valued nu(U) * rho(V).  A rectangle of value oo makes
    the union oo; otherwise every term is finite.
    """
    nu_of = dict(zip(prod.left.opens, nu.table))
    rho_of = dict(zip(prod.right.opens, rho.table))
    table = []
    for w in prod.space.opens:
        rects = sorted(
            {
                (prod.left.min_nbhd[i], prod.right.min_nbhd[j])
                for i, j in map(prod.split, sp.bits(w))
            }
        )
        if any((nu_of[u] * rho_of[v]).is_infinite for u, v in rects):
            table.append(INF)
            continue
        terms = []
        for subset in range(1, 1 << len(rects)):
            cap_u, cap_v = prod.left.full, prod.right.full
            for i in sp.bits(subset):
                cap_u &= rects[i][0]
                cap_v &= rects[i][1]
            sign = 1 if sp.popcount(subset) % 2 else -1
            terms.append((sign, nu_of[cap_u] * rho_of[cap_v]))
        table.append(signed_sum(terms))
    return tuple(table)


def iterated_integrals(prod: sp.Product, nu, rho, f) -> tuple[ExtRat, ExtRat]:
    """<nu, x -> <rho, f(x, -)>> and <rho, y -> <nu, f(-, y)>> for a
    function f on the points of the product, each by layer-cake."""
    left, right = prod.left, prod.right

    def lsc(space, values):
        return va.LowerSemiFn(space, tuple(values))

    inner_x = (
        layer_cake_integral(
            rho, lsc(right, (f(prod.pair(x, y)) for y in range(right.n)))
        )
        for x in range(left.n)
    )
    inner_y = (
        layer_cake_integral(
            nu, lsc(left, (f(prod.pair(x, y)) for x in range(left.n)))
        )
        for y in range(right.n)
    )
    return (
        layer_cake_integral(nu, lsc(left, inner_x)),
        layer_cake_integral(rho, lsc(right, inner_y)),
    )


def open_iterated_integrals(prod: sp.Product, nu, rho):
    """iterated_integrals of the indicator of each open W of the product, in
    the order of prod.space.opens, one pair at a time.

    At x the inner integrand is the indicator of the section
    W_x = {y : (x, y) in W}, an open of the right factor, and at y that of
    W^y = {x : (x, y) in W}, an open of the left one; each distinct
    section's inner layer-cake integral is computed once per call."""
    left, right = prod.left, prod.right
    row = right.full
    inner: dict[tuple[str, int], ExtRat] = {}

    def section_integral(side, valuation, space, mask):
        key = (side, mask)
        if key not in inner:
            inner[key] = layer_cake_integral(valuation, va.indicator(space, mask))
        return inner[key]

    for w in prod.space.opens:
        rows = [w >> x * right.n & row for x in range(left.n)]
        columns = [
            sum((r >> y & 1) << x for x, r in enumerate(rows))
            for y in range(right.n)
        ]
        inner_x = [section_integral("right", rho, right, r) for r in rows]
        inner_y = [section_integral("left", nu, left, c) for c in columns]
        yield (
            layer_cake_integral(nu, va.LowerSemiFn(left, tuple(inner_x))),
            layer_cake_integral(rho, va.LowerSemiFn(right, tuple(inner_y))),
        )


def v_product_composites(
    prod: sp.Product, nu: va.Valuation, rho: va.Valuation
) -> tuple[va.Valuation, va.Valuation]:
    """Both diagonal composites of the Fubini square, from the strengths and
    the multiplication: with rho = sum_y w_y delta_y the first multiplies
    out to the mixture sum_y w_y t(nu, y), and symmetrically the second to
    sum_x w_x s(x, rho)."""

    def mult(weights, strength) -> va.Valuation:
        atoms = tuple((w, strength(z)) for z, w in enumerate(weights) if sgn(w))
        return va.mult_E(va.SimpleSecondOrder(prod.space, atoms))

    return (
        mult(rho.weights, lambda y: va.costrength_V(prod, nu, y)),
        mult(nu.weights, lambda x: va.strength_V(prod, x, rho)),
    )


def fubini_square(prod: sp.Product, nu: va.Valuation, rho: va.Valuation) -> bool:
    """The product valuation equals both molecular composites and the
    inclusion-exclusion table, and on every open W both iterated integrals
    of the indicator of W."""
    pv = va.product_valuation(nu, rho, prod)
    route1, route2 = v_product_composites(prod, nu, rho)
    return (
        pv == route1 == route2
        and pv.table == inclusion_exclusion_product(prod, nu, rho)
        and all(
            pair == (value, value)
            for pair, value in zip(open_iterated_integrals(prod, nu, rho), pv.table)
        )
    )


def table_is_valuation(space: sp.FiniteSpace, table) -> bool:
    """The pairwise scan: strict, monotone on every inclusion of opens, and
    modular on every pair of opens."""
    value = dict(zip(space.opens, table))
    return value[0] == ZERO and all(
        (u & ~v or value[u] <= value[v])
        and value[u | v] + value[u & v] == value[u] + value[v]
        for u in space.opens
        for v in space.opens
    )


def validation_agrees_with_scan(space: sp.FiniteSpace, table) -> bool:
    """validate_valuation accepts exactly the tables the pairwise scan
    accepts, and returns the valuation with that table."""
    try:
        nu = va.validate_valuation(space, table)
    except (NotStrict, NotMonotone, NotModular):
        return not table_is_valuation(space, table)
    return table_is_valuation(space, table) and nu.table == tuple(table)


def integral_order_le(nu: va.Valuation, rho: va.Valuation) -> bool:
    """<nu, g> <= <rho, g> for every monotone g valued in {0, 1, 2}, a family
    that contains every indicator of an open."""
    return all(
        va.integrate(nu, g) <= va.integrate(rho, g)
        for g in va.canonical_lsc_family(nu.space, 2)
    )


def least_closed_of_full_measure(m: pb.FiniteMeasure) -> int:
    """The intersection of all closed sets of full measure, scanned."""
    acc = m.space.full
    for c in m.space.closed_sets():
        if m.measure_of(c) == m.total:
            acc &= c
    return acc


def mixture_of_measures_agrees(xi: va.SimpleSecondOrder) -> bool:
    """The extension of mult_E_measure(xi) equals the mixture of the
    extended atom measures on every subset."""
    extended = [(c, pb.extend_to_measure(nu)) for c, nu in xi.atoms]
    result = pb.extend_to_measure(pb.mult_E_measure(xi).underlying)
    return all(m.space == result.space for _, m in extended) and all(
        sum((c * m.measure_of(subset) for c, m in extended), ZERO)
        == result.measure_of(subset)
        for subset in range(1 << result.space.n)
    )


# --- the suites ----------------------------------------------------------------


def _suite_topology_core(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 1)
    known = [
        (sp.sierpinski(), (True, False, True)),
        (sp.discrete(2), (True, True, True)),
        (sp.indiscrete(2), (False, False, True)),
        (sp.w_lattice(), (True, False, True)),
    ]
    for space, flags in known:
        if space.n <= cfg.max_points:
            run.check(
                lambda s=space, f=flags: (
                    lambda r: (r.is_T0, r.is_T1, r.is_sober) == f
                )(sp.check_separation(s)),
                f"separation flags of {space.points}",
            )
    for space in _spaces(cfg):
        run.check(
            lambda s=space: sp.from_opens(s.points, s.opens) == s,
            "open-family round trip",
        )
        run.check(
            lambda s=space: list(s.opens) == upsets_by_filter(s),
            "the opens are the up-sets of specialization, filtered from all subsets",
        )
        run.check(
            lambda s=space: family_is_topology(s.n, s.opens),
            "the opens are closed under union and intersection",
        )
        run.check(
            lambda s=space: [m for m in range(s.full + 1) if s.is_open(m)]
            == list(s.opens),
            "is_open holds exactly on the opens",
        )
        run.check(
            lambda s=space: irreducibles_are_point_closures(s),
            "every irreducible closed set is a point closure",
        )
        run.check(
            lambda s=space: sp.from_preorder(
                s.points, [(a, b) for a, b in s.specialization()]
            )
            == s,
            "preorder round trip",
        )
        run.check(
            lambda s=space: sp.from_preorder(
                s.points, s.specialization()
            ).specialization()
            == s.specialization(),
            "specialization reproduces the input preorder",
        )
        run.check(
            lambda s=space: (
                lambda q, m: sp.check_separation(q).is_T0
                and equivalence_with_witness(m)
            )(*sp.kolmogorov_quotient(s)),
            "Kolmogorov quotient is a T0 equivalence",
        )
        mask = rng.randrange(space.full + 1)
        run.check(
            lambda s=space, m=mask: sp.subspace(s, m)[1].source.n
            == sp.popcount(m),
            "subspace construction",
        )
        if space.opens and len(space.opens) <= 8:
            u = rng.choice(space.opens)
            v = rng.choice(space.opens)
            run.check(
                lambda s=space, a=u, b=v: sp.way_below(s, a, b)
                == way_below_by_covers(s, a, b),
                "way-below agrees with the literal cover quantifier",
            )
    for a, b in _space_pairs(cfg, max_points=3, max_opens=256):
        run.check(
            lambda x=a, y=b: (
                lambda prod: set(prod.space.opens) == rectangle_topology(prod)
            )(sp.product(x, y)),
            "product topology equals the rectangle-generated topology",
        )
        run.check(
            lambda x=a, y=b: continuity_is_monotonicity(x, y),
            "continuity is monotonicity",
        )


def _suite_h_monad(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 2)
    # canned naturality witness: collapse a discrete pair onto the open point
    if cfg.max_points >= 2:
        d2, s2 = sp.discrete(2), sp.sierpinski()
        f = sp.ContinuousMap(d2, s2, (s2.index("1"), s2.index("1")))
        run.check(
            lambda: hy.push_closed(f, hy.ClosedSet(d2, 1)).members
            == s2.mask_of(["0", "1"]),
            "pushing a point closure takes the closure of the image",
        )
    for space in _spaces(cfg, max_points=min(cfg.max_points, 3)):
        hx = hy.build_hyperspace(space)
        run.check(
            lambda h=hx: hy._vietoris_topology(h) == set(h.space.opens),
            "lower Vietoris topology equals the inclusion up-sets",
        )
        run.check(
            lambda h=hx: h_specialization_is_inclusion(h),
            "HX specialization is inclusion",
        )
        for i in range(len(hx.members)):
            run.check(lambda h=hx, k=i: h_left_unit(h, k), "left unit law")
            run.check(lambda h=hx, k=i: h_right_unit(h, k), "right unit law")
        for u in space.opens:
            run.check(
                lambda s=space, w=u: sum(
                    1 << x
                    for x in range(s.n)
                    if hy.hit(hy.unit_sigma(s, x), w)
                )
                == w,
                "sigma preimage of Hit(U) is U",
            )
        for c in space.closed_sets():
            run.check(
                lambda s=space, m=c: hy.unit_closure_membership(
                    s, hy.ClosedSet(s, m)
                )
                == any(m & ~s.closure(1 << x) == 0 for x in range(s.n)),
                "closure-membership criteria agree",
            )
        hhx = hy.inclusion_downsets(hx.members)
        run.check(
            lambda h=hx, d=hhx: all(h_union_hits(h, m) for m in d),
            "the union of a closed family hits U iff a member does",
        )
        if len(hhx) <= 8:
            xi_masks = hy.inclusion_downsets(hhx)
        else:
            xi_masks = [_rand_downset(rng, hhx) for _ in range(cfg.instance_count)]
        inner: dict[int, int] = {}
        for xi in xi_masks:
            run.check(
                lambda h=hx, d=hhx, m=xi, c=inner: h_associativity(h, d, m, c),
                "associativity law",
            )
    for a, b in _space_pairs(cfg, max_points=min(cfg.max_points, 3)):
        f = rand_map(rng, a, b)
        if f is None:
            continue
        hxa, hxb = hy.build_hyperspace(a), hy.build_hyperspace(b)
        for x in range(a.n):
            run.check(
                lambda g=f, s=a, t=b, p=x: hy.push_closed(g, hy.unit_sigma(s, p))
                == hy.unit_sigma(t, g(p)),
                "unit naturality",
            )
        fam = hxa.space.closure(_rand_downset(rng, hxa.members) or 0)
        run.check(
            lambda g=f, h=hxa, ht=hxb, m=fam: h_push_naturality(g, h, ht, m),
            "multiplication naturality",
        )
        g2 = rand_map(rng, b, b)
        if g2 is not None and a.n:
            c = rand_closed(rng, a)
            run.check(
                lambda g=g2, h=f, cc=c: hy.push_closed(sp.compose(g, h), cc)
                == hy.push_closed(g, hy.push_closed(h, cc)),
                "functoriality of the push",
            )
            run.check(
                lambda h=f, cc=c: h_push_hits(h, cc),
                "the push hits U iff the closed set hits the preimage",
            )


def _suite_h_strength(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 3)
    one = sp.one_point()
    for a, b in _space_pairs(cfg, max_points=min(cfg.max_points, 3), max_opens=300):
        prod = sp.product(a, b)
        hxb = hy.build_hyperspace(b)
        for _ in range(2):
            if a.n == 0:
                break
            x = rng.randrange(a.n)
            c = rand_closed(rng, b)
            run.check(
                lambda p=prod, px=x, cc=c: h_rectangle_hits(
                    p, hy.strength_H(p, px, cc), hy.unit_sigma(p.left, px), cc
                ),
                "strength rectangle law",
            )
            if b.n:
                y = rng.randrange(b.n)
                run.check(
                    lambda p=prod, px=x, py=y, s=b: hy.strength_H(
                        p, px, hy.unit_sigma(s, py)
                    )
                    == hy.unit_sigma(p.space, p.pair(px, py)),
                    "strength unit diagram",
                )
            fam = hxb.space.closure(_rand_downset(rng, hxb.members))
            run.check(
                lambda p=prod, px=x, h=hxb, m=fam: h_strength_mult(p, px, h, m),
                "strength multiplication diagram",
            )
        # unitor: X x H1 -> H(X x 1) -> HX
        if a.n:
            prod1 = sp.product(a, one)
            x = rng.randrange(a.n)
            for c_members in (0, 1):
                run.check(
                    lambda p=prod1, px=x, m=c_members, s=a: hy.push_closed(
                        p.proj1, hy.strength_H(p, px, hy.ClosedSet(one, m))
                    ).members
                    == (s.closure(1 << px) if m else 0),
                    "strength unitor diagram",
                )
        # costrength is the swap of strength
        prod_ba = sp.product(b, a)
        swap = _swap_map(prod_ba, prod)
        if a.n and b.n:
            x = rng.randrange(a.n)
            d = rand_closed(rng, b)
            run.check(
                lambda p=prod, q=prod_ba, sw=swap, px=x, cc=d: hy.costrength_H(
                    q, cc, px
                )
                == hy.push_closed(sw, hy.strength_H(p, px, cc)),
                "costrength is strength through the symmetry",
            )
            run.check(
                lambda q=prod_ba, px=x, cc=d: h_rectangle_hits(
                    q, hy.costrength_H(q, cc, px), cc, hy.unit_sigma(q.right, px)
                ),
                "costrength rectangle law",
            )
        # commutativity square: both composites equal the product of closed sets
        c = rand_closed(rng, a)
        d = rand_closed(rng, b)
        run.check(
            lambda p=prod, cc=c, dd=d: (
                lambda direct, routes: direct == routes[0] == routes[1]
            )(
                hy.product_closed(p, cc, dd),
                h_product_composites(p, cc, dd),
            ),
            "commutativity square for closed products",
        )
        run.check(
            lambda p=prod, cc=c, dd=d: h_rectangle_hits(
                p, hy.product_closed(p, cc, dd), cc, dd
            ),
            "product rectangle law",
        )
        run.check(
            lambda p=prod, cc=c, dd=d: hy.marginals(p, hy.product_closed(p, cc, dd))
            == (
                (cc, dd)
                if cc.members and dd.members
                else (
                    hy.ClosedSet(a, 0),
                    hy.ClosedSet(b, 0),
                )
            ),
            "marginals of a rectangle recover nonempty factors",
        )
    # associator diagram on a small fixed triple
    if cfg.max_points >= 2:
        pxy, pyz, pxy_z, px_yz, assoc = _associator()
        for _ in range(4):
            c = rand_closed(rng, pyz.right)
            x = rng.randrange(pxy.left.n)
            y = rng.randrange(pxy.right.n)
            run.check(
                lambda cc=c, px=x, py=y: hy.push_closed(
                    assoc, hy.strength_H(pxy_z, pxy.pair(px, py), cc)
                )
                == hy.strength_H(px_yz, px, hy.strength_H(pyz, py, cc)),
                "strength associator diagram",
            )


def _suite_h_algebra(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 4)
    w = sp.w_lattice()
    if w.n <= cfg.max_points:
        joins = hy.join_algebra_map(w)
        run.check(
            lambda: (
                lambda v: v.is_algebra and v.characterization
            )(hy.check_H_algebra(w, joins)),
            "the diamond lattice is an algebra via joins",
        )
    one = sp.one_point()
    run.check(
        lambda: hy.check_H_algebra(one, hy.join_algebra_map(one)).is_algebra,
        "the one-point space is trivially an algebra",
    )
    d2 = sp.discrete(2)
    if d2.n <= cfg.max_points:
        hx = hy.build_hyperspace(d2)
        for table in itertools.product(range(d2.n), repeat=len(hx.members)):
            run.check(
                lambda t=table: (
                    lambda v: not v.is_algebra and not v.characterization
                )(hy.check_H_algebra(d2, t)),
                "no table makes a discrete pair an algebra",
            )
    for space in _spaces(cfg, max_points=min(cfg.max_points, 3)):
        joins = hy.join_algebra_map(space)
        if joins is not None:
            run.check(
                lambda s=space, t=joins: (
                    lambda v: v.is_algebra == v.characterization
                )(hy.check_H_algebra(s, t)),
                "algebra diagrams match the join-semilattice characterization",
            )
            run.check(
                lambda s=space, t=joins: (
                    lambda v: not sp.check_separation(s).is_sober
                    or v.binary_join_continuous == v.closed_join_continuous
                )(hy.check_H_algebra(s, t)),
                "binary-join and closed-join continuity agree on sober spaces",
            )
        hx = hy.build_hyperspace(space)
        if space.n:
            table = tuple(
                rng.randrange(space.n) for _ in range(len(hx.members))
            )
            run.check(
                lambda s=space, t=table: (
                    lambda v: v.is_algebra == v.characterization
                )(hy.check_H_algebra(s, t)),
                "equivalence holds on random tables",
            )


def _suite_v_monad(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 5)
    s2 = sp.sierpinski()
    if s2.n <= cfg.max_points:
        half = ext("1/2")
        nu = va.valuation_from_weights(s2, (half, half))
        run.check(
            lambda: va.mult_E(
                va.SimpleSecondOrder(
                    s2,
                    tuple(
                        (nu.weights[x], va.unit_delta(s2, x)) for x in range(2)
                    ),
                )
            )
            == nu,
            "right unit on the half-half valuation",
        )
        run.check(
            lambda: va.integrate(nu, va.indicator(s2, s2.mask_of(["1"]))) == half,
            "indicator pairing equals the table value",
        )
    for space in _spaces(cfg):
        nu = rand_valuation(rng, cfg, space)
        run.check(
            lambda s=space, v=nu: va.mult_E(
                va.SimpleSecondOrder(s, ((ONE, v),))
            )
            == v,
            "left unit law",
        )
        run.check(
            lambda s=space, v=nu: va.mult_E(
                va.SimpleSecondOrder(
                    s,
                    tuple(
                        (v.weights[x], va.unit_delta(s, x))
                        for x in range(s.n)
                        if sgn(v.weights[x])
                    ),
                )
            )
            == v
            if any(sgn(w) for w in v.weights)
            else va.zero_valuation(s) == v,
            "right unit law",
        )
        for u in space.opens:
            run.check(
                lambda s=space, v=nu, w=u: va.integrate(v, va.indicator(s, w))
                == v.value(w),
                "integral of an indicator is the open's mass",
            )
        # associativity tower: a mixture of mixtures
        inner = [rand_sso(rng, cfg, space) for _ in range(rng.randint(1, 2))]
        outer_weights = [
            _rand_extrat(rng, cfg, allow_zero=False, allow_inf=False)
            for _ in inner
        ]
        run.check(
            lambda s=space, xs=inner, ws=outer_weights: va.mult_E(
                va.SimpleSecondOrder(
                    s,
                    tuple(
                        (w * c, v)
                        for w, xi in zip(ws, xs)
                        for c, v in xi.atoms
                    ),
                )
            )
            == va.mult_E(
                va.SimpleSecondOrder(
                    s, tuple((w, va.mult_E(xi)) for w, xi in zip(ws, xs))
                )
            ),
            "associativity on molecular towers",
        )
        xi = rand_sso(rng, cfg, space)
        g = rand_lsc(rng, cfg, space)
        run.check(
            lambda x=xi, f=g: va.integrate(va.mult_E(x), f)
            == va.pairing_with_evaluation(x, f),
            "multiplication pairing identity",
        )
        run.check(
            lambda v=nu, f=g: va.integrate(v, f) == layer_cake_integral(v, f),
            "weighted sum equals layer cake",
        )
        run.check(
            lambda s=space, f=g: lsc_criteria_agree(s, f.values)
            and lsc_criteria_agree(s, f.values[::-1]),
            "lower semicontinuity: monotone iff the level sets are open",
        )
        r = _rand_extrat(rng, cfg, allow_inf=False)
        run.check(
            lambda s=space, f=g, rr=r: sum(
                1 << x
                for x in range(s.n)
                if va.big_theta_membership(va.unit_delta(s, x), f, rr)
            )
            == f.upper_level(rr),
            "Dirac preimage of a subbasic open is a level set",
        )
    for a, b in _space_pairs(cfg):
        f = rand_map(random.Random(cfg.seed + 6), a, b)
        if f is None or a.n == 0:
            continue
        nu = rand_valuation(rng, cfg, a)
        x = rng.randrange(a.n)
        run.check(
            lambda g=f, s=a, t=b, p=x: va.pushforward(g, va.unit_delta(s, p))
            == va.unit_delta(t, g(p)),
            "unit naturality",
        )
        run.check(
            lambda g=f, v=nu: pushforward_integral_identity(g, v),
            "pushforward integral identity",
        )
        xi = rand_sso(rng, cfg, a)
        run.check(
            lambda g=f, x2=xi, t=b: va.pushforward(g, va.mult_E(x2))
            == va.mult_E(
                va.SimpleSecondOrder(
                    t, tuple((c, va.pushforward(g, v)) for c, v in x2.atoms)
                )
            ),
            "multiplication naturality",
        )
    # Kleisli composition: units, associativity, and the molecular route
    triples = _space_pairs(cfg, min_points=1)
    for a, b in itertools.islice(triples, max(4, cfg.instance_count // 4)):
        rngk = random.Random(cfg.seed + 7 + a.n + b.n)
        h = rand_kernel(rngk, cfg, a, b)
        k = rand_kernel(rngk, cfg, b, a)
        m = rand_kernel(rngk, cfg, a, a)
        run.check(
            lambda hh=h, s=b: va.kleisli_compose(va.delta_kernel(s), hh).table
            == hh.table,
            "delta is a left Kleisli unit",
        )
        run.check(
            lambda hh=h, s=a: va.kleisli_compose(hh, va.delta_kernel(s)).table
            == hh.table,
            "delta is a right Kleisli unit",
        )
        run.check(
            lambda f=h, g=k, e=m: va.kleisli_compose(
                va.kleisli_compose(e, g), f
            ).table
            == va.kleisli_compose(e, va.kleisli_compose(g, f)).table,
            "Kleisli associativity",
        )
        run.check(
            lambda f=h, g=k: all(
                va.kleisli_compose(g, f).table[x]
                == va.mult_E(
                    va.SimpleSecondOrder(
                        g.target,
                        tuple(
                            (f.table[x].weights[y], g.table[y])
                            for y in range(f.target.n)
                            if sgn(f.table[x].weights[y])
                        ),
                    )
                )
                if any(sgn(f.table[x].weights[y]) for y in range(f.target.n))
                else va.kleisli_compose(g, f).table[x]
                == va.zero_valuation(g.target)
                for x in range(f.source.n)
            ),
            "Kleisli route agrees with the molecular multiplication route",
        )


def _suite_v_strength(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 8)
    one = sp.one_point()
    for a, b in _space_pairs(cfg, min_points=1, max_points=3, max_opens=300):
        prod = sp.product(a, b)
        x = rng.randrange(a.n)
        y = rng.randrange(b.n)
        nu = rand_valuation(rng, cfg, b)
        run.check(
            lambda p=prod, px=x, py=y, s=b: va.strength_V(
                p, px, va.unit_delta(s, py)
            )
            == va.unit_delta(p.space, p.pair(px, py)),
            "strength unit diagram",
        )
        xi = rand_sso(rng, cfg, b)
        run.check(
            lambda p=prod, px=x, x2=xi: va.strength_V(p, px, va.mult_E(x2))
            == va.mult_E(
                va.SimpleSecondOrder(
                    p.space,
                    tuple((c, va.strength_V(p, px, v)) for c, v in x2.atoms),
                )
            ),
            "strength multiplication diagram",
        )
        prod1 = sp.product(a, one)
        mass = _rand_extrat(rng, cfg)
        run.check(
            lambda p=prod1, px=x, m=mass, s=a: va.pushforward(
                p.proj1, va.strength_V(p, px, va.valuation_from_weights(one, (m,)))
            )
            == va.valuation_from_weights(
                s, tuple(m if q == px else ZERO for q in range(s.n))
            ),
            "strength unitor diagram",
        )
        prod_ba = sp.product(b, a)
        swap = _swap_map(prod_ba, prod)
        run.check(
            lambda p=prod, q=prod_ba, sw=swap, px=x, v=nu: va.costrength_V(
                q, v, px
            )
            == va.pushforward(sw, va.strength_V(p, px, v)),
            "costrength is strength through the symmetry",
        )
        for u in a.opens:
            for v_open in b.opens:
                run.check(
                    lambda p=prod, px=x, v=nu, uu=u, vv=v_open: va.strength_V(
                        p, px, v
                    ).value(p.rectangle(uu, vv))
                    == (v.value(vv) if uu >> px & 1 else ZERO),
                    "rectangle evaluation of the strength",
                )
    # associator diagram on a small fixed triple
    if cfg.max_points >= 2:
        pxy, pyz, pxy_z, px_yz, assoc = _associator()
        for _ in range(4):
            nu = rand_valuation(rng, cfg, pyz.right)
            x = rng.randrange(pxy.left.n)
            y = rng.randrange(pxy.right.n)
            run.check(
                lambda v=nu, px=x, py=y: va.pushforward(
                    assoc, va.strength_V(pxy_z, pxy.pair(px, py), v)
                )
                == va.strength_V(px_yz, px, va.strength_V(pyz, py, v)),
                "strength associator diagram",
            )


def _suite_v_fubini(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 9)
    s2 = sp.sierpinski()
    if s2.n <= cfg.max_points:
        nu = va.valuation_from_weights(s2, (ext("1/2"), ext("1/2")))
        rho = va.valuation_from_weights(s2, (ext("1/3"), ext("2/3")))
        prod = sp.product(s2, s2)
        w = prod.rectangle(s2.mask_of(["1"]), s2.full) | prod.rectangle(
            s2.full, s2.mask_of(["1"])
        )
        run.check(
            lambda: va.product_valuation(nu, rho, prod).value(w) == ext("5/6"),
            "inclusion-exclusion on the cross-shaped open",
        )
    for a, b in _space_pairs(cfg, max_points=3, max_opens=300):
        prod = sp.product(a, b)
        nu = rand_valuation(rng, cfg, a)
        rho = rand_valuation(rng, cfg, b)
        run.check(
            lambda p=prod, v=nu, r=rho: fubini_square(p, v, r),
            "Fubini square: both composites equal the product valuation",
        )
        g = rand_lsc(rng, cfg, prod.space)
        run.check(
            lambda p=prod, v=nu, r=rho, f=g: (
                lambda whole: iterated_integrals(p, v, r, f) == (whole, whole)
            )(va.integrate(va.product_valuation(v, r, p), f)),
            "iterated integrals agree with the product integral",
        )
        if a.n and b.n:
            x = rng.randrange(a.n)
            y = rng.randrange(b.n)
            run.check(
                lambda p=prod, s=a, t=b, px=x, py=y: va.product_valuation(
                    va.unit_delta(s, px), va.unit_delta(t, py), p
                )
                == va.unit_delta(p.space, p.pair(px, py)),
                "product of Diracs is the Dirac of the pair",
            )
        run.check(
            lambda p=prod, v=nu, s=b: va.product_valuation(
                v, va.zero_valuation(s), p
            ).is_zero(),
            "zero valuation is absorbing",
        )


def _suite_v_duality(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 10)
    # canned witness: a weight read off the table subtracts the mass above it
    if cfg.max_points >= 2:
        s2 = sp.sierpinski()
        nu = va.valuation_from_weights(s2, (ONE, ONE))
        run.check(
            lambda: va.validate_valuation(s2, nu.table) == nu,
            "validate_valuation reads the weights back off a fixed table",
        )
    for space in _spaces(cfg, max_points=min(cfg.max_points, 4)):
        closed = space.closed_sets()
        for c in closed:
            run.check(
                lambda s=space, m=c: (
                    lambda phi: hy.closed_of_functional(phi).members == m
                    and hy.functional_of_closed(hy.closed_of_functional(phi)) == phi
                )(hy.functional_of_closed(hy.ClosedSet(s, m))),
                "duality round trip, both ways",
            )
        run.check(
            lambda s=space, cl=closed: all(
                (c & ~d == 0)
                == all(
                    x <= y
                    for x, y in zip(
                        hy.functional_of_closed(hy.ClosedSet(s, c)).table,
                        hy.functional_of_closed(hy.ClosedSet(s, d)).table,
                    )
                )
                for c in cl
                for d in cl
            ),
            "duality is an order isomorphism",
        )
        run.check(
            lambda s=space, cl=closed: count_valid_functional_tables(s)
            == len(cl),
            "brute-force surjectivity over all boolean tables",
        )
        nu = rand_valuation(rng, cfg, space)
        perturbed = list(nu.table)
        i = rng.randrange(len(perturbed))
        perturbed[i] = ZERO if perturbed[i].is_infinite else perturbed[i] + ONE
        run.check(
            lambda s=space, v=nu, t=tuple(perturbed): va.validate_valuation(
                s, v.table
            )
            == v
            and validation_agrees_with_scan(s, v.table)
            and validation_agrees_with_scan(s, t),
            "validate_valuation round-trips a table and agrees with the scan",
        )
        # subspace inclusions: the pushforward embeds valuations
        if space.n:
            mask = rng.randrange(1, space.full + 1)
            sub, incl = sp.subspace(space, mask)
            nu = rand_valuation(rng, cfg, sub)
            rho = rand_valuation(rng, cfg, sub)
            run.check(
                lambda i=incl, v=nu, r=rho: (
                    va.pushforward(i, v) == va.pushforward(i, r)
                )
                == (v == r),
                "subspace pushforward is injective",
            )
            run.check(
                lambda s=space, i=incl, v=nu: all(
                    va.pushforward(i, v).value(u) == v.value(i.preimage(u))
                    for u in s.opens
                ),
                "subspace pushforward reflects the subbasic opens",
            )
            above = va.valuation_from_weights(
                sub, tuple(x + y for x, y in zip(nu.weights, rho.weights))
            )
            run.check(
                lambda pairs=((nu, rho), (nu, above), (above, nu)): all(
                    va.order_checks(v, r).opens_le == integral_order_le(v, r)
                    for v, r in pairs
                ),
                "opens order equals the integral order",
            )


def _suite_v_portmanteau(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 11)
    for space in _spaces(cfg, min_points=1):
        nu = rand_valuation(rng, cfg, space)
        r = _rand_extrat(rng, cfg, allow_inf=False)
        run.check(
            lambda v=nu, rr=r: not va.theta_membership(v, 0, rr),
            "theta of the empty set is empty",
        )
        for u in space.opens:
            run.check(
                lambda s=space, v=nu, w=u, rr=r: va.theta_membership(v, w, rr)
                == va.big_theta_membership(v, va.indicator(s, w), rr),
                "theta agrees with Theta on indicators",
            )
        g = rand_lsc(rng, cfg, space)
        x = rng.randrange(space.n)
        run.check(
            lambda s=space, f=g, p=x, rr=r: va.big_theta_membership(
                va.unit_delta(s, p), f, rr
            )
            == (f(p) > rr),
            "Dirac membership is a pointwise comparison",
        )
        if va.big_theta_membership(nu, g, r):
            run.check(
                lambda v=nu, f=g, rr=r: va.check_certificate(
                    f, rr, va.portmanteau_witness(v, f, rr), v
                ),
                "certificate passes the independent checker",
            )
            cert = va.portmanteau_witness(nu, g, r)
            other = rand_valuation(rng, cfg, space)
            if all(va.theta_membership(other, u, ri) for _, u, ri in cert):
                run.check(
                    lambda v=other, f=g, rr=r: va.big_theta_membership(v, f, rr),
                    "certificate is sound for other valuations",
                )


def _suite_p_submonad(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 12)
    for space in _spaces(cfg, min_points=1):
        xi = rand_sso(rng, cfg, space, prob=True)
        run.check(
            lambda x=xi: pb.mult_E_measure(x).underlying == va.mult_E(x),
            "measure-level multiplication includes into the valuation level",
        )
        run.check(
            lambda x=xi: mixture_of_measures_agrees(x),
            "measure-level mixture equals the multiplication on every subset",
        )
        p = rand_prob(rng, cfg, space)
        u = rng.choice(space.opens)
        r = ext(Fraction(rng.randint(0, 4), 5))
        run.check(
            lambda q=p, w=u, rr=r: pb.a_topology_membership(q, w, rr)
            == va.theta_membership(q.underlying, w, rr),
            "probability subbasic opens restrict the valuation subbasis",
        )
        q_space = space
        f = rand_map(rng, q_space, q_space)
        if f is not None:
            run.check(
                lambda g=f, q=p: va.pushforward(g, q.underlying).mass == ONE,
                "pushforward preserves normalization",
            )
    for a, b in _space_pairs(cfg, min_points=1, max_points=3, max_opens=300):
        prod = sp.product(a, b)
        p = rand_prob(rng, cfg, a)
        q = rand_prob(rng, cfg, b)
        run.check(
            lambda pp=p, qq=q, pr=prod: pb.product_measure(pp, qq, pr)
            .underlying.mass
            == ONE,
            "product preserves normalization",
        )
        x = rng.randrange(a.n)
        run.check(
            lambda pr=prod, px=x, qq=q: va.strength_V(pr, px, qq.underlying).mass
            == ONE,
            "strength preserves normalization",
        )


def _suite_p_extension(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 13)
    s2 = sp.sierpinski()
    if s2.n <= cfg.max_points:
        nu = va.valuation_from_weights(s2, (ext("2/3"), ext("1/3")))
        run.check(
            lambda: pb.extend_to_measure(nu).point_weights
            == (ext("2/3"), ext("1/3")),
            "the triangular system solves to (2/3, 1/3)",
        )
        run.check(
            lambda: pb.integrate_measure(
                pb.extend_to_measure(nu), va.LowerSemiFn(s2, (ONE, ExtRat(2)))
            )
            == ext("4/3"),
            "measure integral matches the valuation integral",
        )
    for space in _spaces(cfg):
        nu = rand_valuation(rng, cfg, space)
        if nu.mass.is_infinite:
            continue
        m = pb.extend_to_measure(nu)
        if m.quotient_map is None:
            run.check(
                lambda s=space, v=nu, mm=m: all(
                    mm.measure_of(u) == v.value(u) for u in s.opens
                ),
                "extension round trip on every open",
            )
            g = rand_lsc(rng, cfg, space, pool=[ZERO, ONE, ExtRat(2)])
            run.check(
                lambda v=nu, mm=m, f=g: pb.integrate_measure(mm, f)
                == va.integrate(v, f)
                == va.integrate(mm.restriction(), f),
                "measure and valuation integrals agree",
            )
        else:
            run.check(
                lambda s=space, v=nu, mm=m: not sp.check_separation(s).is_T0
                and all(
                    mm.measure_of(u)
                    == v.value(mm.quotient_map.preimage(u))
                    for u in mm.space.opens
                ),
                "non-T0 input routes through the quotient with a marker",
            )


def _suite_p_product(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 14)
    for a, b in _space_pairs(cfg, min_points=1, max_points=3, max_opens=300):
        prod = sp.product(a, b)
        p = rand_prob(rng, cfg, a)
        q = rand_prob(rng, cfg, b)
        pq = pb.product_measure(p, q, prod).underlying
        run.check(
            lambda pp=p, qq=q, pr=prod, m=pq: va.pushforward(pr.proj1, m)
            == pp.underlying
            and va.pushforward(pr.proj2, m) == qq.underlying,
            "marginals of the product measure are the factors",
        )
        if sp.check_separation(a).is_T0 and sp.check_separation(b).is_T0:
            run.check(
                lambda pp=p, qq=q, m=pq: pb.extend_to_measure(m).point_weights
                == tuple(
                    wx * wy
                    for wx in pb.extend_to_measure(pp.underlying).point_weights
                    for wy in pb.extend_to_measure(qq.underlying).point_weights
                ),
                "extended product weights are pointwise products",
            )


def _supp_unit_law(space, valuations):
    return all(
        su.support(va.unit_delta(space, x)) == hy.unit_sigma(space, x)
        for x in range(space.n)
    )


def _suite_supp_unit(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 21)
    for space in _spaces(cfg):
        run.check_law(
            Counterexample(space, (), _supp_unit_law, "support unit square"),
            "support of a Dirac is the point closure",
        )
        run.check(
            lambda s=space: su.support(va.zero_valuation(s)).members == 0,
            "support of the zero valuation is empty",
        )
        nu = rand_valuation(rng, cfg, space)
        run.check(
            lambda v=nu: all(
                hy.hit(su.support(v), u) == sgn(v.value(u)) for u in v.space.opens
            ),
            "support hits exactly the opens of positive mass",
        )
        run.check(
            lambda v=nu: su.support(v)
            == hy.closed_of_functional(
                hy.HitFunctional(v.space, tuple(sgn(x) for x in v.table))
            ),
            "support agrees with the sign route through the duality",
        )


def _supp_mult_law(space, valuations):
    if not valuations:
        return True
    xi = va.SimpleSecondOrder(space, tuple((ONE, v) for v in valuations))
    return su.check_monad_morphism(space, [xi]).ok


def _suite_supp_mult(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 15)
    for space in _spaces(cfg):
        xis = [rand_sso(rng, cfg, space) for _ in range(3)] if space.n else []
        run.check(
            lambda s=space, x=xis: su.check_monad_morphism(s, x).ok,
            "unit and multiplication squares of the monad morphism",
        )
        if space.n:
            vals = [rand_valuation(rng, cfg, space) for _ in range(2)]
            cex = Counterexample(
                space,
                tuple(v.weights for v in vals),
                _supp_mult_law,
                "support multiplication square",
            )
            run.check_law(cex, "multiplication square on a unit-weight mixture")


def _suite_supp_natural(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 16)
    for a, b in _space_pairs(cfg):
        f = rand_map(rng, a, b)
        if f is None:
            continue
        for _ in range(3):
            nu = rand_valuation(rng, cfg, a)
            run.check(
                lambda g=f, v=nu: su.check_supp_naturality(g, v).ok,
                "support naturality square",
            )
        run.check(
            lambda s=a: su.check_supp_naturality(
                sp.identity_map(s), rand_valuation(rng, cfg, s)
            ).ok,
            "naturality along the identity",
        )


def _suite_supp_monoidal(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 17)
    for space in _spaces(cfg):
        vals = [rand_valuation(rng, cfg, space) for _ in range(4)]
        run.check(
            lambda s=space, vs=vals: su.check_supp_continuity(s, vs).ok,
            "support preimages of Hit opens are subbasic",
        )
        if space.n:
            g = rand_lsc(rng, cfg, space)
            run.check(
                lambda v=vals[0], f=g: su.support_test_lsc(v, f)
                == hy.hit(su.support(v), f.upper_level(ZERO)),
                "integral sign test against the support",
            )
        nu, rho = vals[0], vals[1]
        le = all(x <= y for x, y in zip(nu.table, rho.table))
        if le:
            run.check(
                lambda v=nu, r=rho: su.support(v).members
                & ~su.support(r).members
                == 0,
                "support is monotone in the valuation order",
            )
        if not nu.mass.is_infinite:
            m = pb.extend_to_measure(nu)
            run.check(
                lambda mm=m: mm.measure_of(su.support_of_measure(mm).members)
                == mm.total,
                "the support has full measure",
            )
            run.check(
                lambda mm=m: su.support_of_measure(mm)
                == su.support(mm.restriction())
                and su.support_of_measure(mm).members
                == least_closed_of_full_measure(mm),
                "the measure's support is the support of its restriction",
            )
    for a, b in _space_pairs(cfg, max_points=3, max_opens=300):
        prod = sp.product(a, b)
        nu = rand_valuation(rng, cfg, a)
        rho = rand_valuation(rng, cfg, b)
        run.check(
            lambda p=prod, v=nu, r=rho: su.check_supp_monoidal(p, v, r).ok,
            "strength, monoidal, and marginal squares of the support",
        )


def _suite_algebra_transfer(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 18)
    w = sp.w_lattice()
    if w.n <= cfg.max_points:
        joins = hy.join_algebra_map(w)
        xis = [rand_sso(rng, cfg, w) for _ in range(5)]
        report = su.induced_V_algebra(w, joins, xis)
        run.check(lambda r=report: r.ok, "diamond lattice transfers to a cone")
        bottom = w.index("0")
        top = w.index("t")
        x, y = w.index("x"), w.index("y")
        run.check(
            lambda r=report: r.add_table[x][y] == top
            and r.zero_element == bottom
            and r.smul_table[r.smul_grid.index(ExtRat(2))][x] == x
            and r.smul_table[r.smul_grid.index(ZERO)][x] == bottom,
            "cone operations are join, bottom, and trivial scaling",
        )
    for space in _spaces(cfg, max_points=min(cfg.max_points, 3)):
        joins = hy.join_algebra_map(space)
        if joins is None:
            continue
        verdict = hy.check_H_algebra(space, joins)
        if not verdict.is_algebra:
            continue
        xis = [rand_sso(rng, cfg, space) for _ in range(3)] if space.n else []
        run.check(
            lambda s=space, t=joins, x=xis: su.induced_V_algebra(s, t, x).ok,
            "induced valuation algebra satisfies the cone axioms",
        )


def _suite_appendixA_2cells(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 19)
    for a, b in _space_pairs(cfg):
        f = rand_map(rng, a, b)
        g = rand_map(rng, a, b)
        if f is None or g is None:
            continue
        run.check(
            lambda ff=f, gg=g: sp.le_2cell(ff, gg)
            == all(ff.preimage(u) & ~gg.preimage(u) == 0 for u in ff.target.opens),
            "2-cell criteria agree",
        )
        run.check(
            lambda ff=f, gg=g: equivalence_criteria_agree(ff, gg),
            "is_equivalence agrees with bijective preimage lattices plus"
            " essential surjectivity",
        )
        le = sp.le_2cell(f, g)
        if le and a.n:
            c = rand_closed(rng, a)
            run.check(
                lambda ff=f, gg=g, cc=c: hy.push_closed(ff, cc).members
                & ~hy.push_closed(gg, cc).members
                == 0,
                "push respects 2-cells",
            )
            nu = rand_valuation(rng, cfg, a)
            run.check(
                lambda ff=f, gg=g, v=nu: all(
                    x <= y
                    for x, y in zip(
                        va.pushforward(ff, v).table, va.pushforward(gg, v).table
                    )
                ),
                "pushforward respects 2-cells",
            )
    for space in _spaces(cfg):
        run.check(
            lambda s=space: equivalence_with_witness(sp.identity_map(s)),
            "identities are equivalences",
        )
        run.check(
            lambda s=space: equivalence_with_witness(sp.kolmogorov_quotient(s)[1]),
            "the Kolmogorov quotient map is an equivalence",
        )
        run.check(
            lambda s=space: equivalence_criteria_agree(
                sp.identity_map(s), sp.kolmogorov_quotient(s)[1]
            ),
            "is_equivalence agrees with bijective preimage lattices plus"
            " essential surjectivity",
        )


def _suite_appendixC(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 20)
    for a, b in _space_pairs(cfg, max_points=3, max_opens=300):
        prod = sp.product(a, b)
        nu = rand_valuation(rng, cfg, a)
        rho = rand_valuation(rng, cfg, b)
        run.check(
            lambda p=prod, v=nu, r=rho: (
                lambda verdict: dict(verdict.checks)["strength square"]
                == (
                    dict(verdict.checks)["monoidal square"]
                    and dict(verdict.checks)["opmonoidal (marginal) square"]
                )
            )(su.check_supp_monoidal(p, v, r)),
            "strength square holds iff the monoidal squares hold",
        )


SUITES = {
    "h-monad": _suite_h_monad,
    "h-strength": _suite_h_strength,
    "h-algebra": _suite_h_algebra,
    "v-monad": _suite_v_monad,
    "v-strength": _suite_v_strength,
    "v-fubini": _suite_v_fubini,
    "v-duality": _suite_v_duality,
    "v-portmanteau": _suite_v_portmanteau,
    "p-submonad": _suite_p_submonad,
    "p-extension": _suite_p_extension,
    "p-product": _suite_p_product,
    "supp-unit": _suite_supp_unit,
    "supp-mult": _suite_supp_mult,
    "supp-natural": _suite_supp_natural,
    "supp-monoidal": _suite_supp_monoidal,
    "algebra-transfer": _suite_algebra_transfer,
    "topology-core": _suite_topology_core,
    "appendixA-2cells": _suite_appendixA_2cells,
    "appendixC-morphism-equivalence": _suite_appendixC,
}


def _execute(run: _Run) -> None:
    """Run run.suite into run; a raise outside any check is one failure."""
    try:
        SUITES[run.suite](run.cfg, run)
    except Exception as exc:
        run.instances += 1
        run.fail(
            run.instances - 1,
            f"suite aborted: {type(exc).__name__}: {exc}",
            None,
        )


def run_suite(name: str, cfg: GenConfig) -> SuiteReport:
    if name not in SUITES:
        raise UnknownSuite(name)
    run = _Run(name, cfg)
    start = time.monotonic()
    _execute(run)
    return SuiteReport(
        name, run.instances, tuple(run.failures), time.monotonic() - start
    )


def run_all(cfg: GenConfig) -> list[SuiteReport]:
    return [run_suite(name, cfg) for name in sorted(SUITES)]


# --- mutation harness ----------------------------------------------------------


def _mutant_push_closed(f, c):
    return hy.ClosedSet(f.target, f.image(c.members))


def _mutant_sigma(space, x):
    return hy.ClosedSet(space, 1 << x)


def _mutant_mult_union(hx, family):
    mask = family.members if isinstance(family, hy.ClosedSet) else int(family)
    acc = hx.base.full
    for i in sp.bits(mask):
        acc &= hx.members[i]
    return hy.ClosedSet(hx.base, hx.base.closure(acc))


def _mutant_sgn(value):
    return True


def _mutant_integrate(nu, g):
    if nu.space != g.space:
        raise ShapeMismatch("valuation and function live on different spaces")
    finite_values = sorted({v.frac for v in g.values if v.is_finite})
    total = ZERO
    prev = Fraction(0)
    for v in finite_values:
        if v == 0:
            continue
        total = total + ExtRat(v - prev) * nu.value(g.upper_level(ExtRat(v)))
        prev = v
    return total


def _mutant_mult_E(xi):
    weights = [ZERO] * xi.space.n
    for _, nu in xi.atoms:
        for x, w in enumerate(nu.weights):
            weights[x] = weights[x] + w
    return va.Valuation(xi.space, tuple(weights))


def _mutant_monus(a, b):
    return a + b


def _mutant_support(nu):
    null = 0
    for u, v in zip(nu.space.opens, nu.table):
        if not sgn(v):
            null |= u
    return hy.ClosedSet(nu.space, nu.space.closure(null))


def _mutant_closure(self, subset):
    if subset & ~self.full:
        raise ShapeMismatch("subset has bits outside the point set")
    acc = 0
    for x in sp.bits(subset):
        acc |= self.min_nbhd[x]
    return acc


def _mutant_extend(nu):
    if nu.mass.is_infinite:
        raise InfiniteMass("only finite-mass valuations extend to measures")
    space = nu.space
    if not sp.check_separation(space).is_T0:
        quotient, qmap = sp.kolmogorov_quotient(space)
        inner = _mutant_extend(va.pushforward(qmap, nu))
        return pb.FiniteMeasure(quotient, inner.point_weights, qmap)
    weights = tuple(nu.value(space.min_nbhd[x]) for x in range(space.n))
    return pb.FiniteMeasure(space, weights)


MUTATIONS = {
    "push-closed-no-closure": (hy, "push_closed", _mutant_push_closed),
    "sigma-no-closure": (hy, "unit_sigma", _mutant_sigma),
    "mult-union-intersection": (hy, "mult_union", _mutant_mult_union),
    "sgn-not-strict": (su, "sgn", _mutant_sgn),
    "integrate-strict-levels": (va, "integrate", _mutant_integrate),
    "mult-E-ignores-weights": (va, "mult_E", _mutant_mult_E),
    "inclusion-exclusion-all-plus": (va, "monus", _mutant_monus),
    "support-null-union": (su, "support", _mutant_support),
    "closure-up-set": (sp.FiniteSpace, "closure", _mutant_closure),
    "moebius-no-inversion": (pb, "extend_to_measure", _mutant_extend),
}

# mutation_detected runs the suites in order and stops at the first failing
# check, so the suite that catches a mutation earliest comes first.
DETECTING_SUITES = {
    "push-closed-no-closure": ("h-monad",),
    "sigma-no-closure": ("supp-unit", "h-monad"),
    "mult-union-intersection": ("h-monad",),
    "sgn-not-strict": ("supp-unit",),
    "integrate-strict-levels": ("v-monad",),
    "mult-E-ignores-weights": ("v-monad",),
    "inclusion-exclusion-all-plus": ("v-duality",),
    "support-null-union": ("supp-unit",),
    "closure-up-set": ("h-monad", "supp-unit"),
    "moebius-no-inversion": ("p-extension",),
}


@contextlib.contextmanager
def _patched(holder, attr: str, value):
    """Set holder.attr to value, restoring the original on exit."""
    original = getattr(holder, attr)
    setattr(holder, attr, value)
    try:
        yield
    finally:
        setattr(holder, attr, original)


def _mutation(name: str):
    if name not in MUTATIONS:
        raise UnknownSuite(f"unknown mutation {name}")
    return MUTATIONS[name]


def run_with_mutation(name: str, cfg: GenConfig, suites=None) -> list[SuiteReport]:
    """Re-run the detecting suites with one semantic bug patched in.

    Each report is complete: every failure, its replay line and its shrunk
    counterexample.
    """
    holder, attr, mutant = _mutation(name)
    if suites is None:
        suites = DETECTING_SUITES[name]
    with _patched(holder, attr, mutant):
        return [run_suite(suite, cfg) for suite in suites]


def mutation_detected(name: str, cfg: GenConfig) -> bool:
    """Whether some detecting suite fails with the mutation patched in.

    Detection ends at the first failing check (or suite abort): it builds
    no report, shrinks nothing, and runs no later check or suite.  It gives
    the verdict of any(not r.ok for r in run_with_mutation(name, cfg)),
    which gives the full reports.
    """
    holder, attr, mutant = _mutation(name)
    with _patched(holder, attr, mutant):
        try:
            for suite in DETECTING_SUITES[name]:
                _execute(_DetectingRun(suite, cfg))
        except _Detected:
            return True
    return False
