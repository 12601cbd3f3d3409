"""Seeded generators, law suites, counterexample shrinking, and mutation
sensitivity checks.

Every suite draws its instances from deterministic streams seeded by a
GenConfig, so identical configurations replay identical checks.  No verdict
of the code under test gates a run: a suite never skips an instance, or
stops, because a library function judged it unfit, so a mutant fails a
check instead of shrinking the run.  Three rules keep a run cheap, the
first two a run that ends early (mutation_detected), the third one that
runs several suites on one configuration (run_all):

  - streams are drawn lazily: _spaces and _space_pairs are iterators, so a
    run builds a space only when it checks one;
  - fixed witnesses come before random instances: a suite checks the
    canned cases that draw nothing from an RNG first, ahead of its loops
    over the streams;
  - a configuration's stream, with the products and hyperspaces of its
    spaces, is drawn once per process and shared by the suites run on it:
    only the last (seed, max_points) stream is held, and patching a
    mutation in or out drops it, so nothing built under a mutant reaches a
    clean run, or the reverse.

Each mutation is caught by a canned witness at the head of its first
detecting suite, at its first or second check, before any space is drawn
from the stream, corpus or random: push-closed-no-closure, closure-up-set
and mult-union-intersection in h-monad; sigma-no-closure, sgn-not-strict
and support-null-union in supp-unit, on Sierpinski space; the others in
v-monad, v-duality and p-extension.  So what a detection costs does not
depend on the seed.

A check is a closure over the names of its suite, called at once by
_Run.check, and it passes only when it returns True: a verdict of None (a
law that forgot its return), 0 or [] fails, as a raise does.  A failing
Counterexample is shrunk by one rule: the first instance one step simpler
(a point dropped, else a weight made simpler) that is smaller by size()
and fails the same way replaces it, until none does.

The library computes each operation by one route.  Second routes, such as
hit identities, integral forms, the layer-cake integral, the double-dual
side of V's multiplication, the product table by modularity over the
opens, both composites of the commutativity squares of H and V built from
strength and multiplication, the pairwise validity scan of a table, the
integral sign test of the support, the monotone test functions, the scan
for the least closed set of full measure, the rectangle-generated product
topology, the lower Vietoris topology generated by the Hit sets, the
pairwise closure scan of an open family, the sobriety scan, continuity by
preimages, equivalence by preimage lattices and the soundness check of a
Portmanteau certificate, live here as oracles, each compared in a named
law of the suite that owns the operation.

The structural laws that H and V share are written once, over a Monad
record with the two instances H and V: the unit laws, associativity, the
naturality of unit and multiplication, the strength diagrams for unit,
multiplication, unitor and associator, the costrength through the symmetry,
and the composites of the commutativity square.  A record's fields look up
the public functions (unit_sigma, mult_union, mult_E, pushforward, ...)
when a law calls them, not when the record is built, so a mutation patched
into a module is seen by every law that uses it.

The squares that make the support a morphism of monads V -> H are laws
over the same records, for the same reason: a function bound when its
module is imported keeps the original after a mutation is patched in, so
a square that used it would not see the mutant.  So is the paper's
corollary, that every H-algebra is a V-algebra: h_algebra checks the
algebra diagrams of a table HA -> A, join_characterization compares them
with the topological complete join-semilattices, and transfer_laws checks
that e = a after support is a V-algebra whose cone operations form a
semimodule.

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
                                 (valuations.monus)
  8. support-null-union          support returns the null set, not its complement
  9. closure-up-set              closure computes the up-set
 10. moebius-no-inversion        measure extension weighs a point by its
                                 neighborhood's mass
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import operator
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from . import hyperspace as hy
from . import probability as pb
from . import spaces as sp
from . import support as su
from . import valuations as va
from .errors import (
    InfiniteMass,
    InvalidValue,
    NotAFailure,
    NotATopology,
    NotLowerSemicontinuous,
    NotModular,
    NotMonotone,
    NotStrict,
    PreconditionFailed,
    ShapeMismatch,
    UnknownSuite,
)
from .extrat import ExtRat, INF, ONE, ZERO, ext, ratio, sgn


@dataclass(frozen=True)
class GenConfig:
    seed: int = 42
    max_points: int = 4
    instance_count: int = 60
    weight_denominator_bound: int = 16
    allow_infinity: bool = True

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise InvalidValue(f"seed must be an int, not {self.seed!r}")
        for name, least in (
            ("max_points", 0), ("instance_count", 1), ("weight_denominator_bound", 1)
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise InvalidValue(f"{name} must be an int >= {least}, not {value!r}")
        if type(self.allow_infinity) is not bool:
            raise InvalidValue(f"allow_infinity must be a bool, not {self.allow_infinity!r}")


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
    capped: tuple[tuple[str, int], ...] = ()  # (budget, instances over it)

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
    up = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.3:
                up[i] |= 1 << j
    # Warshall on bit masks: whatever holds k reaches all that k reaches
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return sp.FiniteSpace(tuple(f"p{i}" for i in range(n)), tuple(up))


def generate_space(cfg: GenConfig):
    """Deterministic stream: the canned corpus, then random preorders."""
    yield from _corpus(cfg.max_points)
    rng = random.Random(cfg.seed)
    while True:
        yield _random_space(rng, cfg.max_points)


class _Stream:
    """The spaces of one configuration's stream drawn so far, and the
    products and hyperspaces of those spaces built so far.

    Iterating draws from generate_space(cfg) only past the spaces already
    drawn, so iterators over one stream may be advanced in any order."""

    def __init__(self, cfg: GenConfig):
        self.key = (cfg.seed, cfg.max_points)
        self._source = generate_space(cfg)
        self._drawn: list[sp.FiniteSpace] = []
        # position of each drawn space by id; the list keeps the spaces
        # alive, so no other object shares an id with one of them
        self._position: dict[int, int] = {}
        self._products: dict[tuple[int, int], sp.Product] = {}
        self._hyperspaces: dict[int, hy.Hyperspace] = {}

    def __iter__(self):
        for i in itertools.count():
            if i == len(self._drawn):
                space = next(self._source)
                self._position[id(space)] = i
                self._drawn.append(space)
            yield self._drawn[i]

    def product(self, a: sp.FiniteSpace, b: sp.FiniteSpace) -> sp.Product:
        """sp.product(a, b) of two spaces of this stream, built once."""
        key = (self._position[id(a)], self._position[id(b)])
        if key not in self._products:
            self._products[key] = sp.product(a, b)
        return self._products[key]

    def hyperspace(self, space: sp.FiniteSpace) -> hy.Hyperspace:
        """hy.build_hyperspace(space) of a space of this stream, built once."""
        key = self._position[id(space)]
        if key not in self._hyperspaces:
            self._hyperspaces[key] = hy.build_hyperspace(space)
        return self._hyperspaces[key]


_last_stream: _Stream | None = None


def _stream(cfg: GenConfig) -> _Stream:
    """The stream of cfg's (seed, max_points), shared with the last caller
    that asked for the same pair; asking for another pair drops it."""
    global _last_stream
    if _last_stream is None or _last_stream.key != (cfg.seed, cfg.max_points):
        _last_stream = _Stream(cfg)
    return _last_stream


def _drop_stream() -> None:
    global _last_stream
    _last_stream = None


def all_topologies(n: int) -> list[sp.FiniteSpace]:
    """All labeled topologies on n points; 29 for n = 3: each point's
    up-mask holds it and any set of the others, the first point's varying
    fastest, and `spaces._intransitive` passes the preorders among them."""
    names = tuple("abcdef"[i] for i in range(n))
    choices = []
    for i in range(n):
        others = [1 << j for j in range(n) if j != i]
        choices.append(
            [1 << i | sum(b for k, b in enumerate(others) if s >> k & 1) for s in range(1 << n - 1)]
        )
    out = []
    for ups in itertools.product(*reversed(choices)):
        if sp._intransitive(ups[::-1]) is None:
            out.append(sp.FiniteSpace(names, ups[::-1]))
    return out


# the largest weight_denominator_bound whose draws come from `_rationals`
_TABLE_BOUND = 64


@functools.lru_cache(maxsize=8)
def _rationals(bound: int, lo: int) -> tuple[tuple[ExtRat, ...], ...]:
    """Per denominator den from 1 to bound, the row num/den for num from lo
    to 2 * den: at most 4,224 values at bound 64."""
    return tuple(
        tuple(ratio(num, den) for num in range(lo, 2 * den + 1))
        for den in range(1, bound + 1)
    )


def _rand_extrat(rng, cfg, allow_zero=True, allow_inf=None):
    """oo with probability 0.1 when allowed, else num/den for den drawn
    from 1 to the bound and num from 0 (or 1) to 2 * den.  Up to bound 64
    the two draws are choices from `_rationals`: `choice(seq)` consumes
    the stream as `randint(lo, lo + len(seq) - 1)` does, so the values
    are the same."""
    if allow_inf is None:
        allow_inf = cfg.allow_infinity
    if allow_inf and rng.random() < 0.1:
        return INF
    bound, lo = cfg.weight_denominator_bound, 0 if allow_zero else 1
    if bound <= _TABLE_BOUND:
        return rng.choice(rng.choice(_rationals(bound, lo)))
    den = rng.randint(1, bound)
    return ratio(rng.randint(lo, 2 * den), den)


def rand_valuation(rng, cfg, space) -> va.Valuation:
    return va.valuation_from_weights(
        space, tuple(_rand_extrat(rng, cfg) for _ in range(space.n))
    )


def rand_prob(rng, cfg, space) -> pb.ProbValuation:
    if space.n == 0:
        raise PreconditionFailed("no probability valuation on the empty space")
    raw = [rng.randint(0, cfg.weight_denominator_bound) for _ in range(space.n)]
    if sum(raw) == 0:
        raw[rng.randrange(space.n)] = 1
    total = sum(raw)
    weights = tuple(ratio(w, total) for w in raw)
    return pb.ProbValuation(space, weights)


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
                (ratio(c, total), rand_prob(rng, cfg, space))
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


def _rand_downset(rng, up_masks) -> int:
    """The down-closure of a random set of members, each drawn with
    probability 0.3: the members whose up-mask meets the drawn set."""
    drawn = 0
    for i in range(len(up_masks)):
        if rng.random() < 0.3:
            drawn |= 1 << i
    return sum(1 << j for j, up in enumerate(up_masks) if up & drawn)


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
    """How cex fails its law: None if the law returns True, False for any
    other verdict, or the type of the exception the law raises."""
    try:
        return None if cex.law(cex.space, cex.valuations()) is True else False
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


def _one_step_simpler(cex: Counterexample):
    """The instances one step simpler than cex: each point dropped, then
    each weight made simpler."""
    for x in range(cex.space.n):
        try:
            cand = _drop_point(cex, x)
        except (ShapeMismatch, NotATopology):  # what sp.subspace raises
            continue
        yield cand
    for i, wl in enumerate(cex.weight_lists):
        for j, w in enumerate(wl):
            for value in _simpler_weights(w):
                yield _set_weight(cex, i, j, value)


def shrink(cex: Counterexample) -> Counterexample:
    """Greedy minimization of a failing instance; idempotent.

    One rule: the first instance one step simpler that is smaller by size()
    and fails the way cex does, by a verdict other than True or by an
    exception of the same type, replaces it, until none does.  Dropping a
    point lowers the first entry of size(), so a failing drop always
    qualifies, and drops are listed first.  A shrink never walks from one
    failure to another.
    """
    failure = _failure(cex)
    if failure is None:
        raise NotAFailure("input does not fail the law")
    current = cex
    while True:
        size = current.size()
        smaller = (
            c for c in _one_step_simpler(current) if c.size() < size and _failure(c) is failure
        )
        step = next(smaller, None)
        if step is None:
            return current
        current = step


# --- suite machinery ----------------------------------------------------------


# The most cases a check may enumerate, for the checks that walk every case
# of something exponential in the points.  On an instance over a budget
# those checks are not run, every other check is, and the suite counts the
# instance in SuiteReport.capped.  No instance of 3 points reaches a budget.
BUDGETS = {
    "families of opens": 1 << 8,  # way_below_by_covers: 2 ** opens
    "assignments": 1 << 13,  # continuity_is_monotonicity: target.n ** source.n
    "tables": 1 << 15,  # count_valid_functional_tables: 2 ** (opens - 1)
    "opens of a hyperspace": 1 << 10,  # the closed families of h-monad
    "opens of a product": 1 << 13,  # the rectangle and Fubini oracles
}


class _Run:
    def __init__(self, suite: str, cfg: GenConfig):
        self.suite = suite
        self.cfg = cfg
        self.instances = 0
        self.failures: list[Failure] = []
        self.capped: dict[str, int] = {}
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
        if ok is not True:
            self.fail(index, message, cex)

    def within(self, budget: str, cost: int) -> bool:
        """cost is at most BUDGETS[budget]; if not, the instance is counted
        against the budget."""
        if cost <= BUDGETS[budget]:
            return True
        self.capped[budget] = self.capped.get(budget, 0) + 1
        return False

    def opens_within(self, budget: str, space: sp.FiniteSpace) -> bool:
        """within on the number of opens of space, listing no more than
        about twice the budget of them."""
        opens = sp.upsets_of_up_masks(space.n, space.min_nbhd, BUDGETS[budget])
        return self.within(budget, len(opens))

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


def _spaces(cfg, limit=None, min_points=0):
    """The first limit spaces of the stream with at least min_points
    points, drawn lazily; none if no space of the stream has that many."""
    if min_points > cfg.max_points:
        return iter(())
    limit = cfg.instance_count if limit is None else limit
    fitting = (s for s in _stream(cfg) if s.n >= min_points)
    return itertools.islice(fitting, limit)


def _space_pairs(cfg, min_points=0):
    """Up to instance_count pairs of neighbours among the first
    2 * instance_count spaces of _spaces."""
    spaces = _spaces(cfg, cfg.instance_count * 2, min_points)
    return itertools.islice(itertools.pairwise(spaces), cfg.instance_count)


# --- the structural laws of H and V, each written once ------------------------


@dataclass(frozen=True)
class Monad:
    """The structure of H or V that the structural laws are written over.

    one is the scalar one; terms(e) lists the (weight, point) pairs of an
    element with nonzero weight, by point; unit(space, x), push(f, e),
    strength(prod, x, e) and costrength(prod, e, y) are the monad's own.
    mult(where, mixture) multiplies a finite mixture of (scalar, element)
    pairs through the public multiplication, on where: HX for H, the space
    for V.  mix(space, mixture) forms the same mixture on any space, where
    for H no HX is built.  Each field looks the public function up when it runs, so a
    mutation patched into one is seen."""

    one: object
    terms: Callable
    unit: Callable
    push: Callable
    mult: Callable
    mix: Callable
    strength: Callable
    costrength: Callable


def _h_mult(hx: hy.Hyperspace, mixture) -> hy.ClosedSet:
    """mult_union on the closed family of HX that the mixture's members
    generate: the mask of their HX points, closed once.  The members are
    OR-ed, not summed: a closed set may occur twice."""
    points = 0
    for members in {e.members for c, e in mixture if c}:
        points |= 1 << hx.point_of(members)
    return hy.mult_union(hx, hy.closed_of_mask(hx.space, points))


def _h_mix(space: sp.FiniteSpace, mixture) -> hy.ClosedSet:
    """The closure of the union of the members."""
    union = 0
    for c, e in mixture:
        if c:
            union |= e.members
    return hy.closed_of_mask(space, union)


def _v_mult(space: sp.FiniteSpace, mixture) -> va.Valuation:
    return va.mult_E(va.SimpleSecondOrder(space, tuple(mixture)))


H = Monad(
    True,
    lambda c: [(True, x) for x in sp.bits(c.members)],
    lambda space, x: hy.unit_sigma(space, x),
    lambda f, c: hy.push_closed(f, c),
    _h_mult,
    _h_mix,
    lambda prod, x, c: hy.strength_H(prod, x, c),
    lambda prod, c, y: hy.costrength_H(prod, c, y),
)
V = Monad(
    ONE,
    lambda nu: [(w, x) for x, w in enumerate(nu.weights) if w],
    lambda space, x: va.unit_delta(space, x),
    lambda f, nu: va.pushforward(f, nu),
    _v_mult,
    _v_mult,
    lambda prod, x, nu: va.strength_V(prod, x, nu),
    lambda prod, nu, y: va.costrength_V(prod, nu, y),
)


def family_mixture(hx: hy.Hyperspace, family: int) -> list:
    """A closed family of HX, given by its mask of HX points, as the H
    mixture of its members."""
    return [(True, hx.closed_of(i)) for i in sp.bits(family)]


def h_tower(hx: hy.Hyperspace, hhx, xi: int):
    """A down-set xi of the closed families hhx of HX, an element of HHHX,
    as the inner mixtures and the tower that associativity takes."""
    return (lambda j: family_mixture(hx, hhx[j])), [(True, j) for j in sp.bits(xi)]


def left_unit(M: Monad, where, e) -> bool:
    """mult after the unit of MX is the identity."""
    return M.mult(where, [(M.one, e)]) == e


def right_unit(M: Monad, where, e) -> bool:
    """mult after M(unit) is the identity: e is the mixture of the units
    of its points, weighted by its weights."""
    units = [(w, M.unit(e.space, x)) for w, x in M.terms(e)]
    return M.mult(where, units) == e


def associativity(M: Monad, where, inner, tower, memo: dict) -> bool:
    """mult after mult_{MX} equals mult after M(mult) on the element
    sum_j w_j delta(inner(j)) of MMMX, given by its (w_j, j) pairs: the
    flattened tower multiplies to the mixture of the multiplied inner
    mixtures.  memo maps j to inner(j) and its multiplication, so the
    towers over one family of inner mixtures build and multiply each once.
    For H the scalars are bools, and w * c is their conjunction."""
    for _, j in tower:
        if j not in memo:
            mixture = inner(j)
            memo[j] = (mixture, M.mult(where, mixture))
    flat = M.mult(where, ((w * c, e) for w, j in tower for c, e in memo[j][0]))
    return flat == M.mult(where, [(w, memo[j][1]) for w, j in tower])


def unit_naturality(M: Monad, f: sp.ContinuousMap, x: int) -> bool:
    """M(f) after the unit is the unit after f."""
    return M.push(f, M.unit(f.source, x)) == M.unit(f.target, f(x))


def mult_naturality(M: Monad, f: sp.ContinuousMap, where_f, where_g, mixture) -> bool:
    """M(f) after mult equals mult after MM(f), on a mixture over f's
    source; where_f and where_g are where mult runs on its source and target."""
    left = M.push(f, M.mult(where_f, mixture))
    return left == M.mult(where_g, [(c, M.push(f, e)) for c, e in mixture])


def strength_unit(M: Monad, prod: sp.Product, x: int, y: int) -> bool:
    """The strength of a unit is the unit of the pair."""
    unit = M.unit(prod.space, prod.pair(x, y))
    return M.strength(prod, x, M.unit(prod.right, y)) == unit


def strength_mult(M: Monad, prod: sp.Product, x: int, where, mixture) -> bool:
    """Strength after multiplication equals multiplication after the
    strengths of the members."""
    left = M.strength(prod, x, M.mult(where, mixture))
    return left == M.mix(prod.space, [(c, M.strength(prod, x, e)) for c, e in mixture])


def strength_unitor(M: Monad, prod: sp.Product, x: int, e) -> bool:
    """X x M1 -> M(X x 1) -> MX sends (x, e) to e pushed along x: 1 -> X."""
    along_x = sp.constant_map(prod.right, prod.left, x)
    return M.push(prod.proj1, M.strength(prod, x, e)) == M.push(along_x, e)


def strength_associator(M: Monad, associator, x: int, y: int, e) -> bool:
    """The strength of a pair is the strength of x after that of y, through
    the associator; associator is what _associator returns."""
    pxy, pyz, pxy_z, px_yz, assoc = associator
    return M.push(assoc, M.strength(pxy_z, pxy.pair(x, y), e)) == M.strength(
        px_yz, x, M.strength(pyz, y, e)
    )


def costrength_symmetry(M: Monad, prod: sp.Product, prod_ba: sp.Product, x, e) -> bool:
    """t(e, x) on Y x X is s(x, e) on X x Y pushed through the symmetry."""
    swap = _swap_map(prod_ba, prod)
    return M.costrength(prod_ba, e, x) == M.push(swap, M.strength(prod, x, e))


def commutativity(M: Monad, prod: sp.Product, a, b, product) -> bool:
    """Both diagonal composites of the commutativity square, from the
    strengths and the multiplication, equal product: the mixture of the
    costrengths t(a, y) weighted by b, and that of the strengths s(x, b)
    weighted by a."""
    costrengths = [(w, M.costrength(prod, a, y)) for w, y in M.terms(b)]
    strengths = [(w, M.strength(prod, x, b)) for w, x in M.terms(a)]
    return product == M.mix(prod.space, costrengths) == M.mix(prod.space, strengths)


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


# --- the support squares: taking supports is a morphism of monads V -> H ------


def supp_unit(space: sp.FiniteSpace, x: int) -> bool:
    """The support of V's unit at x is H's unit, the closure of x."""
    return su.support(V.unit(space, x)) == H.unit(space, x)


def supp_mult(space: sp.FiniteSpace, hx: hy.Hyperspace, mixture) -> bool:
    """The support of V's multiplication of a mixture of (weight,
    valuation) pairs is H's multiplication, on hx = HX, of the mixture of
    the signs and supports.

    The right route composes the diagram through H(VX): the support of a
    molecular valuation on VX is the closure of its atom set, whose image
    under H(supp) is the down-closure in HX of the atom supports; the
    closure step only contributes subsets of the union, so the union map
    is evaluated on that down-closure, which is what H.mult takes."""
    left = su.support(V.mult(space, mixture))
    return left == H.mult(hx, [(sgn(c), su.support(nu)) for c, nu in mixture])


def supp_naturality(f: sp.ContinuousMap, nu: va.Valuation) -> bool:
    """The support of f_* nu is the image of the support of nu under H(f)."""
    return su.support(V.push(f, nu)) == H.push(f, su.support(nu))


def supp_strength(prod: sp.Product, x: int, rho: va.Valuation) -> bool:
    """The support of V's strength s(x, rho) is H's strength of supp rho."""
    return su.support(V.strength(prod, x, rho)) == H.strength(prod, x, su.support(rho))


def supp_monoidal(prod: sp.Product, nu, rho, product: va.Valuation) -> bool:
    """The support of the product valuation, given as product, is the
    product of the supports."""
    right = hy.product_closed(prod, su.support(nu), su.support(rho))
    return su.support(product) == right


def supp_hits_positive_mass(nu: va.Valuation) -> bool:
    """The support hits exactly the opens of positive mass.  The sign is
    extrat's own, not the name in support that sgn-not-strict patches, so
    the support is compared with the true sign."""
    c = su.support(nu)
    return all(hy.hit(c, u) == sgn(nu.value(u)) for u in nu.space.opens)


def supp_product_squares(prod: sp.Product, nu, rho) -> tuple[bool, bool]:
    """The strength squares at every point of the left factor, and the
    monoidal square with the marginal squares (naturality along both
    projections) of the product valuation."""
    product = va.product_valuation(nu, rho, prod)
    strength = all(supp_strength(prod, x, rho) for x in range(prod.left.n))
    marginals = [supp_naturality(proj, product) for proj in (prod.proj1, prod.proj2)]
    return strength, supp_monoidal(prod, nu, rho, product) and all(marginals)


# --- algebras: H-algebras, and their transfer along the support to V ---------


def _algebra_table(space: sp.FiniteSpace, hx: hy.Hyperspace, table) -> tuple[int, ...]:
    """The table, after checking that hx is HA for A = space and that the
    table sends each point of HA to a point of A."""
    if hx.base != space:
        raise ShapeMismatch("hx is not the hyperspace of the space")
    if len(table) != len(hx.members):
        raise ShapeMismatch("the table is not a table on the points of HA")
    for y in table:
        space.require_point(y)
    return tuple(table)


def _is_continuous(source: sp.FiniteSpace, target: sp.FiniteSpace, table) -> bool:
    try:
        sp.ContinuousMap(source, target, tuple(table))
    except NotATopology:
        return False
    return True


def h_algebra(space: sp.FiniteSpace, hx: hy.Hyperspace, table) -> bool:
    """The table a : HA -> A on the points of hx = HA is an H-algebra: a
    after the unit is the identity, a after the union map equals a after
    H(a) on every closed family of HA, and a is continuous.  H(a) sends a
    family to the closure of its image under a; the image is OR-ed, not
    summed, since two members may share a value.  The diagrams come first,
    so a mutant unit or union map is called on every table."""
    a = _algebra_table(space, hx, table)
    if any(a[hx.point_of(H.unit(space, x).members)] != x for x in range(space.n)):
        return False
    for family in hx.space.closed_sets():
        image = 0
        for i in sp.bits(family):
            image |= 1 << a[i]
        via_mult = a[hx.point_of(hy.mult_union(hx, family).members)]
        if via_mult != a[hx.point_of(space.closure(image))]:
            return False
    return _is_continuous(hx.space, space, a)


def join_continuity(space: sp.FiniteSpace, hx: hy.Hyperspace, joins) -> tuple[bool, bool]:
    """Whether the binary-join map A x A -> A and the closed-join map
    HA -> A are continuous, on a space A where every closed set, and so
    every pair, has a join; hx is HA, and joins is the closed-join table
    `hy.join_algebra_map(space)` on its points."""
    pair_join = [
        joins[hx.point_of(space.closure(1 << x | 1 << y))]
        for x in range(space.n)
        for y in range(space.n)
    ]
    square = sp.product(space, space).space
    return _is_continuous(square, space, pair_join), _is_continuous(hx.space, space, joins)


def join_characterization(space: sp.FiniteSpace, hx: hy.Hyperspace, table) -> bool:
    """A is a topological complete join-semilattice and the table is its
    join map: A is T0 and sober, every closed set has a join, the
    closed-join and binary-join maps are continuous, and the table is the
    closed-join map on the points of hx = HA."""
    a = _algebra_table(space, hx, table)
    joins = hy.join_algebra_map(space)
    if joins is None or tuple(joins) != a:
        return False
    sep = sp.check_separation(space)
    return sep.is_T0 and sep.is_sober and all(join_continuity(space, hx, joins))


SCALAR_GRID = (ZERO, ext("1/2"), ONE, ExtRat(2), ext("7/3"))


def cone_value(space: sp.FiniteSpace, table, pairs) -> int:
    """e(sum of c * delta_x over the (c, x) pairs), for the induced map
    e = su.algebra_evaluate(space, table, .); the sum is V's
    multiplication of the mixture of units, and a zero c drops its term."""
    mixture = [(c, V.unit(space, x)) for c, x in pairs if c]
    return su.algebra_evaluate(space, table, V.mult(space, mixture))


def transfer_laws(space: sp.FiniteSpace, table, xis) -> bool:
    """For an H-algebra table a, e = a after support is a V-algebra:
    e(delta_x) = x, and e after mult equals e after V(e) on each molecular
    xi, where V(e) sends each atom nu to the unit at e(nu).  Its cone
    operations x + y = e(delta_x + delta_y), r.x = e(r delta_x) and
    0 = e(0) satisfy the semimodule axioms on SCALAR_GRID, and r.x is
    monotone in r within the specialization order.  Each unit is built
    once per call, and the cone mixtures are built from those units."""
    xis = space.require_here(*xis)
    points = range(space.n)
    units = [V.unit(space, x) for x in points]
    memo = {}

    def e(nu) -> int:
        return su.algebra_evaluate(space, table, nu)

    def cone(*pairs) -> int:
        if pairs not in memo:
            memo[pairs] = e(V.mult(space, [(c, units[x]) for c, x in pairs if c]))
        return memo[pairs]

    if any(e(units[x]) != x for x in points):
        return False
    for xi in xis:
        if e(V.mult(space, xi.atoms)) != cone(*((c, e(nu)) for c, nu in xi.atoms)):
            return False
    add = [[cone((ONE, x), (ONE, y)) for y in points] for x in points]
    smul = [[cone((r, x)) for x in points] for r in SCALAR_GRID]
    zero = cone()
    if any(add[x][zero] != x or add[zero][x] != x for x in points):
        return False
    pairs = list(itertools.product(points, repeat=2))
    if any(add[x][y] != add[y][x] for x, y in pairs):
        return False
    if any(add[add[x][y]][z] != add[x][add[y][z]] for x, y in pairs for z in points):
        return False
    for r, r_x in zip(SCALAR_GRID, smul):
        if r == ZERO and any(r_x[x] != zero for x in points):
            return False
        if r == ONE and any(r_x[x] != x for x in points):
            return False
        if any(r_x[add[x][y]] != add[r_x[x]][r_x[y]] for x, y in pairs):
            return False
        for s, s_x in zip(SCALAR_GRID, smul):
            if r * s in SCALAR_GRID:
                rs_x = smul[SCALAR_GRID.index(r * s)]
                if any(rs_x[x] != r_x[s_x[x]] for x in points):
                    return False
            if any(cone((r + s, x)) != add[r_x[x]][s_x[x]] for x in points):
                return False
            if r <= s and not all(space.leq(r_x[x], s_x[x]) for x in points):
                return False
    return True


def duality_is_order_isomorphism(space: sp.FiniteSpace, closed) -> bool:
    """c is contained in d exactly when the hit table of c is below that
    of d, on every pair of the closed sets; each closed set's hit table is
    built once, when a pair first needs it."""
    tables: dict[int, tuple] = {}

    def table(c: int) -> tuple:
        if c not in tables:
            tables[c] = hy.functional_of_closed(hy.ClosedSet(space, c)).table
        return tables[c]

    return all(
        (c & ~d == 0) == all(x <= y for x, y in zip(table(c), table(d)))
        for c in closed
        for d in closed
    )


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


def _closure_under(op, seeds, generators) -> set[int]:
    """The least family holding seeds and closed under op with each generator."""
    family = set(seeds)
    frontier = set(family)
    while frontier:
        frontier = {op(a, b) for a in frontier for b in generators} - family
        family |= frontier
    return family


def rectangle_topology(prod: sp.Product) -> set[int]:
    """Topology generated from rectangles U x V, by closing under union.

    Rectangles are intersection-closed, so finite unions of rectangles are
    already the generated topology.
    """
    base = {
        prod.rectangle(u, v) for u in prod.left.opens for v in prod.right.opens
    }
    return _closure_under(operator.or_, base, base)


def vietoris_topology(hx: hy.Hyperspace) -> set[int]:
    """Topology generated by the subbasis {Hit(U) : U open}, via closure
    under pairwise intersection then pairwise union."""
    subbasis = {hx.hit_mask(u) for u in hx.base.opens}
    basis = _closure_under(operator.and_, {hx.space.full} | subbasis, subbasis)
    return _closure_under(operator.or_, {0} | basis, basis)


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
    return all(
        _is_continuous(source, target, assignment)
        == continuity_by_preimages(source, target, assignment)
        for assignment in itertools.product(range(target.n), repeat=source.n)
    )


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


def h_union_hits(hx: hy.Hyperspace, families) -> bool:
    """The union of each closed family hits U iff some member does."""
    hit_masks = [(u, hx.hit_mask(u)) for u in hx.base.opens]
    for family in families:
        union = hy.mult_union(hx, hy.ClosedSet(hx.space, family))
        if not all(hy.hit(union, u) == bool(family & hits) for u, hits in hit_masks):
            return False
    return True


def h_rectangle_hits(prod: sp.Product, e: hy.ClosedSet, c, d) -> bool:
    """E hits U x V iff C hits U and D hits V, for all opens U and V.  With
    C = sigma(x) this is the strength law, since x is in U iff sigma(x)
    hits U."""
    return all(
        hy.hit(e, prod.rectangle(u, v)) == (hy.hit(c, u) and hy.hit(d, v))
        for u in prod.left.opens
        for v in prod.right.opens
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


def pairing_with_evaluation(xi: va.SimpleSecondOrder, g: va.LowerSemiFn) -> ExtRat:
    """<xi, nu -> <nu, g>>, the other side of the multiplication identity:
    the double-dual form of V's multiplication, the sum of c * <nu, g> over
    the atoms, with no loop of `valuations`."""
    return sum([c * va.integrate(nu, g) for c, nu in xi.atoms], ZERO)


def inclusion_exclusion_product(
    prod: sp.Product, nu: va.Valuation, rho: va.Valuation
) -> tuple[ExtRat, ...]:
    """The table of the product valuation from the factors' tables alone,
    by binary modularity along the opens in ascending order, where every
    proper subset of an open comes before it.

    An open W holds a point p with nothing of W strictly below it: a point
    of the first layer that meets W, the layers grouping the points by the
    size of their least neighbourhoods, largest first (a point strictly
    below p has a larger one).  W' = W minus p's class is then open, and W
    is the union of W' and the least neighbourhood R = U x V of p, so
        value(W) = value(W') + nu(U) * rho(V) - value(W' & R),
    or oo when value(W') or the rectangle's value is oo; otherwise every
    term is finite.  This is the modularity law that inclusion-exclusion
    applies, one rectangle at a time: an open costs a constant number of
    lookups and ExtRat steps, after at most one step per layer to find p.
    """
    left, right, space = prod.left, prod.right, prod.space
    nu_of = dict(zip(left.opens, nu.table))
    rho_of = dict(zip(right.opens, rho.table))
    rectangle = [nu_of[u] * rho_of[v] for u in left.min_nbhd for v in right.min_nbhd]
    by_size: dict[int, int] = {}
    for p, up in enumerate(space.min_nbhd):
        size = sp.popcount(up)
        by_size[size] = by_size.get(size, 0) | 1 << p
    layers = [by_size[size] for size in sorted(by_size, reverse=True)]
    value = {0: ZERO}
    for w in space.opens[1:]:  # opens[0] is the empty set
        for layer in layers:
            lowest = w & layer  # the points of W in the lowest layer it meets
            if lowest:
                break
        p = (lowest & -lowest).bit_length() - 1
        rest = w & ~space.classes[p]
        if value[rest].is_infinite or rectangle[p].is_infinite:
            value[w] = INF
        else:
            value[w] = value[rest] + rectangle[p] - value[rest & space.min_nbhd[p]]
    return tuple([value[w] for w in space.opens])


def _layer_cake(value, ids, scale) -> ExtRat:
    """<nu, g> by layer-cake, for g(x) = scale[ids[x]] with scale
    ascending and value = nu.value: the sum of (v_i - v_{i-1}) *
    nu({g >= v_i}) over the distinct finite nonzero values v_1 < v_2 < ...
    of g (v_0 = 0), plus oo * nu({g = oo}) if g takes the value oo.  Each
    level is read through value, which checks that it is open."""
    by_id: dict[int, int] = {}
    for x, i in enumerate(ids):
        by_id[i] = by_id.get(i, 0) | 1 << x
    total = prev = ZERO
    below = 0  # {g < v}
    everything = (1 << len(ids)) - 1
    for i in sorted(by_id):
        v = scale[i]
        if v.is_infinite:
            return total + INF * value(by_id[i])
        if v:
            total = total + (v - prev) * value(everything & ~below)
            prev = v
        below |= by_id[i]
    return total


def _ranked(values) -> tuple[tuple[int, ...], list[ExtRat]]:
    """The values as (ids, scale) for _layer_cake: scale lists the
    distinct values ascending, and values[x] == scale[ids[x]]."""
    scale = sorted(set(values))
    rank = {v: i for i, v in enumerate(scale)}
    return tuple(rank[v] for v in values), scale


def layer_cake_integral(nu: va.Valuation, g: va.LowerSemiFn) -> ExtRat:
    """<nu, g> from the table of nu, by layer-cake over g's values: the
    body of the Fubini oracles, `_layer_cake`, on g's values ranked."""
    return _layer_cake(nu.value, *_ranked(g.values))


def iterated_integrals(prod: sp.Product, nu, rho, f) -> tuple[ExtRat, ExtRat]:
    """<nu, x -> <rho, f(x, -)>> and <rho, y -> <nu, f(-, y)>> for a
    function f on the points of the product, each by layer-cake on the
    tuples of values of the sections and of the inner integrals."""
    m = prod.right.n
    values = [f(p) for p in range(prod.space.n)]
    inner_x = [
        _layer_cake(rho.value, *_ranked(values[x * m:x * m + m]))
        for x in range(prod.left.n)
    ]
    inner_y = [_layer_cake(nu.value, *_ranked(values[y::m])) for y in range(m)]
    return (
        _layer_cake(nu.value, *_ranked(inner_x)),
        _layer_cake(rho.value, *_ranked(inner_y)),
    )


def _read_once(valuation: va.Valuation):
    """valuation.value, reading each distinct level once: each is checked
    open on its first read."""
    values: dict[int, ExtRat] = {}

    def value(level: int) -> ExtRat:
        if level not in values:
            values[level] = valuation.value(level)
        return values[level]

    return value


def _section_ids(value, space: sp.FiniteSpace):
    """Per open U of space, the id of the integral of its indicator, by
    layer-cake, among the distinct such integrals ascending; and those
    integrals, the scale of the ids."""
    integrals = [
        _layer_cake(value, tuple(u >> x & 1 for x in range(space.n)), (ZERO, ONE))
        for u in space.opens
    ]
    ids, scale = _ranked(integrals)
    return dict(zip(space.opens, ids)), scale


def open_iterated_integrals(prod: sp.Product, nu, rho):
    """iterated_integrals of the indicator of each open W of the product, in
    the order of prod.space.opens, one pair at a time.

    At x the inner integrand is the indicator of the section
    W_x = {y : (x, y) in W}, an open of the right factor, and at y that of
    W^y = {x : (x, y) in W}, an open of the left one.  Each open of a
    factor has its inner integral taken once, by layer-cake, and an id
    among the distinct values of those integrals in ascending order, so an
    outer integrand is the tuple of its sections' ids; each distinct one is
    integrated once per call, by layer-cake on those ids.  The levels of
    every integral on a side are opens of its factor, each read once."""
    left, right = prod.left, prod.right
    m, row = right.n, right.full
    nu_value, rho_value = _read_once(nu), _read_once(rho)
    right_ids, right_scale = _section_ids(rho_value, right)
    left_ids, left_scale = _section_ids(nu_value, left)
    # the section W^y is w >> y & column, the bit of (x, y) moved to the
    # start of row x, so the left opens are keyed in that spread form
    column = sum(1 << x * m for x in range(left.n))
    left_ids = {sum(1 << x * m for x in sp.bits(u)): i for u, i in left_ids.items()}
    outer_left: dict[tuple[int, ...], ExtRat] = {}
    outer_right: dict[tuple[int, ...], ExtRat] = {}
    for w in prod.space.opens:
        inner_x = tuple([right_ids[w >> x * m & row] for x in range(left.n)])
        inner_y = tuple([left_ids[w >> y & column] for y in range(m)])
        if inner_x not in outer_left:
            outer_left[inner_x] = _layer_cake(nu_value, inner_x, right_scale)
        if inner_y not in outer_right:
            outer_right[inner_y] = _layer_cake(rho_value, inner_y, left_scale)
        yield outer_left[inner_x], outer_right[inner_y]


def fubini_square(prod: sp.Product, nu: va.Valuation, rho: va.Valuation) -> bool:
    """The product valuation equals both molecular composites and the
    table by modularity from the factors' tables, and on every open W both
    iterated integrals of the indicator of W."""
    pv = va.product_valuation(nu, rho, prod)
    return (
        commutativity(V, prod, nu, rho, pv)
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


def monotone_functions(space: sp.FiniteSpace):
    """All monotone functions into {0, 1, 2}, in lexicographic order of
    their values."""
    values = [ExtRat(k) for k in range(3)]
    prefixes = [()]
    for x in range(space.n):  # the prefixes monotone on the points before x
        below = [y for y in range(x) if space.leq(y, x)]
        above = [y for y in range(x) if space.leq(x, y)]
        prefixes = [
            p + (v,)
            for p in prefixes
            for v in values
            if all(p[y] <= v for y in below) and all(v <= p[y] for y in above)
        ]
    return (va.LowerSemiFn(space, p) for p in prefixes)


def integral_order_le(nu: va.Valuation, rho: va.Valuation) -> bool:
    """<nu, g> <= <rho, g> for every monotone g valued in {0, 1, 2}, a family
    that contains every indicator of an open."""
    return all(
        va.integrate(nu, g) <= va.integrate(rho, g)
        for g in monotone_functions(nu.space)
    )


def certificate_is_sound(f: va.LowerSemiFn, r, cert, nu: va.Valuation | None = None) -> bool:
    """A Portmanteau certificate [(c_i, U_i, r_i)] is sound: sum c_i 1_{U_i}
    <= f, each r_i is finite, nonnegative and, when nu is given, below
    nu(U_i), and sum c_i r_i > r.  Then the intersection of the
    theta(U_i, r_i), which holds nu, lies in Theta(f, r)."""
    r = ext(r)
    space = f.space
    if nu is not None:
        space.require_here(nu)
    for _, u, _ in cert:
        space.require_open(u)
    for x in range(space.n):
        if sum((ext(c) for c, u, _ in cert if u >> x & 1), ZERO) > f(x):
            return False
    weighted = ZERO
    for c, u, ri in cert:
        ri = ext(ri)
        if ri < ZERO or ri.is_infinite or (nu is not None and not nu.value(u) > ri):
            return False
        weighted = weighted + ext(c) * ri
    return weighted > r


def least_closed_of_full_measure(m: pb.FiniteMeasure) -> int:
    """The intersection of all closed sets of full measure, scanned."""
    acc = m.space.full
    for c in m.space.closed_sets():
        if m.measure_of(c) == m.mass:
            acc &= c
    return acc


def support_test_lsc(nu: va.Valuation, g: va.LowerSemiFn) -> bool:
    """sgn<nu, g>; equals whether the support hits {g > 0}."""
    nu.space.require_here(g)
    return su.sgn(va.integrate(nu, g))


def mixture_of_measures_agrees(xi: va.SimpleSecondOrder) -> bool:
    """The extension of mult_E_measure(xi) equals the mixture of the
    extended atom measures on every subset."""
    extended = [(c, pb.extend_to_measure(nu)) for c, nu in xi.atoms]
    result = pb.extend_to_measure(pb.mult_E_measure(xi))
    return all(m.space == result.space for _, m in extended) and all(
        sum((c * m.measure_of(subset) for c, m in extended), ZERO)
        == result.measure_of(subset)
        for subset in range(1 << result.space.n)
    )


def p_subbasis_restricts(p: pb.ProbValuation, u: int, r) -> bool:
    """The subbasic open of P at (U, r) is the restriction of theta(U, r):
    theta_membership of p agrees with whether p's measure gives U mass
    above r.  On a non-T0 space the measure lives on the Kolmogorov
    quotient, which sees U as its image."""
    member = va.theta_membership(p, u, r)
    m = pb.extend_to_measure(p)
    if m.quotient_map is not None:
        u = m.quotient_map.image(u)
    return member == (m.measure_of(u) > ext(r))


# --- the suites ----------------------------------------------------------------


def _suite_topology_core(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 1)
    stream = _stream(cfg)
    known = [
        (sp.sierpinski(), (True, False, True)),
        (sp.discrete(2), (True, True, True)),
        (sp.indiscrete(2), (False, False, True)),
        (sp.w_lattice(), (True, False, True)),
    ]
    for space, flags in known:
        if space.n <= cfg.max_points:
            run.check(
                lambda: sp.check_separation(space) == sp.SeparationReport(*flags),
                f"separation flags of {space.points}",
            )
    for space in _spaces(cfg):
        run.check(
            lambda: sp.from_opens(space.points, space.opens) == space, "open-family round trip"
        )
        run.check(
            lambda: list(space.opens) == upsets_by_filter(space),
            "the opens are the up-sets of specialization, filtered from all subsets",
        )
        run.check(
            lambda: family_is_topology(space.n, space.opens),
            "the opens are closed under union and intersection",
        )
        run.check(
            lambda: [m for m in range(space.full + 1) if space.is_open(m)] == list(space.opens),
            "is_open holds exactly on the opens",
        )
        run.check(
            lambda: irreducibles_are_point_closures(space),
            "every irreducible closed set is a point closure",
        )
        run.check(
            lambda: sp.from_preorder(space.points, [(a, b) for a, b in space.specialization()])
            == space,
            "preorder round trip",
        )
        run.check(
            lambda: sp.from_preorder(space.points, space.specialization()).specialization()
            == space.specialization(),
            "specialization reproduces the input preorder",
        )
        run.check(
            lambda: (
                lambda q, m: sp.check_separation(q).is_T0 and equivalence_with_witness(m)
            )(*sp.kolmogorov_quotient(space)),
            "Kolmogorov quotient is a T0 equivalence",
        )
        mask = rng.randrange(space.full + 1)
        run.check(
            lambda: sp.subspace(space, mask)[1].source.n == sp.popcount(mask),
            "subspace construction",
        )
        if run.within("families of opens", 1 << len(space.opens)):
            u = rng.choice(space.opens)
            v = rng.choice(space.opens)
            run.check(
                lambda: sp.way_below(space, u, v) == way_below_by_covers(space, u, v),
                "way-below agrees with the literal cover quantifier",
            )
    for a, b in _space_pairs(cfg):
        prod = stream.product(a, b)
        if run.opens_within("opens of a product", prod.space):
            run.check(
                lambda: set(prod.space.opens) == rectangle_topology(prod),
                "product topology equals the rectangle-generated topology",
            )
        if run.within("assignments", b.n**a.n):
            run.check(lambda: continuity_is_monotonicity(a, b), "continuity is monotonicity")


def _suite_h_monad(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 2)
    stream = _stream(cfg)
    # canned naturality witness: collapse a discrete pair onto the open point
    if cfg.max_points >= 2:
        d2, s2 = sp.discrete(2), sp.sierpinski()
        f = sp.ContinuousMap(d2, s2, (s2.index("1"), s2.index("1")))
        run.check(
            lambda: hy.push_closed(f, hy.ClosedSet(d2, 1)).members
            == s2.mask_of(["0", "1"]),
            "pushing a point closure takes the closure of the image",
        )

        def union_of_every_closed_set():
            hs2 = hy.build_hyperspace(s2)
            return hy.mult_union(hs2, hs2.space.full).members == s2.full

        # canned multiplication witness: the family of all closed sets
        run.check(
            union_of_every_closed_set,
            "the union of every closed set is the whole space",
        )
    for space in _spaces(cfg):
        hx = stream.hyperspace(space)
        few = run.opens_within("opens of a hyperspace", hx.space)
        if few:
            run.check(
                lambda: vietoris_topology(hx) == set(hx.space.opens),
                "lower Vietoris topology equals the inclusion up-sets",
            )
        run.check(lambda: h_specialization_is_inclusion(hx), "HX specialization is inclusion")
        for i in range(len(hx.members)):
            run.check(lambda: left_unit(H, hx, hx.closed_of(i)), "left unit law")
            run.check(lambda: right_unit(H, hx, hx.closed_of(i)), "right unit law")
        for u in space.opens:
            run.check(
                lambda: sum(1 << x for x in range(space.n) if hy.hit(hy.unit_sigma(space, x), u))
                == u,
                "sigma preimage of Hit(U) is U",
            )
        for c in space.closed_sets():
            run.check(
                lambda: hy.unit_closure_membership(space, hy.ClosedSet(space, c))
                == any(c & ~space.closure(1 << x) == 0 for x in range(space.n)),
                "closure-membership criteria agree",
            )
        if not few:
            continue
        hhx = hx.space.closed_sets()
        run.check(
            lambda: h_union_hits(hx, hhx),
            "the union of a closed family hits U iff a member does",
        )
        if len(hhx) <= 8:
            xi_masks = hy.inclusion_downsets(hhx)
        else:
            up_masks = hy.inclusion_up_masks(hhx)
            xi_masks = [_rand_downset(rng, up_masks) for _ in range(cfg.instance_count)]
        memo: dict = {}
        for xi in xi_masks:
            run.check(
                lambda: associativity(H, hx, *h_tower(hx, hhx, xi), memo), "associativity law"
            )
    for a, b in _space_pairs(cfg):
        f = rand_map(rng, a, b)
        if f is None:
            continue
        hxa, hxb = stream.hyperspace(a), stream.hyperspace(b)
        for x in range(a.n):
            run.check(lambda: unit_naturality(H, f, x), "unit naturality")
        fam = _rand_downset(rng, hxa.space.min_nbhd)
        run.check(
            lambda: mult_naturality(H, f, hxa, hxb, family_mixture(hxa, fam)),
            "multiplication naturality",
        )
        g2 = rand_map(rng, b, b)
        if g2 is not None and a.n:
            c = rand_closed(rng, a)
            run.check(
                lambda: hy.push_closed(sp.compose(g2, f), c)
                == hy.push_closed(g2, hy.push_closed(f, c)),
                "functoriality of the push",
            )
            run.check(
                lambda: h_push_hits(f, c),
                "the push hits U iff the closed set hits the preimage",
            )


def _suite_h_strength(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 3)
    stream = _stream(cfg)
    one = sp.one_point()
    for a, b in _space_pairs(cfg):
        prod = stream.product(a, b)
        hxb = stream.hyperspace(b)
        for _ in range(2):
            if a.n == 0:
                break
            x = rng.randrange(a.n)
            c = rand_closed(rng, b)
            run.check(
                lambda: h_rectangle_hits(
                    prod, hy.strength_H(prod, x, c), hy.unit_sigma(prod.left, x), c
                ),
                "strength rectangle law",
            )
            if b.n:
                y = rng.randrange(b.n)
                run.check(lambda: strength_unit(H, prod, x, y), "strength unit diagram")
            fam = _rand_downset(rng, hxb.space.min_nbhd)
            run.check(
                lambda: strength_mult(H, prod, x, hxb, family_mixture(hxb, fam)),
                "strength multiplication diagram",
            )
        # unitor: X x H1 -> H(X x 1) -> HX
        if a.n:
            prod1 = sp.product(a, one)
            x = rng.randrange(a.n)
            for c_members in (0, 1):
                run.check(
                    lambda: strength_unitor(H, prod1, x, hy.ClosedSet(one, c_members)),
                    "strength unitor diagram",
                )
        # costrength is the swap of strength
        prod_ba = stream.product(b, a)
        if a.n and b.n:
            x = rng.randrange(a.n)
            d = rand_closed(rng, b)
            run.check(
                lambda: costrength_symmetry(H, prod, prod_ba, x, d),
                "costrength is strength through the symmetry",
            )
            run.check(
                lambda: h_rectangle_hits(
                    prod_ba, hy.costrength_H(prod_ba, d, x), d, hy.unit_sigma(prod_ba.right, x)
                ),
                "costrength rectangle law",
            )
        # commutativity square: both composites equal the product of closed sets
        c = rand_closed(rng, a)
        d = rand_closed(rng, b)
        run.check(
            lambda: commutativity(H, prod, c, d, hy.product_closed(prod, c, d)),
            "commutativity square for closed products",
        )
        run.check(
            lambda: h_rectangle_hits(prod, hy.product_closed(prod, c, d), c, d),
            "product rectangle law",
        )
        run.check(
            lambda: hy.marginals(prod, hy.product_closed(prod, c, d))
            == ((c, d) if c.members and d.members else (hy.ClosedSet(a, 0), hy.ClosedSet(b, 0))),
            "marginals of a rectangle recover nonempty factors",
        )
    # associator diagram on a small fixed triple
    if cfg.max_points >= 2:
        associator = _associator()
        pxy, pyz = associator[:2]
        for _ in range(4):
            c = rand_closed(rng, pyz.right)
            x = rng.randrange(pxy.left.n)
            y = rng.randrange(pxy.right.n)
            run.check(
                lambda: strength_associator(H, associator, x, y, c),
                "strength associator diagram",
            )


def _suite_h_algebra(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 4)
    stream = _stream(cfg)
    w = sp.w_lattice()
    if w.n <= cfg.max_points:
        hw, joins = hy.build_hyperspace(w), hy.join_algebra_map(w)
        run.check(
            lambda: h_algebra(w, hw, joins) and join_characterization(w, hw, joins),
            "the diamond lattice is an algebra via joins",
        )
    one = sp.one_point()
    run.check(
        lambda: h_algebra(one, hy.build_hyperspace(one), hy.join_algebra_map(one)),
        "the one-point space is trivially an algebra",
    )
    d2 = sp.discrete(2)
    if d2.n <= cfg.max_points:
        hd = hy.build_hyperspace(d2)
        for table in itertools.product(range(d2.n), repeat=len(hd.members)):
            run.check(
                lambda: not h_algebra(d2, hd, table)
                and not join_characterization(d2, hd, table),
                "no table makes a discrete pair an algebra",
            )
    for space in _spaces(cfg):
        hx = stream.hyperspace(space)
        joins = hy.join_algebra_map(space)
        if joins is not None:
            run.check(
                lambda: h_algebra(space, hx, joins) == join_characterization(space, hx, joins),
                "algebra diagrams match the join-semilattice characterization",
            )
            run.check(
                lambda: not sp.check_separation(space).is_sober
                or operator.eq(*join_continuity(space, hx, joins)),
                "binary-join and closed-join continuity agree on sober spaces",
            )
        if space.n:
            table = tuple(rng.randrange(space.n) for _ in range(len(hx.members)))
            run.check(
                lambda: h_algebra(space, hx, table) == join_characterization(space, hx, table),
                "equivalence holds on random tables",
            )


def _suite_v_monad(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 5)
    s2 = sp.sierpinski()
    if s2.n <= cfg.max_points:
        half = ext("1/2")
        nu = va.valuation_from_weights(s2, (half, half))
        run.check(
            lambda: right_unit(V, s2, nu), "right unit on the half-half valuation"
        )
        run.check(
            lambda: va.integrate(nu, va.indicator(s2, s2.mask_of(["1"]))) == half,
            "indicator pairing equals the table value",
        )
    for space in _spaces(cfg):
        nu = rand_valuation(rng, cfg, space)
        run.check(lambda: left_unit(V, space, nu), "left unit law")
        run.check(lambda: right_unit(V, space, nu), "right unit law")
        for u in space.opens:
            run.check(
                lambda: va.integrate(nu, va.indicator(space, u)) == nu.value(u),
                "integral of an indicator is the open's mass",
            )
        # associativity tower: a mixture of mixtures
        inner = [rand_sso(rng, cfg, space) for _ in range(rng.randint(1, 2))]
        tower = [
            (_rand_extrat(rng, cfg, allow_zero=False, allow_inf=False), j)
            for j in range(len(inner))
        ]
        run.check(
            lambda: associativity(V, space, lambda j: inner[j].atoms, tower, {}),
            "associativity on molecular towers",
        )
        xi = rand_sso(rng, cfg, space)
        g = rand_lsc(rng, cfg, space)
        run.check(
            lambda: va.integrate(va.mult_E(xi), g) == pairing_with_evaluation(xi, g),
            "multiplication pairing identity",
        )
        run.check(
            lambda: va.integrate(nu, g) == layer_cake_integral(nu, g),
            "weighted sum equals layer cake",
        )
        run.check(
            lambda: lsc_criteria_agree(space, g.values)
            and lsc_criteria_agree(space, g.values[::-1]),
            "lower semicontinuity: monotone iff the level sets are open",
        )
        r = _rand_extrat(rng, cfg, allow_inf=False)
        run.check(
            lambda: sum(
                1 << x
                for x in range(space.n)
                if va.big_theta_membership(va.unit_delta(space, x), g, r)
            )
            == g.upper_level(r),
            "Dirac preimage of a subbasic open is a level set",
        )
    # maps and kernels from streams of their own, so no other draw moves
    map_rng = random.Random(cfg.seed + 6)
    for a, b in _space_pairs(cfg):
        f = rand_map(map_rng, a, b)
        if f is None or a.n == 0:
            continue
        nu = rand_valuation(rng, cfg, a)
        x = rng.randrange(a.n)
        run.check(lambda: unit_naturality(V, f, x), "unit naturality")
        run.check(lambda: pushforward_integral_identity(f, nu), "pushforward integral identity")
        xi = rand_sso(rng, cfg, a)
        run.check(lambda: mult_naturality(V, f, a, b, xi.atoms), "multiplication naturality")
    # Kleisli composition: units, associativity, and the molecular route
    kernel_rng = random.Random(cfg.seed + 7)
    triples = _space_pairs(cfg, min_points=1)
    for a, b in itertools.islice(triples, max(4, cfg.instance_count // 4)):
        h = rand_kernel(kernel_rng, cfg, a, b)
        k = rand_kernel(kernel_rng, cfg, b, a)
        m = rand_kernel(kernel_rng, cfg, a, a)
        run.check(
            lambda: va.kleisli_compose(va.delta_kernel(b), h).table == h.table,
            "delta is a left Kleisli unit",
        )
        run.check(
            lambda: va.kleisli_compose(h, va.delta_kernel(a)).table == h.table,
            "delta is a right Kleisli unit",
        )
        run.check(
            lambda: va.kleisli_compose(va.kleisli_compose(m, k), h).table
            == va.kleisli_compose(m, va.kleisli_compose(k, h)).table,
            "Kleisli associativity",
        )
        run.check(
            lambda: all(
                va.kleisli_compose(k, h).table[x]
                == V.mult(
                    k.target, [(w, k.table[y]) for y, w in enumerate(h.table[x].weights) if w]
                )
                for x in range(h.source.n)
            ),
            "Kleisli route agrees with the molecular multiplication route",
        )


def _suite_v_strength(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 8)
    stream = _stream(cfg)
    one = sp.one_point()
    for a, b in _space_pairs(cfg, min_points=1):
        prod = stream.product(a, b)
        x = rng.randrange(a.n)
        y = rng.randrange(b.n)
        nu = rand_valuation(rng, cfg, b)
        run.check(lambda: strength_unit(V, prod, x, y), "strength unit diagram")
        xi = rand_sso(rng, cfg, b)
        run.check(
            lambda: strength_mult(V, prod, x, b, xi.atoms), "strength multiplication diagram"
        )
        prod1 = sp.product(a, one)
        mass = _rand_extrat(rng, cfg)
        run.check(
            lambda: strength_unitor(V, prod1, x, va.valuation_from_weights(one, (mass,))),
            "strength unitor diagram",
        )
        prod_ba = stream.product(b, a)
        run.check(
            lambda: costrength_symmetry(V, prod, prod_ba, x, nu),
            "costrength is strength through the symmetry",
        )
        for u in a.opens:
            for v_open in b.opens:
                run.check(
                    lambda: va.strength_V(prod, x, nu).value(prod.rectangle(u, v_open))
                    == (nu.value(v_open) if u >> x & 1 else ZERO),
                    "rectangle evaluation of the strength",
                )
    # associator diagram on a small fixed triple
    if cfg.max_points >= 2:
        associator = _associator()
        pxy, pyz = associator[:2]
        for _ in range(4):
            nu = rand_valuation(rng, cfg, pyz.right)
            x = rng.randrange(pxy.left.n)
            y = rng.randrange(pxy.right.n)
            run.check(
                lambda: strength_associator(V, associator, x, y, nu),
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
    for a, b in _space_pairs(cfg):
        prod = _stream(cfg).product(a, b)
        nu = rand_valuation(rng, cfg, a)
        rho = rand_valuation(rng, cfg, b)
        g = rand_lsc(rng, cfg, prod.space)
        if run.opens_within("opens of a product", prod.space):
            run.check(
                lambda: fubini_square(prod, nu, rho),
                "Fubini square: both composites equal the product valuation",
            )
            run.check(
                lambda: (lambda whole: iterated_integrals(prod, nu, rho, g) == (whole, whole))(
                    va.integrate(va.product_valuation(nu, rho, prod), g)
                ),
                "iterated integrals agree with the product integral",
            )
        if a.n and b.n:
            x = rng.randrange(a.n)
            y = rng.randrange(b.n)
            run.check(
                lambda: va.product_valuation(va.unit_delta(a, x), va.unit_delta(b, y), prod)
                == va.unit_delta(prod.space, prod.pair(x, y)),
                "product of Diracs is the Dirac of the pair",
            )
        run.check(
            lambda: va.product_valuation(nu, va.zero_valuation(b), prod).is_zero(),
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
    for space in _spaces(cfg):
        closed = space.closed_sets()
        for c in closed:
            run.check(
                lambda: (
                    lambda phi: phi.closed.members == c
                    and hy.functional_of_closed(phi.closed) == phi
                )(hy.functional_of_closed(hy.ClosedSet(space, c))),
                "duality round trip, both ways",
            )
        run.check(
            lambda: duality_is_order_isomorphism(space, closed),
            "duality is an order isomorphism",
        )
        if run.within("tables", 1 << (len(space.opens) - 1)):
            run.check(
                lambda: count_valid_functional_tables(space) == len(closed),
                "brute-force surjectivity over all boolean tables",
            )
        nu = rand_valuation(rng, cfg, space)
        perturbed = list(nu.table)
        i = rng.randrange(len(perturbed))
        perturbed[i] = ZERO if perturbed[i].is_infinite else perturbed[i] + ONE
        run.check(
            lambda: va.validate_valuation(space, nu.table) == nu
            and validation_agrees_with_scan(space, nu.table)
            and validation_agrees_with_scan(space, tuple(perturbed)),
            "validate_valuation round-trips a table and agrees with the scan",
        )
        # subspace inclusions: the pushforward embeds valuations
        if space.n:
            mask = rng.randrange(1, space.full + 1)
            sub, incl = sp.subspace(space, mask)
            nu = rand_valuation(rng, cfg, sub)
            rho = rand_valuation(rng, cfg, sub)
            run.check(
                lambda: (va.pushforward(incl, nu) == va.pushforward(incl, rho)) == (nu == rho),
                "subspace pushforward is injective",
            )
            run.check(
                lambda: all(
                    va.pushforward(incl, nu).value(u) == nu.value(incl.preimage(u))
                    for u in space.opens
                ),
                "subspace pushforward reflects the subbasic opens",
            )
            above = va.valuation_from_weights(
                sub, tuple(x + y for x, y in zip(nu.weights, rho.weights))
            )
            run.check(
                lambda: all(
                    va.order_checks(v, r).opens_le == integral_order_le(v, r)
                    for v, r in ((nu, rho), (nu, above), (above, nu))
                ),
                "opens order equals the integral order",
            )


def _suite_v_portmanteau(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 11)
    for space in _spaces(cfg, min_points=1):
        nu = rand_valuation(rng, cfg, space)
        r = _rand_extrat(rng, cfg, allow_inf=False)
        run.check(lambda: not va.theta_membership(nu, 0, r), "theta of the empty set is empty")
        for u in space.opens:
            run.check(
                lambda: va.theta_membership(nu, u, r)
                == va.big_theta_membership(nu, va.indicator(space, u), r),
                "theta agrees with Theta on indicators",
            )
        g = rand_lsc(rng, cfg, space)
        x = rng.randrange(space.n)
        run.check(
            lambda: va.big_theta_membership(va.unit_delta(space, x), g, r) == (g(x) > r),
            "Dirac membership is a pointwise comparison",
        )
        if va.big_theta_membership(nu, g, r):
            run.check(
                lambda: certificate_is_sound(g, r, va.portmanteau_witness(nu, g, r), nu),
                "certificate passes the independent checker",
            )
            cert = va.portmanteau_witness(nu, g, r)
            other = rand_valuation(rng, cfg, space)
            if all(va.theta_membership(other, u, ri) for _, u, ri in cert):
                run.check(
                    lambda: va.big_theta_membership(other, g, r),
                    "certificate is sound for other valuations",
                )


def _suite_p_submonad(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 12)
    for space in _spaces(cfg, min_points=1):
        xi = rand_sso(rng, cfg, space, prob=True)
        run.check(
            lambda: pb.mult_E_measure(xi) == va.mult_E(xi),
            "measure-level multiplication includes into the valuation level",
        )
        run.check(
            lambda: mixture_of_measures_agrees(xi),
            "measure-level mixture equals the multiplication on every subset",
        )
        p = rand_prob(rng, cfg, space)
        u = rng.choice(space.opens)
        r = ratio(rng.randint(0, 4), 5)
        run.check(
            lambda: p_subbasis_restricts(p, u, r),
            "probability subbasic opens restrict the valuation subbasis",
        )
        f = rand_map(rng, space, space)
        if f is not None:
            run.check(
                lambda: va.pushforward(f, p).mass == ONE, "pushforward preserves normalization"
            )
    for a, b in _space_pairs(cfg, min_points=1):
        prod = _stream(cfg).product(a, b)
        p = rand_prob(rng, cfg, a)
        q = rand_prob(rng, cfg, b)
        run.check(
            lambda: pb.product_measure(p, q, prod).mass == ONE, "product preserves normalization"
        )
        x = rng.randrange(a.n)
        run.check(
            lambda: va.strength_V(prod, x, q).mass == ONE, "strength preserves normalization"
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
            lambda: va.integrate(
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
                lambda: all(m.measure_of(u) == nu.value(u) for u in space.opens),
                "extension round trip on every open",
            )
            g = rand_lsc(rng, cfg, space, pool=[ZERO, ONE, ExtRat(2)])
            run.check(
                lambda: va.integrate(m, g) == va.integrate(nu, g),
                "measure and valuation integrals agree",
            )
        else:
            run.check(
                lambda: not sp.check_separation(space).is_T0
                and all(
                    m.measure_of(u) == nu.value(m.quotient_map.preimage(u))
                    for u in m.space.opens
                ),
                "non-T0 input routes through the quotient with a marker",
            )


def _suite_p_product(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 14)
    for a, b in _space_pairs(cfg, min_points=1):
        prod = _stream(cfg).product(a, b)
        p = rand_prob(rng, cfg, a)
        q = rand_prob(rng, cfg, b)
        pq = pb.product_measure(p, q, prod)
        run.check(
            lambda: va.pushforward(prod.proj1, pq) == p and va.pushforward(prod.proj2, pq) == q,
            "marginals of the product measure are the factors",
        )
        if a.is_T0 and b.is_T0:
            run.check(
                lambda: pb.extend_to_measure(pq).point_weights
                == tuple(
                    wx * wy
                    for wx in pb.extend_to_measure(p).point_weights
                    for wy in pb.extend_to_measure(q).point_weights
                ),
                "extended product weights are pointwise products",
            )


def _supp_unit_law(space, valuations):
    return all(supp_unit(space, x) for x in range(space.n))


def _check_supp_unit(run: _Run, space: sp.FiniteSpace):
    run.check_law(
        Counterexample(space, (), _supp_unit_law),
        "support of a Dirac is the point closure",
    )
    run.check(
        lambda: su.support(va.zero_valuation(space)).members == 0,
        "support of the zero valuation is empty",
    )


def _suite_supp_unit(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 21)
    # canned witness: Sierpinski space has a closed and an open point
    if cfg.max_points >= 2:
        _check_supp_unit(run, sp.sierpinski())
    for space in _spaces(cfg):
        _check_supp_unit(run, space)
        nu = rand_valuation(rng, cfg, space)
        run.check(
            lambda: supp_hits_positive_mass(nu),
            "support hits exactly the opens of positive mass",
        )
        run.check(
            lambda: su.support(nu)
            == hy.HitFunctional(nu.space, tuple(sgn(x) for x in nu.table)).closed,
            "support agrees with the sign route through the duality",
        )


def _supp_mult_law(space, valuations):
    """The multiplication square on the unit-weight mixture of the
    valuations, on an HX of its own: a shrunk space is not in the stream."""
    if not valuations:
        return True
    mixture = [(ONE, v) for v in valuations]
    return supp_mult(space, hy.build_hyperspace(space), mixture)


def sgn_is_a_semiring_homomorphism(a: ExtRat, b: ExtRat) -> bool:
    """sgn(a + b) = sgn a or sgn b and sgn(a * b) = sgn a and sgn b: the
    support is the change of scalars along sgn, and a semiring homomorphism
    induces a monad morphism."""
    sa, sb = su.sgn(a), su.sgn(b)
    return su.sgn(a + b) == (sa or sb) and su.sgn(a * b) == (sa and sb)


def _suite_supp_mult(cfg: GenConfig, run: _Run):
    run.check(
        lambda: su.sgn(ZERO) is False and su.sgn(ONE) is True,
        "sgn sends 0 and 1 to false and true",
    )
    rng = random.Random(cfg.seed + 15)
    stream = _stream(cfg)
    for space in _spaces(cfg):
        xis = [rand_sso(rng, cfg, space) for _ in range(3)] if space.n else []
        run.check(
            lambda: all(supp_unit(space, p) for p in range(space.n))
            and all(supp_mult(space, stream.hyperspace(space), xi.atoms) for xi in xis),
            "unit and multiplication squares of the monad morphism",
        )
        if space.n:
            vals = [rand_valuation(rng, cfg, space) for _ in range(2)]
            cex = Counterexample(space, tuple(v.weights for v in vals), _supp_mult_law)
            run.check_law(cex, "multiplication square on a unit-weight mixture")
    # sampled pairs from a stream of their own, so no other draw moves
    pair_rng = random.Random(cfg.seed + 22)
    sample = [ZERO, INF] + [_rand_extrat(pair_rng, cfg) for _ in range(6)]
    for a, b in itertools.product(sample, repeat=2):
        run.check(lambda: sgn_is_a_semiring_homomorphism(a, b), "sgn is a semiring homomorphism")


def _suite_supp_natural(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 16)
    for a, b in _space_pairs(cfg):
        f = rand_map(rng, a, b)
        if f is None:
            continue
        for _ in range(3):
            nu = rand_valuation(rng, cfg, a)
            run.check(lambda: supp_naturality(f, nu), "support naturality square")
        run.check(
            lambda: supp_naturality(sp.identity_map(a), rand_valuation(rng, cfg, a)),
            "naturality along the identity",
        )


def _suite_supp_monoidal(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 17)
    for space in _spaces(cfg):
        vals = [rand_valuation(rng, cfg, space) for _ in range(4)]
        run.check(
            lambda: all(supp_hits_positive_mass(v) for v in vals),
            "support preimages of Hit opens are subbasic",
        )
        if space.n:
            g = rand_lsc(rng, cfg, space)
            run.check(
                lambda: support_test_lsc(vals[0], g)
                == hy.hit(su.support(vals[0]), g.upper_level(ZERO)),
                "integral sign test against the support",
            )
        nu, rho = vals[0], vals[1]
        le = all(x <= y for x, y in zip(nu.table, rho.table))
        if le:
            run.check(
                lambda: su.support(nu).members & ~su.support(rho).members == 0,
                "support is monotone in the valuation order",
            )
        if not nu.mass.is_infinite:
            m = pb.extend_to_measure(nu)
            run.check(
                lambda: m.measure_of(su.support(m).members) == m.mass,
                "the support has full measure",
            )
            run.check(
                lambda: su.support(m).members == least_closed_of_full_measure(m),
                "the measure's support is the support of its restriction",
            )
    for a, b in _space_pairs(cfg):
        prod = _stream(cfg).product(a, b)
        nu = rand_valuation(rng, cfg, a)
        rho = rand_valuation(rng, cfg, b)
        run.check(
            lambda: all(supp_product_squares(prod, nu, rho)),
            "strength, monoidal, and marginal squares of the support",
        )


def _suite_algebra_transfer(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 18)
    stream = _stream(cfg)
    w = sp.w_lattice()
    if w.n <= cfg.max_points:
        joins = hy.join_algebra_map(w)
        xis = [rand_sso(rng, cfg, w) for _ in range(5)]
        run.check(lambda: transfer_laws(w, joins, xis), "diamond lattice transfers to a cone")
        bottom, x, y, top = (w.index(p) for p in ("0", "x", "y", "t"))
        run.check(
            lambda: cone_value(w, joins, [(ONE, x), (ONE, y)]) == top
            and cone_value(w, joins, []) == bottom
            and cone_value(w, joins, [(ExtRat(2), x)]) == x
            and cone_value(w, joins, [(ZERO, x)]) == bottom,
            "cone operations are join, bottom, and trivial scaling",
        )
    for space in _spaces(cfg):
        joins = hy.join_algebra_map(space)
        if joins is None:
            continue
        run.check(
            lambda: h_algebra(space, stream.hyperspace(space), joins),
            "the join map of a space with all joins is an H-algebra",
        )
        xis = [rand_sso(rng, cfg, space) for _ in range(3)] if space.n else []
        run.check(
            lambda: transfer_laws(space, joins, xis),
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
            lambda: sp.le_2cell(f, g)
            == all(f.preimage(u) & ~g.preimage(u) == 0 for u in f.target.opens),
            "2-cell criteria agree",
        )
        run.check(
            lambda: equivalence_criteria_agree(f, g),
            "is_equivalence agrees with bijective preimage lattices plus"
            " essential surjectivity",
        )
        le = sp.le_2cell(f, g)
        if le and a.n:
            c = rand_closed(rng, a)
            run.check(
                lambda: hy.push_closed(f, c).members & ~hy.push_closed(g, c).members == 0,
                "push respects 2-cells",
            )
            nu = rand_valuation(rng, cfg, a)
            run.check(
                lambda: all(
                    x <= y
                    for x, y in zip(va.pushforward(f, nu).table, va.pushforward(g, nu).table)
                ),
                "pushforward respects 2-cells",
            )
    for space in _spaces(cfg):
        run.check(
            lambda: equivalence_with_witness(sp.identity_map(space)),
            "identities are equivalences",
        )
        run.check(
            lambda: equivalence_with_witness(sp.kolmogorov_quotient(space)[1]),
            "the Kolmogorov quotient map is an equivalence",
        )
        run.check(
            lambda: equivalence_criteria_agree(
                sp.identity_map(space), sp.kolmogorov_quotient(space)[1]
            ),
            "is_equivalence agrees with bijective preimage lattices plus"
            " essential surjectivity",
        )


def _suite_appendixC(cfg: GenConfig, run: _Run):
    rng = random.Random(cfg.seed + 20)
    for a, b in _space_pairs(cfg):
        prod = _stream(cfg).product(a, b)
        nu = rand_valuation(rng, cfg, a)
        rho = rand_valuation(rng, cfg, b)
        run.check(
            lambda: operator.eq(*supp_product_squares(prod, nu, rho)),
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
    elapsed, capped = time.monotonic() - start, tuple(sorted(run.capped.items()))
    return SuiteReport(name, run.instances, tuple(run.failures), elapsed, capped)


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
# check, so the suite that catches a mutation earliest comes first: each
# first suite catches its mutations with a canned witness at its head,
# before it draws any space.
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
    """Set holder.attr to value, restoring the original on exit.

    The shared stream is dropped on entry and on exit, so the spaces,
    products and hyperspaces a mutated run builds stay within it."""
    original = getattr(holder, attr)
    _drop_stream()
    setattr(holder, attr, value)
    try:
        yield
    finally:
        setattr(holder, attr, original)
        _drop_stream()


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
