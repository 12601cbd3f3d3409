"""Generators, suites, shrinking, and the mutation harness."""

import itertools
import random
from fractions import Fraction

import pytest

from topmonads import hyperspace as hy
from topmonads import lawcheck as lc
from topmonads import spaces as sp
from topmonads import support as su
from topmonads import valuations as va
from topmonads.errors import InfinityIndeterminate, NotAFailure, NotModular, UnknownSuite
from topmonads.extrat import INF, ONE, ZERO, ExtRat, ext


def signature(space):
    """A label-independent-enough key: the sorted open family."""
    return (space.points, space.opens)


def test_generator_determinism():
    cfg = lc.GenConfig(seed=99, max_points=3)
    a = [signature(s) for s in itertools.islice(lc.generate_space(cfg), 200)]
    b = [signature(s) for s in itertools.islice(lc.generate_space(cfg), 200)]
    assert a == b


def test_generator_includes_corpus():
    cfg = lc.GenConfig(max_points=4)
    stream = list(itertools.islice(lc.generate_space(cfg), 8))
    ns = [s.n for s in stream]
    assert 0 in ns  # the empty space
    assert any(s.points == ("0", "1") for s in stream)  # Sierpinski
    assert any(s.points == ("0", "x", "y", "t") for s in stream)  # the diamond


def test_generator_respects_max_points():
    cfg = lc.GenConfig(max_points=2)
    for space in itertools.islice(lc.generate_space(cfg), 500):
        assert space.n <= 2


def test_all_29_three_point_topologies():
    tops = lc.all_topologies(3)
    assert len(tops) == 29
    assert len({t.opens for t in tops}) == 29
    assert len(lc.all_topologies(2)) == 4


def test_generator_covers_all_three_point_topologies():
    want = {t.opens for t in lc.all_topologies(3)}
    cfg = lc.GenConfig(seed=42, max_points=3)
    seen = set()
    for space in itertools.islice(lc.generate_space(cfg), 10_000):
        if space.n == 3:
            seen.add(space.opens)
        if want <= seen:
            break
    assert want <= seen


def test_suite_reports_are_deterministic():
    cfg = lc.GenConfig(seed=5, max_points=3, instance_count=15)
    r1 = lc.run_suite("supp-mult", cfg)
    r2 = lc.run_suite("supp-mult", cfg)
    assert r1.instances == r2.instances
    assert r1.failures == r2.failures


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        lc.run_suite("bogus", lc.GenConfig())


def test_all_suites_pass_at_small_config():
    cfg = lc.GenConfig(seed=42, max_points=3, instance_count=15)
    for name in sorted(lc.SUITES):
        report = lc.run_suite(name, cfg)
        assert report.ok, (name, report.failures[:2])
        assert report.instances > 0


def test_all_suites_pass_with_infinite_weights():
    cfg = lc.GenConfig(seed=42, max_points=3, allow_infinity=True)
    for name in sorted(lc.SUITES):
        report = lc.run_suite(name, cfg)
        assert report.ok, (name, report.failures[:2])
        assert report.capped == (), name  # no budget is reached at 3 points


def test_budgets_bound_the_exhaustive_checks_and_are_counted():
    # at 8 points, seed 42 draws an instance over each budget; without the
    # budgets, topology-core and v-fubini each take minutes on this run
    reports = lc.run_all(lc.GenConfig(seed=42, max_points=8))
    assert all(r.ok for r in reports), [r.suite for r in reports if not r.ok]
    capped = {}
    for r in reports:
        for budget, count in r.capped:
            assert count > 0
            capped.setdefault(budget, set()).add(r.suite)
    assert capped == {
        "families of opens": {"topology-core"},
        "assignments": {"topology-core"},
        "tables": {"v-duality"},
        "opens of a hyperspace": {"h-monad"},
        "opens of a product": {"topology-core", "v-fubini"},
    }


@pytest.mark.parametrize("max_points", [5, 6])
def test_every_suite_draws_spaces_of_max_points(monkeypatch, max_points):
    # --max-points bounds the spaces of every suite, and no suite stops
    # short of it
    largest = {}
    original = lc._spaces

    def recording(*args, **kwargs):
        for space in original(*args, **kwargs):
            largest[name] = max(largest.get(name, -1), space.n)
            yield space

    monkeypatch.setattr(lc, "_spaces", recording)
    cfg = lc.GenConfig(seed=42, max_points=max_points)
    for name in sorted(lc.SUITES):
        report = lc.run_suite(name, cfg)
        assert report.ok, (name, report.failures[:2])
    assert largest == {name: max_points for name in lc.SUITES}


def test_raising_law_does_not_abort_the_suite():
    cfg = lc.GenConfig()
    pristine = lc.run_suite("supp-unit", cfg)
    (mutated,) = lc.run_with_mutation("sigma-no-closure", cfg, suites=("supp-unit",))
    assert mutated.instances == pristine.instances
    assert mutated.failures
    assert not any("suite aborted" in f.message for f in mutated.failures)


# --- shrinking ----------------------------------------------------------------


def _always_fails(space, valuations):
    return False


def _fails_when_top_two_points_share_mass(space, valuations):
    # a fake law that breaks whenever two distinct points both carry mass
    if not valuations:
        return True
    positive = sum(1 for w in valuations[0].weights if w != ZERO)
    return positive < 2


def test_shrink_requires_a_failure():
    s = sp.sierpinski()
    cex = lc.Counterexample(s, (), lambda space, vals: True)
    with pytest.raises(NotAFailure):
        lc.shrink(cex)


def test_shrink_drops_points_and_weights():
    w = sp.w_lattice()
    weights = (ext("3/7"), ext("5/16"), ONE, ext("7/3"))
    cex = lc.Counterexample(w, (weights,), _fails_when_top_two_points_share_mass)
    small = lc.shrink(cex)
    assert small.space.n == 2
    positive = [x for x in small.weight_lists[0] if x != ZERO]
    assert len(positive) == 2
    # weights were simplified toward 1
    assert all(x == ONE for x in positive)


def test_shrink_is_idempotent():
    w = sp.w_lattice()
    weights = (ext("3/7"), ext("5/16"), ONE, ext("7/3"))
    cex = lc.Counterexample(w, (weights,), _fails_when_top_two_points_share_mass)
    once = lc.shrink(cex)
    twice = lc.shrink(once)
    assert once.space == twice.space
    assert once.weight_lists == twice.weight_lists


def test_shrink_reaches_minimum_on_space_only_law():
    cex = lc.Counterexample(sp.discrete(4), (), _always_fails)
    small = lc.shrink(cex)
    assert small.space.n == 0


def _raises_on_three_points_or_more(space, valuations):
    # smaller instances fail too, but by verdict: another failure
    if space.n >= 3:
        raise NotModular("three points or more")
    return False


def test_shrink_keeps_the_original_exception_type():
    cex = lc.Counterexample(sp.discrete(4), (), _raises_on_three_points_or_more)
    assert lc.shrink(cex).space.n == 3


def _false_but_raises_below_two_points(space, valuations):
    # smaller instances fail too, but by raising: another failure
    if space.n < 2:
        raise ZeroDivisionError("fewer than two points")
    return False


def test_shrink_keeps_the_original_false_verdict():
    cex = lc.Counterexample(sp.discrete(3), (), _false_but_raises_below_two_points)
    assert lc.shrink(cex).space.n == 2


def test_a_run_shrinks_a_raising_law_by_its_exception_type():
    cex = lc.Counterexample(sp.discrete(4), (), _raises_on_three_points_or_more)
    run = lc._Run("supp-unit", lc.GenConfig())
    run.check_law(cex, "fake law")
    (failure,) = run.failures
    assert failure.message.startswith("fake law: NotModular: ")
    assert failure.counterexample.space.n == 3


@pytest.mark.parametrize("verdict", [None, 0, [], 1, "yes"], ids=repr)
def test_a_check_passes_only_on_true(verdict):
    # a law that forgets its return gives None, which must not read as a pass
    run = lc._Run("supp-unit", lc.GenConfig())
    run.check(lambda: verdict, "not a bool")
    run.check(lambda: True, "a pass")
    assert run.instances == 2
    assert [(f.index, f.message) for f in run.failures] == [(0, "not a bool")]
    cex = lc.Counterexample(sp.discrete(2), (), lambda space, valuations: verdict)
    assert not cex.holds()
    assert lc.shrink(cex).space.n == 0


# --- mutation harness ----------------------------------------------------------


def test_mutations_are_ten_and_all_detected():
    assert len(lc.MUTATIONS) == 10
    cfg = lc.GenConfig(seed=42, max_points=3, instance_count=20)
    for name in lc.MUTATIONS:
        assert lc.mutation_detected(name, cfg), name


def test_mutation_patching_is_scoped():
    cfg = lc.GenConfig(seed=42, max_points=2, instance_count=10)
    for name, (holder, attr, _) in lc.MUTATIONS.items():
        original = getattr(holder, attr)
        assert lc.mutation_detected(name, cfg), name
        assert getattr(holder, attr) is original, name
    # after the harness exits, the pristine suite passes again
    assert lc.run_suite("supp-unit", cfg).ok


def test_every_detection_draws_no_random_space(monkeypatch):
    # each mutation is caught by a canned witness at the head of its first
    # detecting suite, so its detection draws no space of the stream, not
    # even of the canned corpus, and what it costs does not depend on the seed
    drawn, checks, caught = [], [], []
    original_stream, original_check = lc.generate_space, lc._Run.check

    def counting_stream(cfg):
        for space in original_stream(cfg):
            drawn.append(space)
            yield space

    def counting_check(self, *args, **kwargs):
        checks.append(self.suite)
        return original_check(self, *args, **kwargs)

    def recording_fail(self, index, message, cex):
        caught.append(self.suite)
        raise lc._Detected

    monkeypatch.setattr(lc, "generate_space", counting_stream)
    monkeypatch.setattr(lc._Run, "check", counting_check)
    monkeypatch.setattr(lc._DetectingRun, "fail", recording_fail)
    for seed, max_points in itertools.product((42, 7, 10011), (3, 4)):
        cfg = lc.GenConfig(seed=seed, max_points=max_points)
        for name in lc.MUTATIONS:
            checks.clear()
            caught.clear()
            where = (name, seed, max_points)
            assert lc.mutation_detected(name, cfg), where
            assert drawn == [], where
            first = lc.DETECTING_SUITES[name][0]
            assert caught == [first], where
            assert 1 <= len(checks) <= 2 and set(checks) == {first}, (where, checks)
    lc.run_suite("h-monad", cfg)  # the full suite does draw
    assert drawn


@pytest.mark.parametrize("max_points", [0, 1])
def test_every_suite_returns_at_zero_and_one_point(monkeypatch, max_points):
    # at 0 points the stream holds only empty spaces, so a suite that asks
    # for spaces with a point must get none rather than search forever; the
    # cap turns such a search into a failure instead of a hang
    original = lc.generate_space

    def capped(cfg):
        for drawn, space in enumerate(original(cfg)):
            if drawn == 1000:
                raise AssertionError("searched 1000 spaces of the stream")
            yield space

    monkeypatch.setattr(lc, "generate_space", capped)
    lc._drop_stream()
    cfg = lc.GenConfig(seed=42, max_points=max_points, instance_count=5)
    try:
        for name in sorted(lc.SUITES):
            report = lc.run_suite(name, cfg)
            assert report.ok, (name, report.failures[:2])
    finally:
        lc._drop_stream()


def _closure_space(rng, max_points):
    """_random_space by relation matrices and the triple-loop closure."""
    n = rng.randint(0, max_points)
    rel = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.3:
                rel[i][j] = True
    for k, i, j in itertools.product(range(n), repeat=3):
        if rel[i][k] and rel[k][j]:
            rel[i][j] = True
    ups = tuple(sum(1 << j for j in range(n) if rel[i][j]) for i in range(n))
    return sp.FiniteSpace(tuple(f"p{i}" for i in range(n)), ups)


def test_random_spaces_on_masks_are_the_reachability_closures():
    for seed, max_points in itertools.product(range(20), (0, 1, 3, 6)):
        mine, theirs = random.Random(seed), random.Random(seed)
        for _ in range(20):
            got = lc._random_space(mine, max_points)
            want = _closure_space(theirs, max_points)
            assert (got.points, got.min_nbhd) == (want.points, want.min_nbhd)
        assert mine.random() == theirs.random()  # the same draws were taken


def _eager_spaces(cfg, limit=None, min_points=0):
    limit = cfg.instance_count if limit is None else limit
    out = []
    for space in lc.generate_space(cfg):
        if len(out) >= limit:
            break
        if space.n < min_points:
            continue
        out.append(space)
    return out


def _eager_space_pairs(cfg, min_points=0):
    spaces = _eager_spaces(cfg, cfg.instance_count * 2, min_points)
    pairs = []
    for i in range(len(spaces) - 1):
        if len(pairs) >= cfg.instance_count:
            break
        pairs.append((spaces[i], spaces[i + 1]))
    return pairs


@pytest.mark.parametrize("seed", [42, 7, 10011])
def test_lazy_streams_yield_the_eager_sequences(seed):
    space_args = [{}, {"min_points": 1}, {"limit": 5}]
    pair_args = [{}, {"min_points": 1}]
    for max_points, count in ((3, 60), (4, 60), (4, 9), (3, 1)):
        cfg = lc.GenConfig(seed=seed, max_points=max_points, instance_count=count)
        for kw in space_args:
            assert list(lc._spaces(cfg, **kw)) == _eager_spaces(cfg, **kw), kw
        for kw in pair_args:
            got = list(lc._space_pairs(cfg, **kw))
            assert got == _eager_space_pairs(cfg, **kw), kw
        # warm stream: both kinds of iterator advanced in turn over one
        # shared stream, each reading what the other has drawn
        for kw_s, kw_p in itertools.product(space_args, pair_args):
            lc._drop_stream()
            got_s, got_p = _alternately(
                lc._spaces(cfg, **kw_s), lc._space_pairs(cfg, **kw_p)
            )
            assert got_s == _eager_spaces(cfg, **kw_s), (kw_s, kw_p)
            assert got_p == _eager_space_pairs(cfg, **kw_p), (kw_s, kw_p)


def _alternately(*iterators):
    """The items of each iterator, taking one from each in turn until all
    are exhausted."""
    out = [[] for _ in iterators]
    live = dict(enumerate(iterators))
    while live:
        for i, it in list(live.items()):
            try:
                out[i].append(next(it))
            except StopIteration:
                del live[i]
    return out


def _verdicts(reports):
    return [
        (r.suite, r.instances, [(f.index, f.message) for f in r.failures])
        for r in reports
    ]


@pytest.mark.parametrize("seed", [42, 7, 10011])
@pytest.mark.parametrize("max_points", [3, 4])
@pytest.mark.parametrize("allow_infinity", [True, False])
def test_sharing_the_stream_changes_no_verdict(seed, max_points, allow_infinity):
    cfg = lc.GenConfig(
        seed=seed,
        max_points=max_points,
        instance_count=20,
        allow_infinity=allow_infinity,
    )
    shared = _verdicts(lc.run_all(cfg))
    alone = []
    for name in sorted(lc.SUITES):
        lc._drop_stream()
        alone += _verdicts([lc.run_suite(name, cfg)])
    assert shared == alone
    assert all(failures == [] for _, _, failures in shared)
    for name, suites in lc.DETECTING_SUITES.items():
        shared = _verdicts(lc.run_with_mutation(name, cfg))
        alone = [
            v
            for suite in suites  # each call draws a stream of its own
            for v in _verdicts(lc.run_with_mutation(name, cfg, suites=(suite,)))
        ]
        assert shared == alone, name


def test_a_clean_run_after_a_mutated_one_draws_its_stream_again(monkeypatch):
    drawn = []
    original = lc._random_space

    def counting(rng, max_points):
        drawn.append(max_points)
        return original(rng, max_points)

    monkeypatch.setattr(lc, "_random_space", counting)
    cfg = lc.GenConfig(seed=42, max_points=3, instance_count=10)
    lc._drop_stream()
    lc.run_suite("h-monad", cfg)
    assert drawn
    drawn.clear()
    lc.run_suite("supp-unit", cfg)  # finds its spaces drawn by h-monad
    assert drawn == []
    for mutated in (lc.mutation_detected, lc.run_with_mutation):
        mutated("support-null-union", cfg)
        drawn.clear()
        lc.run_suite("supp-unit", cfg)
        assert drawn, mutated.__name__


def _full_route_detects(name, cfg):
    return any(not report.ok for report in lc.run_with_mutation(name, cfg))


@pytest.mark.parametrize("seed", [42, 10011])
@pytest.mark.parametrize("allow_infinity", [True, False])
def test_early_exit_detection_matches_the_full_reports(seed, allow_infinity):
    cfg = lc.GenConfig(
        seed=seed,
        max_points=3,
        instance_count=20,
        allow_infinity=allow_infinity,
    )
    for name in lc.MUTATIONS:
        assert lc.mutation_detected(name, cfg) == _full_route_detects(name, cfg), name


def test_a_mutation_that_changes_nothing_is_not_detected(monkeypatch):
    monkeypatch.setattr(
        lc, "MUTATIONS", {"identity": (hy, "unit_sigma", hy.unit_sigma)}
    )
    monkeypatch.setattr(lc, "DETECTING_SUITES", {"identity": ("supp-unit", "h-monad")})
    cfg = lc.GenConfig(seed=42, max_points=3, instance_count=20)
    assert not lc.mutation_detected("identity", cfg)
    assert not _full_route_detects("identity", cfg)


def _raises_outside_checks():
    raise RuntimeError("patched space constructor")


def test_a_suite_aborted_by_a_mutation_counts_as_detected(monkeypatch):
    monkeypatch.setattr(
        lc, "MUTATIONS", {"abort": (sp, "w_lattice", _raises_outside_checks)}
    )
    monkeypatch.setattr(lc, "DETECTING_SUITES", {"abort": ("algebra-transfer",)})
    original = sp.w_lattice
    cfg = lc.GenConfig(seed=42, max_points=4, instance_count=20)
    assert lc.mutation_detected("abort", cfg)
    (report,) = lc.run_with_mutation("abort", cfg)
    assert [f.message for f in report.failures] == [
        "suite aborted: RuntimeError: patched space constructor"
    ]
    assert sp.w_lattice is original


@pytest.mark.parametrize("seed", [42, 1, 2, 3, 10011])
@pytest.mark.parametrize("allow_infinity", [True, False])
def test_every_mutation_is_detected_at_the_gate_seeds(seed, allow_infinity):
    cfg = lc.GenConfig(seed=seed, allow_infinity=allow_infinity)
    missed = [name for name in lc.MUTATIONS if not lc.mutation_detected(name, cfg)]
    assert not missed


def test_mutated_reports_carry_replay_lines():
    cfg = lc.GenConfig(seed=42, max_points=2, instance_count=10)
    reports = lc.run_with_mutation("support-null-union", cfg)
    failures = [f for r in reports for f in r.failures]
    assert failures
    assert all(f.replay.startswith("laws ") for f in failures)


def test_shrunk_counterexamples_refail():
    cfg = lc.GenConfig(seed=42, max_points=3, instance_count=10)
    reports = lc.run_with_mutation("support-null-union", cfg, suites=("supp-mult",))
    shrunk = [
        f.counterexample
        for r in reports
        for f in r.failures
        if f.counterexample is not None
    ]
    # under the pristine implementation these all pass again
    for cex in shrunk:
        assert cex.holds()


def test_rand_valuation_has_weights_and_bounded_denominators():
    import random

    rng = random.Random(3)
    cfg = lc.GenConfig(seed=3, weight_denominator_bound=8, allow_infinity=False)
    w = sp.w_lattice()
    for _ in range(50):
        nu = lc.rand_valuation(rng, cfg, w)
        assert nu.weights is not None
        for x in nu.weights:
            assert not x.is_infinite
            assert x.frac.denominator <= 8
        va.validate_valuation(w, nu.table)


def _rand_extrat_by_fraction(rng, cfg, allow_zero=True, allow_inf=None):
    """A weight drawn as the generators drew it through Fraction."""
    if allow_inf is None:
        allow_inf = cfg.allow_infinity
    if allow_inf and rng.random() < 0.1:
        return INF
    den = rng.randint(1, cfg.weight_denominator_bound)
    num = rng.randint(0 if allow_zero else 1, 2 * den)
    return ExtRat(Fraction(num, den))


def _prob_weights_by_fraction(rng, cfg, n):
    raw = [rng.randint(0, cfg.weight_denominator_bound) for _ in range(n)]
    if sum(raw) == 0:
        raw[rng.randrange(n)] = 1
    return tuple(ExtRat(Fraction(w, sum(raw))) for w in raw)


def _sso_by_fraction(rng, cfg, n, prob):
    """The (coefficient, weights) pairs of a second-order draw."""
    k = rng.randint(1, 3)
    if prob:
        raw = [rng.randint(1, 4) for _ in range(k)]
        return [
            (ExtRat(Fraction(c, sum(raw))), _prob_weights_by_fraction(rng, cfg, n))
            for c in raw
        ]
    return [
        (
            _rand_extrat_by_fraction(rng, cfg, allow_zero=False),
            tuple(_rand_extrat_by_fraction(rng, cfg) for _ in range(n)),
        )
        for _ in range(k)
    ]


def test_weight_draws_are_the_fraction_draws():
    # weights built from their int pairs: the same draws, element by
    # element, and the same calls on the generator
    space = sp.discrete(3)  # no point's weight moves to another
    for seed in range(20):
        for allow_infinity in (False, True):
            cfg = lc.GenConfig(seed=seed, allow_infinity=allow_infinity)
            got, want = random.Random(seed), random.Random(seed)
            for _ in range(10):
                for kwargs in ({}, {"allow_zero": False}, {"allow_inf": False}):
                    value = lc._rand_extrat(got, cfg, **kwargs)
                    assert type(value) is ExtRat
                    assert value == _rand_extrat_by_fraction(want, cfg, **kwargs)
                assert lc.rand_valuation(got, cfg, space).weights == tuple(
                    _rand_extrat_by_fraction(want, cfg) for _ in range(space.n)
                )
                assert lc.rand_prob(got, cfg, space).weights == _prob_weights_by_fraction(
                    want, cfg, space.n
                )
                for prob in (False, True):
                    xi = lc.rand_sso(got, cfg, space, prob=prob)
                    assert [(c, nu.weights) for c, nu in xi.atoms] == _sso_by_fraction(
                        want, cfg, space.n, prob
                    )
            assert got.getstate() == want.getstate()


def test_rand_kernel_is_continuous_by_construction():
    import random

    rng = random.Random(31)
    cfg = lc.GenConfig(seed=31)
    k = lc.rand_kernel(rng, cfg, sp.sierpinski(), sp.w_lattice())
    assert k.source.n == 2 and k.target.n == 4


# --- memoised oracles against their direct routes -------------------------------


def layer_cake_by_levels(nu, g):
    """<nu, g> by layer-cake over g's weak levels, the loop that
    layer_cake_integral ran before it shared the Fubini oracles' body:
    the sum of (v_i - v_{i-1}) * nu({g >= v_i}) over the distinct finite
    values 0 = v0 < v1 < ..., plus oo * nu({g = oo})."""
    total = prev = ZERO
    for v in sorted({v for v in g.values if v.is_finite}):
        if v:
            total = total + (v - prev) * nu.value(g.weak_level(v))
            prev = v
    return total + INF * nu.value(g.weak_level(INF))


@pytest.mark.parametrize("allow_infinity", [False, True])
def test_layer_cake_integral_is_the_level_loop(allow_infinity):
    rng = random.Random(13 + allow_infinity)
    cfg = lc.GenConfig(seed=13, allow_infinity=allow_infinity)
    with_inf = 0
    for space in [t for n in range(5) for t in lc.all_topologies(n)]:
        for _ in range(3):
            nu, g = lc.rand_valuation(rng, cfg, space), lc.rand_lsc(rng, cfg, space)
            with_inf += INF in nu.weights + g.values
            assert lc.layer_cake_integral(nu, g) == layer_cake_by_levels(nu, g)
    assert (with_inf > 100) == allow_infinity


def _iterated_integrals_by_lsc(prod, nu, rho, f):
    """The iterated integrals of f with a LowerSemiFn per integrand, each
    section's and each outer one, integrated by layer_cake_by_levels."""
    left, right = prod.left, prod.right

    def lsc(space, values):
        return va.LowerSemiFn(space, tuple(values))

    inner_x = [
        layer_cake_by_levels(rho, lsc(right, (f(prod.pair(x, y)) for y in range(right.n))))
        for x in range(left.n)
    ]
    inner_y = [
        layer_cake_by_levels(nu, lsc(left, (f(prod.pair(x, y)) for x in range(left.n))))
        for y in range(right.n)
    ]
    return (
        layer_cake_by_levels(nu, lsc(left, inner_x)),
        layer_cake_by_levels(rho, lsc(right, inner_y)),
    )


def _open_iterated_integrals_by_lsc(prod, nu, rho):
    """_iterated_integrals_by_lsc of each open's indicator, in the order of
    the opens, with each distinct section's indicator and each distinct
    outer integrand (a tuple of section integrals) made a LowerSemiFn and
    integrated by layer_cake_by_levels once."""
    left, right = prod.left, prod.right
    inner: dict = {}
    outer: dict = {}

    def section_integral(side, valuation, space, mask):
        if (side, mask) not in inner:
            inner[side, mask] = layer_cake_by_levels(valuation, va.indicator(space, mask))
        return inner[side, mask]

    def outer_integral(side, valuation, space, values):
        if (side, values) not in outer:
            outer[side, values] = layer_cake_by_levels(
                valuation, va.LowerSemiFn(space, values)
            )
        return outer[side, values]

    out = []
    for w in prod.space.opens:
        rows = [w >> x * right.n & right.full for x in range(left.n)]
        columns = [
            sum((r >> y & 1) << x for x, r in enumerate(rows)) for y in range(right.n)
        ]
        inner_x = tuple(section_integral("right", rho, right, r) for r in rows)
        inner_y = tuple(section_integral("left", nu, left, c) for c in columns)
        out.append(
            (
                outer_integral("left", nu, left, inner_x),
                outer_integral("right", rho, right, inner_y),
            )
        )
    return out


def _topology_pairs_with_valuations(rng, allow_infinity):
    """Every ordered pair of the 35 topologies on at most 3 points, with a
    valuation on each factor drawn from weights with oo or without."""
    weights = (ZERO, ext("1/3"), ONE, ext("5/2"), *((INF,) if allow_infinity else ()))
    spaces = [t for n in range(4) for t in lc.all_topologies(n)]
    assert len(spaces) == 35
    for a, b in itertools.product(spaces, repeat=2):
        nu = va.valuation_from_weights(a, [rng.choice(weights) for _ in range(a.n)])
        rho = va.valuation_from_weights(b, [rng.choice(weights) for _ in range(b.n)])
        yield sp.product(a, b), nu, rho


def test_open_iterated_integrals_are_the_direct_ones():
    # every ordered pair of topologies on at most 3 points, with oo and
    # without: the iterated integrals of each open's indicator, from the
    # tuples of values, against a LowerSemiFn per section
    for allow_infinity in (False, True):
        rng = random.Random(17 + allow_infinity)
        with_inf = 0
        for prod, nu, rho in _topology_pairs_with_valuations(rng, allow_infinity):
            with_inf += INF in nu.weights + rho.weights
            reference = _open_iterated_integrals_by_lsc(prod, nu, rho)
            assert list(lc.open_iterated_integrals(prod, nu, rho)) == reference
        assert (with_inf > 100) == allow_infinity


@pytest.mark.parametrize("allow_infinity", [False, True])
def test_iterated_integrals_are_the_lower_semicontinuous_forms(allow_infinity):
    # a random lower semicontinuous function on each product of the pairs
    rng = random.Random(19 + allow_infinity)
    cfg = lc.GenConfig(seed=19, allow_infinity=allow_infinity)
    with_inf = 0
    for prod, nu, rho in _topology_pairs_with_valuations(rng, allow_infinity):
        f = lc.rand_lsc(rng, cfg, prod.space)
        with_inf += INF in f.values
        got = lc.iterated_integrals(prod, nu, rho, f)
        assert got == _iterated_integrals_by_lsc(prod, nu, rho, f)
        whole = va.integrate(va.product_valuation(nu, rho, prod), f)
        assert got == (whole, whole)
    assert (with_inf > 100) == allow_infinity


def _outcome(law):
    try:
        return law()
    except Exception as exc:  # a raising law fails its check; compare the type
        return type(exc)


def _associativity_verdicts(shared: bool) -> list:
    rng = random.Random(23)
    verdicts = []
    for space in (t for n in range(4) for t in lc.all_topologies(n)):
        hx = hy.build_hyperspace(space)
        hhx = hy.inclusion_downsets(hx.members)
        if len(hhx) <= 8:
            xi_masks = hy.inclusion_downsets(hhx)
        else:
            xi_masks = [lc._rand_downset(rng, hhx) for _ in range(20)]
        inner: dict = {}
        for xi in xi_masks:
            memo = inner if shared else {}
            verdicts.append(
                _outcome(lambda: lc.associativity(lc.H, hx, *lc.h_tower(hx, hhx, xi), memo))
            )
    return verdicts


def test_associativity_with_one_memo_per_space_gives_the_fresh_verdicts(monkeypatch):
    verdicts = _associativity_verdicts(shared=True)
    assert verdicts == _associativity_verdicts(shared=False)
    assert all(v is True for v in verdicts)
    # the mutated multiplication, which the memo still calls, fails some
    _, attr, mutant = lc.MUTATIONS["mult-union-intersection"]
    monkeypatch.setattr(hy, attr, mutant)
    verdicts = _associativity_verdicts(shared=True)
    assert verdicts == _associativity_verdicts(shared=False)
    assert any(v is not True for v in verdicts)


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


def test_signed_sum():
    assert signed_sum([(1, ONE), (-1, ext("1/2")), (1, ext("1/4"))]) == ext("3/4")
    assert signed_sum([]) == ZERO
    with pytest.raises(InfinityIndeterminate):
        signed_sum([(1, INF), (-1, INF)])
    with pytest.raises(InfinityIndeterminate):
        signed_sum([(1, ONE), (-1, ExtRat(2))])


def _minimal_rectangles(prod, w):
    """The distinct least-neighbourhood rectangles (U, V) of the points of
    the open w, sorted."""
    return sorted(
        {
            (prod.left.min_nbhd[i], prod.right.min_nbhd[j])
            for i, j in map(prod.split, sp.bits(w))
        }
    )


def _inclusion_exclusion_by_subfamilies(prod, nu, rho):
    """The 2^k form of the product oracle: one signed term nu(U) * rho(V)
    per nonempty subfamily of the k minimal-neighbourhood rectangles of an
    open's points, U x V the subfamily's intersection."""
    nu_of = dict(zip(prod.left.opens, nu.table))
    rho_of = dict(zip(prod.right.opens, rho.table))
    table = []
    for w in prod.space.opens:
        rects = _minimal_rectangles(prod, w)
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


def _inclusion_exclusion_merged(prod, nu, rho):
    """The merged form of the product oracle, per open: its rectangles are
    added one at a time to a map from each distinct intersection U x V to
    an integer coefficient (adding R puts +1 on R and -c on (U x V) & R for
    each held (U x V, c)), and the value is the sum of c * nu(U) * rho(V)."""
    nu_of = dict(zip(prod.left.opens, nu.table))
    rho_of = dict(zip(prod.right.opens, rho.table))
    table = []
    for w in prod.space.opens:
        rects = _minimal_rectangles(prod, w)
        if any((nu_of[u] * rho_of[v]).is_infinite for u, v in rects):
            table.append(INF)
            continue
        coefficients: dict = {}
        for ru, rv in rects:
            added = {(ru, rv): 1}
            for (u, v), c in coefficients.items():
                key = (u & ru, v & rv)
                added[key] = added.get(key, 0) - c
            for key, c in added.items():
                coefficients[key] = coefficients.get(key, 0) + c
        table.append(
            signed_sum(
                (c, ExtRat(abs(c)) * nu_of[u] * rho_of[v])
                for (u, v), c in coefficients.items()
                if c
            )
        )
    return tuple(table)


@pytest.mark.parametrize("allow_infinity", [False, True])
def test_merged_inclusion_exclusion_is_the_subfamily_form(allow_infinity):
    # every ordered pair of the 35 topologies on at most 3 points: the
    # table by modularity along the opens is the merged and the 2^k form
    rng = random.Random(29 + allow_infinity)
    with_inf = 0
    for prod, nu, rho in _topology_pairs_with_valuations(rng, allow_infinity):
        table = lc.inclusion_exclusion_product(prod, nu, rho)
        with_inf += INF in table
        merged = _inclusion_exclusion_merged(prod, nu, rho)
        assert merged == _inclusion_exclusion_by_subfamilies(prod, nu, rho)
        assert table == merged
        assert table == va.product_valuation(nu, rho, prod).table
    assert (with_inf > 100) == allow_infinity


def _order_isomorphism_fresh(space, closed):
    """The order-isomorphism law building both hit tables for every pair."""
    return all(
        (c & ~d == 0)
        == all(
            x <= y
            for x, y in zip(
                hy.functional_of_closed(hy.ClosedSet(space, c)).table,
                hy.functional_of_closed(hy.ClosedSet(space, d)).table,
            )
        )
        for c in closed
        for d in closed
    )


def _order_isomorphism_verdicts(law) -> list:
    spaces = [t for n in range(4) for t in lc.all_topologies(n)]
    spaces += [sp.w_lattice(), sp.chain(4), sp.discrete(4)]
    return [_outcome(lambda: law(s, s.closed_sets())) for s in spaces]


def test_order_isomorphism_with_one_table_per_closed_set_gives_the_fresh_verdicts(
    monkeypatch,
):
    shared = _order_isomorphism_verdicts(lc.duality_is_order_isomorphism)
    assert shared == _order_isomorphism_verdicts(_order_isomorphism_fresh)
    assert all(v is True for v in shared)
    # of the ten mutations, only the up-set closure reaches the hit tables
    holder, attr, mutant = lc.MUTATIONS["closure-up-set"]
    monkeypatch.setattr(holder, attr, mutant)
    shared = _order_isomorphism_verdicts(lc.duality_is_order_isomorphism)
    assert shared == _order_isomorphism_verdicts(_order_isomorphism_fresh)
    assert any(v is not True for v in shared)


def test_open_iterated_integrals_share_repeated_section_values():
    # weights from {0, 1, oo} on discrete and chain factors: many sections
    # and many outer integrands repeat, and oo reaches both layers
    rng = random.Random(41)
    factors = [sp.discrete(2), sp.discrete(3), sp.chain(3), sp.sierpinski(), sp.w_lattice()]
    with_inf = 0
    for a, b in itertools.product(factors, repeat=2):
        prod = sp.product(a, b)
        for _ in range(3):
            nu = va.valuation_from_weights(a, [rng.choice((ZERO, ONE, INF)) for _ in range(a.n)])
            rho = va.valuation_from_weights(b, [rng.choice((ZERO, ONE, INF)) for _ in range(b.n)])
            with_inf += INF in nu.weights + rho.weights
            direct = _open_iterated_integrals_by_lsc(prod, nu, rho)
            assert len(set(direct)) < len(direct)
            assert list(lc.open_iterated_integrals(prod, nu, rho)) == direct
    assert with_inf > 50


def _transfer_laws_fresh(space, table, xis) -> bool:
    """transfer_laws with every cone built by cone_value, which builds its
    own units."""
    points = range(space.n)

    def e(nu):
        return su.algebra_evaluate(space, table, nu)

    def cone(*pairs):
        return lc.cone_value(space, table, pairs)

    if any(e(lc.V.unit(space, x)) != x for x in points):
        return False
    for xi in xis:
        if e(lc.V.mult(space, xi.atoms)) != cone(*((c, e(nu)) for c, nu in xi.atoms)):
            return False
    add = [[cone((ONE, x), (ONE, y)) for y in points] for x in points]
    smul = [[cone((r, x)) for x in points] for r in lc.SCALAR_GRID]
    zero = cone()
    pairs = list(itertools.product(points, repeat=2))
    if any(add[x][zero] != x or add[zero][x] != x for x in points):
        return False
    if any(add[x][y] != add[y][x] for x, y in pairs):
        return False
    if any(add[add[x][y]][z] != add[x][add[y][z]] for x, y in pairs for z in points):
        return False
    for r, r_x in zip(lc.SCALAR_GRID, smul):
        if r == ZERO and any(r_x[x] != zero for x in points):
            return False
        if r == ONE and any(r_x[x] != x for x in points):
            return False
        if any(r_x[add[x][y]] != add[r_x[x]][r_x[y]] for x, y in pairs):
            return False
        for t, t_x in zip(lc.SCALAR_GRID, smul):
            if r * t in lc.SCALAR_GRID:
                rt_x = smul[lc.SCALAR_GRID.index(r * t)]
                if any(rt_x[x] != r_x[t_x[x]] for x in points):
                    return False
            if any(cone((r + t, x)) != add[r_x[x]][t_x[x]] for x in points):
                return False
            if r <= t and not all(space.leq(r_x[x], t_x[x]) for x in points):
                return False
    return True


def _transfer_verdicts(law) -> list:
    rng = random.Random(37)
    cfg = lc.GenConfig(seed=37)
    verdicts = []
    for space in [*(t for n in range(4) for t in lc.all_topologies(n)), sp.w_lattice()]:
        joins = hy.join_algebra_map(space)
        if joins is None:
            continue
        xis = [lc.rand_sso(rng, cfg, space) for _ in range(3)] if space.n else []
        verdicts.append(_outcome(lambda: law(space, joins, xis)))
    return verdicts


@pytest.mark.parametrize("mutation", [None, "support-null-union", "sgn-not-strict"])
def test_transfer_laws_with_one_unit_per_point_give_the_fresh_verdicts(monkeypatch, mutation):
    if mutation is not None:
        _, attr, mutant = lc.MUTATIONS[mutation]
        monkeypatch.setattr(su, attr, mutant)
    shared = _transfer_verdicts(lc.transfer_laws)
    assert len(shared) == 10
    assert shared == _transfer_verdicts(_transfer_laws_fresh)
    assert all(v is True for v in shared) == (mutation is None)


# --- the structural laws shared by H and V --------------------------------------


def _canned(M, space):
    """Elements of M on space, and two scalars for mixtures: every closed
    set for H; for V the zero valuation, the Diracs and a valuation with
    weights 0, 1/2, 1 and oo in turn."""
    if M is lc.H:
        return [hy.ClosedSet(space, c) for c in space.closed_sets()], (True, True)
    kinds = (ZERO, ext("1/2"), ONE, INF)
    mixed = va.valuation_from_weights(space, [kinds[x % 4] for x in range(space.n)])
    diracs = [va.unit_delta(space, x) for x in range(space.n)]
    return [va.zero_valuation(space), *diracs, mixed], (ext("1/2"), ext(2))


def _shared_law_verdicts(M) -> dict:
    """The verdict of each shared law, by name, on canned instances over
    Sierpinski space and the diamond lattice."""
    verdicts = {}

    def record(name, law, *args):
        verdicts.setdefault(name, []).append(_outcome(lambda: law(M, *args)))

    def where(space):
        return hy.build_hyperspace(space) if M is lc.H else space

    s2, w = sp.sierpinski(), sp.w_lattice()
    for space in (s2, w):
        es, (c, d) = _canned(M, space)
        for e in es:
            record("left unit", lc.left_unit, where(space), e)
            record("right unit", lc.right_unit, where(space), e)
        inners = [[(c, es[-1]), (d, es[1])], [(d, es[0]), (c, es[-1])]]
        record("associativity", lc.associativity, where(space), inners.__getitem__, [(d, 0), (c, 1)], {})
    one = sp.one_point()
    for a, b in ((s2, w), (w, s2)):
        es_a, (c, d) = _canned(M, a)
        es_b, _ = _canned(M, b)
        f = lc.rand_map(random.Random(3), a, b)
        prod, prod_ba, prod1 = sp.product(a, b), sp.product(b, a), sp.product(a, one)
        record("multiplication naturality", lc.mult_naturality, f, where(a), where(b), [(c, es_a[-1]), (d, es_a[1])])
        for x in range(a.n):
            record("unit naturality", lc.unit_naturality, f, x)
            record("strength multiplication", lc.strength_mult, prod, x, where(b), [(c, es_b[-1]), (d, es_b[1])])
            for y in range(b.n):
                record("strength unit", lc.strength_unit, prod, x, y)
            for e in _canned(M, one)[0]:
                record("strength unitor", lc.strength_unitor, prod1, x, e)
            for e in es_b:
                record("costrength through the symmetry", lc.costrength_symmetry, prod, prod_ba, x, e)
        for ea, eb in itertools.product(es_a, es_b):
            product = hy.product_closed(prod, ea, eb) if M is lc.H else va.product_valuation(ea, eb, prod)
            record("commutativity square", lc.commutativity, prod, ea, eb, product)
    associator = lc._associator()
    pxy, pyz = associator[:2]
    for x, y in itertools.product(range(pxy.left.n), range(pxy.right.n)):
        for e in _canned(M, pyz.right)[0]:
            record("strength associator", lc.strength_associator, associator, x, y, e)
    return verdicts


def test_shared_laws_hold_for_H_and_V_and_see_mutations(monkeypatch):
    for M in (lc.H, lc.V):
        verdicts = _shared_law_verdicts(M)
        assert len(verdicts) == 11
        assert {name: all(v is True for v in vs) for name, vs in verdicts.items()} == dict.fromkeys(verdicts, True)
    # the records call the public functions when they run, so patched
    # mutations are seen: a unit that is no closed set, a multiplication
    # that drops the weights
    with monkeypatch.context() as patch:
        _, attr, mutant = lc.MUTATIONS["sigma-no-closure"]
        patch.setattr(hy, attr, mutant)
        assert not all(v is True for v in _shared_law_verdicts(lc.H)["right unit"])
    _, attr, mutant = lc.MUTATIONS["mult-E-ignores-weights"]
    monkeypatch.setattr(va, attr, mutant)
    verdicts = _shared_law_verdicts(lc.V)
    assert not all(v is True for v in verdicts["right unit"])
    assert not all(v is True for v in verdicts["commutativity square"])


def test_v_monad_maps_and_kernels_come_from_streams_of_their_own(monkeypatch):
    # two pairs of the same spaces can draw different maps, and different
    # first kernels, where a generator reseeded per pair would repeat them
    maps, kernels = {}, []
    rand_map, rand_kernel = lc.rand_map, lc.rand_kernel

    def spy_map(rng, a, b):
        f = rand_map(rng, a, b)
        maps.setdefault((a, b), set()).add(f and f.assignment)
        return f

    def spy_kernel(rng, cfg, a, b):
        k = rand_kernel(rng, cfg, a, b)
        kernels.append(((a, b), k.table))
        return k

    monkeypatch.setattr(lc, "rand_map", spy_map)
    monkeypatch.setattr(lc, "rand_kernel", spy_kernel)
    # on at most two points the pairs of spaces repeat often
    report = lc.run_suite("v-monad", lc.GenConfig(seed=42, max_points=2))
    assert report.ok
    assert any(len(drawn) > 1 for drawn in maps.values())
    first = {}  # each pair draws three kernels, the first on its own spaces
    for spaces, table in kernels[::3]:
        first.setdefault(spaces, set()).add(table)
    assert any(len(drawn) > 1 for drawn in first.values())


@pytest.mark.parametrize(
    "mutation, suite",
    [
        ("push-closed-no-closure", "supp-natural"),
        ("sigma-no-closure", "supp-mult"),
        ("mult-union-intersection", "supp-mult"),
    ],
)
def test_the_support_squares_see_mutations_patched_into_hyperspace(mutation, suite):
    # the squares reach push_closed, unit_sigma and mult_union through the
    # H record, which looks them up when a law runs, not at import
    cfg = lc.GenConfig(seed=42, max_points=3)
    [report] = lc.run_with_mutation(mutation, cfg, suites=(suite,))
    assert report.failures


@pytest.mark.parametrize("mutation", ["mult-union-intersection", "sigma-no-closure"])
def test_algebra_transfer_checks_every_instance_under_a_mutant(mutation):
    # no verdict of the code under test gates the run: a mutant unit or
    # union map fails the check that the join map is an H-algebra, and
    # the run goes on to check as many instances as the clean one
    cfg = lc.GenConfig(seed=42, max_points=3)
    clean = lc.run_suite("algebra-transfer", cfg)
    [report] = lc.run_with_mutation(mutation, cfg, suites=("algebra-transfer",))
    assert clean.ok and clean.instances == 42
    assert report.instances == clean.instances
    assert report.failures
    assert not any(f.message.startswith("suite aborted") for f in report.failures)


def test_p_sees_a_mutation_patched_into_v():
    # P's multiplication is V's, looked up when it runs, so a mixture that
    # ignores its weights leaves P: the result's mass is not 1
    cfg = lc.GenConfig(seed=42, max_points=3)
    [report] = lc.run_with_mutation("mult-E-ignores-weights", cfg, suites=("p-submonad",))
    assert any("NotNormalized" in f.message for f in report.failures)


def _same_draws(cfg, allow_zero, count):
    """`_rand_extrat`, which chooses from its table, against the two
    randint calls of `_rand_extrat_by_fraction`."""
    table, reference = random.Random(cfg.seed), random.Random(cfg.seed)
    for _ in range(count):
        drawn = lc._rand_extrat(table, cfg, allow_zero)
        assert drawn == _rand_extrat_by_fraction(reference, cfg, allow_zero)
        assert drawn or allow_zero
    assert table.getstate() == reference.getstate()


@pytest.mark.parametrize("allow_zero", [False, True])
@pytest.mark.parametrize("allow_infinity", [False, True])
@pytest.mark.parametrize("seed", [42, 7, 10011])
def test_weight_draws_are_the_randint_draws(seed, allow_infinity, allow_zero):
    """10,000 draws give the same values, and leave the stream in the same
    state, as the randint form."""
    cfg = lc.GenConfig(seed=seed, allow_infinity=allow_infinity)
    _same_draws(cfg, allow_zero, 10_000)


@pytest.mark.parametrize("bound", [1, 2, 64, 65, 1000])
def test_weight_draws_at_other_bounds_are_the_randint_draws(bound):
    """Both sides of the largest tabled bound, 64, and its ends."""
    cfg = lc.GenConfig(seed=bound, weight_denominator_bound=bound)
    for allow_zero in (False, True):
        _same_draws(cfg, allow_zero, 2_000)
