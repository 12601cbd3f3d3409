"""Acceptance gate: twelve criteria, each printing one pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see every line even on
success.  All comparisons are exact rational arithmetic, tolerance zero.
"""

import itertools
import random
import time
from fractions import Fraction

from topmonads import cli
from topmonads import hyperspace as hy
from topmonads import lawcheck as lc
from topmonads import probability as pb
from topmonads import spaces as sp
from topmonads import support as su
from topmonads import valuations as va
from topmonads.extrat import ONE, ZERO, ExtRat, ext, sgn
from topmonads.lawcheck import (
    H,
    GenConfig,
    _rand_downset,
    all_topologies,
    associativity,
    commutativity,
    count_valid_functional_tables,
    family_mixture,
    fubini_square,
    generate_space,
    h_specialization_is_inclusion,
    h_tower,
    left_unit,
    mixture_of_measures_agrees,
    rand_closed,
    rand_kernel,
    rand_lsc,
    rand_map,
    rand_prob,
    rand_sso,
    rand_valuation,
    right_unit,
    strength_mult,
)

from test_valuations import oracle_integral


def criterion(num, body):
    try:
        ok, description = body()
        note = ""
    except Exception as exc:
        ok, description = False, "aborted"
        note = f" ({type(exc).__name__}: {exc})"
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}{note}"
    print("\n" + line)
    assert ok, line


def spaces_up_to(max_points, count, seed=42):
    cfg = GenConfig(seed=seed, max_points=max_points)
    return list(itertools.islice(generate_space(cfg), count))


def h_unit_laws(hx):
    """Both unit laws of H at every point of HX."""
    return all(
        left_unit(H, hx, hx.closed_of(i)) and right_unit(H, hx, hx.closed_of(i))
        for i in range(len(hx.members))
    )


def h_associativity(hx, hhx, xi):
    return associativity(H, hx, *h_tower(hx, hhx, xi), {})


def test_criterion_01_h_monad_laws():
    def body():
        start = time.monotonic()
        rng = random.Random(1)
        ok = True
        # all 4 labeled 2-point topologies, with exhaustive HHHX associativity
        two = all_topologies(2)
        ok = ok and len(two) == 4
        for space in two:
            hx = hy.build_hyperspace(space)
            hhx = hy.inclusion_downsets(hx.members)
            ok = ok and h_unit_laws(hx)
            for xi in hy.inclusion_downsets(hhx):
                ok = ok and h_associativity(hx, hhx, xi)
        # all 29 labeled 3-point topologies: exhaustive units, sampled HHHX
        three = all_topologies(3)
        ok = ok and len(three) == 29
        for space in three:
            hx = hy.build_hyperspace(space)
            hhx = hy.inclusion_downsets(hx.members)
            ok = ok and h_unit_laws(hx)
            for _ in range(100):
                ok = ok and h_associativity(hx, hhx, _rand_downset(rng, hhx))
        elapsed = time.monotonic() - start
        return ok and elapsed < 60, (
            "hyperspace monad laws: 4 two-point topologies exhaustive, 29"
            " three-point topologies with 100 sampled associativity"
            f" instances each ({elapsed:.1f}s)"
        )

    criterion(1, body)


def test_criterion_02_duality_round_trips():
    def body():
        ok = True
        spaces = spaces_up_to(4, 200)
        for space in spaces:
            closed = space.closed_sets()
            for c in closed:
                phi = hy.functional_of_closed(hy.ClosedSet(space, c))
                back = phi.closed
                ok = ok and back.members == c
                ok = ok and hy.functional_of_closed(back) == phi
            ok = ok and count_valid_functional_tables(space) == len(closed)
        return ok, (
            "closed sets <-> strict join-preserving functionals, round trips"
            f" and brute-force table counts on {len(spaces)} spaces"
        )

    criterion(2, body)


def test_criterion_03_vietoris_cross_check():
    def body():
        spaces = spaces_up_to(4, 200, seed=7)
        ok = True
        for space in spaces:
            # regenerate the lower Vietoris topology from the Hit subbasis
            # and compare it with the inclusion up-sets HX is built from
            hx = hy.build_hyperspace(space)
            ok = ok and lc.vietoris_topology(hx) == set(hx.space.opens)
            ok = ok and h_specialization_is_inclusion(hx)
        return ok, (
            f"lower Vietoris = inclusion up-sets on {len(spaces)} spaces"
            " of at most 4 points"
        )

    criterion(3, body)


def test_criterion_04_integration_oracle():
    def body():
        start = time.monotonic()
        rng = random.Random(4)
        cfg = GenConfig(seed=4, max_points=5, weight_denominator_bound=16)
        spaces = [s for s in spaces_up_to(5, 80, seed=4) if s.n >= 1]
        pool = [ZERO, ext("1/2"), ExtRat(2)]
        ok = True
        checked = 0
        while checked < 500:
            space = spaces[checked % len(spaces)]
            nu = rand_valuation(rng, cfg, space)
            g = rand_lsc(rng, cfg, space, pool=pool)
            ok = ok and va.integrate(nu, g) == oracle_integral(nu, g)
            checked += 1
        elapsed = time.monotonic() - start
        return ok and elapsed < 30, (
            "layer-cake integral equals the brute-force supremum oracle on"
            f" {checked} instances ({elapsed:.1f}s)"
        )

    criterion(4, body)


def test_criterion_05_v_monad_laws():
    def body():
        rng = random.Random(5)
        cfg = GenConfig(seed=5, max_points=3)
        spaces = [s for s in spaces_up_to(3, 60, seed=5) if s.n >= 1]
        ok = True
        units = 0
        while units < 500:
            space = spaces[units % len(spaces)]
            nu = rand_valuation(rng, cfg, space)
            # left unit: one atom of weight one flattens to itself
            ok = ok and va.mult_E(va.SimpleSecondOrder(space, ((ONE, nu),))) == nu
            # right unit: the Dirac decomposition flattens back
            atoms = tuple(
                (nu.weights[x], va.unit_delta(space, x))
                for x in range(space.n)
                if sgn(nu.weights[x])
            )
            if atoms:
                ok = ok and va.mult_E(va.SimpleSecondOrder(space, atoms)) == nu
            else:
                ok = ok and nu.is_zero()
            units += 1
        towers = 0
        while towers < 200:
            space = spaces[towers % len(spaces)]
            inner = [rand_sso(rng, cfg, space) for _ in range(2)]
            weights = [ext(rng.randint(1, 4)) for _ in inner]
            flattened = va.mult_E(
                va.SimpleSecondOrder(
                    space,
                    tuple(
                        (w * c, v)
                        for w, xi in zip(weights, inner)
                        for c, v in xi.atoms
                    ),
                )
            )
            nested = va.mult_E(
                va.SimpleSecondOrder(
                    space,
                    tuple((w, va.mult_E(xi)) for w, xi in zip(weights, inner)),
                )
            )
            ok = ok and flattened == nested
            towers += 1
        triples = 0
        agreements = 0
        while triples < 200:
            a = spaces[triples % len(spaces)]
            b = spaces[(triples + 1) % len(spaces)]
            h = rand_kernel(rng, cfg, a, b)
            k = rand_kernel(rng, cfg, b, a)
            m = rand_kernel(rng, cfg, a, a)
            left = va.kleisli_compose(va.kleisli_compose(m, k), h)
            right = va.kleisli_compose(m, va.kleisli_compose(k, h))
            ok = ok and left.table == right.table
            ok = ok and va.kleisli_compose(va.delta_kernel(b), h).table == h.table
            ok = ok and va.kleisli_compose(h, va.delta_kernel(a)).table == h.table
            # the Kleisli composite agrees with the molecular formulation
            composed = va.kleisli_compose(k, h)
            for x in range(a.n):
                atoms = tuple(
                    (h.table[x].weights[y], k.table[y])
                    for y in range(b.n)
                    if sgn(h.table[x].weights[y])
                )
                if atoms:
                    ok = ok and composed.table[x] == va.mult_E(
                        va.SimpleSecondOrder(a, atoms)
                    )
                else:
                    ok = ok and composed.table[x].is_zero()
                agreements += 1
            triples += 1
        return ok, (
            f"valuation monad: {units} unit instances, {towers} associativity"
            f" towers, {triples} Kleisli triples, {agreements} molecular/"
            "Kleisli agreements"
        )

    criterion(5, body)


def test_criterion_06_strength_and_fubini():
    def body():
        rng = random.Random(6)
        cfg = GenConfig(seed=6, max_points=3)
        pool = [
            s
            for s in spaces_up_to(3, 40, seed=6)
            if 1 <= s.n <= 3 and len(s.opens) <= 16
        ]
        one = sp.one_point()
        ok = True
        done = 0
        i = 0
        while done < 200:
            a = pool[i % len(pool)]
            b = pool[(i + 1) % len(pool)]
            i += 1
            prod = sp.product(a, b)
            if len(prod.space.opens) > 300:
                continue
            hxb = hy.build_hyperspace(b)
            x = rng.randrange(a.n)
            y = rng.randrange(b.n)
            c = rand_closed(rng, b)
            # H strength: unit diagram
            ok = ok and hy.strength_H(
                prod, x, hy.unit_sigma(b, y)
            ) == hy.unit_sigma(prod.space, prod.pair(x, y))
            # H strength: unitor diagram (terminal second factor)
            prod1 = sp.product(a, one)
            for members in (0, 1):
                pushed = hy.push_closed(
                    prod1.proj1,
                    hy.strength_H(prod1, x, hy.ClosedSet(one, members)),
                )
                ok = ok and pushed.members == (
                    a.closure(1 << x) if members else 0
                )
            # H strength: multiplication diagram
            ok = ok and strength_mult(
                H, prod, x, hxb, family_mixture(hxb, _rand_downset(rng, hxb.members))
            )
            # H strength: associator diagram
            pbc = sp.product(b, one)
            pa_bc = sp.product(a, pbc.space)
            pab_c = sp.product(prod.space, one)
            assoc = sp.ContinuousMap(
                pab_c.space,
                pa_bc.space,
                tuple(
                    pa_bc.pair(p, pbc.pair(q, z))
                    for p in range(a.n)
                    for q in range(b.n)
                    for z in range(one.n)
                ),
            )
            c1 = rand_closed(rng, one)
            ok = ok and hy.push_closed(
                assoc, hy.strength_H(pab_c, prod.pair(x, y), c1)
            ) == hy.strength_H(pa_bc, x, hy.strength_H(pbc, y, c1))
            # V strength: the same four diagrams
            nu = rand_valuation(rng, cfg, b)
            ok = ok and va.strength_V(
                prod, x, va.unit_delta(b, y)
            ) == va.unit_delta(prod.space, prod.pair(x, y))
            mass = ext(rng.randint(0, 3))
            ok = ok and va.pushforward(
                prod1.proj1,
                va.strength_V(prod1, x, va.valuation_from_weights(one, (mass,))),
            ) == va.valuation_from_weights(
                a, tuple(mass if q == x else ZERO for q in range(a.n))
            )
            xi = rand_sso(rng, cfg, b)
            ok = ok and va.strength_V(prod, x, va.mult_E(xi)) == va.mult_E(
                va.SimpleSecondOrder(
                    prod.space,
                    tuple((cj, va.strength_V(prod, x, vj)) for cj, vj in xi.atoms),
                )
            )
            rho1 = rand_valuation(rng, cfg, one)
            ok = ok and va.pushforward(
                assoc, va.strength_V(pab_c, prod.pair(x, y), rho1)
            ) == va.strength_V(pa_bc, x, va.strength_V(pbc, y, rho1))
            # commutativity square for closed sets
            ca = rand_closed(rng, a)
            ok = ok and commutativity(H, prod, ca, c, hy.product_closed(prod, ca, c))
            # commutativity (Fubini) square for valuations, against the
            # weight-product and iterated-integral oracles too
            mu = rand_valuation(rng, cfg, a)
            ok = ok and fubini_square(prod, mu, nu)
            done += 1
        return ok, (
            "all four strength diagrams for closed sets and for valuations"
            f" plus both commutativity squares, {done} instances each"
        )

    criterion(6, body)


def test_criterion_07_probability():
    def body():
        rng = random.Random(7)
        cfg = GenConfig(seed=7, max_points=3, allow_infinity=False)
        t0 = [
            s
            for s in spaces_up_to(3, 80, seed=7)
            if s.n >= 1 and sp.check_separation(s).is_T0
        ]
        ok = True
        moebius = 0
        while moebius < 500:
            space = t0[moebius % len(t0)]
            nu = rand_valuation(rng, cfg, space)
            m = pb.extend_to_measure(nu)
            ok = ok and all(m.measure_of(u) == nu.value(u) for u in space.opens)
            ok = ok and all(w.frac >= 0 for w in m.point_weights)
            moebius += 1
        mixtures = 0
        while mixtures < 300:
            space = t0[mixtures % len(t0)]
            xi = rand_sso(rng, cfg, space, prob=True)
            ok = ok and mixture_of_measures_agrees(xi)
            mixtures += 1
        pairs = 0
        attempts = 0
        while pairs < 200:
            a = t0[attempts % len(t0)]
            b = t0[(attempts + 1) % len(t0)]
            attempts += 1
            prod = sp.product(a, b)
            if len(prod.space.opens) > 300:
                continue
            p = rand_prob(rng, cfg, a)
            q = rand_prob(rng, cfg, b)
            pm = pb.product_measure(p, q, prod)
            ok = (
                ok
                and va.pushforward(prod.proj1, pm) == p
                and va.pushforward(prod.proj2, pm) == q
            )
            pairs += 1
        return ok, (
            f"Moebius extension round trip x{moebius}, measure-level vs"
            f" valuation-level mixture x{mixtures}, product-measure marginal"
            f" round trip x{pairs}"
        )

    criterion(7, body)


def test_criterion_08_support_morphism():
    def body():
        rng = random.Random(8)
        cfg = GenConfig(seed=8, max_points=3, allow_infinity=False)
        spaces = spaces_up_to(3, 60, seed=8)
        nonempty = [s for s in spaces if s.n >= 1]
        ok = True
        # unit square: exhaustive on every generated space
        units = 0
        for space in spaces:
            for x in range(space.n):
                ok = ok and lc.supp_unit(space, x)
                units += 1
        # multiplication square: molecular instances over many spaces
        mult_spaces = nonempty[:25]
        xis_checked = 0
        for space in mult_spaces:
            xis = [rand_sso(rng, cfg, space) for _ in range(20)]
            hx = hy.build_hyperspace(space)
            ok = ok and all(lc.supp_mult(space, hx, xi.atoms) for xi in xis)
            xis_checked += len(xis)
        # naturality
        naturality = 0
        while naturality < 500:
            a = nonempty[naturality % len(nonempty)]
            b = nonempty[(naturality + 1) % len(nonempty)]
            f = rand_map(rng, a, b)
            nu = rand_valuation(rng, cfg, a)
            ok = ok and lc.supp_naturality(f, nu)
            naturality += 1
        # monoidality (strength, product, and marginal squares)
        monoidal = 0
        attempts = 0
        while monoidal < 200:
            a = nonempty[attempts % len(nonempty)]
            b = nonempty[(attempts + 1) % len(nonempty)]
            attempts += 1
            prod = sp.product(a, b)
            if len(prod.space.opens) > 300:
                continue
            nu = rand_valuation(rng, cfg, a)
            rho = rand_valuation(rng, cfg, b)
            ok = ok and all(lc.supp_product_squares(prod, nu, rho))
            monoidal += 1
        # the support of an extended measure has full measure
        full = 0
        while full < 500:
            space = nonempty[full % len(nonempty)]
            nu = rand_valuation(rng, cfg, space)
            m = pb.extend_to_measure(nu)
            supp = su.support(m)
            ok = ok and m.measure_of(supp.members) == m.mass
            ok = ok and supp.members == lc.least_closed_of_full_measure(m)
            full += 1
        return ok, (
            f"support is a monad morphism: unit x{units} (exhaustive),"
            f" multiplication x{xis_checked} over {len(mult_spaces)} spaces,"
            f" naturality x{naturality}, monoidality x{monoidal},"
            f" full-measure support x{full}"
        )

    criterion(8, body)


def test_criterion_09_portmanteau_certificates():
    def body():
        rng = random.Random(9)
        cfg = GenConfig(seed=9, max_points=4)
        nonempty = [s for s in spaces_up_to(4, 60, seed=9) if s.n >= 1]
        certified = 0
        attempts = 0
        while certified < 200:
            space = nonempty[attempts % len(nonempty)]
            attempts += 1
            nu = rand_valuation(rng, cfg, space)
            g = rand_lsc(rng, cfg, space)
            r = ext(Fraction(rng.randint(0, 8), 4))
            if not va.big_theta_membership(nu, g, r):
                continue
            cert = va.portmanteau_witness(nu, g, r)
            if not lc.certificate_is_sound(g, r, cert, nu):
                return False, f"unsound certificate for {nu} and {g} at {r}"
            certified += 1
        return True, (
            "portmanteau certificates produced and independently checked"
            f" x{certified}"
        )

    criterion(9, body)


def test_criterion_10_mutation_sensitivity():
    def body():
        cfg = GenConfig()  # the default configuration
        results = {name: lc.mutation_detected(name, cfg) for name in lc.MUTATIONS}
        missed = [name for name, hit in results.items() if not hit]
        ok = len(results) == 10 and not missed
        return ok, (
            f"{len(results) - len(missed)}/{len(results)} seeded semantic"
            f" mutations detected (missed: {missed or 'none'})"
        )

    criterion(10, body)


def test_criterion_11_named_example_regression():
    def body():
        ok = True
        s = sp.sierpinski()
        rep = sp.check_separation(s)
        ok = ok and (rep.is_T0, rep.is_T1, rep.is_sober) == (True, False, True)
        ok = ok and len(s.opens) == 3
        # the hyperspace is the 3-chain of closed sets
        hx = hy.build_hyperspace(s)
        ok = ok and hx.members == (0, 1, 3) and len(hx.space.opens) == 4
        # support of the Dirac at the open point is the whole space
        ok = ok and sorted(
            su.support(va.unit_delta(s, s.index("1"))).names()
        ) == ["0", "1"]
        # extension of the (2/3, 1/3) valuation
        nu = va.valuation_from_weights(s, (ext("2/3"), ext("1/3")))
        ok = ok and pb.extend_to_measure(nu).point_weights == (
            ext("2/3"),
            ext("1/3"),
        )
        # the running integration example
        half = va.valuation_from_weights(s, (ext("1/2"), ext("1/2")))
        ok = ok and va.integrate(
            half, va.LowerSemiFn(s, (ONE, ExtRat(2)))
        ) == ext("3/2")
        # W lattice: the join map is an algebra and induces a cone where
        # addition is join and every positive scalar acts trivially
        w = sp.w_lattice()
        hw, joins = hy.build_hyperspace(w), hy.join_algebra_map(w)
        ok = ok and lc.h_algebra(w, hw, joins)
        ok = ok and lc.join_characterization(w, hw, joins)
        ok = ok and lc.transfer_laws(w, joins, ())
        bottom, x, y, top = (w.index(p) for p in ("0", "x", "y", "t"))
        ok = ok and lc.cone_value(w, joins, [(ONE, x), (ONE, y)]) == top
        ok = ok and lc.cone_value(w, joins, []) == bottom
        for r in lc.SCALAR_GRID:
            ok = ok and all(
                lc.cone_value(w, joins, [(r, p)]) == (bottom if r == ZERO else p)
                for p in range(w.n)
            )
        return ok, (
            "named example regressions: Sierpinski pipeline values and the"
            " W-lattice join algebra with its induced cone"
        )

    criterion(11, body)


def test_criterion_12_full_law_run(capsys):
    def body():
        start = time.monotonic()
        code = cli.main(["laws", "all", "--seed", "42", "--max-points", "3"])
        capsys.readouterr()
        elapsed = time.monotonic() - start
        return code == 0 and elapsed < 300, (
            f"`laws all --seed 42 --max-points 3` exited {code}"
            f" in {elapsed:.1f}s"
        )

    criterion(12, body)
