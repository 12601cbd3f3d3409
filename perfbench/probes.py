"""Fixed-size probes: one library call per layer, on named inputs.

Each probe is repeated until it has run at least MIN_REPEATS times and for
at least MIN_SECONDS, and reports the median time of one call.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import docs

MIN_REPEATS = 5
MIN_SECONDS = 0.2
EXTRAT_LOOP = 2000  # ExtRat operations per timed repeat


def _median_seconds(fn, *args, per_call: int = 1) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPEATS or time.perf_counter() - start < MIN_SECONDS:
        t0 = time.perf_counter()
        fn(*args)
        times.append((time.perf_counter() - t0) / per_call)
    return statistics.median(times)


def _loop(op, a, b):
    for _ in range(EXTRAT_LOOP):
        op(a, b)


def run(tm, seed: int) -> dict[str, float]:
    """Per-layer probe metrics, keyed by metric name, in each name's unit."""
    ExtRat, INF = tm.extrat.ExtRat, tm.extrat.INF
    sp, va = tm.spaces, tm.valuations
    a, b = ExtRat(Fraction(3, 7)), ExtRat(Fraction(5, 11))
    ns = 1e9 / EXTRAT_LOOP
    out = {
        "extrat.add_ns": ns * _median_seconds(_loop, ExtRat.__add__, a, b),
        "extrat.mul_ns": ns * _median_seconds(_loop, ExtRat.__mul__, a, b),
        "extrat.lt_ns": ns * _median_seconds(_loop, ExtRat.__lt__, a, b),
        "extrat.add_inf_ns": ns * _median_seconds(_loop, ExtRat.__add__, a, INF),
    }

    # the one seeded probe: a random 5-point partial order
    up = docs.random_poset(random.Random(f"probe-{seed}"), 5, 0.4)
    names = [f"p{i}" for i in range(5)]
    relation = [(names[x], names[y]) for x in range(5) for y in range(5) if up[x] >> y & 1]
    out["spaces.from_preorder_us"] = 1e6 * _median_seconds(sp.from_preorder, names, relation)

    d3, d5 = sp.discrete(3), sp.discrete(5)
    out["spaces.product_ms.d3xd3"] = 1e3 * _median_seconds(sp.product, d3, d3)
    out["hyperspace.build_ms.discrete4"] = 1e3 * _median_seconds(
        tm.hyperspace.build_hyperspace, sp.discrete(4)
    )
    out["hyperspace.build_ms.discrete5"] = 1e3 * _median_seconds(
        tm.hyperspace.build_hyperspace, d5
    )

    w5 = tuple(ExtRat(Fraction(k, 4)) for k in (4, 2, 8, 0, 3))
    nu5 = va.valuation_from_weights(d5, w5)
    g5 = va.LowerSemiFn(d5, tuple(ExtRat(k) for k in (0, 1, 2, 1, 3)))
    out["valuations.integrate_us"] = 1e6 * _median_seconds(va.integrate, nu5, g5)
    onto_chain = sp.ContinuousMap(d5, sp.chain(3), (0, 1, 2, 1, 0))
    out["valuations.pushforward_ms"] = 1e3 * _median_seconds(va.pushforward, onto_chain, nu5)
    nu3 = va.valuation_from_weights(d3, (ExtRat(1), ExtRat(Fraction(1, 2)), ExtRat(2)))
    rho3 = va.valuation_from_weights(d3, (ExtRat(Fraction(1, 3)), ExtRat(0), ExtRat(1)))
    out["valuations.product_ms.d3xd3"] = 1e3 * _median_seconds(va.product_valuation, nu3, rho3)
    out["valuations.validate_ms"] = 1e3 * _median_seconds(va.validate_valuation, d5, nu5.table)
    out["probability.extend_ms"] = 1e3 * _median_seconds(tm.probability.extend_to_measure, nu5)
    out["support.support_ms"] = 1e3 * _median_seconds(tm.support.support, nu5)
    return out
