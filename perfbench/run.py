"""Benchmark of the topmonads checker: law sweeps, CLI documents, mutants.

    python3 perfbench/run.py --workload laws --seed 42 --seconds 40 --trace 0

runs one workload for about `--seconds` seconds and prints, as the last line
of standard output, one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones; with `--trace 1` they are the per-layer ones, from spans the benchmark
records around its own calls into the package.  `--workload all` runs the
three workloads, each in a fresh process, and prints every end-to-end
metric under its workload's name.  README.md in this directory describes
the workloads and metrics, and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import builtins
import functools
import importlib
import itertools
import json
import math
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Compile the package from source on every import, so that set-up time does
# not depend on bytecode caches that earlier runs or tests left behind.
sys.dont_write_bytecode = True
sys.pycache_prefix = str(ROOT / ".bench_build" / "no-pycache")

import docs  # noqa: E402
import probes  # noqa: E402
from gauge import Gauge  # noqa: E402
from spans import Tracer, untraced  # noqa: E402

MODULES = (
    "errors",
    "extrat",
    "spaces",
    "hyperspace",
    "valuations",
    "probability",
    "support",
    "lawcheck",
    "cli",
)

SETUP_REPEATS = 3
# A law sweep's time varies about threefold between seeds, because the
# seed's stream of random spaces decides how large the products are that
# the suites multiply (`product_work`).  So a run sweeps a panel of
# sub-seeds, one near each of these levels of product work, and reports
# means over the panel.  The levels are the quantiles (i + 1/2) / (9/8 k),
# over the seeds 0 to 1999, of the work that matters to each workload: both
# numbers of `product_work` for the laws, the first for the mutation
# suites, which multiply only pairs of the whole stream.  They leave out
# the costliest ninth of seeds, whose time a few huge products decide.
LAWS_WORK = (
    (1766, 5490), (3434, 9082), (5214, 11956), (6824, 14858),
    (8822, 17846), (11478, 21046), (14266, 25374), (18564, 30460),
)
MUTANTS_WORK = (
    1426, 2112, 2940, 3886, 4798, 5618, 6378, 7210,
    8310, 9404, 10804, 12292, 13542, 15106, 17138, 20250,
)
CANDIDATES = 100  # sub-seeds weighed to fill a panel
# Copies of docs.MIX in the request list.  A run's percentiles vary with
# the seed's requests more than with timing noise, so a run answers many
# requests once rather than a few many times: 2,400 requests, one sweep.
# The traced run repeats its own list, so it takes a shorter one.
DOCS_ROUNDS = 80
TRACE_DOCS_ROUNDS = 16


def gen_config(tm, seed: int, allow_infinity: bool):
    # Every field is given, so a changed default cannot change the workload.
    return tm.lawcheck.GenConfig(
        seed=seed,
        max_points=3,
        instance_count=60,
        weight_denominator_bound=16,
        allow_infinity=allow_infinity,
    )


def product_work(tm, seed: int, terms) -> tuple[int, int]:
    """Inclusion-exclusion terms of the space pairs a sweep at `seed` multiplies.

    The suites pair consecutive spaces of the seed's stream, some after
    dropping the empty space: the first number covers the first 60 pairs
    of the stream, the second the first 60 pairs of non-empty spaces.
    """
    stream = tm.lawcheck.generate_space(gen_config(tm, seed, True))
    ups = [
        tuple(s.up_mask(x) for x in range(s.n)) for s in itertools.islice(stream, 130)
    ]
    nonempty = [u for u in ups if u]

    def pairs(seq):
        return sum(terms(a, b) for a, b in zip(seq[:61], seq[1:61]))

    return pairs(ups), pairs(nonempty)


def panel(tm, seed: int, levels, allow_infinity: bool, project) -> list:
    """GenConfigs for sub-seeds derived from --seed, one near each level.

    Of the candidates seed + 10000 * k, k = 1 .. CANDIDATES, each level
    takes the unused one whose `project(*product_work)` is nearest, by the
    summed distance of logarithms.  So every run's panel holds the same
    spread of cheap and costly seeds, while the spaces differ.
    """
    terms = functools.cache(docs.product_terms)
    work = {
        c: project(*product_work(tm, c, terms))
        for c in (seed + 10_000 * k for k in range(1, CANDIDATES + 1))
    }

    def distance(c, level):
        return sum(abs(math.log(w / x)) for w, x in zip(work[c], level))

    chosen = []
    for level in levels:
        chosen.append(min((c for c in work if c not in chosen), key=lambda c: distance(c, level)))
    return [gen_config(tm, c, allow_infinity) for c in chosen]


# --- one pass over each workload's inputs ----------------------------------------


@dataclass
class Sweep:
    """One pass over an input set, with each operation's time."""

    key: int  # which input set: the sub-seed, or 0 for the docs list
    attempted: int = 0
    # failed operations, as (where, what); `wrong` counts those that gave an
    # answer other than the known one, as opposed to raising
    failures: list[tuple[str, str]] = field(default_factory=list)
    wrong: int = 0
    items: dict[str, float] = field(default_factory=dict)  # seconds per op, scaled
    seconds: float = 0.0  # the sweep at reference speed
    wall: float = 0.0  # the sweep in wall time
    counts: dict[str, tuple[int, int]] = field(default_factory=dict)
    _timed: list[tuple[str, int, float]] = field(default_factory=list)

    def time(self, gauge: Gauge, op: str, fn, *args):
        """fn(*args), timed as operation `op` of this sweep."""
        index = gauge.before()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._timed.append((op, index, time.perf_counter() - start))

    def close(self, gauge: Gauge) -> Sweep:
        """Scale the operations' times, once a sample follows the last."""
        gauge.sample()
        self.items = {op: gauge.scale(index, wall) for op, index, wall in self._timed}
        self.seconds = sum(self.items.values())
        self.wall = sum(wall for _, _, wall in self._timed)
        return self


_EXCEPTION_IN_MESSAGE = re.compile(r": ([A-Za-z_]\w*): ")


def exception_names(tm) -> frozenset[str]:
    return frozenset(
        name
        for module in (builtins, tm.errors)
        for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    )


def raised(message: str, names: frozenset[str]) -> bool:
    """Whether a law failure records an exception rather than a False verdict.

    `lawcheck` writes an exception as "<check>: <ExceptionType>: <text>".
    """
    return any(m in names for m in _EXCEPTION_IN_MESSAGE.findall(message))


def laws_sweep(tm, cfg, gauge: Gauge, span=untraced) -> Sweep:
    """The 19 suites, one run_suite call each, as run_all(cfg) runs them."""
    sweep = Sweep(cfg.seed)
    names = exception_names(tm)
    for suite in sorted(tm.lawcheck.SUITES):
        r = sweep.time(
            gauge, suite, span, "lawcheck", "run_suite:" + suite, tm.lawcheck.run_suite, suite, cfg
        )
        sweep.attempted += r.instances
        sweep.counts[suite] = (r.instances, len(r.failures))
        for f in r.failures:
            sweep.failures.append((f"{suite} seed {cfg.seed} #{f.index}", f.message))
            sweep.wrong += not raised(f.message, names)
        if r.instances == 0:
            sweep.failures.append((f"{suite} seed {cfg.seed}", "the suite checked no instance"))
            sweep.wrong += 1
    return sweep.close(gauge)


def mutants_sweep(tm, cfg, gauge: Gauge, span=untraced) -> Sweep:
    """Every mutation through mutation_detected; the known answer is True."""
    sweep = Sweep(cfg.seed, attempted=len(tm.lawcheck.MUTATIONS))
    for name in tm.lawcheck.MUTATIONS:
        detected = sweep.time(
            gauge, name, span, "lawcheck", "mutation_detected:" + name,
            tm.lawcheck.mutation_detected, name, cfg,
        )
        if not detected:
            sweep.failures.append((f"{name} seed {cfg.seed}", "mutation not detected"))
            sweep.wrong += 1
    return sweep.close(gauge)


def docs_sweep(tm, requests, gauge: Gauge, span=untraced) -> Sweep:
    """Every request in order, each timed from decoding to encoding."""
    sweep = Sweep(0, attempted=len(requests))
    for i, req in enumerate(requests):
        answer = error = None
        try:
            answer = sweep.time(gauge, f"{i:04d}", docs.handle, req.text, tm, span)
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        problem = docs.check(req, answer, error)
        if problem is not None:
            inf = ", an input weight is inf" if req.has_inf else ""
            sweep.failures.append((f"request {i} ({req.kind}{inf})", problem))
            sweep.wrong += error is None
    return sweep.close(gauge)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str  # what `attempted` counts
    inputs: Callable  # (tm, seed) -> the input sets one run sweeps in turn
    own: Callable  # (tm, seed) -> the input set of --seed itself, for tracing
    sweep: Callable  # (tm, input set, gauge, span) -> Sweep
    # p50/p90 over whole sweeps, each a verdict at one sub-seed as a user of
    # `laws all` waits for it, rather than over the operations of a sweep
    by_sweep: bool


WORKLOADS = {
    "laws": Workload(
        "laws",
        "batch: the 19 law suites, one run_suite call each, 3 points, inf on",
        "law instances",
        lambda tm, seed: panel(tm, seed, LAWS_WORK, True, lambda all_, nonempty: (all_, nonempty)),
        lambda tm, seed: gen_config(tm, seed, True),
        laws_sweep,
        True,
    ),
    "docs": Workload(
        "docs",
        "closed loop, one client: CLI document requests on 4-9 points",
        "requests",
        lambda tm, seed: [docs.generate(seed, DOCS_ROUNDS)],
        lambda tm, seed: docs.generate(seed, TRACE_DOCS_ROUNDS),
        docs_sweep,
        False,
    ),
    "mutants": Workload(
        "mutants",
        "batch: the ten mutations through mutation_detected, finite weights",
        "mutations",
        lambda tm, seed: panel(
            tm, seed, [(w,) for w in MUTANTS_WORK], False, lambda all_, nonempty: (all_,)
        ),
        lambda tm, seed: gen_config(tm, seed, False),
        mutants_sweep,
        True,
    ),
}


# --- set-up and measurement --------------------------------------------------------


def import_package() -> SimpleNamespace:
    """A fresh import of the package's modules."""
    for name in list(sys.modules):
        if name == "topmonads" or name.startswith("topmonads."):
            del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"topmonads.{m}") for m in MODULES})


def setup(workload: Workload, seed: int):
    """Import and generate the inputs SETUP_REPEATS times; keep the last."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        tm = import_package()
        inputs = workload.inputs(tm, seed)
        times.append(time.perf_counter() - t0)
    return tm, inputs, statistics.median(times)


def measure(workload: Workload, tm, inputs, seconds: float) -> tuple[list[Sweep], Gauge]:
    """Every input set once, then more sweeps while one more fits in `seconds`."""
    gauge = Gauge()
    sweeps = []
    start = time.perf_counter()
    while len(sweeps) < len(inputs) or (
        time.perf_counter() - start + statistics.fmean(s.wall for s in sweeps) < seconds
    ):
        sweeps.append(workload.sweep(tm, inputs[len(sweeps) % len(inputs)], gauge))
    return sweeps, gauge


def outcome(sweeps: list[Sweep]) -> tuple[int, int]:
    """Operations attempted and failed, each operation counted once.

    Sweeps after the first of an input set repeat its operations only to
    time them, so the counts do not depend on how many sweeps fit in the
    run: attempted is the sum over input sets of one sweep's operations,
    and failed the number of distinct failures.  A repeat that fails where
    the first sweep did not, or fails differently, adds a failure.
    """
    attempted: dict[int, int] = {}
    failures = set()
    for s in sweeps:
        attempted.setdefault(s.key, s.attempted)
        failures.update((s.key, where, what) for where, what in s.failures)
    return sum(attempted.values()), len(failures)


def per_input_set(sweeps: list[Sweep], value) -> list[float]:
    """For each input set, the median of `value` over its sweeps."""
    by_key: dict[int, list[float]] = {}
    for s in sweeps:
        by_key.setdefault(s.key, []).append(value(s))
    return [statistics.median(v) for v in by_key.values()]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the values, never beyond."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(sweeps: list[Sweep], setup_s: float, by_sweep: bool) -> dict[str, float]:
    """Medians over repeated sweeps of one input set, means over the panel.

    The percentiles are over the input sets' sweeps when `by_sweep`, else
    over the operations of the one input set, each timed by its median.
    """
    attempted, failed = outcome(sweeps)
    seconds = per_input_set(sweeps, lambda s: s.seconds)
    per_op = seconds if by_sweep else [
        t for i in sweeps[0].items for t in per_input_set(sweeps, lambda s: s.items[i])
    ]
    return {
        "setup_s": setup_s,
        "sweep_s": statistics.fmean(seconds),
        "throughput_per_s": sum(per_input_set(sweeps, lambda s: s.attempted)) / sum(seconds),
        "p50_ms": 1e3 * statistics.median(per_op),
        "p90_ms": 1e3 * percentile(per_op, 90),
        "pass_share": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "pass_share": "ratio",
    "peak_rss_mb": "MB",
    "trace.overhead_pct": "%",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.startswith(("lawcheck.instances.", "lawcheck.failures.")) or name.endswith(".calls"):
        return "count"
    return re.search(r"_(ns|us|ms|s)(\.|$)", name).group(1)


# --- traced run ----------------------------------------------------------------------


def layer_metrics(name: str, traced: list[Sweep], tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from one workload's traced sweeps and their spans."""
    out: dict[str, float] = {}
    if name == "laws":
        durations = _span_durations(tracer)
        for suite, (instances, failures) in sorted(traced[0].counts.items()):
            out[f"lawcheck.suite_s.{suite}"] = statistics.median(durations["run_suite:" + suite])
            out[f"lawcheck.instances.{suite}"] = instances
            out[f"lawcheck.failures.{suite}"] = failures
    elif name == "mutants":
        durations = _span_durations(tracer)
        for m in sorted(traced[0].items):
            out[f"mutants.detect_ms.{m}"] = 1e3 * statistics.median(durations["mutation_detected:" + m])
    else:
        n = len(traced)
        self_s = tracer.self_seconds()
        calls = tracer.calls()
        for module in ("spaces", "hyperspace", "valuations", "probability", "support"):
            out[f"{module}.self_ms"] = 1e3 * self_s.get(module, 0.0) / n
        out["spaces.calls"] = calls.get("spaces", 0) / n
        cli = tracer.self_seconds(key=lambda s: (s.module, s.name.startswith("parse_")))
        out["cli.parse_ms"] = 1e3 * cli.get(("cli", True), 0.0) / n
        out["cli.document_ms"] = 1e3 * cli.get(("cli", False), 0.0) / n
        out["cli.calls"] = calls.get("cli", 0) / n
    return out


def _span_durations(tracer: Tracer) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for span in tracer.spans:
        out.setdefault(span.name, []).append(span.duration)
    return out


def traced_run(workload: Workload, seed: int, seconds: float):
    """Per-layer metrics: every workload traced, plus the fixed-size probes.

    The selected workload alternates untraced and traced sweeps of --seed's
    own inputs for half the time; the difference is the tracing overhead.
    Then each other workload runs one traced sweep of its own inputs.
    """
    tm = import_package()
    own = workload.own(tm, seed)
    gauge, tracer = Gauge(), Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds / 2:
        plain.append(workload.sweep(tm, own, gauge))
        traced.append(workload.sweep(tm, own, gauge, tracer))
    metrics = layer_metrics(workload.name, traced, tracer)
    for other in ("docs", "laws", "mutants"):
        if other != workload.name:
            w, t = WORKLOADS[other], Tracer()
            metrics.update(layer_metrics(other, [w.sweep(tm, w.own(tm, seed), gauge, t)], t))
    metrics.update(probes.run(tm, seed))
    base = statistics.median(s.seconds for s in plain)
    metrics["trace.overhead_pct"] = 100 * (statistics.median(s.seconds for s in traced) - base) / base
    return plain + traced, gauge, metrics


# --- reporting ---------------------------------------------------------------------------


def print_report(
    workload: Workload, sweeps: list[Sweep], gauge: Gauge, metrics: dict[str, float], prefix: str
) -> None:
    attempted, failed = outcome(sweeps)
    print(f"workload {workload.name}: {workload.why}")
    for s in sweeps:
        print(f"  sweep of input set {s.key}: {s.seconds:.4f} s at reference speed "
              f"({s.wall:.4f} s wall), {s.attempted} {workload.unit}, {len(s.failures)} failed")
    print(f"  machine slowdown against the reference: {gauge.slowdown():.3f}")
    print(f"  attempted {attempted} distinct {workload.unit}, failed {failed}")
    for (where, what), times in sorted(Counter(f for s in sweeps for f in s.failures).items()):
        print(f"  failed: {where}: {what}" + (f" (in {times} sweeps)" if times > 1 else ""))
    for name, value in metrics.items():
        print(f"  {prefix}{name} = {value:.6g} {unit_of(name)}")


def result_line(sweeps: list[Sweep], metrics: dict[str, float]) -> str:
    attempted, failed = outcome(sweeps)
    return json.dumps(
        {
            "correct": all(s.wrong == 0 for s in sweeps),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        }
    )


def run_all_workloads(args) -> int:
    """Each workload in a fresh process; every end-to-end metric by name."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *report, last = proc.stdout.strip().splitlines()
        print("\n".join(report))
        results[name] = json.loads(last)
    for name, res in results.items():
        share = res["failed"] / res["attempted"]
        print(f"{name}: attempted {res['attempted']} {WORKLOADS[name].unit}, "
              f"failed {res['failed']} (failed share {share:.6g} of those attempted)")
        for metric, m in res["metrics"].items():
            print(f"  {name}.{metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "topmonads" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'topmonads'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all_workloads(args)
    workload = WORKLOADS[args.workload]
    if args.trace:
        sweeps, gauge, metrics = traced_run(workload, args.seed, args.seconds)
        print_report(workload, sweeps, gauge, metrics, "")
    else:
        tm, inputs, setup_s = setup(workload, args.seed)
        sweeps, gauge = measure(workload, tm, inputs, args.seconds)
        metrics = end_to_end(sweeps, setup_s, workload.by_sweep)
        print_report(workload, sweeps, gauge, metrics, workload.name + ".")
    print(result_line(sweeps, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
