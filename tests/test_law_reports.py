"""Law reports pinned in a golden file.

Covers the 228 reports of run_all at seeds 42, 7 and 10011 x max_points 3
and 4 x infinity on and off, and run_with_mutation over all 19 suites for
each of the ten mutations at seed 42 and 3 points.  Per report the file
holds the suite, its instances, `capped`, the count of failures and one
SHA-256 over the failures: each failure's index, message and replay line,
and its shrunk counterexample's points, up-masks and weights as strings.

A refactor of the checker keeps these reports; a change that moves one
regenerates the file and says why.  Running this file as a script
rewrites `golden/law_reports.json` from the current code.
"""

import hashlib
import json
from pathlib import Path

from topmonads import lawcheck as lc

GOLDEN = Path(__file__).parent / "golden" / "law_reports.json"

SEEDS = (42, 7, 10011)
SIZES = (3, 4)


def _failures_sha256(failures) -> str:
    digest = hashlib.sha256()
    for failure in failures:
        cex = failure.counterexample
        shrunk = None
        if cex is not None:
            shrunk = [
                list(cex.space.points),
                list(cex.space.min_nbhd),
                [[str(w) for w in weights] for weights in cex.weight_lists],
            ]
        record = [failure.index, failure.message, failure.replay, shrunk]
        digest.update(json.dumps(record).encode() + b"\n")
    return digest.hexdigest()


def _summary(report: lc.SuiteReport) -> dict:
    return {
        "suite": report.suite,
        "instances": report.instances,
        "capped": [list(entry) for entry in report.capped],
        "failures": len(report.failures),
        "failures_sha256": _failures_sha256(report.failures),
    }


def _reports() -> dict:
    """Every pinned report, by run, in a fixed order."""
    out = {}
    for seed in SEEDS:
        for size in SIZES:
            for infinity in (True, False):
                cfg = lc.GenConfig(seed=seed, max_points=size, allow_infinity=infinity)
                key = f"run_all seed={seed} max_points={size} infinity={infinity}"
                out[key] = [_summary(r) for r in lc.run_all(cfg)]
    cfg = lc.GenConfig(seed=42, max_points=3)
    for name in lc.MUTATIONS:
        reports = lc.run_with_mutation(name, cfg, suites=sorted(lc.SUITES))
        out[f"run_with_mutation {name} seed=42 max_points=3"] = [_summary(r) for r in reports]
    return out


def test_law_reports_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    reports = _reports()
    assert list(reports) == list(golden)
    for key, summaries in reports.items():
        assert summaries == golden[key], key


if __name__ == "__main__":
    reports = _reports()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(reports, indent=1) + "\n")
    count = sum(len(summaries) for summaries in reports.values())
    print(f"wrote {count} reports to {GOLDEN}")
