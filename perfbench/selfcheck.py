"""Check that the benchmark's oracles reject wrong answers.

    python3 perfbench/selfcheck.py

Answers one list of `docs` requests with the package, perturbs each answer
(a point dropped from a support, a weight off by one, a closed set or an
open missing) and requires `docs.check` to flag every perturbed answer and
to pass the unperturbed ones, except the known failures of
product_valuation on infinite weights.  It also checks that a law failure
is classified as a wrong verdict unless it records an exception.  Exits
with code 1 if any check misses.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import run  # first: it stops bytecode caches being written
import docs


def bump(text: str) -> str:
    """A rational off by one; infinity becomes 0."""
    return "0" if text == "inf" else str(Fraction(text) + 1)


def perturb(kind: str, answer):
    if kind == "supp":
        return answer[1:] if answer else ["not-a-point"]
    if kind in ("extend", "val-product", "push"):
        weights = answer["weights"] if kind != "extend" else answer
        first = next(iter(weights))
        weights[first] = bump(weights[first])
        return answer
    if kind == "integrate":
        return bump(answer)
    if kind == "validate":
        return dict(answer, mass=bump(answer["mass"]))
    if kind == "hyper":
        return dict(answer, closed_sets=answer["closed_sets"][1:])
    return dict(answer, opens=answer["opens"][1:])  # space-product


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    tm = run.import_package()
    misses = []
    seen = set()
    for i, req in enumerate(docs.generate(seed=7, rounds=2)):
        try:
            text = docs.handle(req.text, tm, run.untraced)
        except tm.errors.TopmonadsError as exc:
            problem = docs.check(req, None, exc)
            known = req.kind == "val-product" and req.has_inf
            if problem is not None and not known:
                misses.append(f"request {i} ({req.kind}): correct outcome flagged: {problem}")
            continue
        if docs.check(req, text, None) is not None:
            misses.append(f"request {i} ({req.kind}): correct answer flagged")
        if req.error is not None:
            continue
        wrong = json.dumps(perturb(req.kind, json.loads(text)))
        if docs.check(req, wrong, None) is None:
            misses.append(f"request {i} ({req.kind}): perturbed answer passed")
        seen.add(req.kind)
    if seen != set(docs.KINDS):
        misses.append(f"no perturbed answer for {sorted(set(docs.KINDS) - seen)}")

    names = run.exception_names(tm)
    verdict = "Fubini square: both composites equal the product valuation"
    if run.raised(verdict, names):
        misses.append("a False law verdict was taken for an exception")
    if not run.raised(verdict + ": InfinityIndeterminate: both +oo and -oo", names):
        misses.append("a law that raised was taken for a False verdict")

    for miss in misses:
        print("MISS", miss)
    print(f"self-check: {len(misses)} misses; perturbed kinds {sorted(seen)}")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
