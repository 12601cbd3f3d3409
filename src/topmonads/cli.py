"""Command-line front end with stable JSON document formats.

Exit codes: 0 success, 1 malformed input, 2 axiom violation, 3 failed
precondition, 4 law-suite failures or a suite that checked nothing, 5
unknown suite.  Rationals cross the boundary as strings ("p/q", "p", or
"inf"), never floats; open sets are referenced by index into the
canonical sorted open list, a table key being the index's canonical
decimal, and documents embed a checksum of that list to prevent index
drift.  A document file is read as UTF-8.

A rational string is read by the grammar of `extrat`: after whitespace is
stripped at both ends, it is `inf`, `p` or `p/q`, with p and q in ASCII
decimal digits and q not 0.  Signs, decimal points, exponents and
underscores are malformed.  A JSON integer is read as itself.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

try:  # CPython's own SHA-256: hashlib loads OpenSSL, about 3 MB per process
    from _sha256 import sha256
except ImportError:  # other interpreters, and CPython 3.12+ (_sha2)
    from hashlib import sha256

from . import lawcheck, probability, spaces, support, valuations
from .errors import (
    InfiniteMass,
    InfinityIndeterminate,
    InvalidValue,
    NotAKernel,
    NotNormalized,
    PreconditionFailed,
    TopmonadsError,
    UnknownSuite,
)
from .extrat import ZERO, ext
from .hyperspace import build_hyperspace
from .valuations import SimpleSecondOrder, Valuation

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_AXIOM = 2
EXIT_PRECONDITION = 3
EXIT_SUITE_FAILURES = 4
EXIT_UNKNOWN_SUITE = 5

_PRECONDITION_ERRORS = (
    PreconditionFailed,
    InfiniteMass,
    InfinityIndeterminate,
    NotAKernel,
    NotNormalized,
)


class MalformedDocument(TopmonadsError):
    """A document that does not have the shape its schema asks for."""


def _names_sorted(space: spaces.FiniteSpace, masks) -> list[list[str]]:
    """Per mask, the names of its points in string order; the points are
    sorted by name once, and each mask lists its names in that order."""
    order = sorted(range(space.n), key=space.points.__getitem__)
    named = [(1 << i, space.points[i]) for i in order]
    return [[name for bit, name in named if mask & bit] for mask in masks]


def _open_names(space: spaces.FiniteSpace) -> list[list[str]]:
    return _names_sorted(space, space.opens)


def _checksum(open_names: list[list[str]]) -> str:
    blob = json.dumps(open_names).encode()
    return sha256(blob).hexdigest()[:12]


def _opens_checksum(space: spaces.FiniteSpace) -> str:
    return _checksum(_open_names(space))


def space_document(space: spaces.FiniteSpace, name: str | None = None) -> dict:
    opens = _open_names(space)
    doc = {
        "schema": SCHEMA_VERSION,
        "points": list(space.points),
        "opens": opens,
        "opens_checksum": _checksum(opens),
    }
    if name is not None:
        doc["name"] = name
    return doc


def _array(value, what: str) -> list:
    if not isinstance(value, list):
        raise MalformedDocument(f"{what} must be a JSON array, got {value!r}")
    return value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise MalformedDocument(f"{what} must be a JSON object, got {value!r}")
    return value


def parse_space(doc: dict) -> spaces.FiniteSpace:
    if not isinstance(doc, dict):
        raise MalformedDocument("space document must be an object")
    if doc.get("schema") not in (None, SCHEMA_VERSION):
        raise MalformedDocument(f"unsupported schema {doc.get('schema')!r}")
    if "points" not in doc:
        raise MalformedDocument("space document needs a points list")
    points = [str(p) for p in _array(doc["points"], "points")]
    has_opens = "opens" in doc
    has_preorder = "preorder" in doc
    if has_opens == has_preorder:
        raise MalformedDocument(
            "space document needs exactly one of opens or preorder"
        )
    if has_opens:
        bit = {p: 1 << i for i, p in enumerate(points)}
        masks = []
        for u in _array(doc["opens"], "opens"):
            if not isinstance(u, list):
                _array(u, "open")
            mask = 0
            try:
                for p in u:
                    mask |= bit[p]
            except (KeyError, TypeError) as exc:  # TypeError: unhashable
                raise MalformedDocument(f"open mentions unknown point {p!r}") from exc
            masks.append(mask)
        space = spaces.from_opens(points, masks)
    else:
        relation = []
        for pair in _array(doc["preorder"], "preorder"):
            if len(_array(pair, "preorder pair")) != 2:
                raise MalformedDocument(
                    f"preorder pair {pair!r} needs exactly two entries"
                )
            relation.append((str(pair[0]), str(pair[1])))
        space = spaces.from_preorder(points, relation)
    want = doc.get("opens_checksum")
    if want is not None and want != _opens_checksum(space):
        raise MalformedDocument("opens_checksum does not match the open list")
    return space


def _load_json(path: str) -> dict:
    """The document in a file, read as UTF-8 (RFC 8259)."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedDocument(f"{path}: {exc}") from exc


def _resolve_space(ref, base_dir: str) -> spaces.FiniteSpace:
    if isinstance(ref, str):
        return parse_space(_load_json(os.path.join(base_dir, ref)))
    return parse_space(ref)


def valuation_document(nu: Valuation, name: str | None = None) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "space": space_document(nu.space),
        "weights": {
            nu.space.points[x]: str(nu.weights[x]) for x in range(nu.space.n)
        },
    }
    if name is not None:
        doc["name"] = name
    return doc


def parse_valuation(doc: dict, base_dir: str = ".", space=None) -> Valuation:
    if not isinstance(doc, dict):
        raise MalformedDocument("valuation document must be an object")
    if doc.get("schema") not in (None, SCHEMA_VERSION):
        raise MalformedDocument(f"unsupported schema {doc.get('schema')!r}")
    if space is None:
        if "space" not in doc:
            raise MalformedDocument("valuation document needs a space reference")
        space = _resolve_space(doc["space"], base_dir)
    has_weights = "weights" in doc
    has_table = "table" in doc
    if has_weights == has_table:
        raise MalformedDocument(
            "valuation document needs exactly one of weights or table"
        )
    if has_weights:
        index = {p: i for i, p in enumerate(space.points)}
        weights = [ZERO] * space.n
        for p, r in _object(doc["weights"], "weights").items():
            if p not in index:
                raise MalformedDocument(f"weight names unknown point {p!r}")
            weights[index[p]] = _parse_rational(r)
        return valuations.valuation_from_weights(space, tuple(weights))
    want = doc.get("opens_checksum")
    if want is not None and want != _opens_checksum(space):
        raise MalformedDocument("opens_checksum does not match the open list")
    count = len(space.opens)
    table = [ZERO] * count
    for key, r in _object(doc["table"], "table").items():
        # only the canonical decimal names an index: no sign, space,
        # underscore, leading zero or non-ASCII digit
        if not (key.isascii() and key.isdigit()) or key != "0" and key[0] == "0":
            raise MalformedDocument(f"table key {key!r} is not an index")
        # a key with more digits than count is past it, and is never read
        if len(key) > len(str(count)) or int(key) >= count:
            raise MalformedDocument(f"open index {key} out of range")
        table[int(key)] = _parse_rational(r)
    return valuations.validate_valuation(space, tuple(table))


def _parse_rational(text):
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise MalformedDocument(f"rational must be a string, got {text!r}")
    try:
        return ext(text)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise MalformedDocument(f"bad rational {text!r}") from exc


def parse_lsc(doc: dict, space=None, base_dir: str = ".") -> valuations.LowerSemiFn:
    if not isinstance(doc, dict) or "values" not in doc:
        raise MalformedDocument("function document needs a values map")
    if space is None:
        if "space" not in doc:
            raise MalformedDocument("function document needs a space reference")
        space = _resolve_space(doc["space"], base_dir)
    index = {p: i for i, p in enumerate(space.points)}
    values = [ZERO] * space.n
    for p, r in _object(doc["values"], "values").items():
        if p not in index:
            raise MalformedDocument(f"function names unknown point {p!r}")
        values[index[p]] = _parse_rational(r)
    return valuations.LowerSemiFn(space, tuple(values))


def parse_map(doc: dict, base_dir: str = ".") -> spaces.ContinuousMap:
    if not isinstance(doc, dict) or "assignment" not in doc:
        raise MalformedDocument("map document needs an assignment")
    source = _resolve_space(doc.get("source"), base_dir)
    target = _resolve_space(doc.get("target"), base_dir)
    src_index = {p: i for i, p in enumerate(source.points)}
    tgt_index = {p: i for i, p in enumerate(target.points)}
    assignment = [0] * source.n
    seen = set()
    for a, b in _object(doc["assignment"], "assignment").items():
        if a not in src_index or not isinstance(b, str) or b not in tgt_index:
            raise MalformedDocument(f"assignment names unknown point {a!r}->{b!r}")
        assignment[src_index[a]] = tgt_index[b]
        seen.add(a)
    if len(seen) != source.n:
        raise MalformedDocument("assignment must cover every source point")
    return spaces.ContinuousMap(source, target, tuple(assignment))


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")


def _emit_error(kind: str, exc: Exception) -> None:
    detail = {"error": kind, "type": type(exc).__name__, "detail": str(exc)}
    witness = getattr(exc, "witness", None)
    if witness is not None:
        detail["witness"] = repr(witness)
    json.dump(detail, sys.stderr)
    sys.stderr.write("\n")


# --- subcommands ---------------------------------------------------------------


def _cmd_space(args) -> int:
    space = parse_space(_load_json(args.file))
    if args.subcommand == "validate":
        _emit(
            {
                "valid": True,
                "points": space.n,
                "opens": len(space.opens),
                "opens_checksum": _opens_checksum(space),
            }
        )
    elif args.subcommand == "info":
        report = spaces.check_separation(space)
        _emit(
            {
                "T0": report.is_T0,
                "T1": report.is_T1,
                "sober": report.is_sober,
                "opens": len(space.opens),
                "points": list(space.points),
                "specialization": sorted(space.specialization()),
                "opens_checksum": _opens_checksum(space),
            }
        )
    elif args.subcommand == "hyper":
        hx = build_hyperspace(space)
        doc = space_document(hx.space)
        doc["closed_sets"] = _names_sorted(space, hx.members)
        _emit(doc)
    else:  # product
        other = parse_space(_load_json(args.other))
        prod = spaces.product(space, other)
        _emit(space_document(prod.space))
    return EXIT_OK


def _cmd_val(args) -> int:
    base_dir = os.path.dirname(os.path.abspath(args.file))
    if args.subcommand == "E":
        doc = _load_json(args.file)
        if not isinstance(doc, dict) or "atoms" not in doc:
            raise MalformedDocument("molecular document needs an atoms list")
        space = _resolve_space(doc.get("space"), base_dir)
        atoms = []
        for entry in _array(doc["atoms"], "atoms"):
            if len(_array(entry, "atom")) != 2:
                raise MalformedDocument("atom must be a [weight, valuation] pair")
            weight, val_doc = entry
            # an atom without a space of its own lives on the molecule's
            own = isinstance(val_doc, dict) and "space" in val_doc
            c = _parse_rational(weight)
            atoms.append((c, parse_valuation(val_doc, base_dir, None if own else space)))
        xi = SimpleSecondOrder(space, tuple(atoms))
        _emit(valuation_document(valuations.mult_E(xi)))
        return EXIT_OK
    nu = parse_valuation(_load_json(args.file), base_dir)
    if args.subcommand == "validate":
        valuations.validate_valuation(nu.space, nu.table)
        _emit({"valid": True, "mass": str(nu.mass)})
    elif args.subcommand == "integrate":
        g = parse_lsc(_load_json(args.function), nu.space, base_dir)
        _emit(str(valuations.integrate(nu, g)))
    elif args.subcommand == "push":
        f = parse_map(_load_json(args.map), base_dir)
        _emit(valuation_document(valuations.pushforward(f, nu)))
    elif args.subcommand == "product":
        rho = parse_valuation(_load_json(args.other), base_dir)
        _emit(valuation_document(valuations.product_valuation(nu, rho)))
    elif args.subcommand == "supp":
        _emit(sorted(support.support(nu).names()))
    else:  # extend
        measure = probability.extend_to_measure(nu)
        weights = {
            measure.space.points[x]: str(measure.point_weights[x])
            for x in range(measure.space.n)
        }
        if measure.quotient_map is None:
            _emit(weights)
        else:
            _emit({"weights": weights, "quotient_points": list(measure.space.points)})
    return EXIT_OK


def _cmd_laws(args) -> int:
    try:
        cfg = lawcheck.GenConfig(
            seed=args.seed,
            max_points=args.max_points,
            instance_count=args.count,
        )
    except InvalidValue as exc:
        _emit_error("malformed", exc)
        return EXIT_MALFORMED
    if args.suite == "all":
        reports = lawcheck.run_all(cfg)
    else:
        reports = [lawcheck.run_suite(args.suite, cfg)]
    if args.json:
        _emit(
            [
                {
                    "suite": r.suite,
                    "instances": r.instances,
                    "failures": [
                        {
                            "index": f.index,
                            "message": f.message,
                            "replay": f.replay,
                        }
                        for f in r.failures
                    ],
                    "wall_time": round(r.wall_time, 3),
                    "capped": dict(r.capped),
                }
                for r in reports
            ]
        )
    else:
        for r in reports:
            if r.failures:
                status = f"{len(r.failures)} failures"
            else:
                status = "ok" if r.instances else "nothing checked"
            capped = "".join(f", {n} over the {b} budget" for b, n in r.capped)
            print(
                f"{r.suite}: {r.instances} instances{capped}, {status}"
                f" ({r.wall_time:.2f}s)"
            )
            for f in r.failures:
                print(f"  [{f.index}] {f.message}")
                print(f"      replay: {f.replay}")
                if f.counterexample is not None:
                    cex = f.counterexample
                    print(
                        f"      shrunk: {cex.space.n} points,"
                        f" weights {[list(map(str, w)) for w in cex.weight_lists]}"
                    )
    # a suite that checked nothing is not a pass
    passed = all(r.ok and r.instances for r in reports)
    return EXIT_OK if passed else EXIT_SUITE_FAILURES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topmonads",
        description="Exact finite hyperspace, valuation, and probability monads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_space = sub.add_parser("space", help="construct and inspect spaces")
    p_space.add_argument(
        "subcommand", choices=["validate", "info", "hyper", "product"]
    )
    p_space.add_argument("file", help="SpaceDocument JSON file")
    p_space.add_argument(
        "other", nargs="?", help="second SpaceDocument (for product)"
    )

    p_val = sub.add_parser("val", help="evaluate the algebra of valuations")
    p_val.add_argument(
        "subcommand",
        choices=["validate", "integrate", "push", "product", "supp", "extend", "E"],
    )
    p_val.add_argument("file", help="ValuationDocument JSON file")
    p_val.add_argument("--function", help="function document (for integrate)")
    p_val.add_argument("--map", help="map document (for push)")
    p_val.add_argument("--other", help="second ValuationDocument (for product)")

    p_laws = sub.add_parser("laws", help="run law suites")
    p_laws.add_argument("suite", help="suite name or 'all'")
    p_laws.add_argument("--seed", type=int, default=42)
    p_laws.add_argument("--max-points", type=int, default=4)
    p_laws.add_argument("--count", type=int, default=60)
    p_laws.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "space":
            if args.subcommand == "product" and not args.other:
                raise MalformedDocument("product needs two space documents")
            return _cmd_space(args)
        if args.command == "val":
            needed = {"integrate": "function", "push": "map", "product": "other"}
            flag = needed.get(args.subcommand)
            if flag is not None and getattr(args, flag) is None:
                parser.error(f"val {args.subcommand} requires --{flag}")
            return _cmd_val(args)
        return _cmd_laws(args)
    except MalformedDocument as exc:
        _emit_error("malformed", exc)
        return EXIT_MALFORMED
    except UnknownSuite as exc:
        _emit_error("unknown-suite", exc)
        return EXIT_UNKNOWN_SUITE
    except _PRECONDITION_ERRORS as exc:
        _emit_error("precondition", exc)
        return EXIT_PRECONDITION
    except TopmonadsError as exc:
        _emit_error("axiom", exc)
        return EXIT_AXIOM


if __name__ == "__main__":
    sys.exit(main())
