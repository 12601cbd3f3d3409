"""The `docs` workload: CLI document requests with a library-free oracle.

Each request is a JSON text naming one operation and carrying its
documents.  `handle` answers it the way `topmonads.cli` does: decode, parse
with the cli parse functions, call the library operation, build the cli
document, encode.  Every expected answer is computed here from the
generator's own preorders and point weights in plain `Fraction`, without
calling the library.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

KINDS = (
    "hyper",
    "space-product",
    "validate",
    "val-product",
    "push",
    "supp",
    "extend",
    "integrate",
)

# Requests of each kind in one copy of the mix: the queries on a single
# valuation, which are cheap, outnumber the structural ones.
MIX = {
    "hyper": 3,
    "space-product": 3,
    "validate": 3,
    "val-product": 3,
    "push": 3,
    "supp": 5,
    "extend": 5,
    "integrate": 5,
}

MIN_POINTS, MAX_POINTS = 4, 9
# Each kind's cost grows with one size, drawn per request from a log-scale
# range by stratified sampling: request j of m gets a level in the j-th
# m-th of (0, 1).  So every seed sees the same spread of sizes, and the
# percentiles depend on the code, not on which sizes a seed happened to
# draw.  The upper ends keep every request on the current commit under
# about 0.5 s: validate_valuation is quadratic in the opens, build_hyperspace
# and its document grow with the opens of HX, and the inclusion-exclusion
# product grows with 2 ** (rectangles covering an open), summed over opens.
SIZE_RANGES = {
    "hyper": (6, 400),  # opens of HX
    "space-product": (6, 512),  # opens of the product
    "validate": (5, 96),  # opens
    "val-product": (16, 20_000),  # inclusion-exclusion terms
    "push": (5, 64),  # opens of the target, where the integral check runs
    "supp": (5, 512),  # opens
    "extend": (5, 512),
    "integrate": (5, 512),
}
HYPER_MAX_CLOSED = 24  # bounds the base before the opens of HX are counted

INF = object()  # infinity in the oracle's [0, oo] arithmetic
ZERO = Fraction(0)


def _add(a, b):
    return INF if a is INF or b is INF else a + b


def _mul(a, b):
    if a is not INF and a == 0 or b is not INF and b == 0:
        return ZERO
    if a is INF or b is INF:
        return INF
    return a * b


def _text(w) -> str:
    return "inf" if w is INF else str(w)


# --- finite posets, as up-masks: bit j of up[i] means point i <= point j ----


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def random_poset(rng: random.Random, n: int, p: float) -> list[int]:
    """A random partial order: transitive closure of random i < j edges."""
    up = [1 << i for i in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if rng.random() < p:
                up[i] |= up[j]
    for i in reversed(range(n)):
        for j in _bits(up[i]):
            up[i] |= up[j]
    return up


def _down_masks(up: list[int]) -> list[int]:
    n = len(up)
    return [sum(1 << y for y in range(n) if up[y] >> x & 1) for x in range(n)]


def upsets(up: list[int]) -> list[int]:
    """Every up-set: split on the lowest point left, which is in or out."""
    down = _down_masks(up)

    def walk(rest: int, base: int):
        if not rest:
            yield base
            return
        x = (rest & -rest).bit_length() - 1
        yield from walk(rest & ~down[x], base)
        yield from walk(rest & ~up[x], base | up[x])

    return sorted(walk((1 << len(up)) - 1, 0))


def count_upsets(up: list[int]) -> int:
    """Number of up-sets, by the same split as `upsets`, memoised."""
    down = _down_masks(up)
    memo = {0: 1}

    def count(rest: int) -> int:
        if rest not in memo:
            x = (rest & -rest).bit_length() - 1
            memo[rest] = count(rest & ~down[x]) + count(rest & ~up[x])
        return memo[rest]

    return count((1 << len(up)) - 1)


def closure(up: list[int], subset: int) -> int:
    """Down-set of subset: the closed sets are the down-sets."""
    return sum(1 << x for x in range(len(up)) if up[x] & subset)


def product_poset(a: list[int], b: list[int]) -> list[int]:
    nb = len(b)
    return [
        sum(1 << (k * nb + m) for k in _bits(a[i]) for m in _bits(b[j]))
        for i in range(len(a))
        for j in range(nb)
    ]


def inclusion_poset(members: list[int]) -> list[int]:
    return [
        sum(1 << j for j, d in enumerate(members) if c & ~d == 0)
        for c in members
    ]


def product_terms(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Inclusion-exclusion terms the rectangle-cover product evaluates."""
    nb = len(b)
    total = 0
    for w in upsets(product_poset(a, b)):
        rects = {(a[p // nb], b[p % nb]) for p in _bits(w)}
        total += 2 ** len(rects)
    return total


# --- documents -------------------------------------------------------------


@dataclass(frozen=True)
class Space:
    names: tuple[str, ...]
    up: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.names)


def _space(rng, prefix, n, p) -> Space:
    return Space(tuple(f"{prefix}{i}" for i in range(n)), tuple(random_poset(rng, n, p)))


def space_doc(rng: random.Random, s: Space) -> dict:
    """A space document in the opens form or the preorder form."""
    doc = {"schema": 1, "points": list(s.names)}
    if rng.random() < 0.5:
        doc["opens"] = [[s.names[x] for x in _bits(u)] for u in upsets(list(s.up))]
    else:
        doc["preorder"] = [
            [s.names[x], s.names[y]] for x in range(s.n) for y in _bits(s.up[x])
        ]
    return doc


def _weight(rng):
    r = rng.random()
    if r < 0.25:
        return ZERO
    if r < 0.33:
        return INF
    den = rng.randint(1, 16)
    return Fraction(rng.randint(1, 2 * den), den)


def _weights(rng, s: Space) -> tuple:
    return tuple(_weight(rng) for _ in range(s.n))


def valuation_doc(rng, s: Space, weights) -> dict:
    return {
        "schema": 1,
        "space": space_doc(rng, s),
        "weights": {s.names[x]: _text(w) for x, w in enumerate(weights)},
    }


def _weights_answer(names, weights) -> dict:
    return {name: _text(w) for name, w in zip(names, weights)}


# --- request generation ------------------------------------------------------


@dataclass(frozen=True)
class Request:
    kind: str
    text: str
    expected: object  # the oracle's answer, in the form `_view` gives
    error: str | None  # the documented exception expected instead, if any
    has_inf: bool  # some input weight is infinite


def _target(kind: str, level: float) -> float:
    lo, hi = SIZE_RANGES[kind]
    return lo * (hi / lo) ** level


def _near(rng, target: float, measure, draw):
    """The first draw whose measure lies within a band around target.

    The band widens every 50 draws, so sizes that no draw reaches still end.
    """
    tol = 1.15
    for attempt in itertools.count(1):
        item = draw()
        if target / tol <= measure(item) <= target * tol:
            return item
        if attempt % 50 == 0:
            tol *= 1.15


def _opens(s: Space) -> int:
    return count_upsets(list(s.up))


def _sized_space(rng, prefix, target, measure=_opens) -> Space:
    return _near(
        rng,
        target,
        measure,
        lambda: _space(rng, prefix, rng.randint(MIN_POINTS, MAX_POINTS), rng.uniform(0, 0.9)),
    )


def _factor_pair(rng, target, measure):
    def draw():
        while True:
            na, nb = rng.randint(2, 4), rng.randint(2, 4)
            if MIN_POINTS <= na * nb <= MAX_POINTS:
                return (
                    _space(rng, "a", na, rng.uniform(0, 0.9)),
                    _space(rng, "b", nb, rng.uniform(0, 0.9)),
                )

    return _near(rng, target, measure, draw)


def _closed_sets(s: Space) -> list[int]:
    full = (1 << s.n) - 1
    return sorted(full & ~u for u in upsets(list(s.up)))


def _hyper_opens(s: Space) -> float:
    # closed sets are the complements of the opens: count before listing
    if _opens(s) > HYPER_MAX_CLOSED:
        return float("inf")
    return count_upsets(inclusion_poset(_closed_sets(s)))


def _req_hyper(rng, target):
    s = _sized_space(rng, "x", target, _hyper_opens)
    closed = _closed_sets(s)
    expected = {
        "closed_sets": sorted(sorted(s.names[x] for x in _bits(c)) for c in closed),
        "opens": count_upsets(inclusion_poset(closed)),
    }
    return {"op": "hyper", "space": space_doc(rng, s)}, expected, None, False


def _product_opens(ab) -> int:
    return count_upsets(product_poset(ab[0].up, ab[1].up))


def _req_space_product(rng, target):
    a, b = _factor_pair(rng, target, _product_opens)
    expected = {
        "points": [f"({p},{q})" for p in a.names for q in b.names],
        "opens": _product_opens((a, b)),
    }
    doc = {"op": "space-product", "space": space_doc(rng, a), "other": space_doc(rng, b)}
    return doc, expected, None, False


def _req_validate(rng, target):
    s = _sized_space(rng, "x", target)
    w = _weights(rng, s)
    mass = ZERO
    for x in w:
        mass = _add(mass, x)
    expected = {"valid": True, "mass": _text(mass)}
    return {"op": "validate", "valuation": valuation_doc(rng, s, w)}, expected, None, INF in w


def _req_val_product(rng, target, terms=product_terms):
    a, b = _factor_pair(rng, target, lambda ab: terms(ab[0].up, ab[1].up))
    wa, wb = _weights(rng, a), _weights(rng, b)
    names = [f"({p},{q})" for p in a.names for q in b.names]
    expected = _weights_answer(names, [_mul(x, y) for x in wa for y in wb])
    doc = {
        "op": "val-product",
        "valuation": valuation_doc(rng, a, wa),
        "other": valuation_doc(rng, b, wb),
    }
    return doc, expected, None, INF in wa or INF in wb


def _monotone_map(rng, src: Space, tgt: Space) -> list[int]:
    """A monotone assignment: each point maps above the images below it."""
    for _ in range(20):
        f = [0] * src.n
        # i < j whenever i <= j in these posets, so ascending order is a
        # linear extension and the points below x are already assigned
        for x in range(src.n):
            need = [f[y] for y in range(x) if src.up[y] >> x & 1]
            options = [t for t in range(tgt.n) if all(tgt.up[v] >> t & 1 for v in need)]
            if not options:
                break
            f[x] = rng.choice(options)
        else:
            return f
    return [rng.randrange(tgt.n)] * src.n


def _req_push(rng, target):
    src = _sized_space(rng, "x", target)
    tgt = _sized_space(rng, "y", target)
    f = _monotone_map(rng, src, tgt)
    w = _weights(rng, src)
    pushed = [ZERO] * tgt.n
    for x, t in enumerate(f):
        pushed[t] = _add(pushed[t], w[x])
    doc = {
        "op": "push",
        "valuation": valuation_doc(rng, src, w),
        "map": {
            "source": space_doc(rng, src),
            "target": space_doc(rng, tgt),
            "assignment": {src.names[x]: tgt.names[t] for x, t in enumerate(f)},
        },
    }
    return doc, _weights_answer(tgt.names, pushed), None, INF in w


def _req_supp(rng, target):
    s = _sized_space(rng, "x", target)
    w = _weights(rng, s)
    positive = sum(1 << x for x in range(s.n) if w[x] is INF or w[x] > 0)
    expected = sorted(s.names[x] for x in _bits(closure(list(s.up), positive)))
    return {"op": "supp", "valuation": valuation_doc(rng, s, w)}, expected, None, INF in w


def _req_extend(rng, target):
    s = _sized_space(rng, "x", target)
    w = _weights(rng, s)
    doc = {"op": "extend", "valuation": valuation_doc(rng, s, w)}
    if INF in w:
        # a valuation of infinite mass has no measure: the documented
        # answer is the InfiniteMass precondition error
        return doc, None, "InfiniteMass", True
    return doc, _weights_answer(s.names, w), None, False


def _req_integrate(rng, target):
    s = _sized_space(rng, "x", target)
    w = _weights(rng, s)
    pool = [ZERO, Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3), INF]
    raw = [rng.choice(pool) for _ in range(s.n)]
    # the least raw value above a point is monotone, i.e. lower semicontinuous
    g = []
    for x in range(s.n):
        above = [raw[y] for y in _bits(s.up[x])]
        finite = [v for v in above if v is not INF]
        g.append(min(finite) if finite else INF)
    total = ZERO
    for x in range(s.n):
        total = _add(total, _mul(w[x], g[x]))
    doc = {
        "op": "integrate",
        "valuation": valuation_doc(rng, s, w),
        "function": {"values": {s.names[x]: _text(v) for x, v in enumerate(g)}},
    }
    return doc, _text(total), None, INF in w


_GENERATORS = {
    "hyper": _req_hyper,
    "space-product": _req_space_product,
    "validate": _req_validate,
    "val-product": _req_val_product,
    "push": _req_push,
    "supp": _req_supp,
    "extend": _req_extend,
    "integrate": _req_integrate,
}


def generate(seed: int, rounds: int) -> list[Request]:
    """`rounds` copies of MIX in shuffled order, drawn from one seeded stream."""
    # factors have at most 4 points, so few distinct pairs occur: cache
    # their terms for this one call
    generators = dict(
        _GENERATORS,
        **{"val-product": functools.partial(_req_val_product, terms=functools.cache(product_terms))},
    )
    rng = random.Random(f"docs-{seed}")
    plan = []
    for kind in KINDS:
        m = MIX[kind] * rounds
        plan += [(kind, (j + rng.random()) / m) for j in range(m)]
    rng.shuffle(plan)
    out = []
    for kind, level in plan:
        doc, expected, error, has_inf = generators[kind](rng, _target(kind, level))
        out.append(Request(kind, json.dumps(doc), expected, error, has_inf))
    return out


# --- answering and checking ---------------------------------------------------


def handle(text: str, tm, span) -> str:
    """Answer one request as `topmonads.cli` answers the matching command.

    `tm` holds the imported package modules; `span(module, name, fn, *args)`
    calls fn and may record the call as a span of that module.
    """
    cli = tm.cli
    doc = json.loads(text)
    op = doc["op"]
    if op == "hyper":
        space = span("cli", "parse_space", cli.parse_space, doc["space"])
        hx = span("hyperspace", "build_hyperspace", tm.hyperspace.build_hyperspace, space)
        out = span("cli", "space_document", cli.space_document, hx.space)
        out["closed_sets"] = [sorted(space.mask_names(m)) for m in hx.members]
    elif op == "space-product":
        a = span("cli", "parse_space", cli.parse_space, doc["space"])
        b = span("cli", "parse_space", cli.parse_space, doc["other"])
        prod = span("spaces", "product", tm.spaces.product, a, b)
        out = span("cli", "space_document", cli.space_document, prod.space)
    elif op == "val-product":
        nu = span("cli", "parse_valuation", cli.parse_valuation, doc["valuation"])
        rho = span("cli", "parse_valuation", cli.parse_valuation, doc["other"])
        prod = span("valuations", "product_valuation", tm.valuations.product_valuation, nu, rho)
        out = span("cli", "valuation_document", cli.valuation_document, prod)
    elif op == "push":
        nu = span("cli", "parse_valuation", cli.parse_valuation, doc["valuation"])
        f = span("cli", "parse_map", cli.parse_map, doc["map"])
        pushed = span("valuations", "pushforward", tm.valuations.pushforward, f, nu)
        out = span("cli", "valuation_document", cli.valuation_document, pushed)
    else:
        nu = span("cli", "parse_valuation", cli.parse_valuation, doc["valuation"])
        if op == "validate":
            span("valuations", "validate_valuation", tm.valuations.validate_valuation, nu.space, nu.table)
            out = {"valid": True, "mass": str(nu.mass)}
        elif op == "integrate":
            g = span("cli", "parse_lsc", cli.parse_lsc, doc["function"], nu.space)
            out = str(span("valuations", "integrate", tm.valuations.integrate, nu, g))
        elif op == "supp":
            out = sorted(span("support", "support", tm.support.support, nu).names())
        else:  # extend
            m = span("probability", "extend_to_measure", tm.probability.extend_to_measure, nu)
            out = {m.space.points[x]: str(w) for x, w in enumerate(m.point_weights)}
    return json.dumps(out)


def _view(kind: str, answer):
    """The part of an answer the oracle predicts."""
    if kind == "hyper":
        return {
            "closed_sets": sorted(answer["closed_sets"]),
            "opens": len(answer["opens"]),
        }
    if kind == "space-product":
        return {"points": answer["points"], "opens": len(answer["opens"])}
    if kind in ("val-product", "push"):
        return answer.get("weights")
    return answer


def check(req: Request, answer_text: str | None, error: BaseException | None) -> str | None:
    """None when the outcome is the oracle's; otherwise what went wrong."""
    if error is not None:
        name = type(error).__name__
        return None if name == req.error else f"{name}: {error}"
    if req.error is not None:
        return f"answered where {req.error} was expected"
    got = _view(req.kind, json.loads(answer_text))
    if got != req.expected:
        return f"wrong answer: got {got!r}, expected {req.expected!r}"
    return None
