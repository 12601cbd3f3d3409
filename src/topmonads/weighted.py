"""The weighted core of V: point weights in the semiring [0, oo].

On a finite space a continuous valuation is a [0, oo]-weight per point,
and V is the monad of semiring-valued multisets over [0, oo] (Coumans and
Jacobs, "Scalars, monads, and categories", 2013; Kock, TAC 2012).  H has
the same shape over {0, 1}, where a weight tuple is the mask of a closed
set; `hyperspace` computes on those masks directly, and the support
V -> H, the change of scalars along the semiring homomorphism sgn, is
checked as a monad morphism in `lawcheck`.  Each operation is written here
on weight tuples, with the weights' own `+` and `*`; a sum starts from its
first nonzero term.

A valuation's weights are kept in normal form: each specialization
class's weight on its least point, zero on its other points.  Given
weights in that form, `mult` and `product` return weights in it, and
`push`, `unit`, `strength` and `costrength` do when their target points
are least points; `valuations` passes them such points, so the tuples
computed here are stored as they are.  Only the public `Valuation`
constructor normalises weights from outside.

Weights fix a valuation up to the weights under a top weight, which no
open sees; `canonical` fills them in, with `FiniteSpace.closure` of the
top weights.

Values on the opens form a valuation exactly when the weights read back
off them give them back, so `validate` checks a table by one read and one
`table`, with no scan of the pairs of opens.  It reads `monus` from this
module when it runs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .extrat import INF, ONE, ZERO, monus
from .spaces import FiniteSpace, Product


def unit(n: int, x: int) -> tuple:
    """The Dirac weights: the one-point space's weight one, pushed to x."""
    return push((x,), n, (ONE,))


def push(assignment: Sequence[int], n: int, w: Sequence) -> tuple:
    """Each weight w_x moves to assignment[x], one of n target points."""
    out = [ZERO] * n
    for x, a in enumerate(w):
        y = assignment[x]
        out[y] = a if out[y] is ZERO else out[y] + a
    return tuple(out)


def mult(n: int, mixture: Iterable[tuple[object, Sequence]]) -> tuple:
    """The multiplication of a finite mixture: the sum of c * w over its
    (c, w) pairs, on n points."""
    out = [ZERO] * n
    for c, w in mixture:
        for x, a in enumerate(w):
            if a:
                ca = c * a
                out[x] = ca if out[x] is ZERO else out[x] + ca
    return tuple(out)


def strength(prod: Product, x: int, w: Sequence) -> tuple:
    """s(x, w): the push along the section y -> (x, y) = x * |Y| + y, the
    row of x.  The point x is not checked."""
    m = prod.right.n
    return push(range(x * m, x * m + m), prod.space.n, w)


def costrength(prod: Product, w: Sequence, y: int) -> tuple:
    """t(w, y): the push along the section x -> (x, y) = x * |Y| + y, every
    |Y|-th point from y.  The point y is not checked."""
    return push(range(y, prod.space.n, prod.right.n), prod.space.n, w)


def product(w: Sequence, v: Sequence) -> tuple:
    """The weight of the pair (x, y) is w_x * v_y."""
    return tuple([a * b for a in w for b in v])


def pairing(w: Sequence, g: Sequence):
    """<w, g>, the sum of w_x * g(x)."""
    acc = ZERO
    for a, b in zip(w, g):
        if a:
            acc = a * b if acc is ZERO else acc + a * b
    return acc


def value(w: Sequence, subset: int):
    """The pairing of w with a subset's indicator: the sum of its weights."""
    acc = ZERO
    while subset:  # step by the lowest set bit
        a = w[(subset & -subset).bit_length() - 1]
        if a:
            acc = a if acc is ZERO else acc + a
        subset &= subset - 1
    return acc


def table(space: FiniteSpace, w: Sequence) -> tuple:
    """The values on `space.opens`, in order."""
    return tuple([value(w, u) for u in space.opens])


def canonical(space: FiniteSpace, w: Sequence) -> tuple:
    """The weights with INF on every point below an INF weight, which fixes
    every other weight by the values on the opens."""
    tops = sum([1 << x for x, a in enumerate(w) if a == INF])
    if not tops:
        return tuple(w)
    below = space.closure(tops)
    return tuple([INF if below >> x & 1 else a for x, a in enumerate(w)])


def validate(space: FiniteSpace, values: Sequence) -> tuple | None:
    """Weights w_x = v(up x) - v(up x minus [x]), truncated, on the least point of
    each class and zero elsewhere, read off values v on the opens if they give v back."""
    v = dict(zip(space.opens, values))
    w = tuple([
        monus(v[up], v[up & ~c]) if c & -c == 1 << x else ZERO
        for x, (up, c) in enumerate(zip(space.min_nbhd, space.classes))
    ])
    return w if table(space, w) == tuple(values) else None
