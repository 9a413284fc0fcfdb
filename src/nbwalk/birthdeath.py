"""Reflected birth-death chains with eventually periodic move
probabilities: exact transience decisions, escape probabilities and
move-law enumeration.

These chains mirror the cursor of the backtrack-erasure algorithm: the
erasure of a uniform walk on a k-regular graph moves its cursor right
with probability (k-1)/k away from the origin, and on a tree alternating
between degrees k1 and k2 the right probability alternates with the
parity of the position.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import prod
from operator import mul

from .errors import InvalidParameter, is_degree_pair, is_int
from .laws import _fractions, _propagate

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class BirthDeathSpec:
    """Right-move probabilities for a chain on the nonnegative integers.

    Position 0 always moves right (reflection).  Positions 1..len(prefix)
    read from ``prefix``; beyond the prefix, position n uses
    ``period[n % len(period)]``, so ``period[0]`` governs the even
    positions.  All probabilities must lie in (0, 1].
    """

    prefix: tuple
    period: tuple

    def __post_init__(self):
        prefix = tuple(Fraction(p) for p in self.prefix)
        period = tuple(Fraction(p) for p in self.period)
        if not period:
            raise InvalidParameter("period must be nonempty")
        for p in (*prefix, *period):
            if not 0 < p <= 1:
                raise InvalidParameter("move probabilities must lie in (0, 1]")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "period", period)

    def right_prob(self, position: int) -> Fraction:
        if not is_int(position):
            raise InvalidParameter(f"position must be an integer, got {position!r}")
        if position < 0:
            raise InvalidParameter("positions are nonnegative")
        if position == 0:
            return _ONE
        if position <= len(self.prefix):
            return self.prefix[position - 1]
        return self.period[position % len(self.period)]


def chain_for_regular(k: int) -> BirthDeathSpec:
    """Constant right probability (k-1)/k, the cursor law induced by
    erasing a uniform walk on a k-regular graph."""
    if not is_int(k) or k < 2:
        raise InvalidParameter(f"degree must be an integer >= 2, got {k!r}")
    k = int(k)
    return BirthDeathSpec((), (Fraction(k - 1, k),))


def chain_for_biregular(k1: int, k2: int) -> BirthDeathSpec:
    """Period-2 right probabilities for the alternating-degree case.  The
    start vertex has degree k1, so even positions carry (k1-1)/k1 and odd
    positions (k2-1)/k2."""
    if not is_degree_pair(k1, k2):
        raise InvalidParameter(f"need k1 > k2 >= 2, got ({k1!r}, {k2!r})")
    k1, k2 = int(k1), int(k2)
    return BirthDeathSpec((), (Fraction(k1 - 1, k1), Fraction(k2 - 1, k2)))


def _odds(spec: BirthDeathSpec) -> list:
    # left/right odds at positions 1..len(prefix) + len(period)
    return [(1 - p) / p for p in map(spec.right_prob, range(1, len(spec.prefix) + len(spec.period) + 1))]


def _period_ratio_product(spec: BirthDeathSpec) -> Fraction:
    # product of left/right odds over one full period past the prefix
    return prod(_odds(spec)[len(spec.prefix) :])


def is_transient(spec: BirthDeathSpec) -> bool:
    """True exactly when the escape series converges, i.e. when the
    one-period product of left/right odds is below 1."""
    return _period_ratio_product(spec) < 1


def escape_probability(spec: BirthDeathSpec) -> Fraction:
    """Exact chance, starting from position 1, of never hitting 0.

    Uses the classical series S = sum over n >= 0 of the products of
    left/right odds up to position n; the escape probability is 1/S, and
    the periodic tail makes S a finite geometric sum.  Returns 0 exactly
    when the chain is recurrent."""
    s = len(spec.prefix)
    odds = _odds(spec)
    ratio = prod(odds[s:])
    if ratio >= 1:
        return _ZERO
    # gammas[n - 1]: the product of left/right odds over positions 1..n
    gammas = list(accumulate(odds, mul))
    head = sum(gammas[:s], _ONE)
    block = sum(gammas[s:])
    series = head + block / (1 - ratio)
    return 1 / series


def chain_move_law(spec: BirthDeathSpec, moves: int) -> dict:
    """Exact distribution of the first ``moves`` right/left symbols of
    the chain, as a map from strings like ``"RRLR"`` to rationals."""
    if not is_int(moves) or moves < 0:
        raise InvalidParameter("move count must be a nonnegative integer")
    moves = int(moves)

    def law(pos):
        # position 0 reflects: its right probability is 1
        p = spec.right_prob(pos)
        right = (p, pos + 1, "R")
        return (right,) if p == 1 else (right, (1 - p, pos - 1, "L"))

    return _fractions(*_propagate(law, 0, "", moves, lambda word, move: word + move))
