"""Backtrack erasure: delete out-and-back pairs from a vertex sequence
until none remain.

Two equivalent formulations are provided.  The cursor form carries a read
head along the sequence: at position 0 it moves right; at position n > 0
it compares the entries on either side of the head, moving right if they
differ and otherwise deleting the pair at n, n+1, closing the gap, and
stepping left to recheck.  It halts when the head sits on the last index
of what remains.  The stack form consumes the input once, popping the top
whenever the incoming element equals the element underneath it.  Both
produce the same output and the same right/left move record; the move
record is what couples the erasure to a reflected birth-death chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInput, LimitExceeded
from .graph import Graph
from .walkers import MAX_ENUMERATION_HORIZON, PrefixDistribution, WalkKind, _expand

_ZERO = Fraction(0)


@dataclass(frozen=True)
class CursorTrace:
    """Right/left move record with the head position after each move."""

    moves: str
    positions: tuple


@dataclass(frozen=True)
class ErasureResult:
    output: tuple
    trace: CursorTrace
    consumed: int


def erase_backtracks(seq) -> ErasureResult:
    """Run the cursor algorithm literally and return the surviving
    sequence together with its full move trace."""
    items = list(seq)
    if not items:
        raise InvalidInput("cannot erase an empty sequence")
    total = len(items)
    moves = []
    positions = []
    n = 0
    while n < len(items) - 1:
        if n == 0 or items[n - 1] != items[n + 1]:
            n += 1
            moves.append("R")
        else:
            del items[n : n + 2]
            n -= 1
            moves.append("L")
        positions.append(n)
    trace = CursorTrace("".join(moves), tuple(positions))
    return ErasureResult(tuple(items), trace, total)


def _erase_stack(seq):
    """Single pass over a nonempty sequence: push each element, or pop the
    top when the element equals the one underneath it.  Returns the stack
    and the move record, R per push and L per pop."""
    st = [seq[0]]
    moves = []
    for x in seq[1:]:
        if len(st) >= 2 and st[-2] == x:
            st.pop()
            moves.append("L")
        else:
            st.append(x)
            moves.append("R")
    return st, moves


def erase_backtracks_stack(seq) -> tuple:
    """Single-pass push/pop reformulation; returns only the output."""
    items = list(seq)
    if not items:
        raise InvalidInput("cannot erase an empty sequence")
    return tuple(_erase_stack(items)[0])


def _check_horizons(big_n: int, m: int):
    if not isinstance(big_n, int) or not isinstance(m, int) or m < 0 or big_n <= m:
        raise InvalidInput("need integer horizons with 0 <= m < N")
    if big_n > MAX_ENUMERATION_HORIZON:
        raise LimitExceeded(
            f"walk horizon {big_n} exceeds the enumeration guard {MAX_ENUMERATION_HORIZON}"
        )


def erased_prefix_distribution(g: Graph, start, big_n: int, m: int) -> PrefixDistribution:
    """Exact law of the first m+1 entries of the erased output over all
    uniform-neighbor walks of length ``big_n`` from ``start``.  Outputs
    that come out shorter than m+1 accumulate in ``short_mass``."""
    _check_horizons(big_n, m)
    entries: dict = {}
    short = _ZERO
    keep = m + 1

    def visit(path, prob):
        nonlocal short
        st, _ = _erase_stack(path)
        if len(st) >= keep:
            key = tuple(st[:keep])
            entries[key] = entries.get(key, _ZERO) + prob
        else:
            short += prob

    _expand(WalkKind.SRW, g, start, big_n, visit)
    return PrefixDistribution(m, entries, short)


def enumerate_move_distribution(g: Graph, start, steps: int) -> dict:
    """Exact law of the erasure move string over all uniform-neighbor
    walks with ``steps`` steps from ``start``."""
    if not isinstance(steps, int) or steps < 1:
        raise InvalidInput("need at least one step")
    if steps > MAX_ENUMERATION_HORIZON:
        raise LimitExceeded(
            f"walk horizon {steps} exceeds the enumeration guard {MAX_ENUMERATION_HORIZON}"
        )
    law: dict = {}

    def visit(path, prob):
        key = "".join(_erase_stack(path)[1])
        law[key] = law.get(key, _ZERO) + prob

    _expand(WalkKind.SRW, g, start, steps, visit)
    return law
