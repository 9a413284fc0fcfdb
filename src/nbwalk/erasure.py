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
Both are computed by the stack pass, in linear time; the cursor's head
positions are recovered from the move record.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate
from operator import itemgetter

from .errors import InvalidInput
from .graph import Graph
from .walkers import PrefixDistribution, WalkKind, _branches, _check_horizon, _fractions, _propagate


@dataclass(frozen=True)
class CursorTrace:
    """Right/left move record; ``positions``, built on first use, holds the
    head position after each move: the running count of rights minus lefts."""

    moves: str

    @cached_property
    def positions(self) -> tuple:
        return tuple(accumulate(1 if m == "R" else -1 for m in self.moves))


@dataclass(frozen=True)
class ErasureResult:
    output: tuple
    trace: CursorTrace
    consumed: int


def erase_backtracks(seq) -> ErasureResult:
    """The cursor algorithm's surviving sequence and full move trace.  The
    entries up to the head always form the erasure stack and the entries
    after it an unread suffix of the input, so one stack pass gives the
    output and the moves, and the head positions follow from the moves."""
    stack, moves = _erase_stack(seq)
    return ErasureResult(tuple(stack), CursorTrace("".join(moves)), len(moves) + 1)


def _erase_stack(seq):
    """Single pass over any iterable: push each element, or pop the top
    when the element equals the one underneath it.  Returns the stack and
    the move record, R per push and L per pop; an empty input is refused."""
    items = iter(seq)
    try:
        st = [next(items)]
    except StopIteration:
        raise InvalidInput("cannot erase an empty sequence") from None
    moves = []
    for x in items:
        if len(st) >= 2 and st[-2] == x:
            st.pop()
            moves.append("L")
        else:
            st.append(x)
            moves.append("R")
    return st, moves


def erase_backtracks_stack(seq) -> tuple:
    """Single-pass push/pop reformulation; returns only the output."""
    return tuple(_erase_stack(seq)[0])


def _erase_step(stack: tuple, x):
    """One step of ``_erase_stack`` on an immutable stack, for the exact
    oracles: returns the new stack and the move."""
    if len(stack) >= 2 and stack[-2] == x:
        return stack[:-1], "L"
    return stack + (x,), "R"


def erased_prefix_distribution(g: Graph, start, big_n: int, m: int) -> PrefixDistribution:
    """Exact law of the first m+1 entries of the erased output of a
    uniform-neighbor walk of length ``big_n`` from ``start``.  The law is
    propagated over erasure stacks, whose top is the walk's vertex, so
    walks that reach the same stack are merged.  Outputs that come out
    shorter than m+1 accumulate in ``short_mass``."""
    m = _check_horizon(m)
    big_n = _check_horizon(big_n, m + 1)
    keep = m + 1
    weights, den = _propagate(
        partial(_branches, WalkKind.SRW, g), start, (start,), big_n,
        lambda st, v: _erase_step(st, v)[0], lambda st: st[:keep] if len(st) >= keep else None,
    )
    short = weights.pop(None, 0)
    return PrefixDistribution._from_weights(m, weights, short, den)


def _erase_move(record, v):
    stack, moves = record
    stack, move = _erase_step(stack, v)
    return stack, moves + move


def enumerate_move_distribution(g: Graph, start, steps: int) -> dict:
    """Exact law of the erasure move string of a uniform-neighbor walk
    with ``steps`` steps from ``start``, propagated over (stack, move
    string) pairs."""
    steps = _check_horizon(steps, 1)
    law = _propagate(partial(_branches, WalkKind.SRW, g), start, ((start,), ""), steps, _erase_move, itemgetter(1))
    return _fractions(*law)
