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
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import itemgetter

from .errors import InvalidInput
from .graph import Graph
from .laws import PrefixDistribution, WalkKind, _branches, _check_horizon, _check_start, _fractions, _propagate


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


def _stack_chain(g: Graph, keep: int):
    """The erasure stacks of a uniform-neighbor walk on ``g`` as a chain
    for ``_propagate``, ``(law, step)``, whose state is the stack's top.
    The first ``keep`` entries stay vertices; each entry above them is a
    tag of its dart's cone type (``Graph.dart_types``, built when a stack
    first grows past ``keep``), and a type t's top pops with chance
    1/deg(t) and pushes each successor type c with chance mult(t, c)/deg(t).
    A tag is a string with a space, which no vertex key is (``canon_key``)
    and which, unlike a private object, the garbage collector does not
    track."""
    of = successors = None
    cones: dict = {}

    def tag(t):
        cones[x := f"cone {t}"] = t
        return x

    def law(top):
        t = cones.get(top)
        if t is None:
            return _branches(WalkKind.SRW, g, top)
        succ = successors(t)
        deg = 1 + sum(k for _, k in succ)
        return ((Fraction(1, deg), None, None), *((Fraction(k, deg), None, tag(c)) for c, k in succ))

    def step(stack, x):
        # above the prefix, x is None for a pop or the pushed tag
        nonlocal of, successors
        n = len(stack)
        if n > keep:
            return stack[:-1] if x is None else stack + (x,)
        if n > 1 and stack[-2] == x:
            return stack[:-1]
        if n < keep:
            return stack + (x,)
        if of is None:
            of, successors = g.dart_types()
        return stack + (tag(of(stack[-1], x)),)

    return law, step


def erased_prefix_distribution(g: Graph, start, big_n: int, m: int) -> PrefixDistribution:
    """Exact law of the first m+1 entries of the erased output of a
    uniform-neighbor walk of length ``big_n`` from ``start``.  The law is
    propagated over erasure stacks whose entries above the first m+1 are
    cone types (``_stack_chain``), so walks that reach the same prefix and
    type sequence are merged.  Outputs that come out shorter than m+1
    accumulate in ``short_mass``."""
    m = _check_horizon(m)
    big_n = _check_horizon(big_n, m + 1)
    _check_start(g, start)
    keep = m + 1
    law, step = _stack_chain(g, keep)
    weights, den = _propagate(
        law, start, (start,), big_n, step, lambda st: st[:keep] if len(st) >= keep else None, itemgetter(-1)
    )
    short = weights.pop(None, 0)
    return PrefixDistribution._from_weights(m, weights, short, den)


def enumerate_move_distribution(g: Graph, start, steps: int) -> dict:
    """Exact law of the erasure move string of a uniform-neighbor walk
    with ``steps`` steps from ``start``, propagated over (stack, move
    string) pairs whose stacks keep the start and the cone types above it
    (``_stack_chain``)."""
    steps = _check_horizon(steps, 1)
    _check_start(g, start)
    law, step = _stack_chain(g, 1)

    # a record is (top, stack, moves), so that its state is read in C
    def move(record, x):
        _, stack, moves = record
        after = step(stack, x)
        return after[-1], after, moves + ("R" if len(after) > len(stack) else "L")

    return _fractions(*_propagate(law, start, (start, (start,), ""), steps, move, itemgetter(2), itemgetter(0)))
