"""Transition kernels, samplers, and the exact finite-horizon enumeration
oracle for the four walk kinds: simple, non-backtracking on vertices and
on multigraph edges, and weighted.

The simple walk picks a uniform neighbor.  The non-backtracking walk
picks a uniform neighbor other than the one it just left (its first step,
with no history, falls back to the simple rule).  On a multigraph the
non-backtracking walk is edge based: it may not re-traverse the arriving
edge instance in reverse, which on simple graphs degenerates to the
vertex rule.

The weighted walk runs on a multigraph whose edges model corridors of
resistance r: it picks a half-edge uniformly and then crosses it with
probability 1/r, bouncing back to its current vertex otherwise.  That is
exactly the law of a plain walk on the uncontracted graph observed at
anchor visits, which is what the contraction equivalence tests check.
Conditioned on crossing, the edge choice is proportional to conductance.

Every sampler makes one bounded integer draw per step from a
caller-supplied ``numpy.random.Generator``; the weighted walk's draw
picks the half-edge and the crossing at once.  The enumeration oracle
uses exact rationals.  On a finite graph whose vertices all have one
degree, ``_move_table`` tabulates a sampler's move under each draw, so
that ``stats.monte_carlo`` and ``sample_path`` run walks without calling
the sampler per step.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import InsufficientData, InvalidInput, InvalidState, LimitExceeded, NoLegalMove, is_int
from .graph import ExplicitGraph, Graph, Lattice, WeightedMultigraph

MAX_ENUMERATION_HORIZON = 14
# the most (state, record) pairs an exact law may carry into one level before
# equal pairs merge; path records never merge (Z^2 SRW paths pass it at horizon 11)
MAX_LEVEL_STATES = 1 << 21


class WalkKind(str, Enum):
    SRW = "srw"
    NBRW = "nbrw"
    WRW = "wrw"


class HalfEdgeState(NamedTuple):
    """Walk state on a multigraph: the edge instance just traversed and
    which of its ends the walker now occupies."""

    edge_id: int
    head_end: int


class WrwMove(NamedTuple):
    """One weighted-walk transition: the half-edge engaged, the end the
    walker occupies afterwards, and whether it bounced back instead of
    crossing."""

    edge_id: int
    head_end: int
    reflected: bool


def is_backtrack_free(seq) -> bool:
    seq = tuple(seq)
    return all(seq[i - 1] != seq[i + 1] for i in range(1, len(seq) - 1))


@dataclass(frozen=True, init=False, eq=False)
class PrefixDistribution:
    """Exact distribution over fixed-length vertex-sequence prefixes.

    The law is held as integers over one denominator ``den``: ``weights``
    maps length-(horizon+1) tuples to positive ints and ``short`` weighs
    the outcomes that never reached the full length; together they
    always sum to exactly ``den``.  ``entries`` and ``short_mass`` are the
    same law as canonical Fractions, built on first read.  Laws are equal
    when their probabilities are, whatever their denominators.
    """

    horizon: int
    weights: dict
    short: int
    den: int

    def __init__(self, horizon, entries: dict, short_mass=0):
        """The law with probability ``entries[seq]`` per prefix and
        ``short_mass`` short, each anything ``Fraction`` takes, as weights
        over the lcm of their denominators."""
        probs = [p if isinstance(p, Fraction) else Fraction(p) for p in (*entries.values(), short_mass)]
        den = math.lcm(*{p.denominator for p in probs})
        *weights, short = (p.numerator * (den // p.denominator) for p in probs)
        self._hold(horizon, dict(zip(entries, weights)), short, den)

    @classmethod
    def _from_weights(cls, horizon, weights: dict, short: int, den: int) -> "PrefixDistribution":
        """The law of ``weights`` and ``short`` over ``den``, the form
        ``_propagate`` gives, checked as the constructor's input is."""
        law = cls.__new__(cls)
        law._hold(horizon, weights, short, den)
        return law

    def _hold(self, horizon, weights: dict, short: int, den: int) -> None:
        """Check a law and keep it, with its zero weights dropped."""
        if not is_int(horizon) or horizon < 0:
            raise InvalidInput(f"horizon must be an integer >= 0, got {horizon!r}")
        horizon = int(horizon)
        size = horizon + 1
        for seq, w in weights.items():
            if w < 0:
                raise InvalidInput("negative probability")
            if w and not (isinstance(seq, tuple) and len(seq) == size):
                raise InvalidInput("prefix length does not match horizon")
        if short < 0:
            raise InvalidInput("negative short mass")
        if sum(weights.values()) + short != den:
            raise InvalidInput("probabilities must sum to exactly 1")
        if not all(weights.values()):
            weights = {seq: w for seq, w in weights.items() if w}
        for name, value in (("horizon", horizon), ("weights", weights), ("short", short), ("den", den)):
            object.__setattr__(self, name, value)

    @cached_property
    def entries(self) -> dict:
        return _fractions(self.weights, self.den)

    @cached_property
    def short_mass(self) -> Fraction:
        return Fraction(self.short, self.den)

    def __eq__(self, other):
        if not isinstance(other, PrefixDistribution):
            return NotImplemented
        # w / den == v / other.den, cross-multiplied
        a, b, theirs = other.den, self.den, other.weights
        same = self.weights.keys() == theirs.keys() and all(w * a == theirs[k] * b for k, w in self.weights.items())
        return same and (self.horizon, self.short * a) == (other.horizon, other.short * b)

    def prob(self, seq) -> Fraction:
        return Fraction(self.weights.get(tuple(seq), 0), self.den)

    def marginalized(self, m: int) -> "PrefixDistribution":
        """Project to a smaller horizon by truncating every entry."""
        if not is_int(m):
            raise InvalidInput(f"cannot marginalize to {m!r}: not an integer")
        if not 0 <= m <= self.horizon:
            raise InvalidInput(f"cannot marginalize horizon {self.horizon} to {m}")
        out: dict = {}
        for seq, w in self.weights.items():
            k = seq[: m + 1]
            out[k] = out.get(k, 0) + w
        return PrefixDistribution._from_weights(m, out, self.short, self.den)

    def conditioned(self) -> "PrefixDistribution":
        """The law given that a full-length prefix was produced: the same
        weights over the full-length weight ``den - short``."""
        if self.short == self.den:
            raise InsufficientData("no full-length mass to condition on")
        if not self.short:
            return self
        return PrefixDistribution._from_weights(self.horizon, self.weights, 0, self.den - self.short)


def _fractions(weights: dict, den: int) -> dict:
    """Each weight over ``den`` as a canonical Fraction, in the same order."""
    return {y: Fraction(w, den) for y, w in weights.items()}


def srw_step(g: Graph, current, rng):
    """Uniformly random neighbor of ``current``."""
    nbrs = g.neighbors(current)
    if not nbrs:
        raise NoLegalMove(f"vertex {current!r} is isolated")
    return nbrs[int(rng.integers(len(nbrs)))]


def nbrw_step(g: Graph, prev, current, rng):
    """Uniform choice among neighbors of ``current`` other than ``prev``;
    the first step, with ``prev`` None, is the uniform step."""
    if prev is None:
        return srw_step(g, current, rng)
    nbrs = g.neighbors(current)
    if prev not in nbrs:
        raise InvalidState(f"{prev!r} is not adjacent to {current!r}")
    if len(nbrs) < 2:
        raise NoLegalMove(f"vertex {current!r} has degree 1, only move is back")
    i = int(rng.integers(len(nbrs) - 1))
    if i >= nbrs.index(prev):
        i += 1
    return nbrs[i]


def nbrw_step_edge(mg: WeightedMultigraph, arrival: HalfEdgeState, rng) -> HalfEdgeState:
    """Edge-based non-backtracking step: uniform over the half-edges at
    the head vertex, excluding the reversal of the arriving edge instance.
    For a self-loop only the exact arrival end is excluded, so the loop
    may be re-traversed in the same direction.  The first step, from
    ``(None, v)``, has no arriving edge and excludes nothing."""
    eid, end = arrival
    if eid is None:
        # ``end`` is the start vertex
        half = mg.half_edges(end)
        if not half:
            raise NoLegalMove(f"vertex {end!r} is isolated")
        i = int(rng.integers(len(half)))
    else:
        v = mg.endpoint(eid, end)
        half = mg.half_edges(v)
        if len(half) < 2:
            raise NoLegalMove(f"vertex {v!r} has multigraph degree 1")
        forbidden = half.index((eid, end))
        i = int(rng.integers(len(half) - 1))
        if i >= forbidden:
            i += 1
    eid, end = half[i]
    return HalfEdgeState(eid, 1 - end)


# the largest bound that numpy draws from one 32-bit output, as _Draws does
_MAX_DRAW_BOUND = 1 << 32


def wrw_step(mg: WeightedMultigraph, current, rng) -> WrwMove:
    """Weighted-walk step: pick a half-edge at ``current`` uniformly, then
    cross it with probability equal to its conductance (1/resistance),
    otherwise stay put and report the bounce.  One draw d below
    ``mdegree * L``, L the lcm of the resistances, makes both choices:
    the half-edge is ``d // L``, and an edge of resistance r is crossed
    when ``(d % L) * r < L``, for exactly L / r of its L draws.  A bound
    above 2**32, past numpy's 32-bit rule, is refused before any draw."""
    half = mg.half_edges(current)
    if not half:
        raise NoLegalMove(f"vertex {current!r} is isolated")
    lcm = mg.resistance_lcm
    bound = len(half) * lcm
    if bound > _MAX_DRAW_BOUND:
        raise LimitExceeded(f"wrw draw bound {bound} at {current!r} exceeds the budget 2**32")
    i, rest = divmod(int(rng.integers(bound)), lcm)
    eid, end = half[i]
    if rest * mg.edge(eid).resistance < lcm:
        return WrwMove(eid, 1 - end, False)
    return WrwMove(eid, end, True)


def _check_start(graph, start):
    """``start``, once looking it up has shown that ``graph`` has it."""
    (graph.half_edges if isinstance(graph, WeightedMultigraph) else graph.neighbors)(start)
    return start


def _require_kind_graph(kind, graph):
    """``(WalkKind(kind), mg)``, mg whether ``graph`` is a multigraph; refuses a kind the graph does not run."""
    kind = WalkKind(kind)
    mg = isinstance(graph, WeightedMultigraph)
    if mg and kind is WalkKind.SRW:
        raise InvalidInput("srw runs on a plain graph, not a multigraph")
    if not mg and kind is WalkKind.WRW:
        raise InvalidInput("wrw needs a weighted multigraph")
    if not mg and not isinstance(graph, Graph):
        raise InvalidInput(f"not a graph: {graph!r}")
    return kind, mg


class _Draws:
    """The scalar draws of a ``numpy.random.Generator``, on any bit
    generator, made from its 32-bit outputs read ``block`` at a time by
    ``integers(0, 2**32, size=block)``, which numpy makes as one
    ``next_uint32`` per output.  ``integers(k)``, for k up to 2**32,
    returns what ``rng.integers(k)`` would, by numpy's rule: it maps an
    output x to ``x * k >> 32`` and draws again while the low 32 bits of
    ``x * k`` fall below ``2**32 % k`` (Lemire's method), and draws
    nothing when k is 1.  ``close()`` leaves the generator in the state
    those scalar calls would have left; until then it is ahead of it."""

    def __init__(self, rng, block: int):
        self._rng = rng
        self._block = block
        self._state = None
        self._outputs = []
        self._used = 0

    def integers(self, k: int) -> int:
        if k == 1:
            return 0
        while True:
            i = self._used
            if i == len(self._outputs):
                self._state = self._rng.bit_generator.state
                self._outputs = self._rng.integers(0, 1 << 32, size=self._block).tolist()
                i = 0
            self._used = i + 1
            m = self._outputs[i] * k
            low = m & 0xFFFFFFFF
            if low >= k or low >= 0x100000000 % k:
                return m >> 32

    def close(self):
        # outputs drawn but not used are put back: the state before their
        # block, then the used ones drawn again
        if self._used < len(self._outputs):
            self._rng.bit_generator.state = self._state
            self._rng.integers(0, 1 << 32, size=self._used)


class _Trusted:
    """A graph seen through its unchecked neighbor lookup, ``_adjacent``
    where the graph has one: a walk from a checked start only meets keys
    that the graph's own lookups built."""

    __slots__ = ("neighbors",)

    def __init__(self, graph):
        self.neighbors = getattr(graph, "_adjacent", graph.neighbors)


# the most steps, or 32-bit outputs, that one bulk numpy call resolves, which
# bounds their memory: a _Draws block, a _table_walk or _tree_counts block,
# and a chunk of the lattice and tree kernels
_CHUNK = 1 << 13


def _walk(kind, graph, start, n: int, rng):
    """Yield the vertices at steps 1..n of one walk from ``start``, each
    step drawn by the sampler for ``kind``.  The first non-backtracking
    step has no history and uses the uniform rule.

    The start is the only key checked; later steps look up neighbors
    without a check.  The draws come from a ``_Draws`` of ``min(n,
    _CHUNK)`` outputs a block, so a walk of up to ``_CHUNK`` steps with no
    bound-1 step and no rejected output uses every output it draws, and
    its close puts none back.  The generator reaches the state the scalar
    calls would leave when the walk ends, is closed or raises; do not draw
    from ``rng`` while the walk is open."""
    kind, mg = _require_kind_graph(kind, graph)
    if n < 1:
        return
    if not mg:
        graph.neighbors(start)
        graph = _Trusted(graph)
    rng = _Draws(rng, min(n, _CHUNK))
    i = 0
    try:
        if kind is WalkKind.SRW:
            cur = start
            for i in range(1, n + 1):
                cur = srw_step(graph, cur, rng)
                yield cur
        elif kind is WalkKind.WRW:
            cur = start
            for i in range(1, n + 1):
                move = wrw_step(graph, cur, rng)
                cur = graph.endpoint(move.edge_id, move.head_end)
                yield cur
        elif mg:
            state = (None, start)
            for i in range(1, n + 1):
                state = nbrw_step_edge(graph, state, rng)
                yield graph.endpoint(state.edge_id, state.head_end)
        else:
            prev, cur = None, start
            for i in range(1, n + 1):
                prev, cur = cur, nbrw_step(graph, prev, cur, rng)
                yield cur
    except NoLegalMove as exc:
        raise NoLegalMove(f"step {i}: {exc}") from None
    finally:
        rng.close()


def _tree_counts(kind, tree, start, n: int, rng):
    """``(returns, last, depth)`` of an n-step srw or nbrw walk on a
    ``BiregularTree`` from the vertex ``start``: the steps 1..n at
    ``start``, the last of them (None if none) and the end depth, at O(1)
    a step, with no key built.  Step i leaves a depth of parity
    ``len(start) + i``, so its draw bound, the degree (k1 at even depths,
    the root included, k2 at odd ones; one less for nbrw after step 0),
    is known before the walk, and each block of up to ``_CHUNK`` steps is
    one bulk ``integers`` call, with the scalar calls' draws and end
    state.  Draw d takes the root to child d and any other vertex up for
    d = 0 and to child d - 1 otherwise.  srw keeps its depth and
    ``shared``, the number of leading branch indices its key shares with
    ``start``; it is at ``start`` when both are ``len(start)``.  nbrw never
    revisits a vertex, so it has no returns; it climbs on its leading run
    of zero draws, at most to the root, and then only descends."""
    nbrw = WalkKind(kind) is WalkKind.NBRW
    home = depth = shared = len(start)
    # _CHUNK is even, so every block has the first one's bounds, but for
    # nbrw's first step
    bounds = np.tile((tree.k1, tree.k2), _CHUNK // 2 + 1)[home & 1 :][:_CHUNK] - nbrw
    first = np.r_[bounds[0] + nbrw, bounds[1:]]
    returns, last, climb = 0, None, 0
    for done in range(0, n, _CHUNK):
        draws = rng.integers(0, (bounds if done else first)[: n - done])
        if nbrw:
            # the leading run of zero draws, while no block has ended it
            if climb == done:
                down = np.flatnonzero(draws)
                climb += int(down[0]) if len(down) else len(draws)
            continue
        for i, d in enumerate(draws.tolist(), done + 1):
            if depth and not d:
                depth -= 1
                if shared > depth:
                    shared = depth
            else:
                if shared == depth < home and d - (depth > 0) == start[depth]:
                    shared += 1
                depth += 1
            if depth == shared == home:
                returns += 1
                last = i
    if nbrw:
        return 0, None, home + n - 2 * min(climb, home)
    return returns, last, depth


class _Fixed(int):
    """A generator stand-in whose every draw is itself."""

    def integers(self, k):
        return self


# the fewest steps per entry, over all walks of a call, that take a move
# table.  Its build makes one sampler call per entry, at 1-2 times the cost
# of a stepper step, so on a 2-vCPU host tables paid back from about 2 steps
# an entry, vertex nbrw's from about 3
_TABLE_SHARE = 2
# the most entries of a k-step move table.  The table is built on every
# monte_carlo and sample_path call, and at 2**15 entries its build (about
# 1 ms on a 2-vCPU host) cost a third of what it saved on 3 x 20,000 steps
_JUMP_ENTRIES = 1 << 12
# the shortest walk that takes a k-step table.  The build and the k-step
# loop's extra numpy calls per block cost about 15 us on a 2-vCPU host,
# which walks of 2,000 steps on K4 and on cubic graphs just earn back
_JUMP_STEPS = 1 << 11


class _MoveTable(NamedTuple):
    """A ``_move_table`` over numbered states, of one draw bound B, with
    the k that ``_move_table`` chose for the walks it serves: draw d
    takes the first step to ``first[d]`` and state s to ``rows[s][d]``, and
    s sits at ``vertex[s]``, which ``home[s]`` says is the start.  Entry
    ``e = s * B**k + i`` of the k-step table is state s followed by the
    draws d_1..d_k with ``i = sum(d_j * B**(j - 1))``: ``spans[e]`` are
    the k states they pass, and ``jump[s][i]`` is the last of them.  At
    k = 1 the walk reads ``rows`` alone, ``jump`` is empty and ``spans``
    is None."""

    first: list
    rows: list
    vertex: list
    home: np.ndarray
    k: int
    jump: list
    spans: np.ndarray


def _move_table(kind, graph, start, n: int, walks: int = 1):
    """The moves of ``walks`` walks of n steps from ``start`` on a finite
    graph where every state has the same draw bound, as a ``_MoveTable``;
    row entry d of a state is the state the sampler moves to on draw d.
    The bound B is the degree for srw, one less for nbrw after its first
    step, and ``mdegree * L`` for wrw.  The table is built when the walks'
    ``walks * n`` steps give each of its S * B entries ``_TABLE_SHARE``
    steps.  Its k is the largest whose S * B**k entries fit both ``walks *
    n // 8`` and ``_JUMP_ENTRIES``, counting B as at least 2, so a bound-1
    table, which draws nothing, gets a finite k too; walks shorter than
    ``_JUMP_STEPS`` keep k = 1.  The k-step table is composed from the rows
    by numpy, with no further sampler calls.  Refuses a kind and graph that
    do not match, as ``_walk`` does; then None, with ``start`` not looked
    up, on a lattice or a tree, on a graph whose degrees differ, for a
    bound below 1 and for too few steps."""
    kind, mg = _require_kind_graph(kind, graph)
    if not (mg or isinstance(graph, ExplicitGraph)):
        return None
    degree = graph.mdegree if mg else graph.degree
    vertices = graph.vertices()
    deg = degree(vertices[0])
    nbrw = kind is WalkKind.NBRW
    # the first step's bound; nbrw's later steps exclude the arriving half-edge
    width = deg * graph.resistance_lcm if kind is WalkKind.WRW else deg
    bound = deg - 1 if nbrw else width
    # a state is a vertex for srw and wrw and a dart, one per half-edge, for nbrw
    size = len(vertices) * (deg if nbrw else 1)
    if bound < 1 or size * bound * _TABLE_SHARE > walks * n or any(degree(v) != deg for v in vertices):
        return None
    if not nbrw:
        states = vertex = vertices
        # a wrw move leaves the walker at its half-edge's end head_end
        step = (lambda v, rng: graph.endpoint(*wrw_step(graph, v, rng)[:2])) if mg else partial(srw_step, graph)
        first = start
    elif mg:
        states = [HalfEdgeState(e.edge_id, end) for e in graph.edges() for end in (0, 1)]
        vertex, step, first = [graph.endpoint(*s) for s in states], partial(nbrw_step_edge, graph), (None, start)
    else:
        states = [(v, w) for v in vertices for w in graph.neighbors(v)]
        vertex, step, first = [w for _, w in states], lambda s, rng: (s[1], nbrw_step(graph, *s, rng)), (None, start)
    index = {s: i for i, s in enumerate(states)}
    first_row = [index[step(first, _Fixed(d))] for d in range(width)]
    rows = [[index[step(s, _Fixed(d))] for d in range(bound)] for s in states]
    budget = min(walks * n // 8, _JUMP_ENTRIES) if n >= _JUMP_STEPS else 0
    k, jump, spans = 1, [], None
    while size * max(bound, 2) ** (k + 1) <= budget:
        k += 1
    if k > 1:
        # ends[s, i] is the state j steps after s on the draws of i mod B**j,
        # which is step j of every entry whose index ends in those j digits
        moves = ends = np.array(rows)
        spans = np.empty((size, bound**k, k), np.intp)
        for j in range(1, k + 1):
            if j > 1:
                # a new last draw d is the digit of B**(j - 1), so its axis goes first
                ends = moves[ends].transpose(0, 2, 1).reshape(size, -1)
            spans[..., j - 1].reshape(size, -1, bound**j)[:] = ends[:, None]
        jump, spans = ends.tolist(), spans.reshape(-1, k)
    return _MoveTable(first_row, rows, vertex, np.array([v == start for v in vertex]), k, jump, spans)


def _table_walk(table, n: int, rng):
    """Yield the states at steps 1..n of a ``_move_table`` walk in blocks:
    the first step by a scalar ``rng.integers(len(first))``, then blocks of
    up to ``_CHUNK`` steps by bulk draws, which numpy makes as the scalar
    calls would, leaving the generator in the same state.  At k = 1 a
    block is a list, one row lookup per draw.  Otherwise it is an intp
    array: each k draws make one k-step entry, ``table.jump`` is looked up
    once per entry, and one gather from ``table.spans`` gives the block's
    states; the block's last entry may hold fewer than k draws.  This is
    the one table loop for every walk kind, on any bit generator."""
    first, rows, k, jump, spans = table.first, table.rows, table.k, table.jump, table.spans
    s = first[int(rng.integers(len(first)))]
    yield [s]
    bound = len(rows[0])
    if k == 1:
        for done in range(1, n, _CHUNK):
            draws = rng.integers(0, bound, size=min(_CHUNK, n - done)).tolist()
            yield [s := rows[s][d] for d in draws]
        return
    stride, digits = bound**k, bound ** np.arange(k)
    for done in range(1, n, _CHUNK):
        draws = rng.integers(0, bound, size=min(_CHUNK, n - done))
        # the last entry's missing draws count as 0, which leaves the states
        # of its drawn ones as they are
        index = np.concatenate((draws, np.zeros(-len(draws) % k, draws.dtype))).reshape(-1, k) @ digits
        # the state before each entry
        starts = [s, *[s := jump[s][i] for i in index[:-1].tolist()]]
        states = spans[np.fromiter(starts, np.intp, len(index)) * stride + index].ravel()[: len(draws)]
        s = int(states[-1])
        yield states


def sample_path(kind, graph, start, n: int, rng) -> tuple:
    """Length-(n+1) vertex sequence started at ``start``; each step drawn
    from the kernel for ``kind``.  The first non-backtracking step uses
    the uniform rule.  Where ``_on_lattice_kernel`` holds, the path is
    drawn in bulk by ``_lattice_offsets``, and it is read off ``_table_walk``
    where ``_move_table`` builds a table for an n-step walk, with the
    scalar samplers' draws and end state.  A 0-step path is ``(start,)``,
    start unchecked."""
    if not is_int(n) or n < 0:
        raise InvalidInput("path length must be a nonnegative integer")
    kind, n = WalkKind(kind), int(n)
    if not n or not _on_lattice_kernel(kind, graph, start):
        table = _move_table(kind, graph, start, n)
        if table is None:
            return (start, *_walk(kind, graph, start, n, rng))
        vertex = table.vertex
        if table.k == 1:
            return (start, *[vertex[s] for block in _table_walk(table, n, rng) for s in block])
        # a k-step block is an array, whose vertices one gather reads
        vertex, path = np.fromiter(vertex, object, len(vertex)), [start]
        for block in _table_walk(table, n, rng):
            path += vertex[block].tolist()
        return tuple(path)
    path = [start]
    carry = graph.coordinates(start)
    for packed in _lattice_offsets(kind, graph, n, rng):
        columns = []
        for c, off in zip(carry, _unpack(packed, graph.d)):
            lo = int(off.min())
            # one int object per coordinate value, shared by every key
            # that has it, as the scalar walk shares unchanged ones
            values = list(range(c + lo, c + int(off.max()) + 1))
            columns.append([values[i] for i in (off - lo).tolist()])
        path.extend(columns[0] if graph.d == 1 else zip(*columns))
        carry = [col[-1] for col in columns]
    return tuple(path)


def _on_lattice_kernel(kind: WalkKind, graph, start) -> bool:
    """Whether ``_lattice_offsets`` runs this walk: srw or nbrw on Z^d,
    nbrw from an anchor of a subdivided lattice whose corridors fit in a
    chunk, and srw from an anchor of one with pitch 2.  Looking up
    ``start`` raises as the generic stepper's start check does."""
    if kind is WalkKind.WRW or not isinstance(graph, Lattice):
        return False
    pitch = graph.pitch
    if pitch == 1:
        return True
    # a chunk holds whole corridors and at most _CHUNK steps
    if pitch > _CHUNK or (kind is WalkKind.SRW and pitch > 2):
        return False
    return not any(c % pitch for c in graph.coordinates(start))


# a packed lattice offset counts _RADIX ** a per step along axis a.  Each
# axis of a chunk's offsets is at most _CHUNK < _RADIX / 2 in size, so the
# packing is one-to-one, and below 2^63 for d <= 4, the most ``Lattice``
# allows
_BITS = 15
_RADIX = 1 << _BITS


def _pack(offsets) -> int:
    """One int for a lattice offset, below ``_RADIX / 2`` in size on every axis."""
    return sum(o << _BITS * a for a, o in enumerate(offsets))


def _unpack(packed, d: int) -> list:
    """The d per-axis offsets of a ``_pack`` value, or of an int64 array
    of them: biased by ``_RADIX / 2`` on every axis, each axis is one
    base-``_RADIX`` digit."""
    half = _RADIX >> 1
    biased = packed + _pack([half] * d)
    return [(biased >> _BITS * a & _RADIX - 1) - half for a in range(d)]


def _nbrw_chain(u, prev):
    """Directions of a non-backtracking lattice walk from its raw draws
    ``u`` in [0, 2d - 1), given the direction ``prev`` taken before
    ``u[0]``.  Direction t is ``u_t + b_t`` with
    ``b_t = [u_t >= dir_{t-1} ^ 1]``: the draw skips the reversal of the
    last direction.  Given ``u_{t-1}`` and ``u_t``, ``b_t`` is constant
    0, constant 1, ``b_{t-1}`` or its negation, and at t = 0 it is a
    constant, so each ``b_t`` is the value of the last constant flipped
    once per negation since."""
    # b_t when b_{t-1} is 0 and when it is 1
    lo = np.empty(len(u), dtype=bool)
    hi = np.empty(len(u), dtype=bool)
    lo[0] = hi[0] = u[0] >= prev ^ 1
    np.greater_equal(u[1:], u[:-1] ^ 1, out=lo[1:])
    np.greater_equal(u[1:], (u[:-1] + 1) ^ 1, out=hi[1:])
    last = np.maximum.accumulate(np.arange(len(u)) * (lo == hi))
    flips = np.logical_xor.accumulate(lo > hi)
    return u + ((lo ^ flips)[last] ^ flips)


def _lattice_offsets(kind: WalkKind, lat: Lattice, n: int, rng):
    """Yield an n-step srw or nbrw walk from an anchor of ``lat``, whose
    pitch is at most ``_CHUNK``, in chunks of whole corridors, at most
    ``_CHUNK`` steps, each chunk as one int64 array of the ``_pack``ed
    offsets from the chunk's start: one gather from a table of
    ``±_RADIX ** a`` per direction and one cumsum, for any d.  Direction 2a is
    +e_a and 2a + 1 is -e_a, the order of ``Lattice.neighbors``, and the
    draws are those of the scalar samplers: ``integers(2d)`` per simple
    step at an anchor and ``integers(2)`` at a midpoint of pitch 2, whose
    draw keeps the axis of the step before; one scalar ``integers(2d)``
    for the first non-backtracking step, then ``integers(2d - 1)`` per
    anchor, resolved by ``_nbrw_chain``.  A corridor point's one legal
    move draws ``integers(1)``, which is nothing, so each non-backtracking
    direction repeats for a corridor's ``pitch`` steps.  numpy makes the
    same draws for any split of a bulk call, so the chunks leave no seam."""
    d, pitch = lat.d, lat.pitch
    two_d = 2 * d
    steps = np.array([s << _BITS * a for a in range(d) for s in (1, -1)], dtype=np.int64)
    prev = -1
    chunk = _CHUNK - _CHUNK % pitch
    for done in range(0, n, chunk):
        m = min(chunk, n - done)
        if kind is WalkKind.SRW:
            dirs = rng.integers(0, two_d if pitch == 1 else np.tile((two_d, 2), (m + 1) // 2)[:m], size=m)
            if pitch == 2:
                dirs[1::2] |= dirs[: m - 1 : 2] & ~1
        else:
            dirs = np.empty(-(-m // pitch), dtype=np.int64)
            i0 = 0
            if prev < 0:
                prev = dirs[0] = int(rng.integers(two_d))
                i0 = 1
            if len(dirs) > i0:
                dirs[i0:] = _nbrw_chain(rng.integers(0, two_d - 1, size=len(dirs) - i0), prev)
                prev = int(dirs[-1])
            if pitch > 1:
                dirs = np.repeat(dirs, pitch)[:m]
        yield np.cumsum(steps[dirs])


def step_distribution(kind, graph, state) -> dict:
    """Exact one-step law as a map from targets to rationals.

    States: a vertex for srw and wrw; a ``(prev, current)`` pair for the
    vertex-based non-backtracking walk (prev may be None for the first
    step); a ``HalfEdgeState`` or ``(None, vertex)`` on a multigraph.
    Targets are vertices for the vertex walks, ``HalfEdgeState`` for the
    edge walk, and ``WrwMove`` for the weighted walk."""
    return {target: p for p, target, _, _ in _law(kind, graph)(graph, state)}


def _branches(kind, graph, state) -> tuple:
    """The one-step law from ``state`` as ``(p, next state, vertex)``
    triples, one per target of ``step_distribution``; ``_propagate`` sums
    the triples that lead to the same successor."""
    return tuple((p, nxt, v) for p, _, nxt, v in _law(kind, graph)(graph, state))


def _law(kind, graph):
    """The body of ``kind``'s one-step law on ``graph``: from a state it
    gives ``(p, target, next state, vertex)`` for each target."""
    kind, mg = _require_kind_graph(kind, graph)
    # srw runs only on a plain graph and wrw only on a multigraph
    if mg:
        return _wrw_law if kind is WalkKind.WRW else _nbrw_edge_law
    return _srw_law if kind is WalkKind.SRW else _nbrw_law


def _srw_law(graph, v):
    nbrs = graph.neighbors(v)
    if not nbrs:
        raise NoLegalMove(f"vertex {v!r} is isolated")
    p = Fraction(1, len(nbrs))
    return [(p, w, w, w) for w in nbrs]


def _nbrw_law(graph, state):
    prev, cur = _nbrw_state(state)
    if prev is None:
        return [(p, w, (cur, w), w) for p, w, _, _ in _srw_law(graph, cur)]
    nbrs = graph.neighbors(cur)
    if prev not in nbrs:
        raise InvalidState(f"{prev!r} is not adjacent to {cur!r}")
    if len(nbrs) < 2:
        raise NoLegalMove(f"vertex {cur!r} has degree 1, only move is back")
    p = Fraction(1, len(nbrs) - 1)
    return [(p, w, (cur, w), w) for w in nbrs if w != prev]


def _nbrw_edge_law(mg, state):
    # the arriving half-edge is excluded; a first step, from (None, v), excludes nothing
    if isinstance(state, HalfEdgeState):
        v, excluded = mg.endpoint(state.edge_id, state.head_end), 1
    else:
        (prev, v), excluded = _nbrw_state(state), 0
        if prev is not None:
            raise InvalidInput("multigraph nbrw history is a HalfEdgeState")
    half = mg.half_edges(v)
    if len(half) <= excluded:
        raise NoLegalMove(f"vertex {v!r} has multigraph degree 1" if excluded else f"vertex {v!r} is isolated")
    p = Fraction(1, len(half) - excluded)
    targets = [HalfEdgeState(eid, 1 - end) for eid, end in half if (eid, end) != state]
    return [(p, t, t, mg.endpoint(*t)) for t in targets]


def _wrw_law(mg, v):
    half = mg.half_edges(v)
    if not half:
        raise NoLegalMove(f"vertex {v!r} is isolated")
    m = len(half)
    law = []
    for eid, end in half:
        r = mg.edge(eid).resistance
        w = mg.endpoint(eid, 1 - end)
        law.append((Fraction(1, r * m), WrwMove(eid, 1 - end, False), w, w))
        if r > 1:
            w = mg.endpoint(eid, end)
            law.append((Fraction(r - 1, r * m), WrwMove(eid, end, True), w, w))
    return law


def _nbrw_state(state):
    if isinstance(state, tuple) and len(state) == 2:
        return state
    raise InvalidInput("non-backtracking state is a (prev, current) pair")


def _check_horizon(n, least: int = 0) -> int:
    """``n`` as an int; refuses a horizon that is not an integer of at
    least ``least``, or one above the exhaustive-search guard."""
    if not is_int(n) or n < least:
        raise InvalidInput(f"horizon must be an integer >= {least}")
    if n > MAX_ENUMERATION_HORIZON:
        raise LimitExceeded(f"horizon {n} exceeds the enumeration guard {MAX_ENUMERATION_HORIZON}")
    return int(n)


def _propagate(law, start, record, n: int, extend, view=None, state_of=None) -> tuple:
    """Exact law of the record, or of ``view(record)`` when a view is
    given, after n steps of a chain from ``start``, as ``(weights, den)``:
    an int weight per outcome, in the order each first appears, over one
    denominator.  No Fraction is built; callers build them where a law is
    read.

    ``law(state)`` gives ``(p, next state, label)`` triples, as
    ``_branches`` does; it is called once per state, and its triples with
    the same next state and label are summed then.  ``extend(record,
    label)`` is the record after one step, and when ``state_of`` is given,
    the next state is ``state_of`` of that record, not the triple's: a
    chain whose step depends on more than its state, such as an erasure
    stack's pop, names it so.  The law of ``(state, record)``
    pairs is carried forward one level per step and equal pairs are
    summed, so paths whose futures cannot differ are expanded once.  This
    is the only place a law is merged.  A level whose pairs could number
    more than ``MAX_LEVEL_STATES`` before merging raises ``LimitExceeded``
    before it is built.  The denominator is a running product: each level
    multiplies it by the lcm of its states' denominators."""
    laws: dict = {}
    level = {(start, record): 1}
    den = 1
    for _ in range(n):
        states = Counter(map(itemgetter(0), level))
        for state in states:
            if state not in laws:
                merged = laws[state] = {}
                for p, nxt, label in law(state):
                    merged[nxt, label] = merged.get((nxt, label), 0) + p
        bound = sum(c * len(laws[s]) for s, c in states.items())
        if bound > MAX_LEVEL_STATES:
            raise LimitExceeded(f"a level of up to {bound} states exceeds the state budget {MAX_LEVEL_STATES}")
        lcm = math.lcm(*{p.denominator for s in states for p in laws[s].values()})
        scaled = {s: [(p.numerator * (lcm // p.denominator), succ) for succ, p in laws[s].items()] for s in states}
        nxt_level: dict = {}
        for (state, rec), w in level.items():
            for num, (nxt, label) in scaled[state]:
                after = extend(rec, label)
                key = (nxt if state_of is None else state_of(after), after)
                old = nxt_level.get(key)
                nxt_level[key] = w * num if old is None else old + w * num
        level = nxt_level
        den *= lcm
    out: dict = {}
    for (_, rec), w in level.items():
        y = rec if view is None else view(rec)
        old = out.get(y)
        out[y] = w if old is None else old + w
    return out, den


def enumerate_prefix_distribution(kind, graph, start, m: int) -> PrefixDistribution:
    """Exact rational law of the first m+1 vertices, by propagating the
    kernel's law over vertex paths.  Horizons above 14 are refused."""
    m = _check_horizon(m)
    kind, _ = _require_kind_graph(kind, graph)
    weights, den = _propagate(
        partial(_branches, kind, graph),
        (None, start) if kind is WalkKind.NBRW else start,
        (start,),
        m,
        lambda path, v: path + (v,),
    )
    return PrefixDistribution._from_weights(m, weights, 0, den)
