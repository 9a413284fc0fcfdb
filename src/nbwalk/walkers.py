"""Transition kernels, samplers, and the exact finite-horizon enumeration
oracle for the three walk types.

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

Samplers draw integers from a caller-supplied ``numpy.random.Generator``,
and ``wrw_step`` one float as well; the enumeration oracle uses exact rationals.
On a finite graph whose vertices all have one degree, ``_move_table``
tabulates a sampler's move under each draw, so that ``stats.monte_carlo``
runs srw, nbrw and wrw without calling the sampler per step.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import InsufficientData, InvalidInput, InvalidState, LimitExceeded, NoLegalMove, is_int
from .graph import ExplicitGraph, Graph, Lattice, WeightedMultigraph

MAX_ENUMERATION_HORIZON = 14
# the most (state, record) pairs an exact law may carry into one level before
# equal pairs merge; path records never merge (Z^2 SRW paths pass it at horizon 11)
MAX_LEVEL_STATES = 1 << 21

_ZERO = Fraction(0)


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


@dataclass(frozen=True)
class PrefixDistribution:
    """Exact distribution over fixed-length vertex-sequence prefixes.

    ``entries`` maps length-(horizon+1) tuples to positive rationals;
    ``short_mass`` absorbs outcomes that never reached the full length.
    Together they always sum to exactly 1.
    """

    horizon: int
    entries: dict
    short_mass: Fraction = _ZERO

    def __post_init__(self):
        ent = {}
        for seq, p in self.entries.items():
            p = p if isinstance(p, Fraction) else Fraction(p)
            if p.numerator < 0:
                raise InvalidInput("negative probability")
            if not p.numerator:
                continue
            if not isinstance(seq, tuple) or len(seq) != self.horizon + 1:
                raise InvalidInput("prefix length does not match horizon")
            ent[seq] = p
        short = self.short_mass if isinstance(self.short_mass, Fraction) else Fraction(self.short_mass)
        if short.numerator < 0:
            raise InvalidInput("negative short mass")
        # the exact test sum == 1, in integers over the lcm of the denominators
        den = math.lcm(short.denominator, *{p.denominator for p in ent.values()})
        total = sum(p.numerator * (den // p.denominator) for p in ent.values())
        if total + short.numerator * (den // short.denominator) != den:
            raise InvalidInput("probabilities must sum to exactly 1")
        object.__setattr__(self, "entries", ent)
        object.__setattr__(self, "short_mass", short)

    def prob(self, seq) -> Fraction:
        return self.entries.get(tuple(seq), _ZERO)

    def marginalized(self, m: int) -> "PrefixDistribution":
        """Project to a smaller horizon by truncating every entry."""
        if not 0 <= m <= self.horizon:
            raise InvalidInput(f"cannot marginalize horizon {self.horizon} to {m}")
        out: dict = {}
        for seq, p in self.entries.items():
            k = seq[: m + 1]
            out[k] = out.get(k, _ZERO) + p
        return PrefixDistribution(m, out, self.short_mass)

    def conditioned(self) -> "PrefixDistribution":
        """The law given that a full-length prefix was produced."""
        if self.short_mass == 1:
            raise InsufficientData("no full-length mass to condition on")
        if self.short_mass == 0:
            return self
        z = 1 - self.short_mass
        return PrefixDistribution(self.horizon, {s: p / z for s, p in self.entries.items()})


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


def wrw_step(mg: WeightedMultigraph, current, rng) -> WrwMove:
    """Weighted-walk step: pick a half-edge at ``current`` uniformly, then
    cross it with probability equal to its conductance (1/resistance),
    otherwise stay put and report the bounce."""
    half = mg.half_edges(current)
    if not half:
        raise NoLegalMove(f"vertex {current!r} is isolated")
    eid, end = half[int(rng.integers(len(half)))]
    r = mg.edge(eid).resistance
    if r == 1 or rng.random() * r < 1.0:
        return WrwMove(eid, 1 - end, False)
    return WrwMove(eid, end, True)


def _check_start(graph, start):
    """``start``, once looking it up has shown that ``graph`` has it."""
    (graph.half_edges if isinstance(graph, WeightedMultigraph) else graph.neighbors)(start)
    return start


def _require_kind_graph(kind: WalkKind, graph):
    mg = isinstance(graph, WeightedMultigraph)
    if kind is WalkKind.SRW and mg:
        raise InvalidInput("srw runs on a plain graph, not a multigraph")
    if kind is WalkKind.WRW and not mg:
        raise InvalidInput("wrw needs a weighted multigraph")
    if not mg and not isinstance(graph, Graph):
        raise InvalidInput(f"not a graph: {graph!r}")
    return mg


class _Draws:
    """The scalar draws of a PCG64 ``numpy.random.Generator``, made from its
    raw 64-bit outputs read ``block`` at a time.  ``integers(k)`` and
    ``random()`` return what ``rng.integers(k)`` and ``rng.random()`` would,
    by numpy's rule: ``integers`` takes 32-bit halves, low half first, and
    keeps the spare high half across calls, ``random()`` included; it maps
    a half x to ``x * k >> 32`` and draws again while the low 32 bits of
    ``x * k`` fall below ``2**32 % k`` (Lemire's method), and draws
    nothing when k is 1.  ``random()`` takes a whole word w as
    ``(w >> 11) * 2**-53``.  ``close()`` leaves the generator in the state
    those scalar calls would have left; until then it is ahead of it."""

    def __init__(self, rng, block: int):
        self._bg = rng.bit_generator
        state = self._bg.state
        self._has = state["has_uint32"]
        self._spare = state["uinteger"]
        self._block = block
        self._words = []
        self._used = 0

    def _word(self) -> int:
        i = self._used
        if i == len(self._words):
            self._words = self._bg.random_raw(self._block).tolist()
            i = 0
        self._used = i + 1
        return self._words[i]

    def integers(self, k: int) -> int:
        if k == 1:
            return 0
        while True:
            if self._has:
                self._has = 0
                x = self._spare
            else:
                w = self._word()
                self._has = 1
                self._spare = w >> 32
                x = w & 0xFFFFFFFF
            m = x * k
            low = m & 0xFFFFFFFF
            if low >= k or low >= 0x100000000 % k:
                return m >> 32

    def random(self) -> float:
        return (self._word() >> 11) * (1.0 / 9007199254740992.0)

    def close(self):
        _hand_back(self._bg, len(self._words) - self._used, self._has, self._spare)


def _hand_back(bg, unread: int, has, spare):
    """Put the PCG64 bit generator ``bg`` where scalar draws would leave
    it: back over the ``unread`` raw words read ahead, with the spare half
    flag ``has`` and the half ``spare``."""
    # PCG64 has period 2**128, and advance() takes any delta below it
    bg.advance(-unread % (1 << 128))
    # advance() clears the spare half; numpy keeps the last one even
    # when it is used up, so both fields are put back
    state = bg.state
    state["has_uint32"] = has
    state["uinteger"] = spare
    bg.state = state


def _decode_words(words, k: int):
    """``_Draws``'s rule on an array of raw words, with numpy: the draw of
    ``integers(k)`` from each word's low half and from its high half, -1
    where Lemire's method rejects the half, and each word read as
    ``random()``."""
    halves = []
    for x in (words & 0xFFFFFFFF, words >> 32):
        m = x * k
        halves.append(np.where((m & 0xFFFFFFFF) < (1 << 32) % k, -1, (m >> 32).view(np.int64)).tolist())
    return (*halves, ((words >> 11) * (1.0 / 9007199254740992.0)).tolist())


class _Trusted:
    """A graph seen through its unchecked neighbor lookup, ``_adjacent``
    where the graph has one: a walk from a checked start only meets keys
    that the graph's own lookups built."""

    __slots__ = ("neighbors",)

    def __init__(self, graph):
        self.neighbors = getattr(graph, "_adjacent", graph.neighbors)


# the cap on draws made at once, which bounds their memory: raw words
# per _Draws block (an integer draw takes half a word, so n // 2 + 1
# words serve most n-step walks whole) and steps per bulk draw in
# stats._table_run
_BLOCK = 1 << 12


def _walk(kind, graph, start, n: int, rng):
    """Yield the vertices at steps 1..n of one walk from ``start``, each
    step drawn by the sampler for ``kind``.  The first non-backtracking
    step has no history and uses the uniform rule.

    The start is the only key checked; later steps look up neighbors
    without a check.  On a PCG64 generator the draws come from ``_Draws``,
    and the generator reaches the state the scalar calls would leave when
    the walk ends, is closed or raises; do not draw from ``rng`` while the
    walk is open."""
    kind = WalkKind(kind)
    mg = _require_kind_graph(kind, graph)
    if n < 1:
        return
    if not mg:
        graph.neighbors(start)
        graph = _Trusted(graph)
    if type(getattr(rng, "bit_generator", None)) is np.random.PCG64:
        rng = draws = _Draws(rng, min(n // 2 + 1, _BLOCK))
    else:
        draws = None
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
        if draws is not None:
            draws.close()


class _Fixed(int):
    """A generator stand-in whose every integer draw is itself and whose
    every float draw is ``u``: under 0.0 a weighted step crosses, under
    1.0 it bounces wherever the resistance is above 1."""

    def __new__(cls, d, u=0.0):
        self = super().__new__(cls, d)
        self.u = u
        return self

    def integers(self, k):
        return self

    def random(self):
        return self.u


def _move_table(kind, graph, start, budget: int):
    """The moves of a walk from ``start`` on a finite graph where every
    state has the same draw bound, as ``(first, rows, home)`` over
    numbered states: draw d takes the first step to ``first[d]`` and
    state s to ``rows[s][d]``, and ``home[s]`` is whether s sits at
    ``start``.  Each entry is the sampler's move on draw d: a state for
    srw and nbrw, and for wrw ``(crossed, bounced, resistance)``, the
    states after a float draw of 0.0 and of 1.0.  None on a lattice or a
    tree, on a graph whose degrees differ, for a bound below 1 and for
    more than ``budget`` entries."""
    mg = isinstance(graph, WeightedMultigraph)
    if not (mg or isinstance(graph, ExplicitGraph)):
        return None
    degree = graph.mdegree if mg else graph.degree
    k = degree(start)
    nbrw = kind is WalkKind.NBRW
    bound = k - 1 if nbrw else k
    vertices = graph.vertices()
    # a state is a vertex for srw and wrw and a dart, one per half-edge, for nbrw
    if bound < 1 or len(vertices) * (k if nbrw else 1) * bound > budget or any(degree(v) != k for v in vertices):
        return None
    if not nbrw:
        states, vertex, first = vertices, lambda s: s, start
        step = partial(wrw_step if mg else srw_step, graph)
    elif mg:
        states = [HalfEdgeState(e.edge_id, end) for e in graph.edges() for end in (0, 1)]
        vertex, step, first = lambda s: graph.endpoint(*s), partial(nbrw_step_edge, graph), (None, start)
    else:
        states = [(v, w) for v in vertices for w in graph.neighbors(v)]
        vertex, step, first = itemgetter(1), lambda s, rng: (s[1], nbrw_step(graph, *s, rng)), (None, start)
    index = {s: i for i, s in enumerate(states)}

    def move(s, d):
        if kind is not WalkKind.WRW:
            return index[step(s, _Fixed(d))]
        crossed, bounced = (step(s, _Fixed(d, u)) for u in (0.0, 1.0))
        ends = (index[graph.endpoint(m.edge_id, m.head_end)] for m in (crossed, bounced))
        return (*ends, graph.edge(crossed.edge_id).resistance)

    first_row = [move(first, d) for d in range(k)]
    rows = [[move(s, d) for d in range(bound)] for s in states]
    return first_row, rows, np.array([vertex(s) == start for s in states])


def sample_path(kind, graph, start, n: int, rng) -> tuple:
    """Length-(n+1) vertex sequence started at ``start``; each step drawn
    from the kernel for ``kind``.  The first non-backtracking step uses
    the uniform rule.  Where ``_on_lattice_kernel`` holds, the path is
    drawn in bulk by ``_lattice_offsets``, with the scalar samplers' draws
    and end state.  A 0-step path is ``(start,)``, with the start unchecked."""
    if not is_int(n) or n < 0:
        raise InvalidInput("path length must be a nonnegative integer")
    kind, n = WalkKind(kind), int(n)
    if not n or not _on_lattice_kernel(kind, graph, start):
        return (start, *_walk(kind, graph, start, n, rng))
    path = [start]
    carry = graph.coordinates(start)
    for offsets in _lattice_offsets(kind, graph, n, rng):
        columns = []
        for c, off in zip(carry, offsets):
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


# steps per chunk of the array kernels
_CHUNK = 1 << 15


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
    ``_CHUNK`` steps, each chunk as one int32 array per axis of the
    offsets from the chunk's start.  Direction 2a is
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
    # row a: the change of axis a under each direction
    axis_steps = np.kron(np.eye(d, dtype=np.int32), np.array([1, -1], dtype=np.int32))
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
            dirs = np.repeat(dirs, pitch)[:m]
        # offsets are at most m <= _CHUNK = 2^15 in size, so they fit in int32
        yield [np.cumsum(axis_steps[a][dirs], dtype=np.int32) for a in range(d)]


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
    kind = WalkKind(kind)
    # srw runs only on a plain graph and wrw only on a multigraph
    if _require_kind_graph(kind, graph):
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


def _propagate(law, start, record, n: int, extend, view=None) -> dict:
    """Exact law of the record, or of ``view(record)`` when a view is
    given, after n steps of a chain from ``start``.

    ``law(state)`` gives ``(p, next state, label)`` triples, as
    ``_branches`` does; it is called once per state, and its triples with
    the same next state and label are summed then.  ``extend(record,
    label)`` is the record after one step.  The law of ``(state, record)``
    pairs is carried forward one level per step and equal pairs are
    summed, so paths whose futures cannot differ are expanded once.  This
    is the only place a law is merged.  A level whose pairs could number
    more than ``MAX_LEVEL_STATES`` before merging raises ``LimitExceeded``
    before it is built.  Weights are ints over one running
    denominator, which each level multiplies by the lcm of its states'
    denominators; a Fraction is built only for each output."""
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
                key = (nxt, extend(rec, label))
                old = nxt_level.get(key)
                nxt_level[key] = w * num if old is None else old + w * num
        level = nxt_level
        den *= lcm
    out: dict = {}
    for (_, rec), w in level.items():
        y = rec if view is None else view(rec)
        old = out.get(y)
        out[y] = w if old is None else old + w
    return {y: Fraction(w, den) for y, w in out.items()}


def enumerate_prefix_distribution(kind, graph, start, m: int) -> PrefixDistribution:
    """Exact rational law of the first m+1 vertices, by propagating the
    kernel's law over vertex paths.  Horizons above 14 are refused."""
    m = _check_horizon(m)
    kind = WalkKind(kind)
    _require_kind_graph(kind, graph)
    entries = _propagate(
        partial(_branches, kind, graph),
        (None, start) if kind is WalkKind.NBRW else start,
        (start,),
        m,
        lambda path, v: path + (v,),
    )
    return PrefixDistribution(m, entries)
