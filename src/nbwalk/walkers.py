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

Samplers use double precision draws from a caller-supplied
``numpy.random.Generator``; the enumeration oracle uses exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidInput, InvalidState, LimitExceeded, NoLegalMove
from .graph import Graph, WeightedMultigraph

MAX_ENUMERATION_HORIZON = 14

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
            p = Fraction(p)
            if p < 0:
                raise InvalidInput("negative probability")
            if p == 0:
                continue
            if not isinstance(seq, tuple) or len(seq) != self.horizon + 1:
                raise InvalidInput("prefix length does not match horizon")
            ent[seq] = p
        short = Fraction(self.short_mass)
        if short < 0:
            raise InvalidInput("negative short mass")
        if sum(ent.values(), short) != 1:
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
            raise InvalidInput("no full-length mass to condition on")
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
    """Uniform choice among neighbors of ``current`` other than ``prev``."""
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
    may be re-traversed in the same direction."""
    v = mg.endpoint(arrival.edge_id, arrival.head_end)
    half = mg.half_edges(v)
    if len(half) < 2:
        raise NoLegalMove(f"vertex {v!r} has multigraph degree 1")
    forbidden = half.index((arrival.edge_id, arrival.head_end))
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


def _first_half_edge(mg: WeightedMultigraph, v, rng) -> HalfEdgeState:
    """First edge-based non-backtracking step: with no arriving edge to
    exclude, a uniform half-edge at ``v``."""
    half = mg.half_edges(v)
    if not half:
        raise NoLegalMove(f"vertex {v!r} is isolated")
    eid, end = half[int(rng.integers(len(half)))]
    return HalfEdgeState(eid, 1 - end)


def _require_kind_graph(kind: WalkKind, graph):
    mg = isinstance(graph, WeightedMultigraph)
    if kind is WalkKind.SRW and mg:
        raise InvalidInput("srw runs on a plain graph, not a multigraph")
    if kind is WalkKind.WRW and not mg:
        raise InvalidInput("wrw needs a weighted multigraph")
    if not mg and not isinstance(graph, Graph):
        raise InvalidInput(f"not a graph: {graph!r}")
    return mg


def _walk(kind, graph, start, n: int, rng):
    """Yield the vertices at steps 1..n of one walk from ``start``, each
    step drawn by the sampler for ``kind``.  The first non-backtracking
    step has no history and uses the uniform rule."""
    kind = WalkKind(kind)
    mg = _require_kind_graph(kind, graph)
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
            state = None
            for i in range(1, n + 1):
                if state is None:
                    state = _first_half_edge(graph, start, rng)
                else:
                    state = nbrw_step_edge(graph, state, rng)
                yield graph.endpoint(state.edge_id, state.head_end)
        else:
            prev, cur = None, start
            for i in range(1, n + 1):
                nxt = srw_step(graph, cur, rng) if prev is None else nbrw_step(graph, prev, cur, rng)
                prev, cur = cur, nxt
                yield cur
    except NoLegalMove as exc:
        raise NoLegalMove(f"step {i}: {exc}") from None


def sample_path(kind, graph, start, n: int, rng) -> tuple:
    """Length-(n+1) vertex sequence started at ``start``; each step drawn
    from the kernel for ``kind``.  The first non-backtracking step uses
    the uniform rule."""
    if not isinstance(n, int) or n < 0:
        raise InvalidInput("path length must be a nonnegative integer")
    return (start, *_walk(kind, graph, start, n, rng))


def step_distribution(kind, graph, state) -> dict:
    """Exact one-step law as a map from targets to rationals.

    States: a vertex for srw and wrw; a ``(prev, current)`` pair for the
    vertex-based non-backtracking walk (prev may be None for the first
    step); a ``HalfEdgeState`` or ``(None, vertex)`` on a multigraph.
    Targets are vertices for the vertex walks, ``HalfEdgeState`` for the
    edge walk, and ``WrwMove`` for the weighted walk."""
    kind = WalkKind(kind)
    mg = _require_kind_graph(kind, graph)

    if kind is WalkKind.SRW:
        nbrs = graph.neighbors(state)
        if not nbrs:
            raise NoLegalMove(f"vertex {state!r} is isolated")
        p = Fraction(1, len(nbrs))
        return {w: p for w in nbrs}

    if kind is WalkKind.WRW:
        half = graph.half_edges(state)
        if not half:
            raise NoLegalMove(f"vertex {state!r} is isolated")
        m = len(half)
        law = {}
        for eid, end in half:
            r = graph.edge(eid).resistance
            law[WrwMove(eid, 1 - end, False)] = Fraction(1, r * m)
            if r > 1:
                law[WrwMove(eid, end, True)] = Fraction(r - 1, r * m)
        return law

    if mg:
        if isinstance(state, HalfEdgeState):
            v = graph.endpoint(state.edge_id, state.head_end)
            half = graph.half_edges(v)
            if len(half) < 2:
                raise NoLegalMove(f"vertex {v!r} has multigraph degree 1")
            p = Fraction(1, len(half) - 1)
            return {
                HalfEdgeState(eid, 1 - end): p
                for eid, end in half
                if (eid, end) != (state.edge_id, state.head_end)
            }
        prev, v = _nbrw_state(state)
        if prev is not None:
            raise InvalidInput("multigraph nbrw history is a HalfEdgeState")
        half = graph.half_edges(v)
        if not half:
            raise NoLegalMove(f"vertex {v!r} is isolated")
        p = Fraction(1, len(half))
        return {HalfEdgeState(eid, 1 - end): p for eid, end in half}

    prev, cur = _nbrw_state(state)
    if prev is None:
        return step_distribution(WalkKind.SRW, graph, cur)
    nbrs = graph.neighbors(cur)
    if prev not in nbrs:
        raise InvalidState(f"{prev!r} is not adjacent to {cur!r}")
    if len(nbrs) < 2:
        raise NoLegalMove(f"vertex {cur!r} has degree 1, only move is back")
    p = Fraction(1, len(nbrs) - 1)
    return {w: p for w in nbrs if w != prev}


def _nbrw_state(state):
    if isinstance(state, tuple) and len(state) == 2:
        return state
    raise InvalidInput("non-backtracking state is a (prev, current) pair")


def _branches(kind, graph, state) -> tuple:
    """The one-step law from ``state`` as ``(p, successors)`` groups, where
    each successor is a ``(next state, vertex)`` pair reached with
    probability p.  Targets that lead to the same successor are merged
    first; for the weighted walk, moves that land on the same vertex."""
    merged: dict = {}
    for target, p in step_distribution(kind, graph, state).items():
        if kind is WalkKind.WRW:
            v = graph.endpoint(target.edge_id, target.head_end)
            succ = (v, v)
        elif isinstance(target, HalfEdgeState):
            succ = (target, graph.endpoint(target.edge_id, target.head_end))
        elif kind is WalkKind.NBRW:
            succ = ((state[1], target), target)
        else:
            succ = (target, target)
        merged[succ] = merged.get(succ, _ZERO) + p
    groups: dict = {}
    for succ, p in merged.items():
        groups.setdefault(p, []).append(succ)
    return tuple(groups.items())


def _expand(kind, graph, start, n: int, visit):
    """Depth-first expansion of every n-step walk of ``kind`` from
    ``start`` under the exact law of ``step_distribution``.  Calls
    ``visit(path, prob)`` at each leaf; ``path`` is a list of n+1
    vertices that the expander reuses, so a visitor copies what it keeps.
    Distinct states can share a vertex path (parallel edges under the
    edge walk), so visitors sum rather than assign."""
    kind = WalkKind(kind)
    _require_kind_graph(kind, graph)
    laws: dict = {}
    path = [start]

    def rec(state, prob):
        if len(path) > n:
            visit(path, prob)
            return
        groups = laws.get(state)
        if groups is None:
            groups = laws[state] = _branches(kind, graph, state)
        for p, successors in groups:
            q = prob * p
            for nxt, v in successors:
                path.append(v)
                rec(nxt, q)
                path.pop()

    rec((None, start) if kind is WalkKind.NBRW else start, _ONE)


def enumerate_prefix_distribution(kind, graph, start, m: int) -> PrefixDistribution:
    """Exact rational law of the first m+1 vertices, by depth-first
    expansion of the kernel.  Horizons above 14 are refused."""
    if not isinstance(m, int) or m < 0:
        raise InvalidInput("horizon must be a nonnegative integer")
    if m > MAX_ENUMERATION_HORIZON:
        raise LimitExceeded(f"horizon {m} exceeds the enumeration guard {MAX_ENUMERATION_HORIZON}")
    entries: dict = {}

    def visit(path, prob):
        seq = tuple(path)
        entries[seq] = entries.get(seq, _ZERO) + prob

    _expand(kind, graph, start, m, visit)
    return PrefixDistribution(m, entries)
