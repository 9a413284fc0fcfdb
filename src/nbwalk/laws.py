"""The four walk kinds and their exact laws: simple, non-backtracking on
vertices and on multigraph edges, and weighted.

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

Each kind has a sampler, one bounded ``rng.integers`` draw per step, and
an exact one-step law in rationals, which ``_propagate`` carries over n
steps for the prefix law here and for the oracles of ``erasure``,
``contraction`` and ``birthdeath``.  No numpy is imported here; the
Monte Carlo kernels are in ``walkers``.
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

from .errors import InsufficientData, InvalidInput, InvalidState, LimitExceeded, NoLegalMove, is_int
from .graph import Graph, WeightedMultigraph

# the most an exact law may charge: each (state, record) pair of level k,
# counted before equal pairs merge, costs k, about the entries of its
# record (Z^2 SRW paths pass it at horizon 11)
MAX_STATES = 1 << 24


class WalkKind(str, Enum):
    SRW = "srw"
    NBRW = "nbrw"
    WRW = "wrw"

    @classmethod
    def _missing_(cls, value):
        raise InvalidInput(f"unknown walk kind {value!r}")


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


def total_variation(p: PrefixDistribution, q: PrefixDistribution) -> Fraction:
    """Half the L1 gap between two prefix laws on the same horizon, with
    the short-output masses compared as one extra outcome."""
    if p.horizon != q.horizon:
        raise InvalidInput(f"horizon mismatch: {p.horizon} vs {q.horizon}")
    # |p - q| summed in integers, each law's weights rescaled to the lcm of
    # both denominators; a prefix only q has adds its whole weight
    den = math.lcm(p.den, q.den)
    a, b, qw = den // p.den, den // q.den, q.weights
    acc = abs(p.short * a - q.short * b) + sum(abs(w * a - qw.get(k, 0) * b) for k, w in p.weights.items())
    acc += b * sum(w for k, w in qw.items() if k not in p.weights)
    return Fraction(acc, 2 * den)

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


# the largest bound that numpy draws from one 32-bit output, as walkers._Draws does
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
    least ``least``."""
    if not is_int(n) or n < least:
        raise InvalidInput(f"horizon must be an integer >= {least}")
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
    is the only place a law is merged.  A pair of level k is charged k, as
    records and weights grow about one entry a step, a vertex key counted
    as one, and a level that would take the law's charge over
    ``MAX_STATES`` raises ``LimitExceeded`` before it is built, so the one
    budget bounds a law's time as well as its memory.  The denominator is
    a running product: each level multiplies it by the lcm of its states'
    denominators."""
    laws: dict = {}
    level = {(start, record): 1}
    den, spent = 1, 0
    for k in range(1, n + 1):
        states = Counter(map(itemgetter(0), level))
        for state in states:
            if state not in laws:
                merged = laws[state] = {}
                for p, nxt, label in law(state):
                    merged[nxt, label] = merged.get((nxt, label), 0) + p
        spent += k * sum(c * len(laws[s]) for s, c in states.items())
        if spent > MAX_STATES:
            raise LimitExceeded(f"a law charged at least {spent} exceeds the state budget {MAX_STATES}")
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
    kernel's law over vertex paths.  The start is looked up when a step
    is taken, as ``sample_path`` does."""
    m = _check_horizon(m)
    kind, _ = _require_kind_graph(kind, graph)
    if m:
        _check_start(graph, start)
    weights, den = _propagate(
        partial(_branches, kind, graph),
        (None, start) if kind is WalkKind.NBRW else start,
        (start,),
        m,
        lambda path, v: path + (v,),
    )
    return PrefixDistribution._from_weights(m, weights, 0, den)
