"""Degree-2 corridor suppression.

A corridor is a maximal run of degree-2 vertices joining two anchors
(vertices of degree other than 2).  Contracting a finite graph keeps only
the anchors and turns every corridor into one multigraph edge whose
resistance equals the corridor's edge count; parallel corridors become
parallel edges and a corridor from an anchor back to itself becomes a
self-loop.  Observing a walk only when it visits anchors induces a walk
on the contracted multigraph; the exact laws of those induced walks are
computed here for comparison against the multigraph kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import InvalidInput, UnsupportedGraph, UnsupportedStructure
from .graph import ExplicitGraph, WeightedMultigraph, sort_token
from .laws import PrefixDistribution, WalkKind, _branches, _check_horizon, _check_start, _propagate


@dataclass(frozen=True)
class Corridor:
    """Maximal degree-2 run between anchors ``a`` and ``b`` (possibly
    equal); ``interior`` lists the degree-2 vertices in order from a to b."""

    a: object
    b: object
    interior: tuple

    @property
    def length(self) -> int:
        return len(self.interior) + 1


@dataclass(frozen=True)
class ContractionMap:
    """Bookkeeping tying a graph to its contraction.

    ``corridors[i]`` is the corridor behind multigraph edge id i;
    ``anchors`` is the set of vertices kept by the contraction;
    ``entrances`` sends (anchor, first step) to the (corridor id, end)
    engaged by leaving the anchor that way."""

    corridors: tuple
    anchors: frozenset
    entrances: dict

    @property
    def max_length(self) -> int:
        return max(c.length for c in self.corridors)


def find_corridors(g: ExplicitGraph) -> list:
    """All maximal corridors of a finite connected graph with minimum
    degree 2 and at least one anchor, sorted by endpoints so ids are
    stable across runs.  Anchors and neighbors are read in key order and
    each walk marks its far entrance, so a corridor is walked once, from
    its least anchor (a loop from the lesser of its first steps)."""
    if not isinstance(g, ExplicitGraph):
        raise UnsupportedGraph("corridor discovery needs an explicit finite graph")
    verts = g.vertices()
    for v in verts:
        if g.degree(v) < 2:
            raise UnsupportedStructure(f"vertex {v!r} has degree < 2")
    if not g.is_connected():
        raise UnsupportedStructure("graph is not connected")
    anchors = {v for v in verts if g.degree(v) != 2}
    if not anchors:
        raise UnsupportedStructure("every vertex has degree 2: a cycle with no anchor")
    corridors, walked = [], set()
    for a in sorted(anchors, key=sort_token):
        for first in g.neighbors(a):
            if (a, first) in walked:
                continue
            prev, cur = a, first
            interior = []
            while cur not in anchors:
                interior.append(cur)
                n1, n2 = g.neighbors(cur)
                prev, cur = cur, (n2 if n1 == prev else n1)
            walked.add((cur, prev))
            corridors.append(Corridor(a, cur, tuple(interior)))
    return sorted(corridors, key=lambda c: sort_token((c.a, c.b, c.interior)))


def contract(g: ExplicitGraph):
    """Contract ``g`` onto its anchors.  Returns the weighted multigraph
    (one edge per corridor, resistance = corridor length) and the map
    tying the two representations together."""
    corridors = tuple(find_corridors(g))
    # every anchor has degree 3 or more, so it ends a corridor
    anchors = frozenset(v for c in corridors for v in (c.a, c.b))
    mg = WeightedMultigraph(
        sorted(anchors, key=sort_token),
        [(c.a, c.b, c.length) for c in corridors],
    )
    entrances: dict = {}
    for idx, c in enumerate(corridors):
        first_from_a = c.interior[0] if c.interior else c.b
        first_from_b = c.interior[-1] if c.interior else c.a
        entrances[(c.a, first_from_a)] = (idx, 0)
        entrances[(c.b, first_from_b)] = (idx, 1)
    return mg, ContractionMap(corridors, anchors, entrances)


@dataclass(frozen=True)
class InducedWalk:
    """A walk observed only at anchor visits: the anchor subsequence plus,
    per observed step, the corridor id used and whether the walk bounced
    back out of it instead of crossing."""

    vertices: tuple
    traversals: tuple


def _crossing(cmap: ContractionMap, v, n) -> tuple:
    """The corridor that the step from anchor ``v`` to ``n`` enters: its id
    and its vertices from v to the far anchor.  Refuses a step that the
    map's entrances send into no corridor, or into one that does not start
    with v -> n, and a corridor whose far end is not an anchor."""
    eid, end = cmap.entrances.get((v, n), (-1, 0))
    if not 0 <= eid < len(cmap.corridors):
        raise InvalidInput(f"the step {v!r} -> {n!r} enters no corridor of the map")
    c = cmap.corridors[eid]
    path = (c.a, *c.interior, c.b)
    path = path[::-1] if end else path
    if path[:2] != (v, n):
        raise InvalidInput(f"corridor {eid} does not start with the step {v!r} -> {n!r}")
    if path[-1] not in cmap.anchors:
        raise InvalidInput(f"corridor {eid} leads to {path[-1]!r}, which is not an anchor")
    return eid, path


def induced_walk(path, cmap: ContractionMap) -> InducedWalk:
    """Filter ``path`` down to its anchor visits.  Each step is followed
    along the corridor it entered: back at the corridor's start is a
    bounce, recorded as a repeated anchor with the reflected flag set, and
    at its far end a crossing.  A step off the corridor is refused."""
    path = tuple(path)
    if not path or path[0] not in cmap.anchors:
        raise InvalidInput("induced walk must start at an anchor")
    verts = [path[0]]
    travs = []
    corridor = None
    for prev, x in zip(path, path[1:]):
        if corridor is None:
            eid, corridor = _crossing(cmap, prev, x)
            i = 1
        elif x == corridor[i + 1]:
            i += 1
        elif x == corridor[i - 1]:
            i -= 1
        else:
            raise InvalidInput(f"the step {prev!r} -> {x!r} leaves corridor {eid}")
        if i in (0, len(corridor) - 1):
            travs.append((eid, i == 0))
            verts.append(x)
            corridor = None
    return InducedWalk(tuple(verts), tuple(travs))


def _anchor_step_law(g: ExplicitGraph, cmap: ContractionMap, v) -> tuple:
    # one induced step of the uniform walk from anchor v: per corridor entrance,
    # a crossing to the far anchor and a bounce back to v, as state and label
    triples = []
    for share, n, _ in _branches(WalkKind.SRW, g, v):
        _, path = _crossing(cmap, v, n)
        far = path[-1]
        # gambler's ruin: a fair walk one step into a corridor of length
        # L reaches the far end before returning with probability 1/L
        x = Fraction(1, len(path) - 1)
        triples.append((share * x, far, far))
        if x != 1:
            triples.append((share * (1 - x), v, v))
    return tuple(triples)


def _nbrw_anchor_law(g: ExplicitGraph, cmap: ContractionMap, state) -> tuple:
    # one induced step of the non-backtracking walk from an anchor: leave
    # through the kernel's law, then take the corridor's only forward move
    # to its far anchor, so the next state is the corridor's last step
    triples = []
    for p, (v, n), _ in _branches(WalkKind.NBRW, g, state):
        _, path = _crossing(cmap, v, n)
        triples.append((p, path[-2:], path[-1]))
    return tuple(triples)


def induced_prefix_distribution(
    g: ExplicitGraph, kind, start, horizon: int, cmap: ContractionMap | None = None
) -> PrefixDistribution:
    """Exact law of the first horizon+1 anchor visits of a walk on ``g``,
    propagated over anchor sequences one anchor-to-anchor step at a time.

    The uniform walk composes per-anchor first-passage laws (a corridor
    of length L is crossed with the gambler's-ruin probability 1/L), so
    bounces inside long corridors are integrated out rather than
    enumerated.  The non-backtracking walk cannot turn around inside a
    corridor, so its step runs straight through to the next anchor."""
    kind = WalkKind(kind)
    if cmap is None:
        _, cmap = contract(g)
    if _check_start(g, start) not in cmap.anchors:
        raise InvalidInput("start must be an anchor")
    horizon = _check_horizon(horizon)
    if kind is WalkKind.SRW:
        law, state = partial(_anchor_step_law, g, cmap), start
    elif kind is WalkKind.NBRW:
        law, state = partial(_nbrw_anchor_law, g, cmap), (None, start)
    else:
        raise InvalidInput("induced laws are defined for srw and nbrw")
    weights, den = _propagate(law, state, (start,), horizon, lambda seq, v: seq + (v,))
    return PrefixDistribution._from_weights(horizon, weights, 0, den)
