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

from .errors import (
    InvalidInput,
    LimitExceeded,
    UnsupportedGraph,
    UnsupportedStructure,
)
from .graph import ExplicitGraph, WeightedMultigraph, sort_token
from .walkers import PrefixDistribution, WalkKind, _branches, _check_horizon, _propagate

_ZERO = Fraction(0)


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
    ``edge_of`` sends every original edge (as a sorted pair) to its
    corridor id; ``corridor_of`` sends every degree-2 vertex to its
    corridor id; ``entrances`` sends (anchor, first step) to the
    (corridor id, end) engaged by leaving the anchor that way."""

    corridors: tuple
    anchors: frozenset
    edge_of: dict
    corridor_of: dict
    entrances: dict

    @property
    def max_length(self) -> int:
        return max(c.length for c in self.corridors)


def _edge_pair(u, w):
    return (u, w) if sort_token(u) <= sort_token(w) else (w, u)


def _canonical_corridor(a, b, interior):
    if a == b:
        rev = tuple(reversed(interior))
        best = min(tuple(interior), rev, key=lambda seq: tuple(sort_token(x) for x in seq))
        return Corridor(a, b, best)
    if sort_token(b) < sort_token(a):
        return Corridor(b, a, tuple(reversed(interior)))
    return Corridor(a, b, tuple(interior))


def find_corridors(g: ExplicitGraph) -> list:
    """All maximal corridors of a finite connected graph with minimum
    degree 2 and at least one anchor, sorted by endpoints so ids are
    stable across runs."""
    if not isinstance(g, ExplicitGraph):
        raise UnsupportedGraph("corridor discovery needs an explicit finite graph")
    verts = g.vertices()
    if not verts:
        raise UnsupportedStructure("empty graph")
    for v in verts:
        if g.degree(v) < 2:
            raise UnsupportedStructure(f"vertex {v!r} has degree < 2")
    if not g.is_connected():
        raise UnsupportedStructure("graph is not connected")
    anchors = {v for v in verts if g.degree(v) != 2}
    if not anchors:
        raise UnsupportedStructure("every vertex has degree 2: a cycle with no anchor")
    found = {}
    for a in sorted(anchors, key=sort_token):
        for first in g.neighbors(a):
            prev, cur = a, first
            interior = []
            while cur not in anchors:
                interior.append(cur)
                n1, n2 = g.neighbors(cur)
                prev, cur = cur, (n2 if n1 == prev else n1)
            c = _canonical_corridor(a, cur, interior)
            found[(c.a, c.b, c.interior)] = c
    out = sorted(
        found.values(),
        key=lambda c: (sort_token(c.a), sort_token(c.b), tuple(sort_token(x) for x in c.interior)),
    )
    total = sum(c.length for c in out)
    edge_count = len(g.edges())
    if total != edge_count:
        raise UnsupportedStructure(
            f"corridors cover {total} edges but the graph has {edge_count}"
        )
    return out


def contract(g: ExplicitGraph):
    """Contract ``g`` onto its anchors.  Returns the weighted multigraph
    (one edge per corridor, resistance = corridor length) and the map
    tying the two representations together."""
    corridors = tuple(find_corridors(g))
    anchors = frozenset(v for v in g.vertices() if g.degree(v) != 2)
    mg = WeightedMultigraph(
        sorted(anchors, key=sort_token),
        [(c.a, c.b, c.length) for c in corridors],
    )
    edge_of: dict = {}
    corridor_of: dict = {}
    entrances: dict = {}
    for idx, c in enumerate(corridors):
        chain = (c.a, *c.interior, c.b)
        for u, w in zip(chain, chain[1:]):
            edge_of[_edge_pair(u, w)] = idx
        for x in c.interior:
            corridor_of[x] = idx
        first_from_a = c.interior[0] if c.interior else c.b
        first_from_b = c.interior[-1] if c.interior else c.a
        entrances[(c.a, first_from_a)] = (idx, 0)
        entrances[(c.b, first_from_b)] = (idx, 1)
    cmap = ContractionMap(corridors, anchors, edge_of, corridor_of, entrances)
    return mg, cmap


@dataclass(frozen=True)
class InducedWalk:
    """A walk observed only at anchor visits: the anchor subsequence plus,
    per observed step, the corridor id used and whether the walk bounced
    back out of it instead of crossing."""

    vertices: tuple
    traversals: tuple


def induced_walk(g: ExplicitGraph, path, cmap: ContractionMap) -> InducedWalk:
    """Filter ``path`` down to its anchor visits.  A step that enters a
    corridor and backs out the same way is recorded as a repeated anchor
    with the reflected flag set."""
    path = tuple(path)
    if not path or path[0] not in cmap.anchors:
        raise InvalidInput("induced walk must start at an anchor")
    verts = [path[0]]
    travs = []
    entry = None
    try:
        for j in range(1, len(path)):
            prev, x = path[j - 1], path[j]
            if prev in cmap.anchors:
                entry = cmap.entrances[(prev, x)]
            if x in cmap.anchors:
                eid, _ = entry
                back = cmap.entrances[(x, prev)]
                travs.append((eid, back == entry))
                verts.append(x)
    except KeyError:
        raise InvalidInput("path does not follow edges of the contracted graph") from None
    return InducedWalk(tuple(verts), tuple(travs))


def check_biregular_shape(mg: WeightedMultigraph, k1: int, k2: int) -> bool:
    """Alternating two-degree test on a multigraph: every vertex has
    multigraph degree k1 or k2 and every edge joins the two degree
    classes.  Self-loops fail; so does k1 <= k2."""
    if not (isinstance(k1, int) and isinstance(k2, int)) or not k1 > k2 >= 2:
        return False
    deg = {v: mg.mdegree(v) for v in mg.vertices()}
    if any(d not in (k1, k2) for d in deg.values()):
        return False
    for e in mg.edges():
        if e.a == e.b:
            return False
        if {deg[e.a], deg[e.b]} != {k1, k2}:
            return False
    return True


def _anchor_step_law(g: ExplicitGraph, cmap: ContractionMap, v) -> tuple:
    # one induced step of the uniform walk from anchor v, at vertex level,
    # as (p, successors) groups with the anchor as both state and label
    law: dict = {}
    nbrs = g.neighbors(v)
    share = Fraction(1, len(nbrs))
    for n in nbrs:
        eid, end = cmap.entrances[(v, n)]
        c = cmap.corridors[eid]
        far = c.b if end == 0 else c.a
        # gambler's ruin: a fair walk one step into a corridor of length L
        # reaches the far end before returning with probability 1/L
        x = Fraction(1, c.length)
        law[far] = law.get(far, _ZERO) + share * x
        if x != 1:
            law[v] = law.get(v, _ZERO) + share * (1 - x)
    return tuple((p, ((w, w),)) for w, p in law.items())


def _nbrw_anchor_law(g: ExplicitGraph, cmap: ContractionMap, state) -> tuple:
    # one induced step of the non-backtracking walk from an anchor: leave
    # through the kernel's law, then take the corridor's only forward move
    # until the next anchor; a corridor is at most cmap.max_length long
    groups = []
    for p, successors in _branches(WalkKind.NBRW, g, state):
        ends = []
        for (prev, cur), _ in successors:
            for _ in range(cmap.max_length - 1):
                if cur in cmap.anchors:
                    break
                nbrs = g.neighbors(cur)
                if len(nbrs) != 2:
                    raise InvalidInput(f"{cur!r} is neither an anchor nor a corridor vertex")
                prev, cur = cur, (nbrs[1] if nbrs[0] == prev else nbrs[0])
            if cur not in cmap.anchors:
                raise LimitExceeded("non-backtracking corridor traversal exceeded its bound")
            ends.append(((prev, cur), cur))
        groups.append((p, tuple(ends)))
    return tuple(groups)


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
    if start not in cmap.anchors:
        raise InvalidInput("start must be an anchor")
    _check_horizon(horizon)
    if kind is WalkKind.SRW:
        law, state = partial(_anchor_step_law, g, cmap), start
    elif kind is WalkKind.NBRW:
        law, state = partial(_nbrw_anchor_law, g, cmap), (None, start)
    else:
        raise InvalidInput("induced laws are defined for srw and nbrw")
    entries = _propagate(law, state, (start,), horizon, lambda seq, v: seq + (v,))
    return PrefixDistribution(horizon, entries)
