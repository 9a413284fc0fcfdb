"""Graph families used by the walk laboratory.

Every simple graph exposes the same two accessors, ``degree`` and
``neighbors``; the weighted multigraph has ``mdegree`` and ``half_edges``
instead.  The infinite families (lattices, trees) generate neighborhoods
on demand and never enumerate their vertex set.  Vertex keys are plain
hashable values: integers, short strings, or tuples of keys.  Neighbor
order is deterministic and documented per family, which keeps seeded
sampling reproducible.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain, cycle
from typing import Iterable, Mapping, Sequence

from .errors import InvalidParameter, MalformedGraph, UnsupportedGraph, is_degree_pair, is_int

_INT_TOKEN = re.compile(r"-?\d+")
_BAD_STR = re.compile(r"[\s(),]")
# an atom of key text, and the JSON array brackets of its parentheses
_ATOM = re.compile(r"[^(),]+")
_BRACKETS = str.maketrans("()", "[]")
# dart visits ``ExplicitGraph.dart_types`` spends on colour refinement
REFINEMENT_BUDGET = 1 << 17


def canon_key(value):
    """Normalize a vertex key: ints stay ints, int-like strings become
    ints, lists become tuples. Rejects anything that would not survive a
    text round trip."""
    if isinstance(value, bool):
        raise MalformedGraph("boolean is not a usable vertex key")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if _INT_TOKEN.fullmatch(value):
            try:
                return int(value)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise MalformedGraph(f"integer key of {len(value)} digits is too long") from None
        if not value or _BAD_STR.search(value):
            raise MalformedGraph(f"unusable string key {value!r}")
        return value
    if isinstance(value, (list, tuple)):
        return tuple(canon_key(x) for x in value)
    raise MalformedGraph(f"unsupported key type {type(value).__name__}")


def sort_token(key):
    """Total deterministic order over mixed int/str/tuple keys."""
    if isinstance(key, bool):
        raise MalformedGraph("boolean is not a usable vertex key")
    if isinstance(key, int):
        return (0, key)
    if isinstance(key, str):
        return (1, key)
    return (2, tuple(sort_token(x) for x in key))


def encode_key(key) -> str:
    """Text form of a vertex key; ``decode_key`` inverts it."""
    if isinstance(key, int):
        return str(key)
    if isinstance(key, str):
        return key
    return "(" + ",".join(map(encode_key, key)) + ")"


def _each_once(fn, items) -> list:
    """``[fn(x) for x in items]`` with one call per distinct item, made in
    order of first appearance, so that a refusal names the first bad one.
    ``items`` is a sequence, read twice."""
    distinct = dict.fromkeys(items)
    value = dict(zip(distinct, map(fn, distinct)))
    return list(map(value.__getitem__, items))


def encode_path(keys, graph=None) -> str:
    """``" ".join(map(encode_key, keys))`` for a sequence of keys of
    ``graph``, as its lookups give them.  A ``Lattice``'s keys are ints at
    d = 1 and d-tuples of ints otherwise, so there each key is written by
    ``str`` or by one ``%`` format fixed by d; any other sequence is
    encoded once per distinct key."""
    if not isinstance(graph, Lattice):
        return " ".join(_each_once(encode_key, keys))
    if graph.d == 1:
        return " ".join(map(str, keys))
    key = "(" + ",".join(["%d"] * graph.d) + ")"
    return " ".join(map(key.__mod__, keys))


def decode_key(text: str):
    """Parse the text form produced by ``encode_key``: each atom is read as
    a JSON string and each parenthesized list as a JSON array, and the
    result goes through ``canon_key``, as every ``--graph`` key does."""
    try:
        quoted = _ATOM.sub(lambda m: json.dumps(m.group()), text.strip())
        return canon_key(json.loads(quoted.translate(_BRACKETS)))
    # malformed text, or nesting too deep for the interpreter's recursion limit;
    # a JSON error's position would count in the quoted text, so it is left out
    except (ValueError, RecursionError, MalformedGraph) as exc:
        raise MalformedGraph(f"cannot parse key text {text!r}: {getattr(exc, 'msg', exc)}") from None


class Graph:
    """Read-only simple graph: symmetric adjacency, no loops, no parallel
    edges. Immutable after construction and safe for concurrent reads."""

    def neighbors(self, v) -> tuple:
        raise NotImplementedError

    def dart_types(self) -> tuple:
        """The darts' cone types as ``(of, successors)``.  Darts u -> v whose
        subtrees of the universal cover beyond v are isomorphic share a type
        (Nagnibeda & Woess, "Random walks on trees with finitely many cone
        types", J. Theoret. Probab. 15, 2002).  ``of(u, v)`` is a dart's type,
        an int, or the dart itself where each dart is its own type, for keys
        the graph's own lookups gave, unchecked;
        ``successors(t)`` is the multiset of the types of the darts v -> w,
        w != u, as ``(type, count)`` pairs.  The erasure laws read it."""
        raise NotImplementedError

    def degree(self, v) -> int:
        return len(self.neighbors(v))

    def displacement(self, v, origin) -> float:
        """Scalar separation of ``v`` from ``origin``; family specific."""
        return 0.0 if v == origin else 1.0

    def default_start(self):
        raise NotImplementedError


class Lattice(Graph):
    """Integer lattice in ``d`` dimensions, each edge optionally
    subdivided by ``subdivisions`` extra degree-2 vertices.

    Anchor vertices sit at coordinates divisible by ``subdivisions + 1``;
    subdivision vertices have exactly one off-grid coordinate.  Keys are
    bare ints for d = 1 and d-tuples of ints otherwise.  Neighbors come in
    the fixed order +e1, -e1, +e2, -e2, ...
    """

    def __init__(self, d: int, subdivisions: int = 0):
        if not is_int(d) or not 1 <= d <= 4:
            raise InvalidParameter(f"lattice dimension must be 1..4, got {d!r}")
        if not is_int(subdivisions) or subdivisions < 0:
            raise InvalidParameter("subdivisions must be a nonnegative integer")
        self.d = int(d)
        self.pitch = int(subdivisions) + 1

    def coordinates(self, v) -> tuple:
        vec = (v,) if self.d == 1 else v
        if not (
            isinstance(vec, tuple)
            and len(vec) == self.d
            and all(isinstance(c, int) and not isinstance(c, bool) for c in vec)
        ):
            raise InvalidParameter(f"{v!r} is not a vertex of this lattice")
        self._off_axis(vec)
        return vec

    def _off_axis(self, vec):
        off = [i for i, c in enumerate(vec) if c % self.pitch]
        if len(off) > 1:
            raise InvalidParameter(f"{vec!r} is not a vertex of this lattice")
        return off[0] if off else None

    def _out(self, vec):
        return vec[0] if self.d == 1 else vec

    def neighbors(self, v):
        self.coordinates(v)
        return self._adjacent(v)

    def _adjacent(self, v):
        """``neighbors`` of a key known to be a vertex, unchecked."""
        vec = (v,) if self.d == 1 else v
        axis = self._off_axis(vec)
        axes = range(self.d) if axis is None else (axis,)
        out = []
        for a in axes:
            for sign in (1, -1):
                w = list(vec)
                w[a] += sign
                out.append(self._out(tuple(w)))
        return tuple(out)

    def dart_types(self) -> tuple:
        """Type j: the dart's head is j steps short of the next anchor
        ahead, 0 at an anchor, so 0 is the only type at pitch 1.  Along the
        one axis where u and v differ, that is ``(u - v) * v`` mod the pitch."""
        d, pitch = self.d, self.pitch

        def of(u, v):
            return (u - v) * v % pitch if d == 1 else sum((a - b) * b for a, b in zip(u, v)) % pitch

        return (of if pitch > 1 else lambda u, v: 0), lambda j: ((j - 1, 1),) if j else ((pitch - 1, 2 * d - 1),)

    def displacement(self, v, origin):
        return math.dist(self.coordinates(v), self.coordinates(origin))

    def default_start(self):
        return 0 if self.d == 1 else (0,) * self.d


def lattice(d: int) -> Lattice:
    """The d-dimensional integer lattice."""
    return Lattice(d)


def subdivided_lattice(d: int, t: int) -> Lattice:
    """Lattice with t extra degree-2 vertices on every edge."""
    return Lattice(d, t)


class BiregularTree(Graph):
    """Infinite tree alternating between degree k1 (even depth, root
    included) and degree k2 (odd depth), with k1 > k2 >= 2.  Keys are
    root paths: ``()`` is the root and a child extends its parent's key
    by one branch index.  Neighbor order is parent first, then children
    by index."""

    def __init__(self, k1: int, k2: int):
        if not is_degree_pair(k1, k2):
            raise InvalidParameter(f"need k1 > k2 >= 2, got ({k1!r}, {k2!r})")
        self.k1 = int(k1)
        self.k2 = int(k2)

    def _check(self, v):
        if not isinstance(v, tuple):
            raise InvalidParameter(f"{v!r} is not a tree vertex key")
        # branch index bounds: k1 at the root, then k2 - 1 at odd depths
        # and k1 - 1 at even depths
        limits = chain((self.k1,), cycle((self.k2 - 1, self.k1 - 1)))
        for c, limit in zip(v, limits):
            if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < limit:
                raise InvalidParameter(f"{v!r} is not a vertex of this tree")

    def neighbors(self, v):
        self._check(v)
        return self._adjacent(v)

    def _adjacent(self, v):
        """``neighbors`` of a key known to be a vertex, unchecked."""
        if v == ():
            return tuple((j,) for j in range(self.k1))
        child_count = (self.k2 if len(v) % 2 else self.k1) - 1
        return (v[:-1],) + tuple(v + (j,) for j in range(child_count))

    def dart_types(self) -> tuple:
        """Type p: the parity of the dart's head's depth.  Every neighbor
        of a vertex has the other parity, and its degree is k1 at even
        depths and k2 at odd ones."""
        k = (self.k1, self.k2)
        return (lambda u, v: len(v) & 1), lambda p: ((1 - p, k[p] - 1),)

    def displacement(self, v, origin):
        """Depth of ``v`` from the root.  ``origin`` is ignored, so a walk
        started below the root reports its end depth, not its distance
        from the start."""
        return float(len(v))

    def default_start(self):
        return ()


def biregular_tree(k1: int, k2: int) -> BiregularTree:
    return BiregularTree(k1, k2)


class RegularTree(BiregularTree):
    """Infinite k-regular tree: the biregular tree with k1 = k2 = k."""

    def __init__(self, k: int):
        if not is_int(k) or k < 2:
            raise InvalidParameter(f"tree degree must be an integer >= 2, got {k!r}")
        self.k = self.k1 = self.k2 = int(k)


def regular_tree(k: int) -> RegularTree:
    return RegularTree(k)


class ExplicitGraph(Graph):
    """Finite graph built from explicit adjacency lists.  Construction
    validates symmetry and rejects an empty graph, rows that are not lists
    or tuples, self-loops and duplicate edges; neighbor lists are stored
    sorted."""

    def __init__(self, adjacency: Mapping):
        if not adjacency:
            raise MalformedGraph("a graph needs at least one vertex")
        adj = {}
        for v, ns in adjacency.items():
            cv = canon_key(v)
            if cv in adj:
                raise MalformedGraph(f"duplicate vertex key {cv!r}")
            if not isinstance(ns, (list, tuple)):
                raise MalformedGraph(f"adjacency row of {cv!r} is not a list")
            adj[cv] = [canon_key(w) for w in ns]
        # each row as a set, so the symmetry check is linear in the rows
        seen = {}
        for v, ns in adj.items():
            row = seen[v] = set()
            for w in ns:
                if w == v:
                    raise MalformedGraph(f"self-loop at {v!r}")
                if w in row:
                    raise MalformedGraph(f"duplicate edge {v!r}-{w!r}")
                if w not in adj:
                    raise MalformedGraph(f"vertex {w!r} has no adjacency row")
                row.add(w)
        for v, ns in adj.items():
            for w in ns:
                if v not in seen[w]:
                    raise MalformedGraph(f"asymmetric edge {v!r}-{w!r}")
        self._adj = {v: tuple(sorted(ns, key=sort_token)) for v, ns in adj.items()}
        self._verts = tuple(sorted(adj, key=sort_token))

    def vertices(self) -> tuple:
        return self._verts

    def neighbors(self, v):
        try:
            return self._adj[v]
        except (KeyError, TypeError):  # TypeError: an unhashable key
            raise InvalidParameter(f"unknown vertex {v!r}") from None

    def dart_types(self) -> tuple:
        """Colour refinement on darts: it starts from the head degree and
        splits each class by the multiset of its darts' successors' classes
        until no class splits.  A round sorts the classes of the darts out of
        each vertex v once; the successors of a dart u -> v are those less
        the class of v -> u, so a round visits each dart once.  When the
        rounds would visit more than ``REFINEMENT_BUDGET`` darts, as on a long
        path, a type is the dart ``(u, v)`` itself, which merges what a stack
        of vertices merges and no more."""
        adj = self._adj
        per_dart = (lambda u, v: (u, v)), lambda uv: tuple(((uv[1], w), 1) for w in adj[uv[1]] if w != uv[0])
        return self._refine() or per_dart

    def _refine(self):
        adj = self._adj
        if sum(map(len, adj.values())) > REFINEMENT_BUDGET:
            return None
        darts = [(u, v) for u in self._verts for v in adj[u]]
        number = {d: k for k, d in enumerate(darts)}
        out = [[number[v, w] for w in adj[v]] for v in self._verts]
        back = [[number[w, v] for w in adj[v]] for v in self._verts]
        colour = [len(adj[v]) for _, v in darts]
        count, work = len(set(colour)), 0
        while (work := work + len(darts)) <= REFINEMENT_BUDGET:
            # a dart's new class is its successors' classes alone: they refine
            # the last round's, which gave the dart its last class
            new, bags = [0] * len(darts), {}
            for o, b in zip(out, back):
                have, less = sorted(map(colour.__getitem__, o)), {}
                for j, k in zip(o, b):
                    c = colour[j]
                    if c not in less:
                        i = have.index(c)
                        less[c] = bags.setdefault((*have[:i], *have[i + 1:]), len(bags))
                    new[k] = less[c]
            if len(bags) == count:
                some = dict(zip(colour, darts))

                def successors(t):
                    u, v = some[t]
                    return tuple(sorted(Counter(colour[number[v, w]] for w in adj[v] if w != u).items()))

                return (lambda u, v: colour[number[u, v]]), successors
            count, colour = len(bags), new
        return None

    def edges(self) -> tuple:
        out = []
        for v in self._verts:
            tv = sort_token(v)
            for w in self._adj[v]:
                if tv < sort_token(w):
                    out.append((v, w))
        return tuple(out)

    def adjacency_dict(self) -> dict:
        return {v: list(ns) for v, ns in self._adj.items()}

    def is_connected(self) -> bool:
        seen = {self._verts[0]}
        frontier = [self._verts[0]]
        while frontier:
            v = frontier.pop()
            for w in self._adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(self._verts)

    def __contains__(self, v) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._verts)

    def default_start(self):
        return self._verts[0]


def from_adjacency(lists: Mapping) -> ExplicitGraph:
    """Explicit graph from a vertex -> neighbor-list mapping."""
    return ExplicitGraph(lists)


def subdivide(g: ExplicitGraph, t: int) -> ExplicitGraph:
    """Replace every edge of ``g`` with a path through ``t`` new degree-2
    vertices (so each original edge becomes a corridor of length t + 1).
    New vertices are keyed ``(a, b, j)`` for the j-th point on edge (a, b)."""
    if not isinstance(g, ExplicitGraph):
        raise UnsupportedGraph("subdivision needs an explicit finite graph")
    if not is_int(t) or t < 0:
        raise InvalidParameter("subdivision count must be a nonnegative integer")
    t = int(t)
    if t == 0:
        return ExplicitGraph(g.adjacency_dict())
    adj: dict = {v: [] for v in g.vertices()}
    for a, b in g.edges():
        mids = [(a, b, j) for j in range(1, t + 1)]
        for m in mids:
            if m in adj:
                raise MalformedGraph(f"subdivision key collision at {m!r}")
            adj[m] = []
        path = [a, *mids, b]
        for u, w in zip(path, path[1:]):
            adj[u].append(w)
            adj[w].append(u)
    return ExplicitGraph(adj)


def counterexample_graph() -> ExplicitGraph:
    """Six-vertex graph where a degree-3 vertex v sees neighbors of
    unequal degree (deg y = 3 > deg z = 2), the configuration under which
    erasing backtracks from a plain walk fails to reproduce the
    non-backtracking law."""
    return from_adjacency(
        {
            "v": ["x", "y", "z"],
            "x": ["v", "z"],
            "y": ["v", "a", "b"],
            "z": ["v", "x"],
            "a": ["y", "b"],
            "b": ["y", "a"],
        }
    )


@dataclass(frozen=True)
class MultiEdge:
    a: object
    b: object
    resistance: int
    edge_id: int


class WeightedMultigraph:
    """Finite multigraph with positive integer edge resistances; parallel
    edges and self-loops are allowed.  A loop contributes two half-edges
    at its vertex and therefore counts twice in the multigraph degree.
    ``resistance_lcm`` is the lcm of the resistances, 1 with no edges."""

    def __init__(self, vertices: Iterable, edges: Sequence):
        verts = [canon_key(v) for v in vertices]
        vset = set(verts)
        if not verts:
            raise MalformedGraph("a multigraph needs at least one vertex")
        if len(verts) != len(vset):
            raise MalformedGraph("duplicate vertices")
        cooked = []
        for eid, spec in enumerate(edges):
            try:
                a, b, r = spec
            except (TypeError, ValueError):
                raise MalformedGraph(f"edge {eid} is not an (a, b, resistance) triple: {spec!r}") from None
            a, b = canon_key(a), canon_key(b)
            if a not in vset or b not in vset:
                raise MalformedGraph(f"edge endpoint {a!r}-{b!r} not among vertices")
            if not is_int(r) or r < 1:
                raise MalformedGraph("resistance must be a positive integer")
            cooked.append(MultiEdge(a, b, int(r), eid))
        self._edges = tuple(cooked)
        self.resistance_lcm = math.lcm(*(e.resistance for e in cooked))
        self._verts = tuple(sorted(vset, key=sort_token))
        half: dict = {v: [] for v in self._verts}
        for e in cooked:
            half[e.a].append((e.edge_id, 0))
            half[e.b].append((e.edge_id, 1))
        self._half = {v: tuple(sorted(hs)) for v, hs in half.items()}

    def vertices(self) -> tuple:
        return self._verts

    def edges(self) -> tuple:
        return self._edges

    def edge(self, edge_id: int) -> MultiEdge:
        return self._edges[edge_id]

    def endpoint(self, edge_id: int, end: int):
        e = self._edges[edge_id]
        return e.a if end == 0 else e.b

    def half_edges(self, v) -> tuple:
        """Half-edges at v as (edge_id, end) pairs, sorted; loops appear
        with both ends."""
        try:
            return self._half[v]
        except (KeyError, TypeError):  # TypeError: an unhashable key
            raise InvalidParameter(f"unknown vertex {v!r}") from None

    def mdegree(self, v) -> int:
        return len(self.half_edges(v))

    def displacement(self, v, origin) -> float:
        return 0.0 if v == origin else 1.0

    def default_start(self):
        return self._verts[0]

    def to_json_dict(self) -> dict:
        return {
            "vertices": [encode_key(v) for v in self._verts],
            "edges": [
                {"a": encode_key(e.a), "b": encode_key(e.b), "r": e.resistance, "id": e.edge_id}
                for e in self._edges
            ],
        }


# each family's builder and its spec fields, in the builder's argument order
_SPECS = {
    "lattice": (lattice, ("d",)),
    "subdivided_lattice": (subdivided_lattice, ("d", "t")),
    "regular_tree": (regular_tree, ("k",)),
    "biregular_tree": (biregular_tree, ("k1", "k2")),
    "explicit": (from_adjacency, ("adjacency",)),
    "subdivided": (subdivide, ("base", "t")),
    "counterexample": (counterexample_graph, ()),
}


def _spec_field(spec, field):
    """A field's value: the graph that ``base`` describes, the object
    ``adjacency``, and an int for every other field."""
    value = spec[field]
    if field == "base":
        return graph_from_spec(value)
    if field == "adjacency":
        if not isinstance(value, Mapping):
            raise InvalidParameter("'adjacency' must be an object")
        return value
    if not is_int(value):
        raise InvalidParameter(f"field {field!r} must be an integer")
    return int(value)


def graph_from_spec(spec: Mapping) -> Graph:
    """Build a graph from its JSON-style description, e.g.
    ``{"type": "lattice", "d": 2}`` or
    ``{"type": "explicit", "adjacency": {"0": [1, 2], ...}}``.
    Unknown types and stray fields are rejected."""
    if not isinstance(spec, Mapping) or "type" not in spec:
        raise InvalidParameter("graph spec must be an object with a 'type' field")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in _SPECS:
        raise InvalidParameter(f"unknown graph type {kind!r}")
    build, fields = _SPECS[kind]
    extra = set(spec) - {"type", *fields}
    if extra:
        raise InvalidParameter(f"unknown fields {sorted(extra)} in {kind!r} spec")
    missing = set(fields) - set(spec)
    if missing:
        raise InvalidParameter(f"missing fields {sorted(missing)} in {kind!r} spec")
    return build(*(_spec_field(spec, field) for field in fields))
