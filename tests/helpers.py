"""Shared fixtures: small graphs and independent numeric oracles."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from nbwalk import BirthDeathSpec, InsufficientData, InvalidParameter, NoLegalMove, WeightedMultigraph, from_adjacency
from nbwalk.errors import is_degree_pair, is_int
from nbwalk.graph import encode_key, sort_token
from nbwalk.stats import WalkStatistics
from nbwalk.walkers import (
    WalkKind,
    _require_kind_graph,
    nbrw_step,
    nbrw_step_edge,
    srw_step,
    wrw_step,
)


def rng(seed: int):
    return np.random.default_rng(seed)


def k4():
    return from_adjacency({0: [1, 2, 3], 1: [0, 2, 3], 2: [0, 1, 3], 3: [0, 1, 2]})


def triangle():
    return from_adjacency({0: [1, 2], 1: [0, 2], 2: [0, 1]})


def cycle(n: int):
    return from_adjacency({i: [(i - 1) % n, (i + 1) % n] for i in range(n)})


def theta_graph():
    # u and w joined by corridors of lengths 1, 2, 3
    return from_adjacency(
        {
            "u": ["w", "p1", "q1"],
            "w": ["u", "p1", "q2"],
            "p1": ["u", "w"],
            "q1": ["u", "q2"],
            "q2": ["q1", "w"],
        }
    )


def two_loop_graph():
    # two corridors of length 3 from v back to itself
    return from_adjacency(
        {
            "v": ["x1", "x2", "y1", "y2"],
            "x1": ["v", "x2"],
            "x2": ["x1", "v"],
            "y1": ["v", "y2"],
            "y2": ["y1", "v"],
        }
    )


def complete_bipartite(m: int, n: int):
    adj = {f"a{i}": [f"b{j}" for j in range(n)] for i in range(m)}
    adj.update({f"b{j}": [f"a{i}" for i in range(m)] for j in range(n)})
    return from_adjacency(adj)


def path_graph(n: int):
    return from_adjacency({i: [j for j in (i - 1, i + 1) if 0 <= j < n] for i in range(n)})


def random_graph(seed: int, n: int = 7):
    """G(n, 1/2) on 0..n-1 drawn from ``seed``, with the edge 0-1 forced
    and a vertex "leaf" hung on 0, so that the degrees differ."""
    r = rng(seed)
    adj = {i: [] for i in range(n)}
    adj["leaf"] = [0]
    adj[0].append("leaf")
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) == (0, 1) or r.random() < 0.5:
                adj[i].append(j)
                adj[j].append(i)
    return from_adjacency(adj)


def truncated_escape(spec, m: int = 200) -> float:
    """Escape probability via the truncated absorbing chain on {0..M}:
    absorb at 0 and at M, solve the interior linear system numerically,
    and report the chance of reaching M before 0 from state 1.  The
    truncation error is far below 1e-9 for transient specs at M=200."""
    a = np.zeros((m + 1, m + 1))
    b = np.zeros(m + 1)
    a[0, 0] = 1.0
    b[0] = 1.0
    a[m, m] = 1.0
    b[m] = 0.0
    for i in range(1, m):
        p = float(spec.right_prob(i))
        a[i, i] = 1.0
        a[i, i - 1] = -(1.0 - p)
        a[i, i + 1] = -p
    h = np.linalg.solve(a, b)  # h[i] = P(hit 0 before M from i)
    return 1.0 - float(h[1])


def cursor_erase(seq):
    """The cursor erasure run literally: the head at n moves right at 0 or
    when its neighbors differ, and otherwise deletes the pair at n, n + 1
    and steps left.  Returns the output, the move string and the head
    position after each move."""
    items = list(seq)
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
    return tuple(items), "".join(moves), tuple(positions)


def lattice_run_reference(kind, lat, start, horizon, rng):
    """``stats._lattice_run`` one step at a time: the whole walk's draws in
    one call (one scalar draw for a non-backtracking walk's first step,
    whose range has no reversal to skip), then a Python loop that picks
    each direction, moves and checks for the origin.  numpy makes the
    same draws for any split of a bulk call, so the kernel's chunks leave
    no seam here."""
    d = lat.d
    origin = list(lat.coordinates(start))
    pos = list(origin)
    returns = 0
    last = None
    prev = None
    if kind is WalkKind.SRW:
        draws = rng.integers(0, 2 * d, size=horizon).tolist()
    elif horizon:
        draws = [int(rng.integers(2 * d)), *rng.integers(0, 2 * d - 1, size=horizon - 1).tolist()]
    else:
        draws = []
    for t, u in enumerate(draws, 1):
        if kind is WalkKind.NBRW and prev is not None and u >= prev ^ 1:
            u += 1
        prev = u
        pos[u // 2] += 1 if u % 2 == 0 else -1
        if pos == origin:
            returns += 1
            last = t
    disp = math.sqrt(sum((p - o) ** 2 for p, o in zip(pos, origin)))
    return returns, last, disp


def subdivided_starts(lat):
    """Three starts on a subdivided lattice: the origin, an anchor away
    from it, and a corridor point, which has one off-grid coordinate."""
    pitch = lat.pitch
    starts = [(0,) * lat.d, (3 * pitch, -pitch, 2 * pitch, 0)[: lat.d], (1, 0, -pitch, 2 * pitch)[: lat.d]]
    return [v[0] if lat.d == 1 else v for v in starts]


def tree_run_reference(kind, tree, horizon, rng):
    """``stats._tree_run`` one step at a time: the whole walk's draws in
    one call, and a depth that steps toward the root when the draw is
    below 1/degree, except at the root, which it always leaves."""
    if kind is WalkKind.NBRW:
        return WalkStatistics(horizon, 0, None, float(horizon))
    up = (1.0 / tree.k1, 1.0 / tree.k2)
    depth = 0
    returns = 0
    last = None
    for t, u in enumerate(rng.random(horizon).tolist(), 1):
        if depth == 0:
            depth = 1
        elif u < up[depth % 2]:
            depth -= 1
            if depth == 0:
                returns += 1
                last = t
        else:
            depth += 1
    return WalkStatistics(horizon, returns, last, float(depth))


def tree_counts_reference(kind, tree, start, n, rng):
    """The row ``stats._generic_replica`` makes of ``walkers._tree_counts``,
    one step at a time, by scalar ``rng.integers`` calls, with no vertex
    key: the walk keeps its depth, ``shared``, the number of leading
    branch indices its key shares with ``start``, and for nbrw ``came``,
    the neighbor index of the vertex it just left.  It is at ``start``
    when depth and ``shared`` are both ``len(start)``.  In neighbor order
    (parent first, then children), draw d takes the root to child d and
    any other vertex up for d = 0 and to child d - 1 otherwise; the draw
    bound is k1 at even depths, the root included, and k2 at odd ones."""
    nbrw = WalkKind(kind) is WalkKind.NBRW
    home = depth = shared = len(start)
    bounds = (tree.k1, tree.k2)
    came = None
    returns = 0
    last = None
    for i in range(1, n + 1):
        if came is None:
            d = int(rng.integers(bounds[depth & 1]))
        else:
            d = int(rng.integers(bounds[depth & 1] - 1))
            d += d >= came
        if depth and not d:
            depth -= 1
            shared = min(shared, depth)
            if nbrw:
                # nbrw never steps back, so it climbs only along start's
                # ancestors: the child it left is start[depth], after the
                # parent unless at the root
                came = start[depth] + (depth > 0)
        else:
            if shared == depth < home and d - (depth > 0) == start[depth]:
                shared += 1
            depth += 1
            if nbrw:
                came = 0
        if depth == shared == home:
            returns += 1
            last = i
    return WalkStatistics(n, returns, last, float(depth))


def walk_reference(kind, graph, start, n, rng):
    """``walkers._walk`` with scalar generator calls and a checked
    neighbor lookup on every step: yields the vertices at steps 1..n."""
    kind, mg = _require_kind_graph(kind, graph)
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


def propagate_reference(law, start, record, n, extend, view=None, state_of=None):
    """``laws._propagate`` with every weight a Fraction: each step
    multiplies and adds Fractions, and the law of the records, or of
    their views, is summed at the end in the order each first appears.
    Only then is it put in ``_propagate``'s form, ``(weights, den)``: the
    Fractions scaled to ints over the lcm of their denominators."""
    laws = {}
    level = {(start, record): Fraction(1)}
    for _ in range(n):
        nxt_level = {}
        for (state, rec), prob in level.items():
            triples = laws.get(state)
            if triples is None:
                triples = laws[state] = law(state)
            for p, nxt, label in triples:
                after = extend(rec, label)
                key = (nxt if state_of is None else state_of(after), after)
                nxt_level[key] = nxt_level.get(key, 0) + prob * p
        level = nxt_level
    out = {}
    for (_, rec), p in level.items():
        y = rec if view is None else view(rec)
        out[y] = out.get(y, 0) + p
    den = math.lcm(*(p.denominator for p in out.values()))
    return {y: p.numerator * (den // p.denominator) for y, p in out.items()}, den


def enumerate_json_reference(dist) -> str:
    """The text ``nbwalk enumerate`` writes for a prefix law, built as a
    document and indented by ``json.dumps``; entries go in ``sort_token``
    order of their vertices, which is the natural order when the keys are
    all ints, all strings or all tuples of one of those."""
    doc = {
        "horizon": dist.horizon,
        "short_mass": f"{dist.short_mass.numerator}/{dist.short_mass.denominator}",
        "entries": [
            {"sequence": [encode_key(v) for v in seq], "p": f"{p.numerator}/{p.denominator}", "decimal": float(p)}
            for seq, p in sorted(dist.entries.items(), key=lambda e: [sort_token(v) for v in e[0]])
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class FrequencyEstimate(NamedTuple):
    right_fraction: float
    std_error: float
    moves: int


def move_frequency(traces, phase: Optional[int] = None) -> FrequencyEstimate:
    """Empirical right-move probability over cursor traces, counting only
    moves made at positions >= 1 (moves at 0 are forced) and optionally
    only at positions of the given parity.  The error is binomial."""
    if phase is not None and not (is_int(phase) and phase in (0, 1)):
        raise InvalidParameter(f"phase must be None, 0 or 1, got {phase!r}")
    rights = 0
    total = 0
    for tr in traces:
        pos = 0
        for mv, after in zip(tr.moves, tr.positions):
            made_at = pos
            pos = after
            if made_at < 1:
                continue
            if phase is not None and made_at % 2 != phase:
                continue
            total += 1
            if mv == "R":
                rights += 1
    if total == 0:
        raise InsufficientData("no moves at qualifying positions")
    f = rights / total
    se = math.sqrt(f * (1.0 - f) / total)
    return FrequencyEstimate(f, se, total)


def simulate_chain(spec: BirthDeathSpec, n: int, rng) -> list:
    """Trajectory of n moves from 0, reflecting at 0.  Uses float draws;
    exact answers come from the rational routines."""
    if not is_int(n) or n < 0:
        raise InvalidParameter("step count must be a nonnegative integer")
    n = int(n)
    s = len(spec.prefix)
    length = len(spec.period)
    # position 0 reads 1.0, above every draw, so it reflects
    head = [1.0, *map(float, spec.prefix)]
    period = [float(p) for p in spec.period]
    out = [0]
    pos = 0
    for u in rng.random(n).tolist():
        p = head[pos] if pos <= s else period[pos % length]
        pos = pos + 1 if u < p else pos - 1
        out.append(pos)
    return out


def check_biregular_shape(mg: WeightedMultigraph, k1: int, k2: int) -> bool:
    """Alternating two-degree test on a multigraph: every vertex has
    multigraph degree k1 or k2 and every edge joins the two degree
    classes.  Self-loops fail, as both their ends are in one class; so
    does k1 <= k2."""
    if not is_degree_pair(k1, k2):
        return False
    deg = {v: mg.mdegree(v) for v in mg.vertices()}
    if any(d not in (k1, k2) for d in deg.values()):
        return False
    return all({deg[e.a], deg[e.b]} == {k1, k2} for e in mg.edges())
