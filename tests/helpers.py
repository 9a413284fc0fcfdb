"""Shared fixtures: small graphs and independent numeric oracles."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from nbwalk import NoLegalMove, from_adjacency
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


def walk_reference(kind, graph, start, n, rng):
    """``walkers._walk`` with scalar generator calls and a checked
    neighbor lookup on every step: yields the vertices at steps 1..n."""
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


def propagate_reference(law, start, record, n, extend, view=None):
    """``walkers._propagate`` with every weight a Fraction: each step
    multiplies and adds Fractions, and the law of the records, or of
    their views, is summed at the end in the order each first appears."""
    laws = {}
    level = {(start, record): Fraction(1)}
    for _ in range(n):
        nxt_level = {}
        for (state, rec), prob in level.items():
            triples = laws.get(state)
            if triples is None:
                triples = laws[state] = law(state)
            for p, nxt, label in triples:
                key = (nxt, extend(rec, label))
                nxt_level[key] = nxt_level.get(key, 0) + prob * p
        level = nxt_level
    out = {}
    for (_, rec), p in level.items():
        y = rec if view is None else view(rec)
        out[y] = out.get(y, 0) + p
    return out
