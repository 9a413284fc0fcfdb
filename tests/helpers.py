"""Shared fixtures: small graphs and independent numeric oracles."""

from __future__ import annotations

import math

import numpy as np

from nbwalk import from_adjacency
from nbwalk.stats import _CHUNK, WalkStatistics
from nbwalk.walkers import WalkKind


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


def _chunks(horizon, checkpoints):
    """Chunk lengths of the fast kernels: at most ``_CHUNK`` steps, ending
    at every checkpoint."""
    done = 0
    for hi in sorted(set(list(checkpoints or ()) + [horizon])):
        while done < hi:
            n = min(_CHUNK, hi - done)
            yield n
            done += n


def lattice_run_reference(kind, lat, start, horizon, rng, checkpoints=None):
    """``stats._lattice_run`` one step at a time: the same chunked draws,
    then a Python loop that picks each direction, moves and checks for
    the origin."""
    d = lat.d
    origin = list(lat.coordinates(start))
    pos = list(origin)
    returns = 0
    last = None
    prev = None
    marked = {}
    t = 0
    for n in _chunks(horizon, checkpoints):
        if kind is WalkKind.SRW:
            draws = rng.integers(0, 2 * d, size=n).tolist()
        else:
            draws = []
            if prev is None:
                draws.append(int(rng.integers(2 * d)))
            if n > len(draws):
                draws += rng.integers(0, 2 * d - 1, size=n - len(draws)).tolist()
        for u in draws:
            if kind is WalkKind.NBRW and prev is not None and u >= prev ^ 1:
                u += 1
            prev = u
            pos[u // 2] += 1 if u % 2 == 0 else -1
            t += 1
            if pos == origin:
                returns += 1
                last = t
            if checkpoints and t in checkpoints:
                marked[t] = returns
    disp = math.sqrt(sum((p - o) ** 2 for p, o in zip(pos, origin)))
    if checkpoints is None:
        return returns, last, disp
    return returns, last, disp, marked


def tree_run_reference(kind, tree, horizon, rng):
    """``stats._tree_run`` one step at a time: the same chunked draws, and
    a depth that steps toward the root when the draw is below 1/degree,
    except at the root, which it always leaves."""
    if kind is WalkKind.NBRW:
        return WalkStatistics(horizon, 0, None, float(horizon))
    up = (1.0 / tree.k1, 1.0 / tree.k2)
    depth = 0
    returns = 0
    last = None
    t = 0
    for n in _chunks(horizon, None):
        for u in rng.random(n).tolist():
            t += 1
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
