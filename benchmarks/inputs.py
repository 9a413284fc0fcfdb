"""Seeded input generators for the benchmark.

The program under test never sees these functions: it only reads what they
produce, graph-spec JSON files and whitespace-separated token files.  Every
generator draws from a ``random.Random`` the caller seeds, so one seed gives
the same inputs on every machine and every numpy version.
"""

from __future__ import annotations

import json
from pathlib import Path

GENERATOR = "benchmarks/inputs.py: random.Random, configuration model with rejection"

SYMBOLS = "abcde"


def random_regular(n: int, k: int, rng) -> dict:
    """Adjacency of a uniformly drawn simple connected k-regular graph on
    vertices 0..n-1: pair up n*k stubs at random and start over whenever
    the pairing has a loop, a parallel edge or more than one component."""
    if n * k % 2 or k >= n:
        raise ValueError(f"no simple {k}-regular graph on {n} vertices")
    while True:
        stubs = [v for v in range(n) for _ in range(k)]
        rng.shuffle(stubs)
        edges = set()
        for a, b in zip(stubs[::2], stubs[1::2]):
            e = (min(a, b), max(a, b))
            if a == b or e in edges:
                break
            edges.add(e)
        else:
            adj = {v: [] for v in range(n)}
            for a, b in sorted(edges):
                adj[a].append(b)
                adj[b].append(a)
            if _connected(adj):
                return adj


def corridor_graph(base_n: int, interiors, rng) -> dict:
    """A seeded 3-regular base graph whose edges are replaced by corridors.

    ``interiors`` is the multiset of interior-vertex counts (0 to 3), one per
    base edge; the seed only decides which edge gets which count, so every
    seed gives graphs of the same size.  The j-th interior vertex on base
    edge (a, b) is keyed ``m{a}_{b}_{j}``."""
    base = random_regular(base_n, 3, rng)
    edges = [(a, b) for a in base for b in base[a] if a < b]
    counts = list(interiors)
    if len(counts) != len(edges):
        raise ValueError(f"need {len(edges)} interior counts, got {len(counts)}")
    rng.shuffle(counts)
    adj = {v: [] for v in base}
    for (a, b), t in zip(edges, counts):
        chain = [a] + [f"m{a}_{b}_{j}" for j in range(t)] + [b]
        for u, w in zip(chain, chain[1:]):
            adj.setdefault(u, []).append(w)
            adj.setdefault(w, []).append(u)
    return adj


def token_stream(length: int, alphabet: int, rng) -> list:
    """``length`` tokens drawn uniformly and independently from the first
    ``alphabet`` letters; immediate repeats and out-and-back pairs both occur."""
    return [SYMBOLS[rng.randrange(alphabet)] for _ in range(length)]


def explicit_spec(adj: dict) -> dict:
    return {"type": "explicit", "adjacency": {str(v): list(ns) for v, ns in adj.items()}}


def walk_count(adj: dict, start, steps: int) -> int:
    """Number of ``steps``-step walks from ``start``: the size of the path
    space an exhaustive simple-walk oracle covers."""
    ways = {start: 1}
    for _ in range(steps):
        nxt: dict = {}
        for v, c in ways.items():
            for w in adj[v]:
                nxt[w] = nxt.get(w, 0) + c
        ways = nxt
    return sum(ways.values())


def write_spec(path: Path, spec: dict) -> str:
    path.write_text(json.dumps(spec, sort_keys=True) + "\n")
    return "@" + str(path)


def write_tokens(path: Path, tokens) -> str:
    path.write_text(" ".join(tokens) + "\n")
    return "@" + str(path)


def _connected(adj: dict) -> bool:
    first = next(iter(adj))
    seen = {first}
    todo = [first]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(adj)
