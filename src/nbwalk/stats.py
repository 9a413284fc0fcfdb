"""Return-time statistics and the seeded Monte Carlo harness.

Replica streams are derived from the master seed with a SplitMix64
finalizer (documented in the README); aggregation is a fold over rows in
replica order, so a configuration and master seed fix the report bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Optional

import numpy as np

from .errors import InvalidInput, InvalidParameter, is_int
from .graph import BiregularTree, encode_key
from .laws import WalkKind, _check_start
from .walkers import _CHUNK, _lattice_offsets, _move_table, _on_lattice_kernel, _pack, _table_walk, _tree_counts
from .walkers import _unpack, _walk

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def replica_seed(master_seed: int, replica_index: int) -> int:
    """Per-replica 64-bit seed: SplitMix64 finalizer applied to the master
    seed advanced by (replica_index + 1) golden-ratio increments.  The
    mixing function is fixed and part of the reproducibility contract."""
    z = (master_seed + (replica_index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class WalkStatistics:
    steps: int
    returns_to_origin: int
    last_return_time: Optional[int]
    end_displacement: float


def return_statistics(path, origin, graph=None) -> WalkStatistics:
    """Count the indices i >= 1 where the path sits at ``origin``, in one
    pass over any iterable of vertices.  The end displacement is graph
    specific (Euclidean norm on lattices, depth on trees, 0/1 on finite
    graphs); without a graph it falls back to 0/1."""
    steps = -1
    returns = 0
    last = None
    for steps, end in enumerate(path):
        if end == origin and steps:
            returns += 1
            last = steps
    if steps < 0:
        raise InvalidInput("empty path")
    if graph is None:
        disp = 0.0 if end == origin else 1.0
    else:
        disp = float(graph.displacement(end, origin))
    return WalkStatistics(steps, returns, last, disp)


@dataclass(frozen=True)
class ExperimentReport:
    """Per-replica rows plus order-independent aggregates; serializes to
    a CSV of rows and a JSON summary, both byte-stable for a fixed
    configuration and master seed."""

    config: dict
    master_seed: int
    rows: tuple
    aggregates: dict

    def csv_text(self) -> str:
        lines = ["replica,steps,returns,last_return,displacement"]
        for i, r in enumerate(self.rows):
            last = "" if r.last_return_time is None else str(r.last_return_time)
            lines.append(f"{i},{r.steps},{r.returns_to_origin},{last},{r.end_displacement!r}")
        return "\n".join(lines) + "\n"

    def json_text(self) -> str:
        doc = {
            "config": self.config,
            "master_seed": self.master_seed,
            "aggregates": self.aggregates,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _aggregate(rows) -> dict:
    n = len(rows)
    returns = [r.returns_to_origin for r in rows]
    mean = sum(returns) / n
    if n > 1:
        var = sum((x - mean) ** 2 for x in returns) / (n - 1)
        se = math.sqrt(var / n)
    else:
        se = 0.0
    frac = sum(1 for x in returns if x > 0) / n
    fse = math.sqrt(frac * (1.0 - frac) / n)
    disp = sum(r.end_displacement for r in rows) / n
    return {
        "replicas": n,
        "mean_returns": mean,
        "mean_returns_ci95": 1.96 * se,
        "returned_fraction": frac,
        "returned_fraction_ci95": 1.96 * fse,
        "mean_displacement": disp,
    }


def monte_carlo(
    kind,
    graph,
    start,
    horizon: int,
    replicas: int,
    master_seed: int,
    config: Optional[dict] = None,
) -> ExperimentReport:
    """Independent seeded replicas of one walk experiment, run in order in
    one thread on the kernel ``_replica`` chooses for them.  Replica i
    draws from a generator seeded by ``replica_seed(master_seed, i)``, and
    on every kernel its walk to a horizon is the start of its walk to any
    longer one, so rows at two horizons pair on the same path."""
    kind = WalkKind(kind)
    if not is_int(replicas) or replicas < 1:
        raise InvalidParameter("need at least one replica")
    if not is_int(horizon) or horizon < 0:
        raise InvalidParameter("horizon must be a nonnegative integer")
    if not is_int(master_seed) or not 0 <= master_seed <= _MASK64:
        raise InvalidParameter("master seed must be an integer in [0, 2**64)")
    replicas, horizon, master_seed = int(replicas), int(horizon), int(master_seed)
    run = _replica(kind, graph, start, horizon, replicas)
    rows = tuple(run(np.random.default_rng(replica_seed(master_seed, i))) for i in range(replicas))
    if config is None:
        config = {
            "walk": kind.value,
            "start": encode_key(start),
            "horizon": horizon,
            "replicas": replicas,
        }
    return ExperimentReport(dict(config), master_seed, rows, _aggregate(rows))


def _replica(kind, graph, start, horizon, walks=1):
    """The kernel of each of ``walks`` walks, a function of its generator,
    chosen once; ``_move_table`` refuses a wrong kind and looks a table's start up."""
    kind = WalkKind(kind)
    table = _move_table(kind, graph, start, horizon, walks)
    if table is not None:
        return partial(_table_run, table, horizon)
    _check_start(graph, start)
    if _on_lattice_kernel(kind, graph, start):
        return lambda rng: WalkStatistics(horizon, *_lattice_run(kind, graph, start, horizon, rng))
    # _move_table has refused wrw on a tree, which is not a multigraph
    if isinstance(graph, BiregularTree) and start == ():
        return partial(_tree_run, kind, graph, horizon)
    return partial(_generic_replica, kind, graph, start, horizon)


def _table_run(table, horizon, rng) -> WalkStatistics:
    """A walk through a ``walkers._move_table`` table, drawn by
    ``walkers._table_walk``, with each block's home hits counted at once.
    The displacement is 0 or 1, as on every finite graph."""
    home, k = table.home, table.k
    if not horizon:
        return WalkStatistics(0, 0, None, 0.0)
    returns, last, done = 0, None, 0
    for block in _table_walk(table, horizon, rng):
        # the one-step loop yields lists, the k-step loop arrays
        hits = np.flatnonzero(home[np.fromiter(block, np.intp, len(block)) if k == 1 else block])
        if len(hits):
            returns += len(hits)
            last = done + int(hits[-1]) + 1
        done += len(block)
    return WalkStatistics(horizon, returns, last, 0.0 if home[block[-1]] else 1.0)


def _tree_run(kind, tree, horizon, rng) -> WalkStatistics:
    """Root-started tree walks via their depth process, which is exact:
    by symmetry the uniform walk's depth is a birth-death chain moving
    toward the root with probability 1/degree, and root visits are depth
    zeros.  A non-backtracking walk on a tree can never revisit a vertex,
    so its statistics are deterministic.

    Each chunk of draws is resolved with array operations.  The depth
    parity flips every step and chunks start at even steps, where the
    depth is even, so the chance of a step toward the root at chunk index
    i is ``1/k1`` for even i and ``1/k2`` for odd i, known before the
    step; let ``s`` be the walk that takes those steps with no
    reflection.  Each
    time ``s`` first reaches -1, -3, -5, ... the walk stood at the root,
    where its step away is forced, so ``depth = s + 2 * ((1 - low) // 2)``
    with ``low`` the running minimum of ``s`` capped at 0."""
    if kind is WalkKind.NBRW:
        return WalkStatistics(horizon, 0, None, float(horizon))
    # 1/k1, 1/k2, 1/k1, ...: entry i is the chance at chunk index i
    up = np.tile((1.0 / tree.k1, 1.0 / tree.k2), (min(horizon, _CHUNK) + 1) // 2)
    depth = 0
    returns = 0
    last = None
    done = 0
    while done < horizon:
        n = min(_CHUNK, horizon - done)
        toward = rng.random(n) < up[:n]
        s = depth + (1 - 2 * toward).cumsum()
        low = np.minimum(np.minimum.accumulate(s), 0)
        path = s + 2 * ((1 - low) // 2)
        zeros = np.flatnonzero(path == 0)
        if len(zeros):
            returns += len(zeros)
            last = done + int(zeros[-1]) + 1
        depth = int(path[-1])
        done += n
    return WalkStatistics(horizon, returns, last, float(depth))


def _generic_replica(kind, graph, start, horizon, rng) -> WalkStatistics:
    """A walk no move table, lattice kernel or root tree kernel serves: below
    a tree's root, ``walkers._tree_counts``' bulk draws; else ``walkers._walk``."""
    if isinstance(graph, BiregularTree):
        returns, last, depth = _tree_counts(kind, graph, start, horizon, rng)
        return WalkStatistics(horizon, returns, last, float(depth))
    return return_statistics(chain((start,), _walk(kind, graph, start, horizon, rng)), start, graph)


def _lattice_run(kind, lat, start, horizon, rng):
    """Chunked lattice walk resolved with array operations: each chunk is
    one array of ``walkers._pack``ed offsets from ``walkers._lattice_offsets``,
    and origin hits are the steps whose packed offset is the packed
    target, found by one compare.  A chunk of m steps stays within m of
    its start on every axis, so a farther target, which could alias a
    packed offset, has no hit and is not compared.  Only each chunk's last
    offset is unpacked, to move the carry."""
    d = lat.d
    origin = lat.coordinates(start)
    carry = origin
    returns = 0
    last = None
    done = 0
    for packed in _lattice_offsets(kind, lat, horizon, rng):
        m = len(packed)
        target = [o - c for o, c in zip(origin, carry)]
        if max(map(abs, target)) <= m:
            hits = np.flatnonzero(packed == _pack(target))
            if len(hits):
                returns += len(hits)
                last = done + int(hits[-1]) + 1
        carry = [c + off for c, off in zip(carry, _unpack(int(packed[-1]), d))]
        done += m
    disp = math.sqrt(sum((c - o) ** 2 for c, o in zip(carry, origin)))
    return returns, last, disp

