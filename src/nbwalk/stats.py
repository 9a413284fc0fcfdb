"""Distribution distances, return-time statistics, and the seeded
Monte Carlo harness.

Replica streams are derived from the master seed with a SplitMix64
finalizer (documented in the README); aggregation is a fold over rows in
replica order, so a configuration and master seed fix the report bytes.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import NamedTuple, Optional

import numpy as np

from .errors import InsufficientData, InvalidInput, InvalidParameter
from .graph import BiregularTree, Lattice, encode_key
from .walkers import PrefixDistribution, WalkKind, _walk

_ZERO = Fraction(0)

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


def total_variation(p: PrefixDistribution, q: PrefixDistribution) -> Fraction:
    """Half the L1 gap between two prefix laws on the same horizon, with
    the short-output masses compared as one extra outcome."""
    if p.horizon != q.horizon:
        raise InvalidInput(f"horizon mismatch: {p.horizon} vs {q.horizon}")
    keys = set(p.entries) | set(q.entries)
    acc = sum((abs(p.prob(k) - q.prob(k)) for k in keys), _ZERO)
    acc += abs(p.short_mass - q.short_mass)
    return acc / 2


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


class FrequencyEstimate(NamedTuple):
    right_fraction: float
    std_error: float
    moves: int


def move_frequency(traces, phase: Optional[int] = None) -> FrequencyEstimate:
    """Empirical right-move probability over cursor traces, counting only
    moves made at positions >= 1 (moves at 0 are forced) and optionally
    only at positions of the given parity.  The error is binomial."""
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
    one thread.  Replica i draws from a generator seeded by
    ``replica_seed(master_seed, i)``."""
    kind = WalkKind(kind)
    if not isinstance(replicas, int) or replicas < 1:
        raise InvalidParameter("need at least one replica")
    if not isinstance(horizon, int) or horizon < 0:
        raise InvalidParameter("horizon must be a nonnegative integer")
    rows = tuple(
        _replica(kind, graph, start, horizon, np.random.default_rng(replica_seed(master_seed, i)))
        for i in range(replicas)
    )
    if config is None:
        config = {
            "walk": kind.value,
            "start": encode_key(start),
            "horizon": horizon,
            "replicas": replicas,
        }
    return ExperimentReport(dict(config), master_seed, rows, _aggregate(rows))


def _replica(kind, graph, start, horizon, rng) -> WalkStatistics:
    if isinstance(graph, Lattice) and graph.pitch == 1 and kind in (WalkKind.SRW, WalkKind.NBRW):
        returns, last, disp = _lattice_run(kind, graph, start, horizon, rng)
        return WalkStatistics(horizon, returns, last, disp)
    if isinstance(graph, BiregularTree) and start == () and kind in (
        WalkKind.SRW,
        WalkKind.NBRW,
    ):
        return _tree_run(kind, graph, horizon, rng)
    return _generic_replica(kind, graph, start, horizon, rng)


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
    return return_statistics(chain((start,), _walk(kind, graph, start, horizon, rng)), start, graph)


_CHUNK = 1 << 15


def _nbrw_chain(u, prev):
    """Directions of a non-backtracking lattice walk from its raw draws
    ``u`` in [0, 2d - 1), given the direction ``prev`` taken before
    ``u[0]``.  Direction t is ``u_t + b_t`` with
    ``b_t = [u_t >= dir_{t-1} ^ 1]``: the draw skips the reversal of the
    last direction.  Given ``u_{t-1}`` and ``u_t``, ``b_t`` is constant
    0, constant 1, ``b_{t-1}`` or its negation, and at t = 0 it is a
    constant, so each ``b_t`` is the value of the last constant flipped
    once per negation since."""
    # b_t when b_{t-1} is 0 and when it is 1
    lo = np.empty(len(u), dtype=bool)
    hi = np.empty(len(u), dtype=bool)
    lo[0] = hi[0] = u[0] >= prev ^ 1
    np.greater_equal(u[1:], u[:-1] ^ 1, out=lo[1:])
    np.greater_equal(u[1:], (u[:-1] + 1) ^ 1, out=hi[1:])
    last = np.maximum.accumulate(np.arange(len(u)) * (lo == hi))
    flips = np.logical_xor.accumulate(lo > hi)
    return u + ((lo ^ flips)[last] ^ flips)


def _lattice_run(kind, lat, start, horizon, rng, checkpoints=None):
    """Chunked lattice walk resolved with array operations: each chunk's
    directions are drawn at once (the non-backtracking chain through
    ``_nbrw_chain``), then each axis's offsets from the chunk start are a
    cumulative sum and origin hits are the steps where every axis sits on
    its target.  Optionally records cumulative return counts at the given
    step checkpoints."""
    d = lat.d
    two_d = 2 * d
    # the change of axis a under each direction: +e_a is 2a, -e_a is 2a + 1
    axis_steps = np.zeros((d, two_d), dtype=np.int32)
    for a in range(d):
        axis_steps[a, 2 * a] = 1
        axis_steps[a, 2 * a + 1] = -1
    origin = lat.coordinates(start)
    carry = list(origin)
    returns = 0
    last = None
    done = 0
    prev = -1
    marks = sorted(checkpoints) if checkpoints else []
    marked = {}
    boundaries = sorted(set(marks + [horizon]))
    for hi in boundaries:
        while done < hi:
            n = min(_CHUNK, hi - done)
            if kind is WalkKind.SRW:
                dirs = rng.integers(0, two_d, size=n)
            else:
                dirs = np.empty(n, dtype=np.int64)
                i0 = 0
                if prev < 0:
                    prev = dirs[0] = int(rng.integers(two_d))
                    i0 = 1
                if n > i0:
                    dirs[i0:] = _nbrw_chain(rng.integers(0, two_d - 1, size=n - i0), prev)
                    prev = int(dirs[-1])
            # offsets from the chunk start are at most n <= _CHUNK = 2^15
            # in size, so they fit in int32
            offsets = [np.cumsum(axis_steps[a][dirs], dtype=np.int32) for a in range(d)]
            target = [o - c for o, c in zip(origin, carry)]
            hits = np.flatnonzero(offsets[0] == target[0])
            for a in range(1, d):
                hits = hits[offsets[a][hits] == target[a]]
            if len(hits):
                returns += len(hits)
                last = done + int(hits[-1]) + 1
            carry = [c + int(off[-1]) for c, off in zip(carry, offsets)]
            done += n
        if hi in marks:
            marked[hi] = returns
    disp = math.sqrt(sum((c - o) ** 2 for c, o in zip(carry, origin)))
    if checkpoints is None:
        return returns, last, disp
    return returns, last, disp, marked


def _is_int(x) -> bool:
    """Any integer type, numpy's included, but not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def lattice_return_counts(kind, d, horizons, replicas, master_seed) -> dict:
    """Per-replica cumulative return counts of one growing lattice walk,
    read off at each requested horizon.  Pairing the counts across
    horizons on the same path gives a low-variance growth diagnostic."""
    kind = WalkKind(kind)
    if not _is_int(replicas) or replicas < 1:
        raise InvalidParameter("need at least one replica")
    horizons = set(horizons)
    if not horizons or not all(_is_int(h) and h >= 1 for h in horizons):
        raise InvalidParameter("horizons must be integers >= 1")
    replicas = int(replicas)
    horizons = sorted(int(h) for h in horizons)
    lat = Lattice(d)
    start = lat.default_start()
    out = {h: [] for h in horizons}
    top = horizons[-1]
    for i in range(replicas):
        rng = np.random.default_rng(replica_seed(master_seed, i))
        _, _, _, marked = _lattice_run(kind, lat, start, top, rng, checkpoints=horizons)
        for h in horizons:
            out[h].append(marked[h])
    return out
