"""The Monte Carlo kernels: the walks of ``sample_path`` and
``stats.monte_carlo``, drawn from a caller-supplied
``numpy.random.Generator``.

Every kernel makes the draws of the samplers in ``laws``, one bounded
integer per step, and leaves the generator in the state their scalar
calls would.  ``_walk`` calls a sampler per step and reads the
generator's 32-bit outputs in blocks through ``_Draws``.  On a finite
graph whose vertices all have one degree, ``_move_table`` tabulates a
sampler's move under each draw, so that ``_table_walk`` runs walks
without calling the sampler per step.  ``_lattice_offsets`` draws the
walks on lattices, and ``_tree_counts`` those below a tree's root, a
chunk of steps at a time.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, NoLegalMove, is_int
from .graph import ExplicitGraph, Lattice
from .laws import HalfEdgeState, WalkKind, _check_start, _require_kind_graph
from .laws import nbrw_step, nbrw_step_edge, srw_step, wrw_step


def is_backtrack_free(seq) -> bool:
    seq = tuple(seq)
    return all(seq[i - 1] != seq[i + 1] for i in range(1, len(seq) - 1))


class _Draws:
    """The scalar draws of a ``numpy.random.Generator``, on any bit
    generator, made from its 32-bit outputs read ``block`` at a time by
    ``integers(0, 2**32, size=block)``, which numpy makes as one
    ``next_uint32`` per output.  ``integers(k)``, for k up to 2**32,
    returns what ``rng.integers(k)`` would, by numpy's rule: it maps an
    output x to ``x * k >> 32`` and draws again while the low 32 bits of
    ``x * k`` fall below ``2**32 % k`` (Lemire's method), and draws
    nothing when k is 1.  ``close()`` leaves the generator in the state
    those scalar calls would have left; until then it is ahead of it."""

    def __init__(self, rng, block: int):
        self._rng = rng
        self._block = block
        self._state = None
        self._outputs = []
        self._used = 0

    def integers(self, k: int) -> int:
        if k == 1:
            return 0
        while True:
            i = self._used
            if i == len(self._outputs):
                self._state = self._rng.bit_generator.state
                self._outputs = self._rng.integers(0, 1 << 32, size=self._block).tolist()
                i = 0
            self._used = i + 1
            m = self._outputs[i] * k
            low = m & 0xFFFFFFFF
            if low >= k or low >= 0x100000000 % k:
                return m >> 32

    def close(self):
        # outputs drawn but not used are put back: the state before their
        # block, then the used ones drawn again
        if self._used < len(self._outputs):
            self._rng.bit_generator.state = self._state
            self._rng.integers(0, 1 << 32, size=self._used)


class _Trusted:
    """A graph seen through its unchecked neighbor lookup, ``_adjacent``
    where the graph has one: a walk from a checked start only meets keys
    that the graph's own lookups built."""

    __slots__ = ("neighbors",)

    def __init__(self, graph):
        self.neighbors = getattr(graph, "_adjacent", graph.neighbors)


# the most steps, or 32-bit outputs, that one bulk numpy call resolves, which
# bounds their memory: a _Draws block, a _table_walk or _tree_counts block,
# and a chunk of the lattice and tree kernels
_CHUNK = 1 << 13


def _walk(kind, graph, start, n: int, rng):
    """Yield the vertices at steps 1..n of one walk from ``start``, each
    step drawn by the sampler for ``kind``.  The first non-backtracking
    step has no history and uses the uniform rule.

    The start is the only key checked; later steps look up neighbors
    without a check.  The draws come from a ``_Draws`` of ``min(n,
    _CHUNK)`` outputs a block, so a walk of up to ``_CHUNK`` steps with no
    bound-1 step and no rejected output uses every output it draws, and
    its close puts none back.  The generator reaches the state the scalar
    calls would leave when the walk ends, is closed or raises; do not draw
    from ``rng`` while the walk is open."""
    kind, mg = _require_kind_graph(kind, graph)
    if n < 1:
        return
    _check_start(graph, start)
    graph = graph if mg else _Trusted(graph)
    rng = _Draws(rng, min(n, _CHUNK))
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
    finally:
        rng.close()


def _tree_counts(kind, tree, start, n: int, rng):
    """``(returns, last, depth)`` of an n-step srw or nbrw walk on a
    ``BiregularTree`` from the vertex ``start``: the steps 1..n at
    ``start``, the last of them (None if none) and the end depth, at O(1)
    a step, with no key built.  Step i leaves a depth of parity
    ``len(start) + i``, so its draw bound, the degree (k1 at even depths,
    the root included, k2 at odd ones; one less for nbrw after step 0),
    is known before the walk, and each block of up to ``_CHUNK`` steps is
    one bulk ``integers`` call, with the scalar calls' draws and end
    state.  Draw d takes the root to child d and any other vertex up for
    d = 0 and to child d - 1 otherwise.  srw keeps its depth and
    ``shared``, the number of leading branch indices its key shares with
    ``start``; it is at ``start`` when both are ``len(start)``.  nbrw never
    revisits a vertex, so it has no returns; it climbs on its leading run
    of zero draws, at most to the root, and then only descends."""
    nbrw = WalkKind(kind) is WalkKind.NBRW
    home = depth = shared = len(start)
    # _CHUNK is even, so every block has the first one's bounds, but for
    # nbrw's first step
    bounds = np.tile((tree.k1, tree.k2), _CHUNK // 2 + 1)[home & 1 :][:_CHUNK] - nbrw
    first = np.r_[bounds[0] + nbrw, bounds[1:]]
    returns, last, climb = 0, None, 0
    for done in range(0, n, _CHUNK):
        draws = rng.integers(0, (bounds if done else first)[: n - done])
        if nbrw:
            # the leading run of zero draws, while no block has ended it
            if climb == done:
                down = np.flatnonzero(draws)
                climb += int(down[0]) if len(down) else len(draws)
            continue
        for i, d in enumerate(draws.tolist(), done + 1):
            if depth and not d:
                depth -= 1
                if shared > depth:
                    shared = depth
            else:
                if shared == depth < home and d - (depth > 0) == start[depth]:
                    shared += 1
                depth += 1
            if depth == shared == home:
                returns += 1
                last = i
    if nbrw:
        return 0, None, home + n - 2 * min(climb, home)
    return returns, last, depth


class _Fixed(int):
    """A generator stand-in whose every draw is itself."""

    def integers(self, k):
        return self


# the fewest steps per entry, over all walks of a call, that take a move
# table.  Its build makes one sampler call per entry, at 1-2 times the cost
# of a stepper step, so on a 2-vCPU host tables paid back from about 2 steps
# an entry, vertex nbrw's from about 3
_TABLE_SHARE = 2
# the most entries of a k-step move table.  The table is built on every
# monte_carlo and sample_path call, and at 2**15 entries its build (about
# 1 ms on a 2-vCPU host) cost a third of what it saved on 3 x 20,000 steps
_JUMP_ENTRIES = 1 << 12
# the shortest walk that takes a k-step table.  The build and the k-step
# loop's extra numpy calls per block cost about 15 us on a 2-vCPU host,
# which walks of 2,000 steps on K4 and on cubic graphs just earn back
_JUMP_STEPS = 1 << 11


class _MoveTable(NamedTuple):
    """A ``_move_table`` over numbered states, of one draw bound B, with
    the k that ``_move_table`` chose for the walks it serves: draw d
    takes the first step to ``first[d]`` and state s to ``rows[s][d]``, and
    s sits at ``vertex[s]``, which ``home[s]`` says is the start.  Entry
    ``e = s * B**k + i`` of the k-step table is state s followed by the
    draws d_1..d_k with ``i = sum(d_j * B**(j - 1))``: ``spans[e]`` are
    the k states they pass, and ``jump[s][i]`` is the last of them.  At
    k = 1 the walk reads ``rows`` alone, ``jump`` is empty and ``spans``
    is None."""

    first: list
    rows: list
    vertex: list
    home: np.ndarray
    k: int
    jump: list
    spans: np.ndarray


def _move_table(kind, graph, start, n: int, walks: int = 1):
    """The moves of ``walks`` walks of n steps from ``start`` on a finite
    graph where every state has the same draw bound, as a ``_MoveTable``;
    row entry d of a state is the state the sampler moves to on draw d.
    The bound B is the degree for srw, one less for nbrw after its first
    step, and ``mdegree * L`` for wrw.  The table is built when the walks'
    ``walks * n`` steps give each of its S * B entries ``_TABLE_SHARE``
    steps, by one sampler call an entry once the start is looked up.  The
    first step reads the start's row, but nbrw's, with no history, reads a
    first row of one entry per neighbor.  Its k is the largest whose
    S * B**k entries fit ``walks * n // 8`` and ``_JUMP_ENTRIES``, counting
    B as at least 2, so a bound-1 table, which draws nothing, gets a finite
    k too; walks shorter than ``_JUMP_STEPS`` keep k = 1.  The k-step table
    is composed from the rows by numpy, with no further sampler calls.
    Refuses a kind and graph that do not match, as ``_walk`` does; then
    None, with ``start`` not looked up, on a lattice or a tree, on a graph
    whose degrees differ, for a bound below 1 and for too few steps."""
    kind, mg = _require_kind_graph(kind, graph)
    if not (mg or isinstance(graph, ExplicitGraph)):
        return None
    degree = graph.mdegree if mg else graph.degree
    vertices = graph.vertices()
    deg = degree(vertices[0])
    nbrw = kind is WalkKind.NBRW
    # nbrw's steps after the first exclude the arriving half-edge
    bound = deg * graph.resistance_lcm if kind is WalkKind.WRW else deg - nbrw
    # a state is a vertex for srw and wrw and a dart, one per half-edge, for nbrw
    size = len(vertices) * (deg if nbrw else 1)
    if bound < 1 or size * bound * _TABLE_SHARE > walks * n or any(degree(v) != deg for v in vertices):
        return None
    if not nbrw:
        states = vertex = vertices
        # a wrw move leaves the walker at its half-edge's end head_end
        step = (lambda v, rng: graph.endpoint(*wrw_step(graph, v, rng)[:2])) if mg else partial(srw_step, graph)
    elif mg:
        states = [HalfEdgeState(e.edge_id, end) for e in graph.edges() for end in (0, 1)]
        vertex, step = [graph.endpoint(*s) for s in states], partial(nbrw_step_edge, graph)
    else:
        states = [(v, w) for v in vertices for w in graph.neighbors(v)]
        vertex, step = [w for _, w in states], lambda s, rng: (s[1], nbrw_step(graph, *s, rng))
    index = {s: i for i, s in enumerate(states)}
    _check_start(graph, start)
    rows = [[index[step(s, _Fixed(d))] for d in range(bound)] for s in states]
    first = [index[step((None, start), _Fixed(d))] for d in range(deg)] if nbrw else rows[index[start]]
    budget = min(walks * n // 8, _JUMP_ENTRIES) if n >= _JUMP_STEPS else 0
    k, jump, spans = 1, [], None
    while size * max(bound, 2) ** (k + 1) <= budget:
        k += 1
    if k > 1:
        # ends[s, i] is the state j steps after s on the draws of i mod B**j,
        # which is step j of every entry whose index ends in those j digits
        moves = ends = np.array(rows)
        spans = np.empty((size, bound**k, k), np.intp)
        for j in range(1, k + 1):
            if j > 1:
                # a new last draw d is the digit of B**(j - 1), so its axis goes first
                ends = moves[ends].transpose(0, 2, 1).reshape(size, -1)
            spans[..., j - 1].reshape(size, -1, bound**j)[:] = ends[:, None]
        jump, spans = ends.tolist(), spans.reshape(-1, k)
    return _MoveTable(first, rows, vertex, np.array([v == start for v in vertex]), k, jump, spans)


def _table_walk(table, n: int, rng):
    """Yield the states at steps 1..n of a ``_move_table`` walk in blocks:
    the first step by a scalar ``rng.integers(len(first))``, then blocks of
    up to ``_CHUNK`` steps by bulk draws, which numpy makes as the scalar
    calls would, leaving the generator in the same state.  At k = 1 a
    block is a list, one row lookup per draw.  Otherwise it is an intp
    array: each k draws make one k-step entry, ``table.jump`` is looked up
    once per entry, and one gather from ``table.spans`` gives the block's
    states; the block's last entry may hold fewer than k draws.  This is
    the one table loop for every walk kind, on any bit generator."""
    first, rows, k, jump, spans = table.first, table.rows, table.k, table.jump, table.spans
    s = first[int(rng.integers(len(first)))]
    yield [s]
    bound = len(rows[0])
    if k == 1:
        for done in range(1, n, _CHUNK):
            draws = rng.integers(0, bound, size=min(_CHUNK, n - done)).tolist()
            yield [s := rows[s][d] for d in draws]
        return
    stride, digits = bound**k, bound ** np.arange(k)
    for done in range(1, n, _CHUNK):
        draws = rng.integers(0, bound, size=min(_CHUNK, n - done))
        # the last entry's missing draws count as 0, which leaves the states
        # of its drawn ones as they are
        index = np.concatenate((draws, np.zeros(-len(draws) % k, draws.dtype))).reshape(-1, k) @ digits
        # the state before each entry
        starts = [s, *[s := jump[s][i] for i in index[:-1].tolist()]]
        states = spans[np.fromiter(starts, np.intp, len(index)) * stride + index].ravel()[: len(draws)]
        s = int(states[-1])
        yield states


def sample_path(kind, graph, start, n: int, rng) -> tuple:
    """Length-(n+1) vertex sequence started at ``start``; each step drawn
    from the kernel for ``kind``.  The first non-backtracking step uses
    the uniform rule.  Where ``_on_lattice_kernel`` holds, the path is
    drawn in bulk by ``_lattice_offsets``, and it is read off ``_table_walk``
    where ``_move_table`` builds a table for an n-step walk, with the
    scalar samplers' draws and end state.  A 0-step path is ``(start,)``,
    start unchecked."""
    if not is_int(n) or n < 0:
        raise InvalidInput("path length must be a nonnegative integer")
    kind, n = WalkKind(kind), int(n)
    if not n or not _on_lattice_kernel(kind, graph, start):
        table = _move_table(kind, graph, start, n)
        if table is None:
            return (start, *_walk(kind, graph, start, n, rng))
        vertex = table.vertex
        if table.k == 1:
            return (start, *[vertex[s] for block in _table_walk(table, n, rng) for s in block])
        # a k-step block is an array, whose vertices one gather reads
        vertex, path = np.fromiter(vertex, object, len(vertex)), [start]
        for block in _table_walk(table, n, rng):
            path += vertex[block].tolist()
        return tuple(path)
    path = [start]
    carry = graph.coordinates(start)
    for packed in _lattice_offsets(kind, graph, n, rng):
        columns = []
        for c, off in zip(carry, _unpack(packed, graph.d)):
            lo = int(off.min())
            # one int object per coordinate value of the chunk, shared by
            # every key of the chunk that has it, read by one gather
            values = np.fromiter(range(c + lo, c + int(off.max()) + 1), object)
            columns.append(values[off - lo].tolist())
        path.extend(columns[0] if graph.d == 1 else zip(*columns))
        carry = [col[-1] for col in columns]
    return tuple(path)


def _on_lattice_kernel(kind: WalkKind, graph, start) -> bool:
    """Whether ``_lattice_offsets`` runs this walk: srw or nbrw on Z^d,
    nbrw from an anchor of a subdivided lattice whose corridors fit in a
    chunk, and srw from an anchor of one with pitch 2.  Looking up
    ``start`` raises as the generic stepper's start check does."""
    if kind is WalkKind.WRW or not isinstance(graph, Lattice):
        return False
    pitch = graph.pitch
    if pitch == 1:
        return True
    # a chunk holds whole corridors and at most _CHUNK steps
    if pitch > _CHUNK or (kind is WalkKind.SRW and pitch > 2):
        return False
    return not any(c % pitch for c in graph.coordinates(start))


# a packed lattice offset counts _RADIX ** a per step along axis a.  Each
# axis of a chunk's offsets is at most _CHUNK < _RADIX / 2 in size, so the
# packing is one-to-one, and below 2^63 for d <= 4, the most ``Lattice``
# allows
_BITS = 15
_RADIX = 1 << _BITS


def _pack(offsets) -> int:
    """One int for a lattice offset, below ``_RADIX / 2`` in size on every axis."""
    return sum(o << _BITS * a for a, o in enumerate(offsets))


def _unpack(packed, d: int) -> list:
    """The d per-axis offsets of a ``_pack`` value, or of an int64 array
    of them: biased by ``_RADIX / 2`` on every axis, each axis is one
    base-``_RADIX`` digit."""
    half = _RADIX >> 1
    biased = packed + _pack([half] * d)
    return [(biased >> _BITS * a & _RADIX - 1) - half for a in range(d)]


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


def _lattice_offsets(kind: WalkKind, lat: Lattice, n: int, rng):
    """Yield an n-step srw or nbrw walk from an anchor of ``lat``, whose
    pitch is at most ``_CHUNK``, in chunks of whole corridors, at most
    ``_CHUNK`` steps, each chunk as one int64 array of the ``_pack``ed
    offsets from the chunk's start: one gather from a table of
    ``±_RADIX ** a`` per direction and one cumsum, for any d.  Direction 2a is
    +e_a and 2a + 1 is -e_a, the order of ``Lattice.neighbors``, and the
    draws are those of the scalar samplers: ``integers(2d)`` per simple
    step at an anchor and ``integers(2)`` at a midpoint of pitch 2, whose
    draw keeps the axis of the step before; one scalar ``integers(2d)``
    for the first non-backtracking step, then ``integers(2d - 1)`` per
    anchor, resolved by ``_nbrw_chain``.  A corridor point's one legal
    move draws ``integers(1)``, which is nothing, so each non-backtracking
    direction repeats for a corridor's ``pitch`` steps.  numpy makes the
    same draws for any split of a bulk call, so the chunks leave no seam."""
    d, pitch = lat.d, lat.pitch
    two_d = 2 * d
    steps = np.array([s << _BITS * a for a in range(d) for s in (1, -1)], dtype=np.int64)
    prev = -1
    chunk = _CHUNK - _CHUNK % pitch
    for done in range(0, n, chunk):
        m = min(chunk, n - done)
        if kind is WalkKind.SRW:
            dirs = rng.integers(0, two_d if pitch == 1 else np.tile((two_d, 2), (m + 1) // 2)[:m], size=m)
            if pitch == 2:
                dirs[1::2] |= dirs[: m - 1 : 2] & ~1
        else:
            dirs = np.empty(-(-m // pitch), dtype=np.int64)
            i0 = 0
            if prev < 0:
                prev = dirs[0] = int(rng.integers(two_d))
                i0 = 1
            if two_d == 2:
                # Z^1 leaves one legal move, whose integers(1) draws
                # nothing: the walk goes on in its first direction
                dirs[i0:] = prev
            elif len(dirs) > i0:
                dirs[i0:] = _nbrw_chain(rng.integers(0, two_d - 1, size=len(dirs) - i0), prev)
                prev = int(dirs[-1])
            if pitch > 1:
                dirs = np.repeat(dirs, pitch)[:m]
        yield np.cumsum(steps[dirs])
