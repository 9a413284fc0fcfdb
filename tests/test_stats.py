import json
import math
from collections import Counter
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest

from nbwalk import (
    InsufficientData,
    InvalidInput,
    InvalidParameter,
    PrefixDistribution,
    biregular_tree,
    chain_for_biregular,
    chain_for_regular,
    contract,
    counterexample_graph,
    enumerate_prefix_distribution,
    erase_backtracks,
    graph_from_spec,
    lattice,
    lattice_return_counts,
    monte_carlo,
    regular_tree,
    return_statistics,
    sample_path,
    subdivide,
    subdivided_lattice,
    total_variation,
)
from nbwalk import stats, walkers
from nbwalk.graph import WeightedMultigraph
from nbwalk.stats import _CHUNK, _generic_replica, _lattice_run, _replica, _table_run, _tree_run, replica_seed
from nbwalk.walkers import _JUMP_ENTRIES, _JUMP_STEPS, _RADIX, _TABLE_SHARE, WalkKind, _move_table

from helpers import (
    complete_bipartite,
    cycle,
    k4,
    lattice_run_reference,
    move_frequency,
    rng,
    simulate_chain,
    subdivided_starts,
    theta_graph,
    tree_counts_reference,
    tree_run_reference,
    two_loop_graph,
    walk_reference,
)
from test_golden import CORRIDOR_K4, CUBIC10

# short walks, one chunk exactly, and walks crossing one and two chunk boundaries
HORIZONS = (0, 1, 2, 5, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 5)


def _dist(horizon, entries, short=0):
    return PrefixDistribution(horizon, entries, Fraction(short))


def test_tv_identical_and_disjoint():
    p = _dist(1, {(0, 1): Fraction(1, 2), (0, 2): Fraction(1, 2)})
    q = _dist(1, {(0, 3): Fraction(1)})
    assert total_variation(p, p) == 0
    assert total_variation(p, q) == 1


def test_tv_short_mass_is_an_outcome():
    p = _dist(1, {(0, 1): Fraction(1, 2)}, Fraction(1, 2))
    q = _dist(1, {(0, 1): Fraction(1)})
    assert total_variation(p, q) == Fraction(1, 2)


def test_tv_symmetry_and_triangle():
    r = rng(64)
    for _ in range(40):
        dists = []
        for _ in range(3):
            w = [Fraction(int(x), 100) for x in r.multinomial(100, [0.25, 0.25, 0.25, 0.25])]
            dists.append(
                _dist(1, {(0, 1): w[0], (0, 2): w[1], (0, 3): w[2]}, w[3])
            )
        a, b, c = dists
        assert total_variation(a, b) == total_variation(b, a)
        assert 0 <= total_variation(a, b) <= 1
        assert total_variation(a, c) <= total_variation(a, b) + total_variation(b, c)


def test_tv_horizon_mismatch():
    p = _dist(1, {(0, 1): Fraction(1)})
    q = _dist(2, {(0, 1, 0): Fraction(1)})
    with pytest.raises(InvalidInput):
        total_variation(p, q)


def test_tv_srw_vs_nbrw_k4():
    g = k4()
    srw = enumerate_prefix_distribution("srw", g, 0, 2)
    nbrw = enumerate_prefix_distribution("nbrw", g, 0, 2)
    assert total_variation(srw, nbrw) == Fraction(1, 3)


def test_return_statistics_examples():
    s = return_statistics([0, 1, 0, 1, 0], 0)
    assert (s.returns_to_origin, s.last_return_time, s.steps) == (2, 4, 4)
    mono = return_statistics(sample_path("nbrw", lattice(1), 0, 50, rng(3)), 0, lattice(1))
    assert mono.returns_to_origin == 0 and mono.last_return_time is None
    assert mono.end_displacement == 50.0
    single = return_statistics([0], 0)
    assert single.returns_to_origin == 0 and single.last_return_time is None
    path = (0, 1, 0, 1, 0, -1)
    assert return_statistics((v for v in path), 0, lattice(1)) == return_statistics(path, 0, lattice(1))
    with pytest.raises(InvalidInput):
        return_statistics((v for v in ()), 0)


def test_replica_seed_mixing():
    seeds = {replica_seed(123, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert replica_seed(123, 0) != replica_seed(124, 0)
    assert all(0 <= s < 2**64 for s in seeds)


def test_monte_carlo_nbrw_line_never_returns():
    rep = monte_carlo("nbrw", lattice(1), 0, 500, 40, 99)
    assert all(r.returns_to_origin == 0 for r in rep.rows)
    assert rep.aggregates["returned_fraction"] == 0.0


def test_monte_carlo_deterministic_and_parallel_identical():
    g = lattice(2)
    a = monte_carlo("srw", g, (0, 0), 2000, 16, 4242)
    b = monte_carlo("srw", g, (0, 0), 2000, 16, 4242)
    assert a.json_text() == b.json_text()
    assert a.csv_text() == b.csv_text()
    d = monte_carlo("srw", g, (0, 0), 2000, 16, 4243)
    assert d.csv_text() != a.csv_text()


def test_monte_carlo_aggregates_recomputable():
    rep = monte_carlo("nbrw", lattice(2), (0, 0), 3000, 30, 777)
    rows = rep.rows
    n = len(rows)
    mean = sum(r.returns_to_origin for r in rows) / n
    frac = sum(1 for r in rows if r.returns_to_origin > 0) / n
    assert rep.aggregates["mean_returns"] == mean
    assert rep.aggregates["returned_fraction"] == frac
    assert rep.aggregates["replicas"] == n
    lines = rep.csv_text().strip().splitlines()
    assert lines[0] == "replica,steps,returns,last_return,displacement"
    assert len(lines) == n + 1


def test_monte_carlo_refuses_bools_and_takes_numpy_integers():
    for horizon, replicas in [(True, 3), (10, True)]:
        with pytest.raises(InvalidParameter):
            monte_carlo("srw", k4(), 0, horizon, replicas, 1)
    for seed in [True, -1, 2**64, 2**70, 1.0]:
        with pytest.raises(InvalidParameter, match="master seed"):
            monte_carlo("srw", k4(), 0, 10, 3, seed)
    plain = monte_carlo("srw", k4(), 0, 300, 3, 5)
    wide = monte_carlo("srw", k4(), 0, 300, 3, np.int64(5))
    assert (wide.json_text(), wide.csv_text()) == (plain.json_text(), plain.csv_text())
    assert type(wide.master_seed) is int
    assert monte_carlo("srw", k4(), 0, 10, 1, 2**64 - 1).master_seed == 2**64 - 1
    # the generic kernel and both fast paths write the same bytes
    for g, start in [(k4(), 0), (lattice(2), (0, 0)), (regular_tree(3), ())]:
        plain = monte_carlo("srw", g, start, 300, 3, 9)
        wide = monte_carlo("srw", g, start, np.int64(300), np.int64(3), 9)
        assert (wide.json_text(), wide.csv_text()) == (plain.json_text(), plain.csv_text())


def test_monte_carlo_refuses_a_start_the_graph_does_not_have_at_every_horizon():
    # the lattice, tree and generic kernels all look the start up first
    mg, _ = contract(theta_graph())
    cases = [
        ("srw", k4(), 99),
        ("srw", lattice(2), (1,)),
        ("nbrw", lattice(2), 5),
        ("srw", regular_tree(3), (9,)),
        ("nbrw", regular_tree(3), (0, 5)),
        ("wrw", mg, "nowhere"),
    ]
    for kind, g, start in cases:
        for horizon in (0, 1, 50):
            with pytest.raises(InvalidParameter):
                monte_carlo(kind, g, start, horizon, 1, 0)
    # the kind and graph are checked before the start, on graphs that take
    # the move table and on graphs that do not
    with pytest.raises(InvalidInput):
        monte_carlo("wrw", lattice(2), "nowhere", 0, 1, 0)
    for kind, g, start in [("srw", mg, "nowhere"), ("wrw", k4(), 99)]:
        for horizon in (0, 1, 50):
            with pytest.raises(InvalidInput):
                monte_carlo(kind, g, start, horizon, 1, 0)


def test_fast_lattice_agrees_with_generic_kernels():
    # the lattice fast path makes the same draws as the generic stepper,
    # so the same replica seeds give the same rows
    for d in (1, 2, 3):
        g = lattice(d)
        start = g.default_start()
        for kind in (WalkKind.SRW, WalkKind.NBRW):
            for i in range(20):
                seed = replica_seed(5, i)
                fast = _replica(kind, g, start, 3000, rng(seed))
                slow = _generic_replica(kind, g, start, 3000, rng(seed))
                assert fast == slow, (d, kind, i)
    # one walk per kind across a chunk boundary
    g = lattice(3)
    for kind in (WalkKind.SRW, WalkKind.NBRW):
        seed = replica_seed(6, 0)
        assert _replica(kind, g, (0, 0, 0), _CHUNK + 5, rng(seed)) == _generic_replica(
            kind, g, (0, 0, 0), _CHUNK + 5, rng(seed)
        ), kind


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_lattice_run_equals_per_step_reference(d):
    g = lattice(d)
    away = 3 if d == 1 else (3,) + (-1,) * (d - 1)
    for kind in (WalkKind.SRW, WalkKind.NBRW):
        for start in (g.default_start(), away):
            for h in HORIZONS:
                seed = replica_seed(d, h)
                fast = _lattice_run(kind, g, start, h, rng(seed))
                assert fast == lattice_run_reference(kind, g, start, h, rng(seed)), (kind, start, h)


class StubDraws:
    """A generator that hands out a fixed list of draws, in order, to
    scalar and bulk ``integers`` calls alike."""

    def __init__(self, draws):
        self.draws = np.array(draws, dtype=np.int64)
        self.used = 0

    def integers(self, low, high=None, size=None):
        out = self.draws[self.used : self.used + (size or 1)]
        assert len(out) == (size or 1) and (out < (low if high is None else high)).all()
        self.used += len(out)
        return out if size else int(out[0])


@pytest.mark.parametrize(
    "kind, start, draws, expected",
    [
        # _RADIX steps of -e_1, then one +e_2: the last chunk's offset
        # e_2 packs as the target _RADIX * e_1 does, but is no return
        (WalkKind.SRW, (0, 0), [1] * _RADIX + [2], (0, None, math.hypot(_RADIX, 1))),
        (WalkKind.NBRW, (0, 0), [1] + [0] * (_RADIX - 1) + [1], (0, None, math.hypot(_RADIX, 1))),
        # straight full chunks along the top axis of Z^4: out and back,
        # whose one return is at the far end of the second chunk, and on
        (WalkKind.SRW, (0, 0, 0, 0), [6] * _CHUNK + [7] * _CHUNK, (1, 2 * _CHUNK, 0.0)),
        (WalkKind.SRW, (0, 0, 0, 0), [7] * _CHUNK + [6] * _CHUNK, (1, 2 * _CHUNK, 0.0)),
        (WalkKind.NBRW, (0, 0, 0, -_CHUNK), [6] * (2 * _CHUNK), (0, None, 2.0 * _CHUNK)),
    ],
    ids=["srw-alias", "nbrw-alias", "srw-top-up", "srw-top-down", "nbrw-top-up"],
)
def test_lattice_run_on_set_draws_equals_per_step_reference(kind, start, draws, expected):
    g = lattice(len(start))
    fast, ref = StubDraws(draws), StubDraws(draws)
    assert _lattice_run(kind, g, start, len(draws), fast) == expected
    assert lattice_run_reference(kind, g, start, len(draws), ref) == expected
    assert fast.used == ref.used == len(draws)


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_subdivided_lattice_replica_equals_generic(d, t, monkeypatch):
    # chunk 7 is no multiple of the pitch (2, 3 or 4), so the kernel's
    # chunks shrink to whole corridors and the longer horizons cross seams
    chunk = 7
    monkeypatch.setattr("nbwalk.walkers._CHUNK", chunk)
    g = subdivided_lattice(d, t)
    pitch = t + 1
    horizons = (0, 1, 2, 3 * pitch - 1, 3 * pitch, 3 * pitch + 1, 4 * chunk + 1)
    for kind in (WalkKind.SRW, WalkKind.NBRW):
        for start in subdivided_starts(g):
            for make in (np.random.PCG64, np.random.MT19937):
                fast, slow = np.random.Generator(make(d + 4 * t)), np.random.Generator(make(d + 4 * t))
                for n in horizons:
                    row = _replica(kind, g, start, n, fast)
                    assert row == _generic_replica(kind, g, start, n, slow), (kind, start, n)
                    np.testing.assert_equal(fast.bit_generator.state, slow.bit_generator.state)


@pytest.mark.parametrize("kind, d, t", [(WalkKind.SRW, 3, 1), (WalkKind.NBRW, 2, 2)])
def test_subdivided_lattice_replica_at_full_chunks_equals_generic(kind, d, t):
    g = subdivided_lattice(d, t)
    for start in subdivided_starts(g)[:2]:
        fast, slow = rng(d), rng(d)
        assert _replica(kind, g, start, _CHUNK + 5, fast) == _generic_replica(kind, g, start, _CHUNK + 5, slow)
        assert fast.bit_generator.state == slow.bit_generator.state


# every tree shape: k = 2, regular, and biregular with k2 = 2 and k2 > 2
ON_TREES = pytest.mark.parametrize(
    "tree",
    [regular_tree(2), regular_tree(3), regular_tree(5), biregular_tree(3, 2), biregular_tree(4, 3), biregular_tree(7, 2)],
    ids=["k2", "k3", "k5", "k3-2", "k4-3", "k7-2"],
)


@ON_TREES
def test_tree_run_equals_depth_loop_reference(tree):
    for kind in (WalkKind.SRW, WalkKind.NBRW):
        for h in HORIZONS:
            for seed in range(3):
                assert _tree_run(kind, tree, h, rng(seed)) == tree_run_reference(kind, tree, h, rng(seed)), (kind, h)


def _tree_starts(tree):
    """The root and one key at each depth 1..6, off the first branch."""
    limits = (tree.k1, *[tree.k2 - 1 if j % 2 else tree.k1 - 1 for j in range(1, 6)])
    key = tuple((2 * j + 1) % limit for j, limit in enumerate(limits))
    return [key[:depth] for depth in range(7)]


@ON_TREES
def test_tree_walk_below_the_root_equals_the_scalar_reference(tree):
    # _generic_replica sends every tree walk to walkers._tree_counts, which
    # counts depth and the start's shared prefix where the reference builds
    # root-path keys; it makes one bulk draw per block of steps, on any bit
    # generator.  The reference makes scalar calls, so one walk of the
    # longest horizon, with the generator's state taken after each
    # horizon's last step, serves every horizon
    horizons = (0, 1, 2, 1023, 1024, 1025)
    generators = {"pcg64": rng, "mt19937": lambda seed: np.random.Generator(np.random.MT19937(seed))}
    for start in _tree_starts(tree):
        for kind in (WalkKind.SRW, WalkKind.NBRW):
            for gen, make in generators.items():
                ref = make(len(start))
                path, states = [start], {0: ref.bit_generator.state}
                for v in walk_reference(kind, tree, start, horizons[-1], ref):
                    path.append(v)
                    if len(path) - 1 in horizons:
                        states[len(path) - 1] = ref.bit_generator.state
                for n in horizons:
                    want = return_statistics(path[: n + 1], start, tree)
                    for as_given in (kind, kind.value):
                        fast = make(len(start))
                        assert _generic_replica(as_given, tree, start, n, fast) == want, (start, as_given, gen, n)
                        np.testing.assert_equal(fast.bit_generator.state, states[n])


def test_long_tree_walk_below_the_root_equals_the_scalar_reference():
    # across many blocks of draws; on the 2-regular tree the walk stays
    # shallow, so the reference's O(depth) keys stay cheap, and it comes
    # back to its start often
    tree = regular_tree(2)
    start = _tree_starts(tree)[3]
    fast, ref = rng(11), rng(11)
    want = return_statistics((start, *walk_reference("srw", tree, start, 20_000, ref)), start, tree)
    assert want.returns_to_origin > 10
    assert _generic_replica("srw", tree, start, 20_000, fast) == want
    np.testing.assert_equal(fast.bit_generator.state, ref.bit_generator.state)


@ON_TREES
def test_key_free_tree_reference_equals_the_key_walk(tree):
    for start in _tree_starts(tree):
        for kind in (WalkKind.SRW, WalkKind.NBRW):
            for n in range(12):
                key, counts = rng(n), rng(n)
                want = return_statistics((start, *walk_reference(kind, tree, start, n, key)), start, tree)
                assert tree_counts_reference(kind, tree, start, n, counts) == want, (start, kind, n)
                assert counts.bit_generator.state == key.bit_generator.state


def _with_spare(gen, spare):
    """``gen`` holding ``spare`` as the high half kept from its last word."""
    state = gen.bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, spare
    gen.bit_generator.state = state
    return gen


# a fresh PCG64, one with a spare half pending, and an MT19937, whose
# 32-bit outputs _walk reads in blocks and the table and tree kernels in
# their bulk calls
GENERATORS = {
    "pcg64": rng,
    "pcg64-spare": lambda seed: _with_spare(rng(seed), int(rng(seed + 10).integers(2**32))),
    "mt19937": lambda seed: np.random.Generator(np.random.MT19937(seed)),
}


@pytest.mark.parametrize("gen", sorted(GENERATORS))
@pytest.mark.parametrize(
    "tree", [regular_tree(2), biregular_tree(3, 2), biregular_tree(4, 3)], ids=["k2", "k3-2", "k4-3"]
)
def test_tree_walk_at_block_seams_equals_the_key_free_reference(tree, gen):
    # walks that end on either side of one block seam and just past two;
    # the (3, 2) tree's odd levels have one child, so an nbrw step there
    # draws integers(1), which consumes nothing
    make = GENERATORS[gen]
    for start in (_tree_starts(tree)[0], _tree_starts(tree)[3]):
        for kind in (WalkKind.SRW, WalkKind.NBRW):
            for n in (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1):
                fast, ref = make(n + len(start)), make(n + len(start))
                row = _generic_replica(kind, tree, start, n, fast)
                assert row == tree_counts_reference(kind, tree, start, n, ref), (start, kind, n)
                np.testing.assert_equal(fast.bit_generator.state, ref.bit_generator.state)
                assert fast.integers(2**32, size=3).tolist() == ref.integers(2**32, size=3).tolist()


def test_sampled_path_and_generic_replica_make_the_same_draws():
    mg, _ = contract(theta_graph())
    cases = [("srw", k4(), 0), ("nbrw", k4(), 0), ("nbrw", mg, "u"), ("wrw", mg, "u")]
    for kind, g, start in cases:
        for seed in range(5):
            path = sample_path(kind, g, start, 500, rng(seed))
            assert return_statistics(path, start, g) == _generic_replica(kind, g, start, 500, rng(seed))


def test_tree_displacement_is_depth_from_the_root():
    # a walk started below the root reports its end depth, not its
    # distance from the start
    g = regular_tree(3)
    assert _generic_replica(WalkKind.SRW, g, (0, 1), 0, rng(0)).end_displacement == 2.0
    for seed in range(5):
        path = sample_path("srw", g, (0,), 40, rng(seed))
        row = _generic_replica(WalkKind.SRW, g, (0,), 40, rng(seed))
        assert row.end_displacement == float(len(path[-1]))


def test_fast_tree_agrees_with_generic_kernels():
    g = regular_tree(3)
    fast = [_replica(WalkKind.SRW, g, (), 120, rng(replica_seed(7, i))) for i in range(400)]
    slow = [_generic_replica(WalkKind.SRW, g, (), 120, rng(replica_seed(8, i))) for i in range(400)]
    f1 = sum(1 for r in fast if r.returns_to_origin > 0) / 400
    f2 = sum(1 for r in slow if r.returns_to_origin > 0) / 400
    se = math.sqrt(f1 * (1 - f1) / 400 + f2 * (1 - f2) / 400)
    assert abs(f1 - f2) < 4 * se + 1e-9
    m1 = sum(r.end_displacement for r in fast) / 400
    m2 = sum(r.end_displacement for r in slow) / 400
    assert abs(m1 - m2) < 4.0
    nb = _replica(WalkKind.NBRW, g, (), 50, rng(1))
    assert nb.returns_to_origin == 0 and nb.end_displacement == 50.0


def _table_cases():
    cubic10 = graph_from_spec(json.loads(CUBIC10))
    theta, _ = contract(theta_graph())
    loops, _ = contract(two_loop_graph())
    plain = {"k4": (k4(), 0), "c5": (cycle(5), 0), "k33": (complete_bipartite(3, 3), "a0"), "cubic10": (cubic10, 7)}
    kinds = (WalkKind.SRW, WalkKind.NBRW)
    cases = {f"{name}-{kind.value}": (kind, g, s) for name, (g, s) in plain.items() for kind in kinds}
    cases.update({"theta-edge-nbrw": (WalkKind.NBRW, theta, "u"), "two-loops-edge-nbrw": (WalkKind.NBRW, loops, "v")})
    return cases


TABLE_CASES = _table_cases()
# short walks, the first block's seams, and a walk across many blocks
TABLE_HORIZONS = (0, 1, 2, 3, _CHUNK - 1, _CHUNK, _CHUNK + 1, _CHUNK + 5)
# the generators of the tree tests, and a spare half 0, which Lemire's
# method rejects for every bound above 1
TABLE_GENERATORS = {**GENERATORS, "pcg64-spare0": lambda seed: _with_spare(rng(seed), 0)}
# each case at the default block, then at blocks of 1, 2 and 3
TABLE_BLOCKS = [pytest.param(name, None, id=name) for name in sorted(TABLE_CASES)] + [
    pytest.param(name, block, id=f"{name}-block{block}") for block in (1, 2, 3) for name in sorted(TABLE_CASES)
]


@pytest.mark.parametrize("name, block", TABLE_BLOCKS)
def test_move_table_run_equals_the_generic_stepper_and_the_scalar_reference(name, block, monkeypatch):
    # c5's non-backtracking bound is 1, which draws nothing; the two-loop
    # multigraph has loops and theta parallel edges.  Each case runs its
    # one-step table and its k-step table of the largest k under the cap,
    # which takes k draws per entry, so the horizons around k and 2k end a
    # walk shorter than one entry, on an entry's seam and one step past it;
    # blocks of 1, 2 and 3 steps, 32-bit outputs for the stepper and draws
    # for the table, are shorter than most k and leave len % k draws in every
    # block
    kind, g, start = TABLE_CASES[name]
    one = _move_table(kind, g, start, _JUMP_STEPS - 1, 10**9)
    assert one is not None and one.k == 1
    table = _move_table(kind, g, start, 10**9)
    k = table.k
    short = {0, 1, 2, 3, k - 1, k, k + 1, 2 * k + 1}
    if block:
        monkeypatch.setattr("nbwalk.walkers._CHUNK", block)
    for i, (gen, make) in enumerate(sorted(TABLE_GENERATORS.items())):
        # fresh PCG64 at seeds 0-2 and every horizon at the default block;
        # each other generator, and every one at the short blocks, at one
        # seed and the horizons around k
        if gen == "pcg64" and block is None:
            runs = [(h, seed) for h in sorted(short.union(TABLE_HORIZONS)) for seed in range(3)]
        else:
            runs = [(h, i) for h in sorted(short)]
        for h, seed in runs:
            slow, ref = make(seed), make(seed)
            want = _generic_replica(kind, g, start, h, slow)
            assert want == return_statistics(chain((start,), walk_reference(kind, g, start, h, ref)), start, g)
            np.testing.assert_equal(slow.bit_generator.state, ref.bit_generator.state)
            state, after = ref.bit_generator.state, ref.integers(7, size=5).tolist()
            for t in (one, table):
                fast = make(seed)
                assert _table_run(t, h, fast) == want, (h, gen, seed, t.k)
                np.testing.assert_equal(fast.bit_generator.state, state)
                # and the draws after the walk agree
                assert fast.integers(7, size=5).tolist() == after, (h, gen, seed, t.k)


def _wrw_table_cases():
    corridor_k4, _ = contract(graph_from_spec(json.loads(CORRIDOR_K4)))
    theta, _ = contract(theta_graph())
    loops, _ = contract(two_loop_graph())
    # the draw bound mdegree * L, L the lcm of the resistances, is given for each
    return {
        # resistances 1 to 4, every anchor of multigraph degree 3: bound 36
        "corridor-k4": (corridor_k4, 0),
        # parallel edges of resistances 1, 2 and 3: bound 18
        "theta": (theta, "u"),
        # one vertex with two self-loops of resistance 3: bound 12
        "two-loops": (loops, "v"),
        # degree 1: bound 1, where integers(1) draws nothing, and bound 3
        "one-edge-r1": (WeightedMultigraph("ab", [("a", "b", 1)]), "a"),
        "two-edges-r3-r1": (WeightedMultigraph("abcd", [("a", "b", 3), ("c", "d", 1)]), "a"),
        # degree 5: bound 300, whose Lemire threshold 2**32 % 300 is 96
        "five-parallel": (WeightedMultigraph("ab", [("a", "b", r) for r in (1, 2, 3, 4, 5)]), "b"),
    }


WRW_TABLE_CASES = _wrw_table_cases()
# short walks, then walks that cross one, two and many block seams; a
# step reads one 32-bit output, or two when Lemire's method rejects the first
WRW_HORIZONS = (0, 1, 2, 3, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 3 * _CHUNK)


# each case at the default block, then at blocks of 1, 2 and 3, 32-bit
# outputs for the stepper and steps for the table, where every short walk meets
# block seams, with and without a spare half pending
WRW_BLOCKS = [pytest.param(name, None, id=name) for name in sorted(WRW_TABLE_CASES)] + [
    pytest.param(name, block, id=f"{name}-block{block}") for block in (1, 2, 3) for name in sorted(WRW_TABLE_CASES)
]


@pytest.mark.parametrize("name, block", WRW_BLOCKS)
def test_wrw_table_run_equals_the_generic_stepper_and_the_scalar_reference(name, block, monkeypatch):
    g, start = WRW_TABLE_CASES[name]
    horizons = WRW_HORIZONS
    if block:
        monkeypatch.setattr("nbwalk.walkers._CHUNK", block)
        horizons = range(40)
    one = _move_table(WalkKind.WRW, g, start, _JUMP_STEPS - 1, 10**9)
    assert one is not None and one.k == 1
    # a fresh generator, one whose spare half was left by an earlier draw,
    # and one whose spare half 0 Lemire's method rejects for every bound above 1
    starts = [lambda s: rng(s), lambda s: _with_spare(rng(s), int(rng(s + 10).integers(2**32))), lambda s: _with_spare(rng(s), 0)]
    # the one-step table, and the k-step table of the largest k under the cap
    jumped = _move_table(WalkKind.WRW, g, start, 10**9)
    for h in horizons:
        for seed, make in enumerate(starts):
            slow, ref = make(seed), make(seed)
            want = _generic_replica(WalkKind.WRW, g, start, h, slow)
            assert want == return_statistics(chain((start,), walk_reference("wrw", g, start, h, ref)), start, g)
            assert slow.bit_generator.state == ref.bit_generator.state, (h, seed)
            state, after = ref.bit_generator.state, ref.integers(7, size=5).tolist()
            for table in (one, jumped) if jumped.k > 1 else (one,):
                fast = make(seed)
                assert _table_run(table, h, fast) == want, (h, seed, table.k)
                assert fast.bit_generator.state == state, (h, seed, table.k)
                # and the draws after the walk agree
                assert fast.integers(7, size=5).tolist() == after, (h, seed, table.k)


K_STEP_CASES = {**TABLE_CASES, **{f"{name}-wrw": (WalkKind.WRW, g, s) for name, (g, s) in WRW_TABLE_CASES.items()}}


@pytest.mark.parametrize("name", sorted(K_STEP_CASES))
def test_k_step_table_equals_k_row_lookups(name):
    # every entry of every state, for a walk too short for any k-step
    # table, one whose eighth leaves one step or affords two, and no limit
    # but the cap; c5-nbrw and one-edge-r1-wrw have bound 1, where B**k
    # never passes the cap, and must still build
    kind, g, start = K_STEP_CASES[name]
    one = _move_table(kind, g, start, _JUMP_STEPS - 1, 10**9)
    rows = one.rows
    size, bound = len(rows), len(rows[0])
    two = -(-8 * size * max(bound, 2) ** 2 // _JUMP_STEPS)
    for n, walks in ((_JUMP_STEPS - 1, 10**9), (_JUMP_STEPS, 1), (_JUMP_STEPS, two), (10**9, 1)):
        table = _move_table(kind, g, start, n, walks)
        k, cap = table.k, min(walks * n // 8, _JUMP_ENTRIES) if n >= _JUMP_STEPS else 0
        assert table[:3] == one[:3] and np.array_equal(table.home, one.home) and k >= 1, (n, walks)
        # k is the largest whose S * max(B, 2)**k entries fit
        assert size * max(bound, 2) ** (k + 1) > cap, (n, walks)
        if k == 1:
            assert table.jump == [] and table.spans is None, (n, walks)
            continue
        assert size * max(bound, 2) ** k <= cap and table.spans.shape == (size * bound**k, k)
        for s in range(size):
            for i in range(bound**k):
                cur, path = s, []
                for j in range(1, k + 1):
                    cur = rows[cur][i // bound ** (j - 1) % bound]
                    path.append(cur)
                assert table.jump[s][i] == cur and table.spans[s * bound**k + i].tolist() == path, (n, s, i)


def test_table_walks_take_a_k_step_table_from_jump_steps(monkeypatch):
    # a walk shorter than _JUMP_STEPS keeps the one-step loop; a longer one
    # takes the largest k whose table fits an eighth of all the steps
    # served, here K4's srw table of 4 * 3**k entries
    ks = []
    table_walk = walkers._table_walk

    def recording(table, n, rng):
        ks.append(table.k)
        return table_walk(table, n, rng)

    monkeypatch.setattr(walkers, "_table_walk", recording)
    monkeypatch.setattr(stats, "_table_walk", recording)
    for n, k in ((_JUMP_STEPS - 1, 1), (_JUMP_STEPS, 3), (8 * 4 * 3**5, 5)):
        ks.clear()
        sample_path("srw", k4(), 0, n, rng(1))
        assert ks == [k], n
    for horizon, replicas, k in ((_JUMP_STEPS - 1, 10, 1), (_JUMP_STEPS, 4, 5)):
        ks.clear()
        monte_carlo("srw", k4(), 0, horizon, replicas, 1)
        assert ks == [k] * replicas, (horizon, replicas)


def test_monte_carlo_takes_the_move_table_on_regular_graphs_only(monkeypatch):
    calls = Counter()

    def counting(fn, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("srw_step", "nbrw_step", "nbrw_step_edge", "wrw_step"):
        monkeypatch.setattr(walkers, name, counting(getattr(walkers, name), name))
    monkeypatch.setattr(stats, "_generic_replica", counting(_generic_replica, "generic"))
    theta, _ = contract(theta_graph())
    # the table's sampler calls: the first row's k, then states x bound,
    # whatever the replica count; wrw's k and bound are mdegree * L, here
    # 3 * lcm(1, 2, 3) = 18.  The horizon gives each entry of the largest
    # table, wrw's 2 * 18, _TABLE_SHARE steps
    table_cases = [
        ("srw", k4(), 0, "srw_step", 3 + 4 * 3),
        ("nbrw", k4(), 0, "nbrw_step", 3 + 12 * 2),
        ("nbrw", theta, "u", "nbrw_step_edge", 3 + 6 * 2),
        ("wrw", theta, "u", "wrw_step", 18 + 2 * 18),
    ]
    for kind, g, start, sampler, size in table_cases:
        for replicas in (1, 7):
            calls.clear()
            monte_carlo(kind, g, start, 36 * _TABLE_SHARE, replicas, 3)
            assert calls[sampler] == size and calls["generic"] == 0, (kind, replicas)
    # non-regular graphs and multigraphs, and tables whose entries get fewer
    # than _TABLE_SHARE of the replicas x horizon steps
    uneven = WeightedMultigraph("uvw", [("u", "v", 1), ("v", "w", 2), ("v", "v", 3)])
    generic_cases = [
        ("srw", counterexample_graph(), "v", 50, 2),
        ("nbrw", counterexample_graph(), "v", 50, 2),
        ("srw", subdivide(k4(), 1), 0, 50, 2),
        ("nbrw", subdivide(k4(), 1), 0, 50, 2),
        ("wrw", uneven, "v", 50, 2),
        ("wrw", theta, "u", 2, 2),
        ("srw", cycle(10_000), 0, 3, 1),
        ("srw", k4(), 0, 12 * _TABLE_SHARE - 1, 1),
    ]
    for kind, g, start, horizon, replicas in generic_cases:
        calls.clear()
        assert _move_table(WalkKind(kind), g, start, horizon, replicas) is None
        monte_carlo(kind, g, start, horizon, replicas, 3)
        assert calls["generic"] == replicas, (kind, start)
    calls.clear()
    monte_carlo("srw", k4(), 0, 12 * _TABLE_SHARE, 1, 3)
    assert calls["generic"] == 0


def _edge_cases():
    cubic10 = graph_from_spec(json.loads(CUBIC10))
    theta, _ = contract(theta_graph())
    # (kind, graph, start, S * B): states times draw bound
    return {
        "k4-srw": (WalkKind.SRW, k4(), 0, 4 * 3),
        "k4-nbrw": (WalkKind.NBRW, k4(), 0, 12 * 2),
        "cubic10-srw": (WalkKind.SRW, cubic10, 7, 10 * 3),
        "cubic10-nbrw": (WalkKind.NBRW, cubic10, 7, 30 * 2),
        # both vertices of multigraph degree 3; wrw's bound is 3 * lcm(1, 2, 3)
        "theta-edge-nbrw": (WalkKind.NBRW, theta, "u", 6 * 2),
        "theta-wrw": (WalkKind.WRW, theta, "u", 2 * 18),
    }


EDGE_CASES = _edge_cases()


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_table_walks_start_where_each_entry_gets_table_share_steps(name, monkeypatch):
    # a walk of S * B * _TABLE_SHARE - 1 steps in all takes the stepper and
    # one of S * B * _TABLE_SHARE the table, in sample_path and in
    # monte_carlo at 1 and 3 replicas (whose horizons give 3 replicas the
    # fewest total steps on each side of the edge); on both sides the paths,
    # the rows and the generators' end states are the other route's
    kind, g, start, entries = EDGE_CASES[name]
    edge = entries * _TABLE_SHARE
    forced = _move_table(kind, g, start, edge - 1, 10**9)
    assert len(forced.rows) * len(forced.rows[0]) == entries and forced.k == 1
    tables = []
    table_walk = walkers._table_walk

    def recording(table, n, rng):
        tables.append(table.rows)
        return table_walk(table, n, rng)

    monkeypatch.setattr(walkers, "_table_walk", recording)
    monkeypatch.setattr(stats, "_table_walk", recording)
    for n in (edge - 1, edge):
        built = n == edge
        assert (_move_table(kind, g, start, n) is not None) == built, n
        fast, ref = rng(n), rng(n)
        tables.clear()
        path = sample_path(kind, g, start, n, fast)
        assert tables == ([forced.rows] if built else []), n
        assert path == (start, *walkers._walk(kind, g, start, n, ref)), n
        np.testing.assert_equal(fast.bit_generator.state, ref.bit_generator.state)
    for replicas in (1, 3):
        for horizon in (-(-edge // replicas) - 1, -(-edge // replicas)):
            built = replicas * horizon >= edge
            assert (_move_table(kind, g, start, horizon, replicas) is not None) == built, (replicas, horizon)
            tables.clear()
            report = monte_carlo(kind, g, start, horizon, replicas, 5)
            assert tables == ([forced.rows] * replicas if built else []), (replicas, horizon)
            for i, row in enumerate(report.rows):
                seed = replica_seed(5, i)
                slow, fast = np.random.default_rng(seed), np.random.default_rng(seed)
                assert row == _generic_replica(kind, g, start, horizon, slow) == _table_run(forced, horizon, fast)
                np.testing.assert_equal(slow.bit_generator.state, fast.bit_generator.state)


def test_lattice_return_counts_monotone_and_seeded():
    counts = lattice_return_counts("srw", 2, [500, 2000], 25, 31337)
    assert set(counts) == {500, 2000}
    assert all(a <= b for a, b in zip(counts[500], counts[2000]))
    again = lattice_return_counts("srw", 2, [500, 2000], 25, 31337)
    assert again == counts
    # numpy integers, e.g. horizons from np.geomspace(...).astype(int)
    assert lattice_return_counts("srw", 2, np.array([500, 2000]), np.int64(25), 31337) == counts


def test_lattice_return_counts_checks_the_master_seed_as_monte_carlo_does():
    for seed in [True, -1, 2**64, 1.0]:
        with pytest.raises(InvalidParameter, match="master seed"):
            lattice_return_counts("srw", 2, [10], 2, seed)
    plain = lattice_return_counts("srw", 2, [10, 50], 3, 5)
    assert lattice_return_counts("srw", 2, [10, 50], 3, np.int64(5)) == plain
    top = lattice_return_counts("nbrw", 2, [10], 1, 2**64 - 1)
    assert lattice_return_counts("nbrw", 2, [10], 1, np.uint64(2**64 - 1)) == top


def test_lattice_return_counts_at_the_top_horizon_equal_the_plain_run():
    # horizons off chunk boundaries and on them, each against the per-step walk
    marks = [1, 7, _CHUNK - 1, _CHUNK, _CHUNK + 3, 2 * _CHUNK, 2 * _CHUNK + 5]
    for kind in (WalkKind.SRW, WalkKind.NBRW):
        counts = lattice_return_counts(kind, 2, marks, 4, 99)
        for h in marks:
            for i in range(4):
                returns, _, _ = lattice_run_reference(kind, lattice(2), (0, 0), h, rng(replica_seed(99, i)))
                assert counts[h][i] == returns, (kind, h, i)


@pytest.mark.parametrize(
    "horizons, replicas",
    [
        ([10], 0),
        ([10], -3),
        ([10], 2.5),
        ([10.7], 2),
        ([0, 10], 2),
        ([], 2),
        ([10, "20"], 2),
        ([10], True),
        ([True, 10], 2),
    ],
)
def test_lattice_return_counts_rejects_bad_inputs(horizons, replicas):
    with pytest.raises(InvalidParameter):
        lattice_return_counts("srw", 2, horizons, replicas, 1)
    # only srw and nbrw have a lattice walk; wrw must not run the nbrw one
    with pytest.raises(InvalidParameter):
        lattice_return_counts("wrw", 2, [1000], 3, 5)


def test_move_frequency_regular_tree_coupling():
    g = regular_tree(3)
    r = rng(1234)
    traces = []
    moves = 0
    while moves < 100000:
        path = sample_path("srw", g, (), 60, r)
        tr = erase_backtracks(path).trace
        traces.append(tr)
        moves += len(tr.moves)
    est = move_frequency(traces)
    assert est.moves > 50000
    assert abs(est.right_fraction - 2 / 3) < 4 * est.std_error

    # two-sample agreement with the matching chain simulation
    traj = simulate_chain(chain_for_regular(3), 100000, rng(77))
    rights = total = 0
    for a, b in zip(traj, traj[1:]):
        if a >= 1:
            total += 1
            rights += b > a
    sim_f = rights / total
    sim_se = math.sqrt(sim_f * (1 - sim_f) / total)
    gap = abs(est.right_fraction - sim_f)
    assert gap < 4 * math.sqrt(est.std_error**2 + sim_se**2)


def test_move_frequency_tree2_is_fair():
    g = regular_tree(2)
    r = rng(88)
    traces = []
    moves = 0
    while moves < 60000:
        path = sample_path("srw", g, (), 80, r)
        tr = erase_backtracks(path).trace
        traces.append(tr)
        moves += len(tr.moves)
    est = move_frequency(traces)
    assert abs(est.right_fraction - 1 / 2) < 4 * est.std_error


def test_move_frequency_biregular_phases():
    g = biregular_tree(4, 3)
    spec = chain_for_biregular(4, 3)
    r = rng(4321)
    traces = []
    moves = 0
    while moves < 120000:
        path = sample_path("srw", g, (), 60, r)
        tr = erase_backtracks(path).trace
        traces.append(tr)
        moves += len(tr.moves)
    even = move_frequency(traces, phase=0)
    odd = move_frequency(traces, phase=1)
    assert abs(even.right_fraction - 3 / 4) < 4 * even.std_error
    assert abs(odd.right_fraction - 2 / 3) < 4 * odd.std_error
    assert float(spec.right_prob(2)) == 3 / 4 and float(spec.right_prob(1)) == 2 / 3


def test_move_frequency_insufficient_data():
    tr = erase_backtracks(["a", "b"]).trace
    with pytest.raises(InsufficientData):
        move_frequency([tr])


def test_move_frequency_refuses_a_phase_other_than_0_or_1():
    tr = erase_backtracks(["a", "b", "c", "b", "d", "e"]).trace
    for phase in (2, -1, True, False, 0.0, "1"):
        with pytest.raises(InvalidParameter, match="phase must be None, 0 or 1"):
            move_frequency([tr], phase=phase)
    # numpy integers are integers, as everywhere else
    assert move_frequency([tr], phase=np.int64(1)) == move_frequency([tr], phase=1)


def test_tree_transience_diagnostics_consistent():
    # both walks look transient on the 3-regular tree: return fractions
    # bounded away from 1 and stable when the horizon doubles
    g = regular_tree(3)
    for kind in ("srw", "nbrw"):
        short = monte_carlo(kind, g, (), 2000, 200, 555)
        long = monte_carlo(kind, g, (), 4000, 200, 556)
        f1 = short.aggregates["returned_fraction"]
        f2 = long.aggregates["returned_fraction"]
        assert f1 < 0.95 and f2 < 0.95
        se = math.sqrt(f1 * (1 - f1) / 200 + f2 * (1 - f2) / 200)
        assert abs(f1 - f2) < 3 * se + 1e-9
