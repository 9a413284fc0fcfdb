import math
from fractions import Fraction

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
    enumerate_prefix_distribution,
    erase_backtracks,
    lattice,
    lattice_return_counts,
    monte_carlo,
    move_frequency,
    regular_tree,
    return_statistics,
    sample_path,
    simulate_chain,
    total_variation,
)
from nbwalk.stats import _CHUNK, _generic_replica, _lattice_run, _replica, _tree_run, replica_seed
from nbwalk.walkers import WalkKind

from helpers import k4, lattice_run_reference, rng, theta_graph, tree_run_reference

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
        # checkpoints off chunk boundaries and on them
        marks = [1, 7, _CHUNK - 1, _CHUNK, _CHUNK + 3, 2 * _CHUNK, 2 * _CHUNK + 5]
        fast = _lattice_run(kind, g, away, 2 * _CHUNK + 5, rng(d), checkpoints=marks)
        assert fast == lattice_run_reference(kind, g, away, 2 * _CHUNK + 5, rng(d), checkpoints=marks), kind


@pytest.mark.parametrize(
    "tree",
    [regular_tree(2), regular_tree(3), regular_tree(5), biregular_tree(3, 2), biregular_tree(4, 3), biregular_tree(7, 2)],
    ids=["k2", "k3", "k5", "k3-2", "k4-3", "k7-2"],
)
def test_tree_run_equals_depth_loop_reference(tree):
    for kind in (WalkKind.SRW, WalkKind.NBRW):
        for h in HORIZONS:
            for seed in range(3):
                assert _tree_run(kind, tree, h, rng(seed)) == tree_run_reference(kind, tree, h, rng(seed)), (kind, h)


def test_sampled_path_and_generic_replica_make_the_same_draws():
    mg, _ = contract(theta_graph())
    cases = [("srw", k4(), 0), ("nbrw", k4(), 0), ("nbrw", mg, "u"), ("wrw", mg, "u")]
    for kind, g, start in cases:
        for seed in range(5):
            path = sample_path(kind, g, start, 500, rng(seed))
            assert return_statistics(path, start, g) == _generic_replica(kind, g, start, 500, rng(seed))


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


def test_lattice_return_counts_monotone_and_seeded():
    counts = lattice_return_counts("srw", 2, [500, 2000], 25, 31337)
    assert set(counts) == {500, 2000}
    assert all(a <= b for a, b in zip(counts[500], counts[2000]))
    again = lattice_return_counts("srw", 2, [500, 2000], 25, 31337)
    assert again == counts
    # numpy integers, e.g. horizons from np.geomspace(...).astype(int)
    assert lattice_return_counts("srw", 2, np.array([500, 2000]), np.int64(25), 31337) == counts


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
