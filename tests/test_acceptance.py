"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured values (run pytest with -s to see them inline)."""

import math
import time
from fractions import Fraction

from nbwalk import (
    biregular_tree,
    chain_for_biregular,
    chain_for_regular,
    chain_move_law,
    contract,
    counterexample_graph,
    enumerate_move_distribution,
    enumerate_prefix_distribution,
    erase_backtracks,
    erase_backtracks_stack,
    erased_prefix_distribution,
    escape_probability,
    is_backtrack_free,
    is_transient,
    lattice,
    monte_carlo,
    regular_tree,
    sample_path,
    subdivide,
    total_variation,
)
from nbwalk.cli import run

from helpers import check_biregular_shape, complete_bipartite, cursor_erase, k4, rng, theta_graph, truncated_escape


def _check_pair(seq):
    res = erase_backtracks(seq)
    out = erase_backtracks_stack(seq)
    assert (res.output, res.trace.moves, res.trace.positions) == cursor_erase(seq)
    assert res.output == out
    assert is_backtrack_free(out)
    assert len(out) % 2 == len(seq) % 2


def test_criterion_1_erasure_equivalence_and_soundness():
    t0 = time.time()
    g = k4()
    t = regular_tree(3)
    r = rng(10001)
    for _ in range(35000):
        _check_pair(sample_path("srw", g, 0, 30, r))
    for _ in range(30000):
        _check_pair(sample_path("srw", t, (), 30, r))
    for _ in range(35000):
        a = int(r.integers(2, 6))
        n = int(r.integers(1, 201))
        _check_pair(r.integers(0, a, size=n).tolist())
    elapsed = time.time() - t0
    assert elapsed < 30
    print(f"criterion 1: PASS  100000 inputs, cursor == stack, {elapsed:.1f}s")


def test_criterion_2_exact_cursor_move_law():
    t0 = time.time()
    observed = enumerate_move_distribution(k4(), 0, 10)
    expected = chain_move_law(chain_for_regular(3), 10)
    assert observed == expected
    assert sum(observed.values()) == 1
    elapsed = time.time() - t0
    assert elapsed < 60
    print(
        f"criterion 2: PASS  move law over 3^10 paths equals the reflected chain "
        f"exactly ({len(observed)} move strings), {elapsed:.1f}s"
    )


def test_criterion_2_biregular_move_law():
    # the paper's non-regular extension: from a vertex of degree k1 on a
    # (k1, k2)-biregular graph the cursor moves as the period-2 chain
    t0 = time.time()
    cases = [
        (complete_bipartite(3, 4), "a0", chain_for_biregular(4, 3)),
        (subdivide(k4(), 1), 0, chain_for_biregular(3, 2)),
    ]
    for g, start, chain in cases:
        assert enumerate_move_distribution(g, start, 10) == chain_move_law(chain, 10)
    print(f"criterion 2 (biregular): PASS  K_3,4 and subdivided K4 move laws exact, {time.time() - t0:.1f}s")


def test_criterion_2_move_law_at_horizon_14():
    # the move law merges erasure stacks by cone type, so it reaches
    # N = 14 on finite graphs and on infinite ones, from any start
    t0 = time.time()
    n = 14
    cases = [
        (k4(), 0, chain_for_regular(3)),
        (regular_tree(3), (), chain_for_regular(3)),
        (regular_tree(3), (0, 1), chain_for_regular(3)),
        (lattice(2), (0, 0), chain_for_regular(4)),
        (complete_bipartite(3, 4), "a0", chain_for_biregular(4, 3)),
        (biregular_tree(4, 3), (), chain_for_biregular(4, 3)),
    ]
    for g, start, chain in cases:
        assert enumerate_move_distribution(g, start, n) == chain_move_law(chain, n)
    print(f"criterion 2 (N = {n}): PASS  K4, trees, Z^2 and K_3,4 move laws exact, {time.time() - t0:.1f}s")


def test_criterion_3_erased_prefix_convergence():

    # Counting the short-output mass as its own outcome, the distance to
    # the non-backtracking law shrinks with the margin; conditioned on a
    # full-length prefix it vanishes outright on a regular graph.
    t0 = time.time()
    g = k4()
    nbrw = enumerate_prefix_distribution("nbrw", g, 0, 3)
    er6 = erased_prefix_distribution(g, 0, 6, 3)
    er12 = erased_prefix_distribution(g, 0, 12, 3)
    tv6 = total_variation(er6, nbrw)
    tv12 = total_variation(er12, nbrw)
    tv12_cond = total_variation(er12.conditioned(), nbrw)
    assert tv12 < tv6
    assert tv12_cond < Fraction(2, 100)
    assert tv12_cond == 0
    assert total_variation(er6.conditioned(), nbrw) == 0
    elapsed = time.time() - t0
    assert elapsed < 120
    print(
        f"criterion 3: PASS  tv(N=6)={float(tv6):.4f} > tv(N=12)={float(tv12):.4f}; "
        f"conditional tv(N=12)={float(tv12_cond)} < 0.02, {elapsed:.1f}s"
    )


def test_criterion_3_biregular_erased_prefix():
    # conditioned on a full-length prefix, erasure yields the
    # non-backtracking law on biregular graphs too
    t0 = time.time()
    for g, start in [(complete_bipartite(3, 4), "a0"), (subdivide(k4(), 1), 0)]:
        nbrw = enumerate_prefix_distribution("nbrw", g, start, 3)
        for n in (6, 10):
            assert total_variation(erased_prefix_distribution(g, start, n, 3).conditioned(), nbrw) == 0
    print(f"criterion 3 (biregular): PASS  conditional tv 0 at N=6 and N=10, {time.time() - t0:.1f}s")


def test_criterion_4_non_regular_failure():
    t0 = time.time()
    g = counterexample_graph()
    nbrw = enumerate_prefix_distribution("nbrw", g, "v", 3)
    floor = Fraction(1, 100)
    values = {}
    for n in (8, 10, 12):
        erased = erased_prefix_distribution(g, "v", n, 3)
        tv = total_variation(erased.conditioned(), nbrw)
        values[n] = float(tv)
        assert tv > floor
    elapsed = time.time() - t0
    assert elapsed < 120
    pretty = ", ".join(f"N={n}: {v:.4f}" for n, v in values.items())
    print(f"criterion 4: PASS  conditional tv stays above 0.01 ({pretty}), {elapsed:.1f}s")


def test_criterion_5_birthdeath_analytics():
    t0 = time.time()
    for k in range(3, 13):
        assert is_transient(chain_for_regular(k))
    assert not is_transient(chain_for_regular(2))

    esc3 = escape_probability(chain_for_regular(3))
    assert esc3 == Fraction(1, 2)
    assert abs(float(esc3) - truncated_escape(chain_for_regular(3), 200)) < 1e-9

    big = chain_for_biregular(4, 3)
    assert is_transient(big)
    esc43 = escape_probability(big)
    assert abs(float(esc43) - truncated_escape(big, 200)) < 1e-9
    elapsed = time.time() - t0
    assert elapsed < 5
    print(
        f"criterion 5: PASS  escape(k=3)=1/2, escape(4,3)={esc43} vs truncated solve "
        f"within 1e-9, {elapsed:.1f}s"
    )


def test_criterion_6_contraction_equivalences():
    t0 = time.time()
    cases = [("subdivided K4", subdivide(k4(), 1), 0), ("theta", theta_graph(), "u")]
    for name, g, start in cases:
        mg, cmap = contract(g)
        from nbwalk import induced_prefix_distribution

        ind_srw = induced_prefix_distribution(g, "srw", start, 3, cmap)
        wrw = enumerate_prefix_distribution("wrw", mg, start, 3)
        assert ind_srw == wrw, name
        ind_nbrw = induced_prefix_distribution(g, "nbrw", start, 3, cmap)
        edge_nbrw = enumerate_prefix_distribution("nbrw", mg, start, 3)
        assert ind_nbrw == edge_nbrw, name

    mg, _ = contract(subdivide(k4(), 1))
    assert set(mg.vertices()) == {0, 1, 2, 3}
    assert sorted((min(e.a, e.b), max(e.a, e.b), e.resistance) for e in mg.edges()) == [
        (0, 1, 2), (0, 2, 2), (0, 3, 2), (1, 2, 2), (1, 3, 2), (2, 3, 2)
    ]
    elapsed = time.time() - t0
    assert elapsed < 180
    print(
        f"criterion 6: PASS  induced srw == wrw and induced nbrw == edge nbrw exactly "
        f"at anchor horizon 3; round trip recovers K4 with resistance 2, {elapsed:.1f}s"
    )


def test_criterion_7_contracted_biregular_shape():
    t0 = time.time()
    mg_pass, _ = contract(subdivide(complete_bipartite(3, 4), 1))
    assert check_biregular_shape(mg_pass, 4, 3)
    mg_fail, _ = contract(subdivide(k4(), 1))
    assert not check_biregular_shape(mg_fail, 4, 3)
    elapsed = time.time() - t0
    assert elapsed < 5
    print(f"criterion 7: PASS  bipartite (3,4) shape accepted, K4 shape rejected, {elapsed:.1f}s")


def test_criterion_8_lattice_diagnostics():
    t0 = time.time()

    line = monte_carlo("nbrw", lattice(1), 0, 10**4, 200, 880011)
    assert all(r.returns_to_origin == 0 for r in line.rows)

    def fraction_and_se(kind, horizon, seed):
        rep = monte_carlo(kind, lattice(3), (0, 0, 0), horizon, 1000, seed)
        f = rep.aggregates["returned_fraction"]
        return f, math.sqrt(f * (1 - f) / 1000)

    stable = {}
    for kind, s1, s2 in (("srw", 101, 102), ("nbrw", 201, 202)):
        f1, e1 = fraction_and_se(kind, 10**4, s1)
        f2, e2 = fraction_and_se(kind, 10**5, s2)
        assert 0 < f1 < 1 and 0 < f2 < 1
        gap = abs(f1 - f2)
        tol = 3 * math.sqrt(e1**2 + e2**2)
        assert gap < tol, (kind, f1, f2)
        stable[kind] = (f1, f2)

    # mean returns on the plane keep growing: paired per-path counts at
    # the two horizons give the one-sided test its power
    growth = {}
    for kind, seed in (("srw", 301), ("nbrw", 302)):
        short, long = (monte_carlo(kind, lattice(2), (0, 0), h, 100, seed).rows for h in (10**4, 10**6))
        diffs = [b.returns_to_origin - a.returns_to_origin for a, b in zip(short, long)]
        mean = sum(diffs) / len(diffs)
        var = sum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1)
        se = math.sqrt(var / len(diffs))
        assert min(diffs) >= 0
        assert mean > 3 * se, (kind, mean, se)
        growth[kind] = (mean, se)

    elapsed = time.time() - t0
    assert elapsed < 600
    print(
        "criterion 8: PASS  line nbrw never returns; 3d fractions stable "
        f"(srw {stable['srw'][0]:.3f}->{stable['srw'][1]:.3f}, "
        f"nbrw {stable['nbrw'][0]:.3f}->{stable['nbrw'][1]:.3f}); plane returns grow "
        f"(srw +{growth['srw'][0]:.2f}, nbrw +{growth['nbrw'][0]:.2f}), {elapsed:.0f}s"
    )


def test_criterion_9_reproducibility(tmp_path):
    t0 = time.time()
    spec = '{"type":"lattice","d":2}'
    args = ["diagnose", "--graph", spec, "--walk", "nbrw", "--horizon", "5000",
            "--replicas", "24", "--seed", "4242"]
    outs = []
    for name, extra in (("a", []), ("b", []), ("c", ["--jobs", "4"])):
        base = tmp_path / name
        assert run(args + extra + ["--out", str(base)]) == 0
        outs.append(
            (
                (tmp_path / f"{name}.json").read_bytes(),
                (tmp_path / f"{name}.csv").read_bytes(),
            )
        )
    assert outs[0][1] == outs[1][1] == outs[2][1]
    assert outs[0][0] == outs[1][0] == outs[2][0]
    elapsed = time.time() - t0
    assert elapsed < 60
    print(f"criterion 9: PASS  byte-identical rows across reruns and jobs=4, {elapsed:.1f}s")
