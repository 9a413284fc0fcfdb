import json
import math
import random
import re
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import islice, product

import numpy as np
import pytest

from nbwalk import (
    BiregularTree,
    HalfEdgeState,
    InsufficientData,
    InvalidInput,
    InvalidParameter,
    InvalidState,
    LimitExceeded,
    NoLegalMove,
    PrefixDistribution,
    WeightedMultigraph,
    biregular_tree,
    chain_for_regular,
    chain_move_law,
    contract,
    counterexample_graph,
    enumerate_move_distribution,
    enumerate_prefix_distribution,
    erased_prefix_distribution,
    from_adjacency,
    graph_from_spec,
    induced_prefix_distribution,
    is_backtrack_free,
    lattice,
    monte_carlo,
    nbrw_step,
    nbrw_step_edge,
    regular_tree,
    sample_path,
    srw_step,
    step_distribution,
    subdivide,
    subdivided_lattice,
    wrw_step,
)
from nbwalk.stats import _generic_replica, _replica, return_statistics
from nbwalk import laws, walkers
from nbwalk.walkers import _CHUNK, _TABLE_SHARE, _Draws, _pack, _unpack, _walk

from helpers import k4, rng, subdivided_starts, theta_graph, two_loop_graph, walk_reference
from test_golden import CORRIDOR_K4, CUBIC10
from test_stats import GENERATORS, WRW_TABLE_CASES

# the generators of the stats tests and the other bit generators numpy ships
ALL_GENERATORS = {
    **GENERATORS,
    **{
        bg.__name__.lower(): partial(lambda bg, seed: np.random.Generator(bg(seed)), bg)
        for bg in (np.random.PCG64DXSM, np.random.Philox, np.random.SFC64)
    },
}


def theta_multigraph():
    mg, _ = contract(theta_graph())
    return mg


def isolated_a():
    # "a" has no edge; b-c is one
    return WeightedMultigraph(["a", "b", "c"], [("b", "c", 1)])


def one_edge():
    return WeightedMultigraph(["a", "b"], [("a", "b", 1)])


def test_srw_step_distribution_k4():
    law = step_distribution("srw", k4(), 0)
    assert law == {1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 3)}


def test_srw_step_lattice1():
    law = step_distribution("srw", lattice(1), 0)
    assert law == {1: Fraction(1, 2), -1: Fraction(1, 2)}


def test_srw_forced_and_isolated():
    path2 = from_adjacency({0: [1], 1: [0]})
    assert srw_step(path2, 0, rng(1)) == 1
    lonely = from_adjacency({0: []})
    with pytest.raises(NoLegalMove):
        srw_step(lonely, 0, rng(1))


def test_nbrw_step_tree():
    g = regular_tree(3)
    law = step_distribution("nbrw", g, ((), (0,)))
    assert law == {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}


def test_nbrw_step_tree2_deterministic():
    g = regular_tree(2)
    law = step_distribution("nbrw", g, ((), (0,)))
    assert law == {(0, 0): Fraction(1)}
    assert nbrw_step(g, (), (0,), rng(5)) == (0, 0)


def test_nbrw_step_counterexample():
    g = counterexample_graph()
    law = step_distribution("nbrw", g, ("x", "v"))
    assert law == {"y": Fraction(1, 2), "z": Fraction(1, 2)}


def test_nbrw_step_errors():
    g = from_adjacency({0: [1], 1: [0, 2], 2: [1]})
    with pytest.raises(NoLegalMove):
        nbrw_step(g, 1, 2, rng(0))
    with pytest.raises(InvalidState):
        nbrw_step(g, 2, 0, rng(0))


def test_nbrw_step_edge_theta():
    mg = theta_multigraph()
    arrival = HalfEdgeState(0, 0)  # just arrived at endpoint 0 of edge 0
    law = step_distribution("nbrw", mg, arrival)
    assert len(law) == 2
    assert set(law.values()) == {Fraction(1, 2)}
    assert all(s.edge_id != 0 for s in law)


def test_nbrw_step_edge_two_loops():
    mg = WeightedMultigraph(["v"], [("v", "v", 1), ("v", "v", 1)])
    arrival = HalfEdgeState(0, 1)
    law = step_distribution("nbrw", mg, arrival)
    assert len(law) == 3
    assert set(law.values()) == {Fraction(1, 3)}
    # the same loop may be re-traversed in the same direction
    assert HalfEdgeState(0, 1) in law
    with pytest.raises(NoLegalMove):
        nbrw_step_edge(WeightedMultigraph(["a", "b"], [("a", "b", 1)]), HalfEdgeState(0, 1), rng(0))


def test_edge_nbrw_matches_vertex_nbrw_on_simple_multigraph():
    g = k4()
    mg, _ = contract(g)  # six corridors of length 1, unit resistance
    for v in g.vertices():
        for w in g.neighbors(v):
            vertex_law = step_distribution("nbrw", g, (v, w))
            eid = next(e.edge_id for e in mg.edges() if {e.a, e.b} == {v, w})
            state = HalfEdgeState(eid, 0 if mg.edge(eid).a == w else 1)
            edge_law = {}
            for s, p in step_distribution("nbrw", mg, state).items():
                t = mg.endpoint(s.edge_id, s.head_end)
                edge_law[t] = edge_law.get(t, Fraction(0)) + p
            assert edge_law == vertex_law


def test_wrw_theta_conditional_law():
    mg = theta_multigraph()
    law = step_distribution("wrw", mg, "u")
    assert sum(law.values()) == 1
    cross = {mv: p for mv, p in law.items() if not mv.reflected}
    z = sum(cross.values())
    by_r = {}
    for mv, p in cross.items():
        by_r[mg.edge(mv.edge_id).resistance] = p / z
    assert by_r == {1: Fraction(6, 11), 2: Fraction(3, 11), 3: Fraction(2, 11)}


def test_wrw_unit_resistances_reduce_to_uniform():
    mg, _ = contract(k4())
    law = step_distribution("wrw", mg, 0)
    assert all(not mv.reflected for mv in law)
    assert set(law.values()) == {Fraction(1, 3)}


def test_wrw_loop_half_edges_carry_full_conductance():
    mg = WeightedMultigraph(["v", "w"], [("v", "v", 3), ("v", "w", 1)])
    law = step_distribution("wrw", mg, "v")
    cross = {mv: p for mv, p in law.items() if not mv.reflected}
    z = sum(cross.values())
    plain = sum(p for mv, p in cross.items() if mg.edge(mv.edge_id).resistance == 1)
    assert plain / z == Fraction(3, 5)
    assert sum(law.values()) == 1


def test_wrw_step_sampling_matches_law():
    mg = theta_multigraph()
    law = step_distribution("wrw", mg, "u")
    r = rng(99)
    counts = {mv: 0 for mv in law}
    n = 40000
    for _ in range(n):
        counts[wrw_step(mg, "u", r)] += 1
    for mv, p in law.items():
        f = counts[mv] / n
        se = math.sqrt(float(p) * (1 - float(p)) / n)
        assert abs(f - float(p)) < 4 * se + 1e-9


def _exact_sampler_graphs():
    corridor_k4, _ = contract(graph_from_spec(json.loads(CORRIDOR_K4)))
    loops, _ = contract(two_loop_graph())
    return {
        "k4": k4(),
        "cubic10": graph_from_spec(json.loads(CUBIC10)),
        "counterexample": counterexample_graph(),
        # resistances 1 to 4: L = 12
        "corridor-k4": corridor_k4,
        # K4 with resistances 1, 2, 3, 4, 5 and 7: L = 420
        "k4-l420": WeightedMultigraph(range(4), [(0, 1, 1), (0, 2, 3), (0, 3, 4), (1, 2, 5), (1, 3, 7), (2, 3, 2)]),
        # degrees 3 and 5: parallel edges of resistances 1, 2 and 3, and a loop of resistance 3
        "uneven": WeightedMultigraph("uw", [("u", "w", 1), ("u", "w", 2), ("u", "w", 3), ("w", "w", 3)]),
        # one vertex with two self-loops of resistance 3
        "two-loops": loops,
    }


EXACT_SAMPLER_GRAPHS = _exact_sampler_graphs()


def _samplers(g):
    """``(kind, state, sampler, bound)`` for every state of each kind that
    runs on ``g``: the sampler takes the generator, and its draw is below
    the bound."""
    if isinstance(g, WeightedMultigraph):
        lcm = math.lcm(*(e.resistance for e in g.edges()))
        assert g.resistance_lcm == lcm
        for v in g.vertices():
            yield "wrw", v, partial(wrw_step, g, v), g.mdegree(v) * lcm
            yield "nbrw", (None, v), partial(nbrw_step_edge, g, (None, v)), g.mdegree(v)
        for state in (HalfEdgeState(e.edge_id, end) for e in g.edges() for end in (0, 1)):
            yield "nbrw", state, partial(nbrw_step_edge, g, state), g.mdegree(g.endpoint(*state)) - 1
    else:
        for v in g.vertices():
            yield "srw", v, partial(srw_step, g, v), g.degree(v)
            yield "nbrw", (None, v), partial(nbrw_step, g, None, v), g.degree(v)
            for u in g.neighbors(v):
                yield "nbrw", (u, v), partial(nbrw_step, g, u, v), g.degree(v) - 1


@pytest.mark.parametrize("name", sorted(EXACT_SAMPLER_GRAPHS))
def test_each_sampler_over_all_its_draws_is_its_exact_law(name):
    # every target comes up p * bound times among the draws 0..bound-1
    g = EXACT_SAMPLER_GRAPHS[name]
    for kind, state, sampler, bound in _samplers(g):
        counts = Counter(sampler(walkers._Fixed(d)) for d in range(bound))
        want = {target: p * bound for p, target, _, _ in laws._law(kind, g)(g, state)}
        assert all(c.denominator == 1 for c in want.values()), (kind, state)
        assert counts == want, (kind, state)


def test_wrw_refuses_a_draw_bound_above_2_32_before_any_draw():
    # parallel edges of resistances 1 to 23: a bound of 23 * lcm(1..23), about 1.2e11
    mg = WeightedMultigraph("ab", [("a", "b", r) for r in range(1, 24)])
    message = re.escape(f"wrw draw bound {23 * math.lcm(*range(1, 24))} at 'a' exceeds the budget 2**32")
    gen = rng(3)
    before = gen.bit_generator.state
    with pytest.raises(LimitExceeded, match=message):
        wrw_step(mg, "a", gen)
    assert gen.bit_generator.state == before
    # sample_path through _Draws, on PCG64 and on MT19937
    for make in (GENERATORS["pcg64"], GENERATORS["mt19937"]):
        for n in (1, 30, 5000):
            gen = make(n)
            before = gen.bit_generator.state
            with pytest.raises(LimitExceeded, match=message):
                sample_path("wrw", mg, "a", n, gen)
            np.testing.assert_equal(gen.bit_generator.state, before)
    # the exact law takes it: a crossing and a bounce per edge but the first
    law = step_distribution("wrw", mg, "a")
    assert len(law) == 45 and sum(law.values()) == 1
    # a bound of 2**32 is drawn, from a 32-bit half whole, and one of 2**32 + 2 is not
    for r, refused in ((2**31, False), (2**31 + 1, True)):
        mg = WeightedMultigraph("ab", [("a", "b", 1), ("a", "b", r)])
        for make in GENERATORS.values():
            fast, ref = make(r), make(r)
            if refused:
                with pytest.raises(LimitExceeded, match=re.escape(f"wrw draw bound {2**32 + 2} at 'a'")):
                    sample_path("wrw", mg, "a", 200, fast)
            else:
                assert sample_path("wrw", mg, "a", 200, fast) == ("a", *walk_reference("wrw", mg, "a", 200, ref))
            np.testing.assert_equal(fast.bit_generator.state, ref.bit_generator.state)


def test_sample_path_trivial():
    assert sample_path("srw", k4(), 0, 0, rng(0)) == (0,)


def test_sample_path_nbrw_lattice1_monotone():
    seen = set()
    for seed in range(12):
        p = sample_path("nbrw", lattice(1), 0, 5, rng(seed))
        assert p in {(0, 1, 2, 3, 4, 5), (0, -1, -2, -3, -4, -5)}
        seen.add(p[1])
    assert seen == {1, -1}


def test_sample_path_srw_k4_uniform():
    dist = enumerate_prefix_distribution("srw", k4(), 0, 3)
    assert len(dist.entries) == 27
    assert set(dist.entries.values()) == {Fraction(1, 27)}


def test_sample_path_error_carries_step_index():
    g = from_adjacency({0: [1], 1: [0, 2], 2: [1]})
    with pytest.raises(NoLegalMove, match="step 2"):
        sample_path("nbrw", g, 1, 5, rng(3))


def test_horizons_refuse_bools_and_take_numpy_integers():
    for n in (True, False):
        with pytest.raises(InvalidInput):
            sample_path("srw", k4(), 0, n, rng(0))
        with pytest.raises(InvalidInput):
            enumerate_prefix_distribution("srw", k4(), 0, n)
    for g, start in [(k4(), 0), (lattice(2), (0, 0))]:
        assert sample_path("nbrw", g, start, np.int64(20), rng(4)) == sample_path("nbrw", g, start, 20, rng(4))
    law = enumerate_prefix_distribution("nbrw", k4(), 0, np.int64(3))
    assert law == enumerate_prefix_distribution("nbrw", k4(), 0, 3)
    assert type(law.horizon) is int


def test_kind_graph_mismatch():
    for n in (0, 2):
        for g, start in [(k4(), 0), (lattice(2), (0, 0))]:
            with pytest.raises(InvalidInput):
                sample_path("wrw", g, start, n, rng(0))
    mg = theta_multigraph()
    with pytest.raises(InvalidInput):
        sample_path("srw", mg, "u", 2, rng(0))


def test_private_kind_checks_read_a_string_kind_as_its_walk_kind():
    mg = theta_multigraph()
    for kind in ("srw", walkers.WalkKind.SRW):
        with pytest.raises(InvalidInput, match="srw runs on a plain graph"):
            walkers._require_kind_graph(kind, mg)
    with pytest.raises(InvalidInput, match="wrw needs a weighted multigraph"):
        walkers._require_kind_graph("wrw", k4())
    # nbrw's first step draws below the degree 3, its later steps below 2
    for kind in ("nbrw", walkers.WalkKind.NBRW):
        first, rows = walkers._move_table(kind, k4(), 0, 10**6)[:2]
        assert len(first) == 3 and {len(row) for row in rows} == {2}
    # wrw draws below mdegree * lcm(1..5) = 5 * 60
    five_parallel = WRW_TABLE_CASES["five-parallel"][0]
    for kind in ("wrw", walkers.WalkKind.WRW):
        assert len(walkers._move_table(kind, five_parallel, "b", 10**9)[0]) == 300


def test_nbrw_paths_backtrack_free():
    g = k4()
    t = regular_tree(3)
    r = rng(2718)
    for i in range(5000):
        p = sample_path("nbrw", g, 0, 12, r)
        assert is_backtrack_free(p)
    for i in range(5000):
        p = sample_path("nbrw", t, (), 12, r)
        assert is_backtrack_free(p)


def test_srw_marginal_frequencies():
    g = k4()
    r = rng(11)
    n = 100000
    counts = {1: 0, 2: 0, 3: 0}
    for _ in range(n):
        counts[srw_step(g, 0, r)] += 1
    se = math.sqrt((1 / 3) * (2 / 3) / n)
    for w in (1, 2, 3):
        assert abs(counts[w] / n - 1 / 3) < 4 * se


def test_step_distributions_sum_to_one():
    r = rng(31)
    g = lattice(2)
    v = (0, 0)
    for _ in range(100):
        assert sum(step_distribution("srw", g, v).values()) == 1
        nbrs = g.neighbors(v)
        w = nbrs[int(r.integers(len(nbrs)))]
        assert sum(step_distribution("nbrw", g, (v, w)).values()) == 1
        v = w
    t = regular_tree(3)
    v = ()
    for _ in range(100):
        assert sum(step_distribution("srw", t, v).values()) == 1
        nbrs = t.neighbors(v)
        w = nbrs[int(r.integers(len(nbrs)))]
        assert sum(step_distribution("nbrw", t, (v, w)).values()) == 1
        v = w
    mg, _ = contract(subdivide(k4(), 2))
    for v in mg.vertices():
        assert sum(step_distribution("wrw", mg, v).values()) == 1
        for h in mg.half_edges(v):
            state = HalfEdgeState(h[0], h[1])
            assert sum(step_distribution("nbrw", mg, state).values()) == 1


def test_enumerate_srw_k4_m2():
    dist = enumerate_prefix_distribution("srw", k4(), 0, 2)
    assert len(dist.entries) == 9
    assert set(dist.entries.values()) == {Fraction(1, 9)}
    assert sum(dist.entries.values()) == 1


def test_enumerate_nbrw_k4_m2():
    dist = enumerate_prefix_distribution("nbrw", k4(), 0, 2)
    assert len(dist.entries) == 6
    assert set(dist.entries.values()) == {Fraction(1, 6)}


def test_enumerate_consistency_under_marginalization():
    for kind, graph, start in [
        ("srw", k4(), 0),
        ("nbrw", k4(), 0),
        ("nbrw", counterexample_graph(), "v"),
    ]:
        big = enumerate_prefix_distribution(kind, graph, start, 4)
        small = enumerate_prefix_distribution(kind, graph, start, 3)
        assert big.marginalized(3) == small
    mg = theta_multigraph()
    for kind in ("wrw", "nbrw"):
        big = enumerate_prefix_distribution(kind, mg, "u", 4)
        small = enumerate_prefix_distribution(kind, mg, "u", 3)
        assert big.marginalized(3) == small


# each exact law with its charge: every (state, record) pair of level k,
# counted before equal pairs merge, costs k.  K4 srw paths from 0 number
# 3, 9 and 27 after 1, 2 and 3 steps; erasure stacks merge by cone type,
# so the erased law at N = 4 expands 3, 9, 21 and 21 pairs, not the
# 3 + 9 + 27 + 81 paths; and the birth-death words from 0 number 1, 2, 3
# and 6 (0 only moves right)
BUDGETED_LAWS = {
    "prefix": (lambda: enumerate_prefix_distribution("srw", k4(), 0, 3), 3 + 2 * 9 + 3 * 27),
    "erased": (lambda: erased_prefix_distribution(k4(), 0, 4, 2), 3 + 2 * 9 + 3 * 21 + 4 * 21),
    "move": (lambda: enumerate_move_distribution(k4(), 0, 4), 46),
    "induced-srw": (lambda: induced_prefix_distribution(theta_graph(), "srw", "u", 3), 34),
    "induced-nbrw": (lambda: induced_prefix_distribution(theta_graph(), "nbrw", "u", 3), 33),
    "chain": (lambda: chain_move_law(chain_for_regular(3), 4), 1 + 2 * 2 + 3 * 3 + 4 * 6),
}


@pytest.mark.parametrize("name", BUDGETED_LAWS)
def test_exact_laws_refuse_a_law_over_the_state_budget(name, monkeypatch):
    law, charge = BUDGETED_LAWS[name]
    monkeypatch.setattr(laws, "MAX_STATES", charge - 1)
    with pytest.raises(LimitExceeded, match=f"charged at least {charge} exceeds the state budget {charge - 1}"):
        law()
    monkeypatch.setattr(laws, "MAX_STATES", charge)
    law()


def test_prefix_distribution_validation():
    with pytest.raises(InvalidInput):
        PrefixDistribution(1, {(0, 1): Fraction(1, 2)})
    with pytest.raises(InvalidInput):
        PrefixDistribution(1, {(0, 1, 2): Fraction(1)})
    d = PrefixDistribution(1, {(0, 1): Fraction(3, 4)}, Fraction(1, 4))
    assert d.conditioned().prob((0, 1)) == 1
    # with no short mass there is nothing to condition away
    d = PrefixDistribution(1, {(0, 1): Fraction(1)})
    assert d.conditioned() is d
    # no full-length prefix is an outcome of the walk, not a bad argument
    with pytest.raises(InsufficientData):
        PrefixDistribution(1, {}, Fraction(1)).conditioned()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: PrefixDistribution(1, {(0, 1): 1}).marginalized(2), InvalidInput, "cannot marginalize horizon 1 to 2"),
        (lambda: step_distribution("srw", "k4", 0), InvalidInput, "not a graph: 'k4'"),
        (lambda: step_distribution("srw", from_adjacency({0: []}), 0), NoLegalMove, "vertex 0 is isolated"),
        (lambda: step_distribution("nbrw", counterexample_graph(), ("a", "v")), InvalidState, "'a' is not adjacent to 'v'"),
        (lambda: step_distribution("nbrw", theta_multigraph(), ("w", "u")), InvalidInput, "history is a HalfEdgeState"),
        (lambda: step_distribution("nbrw", k4(), 0), InvalidInput, "state is a (prev, current) pair"),
        (lambda: nbrw_step_edge(isolated_a(), (None, "a"), rng(0)), NoLegalMove, "vertex 'a' is isolated"),
        (lambda: wrw_step(isolated_a(), "a", rng(0)), NoLegalMove, "vertex 'a' is isolated"),
        (lambda: step_distribution("nbrw", isolated_a(), (None, "a")), NoLegalMove, "vertex 'a' is isolated"),
        (lambda: step_distribution("wrw", isolated_a(), "a"), NoLegalMove, "vertex 'a' is isolated"),
        (lambda: nbrw_step_edge(one_edge(), HalfEdgeState(0, 1), rng(0)), NoLegalMove, "vertex 'b' has multigraph degree 1"),
        (lambda: step_distribution("nbrw", one_edge(), HalfEdgeState(0, 1)), NoLegalMove, "vertex 'b' has multigraph degree 1"),
    ],
    ids=[
        "marginalize-up",
        "not-a-graph",
        "srw-isolated",
        "nbrw-prev-not-adjacent",
        "edge-nbrw-history",
        "nbrw-not-a-pair",
        "edge-nbrw-step-isolated",
        "wrw-step-isolated",
        "edge-nbrw-law-isolated",
        "wrw-law-isolated",
        "edge-nbrw-step-degree-1",
        "edge-nbrw-law-degree-1",
    ],
)
def test_law_refusals_name_their_cause(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: PrefixDistribution(True, {(0, 1): 1}), InvalidInput, "horizon must be an integer >= 0, got True"),
        (lambda: PrefixDistribution(-1, {}, 1), InvalidInput, "horizon must be an integer >= 0, got -1"),
        (lambda: PrefixDistribution(1, {(0, 1): 1}).marginalized(True), InvalidInput, "cannot marginalize to True"),
        (lambda: PrefixDistribution(1, {(0, 1): 1}).marginalized(1.5), InvalidInput, "cannot marginalize to 1.5"),
        (lambda: chain_for_regular(3).right_prob(True), InvalidParameter, "position must be an integer, got True"),
        (lambda: chain_for_regular(3).right_prob(1.5), InvalidParameter, "position must be an integer, got 1.5"),
    ],
    ids=["horizon-bool", "horizon-negative", "marginalize-bool", "marginalize-float", "right-prob-bool", "right-prob-float"],
)
def test_integer_arguments_refuse_bools_and_floats(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_integer_arguments_take_numpy_integers():
    law = PrefixDistribution(np.int64(1), {(0, 1): Fraction(1, 3), (0, 2): Fraction(2, 3)})
    assert type(law.horizon) is int and law.horizon == 1
    assert law.marginalized(np.int64(0)) == PrefixDistribution(0, {(0,): 1})
    assert chain_for_regular(3).right_prob(np.int64(2)) == Fraction(2, 3)


def _mixed_calls(seed, n):
    """n draw bounds: small ones, 1 among them, two that reject about half
    and a quarter of their draws, random ones below 2**32 and 2**32
    itself, which takes an output whole, interleaved."""
    pick = random.Random(seed)
    calls = []
    for _ in range(n):
        r = pick.random()
        if r < 0.5:
            calls.append(pick.randint(1, 7))
        elif r < 0.6:
            calls.append(2**31 + 1)
        elif r < 0.7:
            calls.append(3 * 2**30)
        elif r < 0.8:
            calls.append(pick.randrange(1, 2**32))
        else:
            calls.append(2**32)
    return calls


def test_draws_equal_generator_scalar_calls():
    spare_at_end = set()
    for seed in range(20):
        scalar, raw = rng(seed), rng(seed)
        if seed % 2:
            # start with a spare half in the generator
            assert scalar.integers(5) == raw.integers(5)
        # small blocks so that the calls cross many block boundaries
        draws = _Draws(raw, 1 + seed % 9 if seed < 10 else 1000)
        for k in _mixed_calls(seed, 3000):
            assert draws.integers(k) == scalar.integers(k), (seed, k)
        draws.close()
        # the whole state, the spare half and a stale one included
        assert raw.bit_generator.state == scalar.bit_generator.state
        spare_at_end.add(raw.bit_generator.state["has_uint32"])
    assert spare_at_end == {0, 1}
    # every bit generator, fresh PCG64 and PCG64 with a spare half pending
    # among them, at blocks of 1, 2 and 3 outputs, where every call meets a
    # seam, and at one block that the calls leave part used
    for name, make in sorted(ALL_GENERATORS.items()):
        for block in (1, 2, 3, 1000):
            scalar, drawn = make(block), make(block)
            draws = _Draws(drawn, block)
            for k in _mixed_calls(block, 600):
                assert draws.integers(k) == scalar.integers(k), (name, block, k)
            draws.close()
            np.testing.assert_equal(drawn.bit_generator.state, scalar.bit_generator.state)
            # and the draws after them agree
            assert drawn.integers(2**32, size=3).tolist() == scalar.integers(2**32, size=3).tolist(), (name, block)


def _reference_cases():
    mg, _ = contract(subdivide(theta_graph(), 1))  # corridors of resistance 2, 3 and 4
    cases = {
        "k4": ("srw", "nbrw", k4(), 0),
        "counterexample": ("srw", "nbrw", counterexample_graph(), "v"),
        "Z1": ("srw", "nbrw", lattice(1), 0),
        "Z2": ("srw", "nbrw", lattice(2), (2, -1)),
        "Z3": ("srw", "nbrw", lattice(3), (0, 0, 0)),
        "Z2-t1": ("srw", "nbrw", subdivided_lattice(2, 1), (1, 0)),
        "tree3-root": ("srw", "nbrw", regular_tree(3), ()),
        "tree3-below": ("srw", "nbrw", regular_tree(3), (2, 1)),
        "tree4-3-root": ("srw", "nbrw", biregular_tree(4, 3), ()),
        "tree4-3-below": ("srw", "nbrw", biregular_tree(4, 3), (3,)),
        "multigraph": ("wrw", "nbrw", mg, mg.default_start()),
    }
    return [
        pytest.param(kind, g, start, id=f"{name}-{kind}")
        for name, (*kinds, g, start) in cases.items()
        for kind in kinds
    ]


@pytest.mark.parametrize("kind, g, start", _reference_cases())
def test_walk_equals_scalar_reference(kind, g, start):
    # tree keys are root paths, which sample_path builds and the reference
    # checks on every step, so on trees both cost O(depth) a step and stop
    # at 1025 steps (_generic_replica's tree walker builds no key); the
    # longest walk reads a few blocks of 32-bit outputs
    horizons = (0, 1, 1023, 1024, 1025)
    if not isinstance(g, BiregularTree):
        horizons += (5000, 4 * _CHUNK + 3)
    # each generator runs two walks, so the second starts with whatever
    # spare half the first left
    for n in horizons:
        seed = 7 * n + 1
        fast, ref = rng(seed), rng(seed)
        path = sample_path(kind, g, start, n, fast)
        assert path == (start, *walk_reference(kind, g, start, n, ref)), n
        assert fast.bit_generator.state == ref.bit_generator.state, n
        row = _generic_replica(kind, g, start, n, fast)
        assert row == return_statistics((start, *walk_reference(kind, g, start, n, ref)), start, g), n
        assert fast.bit_generator.state == ref.bit_generator.state, n


def test_walk_leaves_the_scalar_state_when_closed_early_or_raising():
    mg, _ = contract(subdivide(theta_graph(), 1))
    for kind, g, start in [("srw", k4(), 0), ("nbrw", lattice(2), (0, 0)), ("wrw", mg, mg.default_start())]:
        for k in (0, 1, 2, 7, 100):
            fast, ref = rng(k), rng(k)
            walk = _walk(kind, g, start, 1000, fast)
            assert list(islice(walk, k)) == list(islice(walk_reference(kind, g, start, 1000, ref), k))
            walk.close()
            assert fast.bit_generator.state == ref.bit_generator.state, (kind, k)
    # NBRW on a path graph runs into the far end after a few steps, on
    # PCG64 at six seeds and on every bit generator at one
    path = from_adjacency({i: [j for j in (i - 1, i + 1) if 0 <= j < 6] for i in range(6)})
    for make, seed in [(rng, seed) for seed in range(6)] + [(make, 3) for make in ALL_GENERATORS.values()]:
        fast, ref = make(seed), make(seed)
        with pytest.raises(NoLegalMove, match="step") as got:
            sample_path("nbrw", path, 2, 50, fast)
        with pytest.raises(NoLegalMove) as want:
            tuple(walk_reference("nbrw", path, 2, 50, ref))
        assert str(got.value) == str(want.value)
        np.testing.assert_equal(fast.bit_generator.state, ref.bit_generator.state)
    # on every bit generator, closed early, and NBRW on subdivided K4,
    # whose steps from a degree-2 vertex draw integers(1), which is
    # nothing, so a whole walk leaves outputs of its block unused
    k4_1 = subdivide(k4(), 1)
    for name, make in sorted(ALL_GENERATORS.items()):
        for kind, g, start, n, k in [
            ("srw", k4(), 0, 1000, 7),
            ("wrw", mg, mg.default_start(), 1000, 100),
            ("nbrw", k4_1, 0, 30, 30),
            ("nbrw", k4_1, (0, 1, 1), 31, 30),
        ]:
            fast, ref = make(k), make(k)
            walk = _walk(kind, g, start, n, fast)
            assert list(islice(walk, k)) == list(islice(walk_reference(kind, g, start, n, ref), k)), (name, kind)
            walk.close()
            np.testing.assert_equal(fast.bit_generator.state, ref.bit_generator.state)
            assert fast.integers(2**32, size=3).tolist() == ref.integers(2**32, size=3).tolist(), (name, kind)


def test_walk_on_another_bit_generator_uses_the_scalar_calls():
    for kind, g, start in [("srw", k4(), 0), ("nbrw", regular_tree(3), (0,))]:
        fast = np.random.Generator(np.random.MT19937(11))
        ref = np.random.Generator(np.random.MT19937(11))
        assert sample_path(kind, g, start, 700, fast) == (start, *walk_reference(kind, g, start, 700, ref))
        assert fast.bit_generator.state["state"]["pos"] == ref.bit_generator.state["state"]["pos"]
        assert (fast.bit_generator.state["state"]["key"] == ref.bit_generator.state["state"]["key"]).all()
    # every bit generator takes _Draws: the counterexample's SRW and NBRW
    # on subdivided K4, which leaves outputs unused, at one block and
    # across block seams, and a tree path, whose keys cost O(depth) a step
    long = (5, 700, _CHUNK + 9)
    cases = [
        ("srw", counterexample_graph(), "v", long),
        ("nbrw", subdivide(k4(), 1), 0, long),
        ("nbrw", regular_tree(3), (0,), (5, 700)),
    ]
    for name, make in sorted(ALL_GENERATORS.items()):
        for kind, g, start, horizons in cases:
            for n in horizons:
                fast, ref = make(n), make(n)
                assert sample_path(kind, g, start, n, fast) == (start, *walk_reference(kind, g, start, n, ref)), (
                    name, kind, n
                )
                np.testing.assert_equal(fast.bit_generator.state, ref.bit_generator.state)
                assert fast.integers(2**32, size=3).tolist() == ref.integers(2**32, size=3).tolist(), (name, kind, n)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_lattice_path_equals_scalar_reference(d, monkeypatch):
    # a short chunk puts each horizon at a chunk seam cheaply; the scalar
    # reference costs several microseconds a step
    chunk = 7
    monkeypatch.setattr("nbwalk.walkers._CHUNK", chunk)
    horizons = (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 5)
    g = lattice(d)
    for kind in ("srw", "nbrw"):
        for start in (g.default_start(), -5 if d == 1 else (3, -2, 40, -1)[:d]):
            for make in (np.random.PCG64, np.random.MT19937):
                # one generator pair for every horizon, so each walk starts
                # with whatever spare half the last one left
                fast, ref = np.random.Generator(make(d)), np.random.Generator(make(d))
                for n in horizons:
                    path = sample_path(kind, g, start, n, fast)
                    assert path == (start, *walk_reference(kind, g, start, n, ref)), (kind, start, n)
                    np.testing.assert_equal(fast.bit_generator.state, ref.bit_generator.state)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_packed_offsets_round_trip_at_a_full_chunk_on_every_axis(d):
    # a chunk's offsets reach +-_CHUNK on an axis; every mix of those
    # extremes fits in an int64 and unpacks to itself, as an int and as
    # an array entry
    for signs in product((-1, 0, 1), repeat=d):
        offsets = [s * _CHUNK for s in signs]
        packed = _pack(offsets)
        assert _unpack(packed, d) == offsets
        assert [int(a[0]) for a in _unpack(np.array([packed], dtype=np.int64), d)] == offsets


@pytest.mark.parametrize("kind, d, start", [("srw", 2, (0, 0)), ("nbrw", 4, (3, -2, 40, -1))])
def test_lattice_path_at_full_chunks_equals_scalar_reference(kind, d, start):
    g = lattice(d)
    fast, ref = rng(d), rng(d)
    assert sample_path(kind, g, start, 2 * _CHUNK + 5, fast) == (
        start, *walk_reference(kind, g, start, 2 * _CHUNK + 5, ref)
    )
    assert fast.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_subdivided_lattice_path_equals_scalar_reference(d, t, monkeypatch):
    # chunk 7 holds 3 corridors of pitch 2, 2 of pitch 3 or 1 of pitch 4,
    # so the longer horizons cross chunk seams
    chunk = 7
    monkeypatch.setattr("nbwalk.walkers._CHUNK", chunk)
    g = subdivided_lattice(d, t)
    pitch = t + 1
    horizons = (0, 1, 2, 3 * pitch - 1, 3 * pitch, 3 * pitch + 1, 4 * chunk + 1)
    for kind in ("srw", "nbrw"):
        for start in subdivided_starts(g):
            for make in (np.random.PCG64, np.random.MT19937):
                fast, ref = np.random.Generator(make(d + 4 * t)), np.random.Generator(make(d + 4 * t))
                for n in horizons:
                    path = sample_path(kind, g, start, n, fast)
                    assert path == (start, *walk_reference(kind, g, start, n, ref)), (kind, start, n)
                    np.testing.assert_equal(fast.bit_generator.state, ref.bit_generator.state)


@pytest.mark.parametrize("kind, d, t", [("srw", 2, 1), ("nbrw", 3, 2)])
def test_subdivided_lattice_path_at_full_chunks_equals_scalar_reference(kind, d, t):
    g = subdivided_lattice(d, t)
    start = subdivided_starts(g)[1]
    fast, ref = rng(d), rng(d)
    assert sample_path(kind, g, start, 2 * _CHUNK + 5, fast) == (
        start, *walk_reference(kind, g, start, 2 * _CHUNK + 5, ref)
    )
    assert fast.bit_generator.state == ref.bit_generator.state


def test_lattice_kernel_takes_nbrw_and_pitch_2_srw_from_anchors_only():
    on = walkers._on_lattice_kernel
    srw, nbrw, wrw = walkers.WalkKind
    for t in (0, 1, 2, 3):
        g = subdivided_lattice(2, t)
        origin, anchor, corridor = subdivided_starts(g)
        for start in (origin, anchor):
            assert on(nbrw, g, start)
            assert on(srw, g, start) is (t <= 1)
            assert not on(wrw, g, start)
        if t:
            assert not on(srw, g, corridor) and not on(nbrw, g, corridor)
    mg = theta_multigraph()
    assert not on(wrw, mg, mg.default_start()) and not on(nbrw, mg, mg.default_start())
    assert not on(srw, k4(), 0) and not on(nbrw, regular_tree(3), ())


def test_subdivided_lattice_with_corridors_longer_than_a_chunk_stays_generic(monkeypatch):
    # a chunk holds whole corridors, so pitch 4 > _CHUNK = 3 has none to hold
    g = subdivided_lattice(2, 3)
    srw, nbrw, _ = walkers.WalkKind
    assert not walkers._on_lattice_kernel(nbrw, subdivided_lattice(2, _CHUNK), (0, 0))
    monkeypatch.setattr("nbwalk.walkers._CHUNK", 3)
    for kind in (srw, nbrw):
        for start in subdivided_starts(g):
            assert not walkers._on_lattice_kernel(kind, g, start)
            fast, slow, path, ref = rng(5), rng(5), rng(5), rng(5)
            for n in (0, 1, 4, 13):
                assert _replica(kind, g, start, n)(fast) == _generic_replica(kind, g, start, n, slow), (kind, start, n)
                assert sample_path(kind, g, start, n, path) == (start, *walk_reference(kind, g, start, n, ref))
                assert fast.bit_generator.state == slow.bit_generator.state == path.bit_generator.state
                assert path.bit_generator.state == ref.bit_generator.state


def test_invalid_start_raises_only_when_a_step_is_taken():
    mg, _ = contract(theta_graph())
    cases = [
        ("srw", lattice(2), (1,)),
        ("nbrw", lattice(2), (1,)),
        ("srw", lattice(1), (0,)),
        ("nbrw", subdivided_lattice(2, 1), (1, 1)),
        ("srw", regular_tree(3), (3,)),
        ("nbrw", biregular_tree(4, 3), (0, 2)),
        ("srw", k4(), 9),
        ("wrw", mg, "nowhere"),
        ("nbrw", mg, "nowhere"),
    ]
    for kind, g, start in cases:
        assert sample_path(kind, g, start, 0, rng(0)) == (start,)
        with pytest.raises(InvalidParameter):
            sample_path(kind, g, start, 1, rng(0))


@pytest.mark.parametrize(
    "law",
    [
        lambda g, start, n: enumerate_prefix_distribution("srw", g, start, n),
        lambda g, start, n: erased_prefix_distribution(g, start, n + 1, n),
        lambda g, start, n: enumerate_move_distribution(g, start, n),
    ],
    ids=["prefix", "erased_prefix", "move"],
)
@pytest.mark.parametrize(
    "graph, start",
    [(k4, [0]), (k4, 9), (partial(lattice, 2), [0, 0]), (partial(lattice, 2), (1,))],
    ids=["k4-unhashable", "k4-unknown", "lattice-unhashable", "lattice-unknown"],
)
@pytest.mark.parametrize("n", [1, 3])
def test_an_exact_law_that_takes_a_step_refuses_a_start_the_graph_lacks(law, graph, start, n):
    with pytest.raises(InvalidParameter):
        law(graph(), start, n)


def test_a_zero_step_prefix_law_leaves_the_start_unchecked():
    # as a 0-step sample_path does
    assert enumerate_prefix_distribution("srw", k4(), 9, 0).entries == {(9,): 1}


@pytest.mark.parametrize("kind", ["srw", "nbrw"])
def test_walk_below_the_root_checks_the_start_key_once(kind, monkeypatch):
    calls = []
    check = BiregularTree._check

    def counted(self, v):
        calls.append(v)
        return check(self, v)

    monkeypatch.setattr(BiregularTree, "_check", counted)
    path = sample_path(kind, regular_tree(3), (0,), 2000, rng(1))
    assert calls == [(0,)]
    assert len(path) == 2001


def _table_path_cases():
    cubic10 = graph_from_spec(json.loads(CUBIC10))
    cases = {f"{name}-{kind}": (kind, g, s) for name, g, s in [("k4", k4(), 0), ("cubic10", cubic10, 7)]
             for kind in ("srw", "nbrw")}
    # both vertices of the contracted theta graph have multigraph degree 3
    cases["theta-edge-nbrw"] = ("nbrw", theta_multigraph(), "u")
    # resistances 1 to 4, parallel edges, self-loops, and degree 5
    for name in ("corridor-k4", "theta", "two-loops", "five-parallel"):
        cases[f"{name}-wrw"] = ("wrw", *WRW_TABLE_CASES[name])
    return cases


TABLE_PATH_CASES = _table_path_cases()


def _recording_move_table(monkeypatch, walks=None):
    """Patch ``walkers._move_table`` to record ``(n, walks, built)`` per
    call, building with ``walks`` in place of the caller's when one is given."""
    calls = []
    move_table = walkers._move_table

    def recording(kind, graph, start, n, asked=1):
        table = move_table(kind, graph, start, n, asked if walks is None else walks)
        calls.append((n, asked, table is not None))
        return table

    monkeypatch.setattr(walkers, "_move_table", recording)
    return calls


@pytest.mark.parametrize("block", [1, 2, 3, None])
@pytest.mark.parametrize("name", sorted(TABLE_PATH_CASES))
def test_table_path_equals_the_generic_stepper(name, block, monkeypatch):
    kind, g, start = TABLE_PATH_CASES[name]
    table = walkers._move_table(walkers.WalkKind(kind), g, start, 10**9)
    rows = table.rows
    entries = len(rows) * len(rows[0])
    # srw and wrw read the first step off the start's row; nbrw's first
    # step, with no history, has a first row of one entry per neighbor
    if kind == "nbrw":
        assert len(table.first) == (g.mdegree if isinstance(g, WeightedMultigraph) else g.degree)(start)
    else:
        assert table.first == rows[table.vertex.index(start)]
    if block:
        # every short walk meets block seams; the table is built whatever its size
        monkeypatch.setattr(walkers, "_CHUNK", block)
        calls = _recording_move_table(monkeypatch, walks=10**9)
        horizons = range(1, 41)
    else:
        # the first block's seams and two blocks, each giving every entry
        # _TABLE_SHARE steps
        calls = _recording_move_table(monkeypatch)
        horizons = (_CHUNK - 1, _CHUNK, _CHUNK + 1, 9000)
    for n in horizons:
        for gen, make in GENERATORS.items():
            fast, ref = make(n), make(n)
            calls.clear()
            path = sample_path(kind, g, start, n, fast)
            # every kind reads its table on every generator, once it fits
            assert calls == [(n, 1, bool(block) or entries * _TABLE_SHARE <= n)], (n, gen)
            assert path == (start, *_walk(kind, g, start, n, ref)), (n, gen)
            np.testing.assert_equal(fast.bit_generator.state, ref.bit_generator.state)
            assert fast.integers(2**32, size=3).tolist() == ref.integers(2**32, size=3).tolist(), (n, gen)


def _two_k4s():
    """Two K4s joined by the edges 0-4 and 1-5: degrees 3 and 4."""
    adjacency = {v: [w for w in range(8) if w != v and w // 4 == v // 4] for v in range(8)}
    for a, b in ((0, 4), (1, 5)):
        adjacency[a].append(b)
        adjacency[b].append(a)
    return from_adjacency(adjacency)


@pytest.mark.parametrize("gen", ["pcg64", "mt19937"])
@pytest.mark.parametrize("name", ["k4", "cubic10", "two-k4s"])
def test_contraction_without_corridors_is_the_identity_pathwise(name, gen):
    # every vertex has degree 3 or more, so every vertex is an anchor and
    # every resistance is 1: srw on g is wrw on contract(g) draw for draw,
    # and vertex nbrw on g is edge nbrw on contract(g)
    g = {"k4": k4, "cubic10": lambda: graph_from_spec(json.loads(CUBIC10)), "two-k4s": _two_k4s}[name]()
    mg, _ = contract(g)
    assert mg.vertices() == g.vertices() and {e.resistance for e in mg.edges()} == {1}
    make = GENERATORS[gen]

    def stepped(kind, graph, start, n, rng):
        return (start, *_walk(kind, graph, start, n, rng))

    for plain, weighted in (("srw", "wrw"), ("nbrw", "nbrw")):
        for n in (1, 50, 5000):
            a, b = make(n), make(n)
            # at 5,000 steps sample_path reads a move table on the regular
            # graphs; _walk steps the samplers.  Each generator runs both
            # walks, so the second starts with the spare half the first left
            for walk in (sample_path, stepped):
                assert walk(plain, g, 0, n, a) == walk(weighted, mg, 0, n, b), (plain, n)
                np.testing.assert_equal(a.bit_generator.state, b.bit_generator.state)
            assert a.integers(2**32, size=3).tolist() == b.integers(2**32, size=3).tolist(), (plain, n)


def test_sample_path_takes_the_generic_stepper_without_a_table(monkeypatch):
    calls = _recording_move_table(monkeypatch)
    stepped = []
    walk = walkers._walk

    def counting(*args):
        stepped.append(args[0])
        return walk(*args)

    monkeypatch.setattr(walkers, "_walk", counting)
    mg, _ = contract(subdivide(theta_graph(), 1))
    # (kind, graph, start, steps, the (n, walks, built) of each _move_table call)
    e = _TABLE_SHARE
    cases = [
        # K4's srw table has 12 entries and its nbrw table 24; a walk takes
        # one from _TABLE_SHARE steps an entry
        ("srw", k4(), 0, 12 * e - 1, [(12 * e - 1, 1, False)]),
        ("srw", k4(), 0, 12 * e, [(12 * e, 1, True)]),
        ("nbrw", k4(), 0, 24 * e - 1, [(24 * e - 1, 1, False)]),
        ("nbrw", k4(), 0, 24 * e, [(24 * e, 1, True)]),
        # criterion 1's 30-step K4 srw walks, 2.5 steps an entry
        ("srw", k4(), 0, 30, [(30, 1, True)]),
        # degrees 2 and 3
        ("srw", counterexample_graph(), "v", 5000, [(5000, 1, False)]),
        ("nbrw", counterexample_graph(), "v", 5000, [(5000, 1, False)]),
        # K2's srw draws integers(1), which draws nothing
        ("srw", from_adjacency({0: [1], 1: [0]}), 0, 5000, [(5000, 1, True)]),
        # a wrw walk on a regular multigraph reads a table; lattices and trees get none
        ("wrw", mg, mg.default_start(), 5000, [(5000, 1, True)]),
        ("srw", subdivided_lattice(2, 2), (1, 0), 5000, [(5000, 1, False)]),
        ("srw", regular_tree(3), (0,), 5000, [(5000, 1, False)]),
    ]
    for kind, g, start, n, want in cases:
        calls.clear()
        stepped.clear()
        fast, ref = rng(n), rng(n)
        assert sample_path(kind, g, start, n, fast) == (start, *walk(kind, g, start, n, ref)), (kind, start)
        assert fast.bit_generator.state == ref.bit_generator.state
        assert calls == want, (kind, start)
        assert stepped == ([] if want and want[0][2] else [kind]), (kind, start)


def _k2():
    return from_adjacency({0: [1], 1: [0]})


@pytest.mark.parametrize(
    "kind, graph, start, error, message",
    [
        ("srw", k4, 9, InvalidParameter, "unknown vertex 9"),
        ("nbrw", k4, 9, InvalidParameter, "unknown vertex 9"),
        ("nbrw", theta_multigraph, "nowhere", InvalidParameter, "unknown vertex 'nowhere'"),
        ("srw", theta_multigraph, "u", InvalidInput, "srw runs on a plain graph, not a multigraph"),
        # the kind is refused before the start is looked up
        ("srw", theta_multigraph, "nowhere", InvalidInput, "srw runs on a plain graph, not a multigraph"),
        ("nbrw", _k2, 0, NoLegalMove, "step 2: vertex 1 has degree 1, only move is back"),
        ("nbrw", counterexample_graph, "nowhere", InvalidParameter, "unknown vertex 'nowhere'"),
        ("srw", k4, [0], InvalidParameter, "unknown vertex [0]"),
        ("wrw", theta_multigraph, "nowhere", InvalidParameter, "unknown vertex 'nowhere'"),
        ("wrw", k4, 0, InvalidInput, "wrw needs a weighted multigraph"),
    ],
    ids=["srw-start", "nbrw-start", "edge-nbrw-start", "srw-multigraph", "srw-multigraph-start", "k2-nbrw",
         "counterexample-start", "unhashable-start", "wrw-start", "wrw-plain-graph"],
)
@pytest.mark.parametrize("n", [30, 5000])
def test_sample_path_refuses_as_the_generic_stepper(kind, graph, start, error, message, n):
    g = graph()
    fast, ref = rng(n), rng(n)
    with pytest.raises(error) as got:
        sample_path(kind, g, start, n, fast)
    with pytest.raises(error) as want:
        tuple(_walk(kind, g, start, n, ref))
    assert str(got.value) == str(want.value) == message
    assert fast.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "call",
    [
        lambda kind: monte_carlo(kind, k4(), 0, 10, 1, 0),
        lambda kind: sample_path(kind, k4(), 0, 10, rng(0)),
        lambda kind: enumerate_prefix_distribution(kind, k4(), 0, 2),
        lambda kind: step_distribution(kind, k4(), 0),
        lambda kind: induced_prefix_distribution(k4(), kind, 0, 2),
    ],
    ids=["monte_carlo", "sample_path", "enumerate_prefix_distribution", "step_distribution",
         "induced_prefix_distribution"],
)
def test_an_unknown_walk_kind_is_invalid_input(call):
    for kind in ("xyz", "SRW", None):
        with pytest.raises(InvalidInput, match=f"unknown walk kind {kind!r}"):
            call(kind)
