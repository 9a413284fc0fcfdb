from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbwalk import (
    InvalidInput,
    InvalidParameter,
    LimitExceeded,
    UnsupportedGraph,
    UnsupportedStructure,
    WeightedMultigraph,
    biregular_tree,
    chain_for_biregular,
    contract,
    counterexample_graph,
    enumerate_prefix_distribution,
    find_corridors,
    from_adjacency,
    induced_prefix_distribution,
    induced_walk,
    lattice,
    sample_path,
    subdivide,
)

from helpers import check_biregular_shape, complete_bipartite, cycle, k4, rng, theta_graph, two_loop_graph


def test_find_corridors_subdivided_k4():
    cs = find_corridors(subdivide(k4(), 1))
    assert len(cs) == 6
    assert all(c.length == 2 for c in cs)
    assert sorted((c.a, c.b) for c in cs) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_find_corridors_k4_direct():
    cs = find_corridors(k4())
    assert len(cs) == 6
    assert all(c.length == 1 and c.interior == () for c in cs)


def test_find_corridors_rejections():
    with pytest.raises(UnsupportedStructure):
        find_corridors(cycle(6))
    with pytest.raises(UnsupportedStructure):
        find_corridors(from_adjacency({0: [1], 1: [0]}))
    two_triangles = from_adjacency(
        {0: [1, 2], 1: [0, 2], 2: [0, 1], 3: [4, 5], 4: [3, 5], 5: [3, 4]}
    )
    with pytest.raises(UnsupportedStructure):
        find_corridors(two_triangles)
    with pytest.raises(UnsupportedGraph):
        find_corridors(lattice(2))


def test_contract_subdivided_k4():
    mg, cmap = contract(subdivide(k4(), 1))
    assert mg.vertices() == (0, 1, 2, 3)
    assert sorted((e.a, e.b, e.resistance) for e in mg.edges()) == [
        (0, 1, 2), (0, 2, 2), (0, 3, 2), (1, 2, 2), (1, 3, 2), (2, 3, 2)
    ]
    assert cmap.max_length == 2


def test_contract_theta():
    mg, cmap = contract(theta_graph())
    assert mg.vertices() == ("u", "w")
    assert sorted(e.resistance for e in mg.edges()) == [1, 2, 3]
    assert all({e.a, e.b} == {"u", "w"} for e in mg.edges())


def test_contract_two_loops():
    mg, _ = contract(two_loop_graph())
    assert mg.vertices() == ("v",)
    assert [(e.a, e.b, e.resistance) for e in mg.edges()] == [("v", "v", 3), ("v", "v", 3)]
    assert mg.mdegree("v") == 4


def test_edge_and_vertex_conservation():
    for g, t in [(k4(), 1), (k4(), 3), (counterexample_graph(), 2), (theta_graph(), 0)]:
        sub = subdivide(g, t) if t else g
        mg, cmap = contract(sub)
        assert sum(c.length for c in cmap.corridors) == len(sub.edges())
        interiors = sum(len(c.interior) for c in cmap.corridors)
        assert len(mg.vertices()) + interiors == len(sub.vertices())
        for c in cmap.corridors:
            assert all(sub.degree(x) == 2 for x in c.interior)
            assert sub.degree(c.a) != 2 and sub.degree(c.b) != 2


@st.composite
def _graphs_with_anchors(draw):
    """A simple, connected graph of minimum degree 2 with an anchor: a
    cycle through 1-4 base vertices and 1-4 more base edges, loops and
    parallel edges among them, each edge subdivided enough to be simple."""
    base = draw(st.integers(1, 4))
    ends = st.integers(0, base - 1)
    pairs = [(i, (i + 1) % base) for i in range(base)]
    pairs += draw(st.lists(st.tuples(ends, ends), min_size=1, max_size=4))
    adjacency = {v: [] for v in range(base)}
    seen = set()
    for a, b in pairs:
        # a loop needs two interior vertices and a repeated pair one
        least = 2 if a == b else int(frozenset((a, b)) in seen)
        seen.add(frozenset((a, b)))
        fresh = len(adjacency)
        path = [a, *range(fresh, fresh + draw(st.integers(least, least + 3))), b]
        for v, w in zip(path, path[1:]):
            adjacency.setdefault(v, []).append(w)
            adjacency.setdefault(w, []).append(v)
    return from_adjacency(adjacency)


@settings(max_examples=200, deadline=None)
@given(_graphs_with_anchors())
def test_corridors_cover_each_edge_once_and_end_at_the_anchors(g):
    corridors = find_corridors(g)
    covered = Counter(frozenset(e) for c in corridors for e in zip((c.a, *c.interior), (*c.interior, c.b)))
    assert covered == Counter(frozenset(e) for e in g.edges())
    _, cmap = contract(g)
    assert cmap.anchors == {v for v in g.vertices() if g.degree(v) != 2}


@pytest.mark.parametrize("t", [1, 2, 3])
def test_round_trip_recovers_base_graph(t):
    for g in (k4(), complete_bipartite(3, 4)):
        mg, _ = contract(subdivide(g, t))
        assert set(mg.vertices()) == set(g.vertices())
        got = sorted((min(e.a, e.b, key=str), max(e.a, e.b, key=str), e.resistance) for e in mg.edges())
        want = sorted((min(a, b, key=str), max(a, b, key=str), t + 1) for a, b in g.edges())
        assert got == want


def test_induced_walk_identity_on_anchors():
    g = k4()
    _, cmap = contract(g)
    walk = induced_walk((0, 1, 2, 0, 3), cmap)
    assert walk.vertices == (0, 1, 2, 0, 3)
    assert all(not reflected for _, reflected in walk.traversals)


def test_induced_walk_crossing_and_reflection():
    g = subdivide(k4(), 1)
    _, cmap = contract(g)
    mid = (0, 1, 1)
    crossed = induced_walk((0, mid, 1), cmap)
    assert crossed.vertices == (0, 1)
    assert crossed.traversals[0][1] is False
    bounced = induced_walk((0, mid, 0), cmap)
    assert bounced.vertices == (0, 0)
    assert bounced.traversals[0][1] is True
    eid = bounced.traversals[0][0]
    c = cmap.corridors[eid]
    assert {c.a, c.b} == {0, 1}


def test_induced_walk_requires_anchor_start():
    g = subdivide(k4(), 1)
    _, cmap = contract(g)
    with pytest.raises(InvalidInput):
        induced_walk(((0, 1, 1), 0), cmap)


def test_induced_walk_refuses_a_step_off_its_corridor():
    g = theta_graph()
    _, cmap = contract(g)
    # p1 lies on the corridor u-p1-w, and p1-q2 is not an edge
    with pytest.raises(InvalidInput, match="the step 'p1' -> 'q2' leaves corridor"):
        induced_walk(("u", "p1", "q2", "w"), cmap)
    with pytest.raises(InvalidInput, match="enters no corridor of the map"):
        induced_walk(("u", "q2"), cmap)


def test_entrance_to_the_wrong_corridor_is_refused():
    # the step u -> p1 sent into the corridor u-q1-q2-w
    g = theta_graph()
    _, cmap = contract(g)
    wrong = replace(cmap, entrances={**cmap.entrances, ("u", "p1"): cmap.entrances[("u", "q1")]})
    match = r"does not start with the step 'u' -> 'p1'"
    for kind in ("srw", "nbrw"):
        with pytest.raises(InvalidInput, match=match):
            induced_prefix_distribution(g, kind, "u", 2, wrong)
    with pytest.raises(InvalidInput, match=match):
        induced_walk(("u", "p1", "w"), wrong)


def test_induced_walk_loop_crossing_not_reflected():
    g = two_loop_graph()
    _, cmap = contract(g)
    walk = induced_walk(("v", "x1", "x2", "v"), cmap)
    assert walk.vertices == ("v", "v")
    assert walk.traversals[0][1] is False
    back = induced_walk(("v", "x1", "v"), cmap)
    assert back.traversals[0][1] is True


def test_induced_srw_equals_wrw_exactly():
    for g, start in [(subdivide(k4(), 1), 0), (theta_graph(), "u")]:
        mg, cmap = contract(g)
        induced = induced_prefix_distribution(g, "srw", start, 2, cmap)
        target = enumerate_prefix_distribution("wrw", mg, start, 2)
        assert induced == target


def test_induced_nbrw_equals_edge_nbrw_exactly():
    for g, start in [(subdivide(k4(), 1), 0), (theta_graph(), "u"), (two_loop_graph(), "v")]:
        mg, cmap = contract(g)
        induced = induced_prefix_distribution(g, "nbrw", start, 2, cmap)
        target = enumerate_prefix_distribution("nbrw", mg, start, 2)
        assert induced == target


def test_induced_law_matches_filtered_sampling():
    # the exact induced srw law should agree with literally filtering
    # sampled paths through the anchor observer
    g = theta_graph()
    mg, cmap = contract(g)
    law = induced_prefix_distribution(g, "srw", "u", 1, cmap)
    r = rng(5150)
    counts = {}
    n = 20000
    for _ in range(n):
        path = sample_path("srw", g, "u", 30, r)
        obs = induced_walk(path, cmap)
        key = obs.vertices[:2]
        assert len(key) == 2
        counts[key] = counts.get(key, 0) + 1
    for key, p in law.entries.items():
        f = counts.get(key, 0) / n
        assert abs(f - float(p)) < 0.02


def test_nbrw_never_reflects_in_corridors():
    for g, start in [(subdivide(k4(), 2), 0), (theta_graph(), "u")]:
        _, cmap = contract(g)
        r = rng(808)
        for _ in range(300):
            path = sample_path("nbrw", g, start, 24, r)
            obs = induced_walk(path, cmap)
            assert all(not reflected for _, reflected in obs.traversals)


def test_biregular_shape_check():
    mg34, _ = contract(subdivide(complete_bipartite(3, 4), 1))
    assert check_biregular_shape(mg34, 4, 3)
    mg4, _ = contract(subdivide(k4(), 1))
    assert not check_biregular_shape(mg4, 4, 3)
    assert not check_biregular_shape(mg4, 3, 2)
    # every degree is 3, outside the pair
    assert check_biregular_shape(mg4, 5, 4) is False
    mgl, _ = contract(two_loop_graph())
    assert not check_biregular_shape(mgl, 4, 2)
    # degrees 4 and 2, and both a-b edges join the classes; the loop at a does not
    loop = WeightedMultigraph(["a", "b"], [("a", "a", 1), ("a", "b", 1), ("a", "b", 2)])
    assert not check_biregular_shape(loop, 4, 2)


def test_degree_pair_rule_is_shared():
    mg34, _ = contract(subdivide(complete_bipartite(3, 4), 1))
    for k1, k2 in [(3, 4), (3, 3), (2, 1), (4, True), (4.0, 3), ("4", 3)]:
        assert not check_biregular_shape(mg34, k1, k2)
        for build in (biregular_tree, chain_for_biregular):
            with pytest.raises(InvalidParameter, match="need k1 > k2 >= 2"):
                build(k1, k2)
    assert check_biregular_shape(mg34, np.int64(4), np.int64(3))
    assert biregular_tree(np.int64(4), np.int64(3)).k1 == 4
    assert chain_for_biregular(np.int64(4), np.int64(3)) == chain_for_biregular(4, 3)


def test_induced_prefix_requires_anchor():
    g = theta_graph()
    with pytest.raises(InvalidInput):
        induced_prefix_distribution(g, "srw", "p1", 2)


def test_induced_prefix_takes_srw_or_nbrw():
    with pytest.raises(InvalidInput, match="induced laws are defined for srw and nbrw"):
        induced_prefix_distribution(theta_graph(), "wrw", "u", 2)


def test_induced_prefix_guards_caller_input():
    g = theta_graph()
    _, cmap = contract(g)
    for kind in ("srw", "nbrw"):
        with pytest.raises(LimitExceeded):
            induced_prefix_distribution(g, kind, "u", 15, cmap)
    # a map that drops the two longer corridors: its entrances name
    # corridors it no longer has
    short = replace(cmap, corridors=cmap.corridors[:1])
    assert short.max_length == 1
    for kind in ("srw", "nbrw"):
        with pytest.raises(InvalidInput, match="enters no corridor of the map"):
            induced_prefix_distribution(g, kind, "u", 2, short)
    # a map that drops anchor w sends the walk through w as if it had degree 2
    no_w = replace(cmap, anchors=frozenset({"u"}))
    with pytest.raises(InvalidInput):
        induced_prefix_distribution(g, "nbrw", "u", 2, no_w)
    with pytest.raises(InvalidInput, match="which is not an anchor"):
        induced_prefix_distribution(g, "srw", "u", 2, no_w)
    # a map without entrances
    with pytest.raises(InvalidInput, match="enters no corridor of the map"):
        induced_prefix_distribution(g, "srw", "u", 2, replace(cmap, entrances={}))
