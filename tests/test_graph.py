import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbwalk import (
    InvalidParameter,
    Lattice,
    MalformedGraph,
    UnsupportedGraph,
    WeightedMultigraph,
    biregular_tree,
    counterexample_graph,
    decode_key,
    encode_key,
    from_adjacency,
    graph_from_spec,
    lattice,
    regular_tree,
    subdivide,
    subdivided_lattice,
)
from nbwalk import graph as graph_module
from nbwalk.graph import canon_key, sort_token

from helpers import complete_bipartite, k4, random_graph, rng, triangle


def test_lattice_1d_neighbors():
    g = lattice(1)
    assert g.neighbors(0) == (1, -1)
    assert g.degree(0) == 2


def test_lattice_2d_degree():
    g = lattice(2)
    assert g.degree((0, 0)) == 4
    assert g.neighbors((0, 0)) == ((1, 0), (-1, 0), (0, 1), (0, -1))


def test_lattice_3d_neighbor_structure():
    g = lattice(3)
    v = (1, -2, 0)
    assert g.degree(v) == 6
    for w in g.neighbors(v):
        diffs = [abs(a - b) for a, b in zip(v, w)]
        assert sorted(diffs) == [0, 0, 1]


@pytest.mark.parametrize("d", [0, 5, -1])
def test_lattice_dimension_guard(d):
    with pytest.raises(InvalidParameter):
        lattice(d)


def test_sizes_refuse_bools_and_take_numpy_integers():
    for bad in [lambda: Lattice(True), lambda: Lattice(2, True), lambda: regular_tree(True)]:
        with pytest.raises(InvalidParameter):
            bad()
    lat, tree = Lattice(np.int64(2), np.int8(1)), regular_tree(np.int64(3))
    assert (lat.d, lat.pitch, tree.k) == (2, 2, 3)
    assert all(type(x) is int for x in (lat.d, lat.pitch, tree.k, tree.k1, tree.k2))


def test_subdivided_lattice_degrees():
    g = subdivided_lattice(2, 2)
    assert g.degree((0, 0)) == 4
    assert g.degree((1, 0)) == 2
    assert g.degree((2, 0)) == 2
    assert g.degree((3, 0)) == 4
    assert g.neighbors((1, 0)) == ((2, 0), (0, 0))
    with pytest.raises(InvalidParameter):
        g.neighbors((1, 1))  # two off-grid coordinates


def test_regular_tree_degrees():
    g = regular_tree(3)
    assert g.degree(()) == 3
    deep = (0, 1, 1, 0, 1)
    assert g.degree(deep) == 3
    assert g.neighbors(deep)[0] == deep[:-1]
    assert all(len(c) == 6 for c in g.neighbors(deep)[1:])


def test_regular_tree_k2_is_path():
    g = regular_tree(2)
    assert g.degree(()) == 2
    v = (1, 0, 0)
    assert g.degree(v) == 2
    assert g.neighbors(v) == ((1, 0), (1, 0, 0, 0))


def test_regular_tree_guard():
    with pytest.raises(InvalidParameter):
        regular_tree(1)


def _ball(g, root, radius):
    seen = {root}
    frontier = [root]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


@pytest.mark.parametrize("k", [3, 4, 5])
def test_regular_tree_ball_sizes(k):
    g = regular_tree(k)
    for r in range(7):
        expect = 1 + k * ((k - 1) ** r - 1) // (k - 2)
        assert len(_ball(g, (), r)) == expect


def test_biregular_tree_alternation():
    g = biregular_tree(4, 3)
    assert g.degree(()) == 4
    for child in g.neighbors(()):
        assert g.degree(child) == 3
    for v in _ball(g, (), 4):
        dv = g.degree(v)
        assert dv in (3, 4)
        for w in g.neighbors(v):
            assert g.degree(w) != dv


def test_biregular_tree_32():
    g = biregular_tree(3, 2)
    assert g.degree(()) == 3
    assert all(g.degree(c) == 2 for c in g.neighbors(()))


def test_biregular_tree_guard():
    with pytest.raises(InvalidParameter):
        biregular_tree(3, 3)


# branch index bounds at depths 0, 1, 2: the root's degree, then one less
# than the degree at each depth below it
@pytest.mark.parametrize("g, bounds", [(regular_tree(3), (3, 2, 2)), (biregular_tree(4, 3), (4, 2, 3))])
def test_tree_branch_index_bounds_below_the_root(g, bounds):
    for depth, bound in enumerate(bounds):
        parent = (0,) * depth
        assert g.neighbors(parent + (bound - 1,))[0] == parent
        with pytest.raises(InvalidParameter):
            g.neighbors(parent + (bound,))


@pytest.mark.parametrize(
    "g",
    [Lattice(d, t) for d in (1, 2, 3) for t in (0, 1, 2)]
    + [regular_tree(2), regular_tree(3), biregular_tree(4, 3), biregular_tree(3, 2)],
    ids=[f"Z{d}-t{t}" for d in (1, 2, 3) for t in (0, 1, 2)] + ["k2", "k3", "k4-3", "k3-2"],
)
def test_adjacent_equals_neighbors_on_vertices(g):
    for v in _ball(g, g.default_start(), 5):
        assert g._adjacent(v) == g.neighbors(v)


@pytest.mark.parametrize(
    "make,start",
    [
        (lambda: lattice(2), (0, 0)),
        (lambda: subdivided_lattice(2, 1), (0, 0)),
        (lambda: regular_tree(3), ()),
        (lambda: biregular_tree(4, 3), ()),
        (k4, 0),
        (counterexample_graph, "v"),
    ],
)
def test_adjacency_symmetry_sampled(make, start):
    g = make()
    r = rng(20240817)
    v = start
    seen = 0
    while seen < 1000:
        for w in g.neighbors(v):
            assert v in g.neighbors(w)
        nbrs = g.neighbors(v)
        v = nbrs[int(r.integers(len(nbrs)))]
        seen += 1


def test_from_adjacency_k4():
    g = k4()
    assert len(g) == 4
    assert all(g.degree(v) == 3 for v in g.vertices())
    assert 0 in g and 9 not in g
    assert g.edges() == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_from_adjacency_validation():
    with pytest.raises(MalformedGraph):
        from_adjacency({0: [1], 1: []})
    with pytest.raises(MalformedGraph):
        from_adjacency({0: [0]})
    with pytest.raises(MalformedGraph):
        from_adjacency({0: [1, 1], 1: [0]})
    with pytest.raises(MalformedGraph):
        from_adjacency({0: [1]})
    # an empty graph has no start; a row must be a list or tuple, so a
    # string is not read as its characters and None is not a row
    for adjacency in [{}, {"a": None}, {"a": "bc", "b": ["a"], "c": ["a"]}, {0: {1}, 1: [0]}]:
        with pytest.raises(MalformedGraph):
            from_adjacency(adjacency)
    assert from_adjacency({0: (1,), 1: [0]}).neighbors(0) == (1,)


def test_subdivide_k4_census():
    g = subdivide(k4(), 1)
    degs = sorted(g.degree(v) for v in g.vertices())
    assert len(g) == 10
    assert degs == [2] * 6 + [3] * 4


def test_subdivide_triangle_census():
    # a triangle is a 3-cycle, so subdividing leaves every vertex at
    # degree 2: the result is a 9-cycle
    g = subdivide(triangle(), 2)
    degs = sorted(g.degree(v) for v in g.vertices())
    assert len(g) == 9
    assert degs == [2] * 9


def test_subdivide_identity():
    g = k4()
    h = subdivide(g, 0)
    assert h.vertices() == g.vertices()
    assert h.edges() == g.edges()


@pytest.mark.parametrize("t", [1, 2, 3])
def test_subdivide_counts(t):
    g = counterexample_graph()
    h = subdivide(g, t)
    assert len(h) == len(g) + t * len(g.edges())
    new = set(h.vertices()) - set(g.vertices())
    assert all(h.degree(v) == 2 for v in new)


def test_subdivide_rejects_implicit():
    with pytest.raises(UnsupportedGraph):
        subdivide(lattice(2), 1)


def test_counterexample_graph_shape():
    g = counterexample_graph()
    census = {v: g.degree(v) for v in g.vertices()}
    assert census == {"v": 3, "y": 3, "x": 2, "z": 2, "a": 2, "b": 2}
    assert g.is_connected()
    assert min(census.values()) == 2


def test_key_round_trips():
    for key in [0, -17, "v", (), (1, -2, 0), (0, 1, 1), ("a", "b", 2), ((), (0,))]:
        assert decode_key(encode_key(key)) == key


@pytest.mark.parametrize(
    "text", ["(", ")", "(0,1", "(0,1)x", "a,b", "x y", "1" * 5000],
    ids=["open", "close", "unbalanced", "trailing", "comma", "space", "long-integer"],
)
def test_key_text_errors_name_the_whole_key(text):
    with pytest.raises(MalformedGraph) as err:
        decode_key(text)
    assert repr(text) in str(err.value)


def _unusable(s):
    try:
        return canon_key(s) != s
    except MalformedGraph:
        return True


# every int, every string that canon_key keeps as a string, and tuples of keys
_KEYS = st.recursive(
    st.integers() | st.text(min_size=1).filter(lambda s: not _unusable(s)),
    lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=12,
)


@settings(deadline=None)
@given(_KEYS)
def test_decode_inverts_encode(key):
    assert decode_key(encode_key(key)) == key


# any text, and text over the characters that key text gives a meaning to
@settings(max_examples=300, deadline=None)
@given(st.text() | st.text(alphabet='(),-01a "\\\t'))
def test_decode_raises_only_malformed_graph(text):
    try:
        decode_key(text)
    except MalformedGraph as exc:
        assert repr(text) in str(exc)


def test_integer_key_with_too_many_digits_is_malformed():
    with pytest.raises(MalformedGraph, match="5000 digits is too long"):
        from_adjacency({"1" * 5000: []})


def test_key_canonicalization_and_order():
    g = from_adjacency({"0": [1], 1: ["0"]})
    assert g.vertices() == (0, 1)
    keys = [3, -1, "z", "a", (0,), ()]
    ordered = sorted(keys, key=sort_token)
    assert ordered == [-1, 3, "a", "z", (), (0,)]


def _colliding_subdivision():
    # the subdivision point of edge 0-1 is keyed (0, 1, 1), a vertex already
    return subdivide(from_adjacency({0: [1], 1: [0, (0, 1, 1)], (0, 1, 1): [1]}), 1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: canon_key(True), MalformedGraph, "boolean is not a usable vertex key"),
        (lambda: from_adjacency({0: [1.5]}), MalformedGraph, "unsupported key type float"),
        (lambda: sort_token(True), MalformedGraph, "boolean is not a usable vertex key"),
        (lambda: biregular_tree(4, 3).neighbors("x"), InvalidParameter, "'x' is not a tree vertex key"),
        (lambda: from_adjacency({"1": ["2"], "01": ["2"], "2": ["1", "01"]}), MalformedGraph, "duplicate vertex key 1"),
        (lambda: subdivide(k4(), -1), InvalidParameter, "subdivision count must be a nonnegative integer"),
        (_colliding_subdivision, MalformedGraph, "subdivision key collision at (0, 1, 1)"),
        (lambda: WeightedMultigraph([0, "0"], []), MalformedGraph, "duplicate vertices"),
        (lambda: WeightedMultigraph([0, 1], [(0, 1, 2), (0, 1)]), MalformedGraph, "edge 1 is not an (a, b, resistance)"),
        (lambda: WeightedMultigraph([0], [7]), MalformedGraph, "edge 0 is not an (a, b, resistance) triple: 7"),
        (lambda: WeightedMultigraph([], []), MalformedGraph, "a multigraph needs at least one vertex"),
    ],
    ids=[
        "canon-bool", "canon-float", "sort-bool", "tree-key-not-tuple", "duplicate-key", "subdivide-negative",
        "subdivide-collision", "multigraph-duplicate-vertices", "multigraph-edge-pair", "multigraph-edge-not-iterable",
        "multigraph-no-vertices",
    ],
)
def test_graph_refusals_name_their_cause(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_multigraph_half_edges_and_loops():
    mg = WeightedMultigraph(["v", "w"], [("v", "w", 1), ("v", "w", 2), ("v", "v", 3)])
    assert mg.mdegree("v") == 4
    assert mg.mdegree("w") == 2
    assert mg.half_edges("v") == ((0, 0), (1, 0), (2, 0), (2, 1))
    assert mg.endpoint(2, 0) == "v" and mg.endpoint(2, 1) == "v"
    with pytest.raises(MalformedGraph):
        WeightedMultigraph(["v"], [("v", "v", 0)])
    with pytest.raises(MalformedGraph):
        WeightedMultigraph(["v"], [("v", "w", 1)])


def test_graph_from_spec_variants():
    assert graph_from_spec({"type": "lattice", "d": 2}).degree((0, 0)) == 4
    assert graph_from_spec({"type": "subdivided_lattice", "d": 2, "t": 1}).degree((1, 0)) == 2
    assert graph_from_spec({"type": "regular_tree", "k": 3}).degree(()) == 3
    assert graph_from_spec({"type": "biregular_tree", "k1": 4, "k2": 3}).degree(()) == 4
    g = graph_from_spec({"type": "explicit", "adjacency": {"0": [1], "1": [0]}})
    assert g.degree(0) == 1
    sub = graph_from_spec(
        {"type": "subdivided", "base": {"type": "counterexample"}, "t": 1}
    )
    assert len(sub) == 6 + 7
    assert graph_from_spec({"type": "counterexample"}).degree("v") == 3


def test_graph_from_spec_rejects_bad_fields():
    with pytest.raises(InvalidParameter):
        graph_from_spec({"type": "torus", "d": 2})
    with pytest.raises(InvalidParameter):
        graph_from_spec({"type": "lattice", "d": 2, "t": 1})
    with pytest.raises(InvalidParameter):
        graph_from_spec({"type": "lattice"})
    with pytest.raises(UnsupportedGraph):
        graph_from_spec({"type": "subdivided", "base": {"type": "lattice", "d": 1}, "t": 1})


def test_displacements():
    assert lattice(2).displacement((3, 4), (0, 0)) == 5.0
    assert regular_tree(3).displacement((0, 1, 0), ()) == 3.0
    # on trees it is the depth from the root, whatever the origin
    assert regular_tree(3).displacement((0, 1, 0), (0,)) == 3.0
    assert biregular_tree(4, 3).displacement((1,), (1,)) == 1.0
    assert k4().displacement(2, 0) == 1.0
    assert k4().displacement(0, 0) == 0.0


def _darts_near(g, start, depth):
    """The darts within ``depth`` steps of ``start``, by keys from ``g``'s lookups."""
    seen, frontier, darts = {start}, [start], []
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for v in g.neighbors(u):
                darts.append((u, v))
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return darts


K5 = from_adjacency({i: [j for j in range(5) if j != i] for i in range(5)})


@pytest.mark.parametrize(
    "g, start, depth",
    [
        (k4(), 0, 2), (counterexample_graph(), "v", 3), (random_graph(3), 0, 3), (K5, 0, 2),
        (subdivide(K5, 2), 0, 4), (lattice(1), 0, 3), (lattice(3), (0, 0, 0), 2),
        (subdivided_lattice(1, 2), 0, 7), (subdivided_lattice(2, 3), (0, 0), 9), (subdivided_lattice(2, 2), (1, 0), 7),
        (regular_tree(3), (), 4), (biregular_tree(4, 3), (0, 1), 5),
    ],
    ids=["k4", "counterexample", "random3", "k5", "k5t2", "lattice1", "lattice3", "lattice1t2", "lattice2t3",
         "lattice2t2-corridor", "tree3", "tree43-below-root"],
)
def test_dart_types_hold_dart_by_dart(g, start, depth):
    # the types of every dart's successors are its type's successors, so
    # their counts also give its head's degree
    of, successors = g.dart_types()
    for u, v in _darts_near(g, start, depth):
        assert Counter(of(v, w) for w in g.neighbors(v) if w != u) == dict(successors(of(u, v)))


def test_dart_type_counts_and_closed_form_values():
    def count(g):
        of = g.dart_types()[0]
        return len({of(*d) for d in _darts_near(g, g.default_start(), 99)})

    assert count(k4()) == count(K5) == 1
    assert count(counterexample_graph()) == 4
    assert count(subdivide(K5, 2)) == 3
    of, successors = subdivided_lattice(2, 2).dart_types()
    assert [of((0, 0), (1, 0)), of((1, 0), (2, 0)), of((2, 0), (3, 0)), of((2, 0), (1, 0))] == [2, 1, 0, 1]
    assert [successors(0), successors(1), successors(2)] == [((2, 3),), ((0, 1),), ((1, 1),)]
    of = subdivided_lattice(1, 2).dart_types()[0]
    assert [of(0, 1), of(1, 0), of(-1, -2), of(-2, -3)] == [2, 0, 1, 0]
    of, successors = lattice(3).dart_types()
    assert (of((0, 0, 0), (0, -1, 0)), successors(0)) == (0, ((0, 5),))
    of, successors = biregular_tree(4, 3).dart_types()
    assert [of((), (0,)), of((0,), ()), of((0,), (0, 1))] == [1, 0, 0]
    assert (successors(0), successors(1)) == (((1, 3),), ((0, 2),))


def _dart_classes(g):
    """The darts of ``g`` grouped by colour refinement from the head
    degree, each dart's successors listed in full."""
    ahead = {(u, v): [(v, w) for w in g.neighbors(v) if w != u] for u in g.vertices() for v in g.neighbors(u)}
    colour, count = {d: len(a) for d, a in ahead.items()}, 0
    while count < len(set(colour.values())):
        count, ids = len(set(colour.values())), {}
        colour = {d: ids.setdefault((colour[d], tuple(sorted(map(colour.get, a)))), len(ids)) for d, a in ahead.items()}
    return {frozenset(d for d in ahead if colour[d] == c) for c in set(colour.values())}


@pytest.mark.parametrize(
    "g", [k4(), counterexample_graph(), subdivide(K5, 2), subdivide(counterexample_graph(), 3), complete_bipartite(3, 4),
          *(random_graph(seed, 9) for seed in range(1, 9))],
    ids=["k4", "counterexample", "k5t2", "counterexample-t3", "k34", *(f"random{seed}" for seed in range(1, 9))],
)
def test_refinement_by_vertex_counts_gives_the_dart_classes(g):
    of, darts = g.dart_types()[0], [(u, v) for u in g.vertices() for v in g.neighbors(u)]
    assert _dart_classes(g) == {frozenset(d for d in darts if of(*d) == t) for t in map(of, *zip(*darts))}


def test_refinement_over_its_budget_makes_each_dart_its_own_type(monkeypatch):
    # a path of 12 vertices has 22 darts and splits its classes in 9 rounds,
    # then a 10th round finds no split
    g = from_adjacency({i: [j for j in (i - 1, i + 1) if 0 <= j < 12] for i in range(12)})
    monkeypatch.setattr(graph_module, "REFINEMENT_BUDGET", 220)
    of = g.dart_types()[0]
    assert of(5, 6) == of(6, 5) != of(4, 5) and isinstance(of(5, 6), int)
    monkeypatch.setattr(graph_module, "REFINEMENT_BUDGET", 219)
    of, successors = g.dart_types()
    assert (of(5, 6), successors((5, 6)), successors((1, 0))) == ((5, 6), (((6, 7), 1),), ())


def _union_classes(*systems):
    """Colour refinement on the disjoint union of finite type systems,
    each ``(successors, types)``: the class of each ``(system, type)``.
    Two types share a class exactly when their cones are isomorphic."""
    nodes = [(i, t) for i, (_, ts) in enumerate(systems) for t in ts]
    succ = {(i, t): [(i, c) for c, k in systems[i][0](t) for _ in range(k)] for i, t in nodes}
    colour, count = {node: len(succ[node]) for node in nodes}, 0
    while True:
        ids: dict = {}
        colour = {n: ids.setdefault((colour[n], tuple(sorted(colour[c] for c in succ[n]))), len(ids)) for n in nodes}
        if len(ids) == count:
            return colour
        count = len(ids)


@pytest.mark.parametrize(
    "closed, types, stand_in, darts",
    [
        (lattice(2), range(1), K5, [(((0, 0), (1, 0)), (0, 1))]),
        *[
            (subdivided_lattice(2, t), range(t + 1), subdivide(K5, t),
             [(((0, 0), (1, 0)), (0, (0, 1, 1))), (((t, 0), (t + 1, 0)), ((0, 1, t), 1))])
            for t in (1, 2, 3)
        ],
        *[
            (biregular_tree(k1, k2), (0, 1), complete_bipartite(k2, k1),
             [(((), (0,)), ("a0", "b0")), (((0,), ()), ("b0", "a0"))])
            for k1, k2 in ((4, 3), (3, 2), (5, 2))
        ],
        (regular_tree(3), (0, 1), k4(), [(((), (0,)), (0, 1))]),
    ],
    ids=["lattice2-k5", "lattice2t1-k5t1", "lattice2t2-k5t2", "lattice2t3-k5t3", "tree43-k34", "tree32-k23", "tree52-k25",
         "tree3-k4"],
)
def test_closed_form_dart_types_match_refinement_on_a_stand_in(closed, types, stand_in, darts):
    # the stand-in's universal cover is the closed form's, so refinement
    # on both type systems at once puts their types in the same classes,
    # and corresponding darts in one class
    (mine, my_successors), (theirs, their_successors) = closed.dart_types(), stand_in.dart_types()
    refined = {theirs(u, v) for u in stand_in.vertices() for v in stand_in.neighbors(u)}
    colour = _union_classes((my_successors, types), (their_successors, refined))
    assert {colour[0, t] for t in types} == {colour[1, t] for t in refined}
    for a, b in darts:
        assert colour[0, mine(*a)] == colour[1, theirs(*b)]
