from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbwalk import (
    ExplicitGraph,
    InvalidInput,
    LimitExceeded,
    PrefixDistribution,
    biregular_tree,
    chain_for_regular,
    chain_move_law,
    counterexample_graph,
    enumerate_move_distribution,
    enumerate_prefix_distribution,
    erase_backtracks,
    erase_backtracks_stack,
    erased_prefix_distribution,
    is_backtrack_free,
    lattice,
    regular_tree,
    sample_path,
    subdivided_lattice,
    total_variation,
)
from nbwalk import graph as graph_module
from nbwalk import laws
from nbwalk.erasure import _erase_stack, _stack_chain

from helpers import complete_bipartite, cursor_erase, k4, path_graph, random_graph, rng


def test_single_backtrack():
    r = erase_backtracks(["a", "b", "a", "c"])
    assert r.output == ("a", "c")
    assert r.trace.moves == "RLR"
    assert r.trace.positions == (1, 0, 1)
    assert r.consumed == 4


def test_identity_on_backtrack_free():
    r = erase_backtracks(["a", "b", "c"])
    assert r.output == ("a", "b", "c")
    assert r.trace.moves == "RR"


def test_cascading_erasure():
    r = erase_backtracks(["a", "b", "c", "b", "a", "d"])
    assert r.output == ("a", "d")
    assert erase_backtracks_stack(["a", "b", "c", "b", "a", "d"]) == ("a", "d")


def test_stack_examples():
    assert erase_backtracks_stack(["a", "b", "a", "b"]) == ("a", "b")
    assert erase_backtracks_stack(["a"]) == ("a",)
    assert erase_backtracks(["a"]).output == ("a",)
    assert erase_backtracks(["a"]).trace.moves == ""


def test_empty_input_rejected():
    with pytest.raises(InvalidInput):
        erase_backtracks([])
    with pytest.raises(InvalidInput):
        erase_backtracks_stack([])


def _check_invariants(seq):
    res = erase_backtracks(seq)
    # the literal cursor is the reference for output, moves and head positions
    assert (res.output, res.trace.moves, res.trace.positions) == cursor_erase(seq)
    out2, moves2 = _erase_stack(list(seq))
    # the two formulations agree, output and move record alike
    assert res.output == erase_backtracks_stack(seq) == tuple(out2)
    assert res.trace.moves == "".join(moves2)
    # the stack step the exact oracles propagate, with every entry kept a
    # vertex, folds to the same result
    _, step = _stack_chain(None, len(seq))
    stack, moves3 = (seq[0],), ""
    for x in seq[1:]:
        after = step(stack, x)
        moves3 += "R" if len(after) > len(stack) else "L"
        stack = after
    assert (list(stack), moves3) == (out2, "".join(moves2))
    assert is_backtrack_free(res.output)
    assert len(res.output) % 2 == len(seq) % 2
    assert len(res.trace.moves) == res.consumed - 1
    # rights minus lefts equals final height minus one
    rights = res.trace.moves.count("R")
    lefts = res.trace.moves.count("L")
    assert rights - lefts == len(res.output) - 1
    # positions move by one, never below zero, lefts never land from zero
    pos = 0
    for mv, after in zip(res.trace.moves, res.trace.positions):
        assert after >= 0
        assert abs(after - pos) == 1
        if mv == "L":
            assert pos >= 1
        pos = after
    if res.trace.moves:
        assert res.trace.moves[0] == "R"
        assert res.trace.positions[0] == 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=200))
def test_equivalence_random_tokens(seq):
    _check_invariants(seq)


def test_equivalence_walk_paths():
    g = k4()
    r = rng(424242)
    for _ in range(300):
        n = int(r.integers(1, 60))
        path = sample_path("srw", g, 0, n, r)
        _check_invariants(path)


def test_stack_top_identity():
    g = k4()
    r = rng(7)
    for _ in range(200):
        path = sample_path("srw", g, 0, 25, r)
        st_ = [path[0]]
        for x in path[1:]:
            if len(st_) >= 2 and st_[-2] == x:
                st_.pop()
            else:
                st_.append(x)
            assert st_[-1] == x  # the stack top tracks the walk's position


def test_erased_first_pair_is_uniform():
    g = k4()
    # odd walk horizons leave the output length even, so the first pair
    # always exists and matches the uniform first step by symmetry
    for n in (3, 5):
        dist = erased_prefix_distribution(g, 0, n, 1)
        assert dist.short_mass == 0
        assert dist.entries == {
            (0, 1): Fraction(1, 3),
            (0, 2): Fraction(1, 3),
            (0, 3): Fraction(1, 3),
        }


def test_erased_no_margin_differs_from_nbrw():
    g = k4()
    erased = erased_prefix_distribution(g, 0, 4, 3)
    nbrw = enumerate_prefix_distribution("nbrw", g, 0, 3)
    assert total_variation(erased, nbrw) > 0


def test_erased_mass_conserved():
    g = k4()
    dist = erased_prefix_distribution(g, 0, 6, 3)
    assert sum(dist.entries.values()) + dist.short_mass == 1
    assert dist.short_mass > 0


def test_erased_guards(monkeypatch):
    g = k4()
    with pytest.raises(InvalidInput):
        erased_prefix_distribution(g, 0, 3, 3)
    # no horizon is refused as such; a law over the state budget is
    monkeypatch.setattr(laws, "MAX_STATES", 20)
    with pytest.raises(LimitExceeded, match="state budget"):
        erased_prefix_distribution(g, 0, 15, 3)


# conditioned on a full-length prefix, the erased law at N = 30 is the
# non-backtracking law on regular graphs
@pytest.mark.parametrize(
    "graph, start", [(k4(), 0), (lattice(3), (0, 0, 0)), (regular_tree(3), ())], ids=["k4", "lattice3", "tree3"]
)
def test_erased_law_is_nbrw_at_horizon_30_on_regular_graphs(graph, start):
    erased = erased_prefix_distribution(graph, start, 30, 3)
    assert total_variation(erased.conditioned(), enumerate_prefix_distribution("nbrw", graph, start, 3)) == 0


def test_erased_law_keeps_moving_from_nbrw_past_horizon_14_on_the_counterexample():
    # the conditioned distance rises with N toward its limit, about 0.085 at m = 3
    g = counterexample_graph()
    nbrw = enumerate_prefix_distribution("nbrw", g, "v", 3)
    tvs = [total_variation(erased_prefix_distribution(g, "v", n, 3).conditioned(), nbrw) for n in (14, 24, 30)]
    assert Fraction(5, 100) < tvs[0] < tvs[1] < tvs[2]


def test_move_distribution_two_steps():
    g = k4()
    law = enumerate_move_distribution(g, 0, 2)
    assert law == {"RR": Fraction(2, 3), "RL": Fraction(1, 3)}
    assert law == chain_move_law(chain_for_regular(3), 2)


def test_move_distribution_matches_chain_small():
    g = k4()
    for n in (4, 6):
        assert enumerate_move_distribution(g, 0, n) == chain_move_law(chain_for_regular(3), n)


def test_move_distribution_guard(monkeypatch):
    monkeypatch.setattr(laws, "MAX_STATES", 20)
    with pytest.raises(LimitExceeded, match="state budget"):
        enumerate_move_distribution(k4(), 0, 15)


def test_move_law_not_iid_on_counterexample():
    # under any i.i.d. product law every move string with the same number
    # of rights is equally likely, so a probability gap inside one count
    # class puts the law at total variation at least gap/2 from every
    # product law
    law = enumerate_move_distribution(counterexample_graph(), "v", 10)
    by_count = {}
    for word, p in law.items():
        by_count.setdefault(word.count("R"), []).append(p)
    gap = max(max(ps) - min(ps) for ps in by_count.values())
    assert gap > 0
    assert gap / 2 > Fraction(1, 1000)


# name: (graph, start, largest N); the merged stacks hold cone types from
# refinement (explicit graphs) and from the closed forms (lattices, trees)
PUSHFORWARD = {
    "k4": (k4(), 0, 8),
    "counterexample": (counterexample_graph(), "v", 8),
    "lattice2": (lattice(2), (0, 0), 6),
    "sublattice2_t2_corridor": (subdivided_lattice(2, 2), (1, 0), 6),
    "tree3_below_root": (regular_tree(3), (0, 1), 6),
    "bitree43": (biregular_tree(4, 3), (), 6),
    "k34": (complete_bipartite(3, 4), "a0", 6),
    "path6_next_to_leaf": (path_graph(6), 1, 6),
    **{f"random{seed}": (random_graph(seed), 0 if seed < 5 else "leaf", 6) for seed in range(1, 7)},
}


@pytest.mark.parametrize("name", sorted(PUSHFORWARD))
def test_merged_oracles_equal_pushforward_of_srw_paths(name):
    # the prefix law keeps every path apart, so erasing each path and
    # summing checks the oracles that merge walks by erasure stack
    graph, start, top = PUSHFORWARD[name]
    for big_n in range(1, top + 1):
        paths = enumerate_prefix_distribution("srw", graph, start, big_n).entries
        moves: dict = {}
        for path, p in paths.items():
            word = "".join(_erase_stack(list(path))[1])
            moves[word] = moves.get(word, 0) + p
        assert enumerate_move_distribution(graph, start, big_n) == moves
        for m in range(big_n):
            erased: dict = {}
            short = Fraction(0)
            for path, p in paths.items():
                out = erase_backtracks_stack(path)
                if len(out) > m:
                    erased[out[: m + 1]] = erased.get(out[: m + 1], 0) + p
                else:
                    short += p
            assert erased_prefix_distribution(graph, start, big_n, m) == PrefixDistribution(m, erased, short)


@pytest.mark.parametrize("name", sorted(n for n, (g, _, _) in PUSHFORWARD.items() if isinstance(g, ExplicitGraph)))
def test_oracles_keep_their_laws_when_refinement_is_over_budget(name, monkeypatch):
    # past the budget each dart is its own type, which merges what a stack
    # of vertices merges, so the laws are those of refined types
    graph, start, top = PUSHFORWARD[name]
    top = min(top, 6)
    laws = [(enumerate_move_distribution(graph, start, n), erased_prefix_distribution(graph, start, n, n // 2))
            for n in range(1, top + 1)]
    monkeypatch.setattr(graph_module, "REFINEMENT_BUDGET", 0)
    dart = start, graph.neighbors(start)[0]
    assert graph.dart_types()[0](*dart) == dart
    assert laws == [(enumerate_move_distribution(graph, start, n), erased_prefix_distribution(graph, start, n, n // 2))
                    for n in range(1, top + 1)]
