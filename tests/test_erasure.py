from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbwalk import (
    InvalidInput,
    LimitExceeded,
    chain_for_regular,
    chain_move_law,
    enumerate_move_distribution,
    enumerate_prefix_distribution,
    erase_backtracks,
    erase_backtracks_stack,
    erased_prefix_distribution,
    is_backtrack_free,
    sample_path,
    total_variation,
)

from nbwalk.erasure import _erase_stack

from helpers import k4, rng


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
    out2, moves2 = _erase_stack(list(seq))
    # the two formulations agree, output and move record alike
    assert res.output == erase_backtracks_stack(seq) == tuple(out2)
    assert res.trace.moves == "".join(moves2)
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


def test_erased_guards():
    g = k4()
    with pytest.raises(InvalidInput):
        erased_prefix_distribution(g, 0, 3, 3)
    with pytest.raises(LimitExceeded):
        erased_prefix_distribution(g, 0, 15, 3)


def test_move_distribution_two_steps():
    g = k4()
    law = enumerate_move_distribution(g, 0, 2)
    assert law == {"RR": Fraction(2, 3), "RL": Fraction(1, 3)}
    assert law == chain_move_law(chain_for_regular(3), 2)


def test_move_distribution_matches_chain_small():
    g = k4()
    for n in (4, 6):
        assert enumerate_move_distribution(g, 0, n) == chain_move_law(chain_for_regular(3), n)


def test_move_distribution_guard():
    with pytest.raises(LimitExceeded):
        enumerate_move_distribution(k4(), 0, 15)


def test_move_law_not_iid_on_counterexample():
    # under any i.i.d. product law every move string with the same number
    # of rights is equally likely, so a probability gap inside one count
    # class puts the law at total variation at least gap/2 from every
    # product law
    from nbwalk import counterexample_graph

    law = enumerate_move_distribution(counterexample_graph(), "v", 10)
    by_count = {}
    for word, p in law.items():
        by_count.setdefault(word.count("R"), []).append(p)
    gap = max(max(ps) - min(ps) for ps in by_count.values())
    assert gap > 0
    assert gap / 2 > Fraction(1, 1000)
