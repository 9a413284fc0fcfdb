import math
from fractions import Fraction

import numpy as np
import pytest

from nbwalk import (
    BirthDeathSpec,
    InvalidParameter,
    chain_for_biregular,
    chain_for_regular,
    chain_move_law,
    escape_probability,
    is_transient,
)

from helpers import rng, simulate_chain, truncated_escape


def test_chain_for_regular_values():
    spec = chain_for_regular(3)
    assert all(spec.right_prob(n) == Fraction(2, 3) for n in range(1, 10))
    assert spec.right_prob(0) == 1
    assert chain_for_regular(2).right_prob(4) == Fraction(1, 2)
    assert chain_for_regular(5).right_prob(1) == Fraction(4, 5)
    with pytest.raises(InvalidParameter):
        chain_for_regular(1)


def test_chain_for_biregular_phase():
    spec = chain_for_biregular(4, 3)
    # even positions carry the start degree k1
    assert spec.right_prob(2) == Fraction(3, 4)
    assert spec.right_prob(4) == Fraction(3, 4)
    assert spec.right_prob(1) == Fraction(2, 3)
    assert spec.right_prob(3) == Fraction(2, 3)
    spec32 = chain_for_biregular(3, 2)
    assert spec32.right_prob(2) == Fraction(2, 3)
    assert spec32.right_prob(1) == Fraction(1, 2)
    with pytest.raises(InvalidParameter):
        chain_for_biregular(3, 3)


def test_spec_validation():
    with pytest.raises(InvalidParameter):
        BirthDeathSpec((), ())
    with pytest.raises(InvalidParameter):
        BirthDeathSpec((), (Fraction(0),))
    with pytest.raises(InvalidParameter):
        BirthDeathSpec((Fraction(3, 2),), (Fraction(1, 2),))
    with pytest.raises(InvalidParameter, match="positions are nonnegative"):
        chain_for_regular(3).right_prob(-1)


def test_transience_by_degree():
    for k in range(2, 13):
        assert is_transient(chain_for_regular(k)) == (k >= 3)
    assert is_transient(chain_for_biregular(4, 3))
    assert is_transient(chain_for_biregular(3, 2))


def test_escape_probabilities_exact():
    assert escape_probability(chain_for_regular(3)) == Fraction(1, 2)
    assert escape_probability(chain_for_regular(2)) == 0
    assert escape_probability(chain_for_biregular(4, 3)) == Fraction(5, 9)


def test_escape_zero_iff_recurrent():
    for k in range(2, 10):
        spec = chain_for_regular(k)
        esc = escape_probability(spec)
        if is_transient(spec):
            assert 0 < esc <= 1
        else:
            assert esc == 0


@pytest.mark.parametrize(
    "spec",
    [
        chain_for_regular(3),
        chain_for_regular(4),
        chain_for_regular(5),
        chain_for_regular(6),
        chain_for_biregular(4, 3),
        chain_for_biregular(3, 2),
        chain_for_biregular(5, 3),
        BirthDeathSpec((Fraction(9, 10), Fraction(1, 2)), (Fraction(2, 3), Fraction(3, 5))),
    ],
)
def test_escape_matches_truncated_solve(spec):
    exact = float(escape_probability(spec))
    solved = truncated_escape(spec, 200)
    assert abs(exact - solved) < 1e-9


def test_simulate_forced_first_move():
    assert simulate_chain(chain_for_regular(3), 1, rng(0)) == [0, 1]
    assert simulate_chain(chain_for_regular(3), 0, rng(0)) == [0]


def test_simulate_right_frequency():
    spec = chain_for_regular(3)
    traj = simulate_chain(spec, 10**6, rng(314159))
    rights = 0
    total = 0
    for a, b in zip(traj, traj[1:]):
        if a >= 1:
            total += 1
            rights += b > a
    f = rights / total
    se = math.sqrt((2 / 3) * (1 / 3) / total)
    assert abs(f - 2 / 3) < 4 * se


def test_simulate_k2_returns_to_zero():
    spec = chain_for_regular(2)
    hits = 0
    for seed in range(100):
        traj = simulate_chain(spec, 10**5, rng(1000 + seed))
        if any(p == 0 for p in traj[1:]):
            hits += 1
    assert hits >= 95


def test_simulate_positions_walk_by_one():
    traj = simulate_chain(chain_for_biregular(4, 3), 5000, rng(2))
    assert traj[0] == 0
    for a, b in zip(traj, traj[1:]):
        assert abs(b - a) == 1 and b >= 0
        if a == 0:
            assert b == 1


def test_counts_refuse_bools_and_take_numpy_integers():
    spec = chain_for_regular(3)
    with pytest.raises(InvalidParameter):
        chain_move_law(spec, True)
    with pytest.raises(InvalidParameter):
        simulate_chain(spec, True, rng(0))
    assert chain_move_law(spec, np.int64(5)) == chain_move_law(spec, 5)
    assert simulate_chain(spec, np.int64(50), rng(2)) == simulate_chain(spec, 50, rng(2))


def test_chain_move_law_total_and_support():
    law = chain_move_law(chain_for_regular(3), 10)
    assert sum(law.values()) == 1
    assert all(len(w) == 10 and w[0] == "R" for w in law)
    # forced moves: no left from position zero anywhere in the support
    for word in law:
        pos = 0
        for mv in word:
            if pos == 0:
                assert mv == "R"
            pos += 1 if mv == "R" else -1
