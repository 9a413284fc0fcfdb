"""The exact oracles against the Fraction propagator.

``laws._propagate`` carries integer weights over one common
denominator.  Each oracle here is run twice, once as it is and once with
``_propagate`` replaced by ``helpers.propagate_reference``, which does
every step in Fractions; the two laws must be equal, hold canonical
Fractions and list their outcomes in the same order.
"""

import pkgutil
from fractions import Fraction
from importlib import import_module

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nbwalk
from nbwalk import (
    InsufficientData,
    InvalidInput,
    PrefixDistribution,
    chain_for_biregular,
    chain_for_regular,
    chain_move_law,
    contract,
    enumerate_move_distribution,
    enumerate_prefix_distribution,
    erased_prefix_distribution,
    induced_prefix_distribution,
    subdivide,
    total_variation,
)
from nbwalk.graph import counterexample_graph

from helpers import complete_bipartite, k4, propagate_reference

# name: (graph, start); every start is an anchor of the graph's contraction
GRAPHS = {
    "k4": (k4(), 0),
    "counterexample": (counterexample_graph(), "v"),
    "k34": (complete_bipartite(3, 4), "a0"),
    "subdivided_k4": (subdivide(k4(), 1), 0),
}

# every package module that binds ``_propagate``, by defining or importing
# it, and so calls it by that name
PROPAGATING = [
    module
    for info in pkgutil.iter_modules(nbwalk.__path__)
    if "_propagate" in vars(module := import_module(f"nbwalk.{info.name}"))
]


def test_the_swap_reaches_every_exact_law():
    names = {module.__name__ for module in PROPAGATING}
    assert names >= {"nbwalk.laws", "nbwalk.erasure", "nbwalk.contraction", "nbwalk.birthdeath"}


def _against_reference(monkeypatch, oracle, horizons):
    """Run ``oracle(h)`` for each horizon with both propagators and check
    that they give the same law."""
    for h in horizons:
        fast = oracle(h)
        with monkeypatch.context() as m:
            for module in PROPAGATING:
                m.setattr(module, "_propagate", propagate_reference)
            ref = oracle(h)
        if isinstance(fast, PrefixDistribution):
            assert (fast.horizon, fast.short_mass) == (ref.horizon, ref.short_mass), h
            assert type(fast.short_mass) is Fraction, h
            fast, ref = fast.entries, ref.entries
        assert fast == ref, h
        assert list(fast) == list(ref), h
        assert all(type(p) is Fraction for p in fast.values()), h


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("kind", ["srw", "nbrw"])
def test_prefix_law_equals_reference(monkeypatch, name, kind):
    g, start = GRAPHS[name]
    _against_reference(monkeypatch, lambda m: enumerate_prefix_distribution(kind, g, start, m), range(6))


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("kind", ["nbrw", "wrw"])
def test_multigraph_prefix_law_equals_reference(monkeypatch, name, kind):
    g, start = GRAPHS[name]
    mg, _ = contract(g)
    _against_reference(monkeypatch, lambda m: enumerate_prefix_distribution(kind, mg, start, m), range(6))


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_erased_law_equals_reference(monkeypatch, name):
    g, start = GRAPHS[name]
    for m in (0, 2):
        _against_reference(monkeypatch, lambda n: erased_prefix_distribution(g, start, n, m), range(m + 1, 10))


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_move_law_equals_reference(monkeypatch, name):
    g, start = GRAPHS[name]
    _against_reference(monkeypatch, lambda n: enumerate_move_distribution(g, start, n), range(1, 8))


@pytest.mark.parametrize(
    "spec",
    [chain_for_regular(3), chain_for_regular(4), chain_for_biregular(4, 3), chain_for_biregular(3, 2)],
    ids=["regular3", "regular4", "biregular43", "biregular32"],
)
def test_chain_move_law_equals_reference(monkeypatch, spec):
    _against_reference(monkeypatch, lambda n: chain_move_law(spec, n), range(11))


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("kind, top", [("srw", 5), ("nbrw", 8)])
def test_induced_law_equals_reference(monkeypatch, name, kind, top):
    g, start = GRAPHS[name]
    _, cmap = contract(g)
    _against_reference(
        monkeypatch, lambda m: induced_prefix_distribution(g, kind, start, m, cmap), range(top + 1)
    )


def _fraction_tv(p, q):
    keys = set(p.entries) | set(q.entries)
    acc = sum((abs(p.prob(k) - q.prob(k)) for k in keys), Fraction(0))
    return (acc + abs(p.short_mass - q.short_mass)) / 2


@st.composite
def _laws(draw, offset, horizon=1):
    # normalized positive weights, so denominators of every kind, and a
    # short mass that is zero, a share, or everything when nothing else is;
    # a prefix is 0, k + offset, then horizon - 1 steps in {0, 1}
    keys = draw(st.lists(st.tuples(st.integers(0, 5), *[st.integers(0, 1)] * (horizon - 1)), unique=True, max_size=6))
    weights = [draw(st.fractions(min_value=Fraction(1, 50), max_value=7, max_denominator=60)) for _ in keys]
    short = Fraction(1)
    if keys:
        short = draw(st.just(Fraction(0)) | st.fractions(min_value=Fraction(1, 40), max_value=3, max_denominator=40))
    total = sum(weights) + short
    entries = {(0, k + offset, *rest): w / total for (k, *rest), w in zip(keys, weights)}
    return PrefixDistribution(horizon, entries, short / total)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_integer_tv_equals_fraction_formula(data):
    p = data.draw(_laws(0))
    # supports may overlap or, shifted, be disjoint
    q = data.draw(_laws(data.draw(st.sampled_from([0, 3, 10]))))
    tv = total_variation(p, q)
    assert tv == _fraction_tv(p, q)
    assert type(tv) is Fraction
    assert total_variation(q, p) == tv


@settings(max_examples=100, deadline=None)
@given(_laws(0, horizon=3), st.integers(0, 3))
def test_weight_form_conditioned_and_marginalized_equal_fraction_formulas(p, m):
    marginal = {}
    for seq, x in p.entries.items():
        marginal[seq[: m + 1]] = marginal.get(seq[: m + 1], 0) + x
    law = p.marginalized(m)
    assert (law.horizon, law.entries, law.short_mass) == (m, marginal, p.short_mass)
    assert list(law.entries) == list(marginal)
    assert all(type(x) is Fraction for x in (*law.entries.values(), law.short_mass))
    if p.short_mass == 1:
        with pytest.raises(InsufficientData):
            p.conditioned()
        return
    law = p.conditioned()
    z = 1 - p.short_mass
    assert (law.entries, law.short_mass) == ({seq: x / z for seq, x in p.entries.items()}, 0)
    assert all(type(x) is Fraction for x in (*law.entries.values(), law.short_mass))


@settings(max_examples=100, deadline=None)
@given(_laws(0), st.integers(2, 9))
def test_law_equals_itself_rebuilt_over_another_denominator(p, c):
    # the same law with every weight and the denominator scaled by c
    scaled = PrefixDistribution._from_weights(p.horizon, {k: c * w for k, w in p.weights.items()}, c * p.short, c * p.den)
    rebuilt = PrefixDistribution(scaled.horizon, scaled.entries, scaled.short_mass)
    assert rebuilt.den != scaled.den
    assert rebuilt == scaled == p
    assert (scaled.entries, scaled.short_mass) == (p.entries, p.short_mass)
    # a law with one weight moved to the short mass is another law
    if p.weights:
        k = next(iter(p.weights))
        moved = PrefixDistribution._from_weights(
            p.horizon, {**scaled.weights, k: scaled.weights[k] - 1}, scaled.short + 1, scaled.den
        )
        assert moved != p and p != moved


def test_counterexample_tv_equals_fraction_formula():
    g = counterexample_graph()
    erased = erased_prefix_distribution(g, "v", 11, 3)
    nbrw = enumerate_prefix_distribution("nbrw", g, "v", 3)
    # the oracle's denominator is a running product, not the lcm of its
    # canonical Fractions'
    assert PrefixDistribution(3, erased.entries, erased.short_mass).den != erased.den
    tv = total_variation(erased.conditioned(), nbrw)
    assert tv == _fraction_tv(erased.conditioned(), nbrw) > 0
    assert total_variation(erased, nbrw) == _fraction_tv(erased, nbrw)


def test_prefix_distribution_refusals_keep_their_messages():
    almost = 1 - Fraction(1, 3**20)
    with pytest.raises(InvalidInput, match="^probabilities must sum to exactly 1$"):
        PrefixDistribution(1, {(0, 1): almost})
    with pytest.raises(InvalidInput, match="^probabilities must sum to exactly 1$"):
        PrefixDistribution(1, {(0, 1): Fraction(1, 2)}, almost - Fraction(1, 2))
    with pytest.raises(InvalidInput, match="^negative probability$"):
        PrefixDistribution(1, {(0, 1): Fraction(3, 2), (0, 2): Fraction(-1, 2)})
    with pytest.raises(InvalidInput, match="^negative short mass$"):
        PrefixDistribution(1, {(0, 1): Fraction(3, 2)}, Fraction(-1, 2))
    with pytest.raises(InvalidInput, match="^prefix length does not match horizon$"):
        PrefixDistribution(1, {(0, 1, 2): Fraction(1)})
    with pytest.raises(InvalidInput, match="^prefix length does not match horizon$"):
        PrefixDistribution(1, {(0, 1): Fraction(1, 2), "02": Fraction(1, 2)})
    # an oracle's weights go through the same check
    with pytest.raises(InvalidInput, match="^probabilities must sum to exactly 1$"):
        PrefixDistribution._from_weights(1, {(0, 1): 2}, 0, 3)
    with pytest.raises(InvalidInput, match="^negative probability$"):
        PrefixDistribution._from_weights(1, {(0, 1): 4, (0, 2): -1}, 0, 3)


def test_prefix_distribution_drops_zeros_and_takes_ints_and_strings():
    law = PrefixDistribution(1, {(0, 1): "1/3", (0, 2): 0, (0, 3): Fraction(0), (0, 4): Fraction(1, 6)}, "1/2")
    assert law.entries == {(0, 1): Fraction(1, 3), (0, 4): Fraction(1, 6)}
    assert law.short_mass == Fraction(1, 2)
    assert all(type(p) is Fraction for p in (*law.entries.values(), law.short_mass))
    whole = PrefixDistribution(0, {(0,): 1})
    assert whole.entries == {(0,): Fraction(1)} and type(whole.entries[(0,)]) is Fraction
    assert whole.short_mass == 0 and type(whole.short_mass) is Fraction
    # a zero entry is dropped before its prefix length is checked
    assert PrefixDistribution(1, {(0, 1): 1, (0, 1, 2): 0}).entries == {(0, 1): Fraction(1)}
