"""Golden digests of seeded outputs.

Each case pins the sha256 of the exact bytes one seeded run writes.  The
reproducibility criterion compares runs inside one process, so it cannot
see a change that moves the random stream for every run alike: a refactor
that reorders draws, or a numpy upgrade that changes PCG64 or its
bounded-integer algorithm.  These digests can.  A change that alters
report bytes on purpose must update them and say why in CHANGES.md.

The exact oracles' laws are pinned the same way, as sorted text, since the
tests against the Fraction propagator hand both propagators the same
one-step laws and so cannot see a change in those laws themselves.
"""

import hashlib
import json
from functools import partial

import numpy as np
import pytest

from nbwalk import (
    PrefixDistribution,
    WeightedMultigraph,
    biregular_tree,
    chain_for_biregular,
    chain_move_law,
    contract,
    encode_key,
    enumerate_move_distribution,
    enumerate_prefix_distribution,
    erased_prefix_distribution,
    induced_prefix_distribution,
    lattice,
    monte_carlo,
    regular_tree,
    sample_path,
    subdivide,
    subdivided_lattice,
)
from nbwalk.cli import run
from nbwalk.graph import counterexample_graph

from helpers import complete_bipartite, k4, path_graph, theta_graph, two_loop_graph


def _explicit_spec(g) -> str:
    adjacency = {encode_key(v): [encode_key(w) for w in ns] for v, ns in g.adjacency_dict().items()}
    return json.dumps({"type": "explicit", "adjacency": adjacency})


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


LATTICE2 = '{"type":"lattice","d":2}'
LATTICE1 = '{"type":"lattice","d":1}'
LATTICE3 = '{"type":"lattice","d":3}'
TREE3 = '{"type":"regular_tree","k":3}'
BITREE43 = '{"type":"biregular_tree","k1":4,"k2":3}'
BITREE32 = '{"type":"biregular_tree","k1":3,"k2":2}'
SUBLATTICE = '{"type":"subdivided_lattice","d":2,"t":1}'
SUBLATTICE2_T2 = '{"type":"subdivided_lattice","d":2,"t":2}'
SUBLATTICE3 = '{"type":"subdivided_lattice","d":3,"t":1}'
COUNTEREXAMPLE = '{"type":"counterexample"}'
# K4 with corridors of 0 to 3 interior vertices on its edges, so its
# contraction has resistances 1 to 4 and every anchor multigraph degree 3
CORRIDOR_K4 = json.dumps({"type": "explicit", "adjacency": {
    "0": [1, "a0", "b0"], "1": [0, "c0", "d0"], "2": ["a0", "c2", "e0"], "3": ["b1", "d0", "e1"],
    "a0": [0, 2], "b0": [0, "b1"], "b1": ["b0", 3], "c0": [1, "c1"], "c1": ["c0", "c2"],
    "c2": ["c1", 2], "d0": [1, 3], "e0": [2, "e1"], "e1": ["e0", 3],
}})

# a cubic graph on 10 vertices, drawn once by the configuration model
# (seed 1) and fixed here so that its bytes never depend on a generator
CUBIC10 = json.dumps({"type": "explicit", "adjacency": {
    "0": [5, 6, 8], "1": [3, 8, 9], "2": [4, 5, 6], "3": [1, 7, 9], "4": [2, 7, 8],
    "5": [0, 2, 7], "6": [0, 2, 9], "7": [3, 4, 5], "8": [0, 1, 4], "9": [1, 3, 6],
}})

# name: (graph spec, walk, start, horizon, replicas, seed, json sha256, csv sha256)
DIAGNOSE = {
    "lattice2_nbrw": (
        LATTICE2, "nbrw", None, 2000, 8, 11,
        "6e9d96ead208768089c1479a2df4cf4e3dee6e800c4997878386ecfbdd49e546",
        "fe15508ea2e741a1b9e94e927c9198fb8a1167791652c548daad792f05351259",
    ),
    "lattice3_srw": (
        LATTICE3, "srw", None, 2000, 8, 12,
        "f8750ff955ac3883b9f40bdbab93756cc797c15f0ba9be79e3919884f0d8e137",
        "c685448dd0597ff27364689f7f5c50e6f8bcb9aeceefa8b0bb708f9bf9f3fb77",
    ),
    "tree3_srw_root": (
        TREE3, "srw", None, 2000, 8, 13,
        "0e3b1336fc9a6ee7dc3a81a6244a5e463f8b57a4c79f30c4cf1229d713e58e40",
        "32862df9256c7ff0b38ef7efcf1074120a4360d0bde1c19bee0839ecb601467a",
    ),
    "k4_srw": (
        _explicit_spec(k4()), "srw", "0", 2000, 8, 14,
        "e1331e658efa36abb5ccfd193aa00c5e07450197c95fc1928ced67c301471dcd",
        "6e0fa39050b544fd4d671311c02243b53bbec5eb12e251ad091dda2b79f2da4c",
    ),
    "k4_nbrw": (
        _explicit_spec(k4()), "nbrw", "0", 2000, 8, 15,
        "86192f9329830be5135586ae207cb2298de774c8a415764ab2817ecb4e205df0",
        "a4eb7881512f6c47006aa79770779df2ea18e521a407207bded252ca78384588",
    ),
    "sublattice_srw": (
        SUBLATTICE, "srw", None, 2000, 8, 16,
        "8cc1856475f38d797cf9a131c2340de7752b91d719abaa032a53740ea1276252",
        "8e7953b1af94db915f9aedad7085dba3478c43e317f3353732875a3c9c5382f6",
    ),
    # pitch 3 does not divide walkers._CHUNK, and 40,000 steps cross a chunk seam
    "sublattice2_t2_nbrw": (
        SUBLATTICE2_T2, "nbrw", None, 40000, 3, 18,
        "7fcdc03e969c9b96a206a28055c2d08bf4aa6609d19677232844317d6e9fa079",
        "7e7b732ff693e17835c44209cccf8dd16f040f42fbff78397d5ec66ef1f0cc97",
    ),
    "sublattice3_srw": (
        SUBLATTICE3, "srw", None, 2000, 8, 19,
        "ae8d53b1f8b6c9f96d895c041fd1ca370df7fe2a084e397de52932b608e983f9",
        "0507a3737d8846f7bbe097c4b580d944a21b8c1160ea0e3f9f8967f8a7cf0f45",
    ),
    "theta_wrw": (
        _explicit_spec(theta_graph()), "wrw", "u", 2000, 8, 17,
        "90342f6f7f5f017d8dce602c9e750de1c24e4c4cd5d4a13ef12693761cf5933c",
        "c7810262e6c4bfe617e8c37634c7dff97048825f2f36511baff8f7e9924be70d",
    ),
    # 20,000 steps cross several move-table blocks per replica
    "corridor_k4_wrw": (
        CORRIDOR_K4, "wrw", "0", 20000, 3, 41,
        "cfdb460ca89ea1a1554acb2e7e5cc8e58403ea2e63c9a08dcf1d334835c9c389",
        "f4669e47325eff04b8a6a55bf910306b4a728e0a9f831cd0ef18b418b5636390",
    ),
    # every resistance of the contraction is 1, so its wrw draws are srw's
    # on CUBIC10 whatever the rule for resistances above 1
    "cubic10_wrw": (
        CUBIC10, "wrw", "0", 20000, 3, 51,
        "a2a215b2ce41978ad18028af6fcb5aeda80dff5cc6b84236e496902c47cc8f1a",
        "bb9d8faa0bbc3e4b8093bbc55a4ba03770a94a9cfa7b2d37333321ea62cdd14e",
    ),
    # walks that no move table or array kernel serves: below the tree's
    # root, as the benchmark's tree3_below_root job runs it, by the tree
    # walker (walkers._tree_counts), and by the generic stepper on a graph
    # whose degrees differ and on the subdivided lattice with t = 2
    "tree3_srw_below_root": (
        TREE3, "srw", "(0)", 2000, 2, 43,
        "96542172a3ef91717e4cd9ed73c032acbdf53aac932c982919de0a5bdb113169",
        "7cea26a050dd69b5e21fc2c75757127bee8192881e6b9fba510030169ee50947",
    ),
    "tree3_nbrw_below_root": (
        TREE3, "nbrw", "(0)", 2000, 2, 44,
        "5f4014e93aa6caf850d056ef1c495d7754f3949e90185c8a247378f67c4e6cb0",
        "541c2f300622ac9b280173c5f2e6994897a5ae259c8dc24989e723dca4907009",
    ),
    # 5,000 steps cross the 4,096-step block of bulk draws.  Some of the
    # nbrw walks climb toward the root first: from depth 3 they end at
    # depth 4,997 or 4,999 against 5,003, and from depth 2 of the (3, 2)
    # tree at 4,998 against 5,002.  That tree's odd levels have one child,
    # so an nbrw step there draws integers(1), which consumes nothing
    "bitree43_srw_below_root": (
        BITREE43, "srw", "(1,0,2)", 5000, 8, 61,
        "b05d4aa280d57d402fa33278c0a5f7622ad8064586f054a0f40f2b59d317f90a",
        "673d07abebe38dc56303d1fdbc4e9da5f14b63bf4e6fffaa454a963ae92838b5",
    ),
    "bitree43_nbrw_below_root": (
        BITREE43, "nbrw", "(1,0,2)", 5000, 8, 61,
        "3d6dde70b95309b0448d4dfcbe8ca78112da261b2e0fc2263a68a1b0099b4343",
        "e62ba0006d22c1c18aca11e690440aabca1afa77a995dc70082ee569636e0ac0",
    ),
    "bitree32_nbrw_below_root": (
        BITREE32, "nbrw", "(1,0)", 5000, 8, 61,
        "a9af24e1e11e961ce27e0084049b783318c5294d254d8aa2944a9402937738b4",
        "b84e493a24bb97143931697e43f55801245485488b09956902fe82b79d338e26",
    ),
    "counterexample_srw": (
        COUNTEREXAMPLE, "srw", "v", 2000, 8, 45,
        "cb381389cf902eb799a17f0e7f409d290f3c02b42226485e33d531648dce7896",
        "f4aa65496727d2c4475ddab09f65334d396ebfcb7f40065decc75a22bf4d9af2",
    ),
    "counterexample_nbrw": (
        COUNTEREXAMPLE, "nbrw", "v", 2000, 8, 46,
        "55440fe3e3ef39a6797873edc23c37467201341d4658b89f8df442c53d921340",
        "44be54710a1602524fb91f44872c0304d79e871280022b40a6609cdf8c050362",
    ),
    "sublattice2_t2_srw": (
        SUBLATTICE2_T2, "srw", None, 2000, 8, 47,
        "d00f84ae03b95b6090658dda373d0baeafccc8c4f60c78c2381c234501b8a049",
        "270ad65305ab93e9ebb9884b98bd5b80d16d9d4d77aa5e90bb02fe915725fec6",
    ),
    # the contraction is one vertex with two self-loops of resistance 3
    "two_loops_wrw": (
        _explicit_spec(two_loop_graph()), "wrw", "v", 2000, 8, 42,
        "db733a6c6654ba4f4085718dc50ec76041a64bb4b8a50344e73303af7f3124f3",
        "c08374c1b5fa2b512d705215e15ec0a4bc8ba37efdac494533e44755cdbbd3a2",
    ),
}

# name: (graph spec, walk, start, horizon, seed, token file sha256)
WALK = {
    "lattice2_srw": (
        LATTICE2, "srw", None, 2000, 21,
        "d48bd766ce5d1edb7439d0c2fed405554500d2b39dd8628b1745b4ad9f6c3d97",
    ),
    "lattice1_nbrw": (
        LATTICE1, "nbrw", None, 2000, 24,
        "37d99d5232c5b54032c3125975cd8a4cbf48292607a320a3dc6ab9015be80a3e",
    ),
    "lattice3_nbrw": (
        LATTICE3, "nbrw", "(1,-2,3)", 2000, 25,
        "66393d4c6b19eafab738591a785059890b2c22ac1a0a53aeac99bc51ea7d219b",
    ),
    "k4_nbrw": (
        _explicit_spec(k4()), "nbrw", "0", 2000, 22,
        "3733f4204b3b64386e0553600b30e6a03f9204d437689ad44ad3f3220f4304c5",
    ),
    "sublattice2_srw": (
        SUBLATTICE, "srw", None, 2000, 27,
        "ba34072aa9f50330340c507eacaa565103656449d7963d00fd7e29e746221c2f",
    ),
    "sublattice2_nbrw": (
        SUBLATTICE, "nbrw", None, 2000, 28,
        "c60fdd2a04b86543c2b8a05229cae7e8c6d67a68b4680aca5283ae26e83227dc",
    ),
    # a regular graph whose walk the move table can serve
    "cubic10_srw": (
        CUBIC10, "srw", None, 2000, 33,
        "c91b0d862811b1b37202b07957eee33f4401455be521c33be6d9d7f7b6c20b81",
    ),
    "theta_wrw": (
        _explicit_spec(theta_graph()), "wrw", "u", 2000, 23,
        "3d01d70389f4a8f28b3f3f7e63da5747d1753fb322cc185541ab65b4aa69f2d4",
    ),
    # resistances 1 to 4 over 10,000 steps, which cross two move-table blocks
    "corridor_k4_wrw": (
        CORRIDOR_K4, "wrw", "0", 10000, 35,
        "f22567452284fb254f132fa143bf0cae3ca30898c9fe02e5867167edfa06e7e0",
    ),
}

# erase of a sampled Z^2 walk: (graph spec, horizon, seed, output file sha256)
ERASE_LATTICE2 = (LATTICE2, 5000, 26, "dd49de9e9f0a8f92c383984dd3aa3859fbdad473ca2ad8674120f6a14f1571b4")

# erase of sampled walks on regular graphs from their default starts:
# name: (graph spec, horizon, seed, output file sha256)
ERASE_REGULAR = {
    "k4": (_explicit_spec(k4()), 5000, 31, "c6152e5754adadfdd2191a81fce96a901f6aa8903344ed27c79bf8a9d59f1acb"),
    "cubic10": (CUBIC10, 5000, 32, "86242027d4066d295c8c82bb9c302d8cb297d5ca566a9d63b5a82b5cd8d9c1e6"),
}

# edge nbrw on the contracted theta graph, whose two vertices both have
# multigraph degree 3: (start, horizon, seed, sha256 of the path tokens
# and the generator's next three draws)
THETA_EDGE_NBRW_PATH = ("u", 5000, 34, "ebe8ebb5f33a0f2d9227c95f540cb377c8904af6c0e76023e6f4300b63bf6004")

EDGE_NBRW_CSV = "5ec0d021f3305d65963e3e604c86895596f22f933fb062ee4e15fd96b32dd223"

# walk: (seed, csv sha256) on a multigraph whose degrees differ, 3 and 5,
# so that no move table serves it: three parallel edges u-w of resistances
# 1, 2 and 3, and a loop at w of resistance 3
UNEVEN_CSV = {
    "wrw": (48, "86b7b5949ab7f1036fe6907f834ae313c9e3739261d69d6ab0f16a315e62c1f9"),
    "nbrw": (49, "3ee7c938256202d110d12ac6317d9fe2de4669dfedeb63cd88ed611a5036ad88"),
}

# exact-oracle stdout: name: (compare argv after the subcommand, stdout sha256)
COMPARE = {
    "cubic10_erased": (
        ["--graph", CUBIC10, "--start", "0", "--N", "10", "--m", "3"],
        "8c9d3aba0e31de8dddd06c27d4dc386d6511c6d026b48d42e322d5365aff3f7a",
    ),
    "counterexample_erased": (
        ["--graph", COUNTEREXAMPLE, "--start", "v", "--N", "11", "--m", "3"],
        "e58d203a138ea4408f2008a12b348adcbccca3ad2f7e12de6bd53c93da74183b",
    ),
    "theta_induced_srw": (
        ["--graph", _explicit_spec(theta_graph()), "--start", "u", "--induced", "--walk", "srw", "--m", "8"],
        "ef96e5cae73a431bdcab0eedbe8c3f273b1547244477a3e3363ccefcac134f8a",
    ),
    "theta_induced_nbrw": (
        ["--graph", _explicit_spec(theta_graph()), "--start", "u", "--induced", "--walk", "nbrw", "--m", "12"],
        "f7a3b4c892249651ec9680cc30c9dfa673b3da47a333e6b047e4165fdc162357",
    ),
    "lattice1_erased": (
        ["--graph", LATTICE1, "--N", "4", "--m", "2"],
        "b471f88118dc48fdb3e1244aea85225f409d0a5c73a9bf03a49753d01574f5cb",
    ),
    "lattice2_erased": (
        ["--graph", LATTICE2, "--N", "10", "--m", "4"],
        "fac63640a3498dcd77502925dbf74b5bd433a40c09e4a7d0988a23853c3d04e7",
    ),
    "tree3_erased": (
        ["--graph", TREE3, "--N", "10", "--m", "4"],
        "c77998aeb17ced2d07377f58cb9150e32519fd0490793b02a6f74b512239719b",
    ),
    "sublattice2_t2_erased": (
        ["--graph", SUBLATTICE2_T2, "--start", "(1,0)", "--N", "10", "--m", "4"],
        "2c1897d3d92a2944fcf13429ae9dad7b0a6e2922bb097f07d55b7907455f1d4a",
    ),
}
# the infinite-family digests above were first taken from the code they pin,
# so each also names exact values its stdout must print (before the decimal)
COMPARE_VALUES = {
    "lattice1_erased": ["tv(erased N=4, nbrw m=2): 3/8", "tv conditional on full prefix: 0/1"],
    "lattice2_erased": ["tv(erased N=10, nbrw m=4): 8485/65536", "tv conditional on full prefix: 0/1"],
    "tree3_erased": ["tv(erased N=10, nbrw m=4): 5579/19683", "tv conditional on full prefix: 0/1"],
    "sublattice2_t2_erased": ["tv conditional on full prefix: 45/703"],
}

# the exact WRW law on the contracted theta graph: (argv after the subcommand, file sha256)
ENUMERATE_WRW = (
    ["--graph", _explicit_spec(theta_graph()), "--walk", "wrw", "--start", "u", "--m", "6"],
    "72d9213434dcad96c4ea3735ee425e6557a49344a895d59cd10e100531a83f2c",
)

# a triangle whose keys need JSON escapes: a non-ASCII letter, a quote and a backslash
ESCAPED_TRIANGLE = json.dumps({"type": "explicit", "adjacency": {
    "é": ['a"b', "x\\y"], 'a"b': ["é", "x\\y"], "x\\y": ["é", 'a"b'],
}})
ENUMERATE_ESCAPED = (
    ["--graph", ESCAPED_TRIANGLE, "--walk", "nbrw", "--start", "é", "--m", "3"],
    "82af7b311220cd59193b80f87ec0ec35754fc44ed212f886ac6537b29571a653",
)


def _start(start):
    return [] if start is None else ["--start", start]


@pytest.mark.parametrize("name", sorted(DIAGNOSE))
def test_diagnose_report_bytes(name, tmp_path):
    spec, walk, start, horizon, replicas, seed, json_sha, csv_sha = DIAGNOSE[name]
    base = tmp_path / name
    argv = ["diagnose", "--graph", spec, "--walk", walk, *_start(start), "--horizon", str(horizon),
            "--replicas", str(replicas), "--seed", str(seed), "--out", str(base)]
    assert run(argv) == 0
    assert _sha((tmp_path / f"{name}.json").read_bytes()) == json_sha
    assert _sha((tmp_path / f"{name}.csv").read_bytes()) == csv_sha


@pytest.mark.parametrize("name", sorted(WALK))
def test_walk_token_bytes(name, tmp_path):
    spec, walk, start, horizon, seed, tokens_sha = WALK[name]
    out = tmp_path / "tokens.txt"
    argv = ["walk", "--graph", spec, "--walk", walk, *_start(start), "--horizon", str(horizon),
            "--seed", str(seed), "--out", str(out)]
    assert run(argv) == 0
    assert _sha(out.read_bytes()) == tokens_sha


def test_erase_sampled_lattice_bytes(tmp_path):
    spec, horizon, seed, out_sha = ERASE_LATTICE2
    out = tmp_path / "erased.txt"
    assert run(["erase", "--graph", spec, "--horizon", str(horizon), "--seed", str(seed), "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == out_sha


@pytest.mark.parametrize("name", sorted(ERASE_REGULAR))
def test_erase_sampled_regular_graph_bytes(name, tmp_path):
    spec, horizon, seed, out_sha = ERASE_REGULAR[name]
    out = tmp_path / "erased.txt"
    assert run(["erase", "--graph", spec, "--horizon", str(horizon), "--seed", str(seed), "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == out_sha


def test_edge_nbrw_path_bytes():
    start, horizon, seed, path_sha = THETA_EDGE_NBRW_PATH
    mg, _ = contract(theta_graph())
    gen = np.random.default_rng(seed)
    path = sample_path("nbrw", mg, start, horizon, gen)
    text = " ".join(map(encode_key, path)) + "\n" + " ".join(map(str, gen.integers(2**32, size=3).tolist())) + "\n"
    assert _sha(text.encode()) == path_sha


def test_edge_nbrw_report_bytes():
    mg, _ = contract(theta_graph())
    report = monte_carlo("nbrw", mg, "u", 2000, 8, 31)
    assert _sha(report.csv_text().encode()) == EDGE_NBRW_CSV


@pytest.mark.parametrize("walk", sorted(UNEVEN_CSV))
def test_uneven_multigraph_report_bytes(walk):
    mg = WeightedMultigraph("uw", [("u", "w", 1), ("u", "w", 2), ("u", "w", 3), ("w", "w", 3)])
    seed, csv_sha = UNEVEN_CSV[walk]
    assert _sha(monte_carlo(walk, mg, "u", 2000, 8, seed).csv_text().encode()) == csv_sha


@pytest.mark.parametrize("name", sorted(COMPARE))
def test_compare_stdout_bytes(name, capsys):
    argv, stdout_sha = COMPARE[name]
    assert run(["compare", *argv]) == 0
    out = capsys.readouterr().out
    assert _sha(out.encode()) == stdout_sha
    assert set(COMPARE_VALUES.get(name, ())) <= {line.rsplit(" (", 1)[0] for line in out.splitlines()}


def test_enumerate_wrw_law_bytes(tmp_path):
    argv, out_sha = ENUMERATE_WRW
    out = tmp_path / "law.json"
    assert run(["enumerate", *argv, "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == out_sha


def test_enumerate_escaped_keys_bytes(tmp_path, capsys):
    argv, law_sha = ENUMERATE_ESCAPED
    assert run(["enumerate", *argv]) == 0
    assert _sha(capsys.readouterr().out.encode()) == law_sha
    out = tmp_path / "law.json"
    assert run(["enumerate", *argv, "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == law_sha


# the exact oracles' laws: name: (law, sha256 of ``_law_text``); the induced
# srw law on subdivided K4 is the contracted wrw law, so their digests agree
LAWS = {
    "k34_srw": (
        lambda: enumerate_prefix_distribution("srw", complete_bipartite(3, 4), "a0", 6),
        "58c858b0d59a5ea5f6bcae24dc3c3e0d27845b28a838cea77dfc836e1c647899",
    ),
    "counterexample_nbrw": (
        lambda: enumerate_prefix_distribution("nbrw", counterexample_graph(), "v", 8),
        "14eb01b9ba20705e562e21d212517957d30baa0aeea8470a2d5008acbf49dab2",
    ),
    "subdivided_k4_edge_nbrw": (
        lambda: enumerate_prefix_distribution("nbrw", contract(subdivide(k4(), 1))[0], 0, 6),
        "31fb107710a6a40100665da1fdb39dc398e7f79b267e29bf0c9ecb0b48774f7c",
    ),
    "subdivided_k4_wrw": (
        lambda: enumerate_prefix_distribution("wrw", contract(subdivide(k4(), 1))[0], 0, 5),
        "e4e2af1fc9e9c085fb632023b3c6ba7ccc8568301f40c1b16d3afee35bea7676",
    ),
    "theta_wrw": (
        lambda: enumerate_prefix_distribution("wrw", contract(theta_graph())[0], "u", 6),
        "f3cca8839bb234f79c1685bc8608fd79fa49d0010af27cff5ac7271cb72b356c",
    ),
    "counterexample_erased_n12": (
        lambda: erased_prefix_distribution(counterexample_graph(), "v", 12, 3),
        "f100478621f191fe09e3ca0effa87487cede5510b4cbf2944781805f15374eb7",
    ),
    "k4_move_law_n10": (
        lambda: enumerate_move_distribution(k4(), 0, 10),
        "02d35a5e881d3347f07eb52ab907296a47e7fca3043ef0cd7918538fda708739",
    ),
    "subdivided_k4_induced_srw": (
        lambda: induced_prefix_distribution(subdivide(k4(), 1), "srw", 0, 5),
        "e4e2af1fc9e9c085fb632023b3c6ba7ccc8568301f40c1b16d3afee35bea7676",
    ),
    "subdivided_k4_induced_nbrw": (
        lambda: induced_prefix_distribution(subdivide(k4(), 1), "nbrw", 0, 8),
        "53f1bcdd6590515029a7d884aff95b96be54b396f9b2da0dcaeab4ff4c1a9ce5",
    ),
    "chain43_move_law": (
        lambda: chain_move_law(chain_for_biregular(4, 3), 10),
        "462e83a3f62192b8c2b35bdfb33da8083ae0cf303f76a754c99e5a925c30fef7",
    ),
}

# the erased law (N = 8, m = 3) and the move law (N = 8) on the families
# whose stacks the oracles merge by cone type: name: (graph, start,
# erased sha256, move sha256); the path's start sits next to its leaf 0
ERASURE_LAWS = {
    "lattice2": (
        lattice(2), (0, 0),
        "9bfa825530841c5bb3ac8fd0f9b785ec33fd50fd3b61962eb7f84bc363ce751e",
        "8006b6e49e3cbf7863a1f1fe485056c7faba77d33e4add49f740b5a4a44bce99",
    ),
    "sublattice2_t2_corridor": (
        subdivided_lattice(2, 2), (1, 0),
        "ce35f8c613e2ae87049dc903def354a08c4270c5c56cdcb55246b59b8df84189",
        "d470a2d4fbf17a3abe9d1e8de845735a94fd2a4c669e19067d854d7755b12e3a",
    ),
    "tree3_below_root": (
        regular_tree(3), (0, 1),
        "570691cea07a6f648009915530d5adf753faeae2ac62324f689713a2d0b16188",
        "96f9fa33efaf43b39e30e74f6c6d9a59f3029ffa4c31928308f0d68ff7db989f",
    ),
    "bitree43": (
        biregular_tree(4, 3), (),
        "75796f5fde91b65bf78c6ed046812464bc94d4d083da05c5fd60eadaf06d0e5a",
        "412c0271817c4c97f320b9ae1d4b1b0c4acb1f637a55bcb03da96a3391955af1",
    ),
    "k34": (
        complete_bipartite(3, 4), "a0",
        "abb492e931df1e886dcf71794f5af0b5c4ebc3e357df96531cd13ddfa426cb02",
        "412c0271817c4c97f320b9ae1d4b1b0c4acb1f637a55bcb03da96a3391955af1",
    ),
    "path6_next_to_leaf": (
        path_graph(6), 1,
        "a8225660a883fb57d901212ab9f9c13670431586880827f6c1de053303a64725",
        "fef81a9790966e72a71a039a64627c3caff496b1651a4424cc01b09a2b89cb77",
    ),
}
LAWS.update({f"{name}_erased_n8": (partial(erased_prefix_distribution, g, x, 8, 3), sha)
             for name, (g, x, sha, _) in ERASURE_LAWS.items()})
LAWS.update({f"{name}_move_law_n8": (partial(enumerate_move_distribution, g, x, 8), sha)
             for name, (g, x, _, sha) in ERASURE_LAWS.items()})


def _law_text(law) -> str:
    """One line per outcome, sorted, then the horizon and short mass of a
    prefix law: the same text for the same law, whatever its order."""
    tail = ""
    if isinstance(law, PrefixDistribution):
        tail = f"horizon {law.horizon} short {law.short_mass}\n"
        law = law.entries
    return "".join(sorted(f"{k!r} {p}\n" for k, p in law.items())) + tail


@pytest.mark.parametrize("name", sorted(LAWS))
def test_exact_law_digest(name):
    law, law_sha = LAWS[name]
    assert _sha(_law_text(law()).encode()) == law_sha
