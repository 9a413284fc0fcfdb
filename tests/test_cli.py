import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nbwalk
from nbwalk import walkers
from nbwalk.cli import run

K4_SPEC = json.dumps({"type": "explicit", "adjacency": {"0": [1, 2, 3], "1": [0, 2, 3], "2": [0, 1, 3], "3": [0, 1, 2]}})
THETA_SPEC = json.dumps(
    {
        "type": "explicit",
        "adjacency": {
            "u": ["w", "p1", "q1"],
            "w": ["u", "p1", "q2"],
            "p1": ["u", "w"],
            "q1": ["u", "q2"],
            "q2": ["q1", "w"],
        },
    }
)


def test_chain_regular_recurrent(capsys):
    assert run(["chain", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "recurrent" in out
    assert "escape probability: 0/1" in out


def test_chain_regular_transient(capsys):
    assert run(["chain", "--k", "3"]) == 0
    out = capsys.readouterr().out
    assert "transient" in out
    assert "1/2" in out


def test_chain_biregular(capsys):
    assert run(["chain", "--k1", "4", "--k2", "3"]) == 0
    out = capsys.readouterr().out
    assert "5/9" in out


def test_chain_requires_degrees(capsys):
    assert run(["chain"]) == 2


def test_erase_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("a b a c"))
    assert run(["erase"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "a c"
    assert out[1] == "RLR"


def test_erase_file_and_out(tmp_path, capsys):
    src = tmp_path / "tokens.txt"
    src.write_text("0 1 0 2\n")
    dst = tmp_path / "erased.txt"
    assert run(["erase", "--tokens", f"@{src}", "--out", str(dst)]) == 0
    lines = dst.read_text().splitlines()
    assert lines[0] == "0 2"
    assert lines[1] == "RLR"


def test_erase_sampled_walk(capsys):
    assert run(["erase", "--graph", K4_SPEC, "--horizon", "40", "--seed", "5"]) == 0
    out, moves = capsys.readouterr().out.splitlines()[:2]
    toks = out.split()
    assert len(moves) == 40
    assert all(toks[i - 1] != toks[i + 1] for i in range(1, len(toks) - 1))
    # without --horizon the sample takes 100 steps
    assert run(["erase", "--graph", K4_SPEC, "--seed", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()[1]) == 100


def test_contract_output(tmp_path, capsys):
    base = tmp_path / "theta"
    assert run(["contract", "--graph", THETA_SPEC, "--out", str(base)]) == 0
    doc = json.loads((tmp_path / "theta.json").read_text())
    assert doc["vertices"] == ["u", "w"]
    assert sorted(e["r"] for e in doc["edges"]) == [1, 2, 3]
    assert doc["max_corridor_length"] == 3
    csv_lines = (tmp_path / "theta.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "endpoint_a,endpoint_b,length"
    assert len(csv_lines) == 4


def test_enumerate_srw(capsys):
    assert run(["enumerate", "--graph", K4_SPEC, "--walk", "srw", "--start", "0", "--m", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["horizon"] == 2
    assert len(doc["entries"]) == 9
    assert all(e["p"] == "1/9" for e in doc["entries"])


def test_compare_erased(capsys):
    assert run(["compare", "--graph", K4_SPEC, "--start", "0", "--N", "6", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert "tv(erased N=6" in out
    assert "short mass" in out


def test_compare_induced(capsys):
    assert run(["compare", "--graph", THETA_SPEC, "--start", "u", "--induced", "--walk", "srw", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert "tv(induced srw, contracted wrw): 0/1" in out


def test_walk_prints_path_and_stats(capsys):
    spec = json.dumps({"type": "lattice", "d": 1})
    assert run(["walk", "--graph", spec, "--walk", "nbrw", "--horizon", "5", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    path = [int(t) for t in lines[0].split()]
    assert len(path) == 6
    stats = json.loads(lines[1])
    assert stats["returns"] == 0


def test_walk_wrw_contracts_explicit(capsys):
    assert run(["walk", "--graph", THETA_SPEC, "--walk", "wrw", "--start", "u", "--horizon", "9", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines[0].split()) == 10


def test_diagnose_writes_files(tmp_path):
    spec = json.dumps({"type": "lattice", "d": 1})
    base = tmp_path / "report"
    code = run(
        [
            "diagnose", "--graph", spec, "--walk", "nbrw", "--horizon", "1000",
            "--replicas", "10", "--seed", "7", "--out", str(base),
        ]
    )
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["aggregates"]["returned_fraction"] == 0.0
    assert doc["config"]["walk"] == "nbrw"
    rows = (tmp_path / "report.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 10
    assert all(row.split(",")[2] == "0" for row in rows)


def test_diagnose_requires_seed(tmp_path, capsys):
    spec = json.dumps({"type": "lattice", "d": 1})
    code = run(["diagnose", "--graph", spec, "--walk", "nbrw", "--horizon", "10", "--replicas", "2"])
    assert code == 2


def test_bad_graph_json_is_config_error(tmp_path, capsys):
    code = run(["walk", "--graph", "{not json", "--walk", "srw", "--horizon", "5", "--seed", "1"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_deeply_nested_graph_json_exits_2_without_files(tmp_path, capsys):
    # json.loads raises RecursionError, not ValueError, on nesting this deep
    out = tmp_path / "tokens.txt"
    code = run(["walk", "--graph", "[" * 100_000, "--walk", "srw", "--seed", "1", "--horizon", "3", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "recursion" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_unknown_graph_type_is_config_error(capsys):
    spec = json.dumps({"type": "moebius", "d": 2})
    assert run(["walk", "--graph", spec, "--walk", "srw", "--horizon", "5", "--seed", "1"]) == 2


def test_runtime_failure_exit_code(capsys):
    spec = json.dumps({"type": "explicit", "adjacency": {"0": [1], "1": [0, 2], "2": [1]}})
    code = run(["walk", "--graph", spec, "--walk", "nbrw", "--start", "1", "--horizon", "10", "--seed", "2"])
    assert code == 1
    assert "step" in capsys.readouterr().err


@pytest.mark.parametrize(
    "adjacency, walk, message",
    [
        # K2's non-backtracking bound is 0 and a lone vertex has degree 0:
        # both miss the move table, and the stepper says where the walk stuck
        ({"a": ["b"], "b": ["a"]}, "nbrw", "step 2: vertex"),
        ({"a": []}, "srw", "step 1: vertex 'a' is isolated"),
        ({"a": []}, "nbrw", "step 1: vertex 'a' is isolated"),
    ],
)
def test_diagnose_stuck_walk_exits_1_with_its_step(adjacency, walk, message, tmp_path, capsys):
    spec = json.dumps({"type": "explicit", "adjacency": adjacency})
    argv = ["diagnose", "--graph", spec, "--walk", walk, "--start", "a", "--horizon", "5", "--replicas", "3",
            "--seed", "1", "--out", str(tmp_path / "report")]
    assert run(argv) == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_rejected_config_leaves_no_files(tmp_path):
    base = tmp_path / "partial"
    spec = json.dumps({"type": "lattice", "d": 9})
    code = run(
        [
            "diagnose", "--graph", spec, "--walk", "nbrw", "--horizon", "10",
            "--replicas", "2", "--seed", "1", "--out", str(base),
        ]
    )
    assert code == 2
    assert not (tmp_path / "partial.json").exists()
    assert not (tmp_path / "partial.csv").exists()


LINE_SPEC = json.dumps({"type": "lattice", "d": 1})
PATH3_SPEC = json.dumps({"type": "explicit", "adjacency": {"a": ["b"], "b": ["a", "c"], "c": ["b"]}})
PATH4_SPEC = json.dumps({"type": "explicit", "adjacency": {"a": ["b"], "b": ["a", "c"], "c": ["b", "d"], "d": ["c"]}})
# every vertex has degree 2, so there is no anchor to contract onto
TRIANGLE_SPEC = json.dumps({"type": "explicit", "adjacency": {"0": [1, 2], "1": [0, 2], "2": [0, 1]}})


# a repeated flag takes its last value, so each case overrides one valid flag
def _diagnose(*extra):
    return ["diagnose", "--graph", K4_SPEC, "--walk", "srw", "--horizon", "10", "--replicas", "2", "--seed", "1", *extra]


def _walk(*extra):
    return ["walk", "--graph", LINE_SPEC, "--walk", "nbrw", "--horizon", "5", "--seed", "1", *extra]


@pytest.mark.parametrize(
    "argv",
    [
        _diagnose("--horizon", "-1"),
        _diagnose("--replicas", "0"),
        _diagnose("--start", "9"),
        _diagnose("--jobs", "-3"),
        _diagnose("--seed", "-1"),
        _diagnose("--seed", str(2**64)),
        _walk("--horizon", "-1"),
        _walk("--seed", str(2**64)),
        ["compare", "--graph", K4_SPEC, "--start", "0", "--N", "3", "--m", "3"],
        ["compare", "--graph", THETA_SPEC, "--start", "p1", "--induced", "--m", "2"],
        ["compare", "--graph", TRIANGLE_SPEC, "--induced", "--m", "2"],
        # horizons above the enumeration guard of 14
        ["enumerate", "--graph", K4_SPEC, "--walk", "srw", "--m", "15"],
        ["compare", "--graph", K4_SPEC, "--start", "0", "--N", "15", "--m", "3"],
        ["compare", "--graph", THETA_SPEC, "--start", "u", "--induced", "--m", "15"],
        ["contract", "--graph", TRIANGLE_SPEC],
        ["contract", "--graph", LINE_SPEC],
        ["erase", "--tokens", "@no-such-file.tokens"],
        # refused even though the value minus its first character names a readable file
        ["erase", "--tokens", "x" + __file__],
        # a token file and a sampled walk are two inputs; --seed/--start only select a sample
        ["erase", "--tokens", "@" + __file__, "--graph", K4_SPEC, "--seed", "1"],
        ["erase", "--tokens", "@" + __file__, "--seed", "1"],
        ["erase", "--tokens", "@" + __file__, "--start", "0"],
        ["erase", "--seed", "1"],
        ["erase", "--tokens", "@" + __file__, "--horizon", "5"],
        # malformed explicit specs: no vertices, a null row, a string row
        _walk("--graph", json.dumps({"type": "explicit", "adjacency": {}})),
        _walk("--graph", json.dumps({"type": "explicit", "adjacency": {"a": None}})),
        _walk("--graph", json.dumps({"type": "explicit", "adjacency": {"a": "bc", "b": ["a"], "c": ["a"]}})),
        _walk("--graph", "@no-such-file.json"),
        _walk("--graph", "[1]"),
        _walk("--graph", json.dumps({"type": "lattice", "d": 2}), "--walk", "wrw"),
        ["erase", "--graph", K4_SPEC],
        ["erase", "--tokens", "@" + os.devnull],
        ["chain", "--k", "3", "--k1", "4"],
        ["compare", "--graph", LINE_SPEC, "--N", "4", "--m", "2"],
        ["compare", "--graph", K4_SPEC, "--m", "2"],
        # --N sets only the erased law and --walk only the induced one
        ["compare", "--graph", K4_SPEC, "--induced", "--N", "4", "--m", "2"],
        ["compare", "--graph", K4_SPEC, "--walk", "nbrw", "--N", "4", "--m", "2"],
        # integers beyond Python's digit limit for int(text)
        _walk("--graph", '{"type": "lattice", "d": ' + "1" * 5000 + "}"),
        _walk("--start", "1" * 5000),
    ],
    ids=[
        "diagnose-horizon", "replicas", "start", "jobs", "seed-negative", "seed-2**64",
        "walk-horizon", "walk-seed", "compare-m-not-below-N", "compare-induced-start-not-anchor",
        "compare-induced-no-anchor", "enumerate-m-above-guard", "compare-N-above-guard",
        "compare-induced-m-above-guard", "contract-no-anchor", "contract-not-explicit",
        "erase-missing-tokens", "erase-tokens-without-at", "erase-tokens-and-graph",
        "erase-tokens-and-seed", "erase-tokens-and-start", "erase-stdin-and-seed",
        "erase-tokens-and-horizon", "explicit-empty", "explicit-null-row", "explicit-string-row",
        "graph-missing-file", "graph-not-object", "walk-wrw-not-explicit", "erase-graph-without-seed",
        "erase-empty-tokens", "chain-k-and-k1", "compare-not-explicit", "compare-without-N",
        "compare-induced-with-N", "compare-walk-without-induced", "graph-integer-too-long", "start-integer-too-long",
    ],
)
def test_invalid_configuration_exits_2_without_files(argv, tmp_path, capsys):
    # chain and compare take no --out
    if argv[0] in ("chain", "compare"):
        assert run(argv) == 2
        assert capsys.readouterr().out == ""
    else:
        assert run(argv + ["--out", str(tmp_path / "out")]) == 2
        assert list(tmp_path.iterdir()) == []


# every subcommand that takes --out
@pytest.mark.parametrize(
    "argv",
    [
        _walk(),
        ["erase", "--graph", K4_SPEC, "--seed", "1"],
        ["contract", "--graph", THETA_SPEC],
        ["enumerate", "--graph", K4_SPEC, "--walk", "srw", "--m", "2"],
        _diagnose(),
    ],
    ids=["walk", "erase", "contract", "enumerate", "diagnose"],
)
def test_out_in_a_missing_directory_exits_2_without_files(argv, tmp_path, capsys):
    assert run(argv + ["--out", str(tmp_path / "missing" / "r")]) == 2
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [["contract", "--graph", THETA_SPEC], _diagnose()], ids=["contract", "diagnose"])
def test_csv_target_that_is_a_directory_leaves_no_json(argv, tmp_path, capsys):
    (tmp_path / "r.csv").mkdir()
    assert run(argv + ["--out", str(tmp_path / "r")]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]
    assert capsys.readouterr().out == ""


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["diagnose", "--help"]) == 0


def test_exact_law_over_the_state_budget_exits_1_without_files(tmp_path, capsys, monkeypatch):
    # Z^2 srw paths never merge: horizon 3 carries 4^3 states into its last level
    monkeypatch.setattr(walkers, "MAX_LEVEL_STATES", 63)
    argv = ["enumerate", "--graph", json.dumps({"type": "lattice", "d": 2}), "--walk", "srw", "--m", "3"]
    assert run(argv + ["--out", str(tmp_path / "law")]) == 1
    assert list(tmp_path.iterdir()) == []
    assert "state budget" in capsys.readouterr().err
    monkeypatch.setattr(walkers, "MAX_LEVEL_STATES", 64)
    assert run(argv + ["--out", str(tmp_path / "law")]) == 0


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize(
    "text, message", [("a ( b", "'('"), ("a " + "1" * 5000, "5000 digits is too long")], ids=["paren", "long-integer"]
)
def test_malformed_token_exits_2_without_files(source, text, message, tmp_path, capsys, monkeypatch):
    tokens = tmp_path / "bad.tokens"
    tokens.write_text(text + "\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(tokens.read_text()))
    argv = ["erase", "--tokens", f"@{tokens}"] if source == "file" else ["erase"]
    assert run(argv + ["--out", str(tmp_path / "erased")]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["bad.tokens"]
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err


def test_graph_spec_read_from_a_file(tmp_path, capsys):
    spec = tmp_path / "k4.json"
    spec.write_text(K4_SPEC)
    argv = ["enumerate", "--walk", "srw", "--m", "2", "--graph"]
    assert run(argv + [f"@{spec}"]) == 0
    from_file = capsys.readouterr().out
    assert run(argv + [K4_SPEC]) == 0
    assert from_file == capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["enumerate", "--graph", PATH3_SPEC, "--walk", "nbrw", "--start", "a", "--m", "3"], "'c' has degree 1"),
        (["compare", "--graph", PATH3_SPEC, "--start", "a", "--N", "6", "--m", "3"], "'c' has degree 1"),
        # every 4-step walk from the end of the path erases to fewer than 4 vertices
        (["compare", "--graph", PATH4_SPEC, "--start", "a", "--N", "4", "--m", "3"], "no full-length mass"),
    ],
    ids=["enumerate-nbrw-dead-end", "compare-nbrw-dead-end", "compare-no-full-prefix"],
)
def test_runtime_failure_exits_1_without_output(argv, message, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["chain", "--k", "3"], 0),
        (["walk", "--graph", PATH3_SPEC, "--walk", "nbrw", "--start", "a", "--horizon", "5", "--seed", "1"], 1),
        (["chain"], 2),
    ],
    ids=["success", "runtime-failure", "configuration-error"],
)
def test_main_passes_the_exit_code_to_the_shell(argv, code):
    env = {**os.environ, "PYTHONPATH": str(Path(nbwalk.__file__).parents[1])}
    cmd = [sys.executable, "-c", "from nbwalk.cli import main; main()", *argv]
    assert subprocess.run(cmd, env=env, capture_output=True, timeout=120).returncode == code
