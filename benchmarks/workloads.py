"""The benchmark's four workloads.

Each workload has a set-up (make the seeded inputs, build the graphs,
contract them) and a fixed list of jobs.  A job is one call of the user
entry point ``nbwalk.cli.run`` on generated spec and token files, or, where
the CLI has no command for it, one library call.  Every job's output is
checked in full on the first pass; later passes must reproduce its bytes.

Next to each workload stand why it was chosen (``why``), the per-layer
metrics it predicts should move and what they move (``predicts``), and the
per-layer metrics that must read above zero in its traced run (``busy``).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from inputs import (
    corridor_graph,
    explicit_spec,
    random_regular,
    token_stream,
    walk_count,
    write_spec,
    write_tokens,
)


class CheckFailed(Exception):
    """A job's output broke one of the properties the benchmark checks."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def digests(outputs: dict) -> dict:
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in sorted(outputs.items())}


@dataclass
class Job:
    name: str
    call: Callable[[], object]  # the timed part
    collect: Callable[[object], dict]  # output texts by name, untimed
    check: Callable[[dict], None]  # full check, first pass
    recheck: Callable[[dict], None] | None = None  # cheap check, every pass
    steps: int = 0  # walk steps the job covers, for steps_per_ref
    cli: str | None = None  # the CLI subcommand, when the job is a CLI call
    digests: dict | None = None  # output digests of the first pass
    last: dict | None = None  # output digests of the latest run


@dataclass
class Workload:
    name: str
    why: str
    predicts: dict
    busy: tuple
    setup: Callable  # (nb, seed, work dir) -> context
    jobs: Callable  # (nb, context) -> [Job]
    extra_check: Callable | None = None  # (nb, context, seed) -> note; once, untimed
    jobs_pair: tuple | None = None  # the same job at --jobs 1 and --jobs 2


# -- job builders ------------------------------------------------------------


def cli_job(nb, name, argv, files=(), check=None, recheck=None, steps=0):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = nb.cli.run(argv)
        expect(code == 0, f"nbwalk {argv[0]} exited with code {code}")
        return buf.getvalue()

    def collect(stdout):
        out = {"stdout": stdout}
        for key, path in files:
            out[key] = Path(path).read_text()
        return out

    return Job(name, call, collect, check or (lambda out: None), recheck, steps, cli=argv[0])


def diagnose_job(nb, ctx, name, spec, walk, replicas, horizon, jobs=1, start=None, seed=None, extra=None):
    base = str(ctx["work"] / name)
    argv = [
        "diagnose", "--graph", spec, "--walk", walk, "--horizon", str(horizon),
        "--replicas", str(replicas), "--seed", str(seed), "--jobs", str(jobs), "--out", base,
    ]
    if start is not None:
        argv += ["--start", start]
    files = (("json", base + ".json"), ("csv", base + ".csv"))

    def check(out):
        check_report(out, replicas, horizon)
        if extra:
            extra(out)

    return cli_job(nb, name, argv, files, check, steps=replicas * horizon)


def check_report(out, replicas, horizon):
    doc = json.loads(out["json"])
    agg = doc["aggregates"]
    expect(agg["replicas"] == replicas, f"report has {agg['replicas']} replicas, expected {replicas}")
    expect(doc["config"]["horizon"] == horizon, "report echoes the wrong horizon")
    rows = out["csv"].splitlines()
    expect(rows[0] == "replica,steps,returns,last_return,displacement", "unexpected CSV header")
    expect(len(rows) == replicas + 1, f"CSV has {len(rows) - 1} rows, expected {replicas}")
    returns = []
    for i, row in enumerate(rows[1:]):
        idx, steps, ret, last, _ = row.split(",")
        expect(idx == str(i) and steps == str(horizon), f"bad CSV row {row!r}")
        expect((last == "") == (ret == "0"), f"last return disagrees with return count in {row!r}")
        returns.append(int(ret))
    expect(agg["mean_returns"] == sum(returns) / replicas, "mean_returns is not recomputable from the CSV")


def same_report_as(other: Job):
    def check(out):
        mine = digests({k: out[k] for k in ("json", "csv")})
        expect(mine == {k: other.last[k] for k in mine}, f"report differs from {other.name}")

    return check


def fractions_in(text):
    return [Fraction(int(a), int(b)) for a, b in re.findall(r": (\d+)/(\d+) \(", text)]


def law_text(law: dict) -> str:
    return "".join(f"{k} {p.numerator}/{p.denominator}\n" for k, p in sorted(law.items()))


# -- fastpath_mc ---------------------------------------------------------------

LATTICE = {d: {"type": "lattice", "d": d} for d in (1, 2, 3)}
TREE3 = {"type": "regular_tree", "k": 3}
TREE43 = {"type": "biregular_tree", "k1": 4, "k2": 3}

# (job, spec, walk, replicas, horizon, --jobs)
FASTPATH = [
    ("z1_nbrw", LATTICE[1], "nbrw", 12, 50_000, 1),
    ("z2_srw", LATTICE[2], "srw", 12, 50_000, 1),
    ("z2_nbrw", LATTICE[2], "nbrw", 12, 50_000, 1),
    ("z3_srw", LATTICE[3], "srw", 12, 50_000, 1),
    ("z3_nbrw", LATTICE[3], "nbrw", 12, 50_000, 1),
    ("tree3_srw", TREE3, "srw", 12, 50_000, 1),
    ("tree43_srw", TREE43, "srw", 12, 50_000, 1),
    ("z3_nbrw_jobs1", LATTICE[3], "nbrw", 120, 5_000, 1),
    ("z3_nbrw_jobs2", LATTICE[3], "nbrw", 120, 5_000, 2),
]


def fastpath_setup(nb, seed, work):
    rng = random.Random(seed)
    specs, graphs = {}, []
    for name, spec, *_ in FASTPATH:
        specs[name] = write_spec(work / f"{name}.graph.json", spec)
        graphs.append(nb.graph.graph_from_spec(spec))
    seeds = {name: rng.randrange(2**32) for name, *_ in FASTPATH}
    seeds["z3_nbrw_jobs2"] = seeds["z3_nbrw_jobs1"]
    return {"work": work, "specs": specs, "seeds": seeds, "graphs": graphs}


def fastpath_jobs(nb, ctx):
    jobs = {}
    for name, _, walk, replicas, horizon, n_jobs in FASTPATH:
        # a non-backtracking walk on Z never turns: no returns, ends `horizon` away
        extra = (lambda out, h=horizon: check_straight_line(out, h)) if name == "z1_nbrw" else None
        jobs[name] = diagnose_job(
            nb, ctx, name, ctx["specs"][name], walk, replicas, horizon, n_jobs, seed=ctx["seeds"][name],
            extra=extra,
        )
    # the --jobs pool must not change a byte of the report
    jobs["z3_nbrw_jobs2"].check = jobs["z3_nbrw_jobs2"].recheck = same_report_as(jobs["z3_nbrw_jobs1"])
    return list(jobs.values())


def check_straight_line(out, horizon):
    for row in out["csv"].splitlines()[1:]:
        _, _, ret, last, disp = row.split(",")
        expect(ret == "0" and last == "" and float(disp) == horizon, f"Z^1 NBRW row {row!r} turned back")


def lattice_differential(nb, ctx, seed):
    """The lattice fast path and the generic stepper make the same draws, so
    on the same replica seeds they must give the same rows."""
    stats = nb.stats
    if not (hasattr(stats, "_lattice_run") and hasattr(stats, "_generic_replica")):
        return "skipped: nbwalk.stats has no _lattice_run/_generic_replica pair"
    for d in (1, 2, 3):
        lat = nb.graph.lattice(d)
        start = lat.default_start()
        for walk in ("srw", "nbrw"):
            kind = nb.walkers.WalkKind(walk)
            for i in range(3):
                s = stats.replica_seed(seed, i)
                fast = stats._lattice_run(kind, lat, start, 3000, np.random.default_rng(s))
                slow = stats._generic_replica(kind, lat, start, 3000, np.random.default_rng(s))
                row = (slow.returns_to_origin, slow.last_return_time, slow.end_displacement)
                expect(tuple(fast) == row, f"d={d} {walk} replica {i}: fast {fast} != generic {row}")
    return "passed: d=1..3, srw and nbrw, 3 replicas x 3000 steps"


# -- generic_mc ----------------------------------------------------------------

# interior-vertex counts of the nine corridors of a 6-vertex cubic base graph
CORRIDORS = (0, 0, 1, 1, 1, 2, 2, 3, 3)


def generic_setup(nb, seed, work):
    rng = random.Random(seed)
    rr = explicit_spec(random_regular(12, 3, rng))
    corridor = explicit_spec(corridor_graph(6, CORRIDORS, rng))
    specs = {
        "rr3": write_spec(work / "rr3.graph.json", rr),
        "subdivided_lattice": write_spec(work / "sublat.graph.json", {"type": "subdivided_lattice", "d": 2, "t": 1}),
        "corridor": write_spec(work / "corridor.graph.json", corridor),
        "tree3": write_spec(work / "tree3.graph.json", TREE3),
    }
    graphs = [nb.graph.graph_from_spec(s) for s in (rr, corridor, TREE3)]
    graphs.append(nb.graph.subdivided_lattice(2, 1))
    mg, _ = nb.contraction.contract(graphs[1])
    graphs.append(mg)
    seeds = [rng.randrange(2**32) for _ in range(6)]
    return {"work": work, "specs": specs, "seeds": seeds, "graphs": graphs, "multigraph": mg}


def generic_jobs(nb, ctx):
    sp, sd = ctx["specs"], ctx["seeds"]
    mg = ctx["multigraph"]
    replicas, horizon = 3, 20_000

    def edge_nbrw():
        return nb.stats.monte_carlo("nbrw", mg, 0, horizon, replicas, sd[4])

    edge = Job(
        "corridor_nbrw_edge",
        edge_nbrw,
        lambda rep: {"json": rep.json_text(), "csv": rep.csv_text()},
        lambda out: check_report(out, replicas, horizon),
        steps=replicas * horizon,
    )
    return [
        diagnose_job(nb, ctx, "rr3_srw", sp["rr3"], "srw", replicas, horizon, seed=sd[0]),
        diagnose_job(nb, ctx, "rr3_nbrw", sp["rr3"], "nbrw", replicas, horizon, seed=sd[1]),
        diagnose_job(nb, ctx, "sublat_srw", sp["subdivided_lattice"], "srw", 3, 10_000, seed=sd[2]),
        diagnose_job(nb, ctx, "corridor_wrw", sp["corridor"], "wrw", replicas, horizon, start="0", seed=sd[3]),
        edge,
        diagnose_job(nb, ctx, "tree3_below_root", sp["tree3"], "srw", 2, 2_000, start="(0)", seed=sd[5]),
    ]


# -- exact_oracles -------------------------------------------------------------

ORACLE_N = 10  # walk horizon of the erased-law and move-law oracles
COUNTER_N = 11  # walk horizon on the counterexample graph
INDUCED_M = {"srw": 6, "nbrw": 12}  # induced-law horizons


def oracle_setup(nb, seed, work):
    rng = random.Random(seed)
    rr_adj = random_regular(10, 3, rng)
    rr = explicit_spec(rr_adj)
    corridor = explicit_spec(corridor_graph(6, CORRIDORS, rng))
    specs = {
        "rr3": write_spec(work / "rr3.graph.json", rr),
        "counterexample": write_spec(work / "cx.graph.json", {"type": "counterexample"}),
        "corridor": write_spec(work / "corridor.graph.json", corridor),
    }
    graphs = [nb.graph.graph_from_spec(s) for s in (rr, {"type": "counterexample"}, corridor)]
    mg, cmap = nb.contraction.contract(graphs[2])
    graphs.append(mg)
    steps = {
        "rr3": walk_count(rr_adj, 0, ORACLE_N) * ORACLE_N,
        "counterexample": walk_count(graphs[1].adjacency_dict(), "v", COUNTER_N) * COUNTER_N,
    }
    return {"work": work, "specs": specs, "graphs": graphs, "cmap": cmap, "steps": steps}


def oracle_jobs(nb, ctx):
    sp = ctx["specs"]
    rr, _, corridor, _ = ctx["graphs"]
    m_wrw = INDUCED_M["srw"]
    enum_out = str(ctx["work"] / "wrw_law.json")

    def check_regular(out):
        tv, tv_cond, _ = fractions_in(out["stdout"])
        expect(tv_cond == 0, f"conditional TV on a 3-regular graph is {tv_cond}, not 0")

    def check_counterexample(out):
        tv, tv_cond, _ = fractions_in(out["stdout"])
        expect(min(tv, tv_cond) > Fraction(1, 100), f"counterexample TV {tv}, {tv_cond} is not above 1/100")

    def check_zero(out):
        (tv,) = fractions_in(out["stdout"])
        expect(tv == 0, f"induced law differs from the contracted kernel by {tv}")

    def move_law():
        bd = nb.birthdeath
        return (
            nb.erasure.enumerate_move_distribution(rr, 0, ORACLE_N),
            bd.chain_move_law(bd.chain_for_regular(3), ORACLE_N),
        )

    def check_move_law(out):
        expect(out["erased"] == out["chain"], "erased move law differs from chain_move_law(chain_for_regular(3))")

    def escape():
        bd = nb.birthdeath
        rows = [(str(k), bd.escape_probability(bd.chain_for_regular(k))) for k in range(3, 13)]
        return rows + [("4,3", bd.escape_probability(bd.chain_for_biregular(4, 3)))]

    # k-regular: odds (1/k)/((k-1)/k) = 1/(k-1) per step, so the escape
    # series sums to (k-1)/(k-2).  (4,3): odds 1/2 then 1/3, so the series
    # is 1 + (1/2 + 1/6)/(1 - 1/6) = 9/5.
    expected_escape = [(str(k), Fraction(k - 2, k - 1)) for k in range(3, 13)] + [("4,3", Fraction(5, 9))]

    def check_escape(out):
        expect(out["escape"] == law_text(dict(expected_escape)), "escape probabilities differ from the closed form")

    def check_wrw_law(out):
        doc = json.loads(out["law"])
        law = {tuple(e["sequence"]): Fraction(e["p"]) for e in doc["entries"]}
        expect(doc["horizon"] == m_wrw and doc["short_mass"] == "0/1", "bad WRW law header")
        expect(sum(law.values()) == 1, "WRW law does not sum to 1")
        induced = nb.contraction.induced_prefix_distribution(corridor, "srw", 0, m_wrw, ctx["cmap"])
        ref = {tuple(nb.graph.encode_key(v) for v in seq): p for seq, p in induced.entries.items()}
        expect(law == ref, "WRW law differs from the induced SRW law")

    steps = ctx["steps"]
    return [
        cli_job(
            nb, "compare_rr3",
            ["compare", "--graph", sp["rr3"], "--start", "0", "--N", str(ORACLE_N), "--m", "3"],
            check=check_regular, steps=steps["rr3"],
        ),
        cli_job(
            nb, "compare_counterexample",
            ["compare", "--graph", sp["counterexample"], "--start", "v", "--N", str(COUNTER_N), "--m", "3"],
            check=check_counterexample, steps=steps["counterexample"],
        ),
        Job(
            "move_law_rr3",
            move_law,
            lambda laws: {"erased": law_text(laws[0]), "chain": law_text(laws[1])},
            check_move_law,
            steps=steps["rr3"],
        ),
        cli_job(
            nb, "induced_srw",
            ["compare", "--graph", sp["corridor"], "--start", "0", "--induced", "--walk", "srw",
             "--m", str(INDUCED_M["srw"])],
            check=check_zero,
        ),
        cli_job(
            nb, "induced_nbrw",
            ["compare", "--graph", sp["corridor"], "--start", "0", "--induced", "--walk", "nbrw",
             "--m", str(INDUCED_M["nbrw"])],
            check=check_zero,
        ),
        cli_job(
            nb, "enumerate_wrw",
            ["enumerate", "--graph", sp["corridor"], "--walk", "wrw", "--start", "0", "--m", str(m_wrw),
             "--out", enum_out],
            files=(("law", enum_out),),
            check=check_wrw_law,
        ),
        Job(
            "escape",
            escape,
            lambda rows: {"escape": law_text(dict(rows))},
            check_escape,
        ),
    ]


# -- erase_stream --------------------------------------------------------------

K4 = explicit_spec({0: [1, 2, 3], 1: [0, 2, 3], 2: [0, 1, 3], 3: [0, 1, 2]})
ERASE_HORIZONS = (10_000, 50_000)
TOKEN_FILES = ((2, 20_000), (3, 20_000), (4, 20_000), (5, 20_000))  # (alphabet, length)


def erase_setup(nb, seed, work):
    rng = random.Random(seed)
    rr = explicit_spec(random_regular(12, 3, rng))
    specs = {"k4": K4, "rr3": rr, "z2": LATTICE[2]}
    graphs = {name: nb.graph.graph_from_spec(spec) for name, spec in specs.items()}
    spec_args = {name: write_spec(work / f"{name}.graph.json", spec) for name, spec in specs.items()}
    samples = [(name, h, rng.randrange(2**32)) for name in specs for h in ERASE_HORIZONS]
    tokens = {}
    for alphabet, length in TOKEN_FILES:
        toks = token_stream(length, alphabet, rng)
        tokens[f"tokens_a{alphabet}"] = (write_tokens(work / f"a{alphabet}.tokens", toks), toks)
    return {
        "work": work, "specs": spec_args, "graphs": list(graphs.values()), "by_name": graphs,
        "samples": samples, "tokens": tokens,
    }


def erase_jobs(nb, ctx):
    jobs = []

    def erase_job(name, source_argv, tokens_in, steps):
        out_path = str(ctx["work"] / f"{name}.erased")
        input_tokens = functools.cache(tokens_in)  # sampled once, on the first check

        def recheck(out):
            toks = out["erased"].split("\n")[0].split()
            stack = nb.erasure.erase_backtracks_stack(input_tokens())
            expect(list(stack) == toks, "cursor output differs from the stack form")

        def check(out):
            line, moves = out["erased"].split("\n")[:2]
            toks = line.split()
            inp = input_tokens()
            recheck(out)
            expect(nb.walkers.is_backtrack_free(toks), "erased output still has a backtrack")
            expect(len(toks) % 2 == len(inp) % 2, "erasure changed the length parity")
            expect(moves.count("R") - moves.count("L") == len(toks) - 1, "move record does not match the output")

        argv = ["erase", *source_argv, "--out", out_path]
        return cli_job(nb, name, argv, (("erased", out_path),), check, recheck, steps)

    for graph_name, horizon, seed in ctx["samples"]:
        g = ctx["by_name"][graph_name]

        def sampled(g=g, horizon=horizon, seed=seed):
            rng = np.random.default_rng(nb.stats.replica_seed(seed, 0))
            path = nb.walkers.sample_path("srw", g, g.default_start(), horizon, rng)
            return [nb.graph.encode_key(v) for v in path]

        argv = ["--graph", ctx["specs"][graph_name], "--horizon", str(horizon), "--seed", str(seed)]
        jobs.append(erase_job(f"{graph_name}_{horizon}", argv, sampled, horizon))
    for name, (arg, toks) in ctx["tokens"].items():
        jobs.append(erase_job(name, ["--tokens", arg], lambda toks=toks: toks, len(toks) - 1))
    return jobs


# -- the table -----------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fastpath_mc",
            why=(
                "diagnose on Z^1-Z^3 and on root-started trees takes the vectorized lattice and tree "
                "fast paths: nearly all time is in stats._lattice_run / stats._tree_run and numpy draws, "
                "while graph and walkers sit idle. One Z^3 NBRW configuration runs at --jobs 1 and 2."
            ),
            predicts={
                "stats.ns_per_step.lattice_fast": "steps_per_ref, pass_ref on fastpath_mc (ROADMAP item 3 moves it)",
                "stats.ns_per_step.tree_fast": "steps_per_ref, pass_ref on fastpath_mc",
                "stats.jobs2_speedup": "steps_per_ref, pass_ref on fastpath_mc (any change to the --jobs pool)",
                "graph.build_s": "setup_s",
                "cli.diagnose_s": "pass_ref",
                "cli.overhead_s": "pass_ref",
            },
            busy=(
                "stats.ns_per_step.lattice_fast", "stats.ns_per_step.tree_fast", "stats.jobs2_speedup",
                "cli.diagnose_s", "graph.build_s",
            ),
            setup=fastpath_setup,
            jobs=fastpath_jobs,
            extra_check=lattice_differential,
            jobs_pair=("z3_nbrw_jobs1", "z3_nbrw_jobs2"),
        ),
        Workload(
            name="generic_mc",
            why=(
                "diagnose runs that miss every fast path: a seeded cubic graph (SRW, NBRW), the subdivided "
                "lattice, the contracted WRW and the edge NBRW on a seeded corridor graph, and a tree walk "
                "started below the root. The cost is graph.neighbors / half_edges plus the walkers.*_step "
                "calls; tree keys are root paths, so tree lookups are O(depth)."
            ),
            predicts={
                "graph.neighbors_calls": "steps_per_ref on generic_mc",
                "graph.neighbors_ns.*": "steps_per_ref on generic_mc (ROADMAP item 2: one kernel, CSR)",
                "graph.half_edges_ns": "steps_per_ref on generic_mc",
                "walkers.step_calls": "steps_per_ref on generic_mc",
                "walkers.step_ns.*": "steps_per_ref on generic_mc",
                "stats.ns_per_step.generic": "steps_per_ref on generic_mc",
                "graph.build_s": "setup_s",
                "contraction.contract_s": "setup_s",
                "cli.diagnose_s": "pass_ref",
                "cli.overhead_s": "pass_ref",
            },
            busy=(
                "graph.neighbors_calls", "graph.neighbors_ns.subdivided_lattice", "graph.neighbors_ns.tree",
                "graph.neighbors_ns.explicit", "graph.half_edges_ns", "walkers.step_calls",
                "walkers.step_ns.srw", "walkers.step_ns.nbrw", "walkers.step_ns.nbrw_edge",
                "walkers.step_ns.wrw", "stats.ns_per_step.generic", "cli.diagnose_s", "graph.build_s",
                "contraction.contract_s",
            ),
            setup=generic_setup,
            jobs=generic_jobs,
        ),
        Workload(
            name="exact_oracles",
            why=(
                "Exact rational oracles: erased law against NBRW on a seeded cubic graph (zero) and on "
                "the counterexample graph (not zero), the erased move law against chain_move_law, induced "
                "laws against the contracted kernels on a seeded corridor graph, the WRW law, and escape "
                "probabilities. Time goes to path enumeration in erasure and walkers, plus contraction and "
                "birthdeath; the Monte Carlo code is idle."
            ),
            predicts={
                "walkers.enumerate_s": "pass_ref on exact_oracles",
                "walkers.expansions": "pass_ref on exact_oracles",
                "erasure.erased_prefix_s": "pass_ref, peak_rss_mb on exact_oracles (ROADMAP item 4)",
                "erasure.move_law_s": "pass_ref, peak_rss_mb on exact_oracles (ROADMAP item 4)",
                "erasure.expansions": "pass_ref, peak_rss_mb on exact_oracles (ROADMAP item 4: fewer)",
                "contraction.induced_srw_s": "pass_ref on exact_oracles; no change if _crossing_probability goes",
                "contraction.induced_nbrw_s": "pass_ref on exact_oracles",
                "contraction.expansions": "pass_ref on exact_oracles",
                "birthdeath.chain_move_law_s": "pass_ref on exact_oracles",
                "birthdeath.escape_s": "pass_ref on exact_oracles",
                "stats.total_variation_s": "pass_ref on exact_oracles",
                "graph.build_s": "setup_s",
                "contraction.contract_s": "setup_s",
                "cli.compare_s": "pass_ref",
                "cli.enumerate_s": "pass_ref",
                "cli.overhead_s": "pass_ref",
            },
            busy=(
                "walkers.enumerate_s", "walkers.expansions", "erasure.erased_prefix_s", "erasure.move_law_s",
                "erasure.expansions", "contraction.induced_srw_s", "contraction.induced_nbrw_s",
                "contraction.expansions", "birthdeath.chain_move_law_s", "birthdeath.escape_s",
                "stats.total_variation_s", "cli.compare_s", "cli.enumerate_s", "graph.build_s",
                "contraction.contract_s",
            ),
            setup=oracle_setup,
            jobs=oracle_jobs,
        ),
        Workload(
            name="erase_stream",
            why=(
                "erase on fresh SRW samples of 1e4 and 1e5 steps (K4, a seeded cubic graph, Z^2) and on "
                "seeded token files over 2-5 symbols. The cursor form runs over one long sequence, where "
                "exact_oracles runs the stack form over many short paths; del items[n:n+2] shifts the "
                "unread tail, so the cursor's cost per token grows with the stream."
            ),
            predicts={
                "walkers.sample_path_ns_per_step": "steps_per_ref on erase_stream",
                "erasure.cursor_ns_per_token.short": "steps_per_ref on erase_stream",
                "erasure.cursor_ns_per_token.long": "steps_per_ref on erase_stream",
                "erasure.stack_ns_per_token": "steps_per_ref on erase_stream (the per-pass stack check)",
                "graph.build_s": "setup_s",
                "cli.erase_s": "pass_ref",
                "cli.overhead_s": "pass_ref",
            },
            busy=(
                "walkers.sample_path_ns_per_step", "erasure.cursor_ns_per_token.short",
                "erasure.cursor_ns_per_token.long", "erasure.stack_ns_per_token", "cli.erase_s",
                "graph.neighbors_ns.lattice", "graph.neighbors_ns.explicit", "walkers.step_ns.srw",
                "graph.build_s",
            ),
            setup=erase_setup,
            jobs=erase_jobs,
        ),
    )
}
