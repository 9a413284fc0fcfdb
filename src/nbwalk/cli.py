"""Command-line front end.

Subcommands: ``walk`` (sample a path and report its statistics),
``erase`` (apply backtrack erasure to tokens or a fresh sample),
``chain`` (birth-death analysis), ``contract`` (emit the contracted
multigraph), ``enumerate`` (dump an exact prefix law), ``compare``
(total-variation distances between exact laws), and ``diagnose``
(seeded Monte Carlo report).

Exit codes: 0 on success, 1 on runtime failures such as a walk with no
legal move, 2 on configuration errors; ``run`` tells the two failures
apart by the type of the error.  All randomness flows from an explicit
``--seed``; rejected configurations never produce output files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from functools import cache
from itertools import chain, repeat
from operator import mul
from pathlib import Path

from .birthdeath import (
    _period_ratio_product,
    chain_for_biregular,
    chain_for_regular,
    escape_probability,
    is_transient,
)
from .contraction import contract, induced_prefix_distribution
from .erasure import erase_backtracks, erased_prefix_distribution
from .errors import InvalidInput, InvalidParameter, MalformedGraph, NbwalkError, UnsupportedGraph, UnsupportedStructure
from .graph import decode_key, encode_key, graph_from_spec, sort_token
from .laws import WalkKind, _check_start, enumerate_prefix_distribution, total_variation

# errors that refuse the configuration, including its input files (exit
# 2); every other NbwalkError is a runtime failure (exit 1)
_CONFIG_ERRORS = (
    InvalidParameter, InvalidInput, MalformedGraph, UnsupportedGraph, UnsupportedStructure, OSError, UnicodeDecodeError,
)


def _fmt_ratio(w: int, den: int) -> str:
    """``w / den`` in lowest terms, as ``"num/den"``."""
    g = math.gcd(w, den)
    return f"{w // g}/{den // g}"


def _fmt_rational(x: Fraction) -> str:
    return f"{_fmt_ratio(x.numerator, x.denominator)} ({float(x):.12g})"


def _graph(args):
    """The ``--graph`` spec and the graph it describes."""
    text = args.graph
    if text.startswith("@"):
        text = Path(text[1:]).read_text()
    try:
        spec = json.loads(text)
    # malformed JSON, an integer with too many digits, or nesting too deep to decode
    except (ValueError, RecursionError) as exc:
        raise InvalidParameter(f"cannot read the --graph JSON: {exc}") from None
    if not isinstance(spec, dict):
        raise InvalidParameter("graph spec must be a JSON object")
    try:
        return spec, graph_from_spec(spec)
    except RecursionError:  # nesting too deep to build
        raise InvalidParameter("the --graph spec is nested too deeply to build") from None


def _start_vertex(args, graph):
    return _check_start(graph, graph.default_start() if args.start is None else decode_key(args.start))


def _walk_graph(args):
    """Spec, graph, walk kind and start vertex of ``walk``, ``enumerate``
    and ``diagnose``; a wrw walk runs on the contracted multigraph."""
    spec, graph = _graph(args)
    kind = WalkKind(args.walk)
    if kind is WalkKind.WRW:
        graph, _ = contract(graph)
    return spec, graph, kind, _start_vertex(args, graph)


def _int_range(lo, hi=None):
    """argparse type: an integer n with lo <= n, and n < hi when given."""

    def integer(text):
        value = int(text)
        if value < lo or (hi is not None and value >= hi):
            bound = f"at least {lo}" if hi is None else f"in [{lo}, {hi})"
            raise argparse.ArgumentTypeError(f"{text} is not an integer {bound}")
        return value

    return integer


_COUNT = _int_range(0)
_SEED = _int_range(0, 1 << 64)


# numpy, stats and walkers load only in the commands that sample: walk,
# erase --graph and diagnose
def _rng(seed: int):
    import numpy as np

    from .stats import replica_seed

    return np.random.default_rng(replica_seed(seed, 0))


def sample_path(kind, graph, start, n: int, rng) -> tuple:
    """``walkers.sample_path``, with ``walkers`` imported on the first call."""
    from .walkers import sample_path

    return sample_path(kind, graph, start, n, rng)


def _publish(out, files: dict, shown=None, announce=True) -> None:
    """Print ``shown`` (default: the text chunks of ``files`` in order)
    without ``--out``; else write each file's chunks, as they come, to
    ``out`` plus its suffix, staged beside its target and renamed into
    place once all are written.  A failure removes what it staged; a
    failed write is a configuration error."""
    if not out:
        sys.stdout.writelines(chain.from_iterable(files.values()) if shown is None else shown)
        return
    staged = []
    try:
        for suffix, chunks in files.items():
            target = Path(out + suffix)
            if target.is_dir():
                # a rename onto it would fail after the other files moved
                raise InvalidParameter(f"cannot write {target}: it is a directory")
            tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            staged.append((tmp, target))
            with tmp.open("w") as f:
                f.writelines(chunks)
        for tmp, target in staged:
            tmp.replace(target)
    except OSError as exc:
        raise InvalidParameter(f"cannot write {target}: {exc.strerror or exc}") from None
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
    if announce:
        print("wrote " + " and ".join(out + suffix for suffix in files))


def _each_once(fn, items) -> list:
    """``[fn(x) for x in items]`` with one call per distinct item, made in
    order of first appearance, so that a refusal names the first bad one."""
    values = {x: fn(x) for x in dict.fromkeys(items)}
    return [values[x] for x in items]


def _cmd_walk(args) -> int:
    from .stats import return_statistics

    _, graph, kind, start = _walk_graph(args)
    path = sample_path(kind, graph, start, args.horizon, _rng(args.seed))
    stats = return_statistics(path, start, graph)
    _publish(args.out, {"": [" ".join(_each_once(encode_key, path)), "\n"]}, announce=False)
    doc = {
        "steps": stats.steps,
        "returns": stats.returns_to_origin,
        "last_return": stats.last_return_time,
        "displacement": stats.end_displacement,
    }
    print(json.dumps(doc, sort_keys=True))
    return 0


def _cmd_erase(args) -> int:
    if args.graph is not None and args.tokens is not None:
        raise InvalidParameter("give either --tokens or --graph, not both")
    if args.graph is None and (args.seed is not None or args.start is not None or args.horizon is not None):
        raise InvalidParameter("--seed, --start and --horizon select a sampled walk and need --graph")
    if args.graph is not None:
        _, graph = _graph(args)
        start = _start_vertex(args, graph)
        if args.seed is None:
            raise InvalidParameter("sampling a walk to erase requires --seed")
        horizon = 100 if args.horizon is None else args.horizon
        seq = sample_path(WalkKind.SRW, graph, start, horizon, _rng(args.seed))
    else:
        if args.tokens is not None and not args.tokens.startswith("@"):
            raise InvalidParameter(f"--tokens takes @file, got {args.tokens!r}")
        text = Path(args.tokens[1:]).read_text() if args.tokens else sys.stdin.read()
        seq = _each_once(decode_key, text.split())
    result = erase_backtracks(seq)
    out = " ".join(_each_once(encode_key, result.output))
    _publish(args.out, {"": [out, "\n", result.trace.moves, "\n"]}, announce=False)
    return 0


def _cmd_chain(args) -> int:
    if args.k is not None:
        if args.k1 is not None or args.k2 is not None:
            raise InvalidParameter("give either --k or --k1/--k2, not both")
        spec = chain_for_regular(args.k)
    elif args.k1 is not None and args.k2 is not None:
        spec = chain_for_biregular(args.k1, args.k2)
    else:
        raise InvalidParameter("need --k, or both --k1 and --k2")
    transient = is_transient(spec)
    print("verdict: " + ("transient" if transient else "recurrent"))
    print(f"period odds product: {_fmt_rational(_period_ratio_product(spec))}")
    print(f"escape probability: {_fmt_rational(escape_probability(spec))}")
    return 0


def _cmd_contract(args) -> int:
    _, graph = _graph(args)
    # contract refuses a graph that is not explicit or has no corridor structure
    mg, cmap = contract(graph)
    doc = mg.to_json_dict()
    doc["max_corridor_length"] = cmap.max_length
    json_text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    csv_rows = [f"{encode_key(c.a)},{encode_key(c.b)},{c.length}\n" for c in cmap.corridors]
    _publish(args.out, {".json": [json_text], ".csv": ["endpoint_a,endpoint_b,length\n", *csv_rows]})
    return 0


def _cmd_enumerate(args) -> int:
    _, graph, kind, start = _walk_graph(args)
    dist = enumerate_prefix_distribution(kind, graph, start, args.m)
    # the text json.dumps(..., sort_keys=True, indent=2) gives for the
    # object {"entries", "horizon", "short_mass"}, written directly, since
    # with an indent json runs its pure-Python encoder: each key is quoted
    # once by json's string encoder, and the entries go in sort_token order
    # of their vertices.  "decimal" is the repr of the int true division
    # w / den, which is correctly rounded, so it is the float of the Fraction
    den = dist.den
    verts = sorted({v for seq in dist.weights for v in seq}, key=sort_token)
    rank = {v: i for i, v in enumerate(verts)}
    quoted = {v: json.dumps(encode_key(v)) for v in verts}
    # every sequence has horizon + 1 vertices, so its ranks read as digits
    # in base len(verts) order it as its list of ranks would, in one int
    places = [len(verts) ** i for i in range(dist.horizon, -1, -1)]
    order = sorted(dist.weights.items(), key=lambda e: sum(map(mul, map(rank.__getitem__, e[0]), places)))
    sep = ",\n        "
    leads = chain(["    "], repeat(",\n    "))
    entries = (
        f'{lead}{{\n      "decimal": {w / den!r},\n      "p": "{_fmt_ratio(w, den)}",\n      "sequence": [\n'
        f"        {sep.join(map(quoted.__getitem__, seq))}\n      ]\n    }}"
        for lead, (seq, w) in zip(leads, order)
    )
    tail = f'\n  ],\n  "horizon": {dist.horizon},\n  "short_mass": "{_fmt_ratio(dist.short, den)}"\n}}\n'
    _publish(args.out, {"": chain(['{\n  "entries": [\n'], entries, [tail])})
    return 0


def _cmd_compare(args) -> int:
    _, graph = _graph(args)
    start = _start_vertex(args, graph)
    if args.induced:
        if args.N is not None:
            raise InvalidParameter("--N is the erased law's horizon, which --induced does not use")
        kind = WalkKind(args.walk or "srw")
        mg, cmap = contract(graph)
        induced = induced_prefix_distribution(graph, kind, start, args.m, cmap)
        target_kind = WalkKind.WRW if kind is WalkKind.SRW else WalkKind.NBRW
        target = enumerate_prefix_distribution(target_kind, mg, start, args.m)
        tv = total_variation(induced, target)
        print(f"tv(induced {kind.value}, contracted {target_kind.value}): {_fmt_rational(tv)}")
    else:
        if args.N is None or args.walk is not None:
            raise InvalidParameter("erased-law comparison needs --N and takes no --walk, which is for --induced")
        if args.N <= args.m:
            raise InvalidParameter(f"--N {args.N} must exceed --m {args.m}")
        erased = erased_prefix_distribution(graph, start, args.N, args.m)
        nbrw = enumerate_prefix_distribution(WalkKind.NBRW, graph, start, args.m)
        tv = total_variation(erased, nbrw)
        tv_cond = total_variation(erased.conditioned(), nbrw)
        print(f"tv(erased N={args.N}, nbrw m={args.m}): {_fmt_rational(tv)}")
        print(f"tv conditional on full prefix: {_fmt_rational(tv_cond)}")
        print(f"short mass: {_fmt_rational(erased.short_mass)}")
    return 0


def _cmd_diagnose(args) -> int:
    from .stats import monte_carlo

    spec, graph, kind, start = _walk_graph(args)
    # the config echo describes the experiment, not how it was run
    echo = {
        "subcommand": "diagnose",
        "graph": spec,
        "walk": kind.value,
        "start": encode_key(start),
        "horizon": args.horizon,
        "replicas": args.replicas,
        "seed": args.seed,
    }
    report = monte_carlo(kind, graph, start, args.horizon, args.replicas, args.seed, config=echo)
    json_text = report.json_text()
    _publish(args.out, {".json": [json_text], ".csv": [report.csv_text()]}, shown=[json_text])
    return 0


def _add_graph_flags(p, start=True, walk=False):
    p.add_argument("--graph", required=True, help="graph spec as JSON, or @file")
    if start:
        p.add_argument("--start", help="start vertex key (default: family origin)")
    if walk:
        p.add_argument("--walk", required=True, choices=[k.value for k in WalkKind])


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nbwalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("walk", help="sample one path and print it with its statistics")
    _add_graph_flags(p, walk=True)
    p.add_argument("--horizon", type=_COUNT, required=True)
    p.add_argument("--seed", type=_SEED, required=True)
    p.add_argument("--out", help="write the path tokens to this file")
    p.set_defaults(handler=_cmd_walk)

    p = sub.add_parser("erase", help="erase backtracks from tokens or a fresh sample")
    p.add_argument("--tokens", help="@file with whitespace-separated tokens (default: stdin)")
    p.add_argument("--graph", help="sample a uniform walk on this graph spec instead")
    p.add_argument("--start")
    p.add_argument("--horizon", type=_COUNT, help="steps of the sampled walk (default: 100)")
    p.add_argument("--seed", type=_SEED)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_erase)

    p = sub.add_parser("chain", help="birth-death transience and escape analysis")
    p.add_argument("--k", type=int)
    p.add_argument("--k1", type=int)
    p.add_argument("--k2", type=int)
    p.set_defaults(handler=_cmd_chain)

    p = sub.add_parser("contract", help="contract degree-2 corridors to a weighted multigraph")
    _add_graph_flags(p, start=False)
    p.add_argument("--out", help="write <out>.json and <out>.csv")
    p.set_defaults(handler=_cmd_contract)

    p = sub.add_parser("enumerate", help="dump an exact prefix distribution")
    _add_graph_flags(p, walk=True)
    p.add_argument("--m", type=_COUNT, required=True, help="prefix horizon")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("compare", help="total variation between exact laws")
    _add_graph_flags(p)
    p.add_argument("--m", type=_COUNT, required=True, help="prefix horizon")
    p.add_argument("--N", type=_COUNT, help="walk horizon for the erased law")
    p.add_argument("--induced", action="store_true", help="induced walk vs contracted kernel")
    p.add_argument("--walk", choices=["srw", "nbrw"], help="walk for --induced (default: srw)")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("diagnose", help="seeded Monte Carlo recurrence diagnostics")
    _add_graph_flags(p, walk=True)
    p.add_argument("--horizon", type=_COUNT, required=True)
    p.add_argument("--replicas", type=_int_range(1), required=True)
    p.add_argument("--seed", type=_SEED, required=True)
    p.add_argument(
        "--jobs", type=_int_range(1), default=1,
        help="accepted for compatibility; replicas run in one thread and the report never depends on it",
    )
    p.add_argument("--out", help="write <out>.json and <out>.csv")
    p.set_defaults(handler=_cmd_diagnose)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else (0 if code is None else 2)
    try:
        return args.handler(args)
    except _CONFIG_ERRORS as exc:
        print(f"nbwalk: configuration error: {exc}", file=sys.stderr)
        return 2
    except NbwalkError as exc:
        print(f"nbwalk: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
