"""Command-line surface.

    grainlab phi --x 01 --t 1
    grainlab confusable --x1 00 --x2 01 --t 1
    grainlab mnt --n 6 --t 1
    grainlab clique-table --m 2:8 --s 1:2 --out chi.csv
    grainlab verify-code --file code.txt --t 1 [--list L | --known-grain]
    grainlab construct --kind doubling --n 8 --out code.txt
    grainlab bounds --tau-grid 0.01:0.25:0.01 [--table chi.csv]
    grainlab fig1 --tau-grid 0.005:0.5:0.005 [--svg fig1.svg]
    grainlab sir --p 0.5 --J 15
    grainlab capacity --grid 0:1:0.01
    grainlab fig3 --grid 0:1:0.01 --J 15
    grainlab simulate --n 10000 --p 0.3 --seed 7 --stats
    grainlab zero-error --n 7 --u0 stationary

Exit codes: 0 success, 2 precondition violation (including malformed
inputs), 3 cap exceeded or search timeout.  All floats print with 12
significant digits.  CSV artifacts end with a '#' manifest block and
are byte-identical across reruns of the same invocation.

Each handler imports the library modules it uses, so `--version`,
`--help` and argument errors never import numpy, and neither do phi,
confusable and the scalar commands (sir, capacity, fig3, zero-error,
bounds, fig1): their modules, model, series and bounds, are numpy-free
on these paths (model imports numpy only inside its bulk kernels), as
are config, manifest and errors, which this module imports at the top.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .config import caps_override, parse_cap_string
from .errors import CapExceeded, GrainlabError, PreconditionError
from .manifest import RunManifest, emit_csv, fmt, render_svg


def _int_range(text: str) -> range:
    lo, _, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi or lo)
    except ValueError:
        raise PreconditionError(f"bad range {text!r}, want a or a:b") from None
    if lo > hi:
        raise PreconditionError(f"reversed range {text!r}, want a <= b")
    return range(lo, hi + 1)


def _float_grid(text: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(":")]
    except ValueError:
        values = []  # reported as a bad grid below
    if not all(map(math.isfinite, values)):
        raise PreconditionError(f"bad grid {text!r}, values must be finite")
    if len(values) == 1:
        return values
    if len(values) != 3:
        raise PreconditionError(f"bad grid {text!r}, want start:stop:step")
    start, stop, step = values
    if step <= 0:
        raise PreconditionError("grid step must be positive")
    if start > stop:
        raise PreconditionError(f"reversed grid {text!r}, want start <= stop")
    out = []
    i = 0
    while True:
        value = round(start + i * step, 12)
        if value > stop + 1e-12:
            break
        out.append(value)
        i += 1
    return out


def _load_chi_table(path: str) -> dict[tuple[int, int], int]:
    entries: dict[tuple[int, int], int] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line.lower().startswith("m,"):
            continue
        try:
            m, s, parts = (int(tok) for tok in line.split(","))
        except ValueError:
            raise PreconditionError(f"bad row {raw!r} in {path}, want m,s,parts") from None
        entries[(m, s)] = parts
    if not entries:
        raise PreconditionError(f"no (m,s,parts) rows in {path}")
    return entries


def _emit(args, header, rows, manifest) -> None:
    emit_csv(getattr(args, "out", None), header, rows, manifest)
    svg_path = getattr(args, "svg", None)
    if svg_path:
        Path(svg_path).write_text(render_svg(header, rows))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_phi(args) -> int:
    """The image of --x under one pattern --e, or its whole image set
    under the budget --t; giving both is an error, as one would be
    ignored."""
    from . import model

    if args.e is not None and args.t is not None:
        raise PreconditionError("phi takes --t (image set) or --e (one pattern), not both")
    x = model.Word.parse(args.x)
    if args.e is not None:
        e = model.ErrorVector.parse(args.e)
        print(model.apply_grains(x, e))
        return 0
    if args.t is None:
        raise PreconditionError("phi needs --t (image set) or --e (one pattern)")
    images = model.grain_image_list(x, args.t)
    print(" ".join(str(w) for w in images))
    return 0


def cmd_confusable(args) -> int:
    from . import model

    x1 = model.Word.parse(args.x1)
    x2 = model.Word.parse(args.x2)
    print("true" if model.confusable(x1, x2, args.t) else "false")
    return 0


def cmd_mnt(args) -> int:
    from . import graph

    result = graph.max_code_size(args.n, args.t)
    status = "exact" if result.exact else "lower-bound (timed out)"
    print(f"max code size (n={args.n}, t={args.t}) = {result.size} [{status}]")
    print("witness: " + " ".join(str(w) for w in result.words))
    return 0 if result.exact else 3


def cmd_clique_table(args) -> int:
    from . import graph

    m_range, s_range = _int_range(args.m), _int_range(args.s)
    if args.parts and (len(m_range) != 1 or len(s_range) != 1):
        raise PreconditionError("--parts needs a single (m, s) cell")
    rows = []
    for partition in graph.table_partitions(m_range, s_range):
        rows.append((partition.m, partition.s, partition.size))
    if args.parts and not rows:
        raise PreconditionError(f"--parts: no table row for m={args.m}, s={args.s}")
    manifest = RunManifest("clique-table", {"m": args.m, "s": args.s})
    _emit(args, ["m", "s", "parts"], rows, manifest)
    if args.parts:
        # the one cell's partition, built once for its row and its render
        Path(args.parts).write_text(partition.render() + "\n")
    return 0


def cmd_verify_code(args) -> int:
    from . import codes

    code = codes.load_code(args.file)
    if args.known_grain:
        verdict = codes.verify_known_pattern(code, args.t)
        kind = f"known-pattern {args.t}-grain"
    elif args.list is not None:
        verdict = codes.verify_list_decodable(code, args.t, args.list)
        kind = f"list-{args.list} {args.t}-grain"
    else:
        verdict = codes.verify_grain_correcting(code, args.t)
        kind = f"{args.t}-grain-correcting"
    print(f"{kind}: {'true' if verdict else 'false'} "
          f"({code.size} words, n={code.n})")
    return 0


def cmd_construct(args) -> int:
    from . import codes

    if args.kind == "doubling":
        if args.n is None:
            raise PreconditionError("doubling construction needs --n")
        code = codes.construct_doubling(args.n)
    elif args.kind == "hamming-prefix":
        if args.m is None:
            raise PreconditionError("hamming-prefix construction needs --m")
        code = codes.construct_hamming_prefix(args.m)
    else:  # greedy-known
        if args.n is None or args.t is None:
            raise PreconditionError("greedy-known construction needs --n and --t")
        code = codes.construct_greedy_known(args.n, args.t)
    header = f"grainlab construct --kind {args.kind} (candidate order: numeric)"
    if args.out:
        codes.save_code(code, args.out, header=header)
        print(f"wrote {code.size} words of length {code.n} to {args.out}")
    else:
        print(code.render(), end="")
    return 0


_RATE_COLUMNS = ("tau", "gv_lower", "prop2_upper", "cor2_min", "rn_lower",
                 "list_rate_L{list}", "informed_lower", "informed_upper")


def cmd_rates(args) -> int:
    """bounds and fig1: the first len(args.columns) columns of
    rate_curves; the manifest records the args.params options."""
    from . import bounds

    chi = _load_chi_table(args.table) if args.table else None
    rows = bounds.rate_curves(_float_grid(args.tau_grid), chi, args.list)
    table = args.table or "builtin"
    options = {"tau_grid": args.tau_grid, "table": table, "list": args.list}
    manifest = RunManifest(args.command, {key: options[key] for key in args.params})
    header = [name.format(list=args.list) for name in args.columns]
    _emit(args, header, [row[: len(header)] for row in rows], manifest)
    return 0


def cmd_sir(args) -> int:
    from . import series

    result = series.sir(args.p, args.J)
    hazards = series.run_hazards(args.p, args.J)
    print(f"p = {fmt(args.p)}  J = {args.J}")
    print(f"output_entropy_T = {fmt(result.output_entropy)}")
    print(f"error_entropy_S = {fmt(result.error_entropy)}")
    print(f"sir = {fmt(result.sir)}")
    print(f"error_bound = {fmt(result.error_bound)}")
    print(f"certified_bound = {fmt(result.certified_bound)}")
    print(f"capacity_lower = {fmt(result.capacity_lower)}")
    print(f"capacity_upper = {fmt(result.capacity_upper)}")
    print(f"hazard_closed_form_agrees = {fmt(hazards.closed_form_agrees)}")
    flip = series.nonadjacent_error_capacity(args.p)
    print(f"nonadjacent_error_capacity = {fmt(flip)} "
          "(reference only: not a valid grains-channel bound)")
    return 0


_CAPACITY_COLUMNS = ("p", "sir", "capacity_lower", "capacity_upper", "error_bound")


def cmd_capacity(args) -> int:
    """capacity and fig3: the args.columns of capacity_curves."""
    from . import series

    rows, crossing = series.capacity_curves(_float_grid(args.grid), args.J)
    manifest = RunManifest(
        args.command, {"grid": args.grid, "J": args.J, "sir_below_half_at": crossing}
    )
    keep = [_CAPACITY_COLUMNS.index(name) for name in args.columns]
    _emit(args, args.columns, [[row[i] for i in keep] for row in rows], manifest)
    return 0


def cmd_simulate(args) -> int:
    """One pass of --x, or of a random word of --n symbols (100 when
    neither is given) drawn from stream --stream + 1; --stats reports a
    random run of --n symbols instead.  A flag the run would not read is
    an error, not ignored."""
    from . import channel, model

    x = None if args.x is None else model.Word.parse(args.x)
    if x is not None and args.stats:
        raise PreconditionError("--stats simulates a random input; it takes no --x")
    if x is not None and args.n not in (None, x.n):
        raise PreconditionError(f"--n {args.n} differs from the length {x.n} of --x")
    n = 100 if args.n is None else args.n
    if n < 1:
        raise PreconditionError("--n must be >= 1")
    if args.stats:
        stats = channel.simulation_stats(n, args.p, args.seed, args.stream)
        for key in ("n", "p", "seed", "stream"):
            print(f"{key} = {fmt(stats[key])}")
        print(f"indicator_rate = {fmt(stats['indicator_rate'])} "
              f"(stationary {fmt(args.p / (1 + args.p))})")
        print(f"error_rate = {fmt(stats['error_rate'])}")
        print("transitions = " + " ".join(
            f"{k}:{v}" for k, v in sorted(stats["transitions"].items())
        ))
        print(f"adjacent_indicator_pairs = {stats['adjacent_indicator_pairs']}")
        return 0
    if x is None:
        # make_rng would name stream + 1, not the --stream given
        if not (0 <= args.seed < 1 << 64 and 0 <= args.stream < (1 << 64) - 1):
            raise PreconditionError(
                f"--seed {args.seed}, --stream {args.stream}: need 0 <= --seed < 2^64, "
                "and a random input word, drawn from stream --stream + 1, "
                "needs 0 <= --stream < 2^64 - 1"
            )
        rng = channel.make_rng(args.seed, args.stream + 1)
        x = model.Word.from_array(rng.integers(0, 2, size=n, dtype=int))
    spec = channel.ChannelSpec(args.p)
    if args.channel == "grains":
        print(channel.simulate_grains(x, spec, args.seed, args.stream))
    else:
        print(channel.simulate_erasures(x, spec, args.seed, args.stream))
    return 0


def cmd_zero_error(args) -> int:
    from . import series

    initial = args.u0 if args.u0 == "stationary" else int(args.u0)
    rate = series.zero_error_rate(args.n, initial)
    print(f"{rate.numerator}/{rate.denominator}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grainlab",
        description="grain-error coding model: enumeration, verification, "
        "search, bounds, and channel evaluation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--config",
        help="key=value file overriding enumeration caps (flags still win)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi", help="image set of a word under grain errors")
    p.add_argument("--x", required=True)
    p.add_argument("--t", type=int, help="grain budget: print the whole image set")
    p.add_argument("--e", help="one error vector 'n:j1,j2,...': print its image")
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("confusable", help="can two words collide?")
    p.add_argument("--x1", required=True)
    p.add_argument("--x2", required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=cmd_confusable)

    p = sub.add_parser("mnt", help="exact maximum grain-correcting code size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--time-limit", help="seconds (0: no limit); sets exact_m_time_limit")
    p.set_defaults(func=cmd_mnt)

    p = sub.add_parser("clique-table", help="greedy clique-partition sizes")
    p.add_argument("--m", required=True, help="range a:b")
    p.add_argument("--s", required=True, help="range a:b")
    p.add_argument("--out")
    p.add_argument(
        "--parts",
        help="also dump the partition itself ('k: y : x x ...' lines); "
        "needs a single (m, s) cell",
    )
    p.set_defaults(func=cmd_clique_table)

    p = sub.add_parser("verify-code", help="verify a code file")
    p.add_argument("--file", required=True)
    p.add_argument("--t", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--list", type=int, default=None, help="list size L")
    group.add_argument("--known-grain", action="store_true")
    p.set_defaults(func=cmd_verify_code)

    p = sub.add_parser("construct", help="build a code")
    p.add_argument(
        "--kind", required=True, choices=["doubling", "hamming-prefix", "greedy-known"]
    )
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("bounds", help="rate bounds table")
    p.add_argument("--tau-grid", required=True, help="start:stop:step")
    p.add_argument("--table", help="chi CSV (m,s,parts) overriding the builtin")
    p.add_argument("--list", type=int, default=1, help="list size for the list bound")
    p.add_argument("--out")
    p.add_argument("--svg")
    p.set_defaults(
        func=cmd_rates, columns=_RATE_COLUMNS, params=("tau_grid", "table", "list")
    )

    p = sub.add_parser("fig1", help="asymptotic rate bound curves")
    p.add_argument("--tau-grid", required=True)
    p.add_argument("--table")
    p.add_argument("--out")
    p.add_argument("--svg")
    p.set_defaults(
        func=cmd_rates, columns=_RATE_COLUMNS[:5], params=("tau_grid", "table"), list=1
    )

    p = sub.add_parser("sir", help="symmetric information rate at one p")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--J", type=int, default=64)
    p.set_defaults(func=cmd_sir)

    p = sub.add_parser("capacity", help="capacity bounds over a p grid")
    p.add_argument("--grid", required=True)
    p.add_argument("--J", type=int, default=64)
    p.add_argument("--out")
    p.add_argument("--svg")
    p.set_defaults(func=cmd_capacity, columns=("p", "capacity_lower", "capacity_upper"))

    p = sub.add_parser("fig3", help="capacity bound curves with SIR")
    p.add_argument("--grid", required=True)
    p.add_argument("--J", type=int, default=15)
    p.add_argument("--out")
    p.add_argument("--svg")
    p.set_defaults(func=cmd_capacity, columns=_CAPACITY_COLUMNS)

    p = sub.add_parser("simulate", help="simulate one channel pass")
    p.add_argument("--n", type=int, help="input length (default: len(--x), else 100)")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--x", help="explicit input word (otherwise random)")
    p.add_argument("--channel", choices=["grains", "erasures"], default="grains")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("zero-error", help="zero-error rate at block length n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u0", choices=["stationary", "0", "1"], default="stationary")
    p.set_defaults(func=cmd_zero_error)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        pairs = parse_cap_string(Path(args.config).read_text()) if args.config else {}
        if getattr(args, "time_limit", None) is not None:
            pairs["exact_m_time_limit"] = args.time_limit  # flags win
        with caps_override(**pairs):
            return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GrainlabError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
