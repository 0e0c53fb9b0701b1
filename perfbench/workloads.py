"""The four benchmark workloads and their output checks.

Each workload function runs one pass: a fixed list of calls into one or
more grainlab layers, made one after another by a single client (a closed
loop).  Inputs are generated here from the workload seed before they are
timed.  Every call is checked against an independent reference, a table in
`data/`, a shipped artifact in `out/`, an identity of the paper, or a value
pinned in expected.json.  `smoke` shrinks every list for the quick mode.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from grainlab import channel, codes, graph, model
from grainlab.manifest import fmt

from harness import Run, ensure

PS = (0.2, 0.5, 0.8)
FIG3_GRID = [round(i * 0.005, 12) for i in range(201)]


@dataclass
class Context:
    root: Path
    tmp: Path
    smoke: bool
    env: dict


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

def supports(n: int, t: int) -> list[tuple[int, ...]]:
    """Grain supports: at most t non-adjacent positions among 2..n."""
    out = []
    for k in range(min(t, n // 2) + 1):
        for supp in itertools.combinations(range(2, n + 1), k):
            if all(b - a > 1 for a, b in zip(supp, supp[1:])):
                out.append(supp)
    return out


@lru_cache(maxsize=None)
def ref_masks(n: int, t: int) -> tuple[int, ...]:
    """Bit masks of the supports; position j sits at bit n - j."""
    return tuple(sum(1 << (n - j) for j in supp) for supp in supports(n, t))


def ref_images(value: int, n: int, t: int) -> set[int]:
    """Every recording of `value`: each support position copies its left
    neighbour."""
    return {(value & ~m) | ((value >> 1) & m) for m in ref_masks(n, t)}


def read_table(path: Path) -> dict[tuple[int, ...], int]:
    """Rows of a data/*.csv table keyed by every column but the last."""
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        if line and not line.startswith("#"):
            *key, value = (int(tok) for tok in line.split(","))
            rows[tuple(key)] = value
    return rows


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def fib(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def code_digest(code) -> list:
    return [code.size, digest(str(w) for w in code.sorted_words())]


def non_confusable(words, n: int, t: int) -> bool:
    owner: dict[int, int] = {}
    for w in words:
        for y in ref_images(w.value, n, t):
            if owner.setdefault(y, w.value) != w.value:
                return False
    return True


# ---------------------------------------------------------------------------
# search: greedy clique partitions, their certificates, exact code sizes
# ---------------------------------------------------------------------------


def search(run: Run, rng, ctx: Context) -> None:
    chi = read_table(ctx.root / "data" / "clique_partition_sizes.csv")
    exact_t1 = read_table(ctx.root / "data" / "max_code_sizes_t1.csv")
    top_m, top_n = (8, 6) if ctx.smoke else (13, 8)
    cells = [(m, s) for s in range(1, 5) for m in range(2 * s, top_m + 1)]
    rng.shuffle(cells)
    for m, s in cells:
        label = f"m={m},s={s}"

        def check_size(part, m=m, s=s):
            if (m, s) in chi:
                ensure(part.size == chi[(m, s)], f"{part.size} parts, data has {chi[(m, s)]}")
            else:
                run.expect(f"partition_size/{m},{s}", part.size)

        part = run.call(
            "graph.greedy_clique_partition",
            lambda: graph.greedy_clique_partition(m, s),
            check_size,
            label,
        )
        if part is None:
            run.skip("graph.verify_clique_partition", label, "no partition")
            continue
        run.count("graph.partition_parts", part.size)
        run.count("graph.vertices", 1 << m)
        run.call(
            "graph.verify_clique_partition",
            lambda: graph.verify_clique_partition(part),
            lambda ok: ensure(ok is True, "certificate rejected"),
            label,
        )

    searches = [(n, t) for t in (1, 2) for n in range(2, top_n + 1)]
    rng.shuffle(searches)
    for n, t in searches:

        def check_exact(res, n=n, t=t):
            ensure(res.exact, "search stopped early")
            if t == 1:
                ensure(res.size == exact_t1[(n,)], f"size {res.size}, data has {exact_t1[(n,)]}")
            else:
                run.expect(f"max_code_size/{n},{t}", res.size)
            ensure(len(set(res.words)) == res.size, "witness size differs from result")
            ensure(non_confusable(res.words, n, t), "witness words are confusable")

        res = run.call(
            "graph.max_code_size", lambda: graph.max_code_size(n, t), check_exact, f"n={n},t={t}"
        )
        run.count("graph.max_code_size.calls")
        if res is not None:
            run.count("graph.max_code_size.exact", int(res.exact))


# ---------------------------------------------------------------------------
# codes: constructions, verifiers, file round trips, decoding, model queries
# ---------------------------------------------------------------------------


def codes_workload(run: Run, rng, ctx: Context) -> None:
    doubling = range(1, 9) if ctx.smoke else range(1, 17)
    hamming = (2, 3) if ctx.smoke else (2, 3, 4)
    greedy = ((12, 2),) if ctx.smoke else ((16, 1), (16, 2), (18, 2), (12, 2))
    plan = (
        [(f"doubling/{n}", lambda n=n: codes.construct_doubling(n),
          codes.verify_grain_correcting, n // 2) for n in doubling]
        + [(f"hamming-prefix/{m}", lambda m=m: codes.construct_hamming_prefix(m),
            codes.verify_grain_correcting, 1) for m in hamming]
        + [(f"greedy-known/{n},{t}", lambda n=n, t=t: codes.construct_greedy_known(n, t),
            codes.verify_known_pattern, t) for n, t in greedy]
    )
    built = {}
    for key, make, verify, t in plan:
        verifier = f"codes.{verify.__name__}"
        code = run.call(
            "codes.construct", make, lambda c, key=key: run.expect(f"code/{key}", code_digest(c)), key
        )
        if code is None:
            run.skip(verifier, key, "no code")
            run.skip("codes.file_io", key, "no code")
            continue
        built[key] = code
        run.call(verifier, lambda: verify(code, t), lambda ok: ensure(ok is True, "rejected"), key)
        path = ctx.tmp / "code.txt"

        def round_trip():
            codes.save_code(code, path, header=key)
            return codes.load_code(path)

        run.call(
            "codes.file_io",
            round_trip,
            lambda back: ensure(back.n == code.n and back.words == code.words, "reload differs"),
            key,
        )

    decode_code = built.get("greedy-known/12,2")
    calls = 50 if ctx.smoke else 1000
    if decode_code is None:
        for _ in range(calls):
            run.skip("codes.decode_known_pattern", "12,2", "no code")
    else:
        words = decode_code.sorted_words()
        patterns = [model.ErrorVector(12, supp) for supp in supports(12, 2)]
        for _ in range(calls):
            c, e = rng.choice(words), rng.choice(patterns)
            y = model.Word(12, (c.value & ~e.mask) | ((c.value >> 1) & e.mask))
            run.call(
                "codes.decode_known_pattern",
                lambda: codes.decode_known_pattern(decode_code, y, e),
                lambda got, c=c: ensure(got == c, f"decoded {got}, sent {c}"),
                f"{c}/{e}",
            )
        run.count("codes.decode.calls", calls)

    queries = []
    for _ in range(100 if ctx.smoke else 2000):
        n, t = rng.randint(12, 20), rng.choice((1, 2))
        x = rng.getrandbits(n)
        if rng.random() < 0.5:
            other = rng.choice(sorted(ref_images(x, n, t)))
        else:
            other = rng.getrandbits(n)
        queries.append((n, t, model.Word(n, x), model.Word(n, other)))
    for n, t, x, other in queries:

        def check_query(got, n=n, t=t, x=x, other=other):
            images, confusable = got
            values = [w.value for w in images]
            ensure(values[0] == x.value and len(set(values)) == len(values), "bad image list")
            mine = ref_images(x.value, n, t)
            ensure(set(values) == mine, "image set differs from reference")
            ensure(confusable == bool(mine & ref_images(other.value, n, t)), "confusable differs")

        run.call(
            "model.query",
            lambda: (model.grain_image_list(x, t), model.confusable(x, other, t)),
            check_query,
            f"{x}/{other}/t={t}",
        )
    run.count("model.query.calls", len(queries))


# ---------------------------------------------------------------------------
# channel: exact oracles, degradation oracle, simulation, capacity curves
# ---------------------------------------------------------------------------


def _fig3_body(root: Path) -> tuple[list[str], str]:
    lines = (root / "out" / "fig3.csv").read_text().splitlines()
    body = [line for line in lines[1:] if not line.startswith("#")]
    crossing = next(l for l in lines if l.startswith("# sir_below_half_at:")).split(": ")[1]
    return body, crossing


def channel_workload(run: Run, rng, ctx: Context) -> None:
    ps = (0.5,) if ctx.smoke else PS
    states = 0
    for p in ps:
        run.call(
            "channel.error_entropy_exact",
            lambda: channel.error_entropy_exact(14, p),
            lambda v, p=p: run.expect(f"error_entropy_exact/14/{p}", v),
            f"p={p}",
        )
        states += fib(16)

        def check_bracket(bracket, p=p):
            run.expect(f"output_entropy_bracket/18/{p}", list(bracket))
            series = channel.output_entropy_series(p, 64)
            ensure(bracket[0] - 1e-12 <= series <= bracket[1] + 1e-12, f"T_64 {series} outside {bracket}")

        run.call(
            "channel.output_entropy_bracket",
            lambda: channel.output_entropy_bracket(18, p),
            check_bracket,
            f"p={p}",
        )
        run.call(
            "channel.erasure_mi_exact",
            lambda: channel.erasure_mi_exact(20, p),
            lambda v, p=p: ensure(abs(v - 1 / (1 + p)) <= 1e-10, f"{v} != 1/(1+p)"),
            f"p={p}",
        )
        states += fib(23)

    spec = channel.ChannelSpec(0.5)
    xs = list(range(512))
    rng.shuffle(xs)
    for value in xs[:32] if ctx.smoke else xs:
        x = model.Word(9, value)
        grains = run.call("channel.grains_output_law", lambda: channel.grains_output_law(x, spec))
        if grains is None:
            run.skip("channel.cascaded_erasure_output_law", str(x), "no grains law")
            continue

        def degraded(cascade, grains=grains):
            ensure(abs(sum(grains.values()) - 1) <= 1e-12, "grains law does not sum to 1")
            tv = channel.total_variation(grains, cascade)
            ensure(tv <= 1e-12, f"total variation {tv}")

        run.call(
            "channel.cascaded_erasure_output_law",
            lambda: channel.cascaded_erasure_output_law(x, spec),
            degraded,
            str(x),
        )
        states += 4 * fib(12)  # two laws, each over 2 F(11) + 2 F(10) = 2 F(12) masks
    run.count("channel.indicator_states_computed", states)

    n_sim, p_sim, seed = (10**5 if ctx.smoke else 10**6), 0.3, rng.getrandbits(32)

    def check_sim(stats):
        trans = stats["transitions"]
        ensure((stats["n"], stats["p"], stats["seed"]) == (n_sim, p_sim, seed), "echo differs")
        ensure(sum(trans.values()) == n_sim and trans["11"] == 0, "bad transitions")
        ensure(stats["adjacent_indicator_pairs"] == 0, "adjacent indicators")
        ensure(abs(stats["indicator_rate"] - p_sim / (1 + p_sim)) < 0.01, "indicator rate off")
        ensure(stats["error_rate"] <= stats["indicator_rate"], "more errors than grains")

    run.call("channel.simulation_stats", lambda: channel.simulation_stats(n_sim, p_sim, seed), check_sim)
    run.call(
        "channel.simulation_stats",
        lambda: channel.simulation_stats(10**5, 0.3, 20101895),
        lambda stats: run.expect("simulation_stats/100000/0.3/20101895", repr(stats)),
        "fixed seed",
    )
    run.count("channel.sim_symbols", n_sim + 10**5)

    body, crossing = _fig3_body(ctx.root)

    def check_fig3(result):
        rows, cross = result
        ensure([",".join(fmt(c) for c in row) for row in rows] == body, "rows differ from out/fig3.csv")
        ensure(fmt(cross) == crossing, f"crossing {cross}, out/fig3.csv has {crossing}")

    run.call("channel.capacity_curves", lambda: channel.capacity_curves(FIG3_GRID, 15), check_fig3, "J=15")
    run.call(
        "channel.capacity_curves",
        lambda: channel.capacity_curves(FIG3_GRID, 64),
        lambda result: run.expect(
            "capacity_curves/64", [digest(",".join(fmt(c) for c in row) for row in result[0]), result[1]]
        ),
        "J=64",
    )


# ---------------------------------------------------------------------------
# cli: one `grainlab` subprocess per command, outputs into a temp dir
# ---------------------------------------------------------------------------


def cli_workload(run: Run, rng, ctx: Context) -> None:
    tmp, root = ctx.tmp, ctx.root
    chi = read_table(root / "data" / "clique_partition_sizes.csv")
    exact_t1 = read_table(root / "data" / "max_code_sizes_t1.csv")
    word_n, t = rng.randint(10, 16), rng.choice((1, 2))
    x1, x2 = rng.getrandbits(word_n - 1), rng.getrandbits(word_n - 1)
    w1, w2 = format(x1, f"0{word_n}b"), format(x2, f"0{word_n}b")
    p = rng.choice([round(0.05 * k, 2) for k in range(1, 20)])
    zn, u0 = rng.randint(1, 64), rng.choice(("stationary", "0", "1"))
    sim_seed = rng.getrandbits(32)

    def same_file(name):
        return lambda _: ensure(
            (tmp / name).read_bytes() == (root / "out" / name).read_bytes(), f"{name} differs from out/"
        )

    def pinned(key, name=None):
        return lambda out: run.expect(f"cli/{key}", digest([(tmp / name).read_text() if name else out]))

    def lines_contain(*wanted):
        return lambda out: ensure(all(w in out.splitlines() for w in wanted), f"missing {wanted}")

    def check_fig1(out):
        same_file("fig1.csv")(out)
        same_file("fig1.svg")(out)

    def check_table(out):
        rows = [l for l in out.splitlines()[1:] if l and not l.startswith("#")]
        want = [f"{m},{s},{chi[(m, s)]}" for s in range(1, 5) for m in range(2, 11) if m >= 2 * s]
        ensure(rows == want, "rows differ from data/clique_partition_sizes.csv")

    def check_phi(out):
        got = [int(w, 2) for w in out.split()]
        ensure(len(got) == len(set(got)) and set(got) == ref_images(x1, word_n, t), "image set differs")

    confusable = x1 == x2 or bool(ref_images(x1, word_n, t) & ref_images(x2, word_n, t))
    zero = Fraction(zn // 2, zn) if u0 != "1" else Fraction((zn + 1) // 2, zn)
    sir = channel.sir(p, 64)
    stats = channel.simulation_stats(10000, 0.3, sim_seed)
    commands = [
        ("startup", ["--version"], lambda out: ensure(out.strip() == "0.1.0", "bad version")),
        ("fig1", ["fig1", "--tau-grid", "0.002:0.5:0.002", "--out", "fig1.csv", "--svg", "fig1.svg"],
         check_fig1),
        ("fig3", ["fig3", "--grid", "0:1:0.005", "--J", "15", "--out", "fig3.csv"], same_file("fig3.csv")),
        ("bounds", ["bounds", "--tau-grid", "0.002:0.5:0.002", "--out", "bounds.csv"],
         pinned("bounds", "bounds.csv")),
        ("capacity", ["capacity", "--grid", "0:1:0.01", "--out", "capacity.csv"],
         pinned("capacity", "capacity.csv")),
        ("clique-table", ["clique-table", "--m", "2:10", "--s", "1:4"], check_table),
        ("mnt", ["mnt", "--n", "7", "--t", "1"],
         lambda out: ensure(out.startswith(f"max code size (n=7, t=1) = {exact_t1[(7,)]} [exact]"),
                            "mnt differs from data/max_code_sizes_t1.csv")),
        ("phi", ["phi", "--x", w1, "--t", str(t)], check_phi),
        ("confusable", ["confusable", "--x1", w1, "--x2", w2, "--t", str(t)],
         lambda out: ensure(out.strip() == ("true" if confusable else "false"), "confusable differs")),
        ("sir", ["sir", "--p", str(p)],
         lines_contain(f"sir = {fmt(sir.sir)}", f"capacity_lower = {fmt(sir.capacity_lower)}",
                       f"capacity_upper = {fmt(sir.capacity_upper)}", "hazard_closed_form_agrees = true")),
        ("zero-error", ["zero-error", "--n", str(zn), "--u0", u0],
         lambda out: ensure(out.strip() == f"{zero.numerator}/{zero.denominator}", "rate differs")),
        ("simulate", ["simulate", "--n", "10000", "--p", "0.3", "--seed", str(sim_seed), "--stats"],
         lines_contain(f"error_rate = {fmt(stats['error_rate'])}", "adjacent_indicator_pairs = 0")),
        ("construct-hamming", ["construct", "--kind", "hamming-prefix", "--m", "3", "--out", "hp.txt"],
         pinned("construct-hamming", "hp.txt")),
        ("verify-hamming", ["verify-code", "--file", "hp.txt", "--t", "1"],
         lambda out: ensure(out.strip() == "1-grain-correcting: true (32 words, n=8)", out.strip())),
        ("construct-greedy", ["construct", "--kind", "greedy-known", "--n", "12", "--t", "2",
                              "--out", "gk.txt"], pinned("construct-greedy", "gk.txt")),
        ("verify-greedy", ["verify-code", "--file", "gk.txt", "--t", "2", "--known-grain"],
         lambda out: ensure(out.strip() == "known-pattern 2-grain: true (512 words, n=12)", out.strip())),
    ]
    for key, argv, check in commands:

        def command(argv=argv):
            done = subprocess.run(
                [sys.executable, "-m", "grainlab.cli", *argv],
                cwd=tmp, env=ctx.env, capture_output=True, text=True, timeout=120,
            )
            ensure(done.returncode == 0, f"exit {done.returncode}: {done.stderr.strip()[-200:]}")
            return done.stdout

        run.call(f"cli.{key}", command, check, " ".join(argv))


WORKLOADS = {
    "search": search,
    "codes": codes_workload,
    "channel": channel_workload,
    "cli": cli_workload,
}


def fresh_tmp(base: Path) -> Path:
    path = base / f"tmp-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
