"""grainlab benchmark: runs the workloads and reports their metrics.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20        # every workload, one table
    python3 perfbench/run.py --smoke --workload all             # quick check of the harness
    python3 perfbench/run.py --compare A.jsonl B.jsonl          # medians, quartiles, ratios
    python3 perfbench/run.py --tier1                            # Tier-1 wall time and counts
    python3 perfbench/run.py --pin                              # re-pin expected.json

Run from the root of a grainlab checkout.  Each pass of a workload runs in a
fresh worker process (worker.py), so the program's caches start cold; a run
repeats passes for --seconds and reports medians.  With --trace 1 the run
instead traces one pass of every workload, so every per-layer metric is
measured on the workload that exercises it, and times one untraced pass of
--workload to give the tracing overhead.  The last line of stdout is one JSON
object; every run is also appended, with its environment, to
.perfbench/results.jsonl (or --out).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import (
    SPEED_REF,
    at_reference_speed,
    durations,
    median_of_calls,
    percentile,
    quartiles,
    self_times,
    speed_sample,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search", "codes", "channel", "cli")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PROBES = 8  # extra set-up samples per run, on top of one per pass
MIN_PASSES = 3  # a median of fewer passes moves with every slow second
# identical on both sides of every comparison; numpy's BLAS would otherwise
# start one thread per CPU and make timings depend on the neighbours' load
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_LIMIT = 170  # seconds; a run must end within 180
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
TIER1_KNOWN_FAILURES = [
    "tests/test_acceptance.py::test_criterion_10b",
    "tests/test_cli.py::TestEnvCaps",
]
CLI_COMMANDS = (
    "startup", "fig1", "fig3", "bounds", "capacity", "clique-table", "mnt", "phi",
    "confusable", "sir", "zero-error", "simulate", "construct-hamming",
    "verify-hamming", "construct-greedy", "verify-greedy",
)
CHANNEL_CALLS = (
    "error_entropy_exact", "output_entropy_bracket", "erasure_mi_exact",
    "grains_output_law", "cascaded_erasure_output_law", "simulation_stats",
    "capacity_curves",
)
LAYERS = ("graph", "codes", "model", "channel", "cli", "bench")


def required_files() -> list[Path]:
    return [
        ROOT / "src" / "grainlab" / "cli.py",
        ROOT / "data" / "clique_partition_sizes.csv",
        ROOT / "data" / "max_code_sizes_t1.csv",
        ROOT / "out" / "fig1.csv",
        ROOT / "out" / "fig3.csv",
    ]


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    env.pop("GRAINLAB_CAPS", None)  # the default caps, as a user gets them
    return env


def spawn(spec: dict, deadline: float | None = None) -> tuple[float, dict | None]:
    """Start a worker; return (set-up seconds, its result or None).
    A worker still running at `deadline` (perf_counter) is killed."""
    spec = dict(spec, root=str(ROOT))
    start = time.perf_counter()
    timeout = None if deadline is None else max(1.0, deadline - start)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker for {spec.get('workload')} killed after {timeout:.0f} s", file=sys.stderr)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if ready.strip() != "ready" or proc.returncode != 0:
        print(f"worker for {spec.get('workload')} failed (exit {proc.returncode})", file=sys.stderr)
        return setup, None
    if spec.get("probe"):
        return setup, {}
    return setup, json.loads(out.splitlines()[-1])


def run_pass(name: str, seed: int, trace: bool, smoke: bool, tally: dict) -> tuple[float, dict | None]:
    """One pass in a fresh worker; its calls and failures go into tally."""
    setup, res = spawn({"workload": name, "seed": seed, "trace": trace, "smoke": smoke}, tally["limit"])
    if res is None:
        tally["attempted"] += 1
        tally["failed"] += 1
        return setup, None
    tally["attempted"] += res["attempted"]
    tally["failed"] += len(res["failures"])
    for line in res["failures"]:
        print(f"FAILED {name}: {line}", file=sys.stderr)
    tally.setdefault("env", res["env"])
    return setup, res


# ---------------------------------------------------------------------------
# a measured run (--trace 0)
# ---------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, smoke: bool, tally: dict) -> tuple[dict, dict]:
    """Repeat fresh-worker passes for about `seconds`; report medians of
    times taken at the reference speed (see harness.at_reference_speed)."""
    deadline = time.perf_counter() + seconds
    setups, setup_speeds = [], []  # clock time, and the machine's speed around it

    def timed_start(start):
        before = speed_sample()
        setup, res = start()
        setup_speeds.append((before + speed_sample()) / 2)
        setups.append(setup)
        return res

    for _ in range(1 if smoke else PROBES):
        timed_start(lambda: spawn({"probe": True}, tally["limit"]))
    passes, lengths = [], []
    while True:
        began = time.perf_counter()
        res = timed_start(lambda: run_pass(name, seed, False, smoke, tally))
        lengths.append(time.perf_counter() - began)
        if res is not None:
            passes.append(res)
        if smoke or (
            len(lengths) >= MIN_PASSES and time.perf_counter() + statistics.median(lengths) > deadline
        ):
            break
    calls = [at_reference_speed(res) for res in passes]
    if len({len(c) for c in calls}) != 1:  # a failure changed the list of calls
        calls = [[sum(c)] for c in calls] or [[0.0]]
    metrics = {
        "wall_s": median_of_calls(calls),
        "setup_s": statistics.median(t * SPEED_REF / c for t, c in zip(setups, setup_speeds)),
        "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in passes) if passes else 0.0,
    }
    detail = {
        "passes": len(passes),
        "clock_walls_s": [res["ops_s"] for res in passes],
        "clock_setups_s": setups,
        "speed_ms": [1e3 * statistics.median(res["speed"]) for res in passes],
        "cpu_s": [res["cpu_s"] for res in passes],
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# a traced run (--trace 1)
# ---------------------------------------------------------------------------


def per_layer(traced: dict[str, dict], name: str, untraced: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced pass of every workload, plus the
    cost of tracing from `untraced`, an untraced pass of workload `name`."""
    out: dict[str, tuple[float, str]] = {}

    def total(workload, span):
        return sum(durations(traced[workload]["spans"], span))

    def latency(workload, span, prefix):
        calls = durations(traced[workload]["spans"], span) or [0.0]
        out[f"{prefix}.p50_us"] = (percentile(calls, 50) * 1e6, "us")
        out[f"{prefix}.p99_us"] = (percentile(calls, 99) * 1e6, "us")

    c = traced["search"]["counters"]
    for fn in ("greedy_clique_partition", "verify_clique_partition", "max_code_size"):
        out[f"graph.{fn}.s"] = (total("search", f"graph.{fn}"), "s")
    out["graph.partition_parts"] = (c.get("graph.partition_parts", 0), "count")
    out["graph.max_code_size.exact"] = (c.get("graph.max_code_size.exact", 0), "count")
    out["graph.vertices_per_s"] = (c.get("graph.vertices", 0) / out["graph.greedy_clique_partition.s"][0], "1/s")

    c = traced["codes"]["counters"]
    for fn in ("construct", "verify_grain_correcting", "verify_known_pattern", "file_io"):
        out[f"codes.{fn}.s"] = (total("codes", f"codes.{fn}"), "s")
    out["codes.decode.calls"] = (c.get("codes.decode.calls", 0), "count")
    latency("codes", "codes.decode_known_pattern", "codes.decode")
    out["model.query.calls"] = (c.get("model.query.calls", 0), "count")
    latency("codes", "model.query", "model.query")

    c = traced["channel"]["counters"]
    for fn in CHANNEL_CALLS:
        out[f"channel.{fn}.s"] = (total("channel", f"channel.{fn}"), "s")
    out["channel.sim_symbols_per_s"] = (c.get("channel.sim_symbols", 0) / out["channel.simulation_stats.s"][0], "1/s")
    out["channel.indicator_states_computed"] = (c.get("channel.indicator_states_computed", 0), "count")

    for key in CLI_COMMANDS:
        out[f"cli.{key}.s"] = (total("cli", f"cli.{key}"), "s")
    startup = out["cli.startup.s"][0]
    out["bounds.cli_derived.s"] = (out["cli.fig1.s"][0] + out["cli.bounds.s"][0] - 2 * startup, "s")

    layers: dict[str, float] = {}
    for res in traced.values():
        for layer, seconds in self_times(res["spans"]).items():
            layers[layer] = layers.get(layer, 0.0) + seconds
    for layer in LAYERS:
        out[f"self.{layer}.s"] = (layers.get(layer, 0.0), "s")
    out["run.cpu_s"] = (untraced["cpu_s"], "s")
    out["trace.overhead_s"] = (sum(at_reference_speed(traced[name])) - sum(at_reference_speed(untraced)), "s")
    out["run.clock_wall_s"] = (untraced["ops_s"], "s")
    out["run.speed_ms"] = (1e3 * statistics.median(untraced["speed"]), "ms")
    out["trace.spans"] = (sum(len(res["spans"]) for res in traced.values()), "count")
    return out


def traced_run(name: str, seed: int, smoke: bool, tally: dict) -> tuple[dict, dict]:
    _, untraced = run_pass(name, seed, False, smoke, tally)
    traced = {}
    for other in WORKLOADS:
        _, res = run_pass(other, seed, True, smoke, tally)
        if res is not None:
            traced[other] = res
    if untraced is None or len(traced) != len(WORKLOADS):
        return {}, {}
    metrics = per_layer(traced, name, untraced)
    trace_file = ROOT / ".perfbench" / f"trace-{name}-{seed}.jsonl"
    with trace_file.open("w") as fh:
        for res in traced.values():
            for span_name, start, end, parent in res["spans"]:
                fh.write(json.dumps({"run": res["run_id"], "name": span_name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    return {k: v[0] for k, v in metrics.items()}, {"units": {k: v[1] for k, v in metrics.items()}}


# ---------------------------------------------------------------------------
# environment record, compare mode, Tier-1 record
# ---------------------------------------------------------------------------


def git_rev() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(tally: dict) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": git_rev(),
        "src_sha256": src.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        **tally.get("env", {}),
    }


def load_records(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def compare(path_a: str, path_b: str) -> None:
    """Per metric, one row per workload: each side's median [q1, q3] and B/A."""
    sides = []
    print(f"A = {path_a}\nB = {path_b}")
    for label, path in (("A", path_a), ("B", path_b)):
        groups: dict[str, list[dict]] = {}
        for rec in load_records(path):
            if rec.get("kind") == "run" and not rec["trace"]:
                groups.setdefault(rec["workload"], []).append(rec)
            elif rec.get("kind") == "tier1":  # informational: the last one of each side
                groups["tier1"] = rec
        sides.append(groups)
        if "tier1" in groups:
            t = groups["tier1"]
            print(f"{label} tier1: {t['wall_s']:.1f} s, {t['passed']} passed, {t['failed']} failed "
                  f"({len(t['unexpected_failures'])} not among the known failures)")
    for metric in [*END_TO_END, "error_rate"]:
        print(f"\n{metric}")
        print(f"{'workload':10s} {'A median [q1, q3] (n)':>36s} {'B median [q1, q3] (n)':>36s} {'B/A':>7s}")
        for name in WORKLOADS:
            cells, medians = [], []
            for groups in sides:
                recs = groups.get(name, [])
                if metric == "error_rate":
                    values = [r["failed"] / r["attempted"] for r in recs]
                else:
                    values = [r["metrics"][metric] for r in recs]
                if not values:
                    cells.append(f"{'-':>36s}")
                    medians.append(None)
                    continue
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:12.6g} [{q1:.6g}, {q3:.6g}] ({len(values)})".rjust(36))
                medians.append(med)
            a, b = medians
            ratio = f"{b / a:7.3f}" if a and b is not None else f"{'-':>7s}"
            print(f"{name:10s} {cells[0]} {cells[1]} {ratio}")


def tier1() -> dict:
    """Run the ROADMAP Tier-1 command once; informational, never gated."""
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=ROOT, env=worker_env(), capture_output=True, text=True)
    wall = time.perf_counter() - start
    counts = {k: int(v) for v, k in re.findall(r"(\d+) (passed|failed|error|errors|skipped)", done.stdout)}
    failed = sorted(set(re.findall(r"^FAILED (\S+)", done.stdout, re.M)))
    known = [t for t in failed if any(t.startswith(k) for k in TIER1_KNOWN_FAILURES)]
    return {
        "kind": "tier1",
        "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
        "wall_s": wall,
        "exit_code": done.returncode,
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0),
        "errors": counts.get("error", 0) + counts.get("errors", 0),
        "failed_tests": failed,
        "known_failures": known,
        "unexpected_failures": [t for t in failed if t not in known],
    }


def pin() -> None:
    """Record, from the program as it is now, every value the checks pin."""
    pinned = {}
    for name in WORKLOADS:
        _, res = spawn({"workload": name, "seed": 0, "trace": False, "smoke": False, "pin": True})
        if res is None:
            sys.exit(f"pinning failed in {name}")
        pinned.update(res["pinned"])
    (HERE / "expected.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pinned)} values into {(HERE / 'expected.json').relative_to(ROOT)}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def one_workload(name: str, args) -> dict:
    tally = {"attempted": 0, "failed": 0, "limit": time.perf_counter() + RUN_LIMIT}
    if args.trace:
        metrics, extra = traced_run(name, args.seed, args.smoke, tally)
        units = extra.get("units", {})
    else:
        metrics, extra = measure(name, args.seed, args.seconds, args.smoke, tally)
        units = END_TO_END
    tally["attempted"] = max(tally["attempted"], 1)
    record = {
        "kind": "run", "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "smoke": args.smoke, "attempted": tally["attempted"],
        "failed": tally["failed"], "metrics": metrics, "detail": extra,
        "env": environment(tally), "time": time.time(),
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(f"[{name}] seed {args.seed}: {tally['attempted']} operations, {tally['failed']} failed, "
          f"error_rate {tally['failed'] / tally['attempted']:.6g}")
    for key, value in metrics.items():
        print(f"[{name}] {key} = {value:.6g} {units[key]}")
    return {
        "correct": tally["failed"] == 0 and bool(metrics),
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one small pass per workload")
    parser.add_argument("--out", default=str(ROOT / ".perfbench" / "results.jsonl"))
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--tier1", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    missing = [str(p.relative_to(ROOT)) for p in required_files() if not p.is_file()]
    if missing:
        print(f"error: not a grainlab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    if args.pin:
        pin()
        return 0
    if args.tier1:
        record = tier1()
        with Path(args.out).open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        print(json.dumps(record))
        return 0
    if args.workload != "all":
        result = one_workload(args.workload, args)
    else:
        results = {name: one_workload(name, args) for name in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": {name: r["metrics"] for name, r in results.items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
