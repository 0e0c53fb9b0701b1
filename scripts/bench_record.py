#!/usr/bin/env python3
"""Write a committed benchmark record from two perfbench result files.

    python3 perfbench/run.py --workload channel --seed 101 --out parent.jsonl   # in the parent
    python3 perfbench/run.py --workload channel --seed 101 --out change.jsonl   # in the change
    ...                                                   # alternate, one seed per pair
    python3 scripts/bench_record.py parent.jsonl change.jsonl --out BENCH_<n>.json

For each workload and end-to-end metric (and error_rate) the record holds
each side's median, quartiles and number of runs, computed as
`perfbench/run.py --compare` computes them, the change/parent ratio of the
medians, and how many seed-matched pairs the change won.  Traced runs
(--trace 1) contribute the medians of their per-layer metrics.  The seeds,
the environment records and any Tier-1 records are copied as they are.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from harness import quartiles  # noqa: E402

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")  # all lower-is-better, like error_rate


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def summary(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def value(rec: dict, metric: str) -> float:
    if metric == "error_rate":
        return rec["failed"] / rec["attempted"]
    return rec["metrics"][metric]


def measured(records: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for rec in records:
        if rec.get("kind") == "run" and not rec["trace"] and not rec["smoke"]:
            out.setdefault(rec["workload"], []).append(rec)
    return out


def compare(parent: list[dict], change: list[dict]) -> dict:
    sides = measured(parent), measured(change)
    result: dict[str, dict] = {}
    for workload in sorted(set(sides[0]) & set(sides[1])):
        rows = {}
        for metric in [*END_TO_END, "error_rate"]:
            a, b = ([value(r, metric) for r in side[workload]] for side in sides)
            row = {"parent": summary(a), "change": summary(b)}
            base = row["parent"]["median"]
            row["ratio"] = row["change"]["median"] / base if base else None
            by_seed = [{r["seed"]: value(r, metric) for r in side[workload]} for side in sides]
            paired = sorted(set(by_seed[0]) & set(by_seed[1]))
            row["pairs"] = len(paired)
            row["change_wins"] = sum(by_seed[1][s] < by_seed[0][s] for s in paired)
            rows[metric] = row
        result[workload] = rows
    return result


def traced(records: list[dict]) -> dict[str, dict[str, float]]:
    """Median of each per-layer metric over the traced runs, by workload."""
    runs: dict[str, list[dict]] = {}
    for rec in records:
        if rec.get("kind") == "run" and rec["trace"] and rec["metrics"]:
            runs.setdefault(rec["workload"], []).append(rec["metrics"])
    return {
        workload: {k: statistics.median(m[k] for m in ms) for k in sorted(ms[0])}
        for workload, ms in sorted(runs.items())
    }


def environments(records: list[dict]) -> list[dict]:
    seen: dict[str, dict] = {}
    for rec in records:
        if rec.get("kind") == "run":
            seen.setdefault(json.dumps(rec["env"], sort_keys=True), rec["env"])
    return list(seen.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="results JSONL of the parent commit")
    parser.add_argument("change", help="results JSONL of the change")
    parser.add_argument("--out", required=True, help="record to write, BENCH_<n>.json at the repo root")
    args = parser.parse_args(argv)
    parent, change = load(args.parent), load(args.change)
    record = {
        "compare": compare(parent, change),
        "traced": {"parent": traced(parent), "change": traced(change)},
        "seeds": {
            side: sorted({r["seed"] for r in recs if r.get("kind") == "run"})
            for side, recs in (("parent", parent), ("change", change))
        },
        "environment": {"parent": environments(parent), "change": environments(change)},
        "tier1": {
            side: [r for r in recs if r.get("kind") == "tier1"]
            for side, recs in (("parent", parent), ("change", change))
        },
    }
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for workload, rows in record["compare"].items():
        for metric, row in rows.items():
            ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
            print(f"{workload:8s} {metric:12s} {row['parent']['median']:10.4g} -> "
                  f"{row['change']['median']:10.4g}  ratio {ratio}  "
                  f"wins {row['change_wins']}/{row['pairs']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
