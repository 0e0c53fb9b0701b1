"""One pass of one workload in a fresh interpreter, so every cache of the
program starts cold.  run.py starts it with a JSON spec as its argument.

Protocol on stdout: the line `ready` as soon as `grainlab.cli` (and with it
every module of the package) is imported, then one JSON line with the
pass's timings, counters, failures, spans and resource use.
"""

import sys

import grainlab.cli  # noqa: F401  (set-up ends here)

print("ready", flush=True)

import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
from grainlab.config import get_caps  # noqa: E402

import workloads  # noqa: E402
from harness import Run, Tracer  # noqa: E402


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    name, seed = spec["workload"], spec["seed"]
    expected = json.loads((Path(__file__).parent / "expected.json").read_text())
    tracer = Tracer(f"{name}-{seed}-{os.getpid()}", spec["trace"])
    run = Run(tracer, expected, pinning=spec.get("pin", False))
    ctx = workloads.Context(root, workloads.fresh_tmp(root / ".perfbench"), spec["smoke"], dict(os.environ))
    try:
        with tracer.span("bench.pass"):
            workloads.WORKLOADS[name](run, random.Random(f"{name}:{seed}"), ctx)
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
    run.sample_speed()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    # the cli client's own footprint is not the program's: report the largest command
    rss_kb = kids.ru_maxrss if name == "cli" else own.ru_maxrss
    return {
        "ops_s": sum(run.samples),
        "samples": run.samples,
        "counters": run.counters,
        "attempted": run.attempted,
        "failures": run.failures,
        "pinned": run.pinned,
        "spans": tracer.spans,
        "run_id": tracer.run_id,
        "peak_rss_mb": rss_kb / 1024,
        "speed": run.speed,
        "brackets": run.brackets,
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "caps": dataclasses.asdict(get_caps()),
        },
    }


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    if not spec.get("probe"):
        print(json.dumps(main(spec)), flush=True)
