"""fsbp benchmark launcher.

    python3 perfbench/run.py --workload <rules|bessel|converge|high_order> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Starts every workload process
with BLAS pinned to one thread and ``src`` on the import path, measures
set-up time in fresh interpreters, and prints two JSON lines: a record of
the run (environment, per-call samples, failures, known-failure probes)
and, last, the result: ``correct``, ``attempted``, ``failed`` and the
metrics declared in BENCHMARK.json (``end_to_end`` with ``--trace 0``,
``per_layer`` with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 3          # fresh interpreters timed per run; the last one also measures
TIME_LIMIT_S = 170.0    # whole run, set-up included
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="fsbp benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    root = Path.cwd().resolve()
    if not (root / "src" / "fsbp" / "__init__.py").is_file():
        return fail(f"no fsbp sources under {root / 'src'}; run from a source checkout")
    try:
        declared = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    env = {**os.environ, **PINNED,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"),
                                                        os.environ.get("PYTHONPATH")]))}
    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]

    setup, result = [], None
    for i in range(SETUP_RUNS):
        last = i == SETUP_RUNS - 1
        cmd = [*base, "--spawned-at", repr(time.monotonic())] + ([] if last else ["--setup-only"])
        try:
            proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return fail(f"workload process exceeded {TIME_LIMIT_S:.0f} s", 3)
        if proc.returncode != 0 or not proc.stdout.strip():
            return fail(f"workload process exited with {proc.returncode}", 3)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        setup.append(result["setup"])

    metrics = {**result["metrics"],
               "setup_s": statistics.median(s["raw_s"] * s["factor"] for s in setup)}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail(f"workload did not report {missing}", 3)

    record = result["record"]
    record["samples"]["setup_s"] = len(setup)
    record["setup_samples"] = setup
    record["metrics"] = metrics
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
