"""One workload process: set up, run timed passes of CLI calls, report.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on the
import path.  Calls run in a closed loop in this process: each
``fsbp.cli.main`` call starts when the previous one has returned and
been checked.  The last line of standard output is one JSON object.

    python3 perfbench/worker.py --workload rules --seed 1 --seconds 25 --trace 0 \
        --spawned-at <time.monotonic() of the parent when it started this process>
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

from calibrate import Calibrator
from workloads import CLI_SEED

HERE = Path(__file__).resolve().parent


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent when it started this process")
    p.add_argument("--setup-only", action="store_true",
                   help="stop after import and input generation")
    return p.parse_args(argv)


def run_call(cli, call, calibrator: Calibrator | None = None
             ) -> tuple[float, int, str | None, str]:
    """Time one CLI call and check its outputs: (seconds, exit code, reason, stderr).
    Time the calibrator's timer handler took during the call is not counted."""
    call.clear()
    err = io.StringIO()
    stolen = calibrator.stolen if calibrator else 0.0
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(call.cli_args())
        except SystemExit as exc:          # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:           # an uncaught error is a traceback, exit 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
        seconds = time.perf_counter() - start
    if calibrator:
        seconds -= calibrator.stolen - stolen
    reason = None
    if code == 0:
        try:
            reason = call.check(call.out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
    return seconds, code, reason, err.getvalue().strip()


class Sample(NamedTuple):
    seconds: float          # at the reference speed of calibrate.py
    raw_s: float
    code: int
    reason: str | None      # check failure after exit 0


class Passes:
    """Timed passes over a call list, keeping a Sample for every call of every pass."""

    def __init__(self, calls):
        self.calls = calls
        self.samples = [[] for _ in calls]
        self.stderr = {}
        self.count = 0
        self.calibrator = Calibrator()

    def run(self, cli, budget: float) -> None:
        """At least one pass; another only while it should end within ``budget``.
        Times are scaled to the reference speed of calibrate.py."""
        timed = []
        cal = self.calibrator
        cal.sample(10)
        start = time.perf_counter()
        with cal.sampling():
            while True:
                for i, call in enumerate(self.calls):
                    t0 = time.perf_counter()
                    seconds, code, reason, err = run_call(cli, call, cal)
                    timed.append((i, t0, seconds, code, reason))
                    if err:
                        self.stderr[call.label] = err.splitlines()[-1]
                self.count += 1
                elapsed = time.perf_counter() - start
                if elapsed * (self.count + 1) / self.count > budget:
                    break
        cal.sample(10)
        for i, t0, seconds, code, reason in timed:
            factor = cal.factor(t0, t0 + seconds)
            self.samples[i].append(Sample(seconds * factor, seconds, code, reason))

    def _all(self) -> list:
        return [s for samples in self.samples for s in samples]

    @property
    def attempted(self) -> int:
        return len(self._all())

    @property
    def failed(self) -> int:
        """Non-zero exits plus wrong answers."""
        return sum(s.code != 0 or s.reason is not None for s in self._all())

    @property
    def wrong(self) -> int:
        return sum(s.code == 0 and s.reason is not None for s in self._all())

    def pass_s(self, field: str = "seconds") -> float:
        """Sum over calls of each call's median time."""
        return sum(statistics.median(getattr(s, field) for s in samples)
                   for samples in self.samples)

    def latencies(self, field: str = "seconds") -> list:
        """Times of the calls that succeeded (of all calls if none did)."""
        ok = [s for s in self._all() if s.code == 0 and s.reason is None] or self._all()
        return [getattr(s, field) for s in ok]

    def call_medians(self, field: str = "seconds") -> list:
        """Each call's median time over its successful samples (over all
        samples of every call if no call succeeded)."""
        ok = [[getattr(s, field) for s in samples if s.code == 0 and s.reason is None]
              for samples in self.samples]
        return ([statistics.median(t) for t in ok if t]
                or [statistics.median(getattr(s, field) for s in samples)
                    for samples in self.samples])

    def summary(self) -> dict:
        out = {}
        for call, samples in zip(self.calls, self.samples):
            entry = {"median_s": statistics.median(s.seconds for s in samples),
                     "median_raw_s": statistics.median(s.raw_s for s in samples),
                     "samples": len(samples),
                     "exit_codes": sorted({s.code for s in samples})}
            wrong = [s.reason for s in samples if s.code == 0 and s.reason]
            if wrong:
                entry["wrong"] = wrong
            if call.label in self.stderr:
                entry["stderr"] = self.stderr[call.label]
            out[call.label] = entry
        return out


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "cli_seed": CLI_SEED,
        "load": "closed loop: one process, each CLI call starts when the previous returns",
    }


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    import fsbp.cli as cli
    import workloads

    src = (root / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"worker: fsbp was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        calls = workloads.build(args.workload, args.seed, work)
        setup_s = time.monotonic() - args.spawned_at
        calibrator = Calibrator()
        calibrator.sample(5)
        setup = {"raw_s": setup_s, "factor": calibrator.factor()}
        if args.setup_only:
            print(json.dumps({"setup": setup}))
            return 0
        return measure(args, root, cli, workloads, calls, work, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root, cli, workloads, calls, work, setup) -> int:
    record = {"workload": args.workload, "environment": environment(root, args.seed)}
    plain = Passes(calls)
    plain.run(cli, args.seconds if not args.trace else args.seconds / 2)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = plain.latencies()
    metrics = {
        "pass_s": plain.pass_s(),
        "ok_frac": (plain.attempted - plain.failed) / plain.attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    # In the record only: on high_order the median call falls among calls of
    # 20-80 ms whose times differ by up to half from run to run on a shared
    # host, so op_s.p50 spreads too much there to gate a change.
    record["op_s.p50"] = statistics.median(plain.call_medians())
    if len(latencies) >= 100:       # ten samples beyond the 90th percentile
        record["op_s.p90"] = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    record["raw_seconds"] = {"pass_s": plain.pass_s("raw_s"),
                             "op_s.p50": statistics.median(plain.call_medians("raw_s"))}
    record["speed"] = {"factor": plain.calibrator.factor(),
                       "kernel_samples": len(plain.calibrator.samples)}
    record["calls"] = plain.summary()
    record["samples"] = {"pass_s": plain.count, "op_s.p50": len(latencies), "peak_rss_mb": 1}
    record["failed_frac"] = {"failed": plain.failed, "attempted": plain.attempted,
                             "value": plain.failed / plain.attempted}
    attempted, failed, wrong = plain.attempted, plain.failed, plain.wrong

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        traced = Passes(calls)
        tracer.install()
        try:
            traced.run(cli, args.seconds / 2)
        finally:
            tracer.uninstall()
        # span times include the calibration handler's ticks (about 3%)
        layers = tracer.layer_metrics(traced.count, traced.calibrator.factor())
        layers["trace.overhead_frac"] = traced.pass_s() / plain.pass_s() - 1.0
        for call, expected in workloads.probes(work):
            _, code, _, err = run_call(cli, call)
            layers[f"probe.{call.label}.exit_code"] = code
            record.setdefault("probes", {})[call.label] = {
                "exit_code": code, "expected": expected, "stderr": err.splitlines()[-1:]}
        record["samples"]["traced_passes"] = traced.count
        record["samples"]["spans"] = len(tracer.spans)
        attempted += traced.attempted
        failed += traced.failed
        wrong += traced.wrong
        out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(out)
        record["spans_file"] = str(out.relative_to(root))
        metrics = layers

    print(json.dumps({
        "setup": setup,
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "record": record,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
