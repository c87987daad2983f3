"""Run every space the ``rules`` workload can draw, in both modes, once.

    python3 perfbench/check_grid.py

Run from the root of a source checkout.  The timed ``rules`` calls are
drawn from this finite grid with ``--seed`` fixed at ``workloads.CLI_SEED``,
so if every call here exits 0 and passes its check, no timed ``rules``
call can fail.  Prints one line per call and exits 1 if any failed.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path.insert(0, str(Path.cwd() / "src"))
    import fsbp.cli as cli
    import workloads
    from worker import run_call

    work = HERE / ".work" / f"grid-{os.getpid()}"
    failed = 0
    try:
        for i, spec in enumerate(workloads.rule_spaces()):
            for mode in ("closed", "open"):
                call = workloads._rule_call(work, f"grid{i:02d}-{mode}", spec, mode)
                seconds, code, reason, err = run_call(cli, call)
                ok = code == 0 and reason is None
                failed += not ok
                detail = "" if ok else f" exit {code} {reason or ''} {err.splitlines()[-1:]}"
                print(f"{'ok  ' if ok else 'FAIL'} {mode:6s} {seconds:6.2f} s {spec}{detail}",
                      flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{failed} of {2 * len(workloads.rule_spaces())} calls failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
