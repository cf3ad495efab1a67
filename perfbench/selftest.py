"""Show that the benchmark's checks catch wrong results.

Usage: python3 perfbench/selftest.py

Runs each workload once cleanly, which must report ``correct`` (its only
failed operation is the `cli` call that exposes a known fault), and once
with each fault of ``faults.py`` injected, which must report ``correct``
false and more failed operations than the clean run.  Exits 1 if any
expectation does not hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from faults import FAULTS

BENCH_DIR = Path(__file__).resolve().parent


def run(workload: str, fault: str | None) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    if fault:
        cmd += ["--fault", fault]
    proc = subprocess.run(cmd, cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} with fault {fault}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ok = True
    for workload in ("gate", "explore", "cli"):
        clean = run(workload, None)
        for fault in (None, *FAULTS):
            r = clean if fault is None else run(workload, fault)
            if fault is None:
                expected = r["correct"]
            else:
                expected = not r["correct"] and r["failed"] > clean["failed"]
            ok &= expected
            print(f"{workload:8s} {fault or 'no fault':15s} attempted={r['attempted']:5d} "
                  f"failed={r['failed']:5d} correct={r['correct']!s:5s} "
                  f"{'as expected' if expected else 'NOT AS EXPECTED'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
