"""Run one workload several times, each with another seed, and report spreads.

Usage:
    python3 perfbench/steady.py --workload W [--runs 10] [--first-seed 1]
                                [--against perfbench/_out/steady-W-A.json]

For every end-to-end metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``), their distance as a share of the
median, and the bound from ``BENCHMARK.json``.  ``--against`` names an
earlier set and adds how far this set's median moved from that one's, in
the metric's worse direction.  The raw results are saved under
``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--against", type=Path, help="an earlier saved set to compare medians with")
    args = p.parse_args()

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = time.perf_counter()
        results.append(run_once(args.workload, seed, spec["run_seconds"]))
        r = results[-1]
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} ({time.perf_counter() - start:.1f}s)", file=sys.stderr)

    out = BENCH_DIR / "_out" / f"steady-{args.workload}-{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results), encoding="utf-8")
    earlier = json.loads(args.against.read_text(encoding="utf-8")) if args.against else None

    print(f"{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, {spec['run_seconds']}s each; saved to {out}")
    print(f"{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}"
          + (f" {'moved':>7s}" if earlier else ""))
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        line = (f"{m['name']:36s} {med:12.6g} {q1:12.6g} {q3:12.6g} {(q3 - q1) / med:7.3f} "
                f"{m['bound']:6}")
        if earlier:
            old = statistics.median(r["metrics"][m["name"]]["value"] for r in earlier)
            worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
            line += f" {worse:+7.3f}"
        print(line)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}"
          + ("" if len(shares) == 1 else "  (differs between runs)"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
