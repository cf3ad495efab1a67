"""Run one benchmark workload against the `sectorbalance` sources of this checkout.

Usage:
    python3 perfbench/run.py --workload {gate,explore,cli} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  It imports the package from ``src/``
and refuses to run without it.  Progress and failures go to stderr.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` its per-layer
metrics.  A traced run also writes its spans to
``perfbench/_out/trace-<workload>-seed<N>.json``.

``--fault NAME`` injects one of the faults of ``faults.py``; the self-test
uses it to show that the checks catch wrong results.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"

# Set before numpy loads: one thread per process.
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("gate", "explore", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fault", help="inject a fault (self-test only)")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sectorbalance" / "__init__.py").is_file():
        print(f"perfbench: no sectorbalance sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))
    # Found, not imported: the cli workload runs the program only in its calls.
    found = importlib.util.find_spec("sectorbalance")
    if not Path(found.origin).resolve().is_relative_to(SRC):
        print(f"perfbench: sectorbalance would load from {found.origin}, not {SRC}",
              file=sys.stderr)
        return 2

    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)  # verify's determinism check writes temporary files
    env = dict(os.environ, TMPDIR=str(tmp),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    import workloads
    from faults import FAULTS

    if args.fault is not None and args.fault not in FAULTS:
        print(f"perfbench: unknown fault {args.fault!r}; choose from {sorted(FAULTS)}",
              file=sys.stderr)
        return 2
    ctx = workloads.Context(root=ROOT, workload=args.workload, seed=args.seed,
                            seconds=args.seconds, trace=bool(args.trace), fault=args.fault,
                            out_dir=OUT_DIR, env=env)
    values = workloads.run(ctx)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        print(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    if args.trace:
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"spans_of_first_traced_pass": ctx.span_log}),
                              encoding="utf-8")
        print(f"perfbench: spans written to {trace_file}", file=sys.stderr)
    result = {
        "correct": ctx.tally.wrong == 0,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
