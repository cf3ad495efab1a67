"""Run one `sectorbalance` CLI call under the tracer or with an injected fault.

Usage: python -X importtime cli_shim.py [--trace-out FILE] [--fault NAME] -- ARGS...

Times the package import and the handler, installs the tracer and/or the
fault, runs ``sectorbalance.cli.run_cli(ARGS)`` and exits with its code.
With ``--trace-out`` it writes the spans, counters and timings as JSON.
Untraced benchmark runs call ``python -m sectorbalance`` directly instead.
"""

import sys
import time

start = time.perf_counter()
import sectorbalance.cli  # noqa: E402  (timed import)

import_s = time.perf_counter() - start


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    trace_out = opts[opts.index("--trace-out") + 1] if "--trace-out" in opts else None
    fault = opts[opts.index("--fault") + 1] if "--fault" in opts else None

    import json

    from tracing import Tracer

    tracer = Tracer()
    if trace_out:
        tracer.install()
    if fault:
        import faults

        faults.apply(fault)
    begin = time.perf_counter()
    code = sectorbalance.cli.run_cli(cli_args)
    handler_s = time.perf_counter() - begin
    sys.stdout.flush()
    if trace_out:
        spans, counts = tracer.take()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "handler_s": handler_s,
                       "spans": spans, "counts": dict(counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
