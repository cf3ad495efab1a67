"""Time one set-up in a fresh process: import the package and make the inputs.

Usage: python setup_probe.py WORKLOAD SEED  (prints the seconds taken)
"""

import sys
import time

import inputs

if __name__ == "__main__":
    start = time.perf_counter()
    import sectorbalance  # noqa: F401,E402  (timed import)

    inputs.generate(sys.argv[1], int(sys.argv[2]))
    print(repr(time.perf_counter() - start))
