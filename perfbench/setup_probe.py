"""Set-up cost of morseflow in a fresh process.

Usage: python3 setup_probe.py SRC_DIR

Prints one JSON object: ``setup_s`` is the time to import morseflow and to
construct and validate every catalog entry; ``catalog_get_s`` is the part of
it spent in ``catalog.get``; ``ref_s`` is the median time of the benchmark's
reference loop, timed afterwards in the same process, the machine's speed at
that moment.
"""
import json
import statistics
import sys
import time

sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
from morseflow import catalog  # noqa: E402

t1 = time.perf_counter()
for name in catalog.names():
    catalog.get(name)
t2 = time.perf_counter()
from run import reference_time  # noqa: E402  (this script's directory is on sys.path)

ref = statistics.median(reference_time() for _ in range(5))
print(json.dumps({"setup_s": t2 - t0, "catalog_get_s": t2 - t1, "ref_s": ref}))
