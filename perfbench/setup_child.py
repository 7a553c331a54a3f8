"""Set-up as a user pays it: a fresh interpreter imports tenrec, builds one
workload instance and writes it to disk.

Usage: python3 setup_child.py <workload> <seed> <workdir> <repo-root>

Prints one JSON line with import_s, build_s and setup_s (their sum).
"""

import time

started = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

name, seed, workdir, root = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), Path(sys.argv[4])
sys.path.insert(0, str(root / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (imports numpy only after the clock started)

workload = workloads.WORKLOADS[name](seed, workdir, root)
importlib.import_module(workload.import_module)
imported = time.perf_counter()
workload.build(sys.modules["tenrec"])
built = time.perf_counter()
print(json.dumps({"import_s": imported - started, "build_s": built - imported,
                  "setup_s": built - started}))
