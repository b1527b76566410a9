"""One set-up of a benchmark run, timed in a fresh interpreter: import of
the package plus generation of the workload's input files.

    python3 perfbench/setup_probe.py PACKAGE WORKLOAD SEED WORKDIR

PACKAGE is ``zigzag_pca`` (imported from ``src/``) or its frozen reference
``zigzag_pca_ref`` (imported from ``perfbench/reference/``).

Prints one JSON line: the set-up time in seconds and the digest of the files.
"""

import time

START = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
LOCATION = {"zigzag_pca": os.path.join(os.path.dirname(HERE), "src"),
            "zigzag_pca_ref": os.path.join(HERE, "reference")}

if __name__ == "__main__":
    package, workload, seed, workdir = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    sys.path.insert(0, LOCATION[package])
    importlib.import_module(package)
    import inputs
    _, digest = inputs.build(workload, seed, workdir)
    print(json.dumps({"setup_s": time.perf_counter() - START, "digest": digest}))
