#!/usr/bin/env python3
"""Record the reference outputs every benchmark op is checked against.

Run from the root of a gica checkout whose outputs are the accepted ones:

    python3 perfbench/record_reference.py [workload ...]

It runs the op once on every key of each workload's input pool and writes
``perfbench/reference/<workload>.json``. Re-record only when a change is
meant to alter the numbers, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main(names: list[str]) -> int:
    root = Path.cwd().resolve()
    sys.path[:0] = [str(root / "src"), str(BENCH_DIR)]
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    import numpy
    import scipy

    from run import OUT_DIR, git_commit, source_digest
    from workloads import REFERENCE_DIR, WORKLOADS

    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]()
        outputs = {}
        start = time.perf_counter()
        work = root / OUT_DIR / "work"
        work.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            for item in workload.prepare(workload.all_keys(), Path(tmp)):
                outputs[item.key] = workload.outputs(item, workload.op(item))
        record = {
            "recorded_with": {
                "git_commit": git_commit(root),
                "source_sha256": source_digest(root),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
            "outputs": outputs,
        }
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(outputs)} keys in {time.perf_counter() - start:.1f} s -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
