#!/usr/bin/env python3
"""Check the code in ``src/`` against every recorded benchmark reference.

Run from anywhere in a gica checkout:

    python3 scripts/check_references.py

Each key of each workload's input pool goes once through that workload's
own ``prepare``, ``op`` and ``outputs`` from ``perfbench/workloads.py``, and
is compared with ``perfbench/reference/<workload>.json`` by its
``mismatches``: orders, verdicts and exit codes exactly, real numbers to
1e-6 relative. The benchmark itself checks only the keys its seed draws and
reports a failed check without failing, so this is the gate for "every
record matches". It prints one line per workload, lists every mismatch or
error and exits 1 if there is any. BLAS runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, load_reference, mismatches  # noqa: E402  (loads numpy)


def check(name: str) -> tuple[int, dict[str, list[str]]]:
    """Key count of one workload's pool, and the problems of each key that disagrees."""
    workload, reference, failed = WORKLOADS[name](), load_reference(name), {}
    keys = workload.all_keys()
    with tempfile.TemporaryDirectory() as tmp:
        for item in workload.prepare(keys, Path(tmp)):
            try:
                raw = workload.op(item)
                problems = mismatches(reference.get(item.key), workload.outputs(item, raw))
            except Exception as exc:  # a key that raises is reported; the others still run
                problems = [f"raised {exc!r}"]
            if problems:
                failed[item.key] = problems
    return len(keys), failed


def main() -> int:
    failures = 0
    for name in WORKLOADS:
        start = time.perf_counter()
        keys, failed = check(name)
        print(f"{name}: {keys - len(failed)} of {keys} records match "
              f"({time.perf_counter() - start:.1f} s)")
        for key, problems in failed.items():
            print(f"  {key}: {'; '.join(problems)}", file=sys.stderr)
        failures += len(failed)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
