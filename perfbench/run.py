#!/usr/bin/env python3
"""Benchmark of the gica analysis pipeline.

Run from the root of a gica checkout:

    python3 perfbench/run.py --workload cli-analyze --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: the next op starts when the
previous one returns. With ``--trace 0`` the command starts a fresh
interpreter ``SETUPS`` times; each imports gica from ``src/``, makes the
inputs from the seed and runs one warm-up op, and the last one then runs
ops for ``--seconds``. No wrapper is installed. After each op it runs the
reference kernel of ``calibrate.py`` for 12% of the op's time, and op
times are reported in units of the kernel's mean time in the run (``cal``)
as well as in seconds. With ``--trace 1`` one
interpreter alternates an untraced op with the same op traced by
``tracer.py`` and reports the per-layer metrics. Every op is checked
against ``reference/<workload>.json``. Metric names and units are those of
``BENCHMARK.json``. Human-readable lines come first; the last line of
standard output is one JSON object. Full results, provenance and spans go
to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import calibrate
from tracer import Tracer
from workloads import CONFIG, WORKLOADS, load_reference, mismatches

BENCH_DIR = Path(__file__).resolve().parent
SETUPS = 3
DEADLINE_S = 170
OUT_DIR = ".perfbench"
# one BLAS thread: the matrices are small and the machine may be shared
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
P90_MIN_OPS = 100
MAX_REPORTED_FAILURES = 5
# kernel time after each op, as a share of the op's time
CAL_FRACTION = 0.12


class BenchError(RuntimeError):
    pass


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


# ---------------------------------------------------------------- worker


class Checker:
    """Runs ops, checks each against the reference, counts failures."""

    def __init__(self, workload, reference: dict) -> None:
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def timed(self, item, tracer=None, op_id: int = 0) -> float | None:
        """Wall time of one op, or ``None`` if it raised.

        An op whose output disagrees with the reference keeps its time and
        counts as failed, which makes the run incorrect.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                raw = self.workload.op(item)
            else:
                with tracer.op(op_id):
                    raw = self.workload.op(item)
        except Exception as exc:  # a failed op is counted, the loop goes on
            self._fail(item, [f"raised {exc!r}"])
            return None
        elapsed = time.perf_counter() - start
        try:
            problems = mismatches(
                self.reference.get(item.key), self.workload.outputs(item, raw)
            )
        except Exception as exc:
            problems = [f"outputs unreadable: {exc!r}"]
        if problems:
            self._fail(item, problems)
        return elapsed

    def _fail(self, item, problems: list[str]) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            shown = "; ".join(problems[:3])
            print(f"check failed on {item.key}: {shown}", file=sys.stderr)


def _emit(data: dict) -> None:
    sys.stdout.write(json.dumps(data) + "\n")
    sys.stdout.flush()


def worker(args: argparse.Namespace) -> int:
    import numpy
    import scipy

    root = Path.cwd().resolve()
    workload = WORKLOADS[args.workload]()
    items = workload.prepare(workload.keys(args.seed), Path(args.workdir))
    gica_file = Path(sys.modules["gica"].__file__).resolve()
    if not gica_file.is_relative_to(root / "src"):
        raise BenchError(f"gica imported from {gica_file}, not from this checkout")
    checker = Checker(workload, load_reference(args.workload))
    checker.timed(items[0])  # warm-up
    _emit({"attempted": checker.attempted, "failed": checker.failed})
    if sys.stdin.readline().strip() != "go":
        return 0

    result = {
        "keys": [item.key for item in items],
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    start = time.perf_counter()

    def passes():
        # whole passes over the inputs, so that every input weighs the same
        while True:
            yield from items
            if time.perf_counter() - start >= args.seconds:
                return

    if not args.trace:
        # kernel blocks in proportion to op time sample the machine's speed
        # over the same stretch of time as the ops
        latencies = {item.key: [] for item in items}
        calibration = calibrate.Calibration()
        for item in passes():
            elapsed = checker.timed(item)
            calibration.block(CAL_FRACTION * (elapsed or 0.0))
            if elapsed is not None:
                latencies[item.key].append(elapsed)
        result["latencies"] = latencies
        result["cal_s"] = calibration.cal_s
        result["kernel_runs"] = calibration.runs
    else:
        tracer = Tracer()
        pairs = []
        for op_id, item in enumerate(passes()):
            untraced = checker.timed(item)
            with tracer.installed():
                traced = checker.timed(item, tracer, op_id)
            if untraced is not None and traced is not None:
                pairs.append((untraced, traced, tracer.root_s[op_id]))
        result.update(
            pairs=pairs,
            op_s=sum(tracer.root_s.values()),
            summary=tracer.summary(),
            absent=tracer.absent,
            spans=tracer.records(),
        )
    result.update(
        attempted=checker.attempted,
        failed=checker.failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    _emit(result)
    return 0


# ---------------------------------------------------------------- driver


def run_worker(
    args: argparse.Namespace, root: Path, go: bool, deadline: float
) -> tuple[float, dict, dict | None]:
    """Start one fresh interpreter; return its set-up time, ready line and result."""
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / OUT_DIR / "work"))
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH_DIR)])
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]  # fmt: skip
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready_line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if not ready_line:
            raise BenchError(f"worker exited during set-up (code {proc.wait()})")
        ready = json.loads(ready_line)
        proc.stdin.write("go\n" if go else "stop\n")
        proc.stdin.close()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    result = None
    if go:
        lines = rest.strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        result = json.loads(lines[-1])
    return setup_s, ready, result


def git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "gica").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, args: argparse.Namespace, versions: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": THREAD_PINS,
        "setups": SETUPS if not args.trace else 1,
        "config": CONFIG[args.workload],
    }


def end_to_end(setups: list[float], result: dict) -> tuple[dict, list[str]]:
    per_input = [times for times in result["latencies"].values() if times]
    lat = [t for times in per_input for t in times]
    if not lat:
        raise BenchError("no op succeeded")
    ops_per_s = len(lat) / sum(lat)
    # Each input's latency is the mean over its passes, so one slow stretch
    # of the machine does not decide the median; the median is then taken
    # over the run's inputs.
    op_p50_s = statistics.median(statistics.fmean(t) for t in per_input)
    cal_s = result["cal_s"]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_kcal": 1000.0 * ops_per_s * cal_s,
        "op_p50_cal": op_p50_s / cal_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = [
        f"setup_s: median of {len(setups)} fresh interpreters: "
        + ", ".join(f"{s:.4f}" for s in setups),
        f"{len(lat)} timed ops on {len(per_input)} inputs",
        f"wall clock: ops_per_s = {ops_per_s:.6g} 1/s, op_p50_s = {op_p50_s:.6g} s",
        f"1 cal = {cal_s:.6f} s, the mean of {result['kernel_runs']} reference kernel runs",
    ]
    if len(lat) >= P90_MIN_OPS:
        notes.append(f"op_p90_s = {statistics.quantiles(lat, n=10)[-1]:.6f} s")
    else:
        notes.append(f"op_p90_s omitted: {len(lat)} ops < {P90_MIN_OPS}")
    return values, notes


def per_layer(result: dict) -> tuple[dict, list[str]]:
    summary = result["summary"]
    values = {}
    for name, stats in summary.items():
        if name != "op":
            values[f"{name}.calls"] = stats["calls"]
            values[f"{name}.self_s"] = stats["self_s"]
    ops = summary["op"]["calls"]
    autocov = summary["varmodel.compute_autocovariance"]["calls"]
    untraced = sum(u for u, _, _ in result["pairs"])
    traced = sum(t for _, t, _ in result["pairs"])
    values.update(
        {
            "spectral.full_transfer.per_model": (
                summary["spectral.full_transfer"]["calls"] / autocov if autocov else 0.0
            ),
            "varmodel.fit_var.per_op": summary["varmodel.fit_var"]["calls"] / ops,
            "tracer.overhead_frac": traced / untraced - 1.0 if untraced else 0.0,
            "tracer.absent": len(result["absent"]),
            "trace.ops": ops,
            "trace.op_s": result["op_s"],
        }
    )
    ratios = [root / u - 1.0 for u, _, root in result["pairs"]]
    notes = [f"absent functions: {', '.join(result['absent']) or 'none'}"]
    if ratios:
        notes.append(
            f"root span vs untraced wall time over {len(ratios)} op pairs: "
            f"median {statistics.median(ratios):+.4f}, "
            f"range [{min(ratios):+.4f}, {max(ratios):+.4f}]"
        )
    return values, notes


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    # on SIGTERM, unwind so that the worker is killed and its files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd().resolve()
    if not (root / "src" / "gica" / "__init__.py").is_file():
        print("error: src/gica not found; run from the root of a gica checkout",
              file=sys.stderr)  # fmt: skip
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}

    (root / OUT_DIR / "work").mkdir(parents=True, exist_ok=True)
    (root / OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    n_workers = 1 if args.trace else SETUPS
    setups, attempted, failed, result = [], 0, 0, None
    try:
        for k in range(n_workers):
            setup_s, ready, res = run_worker(args, root, k == n_workers - 1, deadline)
            setups.append(setup_s)
            attempted += ready["attempted"]
            failed += ready["failed"]
            result = res or result
        if args.trace:
            values, notes = per_layer(result)
        else:
            values, notes = end_to_end(setups, result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)  # fmt: skip
        return 1
    attempted += result["attempted"]
    failed += result["failed"]

    prov = provenance(root, args, result["versions"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in values.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(f"check: {'all outputs match the reference' if failed == 0 else 'FAILED'}")
    print("provenance: " + json.dumps({k: v for k, v in prov.items() if k != "config"}))

    stem = root / OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    record = {"provenance": prov, "metrics": values, "notes": notes, "setups": setups,
              "attempted": attempted, "failed": failed, "worker": result}  # fmt: skip
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
