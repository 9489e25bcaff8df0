"""Benchmark of the gowersff CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

One process imports ``gowersff`` from ``src/`` of this checkout and calls
``gowersff.cli.main(argv)`` for each item of the workload, with stdout
captured for the correctness check and the field caches cleared before
every call (each real CLI call is a fresh process).  It repeats the
workload until ``--seconds`` have passed and prints, as the last stdout
line, ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates traced and
untraced iterations and reports the per-layer metrics.  ``all`` runs every
workload in a process of its own and prints one table.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Fresh-interpreter imports timed per run for setup_s (after one warm-up).
SETUP_SAMPLES = 7
#: A timing percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_program():
    """Import gowersff from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import gowersff

    where = Path(gowersff.__file__).resolve().parent.parent
    if where != SRC:
        raise ImportError(f"gowersff imported from {where}, not {SRC}")
    return gowersff


def host_record(nproc: int, seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc, "cpu": cpu or "unknown", "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed}


def measure_setup() -> list[float]:
    """Seconds for a fresh interpreter to run ``import gowersff`` (numpy included)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import gowersff"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        if i:  # the first import may compile bytecode
            samples.append(time.perf_counter() - start)
    return samples


class Runner:
    """Runs one workload's items through the CLI and checks what they print."""

    def __init__(self, gowersff, items, check_failed, tracer, instrumented):
        self.cli = gowersff.cli
        self.cache = gowersff.field.prime_field  # the lru_cache, captured unwrapped
        self.items = items
        self.check_failed = check_failed
        self.tracer = tracer
        self.instrumented = instrumented
        self.attempted = 0
        self.errors: list[str] = []
        self.first_peak_mb = 0.0

    def item(self, item) -> tuple[float, int]:
        """(seconds in cli.main, prime_field cache misses) for one CLI call."""
        self.cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        problem = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(item.argv))
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
        except Exception as exc:  # the program raised; count the item failed
            code, problem = None, f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        misses = self.cache.cache_info().misses
        if problem is None and code != 0:
            problem = f"exit code {code}: {err.getvalue().strip()[-300:]}"
        if problem is None:
            try:
                item.check(out.getvalue())
            except self.check_failed as exc:
                problem = str(exc)
            except (KeyError, TypeError, ValueError) as exc:
                problem = f"malformed output: {exc!r}"
        if problem:
            self.errors.append(f"{' '.join(item.argv)}: {problem}")
        return elapsed, misses

    def iteration(self, traced: bool) -> tuple[float, int]:
        wall = misses = 0
        for item in self.items:
            if traced:
                with self.instrumented(self.tracer):
                    elapsed, miss = self.item(item)
                self.tracer.add("field.prime_field_misses", miss)
            else:
                elapsed, miss = self.item(item)
            wall += elapsed
            misses += miss
        return wall, misses

    def measure(self, seconds: float, traced_mode: bool) -> list[tuple[bool, float, int]]:
        """(traced, wall, misses) per iteration until ``seconds`` have passed.

        Traced mode alternates traced and untraced iterations, starting
        traced, and makes at least two traced and one untraced.
        """
        done = []
        deadline = time.perf_counter() + seconds
        while True:
            traced = traced_mode and len(done) % 2 == 0
            self.tracer.run = len(done)
            done.append((traced, *self.iteration(traced)))
            if len(done) == 1:
                # Later iterations creep up through heap fragmentation, which
                # a one-call CLI process never reaches; the first is closest.
                self.first_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if len(done) >= (3 if traced_mode else 1) and time.perf_counter() >= deadline:
                return done


def tail(walls: list[float]) -> dict:
    """Median and the highest percentile with TAIL_SAMPLES samples beyond it."""
    n = len(walls)
    out = {"median": statistics.median(walls), "n": n, "percentile": None, "value": None}
    q = (100 * (n - TAIL_SAMPLES)) // n if n else 0
    if q > 50:
        out["percentile"] = q
        out["value"] = statistics.quantiles(walls, n=100)[q - 1]
    return out


def layer_metrics(tracer, runs, workload: str) -> tuple[dict, list[str]]:
    """Per-layer metrics (medians of self times, exact counts) and departures."""
    import spans

    problems = []
    traced = [run for run, (is_traced, _, _) in enumerate(runs) if is_traced]
    selfs = tracer.self_times()
    unknown = {m for r in traced for m in selfs[r]} - set(spans.SPAN_METRICS)
    if unknown:
        problems.append(f"spans with no declared metric: {sorted(unknown)}")
    metrics = {m: {"value": statistics.median(selfs[r].get(m, 0.0) for r in traced), "unit": "s"}
               for m in spans.SPAN_METRICS}
    for m, unit in spans.COUNT_METRICS.items():
        values = [tracer.counts[r].get(m, 0.0) for r in traced]
        if len(set(values)) != 1:
            problems.append(f"count {m} differs across traced iterations: {values}")
        metrics[m] = {"value": int(values[0]) if unit == "count" else values[0], "unit": unit}
    walls_t = [w for t, w, _ in runs if t]
    walls_u = [w for t, w, _ in runs if not t]
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(walls_t) / statistics.median(walls_u) - 1, "unit": "frac"}

    zero = workloads.PREDICTED_ZERO[workload] | workloads.ALWAYS_ZERO
    for m in list(spans.SPAN_METRICS) + list(spans.COUNT_METRICS):
        value = metrics[m]["value"]
        if m in zero and value != 0:
            problems.append(f"{m} predicted 0 on {workload}, reads {value}")
        elif m not in zero and value == 0:
            problems.append(f"{m} predicted nonzero on {workload}, reads 0")
    return metrics, problems


def write_spans(tracer, workload: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    fields = ("name", "start", "end", "parent", "run")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": fields, "spans": tracer.spans}, fh)
    return path


def run_one(args, nproc: int) -> int:
    try:
        gowersff = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import spans  # imports gowersff and numpy

    host = host_record(nproc, args.seed)
    items = workloads.items(args.workload, args.seed)
    runner = Runner(gowersff, items, workloads.CheckFailed, spans.Tracer(), spans.instrumented)
    setup = measure_setup() if not args.trace else []
    runs = runner.measure(args.seconds, bool(args.trace))
    problems = list(runner.errors)
    misses = {m for _, _, m in runs}
    if len(misses) != 1:
        problems.append(f"prime_field misses differ across iterations: {[m for _, _, m in runs]}")
    failed_items = len(runner.errors)
    detail = {"workload": args.workload, "host": host, "trace": args.trace,
              "argv": [list(i.argv) for i in items],
              "walls": [[traced, wall] for traced, wall, _ in runs],
              "failed_frac": failed_items / runner.attempted}

    if args.trace:
        metrics, departures = layer_metrics(runner.tracer, runs, args.workload)
        problems += departures
        detail["spans_file"] = str(write_spans(runner.tracer, args.workload, args.seed).relative_to(ROOT))
        wall_t = statistics.median(w for t, w, _ in runs if t)
        for m, v in metrics.items():
            share = f"{v['value'] / wall_t:7.1%}" if v["unit"] == "s" else ""
            print(f"{m:<34} {v['value']:>16.6g} {v['unit']:<5} {share}")
    else:
        walls = [w for _, w, _ in runs]
        detail["wall_s"] = tail(walls)
        detail["setup_s_samples"] = setup
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": runner.first_peak_mb, "unit": "MB"},
        }
        t = detail["wall_s"]
        pct = (f"p{t['percentile']} {t['value']:.4f} s" if t["percentile"]
               else f"no percentile above the median has {TAIL_SAMPLES} samples beyond it")
        print(f"wall_s       {metrics['wall_s']['value']:.4f} s  (median of {t['n']}; {pct})")
        print(f"setup_s      {metrics['setup_s']['value']:.4f} s  (median of {len(setup)})")
        print(f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"failed_frac  {detail['failed_frac']:.4g} frac  ({failed_items} of {runner.attempted} items)")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    detail["problems"] = problems[:20]
    print(json.dumps(detail))
    print(json.dumps({"correct": not problems, "attempted": runner.attempted,
                      "failed": failed_items, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process of its own, as one table."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}")
            total["correct"] = False
            status = 1
            continue
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        print(f"== {workload}")
        print("\n".join(lines[:-2]))
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    nproc = cap_threads()
    if args.workload == "all":
        return run_all(args)
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
