"""permres benchmark: time to a certified resolution, and to a verify verdict.

Run from the root of the repository:

    python3 perfbench/run.py --workload resolve-small --seed 1 --seconds 30 --trace 0

Workloads: resolve-small, resolve-deep, verify (see README.md here).
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps each layer's public functions and reports per-layer
metrics, writing every span to ``.perfbench_work/``.  A line of details
(workload identity, environment, pass times, failures) comes first; the
last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
PACKAGE_FILES = (
    "__init__", "cli", "complexes", "config", "errors", "groups",
    "io", "linalg", "modules", "permutation", "random_modules", "resolution",
)


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def src_lines() -> dict[str, int]:
    out = {}
    for path in sorted((SRC / "permres").glob("*.py")):
        with open(path, "rb") as fh:
            out[path.stem] = sum(1 for _ in fh)
    return out


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(lines: dict[str, int]) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "src_lines": lines,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(wl) -> float:
    gc.collect()
    t0 = time.perf_counter()
    wl.setup()
    wl.warm_up()
    return time.perf_counter() - t0


def timed_passes(wl, seconds: float, tracer=None, setups=None):
    """Run passes until ``seconds`` have elapsed (at least one).

    Returns (pass times, per-item times of each pass, failure messages).
    Outputs are checked after each pass, outside the timed region and with
    the tracer removed.  When a list of set-up times is given, set-up is
    repeated at evenly spaced points of the run until it holds
    SETUP_REPEATS samples, so that the samples meet different load.
    """
    times, item_times, failures = [], [], []
    start = time.perf_counter()
    while True:
        on_item = None
        if tracer is not None:
            k = len(times)

            def on_item(label, k=k):
                tracer.item = f"pass{k}:{label}"

            tracer.install()
        gc.collect()
        t0 = time.perf_counter()
        try:
            outcomes = wl.run_pass(on_item)
            times.append(time.perf_counter() - t0)
        finally:
            if tracer is not None:
                tracer.uninstall()
        item_times.append([out.seconds for out in outcomes])
        failures += wl.check(outcomes)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return times, item_times, failures
        due = setups is not None and len(setups) < SETUP_REPEATS
        if due and elapsed >= seconds * len(setups) / SETUP_REPEATS:
            setups.append(timed_setup(wl))


def run(args) -> tuple[dict, dict]:
    t_start = time.perf_counter()
    import workloads
    from tracing import Tracer

    import_s = time.perf_counter() - t_start
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, args.seed, str(workdir))
        lines = src_lines()
        details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
        metrics: dict[str, float] = {}
        failures: list[str] = []
        if not args.trace:
            setups = [timed_setup(wl)]
            times, item_times, failures = timed_passes(wl, args.seconds, setups=setups)
            details["item_times_s"] = item_times
            attempted = len(times) * len(wl.items)
            # Each item's median over the passes, summed: short samples fall
            # wholly inside or outside a period of contention from other
            # tenants, so their medians move less than medians of whole passes.
            metrics["wall_s"] = sum(statistics.median(col) for col in zip(*item_times))
            metrics["setup_s"] = import_s + statistics.median(setups)
            metrics.update(wl.shape_metrics())
            metrics["peak_rss_mb"] = peak_rss_mb()
            details["import_s"] = import_s
            details["setup_times_s"] = setups
        else:
            tracer = Tracer()
            tracer.item = "setup"
            tracer.install()
            try:
                wl.setup()
                wl.warm_up()
            finally:
                tracer.uninstall()
            plain, _, failures = timed_passes(wl, args.seconds / 2)
            traced, _, more = timed_passes(wl, args.seconds / 2, tracer)
            failures += more
            attempted = (len(plain) + len(traced)) * len(wl.items)
            problems = tracer.check_tree()
            failures += [f"span tree: {msg}" for msg in problems]
            metrics.update(tracer.layer_metrics(len(traced)))
            metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
            for stem in PACKAGE_FILES:
                metrics[f"src.lines.{stem}"] = lines.get(stem, 0)
            metrics["src.lines"] = sum(lines.values())
            path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(str(path), {"workload": args.workload, "seed": args.seed})
            details["trace_file"] = str(path.relative_to(ROOT))
            details["spans"] = len(tracer.spans)
            details["untraced_pass_times_s"] = plain
            times = traced
        negative = wl.negative_control()
        if negative is not None:
            attempted += 1
            details["negative_control"] = negative
            if not negative["rejected"]:
                failures.append(f"negative control not rejected: {negative}")
        details["passes"] = len(times)
        details["pass_times_s"] = times
        details["items"] = wl.identities()
        details["environment"] = environment(lines)
        details["failures"] = failures[:20]
        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": metrics,
        }
        return details, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("resolve-small", "resolve-deep", "verify"))
    parser.add_argument("--seed", type=int, default=0, help="0 uses the acceptance-6 seeds")
    parser.add_argument("--seconds", type=float, default=30.0, help="how long to run passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "permres" / "__init__.py").is_file():
        print(f"error: no permres sources under {SRC}", file=sys.stderr)
        return 2
    # Set before numpy loads: OpenBLAS is the only thread pool, and one
    # thread keeps timings steady on a small machine.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    units = declared_units(args.trace)
    details, result = run(args)
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    print(json.dumps(details, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
