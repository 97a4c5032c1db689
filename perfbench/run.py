"""Benchmark of `logbump run`, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each sample is a fresh
interpreter (child.py) that imports `logbump` from ./src, parses the
workload's config and runs the whole pipeline serially, with BLAS pinned
to one thread.  Every sample's artifacts are checked against the seed
reference in perfbench/reference/<workload>/.

--trace 0 reports the end-to-end metrics run_s, setup_s and peak_rss_mb.
The two times are scaled to a fixed machine speed, measured by the
calibration slices each sample process times alongside its work
(child.py); the unscaled times are printed too.
--trace 1 alternates traced and untraced samples and reports the layer
metrics of the traced ones, plus the tracing overhead.  The workloads are
fixed configs with no random input; the seed only picks whether a traced
or an untraced sample goes first.  A sample is started only while the
previous one's duration still fits in the S seconds, so a run measures
for at most S seconds plus one sample.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Per-sample details, the machine
settings and the trace summary go to .perfbench-work/<workload>/.

    python3 perfbench/run.py --workload NAME --record

runs one sample and overwrites the workload's reference with its output.
"""

from __future__ import annotations

import argparse
import csv
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench-work"
SRC = ROOT / "src"

WORKLOADS = {
    "twin-wells-1d": ROOT / "configs" / "twin-wells-1d.cfg",
    "three-wells-1d": BENCH / "configs" / "three-wells-1d.cfg",
    "twin-wells-2d": BENCH / "configs" / "twin-wells-2d.cfg",
}

# Every measured process runs BLAS on one thread: the 2D energies change
# in their last digits with the thread count, and two threads were slower.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}

# energies.csv values may differ from the reference by this share of the
# largest magnitude in their column, plus ENERGY_ATOL for columns that are
# zero up to rounding (min_u).  Tightening the solve from tol = 1e-6 to
# 1e-7 moves lambda_v_mass and outside_norm_sq by 5e-6 of their scale.
ENERGY_RTOL = 1e-4
ENERGY_ATOL = 1e-12
TEXT_COLUMNS = ("gamma", "occupied")

SETUP_REPEATS = 10

# Mean calibration slice time (child.py) at the machine speed that run_s
# and setup_s are scaled to: the median over trial runs on a 2-core
# 2.1 GHz x86-64 VM, whose wall times drifted by up to 40% within minutes.
REFERENCE_SLICE_S = {"twin-wells-1d": 0.030, "three-wells-1d": 0.036,
                     "twin-wells-2d": 0.025}
CHILD_TIMEOUT = 150

# Metric names and units come from BENCHMARK.json; these extra lines are
# printed next to the end-to-end metrics.
DIAGNOSTIC_UNITS = {"wall.run_s": "s", "wall.setup_s": "s", "speed": "x"}


class HarnessError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def declared_metrics() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}}."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "threads": PINNED,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


# -- one sample --------------------------------------------------------------


def spawn(config: Path, sample_dir: Path, setup_only=False, trace_id=None,
          calibrate=False) -> dict:
    """Run child.py once; returns its result with setup_s filled in."""
    sample_dir.mkdir(parents=True)
    result_path = sample_dir / "result.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(SRC), str(config),
           str(sample_dir / "out"), str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    if calibrate:
        cmd.append("--calibrate")
    if trace_id:
        cmd += ["--trace", trace_id]
    env = {**os.environ, **PINNED}
    env.pop("PYTHONPATH", None)
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise HarnessError(f"sample process exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_s"] = result["setup_end"] - t0
    return result


def verdict_statuses(path: Path) -> dict:
    statuses = {}
    with open(path) as fh:
        for line in fh:
            fields = dict(f.split("=", 1) for f in line.split()[:2])
            statuses[fields["criterion"]] = fields["status"]
    return statuses


def read_rows(path: Path) -> dict:
    with open(path, newline="") as fh:
        return {(r["lambda"], r["gamma"]): r for r in csv.DictReader(fh)}


def compare_energies(ref: dict, got: dict) -> list[str]:
    if set(ref) != set(got):
        return [f"energies.csv rows {sorted(got)} != reference {sorted(ref)}"]
    problems = []
    columns = next(iter(ref.values())).keys() - {"lambda", "converged"}
    for col in sorted(columns):
        if col in TEXT_COLUMNS:
            for key, row in ref.items():
                if got[key].get(col) != row[col]:
                    problems.append(f"energies.csv {col} at {key}: "
                                    f"{got[key].get(col)} != {row[col]}")
            continue
        values = [float(row[col]) for row in ref.values()]
        scale = max((abs(v) for v in values if not math.isnan(v)), default=0.0)
        allowed = ENERGY_RTOL * scale + ENERGY_ATOL
        for key, row in ref.items():
            a, b = float(row[col]), float(got[key].get(col, "nan"))
            if math.isnan(a) and math.isnan(b):
                continue
            if not abs(a - b) <= allowed:
                problems.append(f"energies.csv {col} at {key}: {b!r} vs "
                                f"reference {a!r} (allowed {allowed:.3g})")
    return problems


def check_sample(workload: str, result: dict, out: Path) -> list[str]:
    """Reasons the sample failed; empty when it matches the reference."""
    if "error" in result:
        return [result["error"].strip().splitlines()[-1]]
    ref = BENCH / "reference" / workload
    problems = []
    want, got = verdict_statuses(ref / "verdicts.txt"), verdict_statuses(
        out / "verdicts.txt")
    if got != want:
        problems.append(f"verdict statuses {got} != reference {want}")
    ref_rows, rows = read_rows(ref / "energies.csv"), read_rows(out / "energies.csv")
    flags = {k: r["converged"] for k, r in rows.items()}
    want_flags = {k: r["converged"] for k, r in ref_rows.items()}
    if flags != want_flags:
        problems.append(f"converged flags {flags} != reference {want_flags}")
    want_failures = (ref / "failures.txt").read_text().splitlines()
    if result["failures"] != want_failures:
        problems.append(f"solve failures {result['failures']} != {want_failures}")
    return problems + compare_energies(ref_rows, rows)


# -- statistics and output -------------------------------------------------------


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


# -- modes -------------------------------------------------------------------------


class Sampler:
    """Samples of one workload, numbered in the order they ran."""

    def __init__(self, workload: str, work: Path):
        self.workload = workload
        self.config = WORKLOADS[workload]
        self.work = work
        self.count = 0
        self.attempted = 0
        self.failures: list[dict] = []

    def sample(self, setup_only=False, trace_id=None, calibrate=False) -> dict:
        self.count += 1
        sample_dir = self.work / f"sample-{self.count:03d}"
        result = spawn(self.config, sample_dir, setup_only, trace_id, calibrate)
        if not setup_only:
            self.attempted += 1
            try:
                problems = check_sample(self.workload, result, sample_dir / "out")
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable artifacts: {exc!r}"]
            if problems:
                self.failures.append({"sample": self.count, "problems": problems})
            shutil.rmtree(sample_dir / "out", ignore_errors=True)
        return result


def speed_factor(workload: str, slices: list[float]) -> float:
    """How much faster the machine ran than the reference speed."""
    return REFERENCE_SLICE_S[workload] / statistics.fmean(slices)


def rounds(seconds: float):
    """Yields once, then again while one more round of the last round's
    length still fits in `seconds`."""
    start = time.monotonic()
    while True:
        t = time.monotonic()
        yield
        now = time.monotonic()
        if now - start + (now - t) > seconds:
            return


def measure_end_to_end(sampler: Sampler, seconds: float) -> dict:
    setups, setup_walls = [], []
    for _ in range(SETUP_REPEATS):
        result = sampler.sample(setup_only=True, calibrate=True)
        setup_walls.append(result["setup_s"])
        setups.append(result["setup_s"] * speed_factor(sampler.workload,
                                                       result["slices"]))
    runs, walls, rss, speed = [], [], [], []
    for _ in rounds(seconds):
        result = sampler.sample(calibrate=True)
        factor = speed_factor(sampler.workload, result["slices"])
        runs.append(result["run_s"] * factor)
        walls.append(result["run_s"])
        rss.append(result["peak_rss_mb"])
        speed.append(factor)
    return {"run_s": summary(runs), "setup_s": summary(setups),
            "peak_rss_mb": summary(rss), "wall.run_s": summary(walls),
            "wall.setup_s": summary(setup_walls), "speed": summary(speed)}


def measure_layers(sampler: Sampler, seconds: float, seed: int) -> tuple[dict, list]:
    traced, plain = [], []
    order = (True, False) if seed % 2 == 0 else (False, True)
    for _ in rounds(seconds):
        for is_traced in order:
            if is_traced:
                run_id = f"{sampler.workload}-seed{seed}-{sampler.count + 1}"
                traced.append(sampler.sample(trace_id=run_id))
            else:
                plain.append(sampler.sample()["run_s"])
    layer = {name: summary([r["trace"]["metrics"][name] for r in traced])
             for name in traced[0]["trace"]["metrics"]}
    layer["trace.run_s"] = summary([r["run_s"] for r in traced])
    layer["trace.overhead_s"] = {
        "median": layer["trace.run_s"]["median"] - statistics.median(plain),
        "untraced_samples": plain}
    return layer, [r["trace"] for r in traced]


def counters_repeat(traces: list, units: dict) -> bool:
    """Machine-independent counters must agree across traced samples."""
    first = traces[0]["metrics"]
    return all(t["metrics"][k] == first[k] for t in traces
               for k in first if units.get(k) == "count")


def run(args) -> int:
    for needed in (SRC / "logbump" / "cli.py", WORKLOADS[args.workload],
                   ROOT / "BENCHMARK.json"):
        if not needed.exists():
            raise HarnessError(f"missing {needed.relative_to(ROOT)}: run from the "
                               "root of a logbump checkout")
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sampler = Sampler(args.workload, work)
    sampler.sample(setup_only=True)     # fills the bytecode caches; not counted

    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"environment {json.dumps(env)}")
    declared = declared_metrics()
    correct = True
    if args.trace:
        stats, traces = measure_layers(sampler, args.seconds, args.seed)
        units = declared["per_layer"]
        if not counters_repeat(traces, units):
            correct = False
            print("counters differ between traced samples", file=sys.stderr)
        with open(work / "trace.json", "w") as fh:
            json.dump(traces, fh, indent=1)
    else:
        stats = measure_end_to_end(sampler, args.seconds)
        units = {**declared["end_to_end"], **DIAGNOSTIC_UNITS}
    metrics = {name: {"value": stats[name]["median"], "unit": unit}
               for name, unit in declared["per_layer" if args.trace
                                          else "end_to_end"].items()}

    for name, st in stats.items():
        spread = f"  q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  n {st['n']}" if "q1" in st else ""
        print(f"{name:34s} {st['median']:.6g} {units[name]}{spread}")
    for failure in sampler.failures:
        print(f"FAILED sample {failure['sample']}: {'; '.join(failure['problems'])}",
              file=sys.stderr)
    failed = len(sampler.failures)
    print(f"failed {failed} of {sampler.attempted} runs attempted")
    with open(work / "result.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "stats": stats,
                   "failures": sampler.failures}, fh, indent=1)
    print(json.dumps({"correct": correct and failed == 0,
                      "attempted": sampler.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def record(workload: str) -> int:
    """Overwrite the workload's reference with one fresh sample's output."""
    work = WORK / workload / "record"
    shutil.rmtree(work, ignore_errors=True)
    result = spawn(WORKLOADS[workload], work)
    if "error" in result:
        raise HarnessError(result["error"])
    ref = BENCH / "reference" / workload
    ref.mkdir(parents=True, exist_ok=True)
    for name in ("energies.csv", "verdicts.txt"):
        shutil.copyfile(work / "out" / name, ref / name)
    (ref / "failures.txt").write_text("".join(f + "\n" for f in result["failures"]))
    print(f"recorded {ref.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    try:
        return record(args.workload) if args.record else run(args)
    except (HarnessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
