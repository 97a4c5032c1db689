"""One benchmark sample, in a fresh interpreter.

    python3 child.py SRC CONFIG OUT RESULT [--setup-only] [--calibrate]
                     [--trace RUN_ID]

Imports `logbump` from SRC, parses and validates CONFIG, and stamps the
monotonic clock: the parent process took its own stamp before starting
this one, so the difference is the set-up time.  Then it times
`logbump.cli.run` writing its artifacts into OUT, serially, and writes a
JSON result to RESULT.  With --trace the public functions of each module
are wrapped first, and the spans go to OUT/../spans.npz.

With --calibrate, a fixed slice of the pipeline's dominant work (CG steps
with a padded stencil, on arrays of the workload's shape) is timed once
before the run, CALIBRATION_PERIOD seconds after the previous slice while
it runs (from a SIGALRM handler, on the same core), and SETUP_SLICES times
after set-up.  On a shared machine whose speed drifts by a third within
minutes, these slices measure the speed the run actually had.  Their time
is subtracted from run_s.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

import numpy as np

CALIBRATION_PERIOD = 0.5
# CG steps in one slice: about 30 ms on a 2.1 GHz core at either size.
CALIBRATION_STEPS = {1: 1000, 2: 150}
SETUP_SLICES = 3


def apply_op(x, h2):
    """I + 0.05 (-lap_h) with the pipeline's padded stencil, Dirichlet rim."""
    full = np.pad(x, 1)
    lap = 2.0 * x.ndim * x
    for ax in range(x.ndim):
        lo = [slice(1, -1)] * x.ndim
        hi = [slice(1, -1)] * x.ndim
        lo[ax], hi[ax] = slice(None, -2), slice(2, None)
        lap = lap - full[tuple(lo)] - full[tuple(hi)]
    return x + (0.05 / h2) * lap


def calibration_slice(shape) -> float:
    """Seconds for a fixed number of CG steps, restarted every 50 steps.

    It is the benchmark's own code, so it measures the machine and never
    the program under test."""
    b = np.ones(shape)
    h2 = 1.0 / max(shape) ** 2
    t0 = time.perf_counter()
    for step in range(CALIBRATION_STEPS[len(shape)]):
        if step % 50 == 0:
            x = np.zeros(shape)
            r = b.copy()
            p = r.copy()
            rr = float(np.vdot(r, r))
        ap = apply_op(p, h2)
        alpha = rr / float(np.vdot(p, ap))
        x += alpha * p
        r -= alpha * ap
        rr_new = float(np.vdot(r, r))
        p = r + (rr_new / rr) * p
        rr = rr_new
    return time.perf_counter() - t0


class Calibrator:
    """Runs a calibration slice CALIBRATION_PERIOD seconds after the block
    starts and after each slice ends, so slices never overlap."""

    def __init__(self, shape):
        self.shape = shape
        self.slices: list[float] = []

    def _tick(self, signum, frame):
        self.slices.append(calibration_slice(self.shape))
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("src")
    ap.add_argument("config")
    ap.add_argument("out")
    ap.add_argument("result")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--calibrate", action="store_true")
    ap.add_argument("--trace", metavar="RUN_ID")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import logbump.cli as cli

    src = os.path.realpath(args.src)
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"logbump was imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    config = cli.parse_config(args.config)
    result = {"setup_end": time.monotonic()}
    shape = config.grid().interior_shape
    if args.setup_only:
        if args.calibrate:
            result["slices"] = [calibration_slice(shape) for _ in range(SETUP_SLICES)]
    else:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(args.trace)
            tracer.install()
        calibrator = Calibrator(shape)
        before = [calibration_slice(shape)] if args.calibrate else []
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.ExitStack() as stack:
                if args.calibrate:
                    stack.enter_context(calibrator)
                stack.enter_context(contextlib.redirect_stdout(stdout))
                stack.enter_context(contextlib.redirect_stderr(stderr))
                result["status"] = cli.run(config, out_dir=args.out, workers=1)
        except Exception:
            result["error"] = traceback.format_exc()
        result["run_s"] = time.perf_counter() - t0 - sum(calibrator.slices)
        result["slices"] = before + calibrator.slices
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        result["failures"] = [ln for ln in stderr.getvalue().splitlines()
                              if ln.startswith("FAILURE:")]
        if tracer is not None:
            tracer.save(os.path.join(os.path.dirname(args.out), "spans.npz"))
            result["trace"] = tracer.summary()
            result["trace"]["rebound"] = tracer.rebound
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
