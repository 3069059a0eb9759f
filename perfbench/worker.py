"""One fresh interpreter: set up a workload, warm it up, run the timed loop.

Started by run.py, which passes the monotonic clock reading taken just
before the process was spawned, so set-up time includes interpreter start.
The last line of standard output is one JSON object with the results.

Usage: python3 perfbench/worker.py --workload W --seed N --seconds S
       --trace 0|1 --t0 T --workdir DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import sys
import time

import numpy as np

FAIL_EXAMPLES = 5


class Phase:
    """Per-operation records of one measuring phase and their summary."""

    def __init__(self, tail_percentile: float):
        self.tail_percentile = tail_percentile
        self.seconds: list[float] = []
        # Per operation: calib.factor of the kernel time measured around it.
        self.factors: list[float] = []
        self.passed: list[bool] = []
        self.rows: list[int] = []
        self.defects: dict[str, int] = {}
        self.unexpected: list[str] = []
        self.unexpected_count = 0

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    def record(self, op, seconds, result, error):
        fails = op.check(result, error)
        self.seconds.append(seconds)
        self.passed.append(not fails)
        self.rows.append(op.rows(result) if not fails else 0)
        if not fails:
            return
        defect = op.defect(fails, result, error)
        if defect is not None:
            self.defects[defect] = self.defects.get(defect, 0) + 1
            return
        self.unexpected_count += 1
        if len(self.unexpected) < FAIL_EXAMPLES:
            self.unexpected.append(f"{op.kind}: {'; '.join(fails)[:500]}")

    def calibrated(self, factor: float) -> None:
        """Scale the operations since the last calibration by ``factor``."""
        self.factors.extend([factor] * (len(self.seconds) - len(self.factors)))

    @staticmethod
    def _timing(seconds, passed, rows, p_tail) -> dict:
        busy = float(seconds.sum())
        lat_ms = seconds[passed] * 1e3
        n_passed = len(lat_ms)
        p50 = float(np.percentile(lat_ms, 50.0)) if n_passed else 0.0
        tail = float(np.percentile(lat_ms, p_tail)) if n_passed else 0.0
        return {"busy_s": busy, "ops_per_s": n_passed / busy, "rows_per_s": rows / busy,
                "latency_p50_ms": p50, "latency_tail_ms": tail,
                "tail_samples_beyond": int(np.sum(lat_ms > tail))}

    def summary(self) -> dict:
        seconds, passed = np.array(self.seconds), np.array(self.passed)
        factors = np.array(self.factors)
        n_passed = int(passed.sum())
        rows = sum(self.rows)
        p_tail = self.tail_percentile
        return {
            "attempted": len(seconds),
            "not_passed": len(seconds) - n_passed,
            "samples": n_passed,
            **self._timing(seconds * factors, passed, rows, p_tail),
            "raw": self._timing(seconds, passed, rows, p_tail),
            "speed_factor_median": float(np.median(factors)),
            "tail_percentile": p_tail,
            "pass_rate": n_passed / len(seconds),
            "error_rate": 1.0 - n_passed / len(seconds),
            "known_defects": self.defects,
            "unexpected_failures": self.unexpected_count,
            "unexpected_examples": self.unexpected,
        }


def run_phase(workload, seconds, tracer=None) -> Phase:
    """Closed loop, one client: next operation only after the previous one.

    A calibration sample is taken before the first operation and after every
    calib.EVERY_S of operation time; the operations between two samples are
    scaled by the mean kernel time the two samples read.
    """
    import calib  # after set-up is timed, as its scipy import is not the program's

    phase = Phase(workload.TAIL_PERCENTILE)
    deadline = time.perf_counter() + seconds
    kernel_s = calib.sample(calib.SHARE * calib.EVERY_S)
    since = 0.0
    while True:
        op = workload.next_op()
        if tracer is not None:
            tracer.op = phase.attempted
        start = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            result, error = None, exc
        elapsed = time.perf_counter() - start
        phase.record(op, elapsed, result, error)
        since += elapsed
        done = time.perf_counter() >= deadline or (tracer is not None and
                                                    tracer.saturated_op is not None)
        if done or since >= calib.EVERY_S:
            nxt = calib.sample(min(calib.SHARE * since, calib.MAX_SAMPLE_S))
            phase.calibrated(calib.factor(0.5 * (kernel_s + nxt)))
            kernel_s, since = nxt, 0.0
        if done:
            return phase


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    if args.workload != "cli-oneshot":
        import resokit.cli  # noqa: F401 - part of set-up, as for every in-process caller
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, root, args.workdir)
    workload.warmup()
    setup_s = time.monotonic() - args.t0
    import calib  # after set-up is timed, as its scipy import is not the program's

    out = {"setup_s": setup_s, "setup_kernel_s": calib.sample(calib.SETUP_SAMPLE_S)}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if not args.trace:
        out["timed"] = run_phase(workload, args.seconds).summary()
    else:
        # Half the time untraced, half traced, so that the difference between
        # the two phases is the tracing overhead.
        out["untraced"] = run_phase(workload, args.seconds / 2.0).summary()
        # Every traced phase starts at the head of the kind rotation, so its
        # mix of operation kinds does not depend on where the untraced half
        # stopped.
        workload.rewind()
        spans_dir = os.path.join(os.path.dirname(args.workdir), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        if args.workload == "cli-oneshot":
            child_dir = os.path.join(args.workdir, "child-spans")
            os.makedirs(child_dir)
            workload.trace_dir = child_dir
            traced = run_phase(workload, args.seconds / 2.0)
            parts = [spans.load(p) for p in sorted(glob.glob(os.path.join(child_dir, "*.npz")))]
            arrays = spans.merge(parts)
            complete_ops = len(parts)
        else:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_phase(workload, args.seconds / 2.0, tracer)
            finally:
                tracer.uninstall()
            arrays = tracer.arrays()
            complete_ops = (traced.attempted if tracer.saturated_op is None
                            else tracer.saturated_op)
        spans.save(arrays, os.path.join(spans_dir, f"{args.workload}.npz"))
        out["traced"] = traced.summary()
        out["traced_complete_ops"] = complete_ops
        out["spans"] = len(arrays["start"])
        out["layers"] = spans.layer_metrics(arrays, complete_ops,
                                            out["traced"]["speed_factor_median"])

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-oneshot" else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
