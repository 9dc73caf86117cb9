"""Benchmark of critflow: one workload per run, result as one JSON line.

    python3 bench/run.py --workload spectra-affine --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The run sets up ``SETUP_REPEATS`` times (import ``critflow``, make the
inputs) and reports the median as ``setup_s``. It then runs whole passes
over the workload's ops until ``--seconds`` of op time have been measured,
and at least ``MIN_PASSES``. Every op's outputs are checked
(``workloads.py``), and every pass must repeat the first one exactly.
Times are calibrated by the machine's speed measured around them
(``reference.py``); the wall-clock figures go to stderr.

With ``--trace 1`` the run alternates untraced and traced passes and
reports the per-layer figures of the traced ones (``tracing.py``) and the
tracing overhead; the end-to-end figures come from ``--trace 0`` runs.
The last line of standard output is the result; problems go to stderr.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path

from reference import QUIET_S, Speedometer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"

SETUP_REPEATS = 15
MIN_PASSES = 2


def _import_program():
    """A fresh import of critflow from ``src/``: earlier imports are dropped,
    so every set-up pays for the import."""
    for name in [k for k in sys.modules if k == "critflow" or k.startswith("critflow.")]:
        del sys.modules[name]
    cf = importlib.import_module("critflow")
    importlib.import_module("critflow.cli")
    return cf


class Run:
    def __init__(self, workload, speed: Speedometer):
        self.workload = workload
        self.speed = speed
        self.spans: list[tuple[str, list[float]]] = []  # (op key, [start, end, wall s])
        self.first: dict[str, object] = {}  # op key -> outcome of the first pass
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.bytes_out = 0

    def one_pass(self, tracer=None) -> float:
        """Runs every op once and returns the wall seconds they took. The
        timer samples of the machine's speed stay off while tracing."""
        wl = self.workload
        elapsed = 0.0
        self.speed.sample()
        for op in wl.ops:
            if tracer is not None:
                tracer.op = op.key
            try:
                with self.speed.measure(probe=tracer is None) as span:
                    result = wl.run(op)
            except Exception:  # an op that raises counts as failed
                result, error = None, traceback.format_exc()
            else:
                error = None
            self.speed.sample()
            self.spans.append((op.key, span))
            elapsed += span[2]
            self.attempted += 1
            if error is not None:
                self.failed += 1
                print(f"{op.key} raised:\n{error}", file=sys.stderr)
                continue
            out = wl.check(op, result)
            self.failed += out.failed
            self.bytes_out += out.bytes_out
            self.problems += out.problems
            first = self.first.setdefault(op.key, out)
            if (first.signature, first.points, first.pairs, first.failed) != \
                    (out.signature, out.points, out.pairs, out.failed):
                self.problems.append(f"{op.key}: outputs differ from the first pass")
        return elapsed

    def op_times(self, calibrated: bool) -> dict[str, list[float]]:
        times: dict[str, list[float]] = {op.key: [] for op in self.workload.ops}
        for key, (start, end, wall) in self.spans:
            times[key].append(self.speed.calibrate(start, end, wall) if calibrated else wall)
        return times

    def per_pass(self, attr: str) -> int:
        return sum(getattr(out, attr) for out in self.first.values())

    @staticmethod
    def throughput(times: dict[str, list[float]]) -> tuple[float, float]:
        """Ops per second of a pass in which every op takes its median time
        over the passes, and the median over ops of that time in ms."""
        typical = [statistics.median(t) for t in times.values()]
        return len(typical) / sum(typical), 1e3 * statistics.median(typical)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "critflow" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oracle
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work = WORKLOADS[args.workload]
    (WORK / args.workload).mkdir(parents=True, exist_ok=True)
    speed = Speedometer()
    speed.sample()
    setups = []
    for _ in range(SETUP_REPEATS):
        with speed.measure(probe=False) as span:
            cf = _import_program()
            wl = work()
            wl.setup(cf, args.seed, WORK / args.workload)
        speed.sample()
        setups.append(span)

    run = Run(wl, speed)
    systems = [op.data[0] for op in wl.ops if hasattr(op.data[0], "coeffs")]
    run.problems += oracle.finite_difference_problems(
        [oracle.PolyOracle(s) for s in systems[:6]], args.seed)

    metrics = {}
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        plain, traced = [], []
        while not plain or sum(plain) + sum(traced) < args.seconds:
            plain.append(run.one_pass())
            tracer.install()
            try:
                traced.append(run.one_pass(tracer))
            finally:
                tracer.uninstall()
        tracer.write_spans(WORK / args.workload / "trace-spans.json")
        for name, (value, unit) in tracer.layer_metrics(len(traced)).items():
            metrics[name] = {"value": value, "unit": unit}
        metrics["io.bytes_out"] = {"value": run.bytes_out / (len(plain) + len(traced)),
                                   "unit": "B"}
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    else:
        passes = []
        while len(passes) < MIN_PASSES or sum(passes) < args.seconds:
            passes.append(run.one_pass())
        ops_per_s, op_ms = run.throughput(run.op_times(calibrated=True))
        wall_ops_per_s, wall_op_ms = run.throughput(run.op_times(calibrated=False))
        print(f"wall clock: ops_per_s {wall_ops_per_s:.4f}, op_ms.p50 {wall_op_ms:.2f}, "
              f"reference median {1e3 * statistics.median(speed.samples):.3f} ms "
              f"(quiet {1e3 * QUIET_S:.3f} ms)", file=sys.stderr)
        setup_s = statistics.median(speed.calibrate(*span) for span in setups)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s_cal": {"value": ops_per_s, "unit": "1/s"},
            "op_ms_cal.p50": {"value": op_ms, "unit": "ms"},
            "points_found": {"value": run.per_pass("points"), "unit": "count"},
            "pairs_matched": {"value": run.per_pass("pairs"), "unit": "count"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }

    for line in run.problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    if len(run.problems) > 20:
        print(f"... {len(run.problems) - 20} more problems", file=sys.stderr)
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
