"""Benchmark of the rismimo outage-curve CLI.

    python3 bench/run.py --workload fig1 --seed 1 --seconds 15 --trace 0

Runs the workload's CLI invocations through ``rismimo.cli.main`` (manifest,
``run_sweep``, CSV file) in repetitions until ``--seconds`` of timed work
are done, checks every output file, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (medians over
repetitions); with ``--trace 1`` half the time runs untraced and half with
spans around each layer, and the metrics are the per-layer ones.  See
bench/README.md for the workloads and what each metric should move.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with status 1 and prints no result.
"""

import os

# One BLAS thread per process, fixed before numpy loads: the fig2-workers2
# pool runs two worker processes, and the machine the reference figures
# come from has two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import SEED_LIMIT, WORKLOADS, cli_seed  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT = os.path.join(BENCH_DIR, "out")
MIN_REPS = 3
SETUP_PROBES = 5
SCHEME_REPEATS = 5
# the calibration kernel's time on the reference machine (see README.md)
CALIBRATION_REF_S = 0.015


def load_program():
    sys.path.insert(0, SRC)
    try:
        import rismimo.cli
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import rismimo from {SRC}: {exc}")
    if not os.path.abspath(rismimo.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: rismimo was imported from {rismimo.cli.__file__}, "
                 f"not from {SRC}")
    return rismimo


def run_cli(cli, argv, sink):
    with contextlib.redirect_stdout(sink):
        return cli.main(argv)


class Bench:
    def __init__(self, program, workload, seed, out_dir, sink):
        self.program = program
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.sink = sink
        self.between = None  # untimed work after a repetition; true if any ran
        self.next_rep = 0
        self.attempted = 0
        self.failed = 0
        self.error = None

    def rep(self, tracer=None):
        """One timed repetition; returns its wall time, checks after it."""
        r = self.next_rep
        self.next_rep += 1
        argvs = [c.argv(self.seed, r, i, self.out_dir)
                 for i, c in enumerate(self.workload.curves)]
        statuses = []
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext({}))
        marcum = tracer.counts["specfun.marcum_calls"] if tracer else 0
        start = time.perf_counter()
        with span("bench.rep") as attrs:
            for argv in argvs:
                with span("cli.main"):
                    statuses.append(run_cli(self.program.cli, argv, self.sink))
        elapsed = time.perf_counter() - start
        if tracer:
            attrs["marcum_calls"] = tracer.counts["specfun.marcum_calls"] - marcum
        self.attempted += len(argvs)
        self.failed += sum(status != 0 for status in statuses)
        if self.error is None:
            try:
                self.check(r, statuses)
            except checks.CheckFailed as exc:
                self.error = str(exc)
                print(f"benchmark: check failed: {exc}", file=sys.stderr)
        return elapsed

    def check(self, r, statuses):
        rows = {}
        for i, (curve, status) in enumerate(zip(self.workload.curves, statuses)):
            if status != 0:
                continue
            seed_value = cli_seed(self.seed, r, i)
            path = curve.output(self.out_dir)
            rows[curve.label] = checks.check_curve(curve, r, seed_value, path)
            if r == 0:
                self.check_once(curve, i, seed_value, path)
        for label, quad in rows.items():
            printed = label.replace("-quadrature", "-printed")
            if label.endswith("-quadrature") and printed in rows:
                checks.check_printed_matches_quadrature(
                    f"{label} rep {r}", quad, rows[printed])

    def check_once(self, curve, index, seed_value, path):
        """Checks made on the first repetition of each run only."""
        if curve.joint_method != "printed":  # same draws as its quadrature twin
            checks.check_first_block(curve, seed_value)
        if curve.workers > 1:
            with open(path, "rb") as fh:
                pooled = fh.read()
            argv = curve.argv(self.seed, 0, index, self.out_dir, workers=1)
            if run_cli(self.program.cli, argv, self.sink) != 0:
                raise checks.CheckFailed(f"{curve.label}: workers=1 run failed")
            with open(path, "rb") as fh:
                if fh.read() != pooled:
                    raise checks.CheckFailed(
                        f"{curve.label}: CSV bytes differ between workers="
                        f"{curve.workers} and workers=1")

    def reps_for(self, seconds, tracer=None):
        """Repeat until ``seconds`` of timed work and MIN_REPS are done.
        Returns the wall times scaled to the reference machine speed, and
        the scale factors."""
        speed = Calibrated()
        times = []
        while (sum(times) < seconds or len(times) < MIN_REPS) and self.error is None:
            times.append(self.rep(tracer))
            speed.scale(times[-1])
            if self.between and self.between(sum(times)):
                speed.refresh()
        return speed.scaled, speed.factors


def calibration_seconds():
    """Median of 3 timings of a fixed kernel that mixes the kinds of work the
    program does: interpreted Python, many small NumPy calls, a batched
    LAPACK QR and an elementwise transcendental.  It does not touch the
    program, so its time tracks only the machine's momentary speed."""
    stack = np.random.default_rng(0).standard_normal((256, 24, 12))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i
        for matrix in stack:
            for _ in range(8):
                matrix.sum()
        np.linalg.qr(stack)
        np.exp(stack)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Calibrated:
    """Times scaled to the reference machine speed: a time t measured
    between calibrations c0 and c1 becomes t * CALIBRATION_REF_S /
    ((c0 + c1) / 2)."""

    def __init__(self):
        self.last = calibration_seconds()
        self.scaled = []
        self.factors = []

    def scale(self, seconds):
        now = calibration_seconds()
        factor = CALIBRATION_REF_S / (0.5 * (self.last + now))
        self.last = now
        self.scaled.append(seconds * factor)
        self.factors.append(factor)

    def refresh(self):
        """Calibrate again, after untimed work that ran since the last one."""
        self.last = calibration_seconds()


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class SetupProbes:
    """Set-up time: from spawning a fresh interpreter to the end of its
    warm-up CLI call.  SETUP_PROBES interpreters run between repetitions,
    spread over the timed span, so their median covers the same stretch of
    machine load as ``run_s``.  A launcher process starts them, so that
    their memory reaches this process's RUSAGE_CHILDREN only when the
    launcher is reaped, after ``peak_rss_mb`` has been read."""

    def __init__(self, workload, seed, seconds):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", "0",
               "--probe-launcher"]
        self.launcher = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, text=True)
        self._read()  # wait until the launcher has loaded
        self.due = [k * seconds / SETUP_PROBES for k in range(SETUP_PROBES)]
        self.samples = []

    def _read(self):
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("set-up probe launcher exited early")
        return line

    def __call__(self, timed):
        """Run the probes that are due after ``timed`` seconds of work;
        true if any ran."""
        ran = False
        while self.due and timed >= self.due[0]:
            self.due.pop(0)
            self.launcher.stdin.write("probe\n")
            self.launcher.stdin.flush()
            self.samples.append(float(self._read()))
            ran = True
        return ran

    def median(self):
        self(math.inf)
        return statistics.median(self.samples)

    def close(self):
        self.launcher.stdin.close()
        self.launcher.wait(timeout=120)


def launch_probes(args):
    """Launcher loop: one probe interpreter per line read from stdin; print
    each one's set-up time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--probe"]
    print("ready", flush=True)
    for _ in sys.stdin:
        before = calibration_seconds()
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        wall = float(done.stdout.split()[-1]) - start
        factor = CALIBRATION_REF_S / (0.5 * (before + calibration_seconds()))
        print(repr(wall * factor), flush=True)
    return 0


def scheme_ms_per_block(workload):
    """Each scheme's detector time on one drawn block, alone, weighted by
    the blocks each curve of the workload draws per repetition."""
    from rismimo.channel import SeedSpec, SystemConfig, draw_channel_batch
    from rismimo.detectors import Scheme, batch_gammas

    totals = dict.fromkeys(Scheme, 0.0)
    blocks = 0
    for curve in workload.curves:
        cfg = SystemConfig(curve.n, curve.m, curve.l, gain_direct=curve.gain,
                           gain_tx_ris=curve.gain, gain_ris_rx=curve.gain)
        batch = draw_channel_batch(cfg, SeedSpec(0, 0), min(curve.trials, 1024))
        weight = -(-curve.trials // 1024)
        blocks += weight
        for scheme in Scheme:
            times = []
            for _ in range(SCHEME_REPEATS):
                start = time.perf_counter()
                batch_gammas(batch, cfg, (scheme,))
                times.append(time.perf_counter() - start)
            totals[scheme] += weight * statistics.median(times)
    return {f"detectors.{s.value}_ms_per_block": 1e3 * t / blocks
            for s, t in totals.items()}


def end_to_end(bench, args):
    probes = SetupProbes(args.workload, args.seed, args.seconds)
    bench.between = probes
    try:
        times, _ = bench.reps_for(args.seconds)
        metrics = {
            "run_s": (statistics.median(times), "s"),
            "trials_per_s": (statistics.median(
                bench.workload.trials_per_rep / t for t in times), "trials/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        if bench.error is None:
            metrics["setup_s"] = (probes.median(), "s")
    finally:
        probes.close()
    return metrics


def per_layer(bench, args):
    from rismimo import analytic, cli, montecarlo, specfun

    untraced, _ = bench.reps_for(args.seconds / 2.0)
    spill = os.path.join(OUT, "trace", "spill")
    os.makedirs(spill, exist_ok=True)
    tracer = tracing.Tracer(spill)
    tracer.install({"cli": cli, "montecarlo": montecarlo,
                    "analytic": analytic, "specfun": specfun})
    try:
        traced, factors = bench.reps_for(args.seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    tracer.collect_workers()
    tracer.dump(os.path.join(OUT, "trace", f"{args.workload}-seed{args.seed}.jsonl"))
    roots = [s for s in tracer.spans if s["name"] == "bench.rep"]
    values = tracing.median_metrics([
        tracing.rep_metrics(tracer.spans, root, root["attrs"]["marcum_calls"])
        for root in roots])
    values.update(scheme_ms_per_block(bench.workload))
    values["trace.speed_factor"] = statistics.median(factors)
    values["trace.untraced_run_s"] = statistics.median(untraced)
    values["trace.overhead_s"] = statistics.median(traced) - values["trace.untraced_run_s"]
    return {name: (value, unit_of(name)) for name, value in values.items()}


def unit_of(name):
    if name.endswith("trials_per_s"):
        return "trials/s"
    if name.endswith(("efficiency", "factor")):
        return "ratio"
    for suffix, unit in (("_ms", "ms"), ("_ms_per_block", "ms"),
                         ("_ms_per_point", "ms"), ("_s", "s"), ("_mb", "MB"),
                         ("_kb", "KB")):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probe-launcher", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < SEED_LIMIT:
        ap.error(f"--seed must lie in [0, {SEED_LIMIT})")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.probe_launcher:
        return launch_probes(args)
    program = load_program()
    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(OUT, workload.name)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.devnull, "w", encoding="ascii") as sink:
        if args.probe:
            status = run_cli(program.cli, workload.curves[0].warmup_argv(args.seed, out_dir), sink)
            print(repr(time.monotonic()))
            return status
        run_cli(program.cli, workload.curves[0].warmup_argv(args.seed, out_dir), sink)
        bench = Bench(program, workload, args.seed, out_dir, sink)
        metrics = (per_layer if args.trace else end_to_end)(bench, args)
    result = {
        "correct": bench.error is None,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
