"""The benchmark's workloads: each is a fixed list of CLI curves.

A repetition runs every curve of its workload once, through
``rismimo.cli.main``.  Repetition r of a run with benchmark seed s gives
curve c the master seed ``(s << 16) + 16 * r + c`` and shifts its sweep grid
by a fraction of one step that depends on r only.  So no two repetitions ask
the program for the same samples or the same analytic points, every run of a
workload does the same amount of work, and the same seed gives the same
inputs.
"""

import dataclasses

SEED_LIMIT = 2**40
GOLDEN = 0.6180339887498949
TRIALS_PER_BLOCK = 1024


@dataclasses.dataclass(frozen=True)
class Curve:
    """One CLI invocation: a configuration, a sweep grid and the flags."""

    label: str
    n: int
    m: int
    l: int
    sweep: str              # "snr_db" or "rate"
    start: float
    stop: float
    step: float
    trials: int
    preset: str = None      # None: plain --n/--m/--l with unit gains
    gain: float = 1.0       # every link variance (the fig2 preset uses 0.7)
    snr_db_fixed: float = 0.0   # transmit SNR of a rate sweep
    rate_fixed: float = 3.0     # target rate of an SNR sweep
    scale_mode: str = "derived"
    joint_method: str = "quadrature"
    workers: int = 1

    def grid(self, rep):
        """Sweep values of repetition ``rep``, as the CLI will rebuild them."""
        offset = self.step * ((rep * GOLDEN) % 1.0) * 0.5
        count = int(round((self.stop - self.start) / self.step))
        return [self.start + offset + k * self.step for k in range(count + 1)]

    def argv(self, seed, rep, index, out_dir, workers=None):
        grid = self.grid(rep)
        spec = f"{grid[0]!r}:{grid[-1]!r}:{self.step!r}"
        args = ["--preset", self.preset] if self.preset else [
            "--n", str(self.n), "--m", str(self.m), "--l", str(self.l)]
        if self.preset == "fig1":
            args += ["--l", str(self.l)]
        args += [
            # one token: a grid that starts below zero looks like a flag
            f"--{'snr-db' if self.sweep == 'snr_db' else 'rate'}={spec}",
            "--scale-mode", self.scale_mode,
            "--joint-method", self.joint_method,
            "--trials", str(self.trials),
            "--seed", str(cli_seed(seed, rep, index)),
            "--workers", str(self.workers if workers is None else workers),
            "--output", self.output(out_dir),
        ]
        return args

    def output(self, out_dir):
        return f"{out_dir}/{self.label}.csv"

    def warmup_argv(self, seed, out_dir):
        """A one-block, one-point version of this curve, for set-up."""
        small = dataclasses.replace(
            self, label=f"{self.label}-warmup", stop=self.start,
            trials=min(self.trials, TRIALS_PER_BLOCK),
        )
        return small.argv(seed, 0, 0, out_dir)


def cli_seed(seed, rep, index):
    return (seed << 16) + 16 * rep + index


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    curves: tuple

    @property
    def trials_per_rep(self):
        return sum(c.trials for c in self.curves)


FIG1 = dict(label="fig1", n=32, m=12, l=16, preset="fig1", sweep="snr_db",
            start=-10.0, stop=10.0, step=1.0)
FIG2 = dict(label="fig2", n=32, m=14, l=16, preset="fig2", sweep="rate",
            start=0.5, stop=6.0, step=0.5, gain=0.7, snr_db_fixed=3.0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig1", (Curve(**FIG1, trials=4 * TRIALS_PER_BLOCK),)),
        Workload("small-arrays", (
            Curve("n4m2l2", 4, 2, 2, "snr_db", -10.0, 10.0, 1.0,
                  trials=48 * TRIALS_PER_BLOCK),
            Curve("n8m4l8", 8, 4, 8, "snr_db", -10.0, 10.0, 1.0,
                  trials=16 * TRIALS_PER_BLOCK),
        )),
        # a quarter block of trials keeps sampling a small share of the time
        Workload("paper-analytic", tuple(
            Curve(**dict(base, label=f"{base['label']}-{method}", step=step),
                  trials=TRIALS_PER_BLOCK // 4, scale_mode="paper",
                  joint_method=method)
            for base, step in ((FIG1, 0.25), (FIG2, 0.125))
            for method in ("quadrature", "printed")
        )),
        Workload("fig2-workers2", (
            Curve(**FIG2, trials=8 * TRIALS_PER_BLOCK, workers=2),)),
    )
}
