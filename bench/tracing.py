"""Spans around the program's public functions, wrapped from outside.

Each wrapper replaces a function in the module namespace where its caller
looks it up (``cli.run_sweep``, ``montecarlo.draw_channel_batch``, ...), so
the program runs unmodified.  Spans (id, parent, name, start, end, pid,
attributes) stay in memory; a forked worker process appends its spans to a
file in ``spill_dir`` instead, since its memory ends with it.  Clocks are
``time.perf_counter``, which is system-wide on Linux, so worker spans line
up with the parent's.
"""

import collections
import contextlib
import glob
import json
import os
import resource
import statistics
import time

# (module attribute path, span name) of every timed layer boundary
TIMED = (
    ("cli.run_sweep", "montecarlo.run_sweep"),
    ("cli.write_csv", "cli.write"),
    ("montecarlo.snr_samples", "montecarlo.snr_samples"),
    ("montecarlo.draw_channel_batch", "channel.draw"),
    ("montecarlo.batch_gammas", "detectors.batch_gammas"),
    ("analytic.outage_direct", "analytic.d"),
    ("analytic.outage_ris", "analytic.ris"),
    ("analytic.outage_full_clt", "analytic.full"),
    ("analytic.outage_joint", "analytic.joint"),
    ("analytic.adaptive_quad", "specfun.adaptive_quad"),
    ("specfun.adaptive_quad", "specfun.adaptive_quad"),
)
# the Marcum-Q integrand runs ~10^5 times per curve: counted, not timed
COUNTED = (("analytic.marcum_q1_complement", "specfun.marcum_calls"),)

# which layer a span's self time belongs to
LAYER = {
    "bench.rep": "trace",
    "cli.main": "cli",
    "cli.write": "cli",
    "montecarlo.run_sweep": "montecarlo",
    "montecarlo.snr_samples": "montecarlo",
    "channel.draw": "channel",
    "detectors.batch_gammas": "detectors",
    "analytic.d": "analytic",
    "analytic.ris": "analytic",
    "analytic.full": "analytic",
    "analytic.joint": "analytic",
    "specfun.adaptive_quad": "specfun",
}


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tracer:
    def __init__(self, spill_dir):
        self.pid = os.getpid()
        self.spill_dir = spill_dir
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._serial = 0
        self._patches = []

    @contextlib.contextmanager
    def span(self, name):
        self._serial += 1
        span = {"id": f"{os.getpid()}.{self._serial}",
                "parent": self._stack[-1] if self._stack else None,
                "name": name, "pid": os.getpid(), "attrs": {}}
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield span["attrs"]
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            self._record(span)

    def _record(self, span):
        if span["pid"] == self.pid:
            self.spans.append(span)
            return
        path = os.path.join(self.spill_dir, f"spans-{span['pid']}.jsonl")
        with open(path, "a", encoding="ascii") as fh:
            fh.write(json.dumps(span) + "\n")

    def collect_workers(self):
        """Move the spans that worker processes spilled into memory."""
        for path in sorted(glob.glob(os.path.join(self.spill_dir, "spans-*.jsonl"))):
            with open(path, encoding="ascii") as fh:
                self.spans.extend(json.loads(line) for line in fh)
            os.remove(path)

    def install(self, modules):
        """Wrap every boundary in TIMED and COUNTED; ``modules`` maps the
        short module names used there to module objects."""
        from rismimo.channel import uniforms_per_trial

        def annotate(name, attrs, args, result):
            if name == "channel.draw":
                attrs["trials"] = args[2]
                attrs["uniforms"] = args[2] * uniforms_per_trial(args[0])
            elif name == "detectors.batch_gammas":
                ok = result[1]
                attrs["rank_failures"] = int(ok.size - ok.sum())
            elif name == "montecarlo.snr_samples":
                attrs["trials"] = args[2]
                attrs["workers"] = max(1, int(args[5])) if len(args) > 5 else 1
            elif name == "cli.write":
                attrs["bytes"] = os.path.getsize(args[0])

        for path, name in TIMED:
            mod, attr = path.split(".")
            self._patch(modules[mod], attr, self._timed(name, annotate))
        for path, name in COUNTED:
            mod, attr = path.split(".")
            self._patch(modules[mod], attr, self._counted(name))

    def _patch(self, module, attr, make):
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, make(original))

    def _timed(self, name, annotate):
        def make(original):
            def traced(*args, **kwargs):
                with self.span(name) as attrs:
                    cpu = _cpu_seconds() if name == "montecarlo.snr_samples" else None
                    result = original(*args, **kwargs)
                    if cpu is not None:
                        attrs["cpu_s"] = _cpu_seconds() - cpu
                    annotate(name, attrs, args, result)
                return result
            return traced
        return make

    def _counted(self, name):
        def make(original):
            def counted(*args, **kwargs):
                self.counts[name] += 1
                return original(*args, **kwargs)
            return counted
        return make

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = collections.defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        hi = s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            lo, end = max(c["start"], hi), min(c["end"], s["end"])
            if end > lo:
                covered += end - lo
                hi = end
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def rep_metrics(spans, root, marcum_calls):
    """Per-layer figures of one repetition (the tree under ``root``)."""
    children = collections.defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    tree, todo = [], [root]
    while todo:
        s = todo.pop()
        tree.append(s)
        todo.extend(children[s["id"]])
    own = self_times(tree)
    by_name = collections.defaultdict(list)
    layer_self = collections.Counter()
    for s in tree:
        by_name[s["name"]].append(s)
        layer_self[LAYER[s["name"]]] += own[s["id"]]

    def dur(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_of(name):
        return sum(own[s["id"]] for s in by_name[name])

    def attr(name, key):
        return sum(s["attrs"][key] for s in by_name[name])

    def per(total, count, scale=1e3):
        return scale * total / count if count else 0.0

    blocks = len(by_name["channel.draw"])
    calls = len(by_name["detectors.batch_gammas"])
    sample_s = dur("montecarlo.snr_samples")
    pool_wall = sum(s["attrs"]["workers"] * (s["end"] - s["start"])
                    for s in by_name["montecarlo.snr_samples"])
    points = sum(len(by_name[f"analytic.{k}"]) for k in ("d", "ris", "full", "joint"))
    out = {
        "channel.draw_ms_per_block": per(dur("channel.draw"), blocks),
        "channel.blocks": blocks,
        "channel.uniform_mb": attr("channel.draw", "uniforms") * 8 / 1e6,
        "detectors.gammas_ms_per_block": per(dur("detectors.batch_gammas"), calls),
        "detectors.rank_failures": attr("detectors.batch_gammas", "rank_failures"),
        "montecarlo.sample_s": sample_s,
        "montecarlo.trials_per_s": per(attr("montecarlo.snr_samples", "trials"),
                                       sample_s, 1.0),
        "montecarlo.loop_self_s": self_of("montecarlo.snr_samples"),
        "montecarlo.count_s": self_of("montecarlo.run_sweep"),
        "montecarlo.pool_cpu_s": attr("montecarlo.snr_samples", "cpu_s"),
        "montecarlo.pool_efficiency": per(attr("montecarlo.snr_samples", "cpu_s"),
                                          pool_wall, 1.0),
        "analytic.points": points,
        "specfun.quad_calls": len(by_name["specfun.adaptive_quad"]),
        "specfun.quad_s": dur("specfun.adaptive_quad"),
        "specfun.marcum_calls": marcum_calls,
        "cli.write_ms": 1e3 * dur("cli.write"),
        "cli.output_kb": attr("cli.write", "bytes") / 1024,
        "trace.run_s": root["end"] - root["start"],
        "trace.unaccounted_s": own[root["id"]],
    }
    for k in ("d", "ris", "full", "joint"):
        name = f"analytic.{k}"
        out[f"analytic.{k}_ms_per_point"] = per(dur(name), len(by_name[name]))
    for layer in ("cli", "montecarlo", "channel", "detectors", "analytic", "specfun"):
        out[f"{layer}.self_s"] = layer_self[layer]
    return out


def median_metrics(per_rep):
    return {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
