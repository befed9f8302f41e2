"""Benchmark for dtst: `dtst train` then `dtst eval`, in process, per workload.

    python3 perfbench/run.py --workload bench_cfg --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics from spans with `--trace 1`. Details,
workloads and reference numbers are in perfbench/README.md.
"""

import os

# One BLAS thread: the matrices are small, and a second thread only adds
# contention with other load on the machine. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import probe  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHIPPED_CONFIG = ROOT / "configs" / "benchmark.cfg"
SETUP_REPEATS = 7    # at least this many set-ups per run,
SETUP_SECONDS = 1.0  # and at least this much time spent on them
TAIL_STEPS = 100     # a traced run times at least this many training steps,
                     # so that ten lie beyond the step time's 90th percentile

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "embed_samples_per_s": "samples/s",
    "queries_per_s": "queries/s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ag_map": "fraction",
    "ag_rank1": "fraction",
    "final_loss": "loss",
}


def layer_unit(name):
    for suffix, unit in (("ms", "ms"), (".median", "ms"), (".p90", "ms"),
                         ("_us", "us"), ("samples_per_s", "samples/s"),
                         ("_s", "s"), ("precision_at_k", "fraction")):
        if name.endswith(suffix):
            return unit
    return "count"


def load_dtst():
    """Import dtst from this checkout's src/, or None if it is not there."""
    src = ROOT / "src"
    if not (src / "dtst" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"dtst.{name}") for name in (
        "cli", "config", "data", "evaluate", "losses", "model", "optim",
        "selector", "tensor", "train")}
    if Path(mods["cli"].__file__).resolve().parent != src / "dtst":
        return None
    return argparse.Namespace(**mods)


class Run:
    """One benchmark run: set-up repeats, train+eval rounds, checks, metrics."""

    def __init__(self, dtst, workload, seed, seconds, trace):
        self.dtst = dtst
        self.wl = workloads.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.spans_path = HERE / "_runs" / f"{workload}-spans.npz"
        self.dir = HERE / "_runs" / f"{workload}-{os.getpid()}"
        self.dir.mkdir(parents=True)
        self.patches = tracer.Patches()
        self.tracer = tracer.Tracer() if trace else None
        if self.tracer:
            self.tracer.install(self.patches, dtst)
        # traced runs report only per-layer times, which the probe would blur
        self.clock = (tracer.Clock() if trace else
                      tracer.Clock(probe.probe_seconds, probe.PERIOD_S, probe.REFERENCE_S))
        self.clock.install(self.patches, dtst)
        self.commands = {"train": [], "eval": []}  # (start, seconds) per command
        self.attempted = 0
        self.failed = 0

    def seed_of(self, round_index):
        return workloads.dtst_seed(self.seed, round_index)

    def span(self, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.span(name, fn)(*args)

    def set_up(self):
        """Write and load the workload config, generate both splits."""
        path = SHIPPED_CONFIG
        if self.wl.config:
            path = self.dir / "workload.cfg"
            path.write_text(self.wl.config)
        cfg = self.dtst.config.load_config(path)
        cfg.values["seed"] = self.seed_of(0)
        train = self.dtst.data.generate_dataset(cfg.gen_config("train"))
        test = self.dtst.data.generate_dataset(cfg.gen_config("test"))
        return path, cfg, train, test

    def command(self, name, argv):
        gc.collect()  # start each command as clean as a fresh process would
        start = self.clock.start()
        rc = self.span(f"cli.{name}", self.dtst.cli.main, [name] + argv)
        self.commands[name].append((start[0], self.clock.busy(start)))
        self.attempted += 1
        self.failed += rc != 0
        return rc

    def rounds(self, cfg_path, steps_per_epoch):
        """The workload's train+eval rounds, and more while the run's seconds
        are not spent (or, traced, fewer than TAIL_STEPS steps are timed).
        Returns the reference round's (A<->G mAP, A<->G Rank-1,
        mean loss over the last epoch)."""
        quality = None
        start = perf_counter()
        r = 0
        while (r < self.wl.rounds or perf_counter() - start < self.seconds
               or (self.tracer and self.steps_timed() < TAIL_STEPS)):
            out = self.dir / f"r{r}"
            argv = ["--config", str(cfg_path), "--seed", str(self.seed_of(r)),
                    "--out", str(out)]
            rc = self.command("train", argv)
            for _ in range(self.wl.evals):
                rc = self.command("eval", argv) or rc
            if r == 0 and rc == 0:
                ag = checks.read_report(out / "report.jsonl")["A<->G"]
                losses = checks.read_losses(out / "train_log.csv")
                quality = (ag["mAP"], ag["rank1"],
                           statistics.fmean(losses[-steps_per_epoch:]))
            r += 1
        return quality

    def steps_timed(self):
        return sum(len(marks) for marks, _ in self.clock.trainings)

    def check(self, cfg, test, steps_per_epoch):
        """Checks on the reference round and the first round made from the
        seed (that one without the untrained baseline, the costliest check);
        {name: (ok, detail)}."""
        results = {}
        for r in range(2):
            if r:
                cfg.values["seed"] = self.seed_of(r)
                test = self.dtst.data.generate_dataset(cfg.gen_config("test"))
            found = checks.run_checks(
                self.dtst, cfg, self.seed_of(r), self.dir / f"r{r}", test,
                self.clock.trained[r], self.clock.loaded[r * self.wl.evals],
                steps_per_epoch, baseline=r == 0)
            results.update({f"{name}[round {r}]": v for name, v in found.items()})
        return results

    def end_to_end(self, slowdown, setup, quality, peak_rss_mb):
        """End-to-end metrics; `slowdown(t0, t1)` scales each timed interval
        (rates are multiplied by it, times divided)."""
        def rate(chunks):
            return statistics.median(n / s * slowdown(t, t + s) for t, n, s in chunks)

        def seconds(intervals):
            return statistics.median(s / slowdown(t, t + s) for t, s in intervals)

        per_protocol = {}
        for protocol, t, s, queries in self.clock.protocols:
            per_protocol.setdefault(protocol, (queries, []))[1].append((t, s))
        clock = self.clock
        return {
            "setup_s": seconds(setup),
            "train_samples_per_s": rate(clock.chunks(clock.trainings, self.wl.chunk_steps)),
            "embed_samples_per_s": rate(clock.chunks(clock.embeddings, 1)),
            "queries_per_s": sum(q for q, _ in per_protocol.values()) / sum(
                seconds(calls) for _, calls in per_protocol.values()),
            "wall_s": seconds(self.commands["train"]) + seconds(self.commands["eval"]),
            "peak_rss_mb": peak_rss_mb,
            "ag_map": quality[0] if quality else 0.0,
            "ag_rank1": quality[1] if quality else 0.0,
            "final_loss": quality[2] if quality else 0.0,
        }

    def execute(self):
        setup = []
        while len(setup) < SETUP_REPEATS or sum(s for _, s in setup) < SETUP_SECONDS:
            start = self.clock.start()
            cfg_path, cfg, train, test = self.span("bench.setup", self.set_up)
            setup.append((start[0], self.clock.busy(start)))
        steps_per_epoch = max(1, len(train) // (cfg["train.batch_p"] * cfg["train.batch_k"]))
        quality = self.rounds(cfg_path, steps_per_epoch)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.patches.restore()

        results = self.check(cfg, test, steps_per_epoch) if self.failed == 0 else {}
        for name, (ok, detail) in results.items():
            print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
        correct = self.failed == 0 and all(ok for ok, _ in results.values())

        unscaled = self.end_to_end(lambda t0, t1: 1.0, setup, quality, peak_rss_mb)
        print("unscaled", json.dumps(unscaled))
        if self.tracer:
            self.tracer.save(self.spans_path)
            values = self.tracer.summary(tracer.TENSOR_OPS)
            values["train.traced_samples_per_s"] = unscaled["train_samples_per_s"]
            units = {k: layer_unit(k) for k in values}
        else:
            values = self.end_to_end(self.clock.slowdown, setup, quality, peak_rss_mb)
            units = END_TO_END_UNITS
        shutil.rmtree(self.dir)
        return {"correct": correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    dtst = load_dtst()
    if dtst is None:
        print(f"error: no dtst sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = Run(dtst, args.workload, args.seed, args.seconds, args.trace).execute()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
