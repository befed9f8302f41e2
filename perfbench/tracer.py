"""Run-time hooks around dtst's public functions, installed from outside.

Two kinds of hook share one patching mechanism:

* `Clock` timestamps the boundaries of the end-to-end phases (training
  steps, embedding batches, protocol scoring) and runs the machine-speed
  probe of probe.py at those boundaries. It is installed in every run,
  traced or not; only untraced runs probe.
* `Tracer` records a span (name, start, end, parent) around every public
  function of every dtst module and every autodiff op, forward and
  backward. It is installed only for `--trace 1`. Spans are kept in
  growable `array` buffers and written out when the run ends.

Functions are replaced where their callers look them up: `dtst.train`
imports `Tape`, `backward`, `pk_batch` and `batch_arrays` by name, so those
are patched on `dtst.train`; every other caller goes through a module
attribute (`T.matmul`, `model_mod.save_checkpoint`, ...), which the patch
on the defining module reaches.
"""

from __future__ import annotations

import bisect
import statistics
import weakref
from array import array
from time import perf_counter

import numpy as np


class Patches:
    """Attribute replacements that can all be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def wrap(self, module, attr, make):
        original = getattr(module, attr)
        setattr(module, attr, make(original))
        self._undo.append((module, attr, original))

    def restore(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# end-to-end phase clock


class Clock:
    """Timestamps at the boundaries of the phases the end-to-end metrics
    time, plus the trained and loaded parameters the checks compare.

    A training is cut into steps at each `pk_batch` call, an embedding into
    batches at each `batch_arrays` call; both end when the enclosing call
    returns. At these boundaries, before each ranked query and wherever
    `pause` is called, the machine-speed probe runs if it is due; its time
    is left out of every phase."""

    def __init__(self, probe=None, period=0.0, reference=1.0):
        self.trainings = []   # ([(mark, resume, samples)], end) per train_run
        self.embeddings = []  # ([(mark, resume, samples)], end) per embed_samples
        self.protocols = []   # (protocol, start, seconds, queries) per evaluate_protocol
        self.trained = []     # {name: array} after each train_run
        self.loaded = []      # {name: array} from each load_checkpoint
        self.probes = []      # (end time, seconds) per probe run
        self._probe = probe
        self._period = period
        self._reference = reference
        self._last_probe = float("-inf")
        self._probed = 0.0    # total probe seconds so far
        self._marks = []

    def pause(self):
        """Run the probe if it is due; returns (time paused, time resumed)."""
        t = perf_counter()
        if self._probe is None or t - self._last_probe < self._period:
            return t, t
        seconds = self._probe()
        self._last_probe = perf_counter()
        self._probed += seconds
        self.probes.append((self._last_probe, seconds))
        return t, self._last_probe

    def start(self):
        """A start point for `busy`, after running the probe if it is due."""
        _, t = self.pause()
        return t, self._probed

    def busy(self, start):
        """Seconds since `start`, probe time left out."""
        return perf_counter() - start[0] - (self._probed - start[1])

    def slowdown(self, t0, t1):
        """Probe time around [t0, t1] over its reference time: the median of
        the probes that ended inside the interval, else the last one before
        it, else 1. Above 1 when the machine ran slow."""
        lo = bisect.bisect_left(self.probes, (t0, 0.0))
        hi = bisect.bisect_right(self.probes, (t1, float("inf")))
        inside = [s for _, s in self.probes[lo:hi]] or [s for _, s in self.probes[lo - 1:lo]]
        return statistics.median(inside) / self._reference if inside else 1.0

    def install(self, patches, dtst):
        clock = self

        def bounded(log, on_return=None):
            def make(fn):
                def wrapper(*args, **kwargs):
                    marks = clock._marks = []
                    out = fn(*args, **kwargs)
                    log.append((marks, perf_counter()))
                    if on_return:
                        on_return(args)
                    return out
                return wrapper
            return make

        def mark(samples):
            def make(fn):
                def wrapper(*args, **kwargs):
                    clock._marks.append(clock.pause() + (samples(*args),))
                    return fn(*args, **kwargs)
                return wrapper
            return make

        def evaluate_protocol(fn):
            def wrapper(embeddings, ids, views, protocol, **kwargs):
                start = clock.start()
                out = fn(embeddings, ids, views, protocol, **kwargs)
                clock.protocols.append((protocol, start[0], clock.busy(start), out.num_queries))
                return out
            return wrapper

        def rank_gallery(fn):
            def wrapper(*args, **kwargs):
                clock.pause()
                return fn(*args, **kwargs)
            return wrapper

        def load_checkpoint(fn):
            def wrapper(*args, **kwargs):
                arrays = fn(*args, **kwargs)
                clock.loaded.append({k: a.copy() for k, a in arrays.items()})
                return arrays
            return wrapper

        def keep_trained(args):
            clock.trained.append({k: p.data.copy() for k, p in args[1].items()})

        patches.wrap(dtst.train, "train_run", bounded(self.trainings, keep_trained))
        patches.wrap(dtst.train, "pk_batch",
                     mark(lambda dataset, p, k_inst, rng: p * k_inst))
        patches.wrap(dtst.evaluate, "embed_samples", bounded(self.embeddings))
        patches.wrap(dtst.data, "batch_arrays", mark(len))
        patches.wrap(dtst.evaluate, "evaluate_protocol", evaluate_protocol)
        patches.wrap(dtst.evaluate, "rank_gallery", rank_gallery)
        patches.wrap(dtst.model, "load_checkpoint", load_checkpoint)

    @staticmethod
    def chunks(calls, size):
        """(start, samples, seconds) of each run of `size` consecutive marks,
        probe time left out."""
        out = []
        for marks, end in calls:
            stops = [paused for paused, _, _ in marks[1:]] + [end]
            busy = [stop - resumed for (_, resumed, _), stop in zip(marks, stops)]
            for i in range(0, len(marks), size):
                out.append((marks[i][1], sum(n for _, _, n in marks[i:i + size]),
                            sum(busy[i:i + size])))
        return out


# ---------------------------------------------------------------------------
# span tracer

# public functions per module that get a span of their own; the span name is
# "<module>.<function>"
TRACED = {
    "config": ["load_config"],
    "data": ["generate_dataset", "export_embeddings"],
    "model": ["init_params", "patch_embed", "attach_special_tokens",
              "vdt_decouple", "save_checkpoint", "load_checkpoint",
              "restore_params"],
    "selector": ["score_tokens", "perturbed_topk", "hard_topk", "select_tokens"],
    "losses": ["cross_entropy_loss", "orthogonal_loss", "total_loss"],
    "optim": ["cosine_lr"],
    "train": ["train_run", "write_log"],
    "evaluate": ["evaluate_protocol", "rank_gallery", "query_gallery_split",
                 "embed_samples", "write_reports"],
}

# the autodiff ops a training step calls; each gets a forward span and, for
# the entries it records, a "<op>.bwd" span inside `backward`
TENSOR_OPS = ["add", "sub", "mul", "div", "log", "sqrt", "clip_min",
              "gelu", "tsum", "reshape", "transpose", "broadcast_to", "narrow",
              "concat", "matmul", "softmax_lastdim", "log_softmax_lastdim",
              "layer_norm", "gather_tokens", "gather_lastdim"]

STEP = "train.step"
LOSS_SPANS = ("losses.cross_entropy_loss", "losses.orthogonal_loss",
              "losses.total_loss")
WRITERS = ("train.write_log", "model.save_checkpoint", "data.export_embeddings",
           "evaluate.write_reports")
PHASES = ("data.pk_batch", "data.batch_arrays", "model.forward") + LOSS_SPANS + (
    "tensor.backward", "optim.sgd_step")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = []
        self.tape_entries = []
        self.kept_tokens = 0
        self.kept_signal = 0
        self.tapes_alive = 0
        self.tapes_alive_max = 0
        self._batch_slots = None

    def nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        self.stack.append(len(self.t0))
        self.parent.append(self.stack[-2] if len(self.stack) > 1 else -1)
        self.name.append(nid)
        self.t1.append(0.0)
        self.t0.append(perf_counter())

    def close(self):
        self.t1[self.stack.pop()] = perf_counter()

    def span(self, name, fn):
        nid = self.nid(name)

        def wrapper(*args, **kwargs):
            self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, patches, dtst):
        tr = self
        for module, functions in TRACED.items():
            for fn in functions:
                patches.wrap(getattr(dtst, module), fn,
                             lambda f, n=f"{module}.{fn}": tr.span(n, f))
        bwd_of = {}
        for op in TENSOR_OPS:
            patches.wrap(dtst.tensor, op, lambda f, n=f"tensor.{op}": tr.span(n, f))
            bwd_of[self.nid(f"tensor.{op}")] = self.nid(f"tensor.{op}.bwd")
        other_bwd = self.nid("tensor.other.bwd")

        step, pk, sgd = self.nid(STEP), self.nid("data.pk_batch"), self.nid("optim.sgd_step")

        def pk_batch(fn):  # a training step runs from pk_batch to sgd_step
            def wrapper(*args, **kwargs):
                tr.open(step)
                tr.open(pk)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tr.close()
            return wrapper

        def sgd_step(fn):
            def wrapper(*args, **kwargs):
                tr.open(sgd)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tr.close()
                    tr.close()  # the step opened by pk_batch
            return wrapper

        def batch_arrays(fn):
            traced = tr.span("data.batch_arrays", fn)

            def wrapper(batch):
                tr._batch_slots = [s.signal_slots for s in batch]
                return traced(batch)
            return wrapper

        def backward(fn):
            traced = tr.span("tensor.backward", fn)

            def wrapper(root, tape):
                tr.tape_entries.append(len(tape))
                return traced(root, tape)
            return wrapper

        def model_forward(fn):
            traced = tr.span("model.forward", fn)

            def wrapper(cfg, params, x, view_labels, rng=None, training=False,
                        **kwargs):
                out = traced(cfg, params, x, view_labels, rng=rng,
                             training=training, **kwargs)
                slots = tr._batch_slots
                if (not training and out.selected_origin is not None
                        and slots is not None and len(slots) == len(x)):
                    kept = out.selected_origin
                    tr.kept_tokens += kept.size
                    tr.kept_signal += sum(len(set(row.tolist()) & set(s))
                                          for row, s in zip(kept, slots))
                return out
            return wrapper

        def encoder_block(fn):
            full = tr.span("model.encoder_block", fn)
            kept = tr.span("model.encoder_block_kept", fn)

            def wrapper(seq, params, index, cfg, **kwargs):
                pruned = seq.tokens.shape[1] < cfg.num_patches + 2
                return (kept if pruned else full)(seq, params, index, cfg, **kwargs)
            return wrapper

        class TracedTape(dtst.train.Tape):
            """Counts live tapes and times each recorded entry's backward."""

            def __init__(self):
                super().__init__()
                tr.tapes_alive += 1
                tr.tapes_alive_max = max(tr.tapes_alive_max, tr.tapes_alive)
                weakref.finalize(self, tr._tape_freed)

            def record(self, out, inputs, backward_fn):
                op = tr.name[tr.stack[-1]] if tr.stack else -1
                bwd = bwd_of.get(op, other_bwd)

                def timed(g):
                    tr.open(bwd)
                    try:
                        return backward_fn(g)
                    finally:
                        tr.close()
                super().record(out, inputs, timed)

        patches.wrap(dtst.train, "pk_batch", pk_batch)
        patches.wrap(dtst.optim, "sgd_step", sgd_step)
        patches.wrap(dtst.train, "batch_arrays", batch_arrays)
        patches.wrap(dtst.data, "batch_arrays", batch_arrays)
        patches.wrap(dtst.train, "backward", backward)
        patches.wrap(dtst.model, "model_forward", model_forward)
        patches.wrap(dtst.model, "encoder_block", encoder_block)
        patches.wrap(dtst.train, "Tape", lambda cls: TracedTape)

    def _tape_freed(self):
        self.tapes_alive -= 1

    # -- output ------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.t0), np.frombuffer(self.t1))

    def save(self, path):
        name, parent, t0, t1 = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=t0, end=t1)

    def summary(self, ops):
        """Per-layer metrics from the recorded spans; `ops` lists the
        tensor ops to report per training step."""
        name, parent, t0, t1 = self.arrays()
        dur = t1 - t0
        n = len(dur)
        has_parent = parent >= 0
        child = np.zeros(n)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        ids = self._ids
        names_l, parents_l = name.tolist(), parent.tolist()

        def of(label):
            return name == ids.get(label, -1)

        def owner(labels):
            """Index of the nearest ancestor-or-self span named in labels."""
            wanted = {ids[l] for l in labels if l in ids}
            out = [-1] * n
            for i, (nm, par) in enumerate(zip(names_l, parents_l)):
                if nm in wanted:
                    out[i] = i
                elif par >= 0:
                    out[i] = out[par]
            return np.array(out, dtype=np.int64)

        in_step = owner([STEP]) >= 0
        steps = of(STEP)
        n_steps = max(int(steps.sum()), 1)

        def mean(label, scale=1e3, mask=None):
            sel = of(label) if mask is None else of(label) & mask
            return float(dur[sel].mean() * scale) if sel.any() else 0.0

        def per_step(values, label):
            return float(values[of(label) & in_step].sum() / n_steps)

        step_ms = dur[steps] * 1e3
        m = {
            "config.load_ms": mean("config.load_config"),
            "data.pk_batch_ms": mean("data.pk_batch"),
            "model.forward_ms": mean("model.forward", mask=in_step),
            "model.encoder_block_ms": mean("model.encoder_block", mask=in_step),
            "model.encoder_block_kept_ms": mean("model.encoder_block_kept", mask=in_step),
            "model.patch_embed_ms": mean("model.patch_embed", mask=in_step),
            "model.vdt_decouple_ms": mean("model.vdt_decouple", mask=in_step),
            "model.checkpoint_save_ms": mean("model.save_checkpoint"),
            "model.checkpoint_load_ms": mean("model.load_checkpoint"),
            "selector.score_ms": mean("selector.score_tokens", mask=in_step),
            "selector.topk_ms": mean("selector.perturbed_topk", mask=in_step),
            "selector.select_ms": mean("selector.select_tokens", mask=in_step),
            "selector.precision_at_k": self.kept_signal / max(self.kept_tokens, 1),
            "tensor.tape_entries_per_step": float(np.mean(self.tape_entries)),
            "tensor.backward_ms": mean("tensor.backward", mask=in_step),
            "tensor.tapes_alive_max": float(self.tapes_alive_max),
            "losses.ms": sum(per_step(dur, l) for l in LOSS_SPANS) * 1e3,
            "optim.sgd_step_ms": mean("optim.sgd_step"),
            "train.step_ms.median": float(np.median(step_ms)),
            "train.step_ms.p90": float(np.percentile(step_ms, 90)),
            "train.phases_ms": sum(per_step(dur, l) for l in PHASES) * 1e3,
            "evaluate.rank_gallery_us": mean("evaluate.rank_gallery", scale=1e6),
            "evaluate.protocol_ms": mean("evaluate.evaluate_protocol"),
            "evaluate.split_ms": mean("evaluate.query_gallery_split"),
        }
        for op in ops:
            m[f"tensor.{op}.calls"] = float((of(f"tensor.{op}") & in_step).sum() / n_steps)
            m[f"tensor.{op}.fwd_ms"] = per_step(self_time, f"tensor.{op}") * 1e3
            m[f"tensor.{op}.bwd_ms"] = per_step(dur, f"tensor.{op}.bwd") * 1e3

        # a batch is its batch_arrays and model_forward calls inside embed_samples
        in_embed = has_parent.copy()
        in_embed[in_embed] = of("evaluate.embed_samples")[parent[in_embed]]
        batches = of("data.batch_arrays") & in_embed
        work = (batches | of("model.forward")) & in_embed
        m["evaluate.embed_batch_ms"] = float(dur[work].sum() / max(batches.sum(), 1) * 1e3)

        setup = owner(["bench.setup"])
        gen = of("data.generate_dataset") & (setup >= 0)
        per_setup = np.bincount(setup[gen], weights=dur[gen], minlength=n)[of("bench.setup")]
        m["data.generate_s"] = float(np.median(per_setup))

        command = owner(["cli.train", "cli.eval"])
        writes = np.isin(name, [ids[w] for w in WRITERS if w in ids]) & (command >= 0)
        n_commands = max(int((of("cli.train") | of("cli.eval")).sum()), 1)
        m["cli.write_artifacts_ms"] = float(dur[writes].sum() / n_commands * 1e3)
        return m
