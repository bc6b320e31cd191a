"""One benchmark run in a fresh interpreter: `sscent train` through `sscent.cli.main`.

Usage (from the repository root, with the package on the path):

    PYTHONPATH=src python3 perfbench/worker.py '<json spec>'

The spec holds `mode`, `train_argv`, `eval_argv`, `t_spawn` and `result`:

* `timed`: the only hooks are a timestamp on entry to
  `sscent.trainer.train_step`, the return of `train()`, and a file-size read
  after each `sscent.checkpoint.save_checkpoint`.
* `setup`: the same hooks, but the run stops at the first `train_step` entry,
  so only set-up is measured.
* `traced`: every layer function is wrapped where its caller resolves it and
  records a span (name, start, end, parent). Spans stay in memory; the
  per-layer figures are computed from them after the run, then `eval` runs on
  the final checkpoint under its own span.

`t_spawn` is the parent's `time.monotonic()` just before it started this
process, so set-up time covers interpreter start and imports. The result is
written as JSON to the `result` path.
"""

import json
import os
import resource
import sys
import time


class _SetupDone(BaseException):
    """Raised at the first train_step entry of a set-up probe; BaseException so
    that the CLI's error handlers let it through."""


def _timing_hooks(cli, trainer, checkpoint, stop_at_first_step):
    entries, saved_bytes, shape, returned = [], [], {}, []
    step, save, train = trainer.train_step, checkpoint.save_checkpoint, cli.train

    def train_step(state, config, *args, **kwargs):
        entries.append(time.monotonic())
        if stop_at_first_step:
            raise _SetupDone
        if not shape:
            shape["rows"] = config.labeled_batch_size * (1 + config.mu)
        return step(state, config, *args, **kwargs)

    def save_checkpoint(path, *args, **kwargs):
        save(path, *args, **kwargs)
        saved_bytes.append(os.path.getsize(path))

    def train_and_stamp(*args, **kwargs):
        out = train(*args, **kwargs)
        returned.append(time.monotonic())
        return out

    trainer.train_step = train_step
    checkpoint.save_checkpoint = save_checkpoint
    cli.train = train_and_stamp
    return entries, saved_bytes, shape, returned


def _step_stats(entries, end, rows):
    """End-to-end step figures from train_step entry times and train() return."""
    import numpy as np

    stamps = np.array(entries + [end])
    intervals_ms = np.diff(stamps) * 1e3
    n = intervals_ms.size
    out = {
        "steps": n,
        "train_s": end - entries[0],
        "samples_per_s": rows * n / (end - entries[0]),
        "step_ms_p50": float(np.median(intervals_ms)),
        "intervals_ms": intervals_ms.tolist(),
    }
    if n > 10:
        # highest percentile with at least ten intervals beyond it
        out["step_ms_tail"] = float(np.sort(intervals_ms)[n - 11])
        out["tail_percentile"] = 100.0 * (n - 10) / n
    return out


class Tracer:
    """In-memory spans: parallel lists indexed by span id."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.stack = [-1]
        self.notes = {}

    def wrap(self, name, fn, note=None):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self.stack, time.perf_counter
        notes = self.notes.setdefault(name, []) if note else None

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if note:
                notes.append((idx, note(args, result)))
            return result

        return wrapper

    def span(self, name, fn, *args):
        return self.wrap(name, fn)(*args)


def _install_tracer(tracer, cli, trainer, checkpoint, encoder):
    wrap = tracer.wrap
    for attr, name in [("augment", "data.augment"),
                       ("class_probabilities", "pseudo.class_probabilities"),
                       ("ContrastiveBatch", "losses.ContrastiveBatch"),
                       ("evaluate", "evaluate.evaluate"),
                       ("update_prototypes", "encoder.update_prototypes"),
                       ("assemble_batch", "trainer.assemble_batch"),
                       ("train_step", "trainer.train_step"),
                       ("init_train_state", "trainer.init_train_state"),
                       ("write_metrics", "trainer.write_metrics")]:
        setattr(trainer, attr, wrap(name, getattr(trainer, attr)))
    trainer.assign_pseudo_labels = wrap(
        "pseudo.assign_pseudo_labels", trainer.assign_pseudo_labels,
        note=lambda args, result: result)
    for attr in ("ssc_loss", "ssc_e_loss"):
        setattr(trainer, attr, wrap("losses.loss", getattr(trainer, attr),
                                    note=lambda args, result: args[0].labels))
    encoder.MlpEncoder.forward = wrap("encoder.forward", encoder.MlpEncoder.forward,
                                      note=lambda args, result: len(args[1]))
    for attr in ("backward", "apply_gradients"):
        setattr(encoder.MlpEncoder, attr,
                wrap(f"encoder.{attr}", getattr(encoder.MlpEncoder, attr)))
    checkpoint.save_checkpoint = wrap(
        "checkpoint.save_checkpoint", checkpoint.save_checkpoint,
        note=lambda args, result: os.path.getsize(args[0]))
    cli.load_checkpoint = wrap("checkpoint.load_checkpoint", cli.load_checkpoint)
    cli.load_csv = wrap("data.load_csv", cli.load_csv)
    cli.build_report = wrap("evaluate.build_report", cli.build_report)
    cli.train = wrap("trainer.train", cli.train)


def _layer_metrics(tracer, train_root, eval_root):
    """Per-layer figures from the spans. Per-step figures count every span
    inside the `train` command, divided by its number of train_step spans."""
    import numpy as np

    names = np.array(tracer.names)
    dur_ms = (np.array(tracer.ends) - np.array(tracer.starts)) * 1e3
    parents = np.array(tracer.parents)
    child_ms = np.zeros(len(names))
    has_parent = parents >= 0
    np.add.at(child_ms, parents[has_parent], dur_ms[has_parent])
    self_ms = dur_ms - child_ms

    # each span's top-level ancestor (the cli.train or cli.eval span)
    root = parents.copy()
    root[~has_parent] = np.flatnonzero(~has_parent)
    while True:
        up = parents[root]
        moved = up >= 0
        if not moved.any():
            break
        root[moved] = up[moved]
    in_train = root == train_root
    in_eval = root == eval_root

    def select(name, where=in_train):
        return where & (names == name)

    steps = int(select("trainer.train_step").sum())

    def total(name, where=in_train):
        return float(dur_ms[select(name, where)].sum())

    def per_call(name, where=in_train):
        return float(dur_ms[select(name, where)].mean())

    def calls(name):
        return int(select(name).sum())

    def noted(name):
        """Values the wrapper noted for the spans of `name` inside `train`."""
        return [value for idx, value in tracer.notes[name] if in_train[idx]]

    kinds = [d.kind.name for decisions in noted("pseudo.assign_pseudo_labels")
             for d in decisions]
    loss_labels = noted("losses.loss")
    pair_fracs = []
    for labels in loss_labels:
        counts = np.unique(labels, return_counts=True)[1]
        n = labels.size
        pair_fracs.append(float((counts * (counts - 1)).sum()) / (n * (n - 1)))
    return {
        "pseudo.class_probabilities.calls": calls("pseudo.class_probabilities") / steps,
        "pseudo.class_probabilities.ms": total("pseudo.class_probabilities") / steps,
        "pseudo.assign_pseudo_labels.ms": total("pseudo.assign_pseudo_labels") / steps,
        "pseudo.coverage": (kinds.count("CONFIDENT") + kinds.count("ENTROPY_SELECTED"))
                           / len(kinds),
        "pseudo.entropy_selected_frac": kinds.count("ENTROPY_SELECTED") / len(kinds),
        "data.augment.calls": calls("data.augment") / steps,
        "data.augment.ms": total("data.augment") / steps,
        "losses.loss.ms": per_call("losses.loss"),
        "losses.loss.rows": float(np.mean([labels.size for labels in loss_labels])),
        "losses.positive_pair_frac": float(np.mean(pair_fracs)),
        "losses.ContrastiveBatch.ms": total("losses.ContrastiveBatch") / steps,
        "encoder.forward.calls": calls("encoder.forward") / steps,
        "encoder.forward.rows": sum(noted("encoder.forward")) / steps,
        "encoder.forward.ms": total("encoder.forward") / steps,
        "encoder.backward.ms": total("encoder.backward") / steps,
        "encoder.apply_gradients.ms": total("encoder.apply_gradients") / steps,
        "encoder.update_prototypes.ms": total("encoder.update_prototypes") / steps,
        "trainer.train_step.self_ms":
            float(self_ms[select("trainer.train_step")].sum()) / steps,
        "trainer.assemble_batch.self_ms":
            float(self_ms[select("trainer.assemble_batch")].sum()) / steps,
        "trainer.write_metrics.ms": total("trainer.write_metrics"),
        "trainer.init_train_state.ms": total("trainer.init_train_state"),
        "data.load_csv.ms": total("data.load_csv"),
        "checkpoint.save_checkpoint.calls": calls("checkpoint.save_checkpoint"),
        "checkpoint.save_checkpoint.ms": per_call("checkpoint.save_checkpoint"),
        "checkpoint.save_checkpoint.mb": float(np.mean(noted("checkpoint.save_checkpoint")))
                                         / 1e6,
        "checkpoint.load_checkpoint.ms": total("checkpoint.load_checkpoint", in_eval),
        "evaluate.build_report.ms": total("evaluate.build_report", in_eval),
        "cli.eval.ms": float(dur_ms[eval_root]),
        "evaluate.evaluate.calls": calls("evaluate.evaluate"),
        "evaluate.evaluate.ms": per_call("evaluate.evaluate"),
    }


def main(spec):
    import sscent.checkpoint as checkpoint
    import sscent.cli as cli
    import sscent.encoder as encoder
    import sscent.trainer as trainer

    mode = spec["mode"]
    result = {"mode": mode}
    if mode == "traced":
        tracer = Tracer()
        _install_tracer(tracer, cli, trainer, checkpoint, encoder)
        train_root = len(tracer.names)
        result["exit_code"] = tracer.span("cli.train", cli.main, spec["train_argv"])
        result["eval_exit_code"] = None
        if result["exit_code"] == 0:
            eval_root = len(tracer.names)
            result["eval_exit_code"] = tracer.span("cli.eval", cli.main, spec["eval_argv"])
            if result["eval_exit_code"] == 0:
                result["layers"] = _layer_metrics(tracer, train_root, eval_root)
        if "layers" in result:
            first_step = tracer.names.index("trainer.train_step")
            train_span = tracer.names.index("trainer.train")
            result["train_s"] = tracer.ends[train_span] - tracer.starts[first_step]
            result["steps"] = tracer.names.count("trainer.train_step")
    else:
        entries, saved_bytes, shape, returned = _timing_hooks(
            cli, trainer, checkpoint, stop_at_first_step=mode == "setup")
        try:
            result["exit_code"] = cli.main(spec["train_argv"])
        except _SetupDone:
            result["exit_code"] = 0
        if entries:
            result["setup_s"] = entries[0] - spec["t_spawn"]
        if mode == "timed" and result["exit_code"] == 0 and returned:
            result.update(_step_stats(entries, returned[0], shape["rows"]))
            result["ckpt_write_mb"] = sum(saved_bytes) / 1e6
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
