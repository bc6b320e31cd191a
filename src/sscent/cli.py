"""Command-line entry point.

Subcommands: gen-data, train, eval, gradcheck, gate-sim, compare. Every run
prints its resolved configuration, and every file artifact embeds the same lines
as `# ` comments so it is self-describing. Exit codes: 0 success, 1 validation
or config error, 2 IO or file-format error, 3 numerical failure (non-finite
loss, an embedding or prototype row of zero or non-finite norm, gradient check
over tolerance).
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources

import numpy as np

from .checkpoint import CheckpointFormatError, load_checkpoint
from .data import (CsvFormatError, csv_rows, generate_gaussian_clusters, load_csv,
                   read_table, save_csv, split_dataset)
from .encoder import EncoderConfig, MlpEncoder
from .evaluate import build_report, format_report
from .losses import (METHODS, ContrastiveBatch, finite_difference_error, grad_check,
                     ssc_e_loss, ssc_loss)
from .pseudo import (DecisionKind, EntropyGate, assign_pseudo_labels, normalize_rows,
                     probability_row_problem, row_norms)
from .trainer import (NonFiniteLossError, StepMetrics, TrainConfig, check_dataset_fits,
                      config_to_lines, format_metrics_row, gate_active, key_lines,
                      metrics_header_problem, parse_config_file, parse_config_lines,
                      read_metrics, train)

__all__ = ["main"]

PRESETS = ("desk", "paper")

GATE_SIM_HEADER = "tau,tau_ent,sample_index,kind,label,weight,entropy,max_prob"


class UsageError(ValueError):
    """Bad flags or flag combinations; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); route usage problems through the
    # validation exit code instead.
    def error(self, message):
        raise UsageError(f"{self.format_usage()}{self.prog}: {message}")


def _float_list(text: str) -> list:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sscent",
                     description="Entropy-weighted semi-supervised contrastive learning.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("gen-data", help="generate a synthetic cluster dataset CSV")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--per-class", type=int, default=100)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--separation", type=float, default=4.0)
    p.add_argument("--labels-per-class", type=int, default=4)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hide-unlabeled", action="store_true",
                   help="export unlabeled rows with label -1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train on a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--preset", choices=PRESETS)
    p.add_argument("--config", help="config file of section.key = value lines")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--epochs", type=int)
    p.add_argument("--steps-per-epoch", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--metrics-out")
    p.add_argument("--checkpoint-out")
    p.add_argument("--resume", help="checkpoint to continue from (restores its config)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--t-prime", type=float)
    p.add_argument("--append", metavar="METRICS_CSV",
                   help="append the result as a row to an existing metrics log")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of the analytic gradients")
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--variant", choices=(*METHODS, "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("gate-sim", help="run the entropy gate over probability rows")
    p.add_argument("--input", help="CSV with header p_0..p_{C-1}; one row per sample")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--samples", type=int, default=32)
    p.add_argument("--alpha", type=float, default=0.5,
                   help="Dirichlet concentration for synthetic rows")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau", type=_float_list, default=[0.95])
    p.add_argument("--tau-ent", type=_float_list, default=[0.4])
    p.add_argument("--w-min", type=float, default=0.2)
    p.add_argument("--lambda-reject", type=float, default=0.2)
    p.add_argument("--out", help="write the decision CSV here instead of stdout")
    p.set_defaults(func=cmd_gate_sim)

    p = sub.add_parser("compare", help="tabulate final accuracies from metrics logs")
    p.add_argument("logs", nargs="+")
    p.add_argument("--out", help="also write the table as CSV")
    p.set_defaults(func=cmd_compare)

    return parser


def _echo(lines) -> None:
    for line in lines:
        print(line)


def _flag_lines(section: str, args, **shown) -> list:
    """`section.flag = value` for each of the command's flags but --out, in
    flag order; `shown` replaces how a flag's value is displayed."""
    values = {**vars(args), **shown}
    return key_lines({name: value for name, value in values.items()
                      if name not in ("command", "func", "out")}, section)


def _dump_batch(batch: ContrastiveBatch, stream) -> None:
    norms = row_norms(batch.embeddings)
    print(f"offending batch: N={batch.size}, d={batch.embeddings.shape[1]}, "
          f"temperature={batch.temperature}", file=stream)
    print(f"embedding norms: min={norms.min()!r} max={norms.max()!r}", file=stream)
    print(f"labels: {batch.labels.tolist()}", file=stream)
    print(f"weights: {batch.weights.tolist()}", file=stream)


def cmd_gen_data(args) -> int:
    lines = _flag_lines("gen", args)
    _echo(lines)
    ds = generate_gaussian_clusters(args.classes, args.dim, args.per_class,
                                    args.sigma, args.separation, args.seed)
    ds = split_dataset(ds, args.labels_per_class, args.test_fraction, args.seed)
    save_csv(ds, args.out, hide_unlabeled_labels=args.hide_unlabeled,
             header_comments=lines)
    counts = ds.split_counts()
    print(f"wrote {len(ds)} rows to {args.out} "
          f"(labeled {counts['labeled']}, unlabeled {counts['unlabeled']}, "
          f"test {counts['test']})")
    return 0


def _load_preset(name: str) -> list:
    text = resources.files("sscent.presets").joinpath(f"{name}.cfg").read_text("utf-8")
    return text.splitlines()


def _resolve_train_config(args, flags: list) -> TrainConfig:
    """Defaults, then --preset, --config, --set, and last the direct flags."""
    config = TrainConfig()
    if args.preset:
        config = parse_config_lines(_load_preset(args.preset), base=config,
                                    source=f"preset {args.preset}")
    if args.config:
        config = parse_config_file(args.config, base=config)
    config = parse_config_lines(args.set, base=config, source="--set")
    return parse_config_lines(flags, base=config, source="flags")


def cmd_train(args) -> int:
    # the direct flags --method, --epochs, --steps-per-epoch and --seed as train.* lines
    flags = key_lines({name: getattr(args, name) for name in
                       ("method", "epochs", "steps_per_epoch", "seed")
                       if getattr(args, name) is not None}, "train")
    state = None
    if args.resume:
        if args.preset or args.config or args.set or flags:
            raise UsageError("--resume restores the saved config; drop the other "
                             "config flags")
        config, state = load_checkpoint(args.resume)
    else:
        config = _resolve_train_config(args, flags)
    dataset = load_csv(args.data)
    _echo(config_to_lines(config))
    state, history = train(config, dataset, state=state,
                           metrics_path=args.metrics_out,
                           checkpoint_path=args.checkpoint_out)
    if history:
        last = history[-1]
        acc = "n/a" if last.test_acc is None else f"{last.test_acc:.4f}"
        print(f"finished step {last.step} (epoch {last.epoch}): "
              f"loss {last.loss:.6f}, test_acc {acc}")
    else:
        print("no steps to run")
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    if args.checkpoint_out:
        print(f"checkpoint written to {args.checkpoint_out}")
    return 0


def cmd_eval(args) -> int:
    if args.append:  # refuse a missing file or a non-metrics CSV before printing anything
        next(read_table(args.append, metrics_header_problem))
    config, state = load_checkpoint(args.checkpoint)
    dataset = load_csv(args.data)
    check_dataset_fits(state, dataset)
    t_prime = config.t_prime if args.t_prime is None else args.t_prime
    _echo(config_to_lines(config) + key_lines({"t_prime": float(t_prime)}, "eval"))
    # the gate of the checkpoint's last trained step
    enabled = gate_active(config, max(state.step - 1, 0) // config.steps_per_epoch)
    report = build_report(state.encoder, state.bank, dataset,
                          config.gate(state.bank.num_classes), enabled, t_prime)
    print(format_report(report))
    if args.append:
        row = StepMetrics(step=state.step, epoch=state.step // config.steps_per_epoch,
                          lr=None, loss=None, confident=report.confident,
                          entropy_selected=report.entropy_selected,
                          mean_unlabeled_weight=None, test_acc=report.test_accuracy)
        with open(args.append, "a", encoding="utf-8", newline="") as fh:
            fh.write(format_metrics_row(row) + "\n")
        print(f"appended to {args.append}")
    return 0


def _random_check_batch(rng: np.random.Generator):
    n = int(rng.integers(6, 11))
    d = int(rng.integers(4, 7))
    z, _ = normalize_rows(rng.normal(size=(n, d)), "embedding")
    labels = rng.integers(0, max(2, n // 2), size=n)
    labels[1] = labels[0]  # guarantee at least one positive pair
    weights = rng.uniform(0.05, 1.0, size=n)
    temperature = float(rng.uniform(0.1, 0.6))
    return ContrastiveBatch(embeddings=z, labels=labels, weights=weights,
                            temperature=temperature)


def _end_to_end_error(variant: str, eps: float, rng: np.random.Generator) -> float:
    """Max relative error of parameter gradients through encoder + loss."""
    loss_fn = ssc_e_loss if variant == "ssc-e" else ssc_loss
    enc = MlpEncoder(EncoderConfig(input_dim=5, hidden_dims=(8,), embed_dim=4),
                     rng)
    x = rng.normal(size=(6, 5))
    labels = np.array([0, 0, 1, 1, 2, 2])
    weights = rng.uniform(0.2, 1.0, size=6)

    def forward_loss():
        z, cache = enc.forward(x)
        batch = ContrastiveBatch(embeddings=z, labels=labels, weights=weights,
                                 temperature=0.3)
        return cache, loss_fn(batch)

    cache, result = forward_loss()
    grads = enc.backward(cache, result.grad)
    return finite_difference_error(enc.parameters(), grads,
                                   lambda: forward_loss()[1].value, eps)


def cmd_gradcheck(args) -> int:
    _echo(_flag_lines("gradcheck", args))
    if not 0 < args.tol < np.inf:  # NaN fails too: `worst > nan` would pass every run
        raise ValueError(f"need a finite --tol > 0, got {args.tol}")
    variants = METHODS if args.variant == "all" else (args.variant,)
    rng = np.random.default_rng(args.seed)
    failed = False
    for variant in variants:
        worst = 0.0
        for _ in range(3):
            batch = _random_check_batch(rng)
            worst = max(worst, grad_check(batch, variant, epsilon=args.eps))
        print(f"{variant} max_rel_err = {worst:.3e}")
        failed = failed or worst > args.tol
    for variant in variants:
        worst = _end_to_end_error(variant, args.eps, rng)
        print(f"encoder+{variant} max_rel_err = {worst:.3e}")
        failed = failed or worst > args.tol
    if failed:
        print(f"gradcheck FAIL (tolerance {args.tol})")
        return 3
    print(f"gradcheck PASS (tolerance {args.tol})")
    return 0


def _load_prob_rows(path) -> np.ndarray:
    rows = read_table(path, lambda cols: None if cols == [f"p_{j}" for j in range(len(cols))]
                      else "header must be p_0,...,p_{C-1}")
    next(rows)
    numbers, probs = [], []
    for number, cells in rows:
        try:
            probs.append([float(c) for c in cells])
        except ValueError:
            raise CsvFormatError(path, number, "non-numeric probability cell") from None
        numbers.append(number)
    if not probs:
        raise CsvFormatError(path, None, "no probability rows")
    probs = np.array(probs)
    problem = probability_row_problem(probs)
    if problem:
        raise CsvFormatError(path, numbers[problem[0]], f"probabilities {problem[1]}")
    return probs


def cmd_gate_sim(args) -> int:
    probs = _load_prob_rows(args.input) if args.input else None
    classes = args.classes if probs is None else probs.shape[1]
    lines = _flag_lines("gate_sim", args, input=args.input or "(synthetic)", classes=classes)
    _echo(lines)
    # the gates check the class count before any synthetic row is drawn
    gates = [EntropyGate(num_classes=classes, tau=tau, tau_ent=tau_ent, w_min=args.w_min,
                         lambda_reject=args.lambda_reject)
             for tau in args.tau for tau_ent in args.tau_ent]
    if probs is None:
        if args.samples < 1:
            raise ValueError(f"need --samples >= 1, got {args.samples}")
        if not 0 < args.alpha < np.inf:
            raise ValueError(f"need a finite --alpha > 0, got {args.alpha}")
        rng = np.random.default_rng(args.seed)
        probs = rng.dirichlet(np.full(classes, args.alpha), size=args.samples)
    out_lines = [f"# {c}" for c in lines]
    out_lines.append(GATE_SIM_HEADER)
    n = len(probs)
    for gate in gates:
        decisions = assign_pseudo_labels(probs, gate, True)
        out_lines.extend(csv_rows([
            np.full(n, float(gate.tau)), np.full(n, float(gate.tau_ent)), np.arange(n),
            [DecisionKind(k).name.lower() for k in decisions["kind"].tolist()],
            decisions["assigned_label"], decisions["weight"], decisions["entropy"],
            decisions["max_prob"]]))
    body = "\n".join(out_lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(body)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(body)
    return 0


def cmd_compare(args) -> int:
    if len(args.logs) < 2:
        raise UsageError("compare needs at least 2 metrics logs")
    missing = [p for p in args.logs if not os.path.exists(p)]
    if missing:
        print(f"missing logs: {', '.join(missing)}", file=sys.stderr)
        return 2
    entries = []
    for path in args.logs:
        meta, rows = read_metrics(path)
        evals = [row["test_acc"] for row in rows if row["test_acc"]]
        if not evals:
            raise ValueError(f"{path}: no test_acc values recorded")
        entries.append({
            "method": meta.get("train.method", "?"),
            # a per-class list is comma-joined in the log; one CSV cell here
            "labels_per_class": meta.get("data.labels_per_class", "?").replace(",", ";"),
            "seed": meta.get("train.seed", "?"),
            "acc": float(evals[-1]),
        })
    def _numeric_aware(text):
        return (0, int(text)) if text.isdigit() else (1, text)

    entries.sort(key=lambda e: (e["method"], _numeric_aware(e["labels_per_class"]),
                                _numeric_aware(e["seed"])))
    table = [(e["method"], e["labels_per_class"], e["seed"], e["acc"]) for e in entries]
    groups = {}  # in the order of the sorted runs
    for e in entries:
        groups.setdefault((e["method"], e["labels_per_class"]), []).append(e["acc"])
    for (method, lpc), accs in groups.items():
        table.append((method, lpc, "mean", float(np.mean(accs))))
    header = ("method", "labels_per_class", "seed", "final_test_acc")
    lines = csv_rows(list(zip(*table)))
    cells = [line.split(",") for line in lines]
    widths = [max(len(header[j]), max(len(row[j]) for row in cells))
              for j in range(4)]
    print("  ".join(header[j].ljust(widths[j]) for j in range(4)))
    for row in cells:
        print("  ".join(row[j].ljust(widths[j]) for j in range(4)))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join([",".join(header), *lines]) + "\n")
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_help()
            return 1
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (NonFiniteLossError, FloatingPointError) as exc:  # the latter: a bad row norm
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NonFiniteLossError):
            _dump_batch(exc.batch, sys.stderr)
        return 3
    except (CsvFormatError, CheckpointFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError and ZeroNormalizerError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
