"""Acceptance suite: one test per shipped guarantee.

Every test finishes with a single PASS/FAIL line (run pytest with -s to
see them) and asserts the same condition, so the suite is green exactly
when all guarantees hold. Tolerances and time budgets appear inline next
to each check.
"""

import math
import time

import numpy as np

from sscent import (
    ContrastiveBatch,
    DecisionKind,
    EntropyGate,
    TrainConfig,
    adaptive_weight,
    assign_pseudo_labels,
    cosine_lr,
    evaluate,
    generate_gaussian_clusters,
    init_train_state,
    load_checkpoint,
    load_csv,
    loss_oracle,
    save_checkpoint,
    save_csv,
    split_dataset,
    ssc_e_loss,
    ssc_loss,
    train,
    train_step,
)
from sscent.cli import main
from sscent.trainer import read_metrics

from conftest import random_batch

# cos(7*pi/16), frozen from a 50-digit computation
COS_TAIL = 0.19509032201612825


def _verdict(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# --------------------------------------------------------------------- 1


def test_uniform_weights_reduce_pair_loss_to_anchor_loss():
    # with every weight equal, the geometric pair weight and its
    # normalizer cancel the same way the anchor form does
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        batch = random_batch(rng, max_size=16)
        const = 1.0 if i % 2 == 0 else float(rng.uniform(0.1, 1.0))
        uniform = ContrastiveBatch(embeddings=batch.embeddings,
                                   labels=batch.labels,
                                   weights=np.full(batch.size, const),
                                   temperature=batch.temperature)
        worst = max(worst, _rel(ssc_loss(uniform).value,
                                ssc_e_loss(uniform).value))
    elapsed = time.perf_counter() - start
    _verdict(worst <= 1e-12 and elapsed < 10.0,
             f"uniform-weight reduction identity over 1000 batches "
             f"(max rel err {worst:.2e} <= 1e-12, {elapsed:.1f}s < 10s)")


# --------------------------------------------------------------------- 2


def test_vectorized_losses_match_reference_oracle():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        batch = random_batch(rng, max_size=16, zero_weight=(i % 4 == 0))
        for variant, fn in (("ssc", ssc_loss), ("ssc-e", ssc_e_loss)):
            worst = max(worst, _rel(fn(batch).value,
                                    loss_oracle(batch, variant)))
    elapsed = time.perf_counter() - start
    _verdict(worst <= 1e-9 and elapsed < 30.0,
             f"both losses match the nested-loop oracle on 1000 batches "
             f"(max rel err {worst:.2e} <= 1e-9, {elapsed:.1f}s < 30s)")


# --------------------------------------------------------------------- 3


def test_gradcheck_command_passes_within_tolerance(capsys):
    start = time.perf_counter()
    rc = main(["gradcheck", "--eps", "1e-5", "--tol", "1e-4"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    errs = [float(line.rsplit("=", 1)[1])
            for line in out.splitlines() if "max_rel_err" in line]
    ok = (rc == 0 and len(errs) == 4 and max(errs) < 1e-4
          and elapsed < 60.0)
    _verdict(ok, f"gradcheck: 4 analytic/numeric comparisons, "
                 f"max rel err {max(errs):.2e} < 1e-4 at eps=1e-5 "
                 f"({elapsed:.1f}s < 60s)")


# --------------------------------------------------------------------- 4


def test_adaptive_weight_boundaries_and_monotone_sweep():
    gate = EntropyGate(num_classes=10, tau=0.95, tau_ent=0.6, w_min=0.25, lambda_reject=0.2)
    e_min = 0.3 * gate.h_base

    exact = (adaptive_weight(e_min, e_min, gate.h_base, gate.w_min) == 1.0
             and adaptive_weight(gate.h_base, e_min, gate.h_base,
                                 gate.w_min) == gate.w_min)

    rng = np.random.default_rng(1004)
    for _ in range(50):
        h_base = float(rng.uniform(0.2, 2.0))
        pivot = float(rng.uniform(0.0, 0.999)) * h_base
        w_min = float(rng.uniform(0.0, 1.0))
        exact = exact and adaptive_weight(pivot, pivot, h_base, w_min) == 1.0
        exact = exact and adaptive_weight(h_base, pivot, h_base,
                                          w_min) == w_min

    sweep = np.linspace(0.0, gate.h_max, 1000)
    weights = [adaptive_weight(float(h), e_min, gate.h_base, gate.w_min)
               for h in sweep]
    monotone = bool(np.all(np.diff(weights) <= 0.0))

    _verdict(exact and monotone,
             "adaptive weight hits 1.0 at the pivot and w_min at the "
             "threshold exactly; 1000-point sweep is monotone non-increasing")


# --------------------------------------------------------------------- 5


def _coverage(decisions) -> float:
    return sum(d.kind != DecisionKind.REJECTED for d in decisions) / len(decisions)


def test_entropy_gate_never_reduces_and_can_increase_coverage():
    rng = np.random.default_rng(1005)
    never_lower = True
    for _ in range(100):
        c = int(rng.integers(3, 9))
        n = int(rng.integers(8, 41))
        alpha = float(rng.choice([0.3, 0.5, 1.0, 3.0]))
        probs = rng.dirichlet(np.full(c, alpha), size=n)
        gate = EntropyGate(num_classes=c, tau=float(rng.choice([0.9, 0.95])),
                           tau_ent=float(rng.choice([0.4, 0.6])), w_min=0.2,
                           lambda_reject=0.2)
        on = _coverage(assign_pseudo_labels(probs, gate, True))
        off = _coverage(assign_pseudo_labels(probs, gate, False))
        never_lower = never_lower and on >= off

    # two confident rows set the pivot; the third is confident enough in
    # entropy only, so only the enabled gate admits it
    probs = np.array([[0.97, 0.01, 0.01, 0.01],
                      [0.96, 0.02, 0.01, 0.01],
                      [0.90, 0.06, 0.02, 0.02],
                      [0.25, 0.25, 0.25, 0.25]])
    gate = EntropyGate(num_classes=4, tau=0.95, tau_ent=0.4, w_min=0.2, lambda_reject=0.2)
    fixture_on = _coverage(assign_pseudo_labels(probs, gate, True))
    fixture_off = _coverage(assign_pseudo_labels(probs, gate, False))

    _verdict(never_lower and fixture_on > fixture_off,
             f"gate-on coverage >= gate-off on 100 random batches; "
             f"constructed fixture rises {fixture_off:.2f} -> {fixture_on:.2f}")


# --------------------------------------------------------------------- 6


def test_lr_schedule_endpoints_and_gate_cutoff():
    ds = generate_gaussian_clusters(3, 8, 60, 1.0, 4.0, 0)
    ds = split_dataset(ds, labels_per_class=4, test_fraction=0.25, seed=0)
    # loose thresholds so entropy selection actually fires before the
    # cutoff; 16 epochs make the 0.78125 boundary land inside the run
    cfg = TrainConfig(labeled_batch_size=4, mu=3, epochs=16,
                      steps_per_epoch=2, hidden_dims=(16,), embed_dim=8,
                      tau=0.7, tau_ent=0.9, seed=0, eval_every=0)
    _, hist = train(cfg, ds)
    t_total = cfg.epochs * cfg.steps_per_epoch

    lr0_ok = _rel(hist[0].lr, cfg.eta0) <= 1e-9
    lr_last_ok = hist[-1].lr == cosine_lr(t_total - 1, t_total, cfg.eta0)
    tail_ok = _rel(cosine_lr(t_total, t_total, cfg.eta0),
                   cfg.eta0 * COS_TAIL) <= 1e-9

    boundary = cfg.gate_cutoff_fraction * cfg.epochs   # epoch 12.5 of 16
    before = sum(m.entropy_selected for m in hist if m.epoch < boundary)
    after = [m.entropy_selected for m in hist if m.epoch >= boundary]
    cutoff_ok = before > 0 and len(after) > 0 and all(x == 0 for x in after)

    _verdict(lr0_ok and lr_last_ok and tail_ok and cutoff_ok,
             f"lr starts at eta0 and the schedule ends at eta0*cos(7pi/16) "
             f"within 1e-9; {before} entropy selections before the "
             f"{cfg.gate_cutoff_fraction} epoch cutoff, "
             f"{sum(after)} after")


# --------------------------------------------------------------------- 7


def _benchmark_run(seed: int, method: str) -> float:
    ds = generate_gaussian_clusters(3, 8, 504, 1.0, 4.0, seed)
    ds = split_dataset(ds, labels_per_class=4, test_fraction=2 / 3, seed=seed)
    assert ds.split_counts() == {"labeled": 12, "unlabeled": 500, "test": 1000}
    cfg = TrainConfig(labeled_batch_size=8, mu=7, epochs=8, steps_per_epoch=64,
                      hidden_dims=(16,), embed_dim=8, seed=seed,
                      method=method, eval_every=0)
    _, hist = train(cfg, ds)
    return hist[-1].test_acc


def test_small_benchmark_reaches_target_and_favors_pair_weighting():
    # 3 well-separated Gaussian classes, 4 labels each, 500 unlabeled,
    # 1000 test; 512 steps per run, five paired seeds
    start = time.perf_counter()
    seeds = range(5)
    base = [_benchmark_run(s, "ssc") for s in seeds]
    ours = [_benchmark_run(s, "ssc-e") for s in seeds]
    elapsed = time.perf_counter() - start

    mean_base = float(np.mean(base))
    mean_ours = float(np.mean(ours))
    wins = sum(b > a for a, b in zip(base, ours))

    ok = (mean_base >= 0.85 and mean_ours >= 0.85
          and mean_ours >= mean_base - 0.005
          and wins >= 3
          and elapsed < 300.0)
    _verdict(ok, f"benchmark means ssc {mean_base:.4f} / ssc-e {mean_ours:.4f} "
                 f"(both >= 0.85, gap >= -0.005); ssc-e wins {wins}/5 seeds "
                 f"(>= 3); {elapsed:.0f}s < 300s")


# --------------------------------------------------------------------- 8


def test_reruns_resume_and_csv_round_trip_are_lossless(tmp_path):
    ds = generate_gaussian_clusters(3, 6, 40, 1.0, 10.0, 5)
    ds = split_dataset(ds, labels_per_class=4, test_fraction=0.25, seed=5)
    cfg = TrainConfig(labeled_batch_size=4, mu=2, epochs=2, steps_per_epoch=4,
                      hidden_dims=(8,), embed_dim=4, seed=5, eval_every=3)

    # identical seeds, identical bytes
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    train(cfg, ds, metrics_path=a)
    train(cfg, ds, metrics_path=b)
    rerun_ok = a.read_bytes() == b.read_bytes()

    # a checkpoint taken mid-run continues into the same metric stream
    state = init_train_state(cfg, ds)
    gate = cfg.gate(ds.num_classes)
    policy = cfg.policy()
    t_total = cfg.epochs * cfg.steps_per_epoch
    for gstep in range(3):
        m = train_step(state, cfg, gate, policy, ds.labeled_features(),
                       ds.labeled_labels(), ds.unlabeled_features(), t_total)
        if (gstep + 1) % cfg.eval_every == 0:
            m.test_acc = evaluate(state.encoder, state.bank,
                                  ds.test_features(), ds.test_labels(),
                                  cfg.t_prime)
        state.history.append(m)
    ckpt = tmp_path / "part.npz"
    save_checkpoint(ckpt, cfg, state)
    _, restored = load_checkpoint(ckpt)
    resumed = tmp_path / "resumed.csv"
    train(cfg, ds, state=restored, metrics_path=resumed)
    resume_ok = resumed.read_bytes() == a.read_bytes()

    # dataset CSV round trip: exact floats, labels, and split tags
    p1, p2 = tmp_path / "ds1.csv", tmp_path / "ds2.csv"
    save_csv(ds, p1)
    back = load_csv(p1)
    save_csv(back, p2)
    round_trip_ok = (np.array_equal(ds.features, back.features)
                     and np.array_equal(ds.labels, back.labels)
                     and list(ds.split) == list(back.split)
                     and p1.read_bytes() == p2.read_bytes())

    _verdict(rerun_ok and resume_ok and round_trip_ok,
             "reruns byte-identical; resumed checkpoint reproduces the "
             "uninterrupted metrics; dataset CSV round trip is lossless")
