"""Tests for dataset generation, splitting, augmentation, and CSV IO."""

import numpy as np
import pytest

from sscent import (
    AugmentationPolicy,
    CsvFormatError,
    Dataset,
    augment,
    generate_gaussian_clusters,
    load_csv,
    save_csv,
    split_dataset,
)
from sscent.cli import _load_prob_rows
from sscent.trainer import METRICS_HEADER, read_metrics


def ratio_fixture(ratio=10.0, per_class=60, seed=0, dim=6, classes=3):
    return generate_gaussian_clusters(num_classes=classes, dim=dim,
                                      per_class=per_class, cluster_sigma=1.0,
                                      separation=float(ratio), seed=seed)


# ---------------------------------------------------------------------------
# generation


def test_generate_shapes_and_grouping():
    ds = generate_gaussian_clusters(num_classes=3, dim=5, per_class=10,
                                    cluster_sigma=0.5, separation=3.0, seed=1)
    assert ds.features.shape == (30, 5)
    assert np.array_equal(ds.labels, np.repeat(np.arange(3), 10))
    assert all(tag == "unlabeled" for tag in ds.split)


def test_generate_zero_sigma_collapses_to_means():
    ds = generate_gaussian_clusters(num_classes=4, dim=3, per_class=7,
                                    cluster_sigma=0.0, separation=2.0, seed=2)
    for c in range(4):
        block = ds.features[ds.labels == c]
        assert np.array_equal(block, np.tile(block[0], (7, 1)))
        assert abs(np.linalg.norm(block[0]) - 2.0) < 1e-9


def test_generate_deterministic_and_seed_sensitive():
    a = ratio_fixture(seed=5)
    b = ratio_fixture(seed=5)
    c = ratio_fixture(seed=6)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_generate_well_separated_clusters_nearest_mean_separable():
    # separation 10x sigma: class sample means classify a held-out half
    # perfectly
    ds = ratio_fixture(ratio=10.0, per_class=100)
    half = 50
    means, holdout_x, holdout_y = [], [], []
    for c in range(3):
        block = ds.features[ds.labels == c]
        means.append(block[:half].mean(axis=0))
        holdout_x.append(block[half:])
        holdout_y.append(np.full(half, c))
    means = np.stack(means)
    x = np.concatenate(holdout_x)
    y = np.concatenate(holdout_y)
    d2 = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(np.argmin(d2, axis=1), y)


def test_generate_validation():
    with pytest.raises(ValueError):
        generate_gaussian_clusters(1, 4, 10, 1.0, 2.0, 0)
    with pytest.raises(ValueError):
        generate_gaussian_clusters(3, 4, 10, -1.0, 2.0, 0)
    with pytest.raises(ValueError):
        generate_gaussian_clusters(3, 4, 10, 1.0, 0.0, 0)


# ---------------------------------------------------------------------------
# splitting


def test_split_labeled_counts_per_class():
    ds = ratio_fixture(per_class=100)
    out = split_dataset(ds, labels_per_class=4, test_fraction=0.25, seed=3)
    labeled = out.labels[out.split == "labeled"]
    assert labeled.size == 12
    assert all((labeled == c).sum() == 4 for c in range(3))


def test_split_sizes_follow_rounded_fraction():
    ds = ratio_fixture(per_class=100)  # 300 rows
    out = split_dataset(ds, labels_per_class=4, test_fraction=0.25, seed=3)
    counts = out.split_counts()
    # 288 rows remain after removing 12 labeled; round(0.25 * 288) = 72
    assert counts == {"labeled": 12, "unlabeled": 216, "test": 72}


def test_split_zero_test_fraction_gives_empty_test():
    ds = ratio_fixture(per_class=20)
    out = split_dataset(ds, labels_per_class=4, test_fraction=0.0, seed=4)
    assert out.split_counts()["test"] == 0
    assert out.test_features().shape == (0, ds.features.shape[1])


def test_split_partitions_rows_and_preserves_order():
    ds = ratio_fixture(per_class=30)
    out = split_dataset(ds, labels_per_class=5, test_fraction=0.5, seed=7)
    assert np.array_equal(out.features, ds.features)
    assert np.array_equal(out.labels, ds.labels)
    tags = set(out.split)
    assert tags == {"labeled", "unlabeled", "test"}
    assert sum(out.split_counts().values()) == 90


def test_split_deterministic_under_seed():
    ds = ratio_fixture(per_class=40)
    a = split_dataset(ds, labels_per_class=4, test_fraction=0.3, seed=11)
    b = split_dataset(ds, labels_per_class=4, test_fraction=0.3, seed=11)
    c = split_dataset(ds, labels_per_class=4, test_fraction=0.3, seed=12)
    assert np.array_equal(a.split, b.split)
    assert not np.array_equal(a.split, c.split)


def test_split_insufficient_samples_rejected():
    ds = ratio_fixture(per_class=3)
    with pytest.raises(ValueError):
        split_dataset(ds, labels_per_class=4, test_fraction=0.0, seed=0)
    with pytest.raises(ValueError):
        split_dataset(ds, labels_per_class=0, test_fraction=0.0, seed=0)
    with pytest.raises(ValueError):
        split_dataset(ds, labels_per_class=1, test_fraction=1.5, seed=0)


def test_dataset_views_and_labels_per_class():
    ds = ratio_fixture(per_class=25)
    out = split_dataset(ds, labels_per_class=4, test_fraction=0.2, seed=1)
    assert out.labeled_features().shape[0] == out.labeled_labels().shape[0] == 12
    assert out.num_classes == 3
    assert np.bincount(out.labeled_labels()).tolist() == [4, 4, 4]
    assert (out.unlabeled_features().shape[0]
            == out.unlabeled_true_labels().shape[0])


def test_dataset_rejects_minus_one_off_unlabeled_rows():
    with pytest.raises(ValueError):
        Dataset(features=np.zeros((2, 2)),
                labels=np.array([-1, 0]),
                split=np.array(["labeled", "test"], dtype=object))


# row 1 of a three-row table breaks one rule: (features, label, split, message)
DATASET_RULES = {
    "non-finite": ([np.inf, 0.2], 0, "test", "non-finite feature value"),
    "split": ([0.1, 0.2], 0, "valid", "split 'valid' not in ('labeled', 'unlabeled', 'test')"),
    "below-minus-one": ([0.1, 0.2], -2, "unlabeled", "label -2 is below -1"),
    "hidden-off-unlabeled": ([0.1, 0.2], -1, "test", "label -1 on a non-unlabeled row"),
}


@pytest.mark.parametrize("rule", sorted(DATASET_RULES))
def test_dataset_names_the_row_of_each_rule(rule):
    row, label, tag, message = DATASET_RULES[rule]
    with pytest.raises(ValueError) as err:
        Dataset(features=[[0.1, 0.2], row, [np.nan, 0.2]], labels=[0, label, -3],
                split=["labeled", tag, "x"])
    # row 2 breaks three rules too; the first bad row is the one named
    assert str(err.value) == f"row 1: {message}"


# ---------------------------------------------------------------------------
# augmentation


def test_policy_validation():
    AugmentationPolicy(weak_noise_sigma=0.0, strong_noise_sigma=0.0,
                       strong_dropout_prob=0.0)
    AugmentationPolicy(strong_dropout_prob=np.nextafter(1.0, 0.0))
    with pytest.raises(ValueError):
        AugmentationPolicy(weak_noise_sigma=0.5, strong_noise_sigma=0.1)
    with pytest.raises(ValueError):
        AugmentationPolicy(strong_dropout_prob=1.5)
    # at 1 every strong view is all zero, and a fresh encoder embeds it at norm 0
    with pytest.raises(ValueError, match=r"^strong_dropout_prob must be in \[0, 1\), got 1\.0$"):
        AugmentationPolicy(strong_dropout_prob=1.0)
    with pytest.raises(ValueError):
        AugmentationPolicy(weak_noise_sigma=-0.1)


def test_augment_identity_when_all_knobs_zero():
    policy = AugmentationPolicy(weak_noise_sigma=0.0, strong_noise_sigma=0.0,
                                strong_dropout_prob=0.0)
    v = np.array([1.0, -2.0, 3.0])
    rng = np.random.default_rng(0)
    assert np.array_equal(augment(v, policy, "weak", rng), v)
    assert np.array_equal(augment(v, policy, "strong", rng), v)


def test_augment_dropout_zeroes_the_drawn_coordinates():
    policy = AugmentationPolicy(weak_noise_sigma=0.0, strong_noise_sigma=0.0,
                                strong_dropout_prob=0.5)
    v = np.arange(1.0, 41.0)
    out = augment(v, policy, "strong", np.random.default_rng(1))
    rng = np.random.default_rng(1)
    rng.normal(0.0, 0.0, size=40)
    dropped = rng.random(40) < 0.5
    assert 0 < dropped.sum() < 40
    assert np.array_equal(out, np.where(dropped, 0.0, v))


def test_augment_replays_exactly_under_same_stream():
    policy = AugmentationPolicy()
    v = np.random.default_rng(2).normal(size=5)
    a = augment(v, policy, "strong", np.random.default_rng(9))
    b = augment(v, policy, "strong", np.random.default_rng(9))
    assert np.array_equal(a, b)
    # weak view consumes only the noise draw
    rng = np.random.default_rng(9)
    expected = v + rng.normal(0.0, policy.weak_noise_sigma, size=5)
    assert np.array_equal(augment(v, policy, "weak", np.random.default_rng(9)),
                          expected)


def test_augment_weak_noise_is_unbiased():
    policy = AugmentationPolicy(weak_noise_sigma=0.3, strong_noise_sigma=0.5)
    v = np.array([0.5, -1.0, 2.0, 0.0])
    rng = np.random.default_rng(3)
    n = 10000
    acc = np.zeros_like(v)
    for _ in range(n):
        acc += augment(v, policy, "weak", rng)
    margin = 3.0 * 0.3 / np.sqrt(n)
    assert np.max(np.abs(acc / n - v)) < margin


def test_augment_rejects_unknown_kind():
    with pytest.raises(ValueError):
        augment(np.ones(3), AugmentationPolicy(), "medium",
                np.random.default_rng(0))


def test_augment_leaves_input_untouched():
    policy = AugmentationPolicy()
    v = np.array([1.0, 2.0])
    keep = v.copy()
    augment(v, policy, "strong", np.random.default_rng(4))
    assert np.array_equal(v, keep)


@pytest.mark.parametrize("kind", ["weak", "strong"])
@pytest.mark.parametrize("n", [0, 1, 7])
def test_augment_block_equals_one_call_per_row(n, kind):
    policy = AugmentationPolicy()
    block = np.random.default_rng(5).normal(size=(n, 6))
    keep = block.copy()
    rng_block, rng_rows = np.random.default_rng(11), np.random.default_rng(11)
    out = augment(block, policy, kind, rng_block)
    rows = np.array([augment(u, policy, kind, rng_rows) for u in block]).reshape(n, 6)
    assert out.shape == (n, 6)
    assert out.tobytes() == rows.tobytes()  # bit for bit, signed zeros too
    assert rng_block.bit_generator.state == rng_rows.bit_generator.state
    assert np.array_equal(block, keep)


def test_augment_rejects_scalar_and_3d_input():
    for bad in (np.float64(1.0), np.ones((2, 3, 4))):
        with pytest.raises(ValueError, match=r"vector or an \(n, d\) block"):
            augment(bad, AugmentationPolicy(), "strong", np.random.default_rng(0))


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_round_trip_is_lossless(tmp_path):
    ds = split_dataset(ratio_fixture(per_class=20), labels_per_class=4,
                       test_fraction=0.2, seed=5)
    path = tmp_path / "data.csv"
    save_csv(ds, path, header_comments=["source = unit-test"])
    back = load_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.split, ds.split)


def _reference_save_csv(ds, hide_unlabeled_labels):
    """The dataset CSV body as the earlier per-row writer formatted it."""
    lines = [",".join([f"feat_{j}" for j in range(ds.num_features)] + ["label", "split"])]
    for i in range(len(ds)):
        label = ds.labels[i]
        if hide_unlabeled_labels and ds.split[i] == "unlabeled":
            label = -1
        cells = [repr(x) for x in ds.features[i].tolist()]
        cells.append(str(int(label)))
        cells.append(str(ds.split[i]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("hide", [False, True])
def test_save_csv_matches_the_per_row_reference(tmp_path, hide):
    ds = split_dataset(ratio_fixture(per_class=12), labels_per_class=2,
                       test_fraction=0.3, seed=4)
    ds.features[:5, 0] = [-0.0, 5e-324, 1e308, 0.1 + 0.2, -1e-300]
    ds.features[5] = 0.0
    path = tmp_path / "data.csv"
    save_csv(ds, path, hide_unlabeled_labels=hide, header_comments=["a = 1"])
    text = path.read_bytes().decode()
    assert text == "# a = 1\n" + _reference_save_csv(ds, hide)
    assert "\n-0.0," in text and "\n5e-324," in text and "\n1e+308," in text
    assert (",-1,unlabeled\n" in text) == hide


def test_sha256_survives_the_csv_round_trip_and_sees_every_column(tmp_path):
    ds = split_dataset(ratio_fixture(per_class=20), labels_per_class=4,
                       test_fraction=0.2, seed=5)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    digest = ds.sha256()
    assert len(digest) == 64 and load_csv(path).sha256() == digest
    features, labels, split = ds.features.copy(), ds.labels.copy(), ds.split.copy()
    features[7, 2] = np.nextafter(features[7, 2], np.inf)
    labels[labels == 0] = 3
    split[0] = "labeled" if split[0] == "test" else "test"
    for changed in (Dataset(features, ds.labels, ds.split),
                    Dataset(ds.features, labels, ds.split),
                    Dataset(ds.features, ds.labels, split)):
        assert changed.sha256() != digest


def test_csv_header_and_float_formatting(tmp_path):
    ds = Dataset(features=np.array([[0.1, 0.2]]), labels=np.array([1]),
                 split=np.array(["labeled"], dtype=object))
    path = tmp_path / "tiny.csv"
    save_csv(ds, path, header_comments=["note = hi"])
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == "# note = hi"
    assert lines[1] == "feat_0,feat_1,label,split"
    assert lines[2] == "0.1,0.2,1,labeled"
    assert text.endswith("\n")


def test_csv_hide_unlabeled_labels(tmp_path):
    ds = split_dataset(ratio_fixture(per_class=10), labels_per_class=2,
                       test_fraction=0.2, seed=6)
    path = tmp_path / "hidden.csv"
    save_csv(ds, path, hide_unlabeled_labels=True)
    back = load_csv(path)
    assert np.all(back.labels[back.split == "unlabeled"] == -1)
    assert np.array_equal(back.labels[back.split != "unlabeled"],
                          ds.labels[ds.split != "unlabeled"])
    with pytest.raises(ValueError):
        back.unlabeled_true_labels()


def test_csv_header_only_file_loads_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("feat_0,feat_1,label,split\n")
    ds = load_csv(path)
    assert ds.features.shape == (0, 2)
    assert ds.labels.size == 0


def test_csv_errors_carry_line_numbers(tmp_path):
    good = "0.1,0.2,0,labeled\n"
    cases = [
        ("bad_width.csv", good * 3 + "0.1,0.2,0\n", 5, "expected 4 columns, found 3"),
        ("bad_cell.csv", good + "x,0.2,0,labeled\n", 3, "non-numeric feature cell"),
        ("bad_label.csv", good + "0.1,0.2,1.5,test\n", 3, "label '1.5' is not an integer"),
        ("huge_label.csv", good + "0.1,0.2,99999999999999999999,test\n", 3,
         "label '99999999999999999999' is outside the int64 range"),
        ("bad_split.csv", good + "0.1,0.2,0,valid\n", 3,
         "split 'valid' not in ('labeled', 'unlabeled', 'test')"),
        ("bad_below.csv", good + "0.1,0.2,-2,unlabeled\n", 3, "label -2 is below -1"),
        ("bad_hidden.csv", good + "0.1,0.2,-1,test\n", 3, "label -1 on a non-unlabeled row"),
        ("bad_inf.csv", good + "inf,0.2,0,labeled\n", 3, "non-finite feature value"),
    ]
    for name, body, line, message in cases:
        path = tmp_path / name
        path.write_text("feat_0,feat_1,label,split\n" + body)
        with pytest.raises(CsvFormatError) as err:
            load_csv(path)
        assert err.value.line_number == line
        assert str(err.value) == f"{path}, line {line}: {message}"


def test_csv_parse_defect_is_reported_before_an_earlier_rule_defect(tmp_path):
    # cells are parsed first and the rules checked after the whole file, so
    # the width defect on line 5 wins over the split defect on line 3
    path = tmp_path / "two.csv"
    path.write_text("feat_0,feat_1,label,split\n0.1,0.2,0,labeled\n"
                    "0.1,0.2,0,valid\n0.1,0.2,0,test\n0.1,0.2\n")
    with pytest.raises(CsvFormatError) as err:
        load_csv(path)
    assert str(err.value) == f"{path}, line 5: expected 4 columns, found 2"
    # of two rule defects, the earlier line is named
    path.write_text("feat_0,feat_1,label,split\n0.1,0.2,0,labeled\n"
                    "0.1,0.2,-1,test\n# note\n0.1,nan,0,test\n")
    with pytest.raises(CsvFormatError) as err:
        load_csv(path)
    assert str(err.value) == f"{path}, line 3: label -1 on a non-unlabeled row"


def test_csv_bad_header_rejected(tmp_path):
    path = tmp_path / "bad_header.csv"
    path.write_text("# comment\nf0,f1,label,split\n0.1,0.2,0,labeled\n")
    with pytest.raises(CsvFormatError) as err:
        load_csv(path)
    assert err.value.line_number == 2


def test_csv_blank_first_line_is_skipped(tmp_path):
    # blank lines are skipped everywhere, the first line included
    path = tmp_path / "lead.csv"
    path.write_text("\nfeat_0,feat_1,label,split\n0.1,0.2,0,labeled\n")
    ds = load_csv(path)
    assert ds.features.tolist() == [[0.1, 0.2]]
    assert ds.split.tolist() == ["labeled"]


# the three CSV formats: (reader, bad header, good header, a good row)
CSV_FORMATS = {
    "dataset": (load_csv, "f0,f1,label,split", "feat_0,feat_1,label,split",
                "0.1,0.2,0,labeled"),
    "metrics": (read_metrics, "step,loss", METRICS_HEADER, "0,0,0.5,1.0,1,0,1.0,"),
    "probabilities": (_load_prob_rows, "q_0,q_1", "p_0,p_1", "0.5,0.5"),
}


@pytest.mark.parametrize("fmt", sorted(CSV_FORMATS))
def test_csv_header_error_comes_before_row_errors(tmp_path, fmt):
    read, bad_header, header, row = CSV_FORMATS[fmt]
    path = tmp_path / f"{fmt}.csv"
    # line 3 is a bad header, line 4 a row of the wrong width
    path.write_text(f"# note = x\n\n{bad_header}\n1,2,3,4,5,6,7,8,9\n")
    with pytest.raises(CsvFormatError) as err:
        read(path)
    assert err.value.line_number == 3
    # a good header among comments and blank lines: the bad row keeps its
    # own line number (6), after the good rows before it are read
    path.write_text(f"# note = x\n{header}\n\n{row}\n# later\n1,2,3,4,5,6,7,8,9\n{row}\n")
    with pytest.raises(CsvFormatError) as err:
        read(path)
    assert err.value.line_number == 6
    assert "line 6: expected" in str(err.value)


def test_csv_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_csv(tmp_path / "nope.csv")
