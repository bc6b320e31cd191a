"""Every file the CLI reads, under seeded random damage.

Each reader gets a fixed number of mutations of a valid input from a
seeded `random.Random`: a cell replaced by `nan`, `inf`, `1e400`, an empty
string or `x`; a line dropped, duplicated or cut short; the file truncated;
and for a checkpoint, bytes flipped or the file truncated. `cli.main` runs
in-process with warnings as errors, and whatever the damage:

- no exception escapes `main`;
- the exit code is 0, 1, 2 or 3;
- a nonzero exit writes exactly one `error:` line to stderr, except that a
  usage message keeps its own shape and an exit 3 may be followed by the
  dump of the offending batch.
"""

import random
import re

import pytest

from sscent.cli import main

pytestmark = pytest.mark.filterwarnings("error")

CELLS = ("nan", "inf", "1e400", "", "x")

# a short schedule at a tiny shape, so a run that accepts its input ends fast
FAST = ["--set", "train.labeled_batch_size = 4", "--set", "train.mu = 2",
        "--set", "encoder.hidden_dims = 8", "--set", "encoder.embed_dim = 4",
        "--set", "train.eval_every = 2", "--epochs", "2", "--steps-per-epoch", "4"]

# the heads of the batch dump's lines after an exit-3 error line
DUMP_HEADS = ["offending batch", "embedding norms", "labels", "weights"]


def mutate_text(text, rng):
    """`text` with one seeded mutation, and a description of it."""
    lines = text.split("\n")
    kind = rng.choice(("cell", "cell", "cell", "drop", "duplicate", "cut", "truncate"))
    if kind == "truncate":
        at = rng.randrange(len(text))
        return text[:at], f"truncated to {at} characters"
    if kind == "cell":  # a cell of a CSV row, or either side of a `key = value` line
        i = rng.choice([i for i, line in enumerate(lines) if line and line[0] != "#"])
        pieces = re.split(r"([,=])", lines[i])
        j = rng.randrange(0, len(pieces), 2)
        pieces[j] = rng.choice(CELLS)
        changed = "".join(pieces)
        lines[i] = changed
        return "\n".join(lines), f"line {i + 1} set to {changed!r}"
    i = rng.randrange(len(lines))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
    return "\n".join(lines), f"{kind} line {i + 1}"


def mutate_bytes(data, rng):
    """`data` with seeded bytes flipped, or truncated, and a description."""
    if rng.random() < 0.25:
        at = rng.randrange(len(data))
        return data[:at], f"truncated to {at} bytes"
    out = bytearray(data)
    spots = sorted(rng.randrange(len(out)) for _ in range(rng.randint(1, 3)))
    for at in spots:
        out[at] ^= rng.randrange(1, 256)
    return bytes(out), f"bytes flipped at {spots}"


def check_outcome(code, err, what):
    assert code in (0, 1, 2, 3), f"{what}: exit {code}"
    if code == 0:
        return
    if err.startswith("usage: "):
        assert code == 1, f"{what}: a usage message with exit {code}"
        return
    lines = err.splitlines()
    assert lines and lines[0].startswith("error: "), f"{what}: stderr {err!r}"
    rest = lines[1:]
    if code == 3 and rest:
        assert [line.partition(": ")[0] for line in rest] == DUMP_HEADS, f"{what}: stderr {err!r}"
    else:
        assert not rest, f"{what}: stderr {err!r}"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid files of every kind the CLI reads, as bytes by name."""
    root = tmp_path_factory.mktemp("valid")
    data, ckpt, log = root / "data.csv", root / "run.npz", root / "run.csv"
    assert main(["gen-data", "--classes", "3", "--dim", "4", "--per-class", "12",
                 "--labels-per-class", "3", "--seed", "5", "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), *FAST, "--checkpoint-out", str(ckpt),
                 "--metrics-out", str(log)]) == 0
    # the run's config: its log's comment lines but the data.* ones
    config = "".join(line[2:] + "\n" for line in log.read_text().splitlines()
                     if line.startswith("# ") and not line.startswith("# data."))
    probs = "p_0,p_1,p_2\n" + "".join(f"{a},{b},{1 - a - b}\n" for a, b in
                                      [(0.9, 0.05), (0.5, 0.25), (0.2, 0.2), (1.0, 0.0),
                                       (0.3, 0.6), (0.125, 0.75)])
    return {"data": data.read_bytes(), "ckpt": ckpt.read_bytes(), "log": log.read_bytes(),
            "config": config.encode(), "probs": probs.encode()}


# reader -> (the input it damages, mutations, argv given the damaged file and
# the valid files, by name)
CASES = {
    "data-train": ("data", 60, lambda bad, ok: ["train", "--data", bad, *FAST]),
    "data-eval": ("data", 60, lambda bad, ok: ["eval", "--checkpoint", ok["ckpt"],
                                               "--data", bad]),
    "config": ("config", 80, lambda bad, ok: ["train", "--data", ok["data"], "--config", bad,
                                              "--epochs", "1", "--steps-per-epoch", "2"]),
    "log-compare": ("log", 80, lambda bad, ok: ["compare", bad, ok["log"]]),
    "log-append": ("log", 60, lambda bad, ok: ["eval", "--checkpoint", ok["ckpt"],
                                               "--data", ok["data"], "--append", bad]),
    "gate-sim": ("probs", 80, lambda bad, ok: ["gate-sim", "--input", bad]),
    "ckpt-eval": ("ckpt", 120, lambda bad, ok: ["eval", "--checkpoint", bad,
                                               "--data", ok["data"]]),
    "ckpt-resume": ("ckpt", 120, lambda bad, ok: ["train", "--data", ok["data"],
                                                 "--resume", bad]),
}


@pytest.mark.parametrize("case", list(CASES))
def test_damaged_input_is_refused_in_one_error_line(case, inputs, tmp_path, capsys):
    name, count, argv = CASES[case]
    ok = {}
    for key, content in inputs.items():
        ok[key] = str(tmp_path / f"ok_{key}")
        with open(ok[key], "wb") as fh:
            fh.write(content)
    bad = str(tmp_path / f"bad_{name}")
    rng = random.Random(case)
    for i in range(count):
        if name == "ckpt":
            damaged, what = mutate_bytes(inputs[name], rng)
        else:
            text, what = mutate_text(inputs[name].decode(), rng)
            damaged = text.encode()
        with open(bad, "wb") as fh:
            fh.write(damaged)
        what = f"{case} mutation {i} ({what})"
        capsys.readouterr()
        try:
            code = main(argv(bad, ok))
        except (Exception, SystemExit) as exc:  # warnings raised as errors included
            pytest.fail(f"{what}: {type(exc).__name__}: {exc}")
        check_outcome(code, capsys.readouterr().err, what)
