"""Calls into sscent's own code per training step, pinned from above.

At the small shapes a step is bound by Python call overhead, so the number
of calls into the package is a cost the tests can hold steady. Only frames
of code under the package directory count: NumPy's Python wrappers and C
functions do not, so the count does not depend on the NumPy version. A
change that saves calls lowers a bound here on purpose.

The step calls the C functions behind NumPy's Python wrappers of reductions
and stacking (`np.add.reduce` for `.sum`, `np.concatenate` for `np.vstack`)
with the same bits; a second test holds that no such wrapper is entered.
"""

import os
import sys
from importlib import resources

import pytest

import sscent
from sscent import generate_gaussian_clusters, init_train_state, split_dataset, train_step
from sscent.trainer import parse_config_lines

# perfbench's step shapes: `small-long` is the paper preset at N = 6 under
# ssc, `desk` the desk preset at N = 123 with the entropy gate on
SHAPES = {
    "small-long": ("paper", ["train.method = ssc", "train.labeled_batch_size = 1",
                             "train.mu = 1", "encoder.hidden_dims = 4",
                             "encoder.embed_dim = 4"]),
    "desk": ("desk", []),
}

# upper bounds on the calls of one train_step, measured on Python 3.11
CALLS_PER_STEP = {"small-long": 43, "desk": 50}

# NumPy's Python wrappers that the step does not enter, by file basename and
# function name: every function of `_methods.py` (the ndarray reduction
# methods), `vstack`, and the module-level reductions (`amax`/`amin` on NumPy 1)
WRAPPERS = {"shape_base.py": {"vstack"},
            "fromnumeric.py": {"mean", "max", "amax", "min", "amin", "sum", "any", "all"}}

PACKAGE_DIR = os.path.dirname(sscent.__file__) + os.sep


def _is_wrapper(code) -> bool:
    name = os.path.basename(code.co_filename)
    return name == "_methods.py" or code.co_name in WRAPPERS.get(name, ())


def _step_calls(fn, *args):
    """(the Python-level calls into package code that `fn(*args)` makes,
    itself included; the (file, function) of each NumPy wrapper frame that
    package code enters)."""
    calls, wrappers = 0, []

    def count(frame, event, arg):
        nonlocal calls
        if event != "call":
            return
        if frame.f_code.co_filename.startswith(PACKAGE_DIR):
            calls += 1
        elif (_is_wrapper(frame.f_code)
              and frame.f_back.f_code.co_filename.startswith(PACKAGE_DIR)):
            wrappers.append((os.path.basename(frame.f_code.co_filename), frame.f_code.co_name))

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return calls, wrappers


def _step_args(shape):
    preset, extra = SHAPES[shape]
    lines = resources.files("sscent.presets").joinpath(f"{preset}.cfg").read_text("utf-8")
    config = parse_config_lines(lines.splitlines() + extra)
    # perfbench's gen-data arguments at seed 0
    data = split_dataset(generate_gaussian_clusters(3, 8, 504, 1.0, 4.0, 0), 4, 0.6667, 0)
    state = init_train_state(config, data)
    return (state, config, config.gate(data.num_classes), config.policy(),
            data.labeled_features(), data.labeled_labels(), data.unlabeled_features(),
            config.epochs * config.steps_per_epoch)


@pytest.mark.parametrize("shape", list(SHAPES))
def test_a_train_step_stays_within_its_call_budget(shape):
    args = _step_args(shape)
    counts = [_step_calls(train_step, *args)[0] for _ in range(3)]
    assert counts[0] == counts[1] == counts[2]  # every step of these shapes makes the same calls
    assert counts[0] <= CALLS_PER_STEP[shape]


@pytest.mark.parametrize("shape", list(SHAPES))
def test_a_train_step_enters_no_numpy_reduction_or_stacking_wrapper(shape):
    args = _step_args(shape)
    assert _step_calls(train_step, *args)[1] == []
