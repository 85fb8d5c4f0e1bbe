"""Random keys and values from every command's table never reach a traceback.

Each run exits 0, 2, 3 or 4; a config error (exit 2) leaves no output
directory behind.
"""

import contextlib
import io
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sumformer.cli import SCHEMA, main  # noqa: E402

ANY_KEY = st.sampled_from(
    sorted({key for keys in SCHEMA.values() for key in keys} - {"out"}) + ["bogus"]
)
BAD = st.one_of(
    st.sampled_from(["0", "-1", "1.5", "1e400", "inf", "nan", "", "1,2", "none", "k"]),
    st.text(alphabet="ab_-. ,", max_size=5),
)
# Written first into the config file, so that a drawn entry may still override them.
PINNED = {
    "verify": "samples = 1\ntrials = 2\ngradient_seeds = 2\n",
    "train": "epochs = 1\npoints = 10\n",
    "sweep": "epochs = 1\npoints = 10\nd_latent = 2\nseed = 0\n",
    "bench": "",
}


# Keys whose huge values are refused by a bound or a memory estimate, or cost
# nothing; a huge count of epochs, trials or seeds would only take long.
HUGE = {"n", "d", "d_latent", "points", "samples", "delta", "batch_size", "seed", "d_model", "k"}


def _values(key, spec):
    """Values of the key's kind; integers are at most 2, so that runs stay short,
    or for the keys in HUGE sometimes far beyond any memory."""
    if spec.kind is int:
        good = st.integers(spec.low, max(spec.low, 2)).map(str)
        if key in HUGE:
            good = good | st.integers(10**9, 10**30).map(str)
    elif spec.kind is float:
        good = st.sampled_from(["0.5", "0.001", "0", "-1"])  # a tol of 0 or -1 fails verify
    else:
        good = st.nothing()
    good = good | st.sampled_from(spec.choices) if spec.choices else good
    if spec.many:
        good = st.lists(good, min_size=1, max_size=2).map(",".join)
    return good


@st.composite
def invocations(draw):
    """A command and up to three (key, value, as_flag) entries, mostly its own keys."""
    command = draw(st.sampled_from(sorted(SCHEMA)))
    table = {key: spec for key, spec in SCHEMA[command].items() if key != "out"}
    entries = []
    for _ in range(draw(st.integers(0, 3))):
        # One in five keys from anywhere, one in four values bad.
        key = draw(st.sampled_from(sorted(table)) if draw(st.integers(0, 4)) else ANY_KEY)
        good = key in table and draw(st.integers(0, 3))
        value = draw(_values(key, table[key]) if good else BAD)
        entries.append((key, value, draw(st.booleans())))
    return command, entries


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(invocations())
def test_random_config_never_tracebacks(invocation):
    command, entries = invocation
    with tempfile.TemporaryDirectory() as tmp:
        config, out = os.path.join(tmp, "run.cfg"), os.path.join(tmp, "out")
        with open(config, "w") as fh:
            fh.write(PINNED[command])
            fh.writelines(f"{key} = {value}\n" for key, value, as_flag in entries if not as_flag)
        argv = [command, "--config", config, "--out", out]
        for key, value, as_flag in entries:
            if as_flag:
                argv += ["--" + key.replace("_", "-"), value]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: unknown flag or missing value
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        if code == 2:
            assert not os.path.exists(out), argv
