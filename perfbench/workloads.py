"""The benchmark's workloads: set-up, one operation, and the output oracle.

Every workload builds its inputs from the seed it is given and calls the
library only through module attributes looked up at call time
(``sf.train.train``), so the traced run sees the wrapped functions.
``prepare`` computes oracle references after set-up has been timed; it
is benchmark work, not library work.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import shutil
import tempfile
import time
from types import SimpleNamespace

import numpy as np

from layers import HEAD_SIZES, VARIANTS, median

MODULES = ("attention", "cli", "model", "multisym", "targets", "train", "verify")


def load_library(src_dir: str) -> SimpleNamespace:
    """Import the sumformer modules the workloads call, from ``src_dir`` only."""
    sf = SimpleNamespace(**{m: importlib.import_module(f"sumformer.{m}") for m in MODULES})
    found = os.path.realpath(os.path.dirname(sf.train.__file__))
    if os.path.dirname(found) != os.path.realpath(src_dir):
        raise ImportError(f"sumformer imported from {found}, not from {src_dir}")
    return sf


class Calibration:
    """A fixed numpy computation, independent of the library, timed around
    every operation to measure how fast the machine runs at that moment.

    On a shared host the same process runs up to about 1.6x slower while
    other tenants are busy, in spells of seconds to minutes, so raw medians
    of separate runs disagree by more than any useful bound.  An operation's
    time divided by the calibration time measured around it, times
    ``reference_s``, is its time at the speed where the kernel takes
    ``reference_s``.  A workload uses the kernel closest to its own mix, as
    the slowdown depends on it.  ``reference_s`` is about the kernel's time
    on an otherwise idle 2-vCPU Xeon VM.
    """

    def __init__(self, kernel, reference_s: float):
        self.kernel, self.reference_s = kernel, reference_s

    def seconds(self) -> float:
        t = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t


_rng = np.random.default_rng(20230705)
_SMALL_X = _rng.uniform(size=(100, 50))
_SMALL_W = _rng.uniform(size=(50, 50)) / 50.0
_LARGE_X = _rng.uniform(size=(1024, 16))


def small_matrix_loop():
    """Python-driven chain of small matmuls, like an MLP training step."""
    h = _SMALL_X
    for _ in range(150):
        h = np.tanh(h @ _SMALL_W)
    return h


def large_array_pass():
    """One pass of softmax-style work over a 1024 x 1024 score matrix."""
    s = _LARGE_X @ _LARGE_X.T
    return np.exp(s - s.max(axis=1, keepdims=True)).sum()


SMALL = Calibration(small_matrix_loop, 2.8e-3)
LARGE = Calibration(large_array_pass, 10.8e-3)


class Workload:
    """Defaults for a workload with no oracle references and no MAC figures."""

    def prepare(self):
        pass

    def count_macs(self):
        return {}, []


class Train(Workload):
    """``train()`` on the default ``sumformer train`` configuration."""

    EPOCHS = 5
    labels = ("train",)
    calibration = SMALL

    def __init__(self, sf, seed: int, scratch: str):
        self.sf, self.seed = sf, seed
        target = sf.targets.get_target("cubic_coupling")
        self.data = sf.train.generate_dataset(target, 3, 2, 2000, 0.8, seed)
        self.config = sf.train.OptimizerConfig(lr=1e-3, batch_size=100)
        self.reference = None

    def next_op(self):
        model = self.sf.model.build_mlp_sumformer(2, 32, self.seed)
        return "train", "train.run", lambda: self.sf.train.train(
            model, self.data, self.EPOCHS, self.config, self.seed)

    def check(self, label, report) -> bool:
        """Losses and validation errors are finite and bitwise equal to the first run's."""
        record = (tuple(report.train_losses), tuple(report.val_errors),
                  report.best_validation_error)
        values = [*record[0], *(e for _, e in record[1]), record[2]]
        if not all(math.isfinite(v) for v in values):
            return False
        if self.reference is None:
            self.reference = record
        return record == self.reference

    def steps_per_call(self) -> int:
        batches = math.ceil(len(self.data.train_idx) / self.config.batch_size)
        return batches * self.EPOCHS

    def named(self, samples):
        runs = samples["train"]
        return [
            ("train_run_s", median(runs), "s"),
            ("train_steps_per_s", len(runs) * self.steps_per_call() / sum(runs) if runs else 0.0,
             "1/s"),
        ]


def reference_head(variant: str, x, w_q, w_k, w_v, e=None, f=None, omegas=None, block=64):
    """Plain-numpy head output, computed row block by row block.

    The low-rank keys are projected as E (X Wk) and the random-feature
    product is associated left, (a(Q) a(K)^T) V, so the reference does not
    share the library's evaluation order.
    """
    q = x @ w_q
    if variant == "performer":
        k = omegas.shape[0]

        def features(z):
            return np.exp(z @ omegas.T - 0.5 * np.sum(z * z, axis=1, keepdims=True)) / math.sqrt(k)

        qf, kf, v = features(q), features(x @ w_k), x @ w_v
        blocks = [(qf[i:i + block] @ kf.T) @ v for i in range(0, x.shape[0], block)]
        return np.vstack(blocks)
    keys, values = x @ w_k, x @ w_v
    if variant == "linformer":
        keys, values = e @ keys, f @ values
    blocks = []
    for i in range(0, x.shape[0], block):
        scores = q[i:i + block] @ keys.T / math.sqrt(x.shape[1])
        p = np.exp(scores - scores.max(axis=1, keepdims=True))
        blocks.append((p / p.sum(axis=1, keepdims=True)) @ values)
    return np.vstack(blocks)


class Heads(Workload):
    """Every attention head forward in turn: nine heads and three constructions.

    The heads are ``head_forward`` of each variant at n = 256, 1024 and
    4096, m = k = 16; the constructions are ``SumExtractionConstruction.forward``
    of each variant at n=6, d=3 (m=170).  One operation is one forward.
    """

    M = K = 16
    TOL = 1e-12
    N, D = 6, 3
    calibration = LARGE
    CONSTRUCTION_TOL = {"standard": 1e-10, "linformer": 1e-10, "performer": 1e-8}

    def __init__(self, sf, seed: int, scratch: str, variants=VARIANTS, sizes=HEAD_SIZES):
        self.sf = sf
        rng = np.random.default_rng(seed)
        att = sf.attention
        self.heads = {}
        for variant in variants:
            for n in sizes:
                x = rng.uniform(size=(n, self.M))
                w = [rng.uniform(-1.0, 1.0, size=(self.M, self.M)) / math.sqrt(self.M)
                     for _ in range(3)]
                if variant == "standard":
                    extra = {}
                    spec = att.StandardHeadSpec(*w)
                elif variant == "linformer":
                    extra = {"e": rng.uniform(size=(self.K, n)) / n,
                             "f": rng.uniform(size=(self.K, n)) / n}
                    spec = att.LinformerHeadSpec(*w, **extra)
                else:
                    extra = {"omegas": rng.standard_normal((self.K, self.M))}
                    spec = att.PerformerHeadSpec(*w, **extra)
                self.heads[f"{variant}.n{n}"] = (variant, n, x, spec, w, extra)
        self.basis = sf.multisym.enumerate_multidegrees(self.D, self.N)
        self.constructions = {}
        for variant in variants:
            kwargs = {} if variant == "standard" else {"k": self.N - 1}
            if variant == "performer":
                kwargs["seed"] = seed
            con = att.build_sum_extraction(variant, self.N, self.D, self.basis, **kwargs)
            self.constructions[f"construction.{variant}"] = (
                variant, con, rng.uniform(size=(self.N, self.D)))
        self.labels = (*self.heads, *self.constructions)
        self.turn = 0
        self.references = {}

    def prepare(self):
        for label, (variant, _, x, _, w, extra) in self.heads.items():
            self.references[label] = reference_head(variant, x, *w, **extra)
        for label, (_, _, x) in self.constructions.items():
            self.references[label] = self.sf.multisym.power_sum_vector(x, self.basis)

    def next_op(self):
        label = self.labels[self.turn % len(self.labels)]
        self.turn += 1
        if label in self.heads:
            _, _, x, spec, _, _ = self.heads[label]
            return label, f"attention.{label}", lambda: self.sf.attention.head_forward(x, spec)
        _, con, x = self.constructions[label]
        return label, f"attention.{label}", lambda: con.forward(x)

    def check(self, label, out) -> bool:
        """Heads within 1e-12 relative of ``reference_head``; constructions' Sigma
        block equal to the power sums of the input."""
        ref = self.references[label]
        if label in self.heads:
            if not isinstance(out, np.ndarray) or out.shape != ref.shape:
                return False
            return float(np.max(np.abs(out - ref))) <= self.TOL * float(np.max(np.abs(ref)))
        variant, con, _ = self.constructions[label]
        if not isinstance(out, np.ndarray) or out.shape != (self.N, con.model_dim):
            return False
        residual = float(np.max(np.abs(out[:, -ref.shape[0]:] - ref)))
        return residual <= self.CONSTRUCTION_TOL[variant]

    def named(self, samples):
        pooled = [s for label in self.constructions for s in samples[label]]
        return [*((f"{v}_fwd_ms", median(samples[f"{v}.n4096"]) * 1e3, "ms") for v in VARIANTS),
                ("construction_fwd_ms", median(pooled) * 1e3, "ms")]

    def count_macs(self):
        """MACs per forward: ``mac_count`` for the heads, cross-checked against a
        ``MacCounter`` run, and ``MacCounter`` for the constructions."""
        att = self.sf.attention
        macs, problems = {}, []
        for label, (variant, n, x, spec, _, _) in self.heads.items():
            k = None if variant == "standard" else self.K
            expected = att.mac_count(variant, n, self.M, k)
            counter = att.MacCounter()
            att.head_forward(x, spec, counter)
            if counter.total != expected:
                problems.append(f"{label}: counted {counter.total} MACs, "
                                f"mac_count says {expected}")
            macs[f"attention.{label}"] = expected
        for label, (_, con, x) in self.constructions.items():
            counter = att.MacCounter()
            con.forward(x, counter)
            macs[f"attention.{label}"] = counter.total
        return macs, problems


class Verify(Workload):
    """``sumformer verify`` with its defaults; its check inputs come from the library's own seeds."""

    labels = ("verify",)
    calibration = SMALL

    def __init__(self, sf, seed: int, scratch: str):
        self.sf, self.scratch = sf, scratch
        self.out = None

    def next_op(self):
        self.out = tempfile.mkdtemp(prefix="verify-", dir=self.scratch)
        out = self.out

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return self.sf.cli.main(["verify", "--out", out])

        return "verify", "cli.main", call

    def check(self, label, code) -> bool:
        """Exit code 0 and ``status=pass`` on every report line."""
        try:
            with open(os.path.join(self.out, "verify_report.txt")) as fh:
                lines = fh.read().splitlines()
        except OSError:
            return False
        finally:
            shutil.rmtree(self.out, ignore_errors=True)
        return code == 0 and bool(lines) and all("status=pass" in line.split() for line in lines)

    def named(self, samples):
        return [("verify_s", median(samples["verify"]), "s")]


WORKLOADS = {"train": Train, "heads": Heads, "verify": Verify}
