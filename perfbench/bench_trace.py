"""Item timing, stage spans and `np.linalg` call counts, all taken from
outside the program.

For the length of one pass the benchmark replaces public functions of
tantheta's modules by timing wrappers and puts the originals back after it.
Every pass times its items (one trial, or one instance file). A traced pass
also records a span at each stage call and counts calls into `np.linalg`.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from tantheta import bounds, harness, model, riccati, spectral
from tantheta.errors import TanThetaError

# Span name and the public functions whose calls it covers, in run_trial's
# order of calls; write_reports and load_instance bracket it in the
# campaign_small and instance_audit workloads.
STAGES = (
    ("harness.generate", harness, ("generate_instance",)),
    ("model.load_instance", model, ("load_instance",)),
    ("spectral.disposition", spectral, ("find_disposition",)),
    ("spectral.partition", spectral, ("perturbed_partition",)),
    ("riccati.extract", riccati, ("extract_angular_operator",)),
    ("spectral.distance", spectral, ("projection_distance", "unperturbed_projector")),
    ("bounds.m_total", bounds, ("m_total",)),
    ("riccati.audit", riccati, ("verify_lemma_identities",)),
    ("riccati.fixed_point", riccati, ("solve_riccati_fixed_point",)),
    ("harness.write_reports", harness, ("write_reports",)),
)
V_NORM = "model.v_norm"
ITEM = "item"
# Counter name -> np.linalg entry point. `norm` counts only ord=2 calls,
# the SVD-based operator norm.
LINALG = (("norm2", "norm"), ("svd", "svd"), ("eigh", "eigh"), ("eigvalsh", "eigvalsh"))


class Recorder:
    """What one pass measured: item latencies and, when traced, the spans
    and the `np.linalg` call counts."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.items: list[tuple] = []  # (item number, ms, raised TanThetaError)
        self.spans: list[list] = []  # [name, start, end, parent, item, error]
        self.calls: Counter = Counter()
        self._stack: list[int] = []
        self._item = None

    def item(self, fn, *args):
        """Call fn(*args) as one timed item, numbered in call order within
        the pass; traced, it is the root span of the item's stages."""
        item_id = self._item = len(self.items)
        failed = False
        start = time.perf_counter()
        try:
            return self._span(ITEM, fn, args, {}) if self.traced else fn(*args)
        except TanThetaError:
            failed = True
            raise
        finally:
            self.items.append((item_id, (time.perf_counter() - start) * 1e3, failed))
            self._item = None

    def _span(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self._item, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            span[5] = type(exc).__name__
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(name, fn, args, kwargs)

        return wrapper

    def counted(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key != "norm2" or (args[1] if len(args) > 1 else kwargs.get("ord")) == 2:
                self.calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper


@contextlib.contextmanager
def instrumented(rec: Recorder):
    """Install rec's wrappers for the duration of the block."""
    undo = []

    def replace(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        run_trial = harness.run_trial
        replace(harness, "run_trial", lambda cfg: rec.item(run_trial, cfg))
        if rec.traced:
            # A function is looked up in the namespace of the module that
            # calls it, so every tantheta module that imported it gets the
            # wrapper.
            modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "tantheta"]
            for name, owner, attrs in STAGES:
                for attr in attrs:
                    original = getattr(owner, attr)
                    wrapper = rec.spanned(name, original)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                replace(module, key, wrapper)
            v_norm = model.BlockOperator.v_norm
            replace(model.BlockOperator, "v_norm", property(rec.spanned(V_NORM, v_norm.fget)))
            for key, attr in LINALG:
                replace(np.linalg, attr, rec.counted(key, getattr(np.linalg, attr)))
        yield rec
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def self_times(spans) -> dict:
    """Total self time in ms per span name: each span's duration minus the
    part of it that its child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict = defaultdict(float)
    for i, (name, start, end, _, _, _) in enumerate(spans):
        out[name] += (end - start - covered[i]) * 1e3
    return out
