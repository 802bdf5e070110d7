"""The tracer's counts, self times and rebinding, checked independently."""

import sys
import threading
from collections import Counter

import numpy as np
import pytest

from tomolens import fock, moments, scenarios, tomography
from tracer import LAYERS, Span, Tracer, layer_metrics

SWEEP = {"scenario": "variance-sweep", "family": "ecs", "param_start": "0.5",
         "param_stop": "0.9", "param_count": "3", "theta": "0.3"}


class CallCounter:
    """Counts calls of given functions with the interpreter's profile hook,
    a mechanism independent of the tracer's rebinding."""

    def __init__(self, functions):
        self.codes = {fn.__code__: name for name, fn in functions.items()}
        self.counts = Counter()
        self.lock = threading.Lock()

    def _hook(self, frame, event, arg):
        if event == "call" and frame.f_code in self.codes:
            with self.lock:
                self.counts[self.codes[frame.f_code]] += 1

    def __enter__(self):
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        threading.setprofile(None)


def test_wrapped_call_counts_equal_an_independent_count(tmp_path, monkeypatch):
    monkeypatch.setenv("TOMOLENS_THREADS", "2")  # sweep points run on pool workers
    originals = {
        "hermite": fock.hermite_psi_matrix,
        "pure": tomography.tomogram_pure,
        "table": moments.moment_table,
    }
    tracer = Tracer()
    with CallCounter(originals) as counter, tracer:
        scenarios.run_scenario(dict(SWEEP), str(tmp_path))
    m = layer_metrics(tracer.spans, 1.0)
    assert counter.counts["hermite"] > 0
    assert m["fock.hermite.calls"] == counter.counts["hermite"]
    assert m["tomography.pure.calls"] == counter.counts["pure"]
    assert m["moments.table.calls"] == counter.counts["table"] == 3
    assert m["scenarios.calls"] == 1


def test_install_rebinds_names_imported_into_other_modules_and_uninstall_restores():
    before = (moments.tomogram_joint, moments.hermite_psi_matrix, scenarios.tomogram_joint)
    tracer = Tracer()
    with tracer:
        assert moments.tomogram_joint is tomography.tomogram_joint
        assert moments.tomogram_joint is not before[0]
        assert moments.hermite_psi_matrix is fock.hermite_psi_matrix is not before[1]
        assert scenarios.tomogram_joint.__wrapped__ is before[2]
    assert (moments.tomogram_joint, moments.hermite_psi_matrix, scenarios.tomogram_joint) == before


def test_every_layer_function_exists():
    import importlib

    for module, names, _, _ in LAYERS:
        mod = importlib.import_module(f"tomolens.{module}")
        for name in names:
            assert callable(getattr(mod, name)), f"{module}.{name}"


def test_self_time_never_exceeds_span_time(tmp_path, monkeypatch):
    monkeypatch.setenv("TOMOLENS_THREADS", "2")
    tracer = Tracer()
    with tracer:
        scenarios.run_scenario(dict(SWEEP), str(tmp_path))
    total: Counter = Counter()
    for s in tracer.spans:
        total[s.layer] += s.end - s.start
    m = layer_metrics(tracer.spans, 1.0)
    for layer in ("fock.hermite", "states.build", "tomography.pure", "moments.table"):
        assert 0.0 <= m[f"{layer}.self_s"] <= total[layer] + 1e-12
    assert 0.0 <= m["scenarios.self_s"] <= total["scenarios"]


def test_worker_spans_belong_to_the_running_scenario(tmp_path, monkeypatch):
    monkeypatch.setenv("TOMOLENS_THREADS", "2")
    tracer = Tracer()
    with tracer:
        scenarios.run_scenario(dict(SWEEP), str(tmp_path))
    (op,) = [s for s in tracer.spans if s.layer == "scenarios"]
    off_main = [s for s in tracer.spans if s.thread != op.thread]
    assert off_main, "the sweep should have run on pool workers"
    roots = [s for s in off_main if s.cross_thread]
    assert roots and all(s.parent == op.id for s in roots)


def test_layer_metrics_on_hand_built_spans():
    main, worker = 1, 2
    spans = [
        Span(1, "scenarios", 0.0, 10.0, main, None, False, {"artifact_bytes": 5}),
        Span(2, "states.build", 1.0, 4.0, main, 1, False, {"dim": 7}),
        Span(3, "states.build", 2.0, 3.0, main, 2, False, {"dim": 7}),  # nested: not a call
        Span(4, "fock.hermite", 0.0, 6.0, worker, 1, True, {"values": 10}, ("a",)),
        Span(5, "fock.hermite", 6.0, 8.0, worker, 1, True, {"values": 10}, ("a",)),
    ]
    m = layer_metrics(spans, 10.0)
    assert m["scenarios.self_s"] == pytest.approx(7.0)  # worker spans do not count
    assert m["states.build.calls"] == 1
    assert m["states.build.dim"] == 7
    assert m["states.build.self_s"] == pytest.approx(3.0)
    assert m["fock.hermite.calls"] == 2
    assert m["fock.hermite.values"] == 20
    assert m["fock.hermite.distinct_ratio"] == pytest.approx(0.5)
    assert m["scenarios.concurrency"] == pytest.approx((10.0 + 6.0 + 2.0) / 10.0)
    assert m["scenarios.artifact_bytes"] == 5


def test_digest_separates_contents():
    from tracer import digest

    a = np.linspace(-1.0, 1.0, 5)
    b = a.copy()
    assert digest(a) == digest(b)
    b[-1] = np.nextafter(b[-1], 2.0)
    assert digest(a) != digest(b)
