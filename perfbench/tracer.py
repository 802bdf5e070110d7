"""Thread-aware span tracer that measures tomolens layers from outside.

The tracer wraps the public functions of each package module and rebinds
every name that refers to them in every loaded ``tomolens`` module, so a
call made through ``from .tomography import tomogram_joint`` in ``moments``
is traced just like a call through ``tomography.tomogram_joint``.  Nothing
under ``src/`` is edited.

Each thread keeps its own span stack.  Scenario sweeps fan out over
``ThreadPoolExecutor`` workers; a span opened on a worker with an empty stack
is attributed to the operation (scenario or audit) running on the main
thread, but it does not count against that operation's self time, which is
main-thread time outside same-thread child spans.

Spans are kept in memory as :class:`Span` records and reduced to per-layer
metrics by :func:`layer_metrics` once a pass has finished.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import operator
import os
import sys
import threading
import time
import weakref
from dataclasses import dataclass, field

import numpy as np


def digest(array) -> bytes:
    """Content hash of an array, used to count distinct kernel inputs."""
    arr = np.ascontiguousarray(array)
    h = hashlib.blake2b(digest_size=16)
    h.update(str((arr.dtype.str, arr.shape)).encode())
    h.update(memoryview(arr).cast("B"))
    return h.digest()


def _dim(state) -> int:
    return int(state.n_cut) + 1


def _state_array(obj):
    return obj.amplitudes if hasattr(obj, "amplitudes") else obj.entries


# Each counter receives the bound arguments and the result of one call, and
# a digest function; it returns (counts, distinct key).  Counts are computed
# from argument and result shapes only.
def _count_hermite(a, result, digest):
    x = np.atleast_1d(np.asarray(a["x"], dtype=float))
    return {"values": (int(a["n_max"]) + 1) * x.size}, (int(a["n_max"]), digest(x))


def _count_build(a, result, digest):
    return {"dim": _dim(result)}, None


def _count_values(a, result, digest):
    return {"values": int(result.values.size)}, None


def _count_csv(a, result, digest):
    return {"bytes": os.path.getsize(a["path"])}, None


def _count_joint(a, result, digest):
    key = (
        digest(_state_array(a["obj"])),
        float(a["theta1"]),
        float(a["theta2"]),
        digest(result.grid1.x),
        digest(result.grid2.x),
    )
    return {}, key


def _count_eigenmodes(a, result, digest):
    return {"kept": len(result[0])}, None


def _count_apply(a, result, digest):
    return {"out_dim": _dim(result)}, None


def _count_evolve(a, result, digest):
    rho0, cfg = a["rho0"], a["cfg"]
    key = (digest(_state_array(rho0)), cfg.kind, cfg.rate_c, cfg.rate_d, float(a["t"]))
    return {"tensor_mb": rho0.dim**4 * 16 / 1e6}, key


def _count_scenario(a, result, digest):
    out_dir = a.get("out_dir")
    size = 0
    if out_dir:
        for name in os.listdir(out_dir):
            size += os.path.getsize(os.path.join(out_dir, name))
    return {"artifact_bytes": size}, None


# (module, function names, layer, counter).  Layers are named after the
# package module they belong to.
LAYERS = (
    ("fock", ("hermite_psi_matrix",), "fock.hermite", _count_hermite),
    (
        "states",
        ("build_state", "make_coherent", "make_fock", "make_cat", "make_squeezed",
         "make_pacs", "make_isospectral", "make_two_mode", "make_product"),
        "states.build",
        _count_build,
    ),
    ("tomography", ("tomogram_pure",), "tomography.pure", _count_values),
    ("tomography", ("tomogram_to_csv", "two_mode_tomogram_to_csv"), "tomography.csv", _count_csv),
    ("tomography", ("tomogram_joint",), "tomography.joint", _count_joint),
    ("tomography", ("tomogram_two_mode_pure",), "tomography.joint_pure", _count_values),
    ("tomography", ("tomogram_mixed",), "tomography.joint_mixed", None),
    ("tomography", ("density_eigenmodes",), "tomography.eigenmodes", _count_eigenmodes),
    ("moments", ("moment_table",), "moments.table", None),
    ("moments", ("two_mode_moment_table",), "moments.table2", None),
    ("moments", ("oracle_moment", "oracle_moment_two_mode"), "moments.oracle", None),
    ("metrics", ("entropy_from_density", "entropy", "entropy_two_mode"), "metrics.entropy", None),
    (
        "metrics",
        ("mean_quadrature", "variance", "central_moment", "relative_fluctuation_product",
         "fit_cos2theta_quadratic", "two_mode_variance", "squeezing_report", "two_mode_report"),
        "metrics.other",
        None,
    ),
    ("beamsplitter", ("apply",), "beamsplitter.apply", _count_apply),
    ("decoherence", ("evolve",), "decoherence.evolve", _count_evolve),
    ("decoherence", ("master_equation_residual",), "decoherence.residual", None),
    ("decoherence", ("purity", "mean_total_photon"), "decoherence.observables", None),
    ("scenarios", ("run_scenario", "run_audit"), "scenarios", _count_scenario),
)

PACKAGE = "tomolens"
OP_LAYER = "scenarios"


@dataclass(frozen=True)
class Span:
    id: int
    layer: str
    start: float
    end: float
    thread: int
    parent: int | None
    # True when the parent runs on another thread (a pool worker's root
    # span under the running scenario); such a span is not subtracted from
    # the parent's self time.
    cross_thread: bool
    counts: dict = field(default_factory=dict)
    key: object = None


class Tracer:
    """Wraps the layer functions of an imported tomolens and records spans."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op: int | None = None
        self._rebound: list = []
        self._digests: dict = {}

    def digest(self, array) -> bytes:
        """digest() of an array, remembered while a read-only array lives.

        Channel evolution sees the same multi-megabyte initial state on every
        call; hashing it once keeps the tracing overhead small.
        """
        if not isinstance(array, np.ndarray) or array.flags.writeable:
            return digest(array)
        hit = self._digests.get(id(array))
        if hit is not None and hit[0]() is array:
            return hit[1]
        value = digest(array)
        self._digests[id(array)] = (weakref.ref(array), value)
        return value

    # -- installation -------------------------------------------------
    def install(self) -> None:
        """Rebind every traced function in every loaded package module."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, names, layer, counter in LAYERS:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(original, layer, counter)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._rebound.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def reset(self) -> None:
        self.spans = []
        self._digests = {}

    # -- recording ----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer, counter):
        sig = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, cross = stack[-1], False
            else:
                parent, cross = tracer._op, tracer._op is not None
            span_id = next(tracer._ids)
            is_op = layer == OP_LAYER and not stack
            if is_op:
                tracer._op = span_id
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_op:
                    tracer._op = None
            counts, key = {}, None
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts, key = counter(bound.arguments, result, tracer.digest)
            tracer.spans.append(Span(span_id, layer, start, end, threading.get_ident(),
                                     parent, cross, counts, key))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced


# (layer, metrics reported for it), in BENCHMARK.json order.  "metrics" is
# the whole module: its self time sums every metrics.* layer.
REPORTED = (
    ("fock.hermite", ("calls", "self_s", "values", "distinct_ratio")),
    ("states.build", ("calls", "self_s", "dim")),
    ("tomography.pure", ("calls", "self_s", "values")),
    ("tomography.joint_pure", ("calls", "self_s", "values")),
    ("tomography.csv", ("self_s", "bytes")),
    ("tomography.joint", ("distinct_ratio",)),
    ("tomography.joint_mixed", ("calls", "self_s")),
    ("tomography.eigenmodes", ("calls", "self_s", "kept")),
    ("moments.table", ("calls", "self_s")),
    ("moments.table2", ("calls", "self_s")),
    ("moments.oracle", ("calls", "self_s")),
    ("metrics.entropy", ("calls", "self_s")),
    ("metrics", ("self_s",)),
    ("beamsplitter.apply", ("calls", "self_s", "out_dim")),
    ("decoherence.evolve", ("calls", "self_s", "tensor_mb", "distinct_ratio")),
    ("decoherence.residual", ("calls", "self_s")),
    ("scenarios", ("calls", "self_s", "artifact_bytes", "concurrency")),
)


def layer_metrics(spans, wall_s: float) -> dict:
    """Reduce one pass's spans to per-layer metrics.

    ``calls`` counts entry calls: spans whose parent is not in the same
    layer (a ``build_state`` that calls ``make_cat`` is one call into
    ``states``).  ``self_s`` sums span time minus same-thread child spans.
    ``distinct_ratio`` is distinct inputs over entry calls; ``out_dim`` is
    the largest output dimension and other counts are sums over entry calls.
    ``scenarios.concurrency`` is the time inside outermost spans, summed over
    threads, over the pass's wall time.
    """
    by_id = {s.id: s for s in spans}
    child_time: dict = {}
    for s in spans:
        if s.parent is not None and not s.cross_thread:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)

    self_s: dict = {}
    calls: dict = {}
    keys: dict = {}
    counts: dict = {}
    root_time = 0.0
    for s in spans:
        dur = s.end - s.start
        self_s[s.layer] = self_s.get(s.layer, 0.0) + dur - child_time.get(s.id, 0.0)
        if s.parent is None or s.cross_thread:
            root_time += dur
        parent = by_id.get(s.parent)
        if parent is not None and parent.layer == s.layer:
            continue
        calls[s.layer] = calls.get(s.layer, 0) + 1
        if s.key is not None:
            keys.setdefault(s.layer, set()).add(s.key)
        for name, value in s.counts.items():
            combine = max if name == "out_dim" else operator.add
            counts[(s.layer, name)] = combine(counts.get((s.layer, name), 0), value)

    m: dict = {}
    for layer, names in REPORTED:
        for name in names:
            if name == "calls":
                value = calls.get(layer, 0)
            elif name == "self_s":
                value = sum(v for k, v in self_s.items() if k == layer or k.startswith(layer + "."))
            elif name == "distinct_ratio":
                value = len(keys.get(layer, ())) / calls[layer] if calls.get(layer) else 0.0
            elif name == "concurrency":
                value = root_time / wall_s if wall_s > 0 else 0.0
            else:
                value = counts.get((layer, name), 0)
            m[f"{layer}.{name}"] = value
    return m
