"""Output checks for benchmark operations, run outside the timed region.

Every scenario's CSV is checked against an oracle or an exact law where one
exists:

* variance, central-moment and relative-fluctuation columns against the
  Fock-oracle ``moment_table(source=SOURCE_FOCK_ORACLE)`` (1e-7, the
  manifest's ``oracle_equivalence``);
* two-mode variance against ``oracle_moment_two_mode`` (1e-6, the audit's
  bound);
* squeezed-vacuum entropy at theta = 0 against ln(pi e)/2 - r;
* mean total photon number against e^{-2 gamma t} n(0) under amplitude decay
  and n(0) under phase damping, with n(0) the input cat's mean photon
  number (the beamsplitter conserves total photon number);
* entropic-uncertainty sums against their bounds, tomogram maps against
  normalization, pi-shift symmetry and, for the two-mode slice, the
  phase-independent marginal law;
* for the audit, that every check passed.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from tomolens import decoherence as dec
from tomolens.beamsplitter import BeamsplitterConfig, apply
from tomolens.metrics import (
    ENTROPY_THRESHOLD,
    FLAG_MARGIN,
    LN_PI_E,
    TWO_MODE_ENTROPY_THRESHOLD,
    VARIANCE_THRESHOLD,
    FOURTH_MOMENT_THRESHOLD,
    central_moment,
    two_mode_variance,
    variance,
)
from tomolens.moments import SOURCE_FOCK_ORACLE, moment_table, two_mode_moment_table
from tomolens.scenarios import parse_state_spec, sweep_spec
from tomolens.states import build_state, make_cat, make_coherent, make_pacs, make_product

ORACLE_TOL = 1e-7  # manifest oracle_equivalence
ORACLE_TOL_TWO_MODE = 1e-6  # the audit's two-mode bound
EUR_SLACK = 1e-6
NORMALIZATION_TOL = 1e-6
PI_SHIFT_TOL = 1e-9
ENTROPY_LAW_TOL = 1e-8
PHOTON_LAW_TOL = 1e-12
SLICE_MARGINAL_TOL = 1e-9


def read_csv(path: str):
    """(header, rows of strings) of a scenario CSV, skipping '#' lines."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _column(rows, index) -> np.ndarray:
    return np.array([float(r[index]) for r in rows])


def _flag(value: float, threshold: float) -> int:
    return int(value < threshold - FLAG_MARGIN)


def _get(cfg, key, conv, default):
    return conv(cfg[key]) if key in cfg else default


def _close(fails, label, got, want, tol):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        fails.append(f"{label}: shape {got.shape} != {want.shape}")
        return
    if not np.all(np.isfinite(got)):
        fails.append(f"{label}: non-finite values")
        return
    worst = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not worst <= tol:
        fails.append(f"{label}: worst deviation {worst:.3e} exceeds {tol:g}")


def _check_flags(fails, label, values, flags, threshold):
    want = [_flag(v, threshold) for v in values]
    if [int(f) for f in flags] != want:
        fails.append(f"{label}: squeezing flags disagree with the values")


def _sweep_values(cfg) -> np.ndarray:
    return np.linspace(float(cfg["param_start"]), float(cfg["param_stop"]), int(cfg["param_count"]))


def _check_manifest(fails, cfg, out_dir):
    path = os.path.join(out_dir, "manifest.json")
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        fails.append(f"manifest: {exc}")
        return
    if manifest.get("config") != dict(sorted(cfg.items())):
        fails.append("manifest: config differs from the run's config")
    files = [a["file"] for a in manifest.get("artifacts", [])]
    for name in files:
        if not os.path.isfile(os.path.join(out_dir, name)):
            fails.append(f"manifest: artifact {name} missing")
    if not files:
        fails.append("manifest: no artifacts")


def simpson_weights(x: np.ndarray) -> np.ndarray:
    """Composite Simpson weights on a uniform grid with an odd point count."""
    h = (x[-1] - x[0]) / (x.size - 1)
    w = np.ones(x.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0


def oscillator_functions(n_max: int, x: float) -> np.ndarray:
    """psi_0..psi_n_max at one point by the plain three-term recurrence."""
    out = np.empty(n_max + 1)
    out[0] = math.pi ** -0.25 * math.exp(-0.5 * x * x)
    if n_max > 0:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = math.sqrt(2.0 / (n + 1)) * x * out[n] - math.sqrt(n / (n + 1.0)) * out[n - 1]
    return out


def _entropy_sweep(fails, cfg, rows):
    theta = _get(cfg, "theta", float, 0.0)
    values = _sweep_values(cfg)
    _close(fails, "param", _column(rows, 0), values, 0.0)
    s = _column(rows, 2)
    _check_flags(fails, "entropy_squeezed", s, _column(rows, 3), ENTROPY_THRESHOLD)
    eur = _column(rows, 4)
    if not np.all(eur >= LN_PI_E - EUR_SLACK):
        fails.append(f"eur_sum: minimum {eur.min():.9f} below ln(pi e) = {LN_PI_E:.9f}")
    if cfg["family"] == "squeezed-vacuum" and theta == 0.0:
        _close(fails, "squeezed-vacuum entropy law", s, 0.5 * LN_PI_E - values, ENTROPY_LAW_TOL)


def _oracle_tables(cfg, order):
    return [moment_table(build_state(sweep_spec(cfg["family"], float(v), cfg)), order,
                         source=SOURCE_FOCK_ORACLE) for v in _sweep_values(cfg)]


def _variance_sweep(fails, cfg, rows):
    theta = _get(cfg, "theta", float, 0.0)
    _close(fails, "param", _column(rows, 0), _sweep_values(cfg), 0.0)
    tables = _oracle_tables(cfg, 2)
    var = _column(rows, 2)
    _close(fails, "variance vs oracle", var, [variance(t, theta) for t in tables], ORACLE_TOL)
    _close(fails, "conjugate_variance vs oracle", _column(rows, 4),
           [variance(t, theta + np.pi / 2) for t in tables], ORACLE_TOL)
    _check_flags(fails, "variance_squeezed", var, _column(rows, 3), VARIANCE_THRESHOLD)


def _higher_order_sweep(fails, cfg, rows):
    theta = _get(cfg, "theta", float, 0.0)
    _close(fails, "param", _column(rows, 0), _sweep_values(cfg), 0.0)
    tables = _oracle_tables(cfg, 4)
    m4 = _column(rows, 3)
    _close(fails, "central_moment_3 vs oracle", _column(rows, 2),
           [central_moment(t, theta, 3) for t in tables], ORACLE_TOL)
    _close(fails, "central_moment_4 vs oracle", m4,
           [central_moment(t, theta, 4) for t in tables], ORACLE_TOL)
    _check_flags(fails, "hm4_squeezed", m4, _column(rows, 4), FOURTH_MOMENT_THRESHOLD)


def _rfp(fails, cfg, rows):
    count = _get(cfg, "theta_count", int, 181)
    thetas = np.linspace(0.0, np.pi, count)
    _close(fails, "theta", _column(rows, 0), thetas, 0.0)
    t1, t2 = (moment_table(build_state(parse_state_spec(cfg, s)), 2, source=SOURCE_FOCK_ORACLE)
              for s in ("_1", "_2"))
    f = [math.sqrt(variance(t1, th) * variance(t2, th + np.pi / 2)) for th in thetas]
    g = [math.sqrt(variance(t2, th) * variance(t1, th + np.pi / 2)) for th in thetas]
    _close(fails, "f vs oracle", _column(rows, 1), f, ORACLE_TOL)
    _close(fails, "g vs oracle", _column(rows, 2), g, ORACLE_TOL)


def _map_arrays(header, rows, count, fails):
    thetas = np.array([float(h.split("=", 1)[1]) for h in header[1:]])
    _close(fails, "map phases", thetas, np.linspace(0.0, np.pi, count), 0.0)
    data = np.array(rows, dtype=float)
    x = data[:, 0]
    if x.size % 2 == 0 or not np.allclose(x, -x[::-1], rtol=0.0, atol=1e-12):
        fails.append("map: X grid is not symmetric with an odd point count")
    if not np.allclose(np.diff(x), x[1] - x[0], rtol=1e-9, atol=0.0):
        fails.append("map: X grid is not uniform")
    values = data[:, 1:]
    if values.min() < 0.0 or not np.all(np.isfinite(values)):
        fails.append("map: negative or non-finite densities")
    return x, values


def _tomogram(fails, cfg, out_dir):
    count = _get(cfg, "theta_count", int, 181)
    header, rows = read_csv(os.path.join(out_dir, cfg.get("output", "tomogram.csv")))
    x, values = _map_arrays(header, rows, count, fails)
    weights = simpson_weights(x)
    state = build_state(parse_state_spec(cfg))
    if state.amplitudes.ndim == 1:
        _close(fails, "map normalization", weights @ values, np.ones(count), NORMALIZATION_TOL)
        # theta runs over [0, pi] inclusive: w(X, pi) = w(-X, 0).
        _close(fails, "map pi-shift", values[:, -1], values[::-1, 0], PI_SHIFT_TOL)
        return
    # Two-mode slice at fixed X2: for a state diagonal in |n, n>, integrating
    # X1 out leaves sum_n |c_nn|^2 psi_n(X2)^2 for every theta1 and theta2.
    c = state.amplitudes
    if np.any(c - np.diag(np.diag(c))):
        fails.append("slice check needs a state diagonal in |n, n>")
        return
    x2 = x[int(np.argmin(np.abs(x - _get(cfg, "x2", float, 1.0))))]
    want = float(np.abs(np.diag(c)) ** 2 @ oscillator_functions(c.shape[0] - 1, x2) ** 2)
    _close(fails, "slice marginal law", weights @ values, np.full(count, want), SLICE_MARGINAL_TOL)


def _bs_mode_a(kind, alpha, cfg):
    """The non-vacuum input of a '<state>-vacuum' beamsplitter input."""
    if kind == "pacs-vacuum":
        return make_pacs(alpha, _get(cfg, "m", int, 1))
    return make_cat(alpha, {"ecs-vacuum": "even", "ocs-vacuum": "odd"}[kind])


def _beamsplitter_sweep(fails, cfg, rows):
    theta = _get(cfg, "theta", float, np.pi / 2)
    phis = [float(p) for p in cfg.get("phi_values", "0.0").split(",")]
    points = [(float(a), phi) for phi in phis for a in _sweep_values(cfg)]
    _close(fails, "param,phi", [[float(r[0]), float(r[1])] for r in rows], points, 0.0)
    want = []
    for alpha, phi in points:
        inp = make_product(_bs_mode_a(cfg["input"], alpha, cfg), make_coherent(0.0))
        out = apply(BeamsplitterConfig(phi=phi), inp)
        table = two_mode_moment_table(out, 2, source=SOURCE_FOCK_ORACLE)
        want.append(two_mode_variance(table, theta, theta))
    var = _column(rows, 5)
    _close(fails, "two_mode_variance vs oracle", var, want, ORACLE_TOL_TWO_MODE)
    _check_flags(fails, "entropy_squeezed", _column(rows, 3), _column(rows, 4),
                 TWO_MODE_ENTROPY_THRESHOLD)
    _check_flags(fails, "variance_squeezed", var, _column(rows, 6), VARIANCE_THRESHOLD)
    eur = _column(rows, 7)
    if not np.all(eur >= 2.0 * LN_PI_E - EUR_SLACK):
        fails.append(f"eur_sum: minimum {eur.min():.9f} below 2 ln(pi e)")
    for col in (8, 9):
        if not np.all(np.isfinite(_column(rows, col))):
            fails.append("reduced entropies: non-finite values")


def _decoherence(fails, cfg, out_dir):
    channel = cfg.get("channel", dec.AMPLITUDE_DECAY)
    rate_c = _get(cfg, "rate_c", float, 1.0)
    rate_d = _get(cfg, "rate_d", float, 1.0)
    if rate_c != rate_d:
        fails.append("photon-number law is checked for equal mode rates only")
        return
    t_min = _get(cfg, "time_min", float, 1e-3)
    t_max = _get(cfg, "time_max", float, 20.0)
    times = dec.default_time_grid(_get(cfg, "time_count", int, 201), t_min, t_max)
    _, rows = read_csv(os.path.join(out_dir, cfg.get("output", "decoherence_purity.csv")))
    t = _column(rows, 0)
    _close(fails, "t", t, times, 0.0)
    if [(r[3], r[4]) for r in rows] != [(cfg["input"], channel)] * len(rows):
        fails.append("input/channel columns differ from the config")
    # The beamsplitter conserves total photon number, so n(0) is the mean
    # photon number of the single non-vacuum input.
    n0 = _bs_mode_a(cfg["input"], _get(cfg, "alpha", float, 1.0), cfg).mean_photon()
    photons = _column(rows, 2)
    purity = _column(rows, 1)
    if not np.all((purity > 0.0) & (purity <= 1.0 + 1e-9)):
        fails.append("purity outside (0, 1]")
    if channel == dec.AMPLITUDE_DECAY:
        _close(fails, "mean_total_photon decay law", photons, n0 * np.exp(-2.0 * rate_c * t),
               PHOTON_LAW_TOL)
        _close(fails, "purity at t_max (vacuum)", purity[-1:], [1.0], 1e-6)
    else:
        _close(fails, "mean_total_photon conservation", photons, np.full(t.size, n0), PHOTON_LAW_TOL)
        if np.any(np.diff(purity) > 1e-12):
            fails.append("phase-damping purity increases with time")
    count = _get(cfg, "entropy_time_count", int, 0)
    if count > 0:
        _, erows = read_csv(os.path.join(out_dir, cfg.get("output_entropy", "decoherence_entropy.csv")))
        _close(fails, "entropy t", _column(erows, 0), dec.default_time_grid(count, t_min, t_max), 0.0)
        s = _column(erows, 1)
        if not np.all(np.isfinite(s)):
            fails.append("two-mode entropy: non-finite values")
        elif channel == dec.AMPLITUDE_DECAY:
            _close(fails, "two-mode entropy at t_max (vacuum ln(pi e))", s[-1:], [LN_PI_E], 1e-6)


_SWEEP_CHECKS = {
    "entropy-sweep": ("entropy_sweep.csv", _entropy_sweep),
    "variance-sweep": ("variance_sweep.csv", _variance_sweep),
    "higher-order-sweep": ("higher_order_sweep.csv", _higher_order_sweep),
    "rfp": ("rfp.csv", _rfp),
    "beamsplitter-sweep": ("beamsplitter_sweep.csv", _beamsplitter_sweep),
}


def verify_scenario(cfg: dict, out_dir: str) -> list:
    """Failure messages for one scenario run's outputs (empty when correct)."""
    fails: list = []
    try:
        _check_manifest(fails, cfg, out_dir)
        scenario = cfg["scenario"]
        if scenario in _SWEEP_CHECKS:
            default_name, check = _SWEEP_CHECKS[scenario]
            _, rows = read_csv(os.path.join(out_dir, cfg.get("output", default_name)))
            check(fails, cfg, rows)
        elif scenario == "tomogram":
            _tomogram(fails, cfg, out_dir)
        elif scenario == "decoherence-run":
            _decoherence(fails, cfg, out_dir)
        else:
            fails.append(f"no check for scenario {scenario!r}")
    except (OSError, ValueError, IndexError, KeyError) as exc:
        fails.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return fails


def verify_audit(results) -> list:
    """Failure messages for one run_audit() result list."""
    if not results:
        return ["audit returned no checks"]
    return [f"audit {r.check} {r.subject}: {r.detail}" for r in results if not r.passed]
