"""Scenario runner and invariant audit behind the command-line interface.

A scenario is a flat key = value config file describing one plot-ready
dataset: a tomogram map, a squeezing sweep, a relative-fluctuation-product
curve, a beamsplitter phase study, a decoherence time series, or an oracle
audit.  Outputs are CSV files plus a manifest naming every artifact and the
tolerance conventions; identical configs produce byte-identical outputs.
SCENARIOS is the runner table: parse_config accepts exactly its names, and
run_scenario dispatches through it.  A state's family, scalar, extras and
their bounds are read from the catalog table states.FAMILIES.

The audit runs the frozen invariant battery (normalization, tail
certificates, tomogram distribution laws, pi-shift symmetry, entropic and
Heisenberg uncertainty bounds, beamsplitter unitarity, channel trace
preservation and tomogram/oracle moment equivalence) and reports one
pass/fail line per check.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import decoherence as dec
from .beamsplitter import BeamsplitterConfig, apply
from .errors import AuditFailure, ConfigError, DegenerateParameter, NumericalGuard, TomolensError
from .fock import SingleModeState, TwoModeDensityMatrix, TwoModeState
from .metrics import (
    ENTROPY_THRESHOLD,
    EUR_SLACK,
    FOURTH_MOMENT_THRESHOLD,
    LN_PI_E,
    TWO_MODE_ENTROPY_THRESHOLD,
    VARIANCE_THRESHOLD,
    _joint_mass_entropy,
    below_threshold,
    central_moment,
    entropy_from_density,
    fit_cos2theta_quadratic,
    relative_fluctuation_product,
    two_mode_report,
    variance,
)
from .moments import (
    K_MAX_DEFAULT,
    moment_table,
    oracle_moment,
    oracle_moment_two_mode,
    two_mode_moment_table,
)
from .states import FAMILIES, StateSpec, build_state, make_cat, make_coherent, make_pacs, make_product
from .tomography import (
    DEFAULT_THETAS,
    QuadratureGrid,
    _two_mode_pure_slice,
    _write_rows,
    check_pi_shift,
    default_grid,
    tomogram_joint,  # not called here; perfbench/tests/test_tracer.py rebinds this name
    tomogram_pure,
    tomogram_to_csv,
)

# Bound on |tomogram moment - Fock oracle|: the manifest's oracle_equivalence,
# the oracle-audit scenario's default tolerance and the audit's single-mode check.
ORACLE_TOLERANCE = 1e-7

_CSV_CONVENTIONS = (
    "entropies in nats; entropic squeezing below ln(pi e)/2 = "
    f"{ENTROPY_THRESHOLD:.12f}; variance squeezing below 1/2; "
    "fourth-moment squeezing below 3/4; two-mode entropic threshold "
    f"ln(pi e) = {TWO_MODE_ENTROPY_THRESHOLD:.12f} (mirrored single-mode convention)"
)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def parse_config(path: str) -> dict:
    """Parse a flat key = value file; '#' starts a comment."""
    if not os.path.exists(path):
        raise ConfigError(f"config file {path!r} does not exist")
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            values[key] = val.strip()
    if "scenario" not in values:
        raise ConfigError("config is missing the 'scenario' field")
    if values["scenario"] not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {values['scenario']!r}; expected one of {', '.join(SCENARIOS)}"
        )
    return values


def _get(cfg: dict, key: str, conv, default=None, required: bool = False, low=None, high=None):
    """Field `key` parsed by `conv`; a number must be finite and, when given, within low..high."""
    if key not in cfg:
        if required:
            raise ConfigError(f"missing required field {key!r}")
        return default
    try:
        value = conv(cfg[key])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"field {key!r}: cannot parse {cfg[key]!r} ({exc})")
    numbers = value if isinstance(value, list) else [value]
    if any(isinstance(v, (float, complex)) and not np.isfinite(v) for v in numbers):
        raise ConfigError(f"field {key!r}: {cfg[key]!r} is not finite")
    if (low is not None and value < low) or (high is not None and value > high):
        span = f"at least {low}" if high is None else f"in {low}..{high}"
        raise ConfigError(f"field {key!r}: must be {span}, got {value}")
    return value


def _as_complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


def _parse_range(cfg: dict, prefix: str, low=None) -> np.ndarray:
    start = _get(cfg, f"{prefix}_start", float, required=True, low=low)
    stop = _get(cfg, f"{prefix}_stop", float, required=True, low=low)
    count = _get(cfg, f"{prefix}_count", int, required=True, low=1)
    if count == 1 and stop != start:
        raise ConfigError(f"field {prefix}_count: count 1 needs {prefix}_start == {prefix}_stop")
    return np.linspace(start, stop, count)


def _family(cfg: dict, suffix: str = "") -> str:
    """The family named by `family<suffix>`; the product family has no config form."""
    family = _get(cfg, f"family{suffix}", str, required=True)
    if family not in FAMILIES or FAMILIES[family].key is None:
        raise ConfigError(f"field family{suffix}: unknown family {family!r}")
    return family


def _extras(family: str, cfg: dict, suffix: str = "") -> dict:
    """The family's extra integers from cfg, each at its default when absent."""
    return {
        name: _get(cfg, f"{name}{suffix}", int, default=default, low=low)
        for name, (default, low) in FAMILIES[family].extras.items()
    }


def _spec(family: str, value, cfg: dict, suffix: str = "") -> StateSpec:
    """StateSpec with the family's scalar set to `value` and its extras read from cfg."""
    params = {FAMILIES[family].key: value, **_extras(family, cfg, suffix)}
    return StateSpec(family, params, _get(cfg, f"n_cut{suffix}", int, low=0))


def parse_state_spec(cfg: dict, suffix: str = "") -> StateSpec:
    family = _family(cfg, suffix)
    fam = FAMILIES[family]
    conv = _as_complex if fam.kind is complex else fam.kind
    return _spec(family, _get(cfg, f"{fam.key}{suffix}", conv, required=True, low=fam.low), cfg, suffix)


def sweep_spec(family: str, value: float, cfg: dict) -> StateSpec:
    """StateSpec for one point of a parameter sweep over the family's scalar."""
    return _spec(family, int(value) if FAMILIES[family].kind is int else value, cfg)


def _thread_count() -> int:
    env = os.environ.get("TOMOLENS_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"TOMOLENS_THREADS must be an integer, got {env!r}") from None
    return min(4, os.cpu_count() or 1)


def _parallel_map(fn, items):
    items = list(items)
    threads = min(_thread_count(), max(len(items), 1))
    if threads == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _guarded(fn, point: str):
    """Annotate guard and degenerate-parameter failures with the offending point."""

    def wrapped(*args):
        try:
            return fn(*args)
        except (NumericalGuard, DegenerateParameter) as exc:
            raise type(exc)(f"{exc} [at {point.format(*args)}]") from exc

    return wrapped


@dataclass
class _Collector:
    """Single-writer sink keeping artifact output deterministic."""

    out_dir: str
    scenario: str
    config: dict
    artifacts: list = field(default_factory=list)

    def path(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        return os.path.join(self.out_dir, name)

    def add(self, name: str, description: str) -> None:
        self.artifacts.append({"file": name, "description": description})

    def write_csv(self, name: str, header: str, rows, description: str) -> None:
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(f"# scenario: {self.scenario}\n")
            fh.write(f"# conventions: {_CSV_CONVENTIONS}\n")
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        self.add(name, description)

    def finish(self) -> None:
        manifest = {
            "scenario": self.scenario,
            "config": dict(sorted(self.config.items())),
            "artifacts": self.artifacts,
            # The BLAS thread variables as this run saw them; see the pin in tomolens/__init__.py.
            "blas_threads": {var: os.environ.get(var) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
            "tolerances": {
                "entropy_threshold_nats": ENTROPY_THRESHOLD,
                "two_mode_entropy_threshold_nats": TWO_MODE_ENTROPY_THRESHOLD,
                "variance_threshold": VARIANCE_THRESHOLD,
                "fourth_moment_threshold": FOURTH_MOMENT_THRESHOLD,
                "oracle_equivalence": ORACLE_TOLERANCE,
            },
        }
        with open(self.path("manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _run_tomogram(cfg: dict, col: _Collector) -> None:
    spec = parse_state_spec(cfg)
    state = build_state(spec)
    theta_count = _get(cfg, "theta_count", int, default=DEFAULT_THETAS.size, low=1)
    points = _get(cfg, "grid_points", int, low=3)
    thetas = np.linspace(0.0, np.pi, theta_count)
    grid = default_grid(state, points)
    name = _get(cfg, "output", str, default="tomogram.csv")
    if isinstance(state, SingleModeState):
        tomo = tomogram_pure(state, thetas, grid)
        tomogram_to_csv(tomo, col.path(name), comment=f"family={spec.family} {_CSV_CONVENTIONS}")
        col.add(name, f"tomogram map for {spec.family}, {theta_count} phases")
    else:
        theta2 = _get(cfg, "theta2", float, default=0.0)
        x2 = _get(cfg, "x2", float, default=1.0)
        if abs(x2) > grid.half_width:
            raise ConfigError(f"x2 = {x2} lies outside the grid half-width {grid.half_width:.6g}")
        rows = _two_mode_pure_slice(state, thetas, theta2, x2, grid)
        with open(col.path(name), "w", encoding="utf-8") as fh:
            fh.write(f"# scenario: tomogram (two-mode slice at X2={x2}, theta2={theta2})\n")
            fh.write(f"# conventions: {_CSV_CONVENTIONS}; slice displayed unnormalized\n")
            fh.write("X1," + ",".join(f"theta1={t:.17g}" for t in thetas) + "\n")
            _write_rows(fh, grid.x, rows.T)
        col.add(name, f"two-mode tomogram slice for {spec.family}")


def _entropy_columns(state, theta: float) -> tuple:
    tomo = tomogram_pure(state, [theta, theta + np.pi / 2])
    s, s_conj = (entropy_from_density(row, tomo.grid) for row in tomo.values)
    return s, int(below_threshold(s, ENTROPY_THRESHOLD)), s + s_conj


def _variance_columns(state, theta: float) -> tuple:
    table = moment_table(state, 2)
    var = variance(table, theta)
    return var, int(below_threshold(var, VARIANCE_THRESHOLD)), variance(table, theta + np.pi / 2)


def _higher_order_columns(state, theta: float) -> tuple:
    table = moment_table(state, 4)
    m4 = central_moment(table, theta, 4)
    return central_moment(table, theta, 3), m4, int(below_threshold(m4, FOURTH_MOMENT_THRESHOLD))


# scenario -> (per-state columns, CSV header, default output, description)
_SWEEPS = {
    "entropy-sweep": (
        _entropy_columns,
        "param,theta,entropy_nats,entropy_squeezed,eur_sum_nats",
        "entropy_sweep.csv",
        "tomographic entropy",
    ),
    "variance-sweep": (
        _variance_columns,
        "param,theta,variance,variance_squeezed,conjugate_variance",
        "variance_sweep.csv",
        "quadrature variance",
    ),
    "higher-order-sweep": (
        _higher_order_columns,
        "param,theta,central_moment_3,central_moment_4,hm4_squeezed",
        "higher_order_sweep.csv",
        "third/fourth central moments",
    ),
}


def _run_sweep(cfg: dict, col: _Collector) -> None:
    """Build and measure each parameter point in one guarded pool pass."""
    measure, header, output, what = _SWEEPS[cfg["scenario"]]
    family = _family(cfg)
    if FAMILIES[family].two_mode:
        raise ConfigError(f"{cfg['scenario']} needs a single-mode family, got {family!r}")
    values = _parse_range(cfg, "param", low=FAMILIES[family].low)
    off = [v for v in values.tolist() if FAMILIES[family].kind is int and v != int(v)]
    if off:
        raise ConfigError(f"field 'param': {family} needs whole-number points, got {off[0]!r}")
    theta = _get(cfg, "theta", float, default=0.0)

    def one(v):
        return (v, theta, *measure(build_state(sweep_spec(family, float(v), cfg)), theta))

    col.write_csv(
        _get(cfg, "output", str, default=output),
        header,
        _parallel_map(_guarded(one, "param={0}"), values),
        f"{what} vs parameter for {family} at theta={theta}",
    )


def _run_rfp(cfg: dict, col: _Collector) -> None:
    specs = [parse_state_spec(cfg, suffix) for suffix in ("_1", "_2")]
    if any(FAMILIES[spec.family].two_mode for spec in specs):
        raise ConfigError("rfp needs two single-mode states")
    state1, state2 = (build_state(spec) for spec in specs)
    # linspace(0, pi, n) first gives three distinct cos(2 theta), as the f^2 fit needs, at n = 5.
    count = _get(cfg, "theta_count", int, default=181, low=5)
    thetas = np.linspace(0.0, np.pi, count)
    f, g = relative_fluctuation_product(state1, state2, thetas)
    coeffs, residual = fit_cos2theta_quadratic(thetas, f**2)
    rows = [(th, fv, gv) for th, fv, gv in zip(thetas, f, g)]
    col.write_csv(
        _get(cfg, "output", str, default="rfp.csv"),
        "theta,f,g",
        rows,
        "relative fluctuation products f = dX(s1) dX+pi/2(s2), g = dX(s2) dX+pi/2(s1); "
        f"f^2 fit A,B,C = {coeffs[0]:.12g},{coeffs[1]:.12g},{coeffs[2]:.12g} "
        f"(max residual {residual:.3g})",
    )


# Beamsplitter input kind -> (alpha, cfg) -> the two single-mode factors of the product input.
_BS_INPUTS = {
    "ecs-vacuum": lambda alpha, cfg: (make_cat(alpha, "even"), make_coherent(0.0)),
    "ocs-vacuum": lambda alpha, cfg: (make_cat(alpha, "odd"), make_coherent(0.0)),
    "ecs-ecs": lambda alpha, cfg: (make_cat(alpha, "even"), make_cat(alpha, "even")),
    "ocs-ocs": lambda alpha, cfg: (make_cat(alpha, "odd"), make_cat(alpha, "odd")),
    "pacs-vacuum": lambda alpha, cfg: (make_pacs(alpha, **_extras("pacs", cfg)), make_coherent(0.0)),
}


def _bs_input(cfg: dict):
    """(kind, alpha -> two-mode product input) for the beamsplitter input named by `input`."""
    kind = _get(cfg, "input", str, required=True)
    if kind not in _BS_INPUTS:
        raise ConfigError(f"field input: unknown beamsplitter input {kind!r}")
    return kind, lambda alpha: make_product(*_BS_INPUTS[kind](alpha, cfg))


def _float_list(text: str) -> list:
    return [float(p) for p in text.split(",")]


def _run_beamsplitter_sweep(cfg: dict, col: _Collector) -> None:
    kind, make_input = _bs_input(cfg)
    values = _parse_range(cfg, "param")
    phis = _get(cfg, "phi_values", _float_list, default=[0.0])
    theta = _get(cfg, "theta", float, default=np.pi / 2)

    def one(point):
        alpha, phi = point
        out = apply(BeamsplitterConfig(phi=phi), make_input(alpha))
        r = two_mode_report(out, theta, theta)
        return (
            alpha, phi, theta, r.entropy, int(r.entropy_squeezed), r.variance,
            int(r.variance_squeezed), r.eur_sum, r.reduced_entropy_a, r.reduced_entropy_b,
        )

    points = [(float(a), phi) for phi in phis for a in values]
    col.write_csv(
        _get(cfg, "output", str, default="beamsplitter_sweep.csv"),
        "param,phi,theta,two_mode_entropy_nats,entropy_squeezed,two_mode_variance,"
        "variance_squeezed,eur_sum_nats,reduced_entropy_c_nats,reduced_entropy_d_nats",
        _parallel_map(_guarded(one, "param={0[0]}, phi={0[1]}"), points),
        f"beamsplitter output diagnostics for {kind} input across phi",
    )


def _run_decoherence(cfg: dict, col: _Collector) -> None:
    kind, make_input = _bs_input(cfg)
    alpha = _get(cfg, "alpha", float, default=1.0)
    phi = _get(cfg, "phi", float, default=0.0)
    channel = _get(cfg, "channel", str, default=dec.AMPLITUDE_DECAY)
    rate_c = _get(cfg, "rate_c", float, default=1.0)
    rate_d = _get(cfg, "rate_d", float, default=1.0)
    t_count = _get(cfg, "time_count", int, default=201)
    t_min = _get(cfg, "time_min", float, default=1e-3)
    t_max = _get(cfg, "time_max", float, default=20.0)
    if not (t_count >= 1 and 0.0 < t_min <= t_max):
        raise ConfigError(
            f"time grid: need time_count >= 1 and 0 < time_min <= time_max, got "
            f"time_count={t_count}, time_min={t_min:g}, time_max={t_max:g}"
        )
    entropy_count = _get(cfg, "entropy_time_count", int, default=0, low=0)
    theta = _get(cfg, "theta", float, default=0.0)
    times = dec.default_time_grid(t_count, t_min, t_max)
    ent_times = dec.default_time_grid(entropy_count, t_min, t_max) if entropy_count > 0 else []
    try:
        chan = dec.ChannelConfig(channel, rate_c, rate_d)
    except ValueError as exc:
        raise ConfigError(f"channel: {exc}") from exc
    rho0 = TwoModeDensityMatrix.from_pure(apply(BeamsplitterConfig(phi=phi), make_input(alpha)))
    on_entropy_grid = set(ent_times)

    def one(t):
        # Each distinct time is evolved once; entropy points reuse its rho(t).
        rho_t = dec.evolve(rho0, chan, t)
        s = _joint_mass_entropy(rho_t, theta, theta)[1] if t in on_entropy_grid else None
        return t, (dec.purity(rho_t), dec.mean_total_photon(rho_t), s)

    at = dict(_parallel_map(_guarded(one, "t={0}"), sorted(set(times) | on_entropy_grid)))
    tail = (kind, channel, rate_c, rate_d)
    col.write_csv(
        _get(cfg, "output", str, default="decoherence_purity.csv"),
        "t,purity,mean_total_photon,input,channel,rate_c,rate_d",
        [(t, *at[t][:2], *tail) for t in times],
        f"purity time series for {kind} input under {channel}",
    )
    if entropy_count > 0:
        col.write_csv(
            _get(cfg, "output_entropy", str, default="decoherence_entropy.csv"),
            "t,two_mode_entropy_nats,input,channel,rate_c,rate_d",
            [(t, at[t][2], *tail) for t in ent_times],
            f"two-mode entropy time series for {kind} input under {channel}",
        )


def default_battery() -> list:
    """The frozen (name, StateSpec) battery used by the audit and acceptance."""
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    return [
        ("vacuum", StateSpec("coherent", {"alpha": 0.0})),
        ("coherent-1", StateSpec("coherent", {"alpha": 1.0})),
        ("coherent-complex", StateSpec("coherent", {"alpha": 0.7 + 0.2j})),
        ("coherent-2", StateSpec("coherent", {"alpha": 2.0})),
        ("ecs", StateSpec("ecs", {"alpha": inv_sqrt2})),
        ("ocs", StateSpec("ocs", {"alpha": 1.0})),
        ("yurke-stoler", StateSpec("yurke-stoler", {"alpha": inv_sqrt2})),
        ("ecs-large", StateSpec("ecs", {"alpha": np.sqrt(10.0)})),
        ("squeezed-vacuum", StateSpec("squeezed-vacuum", {"xi": 0.5})),
        ("yuen", StateSpec("yuen", {"xi": 0.5})),
        ("pacs-1", StateSpec("pacs", {"alpha": 1.0, "m": 1})),
        ("pacs-3", StateSpec("pacs", {"alpha": inv_sqrt2, "m": 3})),
        ("isospectral-1", StateSpec("isospectral", {"zeta": 1.0, "base": 1})),
        ("isospectral-3", StateSpec("isospectral", {"zeta": inv_sqrt2, "base": 3})),
        ("fock-3", StateSpec("fock", {"n": 3})),
        ("two-mode-vacuum", StateSpec("product", {
            "a": StateSpec("coherent", {"alpha": 0.0}),
            "b": StateSpec("coherent", {"alpha": 0.0}),
        })),
        ("caves-schumaker", StateSpec("caves-schumaker", {"r": 1.0})),
        ("pair-coherent", StateSpec("pair-coherent", {"r": 1.0})),
        ("ecs-x-vacuum", StateSpec("product", {
            "a": StateSpec("ecs", {"alpha": 1.0}),
            "b": StateSpec("coherent", {"alpha": 0.0}),
        })),
    ]


def _oracle_differences(state, table) -> dict:
    """{index: |tomogram entry - Fock oracle|} for a one- or two-mode moment table."""
    oracle = oracle_moment if isinstance(state, SingleModeState) else oracle_moment_two_mode
    return {key: abs(val - oracle(state, *key)) for key, val in table.entries.items()}


def _run_oracle_audit(cfg: dict, col: _Collector) -> None:
    tolerance = _get(cfg, "tolerance", float, default=ORACLE_TOLERANCE)
    max_order = _get(cfg, "max_order", int, default=4, low=0, high=K_MAX_DEFAULT)
    rows = []
    for name, spec in default_battery():
        state = build_state(spec)
        if isinstance(state, SingleModeState):
            table = moment_table(state, max_order)
        else:
            table = two_mode_moment_table(state, 2)
        for key, diff in sorted(_oracle_differences(state, table).items()):
            rows.append((name, *key, *("",) * (4 - len(key)), diff, int(diff < tolerance)))
    worst_overall = max((row[5] for row in rows), default=0.0)
    col.write_csv(
        _get(cfg, "output", str, default="oracle_audit.csv"),
        "state,k,l,p,q,abs_difference,within_tolerance",
        rows,
        f"tomogram extraction vs Fock oracle; worst {worst_overall:.3e}, tolerance {tolerance:g}",
    )
    if worst_overall >= tolerance:
        raise AuditFailure(
            f"oracle audit worst difference {worst_overall:.3e} exceeds {tolerance:g}"
        )


# scenario -> runner(cfg, collector); parse_config accepts exactly these names.
SCENARIOS = {
    "tomogram": _run_tomogram,
    "entropy-sweep": _run_sweep,
    "variance-sweep": _run_sweep,
    "higher-order-sweep": _run_sweep,
    "rfp": _run_rfp,
    "beamsplitter-sweep": _run_beamsplitter_sweep,
    "decoherence-run": _run_decoherence,
    "oracle-audit": _run_oracle_audit,
}


def run_scenario(cfg: dict, out_dir: str) -> list:
    """Execute a parsed scenario config; returns the artifact list."""
    collector = _Collector(out_dir, cfg["scenario"], cfg)
    SCENARIOS[cfg["scenario"]](cfg, collector)
    collector.finish()
    return collector.artifacts


@dataclass(frozen=True)
class AuditResult:
    check: str
    subject: str
    passed: bool
    detail: str


def run_audit(grid_half_width: float | None = None, n_cut: int | None = None) -> list:
    """The full invariant battery; overrides exist for negative controls.

    `grid_half_width` forces every quadrature grid (a shrunk grid must make
    the distribution checks fail loudly); `n_cut` forces every constructor's
    truncation (an inadequate one must fail the tail certificate).  Raises
    ConfigError for an n_cut below 0 or a half-width that is not finite and
    positive.
    """
    if n_cut is not None and n_cut < 0:
        raise ConfigError(f"--n-cut must be at least 0, got {n_cut}")
    if grid_half_width is not None and not 0.0 < grid_half_width < np.inf:
        raise ConfigError(f"--grid-half-width must be finite and > 0, got {grid_half_width}")
    results: list = []
    thetas12 = np.linspace(0.0, np.pi, 12, endpoint=False)

    def record(check, subject, passed, detail=""):
        results.append(AuditResult(check, subject, bool(passed), detail))

    states = {}
    for name, spec in default_battery():
        spec = StateSpec(spec.family, spec.params, n_cut if n_cut is not None else spec.n_cut)
        try:
            state = build_state(spec)
            states[name] = state
            record("construction+tail-certificate", name, True, f"n_cut={state.n_cut}")
        except TomolensError as exc:
            record("construction+tail-certificate", name, False, f"{type(exc).__name__}: {exc}")

    def state_grid(state):
        if grid_half_width is not None:
            return QuadratureGrid.uniform(grid_half_width)
        return default_grid(state)

    for name, state in states.items():
        if not isinstance(state, SingleModeState):
            continue
        norm_dev = abs(state.norm() - 1.0)
        record("normalization", name, norm_dev < 1e-10, f"|norm-1|={norm_dev:.2e}")
        try:
            grid = state_grid(state)
            tomo = tomogram_pure(state, np.concatenate([thetas12, thetas12 + np.pi]), grid)
            defect = tomo.normalization_defect()
            record("tomogram-normalization", name, defect < 1e-8, f"defect={defect:.2e}")
            shift = check_pi_shift(tomo)
            record("pi-shift", name, shift.max_deviation < 1e-9,
                   f"max deviation={shift.max_deviation:.2e}")
        except TomolensError as exc:
            record("tomogram-normalization", name, False, f"{type(exc).__name__}: {exc}")
            record("pi-shift", name, False, "tomogram unavailable")
            continue
        # The 24 rows are the phases k pi/12, so row i + 6 is row i's theta + pi/2.
        ent = [entropy_from_density(row, grid) for row in tomo.values]
        eur_min = min(ent[i] + ent[i + 6] for i in range(12))
        record("entropic-uncertainty", name, eur_min >= LN_PI_E - EUR_SLACK,
               f"min EUR sum={eur_min:.9f} vs {LN_PI_E:.9f}")
        ttab = moment_table(state, 4, grid=grid)
        heis_min = min(
            variance(ttab, th) * variance(ttab, th + np.pi / 2) for th in thetas12
        )
        record("heisenberg", name, heis_min >= 0.25 - 1e-8, f"min product={heis_min:.9f}")
        worst = max(_oracle_differences(state, ttab).values())
        record("oracle-equivalence", name, worst < ORACLE_TOLERANCE, f"worst={worst:.2e}")

    for name, state in states.items():
        if not isinstance(state, TwoModeState):
            continue
        try:
            grid = state_grid(state)
            mass, s_ab = _joint_mass_entropy(state, 0.4, 1.1, grid)
            defect = abs(mass - 1.0)
            record("two-mode-normalization", name, defect < 1e-7, f"defect={defect:.2e}")
            eur = s_ab + _joint_mass_entropy(state, 0.4 + np.pi / 2, 1.1 + np.pi / 2, grid)[1]
            record("two-mode-eur", name, eur >= 2.0 * LN_PI_E - EUR_SLACK, f"EUR sum={eur:.9f}")
            ttab = two_mode_moment_table(state, 2, grid)
            worst = max(_oracle_differences(state, ttab).values())
            record("oracle-equivalence", name, worst < 1e-6, f"worst={worst:.2e}")
        except TomolensError as exc:
            record("two-mode-normalization", name, False, f"{type(exc).__name__}: {exc}")

    if "ecs-x-vacuum" in states:
        inp = states["ecs-x-vacuum"]
        try:
            out = apply(BeamsplitterConfig(phi=0.0), inp)
            norm_dev = abs(out.norm() - 1.0)
            record("beamsplitter-unitarity", "ecs-x-vacuum", norm_dev < 1e-9,
                   f"|norm-1|={norm_dev:.2e}")
            rho0 = TwoModeDensityMatrix.from_pure(out)
            for channel in (dec.AMPLITUDE_DECAY, dec.PHASE_DAMPING):
                chan = dec.ChannelConfig(channel)
                worst_tr = max(
                    abs(dec.evolve(rho0, chan, t).trace() - 1.0) for t in (0.1, 1.0, 10.0)
                )
                record("trace-preservation", channel, worst_tr < 1e-9, f"worst |tr-1|={worst_tr:.2e}")
                resid = dec.master_equation_residual(rho0, chan)
                record("master-equation-residual", channel, resid < 1e-4, f"residual={resid:.2e}")
        except TomolensError as exc:
            record("beamsplitter-unitarity", "ecs-x-vacuum", False, f"{type(exc).__name__}: {exc}")

    return results


def audit_table(results: list) -> str:
    lines = ["check                          subject              status  detail"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.check:<30} {r.subject:<20} {status:<7} {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines)
