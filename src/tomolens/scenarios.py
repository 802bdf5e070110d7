"""Scenario runner and invariant audit behind the command-line interface.

A scenario is a flat key = value config file describing one plot-ready
dataset: a tomogram map, a squeezing sweep, a relative-fluctuation-product
curve, a beamsplitter phase study, a decoherence time series, or an oracle
audit.  Outputs are CSV files plus a manifest naming every artifact and the
tolerance conventions; identical configs produce byte-identical outputs.

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
from .errors import ConfigError, GridTooNarrow, TomolensError, TruncationOverflow
from .fock import SingleModeState, TwoModeDensityMatrix, TwoModeState
from .metrics import (
    ENTROPY_THRESHOLD,
    FOURTH_MOMENT_THRESHOLD,
    LN_PI_E,
    TWO_MODE_ENTROPY_THRESHOLD,
    VARIANCE_THRESHOLD,
    below_threshold,
    central_moment,
    entropy_from_density,
    entropy_two_mode,
    fit_cos2theta_quadratic,
    relative_fluctuation_product,
    two_mode_variance,
    variance,
)
from .moments import (
    SOURCE_FOCK_ORACLE,
    moment_table,
    oracle_moment,
    oracle_moment_two_mode,
    two_mode_moment_table,
)
from .states import StateSpec, build_state, make_coherent
from .tomography import (
    DEFAULT_THETAS,
    QuadratureGrid,
    check_pi_shift,
    default_grid,
    marginal,
    tomogram_joint,
    tomogram_pure,
    tomogram_to_csv,
)

SCENARIOS = (
    "tomogram",
    "entropy-sweep",
    "variance-sweep",
    "higher-order-sweep",
    "rfp",
    "beamsplitter-sweep",
    "decoherence-run",
    "oracle-audit",
)

_CSV_CONVENTIONS = (
    "entropies in nats; entropic squeezing below ln(pi e)/2 = "
    f"{ENTROPY_THRESHOLD:.12f}; variance squeezing below 1/2; "
    "fourth-moment squeezing below 3/4; two-mode entropic threshold "
    f"ln(pi e) = {TWO_MODE_ENTROPY_THRESHOLD:.12f} (mirrored single-mode convention)"
)


def _fmt(value) -> str:
    if isinstance(value, complex):
        return f"{value.real:.17g}{value.imag:+.17g}j"
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


def _get(cfg: dict, key: str, conv, default=None, required: bool = False):
    if key not in cfg:
        if required:
            raise ConfigError(f"missing required field {key!r}")
        return default
    try:
        return conv(cfg[key])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"field {key!r}: cannot parse {cfg[key]!r} ({exc})")


def _as_complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


def _parse_range(cfg: dict, prefix: str) -> np.ndarray:
    start = _get(cfg, f"{prefix}_start", float, required=True)
    stop = _get(cfg, f"{prefix}_stop", float, required=True)
    count = _get(cfg, f"{prefix}_count", int, required=True)
    if count < 1:
        raise ConfigError(f"field {prefix}_count: must be at least 1")
    if count == 1 and stop != start:
        raise ConfigError(f"field {prefix}_count: count 1 needs {prefix}_start == {prefix}_stop")
    return np.linspace(start, stop, count)


_PARAM_KEYS = {
    "coherent": ("alpha", _as_complex),
    "ecs": ("alpha", _as_complex),
    "ocs": ("alpha", _as_complex),
    "yurke-stoler": ("alpha", _as_complex),
    "squeezed-vacuum": ("xi", _as_complex),
    "yuen": ("xi", _as_complex),
    "pacs": ("alpha", _as_complex),
    "isospectral": ("zeta", _as_complex),
    "pair-coherent": ("r", float),
    "caves-schumaker": ("r", float),
    "fock": ("n", int),
}


def parse_state_spec(cfg: dict, suffix: str = "") -> StateSpec:
    family = _get(cfg, f"family{suffix}", str, required=True)
    if family not in _PARAM_KEYS:
        raise ConfigError(f"field family{suffix}: unknown family {family!r}")
    key, conv = _PARAM_KEYS[family]
    params = {key: _get(cfg, f"{key}{suffix}", conv, required=True)}
    if family == "pacs":
        params["m"] = _get(cfg, f"m{suffix}", int, default=1)
    if family == "isospectral":
        params["base"] = _get(cfg, f"base{suffix}", int, default=1)
    n_cut = _get(cfg, f"n_cut{suffix}", int)
    return StateSpec(family, params, n_cut)


def sweep_spec(family: str, value: float, cfg: dict) -> StateSpec:
    """StateSpec for one point of a parameter sweep over the family's scalar."""
    key, _ = _PARAM_KEYS[family]
    params = {key: value if key != "n" else int(value)}
    if family == "pacs":
        params["m"] = _get(cfg, "m", int, default=1)
    if family == "isospectral":
        params["base"] = _get(cfg, "base", int, default=1)
    return StateSpec(family, params, _get(cfg, "n_cut", int))


def _thread_count() -> int:
    env = os.environ.get("TOMOLENS_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


def _parallel_map(fn, items):
    items = list(items)
    threads = min(_thread_count(), max(len(items), 1))
    if threads == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _guarded(fn, point: str):
    """Annotate numerical-guard failures with the offending sweep point."""

    def wrapped(*args):
        try:
            return fn(*args)
        except (TruncationOverflow, GridTooNarrow) as exc:
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
            "tolerances": {
                "entropy_threshold_nats": ENTROPY_THRESHOLD,
                "two_mode_entropy_threshold_nats": TWO_MODE_ENTROPY_THRESHOLD,
                "variance_threshold": VARIANCE_THRESHOLD,
                "fourth_moment_threshold": FOURTH_MOMENT_THRESHOLD,
                "oracle_equivalence": 1e-7,
            },
        }
        with open(self.path("manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def run_scenario(cfg: dict, out_dir: str) -> list:
    """Execute a parsed scenario config; returns the artifact list."""
    scenario = cfg["scenario"]
    collector = _Collector(out_dir, scenario, cfg)
    runner = {
        "tomogram": _run_tomogram,
        "entropy-sweep": _run_entropy_sweep,
        "variance-sweep": _run_variance_sweep,
        "higher-order-sweep": _run_higher_order_sweep,
        "rfp": _run_rfp,
        "beamsplitter-sweep": _run_beamsplitter_sweep,
        "decoherence-run": _run_decoherence,
        "oracle-audit": _run_oracle_audit,
    }[scenario]
    runner(cfg, collector)
    collector.finish()
    return collector.artifacts


def _run_tomogram(cfg: dict, col: _Collector) -> None:
    spec = parse_state_spec(cfg)
    state = build_state(spec)
    theta_count = _get(cfg, "theta_count", int, default=DEFAULT_THETAS.size)
    points = _get(cfg, "grid_points", int)
    thetas = np.linspace(0.0, np.pi, theta_count)
    if isinstance(state, SingleModeState):
        grid = default_grid(state, points) if points else default_grid(state)
        tomo = tomogram_pure(state, thetas, grid)
        name = _get(cfg, "output", str, default="tomogram.csv")
        tomogram_to_csv(tomo, col.path(name), comment=f"family={spec.family} {_CSV_CONVENTIONS}")
        col.add(name, f"tomogram map for {spec.family}, {theta_count} phases")
    else:
        theta2 = _get(cfg, "theta2", float, default=0.0)
        x2 = _get(cfg, "x2", float, default=1.0)
        grid = default_grid(state, points) if points else default_grid(state)
        rows = []
        for th1 in thetas:
            joint = tomogram_joint(state, th1, theta2, grid, grid)
            j = int(np.argmin(np.abs(grid.x - x2)))
            # A copy, so each phase releases its full joint array.
            rows.append(joint.values[:, j].copy())
        name = _get(cfg, "output", str, default="tomogram.csv")
        with open(col.path(name), "w", encoding="utf-8") as fh:
            fh.write(f"# scenario: tomogram (two-mode slice at X2={x2}, theta2={theta2})\n")
            fh.write(f"# conventions: {_CSV_CONVENTIONS}; slice displayed unnormalized\n")
            fh.write("X1," + ",".join(f"theta1={t:.17g}" for t in thetas) + "\n")
            for j, x in enumerate(grid.x):
                fh.write(f"{x:.17g}," + ",".join(f"{rows[i][j]:.17g}" for i in range(len(thetas))) + "\n")
        col.add(name, f"two-mode tomogram slice for {spec.family}")


def _sweep_states(cfg: dict):
    family = _get(cfg, "family", str, required=True)
    if family not in _PARAM_KEYS:
        raise ConfigError(f"field family: unknown family {family!r}")
    values = _parse_range(cfg, "param")
    states_list = _parallel_map(
        _guarded(lambda v: build_state(sweep_spec(family, float(v), cfg)), "param={0}"),
        values,
    )
    return family, values, states_list


def _run_entropy_sweep(cfg: dict, col: _Collector) -> None:
    family, values, states_list = _sweep_states(cfg)
    theta = _get(cfg, "theta", float, default=0.0)

    def one(state):
        tomo = tomogram_pure(state, [theta, theta + np.pi / 2])
        s = entropy_from_density(tomo.values[0], tomo.grid)
        s_conj = entropy_from_density(tomo.values[1], tomo.grid)
        return s, s_conj

    results = _parallel_map(one, states_list)
    rows = [
        (v, theta, s, int(below_threshold(s, ENTROPY_THRESHOLD)), s + sc)
        for v, (s, sc) in zip(values, results)
    ]
    col.write_csv(
        _get(cfg, "output", str, default="entropy_sweep.csv"),
        "param,theta,entropy_nats,entropy_squeezed,eur_sum_nats",
        rows,
        f"tomographic entropy vs parameter for {family} at theta={theta}",
    )


def _run_variance_sweep(cfg: dict, col: _Collector) -> None:
    family, values, states_list = _sweep_states(cfg)
    theta = _get(cfg, "theta", float, default=0.0)

    def one(state):
        table = moment_table(state, 2)
        return variance(table, theta), variance(table, theta + np.pi / 2)

    results = _parallel_map(one, states_list)
    rows = [
        (v, theta, var, int(below_threshold(var, VARIANCE_THRESHOLD)), var_conj)
        for v, (var, var_conj) in zip(values, results)
    ]
    col.write_csv(
        _get(cfg, "output", str, default="variance_sweep.csv"),
        "param,theta,variance,variance_squeezed,conjugate_variance",
        rows,
        f"quadrature variance vs parameter for {family} at theta={theta}",
    )


def _run_higher_order_sweep(cfg: dict, col: _Collector) -> None:
    family, values, states_list = _sweep_states(cfg)
    theta = _get(cfg, "theta", float, default=0.0)

    def one(state):
        table = moment_table(state, 4)
        return central_moment(table, theta, 3), central_moment(table, theta, 4)

    results = _parallel_map(one, states_list)
    rows = [
        (v, theta, m3, m4, int(below_threshold(m4, FOURTH_MOMENT_THRESHOLD)))
        for v, (m3, m4) in zip(values, results)
    ]
    col.write_csv(
        _get(cfg, "output", str, default="higher_order_sweep.csv"),
        "param,theta,central_moment_3,central_moment_4,hm4_squeezed",
        rows,
        f"third/fourth central moments vs parameter for {family} at theta={theta}",
    )


def _run_rfp(cfg: dict, col: _Collector) -> None:
    state1 = build_state(parse_state_spec(cfg, "_1"))
    state2 = build_state(parse_state_spec(cfg, "_2"))
    if not isinstance(state1, SingleModeState) or not isinstance(state2, SingleModeState):
        raise ConfigError("rfp needs two single-mode states")
    count = _get(cfg, "theta_count", int, default=181)
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


_BS_INPUTS = ("ecs-vacuum", "ocs-vacuum", "ecs-ecs", "ocs-ocs", "pacs-vacuum")


def _bs_input(kind: str, alpha: float, cfg: dict) -> TwoModeState:
    from .states import make_cat, make_pacs, make_product

    if kind == "ecs-vacuum":
        return make_product(make_cat(alpha, "even"), make_coherent(0.0))
    if kind == "ocs-vacuum":
        return make_product(make_cat(alpha, "odd"), make_coherent(0.0))
    if kind == "ecs-ecs":
        return make_product(make_cat(alpha, "even"), make_cat(alpha, "even"))
    if kind == "ocs-ocs":
        return make_product(make_cat(alpha, "odd"), make_cat(alpha, "odd"))
    if kind == "pacs-vacuum":
        m = _get(cfg, "m", int, default=1)
        return make_product(make_pacs(alpha, m), make_coherent(0.0))
    raise ConfigError(f"field input: unknown beamsplitter input {kind!r}")


def _run_beamsplitter_sweep(cfg: dict, col: _Collector) -> None:
    kind = _get(cfg, "input", str, required=True)
    if kind not in _BS_INPUTS:
        raise ConfigError(f"field input: unknown beamsplitter input {kind!r}")
    values = _parse_range(cfg, "param")
    phis = [float(p) for p in cfg.get("phi_values", "0.0").split(",")]
    theta = _get(cfg, "theta", float, default=np.pi / 2)

    def one(point):
        alpha, phi = point
        inp = _bs_input(kind, alpha, cfg)
        out = apply(BeamsplitterConfig(phi=phi), inp)
        grid = default_grid(out)
        joint = tomogram_joint(out, theta, theta, grid, grid)
        joint_conj = tomogram_joint(out, theta + np.pi / 2, theta + np.pi / 2, grid, grid)
        s_ab = entropy_two_mode(joint)
        eur = s_ab + entropy_two_mode(joint_conj)
        table = two_mode_moment_table(out, 2, grid1=grid, grid2=grid)
        var = two_mode_variance(table, theta, theta)
        s_c = entropy_from_density(marginal(joint, "a").values[0], grid)
        s_d = entropy_from_density(marginal(joint, "b").values[0], grid)
        return s_ab, var, eur, s_c, s_d

    points = [(float(a), phi) for phi in phis for a in values]
    results = _parallel_map(_guarded(one, "param={0[0]}, phi={0[1]}"), points)
    rows = [
        (
            alpha,
            phi,
            theta,
            s_ab,
            int(below_threshold(s_ab, TWO_MODE_ENTROPY_THRESHOLD)),
            var,
            int(below_threshold(var, VARIANCE_THRESHOLD)),
            eur,
            s_c,
            s_d,
        )
        for (alpha, phi), (s_ab, var, eur, s_c, s_d) in zip(points, results)
    ]
    col.write_csv(
        _get(cfg, "output", str, default="beamsplitter_sweep.csv"),
        "param,phi,theta,two_mode_entropy_nats,entropy_squeezed,two_mode_variance,"
        "variance_squeezed,eur_sum_nats,reduced_entropy_c_nats,reduced_entropy_d_nats",
        rows,
        f"beamsplitter output diagnostics for {kind} input across phi",
    )


def _run_decoherence(cfg: dict, col: _Collector) -> None:
    kind = _get(cfg, "input", str, required=True)
    if kind not in _BS_INPUTS:
        raise ConfigError(f"field input: unknown beamsplitter input {kind!r}")
    alpha = _get(cfg, "alpha", float, default=1.0)
    phi = _get(cfg, "phi", float, default=0.0)
    channel = _get(cfg, "channel", str, default=dec.AMPLITUDE_DECAY)
    if channel not in (dec.AMPLITUDE_DECAY, dec.PHASE_DAMPING):
        raise ConfigError(f"field channel: unknown channel {channel!r}")
    rate_c = _get(cfg, "rate_c", float, default=1.0)
    rate_d = _get(cfg, "rate_d", float, default=1.0)
    t_count = _get(cfg, "time_count", int, default=201)
    t_min = _get(cfg, "time_min", float, default=1e-3)
    t_max = _get(cfg, "time_max", float, default=20.0)
    entropy_count = _get(cfg, "entropy_time_count", int, default=0)
    times = dec.default_time_grid(t_count, t_min, t_max)
    chan = dec.ChannelConfig(channel, rate_c, rate_d, tuple(times))
    rho0 = TwoModeDensityMatrix.from_pure(apply(BeamsplitterConfig(phi=phi), _bs_input(kind, alpha, cfg)))

    purities = _parallel_map(lambda t: dec.purity(dec.evolve(rho0, chan, t)), times)
    rows = [
        (t, p, dec.mean_total_photon(dec.evolve(rho0, chan, t)), kind, channel, rate_c, rate_d)
        for t, p in zip(times, purities)
    ]
    col.write_csv(
        _get(cfg, "output", str, default="decoherence_purity.csv"),
        "t,purity,mean_total_photon,input,channel,rate_c,rate_d",
        rows,
        f"purity time series for {kind} input under {channel}",
    )
    if entropy_count > 0:
        theta = _get(cfg, "theta", float, default=0.0)
        ent_times = dec.default_time_grid(entropy_count, t_min, t_max)

        def one_entropy(t):
            rho_t = dec.evolve(rho0, chan, t)
            grid = default_grid(rho_t)
            joint = tomogram_joint(rho_t, theta, theta, grid, grid)
            return entropy_two_mode(joint)

        entropies = _parallel_map(one_entropy, ent_times)
        rows = [
            (t, s, kind, channel, rate_c, rate_d) for t, s in zip(ent_times, entropies)
        ]
        col.write_csv(
            _get(cfg, "output_entropy", str, default="decoherence_entropy.csv"),
            "t,two_mode_entropy_nats,input,channel,rate_c,rate_d",
            rows,
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


def _run_oracle_audit(cfg: dict, col: _Collector) -> None:
    tolerance = _get(cfg, "tolerance", float, default=1e-7)
    max_order = _get(cfg, "max_order", int, default=4)
    rows = []
    worst_overall = 0.0
    for name, spec in default_battery():
        state = build_state(spec)
        if isinstance(state, SingleModeState):
            table = moment_table(state, max_order)
            for (k, l), val in sorted(table.entries.items()):
                ref = oracle_moment(state, k, l)
                diff = abs(val - ref)
                worst_overall = max(worst_overall, diff)
                rows.append((name, k, l, "", "", diff, int(diff < tolerance)))
        else:
            table2 = two_mode_moment_table(state, 2)
            for (k, l, p, q), val in sorted(table2.entries.items()):
                ref = oracle_moment_two_mode(state, k, l, p, q)
                diff = abs(val - ref)
                worst_overall = max(worst_overall, diff)
                rows.append((name, k, l, p, q, diff, int(diff < tolerance)))
    col.write_csv(
        _get(cfg, "output", str, default="oracle_audit.csv"),
        "state,k,l,p,q,abs_difference,within_tolerance",
        rows,
        f"tomogram extraction vs Fock oracle; worst {worst_overall:.3e}, tolerance {tolerance:g}",
    )
    if worst_overall >= tolerance:
        raise TomolensError(
            f"oracle audit worst difference {worst_overall:.3e} exceeds {tolerance:g}"
        )


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
    truncation (an inadequate one must fail the tail certificate).
    """
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
        # EUR on conjugate pairs: evaluate theta and theta + pi/2 directly.
        tomo_eur = tomogram_pure(state, np.concatenate([thetas12, thetas12 + np.pi / 2]), grid)
        ent = [entropy_from_density(row, grid) for row in tomo_eur.values]
        eur_min = min(ent[i] + ent[i + 12] for i in range(12))
        record("entropic-uncertainty", name, eur_min >= LN_PI_E - 1e-6,
               f"min EUR sum={eur_min:.9f} vs {LN_PI_E:.9f}")
        table = moment_table(state, 2, grid=grid)
        heis_min = min(
            variance(table, th) * variance(table, th + np.pi / 2) for th in thetas12
        )
        record("heisenberg", name, heis_min >= 0.25 - 1e-8, f"min product={heis_min:.9f}")
        otab = moment_table(state, 4, source=SOURCE_FOCK_ORACLE)
        ttab = moment_table(state, 4, grid=grid)
        worst = max(abs(ttab.entries[key] - otab.entries[key]) for key in ttab.entries)
        record("oracle-equivalence", name, worst < 1e-7, f"worst={worst:.2e}")

    for name, state in states.items():
        if not isinstance(state, TwoModeState):
            continue
        try:
            grid = state_grid(state)
            joint = tomogram_joint(state, 0.4, 1.1, grid, grid)
            defect = joint.normalization_defect()
            record("two-mode-normalization", name, defect < 1e-7, f"defect={defect:.2e}")
            s_ab = entropy_two_mode(joint)
            conj = tomogram_joint(state, 0.4 + np.pi / 2, 1.1 + np.pi / 2, grid, grid)
            eur = s_ab + entropy_two_mode(conj)
            record("two-mode-eur", name, eur >= 2.0 * LN_PI_E - 1e-6, f"EUR sum={eur:.9f}")
            ttab = two_mode_moment_table(state, 2, grid1=grid, grid2=grid)
            worst = max(
                abs(ttab.entries[key] - oracle_moment_two_mode(state, *key))
                for key in ttab.entries
            )
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
