import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import tomolens
from tomolens import decoherence, scenarios, tomography
from tomolens.cli import main
from tomolens.errors import ConfigError, NegativeTomogram
from tomolens.scenarios import (
    default_battery,
    parse_config,
    parse_state_spec,
    run_audit,
    run_scenario,
)


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config_requires_scenario(tmp_path):
    path = write_config(tmp_path, "family = ecs\n")
    with pytest.raises(ConfigError, match="scenario"):
        parse_config(path)


def test_parse_config_rejects_unknown_scenario(tmp_path):
    path = write_config(tmp_path, "scenario = wigner\n")
    with pytest.raises(ConfigError, match="unknown scenario"):
        parse_config(path)


def test_parse_config_rejects_bad_lines(tmp_path):
    path = write_config(tmp_path, "scenario = tomogram\nno equals sign here\n")
    with pytest.raises(ConfigError, match="expected"):
        parse_config(path)


def test_parse_config_missing_file():
    with pytest.raises(ConfigError, match="does not exist"):
        parse_config("/nonexistent/path.cfg")


def test_parse_state_spec_names_missing_field(tmp_path):
    cfg = parse_config(write_config(tmp_path, "scenario = tomogram\nfamily = ecs\n"))
    with pytest.raises(ConfigError, match="alpha"):
        parse_state_spec(cfg)


def test_cli_exit_codes(tmp_path, capsys):
    missing = write_config(
        tmp_path,
        "scenario = entropy-sweep\nfamily = ocs\nparam_start = 0.5\ntheta = 0\n",
        "missing.cfg",
    )
    assert main(["run", missing, "--out", str(tmp_path / "o1")]) == 1

    empty_range = write_config(
        tmp_path,
        "scenario = entropy-sweep\nfamily = ocs\n"
        "param_start = 0.5\nparam_stop = 1.5\nparam_count = 0\n",
        "empty.cfg",
    )
    assert main(["run", empty_range, "--out", str(tmp_path / "o2")]) == 1

    guard = write_config(
        tmp_path,
        "scenario = tomogram\nfamily = coherent\nalpha = 2.0\nn_cut = 4\n",
        "guard.cfg",
    )
    assert main(["run", guard, "--out", str(tmp_path / "o3")]) == 2
    capsys.readouterr()

    # The fewest points a config may ask for cannot hold a coherent state's mass.
    narrow = write_config(
        tmp_path,
        "scenario = tomogram\nfamily = coherent\nalpha = 1.0\ngrid_points = 3\n",
        "narrow.cfg",
    )
    assert main(["run", narrow, "--out", str(tmp_path / "o4")]) == 2
    assert capsys.readouterr().err.startswith("numerical guard: GridTooNarrow:")

    # Squeezing this large occupies levels above states.MAX_LEVEL, and so does
    # a coherent amplitude of 1e200, whose |alpha|^2 overflows a double, or a
    # finite complex scalar whose modulus overflows one.
    too_large = {
        "squeezed-xi-20": "scenario = entropy-sweep\nfamily = squeezed-vacuum\n"
                          "param_start = 20\nparam_stop = 20\nparam_count = 1\n",
        "caves-schumaker-r-20": "scenario = tomogram\nfamily = caves-schumaker\nr = 20\n",
        "coherent-1e200": "scenario = tomogram\nfamily = coherent\nalpha = 1e200\n",
        "ecs-1e200": "scenario = tomogram\nfamily = ecs\nalpha = 1e200\n",
        "isospectral-1e200": "scenario = tomogram\nfamily = isospectral\nzeta = 1e200\n",
        "squeezed-1e308": "scenario = tomogram\nfamily = squeezed-vacuum\nxi = 1e308\n",
        "squeezed-complex-overflow": "scenario = tomogram\nfamily = squeezed-vacuum\nxi = 1.5e308+1.5e308j\n",
        "pacs-complex-overflow": "scenario = tomogram\nfamily = pacs\nalpha = 1.5e308+1.5e308j\n",
    }
    for name, text in too_large.items():
        path = write_config(tmp_path, text, f"{name}.cfg")
        assert main(["run", path, "--out", str(tmp_path / name)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("numerical guard: TruncationOverflow:") and "Traceback" not in err, (name, err)

    # Values the library rejects are config errors too, never a traceback.
    rejected = {
        "negative-rate": ("scenario = decoherence-run\ninput = ecs-vacuum\nalpha = 0.5\n"
                          "rate_c = -1\ntime_count = 3\ntime_min = 0.01\ntime_max = 1\n",
                          "rates must be positive"),
        "nan-rate": ("scenario = decoherence-run\ninput = ecs-vacuum\nalpha = 0.5\n"
                     "rate_c = nan\ntime_count = 3\ntime_min = 0.01\ntime_max = 1\n",
                     "field 'rate_c': 'nan' is not finite"),
        "inf-rate": ("scenario = decoherence-run\ninput = ecs-vacuum\nalpha = 0.5\n"
                     "rate_d = inf\ntime_count = 3\ntime_min = 0.01\ntime_max = 1\n",
                     "field 'rate_d': 'inf' is not finite"),
        "bad-phi": ("scenario = beamsplitter-sweep\ninput = ecs-vacuum\nparam_start = 0.5\n"
                    "param_stop = 0.5\nparam_count = 1\nphi_values = 0.0,abc\n",
                    "phi_values"),
        "degenerate-ocs": ("scenario = entropy-sweep\nfamily = ocs\nparam_start = 0\n"
                           "param_stop = 1\nparam_count = 3\n",
                           "param=0"),
        "slice-off-grid": ("scenario = tomogram\nfamily = pair-coherent\nr = 1.0\n"
                           "theta_count = 3\nx2 = 50\n",
                           "x2 = 50.0 lies outside the grid half-width 11.16"),
        "one-grid-point": ("scenario = tomogram\nfamily = coherent\nalpha = 1.0\ngrid_points = 1\n",
                           "field 'grid_points': must be at least 3, got 1"),
        "no-phases-map": ("scenario = tomogram\nfamily = coherent\nalpha = 1.0\ntheta_count = 0\n",
                          "field 'theta_count': must be at least 1, got 0"),
        "no-phases-slice": ("scenario = tomogram\nfamily = pair-coherent\nr = 1.0\ntheta_count = 0\n",
                            "field 'theta_count': must be at least 1, got 0"),
        "no-phases-rfp": ("scenario = rfp\nfamily_1 = ecs\nalpha_1 = 1.0\n"
                          "family_2 = coherent\nalpha_2 = 0.5\ntheta_count = 0\n",
                          "field 'theta_count': must be at least 5, got 0"),
        # linspace(0, pi, n) gives only two distinct cos(2 theta) for n < 5,
        # too few for the three-coefficient f^2 fit.
        **{
            f"rank-deficient-rfp-{n}": ("scenario = rfp\nfamily_1 = ecs\nalpha_1 = 1.0\n"
                                        f"family_2 = coherent\nalpha_2 = 0.5\ntheta_count = {n}\n",
                                        f"field 'theta_count': must be at least 5, got {n}")
            for n in (1, 2, 3, 4)
        },
        "negative-n-cut": ("scenario = tomogram\nfamily = coherent\nalpha = 1.0\nn_cut = -3\n",
                           "field 'n_cut': must be at least 0, got -3"),
        "nan-theta": ("scenario = entropy-sweep\nfamily = ecs\nparam_start = 0.5\n"
                      "param_stop = 0.5\nparam_count = 1\ntheta = nan\n",
                      "field 'theta': 'nan' is not finite"),
        "order-too-high": ("scenario = oracle-audit\nmax_order = 7\n",
                           "field 'max_order': must be in 0..6, got 7"),
        "negative-order": ("scenario = oracle-audit\nmax_order = -1\n",
                           "field 'max_order': must be in 0..6, got -1"),
        # Family parameters below their catalog bounds.
        "negative-m": ("scenario = tomogram\nfamily = pacs\nalpha = 1.0\nm = -1\n",
                       "field 'm': must be at least 0, got -1"),
        "zero-base": ("scenario = tomogram\nfamily = isospectral\nzeta = 1.0\nbase = 0\n",
                      "field 'base': must be at least 1, got 0"),
        "negative-n": ("scenario = tomogram\nfamily = fock\nn = -2\n",
                       "field 'n': must be at least 0, got -2"),
        "negative-r": ("scenario = tomogram\nfamily = pair-coherent\nr = -0.5\n",
                       "field 'r': must be at least 0.0, got -0.5"),
        "negative-m-beamsplitter": ("scenario = beamsplitter-sweep\ninput = pacs-vacuum\nm = -1\n"
                                    "param_start = 0.8\nparam_stop = 0.8\nparam_count = 1\n",
                                    "field 'm': must be at least 0, got -1"),
        "negative-m-decoherence": ("scenario = decoherence-run\ninput = pacs-vacuum\nm = -1\nalpha = 0.8\n"
                                   "time_count = 3\ntime_min = 0.01\ntime_max = 1\n",
                                   "field 'm': must be at least 0, got -1"),
        "negative-fock-sweep": ("scenario = entropy-sweep\nfamily = fock\nparam_start = -1\n"
                                "param_stop = 2\nparam_count = 4\n",
                                "field 'param_start': must be at least 0, got -1.0"),
        # linspace(0.5, 2.5, 3) would otherwise build |0>, |1>, |2> under params 0.5, 1.5, 2.5.
        "fractional-fock-sweep": ("scenario = variance-sweep\nfamily = fock\nparam_start = 0.5\n"
                                  "param_stop = 2.5\nparam_count = 3\n",
                                  "field 'param': fock needs whole-number points, got 0.5"),
        "negative-entropy-times": ("scenario = decoherence-run\ninput = ecs-vacuum\nalpha = 0.5\n"
                                   "time_count = 3\ntime_min = 0.01\ntime_max = 1\nentropy_time_count = -2\n",
                                   "field 'entropy_time_count': must be at least 0, got -2"),
    }
    for name, (text, message) in rejected.items():
        path = write_config(tmp_path, text, f"{name}.cfg")
        assert main(["run", path, "--out", str(tmp_path / name)]) == 1, name
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err, (name, err)
        assert "Traceback" not in err


def test_non_integer_thread_count_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TOMOLENS_THREADS", "abc")
    path = write_config(
        tmp_path,
        "scenario = variance-sweep\nfamily = ecs\nparam_start = 0.5\nparam_stop = 1.0\nparam_count = 3\n",
    )
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: TOMOLENS_THREADS") and "'abc'" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("family", ["pair-coherent", "caves-schumaker"])
@pytest.mark.parametrize("scenario", ["entropy-sweep", "variance-sweep", "higher-order-sweep"])
def test_single_mode_sweeps_reject_two_mode_families(tmp_path, capsys, scenario, family):
    path = write_config(
        tmp_path,
        f"scenario = {scenario}\nfamily = {family}\nparam_start = 0.5\nparam_stop = 1.0\nparam_count = 2\n",
    )
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert family in err
    assert not (tmp_path / "out").exists()


def test_negative_tomogram_is_a_named_numerical_guard(tmp_path, capsys, monkeypatch):
    # No catalog config yields a non-physical rho, so a stub report raises
    # the guard inside the beamsplitter runner's guarded point.
    def non_physical(*args, **kwargs):
        raise NegativeTomogram("density matrix gives a negative tomogram (phase (0, 0): min -1)")

    monkeypatch.setattr(scenarios, "two_mode_report", non_physical)
    path = write_config(
        tmp_path,
        "scenario = beamsplitter-sweep\ninput = ecs-vacuum\nparam_start = 0.5\n"
        "param_stop = 0.5\nparam_count = 1\nphi_values = 0.25\n",
    )
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical guard: NegativeTomogram: density matrix gives a negative")
    assert "[at param=0.5, phi=0.25]" in err and "Traceback" not in err


def test_projection_defect_is_a_named_numerical_guard(tmp_path, capsys, monkeypatch):
    # One Gauss-Hermite node short, the product basis of the entropy point's
    # mixed joint tomogram fails its certificate inside the guarded time point.
    exact = tomography._product_projection
    monkeypatch.setattr(tomography, "_product_projection", lambda d, nodes: exact(d, nodes - 1))
    tomography._product_basis.cache_clear()
    path = write_config(
        tmp_path,
        "scenario = decoherence-run\ninput = ecs-vacuum\nalpha = 0.5\nchannel = phase-damping\n"
        "time_count = 1\nentropy_time_count = 1\ntime_min = 0.1\ntime_max = 0.1\n",
    )
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical guard: ProjectionDefect: product basis misses psi_n psi_n'"), err
    assert ", N=1201 [at t=0.1]" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "grid",
    ["time_count = 5\ntime_min = 0\ntime_max = 5\n",
     "time_count = 5\ntime_min = 5\ntime_max = 0.01\n",
     "time_count = 0\ntime_min = 0.01\ntime_max = 5\n"],
    ids=["zero-time-min", "max-below-min", "zero-count"],
)
def test_decoherence_run_rejects_bad_time_grid(tmp_path, capsys, grid):
    path = write_config(
        tmp_path, "scenario = decoherence-run\ninput = ecs-vacuum\nalpha = 0.5\n" + grid
    )
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: time grid") and "Traceback" not in err
    assert not (tmp_path / "out" / "decoherence_purity.csv").exists()


def test_tomogram_scenario_runs_and_is_deterministic(tmp_path):
    path = write_config(
        tmp_path,
        "scenario = tomogram\nfamily = ecs\nalpha = 0.7071067811865476\n"
        "theta_count = 9\ngrid_points = 401\noutput = map.csv\n",
    )
    assert main(["run", path, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", path, "--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "map.csv").read_bytes()
    second = (tmp_path / "b" / "map.csv").read_bytes()
    assert first == second
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["scenario"] == "tomogram"
    assert manifest["artifacts"][0]["file"] == "map.csv"
    assert "tolerances" in manifest


def test_entropy_sweep_scenario(tmp_path):
    path = write_config(
        tmp_path,
        "scenario = entropy-sweep\nfamily = ecs\n"
        "param_start = 0.5\nparam_stop = 1.0\nparam_count = 3\n"
        f"theta = {np.pi / 2}\n",
    )
    artifacts = run_scenario(parse_config(path), str(tmp_path / "out"))
    lines = (tmp_path / "out" / "entropy_sweep.csv").read_text().splitlines()
    assert lines[2] == "param,theta,entropy_nats,entropy_squeezed,eur_sum_nats"
    assert len(lines) == 3 + 3
    flags = [int(line.split(",")[3]) for line in lines[3:]]
    assert all(flags)  # even cat momentum entropy squeezed across the range
    assert len(artifacts) == 1


def test_rfp_scenario(tmp_path):
    path = write_config(
        tmp_path,
        "scenario = rfp\nfamily_1 = ecs\nalpha_1 = 1.0\n"
        "family_2 = squeezed-vacuum\nxi_2 = 1.0\ntheta_count = 25\n",
    )
    run_scenario(parse_config(path), str(tmp_path / "out"))
    lines = (tmp_path / "out" / "rfp.csv").read_text().splitlines()
    data = np.array([[float(v) for v in line.split(",")] for line in lines[3:]])
    assert data.shape == (25, 3)
    assert np.all(data[:, 1] > 0)


def test_decoherence_scenario(tmp_path):
    path = write_config(
        tmp_path,
        "scenario = decoherence-run\ninput = ecs-vacuum\nalpha = 1.0\n"
        "channel = amplitude-decay\ntime_count = 5\ntime_min = 0.01\ntime_max = 5\n",
    )
    run_scenario(parse_config(path), str(tmp_path / "out"))
    lines = (tmp_path / "out" / "decoherence_purity.csv").read_text().splitlines()
    assert lines[2].startswith("t,purity,mean_total_photon")
    purities = [float(line.split(",")[1]) for line in lines[3:]]
    assert len(purities) == 5
    assert min(purities) < 1.0


def test_beamsplitter_scenario(tmp_path):
    path = write_config(
        tmp_path,
        "scenario = beamsplitter-sweep\ninput = ecs-vacuum\n"
        "param_start = 1.0\nparam_stop = 1.0\nparam_count = 1\n"
        f"phi_values = 0.0,{np.pi / 2}\ntheta = {np.pi / 2}\n",
    )
    run_scenario(parse_config(path), str(tmp_path / "out"))
    lines = (tmp_path / "out" / "beamsplitter_sweep.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 2
    squeezed_flags = [int(r[4]) for r in rows]
    assert squeezed_flags == [1, 0]  # phi = 0 squeezed, phi = pi/2 not


def test_oracle_audit_scenario(tmp_path):
    path = write_config(tmp_path, "scenario = oracle-audit\nmax_order = 2\n")
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "oracle_audit.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[3:]]
    assert all(int(r[-1]) for r in rows)
    assert max(float(r[-2]) for r in rows) < 1e-7


def test_failed_oracle_audit_exits_3_without_traceback(tmp_path, capsys):
    path = write_config(tmp_path, "scenario = oracle-audit\nmax_order = 0\ntolerance = 1e-20\n")
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("audit failure: oracle audit worst difference") and "Traceback" not in err
    rows = (tmp_path / "out" / "oracle_audit.csv").read_text().splitlines()[3:]
    assert rows and not all(int(row.split(",")[-1]) for row in rows)


def test_default_battery_constructs():
    names = [name for name, _ in default_battery()]
    assert len(names) == len(set(names))
    assert "caves-schumaker" in names


def test_audit_negative_controls():
    shrunk = run_audit(grid_half_width=2.0)
    assert any(
        not r.passed and "GridTooNarrow" in r.detail for r in shrunk if r.check == "tomogram-normalization"
    )
    inadequate = run_audit(n_cut=4)
    assert any(
        not r.passed and "TruncationOverflow" in r.detail
        for r in inadequate
        if r.check == "construction+tail-certificate" and r.subject == "coherent-2"
    )
    # The two-mode constructors fail the same tail certificate as the single-mode ones.
    certificates = {r.subject: r for r in inadequate if r.check == "construction+tail-certificate"}
    for subject in ("caves-schumaker", "pair-coherent"):
        r = certificates[subject]
        assert not r.passed and r.detail.startswith("TruncationOverflow: tail mass "), r.detail


def test_audit_cli_exit_code_on_failure():
    assert main(["audit", "--n-cut", "4"]) == 3


@pytest.mark.parametrize(
    "override",
    [["--n-cut", "-1"], ["--grid-half-width", "nan"], ["--grid-half-width", "inf"],
     ["--grid-half-width", "-3"], ["--grid-half-width", "0"]],
)
def test_audit_rejects_invalid_overrides(capsys, override):
    assert main(["audit", *override]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {override[0]} must be") and "Traceback" not in err


@pytest.mark.parametrize("override", [["--grid-half-width", "2.0"], ["--n-cut", "0"]])
def test_audit_negative_controls_fail_loudly(capsys, override):
    assert main(["audit", *override]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_cut_that_keeps_no_amplitude_is_a_truncation_failure(tmp_path, capsys):
    # The odd cat has no amplitude at n = 0.
    path = write_config(tmp_path, "scenario = tomogram\nfamily = ocs\nalpha = 1.0\nn_cut = 0\n")
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical guard: TruncationOverflow: n_cut=0 keeps no amplitude") and "Traceback" not in err
    certificates = {r.subject: r for r in run_audit(n_cut=0) if r.check == "construction+tail-certificate"}
    assert certificates["ocs"].detail == "TruncationOverflow: n_cut=0 keeps no amplitude of the state"


def test_audit_n_cut_reaches_the_product_states():
    # The forced cut reaches both factors of a product, so the states the
    # beamsplitter and decoherence checks hang off fail their certificate.
    results = run_audit(n_cut=0)
    certificates = {r.subject: r for r in results if r.check == "construction+tail-certificate"}
    for subject in ("two-mode-vacuum", "ecs-x-vacuum"):
        r = certificates[subject]
        assert not r.passed and r.detail.startswith("TruncationOverflow: tail mass "), r.detail
    assert not any(r.passed for r in results if r.subject == "ecs-x-vacuum")


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def subprocess_env(**overrides):
    """The environment without any BLAS thread variable, plus `overrides` and tomolens on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tomolens.__file__)))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return dict(env, PYTHONPATH=src, **overrides)


def run_under_envs(tmp_path, config_text, names, envs):
    """Run one config through the CLI once per environment; return each run's artifacts."""
    path = write_config(tmp_path, config_text)
    outputs = []
    for i, env in enumerate(envs):
        out = tmp_path / f"run-{i}"
        subprocess.run([sys.executable, "-m", "tomolens.cli", "run", path, "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outputs.append([(out / name).read_bytes() for name in names])
    return outputs


def run_across_scenario_threads(tmp_path, config_text, names):
    """Run one config with TOMOLENS_THREADS unset, =1 and =2; return each run's artifacts.

    BLAS is pinned to one thread in every run; only the scenario pool varies.
    """
    pinned = subprocess_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    unset = {k: v for k, v in pinned.items() if k != "TOMOLENS_THREADS"}
    envs = [unset] + [dict(unset, TOMOLENS_THREADS=threads) for threads in ("1", "2")]
    return run_under_envs(tmp_path, config_text, names, envs)


def test_beamsplitter_sweep_is_byte_identical_across_scenario_threads(tmp_path):
    # One point per phi, so TOMOLENS_THREADS=2 runs the two points on two
    # pool workers at once.
    unset, one, two = run_across_scenario_threads(
        tmp_path,
        "scenario = beamsplitter-sweep\ninput = ecs-vacuum\n"
        "param_start = 0.56\nparam_stop = 0.56\nparam_count = 1\n"
        "phi_values = 0.0,1.5707963267948966\ntheta = 0.7\n",
        ["beamsplitter_sweep.csv"],
    )
    assert one[0].count(b"\n") == 5
    assert unset == one == two


def test_decoherence_run_is_byte_identical_across_scenario_threads(tmp_path):
    # Pins the per-diagonal GEMM kernel and the one-evolve-per-point pool.
    names = ["decoherence_purity.csv", "decoherence_entropy.csv"]
    unset, one, two = run_across_scenario_threads(
        tmp_path,
        "scenario = decoherence-run\ninput = ecs-vacuum\nalpha = 0.56\n"
        "channel = amplitude-decay\ntime_count = 5\nentropy_time_count = 2\n"
        "time_min = 0.01\ntime_max = 5\n",
        names,
    )
    assert [blob.count(b"\n") for blob in one] == [3 + 5, 3 + 2]
    assert unset == one == two


def test_entropy_sweep_is_byte_identical_across_scenario_threads(tmp_path):
    # Pins the pass that builds and measures each point, in order or on the pool.
    unset, one, two = run_across_scenario_threads(
        tmp_path,
        "scenario = entropy-sweep\nfamily = ecs\n"
        "param_start = 0.5\nparam_stop = 1.0\nparam_count = 3\ntheta = 0.4\n",
        ["entropy_sweep.csv"],
    )
    assert one[0].count(b"\n") == 3 + 3
    assert unset == one == two


def point_threads(monkeypatch, tmp_path, text, module, name):
    """Idents of the threads on which running config `text` called `module.name`, one per point."""
    threads = []
    original = getattr(module, name)

    def recording(*args):
        threads.append(threading.get_ident())
        return original(*args)

    monkeypatch.setattr(module, name, recording)
    run_scenario(parse_config(write_config(tmp_path, text)), str(tmp_path / "out"))
    return threads


SWEEP_POINTS = "family = ecs\nparam_start = 0.5\nparam_stop = 1.0\nparam_count = 3\ntheta = 0.4\n"


@pytest.mark.parametrize("scenario", ["entropy-sweep", "variance-sweep", "higher-order-sweep"])
def test_single_mode_sweep_points_run_in_order_on_the_calling_thread_by_default(
        tmp_path, monkeypatch, scenario):
    monkeypatch.delenv("TOMOLENS_THREADS", raising=False)
    monkeypatch.setattr(scenarios.os, "cpu_count", lambda: 4)
    threads = point_threads(monkeypatch, tmp_path, f"scenario = {scenario}\n{SWEEP_POINTS}",
                            scenarios, "build_state")
    assert threads == [threading.get_ident()] * 3


def test_a_set_thread_count_runs_single_mode_sweep_points_on_pool_workers(tmp_path, monkeypatch):
    monkeypatch.setenv("TOMOLENS_THREADS", "2")
    threads = point_threads(monkeypatch, tmp_path, f"scenario = entropy-sweep\n{SWEEP_POINTS}",
                            scenarios, "build_state")
    assert len(threads) == 3 and threading.get_ident() not in threads


@pytest.mark.parametrize(
    "text, module, name, points",
    [
        ("scenario = beamsplitter-sweep\ninput = ecs-vacuum\nparam_start = 0.56\nparam_stop = 0.56\n"
         "param_count = 1\nphi_values = 0.0,1.5707963267948966\ntheta = 0.7\n", scenarios, "apply", 2),
        ("scenario = decoherence-run\ninput = ecs-vacuum\nalpha = 0.56\nchannel = phase-damping\n"
         "time_count = 3\ntime_min = 0.01\ntime_max = 5\n", decoherence, "evolve", 3),
    ],
    ids=["beamsplitter-sweep", "decoherence-run"],
)
def test_two_mode_points_run_on_pool_workers_by_default(tmp_path, monkeypatch, text, module, name, points):
    monkeypatch.delenv("TOMOLENS_THREADS", raising=False)
    monkeypatch.setattr(scenarios.os, "cpu_count", lambda: 2)
    threads = point_threads(monkeypatch, tmp_path, text, module, name)
    assert len(threads) == points and threading.get_ident() not in threads


def blas_env_after_import(**overrides):
    """The BLAS thread variables a fresh interpreter holds after `import tomolens`."""
    code = ("import json, os, tomolens; "
            f"print(json.dumps({{v: os.environ.get(v) for v in {BLAS_THREAD_VARS!r}}}))")
    done = subprocess.run([sys.executable, "-c", code], env=subprocess_env(**overrides),
                          check=True, capture_output=True, text=True, timeout=120)
    return json.loads(done.stdout)


def test_import_pins_blas_to_one_thread():
    assert blas_env_after_import() == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": None}


def test_cli_import_loads_no_scipy():
    # scipy is a test-only reference; importing it would cost every run its start-up time.
    code = "import sys, tomolens.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          check=True, capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == "[]"


def test_scenarios_import_builds_no_csv_table():
    # The CSV formatter's power-of-ten and digit tables are built on first use, so set-up never pays for them.
    code = ("import tomolens.scenarios; from tomolens import tomography; "
            "print(tomography._ten_powers.cache_info().currsize, tomography._text_tables.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          check=True, capture_output=True, text=True, timeout=120)
    assert done.stdout.split() == ["0", "0"]


def test_a_caller_set_blas_thread_variable_wins():
    assert blas_env_after_import(OMP_NUM_THREADS="3") == {
        "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": None}


@pytest.mark.parametrize(
    "config_text, names",
    [
        (
            "scenario = beamsplitter-sweep\ninput = ecs-vacuum\n"
            "param_start = 0.56\nparam_stop = 0.56\nparam_count = 1\n"
            "phi_values = 0.0,1.5707963267948966\ntheta = 0.7\n",
            ["beamsplitter_sweep.csv", "manifest.json"],
        ),
        (
            "scenario = decoherence-run\ninput = ecs-vacuum\nalpha = 0.56\n"
            "channel = phase-damping\ntime_count = 3\nentropy_time_count = 2\n"
            "time_min = 0.01\ntime_max = 5\n",
            ["decoherence_purity.csv", "decoherence_entropy.csv", "manifest.json"],
        ),
    ],
    ids=["beamsplitter-sweep", "decoherence-run"],
)
def test_default_blas_threading_is_byte_identical_to_one_thread(tmp_path, config_text, names):
    # With no BLAS variable set the run is pinned to one BLAS thread, so it
    # writes the bytes of an explicit one-thread run, manifest included.  On
    # 2 cores the CSV bytes agreed without the pin as well, so for them this
    # pins the default; the manifest assertion is what needs the pin.
    default, pinned = run_under_envs(
        tmp_path, config_text, names,
        [subprocess_env(), subprocess_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")],
    )
    assert default == pinned
    manifest = json.loads(default[-1])
    assert manifest["blas_threads"] == {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


def test_manifest_records_blas_threads_as_read_at_run_time(tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    cfg = parse_config(write_config(
        tmp_path, "scenario = entropy-sweep\nfamily = ecs\n"
        "param_start = 0.5\nparam_stop = 0.5\nparam_count = 1\ntheta = 0.4\n"))
    run_scenario(cfg, str(tmp_path / "out"))
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["blas_threads"] == {"OMP_NUM_THREADS": "3", "OPENBLAS_NUM_THREADS": None}
