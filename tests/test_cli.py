import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tomolens
from tomolens.cli import main
from tomolens.errors import ConfigError
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


def test_cli_exit_codes(tmp_path):
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


def test_audit_cli_exit_code_on_failure():
    assert main(["audit", "--n-cut", "4"]) == 3


def test_beamsplitter_sweep_is_byte_identical_across_scenario_threads(tmp_path):
    # One point per phi, so TOMOLENS_THREADS=2 runs the two points on two
    # pool workers at once.  BLAS threading can move last digits, so it is
    # pinned to one thread in both runs; only the scenario pool varies.
    path = write_config(
        tmp_path,
        "scenario = beamsplitter-sweep\ninput = ecs-vacuum\n"
        "param_start = 0.56\nparam_stop = 0.56\nparam_count = 1\n"
        "phi_values = 0.0,1.5707963267948966\ntheta = 0.7\n",
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(tomolens.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, TOMOLENS_THREADS=threads, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", PYTHONPATH=src)
        out = tmp_path / f"threads-{threads}"
        subprocess.run([sys.executable, "-m", "tomolens.cli", "run", path, "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outputs.append((out / "beamsplitter_sweep.csv").read_bytes())
    assert outputs[0].count(b"\n") == 5
    assert outputs[0] == outputs[1]
