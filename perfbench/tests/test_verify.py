"""Output verification: correct outputs pass, perturbed or missing ones fail."""

import os
import shutil

from tomolens.scenarios import AuditResult

import verify
import worker

OPS = [
    ("variance", {"scenario": "variance-sweep", "family": "yuen", "param_start": "0.1",
                  "param_stop": "0.3", "param_count": "3", "theta": "0.4"}),
    ("entropy", {"scenario": "entropy-sweep", "family": "squeezed-vacuum", "param_start": "0.2",
                 "param_stop": "0.4", "param_count": "3", "theta": "0.0"}),
    ("map", {"scenario": "tomogram", "family": "ecs", "alpha": "0.9", "theta_count": "7",
             "grid_points": "401", "output": "map.csv"}),
]


def _perturb(path, row, col, factor):
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")][1:]
    cells = lines[data[row]].rstrip("\n").split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[data[row]] = ",".join(cells) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _pass_with_copy(tmp_path):
    """One real pass plus a byte-identical copy of it as a second pass."""
    first = worker.run_pass(OPS, str(tmp_path / "pass000"))
    shutil.copytree(first["dir"], tmp_path / "pass001")
    second = dict(first, dir=str(tmp_path / "pass001"))
    return first, second


def test_correct_outputs_pass(tmp_path):
    first, second = _pass_with_copy(tmp_path)
    assert worker.verify_passes(OPS, [first, second]) == (6, [])


def test_perturbed_csv_counts_as_a_failed_op(tmp_path):
    first, second = _pass_with_copy(tmp_path)
    _perturb(os.path.join(second["dir"], "variance", "variance_sweep.csv"), 1, 2, 1.0 + 1e-5)
    attempted, failures = worker.verify_passes(OPS, [first, second])
    assert attempted == 6
    assert len(failures) == 1
    assert "pass001/variance" in failures[0] and "variance vs oracle" in failures[0]


def test_perturbed_entropy_and_map_fail(tmp_path):
    out = tmp_path / "pass000"
    worker.run_pass(OPS, str(out))
    _perturb(str(out / "entropy" / "entropy_sweep.csv"), 0, 2, 1.0 + 1e-6)
    assert any("entropy law" in f for f in verify.verify_scenario(OPS[1][1], str(out / "entropy")))
    _perturb(str(out / "map" / "map.csv"), 200, 3, 1.01)
    fails = verify.verify_scenario(OPS[2][1], str(out / "map"))
    assert any("normalization" in f for f in fails)


def test_missing_output_and_raising_op_fail(tmp_path):
    bad = [("broken", {"scenario": "variance-sweep", "family": "ecs", "param_start": "0.5",
                       "param_stop": "0.4", "param_count": "0"})]
    p = worker.run_pass(bad, str(tmp_path / "pass000"))
    attempted, failures = worker.verify_passes(bad, [p])
    assert attempted == 1 and len(failures) == 1 and "ConfigError" in failures[0]
    fails = verify.verify_scenario(OPS[0][1], str(tmp_path / "nowhere"))
    assert fails


def test_audit_verdict():
    ok = [AuditResult("normalization", "vacuum", True, "")]
    bad = ok + [AuditResult("pi-shift", "ecs", False, "max deviation=1e-3")]
    assert verify.verify_audit(ok) == []
    assert len(verify.verify_audit(bad)) == 1
    assert verify.verify_audit([]) != []
