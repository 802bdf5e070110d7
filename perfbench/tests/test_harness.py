"""Workload generation, BENCHMARK.json consistency and the checkout guard."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from tomolens.scenarios import parse_config

import run
import workloads
from conftest import BENCH, ROOT
from tracer import layer_metrics

SIZE_KEYS = ("param_count", "theta_count", "time_count", "entropy_time_count", "phi_values",
             "scenario", "family", "input", "channel")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_and_sizes_never_depend_on_it(name, tmp_path):
    a = workloads.operations(name, 3)
    assert a == workloads.operations(name, 3)
    b = workloads.operations(name, 4)
    assert [n for n, _ in a] == [n for n, _ in b]
    for (_, ca), (_, cb) in zip(a, b):
        if ca is None:
            assert cb is None
            continue
        assert {k: ca.get(k) for k in SIZE_KEYS} == {k: cb.get(k) for k in SIZE_KEYS}
        path = tmp_path / "op.cfg"
        path.write_text(workloads.config_text(ca))
        assert parse_config(str(path)) == {k: str(v) for k, v in ca.items()}
    if name != "audit":
        assert a != b


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    reported = list(layer_metrics([], 1.0)) + ["trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == reported
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("kind", sorted(workloads.BS_ALPHAS))
def test_beamsplitter_inputs_share_one_output_truncation(kind):
    from tomolens.beamsplitter import BeamsplitterConfig, apply
    from tomolens.states import make_cat, make_coherent, make_pacs, make_product

    def mode_a(alpha):
        if kind == "pacs-vacuum":
            return make_pacs(alpha, 1)
        return make_cat(alpha, "even" if kind == "ecs-vacuum" else "odd")

    cuts = {
        (mode_a(a).n_cut,) + tuple(
            apply(BeamsplitterConfig(phi=phi), make_product(mode_a(a), make_coherent(0.0))).n_cut
            for phi in (0.0, 1.5707963267948966))
        for a in workloads.BS_ALPHAS[kind]
    }
    assert len(cuts) == 1, cuts
