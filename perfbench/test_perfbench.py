"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The smoke runs use tiny sizes, so their physics checks may fail; they check
that every metric named in BENCHMARK.json is emitted with its unit. The
check tests feed the figures measured at full size, then perturbed ones.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def bench(*args, cwd=REPO):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_with_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_workload_names_match_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOAD_NAMES
    assert set(WORKLOADS) == set(run.WORKLOAD_NAMES)


# figures measured at full size at the commit that introduced the benchmark
NOMINAL = {
    "quantum-corner": {"tau_e": 0.70847, "tau_e_ref": 0.70711, "tau_d": 17.991,
                       "tau_d_ref": 18.017, "trace_dev": 2e-15, "herm_defect": 1e-17},
    "transient-setup": {"n_end": 9.228598807300287, "x_end": 3.542755773933183,
                        "min_eig": -4.6e-13, "trace_dev": 2e-15, "herm_defect": 1e-17},
    "lab-oracles": {"exit_codes": [0, 0, 0, 0], "compare_rel": [1.2e-9, 1.5e-11],
                    "width_tau_e": 1.003, "trace_dev": 2e-15, "herm_defect": 1e-17},
}
PERTURBED = [
    ("quantum-corner", "tau_e", 1.12),
    ("quantum-corner", "tau_d", 0.75),
    ("quantum-corner", "trace_dev", 1e6),
    ("transient-setup", "n_end", 1.0 + 2e-4),
    ("transient-setup", "x_end", 1.0 - 2e-4),
    ("transient-setup", "min_eig", 1e8),
    ("lab-oracles", "width_tau_e", 1.06),
    ("lab-oracles", "herm_defect", 1e9),
]


@pytest.mark.parametrize("name", sorted(NOMINAL))
def test_nominal_figures_pass(name):
    assert WORKLOADS[name].failures(NOMINAL[name]) == []


@pytest.mark.parametrize("name,key,factor", PERTURBED)
def test_perturbed_figure_fails(name, key, factor):
    fig = dict(NOMINAL[name], **{key: NOMINAL[name][key] * factor})
    assert WORKLOADS[name].failures(fig)


def test_lab_oracles_exit_code_fails():
    fig = dict(NOMINAL["lab-oracles"], exit_codes=[0, 4, 0, 0])
    assert WORKLOADS["lab-oracles"].failures(fig)


def test_sweep_median_bound():
    ratios = [-0.115, 0.020, 0.019, 0.016, 0.003, 0.121, 0.173, 0.249, 0.126, -0.012,
              0.134, 0.134, -0.122, -0.110, 0.165, 0.014, 0.119, 0.011, 0.121, 0.177]
    sweep = WORKLOADS["sweep"]
    fom, fails = sweep.summarize([{"ln_ratio": r} for r in ratios])
    assert fom == pytest.approx(0.12, abs=0.01) and fails == []
    fom, fails = sweep.summarize([{"ln_ratio": 6.0 * r} for r in ratios])
    assert fom > math.log(2.0) and fails


def test_failed_runs_count_against_ok_frac():
    sets = [{"set_s": 2.0, "rss_mb": 60.0, "fom_dev": 0.1,
             "runs": [{"s": 1.0, "failures": []}, {"s": 1.0, "failures": ["tau_e"]}]}]
    metrics = run.end_to_end([0.5], sets)
    assert metrics["ok_frac"] == 0.5


def test_run_max_is_the_slowest_inputs_median():
    sets = [{"set_s": 1.0, "rss_mb": 60.0, "fom_dev": 0.1,
             "runs": [{"s": a, "failures": []}, {"s": b, "failures": []}]}
            for a, b in ((1.0, 3.0), (1.1, 3.2), (9.0, 3.1))]
    assert run.end_to_end([0.5], sets)["run_s.max"] == 3.1


def test_digest_mismatch_fails_later_sets():
    sets = [{"digest": d, "runs": [{"failures": []}]} for d in ("a", "a", "b")]
    run.mark_digest_mismatch(sets)
    assert [bool(s["runs"][0]["failures"]) for s in sets] == [False, False, True]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
