"""End-to-end runs of the command-line interface.

main() is driven in-process with --out pointed at temp directories, so
every run is hermetic.  Outputs are written with sorted JSON keys and
repr floats, which lets the rerun tests compare files byte for byte.
"""

import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import vqekit as vk
from vqekit.cli import main

from conftest import CONFIGS

TWOSPIN = {
    "n_qubits": 2,
    "terms": [
        {"coeff": -1.0, "paulis": "XX"},
        {"coeff": -1.0, "paulis": "YY"},
        {"coeff": 1.0, "paulis": "ZZ"},
        {"coeff": 1.0, "paulis": "ZI"},
        {"coeff": 1.0, "paulis": "IZ"},
    ],
}

PAIR_1Q = {
    "initial": {
        "n_qubits": 1,
        "terms": [
            {"coeff": 0.5, "paulis": "I"},
            {"coeff": -0.5, "paulis": "Z"},
            {"coeff": 0.1, "paulis": "X"},
        ],
    },
    "problem": {
        "n_qubits": 1,
        "terms": [
            {"coeff": 0.5, "paulis": "I"},
            {"coeff": 0.5, "paulis": "Z"},
        ],
    },
}


def run_cli(*argv: str):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_config(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def read_rows(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ------------------------------------------------------------- estimate


@pytest.fixture(scope="module")
def estimate_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("estimate")
    code, out, err = run_cli(
        "estimate",
        "--config",
        str(CONFIGS / "twospin_estimate.json"),
        "--out",
        str(out_dir),
    )
    return code, out, err, out_dir


class TestEstimateCommand:
    def test_expected_preparation_lines(self, estimate_run):
        code, out, _, _ = estimate_run
        assert code == 0
        lines = out.splitlines()
        assert "plan singletons: 5 groups" in lines
        assert "plan paired: 3 groups" in lines
        assert "plan xx-yy-zz: 2 groups" in lines
        # The analytic costs on |01>: 10, 6, and 8 in units of 1/eps^2.
        assert "plan singletons: expected preparations 10/epsilon^2 = 1000" in lines
        assert "plan paired: expected preparations 6/epsilon^2 = 600" in lines
        assert "plan xx-yy-zz: expected preparations 8/epsilon^2 = 800" in lines

    def test_sampling_uses_cheapest_plan(self, estimate_run):
        _, out, _, out_dir = estimate_run
        m = re.search(
            r"sampled \(frequentist, plan paired\): value (\S+), "
            r"estimator variance (\S+), (\d+) preparations",
            out,
        )
        assert m is not None
        report = json.loads((out_dir / "report.json").read_text())
        assert float(m.group(1)) == report["value"]
        assert int(m.group(3)) == report["total_preparations"]

    def test_report_contents(self, estimate_run):
        _, _, _, out_dir = estimate_run
        report = json.loads((out_dir / "report.json").read_text())
        assert set(report) == {
            "value",
            "variance_of_estimator",
            "total_preparations",
            "mode",
            "groups",
            "plan",
            "epsilon",
            "seed",
            "truncated_terms",
        }
        assert report["mode"] == "frequentist"
        assert report["plan"] == "paired"
        assert report["seed"] == 3
        assert report["truncated_terms"] == 0
        # True mean on |01> is -1; eps = 0.1.
        assert abs(report["value"] + 1.0) < 0.1
        # Two stochastic groups at the shot floor plus one deterministic.
        assert report["total_preparations"] == 3000
        assert [g["indices"] for g in report["groups"]] == [[0], [1, 2], [3, 4]]

    def test_plan_txt_lists_every_plan(self, estimate_run):
        _, _, _, out_dir = estimate_run
        text = (out_dir / "plan.txt").read_text()
        assert "# plan singletons" in text
        assert "# plan paired" in text
        assert "# plan xx-yy-zz" in text
        assert "group 1: -1*XX  -1*YY  +1*ZZ" in text

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ("estimate", "--config", str(CONFIGS / "twospin_estimate.json"))
        a, b = tmp_path / "a", tmp_path / "b"
        code1, out1, _ = run_cli(*args, "--out", str(a))
        code2, out2, _ = run_cli(*args, "--out", str(b))
        assert code1 == code2 == 0
        assert out1 == out2
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "plan.txt").read_bytes() == (b / "plan.txt").read_bytes()

    def test_seed_override(self, estimate_run, tmp_path):
        _, _, _, base_dir = estimate_run
        code, _, _ = run_cli(
            "estimate",
            "--config",
            str(CONFIGS / "twospin_estimate.json"),
            "--seed",
            "5",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["seed"] == 5
        base = json.loads((base_dir / "report.json").read_text())
        assert report["value"] != base["value"]

    def test_exact_skips_sampling(self, tmp_path):
        code, out, _ = run_cli(
            "estimate",
            "--config",
            str(CONFIGS / "twospin_estimate.json"),
            "--exact",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert "sampled" not in out
        assert not (tmp_path / "report.json").exists()
        assert (tmp_path / "plan.txt").exists()

    def test_auto_grouping(self, tmp_path):
        cfg = write_config(
            tmp_path / "auto.json",
            {
                "hamiltonian": TWOSPIN,
                "state": {"label": "01"},
                "epsilon": 0.1,
                "seed": 3,
            },
        )
        code, out, _ = run_cli("estimate", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 0
        lines = out.splitlines()
        # Covariance-aware grouping on |01> splits XX off from YY+ZZ.
        assert "plan auto: 3 groups" in lines
        assert "plan auto: expected preparations 6/epsilon^2 = 600" in lines
        assert "sampled (frequentist, plan auto)" in out

    def test_bayesian_mode(self, tmp_path):
        cfg = write_config(
            tmp_path / "bayes.json",
            {
                "hamiltonian": TWOSPIN,
                "state": {"label": "01"},
                "epsilon": 0.1,
                "mode": "bayesian",
                "seed": 3,
            },
        )
        code, out, _ = run_cli("estimate", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 0
        assert "sampled (bayesian, plan auto)" in out
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["mode"] == "bayesian"
        assert abs(report["value"] + 1.0) < 0.2

    @pytest.mark.parametrize("mode, price", [
        ("frequentist", "0/epsilon^2 = 0"),
        ("bayesian", "0.000282843/epsilon^2 = 28284.3"),
    ])
    def test_printed_price_is_the_enforced_one(self, tmp_path, mode, price):
        # ZZ + ZI + IZ at |01> is one group of variance 0 and mean -1: the
        # Bayesian prior alone draws about sqrt(2 * 3 + 2 * 1) / eps shots.
        cfg = write_config(
            tmp_path / "zz.json",
            {
                "hamiltonian": {"n_qubits": 2, "terms": TWOSPIN["terms"][2:]},
                "state": {"label": "01"},
                "epsilon": 1e-4,
                "mode": mode,
                "plans": [{"name": "one", "groups": [[0, 1, 2]]}],
                "seed": 3,
            },
        )
        code, out, _ = run_cli("estimate", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 0
        assert f"plan one: expected preparations {price}" in out.splitlines()
        preps = json.loads((tmp_path / "o" / "report.json").read_text())["total_preparations"]
        assert preps == (1000 if mode == "frequentist" else 28300)

    def test_identity_only_sum_costs_nothing(self, tmp_path):
        cfg = write_config(
            tmp_path / "id.json",
            {
                "hamiltonian": {
                    "n_qubits": 1,
                    "terms": [{"coeff": 1.5, "paulis": "I"}],
                },
                "state": {"label": "0"},
                "epsilon": 0.1,
                "seed": 1,
            },
        )
        code, out, _ = run_cli("estimate", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 0
        assert "plan auto: expected preparations 0/epsilon^2 = 0" in out
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["value"] == 1.5
        assert report["total_preparations"] == 0

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_epsilon_fails_closed(self, tmp_path, eps):
        cfg = write_config(
            tmp_path / "bad.json",
            {"hamiltonian": TWOSPIN, "state": {"label": "01"}, "epsilon": eps, "seed": 1},
        )
        code, _, err = run_cli("estimate", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 1
        assert err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    def test_plan_must_cover_terms(self, tmp_path):
        cfg = write_config(
            tmp_path / "bad.json",
            {
                "hamiltonian": TWOSPIN,
                "state": {"label": "01"},
                "plans": [{"name": "partial", "groups": [[0], [1, 2]]}],
                "seed": 1,
            },
        )
        code, _, err = run_cli("estimate", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 1
        assert err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    def test_truncation_leaves_sampling_the_rest_of_the_budget(self, tmp_path):
        # Truncation spends at most C*eps on bias, so sampling must stay
        # under (1 - C^2) eps^2 for the total to stay under eps^2.
        h = {
            "n_qubits": 2,
            "terms": [
                {"coeff": -1.0, "paulis": "XX"},
                {"coeff": -1.0, "paulis": "YY"},
                {"coeff": 1.0, "paulis": "ZZ"},
                {"coeff": 0.005, "paulis": "ZI"},
                {"coeff": 0.005, "paulis": "IZ"},
            ],
        }
        plus = {"amplitudes": [[0.5, 0.0]] * 4}
        eps, c = 0.02, 0.5
        cfg = write_config(
            tmp_path / "c.json",
            {"hamiltonian": h, "state": plus, "epsilon": eps, "truncation": c, "seed": 3},
        )
        code, out, _ = run_cli("estimate", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["truncated_terms"] == 1
        assert report["epsilon"] == eps
        assert report["variance_of_estimator"] <= (1.0 - c * c) * eps * eps
        # The cost line stays in units of the requested 1/eps^2.
        assert "plan auto: expected preparations 5.3334/epsilon^2 = 13333.5" in out


# ------------------------------------------------------------------ vqe


@pytest.fixture(scope="module")
def h2_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("h2_vqe")
    code, out, err = run_cli(
        "vqe", "--config", str(CONFIGS / "h2_vqe.json"), "--out", str(out_dir)
    )
    return code, out, err, out_dir


class TestVqeCommand:
    def test_converges_to_exact_ground_energy(self, h2_run, h2_exact):
        code, out, _, out_dir = h2_run
        assert code == 0
        result = json.loads((out_dir / "result.json").read_text())
        assert result["converged"] is True
        assert abs(result["final_energy"] - h2_exact[0][0]) < 1e-9
        m = re.search(r"final energy (\S+) after (\d+) evaluations", out)
        assert m is not None
        assert float(m.group(1)) == result["final_energy"]
        assert int(m.group(2)) == result["evaluations"]

    def test_result_layout(self, h2_run):
        _, _, _, out_dir = h2_run
        result = json.loads((out_dir / "result.json").read_text())
        assert set(result) == {
            "final_energy",
            "parameters",
            "evaluations",
            "converged",
            "mode",
            "epsilon",
            "seed",
            "total_preparations",
            "certificates",
        }
        assert result["mode"] == "exact"
        assert result["seed"] == 11
        assert result["total_preparations"] == 0
        certs = result["certificates"]
        lo, hi = certs["weinstein"]
        assert lo <= result["final_energy"] <= hi
        # Converged state has near-zero variance, so the overlap bound
        # under the configured gap is essentially one.
        assert certs["ground_overlap"] > 0.99

    def test_trace_matches_result(self, h2_run):
        _, _, _, out_dir = h2_run
        result = json.loads((out_dir / "result.json").read_text())
        header, rows = read_rows(out_dir / "trace.csv")
        assert header == ["evaluation", "value"]
        assert len(rows) == result["evaluations"]
        assert [int(r[0]) for r in rows] == list(range(len(rows)))
        assert min(float(r[1]) for r in rows) == result["final_energy"]

    def test_rerun_is_byte_identical(self, h2_run, tmp_path):
        _, out1, _, first = h2_run
        code, out2, _ = run_cli(
            "vqe", "--config", str(CONFIGS / "h2_vqe.json"), "--out", str(tmp_path)
        )
        assert code == 0
        assert out2 == out1
        for name in ("result.json", "trace.csv"):
            assert (tmp_path / name).read_bytes() == (first / name).read_bytes()

    def test_budget_exhausted_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path / "short.json",
            {
                "problem": {"hamiltonian": TWOSPIN},
                "ansatz": {
                    "kind": "spin_cluster",
                    "order": 1,
                    "reference": {"label": "01"},
                },
                "optimizer": {"tol": 1e-15, "max_evals": 8},
                "seed": 1,
            },
        )
        code, out, _ = run_cli("vqe", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2
        assert "final energy" in out
        result = json.loads((tmp_path / "o" / "result.json").read_text())
        assert result["converged"] is False
        assert result["evaluations"] <= 8

    def test_sampled_mode_accumulates_preparations(self, tmp_path):
        cfg = write_config(
            tmp_path / "sampled.json",
            {
                "problem": {"hamiltonian": TWOSPIN},
                "ansatz": {
                    "kind": "spin_cluster",
                    "order": 1,
                    "reference": {"label": "01"},
                },
                "estimator": {"mode": "frequentist", "epsilon": 0.3},
                "optimizer": {"tol": 1e-3, "max_evals": 12},
                "seed": 4,
            },
        )
        code, _, _ = run_cli("vqe", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code in (0, 2)
        result = json.loads((tmp_path / "o" / "result.json").read_text())
        assert result["mode"] == "frequentist"
        assert result["total_preparations"] >= result["evaluations"] * 1000
        # Certificates come from the exact final state, not the samples.
        assert result["certificates"]["variance"] >= 0.0

    def test_unknown_ansatz_kind(self, tmp_path):
        cfg = write_config(
            tmp_path / "bad.json",
            {
                "problem": {"hamiltonian": TWOSPIN},
                "ansatz": {"kind": "magic"},
                "seed": 1,
            },
        )
        code, _, err = run_cli("vqe", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 1
        assert "unknown kind 'magic'" in err

    def test_problem_needs_exactly_one_source(self, tmp_path):
        cfg = write_config(
            tmp_path / "bad.json",
            {
                "problem": {"hamiltonian": TWOSPIN, "integrals": "x.ints"},
                "ansatz": {"kind": "spin_cluster", "reference": {"label": "01"}},
                "seed": 1,
            },
        )
        code, _, err = run_cli("vqe", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 1
        assert "exactly one of integrals or hamiltonian" in err


# ------------------------------------------------------------ adiabatic


@pytest.fixture(scope="module")
def adiabatic_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("adiabatic")
    code, out, err = run_cli(
        "adiabatic",
        "--config",
        str(CONFIGS / "adiabatic_1q.json"),
        "--out",
        str(out_dir),
    )
    return code, out, err, out_dir


class TestAdiabaticCommand:
    def test_gap_line_matches_closed_form(self, adiabatic_run):
        code, out, _, _ = adiabatic_run
        assert code == 0
        m = re.search(r"minimum spectral gap (\S+) at A=(\S+)", out)
        assert m is not None
        gap, a = float(m.group(1)), float(m.group(2))
        assert abs(a - 0.495) < 1e-12
        assert abs(gap - 2.0 * math.sqrt((a - 0.5) ** 2 + 0.01 * a * a)) < 1e-12

    def test_spectrum_csv(self, adiabatic_run):
        _, _, _, out_dir = adiabatic_run
        header, rows = read_rows(out_dir / "spectrum.csv")
        assert header == ["A", "level_0", "level_1"]
        assert len(rows) == 1001
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == 1.0
        # A=0 is the problem end with exact levels {0, 1}; A=1 is the
        # initial Hamiltonian, whose X term pushes the levels apart.
        assert abs(float(rows[0][1]) - 0.0) < 1e-12
        assert abs(float(rows[0][2]) - 1.0) < 1e-12
        half_split = 0.5 * math.sqrt(1.04)
        assert abs(float(rows[-1][1]) - (0.5 - half_split)) < 1e-12
        assert abs(float(rows[-1][2]) - (0.5 + half_split)) < 1e-12

    def test_path_csv(self, adiabatic_run):
        _, _, _, out_dir = adiabatic_run
        header, rows = read_rows(out_dir / "path.csv")
        assert header == ["tau", "family", "t", "g"]
        assert len(rows) == 4 * 2 * 201
        families = {r[1] for r in rows}
        assert families == {"linear", "spline"}
        for row in rows:
            assert 0.0 <= float(row[3]) <= 1.0

    def test_trajectory_csv(self, adiabatic_run):
        _, _, _, out_dir = adiabatic_run
        header, rows = read_rows(out_dir / "trajectory.csv")
        assert header == ["tau", "family", "s", "overlap"]
        for row in rows:
            assert 0.0 <= float(row[3]) <= 1.0 + 1e-12

    def test_success_csv_optimized_beats_linear(self, adiabatic_run):
        _, out, _, out_dir = adiabatic_run
        header, rows = read_rows(out_dir / "success.csv")
        assert header == ["tau", "linear_success", "optimized_success", "optimized_params"]
        assert [float(r[0]) for r in rows] == [5.0, 10.0, 20.0, 40.0]
        linear = [float(r[1]) for r in rows]
        optimized = [float(r[2]) for r in rows]
        assert linear == sorted(linear)
        for lin, opt in zip(linear, optimized):
            assert opt >= lin - 1e-12
        for row in rows:
            assert f"tau {float(row[0])!r}: linear success" in out

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path / "small.json",
            {
                "initial_hamiltonian": PAIR_1Q["initial"],
                "problem_hamiltonian": PAIR_1Q["problem"],
                "taus": [5.0],
                "family": "spline",
                "a_grid": {"points": 101},
                "seed": 9,
            },
        )
        a, b = tmp_path / "a", tmp_path / "b"
        code1, out1, _ = run_cli("adiabatic", "--config", cfg, "--out", str(a))
        code2, out2, _ = run_cli("adiabatic", "--config", cfg, "--out", str(b))
        assert code1 == code2 == 0
        assert out1 == out2
        for name in ("spectrum.csv", "path.csv", "trajectory.csv", "success.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_empty_taus_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "bad.json",
            {
                "initial_hamiltonian": PAIR_1Q["initial"],
                "problem_hamiltonian": PAIR_1Q["problem"],
                "taus": [],
                "seed": 1,
            },
        )
        code, _, err = run_cli("adiabatic", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 1
        assert "taus must be nonempty" in err


# -------------------------------------------------------------- certify


class TestCertifyCommand:
    def test_shipped_config(self, tmp_path):
        code, out, _ = run_cli(
            "certify",
            "--config",
            str(CONFIGS / "certify.json"),
            "--out",
            str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "certificates.json").read_text())
        assert report["mean"] == -2.8
        assert report["variance"] == 0.36
        lo, hi = report["weinstein"]
        assert abs(lo + 3.4) < 1e-12 and abs(hi + 2.2) < 1e-12
        assert abs(report["ground_overlap"] - 0.7) < 1e-10
        assert abs(report["excited_overlap"] - 0.9467455621301775) < 1e-12
        assert abs(report["delos_blinder"] + 3.07) < 1e-12
        assert abs(report["delos_blinder_sqrt"] + 3.25) < 1e-12
        assert "(premise-dependent)" in out
        assert "(variance form)" in out
        assert "(deviation form)" in out

    def test_moments_from_state(self, tmp_path):
        amps = [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.8]]
        cfg = write_config(
            tmp_path / "derived.json",
            {"hamiltonian": TWOSPIN, "state": {"amplitudes": amps}},
        )
        code, _, _ = run_cli("certify", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 0
        report = json.loads((tmp_path / "o" / "certificates.json").read_text())
        state = vk.StateVector(np.array([0.6, 0.0, 0.0, 0.8j]))
        mean, var = vk.expectation_and_variance(state, vk.PauliSum.from_json_dict(TWOSPIN))
        assert abs(report["mean"] - mean) < 1e-12
        assert abs(report["variance"] - var) < 1e-12
        assert set(report) == {"mean", "variance", "weinstein"}

    def test_inapplicable_ground_bound_is_reported(self, tmp_path):
        cfg = write_config(
            tmp_path / "wide.json",
            {"mean": -1.0, "variance": 4.0, "gap": 0.5},
        )
        code, out, _ = run_cli("certify", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 0
        report = json.loads((tmp_path / "o" / "certificates.json").read_text())
        assert report["ground_overlap"] is None
        assert report["ground_overlap_note"]
        # gamma = (0.5 + 2)^2 = 6.25, so the premise-dependent bound
        # 1 - 4/6.25 survives even when the ground bound does not.
        assert abs(report["excited_overlap"] - 0.36) < 1e-12
        assert "ground overlap bound inapplicable" in out

    def test_direct_and_derived_are_exclusive(self, tmp_path):
        cfg = write_config(
            tmp_path / "both.json",
            {"mean": -2.8, "variance": 0.36, "hamiltonian": TWOSPIN},
        )
        code, _, err = run_cli("certify", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 1
        assert "not both" in err

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ("certify", "--config", str(CONFIGS / "certify.json"))
        a, b = tmp_path / "a", tmp_path / "b"
        code1, out1, _ = run_cli(*args, "--out", str(a))
        code2, out2, _ = run_cli(*args, "--out", str(b))
        assert code1 == code2 == 0
        assert out1 == out2
        assert (a / "certificates.json").read_bytes() == (
            b / "certificates.json"
        ).read_bytes()


# ----------------------------------------------- errors and resolution


class TestErrorHandling:
    def test_missing_config_file(self, tmp_path):
        out = tmp_path / "o"
        code, _, err = run_cli(
            "vqe", "--config", str(tmp_path / "nope.json"), "--out", str(out)
        )
        assert code == 1
        assert err.startswith("error: ")
        assert not out.exists()

    def test_invalid_json(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli("certify", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error: ")

    def test_missing_input_leaves_no_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"hamiltonian": "absent.json", "state": {"label": "01"}, "seed": 1},
        )
        out = tmp_path / "o"
        code, _, err = run_cli("estimate", "--config", cfg, "--out", str(out))
        assert code == 1
        assert err.startswith("error: ")
        assert not out.exists()

    def test_unknown_keys_fail_closed(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"mean": -2.8, "variance": 0.36, "frobnicate": 1},
        )
        code, _, err = run_cli("certify", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 1
        assert "unknown keys ['frobnicate']" in err

    def test_seed_is_required(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"hamiltonian": TWOSPIN, "state": {"label": "01"}},
        )
        code, _, err = run_cli("estimate", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 1
        assert "missing keys ['seed']" in err

    def test_state_needs_exactly_one_form(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "hamiltonian": TWOSPIN,
                "state": {"label": "01", "amplitudes": [[1.0, 0.0]]},
                "seed": 1,
            },
        )
        code, _, err = run_cli("estimate", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 1
        assert "exactly one of label or amplitudes" in err

    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            with redirect_stderr(io.StringIO()):
                main([])


ADIABATIC_SMALL = {
    "initial_hamiltonian": PAIR_1Q["initial"],
    "problem_hamiltonian": PAIR_1Q["problem"],
    "taus": [5.0],
    "a_grid": {"points": 11},
    "seed": 1,
}
UCC_2Q = {
    "problem": {"hamiltonian": TWOSPIN},
    "ansatz": {"kind": "fermionic_ucc", "occupied": [0]},
    "seed": 1,
}


class TestFailClosed:
    """Bad values exit 1 with one error line and write nothing."""

    @pytest.mark.parametrize(
        "command, cfg, message",
        [
            (
                "adiabatic",
                {**ADIABATIC_SMALL, "a_grid": {"points": 0}},
                "a_grid.points: expected an integer >= 1",
            ),
            ("adiabatic", {**ADIABATIC_SMALL, "taus": 5}, "taus: expected a list"),
            ("adiabatic", {**ADIABATIC_SMALL, "taus": [5.0, -1.0]}, "taus must be positive"),
            (
                "vqe",
                {**UCC_2Q, "ansatz": {"kind": "fermionic_ucc", "occupied": "01"}},
                "ansatz.occupied: expected a list",
            ),
            (
                "vqe",
                {**UCC_2Q, "ansatz": {"kind": "fermionic_ucc", "occupied": ["0"]}},
                "ansatz.occupied[0]: expected an integer",
            ),
            ("vqe", {**UCC_2Q, "gap": float("nan")}, "gap: expected a finite number"),
            ("certify", {"mean": float("inf"), "variance": 0.36}, "mean: expected a finite number"),
            ("certify", {"mean": -2.8, "variance": "0.36"}, "variance: expected a finite number"),
            (
                "estimate",
                {"hamiltonian": TWOSPIN, "state": {"label": "01"}, "plans": 5, "seed": 1},
                "plans: expected a list",
            ),
            (
                "estimate",
                {"hamiltonian": TWOSPIN, "state": {"amplitudes": 5}, "seed": 1},
                "state.amplitudes: expected a list",
            ),
            (
                "estimate",
                {"hamiltonian": {"n_qubits": 2, "terms": 5}, "state": {"label": "01"}, "seed": 1},
                "terms must be a list",
            ),
            (
                "estimate",
                {"hamiltonian": TWOSPIN, "state": {"label": "01"}, "seed": 1.5},
                "seed: expected an integer",
            ),
            (
                "vqe",
                {**UCC_2Q, "problem": {"integrals": 5}},
                "problem.integrals: expected a string, got 5",
            ),
            (
                "certify",
                {"hamiltonian": {"n_qubits": 2, "terms": [{"paulis": "XX"}]}, "state": {"label": "01"}},
                "term 0: missing keys ['coeff']",
            ),
            (
                "estimate",
                {"hamiltonian": {"n_qubits": 2, "terms": [{"coeff": 1.0}]}, "state": {"label": "01"}, "seed": 1},
                "term 0: missing keys ['paulis']",
            ),
            # int(label, 2) alone accepts a sign and spaces: "+1" reads as |01>.
            *(
                (
                    "vqe",
                    {**UCC_2Q, "ansatz": {"kind": "spin_cluster", "reference": {"label": label}}},
                    "ansatz.reference.label: expected only 0 and 1",
                )
                for label in ("+1", "-0", " 1")
            ),
            (
                "adiabatic",
                {**ADIABATIC_SMALL, "taus": [1e308]},
                "too large for a default step count",
            ),
            # Exact mode samples nothing, but epsilon and C are still checked.
            (
                "vqe",
                {**UCC_2Q, "estimator": {"mode": "exact", "epsilon": -1.0}},
                "epsilon must be finite and positive",
            ),
            (
                "vqe",
                {**UCC_2Q, "estimator": {"mode": "exact", "truncation": 1.0}},
                "C must lie in [0, 1)",
            ),
            # An empty grid aborts the run.
            (
                "estimate",
                {"hamiltonian": TWOSPIN, "state": {"label": "01"}, "plans": [], "seed": 1},
                "plans: expected at least one plan",
            ),
            # A tiny epsilon means an effectively unbounded sampled run.
            (
                "estimate",
                {"hamiltonian": TWOSPIN, "state": {"label": "01"}, "epsilon": 1e-9, "seed": 1},
                "the plan expects 6e+18 preparations, over the limit of 1e+09",
            ),
            (
                "vqe",
                {**UCC_2Q, "estimator": {"mode": "frequentist", "epsilon": 1e-9}},
                "the plan expects 6e+18 preparations, over the limit of 1e+09",
            ),
            # The reference |00> of a diagonal sum has zero variance, so the
            # first evaluation passes the cap; this run used not to end.
            (
                "vqe",
                {
                    "problem": {
                        "hamiltonian": {
                            "n_qubits": 2,
                            "terms": [
                                {"coeff": 1.0, "paulis": "ZI"},
                                {"coeff": 0.5, "paulis": "IZ"},
                                {"coeff": 0.3, "paulis": "ZZ"},
                            ],
                        }
                    },
                    "ansatz": {"kind": "spin_cluster", "reference": {"label": "00"}},
                    "estimator": {"mode": "frequentist", "epsilon": 1e-9},
                    "seed": 1,
                },
                "the plan expects 6.3787e+15 preparations, over the limit of 1e+09",
            ),
        ],
    )
    def test_bad_value(self, tmp_path, command, cfg, message):
        path = write_config(tmp_path / "bad.json", cfg)
        out = tmp_path / "o"
        code, stdout, err = run_cli(command, "--config", path, "--out", str(out))
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err and stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, cfg, message",
        [
            (
                "estimate",
                {"hamiltonian": TWOSPIN, "state": {"label": "01"}, "mode": "mle", "seed": 1},
                "unknown mode 'mle'",
            ),
            (
                "vqe",
                {**UCC_2Q, "estimator": {"mode": "exact", "grouping": "bogus"}},
                "unknown grouping 'bogus'",
            ),
            (
                "vqe",
                {**UCC_2Q, "estimator": {"mode": "frequentist", "epsilon": -1.0}},
                "epsilon must be finite and positive",
            ),
        ],
    )
    def test_settings_unused_under_exact_are_still_checked(self, tmp_path, command, cfg, message):
        path = write_config(tmp_path / "bad.json", cfg)
        out = tmp_path / "o"
        code, _, err = run_cli(command, "--config", path, "--exact", "--out", str(out))
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "body, message",
        [
            # A NaN core used to be dropped: the run wrote a shifted energy.
            ("M 2 CORE nan\n-0.5 1 1 0 0\n-0.5 2 2 0 0\n", "h.ints:1: core must be finite"),
            # inf - inf is NaN, which passed the symmetry check.
            ("M 2 CORE 0.0\ninf 1 1 0 0\n-0.5 2 2 0 0\n", "h.ints:2: value must be finite"),
            # h_pqrs = h_qpsr but not h_srqp: this loaded, and the run failed
            # at its first energy with a message that did not name the file.
            (
                "M 3 CORE 0.0\n-1.0 1 1 0 0\n1.0 1 2 2 3\n1.0 2 1 3 2\n",
                "h.ints: two-body integrals are not Hermitian",
            ),
        ],
    )
    def test_non_finite_integrals(self, tmp_path, body, message):
        (tmp_path / "h.ints").write_text(body)
        cfg = {**UCC_2Q, "problem": {"integrals": "h.ints"}}
        path = write_config(tmp_path / "bad.json", cfg)
        out = tmp_path / "o"
        code, stdout, err = run_cli("vqe", "--config", path, "--out", str(out))
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err and stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("steps", [1, 9_999])
    def test_overlong_annealing_steps(self, tmp_path, steps):
        # At 4 qubits the series splits a step into ceil(dt*||H|| / 4)
        # substeps of 22-28 us each; tau = 1e7 in one step ran for minutes.
        # Here ||H|| <= 4, so fewer than 10_000 steps over 1000 substeps each.
        def sum_of(letter, coeffs):
            terms = [
                {"coeff": c, "paulis": "".join(letter if j == i else "I" for j in range(4))}
                for i, c in enumerate(coeffs)
            ]
            return {"n_qubits": 4, "terms": terms}

        cfg = {
            **ADIABATIC_SMALL,
            "initial_hamiltonian": sum_of("X", [-1.0] * 4),
            "problem_hamiltonian": sum_of("Z", [0.4, 0.3, 0.2, 0.1]),
            "taus": [5.0, 1e7],
            "steps": steps,
        }
        path = write_config(tmp_path / "bad.json", cfg)
        out = tmp_path / "o"
        code, stdout, err = run_cli("adiabatic", "--config", path, "--out", str(out))
        assert code == 1
        assert err.startswith("error: ") and "tau 10000000.0 in" in err
        assert "series substeps per step" in err
        assert "Traceback" not in err and stdout == ""
        assert not out.exists()

    def test_non_finite_result_writes_nothing(self, tmp_path, monkeypatch):
        # A certificate that comes out non-finite is an error, not an
        # Infinity token in certificates.json.
        monkeypatch.setattr(
            "vqekit.bounds.weinstein_interval", lambda b: (-math.inf, math.inf)
        )
        path = write_config(tmp_path / "c.json", {"mean": -2.8, "variance": 0.36})
        out = tmp_path / "o"
        code, _, err = run_cli("certify", "--config", path, "--out", str(out))
        assert code == 1
        assert err.startswith("error: ")
        assert not out.exists()

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
        )
        proc = subprocess.run(
            [sys.executable, "-m", "vqekit", "certify", "--config",
             str(CONFIGS / "certify.json"), "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "weinstein interval" in proc.stdout
        report = json.loads((tmp_path / "certificates.json").read_text())
        assert report["mean"] == -2.8


SPIN_2Q = {
    "problem": {"hamiltonian": TWOSPIN},
    "ansatz": {"kind": "spin_cluster", "order": 1, "reference": {"label": "01"}},
    "optimizer": {"max_evals": 20},
    "seed": 1,
}
OUTPUT_FILES = {
    "vqe": ("result.json", "trace.csv"),
    "adiabatic": ("spectrum.csv", "path.csv", "trajectory.csv", "success.csv"),
}


class TestDocumentedKeys:
    """Each README key that no other CLI test sets: its exit code, files
    that parse, and a rerun that gives the same bytes."""

    @staticmethod
    def run_twice(tmp_path, command, cfg):
        path = write_config(tmp_path / "c.json", cfg)
        a, b = tmp_path / "a", tmp_path / "b"
        code, out, err = run_cli(command, "--config", path, "--out", str(a))
        assert run_cli(command, "--config", path, "--out", str(b)) == (code, out, err)
        assert sorted(p.name for p in a.iterdir()) == sorted(OUTPUT_FILES[command])
        for name in OUTPUT_FILES[command]:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
            if name.endswith(".json"):
                json.loads((a / name).read_text())
            else:
                assert read_rows(a / name)[1]
        return code, out, a

    def test_multistart(self, tmp_path):
        optimizer = {"method": "multistart", "bounds": [[-1.0, 1.0]], "n_starts": 2, "max_evals": 10}
        code, _, a = self.run_twice(tmp_path, "vqe", {**UCC_2Q, "optimizer": optimizer})
        assert code == 2  # each start spends its 10 evaluations
        result = json.loads((a / "result.json").read_text())
        assert (len(result["parameters"]), result["evaluations"]) == (1, 20)

    @pytest.mark.parametrize(
        "ansatz, n_params",
        [
            ({"kind": "spin_cluster", "relaxed": True, "trotter_slices": 2}, 12),
            ({"kind": "suquca"}, 4),
        ],
    )
    def test_ansatz_keys(self, tmp_path, ansatz, n_params):
        cfg = {**SPIN_2Q, "ansatz": {**SPIN_2Q["ansatz"], **ansatz}}
        code, _, a = self.run_twice(tmp_path, "vqe", cfg)
        assert code == 2
        result = json.loads((a / "result.json").read_text())
        assert len(result["parameters"]) == n_params
        assert result["evaluations"] == 20

    @pytest.mark.parametrize(
        "keys, family, n_params",
        [
            ({"objective": "infidelity"}, "spline", 2),
            ({"family": "bang_bang", "n_switches": 3}, "bang_bang", 3),
        ],
    )
    def test_adiabatic_keys(self, tmp_path, keys, family, n_params):
        code, out, a = self.run_twice(tmp_path, "adiabatic", {**ADIABATIC_SMALL, **keys})
        assert code == 0
        assert f"optimized ({family})" in out
        header, rows = read_rows(a / "success.csv")
        params = rows[0][header.index("optimized_params")].split()
        assert len([float(v) for v in params]) == n_params
        assert {row[1] for row in read_rows(a / "path.csv")[1]} == {"linear", family}

    @pytest.mark.parametrize(
        "command, cfg, message",
        [
            (
                "vqe",
                {**UCC_2Q, "optimizer": {"method": "multistart"}},
                "optimizer: multistart needs bounds",
            ),
            (
                "vqe",
                {**UCC_2Q, "optimizer": {"method": "multistart", "bounds": [[-1.0, 0.0, 1.0]]}},
                "optimizer.bounds[0]: expected a [lo, hi] pair",
            ),
            (
                "vqe",
                {**SPIN_2Q, "ansatz": {**SPIN_2Q["ansatz"], "relaxed": "yes"}},
                "ansatz.relaxed: expected true or false, got 'yes'",
            ),
            ("adiabatic", {**ADIABATIC_SMALL, "family": "cubic"}, "unknown schedule family 'cubic'"),
            ("adiabatic", {**ADIABATIC_SMALL, "objective": "bogus"}, "unknown objective 'bogus'"),
        ],
    )
    def test_bad_value(self, tmp_path, command, cfg, message):
        path = write_config(tmp_path / "bad.json", cfg)
        out = tmp_path / "o"
        code, stdout, err = run_cli(command, "--config", path, "--out", str(out))
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err and stdout == ""
        assert not out.exists()


GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden"


class TestGoldenOutputs:
    """Seeded runs whose files and stdout must not change by one byte.

    Both commands use only Philox draws, exact sums and Python floats, so
    their bytes do not depend on the BLAS or LAPACK build.
    """

    @pytest.mark.parametrize(
        "command, config",
        [("certify", "certify.json"), ("estimate", "twospin_estimate.json")],
    )
    def test_matches_golden(self, tmp_path, command, config):
        code, out, err = run_cli(
            command, "--config", str(CONFIGS / config), "--out", str(tmp_path)
        )
        assert code == 0, err
        want = GOLDEN / command
        assert out.encode("utf-8") == (want / "stdout.txt").read_bytes()
        names = sorted(p.name for p in want.iterdir() if p.name != "stdout.txt")
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        for name in names:
            assert (tmp_path / name).read_bytes() == (want / name).read_bytes(), name


class TestOutputResolution:
    def test_config_output_dir_is_relative_to_config(self, tmp_path):
        cfgdir = tmp_path / "nested"
        cfgdir.mkdir()
        cfg = write_config(
            cfgdir / "c.json",
            {"mean": -2.8, "variance": 0.36, "output_dir": "results"},
        )
        code, _, _ = run_cli("certify", "--config", cfg)
        assert code == 0
        assert (cfgdir / "results" / "certificates.json").exists()

    def test_out_override_wins(self, tmp_path):
        cfgdir = tmp_path / "nested"
        cfgdir.mkdir()
        cfg = write_config(
            cfgdir / "c.json",
            {"mean": -2.8, "variance": 0.36, "output_dir": "results"},
        )
        override = tmp_path / "elsewhere"
        code, _, _ = run_cli("certify", "--config", cfg, "--out", str(override))
        assert code == 0
        assert (override / "certificates.json").exists()
        assert not (cfgdir / "results").exists()

    def test_relative_out_is_relative_to_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"mean": -2.8, "variance": 0.36})
        code, _, _ = run_cli("certify", "--config", cfg, "--out", "sub")
        assert code == 0
        assert (tmp_path / "sub" / "certificates.json").exists()
