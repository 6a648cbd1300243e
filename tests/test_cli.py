"""Command-line surface: flags, files, exit codes, determinism."""

import csv
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from dtr_adhere import cli
from dtr_adhere.cli import load_analysis_config, main, write_dataset_csv
from dtr_adhere.gest import groups, passes, psi_flat
from dtr_adhere.inference import regime_sandwich
from dtr_adhere.model import MODE_USE_EXPECTED, MODE_USE_PROXY, Dataset
from dtr_adhere.simulation import generate_s1, generate_s4, scenario_plan

from row_copy import scale_covariates


def run_cli(*args):
    return main([str(a) for a in args])


def read_bytes(path):
    return Path(path).read_bytes()


class TestSimulate:
    def test_smoke_run_writes_outputs(self, tmp_path, capsys):
        # a fitted adherence model cannot survive five validation rows, so the
        # tiny smoke run sticks to the estimators with no adherence fit
        out = tmp_path / "out"
        code = run_cli(
            "simulate", "--scenario", "s1", "--n", "10", "--reps", "1",
            "--validation", "0.5", "--seed", "1", "--out", out,
            "--estimators", "modified-known,naive-proxy",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"] == "s1"
        assert set(summary["estimators"]) == {"modified-known", "naive-proxy"}
        rows = list(csv.reader((out / "estimates.csv").read_text().splitlines()))
        assert rows[0] == ["replicate", "estimator", "stage", "parameter", "value"]
        assert len(rows) == 1 + 1 * 2 * 5  # reps x estimators x parameters
        config = json.loads((out / "config.json").read_text())
        assert config["seed"] == 1

    def test_estimation_failure_exits_3(self, tmp_path, capsys):
        out = tmp_path / "fail"
        code = run_cli(
            "simulate", "--scenario", "s1", "--n", "10", "--reps", "1",
            "--validation", "0.5", "--seed", "1", "--out", out,
            "--estimators", "modified-fitted",
        )
        assert code == 3
        assert "failed" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_pseudo_outcomes_exit_3(self, tmp_path, capsys):
        out = tmp_path / "fail"
        code = run_cli("simulate", "--scenario", "s4", "--n", "200", "--reps", "3",
                       "--param", "1e308", "--estimators", "modified-known", "--seed", "1",
                       "--out", out)
        assert code == 3
        assert capsys.readouterr().err == (
            "estimation failed: estimator 'modified-known' failed 3/3 replicates "
            "(first failure: stage 2: pseudo outcomes are not finite)\n")
        assert not out.exists()

    @pytest.mark.parametrize("scenario, coverage, failure", [
        (scenario, [], "estimator 'modified-known': "
                       "the variance of stage-1 parameter '1' is not finite")
        for scenario in ("s1", "s4")] + [
        ("s1", ["--coverage"], "estimator 'modified-known' failed 3/3 replicates "
                               "(first failure: bread Jacobian is singular)"),
        ("s4", ["--coverage"], "estimator 'modified-known' failed 3/3 replicates "
                               "(first failure: sandwich covariance is not finite)"),
    ], ids=["summary-s1", "summary-s4", "coverage-s1", "coverage-s4"])
    def test_a_param_past_the_statistics_range_exits_3(self, tmp_path, capsys, scenario,
                                                       coverage, failure):
        """At --param 1e200 every fit succeeds, but the estimates' variance,
        and with --coverage each sandwich (s1's bread Jacobian is singular,
        s4's covariance leaves the double range), fail: a statistical
        failure, with no RuntimeWarning on the way (which the test
        configuration turns into an error) and no output written."""
        out = tmp_path / "fail"
        code = run_cli("simulate", "--scenario", scenario, "--n", "200", "--reps", "3",
                       "--param", "1e200", "--seed", "1", *coverage, "--out", out)
        assert code == 3
        assert capsys.readouterr().err == f"estimation failed: {failure}\n"
        assert not out.exists()

    def test_json_outputs_hold_finite_numbers_only(self, tmp_path):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            cli._write_json(tmp_path / "x.json", {"variance": float("inf")})
        assert not (tmp_path / "x.json").exists()

    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        code = run_cli("simulate", "--scenario", "s9", "--n", "10", "--reps", "1",
                       "--seed", "1", "--out", tmp_path / "x")
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()  # no partial writes

    def test_unknown_estimator_exits_2(self, tmp_path, capsys):
        code = run_cli("simulate", "--scenario", "s1", "--n", "10", "--reps", "1",
                       "--seed", "1", "--out", tmp_path / "x",
                       "--estimators", "bogus")
        assert code == 2
        assert "unknown estimator" in capsys.readouterr().err

    def test_repeated_estimator_exits_2(self, tmp_path, capsys):
        code = run_cli("simulate", "--scenario", "s4", "--n", "200", "--reps", "3",
                       "--seed", "1", "--out", tmp_path / "x",
                       "--estimators", "naive-proxy,naive-proxy")
        assert code == 2
        assert "estimator 'naive-proxy' listed twice" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_byte_identical_reruns_and_jobs(self, tmp_path):
        args = ["simulate", "--scenario", "s4", "--n", "400", "--reps", "4",
                "--validation", "0.3", "--param", "0", "--seed", "7",
                "--estimators", "modified-fitted,standard-actual"]
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run_cli(*args, "--out", out1) == 0
        assert run_cli(*args, "--out", out2) == 0
        assert run_cli(*args, "--out", out3, "--jobs", "2") == 0
        for name in ("summary.json", "estimates.csv", "config.json"):
            assert read_bytes(out1 / name) == read_bytes(out2 / name)
        for name in ("summary.json", "estimates.csv"):
            assert read_bytes(out1 / name) == read_bytes(out3 / name)

    def test_blocks_jobs_and_summary_counts(self, tmp_path):
        # two replication blocks of unequal size, spread over two workers;
        # one modified-fitted replicate fails and the as-treated assignment
        # fits reach probabilities of 0 or 1
        args = ["simulate", "--scenario", "s1", "--n", "120", "--reps", "23", "--param", "1",
                "--seed", "2", "--estimators", "modified-fitted,standard-actual"]
        assert [len(p) for p in passes(23, 120)] == [11, 12]
        assert run_cli(*args, "--out", tmp_path / "a") == 0
        assert run_cli(*args, "--out", tmp_path / "b", "--jobs", "2") == 0
        for name in ("summary.json", "estimates.csv"):
            assert read_bytes(tmp_path / "a" / name) == read_bytes(tmp_path / "b" / name)
        stats = json.loads((tmp_path / "a" / "summary.json").read_text())["estimators"]
        fitted, as_treated = stats["modified-fitted"], stats["standard-actual"]
        assert fitted["failures"] == 1
        assert [r["count"] for r in fitted["failure_counts"]] == [1]
        assert set(fitted["failure_counts"][0]) == {"class", "stage", "count"}
        assert as_treated["failures"] == 0 and as_treated["failure_counts"] == []
        assert as_treated["positivity_violations"] == [0, 10]
        assert fitted["positivity_violations"] == [0, 0]

    def test_row_sized_passes_and_jobs(self, tmp_path):
        # at n=10000 a pass holds at most 10 replicates: 12 make two passes
        assert [len(p) for p in passes(12, 10000)] == [6, 6]
        args = ["simulate", "--scenario", "s4", "--n", "10000", "--reps", "12", "--param", "1",
                "--seed", "3", "--estimators", "modified-fitted,naive-proxy"]
        assert run_cli(*args, "--out", tmp_path / "a") == 0
        assert run_cli(*args, "--out", tmp_path / "b", "--jobs", "2") == 0
        for name in ("summary.json", "estimates.csv"):
            assert read_bytes(tmp_path / "a" / name) == read_bytes(tmp_path / "b" / name)

    def test_seed_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DTR_ADHERE_SEED", "123")
        out = tmp_path / "env"
        assert run_cli("simulate", "--scenario", "s1", "--n", "40", "--reps", "1",
                       "--out", out, "--estimators", "naive-proxy") == 0
        assert json.loads((out / "config.json").read_text())["seed"] == 123

    def test_seed_defaults_to_0(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DTR_ADHERE_SEED", raising=False)
        args = ("simulate", "--scenario", "s1", "--n", "40", "--reps", "1",
                "--estimators", "naive-proxy")
        assert run_cli(*args, "--out", tmp_path / "default") == 0
        assert run_cli(*args, "--seed", "0", "--out", tmp_path / "zero") == 0
        assert json.loads((tmp_path / "default" / "config.json").read_text())["seed"] == 0
        assert read_bytes(tmp_path / "default" / "summary.json") == read_bytes(
            tmp_path / "zero" / "summary.json")

    def test_coverage_flag_adds_coverage(self, tmp_path):
        out = tmp_path / "cov"
        assert run_cli("simulate", "--scenario", "s3", "--n", "400", "--reps", "3",
                       "--validation", "0.3", "--seed", "2", "--out", out,
                       "--estimators", "modified-fitted", "--coverage") == 0
        summary = json.loads((out / "summary.json").read_text())
        rows = summary["estimators"]["modified-fitted"]["parameters"]
        assert all("coverage" in r for r in rows)
        config = json.loads((out / "config.json").read_text())
        assert config["coverage"] is True
        assert config["exact_pseudo_outcomes"] is False

    @pytest.mark.parametrize("flag, value, message", [
        ("--jobs", "0", "jobs must be >= 1"),
        ("--estimators", ",", "no estimators requested"),
        ("--seed", "-1", "seed must be >= 0"),
        ("--param", "nan", "varied parameter (--param) must be finite, got nan"),
        ("--param", "inf", "varied parameter (--param) must be finite, got inf"),
        ("--param", "-inf", "varied parameter (--param) must be finite, got -inf"),
    ])
    def test_invalid_scenario_config_exits_2(self, tmp_path, capsys, flag, value, message):
        # flag=value, so that argparse takes "-inf" as the value, not an option
        out = tmp_path / "x"
        code = run_cli("simulate", "--scenario", "s1", "--n", "10", "--reps", "1",
                       "--seed", "1", "--out", out, f"{flag}={value}")
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "Warning" not in err
        assert not out.exists()


@pytest.fixture
def analysis_setup(tmp_path):
    rng = np.random.default_rng(321)
    data = generate_s1(500, 0.0, rng, validation_fraction=0.4)
    csv_path = tmp_path / "data.csv"
    bindings = write_dataset_csv(data, csv_path)
    config = {
        "input": "data.csv",
        "stages": 2,
        "outcome": bindings["outcome"],
        "proxy_kind": bindings["proxy_kind"],
        "stage_columns": bindings["stage_columns"],
        "models": [
            {
                "contrast": "1 + X[1]",
                "treatment_free": "1 + X[1]",
                "assignment": "1 + X[1]",
                "adherence": "1 + X[1] + Astar[1]",
            },
            {
                "contrast": "1 + X[2] + A[1]",
                "treatment_free": "1 + X[1] + A[1] + A[1]*X[1] + X[2]",
                "assignment": "1 + X[2]",
                "adherence": "1 + X[2] + Astar[2]",
            },
        ],
        "mode": "modified-prescribed",
        "adherence": {"kind": "fitted"},
        "inference": {"method": "none"},
        "seed": 5,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return data, config, config_path, tmp_path


class TestAnalyze:
    def test_round_trip_matches_in_memory_fit(self, analysis_setup):
        data, config, config_path, tmp_path = analysis_setup
        out = tmp_path / "fit"
        assert run_cli("analyze", config_path, "--out", out) == 0
        payload = json.loads((out / "fit.json").read_text())
        fit = scenario_plan("s1", "modified-fitted").estimate(data)
        flattened = np.concatenate(
            [stage["contrast"]["estimates"] for stage in payload["stages"]]
        )
        np.testing.assert_allclose(flattened, psi_flat(fit), atol=1e-10)
        assert payload["diagnostics"]["rows_used"] == 500
        assert payload["diagnostics"]["validation_rows_per_stage"] == [200, 200]
        assert payload["recommendation_rule"][0]["terms"] == ["1", "X[1]"]
        assert payload["exact_pseudo_outcomes"] is False

    def test_no_proxy_round_trip(self, analysis_setup, capsys):
        """A dataset that records no proxy is written with no proxy columns
        and analyzed from its own CSV by standard-actual; every mode that
        reads the proxy exits 2 naming the missing binding."""
        data, config, config_path, tmp_path = analysis_setup
        bare = Dataset(stage_covariates=[{"X": data.covariate("X", j)} for j in (1, 2)],
                       proxy=[None, None], proxy_kind=None,
                       actual=[data.actual(1), data.actual(2)], validation=data.validation,
                       outcome=data.outcome)
        bindings = write_dataset_csv(bare, tmp_path / "data.csv")
        with open(tmp_path / "data.csv", newline="") as fh:
            assert next(csv.reader(fh)) == ["id", "X1", "A1", "V1", "X2", "A2", "V2", "Y"]
        assert bindings["proxy_kind"] is None
        assert all("proxy" not in entry for entry in bindings["stage_columns"])
        del config["adherence"]
        config.update(mode="standard-actual", proxy_kind=bindings["proxy_kind"],
                      stage_columns=bindings["stage_columns"])
        config_path.write_text(json.dumps(config))
        assert run_cli("analyze", config_path, "--out", tmp_path / "fit") == 0
        payload = json.loads((tmp_path / "fit" / "fit.json").read_text())
        fit = load_analysis_config(config_path).plan.estimate(bare)
        flattened = np.concatenate([stage["contrast"]["estimates"] for stage in payload["stages"]])
        np.testing.assert_allclose(flattened, psi_flat(fit), rtol=0, atol=1e-10)
        assert payload["proxy_kind"] is None and payload["diagnostics"]["rows_used"] == 500
        for mode, adherence in (("modified-prescribed", {"adherence": {"kind": "fitted"}}),
                                ("standard-naive-proxy", {})):
            config_path.write_text(json.dumps({**config, "mode": mode, **adherence}))
            assert run_cli("analyze", config_path, "--out", tmp_path / mode) == 2
            assert "stage_columns entry 1 has no 'proxy' column" in capsys.readouterr().err
            assert not (tmp_path / mode).exists()

    def test_actual_without_a_validation_binding(self, analysis_setup):
        """A stage that binds its actual treatment but no validation column
        takes its validation rows from the rows that record the actual."""
        _, config, config_path, tmp_path = analysis_setup
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(edit_rows(blank_unvalidated(1, 2))(csv_path.read_text()))
        outputs = []
        for bound in (True, False):
            if not bound:
                for entry in config["stage_columns"]:
                    del entry["validation"]
            config_path.write_text(json.dumps(config))
            outputs.append(tmp_path / f"validation-bound-{bound}")
            assert run_cli("analyze", config_path, "--out", outputs[-1]) == 0
        assert read_bytes(outputs[0] / "fit.json") == read_bytes(outputs[1] / "fit.json")

    @pytest.mark.parametrize("scale, failure", [
        (1e152, "stage 2: stage system is not finite"),
        (1e160, "stage 1: assignment model failed: logistic fit's score or information is "
                "not finite at iteration 1"),
    ])
    def test_design_products_past_the_double_range_exit_3(self, analysis_setup, capsys,
                                                          scale, failure):
        """s4 data with both covariates scaled by ``scale``, analyzed by the
        as-treated models: the stage-2 sums of X[1]*X[1]'s squares (1e152),
        or the compiled column itself (1e160), leave the double range.  An
        estimation failure, with no RuntimeWarning on the way (which the
        test configuration turns into an error) and no output written."""
        _, config, config_path, tmp_path = analysis_setup
        scaled = scale_covariates(generate_s4(300, 1.0, np.random.default_rng(0)), scale)
        bindings = write_dataset_csv(scaled, tmp_path / "data.csv")
        specs = scenario_plan("s4", "standard-actual").specs
        del config["adherence"]
        config.update(mode="standard-actual", proxy_kind=bindings["proxy_kind"],
                      stage_columns=bindings["stage_columns"],
                      models=[{kind: str(getattr(spec, kind)) for kind in
                               ("contrast", "treatment_free", "assignment")} for spec in specs])
        config_path.write_text(json.dumps(config))
        out = tmp_path / "fit"
        assert run_cli("analyze", config_path, "--out", out) == 3
        assert capsys.readouterr().err == f"estimation failed: {failure}\n"
        assert not out.exists()

    def test_config_seed_overrides_the_environment(self, analysis_setup, monkeypatch, capsys):
        _, config, config_path, tmp_path = analysis_setup
        monkeypatch.setenv("DTR_ADHERE_SEED", "abc")
        assert load_analysis_config(config_path).seed == 5  # the variable is not read
        assert run_cli("analyze", config_path, "--out", tmp_path / "set") == 0
        del config["seed"]
        config_path.write_text(json.dumps(config))
        assert run_cli("analyze", config_path, "--out", tmp_path / "unset") == 2
        assert "DTR_ADHERE_SEED is not an integer: 'abc'" in capsys.readouterr().err
        monkeypatch.setenv("DTR_ADHERE_SEED", "7")
        assert load_analysis_config(config_path).seed == 7

    def test_config_seed_defaults_to_0(self, analysis_setup, monkeypatch):
        _, config, config_path, _ = analysis_setup
        monkeypatch.delenv("DTR_ADHERE_SEED", raising=False)
        del config["seed"]
        config_path.write_text(json.dumps(config))
        assert load_analysis_config(config_path).seed == 0

    def test_stage_out_of_range_exits_2(self, analysis_setup, capsys):
        _, config, config_path, tmp_path = analysis_setup
        config["models"][0]["contrast"] = "1 + X[3]"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "fit2"
        assert run_cli("analyze", config_path, "--out", out) == 2
        assert "stage out of range or invalid model" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_column_exits_2_with_coordinates(self, analysis_setup, capsys):
        _, config, config_path, tmp_path = analysis_setup
        config["stage_columns"][0]["proxy"] = "NOPE"
        config_path.write_text(json.dumps(config))
        assert run_cli("analyze", config_path, "--out", tmp_path / "fit3") == 2
        assert "NOPE" in capsys.readouterr().err

    def test_bad_cell_reports_row_and_column(self, analysis_setup, capsys):
        _, config, config_path, tmp_path = analysis_setup
        csv_path = tmp_path / "data.csv"
        rows = csv_path.read_text().splitlines()
        header = rows[0].split(",")
        broken = rows[2].split(",")
        broken[header.index("Y")] = "not-a-number"
        rows[2] = ",".join(broken)
        csv_path.write_text("\n".join(rows) + "\n")
        assert run_cli("analyze", config_path, "--out", tmp_path / "fit4") == 2
        err = capsys.readouterr().err
        assert "row 3" in err and "'Y'" in err

    def test_flagged_row_without_actual_exits_2(self, analysis_setup, capsys):
        _, config, config_path, tmp_path = analysis_setup
        csv_path = tmp_path / "data.csv"
        rows = csv_path.read_text().splitlines()
        header = rows[0].split(",")
        broken = rows[4].split(",")
        broken[header.index("V1")] = "1.0"
        broken[header.index("A1")] = ""
        rows[4] = ",".join(broken)
        csv_path.write_text("\n".join(rows) + "\n")
        assert run_cli("analyze", config_path, "--out", tmp_path / "fitv") == 2
        err = capsys.readouterr().err
        assert "validation flag set but actual treatment missing" in err

    def test_complete_case_filtering_counted(self, analysis_setup):
        _, config, config_path, tmp_path = analysis_setup
        csv_path = tmp_path / "data.csv"
        rows = csv_path.read_text().splitlines()
        header = rows[0].split(",")
        broken = rows[5].split(",")
        broken[header.index("X1")] = ""
        rows[5] = ",".join(broken)
        csv_path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "fit5"
        assert run_cli("analyze", config_path, "--out", out) == 0
        payload = json.loads((out / "fit.json").read_text())
        assert payload["diagnostics"]["rows_dropped_incomplete"] == 1
        assert payload["diagnostics"]["rows_used"] == 499

    def test_newton_iterations_written(self, analysis_setup):
        _, config, config_path, tmp_path = analysis_setup
        payload = {}
        sources = {"fitted": {"kind": "fitted"},
                   "sensitivity": {"kind": "sensitivity", "coefficients": [[0.5, 0.1, 2.0]] * 2}}
        for kind, source in sources.items():
            config["adherence"] = source
            config_path.write_text(json.dumps(config))
            assert run_cli("analyze", config_path, "--out", tmp_path / kind) == 0
            payload[kind] = json.loads((tmp_path / kind / "fit.json").read_text())["diagnostics"]
        for diagnostics in payload.values():
            assert all(type(count) is int and count > 0
                       for count in diagnostics["assignment_iterations"])
        assert all(type(count) is int and count > 0
                   for count in payload["fitted"]["adherence_iterations"])
        assert payload["sensitivity"]["adherence_iterations"] == [None, None]

    def test_wald_intervals_written(self, analysis_setup):
        _, config, config_path, tmp_path = analysis_setup
        config["inference"] = {"method": "wald-sandwich", "level": 0.95}
        config_path.write_text(json.dumps(config))
        out = tmp_path / "fit6"
        assert run_cli("analyze", config_path, "--out", out) == 0
        payload = json.loads((out / "fit.json").read_text())
        rows = payload["intervals"]["parameters"]
        assert len(rows) == 5
        for row in rows:
            assert row["lower"] <= row["estimate"] <= row["upper"]

    def test_bread_diagnostics_written_for_wald_only(self, analysis_setup):
        data, config, config_path, tmp_path = analysis_setup
        blocks = {}
        for method in ("wald-sandwich", "bootstrap"):
            config["inference"] = {"method": method, "replicates": 20, "level": 0.95}
            config_path.write_text(json.dumps(config))
            assert run_cli("analyze", config_path, "--out", tmp_path / method) == 0
            blocks[method] = json.loads((tmp_path / method / "fit.json").read_text())["intervals"]
        fit = scenario_plan("s1", "modified-fitted").estimate(data)
        expected = regime_sandwich(data, fit)
        wald = blocks["wald-sandwich"]
        assert wald["bread_condition"] == pytest.approx(expected.bread_condition, rel=1e-6)
        assert wald["bread_condition"] > 1.0
        assert wald["truncated_directions"] == expected.truncated_directions == 0
        assert "bread_condition" not in blocks["bootstrap"]
        assert "truncated_directions" not in blocks["bootstrap"]

    def test_reported_mode_round_trip(self, tmp_path):
        from dtr_adhere.simulation import generate_s4

        rng = np.random.default_rng(2024)
        data = generate_s4(600, 0.0, rng, validation_fraction=0.3)
        csv_path = tmp_path / "s4.csv"
        bindings = write_dataset_csv(data, csv_path)
        assert bindings["proxy_kind"] == "reported"
        config = {
            "input": "s4.csv",
            "stages": 2,
            "outcome": "Y",
            "proxy_kind": "reported",
            "stage_columns": bindings["stage_columns"],
            "models": [
                {"contrast": "1 + X[1]", "treatment_free": "1 + X[1]",
                 "assignment": "1 + X[1] + X[1]*X[1]",
                 "adherence": "1 + X[1] + Astar[1] + X[1]*Astar[1]"},
                {"contrast": "1 + A[1]",
                 "treatment_free": "1 + X[1] + X[1]*X[1] + A[1] + A[1]*X[1]",
                 "assignment": "1 + X[2] + X[2]*X[2]",
                 "adherence": "1 + X[2] + Astar[2] + X[2]*Astar[2]"},
            ],
            "mode": "modified-reported",
            "adherence": {"kind": "fitted"},
            "inference": {"method": "bootstrap", "replicates": 25, "level": 0.95},
            "seed": 9,
        }
        config_path = tmp_path / "s4config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "s4fit"
        assert run_cli("analyze", config_path, "--out", out) == 0
        payload = json.loads((out / "fit.json").read_text())
        fit = scenario_plan("s4", "modified-fitted").estimate(data)
        flattened = np.concatenate(
            [stage["contrast"]["estimates"] for stage in payload["stages"]]
        )
        np.testing.assert_allclose(flattened, psi_flat(fit), atol=1e-10)
        rows = payload["intervals"]["parameters"]
        assert all(r["lower"] <= r["estimate"] <= r["upper"] for r in rows)

    def test_bootstrap_intervals_deterministic(self, analysis_setup):
        _, config, config_path, tmp_path = analysis_setup
        config["inference"] = {"method": "bootstrap", "replicates": 20, "level": 0.9}
        config_path.write_text(json.dumps(config))
        out1, out2 = tmp_path / "fit7", tmp_path / "fit8"
        assert run_cli("analyze", config_path, "--out", out1) == 0
        assert run_cli("analyze", config_path, "--out", out2) == 0
        assert read_bytes(out1 / "fit.json") == read_bytes(out2 / "fit.json")

    def test_bootstrap_jobs_do_not_change_fit_json(self, analysis_setup):
        # 30 replicates: one group, fitted in two passes
        data, config, config_path, tmp_path = analysis_setup
        assert [len(g) for g in groups(30, data.n)] == [30]
        assert [len(p) for p in passes(30, data.n)] == [15, 15]
        outputs = []
        for jobs in (1, 2):
            config.update(jobs=jobs, inference={"method": "bootstrap", "replicates": 30,
                                                "level": 0.9})
            config_path.write_text(json.dumps(config))
            outputs.append(tmp_path / f"jobs{jobs}")
            assert run_cli("analyze", config_path, "--out", outputs[-1]) == 0
        assert read_bytes(outputs[0] / "fit.json") == read_bytes(outputs[1] / "fit.json")
        block = json.loads((outputs[0] / "fit.json").read_text())["intervals"]
        assert sum(f["count"] for f in block["failures"]) == block["failed_replicates"]

    def test_bootstrap_groups_and_jobs(self, analysis_setup):
        # at n=2500 a group holds at most 40 resamples, in passes of at most
        # 20: 90 resamples make three groups of two passes, which two workers
        # share
        _, config, config_path, tmp_path = analysis_setup
        assert [len(g) for g in groups(90, 2500)] == [30, 30, 30]
        assert [len(p) for p in passes(30, 2500)] == [15, 15]
        write_dataset_csv(generate_s1(2500, 0.0, np.random.default_rng(323),
                                      validation_fraction=0.3), tmp_path / "data.csv")
        outputs = []
        for jobs in (1, 2):
            config.update(jobs=jobs, inference={"method": "bootstrap", "replicates": 90,
                                                "level": 0.9})
            config_path.write_text(json.dumps(config))
            outputs.append(tmp_path / f"jobs{jobs}")
            assert run_cli("analyze", config_path, "--out", outputs[-1]) == 0
        assert read_bytes(outputs[0] / "fit.json") == read_bytes(outputs[1] / "fit.json")

    def test_row_sized_bootstrap_passes_and_jobs(self, analysis_setup):
        # at n=10000 a pass holds at most 10 resamples: 12 make two passes
        _, config, config_path, tmp_path = analysis_setup
        assert [len(p) for p in passes(12, 10000)] == [6, 6]
        write_dataset_csv(generate_s1(10000, 0.0, np.random.default_rng(322),
                                      validation_fraction=0.4), tmp_path / "data.csv")
        outputs = []
        for jobs in (1, 2):
            config.update(jobs=jobs, inference={"method": "bootstrap", "replicates": 12,
                                                "level": 0.9})
            config_path.write_text(json.dumps(config))
            outputs.append(tmp_path / f"jobs{jobs}")
            assert run_cli("analyze", config_path, "--out", outputs[-1]) == 0
        assert read_bytes(outputs[0] / "fit.json") == read_bytes(outputs[1] / "fit.json")


def standard_naive_proxy_mode(config):
    """The standard naive-proxy mode, which takes no adherence block."""
    del config["adherence"]
    config.update(mode="standard-naive-proxy")


def standard_mode_with_exact_pseudo_outcomes(config):
    """A standard mode with exact pseudo outcomes (and no adherence block,
    which a standard mode rejects too)."""
    standard_naive_proxy_mode(config)
    config.update(exact_pseudo_outcomes=True)


def three_stages_with_two_lags(config):
    """Exact pseudo outcomes with a stage-3 contrast in two lagged treatments."""
    config.update(stages=3, exact_pseudo_outcomes=True)
    config["stage_columns"].append({"covariates": {"X": "X2"}, "proxy": "A2star"})
    config["models"].append({"contrast": "1 + A[1] + A[2]", "treatment_free": "1",
                             "assignment": "1", "adherence": "1 + Astar[3]"})


def standard_actual_without_proxy_columns(config):
    """A standard-actual config that binds no proxy yet names a proxy kind."""
    del config["adherence"]
    config.update(mode="standard-actual", proxy_kind="prescribed")
    for entry in config["stage_columns"]:
        del entry["proxy"]


class TestMalformedConfig:
    CASES = {
        "stage_columns entry without proxy": (
            lambda c: c["stage_columns"][1].pop("proxy"), "no 'proxy' column"),
        "stages not an integer": (
            lambda c: c.update(stages="two"), "stages must be an integer"),
        "models not a list": (
            lambda c: c.update(models=5), "models must be a list"),
        "level outside (0, 1)": (
            lambda c: c.update(inference={"method": "bootstrap", "replicates": 20, "level": 2}),
            "inference.level must be in (0, 1), got 2.0"),
        "bootstrap replicates below 2": (
            lambda c: c.update(inference={"method": "bootstrap", "replicates": 1}),
            "inference.replicates must be >= 2 for bootstrap, got 1"),
        "seed not an integer": (
            lambda c: c.update(seed="five"), "seed must be an integer"),
        "jobs below 1": (
            lambda c: c.update(jobs=0, inference={"method": "bootstrap", "replicates": 20}),
            "jobs must be >= 1, got 0"),
        "unknown proxy_kind": (
            lambda c: c.update(proxy_kind="nope"), "proxy_kind must be one of"),
        "proxy_kind conflicting with the mode": (
            lambda c: c.update(proxy_kind="reported"),
            "proxy_kind 'reported' conflicts with mode 'modified-prescribed'"),
        "mode not a string": (
            lambda c: c.update(mode=5), "mode must be a string"),
        "inference not an object": (
            lambda c: c.update(inference="bootstrap"), "inference must be an object"),
        "adherence not an object": (
            lambda c: c.update(adherence="fitted"), "adherence must be an object"),
        "seed not integral": (
            lambda c: c.update(seed=1.7), "seed must be an integer"),
        "seed a boolean": (
            lambda c: c.update(seed=True), "seed must be an integer"),
        "stages not integral": (
            lambda c: c.update(stages=2.0), "stages must be an integer"),
        "jobs not integral": (
            lambda c: c.update(jobs=1.5), "jobs must be an integer"),
        "replicates not integral": (
            lambda c: c.update(inference={"method": "bootstrap", "replicates": 20.5}),
            "inference.replicates must be an integer"),
        "level a string": (
            lambda c: c.update(inference={"method": "wald-sandwich", "level": "0.9"}),
            "inference.level must be a number"),
        "level a boolean": (
            lambda c: c.update(inference={"method": "wald-sandwich", "level": True}),
            "inference.level must be a number"),
        "models entry not an object": (
            lambda c: c["models"].__setitem__(0, "1 + X[1]"), "models entry 1 must be an object"),
        "formula not a string": (
            lambda c: c["models"][0].update(contrast=5), "formula must be a string"),
        "exact_pseudo_outcomes a string": (
            lambda c: c.update(exact_pseudo_outcomes="false"),
            "exact_pseudo_outcomes must be a boolean"),
        "exact_pseudo_outcomes an integer": (
            lambda c: c.update(exact_pseudo_outcomes=1),
            "exact_pseudo_outcomes must be a boolean"),
        "external covariance of the wrong shape": (
            lambda c: c.update(adherence={"kind": "external",
                                          "coefficients": [[-4.6, -0.83, 7.5]] * 2,
                                          "covariance": [[[1.0]], None]}),
            "adherence covariance at stage 1 must be a finite, symmetric 3x3 matrix"),
        "external covariance not positive semidefinite": (
            lambda c: c.update(adherence={"kind": "external",
                                          "coefficients": [[-4.6, -0.83, 7.5]] * 2,
                                          "covariance": [None, [[1, 0, 0], [0, -1, 0], [0, 0, 1]]]}),
            "adherence covariance at stage 2 is not positive semidefinite"),
        "three adherence coefficient vectors for 2 stages": (
            lambda c: c.update(adherence={"kind": "external",
                                          "coefficients": [[-4.6, -0.83, 7.5]] * 2 + [[1.0, 2.0]]}),
            "3 adherence coefficient vectors for 2 stages"),
        "one adherence coefficient vector for 2 stages": (
            lambda c: c.update(adherence={"kind": "sensitivity",
                                          "coefficients": [[-4.6, -0.83, 7.5]]}),
            "1 adherence coefficient vectors for 2 stages"),
        "non-finite sensitivity coefficient": (
            lambda c: c.update(adherence={"kind": "sensitivity",
                                          "coefficients": [[-4.6, float("nan"), 7.5]] * 2}),
            "bad adherence block: adherence coefficients must be finite"),
        "infinite external coefficient": (
            lambda c: c.update(adherence={"kind": "external",
                                          "coefficients": [[-4.6, -0.83, 7.5],
                                                           [-4.6, -0.83, float("inf")]],
                                          "covariance": [None, np.eye(3).tolist()]}),
            "bad adherence block: adherence coefficients must be finite"),
        "sensitivity coefficients with a covariance": (
            lambda c: c.update(adherence={"kind": "sensitivity",
                                          "coefficients": [[-4.6, -0.83, 7.5]] * 2,
                                          "covariance": [None, np.eye(3).tolist()]}),
            "adherence kind 'sensitivity' takes no 'covariance'"),
        "fitted adherence with coefficients": (
            lambda c: c.update(adherence={"kind": "fitted",
                                          "coefficients": [[-4.6, -0.83, 7.5]] * 2}),
            "adherence kind 'fitted' takes no 'coefficients'"),
        "adherence kind not a string": (
            lambda c: c.update(adherence={"kind": ["fitted"]}),
            "unsupported adherence kind ['fitted'] in a config file"),
        "misspelt external key": (
            lambda c: c.update(adherence={"kind": "external",
                                          "coefficients": [[-4.6, -0.83, 7.5]] * 2,
                                          "covariances": [None, np.eye(3).tolist()]}),
            "adherence kind 'external' takes no 'covariances'"),
        "exact_pseudo_outcomes with a standard mode": (
            standard_mode_with_exact_pseudo_outcomes,
            "exact_pseudo_outcomes applies to the modified modes only"),
        "adherence block with a standard mode": (
            lambda c: c.update(mode="standard-naive-proxy",
                               adherence={"kind": "external",
                                          "coefficients": [[-4.6, -0.83, 7.5]] * 2}),
            "adherence applies to the modified modes only"),
        "exact_pseudo_outcomes with two lagged treatments": (
            three_stages_with_two_lags,
            "stage 3: exact pseudo-outcome correction supports exactly one lagged "
            "treatment in the contrast, found stages [1, 2]"),
        "proxy_kind with no proxy column bound": (
            standard_actual_without_proxy_columns,
            "proxy_kind 'prescribed' given, but no stage binds a proxy column"),
        # a binding is absent only when missing or null, never when falsy
        "validation bound to 0": (
            lambda c: c["stage_columns"][0].update(validation=0),
            "stage_columns entry 1: column names must be strings"),
        "validation bound to false": (
            lambda c: c["stage_columns"][0].update(validation=False),
            "stage_columns entry 1: column names must be strings"),
        "actual bound to 0": (
            lambda c: c["stage_columns"][0].update(actual=0),
            "stage_columns entry 1: column names must be strings"),
        "proxy bound to 0": (
            lambda c: c["stage_columns"][1].update(proxy=0),
            "stage_columns entry 2: column names must be strings"),
        "validation bound to an empty name": (
            lambda c: c["stage_columns"][0].update(validation=""),
            "bound column '' not in header"),
        "actual bound to an empty name": (
            lambda c: c["stage_columns"][0].update(actual=""),
            "bound column '' not in header"),
        "mode missing": (lambda c: c.pop("mode"), "config is missing 'mode'"),
        "stages below 1": (lambda c: c.update(stages=0), "stages must be >= 1"),
        "one models entry for 2 stages": (
            lambda c: c["models"].pop(), "models must be a list with one entry per stage"),
        "three stage_columns entries for 2 stages": (
            lambda c: c["stage_columns"].append({"covariates": {"X": "X2"}}),
            "stage_columns must be a list with one entry per stage"),
        "models entry without an assignment model": (
            lambda c: c["models"][1].pop("assignment"), "stage 2 models missing 'assignment'"),
        "formula error": (
            lambda c: c["models"][0].update(contrast="1 + X[1"),
            "stage 1 formula: expected ']' (position 7)"),
        "unknown inference method": (
            lambda c: c.update(inference={"method": "jackknife"}),
            "unknown inference method 'jackknife'"),
        "negative seed": (lambda c: c.update(seed=-1), "seed must be >= 0, got -1"),
        "input CSV not found": (
            lambda c: c.update(input="missing.csv"), "input CSV not found: "),
    }
    # edits of the config file itself: (edit of its path, message)
    FILE_CASES = {
        "config file not found": (lambda path: path.unlink(), "config file not found: "),
        "config not valid JSON": (
            lambda path: path.write_text('{"stages": 2,'), "config is not valid JSON: "),
        "config not UTF-8": (
            lambda path: path.write_bytes(b'{"input": "\xff"}'), "config is not valid JSON: "),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exits_2_before_any_fit(self, analysis_setup, capsys, case):
        _, config, config_path, tmp_path = analysis_setup
        corrupt, message = self.CASES[case]
        corrupt(config)
        config_path.write_text(json.dumps(config))
        out = tmp_path / "bad"
        assert run_cli("analyze", config_path, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", list(FILE_CASES))
    def test_an_unreadable_config_exits_2(self, analysis_setup, capsys, case):
        _, _, config_path, tmp_path = analysis_setup
        corrupt, message = self.FILE_CASES[case]
        corrupt(config_path)
        out = tmp_path / "bad"
        assert run_cli("analyze", config_path, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def set_cell(row, column, value):
    """A CSV edit: put ``value`` in ``column`` of data row ``row`` (row 1 is
    the first line after the header)."""
    def edit(lines):
        header = lines[0].split(",")
        fields = lines[row].split(",")
        fields[header.index(column)] = value
        lines[row] = ",".join(fields)
        return lines
    return edit


def blank_column(column):
    """A CSV edit: blank ``column`` in every data row."""
    def edit(lines):
        for row in range(1, len(lines)):
            set_cell(row, column, "")(lines)
        return lines
    return edit


def edit_lines(edit):
    """A whole-file edit from an edit of its lines (without line ends)."""
    return lambda text: "".join(line + "\n" for line in edit(text.splitlines()))


def edit_rows(edit):
    """A whole-file edit applying ``edit(fields, header)`` to every data row."""
    def apply(lines):
        header = lines[0].split(",")
        return lines[:1] + [",".join(edit(line.split(","), header)) for line in lines[1:]]
    return edit_lines(apply)


def blank_unvalidated(*stages):
    """A row edit blanking the actual treatment of each of ``stages`` outside
    its validation rows."""
    def edit(fields, header):
        for j in stages:
            if fields[header.index(f"V{j}")] == "0.0":
                fields[header.index(f"A{j}")] = ""
        return fields
    return edit


# Files the parser must accept, each with whether it is read in C (every bound
# cell filled, nothing csv.reader reads differently from a split on commas).
ACCEPTED_VARIANTS = {
    "as written": (lambda text: text, True),
    "CRLF line endings": (lambda text: text.replace("\n", "\r\n"), True),
    "no final newline": (lambda text: text.rstrip("\n"), True),
    "extra unbound trailing column": (
        edit_lines(lambda lines: [lines[0] + ",note"] + [line + ",0.25" for line in lines[1:]]),
        True),
    "text ids": (
        edit_rows(lambda fields, header: [f"p{int(fields[0]):03d}", *fields[1:]]), True),
    "spaces around numbers": (edit_rows(lambda fields, header: [f" {f}\t" for f in fields]),
                              True),
    "quoted numeric cell": (edit_lines(set_cell(3, "X1", '"0.5"')), False),
    # split on its commas, this cell would shift numbers into every bound column
    "quoted unbound cell with commas": (
        edit_lines(set_cell(2, "id", '"a,' + "1," * 9 + 'b"')), False),
    "sparse A1": (edit_rows(blank_unvalidated(1)), False),
}


def assert_same_read(got, want):
    """Two ``read_dataset_csv`` results: the same diagnostics and bit-identical
    dataset columns."""
    (got_data, got_diagnostics), (want_data, want_diagnostics) = got, want
    assert got_diagnostics == want_diagnostics
    columns = [lambda d: d.outcome, lambda d: d.validation]
    for j in (1, 2):
        columns += [lambda d, j=j: d.covariate("X", j), lambda d, j=j: d.proxy(j),
                    lambda d, j=j: d.actual(j)]
    for column in columns:
        mine, theirs = column(got_data), column(want_data)
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes()


class TestCsvErrors:
    CASES = {
        "empty file": (lambda lines: [], "empty CSV"),
        "header only": (lambda lines: lines[:1], "no data rows"),
        "short row": (
            lambda lines: lines[:3] + [lines[3][:5]] + lines[4:], "row 4 has too few fields"),
        "flag neither 0 nor 1": (
            set_cell(2, "V1", "2.0"), "row 3, column 'V1': validation flag must be 0/1"),
        "nan covariate": (
            set_cell(3, "X1", "nan"), "row 4, column 'X1': not a finite number: 'nan'"),
        "infinite proxy": (
            set_cell(6, "A2star", "inf"), "row 7, column 'A2star': not a finite number: 'inf'"),
        "non-numeric outcome": (
            set_cell(2, "Y", "abc"), "row 3, column 'Y': not a finite number: 'abc'"),
        "flagged row without actual": (
            lambda lines: set_cell(4, "A1", "")(set_cell(4, "V1", "1.0")(lines)),
            "row 5, column 'V1': validation flag set but actual treatment missing at stage 1"),
        "flagged row without actual after a dropped row": (
            lambda lines: set_cell(6, "A1", "")(set_cell(6, "V1", "1.0")(
                set_cell(3, "X1", "")(lines))),
            "row 7, column 'V1': validation flag set but actual treatment missing at stage 1"),
        # Inputs numpy's C parser would read as valid data: it skips blank
        # lines, treats '#' as a comment and a lone CR as a line end, and has
        # no field size limit.
        "blank line mid-file": (
            lambda lines: lines[:4] + [""] + lines[4:], "row 5 has too few fields"),
        "trailing blank line": (lambda lines: lines + [""], "row 502 has too few fields"),
        "comment mark in a bound cell": (
            set_cell(3, "X1", "#0.5"), "row 4, column 'X1': not a finite number: '#0.5'"),
        "comment mark after a number in the last column": (
            set_cell(3, "Y", "0.5#1"), "row 4, column 'Y': not a finite number: '0.5#1'"),
        "whitespace-only line": (
            lambda lines: lines[:4] + ["   "] + lines[4:], "row 5 has too few fields"),
        "blank line after a lone CR": (
            lambda lines: lines[:4] + [lines[4] + "\r\r"] + lines[5:], "row 6 has too few fields"),
        "field over the csv size limit": (
            set_cell(2, "id", "x" * (csv.field_size_limit() + 1)),
            f"field larger than field limit ({csv.field_size_limit()})"),
        "no complete-case rows": (
            blank_column("Y"), "data.csv: no complete-case rows"),
        "proxy neither 0 nor 1": (
            set_cell(3, "A1star", "2.0"),
            "data.csv: prescribed treatment at stage 1 must be exactly 0 or 1 when present"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exits_2_naming_the_fault(self, analysis_setup, capsys, case):
        _, _, config_path, tmp_path = analysis_setup
        corrupt, message = self.CASES[case]
        csv_path = tmp_path / "data.csv"
        lines = corrupt(csv_path.read_text().splitlines())
        csv_path.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "bad"
        assert run_cli("analyze", config_path, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


    def test_chunked_read_matches_one_chunk(self, analysis_setup, monkeypatch):
        # The validating reader reads a chunk of rows at a time; the chunk size
        # changes neither the dataset nor the row a fault is reported on.
        from dtr_adhere import cli

        _, _, config_path, tmp_path = analysis_setup
        config = cli.load_analysis_config(config_path)
        monkeypatch.setattr(cli, "_read_complete", lambda path, columns: None)
        whole = cli.read_dataset_csv(config)
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 7)
        assert_same_read(cli.read_dataset_csv(config), whole)
        csv_path = tmp_path / "data.csv"
        lines = set_cell(19, "X2", "inf")(csv_path.read_text().splitlines())
        csv_path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(cli.ConfigError, match="row 20, column 'X2': not a finite number"):
            cli.read_dataset_csv(config)

    def test_chunked_write_matches_one_chunk(self, tmp_path, monkeypatch):
        # write_dataset_csv writes a chunk of rows at a time; the chunk size
        # does not change the file
        from dtr_adhere import cli

        data = generate_s1(23, 0.0, np.random.default_rng(324), validation_fraction=0.3)
        write_dataset_csv(data, tmp_path / "whole.csv")
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 7)
        write_dataset_csv(data, tmp_path / "chunked.csv")
        assert read_bytes(tmp_path / "chunked.csv") == read_bytes(tmp_path / "whole.csv")

    def test_write_holds_one_chunk_of_cells(self, tmp_path):
        """Writing an n=20000 s1 file of 1.7 MB traced a peak of 3.0 MB a
        chunk of rows at a time (3.5 MB at n=50000), and 12.9 MB with every
        cell a string at once (32.2 MB at n=50000)."""
        data = generate_s1(20000, 0.0, np.random.default_rng(325), validation_fraction=0.3)
        tracemalloc.start()
        try:
            write_dataset_csv(data, tmp_path / "data.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    @pytest.mark.parametrize("variant", list(ACCEPTED_VARIANTS))
    def test_fast_read_matches_validating_reader(self, analysis_setup, monkeypatch, variant):
        # A file parsed in C gives the dataset the validating reader gives,
        # bit for bit; a file that is not complete goes to that reader.
        from dtr_adhere import cli

        _, _, config_path, tmp_path = analysis_setup
        edit, fast = ACCEPTED_VARIANTS[variant]
        csv_path = tmp_path / "data.csv"
        csv_path.write_bytes(edit(csv_path.read_text()).encode("utf-8"))
        config = cli.load_analysis_config(config_path)
        parsed = []
        parse_column = cli._parse_column
        monkeypatch.setattr(cli, "_parse_column", lambda *args: parsed.append(args[1])
                            or parse_column(*args))
        read = cli.read_dataset_csv(config)
        assert (not parsed) == fast  # no cell parsed in Python exactly when read in C
        monkeypatch.setattr(cli, "_read_complete", lambda path, columns: None)
        assert_same_read(read, cli.read_dataset_csv(config))

    @pytest.mark.parametrize("body", ["", "\n", "\n\n", "\r\n"])
    def test_empty_body_raises_without_a_warning(self, analysis_setup, body):
        from dtr_adhere import cli

        _, _, config_path, tmp_path = analysis_setup
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(csv_path.read_text().splitlines()[0] + "\n" + body)
        config = cli.load_analysis_config(config_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(cli.ConfigError, match="no data rows|row 2 has too few fields"):
                cli.read_dataset_csv(config)


class TestPrescan:
    """``_read_complete`` bounds every field by its line's length: a file
    whose lines all fit the csv module's field size limit is read in C, and
    one with a longer line goes to the validating reader, which reads a
    field over the limit as that module does."""

    @staticmethod
    def limited_read(analysis_setup, edit):
        """Exit code of ``analyze`` on the fixture's file after
        ``edit(lines, limit)``, and whether the file was read in C, under a
        field size limit ``limit`` 20 bytes above the file's longest line."""
        from dtr_adhere import cli

        _, _, config_path, tmp_path = analysis_setup
        csv_path = tmp_path / "data.csv"
        lines = csv_path.read_text().splitlines()
        limit = max(len(line) for line in lines) + 20
        csv_path.write_text("".join(line + "\n" for line in edit(lines, limit)))
        read_in_c, read_complete = [], cli._read_complete

        def spy(*args):
            table = read_complete(*args)
            read_in_c.append(table is not None)
            return table

        original = csv.field_size_limit(limit)
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cli, "_read_complete", spy)
                code = run_cli("analyze", config_path, "--out", tmp_path / "fit")
        finally:
            csv.field_size_limit(original)
        return code, read_in_c, limit

    @pytest.mark.parametrize("over, fast", [(0, True), (1, False)],
                             ids=["at-the-limit", "one-byte-over"])
    def test_longest_line_at_the_limit(self, analysis_setup, over, fast):
        """Data row 3's id cell is padded with zeros until its line is
        ``over`` bytes longer than the limit."""
        def pad(lines, limit):
            fields = lines[3].split(",")
            fields[0] = fields[0].rjust(len(fields[0]) + limit + over - len(lines[3]), "0")
            lines[3] = ",".join(fields)
            return lines

        _, _, config_path, tmp_path = analysis_setup
        assert run_cli("analyze", config_path, "--out", tmp_path / "plain") == 0
        code, read_in_c, _ = self.limited_read(analysis_setup, pad)
        assert code == 0 and read_in_c == [fast]
        fits = [read_bytes(tmp_path / out / "fit.json") for out in ("fit", "plain")]
        assert fits[0] == fits[1]

    @pytest.mark.parametrize("over", [0, 1], ids=["at-the-limit", "one-byte-over"])
    def test_one_field_line_at_the_limit(self, analysis_setup, capsys, over):
        """A line that is one field is as long as its field, so the bound is
        exact: one byte over the limit, csv.reader fails the field."""
        code, read_in_c, limit = self.limited_read(
            analysis_setup, lambda lines, limit: lines[:3] + ["0" * (limit + over)] + lines[4:])
        assert code == 2 and read_in_c == [False]
        assert (f"field larger than field limit ({limit})" if over
                else "row 4 has too few fields") in capsys.readouterr().err


class TestByteOrderMark:
    """A UTF-8 byte order mark, which spreadsheets write in their "CSV UTF-8"
    export, belongs to no header name and no config value."""

    @pytest.mark.parametrize("sparse", [False, True], ids=["read-in-c", "validating-reader"])
    def test_csv_with_a_bom_fits_as_without(self, analysis_setup, monkeypatch, sparse):
        from dtr_adhere import cli

        _, _, config_path, tmp_path = analysis_setup
        csv_path = tmp_path / "data.csv"
        text = csv_path.read_text()
        if sparse:
            text = edit_rows(blank_unvalidated(1))(text)
        # without the id column, a bound column comes first
        text = edit_lines(lambda lines: [line.split(",", 1)[1] for line in lines])(text)
        assert text.startswith("X1,")
        read_in_c, read_complete = [], cli._read_complete

        def spy(*args):
            table = read_complete(*args)
            read_in_c.append(table is not None)
            return table

        monkeypatch.setattr(cli, "_read_complete", spy)
        fits = []
        for encoding in ("utf-8", "utf-8-sig"):
            csv_path.write_bytes(text.encode(encoding))
            out = tmp_path / encoding
            assert run_cli("analyze", config_path, "--out", out) == 0
            fits.append(read_bytes(out / "fit.json"))
        assert read_bytes(csv_path)[:3] == b"\xef\xbb\xbf"
        assert read_in_c == [not sparse] * 2
        assert fits[0] == fits[1]

    def test_config_with_a_bom_fits_as_without(self, analysis_setup):
        _, _, config_path, tmp_path = analysis_setup
        assert run_cli("analyze", config_path, "--out", tmp_path / "plain") == 0
        config_path.write_bytes(config_path.read_text().encode("utf-8-sig"))
        assert run_cli("analyze", config_path, "--out", tmp_path / "bom") == 0
        fits = [read_bytes(tmp_path / out / "fit.json") for out in ("plain", "bom")]
        assert fits[0] == fits[1]


class TestSensitivity:
    def grid_file(self, tmp_path, rows):
        path = tmp_path / "grid.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["1", "X", "Astar"])
            writer.writerows(rows)
        return path

    def test_single_point_matches_analyze(self, analysis_setup):
        data, config, config_path, tmp_path = analysis_setup
        grid = self.grid_file(tmp_path, [[-4.6, -0.83, 7.5]])
        out = tmp_path / "sweep"
        assert run_cli("sensitivity", config_path, grid, "--out", out) == 0
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert len(rows) == 5
        assert all(float(r["agreement"]) == 1.0 for r in rows)
        known = scenario_plan("s1", "modified-known").estimate(data)
        got = np.array([float(r["estimate"]) for r in rows])
        np.testing.assert_allclose(got, psi_flat(known), atol=1e-12)

    def test_perfect_adherence_point_matches_naive(self, analysis_setup):
        data, config, config_path, tmp_path = analysis_setup
        grid = self.grid_file(tmp_path, [[-1000.0, 0.0, 2000.0]])
        out = tmp_path / "sweep2"
        assert run_cli("sensitivity", config_path, grid, "--out", out) == 0
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        naive = scenario_plan("s1", "naive-proxy").estimate(data)
        got = np.array([float(r["estimate"]) for r in rows])
        np.testing.assert_allclose(got, psi_flat(naive), atol=1e-10)

    def test_five_point_sweep_agreements(self, analysis_setup):
        _, config, config_path, tmp_path = analysis_setup
        grid = self.grid_file(
            tmp_path, [[-4.6, -0.83, c] for c in (5.5, 6.5, 7.5, 8.5, 9.5)]
        )
        out = tmp_path / "sweep3"
        assert run_cli("sensitivity", config_path, grid, "--out", out) == 0
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert len(rows) == 25
        by_point = {}
        for r in rows:
            by_point.setdefault(r["point"], set()).add(r["agreement"])
        assert all(len(v) == 1 for v in by_point.values())
        agreements = [float(next(iter(v))) for _, v in sorted(by_point.items())]
        assert agreements[0] == 1.0
        assert all(0.0 <= a <= 1.0 for a in agreements)

    def test_reference_is_the_first_point_that_fits(self, analysis_setup, capsys):
        # all-zero coefficients make the proxy uninformative, so point 0 fails
        # (a singular stage system) and point 1 is the rule the others match
        _, config, config_path, tmp_path = analysis_setup
        grid = self.grid_file(tmp_path, [[0.0, 0.0, 0.0], [-4.6, -0.83, 7.5]])
        out = tmp_path / "sweep4"
        assert run_cli("sensitivity", config_path, grid, "--out", out) == 0
        assert "sensitivity: point 0 failed" in capsys.readouterr().err
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert [r["point"] for r in rows] == ["1"] * 5
        assert all(float(r["agreement"]) == 1.0 for r in rows)

    def test_malformed_grid_exits_2(self, analysis_setup, capsys):
        _, config, config_path, tmp_path = analysis_setup
        path = tmp_path / "grid.csv"
        path.write_text("1,X\n0.0,1.0\n")  # wrong width for 3-term adherence
        assert run_cli("sensitivity", config_path, path, "--out", tmp_path / "s") == 2
        assert ("grid has 2 columns but the stage-1 adherence model has 3 terms"
                in capsys.readouterr().err)
        path.write_text("1,X,Astar\n-4.6,-0.83,7.5\n-4.6,nan,7.5\n")
        assert run_cli("sensitivity", config_path, path, "--out", tmp_path / "s") == 2
        assert ("row 3: every cell must be a finite number, got ['-4.6', 'nan', '7.5']"
                in capsys.readouterr().err)

    # (edit of the grid file's path, edit of the config, message)
    EXIT_2_CASES = {
        "grid file not found": (lambda path: path.unlink(), None, "grid file not found: "),
        "empty grid": (lambda path: path.write_text(""), None, "grid.csv: empty grid"),
        "grid without rows": (
            lambda path: path.write_text("1,X,Astar\n"), None, "grid.csv: grid has no rows"),
        "grid row of the wrong width": (
            lambda path: path.write_text("1,X,Astar\n-4.6,-0.83,7.5\n-4.6,-0.83\n"), None,
            "grid.csv: row 3 has 2 fields, expected 3"),
        "stage without an adherence model": (
            None, lambda c: c["models"][1].pop("adherence"),
            "stage 2 has no adherence model for the sweep"),
        "standard mode": (
            None, standard_naive_proxy_mode, "sensitivity sweeps require a modified mode"),
    }

    @pytest.mark.parametrize("case", list(EXIT_2_CASES))
    def test_exits_2_naming_the_fault(self, analysis_setup, capsys, case):
        _, config, config_path, tmp_path = analysis_setup
        edit_grid, edit_config, message = self.EXIT_2_CASES[case]
        grid = self.grid_file(tmp_path, [[-4.6, -0.83, 7.5]])
        if edit_grid is not None:
            edit_grid(grid)
        if edit_config is not None:
            edit_config(config)
            config_path.write_text(json.dumps(config))
        out = tmp_path / "bad"
        assert run_cli("sensitivity", config_path, grid, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_every_point_failing_exits_3(self, analysis_setup, capsys):
        # all-zero coefficients make the proxy uninformative: every fit fails
        _, _, config_path, tmp_path = analysis_setup
        grid = self.grid_file(tmp_path, [[0.0, 0.0, 0.0]] * 2)
        out = tmp_path / "none"
        assert run_cli("sensitivity", config_path, grid, "--out", out) == 3
        assert "sensitivity: every grid point failed" in capsys.readouterr().err
        assert not out.exists()

    def test_rule_designs_compiled_once_a_sweep(self, analysis_setup, monkeypatch):
        """Every rule the command evaluates reads one dict of designs: the
        stage-1 adherence design and both contrasts are compiled once, not
        once per point, and the sweep's file is unchanged."""
        from dtr_adhere import cli, gest

        _, _, config_path, tmp_path = analysis_setup
        grid = self.grid_file(tmp_path, [[-4.6, -0.83, c] for c in (5.5, 6.5, 7.5, 8.5, 9.5)])
        compile_, recommend, keys, rules = gest.compile_design, gest.recommend, [], []

        def compile_spy(spec, data, stage, mode, **kwargs):
            if rules:
                keys.append((str(spec), stage, mode))
            return compile_(spec, data, stage, mode, **kwargs)

        def recommend_spy(fit, data, designs=None):
            rules.append(designs)
            return recommend(fit, data, designs)

        monkeypatch.setattr(gest, "compile_design", compile_spy)
        monkeypatch.setattr(cli, "recommend", recommend_spy)
        assert run_cli("sensitivity", config_path, grid, "--out", tmp_path / "shared") == 0
        assert len(rules) == 6 and all(designs is rules[0] for designs in rules)
        assert sorted(keys) == [("1 + X[1]", 1, MODE_USE_EXPECTED),
                                ("1 + X[1] + Astar[1]", 1, MODE_USE_PROXY),
                                ("1 + X[2] + A[1]", 2, MODE_USE_EXPECTED)]
        monkeypatch.setattr(cli, "recommend", lambda fit, data, designs: recommend(fit, data))
        assert run_cli("sensitivity", config_path, grid, "--out", tmp_path / "fresh") == 0
        assert read_bytes(tmp_path / "shared" / "sweep.csv") == read_bytes(
            tmp_path / "fresh" / "sweep.csv")

    def test_reruns_byte_identical(self, analysis_setup):
        _, config, config_path, tmp_path = analysis_setup
        grid = self.grid_file(tmp_path, [[-4.6, -0.83, 7.5], [-4.6, -0.83, 9.0]])
        out1, out2 = tmp_path / "sa", tmp_path / "sb"
        assert run_cli("sensitivity", config_path, grid, "--out", out1) == 0
        assert run_cli("sensitivity", config_path, grid, "--out", out2) == 0
        assert read_bytes(out1 / "sweep.csv") == read_bytes(out2 / "sweep.csv")
