"""Command-line front end: simulation studies, CSV analyses, sensitivity sweeps.

Exit codes: 0 success, 2 configuration/user error, 3 estimation or statistical
failure.  All structured results are JSON (sorted keys, full double
precision); bulk tables are UTF-8 CSV with LF line endings.  Commands
validate all inputs before touching the output directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .gest import (
    AdherenceSource,
    EstimationPlan,
    StageModelSpec,
    psi_flat,
    recommendations_matrix,
    sensitivity_sweep,
    validate_stage_models,
)
from .inference import bootstrap, regime_wald_intervals
from .model import DataError, Dataset, DesignError, FormulaError
from .simulation import ESTIMATORS, SCENARIOS, ScenarioConfig, run_replications

SEED_ENV_VAR = "DTR_ADHERE_SEED"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Serialization helpers


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def _write_json(path: Path, payload):
    text = json.dumps(_plain(payload), indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _float_repr(value) -> str:
    return repr(float(value))


def _open_csv_writer(path: Path):
    fh = open(path, "w", encoding="utf-8", newline="")
    return fh, csv.writer(fh, lineterminator="\n")


def write_dataset_csv(data: Dataset, path) -> dict:
    """Export a dataset with conventional column names; returns the per-stage
    column bindings in the shape the analyze config expects."""
    k = data.n_stages
    kind = data.default_proxy_kind() or "prescribed"
    suffix = "star" if kind == "prescribed" else "rep"
    header, bindings = ["id"], []
    for j in range(1, k + 1):
        entry = {"covariates": {}, "proxy": f"A{j}{suffix}", "actual": f"A{j}",
                 "validation": f"V{j}"}
        for name in data.covariate_names:
            column = f"{name}{j}"
            header.append(column)
            entry["covariates"][name] = column
        header.extend([f"A{j}{suffix}", f"A{j}", f"V{j}"])
        bindings.append(entry)
    header.append("Y")

    def fmt(value):
        if value is None or (isinstance(value, float) and np.isnan(value)):
            return ""
        return _float_repr(value)

    fh, writer = _open_csv_writer(Path(path))
    with fh:
        writer.writerow(header)
        for i in range(data.n):
            row = [str(data.ids[i])]
            for j in range(1, k + 1):
                for name in data.covariate_names:
                    row.append(fmt(data.covariate(name, j)[i]))
                proxy = data.proxy(j, kind)
                row.append(fmt(proxy[i] if proxy is not None else None))
                actual = data.actual(j)
                row.append(fmt(actual[i] if actual is not None else None))
                row.append(_float_repr(1.0 if data.validation[i, j - 1] else 0.0))
            row.append(fmt(data.outcome[i]))
            writer.writerow(row)
    return {"stage_columns": bindings, "outcome": "Y", "proxy_kind": kind}


# ---------------------------------------------------------------------------
# simulate


def _add_simulate_parser(subparsers):
    p = subparsers.add_parser("simulate", help="run a replication study on a built-in scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--validation", type=float, default=0.3)
    p.add_argument("--param", type=float, default=0.0)
    p.add_argument("--estimators", default=",".join(ESTIMATORS))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--coverage", action="store_true")
    p.add_argument("--exact-pseudo-outcomes", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_simulate)


def _default_seed(explicit: Optional[int]) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as err:
            raise ConfigError(f"{SEED_ENV_VAR} is not an integer: {env!r}") from err
    return 0


def cmd_simulate(args) -> int:
    if args.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {args.scenario!r}")
    estimators = tuple(e.strip() for e in args.estimators.split(",") if e.strip())
    for est in estimators:
        if est not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {est!r}")
    if not estimators:
        raise ConfigError("no estimators requested")
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    try:
        config = ScenarioConfig(
            scenario=args.scenario,
            n=args.n,
            replications=args.reps,
            seed=_default_seed(args.seed),
            validation_fraction=args.validation,
            varied_param=args.param,
            estimators=estimators,
            coverage=args.coverage,
            exact_pseudo_outcomes=args.exact_pseudo_outcomes,
            jobs=args.jobs,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err

    summary = run_replications(config)  # ReplicationError -> exit 3 in main()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", _config_payload(config))
    _write_json(out / "summary.json", _summary_payload(summary))
    fh, writer = _open_csv_writer(out / "estimates.csv")
    with fh:
        writer.writerow(["replicate", "estimator", "stage", "parameter", "value"])
        for name in config.estimators:
            indices = summary.replicate_indices[name]
            values = summary.estimates[name]
            for row_idx, rep in enumerate(indices):
                for p, (stage, label) in enumerate(summary.parameters):
                    writer.writerow(
                        [int(rep), name, stage, label, _float_repr(values[row_idx, p])]
                    )
    return 0


def _config_payload(config: ScenarioConfig) -> dict:
    payload = {
        "scenario": config.scenario,
        "n": config.n,
        "replications": config.replications,
        "seed": config.seed,
        "validation_fraction": config.validation_fraction,
        "varied_param": config.varied_param,
        "estimators": list(config.estimators),
        "coverage": config.coverage,
        "coverage_level": config.coverage_level,
        "exact_pseudo_outcomes": config.exact_pseudo_outcomes,
        "s3_treatment_free_indicator": config.s3_treatment_free_indicator,
        "version": __version__,
    }
    return payload


def _summary_payload(summary) -> dict:
    return {
        "scenario": summary.config.scenario,
        "n": summary.config.n,
        "replications": summary.config.replications,
        "truth": list(summary.truth),
        "parameters": [
            {"stage": stage, "parameter": label} for stage, label in summary.parameters
        ],
        "estimators": summary.statistics(),
    }


# ---------------------------------------------------------------------------
# analyze


@dataclass
class StageBinding:
    covariates: dict  # formula name -> csv column
    proxy: str
    actual: Optional[str] = None
    validation: Optional[str] = None


@dataclass
class AnalysisConfig:
    input: str
    stages: int
    outcome: str
    stage_columns: list
    plan: EstimationPlan
    inference_method: str  # "none" | "wald-sandwich" | "bootstrap"
    bootstrap_replicates: int
    level: float
    seed: int
    jobs: int = 1


def load_analysis_config(path: Path, *, base_dir: Optional[Path] = None) -> AnalysisConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    base = base_dir if base_dir is not None else Path(path).parent

    def need(key):
        if key not in raw:
            raise ConfigError(f"config is missing '{key}'")
        return raw[key]

    def number(kind, value, field):
        try:
            return kind(value)
        except (TypeError, ValueError) as err:
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"{field} must be {what}, got {value!r}") from err

    stages = number(int, need("stages"), "stages")
    if stages < 1:
        raise ConfigError("stages must be >= 1")

    def per_stage(key):
        value = need(key)
        if not isinstance(value, list) or len(value) != stages:
            raise ConfigError(f"{key} must be a list with one entry per stage")
        return value

    bindings = []
    for j, entry in enumerate(per_stage("stage_columns"), start=1):
        if not isinstance(entry, dict) or "proxy" not in entry:
            raise ConfigError(f"stage_columns entry {j} has no 'proxy' column")
        bindings.append(
            StageBinding(
                covariates=dict(entry.get("covariates", {})),
                proxy=entry["proxy"],
                actual=entry.get("actual"),
                validation=entry.get("validation"),
            )
        )

    models = []
    for j, entry in enumerate(per_stage("models"), start=1):
        try:
            models.append(
                StageModelSpec.from_strings(
                    contrast=entry["contrast"],
                    treatment_free=entry["treatment_free"],
                    assignment=entry["assignment"],
                    adherence=entry.get("adherence"),
                )
            )
        except FormulaError as err:
            raise ConfigError(f"stage {j} formula: {err}") from err
        except KeyError as err:
            raise ConfigError(f"stage {j} models missing {err}") from err
    try:
        validate_stage_models(models, stages)
    except DesignError as err:
        raise ConfigError(f"stage out of range or invalid model: {err}") from err

    mode = need("mode")
    adherence_raw = raw.get("adherence", {"kind": "fitted"})
    adherence = None
    if mode.startswith("modified"):
        kind = adherence_raw.get("kind", "fitted")
        try:
            if kind == "fitted":
                adherence = AdherenceSource.fitted()
            elif kind == "external":
                adherence = AdherenceSource.external(
                    [np.asarray(c, dtype=float) for c in adherence_raw["coefficients"]],
                    covariance=[
                        None if c is None else np.asarray(c, dtype=float)
                        for c in adherence_raw["covariance"]
                    ]
                    if adherence_raw.get("covariance") is not None
                    else None,
                )
            elif kind == "sensitivity":
                adherence = AdherenceSource.sensitivity(
                    [np.asarray(c, dtype=float) for c in adherence_raw["coefficients"]]
                )
            else:
                raise ConfigError(f"unsupported adherence kind {kind!r} in a config file")
        except (KeyError, ValueError) as err:
            if isinstance(err, ConfigError):
                raise
            raise ConfigError(f"bad adherence block: {err}") from err

    inference_raw = raw.get("inference", {"method": "none"})
    method = inference_raw.get("method", "none")
    if method not in ("none", "wald-sandwich", "bootstrap"):
        raise ConfigError(f"unknown inference method {method!r}")
    level = number(float, inference_raw.get("level", 0.95), "inference.level")
    if not 0.0 < level < 1.0:
        raise ConfigError(f"inference.level must be in (0, 1), got {level!r}")
    replicates = number(int, inference_raw.get("replicates", 1000), "inference.replicates")
    if method == "bootstrap" and replicates < 2:
        raise ConfigError(f"inference.replicates must be >= 2 for bootstrap, got {replicates}")
    seed = number(int, raw.get("seed", _default_seed(None)), "seed")
    jobs = number(int, raw.get("jobs", 1), "jobs")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    try:
        plan = EstimationPlan(
            specs=tuple(models),
            mode=mode,
            adherence=adherence,
            exact_pseudo_outcomes=bool(raw.get("exact_pseudo_outcomes", False)),
            proxy_kind=raw.get("proxy_kind"),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err

    input_path = Path(raw.get("input", ""))
    if not input_path.is_absolute():
        input_path = base / input_path

    return AnalysisConfig(
        input=str(input_path),
        stages=stages,
        outcome=need("outcome"),
        stage_columns=bindings,
        plan=plan,
        inference_method=method,
        bootstrap_replicates=replicates,
        level=level,
        seed=seed,
        jobs=jobs,
    )


def read_dataset_csv(config: AnalysisConfig):
    """Load and validate the bound CSV columns; complete-case filter.

    Rows missing any bound covariate, proxy, or the outcome are dropped (and
    counted); a missing actual treatment is allowed outside validation rows.
    Returns (dataset, diagnostics dict).
    """
    path = Path(config.input)
    if not path.exists():
        raise ConfigError(f"input CSV not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty CSV") from None
        rows = list(reader)
    col_index = {name: i for i, name in enumerate(header)}

    bound = [config.outcome]
    for j, binding in enumerate(config.stage_columns, start=1):
        bound.extend(binding.covariates.values())
        bound.append(binding.proxy)
        if binding.actual:
            bound.append(binding.actual)
        if binding.validation:
            bound.append(binding.validation)
    for name in bound:
        if name not in col_index:
            raise ConfigError(f"{path}: bound column '{name}' not in header")

    def cell(row, row_num, name):
        i = col_index[name]
        if i >= len(row):
            raise ConfigError(f"{path}: row {row_num} has too few fields")
        text = row[i].strip()
        if text == "":
            return None
        try:
            return float(text)
        except ValueError:
            raise ConfigError(
                f"{path}: row {row_num}, column '{name}': not a number: {text!r}"
            ) from None

    required = [config.outcome]
    for binding in config.stage_columns:
        required.extend(binding.covariates.values())
        required.append(binding.proxy)

    kept, dropped = [], 0
    for row_num, row in enumerate(rows, start=2):
        values = {name: cell(row, row_num, name) for name in set(bound)}
        if any(values[name] is None for name in required):
            dropped += 1
            continue
        kept.append(values)
    if not kept:
        raise ConfigError(f"{path}: no complete-case rows")

    n = len(kept)
    k = config.stages

    def column(name):
        return np.array(
            [np.nan if r[name] is None else r[name] for r in kept], dtype=float
        )

    stage_covariates, proxies, actuals, validations = [], [], [], []
    for binding in config.stage_columns:
        stage_covariates.append({fname: column(col) for fname, col in binding.covariates.items()})
        proxies.append(column(binding.proxy))
        actuals.append(column(binding.actual) if binding.actual else None)
        if binding.validation:
            flags = column(binding.validation)
            flags = np.where(np.isnan(flags), 0.0, flags)
            if np.any((flags != 0.0) & (flags != 1.0)):
                raise ConfigError(f"validation column '{binding.validation}' must be 0/1")
            validations.append(flags.astype(bool))
        else:
            validations.append(None)

    validation = np.zeros((n, k), dtype=bool)
    for j in range(k):
        if validations[j] is not None:
            validation[:, j] = validations[j]
            has_actual = (
                np.zeros(n, dtype=bool) if actuals[j] is None else ~np.isnan(actuals[j])
            )
            bad = validation[:, j] & ~has_actual
            if np.any(bad):
                row = int(np.argmax(bad))
                raise ConfigError(
                    f"validation flag set but actual treatment missing at stage "
                    f"{j + 1} (first offending data row {row + 1})"
                )
        elif actuals[j] is not None:
            validation[:, j] = ~np.isnan(actuals[j])

    proxy_kind = config.plan.proxy_kind or "prescribed"
    prescribed = proxies if proxy_kind == "prescribed" else [None] * k
    reported = proxies if proxy_kind == "reported" else [None] * k

    try:
        data = Dataset(
            ids=range(n),
            stage_covariates=stage_covariates,
            prescribed=prescribed,
            actual=actuals,
            reported=reported,
            validation=validation,
            outcome=column(config.outcome),
        )
    except DataError as err:
        raise ConfigError(f"{path}: {err}") from err
    diagnostics = {
        "rows_total": len(rows),
        "rows_used": n,
        "rows_dropped_incomplete": dropped,
        "validation_rows_per_stage": [int(validation[:, j].sum()) for j in range(k)],
    }
    return data, diagnostics


def _add_analyze_parser(subparsers):
    p = subparsers.add_parser("analyze", help="fit a regime to a CSV dataset")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)


def cmd_analyze(args) -> int:
    config = load_analysis_config(Path(args.config))
    data, diagnostics = read_dataset_csv(config)
    plan = config.plan

    fit = plan.estimate(data)  # estimation failures -> exit 3 in main()

    intervals = None
    if config.inference_method == "wald-sandwich":
        intervals = regime_wald_intervals(data, fit, config.level)
    elif config.inference_method == "bootstrap":
        names = [f"psi{j}.{label}" for j, label in fit.parameter_labels()]
        intervals = bootstrap(
            data,
            plan.psi_estimator,
            config.bootstrap_replicates,
            level=config.level,
            seed=config.seed,
            names=names,
            point_estimates=psi_flat(fit),
            jobs=config.jobs,
        )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "fit.json", _fit_payload(config, fit, intervals, diagnostics))
    return 0


def _fit_payload(config, fit, intervals, diagnostics) -> dict:
    plan = fit.plan
    stages = []
    for j, spec in enumerate(plan.specs, start=1):
        nuis = fit.nuisance[j - 1]
        stage = {
            "stage": j,
            "contrast": {
                "terms": spec.contrast.term_labels(),
                "estimates": list(fit.psi[j - 1]),
            },
            "treatment_free": {
                "terms": spec.treatment_free.term_labels(),
                "estimates": list(nuis["beta"]),
            },
            "assignment": {
                "terms": spec.assignment.term_labels(),
                "estimates": list(nuis["gamma"]),
            },
        }
        if nuis["alpha"] is not None:
            stage["adherence"] = {
                "terms": spec.adherence.term_labels(),
                "estimates": list(nuis["alpha"]),
            }
        stages.append(stage)
    payload = {
        "mode": plan.mode,
        "proxy_kind": plan.proxy_kind,
        "exact_pseudo_outcomes": plan.exact_pseudo_outcomes,
        "stages": stages,
        "recommendation_rule": [
            {
                "stage": j,
                "terms": spec.contrast.term_labels(),
                "coefficients": list(fit.psi[j - 1]),
            }
            for j, spec in enumerate(plan.specs, start=1)
        ],
        "diagnostics": {**diagnostics, **fit.diagnostics},
    }
    if intervals is not None:
        payload["intervals"] = {
            "method": intervals.method,
            "level": intervals.level,
            "failed_replicates": intervals.n_failed,
            "parameters": intervals.rows(),
        }
    return payload


# ---------------------------------------------------------------------------
# sensitivity


def _add_sensitivity_parser(subparsers):
    p = subparsers.add_parser(
        "sensitivity", help="sweep fixed adherence coefficient vectors"
    )
    p.add_argument("config")
    p.add_argument("grid")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sensitivity)


def read_grid_csv(path: Path, models) -> list:
    if not path.exists():
        raise ConfigError(f"grid file not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty grid") from None
        rows = list(reader)
    width = len(header)
    for j, spec in enumerate(models, start=1):
        if spec.adherence is None:
            raise ConfigError(f"stage {j} has no adherence model for the sweep")
        if len(spec.adherence.terms) != width:
            raise ConfigError(
                f"grid has {width} columns but the stage-{j} adherence model has "
                f"{len(spec.adherence.terms)} terms"
            )
    grid = []
    for row_num, row in enumerate(rows, start=2):
        if len(row) != width:
            raise ConfigError(f"{path}: row {row_num} has {len(row)} fields, expected {width}")
        try:
            grid.append(np.array([float(v) for v in row], dtype=float))
        except ValueError:
            raise ConfigError(f"{path}: row {row_num}: non-numeric entry") from None
    if not grid:
        raise ConfigError(f"{path}: grid has no rows")
    return grid


def cmd_sensitivity(args) -> int:
    config = load_analysis_config(Path(args.config))
    plan = config.plan
    if not plan.is_modified:
        raise ConfigError("sensitivity sweeps require a modified mode")
    grid = read_grid_csv(Path(args.grid), plan.specs)
    data, diagnostics = read_dataset_csv(config)

    points = sensitivity_sweep(data, plan, grid)
    reference = next((p for p in points if p.fit is not None), None)
    if reference is None:
        print("sensitivity: every grid point failed", file=sys.stderr)
        return 3
    ref_recs = recommendations_matrix(reference.fit, data)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fh, writer = _open_csv_writer(out / "sweep.csv")
    with fh:
        writer.writerow(["point", "stage", "parameter", "estimate", "agreement"])
        for idx, point in enumerate(points):
            if point.fit is None:
                print(f"sensitivity: point {idx} failed: {point.error}", file=sys.stderr)
                continue
            recs = recommendations_matrix(point.fit, data)
            agreement = float(np.mean(recs == ref_recs))
            for j, spec in enumerate(plan.specs, start=1):
                for label, value in zip(spec.contrast.term_labels(), point.fit.psi[j - 1]):
                    writer.writerow(
                        [idx, j, label, _float_repr(value), _float_repr(agreement)]
                    )
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtr-adhere",
        description=(
            "Estimate optimal dynamic treatment regimes when recorded "
            "treatments are error-prone proxies of the treatments taken."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_simulate_parser(subparsers)
    _add_analyze_parser(subparsers)
    _add_sensitivity_parser(subparsers)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (FormulaError, DesignError, DataError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # estimation / numerical failures
        print(f"estimation failed: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
