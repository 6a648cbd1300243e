"""Command-line front end: simulation studies, CSV analyses, sensitivity sweeps.

Exit codes: 0 success, 2 configuration/user error, 3 estimation or statistical
failure.  All structured results are JSON (sorted keys, full double
precision); bulk tables are UTF-8 CSV with LF line endings.  Commands
validate all inputs before touching the output directory.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .gest import (
    ESTIMATION_FAILURES,
    AdherenceSource,
    EstimationPlan,
    StageModelSpec,
    psi_flat,
    recommendations_matrix,
    sensitivity_sweep,
    validate_stage_models,
)
from .inference import BootstrapError, bootstrap, regime_wald_intervals
from .model import DataError, Dataset, DesignError, FormulaError
from .simulation import ESTIMATORS, ReplicationError, ScenarioConfig, run_replications

SEED_ENV_VAR = "DTR_ADHERE_SEED"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Serialization helpers


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, payload):
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _float_repr(value) -> str:
    return repr(float(value))


def _open_csv_writer(path: Path):
    fh = open(path, "w", encoding="utf-8", newline="")
    return fh, csv.writer(fh, lineterminator="\n")


def _csv_cells(values) -> list:
    """A float column as CSV cells; a missing value (NaN) is an empty cell."""
    return ["" if math.isnan(v) else repr(v) for v in values.tolist()]


def write_dataset_csv(data: Dataset, path) -> dict:
    """Export a dataset with conventional column names; returns the per-stage
    column bindings in the shape the analyze config expects."""
    kind = data.default_proxy_kind() or "prescribed"
    suffix = "star" if kind == "prescribed" else "rep"
    header, columns, bindings = ["id"], [], []
    absent = np.full(data.n, np.nan)
    for j in range(1, data.n_stages + 1):
        covariates = {name: f"{name}{j}" for name in data.covariate_names}
        entry = {"covariates": covariates, "proxy": f"A{j}{suffix}", "actual": f"A{j}",
                 "validation": f"V{j}"}
        header.extend([*covariates.values(), entry["proxy"], entry["actual"], entry["validation"]])
        columns.extend(data.covariate(name, j) for name in data.covariate_names)
        for col in (data.proxy(j, kind), data.actual(j)):
            columns.append(absent if col is None else col)
        columns.append(data.validation[:, j - 1] * 1.0)
        bindings.append(entry)
    header.append("Y")
    columns.append(data.outcome)

    fh, writer = _open_csv_writer(Path(path))
    with fh:
        writer.writerow(header)
        writer.writerows(zip([str(i) for i in data.ids], *map(_csv_cells, columns)))
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
    try:
        config = ScenarioConfig(
            scenario=args.scenario,
            n=args.n,
            replications=args.reps,
            seed=_default_seed(args.seed),
            validation_fraction=args.validation,
            varied_param=args.param,
            estimators=tuple(e.strip() for e in args.estimators.split(",") if e.strip()),
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
    payload = asdict(config)
    # jobs is left out: outputs must not depend on the worker count
    del payload["jobs"]
    return {**payload, "version": __version__}


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

    def columns(self) -> list:
        """Every CSV column this stage reads."""
        return [*self.covariates.values(), self.proxy, *filter(None, (self.actual, self.validation))]


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


# How messages name each JSON type a config field may be required to have.
_JSON_KINDS = {int: "an integer", float: "a number", str: "a string", dict: "an object",
               list: "a list", bool: "a boolean"}


def _typed(value, kind, field: str):
    """``value`` if it is a JSON value of ``kind``: ``int`` takes a JSON
    integer, ``float`` any JSON number (returned as a float), ``bool`` only
    ``true``/``false``; a boolean is no other kind."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{field} must be {_JSON_KINDS[kind]}, got {value!r}")
    return float(value) if kind is float else value


def load_analysis_config(path: Path) -> AnalysisConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except ValueError as err:  # invalid JSON or not UTF-8
        raise ConfigError(f"config is not valid JSON: {err}") from err
    raw = _typed(raw, dict, "config")

    def need(key, kind):
        if key not in raw:
            raise ConfigError(f"config is missing '{key}'")
        return _typed(raw[key], kind, key)

    stages = need("stages", int)
    if stages < 1:
        raise ConfigError("stages must be >= 1")

    def per_stage(key):
        value = need(key, list)
        if len(value) != stages:
            raise ConfigError(f"{key} must be a list with one entry per stage")
        return value

    bindings = []
    for j, entry in enumerate(per_stage("stage_columns"), start=1):
        if not isinstance(entry, dict) or "proxy" not in entry:
            raise ConfigError(f"stage_columns entry {j} has no 'proxy' column")
        binding = StageBinding(
            covariates=_typed(entry.get("covariates", {}), dict,
                              f"stage_columns entry {j} covariates"),
            proxy=entry["proxy"],
            actual=entry.get("actual"),
            validation=entry.get("validation"),
        )
        if not all(isinstance(column, str) for column in binding.columns()):
            raise ConfigError(f"stage_columns entry {j}: column names must be strings")
        bindings.append(binding)

    models = []
    for j, entry in enumerate(per_stage("models"), start=1):
        entry = _typed(entry, dict, f"models entry {j}")
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

    mode = need("mode", str)
    adherence_raw = _typed(raw.get("adherence", {}), dict, "adherence")
    adherence = None
    # A standard mode takes no adherence block; the plan rejects one it is given.
    if mode.startswith("modified") or "adherence" in raw:
        kind = adherence_raw.get("kind", "fitted")
        # Both other kinds supply known coefficients; only "external" ones may
        # carry a covariance.
        takes = {"fitted": (), "sensitivity": ("coefficients",),
                 "external": ("coefficients", "covariance")}
        if not isinstance(kind, str) or kind not in takes:
            raise ConfigError(f"unsupported adherence kind {kind!r} in a config file")
        extra = sorted(adherence_raw.keys() - {"kind", *takes[kind]})
        if extra:
            raise ConfigError(f"adherence kind {kind!r} takes no {extra[0]!r}")
        try:
            adherence = (AdherenceSource.fitted() if kind == "fitted" else
                         AdherenceSource.known(coefficients=adherence_raw["coefficients"],
                                               covariance=adherence_raw.get("covariance")))
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"bad adherence block: {err}") from err

    inference_raw = _typed(raw.get("inference", {}), dict, "inference")
    method = inference_raw.get("method", "none")
    if method not in ("none", "wald-sandwich", "bootstrap"):
        raise ConfigError(f"unknown inference method {method!r}")
    level = _typed(inference_raw.get("level", 0.95), float, "inference.level")
    if not 0.0 < level < 1.0:
        raise ConfigError(f"inference.level must be in (0, 1), got {level!r}")
    replicates = _typed(inference_raw.get("replicates", 1000), int, "inference.replicates")
    if method == "bootstrap" and replicates < 2:
        raise ConfigError(f"inference.replicates must be >= 2 for bootstrap, got {replicates}")
    seed = _typed(raw["seed"] if "seed" in raw else _default_seed(None), int, "seed")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    jobs = _typed(raw.get("jobs", 1), int, "jobs")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    try:
        plan = EstimationPlan(
            specs=tuple(models),
            mode=mode,
            adherence=adherence,
            exact_pseudo_outcomes=_typed(raw.get("exact_pseudo_outcomes", False), bool,
                                         "exact_pseudo_outcomes"),
            proxy_kind=raw.get("proxy_kind"),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err

    input_path = Path(path).parent / need("input", str)  # an absolute input stays as it is

    return AnalysisConfig(
        input=str(input_path),
        stages=stages,
        outcome=need("outcome", str),
        stage_columns=bindings,
        plan=plan,
        inference_method=method,
        bootstrap_replicates=replicates,
        level=level,
        seed=seed,
        jobs=jobs,
    )


# Rows read and parsed at a time by the validating reader, which reads every
# file ``_read_complete`` does not.  Holding every cell of a large file as a
# Python string at once fragments the interpreter's small-object arenas, and a
# process that reads many files then grows by about a megabyte per n=50000 read.
CSV_CHUNK_ROWS = 4096


def _read_complete(path: Path, columns: list) -> Optional[np.ndarray]:
    """The file ``columns`` of the CSV at ``path`` as a (rows, columns) array
    read by numpy's C parser, or ``None`` unless that read is sure to equal
    the validating reader's: one row per data line and a finite number in
    every cell it reads.  A file with a quote, a carriage return that ends no
    CRLF or a line over the csv module's field size limit is left to that
    reader too, since ``csv.reader`` reads those differently from a split on
    commas."""
    raw = path.read_bytes()
    data = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    crlf = data[ends - 1] == ord("\r")  # the header is not empty, so no LF is byte 0
    lengths = np.diff(ends, prepend=-1, append=len(raw)) - 1  # the last: bytes after the last LF
    lengths[:-1] -= crlf
    if (b'"' in raw or np.count_nonzero(data == ord("\r")) != np.count_nonzero(crlf)
            or lengths.max() > csv.field_size_limit()
            or not lengths[1:].any()):  # no data line, or blank ones only: loadtxt would warn
        return None
    rows = len(ends) + (lengths[-1] > 0) - 1  # data lines, blank ones too
    del raw, data
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, usecols=columns, ndmin=2,
                           comments=None, encoding="utf-8")
    except ValueError:  # a cell that is not a number, a short row, or bad UTF-8
        return None
    if len(table) != rows or not np.isfinite(table).all():  # loadtxt skips blank lines
        return None
    return table


def _parse_column(path: Path, name: str, cells, first_row: int) -> np.ndarray:
    """One CSV column, whose first cell is on file row ``first_row``, as
    floats.  An empty cell is missing (NaN); any other cell must be a finite
    number."""
    try:
        values = np.array([float(text) if text.strip() else np.nan for text in cells])
        suspects = np.flatnonzero(~np.isfinite(values))
    except ValueError:  # a non-numeric cell: look at every cell for it
        suspects = range(len(cells))
    for i in suspects:
        text = cells[i].strip()
        try:
            if not text or math.isfinite(float(text)):
                continue
        except ValueError:
            pass
        raise ConfigError(f"{path}: row {i + first_row}, column '{name}': "
                          f"not a finite number: {text!r}")
    return values


def _read_validating(path: Path, reader, col_index: dict, names: list) -> dict:
    """The ``names`` columns of the data rows left in ``reader``, read a chunk
    of rows at a time and checked cell by cell; the place that names a bad
    row or cell."""
    width = 1 + max(col_index[name] for name in names)
    parts = {name: [] for name in names}
    first_row = 2  # the file row of the chunk's first data row
    while rows := list(itertools.islice(reader, CSV_CHUNK_ROWS)):
        for row_num, row in enumerate(rows, start=first_row):
            if len(row) < width:
                raise ConfigError(f"{path}: row {row_num} has too few fields")
        cells = list(zip(*rows))
        for name, chunks in parts.items():
            chunks.append(_parse_column(path, name, cells[col_index[name]], first_row))
        first_row += len(rows)
    if first_row == 2:
        raise ConfigError(f"{path}: no data rows")
    return {name: np.concatenate(chunks) for name, chunks in parts.items()}


def read_dataset_csv(config: AnalysisConfig):
    """Load and validate the bound CSV columns; complete-case filter.

    Rows missing any bound covariate, proxy, or the outcome are dropped (and
    counted); a missing actual treatment is allowed outside validation rows.
    A file whose bound cells are all filled is parsed in C; any other goes
    through the validating reader, which accepts the same files with the same
    values.  Returns (dataset, diagnostics dict).
    """
    path = Path(config.input)
    if not path.exists():
        raise ConfigError(f"input CSV not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError(f"{path}: empty CSV")
        col_index = {name: i for i, name in enumerate(header)}
        bound = [config.outcome] + [c for b in config.stage_columns for c in b.columns()]
        for name in bound:
            if name not in col_index:
                raise ConfigError(f"{path}: bound column '{name}' not in header")
        names = list(dict.fromkeys(bound))
        table = _read_complete(path, [col_index[name] for name in names])
        values = (_read_validating(path, reader, col_index, names) if table is None
                  else dict(zip(names, table.T)))
    rows_total = len(values[config.outcome])

    required = [config.outcome]
    for binding in config.stage_columns:
        required.extend([*binding.covariates.values(), binding.proxy])
    keep = ~np.any([np.isnan(values[name]) for name in required], axis=0)
    n, k = int(keep.sum()), config.stages
    if n == 0:
        raise ConfigError(f"{path}: no complete-case rows")
    kept = {name: column[keep] for name, column in values.items()}

    stage_covariates, proxies, actuals = [], [], []
    validation = np.zeros((n, k), dtype=bool)
    for j, binding in enumerate(config.stage_columns):
        stage_covariates.append({f: kept[c] for f, c in binding.covariates.items()})
        proxies.append(kept[binding.proxy])
        actuals.append(kept[binding.actual] if binding.actual else None)
        if binding.validation:
            flags = values[binding.validation]
            missing = np.isnan(values[binding.actual]) if binding.actual else True
            # checked on the file's rows, so the error names the file row
            for bad, fault in (
                (~np.isnan(flags) & (flags != 0.0) & (flags != 1.0), "validation flag must be 0/1"),
                (keep & (flags == 1.0) & missing,
                 f"validation flag set but actual treatment missing at stage {j + 1}"),
            ):
                if np.any(bad):
                    raise ConfigError(f"{path}: row {int(np.argmax(bad)) + 2}, column "
                                      f"'{binding.validation}': {fault}")
            validation[:, j] = kept[binding.validation] == 1.0
        elif binding.actual:
            validation[:, j] = ~np.isnan(actuals[j])

    proxy_kind = config.plan.proxy_kind or "prescribed"
    try:
        data = Dataset(
            ids=range(n),
            stage_covariates=stage_covariates,
            prescribed=proxies if proxy_kind == "prescribed" else [None] * k,
            actual=actuals,
            reported=proxies if proxy_kind == "reported" else [None] * k,
            validation=validation,
            outcome=kept[config.outcome],
        )
    except DataError as err:
        raise ConfigError(f"{path}: {err}") from err
    diagnostics = {
        "rows_total": rows_total,
        "rows_used": n,
        "rows_dropped_incomplete": rows_total - n,
        "validation_rows_per_stage": validation.sum(axis=0).tolist(),
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
    for j, (spec, psi, nuis) in enumerate(zip(plan.specs, fit.psi, fit.nuisance), start=1):
        blocks = {"contrast": psi, "treatment_free": nuis["beta"],
                  "assignment": nuis["gamma"], "adherence": nuis["alpha"]}
        stage = {"stage": j}
        for kind, estimates in blocks.items():
            if estimates is not None:
                stage[kind] = {"terms": getattr(spec, kind).term_labels(),
                               "estimates": list(estimates)}
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
            **intervals.diagnostics,
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
            point = np.array([float(v) for v in row], dtype=float)
            if not np.all(np.isfinite(point)):
                raise ValueError
        except ValueError:
            raise ConfigError(f"{path}: row {row_num}: every cell must be a finite number, "
                              f"got {row}") from None
        grid.append(point)
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
    reference = next((fit for fit, _ in points if fit is not None), None)
    if reference is None:
        print("sensitivity: every grid point failed", file=sys.stderr)
        return 3
    ref_recs = recommendations_matrix(reference, data)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fh, writer = _open_csv_writer(out / "sweep.csv")
    with fh:
        writer.writerow(["point", "stage", "parameter", "estimate", "agreement"])
        for idx, (fit, error) in enumerate(points):
            if fit is None:
                print(f"sensitivity: point {idx} failed: {error}", file=sys.stderr)
                continue
            recs = recommendations_matrix(fit, data)
            agreement = float(np.mean(recs == ref_recs))
            for j, spec in enumerate(plan.specs, start=1):
                for label, value in zip(spec.contrast.term_labels(), fit.psi[j - 1]):
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
    except (ConfigError, FormulaError, DesignError, DataError, OSError, UnicodeError,
            csv.Error) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ESTIMATION_FAILURES + (BootstrapError, ReplicationError) as err:
        print(f"estimation failed: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
