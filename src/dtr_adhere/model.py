"""Longitudinal trajectory data and the formula mini-language for stage designs.

A trajectory is one individual's per-stage covariates, treatment indicators
(prescribed, actual, reported -- any subset may be recorded), and a terminal
numeric outcome where larger is better.  Model features are declared with a
small formula grammar::

    spec   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := '1' | NAME '[' INT ']' | 'log(' NAME '[' INT ']' ')'
            | 'A[' INT ']' | 'Astar[' INT ']' | 'EA[' INT ']'

``A[j]`` refers to the stage-j treatment and resolves according to the
substitution mode chosen when a design row is built: the actual treatment,
the recorded proxy, or the modeled probability that the treatment was taken.
``Astar[j]`` always resolves to the proxy and ``EA[j]`` always to the modeled
probability.  Covariate names are case-sensitive ``[A-Za-z_][A-Za-z0-9_]*``
tokens; ``A``, ``Astar`` and ``EA`` are reserved.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

RESERVED_NAMES = ("A", "Astar", "EA")

MODE_USE_ACTUAL = "use-actual"
MODE_USE_PROXY = "use-proxy"
MODE_USE_EXPECTED = "use-expected"
SUBSTITUTION_MODES = (MODE_USE_ACTUAL, MODE_USE_PROXY, MODE_USE_EXPECTED)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")


class FormulaError(ValueError):
    """Malformed formula text; carries the character position of the fault."""

    def __init__(self, message: str, position: Optional[int] = None):
        if position is not None:
            message = f"{message} (position {position})"
        super().__init__(message)
        self.position = position


class DataError(ValueError):
    """Trajectory data violating the shared-schema invariants."""


class DesignError(ValueError):
    """A feature spec cannot be evaluated against the given data."""


# ---------------------------------------------------------------------------
# Feature specifications


@dataclass(frozen=True)
class Constant:
    def label(self) -> str:
        return "1"


@dataclass(frozen=True)
class Covariate:
    name: str
    stage: int
    transform: str = "identity"  # identity | log

    def label(self) -> str:
        base = f"{self.name}[{self.stage}]"
        return f"log({base})" if self.transform == "log" else base


@dataclass(frozen=True)
class TreatmentRef:
    stage: int
    source: str = "actual"  # actual | proxy | expected

    def label(self) -> str:
        token = {"actual": "A", "proxy": "Astar", "expected": "EA"}[self.source]
        return f"{token}[{self.stage}]"


Factor = Union[Constant, Covariate, TreatmentRef]


@dataclass(frozen=True)
class Term:
    factors: tuple

    def label(self) -> str:
        return "*".join(f.label() for f in self.factors)


@dataclass(frozen=True)
class FeatureSpec:
    terms: tuple

    def __str__(self) -> str:
        return " + ".join(t.label() for t in self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def term_labels(self) -> list:
        return [t.label() for t in self.terms]

    def treatment_stages(self) -> set:
        out = set()
        for term in self.terms:
            for f in term.factors:
                if isinstance(f, TreatmentRef):
                    out.add(f.stage)
        return out

    def validate_stage(self, stage: int, *, allow_current_treatment: bool = False) -> None:
        """Check stage references against the stage the spec is used at."""
        for term in self.terms:
            for f in term.factors:
                if isinstance(f, Covariate) and f.stage > stage:
                    raise DesignError(
                        f"covariate {f.label()} references stage {f.stage} "
                        f"beyond current stage {stage}"
                    )
                if isinstance(f, TreatmentRef):
                    limit = stage if allow_current_treatment else stage - 1
                    if f.stage > limit:
                        raise DesignError(
                            f"treatment reference {f.label()} is not allowed at "
                            f"stage {stage}"
                        )


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str):
        raise FormulaError(message, position=self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eat(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.eat(literal):
            self.fail(f"expected '{literal}'")

    def parse_int(self) -> int:
        m = _INT_RE.match(self.text, self.pos)
        if not m:
            self.fail("expected a stage index")
        self.pos = m.end()
        return int(m.group(0))

    def parse_name(self) -> str:
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            self.fail("expected a covariate name")
        self.pos = m.end()
        return m.group(0)

    def parse_indexed(self, name: str, transform: str = "identity") -> Factor:
        self.expect("[")
        stage = self.parse_int()
        if stage < 1:
            self.fail("stage indices start at 1")
        self.expect("]")
        if name == "A":
            ref = TreatmentRef(stage=stage, source="actual")
        elif name == "Astar":
            ref = TreatmentRef(stage=stage, source="proxy")
        elif name == "EA":
            ref = TreatmentRef(stage=stage, source="expected")
        else:
            return Covariate(name=name, stage=stage, transform=transform)
        if transform == "log":
            self.fail("log() applies to covariates, not treatment references")
        return ref

    def parse_factor(self) -> Factor:
        self.skip_ws()
        if self.pos >= len(self.text):
            self.fail("expected a factor")
        if self.text[self.pos] == "1":
            self.pos += 1
            return Constant()
        if self.text.startswith("log(", self.pos):
            self.pos += 4
            self.skip_ws()
            name = self.parse_name()
            factor = self.parse_indexed(name, transform="log")
            self.skip_ws()
            self.expect(")")
            return factor
        name = self.parse_name()
        return self.parse_indexed(name)

    def parse_term(self) -> Term:
        factors = [self.parse_factor()]
        while True:
            self.skip_ws()
            if self.eat("*"):
                factors.append(self.parse_factor())
            else:
                return Term(factors=tuple(factors))

    def parse_spec(self) -> FeatureSpec:
        terms = [self.parse_term()]
        while True:
            self.skip_ws()
            if self.eat("+"):
                terms.append(self.parse_term())
            elif self.pos < len(self.text):
                self.fail("unexpected trailing input")
            else:
                return FeatureSpec(terms=tuple(terms))


def parse_feature_spec(text: str) -> FeatureSpec:
    """Parse formula text into an ordered FeatureSpec.

    Term order defines parameter order.  Raises FormulaError with a character
    position on malformed input.
    """
    if not isinstance(text, str):
        raise FormulaError(f"formula must be a string, got {text!r}")
    if not text.strip():
        raise FormulaError("empty formula", position=0)
    return _Parser(text).parse_spec()


# ---------------------------------------------------------------------------
# Trajectories and datasets


@dataclass(frozen=True)
class StageRecord:
    covariates: Mapping[str, float]
    prescribed: Optional[int] = None
    actual: Optional[int] = None
    reported: Optional[int] = None


@dataclass(frozen=True)
class Trajectory:
    id: object
    stages: tuple
    outcome: Optional[float] = None


def _check_binary(values: np.ndarray, what: str):
    present = ~np.isnan(values)
    bad = present & (values != 0.0) & (values != 1.0)
    if np.any(bad):
        raise DataError(f"{what} must be exactly 0 or 1 when present")


class Dataset:
    """Columnar store of trajectories sharing one stage count and schema.

    Treatment columns are float arrays with NaN marking absent values;
    ``validation`` is an (n, K) boolean mask of rows where the actual
    treatment is recorded.  Instances are immutable after construction and
    safe to share across workers.  ``Dataset.stack`` holds equal-size
    datasets as the members of a batched fit, with a leading member axis on
    every column.
    """

    def __init__(
        self,
        *,
        ids: Sequence,
        stage_covariates: Sequence[Mapping[str, np.ndarray]],
        prescribed: Sequence[Optional[np.ndarray]],
        actual: Sequence[Optional[np.ndarray]],
        reported: Sequence[Optional[np.ndarray]],
        validation: Optional[np.ndarray],
        outcome: np.ndarray,
    ):
        self._outcome = np.asarray(outcome, dtype=float)
        n = self._outcome.shape[0]
        if n == 0:
            raise DataError("dataset has no trajectories")
        if not np.all(np.isfinite(self._outcome)):
            raise DataError("outcomes must be finite")
        k = len(stage_covariates)
        if k == 0:
            raise DataError("stages must be nonempty")
        if not (len(prescribed) == len(actual) == len(reported) == k):
            raise DataError("stage-wise field lists must have equal length")

        self._ids = tuple(ids) if ids is not None else tuple(range(n))
        if len(self._ids) != n:
            raise DataError("ids and outcome lengths differ")

        names = tuple(sorted(stage_covariates[0].keys()))
        covs = []
        for j, mapping in enumerate(stage_covariates):
            if tuple(sorted(mapping.keys())) != names:
                raise DataError(
                    f"stage {j + 1} covariate names differ from stage 1; "
                    "ragged data are rejected"
                )
            stage_cols = {}
            for name, col in mapping.items():
                if name in RESERVED_NAMES:
                    raise DataError(f"covariate name '{name}' is reserved")
                arr = np.asarray(col, dtype=float)
                if arr.shape != (n,):
                    raise DataError(f"covariate '{name}' at stage {j + 1} has wrong length")
                stage_cols[name] = arr
            covs.append(stage_cols)

        def _treat(cols, what):
            out = []
            for j, col in enumerate(cols):
                if col is None:
                    out.append(None)
                    continue
                arr = np.asarray(col, dtype=float)
                if arr.shape != (n,):
                    raise DataError(f"{what} at stage {j + 1} has wrong length")
                _check_binary(arr, f"{what} treatment at stage {j + 1}")
                out.append(arr)
            return tuple(out)

        self._prescribed = _treat(prescribed, "prescribed")
        self._actual = _treat(actual, "actual")
        self._reported = _treat(reported, "reported")

        if validation is None:
            flags = np.zeros((n, k), dtype=bool)
            for j in range(k):
                if self._actual[j] is not None:
                    flags[:, j] = ~np.isnan(self._actual[j])
        else:
            flags = np.asarray(validation, dtype=bool)
            if flags.shape != (n, k):
                raise DataError("validation flags must have shape (n, stages)")
        for j in range(k):
            col = self._actual[j]
            has_actual = np.zeros(n, dtype=bool) if col is None else ~np.isnan(col)
            bad = flags[:, j] & ~has_actual
            if np.any(bad):
                raise DataError(
                    f"validation flag set but actual treatment missing at stage {j + 1} "
                    f"(first offending row {int(np.argmax(bad)) + 1})"
                )
        self._validation = flags
        self._covariates = tuple(covs)
        self._names = names
        self._n = n
        self._k = k

    # -- basic shape --------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def n_stages(self) -> int:
        return self._k

    @property
    def covariate_names(self) -> tuple:
        return self._names

    @property
    def outcome(self) -> np.ndarray:
        return self._outcome

    @property
    def validation(self) -> np.ndarray:
        return self._validation

    @property
    def ids(self) -> tuple:
        return self._ids

    # -- columns -------------------------------------------------------------

    def covariate(self, name: str, stage: int) -> np.ndarray:
        self._check_stage(stage)
        try:
            return self._covariates[stage - 1][name]
        except KeyError:
            raise DesignError(f"unknown covariate '{name}' at stage {stage}") from None

    def actual(self, stage: int) -> Optional[np.ndarray]:
        self._check_stage(stage)
        return self._actual[stage - 1]

    def prescribed(self, stage: int) -> Optional[np.ndarray]:
        self._check_stage(stage)
        return self._prescribed[stage - 1]

    def reported(self, stage: int) -> Optional[np.ndarray]:
        self._check_stage(stage)
        return self._reported[stage - 1]

    def proxy(self, stage: int, kind: str) -> Optional[np.ndarray]:
        if kind == "prescribed":
            return self.prescribed(stage)
        if kind == "reported":
            return self.reported(stage)
        raise ValueError(f"unknown proxy kind '{kind}'")

    def default_proxy_kind(self) -> Optional[str]:
        if all(col is not None for col in self._prescribed):
            return "prescribed"
        if all(col is not None for col in self._reported):
            return "reported"
        return None

    def _check_stage(self, stage: int):
        if not (1 <= stage <= self._k):
            raise DesignError(f"stage {stage} out of range (1..{self._k})")

    # -- construction and views ----------------------------------------------

    @classmethod
    def from_trajectories(cls, trajectories: Sequence[Trajectory], validation=None) -> "Dataset":
        trajs = list(trajectories)
        if not trajs:
            raise DataError("dataset has no trajectories")
        k = len(trajs[0].stages)
        n = len(trajs)

        def column(getter, stage):
            vals = [getter(t.stages[stage]) for t in trajs]
            if all(v is None for v in vals):
                return None
            return np.array([np.nan if v is None else float(v) for v in vals])

        for t in trajs:
            if len(t.stages) != k:
                raise DataError("all trajectories must share the same stage count")
            if t.outcome is None:
                raise DataError("trajectories in a dataset need an outcome")

        stage_covariates = []
        for j in range(k):
            names = set(trajs[0].stages[j].covariates.keys())
            for t in trajs:
                if set(t.stages[j].covariates.keys()) != names:
                    raise DataError("covariate names differ across trajectories")
            stage_covariates.append(
                {
                    name: np.array([float(t.stages[j].covariates[name]) for t in trajs])
                    for name in names
                }
            )
        return cls(
            ids=[t.id for t in trajs],
            stage_covariates=stage_covariates,
            prescribed=[column(lambda s: s.prescribed, j) for j in range(k)],
            actual=[column(lambda s: s.actual, j) for j in range(k)],
            reported=[column(lambda s: s.reported, j) for j in range(k)],
            validation=validation,
            outcome=np.array([float(t.outcome) for t in trajs]),
        )

    def trajectory(self, i: int) -> Trajectory:
        stages = []
        for j in range(self._k):
            def val(col):
                if col is None or np.isnan(col[i]):
                    return None
                return int(col[i])

            stages.append(
                StageRecord(
                    covariates={name: float(self._covariates[j][name][i]) for name in self._names},
                    prescribed=val(self._prescribed[j]),
                    actual=val(self._actual[j]),
                    reported=val(self._reported[j]),
                )
            )
        return Trajectory(id=self._ids[i], stages=tuple(stages), outcome=float(self._outcome[i]))

    @classmethod
    def stack(cls, datasets: Sequence["Dataset"]) -> "Dataset":
        """Equal-size datasets of one schema as the members of one batched
        fit: each column of the result is (b, n), member i's row r being row
        r of ``datasets[i]``, and its validation flags are (b, n, K).  Only
        the column accessors apply to it; it carries no ids."""
        first = datasets[0]

        def schema(data):
            return data.n, data.covariate_names, [
                col is None for cols in (data._prescribed, data._actual, data._reported)
                for col in cols]

        if any(schema(data) != schema(first) for data in datasets):
            raise DataError("stacked datasets must share their size and schema")

        def stacked(columns):
            return None if columns[0] is None else np.stack(columns)

        out = cls.__new__(cls)
        out.__dict__.update(vars(first))  # the shape and the names
        out._ids = None
        out._outcome = np.stack([data._outcome for data in datasets])
        out._validation = np.stack([data._validation for data in datasets])
        for kind in ("_prescribed", "_actual", "_reported"):
            columns = zip(*(getattr(data, kind) for data in datasets))  # stage by stage
            setattr(out, kind, tuple(map(stacked, columns)))
        out._covariates = tuple(
            {name: np.stack([cols[name] for cols in stage]) for name in first._names}
            for stage in zip(*(data._covariates for data in datasets)))
        return out

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices)

        def take(col):
            return None if col is None else col[idx]

        return Dataset(
            ids=[self._ids[i] for i in idx],
            stage_covariates=[
                {name: cols[name][idx] for name in self._names} for cols in self._covariates
            ],
            prescribed=[take(c) for c in self._prescribed],
            actual=[take(c) for c in self._actual],
            reported=[take(c) for c in self._reported],
            validation=self._validation[idx],
            outcome=self._outcome[idx],
        )


# ---------------------------------------------------------------------------
# Design matrices


def _resolve_source(source: str, mode: str) -> str:
    if source != "actual":
        return source
    return {
        MODE_USE_ACTUAL: "actual",
        MODE_USE_PROXY: "proxy",
        MODE_USE_EXPECTED: "expected",
    }[mode]


@dataclass(frozen=True)
class CompiledDesign:
    """A FeatureSpec evaluated on one dataset up to its expected treatments.

    Column ``t`` of the design is ``base[:, t]`` times ``expected[l]`` for each
    stage ``l`` in ``expected_stages[t]``, a multiset (``EA[1]*EA[1]`` lists
    stage 1 twice).  The base columns, the product of a term's covariate,
    proxy, actual and override factors, do not depend on the adherence model,
    so a design compiled once is evaluated at any expected treatments.
    """

    base: np.ndarray  # (n, p), or (b, n, p) on a stacked dataset; read-only
    expected_stages: tuple  # per term, a tuple of stages

    def evaluate(self, expected: Optional[Mapping[int, np.ndarray]] = None) -> np.ndarray:
        """The design matrix at ``expected``; the read-only base itself when
        no term multiplies in an expected treatment.  Expected treatments
        given per member, (b, n), make the design per member, (b, n, p); a
        base compiled on a stacked dataset is per member already."""
        if not any(self.expected_stages):
            return self.base
        used = [stage for stages in self.expected_stages for stage in stages]
        for stage in used:
            if expected is None or stage not in expected:
                raise DesignError(
                    f"no adherence model available for expected treatment at "
                    f"stage {stage}"
                )
        rows = np.broadcast_shapes(self.base.shape[:-1],
                                   *(np.shape(expected[stage]) for stage in used))
        out = np.empty(rows + self.base.shape[-1:])
        out[...] = self.base
        for t, stages in enumerate(self.expected_stages):
            for stage in stages:
                out[..., t] *= expected[stage]
        return out

    def partials(self, expected: Mapping[int, np.ndarray]) -> list:
        """``(stage, term, column)`` for each expected treatment a term
        multiplies in, ``column`` being the derivative of the design's column
        ``term`` over ``expected[stage]`` (the product rule, so a repeated
        stage contributes its multiplicity)."""
        out = []
        for t, stages in enumerate(self.expected_stages):
            for stage in sorted(set(stages)):
                rest = list(stages)
                rest.remove(stage)
                column = stages.count(stage) * self.base[:, t]
                for other in rest:
                    column = column * expected[other]
                out.append((stage, t, column))
        return out


def compile_design(
    spec: FeatureSpec,
    data: Dataset,
    stage: int,
    mode: str,
    *,
    proxy_kind: Optional[str] = None,
    treatment_override: Optional[Mapping[int, float]] = None,
) -> CompiledDesign:
    """Compile a FeatureSpec on ``data`` at ``stage`` under a substitution mode.

    Every reference that resolves to the expected-treatment source is left
    for ``CompiledDesign.evaluate``; everything else is checked and
    multiplied into the base columns here.  ``treatment_override`` pins the
    treatment at given stages to a fixed value regardless of source.
    """
    if mode not in SUBSTITUTION_MODES:
        raise ValueError(f"unknown substitution mode '{mode}'")
    spec.validate_stage(stage, allow_current_treatment=True)
    if proxy_kind is None:
        proxy_kind = data.default_proxy_kind()
    rows, p = data.outcome.shape, len(spec.terms)
    if len(rows) == 1:
        base = np.ones((*rows, p))
    else:  # stored column by column within each member, the layout the batched products favour
        base = np.swapaxes(np.ones((*rows[:-1], p, rows[-1])), -1, -2)
    expected_stages = []
    for t, term in enumerate(spec.terms):
        value = base[..., t]  # a view: each factor multiplies in place
        stages = []
        for f in term.factors:
            if isinstance(f, Constant):
                continue
            if isinstance(f, Covariate):
                col = data.covariate(f.name, f.stage)
                if f.transform == "log":
                    if np.any(col <= 0.0):
                        raise DesignError(f"log of non-positive value in {f.label()}")
                    col = np.log(col)
                value *= col
                continue
            # treatment reference
            if treatment_override is not None and f.stage in treatment_override:
                value *= float(treatment_override[f.stage])
                continue
            resolved = _resolve_source(f.source, mode)
            if resolved == "actual":
                col = data.actual(f.stage)
                if col is None or np.any(np.isnan(col)):
                    raise DesignError(
                        f"actual treatment missing at stage {f.stage} under use-actual"
                    )
            elif resolved == "proxy":
                if proxy_kind is None:
                    raise DesignError("no proxy treatment column available")
                col = data.proxy(f.stage, proxy_kind)
                if col is None or np.any(np.isnan(col)):
                    raise DesignError(
                        f"{proxy_kind} treatment missing at stage {f.stage}"
                    )
            else:  # expected: multiplied in when the design is evaluated
                stages.append(f.stage)
                continue
            value *= col
        expected_stages.append(tuple(stages))
    base.flags.writeable = False
    return CompiledDesign(base=base, expected_stages=tuple(expected_stages))


def build_design_matrix(
    spec: FeatureSpec,
    data: Dataset,
    stage: int,
    mode: str,
    *,
    proxy_kind: Optional[str] = None,
    expected: Optional[Mapping[int, np.ndarray]] = None,
    treatment_override: Optional[Mapping[int, float]] = None,
) -> np.ndarray:
    """Evaluate a FeatureSpec over every trajectory, one row per individual.

    ``expected`` supplies the modeled probability that each past treatment was
    taken, keyed by stage; it is required whenever a reference resolves to the
    expected-treatment source.  ``treatment_override`` pins the treatment at
    given stages to a fixed value regardless of source.  The result may be
    read-only.
    """
    return compile_design(
        spec, data, stage, mode, proxy_kind=proxy_kind, treatment_override=treatment_override
    ).evaluate(expected)
