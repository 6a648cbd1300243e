"""Longitudinal trajectory data and the formula mini-language for stage designs.

A trajectory is one individual's per-stage covariates, a terminal numeric
outcome where larger is better and two treatment indicators, either of which
may be unrecorded: the treatment actually taken and its recorded proxy.  A
dataset holds one kind of proxy, named by ``Dataset.proxy_kind``: a
prescription or a patient report.  Model features are declared with a small
formula grammar::

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

import operator
import re
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

# The treatment tokens of the grammar and the source each one reads.
_TREATMENT_SOURCES = {"A": "actual", "Astar": "proxy", "EA": "expected"}
_TREATMENT_TOKENS = {source: token for token, source in _TREATMENT_SOURCES.items()}
RESERVED_NAMES = tuple(_TREATMENT_SOURCES)

MODE_USE_ACTUAL = "use-actual"
MODE_USE_PROXY = "use-proxy"
MODE_USE_EXPECTED = "use-expected"
# The source an ``A[j]`` reference reads under each substitution mode.
_MODE_SOURCES = {MODE_USE_ACTUAL: "actual", MODE_USE_PROXY: "proxy",
                 MODE_USE_EXPECTED: "expected"}
SUBSTITUTION_MODES = tuple(_MODE_SOURCES)
PROXY_KINDS = ("prescribed", "reported")


class FormulaError(ValueError):
    """Malformed formula text; carries the character position of the fault."""

    def __init__(self, message: str, position: Optional[int] = None):
        if position is not None:
            message = f"{message} (position {position})"
        super().__init__(message)
        self.position = position


class DataError(ValueError):
    """Data violating the shared-schema invariants."""


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
        return f"{_TREATMENT_TOKENS[self.source]}[{self.stage}]"


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


def parse_feature_spec(text: str) -> FeatureSpec:
    """Parse formula text into an ordered FeatureSpec.

    Term order defines parameter order.  Raises FormulaError with a character
    position on malformed input.
    """
    if not isinstance(text, str):
        raise FormulaError(f"formula must be a string, got {text!r}")
    if not text.strip():
        raise FormulaError("empty formula", position=0)
    pos, terms, factors = 0, [], []

    def take(pattern: str, what: Optional[str] = None) -> Optional[str]:
        """The text ``pattern`` matches at ``pos``, which then moves past it;
        on no match, ``None``, or a FormulaError ``what`` when one is given."""
        nonlocal pos
        match = re.compile(pattern).match(text, pos)
        if match is None:
            if what is None:
                return None
            raise FormulaError(what, position=pos)
        pos = match.end()
        return match.group()

    while True:
        take(r"\s*")
        if pos == len(text):
            raise FormulaError("expected a factor", position=pos)
        if take("1"):
            factors.append(Constant())
        else:
            log = take(r"log\(\s*")
            name = take("[A-Za-z_][A-Za-z0-9_]*", "expected a covariate name")
            take(r"\[", "expected '['")
            stage = int(take("[0-9]+", "expected a stage index"))
            if stage < 1:
                raise FormulaError("stage indices start at 1", position=pos)
            take(r"\]", "expected ']'")
            if name not in _TREATMENT_SOURCES:
                factors.append(Covariate(name, stage, "log" if log else "identity"))
            elif log:
                raise FormulaError("log() applies to covariates, not treatment references",
                                   position=pos)
            else:
                factors.append(TreatmentRef(stage, _TREATMENT_SOURCES[name]))
            if log:
                take(r"\s*")
                take(r"\)", "expected ')'")
        take(r"\s*")
        separator = take(r"[*+]|\Z", "unexpected trailing input")
        if separator != "*":  # a term ends
            terms.append(Term(factors=tuple(factors)))
            factors = []
        if not separator:
            return FeatureSpec(terms=tuple(terms))


# ---------------------------------------------------------------------------
# Datasets


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only in place; for arrays nothing else holds."""
    array.flags.writeable = False
    return array


def _read_only(values, dtype=float) -> np.ndarray:
    """``values`` as a read-only array: a read-only array is kept as it is,
    anything else is copied, so no later write by the caller reaches it."""
    array = np.asarray(values, dtype=dtype)
    return _frozen(array.copy()) if array.flags.writeable else array


def _check_binary(values: np.ndarray, what: str):
    present = ~np.isnan(values)
    bad = present & (values != 0.0) & (values != 1.0)
    if np.any(bad):
        raise DataError(f"{what} must be exactly 0 or 1 when present")


class Dataset:
    """Columnar store of trajectories sharing one stage count and schema.

    Treatment columns are float arrays with NaN marking absent values;
    ``proxy_kind`` names the kind of the ``proxy`` columns, one of
    PROXY_KINDS, and is ``None`` exactly when no stage records a proxy.
    ``validation`` is an (n, K) boolean mask of rows where the actual
    treatment is recorded.  Instances are immutable after construction: every
    column is a read-only array (a writeable input is copied), so instances
    are safe to share across workers.  A stack holds equal-size datasets as
    the members of a batched fit, with a leading member axis on every column:
    ``Dataset.stack`` stacks built datasets, and the constructor takes
    stacked columns, (b, n) with (b, n, K) validation flags, and checks them
    all at once.
    """

    def __init__(
        self,
        *,
        stage_covariates: Sequence[Mapping[str, np.ndarray]],
        proxy: Sequence[Optional[np.ndarray]],
        proxy_kind: Optional[str],
        actual: Sequence[Optional[np.ndarray]],
        validation: Optional[np.ndarray],
        outcome: np.ndarray,
    ):
        self._outcome = _read_only(outcome)
        if self._outcome.ndim not in (1, 2):
            raise DataError("outcomes must be (n,), or (b, n) on a stack")
        rows, n = self._outcome.shape, self._outcome.shape[-1]
        if self._outcome.size == 0:
            raise DataError("dataset has no trajectories")
        if not np.all(np.isfinite(self._outcome)):
            raise DataError("outcomes must be finite")
        k = len(stage_covariates)
        if k == 0:
            raise DataError("stages must be nonempty")
        if not (len(proxy) == len(actual) == k):
            raise DataError("stage-wise field lists must have equal length")

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
                arr = _read_only(col)
                if arr.shape != rows:
                    raise DataError(f"covariate '{name}' at stage {j + 1} has wrong length")
                stage_cols[name] = arr
            covs.append(stage_cols)

        def _treat(cols, what):
            out = []
            for j, col in enumerate(cols):
                if col is None:
                    out.append(None)
                    continue
                arr = _read_only(col)
                if arr.shape != rows:
                    raise DataError(f"{what} at stage {j + 1} has wrong length")
                _check_binary(arr, f"{what} treatment at stage {j + 1}")
                out.append(arr)
            return tuple(out)

        if any(col is not None for col in proxy):
            if proxy_kind not in PROXY_KINDS:
                raise DataError(f"a recorded proxy's kind must be one of {PROXY_KINDS}, "
                                f"got {proxy_kind!r}")
        elif proxy_kind is not None:
            raise DataError(f"proxy_kind {proxy_kind!r} given, but no stage records a proxy")
        self._proxy_kind = proxy_kind
        self._proxy = _treat(proxy, proxy_kind)
        self._actual = _treat(actual, "actual")

        if validation is None:
            flags = np.zeros((*rows, k), dtype=bool)
            for j in range(k):
                if self._actual[j] is not None:
                    flags[..., j] = ~np.isnan(self._actual[j])
            _frozen(flags)
        else:
            flags = _read_only(validation, dtype=bool)
            if flags.shape != (*rows, k):
                raise DataError("validation flags must have shape (n, stages), "
                                "or (b, n, stages) on a stack")
        for j in range(k):
            col = self._actual[j]
            has_actual = np.zeros(rows, dtype=bool) if col is None else ~np.isnan(col)
            bad = flags[..., j] & ~has_actual
            if np.any(bad):
                member, row = divmod(int(np.argmax(bad)), n)
                where = f"row {row + 1}" + (f" of member {member}" if bad.ndim == 2 else "")
                raise DataError(
                    f"validation flag set but actual treatment missing at stage {j + 1} "
                    f"(first offending {where})"
                )
        self._validation = flags
        self._covariates = tuple(covs)
        self._names = names
        self._n = n
        self._k = k

    def __setstate__(self, state):
        vars(self).update(state)
        for column in self._columns():  # unpickled arrays come back writeable
            column.flags.writeable = False

    def _columns(self):
        yield self._outcome
        yield self._validation
        for columns in (self._proxy, self._actual):
            yield from (col for col in columns if col is not None)
        for stage in self._covariates:
            yield from stage.values()

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
    def proxy_kind(self) -> Optional[str]:
        return self._proxy_kind

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

    def proxy(self, stage: int) -> Optional[np.ndarray]:
        self._check_stage(stage)
        return self._proxy[stage - 1]

    def _check_stage(self, stage: int):
        if not (1 <= stage <= self._k):
            raise DesignError(f"stage {stage} out of range (1..{self._k})")

    # -- construction and views ----------------------------------------------

    @classmethod
    def _of_columns(cls, *, outcome, validation, proxy, proxy_kind, actual,
                    covariates) -> "Dataset":
        """A dataset of read-only columns taken from validated ones, views of
        one dataset's (``subset``) or equal-size datasets' stacked
        (``stack``), so ``__init__``'s checks are not run again."""
        out = cls.__new__(cls)
        out._outcome, out._validation = outcome, validation
        out._proxy_kind, out._proxy, out._actual = proxy_kind, tuple(proxy), tuple(actual)
        out._covariates = tuple(covariates)
        out._names = tuple(sorted(out._covariates[0]))
        out._n, out._k = outcome.shape[-1], len(out._covariates)
        return out

    @classmethod
    def stack(cls, datasets: Sequence["Dataset"]) -> "Dataset":
        """Equal-size datasets of one schema as the members of one batched
        fit: each column of the result is (b, n), member i's row r being row
        r of ``datasets[i]``, and its validation flags are (b, n, K).  Only
        the column accessors and ``subset`` apply to it.  The members share
        one proxy kind."""
        if not datasets:
            raise DataError("a stack needs at least one dataset")
        first = datasets[0]

        def schema(data):
            return data.n, data.covariate_names, data.proxy_kind, [
                col is None for cols in (data._proxy, data._actual) for col in cols]

        if any(schema(data) != schema(first) for data in datasets):
            raise DataError("stacked datasets must share their size and schema")

        def stacked(columns):
            return None if columns[0] is None else _frozen(np.stack(columns))

        return cls._of_columns(
            outcome=stacked([data._outcome for data in datasets]),
            validation=stacked([data._validation for data in datasets]),
            proxy=map(stacked, zip(*(data._proxy for data in datasets))),  # stage by stage
            proxy_kind=first.proxy_kind,
            actual=map(stacked, zip(*(data._actual for data in datasets))),
            covariates=[{name: stacked([cols[name] for cols in stage]) for name in first._names}
                        for stage in zip(*(data._covariates for data in datasets))],
        )

    def subset(self, index) -> "Dataset":
        """A view: ``index``, a slice or an integer, indexes the leading axis
        of every column, so the result's columns share this dataset's.  A
        slice of at least one row is a window (the sandwich's row blocks; on
        a stack, of members); an integer picks one member of a stack, with
        (n,) columns and (n, K) validation flags.  An index array raises
        ``TypeError``: a ``Dataset`` built from indexed columns copies rows."""
        if not isinstance(index, slice):
            index = operator.index(index)  # an index array raises TypeError
            if self._outcome.ndim == 1:
                raise DataError("an integer picks a member of a stacked dataset, "
                                "and this dataset is not stacked")

        def take(col):
            return None if col is None else col[index]  # read-only, as its base

        outcome = take(self._outcome)
        if outcome.shape[0] == 0:
            raise DataError("dataset has no trajectories")
        return self._of_columns(
            outcome=outcome,
            validation=take(self._validation),
            proxy=map(take, self._proxy),
            proxy_kind=self._proxy_kind,
            actual=map(take, self._actual),
            covariates=[{name: take(cols[name]) for name in self._names}
                        for cols in self._covariates],
        )


# ---------------------------------------------------------------------------
# Design matrices


@dataclass(frozen=True)
class CompiledDesign:
    """A FeatureSpec evaluated on one dataset up to its expected treatments.

    Column ``t`` of the design is ``base[..., t]`` times ``expected[l]`` for
    each stage ``l`` in ``expected_stages[t]``, a multiset (``EA[1]*EA[1]``
    lists stage 1 twice).  The base columns, the product of a term's
    covariate, proxy, actual and override factors, do not depend on the
    adherence model, so a design compiled once is evaluated at any expected
    treatments.  Each column is contiguous within a member: the fits and the
    sandwich read designs by column (``x^T v``, ``(y a)^T x``).
    """

    base: np.ndarray  # (n, p), or (b, n, p) on a stacked dataset; read-only
    expected_stages: tuple  # per term, a tuple of stages

    def evaluate(self, expected: Optional[Mapping[int, np.ndarray]] = None) -> np.ndarray:
        """The design matrix at ``expected``, laid out as the base; the base
        itself when no term multiplies in an expected treatment.  Expected
        treatments given per member, (b, n), make the design per member,
        (b, n, p); a base compiled on a stacked dataset is per member already."""
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
        out = np.swapaxes(np.empty((*rows[:-1], self.base.shape[-1], rows[-1])), -1, -2)
        out[...] = self.base
        for t, stages in enumerate(self.expected_stages):
            for stage in stages:
                out[..., t] *= expected[stage]
        return out

    def partials(self, expected: Mapping[int, np.ndarray]) -> list:
        """``(stage, term, column)`` for each expected treatment a term
        multiplies in, ``column`` being the derivative of the design's column
        ``term`` over ``expected[stage]`` (the product rule, so a repeated
        stage contributes its multiplicity): (n,), or (b, n) per member."""
        out = []
        for t, stages in enumerate(self.expected_stages):
            for stage in sorted(set(stages)):
                rest = list(stages)
                rest.remove(stage)
                column = stages.count(stage) * self.base[..., t]
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
    treatment_override: Optional[Mapping[int, float]] = None,
) -> CompiledDesign:
    """Compile a FeatureSpec on ``data`` at ``stage`` under a substitution mode.

    Every reference that resolves to the expected-treatment source is left
    for ``CompiledDesign.evaluate``; everything else is checked and
    multiplied into the base columns here.  ``treatment_override`` pins the
    treatment at given stages to a fixed value regardless of source.  Each
    call compiles afresh; a caller that asks again for a design keeps it.
    """
    if mode not in SUBSTITUTION_MODES:
        raise ValueError(f"unknown substitution mode '{mode}'")
    spec.validate_stage(stage, allow_current_treatment=True)
    rows, p = data.outcome.shape, len(spec.terms)
    # column by column within each member, one layout for shared and stacked datasets alike
    base = np.swapaxes(np.ones((*rows[:-1], p, rows[-1])), -1, -2)
    expected_stages = []
    for t, term in enumerate(spec.terms):
        value = base[..., t]  # a contiguous view: each factor multiplies in place
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
            resolved = _MODE_SOURCES[mode] if f.source == "actual" else f.source
            if resolved == "actual":
                col = data.actual(f.stage)
                if col is None or np.any(np.isnan(col)):
                    raise DesignError(
                        f"actual treatment missing at stage {f.stage} under use-actual"
                    )
            elif resolved == "proxy":
                if data.proxy_kind is None:
                    raise DesignError("no proxy treatment column available")
                col = data.proxy(f.stage)
                if col is None or np.any(np.isnan(col)):
                    raise DesignError(f"{data.proxy_kind} treatment missing at stage {f.stage}")
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
    return compile_design(spec, data, stage, mode,
                          treatment_override=treatment_override).evaluate(expected)
