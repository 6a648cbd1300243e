"""Formula parsing, dataset validation, and design-row construction."""

import pickle

import numpy as np
import pytest

from dtr_adhere.model import (
    Constant,
    Covariate,
    DataError,
    Dataset,
    DesignError,
    FormulaError,
    TreatmentRef,
    build_design_matrix,
    compile_design,
    parse_feature_spec,
)
from dtr_adhere.simulation import generate_s1, scenario_plan

from row_copy import copy_rows, stack_datasets


def record(x1, x2, prescribed=(1, 1), actual=(1, 1), outcome=0.0):
    """One individual's two stages: covariate X, the treatments per stage
    (None where missing) and the outcome."""
    return (x1, x2), prescribed, actual, outcome


def dataset(*records, validation=None):
    """The two-stage Dataset of ``records``, built column by column."""
    xs, prescribed, actual, outcome = zip(*records)

    def column(values, j):
        return np.array([np.nan if v[j] is None else v[j] for v in values], dtype=float)

    return Dataset(
        stage_covariates=[{"X": column(xs, j)} for j in range(2)],
        proxy=[column(prescribed, j) for j in range(2)],
        proxy_kind="prescribed",
        actual=[column(actual, j) for j in range(2)],
        validation=validation,
        outcome=outcome,
    )


class TestParser:
    def test_constant_plus_covariate(self):
        spec = parse_feature_spec("1 + X[1]")
        assert len(spec.terms) == 2
        assert spec.terms[0].factors == (Constant(),)
        assert spec.terms[1].factors == (Covariate(name="X", stage=1),)

    def test_treatment_reference(self):
        spec = parse_feature_spec("1 + X[2] + A[1]")
        assert len(spec.terms) == 3
        assert spec.terms[2].factors == (TreatmentRef(stage=1, source="actual"),)

    def test_log_and_product(self):
        spec = parse_feature_spec("1 + log(C[1]) + U[1]*A[1]")
        assert len(spec.terms) == 3
        assert spec.terms[1].factors == (Covariate(name="C", stage=1, transform="log"),)
        assert spec.terms[2].factors == (
            Covariate(name="U", stage=1),
            TreatmentRef(stage=1, source="actual"),
        )

    def test_proxy_and_expected_tokens(self):
        spec = parse_feature_spec("Astar[2] + EA[1]")
        assert spec.terms[0].factors[0].source == "proxy"
        assert spec.terms[1].factors[0].source == "expected"

    def test_syntax_error_has_position(self):
        with pytest.raises(FormulaError) as err:
            parse_feature_spec("1 + X[1] +")
        assert err.value.position == 10

    @pytest.mark.parametrize(
        "text",
        ["", "  ", "X", "X[0]", "X[1] *", "log(A[1])", "1 ++ X[1]", "X[1]]", "log(X[1]"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(FormulaError):
            parse_feature_spec(text)

    @pytest.mark.parametrize("text, message, position", [
        (5, "formula must be a string, got 5", None),
        ("  ", "empty formula", 0),
        ("X", "expected '['", 1),
        ("X[", "expected a stage index", 2),
        ("X[0]", "stage indices start at 1", 3),
        ("X[1", "expected ']'", 3),
        ("log(X[1]", "expected ')'", 8),
        ("log(A[1])", "log() applies to covariates, not treatment references", 8),
        ("log( 1", "expected a covariate name", 5),
        ("1 ++ X[1]", "expected a covariate name", 3),
        ("X[1]]", "unexpected trailing input", 4),
        ("X[1] *", "expected a factor", 6),
    ])
    def test_error_names_what_was_expected_and_where(self, text, message, position):
        with pytest.raises(FormulaError) as err:
            parse_feature_spec(text)
        assert err.value.position == position
        assert str(err.value) == (message if position is None
                                  else f"{message} (position {position})")

    def test_round_trip(self):
        for text in (
            "1 + X[1]",
            "1 + X[2] + A[1]",
            "1 + log(C[1]) + U[1]*A[1]",
            "Astar[2] + EA[1]*X[3]*X[3]",
            "1 + X[1]*X[1] + Astar[1]",
        ):
            spec = parse_feature_spec(text)
            assert parse_feature_spec(str(spec)) == spec

    def test_round_trip_random_specs(self):
        rng = np.random.default_rng(0)
        names = ["X", "W", "age_1"]
        for _ in range(200):
            terms = []
            for _ in range(rng.integers(1, 4)):
                factors = []
                for _ in range(rng.integers(1, 3)):
                    kind = rng.integers(0, 4)
                    stage = int(rng.integers(1, 4))
                    if kind == 0:
                        factors.append("1")
                    elif kind == 1:
                        name = names[rng.integers(0, len(names))]
                        factors.append(f"{name}[{stage}]")
                    elif kind == 2:
                        name = names[rng.integers(0, len(names))]
                        factors.append(f"log({name}[{stage}])")
                    else:
                        token = ["A", "Astar", "EA"][rng.integers(0, 3)]
                        factors.append(f"{token}[{stage}]")
                terms.append("*".join(factors))
            text = " + ".join(terms)
            spec = parse_feature_spec(text)
            assert parse_feature_spec(str(spec)) == spec

    def test_stage_validation(self):
        spec = parse_feature_spec("1 + X[3]")
        with pytest.raises(DesignError):
            spec.validate_stage(2)
        spec = parse_feature_spec("1 + A[2]")
        with pytest.raises(DesignError):
            spec.validate_stage(2)  # current-stage treatment not allowed
        spec.validate_stage(2, allow_current_treatment=True)


class TestDataset:
    def test_shapes(self):
        data = dataset(record(1.0, 2.0), record(0.5, -1.0))
        assert data.n == 2
        assert data.n_stages == 2
        assert data.covariate_names == ("X",)
        np.testing.assert_allclose(data.covariate("X", 2), [2.0, -1.0])

    def test_rejects_unequal_stage_lists(self):
        with pytest.raises(DataError, match="stage-wise field lists must have equal length"):
            Dataset(stage_covariates=[{"X": [1.0]}, {"X": [2.0]}],
                    proxy=[[1.0]], proxy_kind="prescribed", actual=[None, None],
                    validation=None, outcome=[1.0])

    def test_rejects_stage_covariate_names_that_differ(self):
        with pytest.raises(DataError, match="stage 2 covariate names differ from stage 1"):
            Dataset(stage_covariates=[{"X": [1.0]}, {"Z": [0.0]}],
                    proxy=[[1.0], [1.0]], proxy_kind="prescribed", actual=[None, None],
                    validation=None, outcome=[1.0])

    @pytest.mark.parametrize("proxy, kind, message", [
        ([[1.0], None], None, "a recorded proxy's kind must be one of"),
        ([[1.0], [0.0]], "recorded", "a recorded proxy's kind must be one of"),
        ([None, None], "prescribed", "proxy_kind 'prescribed' given, but no stage records"),
    ], ids=["proxy-without-kind", "unknown-kind", "kind-without-proxy"])
    def test_a_proxy_and_its_kind_come_together(self, proxy, kind, message):
        with pytest.raises(DataError, match=message):
            Dataset(stage_covariates=[{"X": [1.0]}, {"X": [2.0]}], proxy=proxy, proxy_kind=kind,
                    actual=[None, None], validation=None, outcome=[1.0])

    def test_rejects_nonbinary_treatment(self):
        with pytest.raises(DataError):
            dataset(record(1.0, 2.0, prescribed=(2, 1)))

    def test_rejects_nonfinite_outcome(self):
        with pytest.raises(DataError):
            dataset(record(1.0, 2.0, outcome=np.inf))

    def test_validation_flag_requires_actual(self):
        flags = np.array([[True, True]])
        with pytest.raises(DataError):
            dataset(record(1.0, 1.0, actual=(None, 1)), validation=flags)

    def test_default_validation_from_actual(self):
        data = dataset(record(1.0, 1.0, prescribed=(1, 0), actual=(1, None)))
        assert data.validation.tolist() == [[True, False]]

    def test_subset_roundtrip(self):
        data = dataset(record(1.0, 2.0), record(3.0, 4.0))
        sub = copy_rows(data, [1, 1, 0])
        np.testing.assert_allclose(sub.covariate("X", 1), [3.0, 3.0, 1.0])

    def test_an_empty_subset_is_rejected(self):
        data = dataset(record(1.0, 2.0), record(3.0, 4.0))
        for empty in (slice(1, 1), slice(2, None)):
            with pytest.raises(DataError, match="^dataset has no trajectories$"):
                data.subset(empty)

    def test_a_stack_member_is_a_view_of_the_stack(self):
        """``stack.subset(i)`` is member i: dataset i's columns, (n,) and
        (n, K) flags, each a view of the stack's."""
        members = [generate_s1(30, 1.0, np.random.default_rng(k)) for k in range(3)]
        stack = stack_datasets(members)
        for i, data in enumerate(members):
            member = stack.subset(i)
            assert (member.n, member.validation.shape) == (30, (30, 2))
            for got, want, whole in zip(self.columns(member), self.columns(data),
                                        self.columns(stack)):
                np.testing.assert_array_equal(got, want)
                assert np.shares_memory(got, whole)

    def test_the_constructor_takes_a_stacks_columns(self):
        """``Dataset(...)`` on (b, n) columns is the stack of its members,
        its default validation flags included."""
        members = [dataset(record(1.0, 2.0, actual=(1, None)), record(3.0, 4.0)),
                   dataset(record(5.0, 6.0), record(7.0, 8.0, actual=(None, 0)))]
        fields = {kind: [np.stack([getattr(data, kind)(j) for data in members]) for j in (1, 2)]
                  for kind in ("proxy", "actual")}
        built = Dataset(stage_covariates=[{"X": np.stack([data.covariate("X", j)
                                                          for data in members])} for j in (1, 2)],
                        proxy_kind="prescribed", validation=None,
                        outcome=np.stack([data.outcome for data in members]), **fields)
        assert (built.n, built.n_stages, built.validation.shape) == (2, 2, (2, 2, 2))
        for got, want in zip(self.columns(built), self.columns(stack_datasets(members))):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("defect, message", [
        ("outcome", "^outcomes must be finite$"),
        ("proxy", "^prescribed treatment at stage 2 must be exactly 0 or 1 when present$"),
        ("validation", r"^validation flag set but actual treatment missing at stage 1 "
                       r"\(first offending row 3 of member 1\)$"),
        ("covariate", "^covariate 'X' at stage 1 has wrong length$"),
        ("flags", r"^validation flags must have shape \(n, stages\), or \(b, n, stages\)"),
        ("ndim", r"^outcomes must be \(n,\), or \(b, n\) on a stack$"),
    ])
    def test_a_stacks_columns_are_checked(self, defect, message):
        b, n = 2, 4
        outcome, proxy, actual = np.zeros((b, n)), np.ones((b, n)), np.ones((b, n))
        covariate, flags = np.zeros((b, n)), np.zeros((b, n, 2), dtype=bool)
        if defect == "outcome":
            outcome[1, 2] = np.nan
        elif defect == "proxy":
            proxy = [proxy, np.full((b, n), 0.5)]
        elif defect == "validation":
            actual[1, 2], flags[1, 2, 0] = np.nan, True
        elif defect == "covariate":
            covariate = np.zeros((b, n + 1))
        elif defect == "flags":
            flags = np.zeros((n, 2), dtype=bool)
        elif defect == "ndim":
            outcome = np.zeros((1, b, n))
        with pytest.raises(DataError, match=message):
            Dataset(stage_covariates=[{"X": covariate}, {"X": np.zeros((b, n))}],
                    proxy=proxy if isinstance(proxy, list) else [proxy, proxy],
                    proxy_kind="prescribed", actual=[actual, np.ones((b, n))],
                    validation=flags, outcome=outcome)

    def test_subset_takes_a_slice_or_a_member_only(self):
        data = dataset(record(1.0, 2.0), record(3.0, 4.0))
        for source in (data, stack_datasets([data, data])):
            for index in ([1, 0], np.array([0, 1]), np.arange(1), 1.0):
                with pytest.raises(TypeError):
                    source.subset(index)
        with pytest.raises(DataError, match="^an integer picks a member of a stacked dataset"):
            data.subset(0)

    def test_derived_datasets_are_not_validated_again(self, monkeypatch):
        """Members and windows take columns already validated, so neither
        runs ``__init__``; each keeps its source's schema."""
        data = dataset(record(1.0, 2.0), record(3.0, 4.0, actual=(None, 0)))
        stack = stack_datasets([data, data])
        calls = []
        monkeypatch.setattr(Dataset, "__init__", lambda *args, **kwargs: calls.append(args))
        derived = [stack.subset(1), data.subset(slice(0, 1)), stack.subset(slice(1, 2))]
        assert calls == []
        for out, n in zip(derived, (2, 1, 2)):
            assert (out.n, out.n_stages, out.covariate_names, out.proxy_kind) == (
                n, data.n_stages, data.covariate_names, data.proxy_kind)

    @staticmethod
    def columns(data):
        return [data.outcome, data.validation, *(
            col for j in (1, 2) for col in (data.covariate("X", j), data.proxy(j),
                                            data.actual(j)))]

    def test_columns_are_read_only_copies(self):
        x = np.random.default_rng(3).normal(size=50)
        first = x[0]
        data = Dataset(stage_covariates=[{"X": x}], proxy=[np.ones(50)], proxy_kind="prescribed",
                       actual=[None], validation=None, outcome=np.zeros(50))
        x[0] = 123.0  # the caller's array, not the dataset's
        assert data.covariate("X", 1)[0] == first
        with pytest.raises(ValueError, match="read-only"):
            data.outcome[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            data.validation[0, 0] = True

    def test_read_only_input_is_kept_as_it_is(self):
        outcome = np.zeros(50)
        outcome.flags.writeable = False
        data = Dataset(stage_covariates=[{"X": np.ones(50)}], proxy=[np.ones(50)],
                       proxy_kind="prescribed", actual=[None], validation=None, outcome=outcome)
        assert data.outcome is outcome

    def test_derived_and_unpickled_datasets_are_read_only(self):
        data = dataset(record(1.0, 2.0), record(3.0, 4.0, actual=(None, 0)))
        for derived in (data, data.subset(slice(1, 2)), stack_datasets([data, data]).subset(0),
                        stack_datasets([data, data]), pickle.loads(pickle.dumps(data))):
            assert not any(col.flags.writeable for col in self.columns(derived)
                           if col is not None)

    def test_a_fit_leaves_nothing_on_the_dataset(self):
        data = generate_s1(300, 1.0, np.random.default_rng(4))
        size = len(pickle.dumps(data))
        scenario_plan("s1", "modified-fitted").estimate(data)
        assert len(pickle.dumps(data)) == size


def column_major(x):
    """Whether each member of a design, (n, p) or (b, n, p), stores its
    columns one after another."""
    return np.swapaxes(x, -1, -2).flags.c_contiguous


def design_row(spec, one, stage, mode, **kwargs):
    """Design row of one ``record``: the design matrix of a one-row dataset."""
    return build_design_matrix(spec, dataset(one), stage, mode, **kwargs)[0]


class TestDesignRows:
    def test_constant_and_covariate(self):
        row = design_row(parse_feature_spec("1 + X[1]"), record(2.5, 0.0), 1, "use-actual")
        np.testing.assert_allclose(row, [1.0, 2.5])

    def test_expected_substitution(self):
        spec = parse_feature_spec("1 + X[2] + A[1]")
        row = design_row(
            spec, record(1.0, -0.3), 2, "use-expected", expected={1: np.array([0.95])}
        )
        np.testing.assert_allclose(row, [1.0, -0.3, 0.95])

    def test_actual_resolution(self):
        spec = parse_feature_spec("1 + X[2] + A[1]")
        row = design_row(spec, record(1.0, -0.3, actual=(1, 0)), 2, "use-actual")
        np.testing.assert_allclose(row, [1.0, -0.3, 1.0])

    def test_missing_actual_raises(self):
        spec = parse_feature_spec("A[1]")
        t = record(1.0, 2.0, actual=(None, None))
        with pytest.raises(DesignError):
            design_row(spec, t, 2, "use-actual")

    def test_log_of_nonpositive_raises(self):
        spec = parse_feature_spec("log(X[1])")
        with pytest.raises(DesignError):
            design_row(spec, record(-1.0, 2.0), 1, "use-actual")

    def test_unknown_covariate_raises(self):
        spec = parse_feature_spec("Z[1]")
        with pytest.raises(DesignError):
            design_row(spec, record(1.0, 2.0), 1, "use-actual")

    def test_missing_adherence_model_raises(self):
        spec = parse_feature_spec("EA[1]")
        with pytest.raises(DesignError):
            design_row(spec, record(1.0, 2.0), 2, "use-proxy")

    def test_matrix_matches_rows_and_is_order_free(self):
        spec = parse_feature_spec("1 + X[2] + A[1]*X[1]")
        records = [record(1.0, 2.0, actual=(1, 0)), record(-0.5, 0.25, actual=(0, 1))]
        data = dataset(*records)
        matrix = build_design_matrix(spec, data, 2, "use-actual")
        for i, t in enumerate(records):
            row = design_row(spec, t, 2, "use-actual")
            np.testing.assert_allclose(matrix[i], row)
        flipped = build_design_matrix(spec, copy_rows(data, [1, 0]), 2, "use-actual")
        np.testing.assert_allclose(flipped, matrix[::-1])

    def test_modes_agree_under_perfect_adherence(self):
        spec = parse_feature_spec("1 + X[2] + A[1]")
        data = dataset(
            record(0.3, 1.0, prescribed=(1, 0), actual=(1, 0)),
            record(1.4, -2.0, prescribed=(0, 1), actual=(0, 1)),
        )
        expected = {1: data.proxy(1), 2: data.proxy(2)}
        m_actual = build_design_matrix(spec, data, 2, "use-actual")
        m_proxy = build_design_matrix(spec, data, 2, "use-proxy")
        m_expected = build_design_matrix(spec, data, 2, "use-expected", expected=expected)
        np.testing.assert_array_equal(m_actual, m_proxy)
        np.testing.assert_array_equal(m_actual, m_expected)

    def test_treatment_override(self):
        spec = parse_feature_spec("1 + A[1]*X[1]")
        data = dataset(record(2.0, 1.0, actual=(0, 1)))
        forced = build_design_matrix(
            spec, data, 2, "use-actual", treatment_override={1: 1.0}
        )
        np.testing.assert_allclose(forced, [[1.0, 2.0]])


class TestCompiledDesign:
    SPEC = "1 + X[2] + A[1] + A[1]*A[1] + A[1]*X[1] + A[1]*A[2]*X[2] + Astar[1]*X[2]"

    @staticmethod
    def dataset():
        rng = np.random.default_rng(7)
        n = 6
        return Dataset(
            stage_covariates=[{"X": rng.normal(size=n)}, {"X": rng.normal(size=n)}],
            proxy=[rng.integers(0, 2, n).astype(float) for _ in range(2)],
            proxy_kind="prescribed",
            actual=[None, None],
            validation=None,
            outcome=np.zeros(n),
        )

    def test_evaluation_is_build_design_matrix(self):
        data, spec = self.dataset(), parse_feature_spec(self.SPEC)
        expected = {1: np.linspace(0.1, 0.9, 6), 2: np.linspace(0.8, 0.3, 6)}
        form = compile_design(spec, data, 2, "use-expected")
        np.testing.assert_array_equal(
            form.evaluate(expected), build_design_matrix(spec, data, 2, "use-expected",
                                                         expected=expected))
        assert form.expected_stages == ((), (), (1,), (1, 1), (1,), (1, 2), ())
        assert not form.base.flags.writeable
        # without an expected-treatment reference the base is the design
        proxy = compile_design(spec, data, 2, "use-proxy")
        assert proxy.evaluate() is proxy.base

    def test_partials_match_finite_differences(self):
        data, spec = self.dataset(), parse_feature_spec(self.SPEC)
        expected = {1: np.linspace(0.1, 0.9, 6), 2: np.linspace(0.8, 0.3, 6)}
        form = compile_design(spec, data, 2, "use-expected")
        for stage in (1, 2):
            analytic = np.zeros((data.n, len(spec)))
            for l, term, column in form.partials(expected):
                if l == stage:
                    analytic[:, term] += column
            h = 1e-6
            up = {**expected, stage: expected[stage] + h}
            down = {**expected, stage: expected[stage] - h}
            numeric = (build_design_matrix(spec, data, 2, "use-expected", expected=up)
                       - build_design_matrix(spec, data, 2, "use-expected", expected=down)) / (2 * h)
            np.testing.assert_allclose(analytic, numeric, rtol=0, atol=1e-8)
        # the squared term's derivative is 2 * pi_1
        squared = [column for l, term, column in form.partials(expected) if term == 3]
        np.testing.assert_allclose(squared[0], 2.0 * expected[1])

    def test_stacked_dataset_compiles_per_member(self):
        """On a stacked dataset the base, and so the design, is (b, n, p),
        member i's being the design of dataset i.  The members' own designs
        are not reused, and the stacked dataset keeps none."""
        data, spec = self.dataset(), parse_feature_spec(self.SPEC)
        perms = [np.random.default_rng(k).permutation(data.n) for k in range(3)]
        members = [copy_rows(data, p) for p in perms]
        for member in members:
            compile_design(spec, member, 2, "use-expected")
        expected = {1: np.linspace(0.1, 0.9, 6), 2: np.linspace(0.8, 0.3, 6)}
        stack = stack_datasets(members)
        form = compile_design(spec, stack, 2, "use-expected")
        assert form.base.shape == (3, data.n, len(spec)) and not form.base.flags.writeable
        assert compile_design(spec, stack, 2, "use-expected") is not form
        stacked = form.evaluate({stage: np.stack([col[p] for p in perms])
                                 for stage, col in expected.items()})
        for member, p, got in zip(members, perms, stacked):
            want = build_design_matrix(spec, member, 2, "use-expected",
                                       expected={s: col[p] for s, col in expected.items()})
            np.testing.assert_array_equal(got, want)

    def test_stacked_partials_are_each_members_own(self):
        """On a stacked dataset each partial column is (b, n), member i's
        being the column of dataset i's own design."""
        data, spec = self.dataset(), parse_feature_spec(self.SPEC)
        perms = [np.random.default_rng(k).permutation(data.n) for k in range(3)]
        members = [copy_rows(data, p) for p in perms]
        expected = {1: np.linspace(0.1, 0.9, 6), 2: np.linspace(0.8, 0.3, 6)}
        per_member = [{s: col[p] for s, col in expected.items()} for p in perms]
        stacked = compile_design(spec, stack_datasets(members), 2, "use-expected").partials(
            {s: np.stack([e[s] for e in per_member]) for s in expected})
        own = [compile_design(spec, member, 2, "use-expected").partials(e)
               for member, e in zip(members, per_member)]
        assert [(s, t) for s, t, _ in stacked] == [(s, t) for s, t, _ in own[0]]
        for k, (_, _, column) in enumerate(stacked):
            assert column.shape == (3, data.n)
            for i in range(3):
                np.testing.assert_array_equal(column[i], own[i][k][2])

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("spec", [SPEC, "1 + X[2] + Astar[1]*X[2]"])
    def test_every_design_is_column_major(self, stacked, spec):
        """Bases and evaluated designs store each column contiguously within
        a member, with or without expected treatments, shared or stacked."""
        data, spec = self.dataset(), parse_feature_spec(spec)
        expected = {1: np.linspace(0.1, 0.9, 6), 2: np.linspace(0.8, 0.3, 6)}
        if stacked:
            data = stack_datasets([data, copy_rows(data, np.arange(data.n)[::-1])])
            expected = {s: np.stack([col, col[::-1]]) for s, col in expected.items()}
        forms = [compile_design(spec, data, 2, mode) for mode in ("use-expected", "use-proxy")]
        designs = [form.base for form in forms] + [form.evaluate(expected) for form in forms]
        if not stacked:  # expected treatments per member, as in a bootstrap block
            designs.append(forms[0].evaluate({s: np.stack([col, col])
                                              for s, col in expected.items()}))
        for x in designs:
            assert x.shape[-1] == len(spec) and column_major(x), x.strides

    def test_each_call_compiles_afresh(self):
        """A dataset keeps no design: each call compiles a new, equal,
        read-only one."""
        data, spec = self.dataset(), parse_feature_spec(self.SPEC)
        form = compile_design(spec, data, 2, "use-expected")
        again = compile_design(spec, data, 2, "use-expected")
        assert again is not form and not np.shares_memory(again.base, form.base)
        np.testing.assert_array_equal(again.base, form.base)
        assert again.expected_stages == form.expected_stages
        assert not again.base.flags.writeable

    def test_subset_compiles_its_own_designs(self):
        data, spec = self.dataset(), parse_feature_spec(self.SPEC)
        form = compile_design(spec, data, 2, "use-expected")
        own = compile_design(spec, data.subset(slice(0, data.n)), 2, "use-expected")
        assert own is not form
        np.testing.assert_array_equal(own.base, form.base)

    def test_a_window_shares_columns(self):
        """A slice of rows is a window: its columns are views of the
        dataset's, and its designs equal those of a copy of the rows."""
        data, spec = self.dataset(), parse_feature_spec(self.SPEC)
        window, copy = data.subset(slice(1, 4)), copy_rows(data, np.arange(1, 4))
        assert np.shares_memory(window.outcome, data.outcome)
        assert np.shares_memory(window.covariate("X", 2), data.covariate("X", 2))
        np.testing.assert_array_equal(window.proxy(1), copy.proxy(1))
        for spec, mode in ((spec, "use-expected"), (parse_feature_spec("1 + X[1]"), "use-proxy")):
            got, want = (compile_design(spec, rows, 2, mode) for rows in (window, copy))
            np.testing.assert_array_equal(got.base, want.base)
            assert got.expected_stages == want.expected_stages

    @pytest.mark.parametrize("stacked", [False, True])
    def test_a_log_column_is_the_log_of_its_covariate(self, stacked):
        data = dataset(record(0.5, 2.0), record(3.0, 0.25), record(1.0, 7.5))
        if stacked:
            data = stack_datasets([data, copy_rows(data, [2, 0, 1])])
        base = compile_design(parse_feature_spec("1 + log(X[2])"), data, 2, "use-actual").base
        np.testing.assert_array_equal(base[..., 1], np.log(data.covariate("X", 2)))

    def test_missing_expected_treatment_raises_at_evaluation(self):
        form = compile_design(parse_feature_spec("1 + A[1]"), self.dataset(), 2, "use-expected")
        with pytest.raises(DesignError, match="no adherence model available for expected "
                                              "treatment at stage 1"):
            form.evaluate({2: np.ones(6)})


def test_public_names_resolve():
    import dtr_adhere

    missing = [name for name in dtr_adhere.__all__ if not hasattr(dtr_adhere, name)]
    assert missing == []
