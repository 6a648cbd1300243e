"""Generator mechanism fidelity, truth recovery, and the replication engine."""

import dataclasses
import hashlib

import numpy as np
import pytest

from dtr_adhere import gest, simulation
from dtr_adhere.glm import expit
from dtr_adhere.gest import psi_flat, tally
from dtr_adhere.model import MODE_USE_PROXY, Dataset, compile_design
from dtr_adhere.simulation import (
    ESTIMATORS,
    SCENARIOS,
    ReplicationError,
    ScenarioConfig,
    generate_s1,
    generate_s3,
    generate_s4,
    known_adherence,
    run_replications,
    scenario_block,
    scenario_models,
    scenario_plan,
    scenario_truth,
)

from row_copy import stack_datasets


def binned_rate_check(x, flag, prob, n_bins=10, n_sigma=4.0):
    """Empirical rate of ``flag`` within covariate bins vs the mechanism
    probability averaged over the same rows."""
    edges = np.quantile(x, np.linspace(0, 1, n_bins + 1))
    for lo, hi in zip(edges[:-1], edges[1:]):
        rows = (x >= lo) & (x <= hi)
        if rows.sum() < 50:
            continue
        p = prob[rows].mean()
        se = np.sqrt(max(p * (1 - p), 1e-12) / rows.sum())
        assert abs(flag[rows].mean() - p) < n_sigma * se + 1e-9


class TestGenerateS1:
    def test_determinism(self):
        a = generate_s1(500, 1.0, np.random.default_rng(9))
        b = generate_s1(500, 1.0, np.random.default_rng(9))
        np.testing.assert_array_equal(a.outcome, b.outcome)
        np.testing.assert_array_equal(a.covariate("X", 2), b.covariate("X", 2))
        np.testing.assert_array_equal(a.validation, b.validation)

    def test_mechanism_fidelity(self):
        data = generate_s1(1_000_000, 1.0, np.random.default_rng(77))
        for j, sd in ((1, 1.0), (2, 2.0)):
            x = data.covariate("X", j)
            assert abs(x.mean() - 1.0) < 0.01 and abs(x.std() - sd) < 0.01
            astar = data.proxy(j)
            binned_rate_check(x, astar, expit(x))
            a = data.actual(j)
            for value in (0.0, 1.0):
                rows = astar == value
                binned_rate_check(
                    x[rows], a[rows], expit(-4.6 - 0.83 * x[rows] + 7.5 * value)
                )

    def test_misclassification_rates(self):
        # The mechanism gives miss rates of about 0.01 (unprescribed) and 0.05
        # (prescribed) at covariate value 0; the population-averaged rates are
        # larger for the prescribed arm.  Frozen from a 4M-draw oracle run.
        assert expit(-4.6) == pytest.approx(0.00995, abs=2e-5)
        assert 1.0 - expit(-4.6 + 7.5) == pytest.approx(0.0522, abs=2e-4)
        data = generate_s1(1_000_000, 0.0, np.random.default_rng(5))
        astar, a = data.proxy(1), data.actual(1)
        m0 = np.mean(a[astar == 0])
        m1 = np.mean(1.0 - a[astar == 1])
        assert m0 == pytest.approx(0.0094, abs=0.001)
        assert m1 == pytest.approx(0.1583, abs=0.004)

    def test_zero_coupling_removes_lag_effect(self):
        data = generate_s1(200_000, 0.0, np.random.default_rng(3))
        c2 = 1.0 + data.covariate("X", 2)
        a1 = data.actual(1)
        slope = np.cov(c2, a1)[0, 1] / np.var(a1)
        assert abs(slope) < 0.02

    def test_validation_fraction(self):
        data = generate_s1(10_000, 0.0, np.random.default_rng(1), validation_fraction=0.3)
        assert data.validation[:, 0].sum() == 3000
        np.testing.assert_array_equal(data.validation[:, 0], data.validation[:, 1])

    def test_standard_actual_recovery(self):
        plan = scenario_plan("s1", "standard-actual")
        draws = []
        for seed in range(4):
            rng = np.random.default_rng(np.random.SeedSequence(2024, spawn_key=(seed,)))
            draws.append(psi_flat(plan.estimate(generate_s1(500_000, 1.0, rng))))
        np.testing.assert_allclose(
            np.mean(draws, axis=0), [1.0, 1.0, 1.0, 1.0, 1.0], atol=0.02
        )


class TestGenerateS3:
    def test_assignment_marginals_match_oracle(self):
        data = generate_s3(1_000_000, np.random.default_rng(15))
        # independent Monte Carlo oracle for E[expit(0.5 + X1)], X1 ~ N(1, 1)
        oracle_rng = np.random.default_rng(1234)
        z = oracle_rng.normal(1.0, 1.0, 2_000_000)
        target1 = expit(0.5 + z).mean()
        assert abs(data.proxy(1).mean() - target1) < 0.002
        z2 = oracle_rng.normal(1.0, 2.0, 2_000_000)
        target2 = expit(-0.5 + z2).mean()
        assert abs(data.proxy(2).mean() - target2) < 0.002

    def test_truth_recovery_modified_known(self):
        # the direct 0.5 A1 outcome effect lands in the stage-1 intercept
        plan = scenario_plan("s3", "modified-known")
        draws = []
        for seed in range(6):
            rng = np.random.default_rng(np.random.SeedSequence(31, spawn_key=(seed,)))
            draws.append(psi_flat(plan.estimate(generate_s3(400_000, rng))))
        np.testing.assert_allclose(
            np.mean(draws, axis=0), scenario_truth("s3", 0.0), atol=0.02
        )


class TestGenerateS4:
    def test_reporting_mechanism_values(self):
        data = generate_s4(1_000_000, 0.0, np.random.default_rng(44))
        x, a, rep = data.covariate("X", 1), data.actual(1), data.proxy(1)
        at = (x == 1.0) & (a == 1.0)
        af = (x == 1.0) & (a == 0.0)
        se_t = np.sqrt(0.85 * 0.15 / at.sum())
        se_f = np.sqrt(0.10 * 0.90 / af.sum())
        assert abs(rep[at].mean() - 0.85) < 4 * se_t
        assert abs(rep[af].mean() - 0.10) < 4 * se_f

    def test_treatment_prevalence(self):
        data = generate_s4(1_000_000, 0.0, np.random.default_rng(45))
        x, a = data.covariate("X", 1), data.actual(1)
        rows = x == -1.0
        se = np.sqrt(0.2 * 0.8 / rows.sum())
        assert abs(a[rows].mean() - 0.2) < 4 * se
        assert set(np.unique(x)) == {-1.0, 0.0, 1.0}

    def test_reported_mode_recovery(self):
        plan = scenario_plan("s4", "modified-known")
        draws = []
        for seed in range(4):
            rng = np.random.default_rng(np.random.SeedSequence(888, spawn_key=(seed,)))
            draws.append(psi_flat(plan.estimate(generate_s4(500_000, 1.0, rng))))
        np.testing.assert_allclose(
            np.mean(draws, axis=0), [1.0, 1.0, 1.0, 1.0], atol=0.02
        )

    def test_proxy_kind_is_reported(self):
        data = generate_s4(100, 0.0, np.random.default_rng(0))
        assert data.proxy_kind == "reported"


def _binomial_rows(rngs, p):
    """The draws ``_bernoulli`` must reproduce: generator i's
    ``binomial(1, p[i])``, as floats."""
    return np.array([rng.binomial(1, row) for rng, row in zip(rngs, p)], dtype=float)


def _generators(count, seed):
    return [np.random.default_rng([seed, i]) for i in range(count)]


# p values at the edges of numpy's inversion rule: none drawn at 0 (and -0.0),
# the p <= 0.5 branch at 0.5 and the other just above it, q rounding to 1
# (1e-300, subnormals), and the largest p below 1
EDGE_PROBABILITIES = (0.0, -0.0, 1.0, 0.5, np.nextafter(0.5, 1.0), 1e-300, 5e-324,
                      2.5e-310, 1.0 - 2.0 ** -53)


class _StubFill:
    """A generator whose uniform fill puts ``value`` at ``column`` of what it
    draws, and that counts its ``binomial`` calls; its bit generator, and so
    its state, is ``rng``'s."""

    def __init__(self, rng, column=None, value=None):
        self.rng, self.column, self.value, self.binomial_calls = rng, column, value, 0

    @property
    def bit_generator(self):
        return self.rng.bit_generator

    def random(self, size=None, out=None):
        drawn = self.rng.random(size, out=out)
        if self.column is not None:
            drawn[self.column] = self.value
        return drawn

    def binomial(self, n, p):
        self.binomial_calls += 1
        return self.rng.binomial(n, p)


class TestBernoulli:
    """``_bernoulli`` draws what ``Generator.binomial(1, p)`` draws, row by
    row, and leaves every generator in the state that call leaves it in."""

    @staticmethod
    def probabilities(b, n, seed, edges=(), spread=False):
        """(b, n) uniform p; a quarter of it values from ``edges``, and the
        last row one of them throughout; with ``spread``, another quarter
        expit of N(0, 10^2), which saturates to 0 and 1."""
        rng = np.random.default_rng(seed)
        p = rng.random((b, n))
        if spread:
            where = rng.random((b, n)) < 0.25
            p[where] = expit(rng.normal(0.0, 10.0, np.count_nonzero(where)))
        if edges:
            where = rng.random((b, n)) < 0.25
            p[where] = rng.choice(edges, np.count_nonzero(where))
            p[-1] = edges[rng.integers(len(edges))]
        return p

    @pytest.mark.parametrize("edges, spread", [(EDGE_PROBABILITIES[2:], False),
                                               (EDGE_PROBABILITIES, True)],
                             ids=["no-zero", "with-zeros"])
    def test_draws_and_states_equal_binomial_over_a_million_draws(self, edges, spread):
        p = self.probabilities(20, 25_000, len(edges), edges, spread)
        # a block with no p == 0 is decided by its fills; in one with some,
        # the rows holding a zero are drawn again by binomial
        assert (p == 0.0).any() == spread
        for seed in (0, 1):
            ours, theirs = _generators(20, seed), _generators(20, seed)
            drawn = simulation._bernoulli(ours, p)
            assert drawn.dtype == float
            np.testing.assert_array_equal(drawn, _binomial_rows(theirs, p))
            for mine, reference in zip(ours, theirs):
                assert mine.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("bad", [np.nan, -1e-300, -0.5, np.nextafter(1.0, 2.0), 2.0])
    def test_a_bad_p_raises_numpys_error_before_any_draw(self, bad):
        p = np.full((3, 5), 0.3)
        p[2, 4] = bad
        with pytest.raises(ValueError) as theirs:
            np.random.default_rng(0).binomial(1, p[2])
        rngs = _generators(3, 9)
        states = [rng.bit_generator.state for rng in rngs]
        with pytest.raises(ValueError) as ours:
            simulation._bernoulli(rngs, p)
        assert str(ours.value) == str(theirs.value) == "p < 0, p > 1 or p contains NaNs"
        assert [rng.bit_generator.state for rng in rngs] == states

    @pytest.mark.parametrize("offset", [0.0, 2.0 ** -50, -(2.0 ** -49), None],
                             ids=["at-q", "above-q", "below-q", "top"])
    def test_a_uniform_in_the_window_redraws_its_row_by_binomial(self, offset):
        """Row 1's fill holds one uniform within the margin of q (or at the
        top of [0, 1)): that row, and only it, is drawn by ``binomial`` from
        its generator's state before the fill."""
        p = self.probabilities(4, 300, 11)
        column = 17
        q = max(p[1, column], 1.0 - p[1, column])
        value = 1.0 - 2.0 ** -53 if offset is None else q + offset
        rngs = [_StubFill(rng) for rng in _generators(4, 3)]
        rngs[1].column, rngs[1].value = column, value
        drawn = simulation._bernoulli(rngs, p)
        assert [rng.binomial_calls for rng in rngs] == [0, 1, 0, 0]
        reference = _generators(4, 3)
        np.testing.assert_array_equal(drawn, _binomial_rows(reference, p))
        for rng, expected in zip(rngs, reference):
            assert rng.bit_generator.state == expected.bit_generator.state

    def test_a_uniform_clear_of_the_window_decides_its_draw(self):
        p = np.full((1, 4), 0.3)
        q = 1.0 - 0.3
        for value, draw in ((q + 2.0 ** -48, 1.0), (q - 2.0 ** -48, 0.0)):
            rng = _StubFill(np.random.default_rng(0), 2, value)
            assert simulation._bernoulli([rng], p)[0, 2] == draw
            assert rng.binomial_calls == 0


GENERATORS = {
    "s1": lambda rng: generate_s1(50, 1.0, rng),
    "s3": lambda rng: generate_s3(50, rng),
    "s4": lambda rng: generate_s4(50, 1.0, rng),
}


def column_digest(data):
    """A digest of every column of a two-stage dataset, in a fixed order."""
    digest = hashlib.sha256()
    for j in (1, 2):
        for col in (data.covariate("X", j), data.actual(j), data.proxy(j)):
            if col is not None:
                digest.update(np.ascontiguousarray(col).tobytes())
    digest.update(data.validation.tobytes())
    digest.update(data.outcome.tobytes())
    return digest.hexdigest()[:16]


class TestGeneratedDatasets:
    @pytest.mark.parametrize("scenario", sorted(GENERATORS))
    def test_the_dataset_keeps_the_generated_arrays(self, monkeypatch, scenario):
        """The generators freeze what they generate, so ``Dataset`` keeps
        each array it is handed instead of copying it.  A generator draws a
        block of one generator, so its dataset is the one member of that
        stack: views of the arrays the stack keeps."""
        handed = []

        def spy(**fields):
            handed.append((fields, Dataset(**fields)))
            return handed[-1][1]

        monkeypatch.setattr(simulation, "Dataset", spy)
        data = GENERATORS[scenario](np.random.default_rng(1))
        ((fields, stack),) = handed
        pairs = [(data.outcome, stack.outcome, fields["outcome"]),
                 (data.validation, stack.validation, fields["validation"])]
        for j in (1, 2):
            pairs.append((data.covariate("X", j), stack.covariate("X", j),
                          fields["stage_covariates"][j - 1]["X"]))
            pairs.extend((getattr(data, kind)(j), getattr(stack, kind)(j), fields[kind][j - 1])
                         for kind in ("proxy", "actual"))
        for member, kept, handed_over in pairs:
            assert kept is handed_over and kept.shape[0] == 1
            assert member.base is kept and np.array_equal(member, kept[0])

    @pytest.mark.parametrize("n", [0, -3])
    @pytest.mark.parametrize("generate", [
        lambda n, rng: generate_s1(n, 1.0, rng),
        lambda n, rng: generate_s3(n, rng),
        lambda n, rng: generate_s4(n, 1.0, rng),
        # a block checks n before its first generator draws
        lambda n, rng: simulation._s1_block(n, 1.0, [rng, np.random.default_rng(5)], 0.3),
        lambda n, rng: simulation._s3_block(n, [rng, np.random.default_rng(5)], 0.2),
        lambda n, rng: simulation._reported_scenario(n, 1.0, [rng, np.random.default_rng(5)],
                                                     0.3),
    ], ids=["s1", "s3", "s4", "s1-block", "s3-block", "s4-block"])
    def test_a_size_below_one_is_rejected_before_any_draw(self, generate, n):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^n must be positive, got {n}$"):
            generate(n, rng)
        assert rng.bit_generator.state == state

    def test_seeded_columns_are_unchanged(self):
        # digests of the columns the generators drew before they froze them,
        # and before they drew a block of generators at once
        digests = {"s1": "d24ef320b0d89124", "s3": "079f65d4ab16b08b",
                   "s4": "7814720385100aa6"}
        for scenario, generate in GENERATORS.items():
            assert column_digest(generate(np.random.default_rng(2024))) == digests[scenario]
        edges = {(2, 0.3): {"s1": "ad62205d80369d7b", "s3": "5ee18cb8b616dc45",
                            "s4": "69f01258e47ce352"},
                 (37, 1.0): {"s1": "429b5b44b6f4a20a", "s3": "dd316b71eaf9235c",
                             "s4": "c4b29395adde0424"}}
        for (n, fraction), expected in edges.items():
            drawn = {"s1": generate_s1(n, 1.0, np.random.default_rng(2024), fraction),
                     "s3": generate_s3(n, np.random.default_rng(2024), fraction),
                     "s4": generate_s4(n, 1.0, np.random.default_rng(2024), fraction)}
            assert {name: column_digest(data) for name, data in drawn.items()} == expected

    @pytest.mark.parametrize("b", [1, 3, 20])
    @pytest.mark.parametrize("n,fraction", [(150, 0.3), (2, 0.3), (37, 1.0)])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_a_blocks_members_are_their_generators_datasets(self, scenario, n, fraction, b):
        """Member i of a block has, column by column, the bytes of the
        dataset drawn alone from generator i."""
        config = ScenarioConfig(scenario=scenario, n=n, replications=b, seed=8,
                                validation_fraction=fraction,
                                varied_param=0.0 if scenario == "s2" else 1.0)

        def streams():
            return [np.random.default_rng(np.random.SeedSequence(entropy=8, spawn_key=(r,)))
                    for r in range(b)]

        stack = scenario_block(config, streams())
        assert stack.outcome.shape == (b, n) and stack.validation.shape == (b, n, 2)
        for i, rng in enumerate(streams()):
            member, alone = stack.subset(i), scenario_block(config, [rng]).subset(0)
            for got, want in zip(self.columns(member), self.columns(alone)):
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                                  want.tobytes())
            assert member.validation.sum(axis=0).tolist() == [max(1, round(fraction * n))] * 2

    @staticmethod
    def columns(data):
        return [data.outcome, data.validation, *(
            col for j in (1, 2) for col in (data.covariate("X", j), data.proxy(j),
                                            data.actual(j)))]


def _cells(x, proxy_kind) -> Dataset:
    """A two-stage dataset with one row per (X, proxy) cell of ``x`` x {0, 1},
    the same cells at both stages."""
    x, proxy = np.repeat(x, 2), np.tile([0.0, 1.0], len(x))
    return Dataset(stage_covariates=[{"X": x}] * 2, proxy=[proxy] * 2, proxy_kind=proxy_kind,
                   actual=[None, None], validation=None, outcome=np.zeros(x.size))


def _prescribed_adherence(x, prescribed):
    """s1 and s3: the treatment is taken with probability
    expit(-4.6 - 0.83 X + 7.5 A*)."""
    return 1.0 / (1.0 + np.exp(4.6 + 0.83 * x - 7.5 * prescribed))


def _reported_adherence(x, reported):
    """s4: P(A=1 | X) = 0.5 + 0.3 X, and the treatment is reported taken with
    probability 0.9 - 0.05 X when taken, 0.05 + 0.045 X + 0.005 X^2 when
    not; P(A=1 | X, report) by Bayes' rule."""
    taken, report_if_taken = 0.5 + 0.3 * x, 0.9 - 0.05 * x
    report_if_not = 0.05 + 0.045 * x + 0.005 * x * x
    joint1 = taken * np.where(reported == 1.0, report_if_taken, 1.0 - report_if_taken)
    joint0 = (1.0 - taken) * np.where(reported == 1.0, report_if_not, 1.0 - report_if_not)
    return joint1 / (joint1 + joint0)


class TestKnownAdherence:
    # scenario -> (the covariate values of its cells, proxy kind, true adherence)
    CELLS = {"s1": (np.linspace(-3.0, 5.0, 9), "prescribed", _prescribed_adherence),
             "s3": (np.linspace(-3.0, 5.0, 9), "prescribed", _prescribed_adherence),
             "s4": (np.array([-1.0, 0.0, 1.0]), "reported", _reported_adherence)}

    @pytest.mark.parametrize("scenario", sorted(CELLS))
    def test_each_scenarios_known_source_reproduces_its_generator(self, scenario):
        """``known_adherence`` evaluated through the plan's own adherence
        design gives the generator's probability that the treatment was
        taken, at every (X, proxy) cell and both stages; on s4 the six-term
        spec gives each of the six cells its own log odds."""
        x, kind, truth = self.CELLS[scenario]
        data = _cells(x, kind)
        coefficients = known_adherence(scenario).coefficients
        for j, spec in enumerate(scenario_plan(scenario, "modified-known").specs, start=1):
            design = compile_design(spec.adherence, data, j, MODE_USE_PROXY).evaluate()
            np.testing.assert_allclose(expit(design @ coefficients[j - 1]),
                                       truth(data.covariate("X", j), data.proxy(j)),
                                       rtol=0.0, atol=1e-12)


class TestScenarioModels:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("as_treated", [False, True])
    def test_parsed_once_and_handed_out_fresh(self, monkeypatch, scenario, as_treated):
        first = scenario_models(scenario, as_treated=as_treated)
        assert first == list(simulation._scenario_models.__wrapped__(scenario, as_treated, False))
        first[0] = None  # a caller's edit to its list
        first.append(None)

        def parse(*_):
            raise AssertionError("a scenario's models were parsed twice")

        monkeypatch.setattr(gest, "parse_feature_spec", parse)
        second = scenario_models(scenario, as_treated=as_treated)
        assert second is not first and None not in second
        assert second == scenario_models(scenario, as_treated=as_treated)
        assert len(second) == 2

    def test_unknown_scenario_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown scenario 's9'"):
                scenario_models("s9")


class TestPseudoOutcomeIdentity:
    def test_conditional_mean_of_stage2_pseudo_outcome(self):
        """With true parameters plugged in, the stage-2 pseudo outcome's mean
        given the stage-1 observables equals treatment-free plus adherence
        probability times contrast; checked on binned means."""
        n = 400_000
        data = generate_s1(n, 0.0, np.random.default_rng(67))
        x1, x2 = data.covariate("X", 1), data.covariate("X", 2)
        astar1, astar2 = data.proxy(1), data.proxy(2)
        pi2 = expit(-4.6 - 0.83 * x2 + 7.5 * astar2)
        c2 = 1.0 + x2
        v2 = data.outcome + ((c2 > 0) - pi2) * c2
        pi1 = expit(-4.6 - 0.83 * x1 + 7.5 * astar1)
        prediction = np.minimum(x1, -1.0) + pi1 * (1.0 + x1)
        edges = np.quantile(x1, np.linspace(0, 1, 11))
        for value in (0.0, 1.0):
            arm = astar1 == value
            for lo, hi in zip(edges[:-1], edges[1:]):
                rows = arm & (x1 >= lo) & (x1 <= hi)
                if rows.sum() < 500:
                    continue
                se = v2[rows].std() / np.sqrt(rows.sum())
                assert abs(v2[rows].mean() - prediction[rows].mean()) < 5 * se


class TestRunReplications:
    def config(self, **kw):
        base = dict(scenario="s1", n=400, replications=12, seed=99,
                    validation_fraction=0.3, varied_param=0.0,
                    estimators=("modified-fitted", "naive-proxy"))
        base.update(kw)
        return ScenarioConfig(**base)

    def test_determinism(self):
        one = run_replications(self.config())
        two = run_replications(self.config())
        for name in one.estimates:
            np.testing.assert_array_equal(one.estimates[name], two.estimates[name])

    def test_jobs_do_not_change_results(self):
        serial = run_replications(self.config())
        parallel = run_replications(self.config(jobs=2))
        for name in serial.estimates:
            np.testing.assert_array_equal(serial.estimates[name], parallel.estimates[name])
            np.testing.assert_array_equal(serial.replicate_indices[name],
                                          parallel.replicate_indices[name])
        assert serial.failures == parallel.failures

    @pytest.mark.parametrize("values, statistic", [
        ((1.7e308, 1.7e308), "mean"), ((1e200, -1e200), "variance"),
        ((1e154, 0.0), "mse_x100")])
    def test_a_statistic_past_the_double_range_fails(self, values, statistic):
        summary = run_replications(self.config(replications=2, estimators=("naive-proxy",)))
        estimates = np.zeros((2, 5))
        estimates[:, 1] = values
        summary = dataclasses.replace(summary, estimates={"naive-proxy": estimates})
        with pytest.raises(ReplicationError) as err:
            summary.statistics()
        assert str(err.value) == (f"estimator 'naive-proxy': the {statistic} of stage-1 "
                                  "parameter 'X[1]' is not finite")

    def test_mse_decomposition(self):
        summary = run_replications(self.config())
        stats = summary.statistics()
        for name, block in stats.items():
            values = summary.estimates[name]
            for p, row in enumerate(block["parameters"]):
                recomputed = 100.0 * np.mean((values[:, p] - summary.truth[p]) ** 2)
                assert row["mse_x100"] == pytest.approx(recomputed, abs=1e-12)
                assert row["mse_x100"] == pytest.approx(
                    100.0 * (row["bias"] ** 2 + row["variance"]), abs=1e-9
                )

    def test_coverage_attached_when_requested(self):
        summary = run_replications(
            self.config(replications=6, estimators=("modified-fitted",), coverage=True)
        )
        rows = summary.statistics()["modified-fitted"]["parameters"]
        assert all("coverage" in r for r in rows)
        assert all(0.0 <= r["coverage"] <= 1.0 for r in rows)

    def test_coverage_intervals_read_the_blocks_stack(self, monkeypatch):
        """Each replicate's Wald intervals read its member of its block's
        stack, a view: a coverage block keeps its columns once."""
        stacks, seen = [], []
        block, intervals = simulation.scenario_block, simulation.regime_wald_intervals

        def block_spy(config, rngs):
            stacks.append(block(config, rngs))
            return stacks[-1]

        def intervals_spy(data, fit, level):
            seen.append((stacks[-1], data))
            return intervals(data, fit, level)

        monkeypatch.setattr(simulation, "scenario_block", block_spy)
        monkeypatch.setattr(simulation, "regime_wald_intervals", intervals_spy)
        config = self.config(replications=23, estimators=("modified-fitted",), coverage=True)
        assert [len(p) for p in gest.passes(23, config.n)] == [11, 12]
        run_replications(config)
        assert len(stacks) == 2 and len(seen) == 23
        for whole, data in seen:
            assert data.outcome.shape == (config.n,)
            for j in (1, 2):
                for got, source in ((data.covariate("X", j), whole.covariate("X", j)),
                                    (data.proxy(j), whole.proxy(j)),
                                    (data.actual(j), whole.actual(j))):
                    assert np.shares_memory(got, source)
            assert np.shares_memory(data.outcome, whole.outcome)
            assert np.shares_memory(data.validation, whole.validation)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_varied_param_is_rejected(self, scenario, value):
        with pytest.raises(ValueError,
                           match=rf"^varied parameter \(--param\) must be finite, got {value}$"):
            self.config(scenario=scenario, varied_param=value)

    def test_s2_pins_varied_param(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scenario="s2", n=100, replications=2, seed=0, varied_param=1.0)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError):
            self.config(estimators=("nope",))
        with pytest.raises(ValueError, match="estimator 'naive-proxy' listed twice"):
            self.config(estimators=("naive-proxy", "modified-fitted", "naive-proxy"))

    def test_failure_threshold_aborts(self):
        # two-row datasets cannot support the stage models
        with pytest.raises(ReplicationError):
            run_replications(self.config(n=2, replications=4))

    def test_estimator_sanity_ordering(self):
        config = ScenarioConfig(scenario="s4", n=800, replications=40, seed=2468,
                                validation_fraction=0.3, varied_param=1.0,
                                estimators=("modified-known", "naive-proxy", "standard-actual"))
        summary = run_replications(config)
        stats = summary.statistics()
        naive = stats["naive-proxy"]["parameters"]
        mcse = summary.estimates["naive-proxy"].std(axis=0, ddof=1) / np.sqrt(40)
        stage2 = [r for r, _ in zip(naive, range(len(naive)))]
        assert any(
            abs(r["bias"]) > 3 * se for r, se in zip(stage2, mcse) if r["stage"] == 2
        )
        for name in ("modified-known", "standard-actual"):
            rows = stats[name]["parameters"]
            se = summary.estimates[name].std(axis=0, ddof=1) / np.sqrt(40)
            assert all(abs(r["bias"]) < 4 * s for r, s in zip(rows, se))


def _replicates(scenario, n, count, seed):
    """The datasets of replicates 0..count-1 of a run, as the engine draws them."""
    config = ScenarioConfig(scenario=scenario, n=n, replications=count, seed=seed,
                            varied_param=0.0 if scenario == "s2" else 1.0)
    return [scenario_block(config, [np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(r,)))]).subset(0) for r in range(count)]


def _without_validation(data, stage):
    """``data`` with no validation row at ``stage``."""
    stages = range(1, data.n_stages + 1)
    validation = data.validation.copy()
    validation[:, stage - 1] = False
    return Dataset(
        stage_covariates=[{name: data.covariate(name, j) for name in data.covariate_names}
                          for j in stages],
        proxy=[data.proxy(j) for j in stages],
        proxy_kind=data.proxy_kind,
        actual=[data.actual(j) for j in stages],
        validation=validation,
        outcome=data.outcome,
    )


class TestStackedReplicatesMatchSerialFits:
    """Each member of a stacked dataset is the fit of its own dataset: psi
    and the pseudo outcomes to 1e-10, the positivity counts exactly, and for
    a failing member the exception class, stage and message."""

    @pytest.mark.parametrize("scenario,estimator,exact", [
        (s, e, x) for s in SCENARIOS for e in ESTIMATORS
        for x in ((False, True) if e.startswith("modified") else (False,))])
    def test_members_match_serial_fits(self, scenario, estimator, exact):
        plan = scenario_plan(scenario, estimator, exact_pseudo_outcomes=exact)
        regular = _replicates(scenario, 300, 5, 11)
        blocks = [
            regular + [_without_validation(regular[0], 1), _without_validation(regular[1], 2)],
            _replicates(scenario, 16, 10, 12),  # small enough that some fits fail
            _replicates(scenario, 2, 3, 13),  # two rows support no stage model
        ]
        outcomes = []
        for datasets in blocks:
            got = plan.fit_members(stack_datasets(datasets), np.ones((len(datasets),
                                                                      datasets[0].n)))
            for data, (fit, error) in zip(datasets, got):
                ref, ref_error = tally(plan.estimate, data)
                outcomes.append(ref_error)
                if ref_error is not None:
                    assert fit is None
                    assert type(error) is type(ref_error)
                    assert getattr(error, "stage", None) == getattr(ref_error, "stage", None)
                    assert str(error) == str(ref_error)
                    continue
                assert error is None
                np.testing.assert_allclose(psi_flat(fit), psi_flat(ref), rtol=0, atol=1e-10)
                np.testing.assert_allclose(fit.pseudo_outcomes, ref.pseudo_outcomes,
                                           rtol=0, atol=1e-10)
                assert (fit.diagnostics["positivity_violations"]
                        == ref.diagnostics["positivity_violations"])
        assert all(error is None for error in outcomes[:5])
        assert all(error is not None for error in outcomes[-3:])
        if plan.fits_adherence:
            assert [str(error) for error in outcomes[5:7]] == [
                f"no validation rows at stage {j}" for j in (1, 2)]


class TestReplicationBlocks:
    """Blocks of stacked replicates, and the failures and positivity counts
    the summary reports.  The failure threshold is lifted so that small
    datasets can fail freely."""

    @pytest.fixture(autouse=True)
    def tolerate_failures(self, monkeypatch):
        monkeypatch.setattr(simulation, "MAX_FAILURE_FRACTION", 1.0)

    def config(self, **kw):
        base = dict(scenario="s4", n=150, replications=23, seed=5, varied_param=1.0)
        base.update(kw)
        return ScenarioConfig(**base)

    def test_blocks_match_one_replicate_at_a_time(self, monkeypatch):
        """Which replicates share a batched pass does not change a result."""
        assert [len(p) for p in gest.passes(23, 150)] == [11, 12]  # two passes of unequal size
        blocked = run_replications(self.config())
        monkeypatch.setattr(gest, "PASS_MEMBERS", 1)
        single = run_replications(self.config())
        assert blocked.failures == single.failures
        assert blocked.failure_counts == single.failure_counts
        assert blocked.positivity == single.positivity
        for name in blocked.estimates:
            np.testing.assert_array_equal(blocked.replicate_indices[name],
                                          single.replicate_indices[name])
            np.testing.assert_allclose(blocked.estimates[name], single.estimates[name],
                                       rtol=0, atol=1e-10)

    def test_summary_counts_failures_and_positivity(self):
        summary = run_replications(self.config(scenario="s1", n=60, replications=40,
                                               estimators=ESTIMATORS))
        stats = summary.statistics()
        datasets = _replicates("s1", 60, 40, 5)
        for name in ESTIMATORS:
            plan = scenario_plan("s1", name)
            fits = [tally(plan.estimate, data) for data in datasets]
            records = stats[name]["failure_counts"]
            assert sum(r["count"] for r in records) == stats[name]["failures"]
            assert records == sorted(records, key=lambda r: (r["class"], r["stage"] or 0))
            for record in records:
                assert record["count"] == sum(
                    type(err).__name__ == record["class"]
                    and getattr(err, "stage", None) == record["stage"] for _, err in fits)
            positivity = np.sum([fit.diagnostics["positivity_violations"]
                                 for fit, err in fits if err is None], axis=0)
            assert stats[name]["positivity_violations"] == positivity.tolist()
        assert stats["modified-fitted"]["failures"] > 0
        assert sum(stats["standard-actual"]["positivity_violations"]) > 0

    def test_adherence_failures_carry_their_stage(self):
        # at n=30 most s4 adherence fits fail to converge or lose rank
        summary = run_replications(self.config(n=30, replications=40,
                                               estimators=("modified-fitted",)))
        records = summary.failure_counts["modified-fitted"]
        assert sum(r["count"] for r in records) == summary.failures["modified-fitted"] > 30
        assert {(r["class"], r["stage"]) for r in records} == {("EstimationError", 1),
                                                              ("EstimationError", 2)}


class TestSharedAssignmentFits:
    """The estimators of one replicate block share their assignment fits."""

    @pytest.mark.parametrize("scenario,n,estimators", [
        ("s1", 60, ESTIMATORS),
        ("s4", 150, ("modified-fitted", "naive-proxy", "standard-actual")),
    ])
    def test_each_estimator_as_if_run_alone(self, monkeypatch, scenario, n, estimators):
        monkeypatch.setattr(simulation, "MAX_FAILURE_FRACTION", 1.0)
        config = ScenarioConfig(scenario=scenario, n=n, replications=23, seed=5,
                                varied_param=1.0, estimators=estimators)
        together = run_replications(config)
        for name in estimators:
            alone = run_replications(dataclasses.replace(config, estimators=(name,)))
            np.testing.assert_array_equal(together.estimates[name], alone.estimates[name])
            np.testing.assert_array_equal(together.replicate_indices[name],
                                          alone.replicate_indices[name])
            assert together.failures[name] == alone.failures[name]
            assert together.failure_counts[name] == alone.failure_counts[name]
            assert together.positivity[name] == alone.positivity[name]
        assert together.failures["modified-fitted"] > 0

    def test_member_lost_by_one_estimator_still_fitted_by_the_next(self):
        datasets = _replicates("s4", 300, 10, 21)
        stack = stack_datasets(datasets)
        weights = np.ones((10, 300))
        weights[0, datasets[0].validation[:, 0]] = 0.0  # member 0 keeps no stage-1 validation row
        fitted, naive = (scenario_plan("s4", name) for name in ("modified-fitted", "naive-proxy"))
        shared = {}
        fits = fitted.fit_members(stack, weights, assignment_fits=shared)
        assert str(fits[0][1]) == "no validation rows at stage 1"
        assert len(shared) == 2
        for (fit, error), (ref, ref_error) in zip(fits[1:], fitted.fit_members(stack, weights)[1:]):
            assert error is None and ref_error is None
            np.testing.assert_array_equal(psi_flat(fit), psi_flat(ref))
        got = naive.fit_members(stack, weights, assignment_fits=shared)
        assert len(shared) == 2  # naive-proxy reused both stages' fits
        for (fit, error), (ref, ref_error) in zip(got, naive.fit_members(stack, weights)):
            assert error is None and ref_error is None
            np.testing.assert_array_equal(psi_flat(fit), psi_flat(ref))

    def test_block_of_sim_s4_estimators_fits_each_assignment_model_once(self, monkeypatch):
        calls, fit_logistic_batch = [], gest.fit_logistic_batch

        def counting(*args, **kwargs):
            calls.append(args)
            return fit_logistic_batch(*args, **kwargs)

        monkeypatch.setattr(gest, "fit_logistic_batch", counting)
        estimators = ("modified-fitted", "naive-proxy", "standard-actual")
        config = ScenarioConfig(scenario="s4", n=1000, replications=10, seed=3,
                                varied_param=1.0, estimators=estimators)
        plans = {name: scenario_plan("s4", name) for name in estimators}
        block = simulation._replicate_block(config, plans, range(10))
        assert all(error is None for name in estimators for _, error in block[name])
        # two adherence fits, and two assignment fits each for the proxy
        # (modified-fitted, shared with naive-proxy) and the actual treatment
        assert len(calls) == 6
