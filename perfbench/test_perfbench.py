"""Tests of the benchmark's own logic: span arithmetic, the recorder, fit
counting and input generation.  Run with ``python3 -m pytest perfbench``."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: the union [1, 6] is covered once
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("late", 9.0, 12.0, 0, 0),  # clipped at the parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_totals_sum_calls_failures_and_counters():
    spans = [
        Span("glm.fit_logistic", 0.0, 2.0, None, 0, counters={"iters": 5}),
        Span("glm.expit", 0.5, 1.0, 0, 0, counters={"elems": 10}),
        Span("glm.fit_logistic", 3.0, 4.0, None, 1, failed=True),
    ]
    totals = tracing.layer_totals(spans)
    assert totals["glm.fit_logistic"] == {"calls": 2, "self_s": pytest.approx(2.5),
                                          "fail": 1, "iters": 5}
    assert totals["glm.expit"]["elems"] == 10


def test_recorder_links_parents_and_marks_raises():
    recorder = tracing.Recorder()

    def boom():
        raise ValueError("x")

    inner = recorder.wrap("inner", lambda: 3, lambda r, a, k: {"value": r})
    outer = recorder.wrap("outer", lambda: inner() + 1)
    failing = recorder.wrap("failing", boom)
    assert outer() == 4 and recorder.spans == []  # no command: nothing recorded
    recorder.command = 7
    outer()
    with pytest.raises(ValueError):
        failing()
    names = [(s.name, s.parent, s.command, s.failed) for s in recorder.spans]
    assert names == [("outer", None, 7, False), ("inner", 0, 7, False),
                     ("failing", None, 7, True)]
    assert recorder.spans[1].counters == {"value": 3}


def test_install_wraps_every_binding_and_restores():
    from dtr_adhere import gest, glm, inference, model

    originals = (glm.fit_logistic, gest.fit_logistic, gest.build_design_matrix,
                 model.Dataset.__dict__["subset"])
    assert glm.fit_logistic is gest.fit_logistic
    restore = tracing.install(tracing.Recorder())
    try:
        assert gest.fit_logistic is glm.fit_logistic is not originals[0]
        assert gest.build_design_matrix is model.build_design_matrix is not originals[2]
        assert inference.numerical_jacobian.__wrapped__ is not None
        assert model.Dataset.__dict__["subset"] is not originals[3]
    finally:
        restore()
    assert (glm.fit_logistic, gest.fit_logistic, gest.build_design_matrix,
            model.Dataset.__dict__["subset"]) == originals


def _write_fit_json(out_dir: Path, failed_replicates: int):
    psi = [1.0, 0.5]
    out_dir.mkdir(parents=True)
    payload = {
        "stages": [{"contrast": {"estimates": psi}}],
        "recommendation_rule": [{"coefficients": psi}],
        "intervals": {
            "method": "bootstrap-percentile",
            "failed_replicates": failed_replicates,
            "parameters": [{"parameter": f"psi1.{i}", "lower": v - 1.0, "estimate": v,
                            "upper": v + 1.0} for i, v in enumerate(psi)],
        },
    }
    (out_dir / "fit.json").write_text(json.dumps(payload))


def test_failed_fits_come_from_the_programs_tally(tmp_path):
    _write_fit_json(tmp_path / "out", failed_replicates=3)
    outcome = wl.judge("boot-s1", 0, tmp_path / "out")
    assert outcome.ok
    assert (outcome.attempted, outcome.failed) == (wl.BOOT_REPLICATES + 1, 3)


def test_nonzero_exit_fails_every_fit_of_the_command(tmp_path):
    _write_fit_json(tmp_path / "out", failed_replicates=0)
    outcome = wl.judge("boot-s1", 3, tmp_path / "out")
    assert not outcome.ok
    assert outcome.attempted == outcome.failed == wl.BOOT_REPLICATES + 1
    assert wl.judge("sim-s4", 3, tmp_path / "none").failed == wl.FITS_PER_COMMAND["sim-s4"]


def test_reference_tolerances(tmp_path):
    _write_fit_json(tmp_path / "out", failed_replicates=0)
    record = wl.read_outputs("boot-s1", tmp_path / "out")
    near = json.loads(json.dumps(record))
    near["psi"][0] += 1e-9
    near["intervals"][0]["upper"] *= 1 + 1e-7
    assert wl.reference_problems("boot-s1", record, near) == []
    far = json.loads(json.dumps(record))
    far["psi"][0] += 1e-7
    far["intervals"][1]["lower"] *= 1 + 1e-5
    assert len(wl.reference_problems("boot-s1", record, far)) == 2


def test_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    def pool(seed, name):
        return [p.read_bytes() for p in wl.write_inputs("boot-s1", seed, tmp_path / name)]

    first, again, other = pool(11, "a"), pool(11, "b"), pool(12, "c")
    assert first == again
    assert len(set(first)) == len(first) == wl.DATASETS["boot-s1"]
    assert not set(first) & set(other)
    argv = [wl.prepare_command("sim-s4", s, 0, None, tmp_path / "d")[:-1] for s in (11, 11, 12)]
    assert argv[0] == argv[1] != argv[2]
    configs = [json.loads(Path(wl.prepare_command("boot-s1", s, i, [Path("x.csv")],
                                                  tmp_path / f"e{s}{i}")[1]).read_text())
               for s, i in ((11, 0), (11, 1), (12, 0))]
    assert len({c["seed"] for c in configs}) == 3


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES == wl.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_per_layer_values_are_per_traced_command():
    totals = {"glm.fit_logistic": {"calls": 8, "self_s": 2.0, "fail": 0, "iters": 40},
              "inference.bootstrap": {"calls": 2, "self_s": 1.0, "fail": 0,
                                      "ok": 190, "attempted": 200}}
    walls, traced = [1.0, 1.2, 1.0, 1.2], [False, True, False, True]
    values = run.per_layer_values(totals, walls, traced)
    assert set(values) == set(run.per_layer_units())
    assert values["glm.fit_logistic.calls"] == 4 and values["glm.fit_logistic.iters"] == 20
    assert values["inference.bootstrap.ok_ratio"] == 0.95
    assert values["simulation.run_replications.ok_ratio"] == 0  # never ran
    assert values["trace.overhead_ratio"] == pytest.approx(1.2)
