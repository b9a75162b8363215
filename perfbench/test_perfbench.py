"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from paulievo import (  # noqa: E402
    FixedK,
    ScheduleConfig,
    TfimParams,
    Threshold,
    build_tfim,
    run_itpp,
)

import run  # noqa: E402
import workloads  # noqa: E402
from freefermion import trotter_energies  # noqa: E402
from tracing import Tracer, new_counters, traced_itpp  # noqa: E402
from workloads import Workload, field_from_seed, run_repetition  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

SMALL_THRESHOLD = Workload("small_threshold", 6, Threshold(2 ** -6), 6,
                           "energy")
SMALL_UNTRUNCATED = Workload("small_untruncated", 6, None, 3, "parity",
                             exact_trotter=True)
SMALL_CHECKPOINT = Workload("small_checkpoint", 6, None, 1, "parity",
                            exact_trotter=True, source_steps=2)


def _repetition(workload, seed=3, traced=False, tmp_path=None):
    return run_repetition(workload, seed, traced=traced,
                          spawned_at=workloads._monotonic(),
                          work_dir=str(tmp_path / f"work-{traced}"))


@pytest.mark.parametrize("policy", [
    Threshold(2 ** -6),
    FixedK(40),
    None,
    [FixedK(60), Threshold(2 ** -8)],
], ids=["threshold", "fixedk", "untruncated", "fixedk+threshold"])
def test_traced_loop_matches_run_itpp(policy):
    ham = build_tfim(TfimParams(N=6, J=1.0, h=0.5))
    schedule = ScheduleConfig(0.1, 0.8)
    state, trajectory = run_itpp(ham, schedule, policy)
    traced_state, records = traced_itpp(Tracer(), new_counters(), ham,
                                        schedule, policy)
    assert [r[0] for r in records] == [r.energy for r in trajectory]
    assert [r[1] for r in records] == [r.n_terms for r in trajectory]
    assert [r[2] for r in records] == [r.purity for r in trajectory]
    assert traced_state == state


def test_traced_loop_matches_resumed_run_itpp():
    ham = build_tfim(TfimParams(N=6, J=1.0, h=0.5))
    source, _ = run_itpp(ham, ScheduleConfig(0.1, 0.2), FixedK(50))
    schedule = ScheduleConfig(0.1, 0.5)
    state, trajectory = run_itpp(ham, schedule, FixedK(50),
                                 initial_state=source, start_step=2)
    traced_state, records = traced_itpp(
        Tracer(), new_counters(), ham, schedule, FixedK(50),
        initial_state=source, start_step=2)
    assert [r[0] for r in records] == [r.energy for r in trajectory]
    assert traced_state == state


def test_metric_and_workload_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    for name, unit in {**end_to_end, **per_layer}.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), unit


def test_field_from_seed_is_deterministic_and_narrow():
    fields = [field_from_seed(seed) for seed in range(50)]
    assert fields == [field_from_seed(seed) for seed in range(50)]
    assert len(set(fields)) == 50
    assert all(abs(h - 0.5) <= workloads.FIELD_HALF_WIDTH for h in fields)


def test_same_seed_gives_identical_counts(tmp_path):
    first = _repetition(SMALL_THRESHOLD, seed=7, tmp_path=tmp_path)
    second = _repetition(SMALL_THRESHOLD, seed=7, tmp_path=tmp_path)
    assert first["failed"] == 0 and first["attempted"] > 0
    assert first["counts"] == second["counts"]
    assert first["energies"] == second["energies"]


def test_free_fermion_reference_matches_untruncated_run():
    for n, h in ((3, 0.5), (5, 0.7), (6, 0.4999)):
        ham = build_tfim(TfimParams(N=n, J=1.0, h=h))
        _, trajectory = run_itpp(ham, ScheduleConfig(0.04, 0.32), None)
        exact = trotter_energies(n, 1.0, h, 0.04, 8)
        for got, want in zip(trajectory.energies()[1:], exact):
            assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_traced_and_untraced_repetitions_agree(tmp_path):
    for workload in (SMALL_UNTRUNCATED, SMALL_CHECKPOINT):
        plain = _repetition(workload, tmp_path=tmp_path)
        traced = _repetition(workload, traced=True, tmp_path=tmp_path)
        attempted, failed, messages = run.check_reps([plain], [traced])
        assert failed == 0, messages
        assert attempted == plain["attempted"] + traced["attempted"] + 1
        layers = run.per_layer([plain], [traced])
        assert set(layers) == set(run.PER_LAYER)
    assert plain["rows"] > 0 and plain["checkpoint_bytes"] > 0
    assert layers["opsum.save_rows_per_s"] > 0


def test_perturbed_repetition_trips_the_check(tmp_path):
    plain = _repetition(SMALL_UNTRUNCATED, tmp_path=tmp_path)
    perturbed = dict(plain, energies=list(plain["energies"]))
    perturbed["energies"][-1] += abs(perturbed["energies"][-1]) * 1e-15
    _, failed, messages = run.check_reps([plain], [perturbed])
    assert failed == 1 and "traced repetition differs" in messages[0]


def test_perturbed_reference_trips_the_step_check(tmp_path, monkeypatch):
    def off_by_a_little(*args):
        return [e * (1 + 1e-10) for e in trotter_energies(*args)]

    monkeypatch.setattr(workloads, "trotter_energies", off_by_a_little)
    result = _repetition(SMALL_UNTRUNCATED, tmp_path=tmp_path)
    assert result["failed"] == SMALL_UNTRUNCATED.n_steps


def test_relative_error_window_is_enforced(tmp_path):
    strict = Workload("small_strict", 6, Threshold(2 ** -6), 6, "energy",
                      rel_error_window=(0.0, 1e-6))
    result = _repetition(strict, tmp_path=tmp_path)
    assert result["failed"] == 1
    assert "outside" in result["messages"][0]


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        ["step", 0.0, 10.0, -1],
        ["gate", 1.0, 4.0, 0],
        ["normalize", 2.0, 3.0, 1],
        ["gate", 5.0, 6.0, 0],
    ]
    assert tracer.self_times() == {"step": 6.0, "gate": 3.0, "normalize": 1.0}
