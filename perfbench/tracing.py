"""Spans and the traced Trotter loop.

The traced loop is ``run_itpp`` rebuilt from public calls only
(``split_policy_by_cadence``, ``apply_imaginary_gate``, ``truncate``,
``normalize_by_trace``, ``expectation``, ``purity``), with a span around
each stage and counters at the same boundaries.  It must apply exactly the
operations ``run_itpp`` applies, in the same order, so that its energies and
term counts are bit-identical; the benchmark fails a traced run that is not.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from paulievo import (
    FixedK,
    PauliSum,
    ScheduleConfig,
    Threshold,
    apply_imaginary_gate,
    expectation,
    normalize_by_trace,
    purity,
    trotter_sequence,
    truncate,
)
from paulievo.pauli import n_words
from paulievo.propagate import split_policy_by_cadence


class Tracer:
    """Spans (name, start, end, parent) kept in memory until written out."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Sum over spans of each name of duration minus child durations.

        Spans come from one thread and nest strictly, so the children of a
        span never overlap and their durations simply add up.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out


def new_counters() -> dict:
    return {
        "gates": 0,
        "term_gates": 0,
        "terms_out": 0,
        "computed_bytes": 0,
        "peak_step_terms": 0,
        "peak_sum": 0,
        "retained_sum": 0,
        "retained_terms": 0,
        "dropped_terms.threshold": 0,
        "dropped_terms.fixedk": 0,
        "discarded_weight.threshold": 0.0,
        "discarded_weight.fixedk": 0.0,
    }


_POLICY_LABEL = {Threshold: "threshold", FixedK: "fixedk"}


def _truncate_counted(state: PauliSum, parts, counters: dict) -> PauliSum:
    """``truncate(state, parts)`` one policy at a time (which is how
    ``truncate`` applies a list), counting what each policy removed."""
    for policy in parts:
        out = truncate(state, policy)
        label = _POLICY_LABEL.get(type(policy))
        if out is not state and label is not None:
            counters[f"dropped_terms.{label}"] += len(state) - len(out)
            counters[f"discarded_weight.{label}"] += purity(state) - purity(out)
        state = out
    return state


def traced_itpp(tracer: Tracer, counters: dict, hamiltonian, schedule,
                policy, *, initial_state: PauliSum | None = None,
                start_step: int = 0, step_callback=None):
    """Mirror of ``run_itpp`` with spans and counters.

    Returns the final state and one ``(energy, n_terms, purity)`` tuple per
    record, including the ``tau = 0`` record when starting from the identity.
    ``step_callback(step, state, energy)`` runs after every step.
    """
    h_sum = hamiltonian.to_sum()
    one_step = ScheduleConfig(schedule.delta_tau, schedule.delta_tau,
                              schedule.term_ordering)
    gates = trotter_sequence(hamiltonian, one_step)
    gate_policy, step_policy = split_policy_by_cadence(policy)
    state = initial_state if initial_state is not None else \
        PauliSum.identity(hamiltonian.n_qubits)
    row_bytes = 8 * n_words(hamiltonian.n_qubits) + 16  # key, coeff, index
    records = []

    def record():
        with tracer.span("record"):
            energy = expectation(h_sum, state)
            records.append((energy, len(state), purity(state)))
        return energy

    if start_step == 0:
        record()
    for step in range(start_step, schedule.n_steps):
        with tracer.span("step"):
            peak = len(state)
            for gate in gates:
                n_in = len(state)
                with tracer.span("gate"):
                    state = apply_imaginary_gate(state, gate)
                if not state.is_real:
                    raise AssertionError("propagated state went complex")
                counters["gates"] += 1
                counters["term_gates"] += n_in
                counters["terms_out"] += len(state)
                counters["computed_bytes"] += (n_in + len(state)) * row_bytes
                peak = max(peak, len(state))
                with tracer.span("truncate_gate"):
                    state = _truncate_counted(state, gate_policy or (),
                                              counters)
                with tracer.span("normalize"):
                    state = normalize_by_trace(state)
            with tracer.span("truncate_step"):
                if step_policy is not None:
                    state = _truncate_counted(state, step_policy, counters)
                    with tracer.span("normalize"):
                        state = normalize_by_trace(state)
            counters["peak_step_terms"] = max(counters["peak_step_terms"],
                                              peak)
            counters["peak_sum"] += peak
            counters["retained_sum"] += len(state)
            counters["retained_terms"] = len(state)
            energy = record()
        if step_callback is not None:
            step_callback(step + 1, state, energy)
    return state, records
