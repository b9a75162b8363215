"""Workload definitions and one benchmark repetition.

A repetition runs in a fresh interpreter (see ``worker.py``): it sets the
workload up, runs its timed phase once, checks the outputs and returns the
raw samples.  ``run.py`` starts the repetitions and aggregates them.

The workload seed only draws the transverse field ``h`` from a narrow band
around the paper's 0.5.  Every check compares against references computed
for that ``h`` (the BdG ground energy, the free-fermion Trotter energies),
against bounds that hold for any ``h`` in the band, or against the
program's own uninterrupted run, never against stored floats.
"""

from __future__ import annotations

import math
import os
import random
import resource
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass

from paulievo import (
    FixedK,
    PauliSum,
    ScheduleConfig,
    TfimParams,
    Threshold,
    bdg_ground_energy,
    build_tfim,
    expectation_squared_state,
    load_pauli_sum,
    normalized_trace,
    relative_error,
    run_itpp,
    save_pauli_sum,
)

from freefermion import trotter_energies
from tracing import Tracer, new_counters, traced_itpp

DELTA_TAU = 0.04
FIELD_CENTRE = 0.5
# Term counts under a threshold jump when coefficients cross it, so the
# band is narrow.  On the threshold workload +-0.001 moves the final basis
# by up to 8%; +-3e-4 moves it by 1.5% and the summed per-step term counts
# by 0.3%; +-1e-4 moves the final basis by 0.6%.
FIELD_HALF_WIDTH = 1e-4

# criterion 4's acceptance window for the relative energy error
THRESHOLD_WINDOW = (3e-3, 3e-2)
# relative error after 8 steps at K=16384, N=40: 0.6985 at h=0.5 when the
# benchmark was defined; a change that loses accuracy crosses this bound
FIXEDK_REL_ERROR_BOUND = 0.70
# squared-state energies may undershoot E0 only by round-off
VARIATIONAL_SLACK = 1e-9
# untruncated energies against the free-fermion Trotter energies; they
# agree to ~2e-15 at N=12, the difference being the merge step's drop of
# coefficients below 1e-15 of the largest
EXACT_TROTTER_RTOL = 1e-12
# save/load/resume cycles per checkpoint repetition
CHECKPOINT_CYCLES = 3
# strings reachable from the identity after 1..4 steps of the N=12 chain
# (counted with no numerical-zero drop; independent of h).  The default
# merge drops the smallest ~35% of them, by an h-dependent amount.
TFIM12_SUPPORT = (265721, 1834641, 2558934, 2693254)


@dataclass(frozen=True)
class Workload:
    name: str
    n_qubits: int
    policy: object
    n_steps: int
    # "energy": squared-state energy, checked against E0 and the linear
    # estimate; "parity": squared-state <Z> on the chain centre, which the
    # Z2 symmetry of the TFIM makes exactly zero
    estimator: str
    # untruncated runs: per-step energies must equal the free-fermion
    # Trotter energies, and term counts may not exceed the support
    # reachable after that many steps
    exact_trotter: bool = False
    support: tuple[int, ...] | None = None
    rel_error_window: tuple[float, float] | None = None
    rel_error_bound: float | None = None
    energy_decreasing: bool = False
    fixed_terms: int | None = None
    # checkpoint workloads: steps propagated in set-up to make the state
    # that is saved, loaded and resumed for ``n_steps`` more steps
    source_steps: int = 0


WORKLOADS = {
    w.name: w for w in (
        # 90 steps (tau=3.6) end at a relative error of 0.022, well inside
        # the window, which the run enters at step 82; a repetition is short
        # enough for two of them in one run when the host is fast
        Workload("tfim12_threshold", 12, Threshold(2 ** -7), 90, "energy",
                 rel_error_window=THRESHOLD_WINDOW),
        Workload("tfim40_fixedk", 40, FixedK(16384), 8, "energy",
                 rel_error_bound=FIXEDK_REL_ERROR_BOUND,
                 energy_decreasing=True, fixed_terms=16384),
        Workload("checkpoint_roundtrip", 12, None, 1, "parity",
                 exact_trotter=True, support=TFIM12_SUPPORT, source_steps=1),
    )
}


def field_from_seed(seed: int) -> float:
    return FIELD_CENTRE + FIELD_HALF_WIDTH * (2.0 * random.Random(seed).random() - 1.0)


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


class _NoTrace:
    def span(self, name):
        return nullcontext()


class _StepChecker:
    """Per-step checks and timing, shared by the plain and traced loops;
    called after every Trotter step."""

    def __init__(self, workload: Workload, checks: Checks,
                 exact: list | None):
        self.workload = workload
        self.checks = checks
        self.exact = exact
        self.times: list[float] = []
        self.energies: list[float] = []
        self.counts: list[int] = []
        self.last = 0.0

    def start(self) -> None:
        self.last = time.perf_counter()

    def __call__(self, step: int, state: PauliSum, energy: float) -> None:
        self.times.append(time.perf_counter() - self.last)
        w, exact = self.workload, self.exact
        ok = normalized_trace(state) == 1.0 and state.is_real \
            and math.isfinite(energy)
        what = f"step {step}: identity {normalized_trace(state)!r}, " \
               f"real {state.is_real}, energy {energy!r}"
        if exact is not None:
            ok &= abs(energy - exact[step - 1]) <= EXACT_TROTTER_RTOL * abs(exact[step - 1])
            what += f", free-fermion energy {exact[step - 1]!r}"
        if w.support is not None:
            ok &= len(state) <= w.support[step - 1]
            what += f", terms {len(state)} (support {w.support[step - 1]})"
        if w.fixed_terms is not None:
            ok &= len(state) == w.fixed_terms
            what += f", terms {len(state)} (budget {w.fixed_terms})"
        if w.energy_decreasing and self.energies:
            ok &= energy < self.energies[-1]
            what += f", energy {energy!r} after {self.energies[-1]!r}"
        self.checks.op(ok, what)
        self.energies.append(energy)
        self.counts.append(len(state))
        self.last = time.perf_counter()


def _estimate(workload: Workload, state: PauliSum, ham, e0: float,
              e_linear: float, checks: Checks) -> float:
    n = workload.n_qubits
    if workload.estimator == "energy":
        value = expectation_squared_state(ham.to_sum(), state)
        ok = value >= e0 - VARIATIONAL_SLACK * abs(e0) and value < e_linear
        checks.op(ok, f"squared-state energy {value!r} not in "
                      f"[E0={e0!r}, linear {e_linear!r})")
        return value
    centre = ["I"] * n
    centre[n // 2] = "Z"
    z = PauliSum.from_terms(n, [(1.0, "".join(centre))])
    value = expectation_squared_state(z, state)
    checks.op(value == 0.0, f"squared-state <Z> {value!r} != 0")
    return value


def _final_checks(workload: Workload, rel: float, checks: Checks) -> None:
    if workload.rel_error_window is not None:
        lo, hi = workload.rel_error_window
        checks.op(lo <= rel <= hi, f"relative error {rel!r} outside "
                                   f"[{lo}, {hi}]")
    if workload.rel_error_bound is not None:
        checks.op(rel <= workload.rel_error_bound,
                  f"relative error {rel!r} above {workload.rel_error_bound}")


def run_repetition(workload: Workload, seed: int, *, traced: bool,
                   spawned_at: float, work_dir: str,
                   setup_only: bool = False) -> dict:
    """Set the workload up, run its timed phase once and check it.

    ``spawned_at`` is the monotonic time the interpreter was launched, so
    set-up time covers interpreter start and imports.  ``work_dir`` holds
    checkpoint files and is removed before returning.
    """
    tracer = Tracer() if traced else _NoTrace()
    checks = Checks()
    h = field_from_seed(seed)
    params = TfimParams(N=workload.n_qubits, J=1.0, h=h)
    with tracer.span("build"):
        ham = build_tfim(params)
    with tracer.span("reference"):
        e0 = bdg_ground_energy(params)
        exact = None
        if workload.exact_trotter:
            exact = trotter_energies(
                workload.n_qubits, 1.0, h, DELTA_TAU,
                workload.source_steps + workload.n_steps)
    source = reference = None
    if workload.source_steps:
        with tracer.span("source"):
            source, _ = run_itpp(
                ham, ScheduleConfig(DELTA_TAU, workload.source_steps * DELTA_TAU),
                workload.policy)
            reference = run_itpp(
                ham, ScheduleConfig(
                    DELTA_TAU,
                    (workload.source_steps + workload.n_steps) * DELTA_TAU),
                workload.policy, reference_energy=e0,
                initial_state=source, start_step=workload.source_steps)
    result = {"h": h, "setup_s": _monotonic() - spawned_at}
    if setup_only:
        return result

    steps = _StepChecker(workload, checks, exact)
    counters = new_counters()
    first = workload.source_steps
    schedule = ScheduleConfig(DELTA_TAU, (first + workload.n_steps) * DELTA_TAU)

    def propagate(initial):
        """The propagation and the estimator; returns the final state."""
        steps.start()
        if traced:
            state, _ = traced_itpp(
                tracer, counters, ham, schedule, workload.policy,
                initial_state=initial, start_step=first, step_callback=steps)
        else:
            state, _ = run_itpp(
                ham, schedule, workload.policy, reference_energy=e0,
                initial_state=initial, start_step=first,
                step_callback=lambda step, st, rec: steps(step, st, rec.energy))
        with tracer.span("estimator"):
            _estimate(workload, state, ham, e0, steps.energies[-1], checks)
        return state

    walls: list[float] = []
    saves: list[float] = []
    loads: list[float] = []
    checkpoint_bytes = 0
    if source is None:
        t = time.perf_counter()
        propagate(None)
        walls.append(time.perf_counter() - t)
    else:
        os.makedirs(work_dir, exist_ok=True)
        try:
            checkpoint_bytes = _checkpoint_cycles(
                tracer, source, reference, first, work_dir, checks,
                propagate, steps, walls, saves, loads)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)

    rel = relative_error(steps.energies[-1], e0)
    _final_checks(workload, rel, checks)
    result.update({
        "wall_s": walls,
        "step_s": steps.times,
        "save_s": saves,
        "load_s": loads,
        "peak_rss_mb": peak_rss_mb(),
        "energies": steps.energies,
        "counts": steps.counts,
        "final_rel_error": rel,
        "rows": len(source) if source is not None else 0,
        "checkpoint_bytes": checkpoint_bytes,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "messages": checks.messages,
    })
    if traced:
        result["self_s"] = tracer.self_times()
        result["counters"] = counters
        result["spans"] = tracer.spans
    return result


def _checkpoint_cycles(tracer, source: PauliSum, reference, step: int,
                       work_dir: str, checks: Checks, propagate, steps,
                       walls: list, saves: list, loads: list) -> int:
    """Save, load and resume, ``CHECKPOINT_CYCLES`` times.

    The first cycle saves ``source``; each later one saves the state the
    previous cycle loaded, so its file must be byte-identical to the first
    (which also covers the insertion indices).  Every loaded sum must equal
    ``source`` and every resumed run must equal the uninterrupted
    ``reference`` bit for bit.  A cycle's wall time is its save, load and
    resumed propagation.  Returns the size of the checkpoint in bytes.
    """
    ref_state, ref_trajectory = reference
    ref_energies = list(ref_trajectory.energies())
    header = {"step": step}
    paths = []
    to_save = source
    for cycle in range(CHECKPOINT_CYCLES):
        paths.append(os.path.join(work_dir, f"cycle{cycle}.psum"))
        t0 = time.perf_counter()
        with tracer.span("save"):
            save_pauli_sum(to_save, paths[-1], header)
        t1 = time.perf_counter()
        with tracer.span("load"):
            loaded, extra = load_pauli_sum(paths[-1])
        t2 = time.perf_counter()
        checks.op(loaded == source and extra == {"step": str(step)},
                  f"cycle {cycle}: loaded state differs from the saved one")
        done = len(steps.energies)
        t3 = time.perf_counter()
        state = propagate(loaded)
        t4 = time.perf_counter()
        checks.op(state == ref_state and steps.energies[done:] == ref_energies,
                  f"cycle {cycle}: resumed run differs from the "
                  "uninterrupted one")
        saves.append(t1 - t0)
        loads.append(t2 - t1)
        walls.append(t2 - t0 + t4 - t3)
        to_save = loaded
    with open(paths[0], "rb") as f:
        data = f.read()
    for path in paths[1:]:
        with open(path, "rb") as f:
            checks.op(f.read() == data, f"{path}: re-saved checkpoint bytes "
                                        "differ")
    return len(data)
