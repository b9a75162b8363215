"""Operator propagation under Trotterized imaginary- and real-time generators.

Single-generator update rules, for a Pauli term ``P`` and a generator ``Q``:

* imaginary time, ``V = exp(-(t/2) Q)``, conjugation ``V P V``:
  ``P`` is untouched when ``{P, Q} = 0``; when ``[P, Q] = 0`` it splits into
  ``cosh(t) P - sinh(t) Q P`` (the product phase of ``Q P`` is then real).
* real time, ``U = exp(-i (theta/2) Q)``, conjugation ``U^dag P U``:
  ``P`` is untouched when ``[P, Q] = 0``; when ``{P, Q} = 0`` it becomes
  ``cos(theta) P + i sin(theta) Q P`` (``i`` times the imaginary product
  phase is again real).

Both rules therefore keep a real-coefficient expansion real, and each gate
at most doubles the term count.  The driver :func:`run_itpp` starts from the
identity operator (the maximally mixed state up to normalization), applies
the Trotter gate sequence with truncation on a split cadence (size/weight
budgets and a provisional coefficient cut per gate, the full coefficient
threshold per step), and records the energy trajectory once per step.  Each
gate applies the gate part of the policy inside its merge, in the policy's
order, so a row the policy drops is never inserted; the trace
normalization follows.  The step-end threshold runs through
:func:`~paulievo.opsum.truncate`.

Time bookkeeping: one full sweep of ``exp(-(alpha_j dt / 2) h_j)`` factors
advances the accumulated imaginary time ``tau`` by ``dt``, and because the
state is conjugated from both sides, the accumulated ``tau`` equals the
inverse temperature ``beta`` of the thermal state being approximated.  The
squared-state estimator consequently reports values at ``2 tau``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .models import Hamiltonian
from .opsum import (
    MERGE_DROP_RELATIVE,
    PauliSum,
    Threshold,
    TraceCollapseError,
    TruncationPolicy,
    _require_integer,
    narrow_keep,
    normalize_by_trace,
    normalized_trace,
    overlap,
    policy_parts,
    purity,
    truncate,
)
from .pauli import (
    PauliString,
    anticommute_mask,
    canonical_argsort,
    find_rows,
    not_above_previous,
    phase_exponent,
    require_width,
    row_view,
    row_weights,
    take_rows,
)

# sign of i**k for k in {0,1,2,3}; both propagation rules produce real
# spawned coefficients whose sign is +1 for k in {0,3} and -1 for {1,2}
_SIGN_FROM_K4 = np.array([1.0, -1.0, -1.0, 1.0])

# i**k is +1 or +i for k in {0,1} and -1 or -i for k in {2,3}
_PHASE_SIGN = np.array([1.0, 1.0, -1.0, -1.0])

_INDEX_MAX = int(np.iinfo(np.int64).max)

# residual imaginary parts beyond this bound indicate a bug, not round-off
IMAG_RESIDUE_REL = 1e-9
IMAG_RESIDUE_ABS = 1e-12


class DegenerateStateError(ArithmeticError):
    """The propagated state has zero purity; estimators are undefined."""


@dataclass(frozen=True)
class GateSpec:
    """One Trotter factor: a Pauli generator with its effective angle.

    Exactly one of ``tau_eff`` (imaginary time, sign included) or ``theta``
    (real-time rotation angle) is set.  Identity generators are rejected;
    they only rescale the state and are handled as energy offsets.  So is
    a ``tau_eff`` whose ``cosh`` is not a finite float (``|tau_eff|`` past
    about 710.48, or not finite) and a ``theta`` that is not finite, each
    naming the generator and the angle.
    """

    generator: PauliString
    tau_eff: float | None = None
    theta: float | None = None

    def __post_init__(self):
        if self.generator.is_identity:
            raise ValueError("identity generators are no-ops and not allowed")
        if (self.tau_eff is None) == (self.theta is None):
            raise ValueError("set exactly one of tau_eff or theta")
        if self.tau_eff is not None:
            try:
                finite = math.isfinite(math.cosh(self.tau_eff))
            except OverflowError:
                finite = False
            if not finite:
                raise ValueError(
                    f"imaginary angle tau_eff = {self.tau_eff!r} of "
                    f"generator {self.generator} has no finite cosh"
                )
        if self.theta is not None and not math.isfinite(self.theta):
            raise ValueError(
                f"real angle theta = {self.theta!r} of generator "
                f"{self.generator} is not finite"
            )


@dataclass(frozen=True)
class ScheduleConfig:
    """Trotter schedule: step size, final time, optional term ordering.

    ``term_ordering`` is a permutation of the Hamiltonian's term positions;
    identity terms are skipped after reordering.  The step count is
    ``ceil(tau_final / delta_tau)`` (with a tiny slack so exact multiples do
    not round up through float noise), so ``n_steps * delta_tau >=
    tau_final`` always holds.  ``delta_tau`` must be finite and positive,
    ``tau_final`` finite and non-negative.
    """

    delta_tau: float
    tau_final: float
    term_ordering: tuple[int, ...] | None = None

    def __post_init__(self):
        if not (math.isfinite(self.delta_tau) and self.delta_tau > 0):
            raise ValueError(f"delta_tau must be finite and positive, not "
                             f"{self.delta_tau!r}")
        if not (math.isfinite(self.tau_final) and self.tau_final >= 0):
            raise ValueError(f"tau_final must be finite and >= 0, not "
                             f"{self.tau_final!r}")
        if self.term_ordering is not None:
            object.__setattr__(
                self, "term_ordering", tuple(self.term_ordering)
            )

    @property
    def n_steps(self) -> int:
        ratio = self.tau_final / self.delta_tau
        return max(0, math.ceil(ratio - 1e-9))


@dataclass(frozen=True)
class TrajectoryRecord:
    tau: float
    energy: float
    relative_error: float | None
    n_terms: int | None
    purity: float
    wall_time_s: float | None
    observable_values: tuple[float, ...] = ()


class Trajectory:
    """Per-step records of an ITPP run, strictly increasing in tau."""

    def __init__(self):
        self.records: list[TrajectoryRecord] = []

    def append(self, record: TrajectoryRecord) -> None:
        if self.records and record.tau <= self.records[-1].tau:
            raise ValueError("trajectory tau must be strictly increasing")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TrajectoryRecord]:
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]

    @property
    def final(self) -> TrajectoryRecord:
        return self.records[-1]

    def energies(self) -> np.ndarray:
        return np.array([r.energy for r in self.records])

    def taus(self) -> np.ndarray:
        return np.array([r.tau for r in self.records])


# ---------------------------------------------------------------------------
# Single-generator gates
# ---------------------------------------------------------------------------


def _apply_generator(state: PauliSum, gate: GateSpec, *,
                     branch_when_commuting: bool, stay: float,
                     spawn: float,
                     drop_relative: float = MERGE_DROP_RELATIVE,
                     policy: TruncationPolicy = None) -> PauliSum:
    """Scale the active rows by ``stay``, merge their spawn ``spawn * Q P``
    into the state, and truncate the merged rows by ``policy``.

    The state is sorted and unique, and XOR with ``Q`` is a bijection, so
    the spawn block is unique too: after sorting that block alone, every
    spawned key either hits exactly one state row, whose coefficient it is
    added to (the existing row keeps its lower index), or is a new row
    inserted at its sorted position.  Hits come in pairs: ``R = Q P`` in
    the state is active too, and spawns back onto ``P``.  ``P`` and ``R``
    differ in ``Q``'s highest bit in its first nonzero word (its pair
    bit), so the two spawns of a pair lie on opposite sides of that bit,
    and one lookup of the smaller side finds every pair.  With ``Q R = i^k
    P``, ``P`` gains ``c_R spawn _SIGN_FROM_K4[k]`` and ``R`` gains ``c_P
    spawn _SIGN_FROM_K4[-k]``: for imaginary gates ``k`` is even and the
    signs agree, for real gates it is odd and they differ.  Every merged
    coefficient is therefore the same single float sum a full re-sort
    would form.

    The candidates are the state rows and the new rows that pass the
    numerical-zero drop; a new row's magnitude is ``|c_P spawn|``, so the
    drop and ``policy`` run before any new row is signed, and ``policy``
    narrows the candidates, in its own order, before anything is inserted
    (see :func:`~paulievo.opsum.narrow_keep`).  The kept new rows are
    then looked up once among the kept state rows: a new key is in no
    state row, so its lookup position is its insert position.  A
    new row's fresh index is its position in the sorted spawn block plus
    one past the largest index, known before the insert, so a
    :class:`~paulievo.opsum.FixedK` tie breaks as it would over the merged
    rows, and the result equals ``truncate(gate(state), policy)`` row for
    row and index for index without inserting the rows that pass would
    remove.  An empty spawn block (no active row, or ``spawn == 0``) takes
    the same path, so the drop and the policy apply at every gate.  A
    state whose largest index leaves no room for the spawn block within
    int64 is refused with ``ValueError``.
    """
    require_width(gate.generator, state.n_qubits, "gate generator")
    if len(state) == 0:
        return state
    gwords = gate.generator.words()
    keys = state._keys
    anti = anticommute_mask(keys, gwords)
    active = ~anti if branch_when_commuting else anti
    act = np.flatnonzero(active)
    last = int(state._indices.max())
    if last > _INDEX_MAX - act.size:
        raise ValueError(
            f"largest insertion index {last} leaves no room for "
            f"{act.size} fresh indices within int64"
        )
    coeffs = state._coeffs * np.where(active, stay, 1.0)
    spawn_keys = take_rows(keys, act)
    spawn_keys ^= gwords
    # canonical order inside the spawn block fixes the assignment order of
    # fresh insertion indices, independent of any partitioning of the input
    order = canonical_argsort(spawn_keys)
    spawn_keys = take_rows(spawn_keys, order)
    act = act[order]
    # the spawned keys on the smaller side of Q's pair bit are searched
    word = int(np.flatnonzero(gwords)[0])
    pair_bit = np.uint64(1 << (int(gwords[word]).bit_length() - 1))
    side = (spawn_keys[:, word] & pair_bit) != 0
    if 2 * np.count_nonzero(side) > side.size:
        np.logical_not(side, out=side)
    searched = np.flatnonzero(side)
    pos, found = find_rows(keys, take_rows(spawn_keys, searched))
    hits = pos[found]
    sources = act[searched[found]]
    # Q R = i^k P for a hit R of source P, so Q P = i^-k R
    k4 = phase_exponent(gwords, take_rows(keys, hits))
    coeffs[hits] += state._coeffs[sources] * (spawn * _SIGN_FROM_K4[-k4 & 3])
    coeffs[sources] += state._coeffs[hits] * (spawn * _SIGN_FROM_K4[k4])
    paired = np.zeros(len(state), dtype=bool)
    paired[hits] = True
    paired[sources] = True
    # a spawn lands on the state exactly when its source is in a hit pair
    new = np.flatnonzero(~paired[act])
    del paired, side, searched, pos, found, hits, sources, k4, order
    new_sources = state._coeffs[act[new]]
    # numerical-zero drop, relative to the largest merged magnitude (exact
    # zeros always drop), then the policy over the kept state rows and the
    # new rows together; a new row is signed only once kept, since its
    # sign leaves its magnitude as it is
    absc = np.abs(coeffs)
    absn = np.abs(new_sources * spawn)
    top = np.maximum(absc.max(), absn.max()) if new.size else absc.max()
    floor = drop_relative * top
    keep = (absc >= floor) & (absc > 0.0)
    keep_new = (absn >= floor) & (absn > 0.0)
    # fresh indices start above every index in the state and follow the
    # rank within the spawn block
    narrow_keep(policy, [
        (keep, absc, state._indices, lambda: row_weights(keys)),
        (keep_new, absn, new + (last + 1),
         lambda: row_weights(spawn_keys)[new]),
    ])
    new = new[keep_new]
    # gather the new rows and free the spawn block before the kept state
    # rows are copied, so the two never coexist at full size
    fresh_keys = take_rows(spawn_keys, new)
    # Q S = i^k P for a new row S of source P
    k4 = phase_exponent(gwords, fresh_keys)
    fresh_coeffs = new_sources[keep_new] * (spawn * _SIGN_FROM_K4[-k4 & 3])
    fresh_indices = new + (last + 1)
    del spawn_keys, act, new, keep_new, k4, new_sources, absc, absn
    indices = state._indices
    if not keep.all():
        keys = take_rows(keys, keep)
        coeffs, indices = coeffs[keep], indices[keep]
    if fresh_indices.size == 0:
        return PauliSum._from_raw(state.n_qubits, keys, coeffs, indices)
    # insert: a new row lands after the kept state rows below it and the
    # new rows before it
    at = find_rows(keys, fresh_keys)[0] + np.arange(fresh_indices.size)
    total = len(coeffs) + fresh_indices.size
    is_old = np.ones(total, dtype=bool)
    is_old[at] = False

    def insert(old, fresh_rows):
        # one shared mask instead of an np.insert per array
        out = np.empty(total, dtype=old.dtype)
        out[at] = fresh_rows
        out[is_old] = old
        return out

    rows = insert(row_view(keys), row_view(fresh_keys))
    return PauliSum._from_raw(
        state.n_qubits,
        rows.view(np.uint64).reshape(total, keys.shape[1]),
        insert(coeffs, fresh_coeffs),
        insert(indices, fresh_indices),
    )


def apply_imaginary_gate(state: PauliSum, gate: GateSpec, *,
                         drop_relative: float = MERGE_DROP_RELATIVE,
                         policy: TruncationPolicy = None) -> PauliSum:
    """Conjugate every term by ``exp(-(tau_eff/2) Q)`` from both sides.

    Anticommuting terms are exact fixed points; commuting terms split into
    ``cosh(tau_eff) P - sinh(tau_eff) Q P``.  Output term count is at most
    twice the input.  Merged entries below ``drop_relative`` times the
    largest magnitude drop as numerical zeros (exact zeros always drop).

    ``policy`` truncates the merged rows inside the merge, in its own
    order, before the new rows are inserted: the result is, row for row
    and index for index, ``truncate(apply_imaginary_gate(state, gate),
    policy)``, and no row that pass would remove is ever inserted.
    :func:`run_itpp` passes the gate part of its policy this way.
    """
    if gate.tau_eff is None:
        raise ValueError("gate carries no tau_eff")
    t = gate.tau_eff
    return _apply_generator(
        state, gate, branch_when_commuting=True,
        stay=math.cosh(t), spawn=-math.sinh(t), drop_relative=drop_relative,
        policy=policy,
    )


def apply_real_gate(state: PauliSum, gate: GateSpec) -> PauliSum:
    """Heisenberg update under the rotation ``exp(-i (theta/2) Q)``.

    Commuting terms are fixed; anticommuting terms become
    ``cos(theta) P + i sin(theta) Q P`` with a real net coefficient.
    """
    if gate.theta is None:
        raise ValueError("gate carries no theta")
    th = gate.theta
    return _apply_generator(
        state, gate, branch_when_commuting=False,
        stay=math.cos(th), spawn=math.sin(th),
    )


# ---------------------------------------------------------------------------
# Trotter sequencing and the ITPP driver
# ---------------------------------------------------------------------------


def _step_gates(hamiltonian: Hamiltonian,
                schedule: ScheduleConfig) -> list[GateSpec]:
    """The gate list of one Trotter step, honoring the term ordering."""
    terms = list(hamiltonian.terms)
    if schedule.term_ordering is not None:
        perm = schedule.term_ordering
        if sorted(perm) != list(range(len(terms))):
            raise ValueError(
                "term_ordering must be a permutation of the Hamiltonian's "
                "term positions"
            )
        terms = [terms[i] for i in perm]
    gates = [
        GateSpec(generator=p, tau_eff=c * schedule.delta_tau)
        for c, p in terms
        if not p.is_identity
    ]
    if not gates:
        raise ValueError("Hamiltonian has no non-identity terms to gate")
    return gates


def trotter_sequence(hamiltonian: Hamiltonian,
                     schedule: ScheduleConfig) -> list[GateSpec]:
    """The full first-order gate sequence: one step's gates repeated
    ``n_steps`` times, each term contributing ``tau_eff = alpha_j *
    delta_tau``."""
    return _step_gates(hamiltonian, schedule) * schedule.n_steps


def _real_part(real: float, imag: float) -> float:
    """Real part of an estimator numerator; a residual imaginary part past
    round-off scale means non-Hermitian operands, so it raises."""
    if abs(imag) > IMAG_RESIDUE_REL * abs(real) + IMAG_RESIDUE_ABS:
        raise ValueError(
            f"imaginary residue {imag!r} exceeds the round-off "
            "bound; operands are not Hermitian-real"
        )
    return real


def expectation(observable: PauliSum, state: PauliSum) -> float:
    """``tr(O rho) / tr(rho)``: the plain linear estimator."""
    tr = normalized_trace(state)
    if tr == 0.0:
        raise TraceCollapseError("state has zero trace")
    return overlap(observable, state) / tr


def expectation_squared_state(observable: PauliSum, state: PauliSum) -> float:
    """Estimator on the squared state, ``tr(O rho^2) / tr(rho^2)``.

    Squaring restores positive semidefiniteness lost to truncation; the
    result approximates the observable at twice the accumulated imaginary
    time.  The numerator is read off the sorted state without forming any
    product: ``tr(Q P R) = i**k(Q, P)`` when ``R = Q P`` up to its phase and
    0 otherwise, so ``tr(O rho^2) = sum_Q o_Q sum_P rho_P rho_{QP} i**k``,
    one row lookup of ``keys ^ Q`` per observable term ``Q``.  Odd ``k``
    give imaginary terms, which cancel for real coefficients and are only
    checked against round-off.
    """
    require_width(observable, state.n_qubits, "observable")
    pur = purity(state)
    if pur == 0.0:
        raise DegenerateStateError("state has zero purity")
    keys, coeffs = state._keys, state._coeffs
    real = imag = 0.0
    for q, o in zip(observable._keys, observable._coeffs):
        pos, found = find_rows(keys, keys ^ q)
        src = np.flatnonzero(found)
        k4 = phase_exponent(q, take_rows(keys, src))
        terms = coeffs[src] * coeffs[pos[src]] * _PHASE_SIGN[k4]
        odd = (k4 & 1).astype(bool)
        real += o * terms[~odd].sum()
        imag += o * terms[odd].sum()
    return _real_part(float(real), float(imag)) / pur


def relative_error(energy: float, reference: float | None) -> float | None:
    """``|E - E0| / |E0|``; ``None`` when there is no reference or it is 0,
    where the ratio means nothing."""
    if not reference:
        return None
    return abs(energy - reference) / abs(reference)


StepCallback = Callable[[int, PauliSum, TrajectoryRecord], bool | None]

# the provisional cut after every gate is this fraction of the step-end
# ``delta``.  It is the largest of 2^-8, 2^-7 and 2^-6 that moved no final
# energy of the TFIM threshold sweep (N = 8, 10, 12, delta = 2^-14 .. 2^-6)
# by 1% of its error against the step-only threshold, nor any final term
# count by 1%; 2^-4 drifts
THRESHOLD_GATE_FRACTION = 2.0 ** -6


def split_policy_by_cadence(policy: TruncationPolicy):
    """Partition a policy into the part enforced after every gate and the
    part enforced once per Trotter step.

    Size budgets (:class:`FixedK`) and weight cutoffs run per gate: that is
    what keeps the intermediate basis within twice the budget.  A
    coefficient threshold ``Threshold(delta)`` acts on two levels.  The
    full ``delta`` runs once per step: a string typically enters below
    ``delta`` and clears it only after several generators within the same
    step have deposited their contributions, so testing it at full height
    after every gate freezes operator growth long before the benchmark
    term counts are reached.  A provisional
    ``Threshold(THRESHOLD_GATE_FRACTION * delta)`` runs after every gate,
    in the policy's own order among the per-gate parts; it drops the
    strings too small to reach ``delta`` within the step before they spawn
    more.

    Each part is returned as a plain policy list, or ``None`` when empty.
    :func:`run_itpp` hands the gate part to :func:`apply_imaginary_gate` as
    it is, which applies it inside the gate's merge.
    """
    gate_part, step_part = [], []
    for p in policy_parts(policy):
        if isinstance(p, Threshold):
            step_part.append(p)
            p = Threshold(THRESHOLD_GATE_FRACTION * p.delta)
        gate_part.append(p)
    return gate_part or None, step_part or None


def run_itpp(hamiltonian: Hamiltonian, schedule: ScheduleConfig,
             policy: TruncationPolicy = None,
             observables: Sequence[PauliSum] = (),
             reference_energy: float | None = None,
             *,
             record_per_gate: bool = False,
             initial_state: PauliSum | None = None,
             start_step: int = 0,
             step_callback: StepCallback | None = None,
             drop_relative: float = MERGE_DROP_RELATIVE,
             ) -> tuple[PauliSum, Trajectory]:
    """Imaginary-time propagation of the identity operator.

    Starting from ``rho = I`` (the maximally mixed state up to its
    normalization), every gate of every Trotter step applies the imaginary
    update rule and renormalizes by the trace.  Truncation runs on a split
    cadence (see :func:`split_policy_by_cadence`): size and weight budgets
    and the provisional coefficient cuts at every gate, the full
    coefficient thresholds once per Trotter step.
    Each gate is one :func:`apply_imaginary_gate` with the gate part as
    its ``policy``, applied inside the merge before the new rows are
    inserted, and one trace normalization; :func:`truncate` runs only at
    step end, for the step part.  A complex
    ``initial_state`` is refused with ``TypeError``, a real one normalized
    by its trace, before any gate runs.  After each step a
    :class:`TrajectoryRecord` is written with the energy ``tr(H rho)``, its
    :func:`relative_error` to ``reference_energy``, the term count, the
    purity, and the elapsed wall time.  A record at ``tau = 0`` is included
    when starting from scratch.

    ``initial_state``/``start_step`` resume an interrupted run from a
    checkpoint (a ``start_step`` that is negative or not an integer is
    refused with ``ValueError`` before any gate runs);
    ``step_callback(step, state, record)`` runs after each step and may
    return True to stop early; True after the last step ends nothing,
    since every step has run.  A trace collapse, after a gate or at
    the step-end threshold, raises :class:`TraceCollapseError` naming the
    step (and the gate) and carrying the trajectory recorded so far.
    ``drop_relative`` is passed to every gate (see
    :func:`apply_imaginary_gate`); ``0.0`` keeps every float residue, which
    untruncated support censuses need.  Returns the final state and the
    trajectory of the steps executed here.
    """
    _require_integer("start_step", start_step)
    if start_step < 0:
        raise ValueError(f"start_step must be >= 0, not {start_step!r}")
    h_sum = hamiltonian.to_sum()
    gates = _step_gates(hamiltonian, schedule)
    gate_policy, step_policy = split_policy_by_cadence(policy)
    state = initial_state if initial_state is not None else \
        PauliSum.identity(hamiltonian.n_qubits)
    require_width(state, hamiltonian.n_qubits, "initial state")
    if not state.is_real:
        raise TypeError("propagation requires real coefficients")
    state = normalize_by_trace(state)

    trajectory = Trajectory()
    t0 = time.perf_counter()

    def make_record(tau: float) -> TrajectoryRecord:
        energy = expectation(h_sum, state)
        rel = relative_error(energy, reference_energy)
        obs = tuple(expectation(o, state) for o in observables)
        return TrajectoryRecord(
            tau=tau,
            energy=energy,
            relative_error=rel,
            n_terms=len(state),
            purity=purity(state),
            wall_time_s=time.perf_counter() - t0,
            observable_values=obs,
        )

    def normalized(state: PauliSum, step: int,
                   gate: int | None = None) -> PauliSum:
        """:func:`normalize_by_trace`, naming where a collapse happened:
        after gate number ``gate`` of ``step``, or at its step-end cut."""
        try:
            return normalize_by_trace(state)
        except TraceCollapseError as err:
            where = (" (step-end threshold)" if gate is None else
                     f", gate {gate}/{len(gates)} "
                     f"(generator {gates[gate - 1].generator})")
            raise TraceCollapseError(
                f"trace collapsed at Trotter step {step + 1}{where}: {err}",
                step_index=step + 1, gate_index=gate, trajectory=trajectory,
            ) from err

    if start_step == 0:
        trajectory.append(make_record(0.0))

    for step in range(start_step, schedule.n_steps):
        for number, gate in enumerate(gates, 1):
            state = normalized(
                apply_imaginary_gate(state, gate, drop_relative=drop_relative,
                                     policy=gate_policy),
                step, number)
            if record_per_gate and number < len(gates):
                frac = step + number / len(gates)
                trajectory.append(make_record(frac * schedule.delta_tau))
        if step_policy is not None:
            state = normalized(truncate(state, step_policy), step)
        record = make_record((step + 1) * schedule.delta_tau)
        trajectory.append(record)
        if step_callback is not None and step_callback(step + 1, state, record):
            break
    return state, trajectory


def reachable_support_size(hamiltonian: Hamiltonian,
                           max_size: int | None = None) -> int:
    """Count the Pauli strings reachable from the identity under the
    imaginary-time branching rule (``P -> Q P`` whenever ``[P, Q] = 0``).

    This is the saturation ceiling of an untruncated run's term count.
    Breadth-first closure over packed keys; ``max_size`` aborts early when
    the closure exceeds it.
    """
    gens = [p.words() for c, p in hamiltonian.gated_terms()]
    if not gens:
        raise ValueError("Hamiltonian has no non-identity terms")
    width = gens[0].shape[0]
    seen = np.zeros((1, width), dtype=np.uint64)
    frontier = seen
    while frontier.shape[0]:
        spawned = []
        for g in gens:
            mask = ~anticommute_mask(frontier, g)
            if mask.any():
                spawned.append(take_rows(frontier, mask) ^ g[None, :])
        if not spawned:
            break
        cand = np.concatenate(spawned)
        order = canonical_argsort(cand)
        cand = take_rows(cand, order)
        cand = take_rows(cand, ~not_above_previous(cand))
        frontier = take_rows(cand, ~find_rows(seen, cand)[1])
        if frontier.shape[0] == 0:
            break
        merged = np.concatenate([seen, frontier])
        seen = take_rows(merged, canonical_argsort(merged))
        if max_size is not None and seen.shape[0] > max_size:
            raise ValueError(
                f"reachable support exceeds max_size={max_size}"
            )
    return seen.shape[0]
