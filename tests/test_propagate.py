"""Propagation rules, Trotter sequencing, the ITPP driver, and estimators."""

import ast
import functools
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import paulievo
import paulievo.opsum as opsum_module
import paulievo.propagate as propagate_module
from paulievo import (
    DegenerateStateError,
    DimensionMismatchError,
    FixedK,
    GateSpec,
    Hamiltonian,
    PauliString,
    PauliSum,
    ScheduleConfig,
    TfimParams,
    Threshold,
    TraceCollapseError,
    Trajectory,
    TrajectoryRecord,
    WeightCutoff,
    apply_imaginary_gate,
    apply_real_gate,
    bdg_ground_energy,
    build_tfim,
    dense_trotter_ite,
    expectation,
    expectation_squared_state,
    normalize_by_trace,
    pauli_from_text,
    reachable_support_size,
    relative_error,
    run_itpp,
    trotter_sequence,
    truncate,
)
from paulievo.opsum import MERGE_DROP_RELATIVE, _coalesce
from paulievo.pauli import (
    anticommute_mask,
    commutes,
    find_rows,
    key_to_words,
    multiply,
    phase_exponent,
    row_weights,
)
from paulievo.propagate import THRESHOLD_GATE_FRACTION, split_policy_by_cadence

from helpers import (
    all_pauli_texts,
    bytestring_find_rows,
    dumps_pauli_sum,
    imaginary_conjugation_matrix,
    itpp_loop_oracle,
    lexsort_argsort,
    pauli_sum_matrix,
    random_pauli_sum,
    random_pauli_text,
    real_conjugation_matrix,
    squared_state_oracle,
    two_pass_itpp,
    unpack_string,
)


def gate(q_text, tau=None, theta=None):
    return GateSpec(generator=pauli_from_text(q_text), tau_eff=tau, theta=theta)


class TestGateSpec:
    def test_identity_generator_rejected(self):
        with pytest.raises(ValueError):
            GateSpec(generator=PauliString.identity(2), tau_eff=0.1)

    def test_exactly_one_angle(self):
        z = pauli_from_text("Z")
        with pytest.raises(ValueError):
            GateSpec(generator=z)
        with pytest.raises(ValueError):
            GateSpec(generator=z, tau_eff=0.1, theta=0.2)

    @pytest.mark.parametrize("tau", [720.0, -710.4758600739440, math.inf,
                                     math.nan])
    def test_angle_without_finite_cosh_refused(self, tau):
        with pytest.raises(ValueError, match=re.escape(
                f"tau_eff = {tau!r} of generator ZZ has no finite cosh")):
            gate("ZZ", tau=tau)

    def test_largest_finite_cosh_angle_runs(self):
        # cosh and sinh overflow at the same angle, so the gate runs
        tau = 710.4758600739439
        out = apply_imaginary_gate(PauliSum.identity(2), gate("ZZ", tau=tau))
        assert np.isfinite(out._coeffs).all() and len(out) == 2


class TestImaginaryGate:
    def test_anticommuting_fixed_point_bit_identical(self):
        a = PauliSum.from_terms(1, [(1.0, "X")])
        out = apply_imaginary_gate(a, gate("Z", tau=0.7))
        assert out == a
        assert out.coefficient("X") == 1.0

    def test_commuting_branch(self):
        t = 0.3
        a = PauliSum.from_terms(1, [(1.0, "Z")])
        out = apply_imaginary_gate(a, gate("Z", tau=t))
        assert out.coefficient("Z") == pytest.approx(math.cosh(t), abs=0)
        assert out.coefficient("I") == pytest.approx(-math.sinh(t), abs=0)

    def test_identity_under_zz(self):
        t = 0.04
        a = PauliSum.identity(2)
        out = apply_imaginary_gate(a, gate("ZZ", tau=t))
        assert out.coefficient("II") == pytest.approx(math.cosh(t), abs=0)
        assert out.coefficient("ZZ") == pytest.approx(-math.sinh(t), abs=0)
        got = pauli_sum_matrix(out)
        expected = imaginary_conjugation_matrix(
            PauliString.identity(2), pauli_from_text("ZZ"), t
        )
        assert np.abs(got - expected).max() < 1e-14

    @pytest.mark.parametrize("tau", [0.04, -0.04, 0.5, -0.5, 2.0, -2.0])
    def test_dense_conjugation_exhaustive_n2(self, tau):
        for p_text in all_pauli_texts(2):
            for q_text in all_pauli_texts(2):
                q = pauli_from_text(q_text)
                if q.is_identity:
                    continue
                a = PauliSum.from_terms(2, [(1.0, p_text)])
                out = apply_imaginary_gate(a, GateSpec(q, tau_eff=tau))
                expected = imaginary_conjugation_matrix(
                    pauli_from_text(p_text), q, tau
                )
                assert np.abs(pauli_sum_matrix(out) - expected).max() < 1e-12

    def test_branch_count_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = random_pauli_sum(rng, 4, 12)
            g = gate(random_pauli_text(rng, 4).replace("IIII", "XIII"), tau=0.3)
            if g.generator.is_identity:
                continue
            out = apply_imaginary_gate(a, g)
            assert len(out) <= 2 * len(a)

    def test_inverse_gate_restores(self):
        rng = np.random.default_rng(13)
        a = random_pauli_sum(rng, 4, 10)
        g = pauli_from_text("ZZII")
        forth = apply_imaginary_gate(a, GateSpec(g, tau_eff=0.6))
        back = apply_imaginary_gate(forth, GateSpec(g, tau_eff=-0.6))
        for s, c in a.items():
            assert back.coefficient(s) == pytest.approx(c, abs=1e-12)
        assert len(back) == len(a)

    def test_negative_tau_no_special_case(self):
        t = -0.25
        a = PauliSum.from_terms(1, [(1.0, "Z")])
        out = apply_imaginary_gate(a, gate("Z", tau=t))
        assert out.coefficient("I") == pytest.approx(math.sinh(-t), abs=0)

    def test_requires_tau(self):
        with pytest.raises(ValueError):
            apply_imaginary_gate(PauliSum.identity(1), gate("Z", theta=0.1))

    def test_width_mismatch(self):
        from paulievo import DimensionMismatchError
        with pytest.raises(DimensionMismatchError):
            apply_imaginary_gate(PauliSum.identity(2), gate("Z", tau=0.1))


class TestRealGate:
    def test_commuting_unchanged(self):
        a = PauliSum.from_terms(1, [(1.0, "Z")])
        out = apply_real_gate(a, gate("Z", theta=0.4))
        assert out == a

    def test_anticommuting_rotation(self):
        th = 0.37
        a = PauliSum.from_terms(1, [(1.0, "X")])
        out = apply_real_gate(a, gate("Z", theta=th))
        assert out.coefficient("X") == pytest.approx(math.cos(th), abs=0)
        assert out.coefficient("Y") == pytest.approx(-math.sin(th), abs=0)

    @pytest.mark.parametrize("theta", [0.04, -0.5, 2.0])
    def test_dense_conjugation_exhaustive_n2(self, theta):
        for p_text in all_pauli_texts(2):
            for q_text in all_pauli_texts(2):
                q = pauli_from_text(q_text)
                if q.is_identity:
                    continue
                a = PauliSum.from_terms(2, [(1.0, p_text)])
                out = apply_real_gate(a, GateSpec(q, theta=theta))
                expected = real_conjugation_matrix(
                    pauli_from_text(p_text), q, theta
                )
                assert np.abs(pauli_sum_matrix(out) - expected).max() < 1e-12

    def test_rotation_inverts(self):
        rng = np.random.default_rng(17)
        a = random_pauli_sum(rng, 3, 8)
        g = pauli_from_text("XYI")
        there = apply_real_gate(a, GateSpec(g, theta=1.1))
        back = apply_real_gate(there, GateSpec(g, theta=-1.1))
        for s, c in a.items():
            assert back.coefficient(s) == pytest.approx(c, abs=1e-12)


# sign of i**k of the product phase, as the gate rules use it
_SPAWN_SIGN = (1.0, -1.0, -1.0, 1.0)


def coalesce_gate(state, generator, *, branch_when_commuting, stay, spawn,
                  drop_relative=MERGE_DROP_RELATIVE):
    """Oracle for one gate: the scale-and-spawn rule term by term with the
    scalar algebra, then one full canonical re-sort of the state and the
    spawn block together through ``_coalesce``."""
    width = state._keys.shape[1]
    coeffs = state._coeffs.copy()
    spawned = []
    for i, row in enumerate(state._keys):
        p = unpack_string(row, state.n_qubits)
        if commutes(p, generator) != branch_when_commuting:
            continue
        coeffs[i] *= stay
        phase, r = multiply(generator, p)
        sign = _SPAWN_SIGN[phase.k]
        spawned.append((r.key, state._coeffs[i] * (spawn * sign)))
    if not spawned:
        return state
    spawned.sort()  # integer key order is the canonical order
    fresh = int(state._indices.max()) + 1
    keys = np.concatenate(
        [state._keys, np.stack([key_to_words(k, width) for k, _ in spawned])]
    )
    coeffs = np.concatenate([coeffs, [c for _, c in spawned]])
    indices = np.concatenate(
        [state._indices, np.arange(fresh, fresh + len(spawned))]
    )
    return PauliSum._from_raw(
        state.n_qubits,
        *_coalesce(state.n_qubits, keys, coeffs, indices, drop_relative)
    )


def assert_same_rows(got, want):
    assert np.array_equal(got._keys, want._keys)
    assert np.array_equal(got._coeffs, want._coeffs)
    assert np.array_equal(got._indices, want._indices)


def gate_rule(g, drop_relative=MERGE_DROP_RELATIVE):
    """The gate under test and the matching oracle call."""
    if g.tau_eff is not None:
        t = g.tau_eff
        return (
            lambda s: apply_imaginary_gate(s, g, drop_relative=drop_relative),
            lambda s: coalesce_gate(
                s, g.generator, branch_when_commuting=True,
                stay=math.cosh(t), spawn=-math.sinh(t),
                drop_relative=drop_relative,
            ),
        )
    th = g.theta
    return (
        lambda s: apply_real_gate(s, g),
        lambda s: coalesce_gate(
            s, g.generator, branch_when_commuting=False,
            stay=math.cos(th), spawn=math.sin(th),
        ),
    )


# generators across 64-bit words: straddling qubits 31-32, and at qubits 0
# and 65, with word 1 zero inside the generator's span
CROSS_WORD_SITES = [(40, (31, 32)), (70, (0, 65))]


def draw_gate(draw, n, sites):
    """A gate with drawn letters on ``sites`` of ``n`` qubits, imaginary or
    real, with a drawn angle: ``(gate, stay, spawn, drop_relative)``."""
    letters = ["I"] * n
    for q in sites:
        letters[q] = draw(st.sampled_from("XYZ"))
    generator = pauli_from_text("".join(letters))
    angle = draw(st.floats(0.01, 1.5)) * draw(st.sampled_from([1.0, -1.0]))
    if draw(st.booleans()):
        g = GateSpec(generator, tau_eff=angle)
        stay, spawn = math.cosh(angle), -math.sinh(angle)
        drop = draw(st.sampled_from([MERGE_DROP_RELATIVE, 0.0]))
    else:
        g = GateSpec(generator, theta=angle)
        stay, spawn = math.cos(angle), math.sin(angle)
        drop = MERGE_DROP_RELATIVE
    return g, stay, spawn, drop


def draw_partner(draw, c, k, stay, spawn, cancel):
    """The coefficient of the ``Q P`` partner of a term ``c P`` whose
    product ``Q P`` has phase ``i^k``: drawn, or, with ``cancel``, one that
    the spawn landing on it cancels exactly or up to a few ulps."""
    partner = c * draw(st.floats(-1.0, 1.0))
    if cancel:
        # the partner's merged value is fl(c_R * stay) + c * spawn * sign
        landing = c * (spawn * _SPAWN_SIGN[k])
        partner = -landing / stay
        for _ in range(abs(draw(st.integers(-12, 12)))):
            partner = np.nextafter(partner, math.inf)
    return float(partner)


@st.composite
def merge_cases(draw, n=None, sites=None):
    """A gate and a state built around it: random terms, some with their
    ``Q P`` partner, and some partners whose coefficient cancels the spawn
    landing on them exactly or up to a few ulps.  ``n`` and the generator's
    ``sites`` are drawn unless given."""
    if n is None:
        n = draw(st.sampled_from([12, 40, 70]))
    strings = st.text("IXYZ", min_size=n, max_size=n)
    if sites is None:
        sites = draw(st.lists(st.integers(0, n - 1), min_size=1,
                              max_size=3, unique=True))
    g, stay, spawn, drop = draw_gate(draw, n, sites)
    terms = {}
    if draw(st.booleans()):
        terms["I" * n] = 1.0
    for text in draw(st.lists(strings, min_size=1, max_size=12, unique=True)):
        c = draw(st.floats(1e-3, 1.0)) * draw(st.sampled_from([1.0, -1.0]))
        terms[text] = c
        mode = draw(st.sampled_from(["alone", "partner", "cancel"]))
        if mode == "alone":
            continue
        phase, r = multiply(g.generator, pauli_from_text(text))
        terms[r.text()] = draw_partner(draw, c, phase.k, stay, spawn,
                                       mode == "cancel")
    state = PauliSum.from_terms(
        n, [(c, t) for t, c in terms.items() if c != 0.0]
    )
    return state, g, drop


def check_policy(state, g, policy, drop=MERGE_DROP_RELATIVE):
    """``apply_imaginary_gate(state, g, policy=policy)`` against the two
    passes it replaces, ``truncate(apply_imaginary_gate(state, g), policy)``:
    same keys, coefficients and insertion indices."""
    got = apply_imaginary_gate(state, g, drop_relative=drop, policy=policy)
    want = truncate(apply_imaginary_gate(state, g, drop_relative=drop),
                    policy)
    assert_same_rows(got, want)
    return got


def check_cut(state, g, cut, drop=MERGE_DROP_RELATIVE):
    """:func:`check_policy` with the single policy ``Threshold(cut)``."""
    return check_policy(state, g, Threshold(cut), drop)


class TestMergeKernel:
    """The lookup-and-insert gate against the full re-sort it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(merge_cases())
    def test_matches_coalesce_oracle(self, case):
        state, g, drop = case
        if len(state) == 0:
            return
        apply, oracle = gate_rule(g, drop)
        assert_same_rows(apply(state), oracle(state))

    @pytest.mark.parametrize("n, sites", CROSS_WORD_SITES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_cross_word_generators_match_coalesce_oracle(self, n, sites,
                                                          data):
        state, g, drop = data.draw(merge_cases(n, sites))
        if len(state) == 0:
            return
        apply, oracle = gate_rule(g, drop)
        assert_same_rows(apply(state), oracle(state))

    def test_exact_zero_and_residue_drop(self):
        """A partner whose merged value is exactly zero always drops; one
        that leaves a residue of a few ulps drops at the default
        ``drop_relative`` and survives at 0.0."""
        g = GateSpec(pauli_from_text("ZZ" + "I" * 10), tau_eff=0.3)
        stay, spawn = math.cosh(0.3), -math.sinh(0.3)
        rest = "I" * 10

        def merged(c, partner):
            # the phase of (ZZ)(ZI) is +1, so ZI spawns c * spawn onto IZ
            return partner * stay + c * spawn

        found = {}
        for c in np.linspace(0.5, 0.9, 41):
            partner = -(c * spawn) / stay
            for _ in range(8):
                value = merged(c, partner)
                kind = "zero" if value == 0.0 else "residue"
                found.setdefault(kind, (float(c), float(partner)))
                partner = np.nextafter(partner, math.inf)
        assert set(found) == {"zero", "residue"}
        for kind, (c, partner) in found.items():
            state = PauliSum.from_terms(
                12, [(1.0, "I" * 12), (c, "ZI" + rest), (partner, "IZ" + rest)]
            )
            for drop in (MERGE_DROP_RELATIVE, 0.0):
                out = apply_imaginary_gate(state, g, drop_relative=drop)
                assert_same_rows(out, coalesce_gate(
                    state, g.generator, branch_when_commuting=True,
                    stay=stay, spawn=spawn, drop_relative=drop,
                ))
                survives = kind == "residue" and drop == 0.0
                assert ("IZ" + rest in out) == survives

    @pytest.mark.parametrize("n", [12, 40])
    def test_drop_floor_includes_new_rows(self, n):
        """The largest merged magnitude can be a new row: here the spawned
        Y (0.997) sets the floor that drops the untouched 3e-16 X, while
        the state rows alone (Z at 0.07) would not."""
        rest = "I" * (n - 1)
        base = PauliSum.from_terms(n, [(1.0, "Z" + rest), (1.0, "X" + rest)])
        # set directly: from_terms would drop 3e-16 next to 1.0 itself
        coeffs = np.array([3e-16 if p.letter(0) == "X" else 1.0
                           for p, _ in base.items()])
        state = PauliSum._from_raw(n, base._keys, coeffs, base._indices)
        g = GateSpec(pauli_from_text("X" + rest), theta=1.5)
        apply, oracle = gate_rule(g)
        out = apply(state)
        assert_same_rows(out, oracle(state))
        assert "X" + rest not in out and "Y" + rest in out

    @pytest.mark.parametrize("n", [12, 40])
    def test_tfim_gates_match_oracle(self, n):
        """Every gate of three FixedK Trotter steps, where most spawned
        terms collide with the state."""
        ham = build_tfim(TfimParams(N=n, J=1.0, h=0.5))
        gates = trotter_sequence(ham, ScheduleConfig(0.04, 0.12))
        state = PauliSum.identity(n)
        for g in gates:
            apply, oracle = gate_rule(g)
            out = apply(state)
            assert_same_rows(out, oracle(state))
            state = normalize_by_trace(truncate(out, FixedK(300)))

    @settings(max_examples=300, deadline=None)
    @given(merge_cases(), st.data())
    def test_cut_matches_truncate_after_gate(self, case, data):
        state, g, drop = case
        assume(len(state) > 0 and g.tau_eff is not None)
        # the cut lands on a merged magnitude or just above it, where the
        # strict '>' decides
        merged = apply_imaginary_gate(state, g, drop_relative=drop)
        m = data.draw(st.sampled_from(sorted(set(np.abs(merged._coeffs)))))
        cut = data.draw(st.sampled_from(
            [0.0, float(m), float(np.nextafter(m, math.inf))]
        ))
        check_cut(state, g, cut, drop)

    @settings(max_examples=300, deadline=None)
    @given(merge_cases(), st.data())
    def test_policy_matches_truncate_after_gate(self, case, data):
        """Any list of policies, in any order: thresholds on a merged
        magnitude or the next float above it, budgets near the merged size
        (so the boundary falls among old and fresh rows) or anywhere below
        it, and weight cutoffs at a merged row's weight."""
        state, g, drop = case
        assume(len(state) > 0 and g.tau_eff is not None)
        merged = apply_imaginary_gate(state, g, drop_relative=drop)
        mags = sorted(set(np.abs(merged._coeffs).tolist()))
        thresholds = st.sampled_from(mags).flatmap(
            lambda m: st.sampled_from([m, float(np.nextafter(m, math.inf))])
        ).map(Threshold)
        budgets = st.one_of(
            st.integers(max(1, len(merged) - 4), len(merged) + 1),
            st.integers(1, len(merged)),
        ).map(FixedK)
        weights = st.sampled_from(
            sorted(set(row_weights(merged._keys).tolist()) - {0})
            or [1]).map(WeightCutoff)
        policy = data.draw(st.lists(st.one_of(thresholds, budgets, weights),
                                    min_size=1, max_size=4))
        check_policy(state, g, policy, drop)

    def test_fixed_k_tie_between_old_and_fresh_rows(self):
        """An untouched state row and a fresh row with the same magnitude
        at the budget's boundary: the older row wins the tie."""
        t = 0.3
        c = 0.5
        tie = c * math.sinh(t)  # |spawn| of the fresh row IZII, exactly
        state = PauliSum.from_terms(
            4, [(1.0, "IIII"), (c, "ZZII"), (tie, "XIII")]
        )
        merged = apply_imaginary_gate(state, gate("ZIII", tau=t))
        assert abs(merged.coefficient("IZII")) == merged.coefficient("XIII")
        out = check_policy(state, gate("ZIII", tau=t),
                           [Threshold(tie / 2), FixedK(4)])
        assert "XIII" in out and "IZII" not in out

    def test_fixed_k_tie_split_between_old_and_fresh_rows(self):
        """Two untouched state rows and two fresh rows hold the k-th
        magnitude: the budget's last three slots take both state rows and
        the fresh row with the smaller index."""
        t, c = 0.3, 0.5
        tie = c * math.sinh(t)  # |spawn| of the fresh IZII and IZZI
        state = PauliSum.from_terms(4, [
            (1.0, "IIII"), (c, "ZZII"), (c, "ZZZI"), (tie, "XIII"),
            (tie, "XXII"),
        ])
        g = gate("ZIII", tau=t)
        merged = apply_imaginary_gate(state, g)
        assert sorted(str(p) for p, v in merged.items() if abs(v) == tie) \
            == ["IZII", "IZZI", "XIII", "XXII"]
        fresh = min(("IZII", "IZZI"), key=merged.insertion_index)
        out = check_policy(state, g, FixedK(7))
        assert {str(p) for p, v in out.items() if abs(v) == tie} \
            == {"XIII", "XXII", fresh}
        assert out.insertion_index(fresh) == merged.insertion_index(fresh)

    def test_cut_zero_angle_gate(self):
        # tau_eff = 0 spawns only zeros, which the merge drops; the cut and
        # the budget apply as at any other gate
        state = PauliSum.from_terms(
            4, [(1.0, "IIII"), (0.3, "ZIII"), (0.01, "ZZII"), (0.002, "XIII")]
        )
        assert len(check_cut(state, gate("ZIII", tau=0.0), 0.01)) == 2
        out = check_policy(state, gate("ZIII", tau=0.0),
                           [Threshold(0.001), FixedK(2)])
        assert "IIII" in out and "ZIII" in out and len(out) == 2

    def test_cut_no_row_commutes(self):
        # every row anticommutes with Q: an empty spawn block
        state = PauliSum.from_terms(4, [(0.5, "ZIII"), (0.01, "YIII")])
        out = check_cut(state, gate("XIII", tau=0.3), 0.1)
        assert "YIII" not in out and "ZIII" in out
        state = PauliSum.from_terms(
            4, [(0.5, "ZIII"), (0.01, "YIII"), (0.3, "ZZII")]
        )
        out = check_policy(state, gate("XIII", tau=0.3),
                           [FixedK(2), Threshold(0.1)])
        assert set(str(s) for s, _ in out.items()) == {"ZIII", "ZZII"}

    def test_cut_above_identity(self):
        # the identity (cosh 0.3 = 1.045 after the gate) falls under the
        # cut while the larger, untouched ZIII stays
        state = PauliSum.from_terms(4, [(1.0, "IIII"), (2.0, "ZIII")])
        out = check_cut(state, gate("XXII", tau=0.3), 1.1)
        assert "IIII" not in out and "ZIII" in out and len(out) == 1

    def test_negative_cut_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            apply_imaginary_gate(PauliSum.identity(2), gate("ZZ", tau=0.1),
                                 policy=Threshold(-1e-3))


class TestFreshIndexRange:
    """Fresh insertion indices count up from one past the largest index
    and must stay within int64."""

    @staticmethod
    def state_with_top_index(top):
        base = PauliSum.from_terms(
            3, [(1.0, "III"), (0.5, "IIZ"), (0.25, "XXI")]
        )
        indices = base._indices.copy()
        indices[indices.argmax()] = top
        return PauliSum._from_raw(3, base._keys, base._coeffs, indices)

    @pytest.mark.parametrize("top", [2 ** 63 - 2, 2 ** 63 - 1])
    def test_index_overflow_refused(self, top):
        # every row commutes with ZZI, so the spawn block has 3 rows
        state = self.state_with_top_index(top)
        with pytest.raises(ValueError, match=f"largest insertion index {top}"):
            apply_imaginary_gate(state, gate("ZZI", tau=0.1))

    def test_last_representable_indices_used(self):
        top = 2 ** 63 - 4
        state = self.state_with_top_index(top)
        out = apply_imaginary_gate(state, gate("ZZI", tau=0.1))
        fresh = np.sort(out._indices[out._indices > top])
        assert fresh.tolist() == [top + 1, top + 2, top + 3]
        assert fresh[-1] == np.iinfo(np.int64).max


@st.composite
def paired_merge_cases(draw, n=None, sites=None):
    """A gate and a state made of hit pairs: every drawn term is active
    under the gate and comes with its ``Q P`` partner, so nearly every
    spawn hits, and the pair members on the unsearched side of ``Q``'s
    pair bit are found only through their partners.  Unless ``sites`` is
    given, the generator's first site is drawn in word 0, 1 or 2 of the
    key, which puts the pair bit in that word."""
    if n is None:
        n = draw(st.sampled_from([12, 40, 70]))
    if sites is None:
        word = draw(st.integers(0, (n - 1) // 32))
        first = draw(st.integers(32 * word, min(n, 32 * word + 32) - 1))
        sites = sorted({first, *draw(st.lists(st.integers(first, n - 1),
                                              max_size=2))})
    g, stay, spawn, drop = draw_gate(draw, n, sites)
    imaginary = g.tau_eff is not None
    q, letter = sites[0], g.generator.letter(sites[0])
    strings = st.text("IXYZ", min_size=n, max_size=n)
    terms = {}
    for text in draw(st.lists(strings, min_size=1, max_size=12, unique=True)):
        if commutes(pauli_from_text(text), g.generator) != imaginary:
            # a letter that anticommutes with Q's at its first site becomes
            # one that commutes, or the other way round
            swap = "I" if text[q] not in ("I", letter) else \
                next(a for a in "XYZ" if a != letter)
            text = text[:q] + swap + text[q + 1:]
        c = draw(st.floats(1e-3, 1.0)) * draw(st.sampled_from([1.0, -1.0]))
        terms[text] = c
        phase, r = multiply(g.generator, pauli_from_text(text))
        terms[r.text()] = draw_partner(draw, c, phase.k, stay, spawn,
                                       draw(st.booleans()))
    state = PauliSum.from_terms(
        n, [(c, t) for t, c in terms.items() if c != 0.0]
    )
    return state, g, drop


def drawn_policy(data, merged):
    """A list of one to four policies around the merged rows: thresholds
    on a merged magnitude or just above it, budgets near the merged size
    or below it, weight cutoffs at a merged row's weight."""
    mags = sorted(set(np.abs(merged._coeffs).tolist()))
    thresholds = st.sampled_from(mags).flatmap(
        lambda m: st.sampled_from([m, float(np.nextafter(m, math.inf))])
    ).map(Threshold)
    budgets = st.one_of(
        st.integers(max(1, len(merged) - 4), len(merged) + 1),
        st.integers(1, max(1, len(merged))),
    ).map(FixedK)
    weights = st.sampled_from(
        sorted(set(row_weights(merged._keys).tolist()) - {0})
        or [1]).map(WeightCutoff)
    return data.draw(st.lists(st.one_of(thresholds, budgets, weights),
                              min_size=1, max_size=4))


class TestPairedLookup:
    """The gate looks up one side of the spawn block and merges each hit
    pair ``{P, Q P}`` from that side alone."""

    @staticmethod
    def check(state, g, drop, data):
        apply, oracle = gate_rule(g, drop)
        merged = apply(state)
        assert_same_rows(merged, oracle(state))
        if g.tau_eff is not None:
            check_policy(state, g, drawn_policy(data, merged), drop)

    @settings(max_examples=300, deadline=None)
    @given(paired_merge_cases(), st.data())
    def test_pairs_match_coalesce_oracle(self, case, data):
        self.check(*case, data)

    @pytest.mark.parametrize("n, sites", CROSS_WORD_SITES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_cross_word_pairs_match_coalesce_oracle(self, n, sites, data):
        self.check(*data.draw(paired_merge_cases(n, sites)), data)

    @pytest.mark.parametrize("n, policy", [
        (12, Threshold(2 ** -7)), (40, FixedK(512)),
    ], ids=["n12_threshold", "n40_fixed_k"])
    def test_lookups_cover_one_side_of_each_pair(self, monkeypatch, n,
                                                 policy):
        """Per gate of one Trotter step, the rows looked up stay within
        half the spawn block plus the fresh rows inserted, and the rows
        whose phase is taken within the hit pairs plus the fresh rows; a
        lookup or a phase of the whole spawn block would break both."""
        counted, totals = {}, []

        def counting(name, kernel):
            def wrapper(table, rows):
                counted[name] += rows.shape[0]
                return kernel(table, rows)
            return wrapper

        def checked_gate(state, g, **kwargs):
            counted.update(find_rows=0, phase_exponent=0)
            out = apply_imaginary_gate(state, g, **kwargs)
            gwords = g.generator.words()
            active = ~anticommute_mask(state._keys, gwords)
            spawned = state._keys[active] ^ gwords
            hits = int(bytestring_find_rows(state._keys, spawned)[1].sum())
            fresh = int(np.count_nonzero(out._indices > state._indices.max()))
            bounds = (spawned.shape[0] // 2 + fresh, hits // 2 + fresh)
            assert counted["find_rows"] <= bounds[0]
            assert counted["phase_exponent"] <= bounds[1]
            totals.append((spawned.shape[0], *bounds))
            return out

        monkeypatch.setattr(propagate_module, "find_rows",
                            counting("find_rows", find_rows))
        monkeypatch.setattr(propagate_module, "phase_exponent",
                            counting("phase_exponent", phase_exponent))
        monkeypatch.setattr(propagate_module, "apply_imaginary_gate",
                            checked_gate)
        h = build_tfim(TfimParams(N=n, J=1.0, h=0.5))
        run_itpp(h, ScheduleConfig(0.04, 0.04), policy)
        assert len(totals) == len(h.gated_terms())
        # summed over the step the bounds lie below the spawned rows, so at
        # some gate a lookup or a phase of every spawned row breaks them
        spawned, lookups, phases = np.sum(totals, axis=0)
        assert lookups < spawned and phases < spawned


class TestTrotterSequence:
    def test_single_term_repeats(self):
        h = Hamiltonian(1, [(-1.0, "Z")])
        gates = trotter_sequence(h, ScheduleConfig(0.1, 0.3))
        assert len(gates) == 3
        assert all(g.generator.text() == "Z" for g in gates)
        assert all(g.tau_eff == -0.1 for g in gates)

    def test_tfim_n3_ordering(self):
        h = build_tfim(TfimParams(N=3, J=1.0, h=0.5))
        gates = trotter_sequence(h, ScheduleConfig(0.04, 0.08))
        texts = [g.generator.text() for g in gates]
        assert texts == ["ZZI", "IZZ", "XII", "IXI", "IIX"] * 2

    def test_tau_eff_sign(self):
        h = build_tfim(TfimParams(N=2, J=1.0, h=0.5))
        gates = trotter_sequence(h, ScheduleConfig(0.04, 0.04))
        assert gates[0].tau_eff == pytest.approx(-0.04, abs=0)

    def test_identity_terms_excluded(self):
        h = Hamiltonian(2, [(2.0, "II"), (-1.0, "ZZ")])
        gates = trotter_sequence(h, ScheduleConfig(0.1, 0.1))
        assert [g.generator.text() for g in gates] == ["ZZ"]

    def test_empty_hamiltonian_rejected(self):
        with pytest.raises(ValueError):
            trotter_sequence(Hamiltonian(2, []), ScheduleConfig(0.1, 0.1))

    def test_step_count_float_safe(self):
        assert ScheduleConfig(0.04, 10.0).n_steps == 250
        assert ScheduleConfig(0.04, 20.0).n_steps == 500
        assert ScheduleConfig(0.04, 10.02).n_steps == 251
        assert ScheduleConfig(0.1, 0.0).n_steps == 0

    @pytest.mark.parametrize("delta_tau, tau_final, named", [
        (math.inf, 1.0, "delta_tau must be finite and positive, not inf"),
        (math.nan, 1.0, "delta_tau must be finite and positive, not nan"),
        (0.0, 1.0, "delta_tau must be finite and positive, not 0.0"),
        (-0.1, 1.0, "delta_tau must be finite and positive, not -0.1"),
        (0.1, math.inf, "tau_final must be finite and >= 0, not inf"),
        (0.1, math.nan, "tau_final must be finite and >= 0, not nan"),
        (0.1, -1.0, "tau_final must be finite and >= 0, not -1.0"),
    ])
    def test_schedule_numbers_must_be_finite(self, delta_tau, tau_final,
                                             named):
        with pytest.raises(ValueError, match=re.escape(named)):
            ScheduleConfig(delta_tau, tau_final)

    def test_custom_ordering(self):
        h = build_tfim(TfimParams(N=2, J=1.0, h=0.5))
        sched = ScheduleConfig(0.04, 0.04, term_ordering=(2, 1, 0))
        gates = trotter_sequence(h, sched)
        assert [g.generator.text() for g in gates] == ["IX", "XI", "ZZ"]

    def test_bad_ordering_rejected(self):
        h = build_tfim(TfimParams(N=2))
        with pytest.raises(ValueError):
            trotter_sequence(h, ScheduleConfig(0.04, 0.04, term_ordering=(0, 0, 1)))


class TestRunItpp:
    def test_single_qubit_closed_form_each_step(self):
        # a one-term Hamiltonian has no Trotter error: E(tau) = -tanh(tau)
        h = Hamiltonian(1, [(-1.0, "Z")])
        _, traj = run_itpp(h, ScheduleConfig(0.1, 1.0))
        for rec in traj:
            assert rec.energy == pytest.approx(-math.tanh(rec.tau), abs=1e-12)

    def test_single_qubit_long_run(self):
        h = Hamiltonian(1, [(-1.0, "Z")])
        state, traj = run_itpp(h, ScheduleConfig(0.1, 5.0))
        assert traj.final.energy == pytest.approx(-1.0, abs=1e-3)
        assert state.coefficient("I") == 1.0
        assert state.coefficient("Z") == pytest.approx(math.tanh(5.0), abs=1e-12)

    def test_tfim_n2_ground_state(self):
        h = build_tfim(TfimParams(N=2, J=1.0, h=0.5))
        _, traj = run_itpp(h, ScheduleConfig(0.04, 10.0))
        assert traj.final.energy == pytest.approx(-math.sqrt(2), rel=1e-2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lockstep_with_dense_twin(self, n):
        h = build_tfim(TfimParams(N=n, J=1.0, h=0.5))
        sched = ScheduleConfig(0.04, 2.0)
        _, traj = run_itpp(h, sched)
        curve = dense_trotter_ite(h, sched, [h.to_sum()])
        assert np.array_equal(traj.taus(), curve.taus)
        for got, want in zip(traj.energies(), curve.values[:, 0]):
            assert got == pytest.approx(want, abs=1e-12)

    def test_tau_zero_single_record(self):
        h = build_tfim(TfimParams(N=3))
        _, traj = run_itpp(h, ScheduleConfig(0.04, 0.0))
        assert len(traj) == 1
        rec = traj[0]
        assert rec.tau == 0.0
        assert rec.energy == 0.0  # Tr[H]/2^n for a traceless H
        assert rec.n_terms == 1
        assert rec.purity == 1.0

    def test_identity_offset_reported_not_gated(self):
        base = Hamiltonian(1, [(-1.0, "Z")])
        shifted = Hamiltonian(1, [(3.0, "I"), (-1.0, "Z")])
        _, traj_base = run_itpp(base, ScheduleConfig(0.1, 0.5))
        _, traj_shift = run_itpp(shifted, ScheduleConfig(0.1, 0.5))
        for a, b in zip(traj_base, traj_shift):
            assert b.energy == pytest.approx(a.energy + 3.0, abs=1e-12)
            assert b.n_terms == a.n_terms

    def test_trajectory_tau_strictly_increasing(self):
        h = build_tfim(TfimParams(N=2))
        _, traj = run_itpp(h, ScheduleConfig(0.04, 1.0))
        taus = traj.taus()
        assert (np.diff(taus) > 0).all()

    def test_relative_error_column(self):
        h = Hamiltonian(1, [(-1.0, "Z")])
        _, traj = run_itpp(h, ScheduleConfig(0.1, 0.3), reference_energy=-1.0)
        for rec in traj:
            assert rec.relative_error == pytest.approx(
                abs(rec.energy + 1.0), abs=1e-15
            )

    def test_observable_columns(self):
        h = Hamiltonian(1, [(-1.0, "Z")])
        z = PauliSum.from_terms(1, [(1.0, "Z")])
        _, traj = run_itpp(h, ScheduleConfig(0.1, 0.2), observables=[z])
        for rec in traj:
            assert rec.observable_values[0] == pytest.approx(
                math.tanh(rec.tau), abs=1e-12
            )

    def test_per_gate_recording(self):
        h = build_tfim(TfimParams(N=2))  # 3 gates per step
        _, traj = run_itpp(h, ScheduleConfig(0.1, 0.3), record_per_gate=True)
        assert len(traj) == 1 + 3 * 3

    def test_trace_collapse_annotated(self):
        h = build_tfim(TfimParams(N=2, J=1.0, h=0.5))
        # the step-end threshold wipes every term including the identity
        with pytest.raises(TraceCollapseError) as err:
            run_itpp(h, ScheduleConfig(0.04, 1.0), Threshold(10.0))
        assert err.value.step_index == 1
        assert err.value.trajectory is not None

    def test_trace_collapse_annotated_per_gate(self):
        h = build_tfim(TfimParams(N=2, J=1.0, h=0.5))
        # the gate cut, 100 * 2^-6, wipes the identity after the first gate
        with pytest.raises(TraceCollapseError) as err:
            run_itpp(h, ScheduleConfig(0.04, 1.0), Threshold(100.0))
        assert err.value.step_index == 1
        assert err.value.gate_index == 1

    @pytest.mark.parametrize("policy, start_step, where, gate_index", [
        (Threshold(10.0), 0, "step 1 (step-end threshold)", None),
        (Threshold(100.0), 0, "step 1, gate 1/3 (generator ZZ)", 1),
        (Threshold(10.0), 3, "step 4 (step-end threshold)", None),
    ])
    def test_trace_collapse_message_names_the_place(self, policy, start_step,
                                                    where, gate_index):
        h = build_tfim(TfimParams(N=2, J=1.0, h=0.5))
        with pytest.raises(TraceCollapseError) as err:
            run_itpp(h, ScheduleConfig(0.04, 1.0), policy,
                     initial_state=PauliSum.identity(2),
                     start_step=start_step)
        assert str(err.value) == (
            f"trace collapsed at Trotter {where}: identity coefficient 0.0 "
            "is below 1e-300; the truncated state lost its trace"
        )
        assert err.value.step_index == start_step + 1
        assert err.value.gate_index == gate_index
        assert len(err.value.trajectory) == (1 if start_step == 0 else 0)

    def test_gate_fraction_one_freezes_growth(self):
        # full-height per-gate thresholding tests each new string before
        # sibling gates can add their contributions, so the retained basis
        # stays far smaller at the same delta
        h = build_tfim(TfimParams(N=6, J=1.0, h=0.5))
        sched = ScheduleConfig(0.04, 6.0)
        _, two_level = run_itpp(h, sched, Threshold(2 ** -7))
        _, per_gate = itpp_loop_oracle(h, sched, [Threshold(2 ** -7)], [])
        assert two_level.final.n_terms > 1.5 * per_gate[-1][1]

    def test_complex_initial_state_refused_before_any_gate(self,
                                                             monkeypatch):
        h = build_tfim(TfimParams(N=3))
        ident = PauliSum.identity(3)
        state = PauliSum._from_raw(3, ident._keys,
                                   ident._coeffs.astype(complex),
                                   ident._indices)
        gates_run = []
        monkeypatch.setattr(propagate_module, "apply_imaginary_gate",
                            lambda *args, **kw: gates_run.append(args))
        with pytest.raises(TypeError, match="real coefficients"):
            run_itpp(h, ScheduleConfig(0.1, 0.3), initial_state=state,
                     start_step=1)
        assert gates_run == []

    def test_initial_state_normalized_by_its_trace(self):
        # 0.5 I + 0.1 ZZII is the state I + 0.2 ZZII: purity 1.04, not 0.26
        h = build_tfim(TfimParams(N=4, J=1.0, h=0.5))
        sched = ScheduleConfig(0.04, 0.2)
        _, scaled = run_itpp(h, sched, initial_state=PauliSum.from_terms(
            4, [(0.5, "IIII"), (0.1, "ZZII")]))
        _, unit = run_itpp(h, sched, initial_state=PauliSum.from_terms(
            4, [(1.0, "IIII"), (0.2, "ZZII")]))
        assert scaled[0].purity == pytest.approx(1.04, abs=1e-15)
        assert [(r.energy, r.purity, r.n_terms) for r in scaled] == \
            [(r.energy, r.purity, r.n_terms) for r in unit]

    def test_deterministic_rerun_bit_identical(self):
        h = build_tfim(TfimParams(N=4, J=1.0, h=0.5))
        sched = ScheduleConfig(0.04, 1.0)
        s1, t1 = run_itpp(h, sched, Threshold(2 ** -7))
        s2, t2 = run_itpp(h, sched, Threshold(2 ** -7))
        assert s1 == s2
        assert np.array_equal(t1.energies(), t2.energies())
        # nothing carries over between runs in one process: the second run
        # numbers its terms exactly as the first and writes the same file
        assert np.array_equal(s1._indices, s2._indices)
        assert dumps_pauli_sum(s1) == dumps_pauli_sum(s2)

    def test_package_has_no_global_statement(self):
        package = pathlib.Path(paulievo.__file__).parent
        sources = sorted(package.glob("*.py"))
        assert sources
        for path in sources:
            tree = ast.parse(path.read_text(), filename=str(path))
            found = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Global)]
            assert not found, f"{path.name}: global statement at {found}"

    def test_state_stays_real_and_normalized(self):
        h = build_tfim(TfimParams(N=3, J=1.0, h=0.5))

        def check(step, state, record):
            assert state.is_real
            assert state.coefficient("III") == 1.0
            return False

        run_itpp(h, ScheduleConfig(0.04, 0.4), step_callback=check)

    def test_resume_from_checkpoint_state(self):
        h = build_tfim(TfimParams(N=3, J=1.0, h=0.5))
        sched = ScheduleConfig(0.04, 0.8)
        full_state, full_traj = run_itpp(h, sched, Threshold(1e-4))

        captured = {}

        def stop_at_10(step, state, record):
            if step == 10:
                captured["state"] = state
                return True
            return False

        run_itpp(h, sched, Threshold(1e-4), step_callback=stop_at_10)
        resumed_state, resumed_traj = run_itpp(
            h, sched, Threshold(1e-4),
            initial_state=captured["state"], start_step=10,
        )
        assert resumed_state == full_state
        assert resumed_traj.final.energy == full_traj.final.energy

    def test_fixed_k_policy_bounds_terms(self):
        h = build_tfim(TfimParams(N=4, J=1.0, h=0.5))
        _, traj = run_itpp(h, ScheduleConfig(0.04, 2.0), FixedK(12))
        assert max(rec.n_terms for rec in traj) <= 12

    def test_wide_chain_embedding_matches_small(self):
        # an 8-spin chain embedded in 40 qubits (two words per key) must
        # reproduce the 8-spin trajectory exactly
        small = build_tfim(TfimParams(N=8, J=1.0, h=0.5))
        wide = Hamiltonian(
            40, [(c, str(p) + "I" * 32) for c, p in small.terms]
        )
        sched = ScheduleConfig(0.04, 1.0)
        _, t_small = run_itpp(small, sched)
        _, t_wide = run_itpp(wide, sched)
        assert np.array_equal(t_small.energies(), t_wide.energies())
        assert [r.n_terms for r in t_small] == [r.n_terms for r in t_wide]


EMBEDDED_CHAIN = build_tfim(TfimParams(N=10, J=1.0, h=0.5))
# the chain with a longitudinal field, which breaks the TFIM's global spin
# flip: its states hold strings that differ in a single z bit
EMBEDDED_CHAINS = {
    "tfim": EMBEDDED_CHAIN,
    "field": Hamiltonian(10, [*EMBEDDED_CHAIN.terms, *[
        (0.3, "I" * i + "Z" + "I" * (9 - i)) for i in range(10)]]),
}
EMBEDDING_POLICIES = {
    "threshold": Threshold(2 ** -10),
    "fixed_k": FixedK(700),
    "combined": [Threshold(2 ** -9), WeightCutoff(6), FixedK(900)],
}


def embedding_run(hamiltonian, policy_name):
    """Final strings, coefficients and indices, the per-record (energy,
    n_terms, purity) and the squared-state energy of a run to tau 0.8."""
    state, traj = run_itpp(hamiltonian, ScheduleConfig(0.04, 0.8),
                           EMBEDDING_POLICIES[policy_name])
    return ([str(p) for p, _ in state.items()], state._coeffs,
            state._indices, [(r.energy, r.n_terms, r.purity) for r in traj],
            expectation_squared_state(hamiltonian.to_sum(), state))


@functools.cache
def narrow_embedding_run(chain_name, policy_name):
    return embedding_run(EMBEDDED_CHAINS[chain_name], policy_name)


def check_embedding(chain_name, width, offset, policy_name):
    """The chain run at ``offset`` in a ``width``-qubit register equals
    the narrow run bit for bit."""
    chain = EMBEDDED_CHAINS[chain_name]
    pad = width - offset - chain.n_qubits
    wide = Hamiltonian(width, [(c, "I" * offset + str(p) + "I" * pad)
                               for c, p in chain.terms])
    strings, coeffs, indices, records, estimate = embedding_run(
        wide, policy_name)
    (narrow_strings, narrow_coeffs, narrow_indices, narrow_records,
     narrow_estimate) = narrow_embedding_run(chain_name, policy_name)
    assert records == narrow_records
    assert np.array_equal(coeffs, narrow_coeffs)
    assert np.array_equal(indices, narrow_indices)
    assert [s[offset:offset + chain.n_qubits]
            for s in strings] == narrow_strings
    assert {s[:offset] + s[width - pad:] for s in strings} \
        == {"I" * (offset + pad)}
    assert estimate == narrow_estimate


class TestWidthEmbedding:
    """Identity qubits add zero bits to every key, so a chain embedded in
    a wider register keeps its canonical order, every float sum and every
    insertion index: its run equals the narrow run bit for bit.  The
    (width, offset) pairs span one to five words and put the chain across
    every word boundary; at (64, 54) it sets bit 0 of word 1, so the
    two-word composite key does not fit and the byte-string path runs.
    The TFIM's states are even under the global spin flip, so no two of
    their strings differ in one z bit; the field chain's are not, so a
    sort or lookup that loses word 1's lowest used bit shows there.  These
    runs are the end-to-end check of a change to the sort and lookup
    kernels."""

    @pytest.mark.parametrize("policy_name", EMBEDDING_POLICIES)
    @pytest.mark.parametrize("width, offset", [
        (32, 0), (32, 22), (40, 27), (64, 54), (70, 27), (70, 60),
        (100, 59), (130, 60),
    ])
    def test_embedded_run_matches_narrow(self, width, offset, policy_name):
        check_embedding("tfim", width, offset, policy_name)

    @pytest.mark.parametrize("policy_name", EMBEDDING_POLICIES)
    @pytest.mark.parametrize("width, offset", [(40, 27), (33, 23)])
    def test_field_chain_embedded_run_matches_narrow(self, width, offset,
                                                     policy_name):
        # the longitudinal field puts I and the last qubit's Z, which
        # differ only in word 1's lowest used bit, in the same state
        check_embedding("field", width, offset, policy_name)


class TestWidthEmbeddingResume:
    """A wide run checkpointed mid-way and resumed ends as the narrow
    uninterrupted run does, bit for bit."""

    @pytest.mark.parametrize("width, offset", [(40, 27), (70, 60)])
    def test_checkpointed_run_matches_narrow(self, tmp_path, width, offset):
        chain = EMBEDDED_CHAIN
        pad = width - offset - chain.n_qubits
        wide = Hamiltonian(width, [(c, "I" * offset + str(p) + "I" * pad)
                                   for c, p in chain.terms])
        policy = EMBEDDING_POLICIES["fixed_k"]
        sched = ScheduleConfig(0.04, 0.8)
        half, first = run_itpp(wide, ScheduleConfig(0.04, 0.4), policy)
        path = str(tmp_path / "half.psum")
        paulievo.save_pauli_sum(half, path)
        loaded, _ = paulievo.load_pauli_sum(path)
        assert_same_rows(loaded, half)
        state, rest = run_itpp(wide, sched, policy, initial_state=loaded,
                               start_step=10)
        assert len(first) == 11 and len(rest) == 10
        strings, coeffs, indices, records, _ = narrow_embedding_run(
            "tfim", "fixed_k")
        assert [(r.energy, r.n_terms, r.purity)
                for r in [*first, *rest]] == records
        wide_strings = [str(p) for p, _ in state.items()]
        assert [s[offset:offset + chain.n_qubits]
                for s in wide_strings] == strings
        assert {s[:offset] + s[width - pad:] for s in wide_strings} \
            == {"I" * (offset + pad)}
        assert np.array_equal(state._coeffs, coeffs)
        assert np.array_equal(state._indices, indices)


def assert_matches_loop_oracle(h, sched, policy, gate_policies,
                               step_policies):
    state, traj = run_itpp(h, sched, policy)
    ref_state, ref_records = itpp_loop_oracle(h, sched, gate_policies,
                                              step_policies)
    assert np.array_equal(state._keys, ref_state._keys)
    assert np.array_equal(state._coeffs, ref_state._coeffs)
    assert np.array_equal(state._indices, ref_state._indices)
    assert [(r.energy, r.n_terms) for r in traj] == ref_records


class TestTwoLevelThreshold:
    """``Threshold(delta)`` in a run: a provisional
    ``THRESHOLD_GATE_FRACTION * delta`` cut after every gate and the full
    ``delta`` at step end."""

    DELTAS = (2 ** -6, 2 ** -7, 2 ** -8)

    def test_split_places_each_level(self):
        fixed, weight = FixedK(8), WeightCutoff(3)
        f = THRESHOLD_GATE_FRACTION
        assert split_policy_by_cadence(None) == (None, None)
        assert split_policy_by_cadence(Threshold(0.5)) \
            == ([Threshold(f * 0.5)], [Threshold(0.5)])
        assert split_policy_by_cadence([fixed, weight]) \
            == ([fixed, weight], None)
        assert split_policy_by_cadence([fixed, Threshold(0.5), weight]) == (
            [fixed, Threshold(f * 0.5), weight], [Threshold(0.5)],
        )

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("delta", DELTAS)
    def test_two_level_matches_loop_oracle(self, n, delta):
        h = build_tfim(TfimParams(N=n, J=1.0, h=0.5))
        sched = ScheduleConfig(0.04, 1.2)
        f = THRESHOLD_GATE_FRACTION
        assert_matches_loop_oracle(
            h, sched, Threshold(delta),
            [Threshold(f * delta)], [Threshold(delta)],
        )
        # the provisional cut bites: the step-only cut keeps other terms
        two_level, _ = run_itpp(h, sched, Threshold(delta))
        step_only, _ = itpp_loop_oracle(h, sched, [], [Threshold(delta)])
        assert two_level != step_only

    @pytest.mark.parametrize("order", ["weight_first", "fixed_k_first"])
    def test_gate_part_keeps_policy_order(self, order):
        # a weight cutoff and a size budget do not commute, so running the
        # gate part out of order changes the state
        h = build_tfim(TfimParams(N=6, J=1.0, h=0.5))
        sched = ScheduleConfig(0.04, 1.2)
        delta, f = 2 ** -8, THRESHOLD_GATE_FRACTION
        first, last = FixedK(24), WeightCutoff(2)
        if order == "weight_first":
            first, last = last, first
        assert_matches_loop_oracle(
            h, sched, [first, Threshold(delta), last],
            [first, Threshold(f * delta), last], [Threshold(delta)],
        )
        swapped, _ = itpp_loop_oracle(
            h, sched, [last, Threshold(f * delta), first], [Threshold(delta)]
        )
        state, _ = run_itpp(h, sched, [first, Threshold(delta), last])
        assert state != swapped

    @pytest.mark.parametrize("delta", [2 ** -6, 2 ** -8])
    def test_threshold_before_fixed_k_matches_loop_oracle(self, delta):
        h = build_tfim(TfimParams(N=6, J=1.0, h=0.5))
        f = THRESHOLD_GATE_FRACTION
        policy = [Threshold(delta), FixedK(40)]
        assert split_policy_by_cadence(policy) == (
            [Threshold(f * delta), FixedK(40)], [Threshold(delta)],
        )
        assert_matches_loop_oracle(
            h, ScheduleConfig(0.04, 1.2), policy,
            [Threshold(f * delta), FixedK(40)], [Threshold(delta)],
        )

    @pytest.mark.parametrize("delta", [2 ** -10, 2 ** -6])
    def test_default_gate_fraction_keeps_accuracy(self, delta):
        params = TfimParams(N=8, J=1.0, h=0.5)
        h = build_tfim(params)
        e0 = bdg_ground_energy(params)
        sched = ScheduleConfig(0.04, 4.0)
        _, step_only = itpp_loop_oracle(h, sched, [], [Threshold(delta)])
        step_energy, step_terms = step_only[-1]
        _, default = run_itpp(h, sched, Threshold(delta),
                              reference_energy=e0)
        err = abs(step_energy - e0)
        assert abs(default.final.energy - step_energy) < 0.01 * err
        assert abs(default.final.n_terms - step_terms) < 0.01 * step_terms


class TestGateCutInRun:
    """``run_itpp`` folds the gate part's thresholds into the merge as one
    cut; the loop oracle still truncates after every gate."""

    @pytest.mark.parametrize("delta", [2 ** -6, 2 ** -4],
                             ids=["default", "coarse"])
    def test_zero_coefficient_term(self, delta):
        # the zero term's gate has tau_eff = 0 and spawns nothing, but the
        # cut must still drop what the normalization after the gate before
        # it pushed under the cut
        tfim = build_tfim(TfimParams(N=4, J=1.0, h=0.5))
        h = Hamiltonian(4, [*tfim.terms[:3], (0.0, "XXII"), *tfim.terms[3:]])
        assert_matches_loop_oracle(
            h, ScheduleConfig(0.04, 1.2), Threshold(delta),
            [Threshold(THRESHOLD_GATE_FRACTION * delta)], [Threshold(delta)],
        )

    def test_fixed_k_then_threshold(self):
        h = build_tfim(TfimParams(N=6, J=1.0, h=0.5))
        delta, f = 2 ** -8, THRESHOLD_GATE_FRACTION
        assert_matches_loop_oracle(
            h, ScheduleConfig(0.04, 1.2),
            [FixedK(40), Threshold(delta)],
            [FixedK(40), Threshold(f * delta)], [Threshold(delta)],
        )

    @pytest.mark.parametrize("a", [2 ** -8, 2 ** -4],
                             ids=["below", "above"])
    def test_two_thresholds(self, a):
        # the gate part holds Threshold(f * a) and Threshold(f * b), one cut
        # at the larger; a lies below b in one case, above it in the other
        h = build_tfim(TfimParams(N=6, J=1.0, h=0.5))
        b, f = 2 ** -6, THRESHOLD_GATE_FRACTION
        assert_matches_loop_oracle(
            h, ScheduleConfig(0.04, 1.2),
            [Threshold(a), Threshold(b)],
            [Threshold(f * a), Threshold(f * b)], [Threshold(a), Threshold(b)],
        )


def fused_budget_policy(n, name):
    k = 256 if n == 12 else 512
    return {
        "fixed_k": FixedK(k),
        "weight_then_fixed_k": [WeightCutoff(4), FixedK(k)],
        "fixed_k_then_weight": [FixedK(k), WeightCutoff(4)],
        "threshold_then_fixed_k": [Threshold(2 ** -10), FixedK(k)],
    }[name]


class TestFusedBudgetInRun:
    """``run_itpp`` applies the gate part of its policy inside each gate's
    merge, before the insert; the two-pass loop applies it to the merged
    state.  Budgets break ties by insertion index, and the TFIM's uniform
    couplings make ties at the k-th magnitude common."""

    @pytest.mark.parametrize("name", ["fixed_k", "weight_then_fixed_k",
                                      "fixed_k_then_weight",
                                      "threshold_then_fixed_k"])
    @pytest.mark.parametrize("n", [12, 40])
    def test_matches_two_pass_loop(self, n, name):
        h = build_tfim(TfimParams(N=n, J=1.0, h=0.5))
        sched = ScheduleConfig(0.04, 0.2)
        policy = fused_budget_policy(n, name)
        state, traj = run_itpp(h, sched, policy)
        ref_state, ref_records = two_pass_itpp(h, sched, policy)
        assert_same_rows(state, ref_state)
        assert [(r.energy, r.n_terms, r.purity) for r in traj] == ref_records

    @pytest.mark.parametrize("policy, step_part", [
        (FixedK(64), None),
        ([Threshold(2 ** -8), FixedK(64)], [Threshold(2 ** -8)]),
    ], ids=["fixed_k", "threshold_and_fixed_k"])
    def test_truncate_runs_only_at_step_end(self, monkeypatch, policy,
                                            step_part):
        calls = []

        def counted(state, part):
            calls.append(part)
            return truncate(state, part)

        monkeypatch.setattr(propagate_module, "truncate", counted)
        sched = ScheduleConfig(0.04, 0.2)
        run_itpp(build_tfim(TfimParams(N=6, J=1.0, h=0.5)), sched, policy)
        assert calls == ([] if step_part is None
                         else [step_part] * sched.n_steps)


class TestEstimators:
    def test_expectation_maximally_mixed(self):
        z = PauliSum.from_terms(1, [(1.0, "Z")])
        assert expectation(z, PauliSum.identity(1)) == 0.0

    def test_expectation_polarized(self):
        z = PauliSum.from_terms(1, [(1.0, "Z")])
        rho = PauliSum.from_terms(1, [(1.0, "I"), (0.5, "Z")])
        assert expectation(z, rho) == 0.5

    def test_expectation_unnormalized_state(self):
        z = PauliSum.from_terms(1, [(1.0, "Z")])
        rho = PauliSum.from_terms(1, [(2.0, "I"), (0.5, "Z")])
        assert expectation(z, rho) == 0.25

    def test_expectation_dense_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(8):
            obs = random_pauli_sum(rng, 3, 6)
            rho = random_pauli_sum(rng, 3, 6, with_identity=True)
            mat_o, mat_r = pauli_sum_matrix(obs), pauli_sum_matrix(rho)
            want = (np.trace(mat_o @ mat_r) / np.trace(mat_r)).real
            assert expectation(obs, rho) == pytest.approx(want, abs=1e-12)

    def test_expectation_zero_trace(self):
        z = PauliSum.from_terms(1, [(1.0, "Z")])
        with pytest.raises(TraceCollapseError):
            expectation(z, PauliSum.from_terms(1, [(1.0, "Z")]))

    def test_squared_state_maximally_mixed(self):
        z = PauliSum.from_terms(1, [(1.0, "Z")])
        assert expectation_squared_state(z, PauliSum.identity(1)) == 0.0

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.5])
    def test_squared_state_doubles_time(self, t):
        # thermal single-qubit state at time t reports <Z> at 2t
        z = PauliSum.from_terms(1, [(1.0, "Z")])
        rho = PauliSum.from_terms(1, [(1.0, "I"), (math.tanh(t), "Z")])
        got = expectation_squared_state(z, rho)
        assert got == pytest.approx(math.tanh(2 * t), abs=1e-12)

    def test_squared_state_equals_explicit_square(self):
        rng = np.random.default_rng(37)
        for _ in range(6):
            obs = random_pauli_sum(rng, 4, 8)
            rho = random_pauli_sum(rng, 4, 10, with_identity=True)
            via_square = squared_state_oracle(obs, rho)
            got = expectation_squared_state(obs, rho)
            assert got == pytest.approx(float(np.real(via_square)), abs=1e-10)

    @given(data=st.data(), n=st.sampled_from([3, 33, 40, 64, 65, 70]))
    @settings(max_examples=60, deadline=None)
    def test_squared_state_matches_oracle_wide(self, data, n):
        letters = st.text("IXYZ", min_size=n, max_size=n)
        coeff = st.floats(0.05, 1.0) | st.floats(-1.0, -0.05)
        # an anticommuting pair, so that Q P carries an odd phase: site j
        # adds 0 (X, X) or 1 (X, Z) to the symplectic form, whichever makes
        # it odd; with n > 32, Q straddles words 0 and 1 at qubits 31, 32
        j = data.draw(st.sampled_from([31, 32] if n > 32 else range(n)))
        p, q = list(data.draw(letters)), list(data.draw(letters))
        p[j] = q[j] = "X"
        if n > 32:
            q[63 - j] = data.draw(st.sampled_from("XYZ"))
        if commutes(pauli_from_text("".join(p)), pauli_from_text("".join(q))):
            q[j] = "Z"
        p, q = pauli_from_text("".join(p)), pauli_from_text("".join(q))
        phase, qp = multiply(q, p)
        assert not phase.is_real
        rho_texts = {str(p), str(qp)} | set(data.draw(st.lists(letters,
                                                               max_size=6)))
        rho_texts.discard("I" * n)
        rho = PauliSum.from_terms(n, [(1.0, "I" * n)] + [
            (data.draw(coeff), t) for t in sorted(rho_texts)
        ])
        # besides Q and random terms (most match no row), a term that
        # maps one row of rho onto another, and maybe the identity
        rows = [s for s, _ in rho.items()]
        hit = multiply(data.draw(st.sampled_from(rows)),
                       data.draw(st.sampled_from(rows)))[1]
        obs_texts = {str(q), str(hit)} | set(data.draw(st.lists(letters,
                                                                max_size=3)))
        if data.draw(st.booleans()):
            obs_texts.add("I" * n)
        obs = PauliSum.from_terms(n, [
            (data.draw(coeff), t) for t in sorted(obs_texts)
        ])
        want = squared_state_oracle(obs, rho)
        got = expectation_squared_state(obs, rho)
        assert abs(want.imag) < 1e-12
        assert got == pytest.approx(want.real, rel=1e-12, abs=1e-12)

    @given(data=st.data(), n=st.sampled_from([3, 33, 40, 64, 65, 70]))
    @settings(max_examples=30, deadline=None)
    def test_squared_state_no_matching_row_is_zero(self, data, n):
        # every row of rho is I on qubit 0 and every observable term is X
        # there, so no Q P is a row of rho
        rest = st.text("IXYZ", min_size=n - 1, max_size=n - 1)
        rho = PauliSum.from_terms(n, [(1.0, "I" * n)] + [
            (0.5, "I" + s) for s in data.draw(st.lists(rest, max_size=6))
            if s != "I" * (n - 1)
        ])
        obs = PauliSum.from_terms(n, [
            (1.0, "X" + s) for s in data.draw(st.lists(rest, min_size=1,
                                                       max_size=3))
        ])
        assert squared_state_oracle(obs, rho) == 0
        assert expectation_squared_state(obs, rho) == 0.0

    def test_squared_state_width_mismatch(self):
        z = PauliSum.from_terms(1, [(1.0, "Z")])
        with pytest.raises(DimensionMismatchError):
            expectation_squared_state(z, PauliSum.identity(33))

    def test_squared_state_dense_oracle(self):
        rng = np.random.default_rng(39)
        obs = random_pauli_sum(rng, 3, 5)
        rho = random_pauli_sum(rng, 3, 7, with_identity=True)
        mo, mr = pauli_sum_matrix(obs), pauli_sum_matrix(rho)
        want = (np.trace(mo @ mr @ mr) / np.trace(mr @ mr)).real
        assert expectation_squared_state(obs, rho) == pytest.approx(want, abs=1e-12)


class TestRelativeError:
    def test_arithmetic(self):
        got = relative_error(-1.40, -1.41421356)
        assert got == pytest.approx(abs(-1.40 + 1.41421356) / 1.41421356, abs=0)
        assert got == pytest.approx(0.010050, abs=1e-5)

    def test_exact_match(self):
        assert relative_error(-2.5, -2.5) == 0.0

    def test_unit_error(self):
        assert relative_error(0.0, -2.0) == 1.0

    def test_zero_reference(self):
        assert relative_error(1.0, 0.0) is None
        assert relative_error(1.0, None) is None


def brute_force_support(hamiltonian):
    """Independent closure oracle over scalar strings."""
    gens = [p for _, p in hamiltonian.gated_terms()]
    seen = {PauliString.identity(hamiltonian.n_qubits)}
    frontier = set(seen)
    while frontier:
        new = set()
        for p in frontier:
            for g in gens:
                if commutes(p, g):
                    _, r = multiply(g, p)
                    if r not in seen:
                        new.add(r)
        seen |= new
        frontier = new
    return len(seen)


class TestReachableSupport:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_brute_force(self, n):
        h = build_tfim(TfimParams(N=n, J=1.0, h=0.5))
        assert reachable_support_size(h) == brute_force_support(h)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_tfim_closure_is_central_binomial(self, n):
        h = build_tfim(TfimParams(N=n, J=1.0, h=0.5))
        assert reachable_support_size(h) == math.comb(2 * n, n)

    def test_untruncated_run_saturates_at_closure(self):
        h = build_tfim(TfimParams(N=3, J=1.0, h=0.5))
        _, traj = run_itpp(h, ScheduleConfig(0.04, 2.0))
        assert traj.final.n_terms == reachable_support_size(h)

    def test_max_size_guard(self):
        h = build_tfim(TfimParams(N=6, J=1.0, h=0.5))
        with pytest.raises(ValueError):
            reachable_support_size(h, max_size=100)

    def test_n12_closure_count(self):
        # the N=12 untruncated support, checked here by fast closure; the
        # heavy acceptance tier confirms the same number from a real run
        h = build_tfim(TfimParams(N=12, J=1.0, h=0.5))
        assert reachable_support_size(h) == 2_704_156


class TestTwoWordKernelsInRun:
    """Runs on two-word keys equal, bit for bit, runs whose sort and lookup
    are the reference ``lexsort`` and byte-string kernels."""

    @pytest.mark.parametrize("n, policy", [
        (40, FixedK(512)),
        (33, Threshold(2 ** -6)),
    ])
    def test_run_matches_reference_kernels(self, monkeypatch, n, policy):
        h = build_tfim(TfimParams(N=n, J=1.0, h=0.5))
        sched = ScheduleConfig(0.04, 0.12)

        def run():
            state, traj = run_itpp(h, sched, policy)
            return (state, [(r.energy, r.n_terms) for r in traj],
                    expectation_squared_state(h.to_sum(), state))

        state, records, estimate = run()
        for module in (propagate_module, opsum_module):
            monkeypatch.setattr(module, "canonical_argsort", lexsort_argsort)
            monkeypatch.setattr(module, "find_rows", bytestring_find_rows)
        ref_state, ref_records, ref_estimate = run()
        assert len(records) == 4 and len(state) > 1
        assert np.array_equal(state._keys, ref_state._keys)
        assert np.array_equal(state._coeffs, ref_state._coeffs)
        assert np.array_equal(state._indices, ref_state._indices)
        assert records == ref_records
        assert estimate == ref_estimate


def _trajectory_at(*taus):
    traj = Trajectory()
    for tau in taus:
        traj.append(TrajectoryRecord(tau, 0.0, None, 1, 1.0, None))
    return traj


class TestGuards:
    @pytest.mark.parametrize("build, error, named", [
        pytest.param(lambda: _trajectory_at(0.0, 0.04, 0.04), ValueError,
                     "strictly increasing", id="repeated-tau"),
        pytest.param(lambda: _trajectory_at(0.04, 0.0), ValueError,
                     "strictly increasing", id="falling-tau"),
        pytest.param(lambda: apply_real_gate(PauliSum.identity(2),
                                             gate("ZZ", tau=0.1)),
                     ValueError, "no theta", id="real-gate-without-theta"),
        pytest.param(lambda: propagate_module._real_part(1.0, 1e-6),
                     ValueError, "imaginary residue", id="imaginary-residue"),
        pytest.param(
            lambda: expectation_squared_state(PauliSum.identity(2),
                                              PauliSum(2)),
            DegenerateStateError, "zero purity", id="zero-purity"),
        pytest.param(
            lambda: reachable_support_size(Hamiltonian(2, [(0.5, "II")])),
            ValueError, "no non-identity terms", id="identity-only-support"),
    ])
    def test_refused(self, build, error, named):
        with pytest.raises(error, match=named):
            build()

    @pytest.mark.parametrize("apply, spec", [
        (apply_imaginary_gate, gate("ZZ", tau=0.1)),
        (apply_real_gate, gate("ZZ", theta=0.1)),
    ], ids=["imaginary", "real"])
    def test_gate_on_empty_sum_returns_it(self, apply, spec):
        empty = PauliSum(2)
        assert apply(empty, spec) is empty
