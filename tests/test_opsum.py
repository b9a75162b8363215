"""PauliSum operations against dense-trace oracles, plus truncation rules."""

import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paulievo import (
    DimensionMismatchError,
    FixedK,
    GateSpec,
    PauliSum,
    ScheduleConfig,
    TfimParams,
    Threshold,
    TraceCollapseError,
    WeightCutoff,
    apply_imaginary_gate,
    build_tfim,
    load_pauli_sum,
    normalize_by_trace,
    normalized_trace,
    overlap,
    pauli_from_text,
    product,
    purity,
    run_itpp,
    save_pauli_sum,
    truncate,
)
from paulievo.opsum import dumps_pauli_sum

from helpers import dense, normalized_trace_dense, random_pauli_sum


class TestConstruction:
    def test_duplicates_merge_on_insertion(self):
        a = PauliSum.from_terms(2, [(1.0, "ZZ"), (2.5, "ZZ")])
        assert len(a) == 1
        assert a.coefficient("ZZ") == 3.5

    def test_exact_cancellation_dropped(self):
        a = PauliSum.from_terms(2, [(1.0, "ZZ"), (-1.0, "ZZ"), (0.5, "XX")])
        assert len(a) == 1
        assert "ZZ" not in a

    def test_relative_zero_dropped_after_merge(self):
        a = PauliSum.from_terms(
            2, [(1.0, "ZZ"), (1e-16, "XX")]
        )
        assert "XX" not in a  # below 1e-15 of the largest magnitude

    def test_no_stored_zeros(self):
        a = PauliSum.from_terms(1, [(0.0, "Z")])
        assert len(a) == 0

    def test_complex_coefficients_rejected(self):
        with pytest.raises(TypeError):
            PauliSum.from_terms(1, [(1j, "Z")])

    def test_width_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            PauliSum.from_terms(2, [(1.0, "ZZZ")])

    def test_items_canonical_order(self):
        a = PauliSum.from_terms(2, [(1.0, "YY"), (2.0, "II"), (3.0, "XZ")])
        texts = [str(s) for s, _ in a.items()]
        assert texts[0] == "II"
        assert texts == sorted(
            texts, key=lambda t: PauliSum.from_terms(2, [(1, t)])._keys[0, 0]
        )


class TestNormalizedTrace:
    def test_identity_coefficient(self):
        a = PauliSum.from_terms(2, [(3.0, "II"), (0.5, "ZZ")])
        assert normalized_trace(a) == 3.0

    def test_traceless(self):
        assert normalized_trace(PauliSum.from_terms(2, [(0.5, "XY")])) == 0.0

    def test_empty(self):
        assert normalized_trace(PauliSum.zero(2)) == 0.0


class TestOverlap:
    def test_matching_single_terms(self):
        a = PauliSum.from_terms(2, [(2.0, "XX")])
        b = PauliSum.from_terms(2, [(3.0, "XX")])
        assert overlap(a, b) == 6.0

    def test_disjoint(self):
        a = PauliSum.from_terms(2, [(1.0, "XX")])
        b = PauliSum.from_terms(2, [(1.0, "YY")])
        assert overlap(a, b) == 0.0

    def test_dense_oracle_random(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = random_pauli_sum(rng, 3, 5)
            b = random_pauli_sum(rng, 3, 6)
            expected = normalized_trace_dense(dense(a) @ dense(b)).real
            assert overlap(a, b) == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = random_pauli_sum(rng, 4, 7)
        b = random_pauli_sum(rng, 4, 9)
        assert overlap(a, b) == pytest.approx(overlap(b, a), abs=0)

    def test_width_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            overlap(PauliSum.zero(2), PauliSum.zero(3))

    def test_wide_rows(self):
        n = 40  # two words per key
        a = PauliSum.from_terms(n, [(2.0, "X" * n), (1.0, "I" * n)])
        b = PauliSum.from_terms(n, [(0.5, "X" * n), (3.0, "Z" * n)])
        assert overlap(a, b) == 1.0


class TestPurity:
    def test_identity(self):
        assert purity(PauliSum.identity(3)) == 1.0

    def test_two_units(self):
        a = PauliSum.from_terms(2, [(1.0, "II"), (1.0, "ZZ")])
        assert purity(a) == 2.0

    def test_dense_oracle_random(self):
        rng = np.random.default_rng(17)
        a = random_pauli_sum(rng, 3, 8)
        expected = normalized_trace_dense(dense(a) @ dense(a)).real
        assert purity(a) == pytest.approx(expected, abs=1e-12)

    def test_equals_self_overlap(self):
        rng = np.random.default_rng(19)
        a = random_pauli_sum(rng, 4, 10)
        assert purity(a) == pytest.approx(overlap(a, a), abs=1e-14)


class TestProduct:
    def test_x_squared(self):
        x = PauliSum.from_terms(1, [(1.0, "X")])
        out = product(x, x)
        assert len(out) == 1
        assert out.coefficient("I") == 1.0 + 0j

    def test_phase_emerges(self):
        x = PauliSum.from_terms(1, [(1.0, "X")])
        y = PauliSum.from_terms(1, [(1.0, "Y")])
        out = product(x, y)
        assert out.coefficient("Z") == 1j

    def test_dense_oracle_random(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            a = random_pauli_sum(rng, 3, 5)
            b = random_pauli_sum(rng, 3, 5)
            got = dense(product(a, b))
            assert np.abs(got - dense(a) @ dense(b)).max() < 1e-12

    def test_block_processing_matches(self):
        rng = np.random.default_rng(43)
        a = random_pauli_sum(rng, 4, 12)
        b = random_pauli_sum(rng, 4, 20)
        full = product(a, b)
        blocked = product(a, b, block_rows=3)
        assert full == blocked

    def test_associativity_roundoff(self):
        rng = np.random.default_rng(47)
        for _ in range(6):
            a = random_pauli_sum(rng, 3, 4)
            b = random_pauli_sum(rng, 3, 4)
            c = random_pauli_sum(rng, 3, 4)
            left = dense(product(product(a, b), c))
            right = dense(product(a, product(b, c)))
            assert np.abs(left - right).max() < 1e-12


class TestTruncate:
    def test_threshold_strict(self):
        a = PauliSum.from_terms(
            2, [(1.0, "II"), (0.004, "ZZ"), (0.1, "XI")]
        )
        out = truncate(a, Threshold(0.01))
        assert set(str(s) for s, _ in out.items()) == {"II", "XI"}

    def test_threshold_boundary_not_kept(self):
        a = PauliSum.from_terms(1, [(0.25, "Z"), (1.0, "I")])
        out = truncate(a, Threshold(0.25))
        assert "Z" not in out  # retain requires |c| strictly above delta

    def test_fixed_k_under_budget(self):
        rng = np.random.default_rng(3)
        a = random_pauli_sum(rng, 3, 5)
        assert truncate(a, FixedK(5)) == a

    def test_fixed_k_tie_break_first_seen(self):
        # ZZ seen first, XX second; canonical key order would pick XX first,
        # so ties must follow insertion order instead
        a = PauliSum.from_terms(
            2, [(0.5, "ZZ"), (0.5, "XX"), (0.3, "YY")]
        )
        out = truncate(a, FixedK(2))
        kept = set(str(s) for s, _ in out.items())
        assert kept == {"ZZ", "XX"}

    def test_fixed_k_prefers_magnitude(self):
        a = PauliSum.from_terms(
            2, [(0.1, "ZZ"), (0.9, "XX"), (0.5, "YY")]
        )
        out = truncate(a, FixedK(2))
        kept = set(str(s) for s, _ in out.items())
        assert kept == {"XX", "YY"}

    def test_fixed_k_stability(self):
        # dropping the weakest kept term and shrinking K by one keeps the rest
        rng = np.random.default_rng(59)
        a = random_pauli_sum(rng, 4, 30)
        for k in (17, 9, 4):
            kept = truncate(a, FixedK(k))
            ranked = sorted(
                kept.items(),
                key=lambda sc: (abs(sc[1]), -kept.insertion_index(sc[0])),
            )
            weakest = ranked[0][0]
            smaller = truncate(a, FixedK(k - 1))
            expected = set(str(s) for s, _ in kept.items()) - {str(weakest)}
            assert set(str(s) for s, _ in smaller.items()) == expected

    def test_weight_cutoff(self):
        a = PauliSum.from_terms(
            3, [(1.0, "III"), (1.0, "XII"), (1.0, "XYI"), (1.0, "XYZ")]
        )
        out = truncate(a, WeightCutoff(2))
        assert set(str(s) for s, _ in out.items()) == {"III", "XII", "XYI"}

    def test_identity_not_protected(self):
        a = PauliSum.from_terms(1, [(0.1, "I"), (0.9, "Z")])
        out = truncate(a, FixedK(1))
        assert "I" not in out
        with pytest.raises(TraceCollapseError):
            normalize_by_trace(out)

    def test_policy_list_applied_in_order(self):
        a = PauliSum.from_terms(
            2, [(1.0, "II"), (0.8, "XY"), (0.7, "XI"), (0.05, "ZZ")]
        )
        out = truncate(a, [Threshold(0.1), WeightCutoff(1), FixedK(2)])
        assert set(str(s) for s, _ in out.items()) == {"II", "XI"}

    def test_none_is_identity(self):
        rng = np.random.default_rng(61)
        a = random_pauli_sum(rng, 3, 6)
        assert truncate(a, None) == a
        assert truncate(a, Threshold(0.0)) == a

    @given(st.integers(1, 40), st.integers(1, 6))
    def test_never_grows(self, k, n_terms):
        rng = np.random.default_rng(1000 + k)
        a = random_pauli_sum(rng, 3, min(n_terms, 20))
        for policy in (Threshold(0.3), FixedK(k), WeightCutoff(2)):
            assert len(truncate(a, policy)) <= len(a)
            assert len(truncate(a, FixedK(k))) <= k


class TestNormalizeByTrace:
    def test_basic(self):
        a = PauliSum.from_terms(2, [(2.0, "II"), (1.0, "ZZ")])
        out = normalize_by_trace(a)
        assert out.coefficient("II") == 1.0
        assert out.coefficient("ZZ") == 0.5

    def test_idempotent(self):
        a = PauliSum.from_terms(1, [(1.0, "I")])
        assert normalize_by_trace(a) == a
        b = PauliSum.from_terms(1, [(4.0, "I"), (2.0, "Z")])
        once = normalize_by_trace(b)
        assert normalize_by_trace(once) == once

    def test_zero_trace_collapses(self):
        with pytest.raises(TraceCollapseError):
            normalize_by_trace(PauliSum.from_terms(2, [(1.0, "ZZ")]))

    def test_identity_coefficient_exactly_one(self):
        rng = np.random.default_rng(67)
        a = random_pauli_sum(rng, 4, 12, with_identity=True)
        out = normalize_by_trace(a)
        assert out.coefficient("IIII") == 1.0


class TestInsertionIndices:
    def test_monotone_within_sum(self):
        a = PauliSum.from_terms(2, [(1.0, "ZZ"), (1.0, "XX"), (1.0, "YY")])
        assert a.insertion_index("ZZ") < a.insertion_index("XX") \
            < a.insertion_index("YY")

    @pytest.mark.parametrize("n", [3, 40])
    def test_spawned_terms_index_above_state(self, n):
        pad = "I" * (n - 3)

        def gate(text):
            return GateSpec(generator=pauli_from_text(text + pad), tau_eff=0.3)

        def spawn_and_check(state, text):
            out = apply_imaginary_gate(state, gate(text))
            top = int(state._indices.max())
            for s, _ in out.items():
                if s in state:
                    assert out.insertion_index(s) == state.insertion_index(s)
                else:
                    assert out.insertion_index(s) > top
            return out

        state = PauliSum.identity(n)
        state = spawn_and_check(state, "ZII")  # spawns ZII
        state = spawn_and_check(state, "IXI")  # spawns IXI, then ZXI last
        newest = max(state.items(), key=lambda sc: state.insertion_index(sc[0]))
        assert str(newest[0]) == "ZXI" + pad
        # the weight cutoff drops the newest term; IXI re-creates it
        state = truncate(state, WeightCutoff(1))
        assert "ZXI" + pad not in state
        state = spawn_and_check(state, "IXI")
        assert "ZXI" + pad in state
        # a checkpoint load keeps the numbering that later spawns start above
        loaded, _ = load_pauli_sum(io.StringIO(dumps_pauli_sum(state)))
        assert np.array_equal(loaded._indices, state._indices)
        after = spawn_and_check(loaded, "IIZ")
        assert np.array_equal(
            after._indices, apply_imaginary_gate(state, gate("IIZ"))._indices
        )


class TestSerialization:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(71)
        a = random_pauli_sum(rng, 5, 17, with_identity=True)
        buf = io.StringIO(dumps_pauli_sum(a, {"step": 12, "tau": repr(0.48)}))
        b, extras = load_pauli_sum(buf)
        assert b == a
        assert (b._indices == a._indices).all()
        assert extras == {"step": "12", "tau": "0.48"}

    def test_header_and_row_format(self):
        a = PauliSum.from_terms(2, [(0.5, "XZ"), (1.0, "II")])
        text = dumps_pauli_sum(a)
        lines = text.splitlines()
        assert lines[0] == "# pauli-sum v1"
        assert lines[1] == "n_qubits = 2"
        assert lines[2] == "n_terms = 2"
        # canonical order puts the identity first; x/z hex then coefficient
        assert lines[3].startswith("0 0 1.0")
        x_hex, z_hex, coeff, idx = lines[4].split()
        assert (int(x_hex, 16), int(z_hex, 16)) == (0b10, 0b01)
        assert float(coeff) == 0.5

    def test_coefficients_have_17_significant_digits(self):
        a = PauliSum.from_terms(1, [(1 / 3, "Z"), (1.0, "I")])
        row = dumps_pauli_sum(a).splitlines()[-1]
        mantissa = row.split()[2].split("e")[0]
        assert len(mantissa.replace("-", "").replace(".", "")) >= 17

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(73)
        a = random_pauli_sum(rng, 40, 9)  # multi-word keys
        path = tmp_path / "state.psum"
        save_pauli_sum(a, str(path))
        b, _ = load_pauli_sum(str(path))
        assert b == a

    @pytest.mark.parametrize("n", [6, 40])
    def test_resumed_fixed_k_run_matches_uninterrupted(self, n, tmp_path):
        ham = build_tfim(TfimParams(N=n, J=1.0, h=0.5))
        sched = ScheduleConfig(0.1, 0.6)
        full, _ = run_itpp(ham, sched, FixedK(24))
        path = str(tmp_path / "state.psum")

        def save_at_3(step, state, record):
            if step == 3:
                save_pauli_sum(state, path)
                return True
            return False

        run_itpp(ham, sched, FixedK(24), step_callback=save_at_3)
        loaded, _ = load_pauli_sum(path)
        resumed, _ = run_itpp(ham, sched, FixedK(24), initial_state=loaded,
                              start_step=3)
        assert len(full) == 24
        assert resumed == full
        assert np.array_equal(resumed._indices, full._indices)

    @pytest.mark.parametrize("n", [3, 40])
    def test_rows_out_of_order_or_extra_rejected(self, n):
        pad = "I" * (n - 3)
        a = PauliSum.from_terms(n, [(1.0, "III" + pad), (0.5, "ZII" + pad),
                                    (0.25, "IXI" + pad), (0.125, "ZZZ" + pad)])
        lines = dumps_pauli_sum(a).splitlines(keepends=True)
        head, rows = lines[:3], lines[3:]
        assert head[2] == "n_terms = 4\n"

        def load(text):
            return load_pauli_sum(io.StringIO(text))

        # trailing blank lines are harmless
        assert load("".join(head + rows) + "\n  \n")[0] == a
        swapped = rows[:1] + [rows[2], rows[1]] + rows[3:]
        with pytest.raises(ValueError, match="row 2 is not above row 1"):
            load("".join(head + swapped))
        with pytest.raises(ValueError, match="row 4: content after"):
            load("".join(head + rows + rows[-1:]))
        repeated = ["n_terms = 5\n" if line == head[2] else line
                    for line in head]
        with pytest.raises(ValueError, match="row 4 is not above row 3"):
            load("".join(repeated + rows + rows[-1:]))

    def test_complex_rejected(self):
        x = PauliSum.from_terms(1, [(1.0, "X")])
        y = PauliSum.from_terms(1, [(1.0, "Y")])
        with pytest.raises(TypeError):
            dumps_pauli_sum(product(x, y))
