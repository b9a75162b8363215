"""PauliSum operations against dense-trace oracles, plus truncation rules."""

import io
import itertools
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

import paulievo.opsum as opsum_module

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
    purity,
    run_itpp,
    save_pauli_sum,
    truncate,
)
from paulievo.opsum import CHECKPOINT_BLOCK_ROWS
from paulievo.pauli import key_to_words, n_words, valid_key_mask

from helpers import (
    dense_terms,
    dumps_pauli_sum,
    normalized_trace_dense,
    oracle_save_v2,
    pauli_sum_matrix,
    product_terms,
    random_pauli_sum,
    squared_state_oracle,
)


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

    @pytest.mark.parametrize("zz, named", [
        pytest.param([math.nan], "nan", id="nan"),
        pytest.param([math.inf], "inf", id="inf"),
        pytest.param([-math.inf], "-inf", id="-inf"),
        pytest.param([1e308, 1e308], "inf", id="duplicates-overflow"),
    ])
    def test_non_finite_coefficient_rejected(self, zz, named):
        # one such coefficient, given or merged, would otherwise set the
        # drop floor, and the finite terms, the identity among them, would
        # be lost
        with pytest.raises(ValueError,
                           match=f"coefficient {named} of ZZ is not finite"):
            PauliSum.from_terms(2, [*((c, "ZZ") for c in zz), (1.0, "II")])

    def test_complex_coefficients_rejected(self):
        with pytest.raises(TypeError):
            PauliSum.from_terms(1, [(1j, "Z")])

    @pytest.mark.parametrize("ctype", [np.complex64, np.complex128])
    def test_numpy_complex_coefficients(self, ctype):
        # np.complex64 is not a subclass of complex; its imaginary part
        # must not be dropped with only a ComplexWarning
        with pytest.raises(TypeError):
            PauliSum.from_terms(2, [(ctype(1 + 2j), "XZ")])
        a = PauliSum.from_terms(2, [(ctype(1.5 + 0j), "XZ")])
        assert a.coefficient("XZ") == 1.5
        assert a._coeffs.dtype == np.float64

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

    # the states that broke a run when the constructor took arrays
    @pytest.mark.parametrize("keys, coeffs", [
        pytest.param(np.array([[3 << 60], [0]], dtype=np.uint64), [0.5, 1.0],
                     id="reverse-order"),
        pytest.param(np.array([[0], [3 << 60], [3 << 60]], dtype=np.uint64),
                     [1.0, 0.5, 0.5], id="repeated-row"),
        pytest.param(np.array([[0], [3 << 60]], dtype=np.int64), [1.0, 0.5],
                     id="int64-keys"),
        pytest.param(np.array([[0], [3 << 60]], dtype=np.uint64), [0.5, 0.5],
                     id="identity-one-half"),
    ])
    def test_arrays_do_not_enter_through_the_constructor(self, keys, coeffs):
        indices = np.arange(len(coeffs), dtype=np.int64)
        with pytest.raises(TypeError):
            PauliSum(2, keys, np.array(coeffs), indices)

    @pytest.mark.parametrize("check", [
        pytest.param(lambda: len(PauliSum.from_terms(3, [])) == 0,
                     id="from-no-terms"),
        pytest.param(lambda: PauliSum.from_terms(2, [(1.0, "ZZ")])
                     .coefficient("XX") == 0.0, id="absent-coefficient"),
        pytest.param(lambda: overlap(PauliSum(2), PauliSum.identity(2)) == 0.0,
                     id="overlap-empty-left"),
        pytest.param(lambda: overlap(PauliSum.identity(2), PauliSum(2)) == 0.0,
                     id="overlap-empty-right"),
    ])
    def test_empty_and_absent_read_as_zero(self, check):
        assert check()

    @pytest.mark.parametrize("build, error, named", [
        pytest.param(lambda: PauliSum(0), ValueError,
                     "n_qubits must be positive", id="no-qubits"),
        pytest.param(lambda: PauliSum.identity(0), ValueError,
                     "n_qubits must be positive", id="identity-no-qubits"),
        pytest.param(lambda: FixedK(0), ValueError, "k must be positive",
                     id="fixed-k-0"),
        pytest.param(lambda: WeightCutoff(0), ValueError,
                     "max_weight must be positive", id="weight-0"),
        pytest.param(lambda: PauliSum.from_terms(2, [(1.0, "ZZ")])
                     .insertion_index("XX"), KeyError, "XX not present",
                     id="absent-insertion-index"),
    ])
    def test_guards(self, build, error, named):
        with pytest.raises(error, match=named):
            build()

    def test_repr_builds_only_the_strings_it_shows(self, monkeypatch):
        texts = ["".join(t) for t in itertools.product("IXYZ", repeat=5)]
        a = PauliSum.from_terms(5, [(1.0 + i, t)
                                    for i, t in enumerate(texts[:1000])])
        expected = repr(a)
        built = []

        class Counting(opsum_module.PauliString):
            def __post_init__(self):
                built.append(self.key)
                super().__post_init__()

        monkeypatch.setattr(opsum_module, "PauliString", Counting)
        assert repr(a) == expected
        assert expected.endswith(", ... (1000 terms))")
        assert len(built) == 4


class TestNormalizedTrace:
    def test_identity_coefficient(self):
        a = PauliSum.from_terms(2, [(3.0, "II"), (0.5, "ZZ")])
        assert normalized_trace(a) == 3.0

    def test_traceless(self):
        assert normalized_trace(PauliSum.from_terms(2, [(0.5, "XY")])) == 0.0

    def test_empty(self):
        assert normalized_trace(PauliSum(2)) == 0.0


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
            expected = normalized_trace_dense(
                pauli_sum_matrix(a) @ pauli_sum_matrix(b)).real
            assert overlap(a, b) == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = random_pauli_sum(rng, 4, 7)
        b = random_pauli_sum(rng, 4, 9)
        assert overlap(a, b) == pytest.approx(overlap(b, a), abs=0)

    def test_width_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            overlap(PauliSum(2), PauliSum(3))

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
        expected = normalized_trace_dense(
            pauli_sum_matrix(a) @ pauli_sum_matrix(a)).real
        assert purity(a) == pytest.approx(expected, abs=1e-12)

    def test_equals_self_overlap(self):
        rng = np.random.default_rng(19)
        a = random_pauli_sum(rng, 4, 10)
        assert purity(a) == pytest.approx(overlap(a, a), abs=1e-14)


class TestProduct:
    """The explicit product behind the squared-state oracle of the tests."""

    def test_x_squared(self):
        x = PauliSum.from_terms(1, [(1.0, "X")])
        assert product_terms(x, x) == {pauli_from_text("I"): 1.0 + 0j}

    def test_phase_emerges(self):
        x = PauliSum.from_terms(1, [(1.0, "X")])
        y = PauliSum.from_terms(1, [(1.0, "Y")])
        assert product_terms(x, y) == {pauli_from_text("Z"): 1j}

    def test_dense_oracle_random(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            a = random_pauli_sum(rng, 3, 5)
            b = random_pauli_sum(rng, 3, 5)
            got = dense_terms(product_terms(a, b))
            want = pauli_sum_matrix(a) @ pauli_sum_matrix(b)
            assert np.abs(got - want).max() < 1e-12

    def test_associativity_roundoff(self):
        rng = np.random.default_rng(47)
        for _ in range(6):
            a = random_pauli_sum(rng, 3, 4)
            b = random_pauli_sum(rng, 3, 4)
            c = random_pauli_sum(rng, 3, 4)
            left = dense_terms(product_terms(product_terms(a, b), c))
            right = dense_terms(product_terms(a, product_terms(b, c)))
            assert np.abs(left - right).max() < 1e-12

    def test_squared_state_oracle_dense(self):
        rng = np.random.default_rng(43)
        for _ in range(8):
            obs = random_pauli_sum(rng, 3, 5)
            rho = random_pauli_sum(rng, 3, 7, with_identity=True)
            mo, mr = pauli_sum_matrix(obs), pauli_sum_matrix(rho)
            want = np.trace(mo @ mr @ mr) / np.trace(mr @ mr)
            assert abs(squared_state_oracle(obs, rho) - want) < 1e-12


class TestTruncate:
    def test_threshold_strict(self):
        a = PauliSum.from_terms(
            2, [(1.0, "II"), (0.004, "ZZ"), (0.1, "XI")]
        )
        out = truncate(a, Threshold(0.01))
        assert set(str(s) for s, _ in out.items()) == {"II", "XI"}

    @pytest.mark.parametrize("delta", [-0.1, math.nan, math.inf],
                             ids=["-0.1", "nan", "inf"])
    def test_threshold_rejects_negative_and_non_finite(self, delta):
        with pytest.raises(ValueError):
            Threshold(delta)

    @pytest.mark.parametrize("build, named", [
        pytest.param(lambda: FixedK(2.5), "k must be an integer, not 2.5",
                     id="fixed-k-2.5"),
        pytest.param(lambda: FixedK(2.0), "k must be an integer, not 2.0",
                     id="fixed-k-2.0"),
        pytest.param(lambda: FixedK(True), "k must be an integer, not True",
                     id="fixed-k-True"),
        pytest.param(lambda: FixedK(np.True_), "k must be an integer",
                     id="fixed-k-numpy-True"),
        pytest.param(lambda: WeightCutoff(1.5),
                     "max_weight must be an integer, not 1.5", id="weight-1.5"),
        pytest.param(lambda: WeightCutoff(True),
                     "max_weight must be an integer, not True",
                     id="weight-True"),
        pytest.param(lambda: FixedK(np.int64(-1)), "k must be positive",
                     id="fixed-k-numpy-negative"),
    ])
    def test_counts_must_be_positive_integers(self, build, named):
        with pytest.raises(ValueError, match=named):
            build()

    def test_numpy_integer_counts_accepted(self):
        a = PauliSum.from_terms(
            2, [(1.0, "II"), (0.5, "ZZ"), (0.25, "XI"), (0.125, "XX")]
        )
        assert truncate(a, [WeightCutoff(np.int64(1)), FixedK(np.int32(2))]) \
            == truncate(a, [WeightCutoff(1), FixedK(2)])

    def test_threshold_is_one_cut(self):
        # a run's per-gate cut is decided by split_policy_by_cadence, not
        # carried by the threshold
        with pytest.raises(TypeError):
            Threshold(0.1, gate_fraction=0.5)

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

    @pytest.mark.parametrize("policy", [
        pytest.param([[Threshold(0.1)], (WeightCutoff(1), [FixedK(2)])],
                     id="nested"),
        pytest.param([None, Threshold(0.1), [None, WeightCutoff(1)], None,
                      (FixedK(2),)], id="none-parts"),
        pytest.param(([[[Threshold(0.1), WeightCutoff(1)]]], FixedK(2)),
                     id="deep-tuple"),
    ])
    def test_nested_and_none_parts_flatten_in_order(self, policy):
        a = PauliSum.from_terms(
            2, [(1.0, "II"), (0.8, "XY"), (0.7, "XI"), (0.05, "ZZ")]
        )
        out = truncate(a, policy)
        flat = truncate(a, [Threshold(0.1), WeightCutoff(1), FixedK(2)])
        assert set(str(s) for s, _ in out.items()) == {"II", "XI"}
        assert out == flat
        assert np.array_equal(out._indices, flat._indices)

    @pytest.mark.parametrize("policy", [
        [], [None], [[None], ()], [Threshold(0.0), [None, FixedK(10)]],
        WeightCutoff(4),
    ])
    def test_parts_that_drop_nothing_return_the_same_sum(self, policy):
        rng = np.random.default_rng(62)
        a = random_pauli_sum(rng, 3, 6)
        assert truncate(a, policy) is a

    def test_unknown_part_rejected_inside_a_list(self):
        a = PauliSum.identity(2)
        with pytest.raises(TypeError, match="unknown truncation policy"):
            truncate(a, [None, [Threshold(0.1), "fixed_k=3"]])

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
        assert lines[0] == "# pauli-sum v2"
        assert lines[1] == "n_qubits = 2"
        assert lines[2] == "n_terms = 2"
        # canonical order puts the identity first; x/z hex then the hex of
        # the coefficient's bits and of the index's, 2 * 1 + 36 bytes a row
        assert lines[3].startswith("0 0 3ff0000000000000 ")
        x_hex, z_hex, coeff, idx = lines[4].split()
        assert (int(x_hex, 16), int(z_hex, 16)) == (0b10, 0b01)
        assert struct.unpack(">d", bytes.fromhex(coeff))[0] == 0.5
        assert [len(line) + 1 for line in lines[3:5]] == [38, 38]
        rows = "".join(line + "\n" for line in lines[3:5]).encode()
        assert lines[5:] == [f"# rows = 2 crc32 = {zlib.crc32(rows):08x}"]

    def test_coefficient_field_is_the_float_bits(self):
        a = PauliSum.from_terms(1, [(1 / 3, "Z"), (1.0, "I")])
        row = dumps_pauli_sum(a).splitlines()[-2]
        bits, = struct.unpack("<Q", struct.pack("<d", 1 / 3))
        assert row.split()[2] == f"{bits:016x}" == "3fd5555555555555"

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

        def load(text):
            return load_pauli_sum(io.StringIO(text))

        lines = dumps_pauli_sum(a).splitlines(keepends=True)
        head, rows, trailer = lines[:3], lines[3:-1], lines[-1:]
        assert head[2] == "n_terms = 4\n" and len(rows) == 4
        assert load("".join(head + rows + trailer))[0] == a
        swapped = rows[:1] + [rows[2], rows[1]] + rows[3:]
        with pytest.raises(ValueError, match="row 2 is not above row 1"):
            load("".join(head + swapped + trailer))
        # files are written whole, so nothing may follow the trailer
        for extra in (rows[-1:], ["\n"]):
            with pytest.raises(ValueError, match="header: n_terms = 4 does"):
                load("".join(head + rows + trailer + extra))
        repeated = ["n_terms = 5\n" if line == head[2] else line
                    for line in head]
        with pytest.raises(ValueError, match="row 4 is not above row 3"):
            load("".join(repeated + rows + rows[-1:] + trailer))

    def test_complex_rejected(self):
        z = PauliSum.from_terms(1, [(1.0, "Z")])
        iz = PauliSum._from_raw(1, z._keys, np.array([1j]), z._indices)
        with pytest.raises(TypeError):
            dumps_pauli_sum(iz)


def random_checkpoint_sum(n, rows, seed):
    """``rows`` distinct random strings (all of them when ``4**n`` is
    smaller) with coefficients drawn from every finite nonzero float64 bit
    pattern and indices from the whole int64 range."""
    rng = np.random.default_rng(seed)
    width = n_words(n)
    rows = min(rows, 4 ** n)
    mask = key_to_words(valid_key_mask(n), width)
    top = np.iinfo(np.uint64).max
    keys = np.zeros((0, width), dtype=np.uint64)
    while keys.shape[0] < rows:
        fresh = rng.integers(0, top, size=(2 * rows, width), dtype=np.uint64,
                             endpoint=True) & mask
        keys = np.unique(np.concatenate([keys, fresh]), axis=0)
    keys = keys[np.sort(rng.choice(keys.shape[0], rows, replace=False))]
    coeffs = rng.integers(0, top, size=rows, dtype=np.uint64,
                          endpoint=True).view(np.float64)
    coeffs = np.where(np.isfinite(coeffs) & (coeffs != 0), coeffs, 0.375)
    indices = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                           size=rows, dtype=np.int64, endpoint=True)
    return PauliSum._from_raw(n, np.ascontiguousarray(keys), coeffs, indices)


CHECKPOINT_WIDTHS = [1, 3, 4, 5, 12, 31, 32, 33, 40, 64, 65, 70]


def assert_same_as_oracle(a):
    """Save ``a``: the text must be the per-row oracle's, and it must load
    bit for bit."""
    extra = {"step": 3, "tau": repr(0.12)}
    expected = io.StringIO()
    oracle_save_v2(a, expected, extra)
    text = dumps_pauli_sum(a, extra)
    assert text == expected.getvalue()
    loaded, header = load_pauli_sum(io.StringIO(text))
    assert header == {"step": "3", "tau": "0.12"}
    assert loaded.n_qubits == a.n_qubits
    assert np.array_equal(loaded._keys, a._keys)
    assert np.array_equal(loaded._coeffs.view(np.uint64),
                          a._coeffs.view(np.uint64))
    assert np.array_equal(loaded._indices, a._indices)


class TestBlockStreamedCheckpoints:
    """The block-streamed checkpoint writer and reader against the per-row
    writer, at every hex padding and word boundary and around the block
    size."""

    @given(n=st.sampled_from(CHECKPOINT_WIDTHS), block=st.integers(1, 4),
           rows=st.integers(0, 9), seed=st.integers(0, 2**32 - 1))
    def test_matches_per_row_oracle(self, n, block, rows, seed):
        a = random_checkpoint_sum(n, rows, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(opsum_module, "CHECKPOINT_BLOCK_ROWS", block)
            assert_same_as_oracle(a)

    @pytest.mark.parametrize("n", [7, 40])
    @pytest.mark.parametrize("rows", [0, 1, CHECKPOINT_BLOCK_ROWS - 1,
                                      CHECKPOINT_BLOCK_ROWS,
                                      CHECKPOINT_BLOCK_ROWS + 1])
    def test_matches_per_row_oracle_at_block_size(self, n, rows):
        # n=7 has exactly CHECKPOINT_BLOCK_ROWS strings
        assert_same_as_oracle(random_checkpoint_sum(n, rows, 1000 + rows))

    def test_signed_zero_and_subnormals_exact(self):
        a = random_checkpoint_sum(12, 5, 7)
        a._coeffs[:] = [-0.0, 0.0, 5e-324, -2.5e-308, -1.7976931348623157e308]
        assert_same_as_oracle(a)


def _set_padding_bit(x):
    return format(int(x[0], 16) | 8, "x") + x[1:]


def _v2_field(rows, r, k, edit):
    """Replace field ``k`` of v2 body row ``r`` by ``edit(field)``."""
    parts = rows[r][:-1].split(" ")
    parts[k] = edit(parts[k])
    return rows[:r] + [" ".join(parts) + "\n"] + rows[r + 1:]


def _flip_last_digit(field):
    return field[:-1] + format(int(field[-1], 16) ^ 1, "x")


# (name, edit of the v2 body rows and trailer, what the error names, what
# it says); the corrupted row is 2 of 5, and the trailer is body line 5
HEX = "hex digits"
HEADER = "checkpoint header: n_terms = 5 does not match"
TRAILER = "checkpoint trailer"
OUT_OF_PLACE = "out of place"
V2_CORRUPTIONS = [
    *[(f"non-hex {field}", lambda body, k=k: _v2_field(
        body, 2, k, lambda f: f[:-1] + "g"), "row 2", HEX)
      for k, field in enumerate(("x", "z", "coefficient", "index"))],
    ("separator replaced", lambda body: body[:2] + [
        body[2].replace(" ", "\t", 1)] + body[3:], "row 2", OUT_OF_PLACE),
    ("one byte short", lambda body: _v2_field(
        body, 2, 3, lambda f: f[1:]), "row 2", OUT_OF_PLACE),
    ("one byte long", lambda body: _v2_field(
        body, 2, 3, lambda f: "0" + f), "row 2", OUT_OF_PLACE),
    ("last row short", lambda body: _v2_field(
        body, 4, 0, lambda f: f[1:]), "row 4", OUT_OF_PLACE),
    ("non-ASCII character", lambda body: _v2_field(
        body, 2, 2, lambda f: f[:-1] + "\xe9"), "row 2", HEX),
    ("non-ASCII byte", lambda body: _v2_field(
        body, 2, 2, lambda f: f[:-1] + "\udce9"), "row 2", HEX),
    ("inf coefficient", lambda body: _v2_field(
        body, 2, 2, lambda f: "7ff0000000000000"), "row 2", "not finite"),
    ("nan coefficient", lambda body: _v2_field(
        body, 2, 2, lambda f: "7ff8000000000000"), "row 2", "not finite"),
    ("padding bit", lambda body: _v2_field(body, 2, 0, _set_padding_bit),
     "row 2", "bits above"),
    ("swapped pair", lambda body: body[:2] + [body[3], body[2]] + body[4:],
     "row 3", "is not above row 2"),
    ("repeated row", lambda body: body[:3] + [body[2]] + body[4:],
     "row 3", "is not above row 2"),
    ("missing trailer", lambda body: body[:5], HEADER, HEADER),
    ("malformed trailer", lambda body: body[:5] + [
        body[5].replace("crc32", "crc33")], TRAILER, "is not"),
    ("wrong trailer count", lambda body: body[:5] + [
        body[5].replace("rows = 5 ", "rows = 4 ")], TRAILER, "rows = 4"),
    ("content after the trailer", lambda body: body + ["\n"], HEADER,
     HEADER),
    ("coefficient digit flipped", lambda body: _v2_field(
        body, 2, 2, _flip_last_digit), TRAILER, "crc32"),
]


def _x_field(edit):
    """The edit of the rows that replaces the x field of row 2 by
    ``edit(field)``."""
    return lambda rows: _v2_field(rows, 2, 0, edit)


def _set_field(k, value):
    """The edit of the rows that sets field ``k`` of row 2 to ``value``."""
    return lambda rows: _v2_field(rows, 2, k, lambda _: value)


# (name, edit of the five rows, what the error names, what it says): hand
# edits of the text of row 2, the trailer kept after the rows
ROW_TEXT_EDITS = [
    ("non-hex digit", _x_field(lambda x: x[:-1] + "g"), "row 2", HEX),
    ("one digit short", _x_field(lambda x: x[1:]), "row 2", OUT_OF_PLACE),
    ("one digit long", _x_field(lambda x: "0" + x), "row 2", OUT_OF_PLACE),
    ("0x prefix", _x_field(lambda x: "0x" + x[2:]), "row 2", HEX),
    ("sign", _x_field(lambda x: "+" + x[1:]), "row 2", HEX),
    ("underscore", _x_field(lambda x: x[:-2] + "_" + x[-1]), "row 2", HEX),
    ("padding bit", _x_field(_set_padding_bit), "row 2", "bits above"),
    ("bad coefficient", _set_field(2, "1.0.5"), "row 2", OUT_OF_PLACE),
    ("nan coefficient", _set_field(2, "nan"), "row 2", OUT_OF_PLACE),
    ("inf coefficient", _set_field(2, "-inf"), "row 2", OUT_OF_PLACE),
    ("bad index", _set_field(3, "7.0"), "row 2", OUT_OF_PLACE),
    ("3 fields", lambda rows: rows[:2] + [rows[2].rsplit(" ", 1)[0] + "\n"]
     + rows[3:], "row 2", OUT_OF_PLACE),
    ("5 fields", lambda rows: rows[:2] + [rows[2][:-1] + " 9\n"] + rows[3:],
     "row 2", OUT_OF_PLACE),
    ("missing row", lambda rows: rows[:-1], HEADER, HEADER),
    ("blank line", lambda rows: rows[:2] + ["\n"] + rows[2:-1], "row 2",
     OUT_OF_PLACE),
    ("trailing content", lambda rows: rows + rows[-1:], HEADER, HEADER),
    ("swapped pair", lambda rows: rows[:2] + [rows[3], rows[2]] + rows[4:],
     "row 3", "is not above row 2"),
]


def _cases(table):
    return [pytest.param(n, *case, id=f"{case[0]}-{n}")
            for case in table for n in (12, 33, 70)
            # 4 | n leaves no padding bits
            if case[0] != "padding bit" or n % 4]


def _five_row_sum(n):
    pad = "I" * (n - 3)
    # row 2 has x bits 0...01, so its field is zeros ending in a 1
    return PauliSum.from_terms(n, [
        (1.0, pad + "III"), (0.5, pad + "IIZ"), (-0.25, pad + "IIX"),
        (0.125, pad + "IXI"), (2.0 ** -40, pad + "YII")])


class TestCorruptCheckpoints:
    """Each corruption of a checkpoint raises ``ValueError`` naming its
    row, the header or the trailer."""

    @staticmethod
    def _assert_rejected(n, edit, names, says, block, tmp_path):
        """Load the five-row file with its body lines, rows and trailer,
        edited by ``edit``, from text and from a file."""
        lines = dumps_pauli_sum(_five_row_sum(n)).splitlines(keepends=True)
        head, body = lines[:3], lines[3:]
        assert len(body) == 6 and body[5].startswith("# rows = 5 crc32 = ")
        text = "".join(head + edit(body))
        # a file holds a non-ASCII character as more than one byte, and a
        # lone surrogate as the byte it escapes
        path = tmp_path / "state.psum"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(opsum_module, "CHECKPOINT_BLOCK_ROWS", block)
            for src in (io.StringIO(text), str(path)):
                with pytest.raises(ValueError, match=rf"{names}\b") as err:
                    load_pauli_sum(src)
                assert says in str(err.value)

    @pytest.mark.parametrize("block", [2, CHECKPOINT_BLOCK_ROWS])
    @pytest.mark.parametrize("n, name, edit, names, says",
                             _cases(V2_CORRUPTIONS))
    def test_v2_rejected_naming_the_row(self, n, name, edit, names, says,
                                        block, tmp_path):
        self._assert_rejected(n, edit, names, says, block, tmp_path)

    @pytest.mark.parametrize("block", [2, CHECKPOINT_BLOCK_ROWS])
    @pytest.mark.parametrize("n, name, edit, names, says",
                             _cases(ROW_TEXT_EDITS))
    def test_rejected_naming_the_row(self, n, name, edit, names, says, block,
                                     tmp_path):
        self._assert_rejected(n, lambda body: edit(body[:5]) + body[5:],
                              names, says, block, tmp_path)

    @pytest.mark.parametrize("block", [2, CHECKPOINT_BLOCK_ROWS])
    def test_repeated_insertion_index_rejected(self, block):
        # written as is, so the crc covers the repeats; only the index
        # check can refuse the file
        base = PauliSum.from_terms(
            3, [(1.0, "III"), (0.5, "IIZ"), (-0.25, "IXI"), (0.125, "YII")])
        a = PauliSum._from_raw(3, base._keys, base._coeffs,
                               np.array([0, 1, 1, 1]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(opsum_module, "CHECKPOINT_BLOCK_ROWS", block)
            with pytest.raises(ValueError, match=r"checkpoint rows 1 and 2 "
                               r"repeat the insertion index 1\b"):
                load_pauli_sum(io.StringIO(dumps_pauli_sum(a)))
        spread = PauliSum._from_raw(3, base._keys, base._coeffs,
                                    np.array([7, -2, 5, -2]))
        with pytest.raises(ValueError, match="rows 1 and 3 repeat the "
                           "insertion index -2"):
            load_pauli_sum(io.StringIO(dumps_pauli_sum(spread)))

    @pytest.mark.parametrize("n", [33, 34, 35, 70])
    def test_every_padding_bit_rejected(self, n):
        lines = dumps_pauli_sum(_five_row_sum(n)).splitlines(keepends=True)
        for bit in range(n % 4, 4):
            row = lines[5]
            lines[5] = format(int(row[0], 16) | 1 << bit, "x") + row[1:]
            with pytest.raises(ValueError, match=r"row 2: x or z field "
                               "sets bits above"):
                load_pauli_sum(io.StringIO("".join(lines)))
            lines[5] = row

    @pytest.mark.parametrize("header, message", [
        ("# pauli-sum v2\nn_qubits = 3\nn_terms = 0\n", "header"),
        ("# pauli-sum v2\nn_terms = 0\n", "missing n_qubits"),
        ("# pauli-sum v2\nn_qubits = 3\n", "missing n_terms"),
        ("# pauli-sum v2\nn_qubits = 0\nn_terms = 1\n", "n_qubits = 0"),
        ("# pauli-sum v2\nn_qubits = -2\nn_terms = 0\n", "n_qubits = -2"),
        # both would otherwise reach the array allocation: a MemoryError
        # for petabytes, numpy's "negative dimensions" error for -3
        ("# pauli-sum v2\nn_qubits = 3\nn_terms = 1000000000000000\n",
         "n_terms = 1000000000000000"),
        ("# pauli-sum v2\nn_qubits = 3\nn_terms = -3\n", "n_terms = -3"),
        ("# pauli-sum v2\nn_qubits = abc\nn_terms = 0\n",
         "n_qubits = 'abc' is not a decimal integer"),
        ("# pauli-sum v2\nn_qubits = 3\nn_terms = 2.0\n",
         "n_terms = '2.0' is not a decimal integer"),
        ("# pauli-sum v2\nn_qubits = 3\nn_qubits = 4\nn_terms = 0\n",
         "n_qubits appears twice"),
        # a row key this wide is no numpy item: a TypeError, not a
        # ValueError, when the rows are checked for order
        ("# pauli-sum v2\nn_qubits = 1000000000000\nn_terms = 0\n"
         "# rows = 0 crc32 = 00000000\n", "n_qubits = 1000000000000"),
        ("# pauli-sum v1\nn_qubits = 3\nn_terms = 0\n",
         "pauli-sum v1 is no longer read; paulievo at commit 130b57c"),
        ("# pauli-sum v3\nn_qubits = 3\nn_terms = 0\n",
         "unrecognized checkpoint header: '# pauli-sum v3'"),
    ])
    def test_bad_header_rejected(self, header, message):
        with pytest.raises(ValueError, match=message):
            load_pauli_sum(io.StringIO(header))
