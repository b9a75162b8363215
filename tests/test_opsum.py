"""PauliSum operations against dense-trace oracles, plus truncation rules."""

import io
import math

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
from paulievo.opsum import CHECKPOINT_BLOCK_ROWS, dumps_pauli_sum
from paulievo.pauli import (
    PauliString,
    key_to_words,
    n_words,
    rows_out_of_order,
    valid_key_mask,
    words_to_key,
)

from helpers import (
    dense,
    dense_terms,
    normalized_trace_dense,
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
            assert np.abs(got - dense(a) @ dense(b)).max() < 1e-12

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
            mo, mr = dense(obs), dense(rho)
            want = np.trace(mo @ mr @ mr) / np.trace(mr @ mr)
            assert abs(squared_state_oracle(obs, rho) - want) < 1e-12


class TestTruncate:
    def test_threshold_strict(self):
        a = PauliSum.from_terms(
            2, [(1.0, "II"), (0.004, "ZZ"), (0.1, "XI")]
        )
        out = truncate(a, Threshold(0.01))
        assert set(str(s) for s, _ in out.items()) == {"II", "XI"}

    @pytest.mark.parametrize("delta, gate_fraction", [
        pytest.param(-0.1, 0.0, id="-0.1"),
        pytest.param(math.nan, 0.0, id="nan"),
        pytest.param(math.inf, 0.0, id="inf"),
        pytest.param(0.01, math.nan, id="gate_fraction=nan"),
        pytest.param(0.01, math.inf, id="gate_fraction=inf"),
        pytest.param(0.01, -math.inf, id="gate_fraction=-inf"),
        pytest.param(0.01, -0.25, id="gate_fraction=-0.25"),
        pytest.param(0.01, 1.5, id="gate_fraction=1.5"),
    ])
    def test_threshold_rejects_negative_and_non_finite(self, delta,
                                                       gate_fraction):
        with pytest.raises(ValueError):
            Threshold(delta, gate_fraction=gate_fraction)

    @pytest.mark.parametrize("gate_fraction", [0.0, 2 ** -6, 1.0])
    def test_truncate_ignores_gate_fraction(self, gate_fraction):
        a = PauliSum.from_terms(
            2, [(1.0, "II"), (0.5, "XI"), (0.001, "ZZ")]
        )
        assert truncate(a, Threshold(0.01, gate_fraction=gate_fraction)) \
            == truncate(a, Threshold(0.01, gate_fraction=0.0))

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
        z = PauliSum.from_terms(1, [(1.0, "Z")])
        iz = PauliSum(1, z._keys, np.array([1j]), z._indices)
        with pytest.raises(TypeError):
            dumps_pauli_sum(iz)


# ---------------------------------------------------------------------------
# The per-row checkpoint writer and reader that the block-streamed ones
# replaced, kept as their oracle.  The only addition is in the reader: an
# error raised while a row is parsed is re-raised naming that row, so the
# two readers' failures compare by row.
# ---------------------------------------------------------------------------


def oracle_save(a, f, extra_header=None):
    f.write("# pauli-sum v1\n")
    f.write(f"n_qubits = {a.n_qubits}\n")
    f.write(f"n_terms = {len(a)}\n")
    for k, v in (extra_header or {}).items():
        f.write(f"{k} = {v}\n")
    digits = (a.n_qubits + 3) // 4
    for row, c, idx in zip(a._keys, a._coeffs, a._indices):
        p = PauliString(a.n_qubits, words_to_key(row))
        f.write(
            f"{p.x_bits:0{digits}x} {p.z_bits:0{digits}x} "
            f"{c:.17e} {int(idx)}\n"
        )


def oracle_load(f):
    first = f.readline().strip()
    if first != "# pauli-sum v1":
        raise ValueError(f"unrecognized checkpoint header: {first!r}")
    header = {}
    n_qubits = n_terms = None
    pos = f.tell()
    line = f.readline()
    while line and "=" in line:
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key == "n_qubits":
            n_qubits = int(val)
        elif key == "n_terms":
            n_terms = int(val)
        else:
            header[key] = val
        pos = f.tell()
        line = f.readline()
    if n_qubits is None or n_terms is None:
        raise ValueError("checkpoint header missing n_qubits/n_terms")
    f.seek(pos)
    width = n_words(n_qubits)
    keys = np.zeros((n_terms, width), dtype=np.uint64)
    coeffs = np.zeros(n_terms, dtype=np.float64)
    indices = np.zeros(n_terms, dtype=np.int64)
    for i in range(n_terms):
        try:
            parts = f.readline().split()
            if len(parts) != 4:
                raise ValueError(f"malformed checkpoint row {i}")
            x, z = int(parts[0], 16), int(parts[1], 16)
            p = PauliString.from_xz(x, z, n_qubits)
            keys[i] = key_to_words(p.key, width)
            coeffs[i] = float(parts[2])
            indices[i] = int(parts[3])
        except (ValueError, OverflowError) as err:
            raise ValueError(f"checkpoint row {i}: {err}") from err
    if f.read().strip():
        raise ValueError(
            f"checkpoint row {n_terms}: content after the {n_terms} "
            "rows the header declares"
        )
    unsorted = rows_out_of_order(keys)
    if unsorted.size:
        i = int(unsorted[0])
        raise ValueError(
            f"checkpoint row {i} is not above row {i - 1} in canonical "
            "order; rows must be sorted and unique"
        )
    return PauliSum._from_raw(n_qubits, keys, coeffs, indices), header


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
    """Save and load ``a`` both ways; text and arrays must be identical."""
    extra = {"step": 3, "tau": repr(0.12)}
    expected = io.StringIO()
    oracle_save(a, expected, extra)
    text = dumps_pauli_sum(a, extra)
    assert text == expected.getvalue()
    b, header = load_pauli_sum(io.StringIO(text))
    c, oracle_header = oracle_load(io.StringIO(text))
    assert header == oracle_header == {"step": "3", "tau": "0.12"}
    for loaded in (b, c):
        assert loaded.n_qubits == a.n_qubits
        assert np.array_equal(loaded._keys, a._keys)
        assert np.array_equal(loaded._coeffs, a._coeffs)
        assert np.array_equal(loaded._indices, a._indices)


class TestBlockStreamedCheckpoints:
    """The block-streamed checkpoint writer and reader against the per-row
    oracle, at every hex padding and word boundary and around the block
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


def _corrupt_token(rows, r, edit):
    """Replace the x field of body row ``r`` by ``edit(field)``."""
    x, rest = rows[r].split(" ", 1)
    return rows[:r] + [f"{edit(x)} {rest}"] + rows[r + 1:]


def _corrupt_field(rows, r, k, value):
    parts = rows[r].split()
    parts[k] = value
    return rows[:r] + [" ".join(parts) + "\n"] + rows[r + 1:]


def _set_padding_bit(x):
    return format(int(x[0], 16) | 8, "x") + x[1:]


# (name, edit of the body rows, row the error names, what the error says,
# whether the per-row oracle accepted the file); the corrupted row is 2 of 5
HEX = "hex digits"
MALFORMED = "malformed checkpoint row"
CORRUPTIONS = [
    ("non-hex digit", lambda rows: _corrupt_token(
        rows, 2, lambda x: x[:-1] + "g"), 2, HEX, False),
    ("one digit short", lambda rows: _corrupt_token(
        rows, 2, lambda x: x[1:]), 2, HEX, True),
    ("one digit long", lambda rows: _corrupt_token(
        rows, 2, lambda x: "0" + x), 2, HEX, True),
    ("0x prefix", lambda rows: _corrupt_token(
        rows, 2, lambda x: "0x" + x[2:]), 2, HEX, True),
    ("sign", lambda rows: _corrupt_token(
        rows, 2, lambda x: "+" + x[1:]), 2, HEX, True),
    ("underscore", lambda rows: _corrupt_token(
        rows, 2, lambda x: x[:-2] + "_" + x[-1]), 2, HEX, True),
    ("padding bit", lambda rows: _corrupt_token(
        rows, 2, _set_padding_bit), 2, "bits above", False),
    ("bad coefficient", lambda rows: _corrupt_field(rows, 2, 2, "1.0.5"),
     2, MALFORMED, False),
    ("nan coefficient", lambda rows: _corrupt_field(rows, 2, 2, "nan"),
     2, "not finite", True),
    ("inf coefficient", lambda rows: _corrupt_field(rows, 2, 2, "-inf"),
     2, "not finite", True),
    ("bad index", lambda rows: _corrupt_field(rows, 2, 3, "7.0"), 2,
     MALFORMED, False),
    ("3 fields", lambda rows: rows[:2] + [rows[2].rsplit(" ", 1)[0] + "\n"]
     + rows[3:], 2, MALFORMED, False),
    ("5 fields", lambda rows: rows[:2] + [rows[2][:-1] + " 9\n"]
     + rows[3:], 2, MALFORMED, False),
    ("missing row", lambda rows: rows[:-1], 4, MALFORMED, False),
    ("blank line", lambda rows: rows[:2] + ["\n"] + rows[2:-1], 2,
     MALFORMED, False),
    ("trailing content", lambda rows: rows + rows[-1:], 5, "content after",
     False),
    ("swapped pair", lambda rows: rows[:2] + [rows[3], rows[2]] + rows[4:],
     3, "is not above row 2", False),
]


class TestCorruptCheckpoints:
    """Each corruption raises ``ValueError`` naming the row the per-row
    oracle names; the oracle accepted some of them, and the block-streamed
    reader rejects those on purpose."""

    @pytest.mark.parametrize("block", [2, CHECKPOINT_BLOCK_ROWS])
    @pytest.mark.parametrize("n, name, edit, row, says, oracle_accepts", [
        pytest.param(n, *case, id=f"{case[0]}-{n}")
        for case in CORRUPTIONS for n in (12, 33, 70)
        # 4 | n leaves no padding bits
        if case[0] != "padding bit" or n % 4
    ])
    def test_rejected_naming_the_row(self, n, name, edit, row, says,
                                     oracle_accepts, block):
        pad = "I" * (n - 3)
        # row 2 has x bits 0...01, so its field is zeros ending in a 1
        a = PauliSum.from_terms(n, [
            (1.0, pad + "III"), (0.5, pad + "IIZ"), (-0.25, pad + "IIX"),
            (0.125, pad + "IXI"), (2.0 ** -40, pad + "YII")])
        lines = dumps_pauli_sum(a).splitlines(keepends=True)
        head, rows = lines[:3], lines[3:]
        assert len(rows) == 5
        text = "".join(head + edit(rows))
        if oracle_accepts:
            oracle_load(io.StringIO(text))
        else:
            with pytest.raises(ValueError, match=rf"row {row}\b"):
                oracle_load(io.StringIO(text))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(opsum_module, "CHECKPOINT_BLOCK_ROWS", block)
            with pytest.raises(ValueError, match=rf"row {row}\b") as err:
                load_pauli_sum(io.StringIO(text))
        assert says in str(err.value)

    @pytest.mark.parametrize("header, message", [
        ("# pauli-sum v2\nn_qubits = 3\nn_terms = 0\n", "header"),
        ("# pauli-sum v1\nn_terms = 0\n", "missing n_qubits"),
        ("# pauli-sum v1\nn_qubits = 0\nn_terms = 1\n0 0 1.0 0\n",
         "n_qubits = 0"),
        ("# pauli-sum v1\nn_qubits = -2\nn_terms = 0\n", "n_qubits = -2"),
        # both would otherwise reach the array allocation: a MemoryError
        # for petabytes, numpy's "negative dimensions" error for -3
        ("# pauli-sum v1\nn_qubits = 3\nn_terms = 1000000000000000\n"
         "0 0 1.0 0\n", "n_terms = 1000000000000000"),
        ("# pauli-sum v1\nn_qubits = 3\nn_terms = -3\n", "n_terms = -3"),
    ])
    def test_bad_header_rejected(self, header, message):
        with pytest.raises(ValueError, match=message):
            load_pauli_sum(io.StringIO(header))

    @pytest.mark.parametrize("n_qubits", [3, 40])
    def test_shortest_rows_fit_the_bound(self, n_qubits):
        # rows of the least possible length, the last without a newline,
        # fill the file exactly: they load, and one more declared row is
        # one more than the file can hold
        digits = "0" * ((n_qubits + 3) // 4)
        one = digits[:-1] + "1"
        rows = f"{digits} {digits} 1 0\n{digits} {one} 2 1"
        head = f"# pauli-sum v1\nn_qubits = {n_qubits}\n"
        a, _ = load_pauli_sum(io.StringIO(head + "n_terms = 2\n" + rows))
        assert a.coefficients().tolist() == [1.0, 2.0]
        with pytest.raises(ValueError, match="n_terms = 3 does not fit"):
            load_pauli_sum(io.StringIO(head + "n_terms = 3\n" + rows))
