"""Pauli-string algebra against the dense matrix oracle."""

import bisect

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paulievo import (
    DimensionMismatchError,
    PauliParseError,
    PauliString,
    Phase,
    commutes,
    multiply,
    pauli_from_text,
    weight,
)
from paulievo.pauli import (
    QUBITS_PER_WORD,
    _composite_keys,
    anticommute_mask,
    canonical_argsort,
    find_rows,
    join_xz_bits,
    key_to_words,
    n_words,
    not_above_previous,
    phase_exponent,
    row_weights,
    split_xz_bits,
    valid_key_mask,
    words_to_key,
)

from helpers import (
    all_pauli_texts,
    dense_of_text,
    pack_strings,
    random_pauli_text,
    unpack_string,
)


def pauli_texts(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.sampled_from("IXYZ"), min_size=n, max_size=n
        ).map("".join)
    )


def pauli_text_pairs(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n).map("".join),
            st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n).map("".join),
        )
    )


class TestParsing:
    def test_letter_mapping(self):
        p = pauli_from_text("IXYZ")
        assert [(int((p.x_bits >> (3 - q)) & 1), int((p.z_bits >> (3 - q)) & 1))
                for q in range(4)] == [(0, 0), (1, 0), (1, 1), (0, 1)]

    def test_identity(self):
        p = pauli_from_text("II")
        assert p.is_identity
        assert p.key == 0
        assert p.x_bits == 0 and p.z_bits == 0

    def test_invalid_character_position(self):
        with pytest.raises(PauliParseError) as err:
            pauli_from_text("Q")
        assert err.value.position == 0
        with pytest.raises(PauliParseError) as err:
            pauli_from_text("XYq")
        assert err.value.position == 2

    def test_empty(self):
        with pytest.raises(PauliParseError):
            pauli_from_text("")

    def test_text_round_trip(self):
        rng = np.random.default_rng(7)
        for n in (1, 3, 17, 33, 40, 65):
            text = random_pauli_text(rng, n)
            assert pauli_from_text(text).text() == text

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 65, 70])
    def test_valid_key_mask_is_all_y(self, n):
        assert valid_key_mask(n) == pauli_from_text("Y" * n).key

    @pytest.mark.parametrize("build, error, named", [
        pytest.param(lambda: PauliString(0, 0), ValueError,
                     "n_qubits must be positive", id="no-qubits"),
        pytest.param(lambda: PauliString(2, 1 << 64), ValueError,
                     "key out of range", id="key-above-width"),
        pytest.param(lambda: PauliString(2, -1), ValueError,
                     "key out of range", id="negative-key"),
        pytest.param(lambda: PauliString(2, 1), ValueError,
                     "bits outside the qubit pairs", id="padding-bit"),
        pytest.param(lambda: pauli_from_text("XY").letter(2), IndexError,
                     "qubit out of range", id="letter-above"),
        pytest.param(lambda: pauli_from_text("XY").letter(-1), IndexError,
                     "qubit out of range", id="letter-negative"),
    ])
    def test_guards(self, build, error, named):
        with pytest.raises(error, match=named):
            build()


class TestMultiply:
    def test_xy_is_iz(self):
        phase, r = multiply(pauli_from_text("X"), pauli_from_text("Y"))
        assert phase == Phase(1)
        assert r.text() == "Z"

    @pytest.mark.parametrize("text", ["X", "Y", "Z", "XYZ", "IZY"])
    def test_square_is_identity(self, text):
        p = pauli_from_text(text)
        phase, r = multiply(p, p)
        assert phase == Phase(0)
        assert r.is_identity

    def test_xz_times_zx(self):
        # dense oracle: (X Z) ox (Z X) = (-iY) ox (+iY) = +1 * YY
        phase, r = multiply(pauli_from_text("XZ"), pauli_from_text("ZX"))
        assert r.text() == "YY"
        lhs = dense_of_text("XZ") @ dense_of_text("ZX")
        assert np.abs(lhs - phase.value * dense_of_text("YY")).max() < 1e-14
        assert phase == Phase(0)

    def test_identity_neutral(self):
        for text in ("X", "ZZ", "XYZ"):
            p = pauli_from_text(text)
            ident = PauliString.identity(p.n_qubits)
            phase, r = multiply(p, ident)
            assert phase == Phase(0) and r == p
            phase, r = multiply(ident, p)
            assert phase == Phase(0) and r == p

    def test_width_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            multiply(pauli_from_text("X"), pauli_from_text("XX"))


class TestCommutes:
    def test_disjoint_support(self):
        assert commutes(pauli_from_text("XI"), pauli_from_text("IZ"))

    def test_single_qubit_anticommutation(self):
        assert not commutes(pauli_from_text("X"), pauli_from_text("Z"))

    def test_xx_zz(self):
        p, q = pauli_from_text("XX"), pauli_from_text("ZZ")
        assert commutes(p, q)
        comm = dense_of_text("XX") @ dense_of_text("ZZ") - \
            dense_of_text("ZZ") @ dense_of_text("XX")
        assert np.abs(comm).max() < 1e-14

    def test_identity_commutes_with_all(self):
        for text in all_pauli_texts(2):
            assert commutes(pauli_from_text(text), PauliString.identity(2))

    def test_width_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutes(pauli_from_text("X"), pauli_from_text("XX"))


class TestWeight:
    @pytest.mark.parametrize(
        "text,expected", [("IIII", 0), ("XYZI", 3), ("Y", 1)]
    )
    def test_examples(self, text, expected):
        assert weight(pauli_from_text(text)) == expected


class TestDenseAgreement:
    """Multiplication and commutation against explicit matrices."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive(self, n):
        mats = {t: dense_of_text(t) for t in all_pauli_texts(n)}
        for a in mats:
            for b in mats:
                p, q = pauli_from_text(a), pauli_from_text(b)
                phase, r = multiply(p, q)
                lhs = mats[a] @ mats[b]
                assert np.abs(lhs - phase.value * dense_of_text(r.text())).max() \
                    < 1e-13, (a, b)
                comm_zero = np.abs(lhs - mats[b] @ mats[a]).max() < 1e-13
                assert commutes(p, q) == comm_zero, (a, b)

    def test_random_n8(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            a, b = random_pauli_text(rng, 8), random_pauli_text(rng, 8)
            p, q = pauli_from_text(a), pauli_from_text(b)
            phase, r = multiply(p, q)
            lhs = dense_of_text(a) @ dense_of_text(b)
            assert np.abs(lhs - phase.value * dense_of_text(r.text())).max() < 1e-12


class TestAlgebraProperties:
    @given(pauli_text_pairs())
    def test_product_string_symmetric_phase_tracks_commutation(self, pair):
        a, b = pair
        p, q = pauli_from_text(a), pauli_from_text(b)
        ph_pq, r_pq = multiply(p, q)
        ph_qp, r_qp = multiply(q, p)
        assert r_pq == r_qp
        if commutes(p, q):
            assert ph_pq == ph_qp
        else:
            assert ph_pq == ph_qp * Phase(2)  # -1 = i**2

    @given(pauli_text_pairs())
    def test_commuting_products_have_real_phase(self, pair):
        a, b = pair
        p, q = pauli_from_text(a), pauli_from_text(b)
        phase, _ = multiply(p, q)
        assert phase.is_real == commutes(p, q)

    @given(st.integers(1, 5).flatmap(
        lambda n: st.tuples(*(
            st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n).map("".join)
            for _ in range(3)
        ))
    ))
    def test_associativity_with_phases(self, triple):
        a, b, c = (pauli_from_text(t) for t in triple)
        ph1, ab = multiply(a, b)
        ph2, ab_c = multiply(ab, c)
        ph3, bc = multiply(b, c)
        ph4, a_bc = multiply(a, bc)
        assert ab_c == a_bc
        assert ph1 * ph2 == ph3 * ph4


class TestCanonicalOrder:
    def test_single_qubit_order(self):
        # per-qubit order is I < Z < X < Y, from the (x<<1)|z pair value
        keys = [pauli_from_text(t).key for t in "IZXY"]
        assert keys == sorted(keys)

    def test_qubit_zero_is_most_significant(self):
        low = pauli_from_text("IY")
        high = pauli_from_text("ZI")
        assert low.key < high.key

    def test_argsort_matches_scalar_keys(self):
        rng = np.random.default_rng(3)
        for n in (3, 8, 40):
            texts = [random_pauli_text(rng, n) for _ in range(50)]
            strings = [pauli_from_text(t) for t in texts]
            packed = pack_strings(strings, n)
            order = canonical_argsort(packed)
            sorted_keys = [strings[i].key for i in order]
            assert sorted_keys == sorted(s.key for s in strings)


class TestVectorKernels:
    """Packed-array kernels agree with the scalar algebra, wide rows included."""

    @pytest.mark.parametrize("n", [1, 4, 8, 33, 40, 70])
    def test_kernels_match_scalar(self, n):
        rng = np.random.default_rng(n)
        texts = [random_pauli_text(rng, n) for _ in range(40)]
        strings = [pauli_from_text(t) for t in texts]
        gen = pauli_from_text(random_pauli_text(rng, n))
        packed = pack_strings(strings, n)
        anti = anticommute_mask(packed, gen.words())
        k4 = phase_exponent(gen.words(), packed)
        weights = row_weights(packed)
        for i, s in enumerate(strings):
            assert bool(anti[i]) == (not commutes(s, gen))
            phase, _ = multiply(gen, s)
            assert int(k4[i]) == phase.k
            assert int(weights[i]) == weight(s)

    @pytest.mark.parametrize("n", [1, 3, 4, 31, 32, 33, 64, 65, 70])
    def test_xz_bit_columns_match_scalar(self, n):
        rng = np.random.default_rng(100 + n)
        strings = [pauli_from_text(random_pauli_text(rng, n))
                   for _ in range(40)]
        strings += [PauliString.identity(n), pauli_from_text("Y" * n)]
        packed = pack_strings(strings, n)
        x, z = split_xz_bits(packed, n)
        assert x.shape == z.shape == (len(strings), n)
        weights = 1 << np.arange(n - 1, -1, -1, dtype=object)
        for i, s in enumerate(strings):
            assert int((x[i].astype(object) * weights).sum()) == s.x_bits
            assert int((z[i].astype(object) * weights).sum()) == s.z_bits
        assert np.array_equal(join_xz_bits(x, z), packed)
        empty = np.zeros((0, n), dtype=np.uint8)
        assert join_xz_bits(empty, empty).shape == (0, n_words(n))

    def test_pack_round_trip(self):
        rng = np.random.default_rng(5)
        for n in (2, 32, 33, 64, 65):
            s = pauli_from_text(random_pauli_text(rng, n))
            row = pack_strings([s], n)[0]
            assert unpack_string(row, n) == s
            assert words_to_key(key_to_words(s.key, n_words(n))) == s.key


def _span_cases():
    """Generator placements ``(n, sites)`` relative to the 64-bit words."""
    cases = []
    for n in (33, 40, 64, 65, 70):
        last_word = range(QUBITS_PER_WORD * ((n - 1) // QUBITS_PER_WORD), n)
        cases += [
            pytest.param(n, (3, 7), id=f"n{n}-one-word"),
            pytest.param(n, (31, 32), id=f"n{n}-straddling"),
            pytest.param(n, (last_word[0], last_word[-1]),
                         id=f"n{n}-last-word"),
            pytest.param(n, (), id=f"n{n}-identity"),
        ]
    # word 1 is zero inside the generator's span
    cases.append(pytest.param(70, (0, 65), id="n70-gap"))
    return cases


class TestGeneratorWordSpan:
    """Commutation and phase read only the words where the single-row
    operand is nonzero; they agree with the scalar algebra wherever that
    row sits, on contiguous and strided inputs."""

    @staticmethod
    def check(keys, gen_words, strings, gen):
        anti = anticommute_mask(keys, gen_words)
        k4 = phase_exponent(gen_words, keys)
        assert anti.shape == k4.shape == (len(strings),)
        for i, s in enumerate(strings):
            assert bool(anti[i]) == (not commutes(s, gen))
            assert int(k4[i]) == multiply(gen, s)[0].k

    @pytest.mark.parametrize("n, sites", _span_cases())
    def test_kernels_match_scalar(self, n, sites):
        rng = np.random.default_rng(1000 * n + sum(sites))
        letters = ["I"] * n
        for q in sites:
            letters[q] = str(rng.choice(list("XYZ")))
        gen = pauli_from_text("".join(letters))
        strings = [pauli_from_text(random_pauli_text(rng, n))
                   for _ in range(60)]
        strings += [PauliString.identity(n), gen]
        packed = pack_strings(strings, n)
        self.check(packed, gen.words(), strings, gen)
        # the same rows as a column slice of a wider array, and the
        # generator as a strided row
        width = n_words(n)
        wide = np.zeros((len(strings), width + 2), dtype=np.uint64)
        wide[:, 1:-1] = packed
        wide_gen = np.zeros(2 * width, dtype=np.uint64)
        wide_gen[::2] = gen.words()
        keys, gen_words = wide[:, 1:-1], wide_gen[::2]
        assert not keys.flags.c_contiguous
        assert not gen_words.flags.c_contiguous
        self.check(keys, gen_words, strings, gen)
        assert anticommute_mask(packed[:0], gen.words()).shape == (0,)
        assert phase_exponent(gen.words(), packed[:0]).shape == (0,)


class TestFindRows:
    """The sorted-row lookup agrees with a Python set of scalar keys."""

    @pytest.mark.parametrize("n", [12, 40])
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 40))
    def test_matches_set_membership(self, n, seed, size):
        rng = np.random.default_rng(seed)
        pool = [pauli_from_text(random_pauli_text(rng, n))
                for _ in range(2 * size + 1)]
        members = sorted({s.key for s in pool[:size]})
        table = pack_strings([PauliString(n, k) for k in members], n)
        # near misses differ from a member in the last qubit only, which at
        # n=40 leaves the first word equal
        flip = {"I": "Z", "Z": "X", "X": "Y", "Y": "I"}
        near = [pauli_from_text(str(s)[:-1] + flip[str(s)[-1]])
                for s in pool[:size]]
        queries = pool + near
        pos, found = find_rows(table, pack_strings(queries, n))
        member_set = set(members)
        for i, s in enumerate(queries):
            assert bool(found[i]) == (s.key in member_set)
            assert int(pos[i]) == bisect.bisect_left(members, s.key)


TWO_WORD_WIDTHS = [33, 40, 48, 63, 64, 65, 70]


def random_keys(rng, n, size, *, first_words, zero_second, repeats):
    """``size`` distinct random keys of width ``n`` as Python ints, plus
    ``repeats`` copies of drawn ones, shuffled.  ``first_words > 0`` draws
    the first word from that many values; ``zero_second`` sets word 1 to
    zero (qubits 32 and up all ``I``)."""
    width = n_words(n)
    mask = valid_key_mask(n)
    pool = [int(w) for w in rng.integers(0, 2**64, size=first_words,
                                         dtype=np.uint64)]
    keys = set()
    for _ in range(size):
        words = [int(w) for w in rng.integers(0, 2**64, size=width,
                                              dtype=np.uint64)]
        if pool:
            words[0] = pool[int(rng.integers(len(pool)))]
        if zero_second:
            words[1] = 0
        keys.add(words_to_key(words) & mask)
    keys = sorted(keys)
    if keys:
        keys += [keys[int(i)] for i in rng.integers(len(keys), size=repeats)]
    rng.shuffle(keys)
    return keys


def pack_keys(keys, n):
    return pack_strings([PauliString(n, k) for k in keys], n)


key_tables = dict(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 40),
    first_words=st.integers(0, 4),
    zero_second=st.booleans(),
)


class TestWideRowKernels:
    """Sort and lookup of rows of two or more words against Python ints:
    ``sorted`` by (key, input position) and ``bisect``.  At two words both
    kernels run on one composite ``uint64`` per row unless its bits
    overflow; wider rows and overflowing tables take the general path."""

    @pytest.mark.parametrize("n", TWO_WORD_WIDTHS)
    @given(repeats=st.integers(0, 10), **key_tables)
    def test_sort_is_stable_canonical_order(self, n, seed, size,
                                            first_words, zero_second,
                                            repeats):
        rng = np.random.default_rng(seed)
        keys = random_keys(rng, n, size, first_words=first_words,
                           zero_second=zero_second, repeats=repeats)
        order = canonical_argsort(pack_keys(keys, n))
        assert order.tolist() == sorted(range(len(keys)),
                                        key=lambda i: (keys[i], i))

    @pytest.mark.parametrize("n", TWO_WORD_WIDTHS)
    @given(n_queries=st.integers(0, 30), **key_tables)
    def test_lookup_matches_bisect(self, n, seed, size, first_words,
                                   zero_second, n_queries):
        rng = np.random.default_rng(seed)
        members = sorted(set(random_keys(
            rng, n, size, first_words=first_words, zero_second=zero_second,
            repeats=0)))
        queries = random_keys(rng, n, n_queries, first_words=0,
                              zero_second=False, repeats=0)
        queries += members[:n_queries]
        # queries whose first word is absent: below, between and above the
        # table's first words, with a random word 1
        shift = 64 * (n_words(n) - 1)
        firsts = sorted({k >> shift for k in members})
        absent = {0, 2**64 - 1}
        absent.update(f + 1 for f in firsts if f + 1 < 2**64)
        absent.update(f - 1 for f in firsts if f > 0)
        absent.difference_update(firsts)
        tails = random_keys(rng, n, len(absent), first_words=0,
                            zero_second=False, repeats=0)
        low = (1 << shift) - 1
        queries += [(f << shift) | (t & low)
                    for f, t in zip(sorted(absent), tails)]
        pos, found = find_rows(pack_keys(members, n), pack_keys(queries, n))
        member_set = set(members)
        assert found.tolist() == [q in member_set for q in queries]
        assert pos.tolist() == [bisect.bisect_left(members, q)
                                for q in queries]

    @pytest.mark.parametrize("n", [63, 64])
    def test_overflowing_bit_budget_takes_general_path(self, n):
        # the last qubit's Z uses the lowest bits of word 1, which leave
        # too few bits for the ranks of 40 distinct first words
        rng = np.random.default_rng(n)
        last_z = PauliString(n, 1 << (128 - 2 * n)).key
        keys = [k | last_z for k in random_keys(
            rng, n, 40, first_words=0, zero_second=False, repeats=5)]
        table = pack_keys(keys, n)
        assert _composite_keys(table[canonical_argsort(table)]) is None
        order = canonical_argsort(table)
        assert order.tolist() == sorted(range(len(keys)),
                                        key=lambda i: (keys[i], i))
        members = sorted(set(keys))
        queries = keys[:10] + [k ^ last_z for k in keys[:10]]
        pos, found = find_rows(pack_keys(members, n), pack_keys(queries, n))
        assert found.tolist() == [True] * 10 + [False] * 10
        assert pos.tolist() == [bisect.bisect_left(members, q)
                                for q in queries]


class TestNotAbovePrevious:
    """The one adjacent-row predicate at one, two and three words: on
    sorted rows it marks the repeats, on any rows the breaks of strictly
    increasing order."""

    @pytest.mark.parametrize("n", [20, 40, 70])
    @pytest.mark.parametrize("m", [0, 1])
    def test_empty_and_one_row(self, n, m):
        keys = np.zeros((m, n_words(n)), dtype=np.uint64)
        assert not_above_previous(keys).tolist() == [False] * m

    @pytest.mark.parametrize("n", [20, 40, 70])
    @given(repeats=st.integers(0, 10), **key_tables)
    def test_matches_words_and_ints(self, n, seed, size, first_words,
                                    zero_second, repeats):
        rng = np.random.default_rng(seed)
        keys = random_keys(rng, n, size, first_words=first_words,
                           zero_second=zero_second and n > QUBITS_PER_WORD,
                           repeats=repeats)
        assert not_above_previous(pack_keys(keys, n)).tolist() == \
            [i > 0 and keys[i] <= keys[i - 1] for i in range(len(keys))]
        rows = pack_keys(sorted(keys), n)
        assert not_above_previous(rows).tolist() == \
            [i > 0 and bool((rows[i] == rows[i - 1]).all())
             for i in range(len(keys))]
