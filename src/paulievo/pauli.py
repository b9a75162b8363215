"""Phase-exact algebra of n-qubit Pauli strings in a packed symplectic encoding.

A Pauli string is stored as one integer built from per-qubit 2-bit pairs
``(x, z)``: ``(0,0) = I``, ``(1,0) = X``, ``(1,1) = Y``, ``(0,1) = Z``.  Each
64-bit word holds 32 qubits, qubit 0 occupying the most significant pair of
word 0 (the ``x`` bit sits above the ``z`` bit inside a pair).  Unused low
bits of the last word are zero.  Two consequences drive everything else:

* integer comparison of keys is the canonical total order on strings
  (qubit 0 compares first, per-qubit order ``I < Z < X < Y``), and
* products, commutation checks, and weights reduce to XORs, masks, and
  popcounts, on scalars (Python ints) and on packed ``uint64`` arrays alike.

Operator identities used throughout: writing ``P = prod_q i^(x_q z_q)
X^(x_q) Z^(z_q)``, the product ``P*Q`` equals ``i^k R`` with ``R`` the
bitwise XOR of the operands and

    k = c(P) + c(Q) + 2*|z_P & x_Q| - c(R)   (mod 4),

where ``c(S) = |x_S & z_S|`` counts Y factors and ``|.|`` is a popcount.
``P`` and ``Q`` commute iff ``|x_P & z_Q| + |z_P & x_Q|`` is even.

No global phase is ever stored on a string: every phase produced by a
product is returned explicitly as a :class:`Phase`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

QUBITS_PER_WORD = 32

# z bits live on even positions, x bits on odd positions, in every word
_Z_HALF = np.uint64(0x5555555555555555)
_ONE = np.uint64(1)
_WORD_MASK = (1 << 64) - 1

_LETTER_TO_PAIR = {"I": 0, "Z": 1, "X": 2, "Y": 3}  # pair value = (x << 1) | z
_PAIR_TO_LETTER = "IZXY"

_PHASE_VALUES = (1 + 0j, 1j, -1 + 0j, -1j)


class PauliParseError(ValueError):
    """Raised for text that is not a valid Pauli string; carries ``position``."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class DimensionMismatchError(ValueError):
    """Raised when operands act on different numbers of qubits."""


def n_words(n_qubits: int) -> int:
    """Number of 64-bit words backing an ``n_qubits`` string."""
    return (n_qubits + QUBITS_PER_WORD - 1) // QUBITS_PER_WORD


def _z_half_int(width_words: int) -> int:
    # 0b0101...01 over the full key width
    return ((1 << (64 * width_words)) - 1) // 3


def _pair_shift(qubit: int, n_qubits: int) -> int:
    """Bit position of the z bit of ``qubit`` inside the full integer key."""
    return 64 * n_words(n_qubits) - 2 - 2 * qubit


@dataclass(frozen=True)
class Phase:
    """A power of the imaginary unit, ``i**k`` with ``k`` kept mod 4."""

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", self.k & 3)

    @property
    def value(self) -> complex:
        return _PHASE_VALUES[self.k]

    @property
    def is_real(self) -> bool:
        return self.k % 2 == 0

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase(self.k + other.k)

    def __repr__(self) -> str:
        return f"Phase({'+1 +i -1 -i'.split()[self.k]})"


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli string; Hermitian, squares to the identity.

    ``key`` is the packed symplectic integer described in the module
    docstring.  Instances are immutable and hashable; build them from text
    (:func:`pauli_from_text`), from a key, or with :meth:`identity`.
    """

    n_qubits: int
    key: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        if not 0 <= self.key < (1 << (64 * n_words(self.n_qubits))):
            raise ValueError("key out of range for width")
        if self.key & ~valid_key_mask(self.n_qubits):
            raise ValueError("key has bits outside the qubit pairs")

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, 0)

    def _bits(self, offset: int) -> int:
        """Bit ``offset`` of every qubit's pair (1 = x, 0 = z) as an n-bit
        integer, qubit 0 most significant."""
        out = 0
        for q in range(self.n_qubits):
            out = (out << 1) | (
                (self.key >> (_pair_shift(q, self.n_qubits) + offset)) & 1)
        return out

    @property
    def x_bits(self) -> int:
        """X components as an n-bit integer, qubit 0 most significant."""
        return self._bits(1)

    @property
    def z_bits(self) -> int:
        """Z components as an n-bit integer, qubit 0 most significant."""
        return self._bits(0)

    @property
    def is_identity(self) -> bool:
        return self.key == 0

    def letter(self, qubit: int) -> str:
        """Single-qubit letter at ``qubit`` (0-indexed)."""
        if not 0 <= qubit < self.n_qubits:
            raise IndexError("qubit out of range")
        return _PAIR_TO_LETTER[(self.key >> _pair_shift(qubit, self.n_qubits)) & 3]

    def text(self) -> str:
        """Letter rendering, leftmost character = qubit 0."""
        return "".join(self.letter(q) for q in range(self.n_qubits))

    def words(self) -> np.ndarray:
        """Packed words as a ``uint64`` array (word 0 most significant)."""
        return key_to_words(self.key, n_words(self.n_qubits))

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"PauliString('{self.text()}')"


def valid_key_mask(n_qubits: int) -> int:
    """Mask of key bits that may be nonzero for an ``n_qubits`` string."""
    return ((1 << 2 * n_qubits) - 1) << _pair_shift(n_qubits - 1, n_qubits)


def key_to_words(key: int, width_words: int) -> np.ndarray:
    out = np.empty(width_words, dtype=np.uint64)
    for w in range(width_words):
        out[w] = (key >> (64 * (width_words - 1 - w))) & _WORD_MASK
    return out


def words_to_key(words: Iterable[int]) -> int:
    key = 0
    for w in words:
        key = (key << 64) | int(w)
    return key


def pauli_from_text(text: str) -> PauliString:
    """Parse a string of ``I``/``X``/``Y``/``Z`` letters, qubit 0 leftmost."""
    if not text:
        raise PauliParseError("empty Pauli string", 0)
    n = len(text)
    key = 0
    for q, ch in enumerate(text):
        pair = _LETTER_TO_PAIR.get(ch)
        if pair is None:
            raise PauliParseError(
                f"invalid Pauli letter {ch!r} at position {q}", q
            )
        key |= pair << _pair_shift(q, n)
    return PauliString(n, key)


def require_width(item, n_qubits: int, what: str):
    """``item`` (a string, sum or state; text is parsed first) once it is
    known to act on ``n_qubits`` qubits, else :class:`DimensionMismatchError`
    naming ``what``."""
    if isinstance(item, str):
        item = pauli_from_text(item)
    if item.n_qubits != n_qubits:
        raise DimensionMismatchError(
            f"{what} acts on {item.n_qubits} qubits, not {n_qubits}"
        )
    return item


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff ``[P, Q] = 0``, via the symplectic form mod 2."""
    require_width(q, p.n_qubits, "second operand")
    zh = _z_half_int(n_words(p.n_qubits))
    a = ((p.key >> 1) & q.key & zh).bit_count()  # x_P . z_Q
    b = (p.key & (q.key >> 1) & zh).bit_count()  # z_P . x_Q
    return (a + b) % 2 == 0


def multiply(p: PauliString, q: PauliString) -> tuple[Phase, PauliString]:
    """Operator product ``P*Q = phase * R`` with ``R`` phase-free."""
    require_width(q, p.n_qubits, "second operand")
    zh = _z_half_int(n_words(p.n_qubits))
    r_key = p.key ^ q.key
    c_p = ((p.key >> 1) & p.key & zh).bit_count()
    c_q = ((q.key >> 1) & q.key & zh).bit_count()
    c_r = ((r_key >> 1) & r_key & zh).bit_count()
    cross = (p.key & (q.key >> 1) & zh).bit_count()  # z_P . x_Q
    k = (c_p + c_q + 2 * cross - c_r) & 3
    return Phase(k), PauliString(p.n_qubits, r_key)


def weight(p: PauliString) -> int:
    """Number of non-identity single-qubit factors."""
    zh = _z_half_int(n_words(p.n_qubits))
    return ((p.key | (p.key >> 1)) & zh).bit_count()


# ---------------------------------------------------------------------------
# Vectorized kernels over packed key arrays of shape (m, n_words).
# These are the hot path of the propagation engine; they mirror the scalar
# functions above bit for bit.
# ---------------------------------------------------------------------------


def _row_order_view(keys: np.ndarray) -> np.ndarray:
    """1-D view of packed rows whose element order is the canonical order.

    One-word rows are their ``uint64`` column; wider rows become big-endian
    byte strings, which compare bytewise like the integers they encode.
    """
    if keys.shape[1] == 1:
        return keys[:, 0]
    big_endian = np.ascontiguousarray(keys, dtype=">u8")
    return big_endian.view(f"S{8 * keys.shape[1]}")[:, 0]


def row_view(keys: np.ndarray) -> np.ndarray:
    """1-D view of packed rows with one opaque element per row.

    Gathers and scatters of whole rows through this view copy one block per
    row, several times faster than fancy indexing of the 2-D array.
    """
    keys = np.ascontiguousarray(keys)
    return keys.view(np.dtype((np.void, 8 * keys.shape[1])))[:, 0]


def take_rows(keys: np.ndarray, where: np.ndarray) -> np.ndarray:
    """``keys[where]`` for an integer or boolean selection of rows."""
    return row_view(keys)[where].view(np.uint64).reshape(-1, keys.shape[1])


def _composite_keys(table: np.ndarray, queries: np.ndarray | None = None):
    """One ``uint64`` per two-word row that orders like the row itself.

    ``table`` must be sorted by its first word.  A row's composite key is
    ``rank << b | w1 >> (64 - b)``: ``rank`` is the dense rank of its first
    word among the table's first words, and ``b`` counts the bits of word 1
    down to the lowest bit set in any row of ``table`` or ``queries``, so
    the bits shifted out are zero in every row.  A query takes the rank of
    the first table word not below its own; ``present`` marks the queries
    whose first word is in the table.

    Returns ``(table_keys, query_keys, present)``, the last two ``None``
    without queries, or ``None`` when rank and word-1 bits may not fit in
    64 bits together.
    """
    first, second = table[:, 0], table[:, 1]
    used = int(np.bitwise_or.reduce(second))
    if queries is not None:
        used |= int(np.bitwise_or.reduce(queries[:, 1]))
    trailing_zeros = (used & -used).bit_length() - 1
    bits = 64 - trailing_zeros if used else 0
    # ranks run up to the number of rows, and a rank shift of 64 would wrap
    if bits + (table.shape[0] + 1).bit_length() > 64:
        return None
    # with no bit used, every word 1 is zero, so the capped shift reads 0
    rank_shift, low_shift = np.uint64(bits), np.uint64(min(64 - bits, 63))
    change = first[1:] != first[:-1]
    rank = np.zeros(table.shape[0], dtype=np.uint64)
    np.cumsum(change, dtype=np.uint64, out=rank[1:])
    table_keys = (rank << rank_shift) | (second >> low_shift)
    if queries is None:
        return table_keys, None, None
    distinct = first[np.concatenate(([True], change))]
    query_first = queries[:, 0]
    query_rank = np.searchsorted(distinct, query_first)
    present = distinct[np.minimum(query_rank, distinct.size - 1)] == query_first
    # an absent first word takes the rank of the next word up, with zero low
    # bits, so the query sorts before every row of that rank
    low = np.where(present, queries[:, 1] >> low_shift, np.uint64(0))
    query_keys = (query_rank.astype(np.uint64) << rank_shift) | low
    return table_keys, query_keys, present


def canonical_argsort(keys: np.ndarray) -> np.ndarray:
    """Stable argsort of packed rows in canonical (integer) order: two-word
    rows by their composite keys when those fit, all others through
    :func:`_row_order_view`."""
    if keys.shape[1] == 2:
        # two stable sorts keep equal rows in input order, as the byte
        # string sort does, which the summing of duplicate rows relies on
        by_first = np.argsort(keys[:, 0], kind="stable")
        composite = _composite_keys(take_rows(keys, by_first))
        if composite is not None:
            return by_first[np.argsort(composite[0], kind="stable")]
    return np.argsort(_row_order_view(keys), kind="stable")


def find_rows(sorted_keys: np.ndarray,
              queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Locate query rows in canonically sorted, unique packed rows.

    Returns ``(position, found)``: the insertion position of every query
    and whether the row at that position equals it.

    Only the window of rows whose first word lies in the queries' range
    can match, so a lookup costs the window, not the table.  One-word rows
    are searched as their ``uint64`` column.  Two-word rows are searched
    by their composite keys over the window (:func:`_composite_keys`),
    unless rank and word-1 bits overflow 64 bits; then, and for wider
    rows, the window and the queries are compared as big-endian byte
    strings.
    """
    if queries.shape[0] == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=bool)
    first = sorted_keys[:, 0]
    lo = int(np.searchsorted(first, queries[:, 0].min(), side="left"))
    hi = int(np.searchsorted(first, queries[:, 0].max(), side="right"))
    if hi == lo:
        return (np.full(queries.shape[0], lo, dtype=np.intp),
                np.zeros(queries.shape[0], dtype=bool))
    window = sorted_keys[lo:hi]
    composite = (_composite_keys(window, queries)
                 if sorted_keys.shape[1] == 2 else None)
    if composite is None:
        table, wanted = _row_order_view(window), _row_order_view(queries)
        present = True
    else:
        table, wanted, present = composite
    pos = np.searchsorted(table, wanted)
    found = present & (table[np.minimum(pos, hi - lo - 1)] == wanted)
    return pos + lo, found


def not_above_previous(keys: np.ndarray) -> np.ndarray:
    """Boolean mask, True where a row is not strictly above its predecessor
    in canonical order (never for row 0): on sorted rows, the repeats; on
    any rows, the positions that break sorted, unique order."""
    view = _row_order_view(keys)
    mask = np.zeros(keys.shape[0], dtype=bool)
    mask[1:] = view[1:] <= view[:-1]
    return mask


def _word_span(row: np.ndarray) -> slice:
    """Slice from the first nonzero word of a packed row to one past its
    last; empty for the identity row."""
    nonzero = np.flatnonzero(row)
    if nonzero.size == 0:
        return slice(0, 0)
    return slice(int(nonzero[0]), int(nonzero[-1]) + 1)


def anticommute_mask(keys: np.ndarray, gen_words: np.ndarray) -> np.ndarray:
    """True where a row anticommutes with the generator ``gen_words``.

    Only the generator's nonzero words are read: a word where it is zero
    adds nothing to the commutation parity.  So a generator inside one word
    takes the one-word path at any key width.
    """
    span = _word_span(gen_words)
    keys, gen_words = keys[:, span], gen_words[span]
    # |x_P & z_Q| + |z_P & x_Q| counts the set bits of P & Q', where Q' is
    # the generator with the two bits of every pair swapped
    swapped = (((gen_words >> _ONE) & _Z_HALF)
               | ((gen_words & _Z_HALF) << _ONE))
    if keys.shape[1] == 1:
        # one-word rows: the uint64 column against a scalar
        sym = keys[:, 0] & swapped[0]
    else:
        # the parity of a popcount summed over words is the parity of the
        # popcount of their XOR; the identity's empty span reduces to 0
        sym = np.bitwise_xor.reduce(keys & swapped, axis=1)
    return (np.bitwise_count(sym) & 1).astype(bool)


def phase_exponent(row: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``k mod 4`` of ``multiply(row, key)`` for every packed row of ``keys``.

    Only the nonzero words of the single ``(n_words,)`` row are read: where
    it is zero, a key's Y count ``c`` enters as ``c + 3c = 4c``, which is 0
    mod 4.
    """
    span = _word_span(row)
    row, keys = row[span], keys[:, span]
    # an empty span (the identity row) takes the summing path: k = 0
    wide = row.shape[0] != 1
    if not wide:
        # one-word rows: work on the uint64 column, with no sum over words
        row, keys = row[0], keys[:, 0]

    def count(bits):
        c = np.bitwise_count(bits)
        return c.sum(axis=-1, dtype=np.int64) if wide else c

    # x bits moved onto the z positions, so ``s & x_s`` marks the Y factors
    x_row = (row >> _ONE) & _Z_HALF
    x_keys = (keys >> _ONE) & _Z_HALF
    prod = row ^ keys
    # -c(R) is taken as +3 c(R) (mod 4), so the one-word uint8 counts never
    # go negative: the sum stays at most 32 + 32 + 64 + 96 < 256
    k = (count(row & x_row) + count(keys & x_keys)
         + 2 * count(row & x_keys) + 3 * count(prod & (x_row ^ x_keys)))
    return (k & 3).astype(np.int8)


def row_weights(keys: np.ndarray) -> np.ndarray:
    """Pauli weight of every packed row."""
    return np.bitwise_count((keys | (keys >> _ONE)) & _Z_HALF).sum(
        axis=1, dtype=np.int64
    )


def split_xz_bits(keys: np.ndarray,
                  n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """X and z bits of packed rows as ``(m, n_qubits)`` ``uint8`` columns,
    column ``q`` holding qubit ``q``; the row form of
    :attr:`PauliString.x_bits` and :attr:`PauliString.z_bits`."""
    # read as big-endian bytes, each word's bits run qubit 0 x, qubit 0 z,
    # qubit 1 x, ... from the most significant end
    big_endian = np.ascontiguousarray(keys, dtype=">u8")
    bits = np.unpackbits(big_endian.view(np.uint8), axis=1)
    return bits[:, 0:2 * n_qubits:2], bits[:, 1:2 * n_qubits:2]


def join_xz_bits(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_xz_bits`: packed rows from 0/1 bit
    columns."""
    m, n_qubits = x.shape
    bits = np.zeros((m, 64 * n_words(n_qubits)), dtype=np.uint8)
    bits[:, 0:2 * n_qubits:2] = x
    bits[:, 1:2 * n_qubits:2] = z
    return np.packbits(bits, axis=1).view(">u8").astype(np.uint64)

