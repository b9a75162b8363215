"""Sparse real-coefficient expansions over Pauli strings.

A :class:`PauliSum` maps Pauli strings to coefficients, stored as parallel
arrays (packed keys, coefficients, insertion indices) kept in canonical key
order.  All trace conventions are normalized: ``tr(A) := Tr(A) / 2**n``, so
``tr(I) = 1`` and distinct Pauli strings are orthonormal under
``overlap(A, B) = tr(A @ B)``.

Coefficients are real.  Insertion indices record first-seen order within
one lineage of sums and break ties in fixed-size truncation.  A new sum
numbers its terms from 0; a gate numbers the terms it spawns upward from
one past the largest index in its input, so a term that is merged or
truncated away and later re-created receives a fresh index above every
surviving one.  Indices compare only within a lineage, never across
independently built sums.
"""

from __future__ import annotations

import io
import itertools
import math
import re
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, TextIO, Union

import numpy as np

from .pauli import (
    QUBITS_PER_WORD,
    PauliString,
    canonical_argsort,
    find_rows,
    join_xz_bits,
    key_to_words,
    n_words,
    not_above_previous,
    require_width,
    row_weights,
    split_xz_bits,
    take_rows,
    words_to_key,
)

# default of ``drop_relative``: entries below this fraction of the largest
# |coefficient| are treated as numerical zeros after a merge
MERGE_DROP_RELATIVE = 1e-15

# |identity coefficient| at or below which trace normalization fails
TRACE_EPS = 1e-300

CHECKPOINT_FORMAT = "pauli-sum v2"

# the widest state a checkpoint may declare: rows are compared as numpy byte
# strings of 8 bytes a word, and numpy caps one item at 2**31 - 1 bytes
_CHECKPOINT_MAX_QUBITS = (2 ** 31 - 1) // 8 * QUBITS_PER_WORD

# rows per block of checkpoint text: big enough that numpy's per-call cost
# vanishes, small enough that a block's lines and temporaries stay below
# the arrays of the states the benchmarks checkpoint
CHECKPOINT_BLOCK_ROWS = 1 << 14

_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
# byte -> its two hex digits, one uint16 holding their two ASCII bytes
_HEX_PAIRS = np.stack([np.repeat(_HEX_DIGITS, 16), np.tile(_HEX_DIGITS, 16)],
                      axis=1).view(np.uint16)[:, 0]
# byte -> hex digit value; 16 marks a byte that is not a hex digit
_HEX_VALUES = np.full(256, 16, dtype=np.uint8)
_HEX_VALUES[np.frombuffer(b"0123456789", dtype=np.uint8)] = np.arange(10)
_HEX_VALUES[np.frombuffer(b"abcdef", dtype=np.uint8)] = np.arange(10, 16)
_HEX_VALUES[np.frombuffer(b"ABCDEF", dtype=np.uint8)] = np.arange(10, 16)


class TraceCollapseError(ArithmeticError):
    """The identity coefficient vanished, so trace-normalization failed."""

    def __init__(self, message: str, step_index: int | None = None,
                 gate_index: int | None = None, trajectory=None):
        super().__init__(message)
        self.step_index = step_index
        self.gate_index = gate_index
        self.trajectory = trajectory


@dataclass(frozen=True)
class Threshold:
    """Keep only terms with ``|c| > delta`` (strict)."""

    delta: float

    def __post_init__(self):
        if not math.isfinite(self.delta) or self.delta < 0:
            raise ValueError(f"threshold must be finite and >= 0, not "
                             f"{self.delta!r}")


def _require_count(name: str, value) -> None:
    """Refuse ``value`` unless it is an integer of at least 1: a ``bool``
    and a float are refused even when whole."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be positive, not {value!r}")


@dataclass(frozen=True)
class FixedK:
    """Keep at most ``k`` terms, the largest by ``|c|``; ties keep the
    earliest-inserted term."""

    k: int

    def __post_init__(self):
        _require_count("k", self.k)


@dataclass(frozen=True)
class WeightCutoff:
    """Drop terms whose Pauli weight exceeds ``max_weight``."""

    max_weight: int

    def __post_init__(self):
        _require_count("max_weight", self.max_weight)


TruncationPolicy = Union[Threshold, FixedK, WeightCutoff,
                         Sequence["TruncationPolicy"], None]


def _real_coefficient(c, p: PauliString) -> float:
    """The coefficient ``c`` of the term ``p`` as a float: a complex one
    with a zero imaginary part gives its real part, any other complex one
    raises ``TypeError``, and one too large for a float ``ValueError``."""
    # np.iscomplexobj, not isinstance(c, complex): np.complex64 is not a
    # subclass of complex, and float() would drop its imag
    if np.iscomplexobj(c):
        if c.imag != 0:
            raise TypeError(f"coefficient {c!r} of {p} is not real")
        c = c.real
    try:
        return float(c)
    except OverflowError:
        raise ValueError(f"coefficient of {p} overflows a float") from None


def _coalesce(n_qubits: int, keys: np.ndarray, coeffs: np.ndarray,
              indices: np.ndarray,
              drop_relative: float = MERGE_DROP_RELATIVE):
    """Merge duplicate rows: sort canonically, sum coefficients, keep the
    smallest insertion index per string, and drop numerical zeros.

    A merged coefficient that is not finite raises ``ValueError`` naming
    its string, before it could set the drop floor.  Exact zeros always
    drop, as do entries below ``drop_relative`` times the largest
    magnitude; ``drop_relative=0.0`` keeps every float residue.
    """
    order = canonical_argsort(keys)
    keys = take_rows(keys, order)
    coeffs = coeffs[order]
    indices = indices[order]
    dup = not_above_previous(keys)
    if dup.any():
        starts = np.flatnonzero(~dup)
        keys = take_rows(keys, starts)
        with np.errstate(over="ignore"):  # an overflow is refused below
            coeffs = np.add.reduceat(coeffs, starts)
        indices = np.minimum.reduceat(indices, starts)
    bad = ~np.isfinite(coeffs)
    if bad.any():
        j = int(np.argmax(bad))
        p = PauliString(n_qubits, words_to_key(keys[j]))
        raise ValueError(f"coefficient {float(coeffs[j])!r} of {p} is not "
                         "finite")
    absc = np.abs(coeffs)
    top = absc.max() if absc.size else 0.0
    keep = absc >= drop_relative * top
    keep &= absc > 0
    if not keep.all():
        keys = take_rows(keys, keep)
        coeffs = coeffs[keep]
        indices = indices[keep]
    return keys, coeffs, indices


class PauliSum:
    """Sparse map from Pauli strings to coefficients, canonically ordered."""

    __slots__ = ("n_qubits", "_keys", "_coeffs", "_indices")

    def __init__(self, n_qubits: int):
        """The empty sum; arrays enter only through :meth:`_from_raw`."""
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        self.n_qubits = n_qubits
        self._keys = np.zeros((0, n_words(n_qubits)), dtype=np.uint64)
        self._coeffs = np.zeros(0, dtype=np.float64)
        self._indices = np.zeros(0, dtype=np.int64)

    # -- construction -------------------------------------------------------

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliSum":
        return cls._from_raw(
            n_qubits,
            # PauliString refuses a width below 1, as __init__ does
            PauliString.identity(n_qubits).words()[None, :],
            np.ones(1, dtype=np.float64),
            np.zeros(1, dtype=np.int64),
        )

    @classmethod
    def from_terms(cls, n_qubits: int,
                   terms: Iterable[tuple[float, Union[PauliString, str]]]
                   ) -> "PauliSum":
        """Build from ``(coefficient, string)`` pairs, merging duplicates.

        Insertion indices follow the order of ``terms``.  Coefficients must
        be real (see :func:`_real_coefficient`), and finite once merged.
        """
        width = n_words(n_qubits)
        keys = []
        coeffs = []
        for c, p in terms:
            p = require_width(p, n_qubits, "term")
            keys.append(key_to_words(p.key, width))
            coeffs.append(_real_coefficient(c, p))
        if not keys:
            return cls(n_qubits)
        karr = np.stack(keys)
        carr = np.asarray(coeffs, dtype=np.float64)
        iarr = np.arange(len(coeffs), dtype=np.int64)
        return cls._from_raw(n_qubits,
                             *_coalesce(n_qubits, karr, carr, iarr))

    @classmethod
    def _from_raw(cls, n_qubits: int, keys, coeffs, indices) -> "PauliSum":
        """Trusted constructor, the only door for arrays: they must already
        be canonical and merged, and are stored without a check."""
        out = cls.__new__(cls)
        out.n_qubits = n_qubits
        out._keys, out._coeffs, out._indices = keys, coeffs, indices
        return out

    # -- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        return self._keys.shape[0]

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self._coeffs)

    def coefficients(self) -> np.ndarray:
        """Coefficients in canonical string order (a copy)."""
        return self._coeffs.copy()

    def _find_row(self, p: Union[PauliString, str]) -> int:
        p = require_width(p, self.n_qubits, "string")
        row = key_to_words(p.key, n_words(self.n_qubits))
        pos, found = find_rows(self._keys, row[None, :])
        return int(pos[0]) if found[0] else -1

    def coefficient(self, p: Union[PauliString, str]):
        """Coefficient of ``p`` (0 if absent)."""
        pos = self._find_row(p)
        if pos < 0:
            return self._coeffs.dtype.type(0)
        return self._coeffs[pos]

    def insertion_index(self, p: Union[PauliString, str]) -> int:
        pos = self._find_row(p)
        if pos < 0:
            raise KeyError(f"{p} not present")
        return int(self._indices[pos])

    def __contains__(self, p) -> bool:
        return self._find_row(p) >= 0

    def items(self) -> Iterator[tuple[PauliString, float]]:
        """Yield ``(string, coefficient)`` in canonical order."""
        for row, c in zip(self._keys, self._coeffs):
            yield PauliString(self.n_qubits, words_to_key(row)), c

    def __eq__(self, other) -> bool:
        """Equal strings and coefficients; insertion indices are not
        compared, so checks that care about lineage (which decides FixedK
        ties) must compare ``_indices`` as well."""
        if not isinstance(other, PauliSum):
            return NotImplemented
        return (
            self.n_qubits == other.n_qubits
            and self._keys.shape == other._keys.shape
            and bool((self._keys == other._keys).all())
            and bool((self._coeffs == other._coeffs).all())
        )

    def __repr__(self) -> str:
        preview = ", ".join(
            f"{c:+.6g}*{s}" for s, c in itertools.islice(self.items(), 4)
        )
        more = "" if len(self) <= 4 else f", ... ({len(self)} terms)"
        return f"PauliSum({preview}{more})"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def normalized_trace(a: PauliSum) -> float:
    """Coefficient of the identity string (``tr := Tr / 2**n``)."""
    if len(a) and not a._keys[0].any():
        return float(a._coeffs[0])
    return 0.0


def _intersect_indices(a: PauliSum, b: PauliSum):
    """Positions of the common strings of two canonically sorted sums, in
    canonical order; the smaller operand is looked up in the larger."""
    if len(a) < len(b):
        pos, found = find_rows(b._keys, a._keys)
        return np.flatnonzero(found), pos[found]
    pos, found = find_rows(a._keys, b._keys)
    return pos[found], np.flatnonzero(found)


def overlap(a: PauliSum, b: PauliSum) -> float:
    """``tr(A B) = sum_P a_P b_P`` over the common strings."""
    require_width(b, a.n_qubits, "second operand")
    if len(a) == 0 or len(b) == 0:
        return 0.0
    ia, ib = _intersect_indices(a, b)
    return float((a._coeffs[ia] * b._coeffs[ib]).sum())


def purity(a: PauliSum) -> float:
    """``tr(A^2)``, the squared L2 norm of the coefficient vector."""
    if not a.is_real:
        raise TypeError("purity requires real coefficients")
    return float((a._coeffs * a._coeffs).sum())


def policy_parts(policy: TruncationPolicy) -> list:
    """The single policies of a policy, in order: nested lists and tuples
    are flattened and ``None`` parts are skipped."""
    if policy is None:
        return []
    if isinstance(policy, (list, tuple)):
        return [q for p in policy for q in policy_parts(p)]
    return [policy]


def narrow_keep(policy: TruncationPolicy, rows) -> None:
    """Narrow candidate masks by each part of ``policy``, in order.

    ``rows`` lists disjoint row sets of one sum as ``(keep, absc, indices,
    weights)``: a boolean mask of the set's candidate rows, narrowed in
    place, the rows' magnitudes and insertion indices, and a function
    returning their Pauli weights, called only for a weight cutoff.  A
    :class:`Threshold` or :class:`WeightCutoff` masks each set elementwise.
    A :class:`FixedK` ranks the candidates of all sets together: those
    above the k-th largest magnitude are kept, and the remaining slots go
    to the candidates at that magnitude with the smallest insertion
    indices.
    """
    for part in policy_parts(policy):
        if isinstance(part, Threshold):
            if part.delta:
                for keep, absc, _, _ in rows:
                    keep &= absc > part.delta
        elif isinstance(part, WeightCutoff):
            for keep, _, _, weights in rows:
                keep &= weights() <= part.max_weight
        elif isinstance(part, FixedK):
            _keep_largest(part.k, rows)
        else:
            raise TypeError(f"unknown truncation policy: {part!r}")


def _keep_largest(k: int, rows) -> None:
    """The :class:`FixedK` part of :func:`narrow_keep`."""
    mags = np.concatenate([absc[keep] for keep, absc, _, _ in rows])
    m = mags.size
    if m <= k:
        return
    # value of the k-th largest magnitude; everything above it is kept
    # and the remaining slots go to boundary ties in first-seen order
    mags.partition(m - k)
    kth = mags[m - k]
    need = k - int(np.count_nonzero(mags[m - k:] > kth))
    ties = []
    for keep, absc, indices, _ in rows:
        tie = np.flatnonzero(keep & (absc == kth))
        keep &= absc > kth
        ties.append((keep, tie, indices[tie]))
    tie_indices = np.concatenate([i for _, _, i in ties])
    chosen = np.zeros(tie_indices.size, dtype=bool)
    chosen[np.argpartition(tie_indices, need - 1)[:need]] = True
    start = 0
    for keep, tie, _ in ties:
        keep[tie[chosen[start:start + tie.size]]] = True
        start += tie.size


def truncate(a: PauliSum, policy: TruncationPolicy) -> PauliSum:
    """Apply a truncation policy (or an ordered list of policies).

    Returns ``a`` itself when no part drops a row.
    """
    if not policy_parts(policy):
        return a
    keep = np.ones(len(a), dtype=bool)
    narrow_keep(policy, [(keep, np.abs(a._coeffs), a._indices,
                          lambda: row_weights(a._keys))])
    if keep.all():
        return a
    return PauliSum._from_raw(a.n_qubits, take_rows(a._keys, keep),
                              a._coeffs[keep], a._indices[keep])


def normalize_by_trace(a: PauliSum) -> PauliSum:
    """Divide by the identity coefficient so that ``tr(A) = 1`` exactly."""
    tr = normalized_trace(a)
    if abs(tr) <= TRACE_EPS:
        raise TraceCollapseError(
            f"identity coefficient {tr!r} is below {TRACE_EPS!r}; the "
            "truncated state lost its trace"
        )
    if tr == 1.0:
        return a
    return PauliSum._from_raw(
        a.n_qubits, a._keys, a._coeffs / tr, a._indices
    )


# ---------------------------------------------------------------------------
# Checkpoint serialization
# ---------------------------------------------------------------------------


def save_pauli_sum(a: PauliSum, dest: Union[str, TextIO],
                   extra_header: Mapping[str, object] | None = None) -> None:
    """Write a sum as text: a versioned header, one fixed-width row per
    term, then a trailer line.

    The header is ``# pauli-sum v2``, ``n_qubits = N``, ``n_terms = n`` and
    one ``key = value`` line per extra field.  Rows are ``<x> <z> <c> <i>``
    and a newline, in canonical string order, all in lowercase hex: the x
    and z bits in ``ceil(N / 4)`` digits each, qubit 0 most significant,
    then the 16 digits of the coefficient's IEEE-754 bits and the 16 digits
    of the insertion index's two's-complement bits, so every value
    round-trips exactly.  A row is therefore ``2 * ceil(N / 4) + 36`` bytes.
    The trailer is ``# rows = n crc32 = <8 hex digits>``, the ``zlib.crc32``
    of the row bytes, newlines included.  Rows are rendered a block of
    ``CHECKPOINT_BLOCK_ROWS`` at a time, as one ``uint8`` matrix.
    """
    if not a.is_real:
        raise TypeError("only real-coefficient sums are serialized")
    fields, seps = _row_columns(a.n_qubits)
    width = int(seps[-1]) + 1
    own = isinstance(dest, str)
    f = open(dest, "w") if own else dest
    try:
        f.write(f"# {CHECKPOINT_FORMAT}\n")
        f.write(f"n_qubits = {a.n_qubits}\n")
        f.write(f"n_terms = {len(a)}\n")
        for k, v in (extra_header or {}).items():
            f.write(f"{k} = {v}\n")
        crc = 0
        for start in range(0, len(a), CHECKPOINT_BLOCK_ROWS):
            stop = start + CHECKPOINT_BLOCK_ROWS
            x, z = split_xz_bits(a._keys[start:stop], a.n_qubits)
            block = np.empty((x.shape[0], width), dtype=np.uint8)
            block[:, seps] = _SEPARATORS
            for field, data in zip(fields, (
                    _bits_to_bytes(x), _bits_to_bytes(z),
                    _words_to_bytes(a._coeffs[start:stop]),
                    _words_to_bytes(a._indices[start:stop]))):
                block[:, field] = _to_hex(data, field.stop - field.start)
            text = block.tobytes()
            crc = zlib.crc32(text, crc)
            f.write(text.decode("ascii"))
        f.write(_trailer(len(a), crc))
    finally:
        if own:
            f.close()


def _hex_digits(n_qubits: int) -> int:
    return (n_qubits + 3) // 4


# the bytes that end the x, z, coefficient and index fields of a v2 row
_SEPARATORS = np.frombuffer(b"   \n", dtype=np.uint8)

_TRAILER = re.compile(r"# rows = (\d+) crc32 = ([0-9a-f]{8})\n")


def _trailer(n_rows: int, crc: int) -> str:
    return f"# rows = {n_rows} crc32 = {crc:08x}\n"


def _row_columns(n_qubits: int) -> tuple[list[slice], np.ndarray]:
    """Column slices of the x, z, coefficient and index fields of a v2 row,
    and the columns of the separator that ends each (the last one is the
    newline, so the row is one column longer than it)."""
    digits = _hex_digits(n_qubits)
    fields, start = [], 0
    for size in (digits, digits, 16, 16):
        fields.append(slice(start, start + size))
        start += size + 1
    return fields, np.array([f.stop for f in fields])


def _bits_to_bytes(bits: np.ndarray) -> np.ndarray:
    """Bit columns (column 0 most significant) as big-endian bytes, zero
    bits padding the first byte."""
    m, n = bits.shape
    padded = np.zeros((m, -(-n // 8) * 8), dtype=np.uint8)
    padded[:, padded.shape[1] - n:] = bits
    # rows are whole bytes, so packing the flat array keeps them apart
    return np.packbits(padded).reshape(m, -1)


def _words_to_bytes(values: np.ndarray) -> np.ndarray:
    """The 64-bit patterns of a float64 or int64 column as big-endian
    bytes."""
    words = np.ascontiguousarray(values.view(np.uint64), dtype=">u8")
    return words.view(np.uint8).reshape(-1, 8)


def _to_hex(data: np.ndarray, digits: int) -> np.ndarray:
    """Lowercase hex of big-endian byte rows: the last ``digits`` digits,
    as an ``(m, digits)`` matrix of ASCII bytes."""
    m, k = data.shape
    text = np.take(_HEX_PAIRS, data).view(np.uint8).reshape(m, 2 * k)
    return text[:, 2 * k - digits:]


def _from_hex(raw: np.ndarray, n_bits: int):
    """Inverse of :func:`_to_hex` for an ``(m, digits)`` matrix of bytes
    holding ``n_bits``-bit numbers: big-endian byte rows, with two row
    masks: rows holding a byte that is not a hex digit, and rows that set
    bits above ``n_bits`` in the padding of their first digit."""
    m, digits = raw.shape
    nibbles = np.take(_HEX_VALUES, raw)
    malformed = (nibbles > 15).any(axis=1)
    padding = (nibbles[:, 0] >> (n_bits - 4 * (digits - 1))) != 0
    # a malformed nibble (16) overflows here; its row is rejected anyway
    data = np.empty((m, (digits + 1) // 2), dtype=np.uint8)
    odd = digits % 2
    data[:, :odd] = nibbles[:, :odd]
    data[:, odd:] = (nibbles[:, odd::2] << 4) | nibbles[:, odd + 1::2]
    return data, malformed, padding


def _keys_from_hex(x_raw: np.ndarray, z_raw: np.ndarray, n_qubits: int):
    """Packed rows from the x and z hex digit matrices, with the masks of
    :func:`_from_hex` over both fields."""
    x, bad_x, high_x = _from_hex(x_raw, n_qubits)
    z, bad_z, high_z = _from_hex(z_raw, n_qubits)
    m = x.shape[0]
    keys = join_xz_bits(np.unpackbits(x).reshape(m, -1)[:, -n_qubits:],
                        np.unpackbits(z).reshape(m, -1)[:, -n_qubits:])
    return keys, bad_x | bad_z, high_x | high_z


def _words_from_hex(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 64-bit patterns of 16-digit hex fields as ``uint64``, and the
    rows that are not 16 hex digits."""
    data, malformed, _ = _from_hex(raw, 64)
    words = np.ascontiguousarray(data).view(">u8")[:, 0]
    return words.astype(np.uint64), malformed


def _raise_first_bad(first_row: int, checks) -> None:
    """Raise ``ValueError`` naming the first row of a block that fails one
    of ``checks``, ``(mask, message)`` pairs in the order their messages
    take precedence; a message may be a function of the row's position in
    the block."""
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if not bad.any():
        return
    j = int(np.argmax(bad))
    for mask, message in checks:
        if mask[j]:
            text = message(j) if callable(message) else message
            raise ValueError(f"checkpoint row {first_row + j}: {text}")


def _read_rows(raw: np.ndarray, first_row: int, n_qubits: int,
               keys: np.ndarray, coeffs: np.ndarray,
               indices: np.ndarray) -> None:
    """Parse a block of v2 rows, an ``(m, width)`` byte matrix, into the
    given output slices, raising ``ValueError`` that names the absolute row
    of the first bad one."""
    fields, seps = _row_columns(n_qubits)
    block_keys, bad_xz, high_xz = _keys_from_hex(raw[:, fields[0]],
                                                 raw[:, fields[1]], n_qubits)
    c, bad_c = _words_from_hex(raw[:, fields[2]])
    i, bad_i = _words_from_hex(raw[:, fields[3]])
    c = c.view(np.float64)
    _raise_first_bad(first_row, [
        ((raw[:, seps] != _SEPARATORS).any(axis=1),
         f"a separator or the newline is out of place in its "
         f"{int(seps[-1]) + 1} bytes"),
        (bad_c | bad_i, "coefficient or index field is not 16 hex digits"),
        (bad_xz, f"x or z field is not {_hex_digits(n_qubits)} hex digits"),
        (high_xz, f"x or z field sets bits above {n_qubits} qubits"),
        (~np.isfinite(c),
         lambda j: f"coefficient {float(c[j])!r} is not finite"),
    ])
    keys[:] = block_keys
    coeffs[:] = c
    indices[:] = i.view(np.int64)


def _read_v2(f: TextIO, n_qubits: int, n_terms: int, left: int):
    """The rows and trailer of a v2 checkpoint whose header declares
    ``n_terms`` rows and is followed by ``left`` bytes."""
    fields, seps = _row_columns(n_qubits)
    width = int(seps[-1]) + 1
    exact = left == n_terms * width + len(_trailer(n_terms, 0))
    # when the size is off, parse the rows the file can hold, so that a row
    # of the wrong length is named; only then blame the header
    rows = n_terms if exact else max(0, min(n_terms, left // width))
    keys = np.zeros((rows, n_words(n_qubits)), dtype=np.uint64)
    coeffs = np.zeros(rows, dtype=np.float64)
    indices = np.zeros(rows, dtype=np.int64)
    crc = 0
    for start in range(0, rows, CHECKPOINT_BLOCK_ROWS):
        wanted = min(CHECKPOINT_BLOCK_ROWS, rows - start)
        # one byte per character; a non-ASCII one becomes "?", which no
        # field accepts
        text = f.read(wanted * width).encode("ascii", "replace")
        crc = zlib.crc32(text, crc)
        got = len(text) // width
        stop = start + got
        raw = np.frombuffer(text, dtype=np.uint8, count=got * width)
        _read_rows(raw.reshape(got, width), start, n_qubits,
                   keys[start:stop], coeffs[start:stop], indices[start:stop])
        if got < wanted:
            raise ValueError(f"checkpoint row {stop}: the file ends inside "
                             "this row")
    if not exact:
        raise ValueError(
            f"checkpoint header: n_terms = {n_terms} does not match the "
            f"{left} bytes after the header (rows of {width} bytes, then "
            "the trailer)"
        )
    # gates and lookups trust sorted, unique rows, so a file that breaks
    # the order is rejected rather than loaded
    unsorted = not_above_previous(keys)
    if unsorted.any():
        i = int(np.argmax(unsorted))
        raise ValueError(
            f"checkpoint row {i} is not above row {i - 1} in canonical "
            "order; rows must be sorted and unique"
        )
    # FixedK ties break by insertion index, so a repeated index would let
    # row order decide which rows a resumed run keeps
    ordered = np.sort(indices)
    repeats = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeats.size:
        first, second = np.flatnonzero(indices == repeats[0])[:2]
        raise ValueError(
            f"checkpoint rows {first} and {second} repeat the insertion "
            f"index {repeats[0]}; indices must be unique"
        )
    trailer = f.read()
    match = _TRAILER.fullmatch(trailer)
    if match is None:
        raise ValueError(f"checkpoint trailer {trailer!r} is not "
                         f"'# rows = {n_terms} crc32 = ' and 8 hex digits")
    if int(match[1]) != n_terms:
        raise ValueError(f"checkpoint trailer: rows = {match[1]}, but the "
                         f"header declares n_terms = {n_terms}")
    if int(match[2], 16) != crc:
        raise ValueError(f"checkpoint trailer: crc32 {match[2]} does not "
                         f"match the rows, whose crc32 is {crc:08x}")
    return keys, coeffs, indices


def _header_int(header: dict[str, str], key: str) -> int:
    """Remove the decimal integer field ``key`` from a checkpoint header
    and return its value."""
    if key not in header:
        raise ValueError(f"checkpoint header missing {key}")
    text = header.pop(key)
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"checkpoint header: {key} = {text!r} is not a "
                         "decimal integer")
    return int(text)


def load_pauli_sum(src: Union[str, TextIO]) -> tuple[PauliSum, dict]:
    """Inverse of :func:`save_pauli_sum`; returns the sum and extra header
    fields.  Insertion indices are restored as saved, so a run resumed from
    the checkpoint continues its lineage exactly.

    Rows are parsed in blocks of ``CHECKPOINT_BLOCK_ROWS``; no more rows
    are allocated than the rest of the file can hold.  Raises
    ``ValueError`` naming the header field when ``n_qubits`` or ``n_terms``
    is missing or not a decimal integer, when a field appears twice, when
    ``n_qubits`` is below 1 or too wide for a row to be compared, and when
    the bytes after the header are not exactly ``n_terms`` rows and the
    trailer (a negative ``n_terms`` included); a file of the wrong size has
    the rows it can hold checked first, so that a row one byte short or
    long is named instead.  Raises ``ValueError`` naming the first bad row
    when a row has a separator or its newline out of place (a row of the
    wrong length shows so), a field that is not hex (a non-ASCII byte
    included), an x or z field that sets bits above ``n_qubits`` or a
    coefficient that is not finite, and when the rows are not strictly
    increasing in canonical order (out of order or repeated).  Raises
    ``ValueError`` naming the trailer when it is malformed, counts other
    than ``n_terms`` rows, or holds a crc32 other than that of the rows.
    """
    own = isinstance(src, str)
    # newline="": rows are read as the bytes they are, "\r" included
    f = open(src, newline="", errors="surrogateescape") if own else src
    try:
        first = f.readline().strip()
        if first == "# pauli-sum v1":
            raise ValueError(
                "checkpoint format pauli-sum v1 is no longer read; paulievo "
                f"at commit 130b57c loads it and saves it as {CHECKPOINT_FORMAT}"
            )
        if first != f"# {CHECKPOINT_FORMAT}":
            raise ValueError(f"unrecognized checkpoint header: {first!r}")
        header: dict[str, str] = {}
        pos = f.tell()
        line = f.readline()
        while line and "=" in line and not line.startswith("#"):
            key, _, val = line.partition("=")
            key = key.strip()
            if key in header:
                raise ValueError(f"checkpoint header: {key} appears twice")
            header[key] = val.strip()
            pos = f.tell()
            line = f.readline()
        n_qubits = _header_int(header, "n_qubits")
        n_terms = _header_int(header, "n_terms")
        if not 1 <= n_qubits <= _CHECKPOINT_MAX_QUBITS:
            raise ValueError(f"checkpoint header: n_qubits = {n_qubits} is "
                             f"not in [1, {_CHECKPOINT_MAX_QUBITS}]")
        left = f.seek(0, io.SEEK_END) - pos
        f.seek(pos)
        keys, coeffs, indices = _read_v2(f, n_qubits, n_terms, left)
    finally:
        if own:
            f.close()
    out = PauliSum._from_raw(n_qubits, keys, coeffs, indices)
    return out, header
