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
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, TextIO, Union

import numpy as np

from .pauli import (
    DimensionMismatchError,
    PauliString,
    canonical_argsort,
    find_rows,
    join_xz_bits,
    key_to_words,
    n_words,
    pauli_from_text,
    row_weights,
    rows_equal_adjacent,
    rows_out_of_order,
    split_xz_bits,
    take_rows,
    words_to_key,
)

# default of ``drop_relative``: entries below this fraction of the largest
# |coefficient| are treated as numerical zeros after a merge
MERGE_DROP_RELATIVE = 1e-15

DEFAULT_TRACE_EPS = 1e-300

CHECKPOINT_FORMAT = "pauli-sum v1"

# default ``Threshold.gate_fraction``: the provisional cut after every gate
# is this fraction of the step-end ``delta``.  It is the largest of 2^-8,
# 2^-7 and 2^-6 that moved no final energy of the TFIM threshold sweep
# (N = 8, 10, 12, delta = 2^-14 .. 2^-6) by 1% of its error against the
# step-only threshold, nor any final term count by 1%; 2^-4 drifts
THRESHOLD_GATE_FRACTION = 2.0 ** -6

# rows per block of checkpoint text: big enough that numpy's per-call cost
# vanishes, small enough that a block's lines and temporaries stay below
# the arrays of the states the benchmarks checkpoint
CHECKPOINT_BLOCK_ROWS = 1 << 14

_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
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
    """Keep only terms with ``|c| > delta`` (strict).

    ``truncate`` applies ``delta`` alone.  In a propagation run the
    threshold acts on two levels (see
    :func:`paulievo.propagate.split_policy_by_cadence`): a provisional cut
    at ``gate_fraction * delta`` after every gate, and the full ``delta``
    once per Trotter step.  ``gate_fraction=0`` thresholds at step end
    only, ``gate_fraction=1`` after every gate only.
    """

    delta: float
    gate_fraction: float = THRESHOLD_GATE_FRACTION

    def __post_init__(self):
        if not math.isfinite(self.delta) or self.delta < 0:
            raise ValueError(f"threshold must be finite and >= 0, not "
                             f"{self.delta!r}")
        if not 0.0 <= self.gate_fraction <= 1.0:
            raise ValueError(f"gate_fraction must be in [0, 1], not "
                             f"{self.gate_fraction!r}")


@dataclass(frozen=True)
class FixedK:
    """Keep at most ``k`` terms, the largest by ``|c|``; ties keep the
    earliest-inserted term."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")


@dataclass(frozen=True)
class WeightCutoff:
    """Drop terms whose Pauli weight exceeds ``max_weight``."""

    max_weight: int

    def __post_init__(self):
        if self.max_weight < 1:
            raise ValueError("max_weight must be positive")


TruncationPolicy = Union[Threshold, FixedK, WeightCutoff,
                         Sequence["TruncationPolicy"], None]


def _coalesce(keys: np.ndarray, coeffs: np.ndarray, indices: np.ndarray,
              drop_relative: float = MERGE_DROP_RELATIVE):
    """Merge duplicate rows: sort canonically, sum coefficients, keep the
    smallest insertion index per string, and drop numerical zeros.

    Exact zeros always drop, as do entries below ``drop_relative`` times the
    largest magnitude; ``drop_relative=0.0`` keeps every float residue.
    """
    if keys.shape[0] == 0:
        return keys, coeffs, indices
    order = canonical_argsort(keys)
    keys = take_rows(keys, order)
    coeffs = coeffs[order]
    indices = indices[order]
    dup = rows_equal_adjacent(keys)
    if dup.any():
        starts = np.flatnonzero(~dup)
        keys = take_rows(keys, starts)
        coeffs = np.add.reduceat(coeffs, starts)
        indices = np.minimum.reduceat(indices, starts)
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

    def __init__(self, n_qubits: int, keys: np.ndarray | None = None,
                 coeffs: np.ndarray | None = None,
                 indices: np.ndarray | None = None):
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        width = n_words(n_qubits)
        if keys is None:
            keys = np.zeros((0, width), dtype=np.uint64)
            coeffs = np.zeros(0, dtype=np.float64)
            indices = np.zeros(0, dtype=np.int64)
        self.n_qubits = n_qubits
        self._keys = keys
        self._coeffs = coeffs
        self._indices = indices

    # -- construction -------------------------------------------------------

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliSum":
        return cls(n_qubits)

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliSum":
        width = n_words(n_qubits)
        return cls(
            n_qubits,
            np.zeros((1, width), dtype=np.uint64),
            np.ones(1, dtype=np.float64),
            np.zeros(1, dtype=np.int64),
        )

    @classmethod
    def from_terms(cls, n_qubits: int,
                   terms: Iterable[tuple[float, Union[PauliString, str]]]
                   ) -> "PauliSum":
        """Build from ``(coefficient, string)`` pairs, merging duplicates.

        Insertion indices follow the order of ``terms``.  Coefficients must
        be real.
        """
        width = n_words(n_qubits)
        keys = []
        coeffs = []
        for c, p in terms:
            if isinstance(p, str):
                p = pauli_from_text(p)
            if p.n_qubits != n_qubits:
                raise DimensionMismatchError(
                    f"term width {p.n_qubits} != {n_qubits}"
                )
            # np.iscomplexobj, not isinstance(c, complex): np.complex64 is
            # not a subclass of complex, and float() would drop its imag
            if np.iscomplexobj(c):
                if c.imag != 0:
                    raise TypeError("coefficients of a PauliSum are real")
                c = c.real
            keys.append(key_to_words(p.key, width))
            coeffs.append(float(c))
        if not keys:
            return cls(n_qubits)
        karr = np.stack(keys)
        carr = np.asarray(coeffs, dtype=np.float64)
        iarr = np.arange(len(coeffs), dtype=np.int64)
        return cls(n_qubits, *_coalesce(karr, carr, iarr))

    @classmethod
    def _from_raw(cls, n_qubits: int, keys, coeffs, indices) -> "PauliSum":
        """Trusted constructor: arrays already canonical and merged."""
        return cls(n_qubits, keys, coeffs, indices)

    # -- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        return self._keys.shape[0]

    @property
    def n_terms(self) -> int:
        return self._keys.shape[0]

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self._coeffs)

    def coefficients(self) -> np.ndarray:
        """Coefficients in canonical string order (a copy)."""
        return self._coeffs.copy()

    def _find_row(self, p: PauliString) -> int:
        if p.n_qubits != self.n_qubits:
            raise DimensionMismatchError(
                f"string width {p.n_qubits} != {self.n_qubits}"
            )
        row = key_to_words(p.key, n_words(self.n_qubits))
        pos, found = find_rows(self._keys, row[None, :])
        return int(pos[0]) if found[0] else -1

    def coefficient(self, p: Union[PauliString, str]):
        """Coefficient of ``p`` (0 if absent)."""
        if isinstance(p, str):
            p = pauli_from_text(p)
        pos = self._find_row(p)
        if pos < 0:
            return self._coeffs.dtype.type(0)
        return self._coeffs[pos]

    def insertion_index(self, p: Union[PauliString, str]) -> int:
        if isinstance(p, str):
            p = pauli_from_text(p)
        pos = self._find_row(p)
        if pos < 0:
            raise KeyError(f"{p} not present")
        return int(self._indices[pos])

    def __contains__(self, p) -> bool:
        if isinstance(p, str):
            p = pauli_from_text(p)
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
            f"{c:+.6g}*{s}" for s, c in list(self.items())[:4]
        )
        more = "" if len(self) <= 4 else f", ... ({len(self)} terms)"
        return f"PauliSum({preview}{more})"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _require_same_width(a: PauliSum, b: PauliSum) -> None:
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatchError(
            f"width mismatch: {a.n_qubits} vs {b.n_qubits} qubits"
        )


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
    _require_same_width(a, b)
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


def _keep_mask(part, a: PauliSum) -> np.ndarray | None:
    """The rows of ``a`` that one policy keeps; ``None`` keeps them all."""
    if isinstance(part, Threshold):
        return np.abs(a._coeffs) > part.delta if part.delta else None
    if isinstance(part, WeightCutoff):
        return row_weights(a._keys) <= part.max_weight
    if isinstance(part, FixedK):
        m = len(a)
        if m <= part.k:
            return None
        absc = np.abs(a._coeffs)
        # value of the k-th largest magnitude; everything above it is kept
        # and the remaining slots go to boundary ties in first-seen order
        kth = np.partition(absc, m - part.k)[m - part.k]
        keep = absc > kth
        need = part.k - int(keep.sum())
        if need > 0:
            tie_pos = np.flatnonzero(absc == kth)
            order = np.argpartition(a._indices[tie_pos], need - 1)[:need]
            keep[tie_pos[order]] = True
        return keep
    raise TypeError(f"unknown truncation policy: {part!r}")


def truncate(a: PauliSum, policy: TruncationPolicy) -> PauliSum:
    """Apply a truncation policy (or an ordered list of policies).

    Returns ``a`` itself when no part drops a row.
    """
    for part in policy_parts(policy):
        keep = _keep_mask(part, a)
        if keep is not None and not keep.all():
            a = PauliSum._from_raw(
                a.n_qubits, take_rows(a._keys, keep), a._coeffs[keep],
                a._indices[keep],
            )
    return a


def normalize_by_trace(a: PauliSum, *, eps: float = DEFAULT_TRACE_EPS) -> PauliSum:
    """Divide by the identity coefficient so that ``tr(A) = 1`` exactly."""
    tr = normalized_trace(a)
    if abs(tr) <= eps:
        raise TraceCollapseError(
            f"identity coefficient {tr!r} is below {eps!r}; the truncated "
            "state lost its trace"
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
    """Write a sum as text: a versioned header followed by one term per row.

    Rows are ``<hex x_bits> <hex z_bits> <coefficient> <insertion index>``
    in canonical string order; the hex fields are lowercase and
    ``ceil(n_qubits / 4)`` digits wide, and coefficients use 17 significant
    digits, which round-trips float64 exactly.
    """
    if not a.is_real:
        raise TypeError("only real-coefficient sums are serialized")
    own = isinstance(dest, str)
    f = open(dest, "w") if own else dest
    try:
        f.write(f"# {CHECKPOINT_FORMAT}\n")
        f.write(f"n_qubits = {a.n_qubits}\n")
        f.write(f"n_terms = {len(a)}\n")
        for k, v in (extra_header or {}).items():
            f.write(f"{k} = {v}\n")
        digits = _hex_digits(a.n_qubits)
        for start in range(0, len(a), CHECKPOINT_BLOCK_ROWS):
            stop = start + CHECKPOINT_BLOCK_ROWS
            x, z = split_xz_bits(a._keys[start:stop], a.n_qubits)
            f.write("".join([
                "%s %s %.17e %d\n" % row for row in zip(
                    _to_hex(x, digits), _to_hex(z, digits),
                    a._coeffs[start:stop].tolist(),
                    a._indices[start:stop].tolist())
            ]))
    finally:
        if own:
            f.close()


def _hex_digits(n_qubits: int) -> int:
    return (n_qubits + 3) // 4


def _to_hex(bits: np.ndarray, digits: int) -> list[str]:
    """Fixed-width lowercase hex of bit columns (qubit 0 most significant)."""
    m, n_qubits = bits.shape
    padded = np.zeros((m, 4 * digits), dtype=np.uint8)
    padded[:, 4 * digits - n_qubits:] = bits
    nibbles = np.packbits(padded.reshape(m, digits, 4), axis=2)[:, :, 0] >> 4
    text = _HEX_DIGITS[nibbles].tobytes().decode("ascii")
    return [text[i:i + digits] for i in range(0, len(text), digits)]


def _row_dtype(n_qubits: int) -> np.dtype:
    # one byte more than the hex width, so a token that is too long shows
    token = f"S{_hex_digits(n_qubits) + 1}"
    return np.dtype([("x", token), ("z", token), ("c", np.float64),
                     ("i", np.int64)])


def _from_hex(tokens: np.ndarray, n_qubits: int):
    """Bit columns of hex tokens, with two row masks: tokens that are not
    exactly ``ceil(n_qubits / 4)`` hex digits, and tokens that set bits
    above ``n_qubits`` in the padding of their first digit."""
    digits = _hex_digits(n_qubits)
    raw = np.ascontiguousarray(tokens).view(np.uint8).reshape(-1, digits + 1)
    # a short token ends in NUL padding, which decodes as no digit
    nibbles = _HEX_VALUES[raw[:, :digits]]
    malformed = (raw[:, digits] != 0) | (nibbles > 15).any(axis=1)
    padding = (nibbles[:, 0] >> (n_qubits - 4 * (digits - 1))) != 0
    bits = np.unpackbits(nibbles[:, :, None], axis=2)[:, :, 4:]
    bits = bits.reshape(-1, 4 * digits)[:, 4 * digits - n_qubits:]
    return bits, malformed, padding


def _read_rows(lines: list[str], first_row: int, n_qubits: int,
               keys: np.ndarray, coeffs: np.ndarray,
               indices: np.ndarray) -> None:
    """Parse checkpoint rows into the given output slices, raising
    ``ValueError`` that names the absolute row of the first bad line."""
    parsed = None
    # loadtxt warns on input with no data at all
    if any(map(str.strip, lines)):
        try:
            parsed = np.loadtxt(lines, dtype=_row_dtype(n_qubits),
                                comments=None, ndmin=1)
        except ValueError:
            pass
    # loadtxt fails on the block or skips its blank lines: parse each line
    # alone to find the first bad one
    if parsed is None or parsed.shape[0] != len(lines):
        if len(lines) == 1:
            raise ValueError(f"malformed checkpoint row {first_row}")
        for j, line in enumerate(lines):
            _read_rows([line], first_row + j, n_qubits, keys[j:j + 1],
                       coeffs[j:j + 1], indices[j:j + 1])
        return
    x, bad_x, high_x = _from_hex(parsed["x"], n_qubits)
    z, bad_z, high_z = _from_hex(parsed["z"], n_qubits)
    finite = np.isfinite(parsed["c"])
    bad = bad_x | bad_z | high_x | high_z | ~finite
    if bad.any():
        j = int(np.argmax(bad))
        row = first_row + j
        if bad_x[j] or bad_z[j]:
            raise ValueError(
                f"checkpoint row {row}: x or z field is not "
                f"{_hex_digits(n_qubits)} hex digits"
            )
        if high_x[j] or high_z[j]:
            raise ValueError(
                f"checkpoint row {row}: x or z field sets bits above "
                f"{n_qubits} qubits"
            )
        raise ValueError(
            f"checkpoint row {row}: coefficient {float(parsed['c'][j])!r} "
            "is not finite"
        )
    keys[:] = join_xz_bits(x, z)
    coeffs[:] = parsed["c"]
    indices[:] = parsed["i"]


def load_pauli_sum(src: Union[str, TextIO]) -> tuple[PauliSum, dict]:
    """Inverse of :func:`save_pauli_sum`; returns the sum and extra header
    fields.  Insertion indices are restored as saved, so a run resumed from
    the checkpoint continues its lineage exactly.

    Rows are parsed in blocks of ``CHECKPOINT_BLOCK_ROWS``.  Raises
    ``ValueError`` naming the ``n_terms`` header when it is negative or
    more rows than the rest of the file can hold, which is checked before
    anything is allocated.  Raises ``ValueError`` naming the first bad row
    when a row does not have four fields (or is blank or missing), when a
    hex field is not exactly ``ceil(n_qubits / 4)`` hex digits or sets bits
    above ``n_qubits``, when a coefficient or index does not parse or a
    coefficient is not finite, when non-blank content follows the
    ``n_terms`` declared rows, and when the rows are not strictly
    increasing in canonical order (out of order or repeated).
    """
    own = isinstance(src, str)
    f = open(src) if own else src
    try:
        first = f.readline().strip()
        if first != f"# {CHECKPOINT_FORMAT}":
            raise ValueError(f"unrecognized checkpoint header: {first!r}")
        header: dict[str, str] = {}
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
        if n_qubits < 1:
            raise ValueError(f"checkpoint header: n_qubits = {n_qubits}")
        # allocate no more rows than the file can hold: a row is at least
        # two hex fields, a one-character coefficient and index, three
        # separators and a newline, which the last row may omit (the bytes
        # left are at least the characters left)
        left = f.seek(0, io.SEEK_END) - pos
        min_row = 2 * _hex_digits(n_qubits) + 6
        if n_terms < 0 or n_terms * min_row - 1 > left:
            raise ValueError(
                f"checkpoint header: n_terms = {n_terms} does not fit in "
                f"the {left} characters after the header"
            )
        f.seek(pos)
        width = n_words(n_qubits)
        keys = np.zeros((n_terms, width), dtype=np.uint64)
        coeffs = np.zeros(n_terms, dtype=np.float64)
        indices = np.zeros(n_terms, dtype=np.int64)
        for start in range(0, n_terms, CHECKPOINT_BLOCK_ROWS):
            wanted = min(CHECKPOINT_BLOCK_ROWS, n_terms - start)
            lines = list(itertools.islice(f, wanted))
            stop = start + len(lines)
            _read_rows(lines, start, n_qubits, keys[start:stop],
                       coeffs[start:stop], indices[start:stop])
            if len(lines) < wanted:
                raise ValueError(f"malformed checkpoint row {stop}")
        if f.read().strip():
            raise ValueError(
                f"checkpoint row {n_terms}: content after the {n_terms} "
                "rows the header declares"
            )
    finally:
        if own:
            f.close()
    # gates and lookups trust sorted, unique rows, so a file that breaks
    # the order is rejected rather than loaded
    unsorted = rows_out_of_order(keys)
    if unsorted.size:
        i = int(unsorted[0])
        raise ValueError(
            f"checkpoint row {i} is not above row {i - 1} in canonical "
            "order; rows must be sorted and unique"
        )
    out = PauliSum._from_raw(n_qubits, keys, coeffs, indices)
    return out, header


def dumps_pauli_sum(a: PauliSum,
                    extra_header: Mapping[str, object] | None = None) -> str:
    buf = io.StringIO()
    save_pauli_sum(a, buf, extra_header)
    return buf.getvalue()
