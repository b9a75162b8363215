"""Shared test utilities: random operators, dense references, CLI driving."""

import os
import struct
import subprocess
import sys
import zlib
from itertools import product as iterproduct

import numpy as np

from paulievo import (
    PauliString,
    PauliSum,
    ScheduleConfig,
    apply_imaginary_gate,
    expectation,
    multiply,
    normalize_by_trace,
    pauli_from_text,
    trotter_sequence,
    truncate,
)
from paulievo.oracle import pauli_matrix, pauli_sum_matrix
from paulievo.pauli import key_to_words, n_words, rows_out_of_order, words_to_key


def lexsort_argsort(keys: np.ndarray) -> np.ndarray:
    """Reference for :func:`paulievo.pauli.canonical_argsort`: a stable
    ``lexsort`` over the words, last word as the least significant key."""
    return np.lexsort(tuple(keys[:, w] for w in reversed(range(keys.shape[1]))))


def bytestring_find_rows(sorted_keys: np.ndarray, queries: np.ndarray):
    """Reference for :func:`paulievo.pauli.find_rows`: ``searchsorted`` of
    the queries over the whole table, both as big-endian byte strings, which
    compare like the integers they encode."""
    def as_bytes(keys):
        big_endian = np.ascontiguousarray(keys, dtype=">u8")
        return big_endian.view(f"S{8 * keys.shape[1]}")[:, 0]

    if sorted_keys.shape[0] == 0:
        return (np.zeros(queries.shape[0], dtype=np.intp),
                np.zeros(queries.shape[0], dtype=bool))
    table, wanted = as_bytes(sorted_keys), as_bytes(queries)
    pos = np.searchsorted(table, wanted)
    found = table[np.minimum(pos, table.shape[0] - 1)] == wanted
    return pos, found


def run_cli(*args, env_extra=None, cwd=None):
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "paulievo.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


def read_rows(path, *, blank_wall_time=True):
    """Trajectory rows with the wall-time column blanked (it is the one
    legitimately nondeterministic column)."""
    header, rows = [], []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#") or line.startswith("tau,"):
                header.append(line)
            else:
                cells = line.split(",")
                if blank_wall_time:
                    cells[5] = ""
                rows.append(cells)
    return header, rows


def all_pauli_texts(n):
    """Every Pauli string of width n, in letter-enumeration order."""
    return ["".join(t) for t in iterproduct("IXYZ", repeat=n)]


def random_pauli_text(rng, n):
    return "".join(rng.choice(list("IXYZ")) for _ in range(n))


def random_pauli_sum(rng, n, n_terms, *, scale=1.0, with_identity=False):
    """A random real PauliSum with distinct strings."""
    texts = set()
    if with_identity:
        texts.add("I" * n)
    while len(texts) < n_terms:
        texts.add(random_pauli_text(rng, n))
    terms = []
    for text in sorted(texts):
        coeff = 1.0 if (with_identity and text == "I" * n) else \
            float(rng.uniform(-scale, scale) or 0.31)
        terms.append((coeff, text))
    return PauliSum.from_terms(n, terms)


def dense(a: PauliSum) -> np.ndarray:
    return pauli_sum_matrix(a)


def dense_of_text(text: str) -> np.ndarray:
    return pauli_matrix(pauli_from_text(text))


def normalized_trace_dense(mat: np.ndarray) -> complex:
    return np.trace(mat) / mat.shape[0]


def product_terms(a, b) -> dict:
    """Operator product ``A @ B`` by explicit pairing, one scalar
    :func:`paulievo.multiply` per pair of terms, as ``{PauliString:
    complex}``; ``a`` and ``b`` are PauliSums or such dicts."""
    out = {}
    for p, ca in a.items():
        for q, cb in b.items():
            phase, r = multiply(p, q)
            out[r] = out.get(r, 0j) + complex(ca) * complex(cb) * phase.value
    return out


def dense_terms(terms: dict) -> np.ndarray:
    """Dense matrix of a ``{PauliString: coefficient}`` dict."""
    return sum(c * pauli_matrix(p) for p, c in terms.items())


def squared_state_oracle(obs: PauliSum, rho: PauliSum) -> complex:
    """``tr(O rho^2) / tr(rho^2)`` from the explicit square of ``rho``:
    the scalar oracle of the squared-state estimator.  Distinct strings
    are trace-orthonormal, so the numerator pairs each term of ``O`` with
    the same string of the square and the denominator is its identity
    coefficient."""
    square = product_terms(rho, rho)
    num = sum(complex(c) * square.get(q, 0j) for q, c in obs.items())
    return num / square[PauliString.identity(rho.n_qubits)]


def itpp_loop_oracle(hamiltonian, schedule, gate_policies, step_policies):
    """The propagation loop written out, with the two truncation levels
    given explicitly: every gate is followed by each of ``gate_policies``
    in order and a trace normalization; every step ends with each of
    ``step_policies`` in order and, when there are any, one more
    normalization.  Returns the final state and one ``(energy, n_terms)``
    pair per step, including ``tau = 0``."""
    h_sum = hamiltonian.to_sum()
    one_step = ScheduleConfig(schedule.delta_tau, schedule.delta_tau,
                              schedule.term_ordering)
    gates = trotter_sequence(hamiltonian, one_step)
    state = PauliSum.identity(hamiltonian.n_qubits)
    records = [(expectation(h_sum, state), len(state))]
    for _ in range(schedule.n_steps):
        for g in gates:
            state = apply_imaginary_gate(state, g)
            for policy in gate_policies:
                state = truncate(state, policy)
            state = normalize_by_trace(state)
        if step_policies:
            for policy in step_policies:
                state = truncate(state, policy)
            state = normalize_by_trace(state)
        records.append((expectation(h_sum, state), len(state)))
    return state, records


# ---------------------------------------------------------------------------
# The per-row checkpoint writer and reader of the v1 format, which the
# block-streamed ones replaced, kept as the v1 reader's oracle and as the
# way tests write v1 files.  The only addition is in the reader: an error
# raised while a row is parsed is re-raised naming that row, so the two
# readers' failures compare by row.
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


def oracle_save_v2(a, f, extra_header=None):
    """Per-row writer of the v2 format from Python ints: the hex of the x
    and z bits, of the coefficient's IEEE-754 bits and of the index's
    two's-complement bits, then the trailer with the crc32 of the rows."""
    f.write("# pauli-sum v2\n")
    f.write(f"n_qubits = {a.n_qubits}\n")
    f.write(f"n_terms = {len(a)}\n")
    for k, v in (extra_header or {}).items():
        f.write(f"{k} = {v}\n")
    d = (a.n_qubits + 3) // 4
    rows = []
    for row, c, idx in zip(a._keys, a._coeffs, a._indices):
        p = PauliString(a.n_qubits, words_to_key(row))
        x, z = p.x_bits, p.z_bits
        cbits, = struct.unpack("<Q", struct.pack("<d", float(c)))
        rows.append(
            f"{x:0{d}x} {z:0{d}x} {cbits:016x} {int(idx) & (2**64 - 1):016x}\n"
        )
    text = "".join(rows)
    f.write(text)
    f.write(f"# rows = {len(a)} crc32 = {zlib.crc32(text.encode()):08x}\n")
