"""Shared test utilities: random operators, dense references, CLI driving."""

import io
import os
import struct
import subprocess
import sys
import zlib
from itertools import product as iterproduct

import numpy as np

import paulievo
from paulievo import (
    Hamiltonian,
    PauliString,
    PauliSum,
    ScheduleConfig,
    apply_imaginary_gate,
    expectation,
    multiply,
    normalize_by_trace,
    pauli_from_text,
    purity,
    save_pauli_sum,
    trotter_sequence,
    truncate,
)
from paulievo.cli import RunConfig, _config_from_texts, load_config_file
from paulievo.oracle import hamiltonian_matrix
from paulievo.propagate import split_policy_by_cadence
from paulievo.pauli import key_to_words, n_words, words_to_key


def pack_strings(strings, n_qubits: int) -> np.ndarray:
    """Pack scalar strings into an ``(m, n_words)`` array."""
    width = n_words(n_qubits)
    rows = [key_to_words(s.key, width) for s in strings]
    if not rows:
        return np.zeros((0, width), dtype=np.uint64)
    return np.stack(rows)


def unpack_string(row: np.ndarray, n_qubits: int) -> PauliString:
    """Inverse of :func:`pack_strings` for a single row."""
    return PauliString(n_qubits, words_to_key(row))


def dumps_pauli_sum(a: PauliSum, extra_header=None) -> str:
    """The checkpoint text :func:`paulievo.save_pauli_sum` writes."""
    buf = io.StringIO()
    save_pauli_sum(a, buf, extra_header)
    return buf.getvalue()


def read_config_echo(path) -> RunConfig:
    """The run config a ``config.ini`` echo reads back as."""
    return _config_from_texts(load_config_file(path))


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
    # the package this process imports, found from any working directory
    src = os.path.dirname(os.path.dirname(paulievo.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
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


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of a Pauli string (qubit 0 = leftmost tensor factor)."""
    return hamiltonian_matrix(Hamiltonian(p.n_qubits, [(1.0, p)]))


def pauli_sum_matrix(a: PauliSum) -> np.ndarray:
    """Dense matrix of a sparse Pauli expansion."""
    return hamiltonian_matrix(
        Hamiltonian(a.n_qubits, [(c, s) for s, c in a.items()]))


def imaginary_conjugation_matrix(p: PauliString, q: PauliString,
                                 tau: float) -> np.ndarray:
    """Dense ``V_Q(tau) P V_Q(tau)`` with ``V = cosh(tau/2) I -
    sinh(tau/2) Q`` (V is Hermitian, so adjoint placement is immaterial)."""
    dim = 2 ** p.n_qubits
    v = np.cosh(tau / 2) * np.eye(dim) - np.sinh(tau / 2) * pauli_matrix(q)
    return v @ pauli_matrix(p) @ v


def real_conjugation_matrix(p: PauliString, q: PauliString,
                            theta: float) -> np.ndarray:
    """Dense ``U^dag P U`` with ``U = cos(theta/2) I - i sin(theta/2) Q``."""
    dim = 2 ** p.n_qubits
    u = (np.cos(theta / 2) * np.eye(dim)
         - 1j * np.sin(theta / 2) * pauli_matrix(q))
    return u.conj().T @ pauli_matrix(p) @ u


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
    state, records = _two_pass_loop(hamiltonian, schedule, gate_policies,
                                    step_policies)
    return state, [(energy, n_terms) for energy, n_terms, _ in records]


def two_pass_itpp(hamiltonian, schedule, policy):
    """``run_itpp`` in its two-pass form: every gate is
    ``apply_imaginary_gate`` without a policy, then ``truncate`` by the gate
    part of ``split_policy_by_cadence(policy)`` and ``normalize_by_trace``;
    the step part truncates at step end.  Returns the final state and one
    ``(energy, n_terms, purity)`` per record, including ``tau = 0``."""
    gate_part, step_part = split_policy_by_cadence(policy)
    return _two_pass_loop(hamiltonian, schedule, gate_part or [],
                          step_part or [])


def _two_pass_loop(hamiltonian, schedule, gate_policies, step_policies):
    """The loop of :func:`itpp_loop_oracle`, recording ``(energy, n_terms,
    purity)``."""
    h_sum = hamiltonian.to_sum()
    one_step = ScheduleConfig(schedule.delta_tau, schedule.delta_tau,
                              schedule.term_ordering)
    gates = trotter_sequence(hamiltonian, one_step)
    state = PauliSum.identity(hamiltonian.n_qubits)

    def record():
        return expectation(h_sum, state), len(state), purity(state)

    records = [record()]
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
        records.append(record())
    return state, records


# ---------------------------------------------------------------------------
# The per-row checkpoint writer, which the block-streamed one replaced, kept
# as its oracle.
# ---------------------------------------------------------------------------


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
