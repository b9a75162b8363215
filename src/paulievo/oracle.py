"""Independent exact references: dense imaginary-time evolution, its dense
Trotterized twin, and the free-fermion ground energy of the open Ising chain.

Everything here works on explicit matrices (or the quadratic fermion form)
and never touches the sparse propagation engine, so agreement between the
two is a genuine cross-check.  Dense evolution uses eigendecompositions, not
series expansions, and stays accurate at large imaginary time by shifting
out the ground energy before exponentiating.

Conventions match the propagation engine: an accumulated imaginary time
``tau`` means the thermal state ``exp(-tau H) / Tr[exp(-tau H)]``, i.e.
``tau`` is the inverse temperature.

scipy is imported inside the sparse exact diagonalization only
(:func:`hamiltonian_sparse` and the Lanczos branch of :func:`ground_energy`,
9 qubits up to the guard), so importing this module and every other
reference here costs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import Hamiltonian, TfimParams
from .opsum import PauliSum
from .pauli import PauliString
from .propagate import ScheduleConfig

DEFAULT_MAX_QUBITS = 14


class SizeGuardError(ValueError):
    """The requested dense computation exceeds the qubit guard."""


def _check_guard(n_qubits: int, max_qubits: int) -> None:
    if n_qubits > max_qubits:
        raise SizeGuardError(
            f"{n_qubits} qubits exceeds the dense guard of {max_qubits}"
        )


def _pauli_columns(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """Row and value of the one nonzero entry in each column ``b`` of the
    matrix of ``p``: ``P|b> = i^(#Y) (-1)^popcount(b & z) |b ^ x>``, with
    qubit 0 the most significant bit of ``b``."""
    b = np.arange(2 ** p.n_qubits)
    x, z = p.x_bits, p.z_bits
    sign = 1.0 - 2.0 * (np.bitwise_count(b & z) & 1)
    return b ^ x, 1j ** (x & z).bit_count() * sign


def _dense(n_qubits: int, terms) -> np.ndarray:
    """Dense ``sum c P`` over ``(c, P)`` pairs, added term by term."""
    dim = 2 ** n_qubits
    out = np.zeros((dim, dim), dtype=np.complex128)
    columns = np.arange(dim)
    for c, p in terms:
        rows, values = _pauli_columns(p)
        out[rows, columns] += c * values
    return out


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of a Pauli string (qubit 0 = leftmost tensor factor)."""
    return _dense(p.n_qubits, [(1.0, p)])


def pauli_sum_matrix(a: PauliSum) -> np.ndarray:
    """Dense matrix of a sparse Pauli expansion."""
    return _dense(a.n_qubits, ((c, s) for s, c in a.items()))


def hamiltonian_matrix(h: Hamiltonian) -> np.ndarray:
    return _dense(h.n_qubits, h.terms)


def hamiltonian_sparse(h: Hamiltonian) -> "scipy.sparse.csr_matrix":
    import scipy.sparse as sparse

    dim = 2 ** h.n_qubits
    out = sparse.csr_matrix((dim, dim), dtype=np.complex128)
    for c, p in h.terms:
        # column b's entry sits in row b ^ x, an involution, so row r
        # holds column rows[r] and that column's value
        rows, values = _pauli_columns(p)
        m = sparse.csr_matrix((values[rows], rows, np.arange(dim + 1)),
                              shape=(dim, dim))
        out = out + c * m
    return out


# ---------------------------------------------------------------------------
# Dense imaginary-time evolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IteCurve:
    """Per-tau expectations of a dense evolution.

    ``values[t, k]`` is observable ``k`` at ``taus[t]``; ``purities[t]`` is
    ``Tr[rho^2]`` of the normalized state.
    """

    taus: np.ndarray
    values: np.ndarray
    purities: np.ndarray


def dense_exact_ite(h: Hamiltonian, tau_grid, observables,
                    *, max_qubits: int = DEFAULT_MAX_QUBITS) -> IteCurve:
    """Exact thermal expectations ``Tr[O e^{-tau H}] / Tr[e^{-tau H}]``.

    One eigendecomposition serves the whole grid; weights are computed
    relative to the ground energy so arbitrarily large ``tau`` is safe.
    """
    _check_guard(h.n_qubits, max_qubits)
    taus = np.asarray(list(tau_grid), dtype=float)
    lam, vecs = np.linalg.eigh(hamiltonian_matrix(h))
    diag_obs = []
    for obs in observables:
        om = pauli_sum_matrix(obs)
        d = np.einsum("ij,ij->j", vecs.conj(), om @ vecs)
        diag_obs.append(d.real)
    values = np.zeros((len(taus), len(diag_obs)))
    purities = np.zeros(len(taus))
    for t, tau in enumerate(taus):
        w = np.exp(-tau * (lam - lam[0]))
        z = w.sum()
        for k, d in enumerate(diag_obs):
            values[t, k] = float((d * w).sum() / z)
        purities[t] = float((w * w).sum() / (z * z)) * 2 ** h.n_qubits
    return IteCurve(taus=taus, values=values, purities=purities)


def dense_trotter_ite(h: Hamiltonian, schedule: ScheduleConfig, observables,
                      *, max_qubits: int = DEFAULT_MAX_QUBITS) -> IteCurve:
    """Dense twin of the sparse driver: per-gate two-sided conjugation by
    ``exp(-(alpha dt / 2) h_j)`` with trace renormalization, recorded once
    per Trotter step (including ``tau = 0``).

    Gate factors are exact, ``cosh(t/2) I - sinh(t/2) P``, since every
    Pauli string squares to the identity.
    """
    _check_guard(h.n_qubits, max_qubits)
    from .propagate import _step_gates  # same ordering semantics

    dim = 2 ** h.n_qubits
    gates = []
    for gate in _step_gates(h, schedule):
        t = gate.tau_eff
        p = pauli_matrix(gate.generator)
        gates.append(np.cosh(t / 2) * np.eye(dim) - np.sinh(t / 2) * p)
    obs_mats = [pauli_sum_matrix(o) for o in observables]
    rho = np.eye(dim, dtype=np.complex128)
    taus = [0.0]
    values = [[float(np.trace(om @ rho).real / np.trace(rho).real)
               for om in obs_mats]]
    purities = [float((rho @ rho).trace().real / np.trace(rho).real ** 2)
                * dim]
    for step in range(schedule.n_steps):
        for g in gates:
            rho = g @ rho @ g
            rho /= np.trace(rho).real
        taus.append((step + 1) * schedule.delta_tau)
        values.append([float(np.trace(om @ rho).real) for om in obs_mats])
        purities.append(float(np.trace(rho @ rho).real) * dim)
    return IteCurve(
        taus=np.array(taus),
        values=np.array(values),
        purities=np.array(purities),
    )


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
    u = np.cos(theta / 2) * np.eye(dim) - 1j * np.sin(theta / 2) * pauli_matrix(q)
    return u.conj().T @ pauli_matrix(p) @ u


# ---------------------------------------------------------------------------
# Ground-state references
# ---------------------------------------------------------------------------


def ground_energy(h: Hamiltonian, *, max_qubits: int = DEFAULT_MAX_QUBITS
                  ) -> float:
    """Exact-diagonalization ground energy.

    Small systems use a dense solve; larger ones a sparse Lanczos solve with
    a fixed start vector, so repeated calls are bit-reproducible.
    """
    _check_guard(h.n_qubits, max_qubits)
    if h.n_qubits <= 8:
        return float(np.linalg.eigvalsh(hamiltonian_matrix(h))[0])
    import scipy.sparse.linalg

    mat = hamiltonian_sparse(h)
    dim = mat.shape[0]
    v0 = np.full(dim, 1.0 / np.sqrt(dim))
    vals = scipy.sparse.linalg.eigsh(
        mat, k=1, which="SA", v0=v0, maxiter=10000, return_eigenvectors=False
    )
    return float(vals[0].real)


def bdg_ground_energy(params: TfimParams) -> float:
    """Free-fermion ground energy of the open transverse-field Ising chain.

    The chain maps through a Jordan-Wigner transformation onto the quadratic
    form ``sum A_ij c+_i c_j + (1/2) sum B_ij (c+_i c+_j - c_i c_j)`` with

        A = 2h on the diagonal, -J on the sub/superdiagonals,
        B = -J above the diagonal, +J below (antisymmetric),

    whose Bogoliubov spectrum is the positive half of the eigenvalues of the
    2N x 2N block matrix ``[[A, B], [-B, -A]]``.  Filling every negative
    mode gives ``E0 = -(1/2) sum_k eps_k``, i.e. minus a quarter of the
    total absolute spectrum.  Polynomial cost in N; validated against exact
    diagonalization in the test suite, which is the correctness contract
    for the sign and ordering conventions used here.
    """
    n, j, h = params.N, params.J, params.h
    a = np.zeros((n, n))
    b = np.zeros((n, n))
    for i in range(n):
        a[i, i] = 2.0 * h
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = -j
        b[i, i + 1] = -j
        b[i + 1, i] = j
    m = np.block([[a, b], [-b, -a]])
    eigs = np.linalg.eigvalsh(m)
    return float(-0.25 * np.abs(eigs).sum())
