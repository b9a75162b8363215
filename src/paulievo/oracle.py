"""Independent exact references: dense imaginary-time evolution, its dense
Trotterized twin, and the free-fermion ground energy of the open Ising chain.

Everything here works on explicit matrices (or the quadratic fermion form)
and never touches the sparse propagation engine, so agreement between the
two is a genuine cross-check.  The evolutions act with a Pauli string only
as the signed permutation ``P|b> = v_b |b ^ x>``, never as a matrix.  Dense
evolution uses eigendecompositions, not series expansions, and stays
accurate at large imaginary time by shifting out the ground energy before
exponentiating.

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
from .pauli import PauliString
from .propagate import ScheduleConfig, _step_gates

DEFAULT_MAX_QUBITS = 14
# bytes of dim x dim complex arrays a dense evolution may hold at once: 12
# qubits fit, 13 do not
DENSE_BYTES_BUDGET = 2 ** 31


class SizeGuardError(ValueError):
    """The dense computation exceeds the qubit guard or the byte budget."""


def _check_guard(n_qubits: int, max_qubits: int) -> None:
    if n_qubits > max_qubits:
        raise SizeGuardError(
            f"{n_qubits} qubits exceeds the dense guard of {max_qubits}"
        )


def _check_budget(n_qubits: int, arrays: int) -> None:
    """Refuse, before allocating, an evolution that holds ``arrays``
    complex ``dim x dim`` arrays at once beyond the byte budget."""
    held = arrays * 16 * 4 ** n_qubits
    if held > DENSE_BYTES_BUDGET:
        raise SizeGuardError(
            f"dense guard: {n_qubits} qubits hold {held} bytes of dense "
            f"arrays at once, over the budget of {DENSE_BYTES_BUDGET} bytes"
        )


def _pauli_columns(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """Row and value of the one nonzero entry in each column ``b`` of the
    matrix of ``p``: ``P|b> = i^(#Y) (-1)^popcount(b & z) |b ^ x>``, with
    qubit 0 the most significant bit of ``b``."""
    b = np.arange(2 ** p.n_qubits)
    x, z = p.x_bits, p.z_bits
    sign = 1.0 - 2.0 * (np.bitwise_count(b & z) & 1)
    return b ^ x, 1j ** (x & z).bit_count() * sign


def hamiltonian_matrix(h: Hamiltonian) -> np.ndarray:
    """Dense ``sum c P`` over the terms of ``h``, added term by term."""
    dim = 2 ** h.n_qubits
    out = np.zeros((dim, dim), dtype=np.complex128)
    columns = np.arange(dim)
    for c, p in h.terms:
        rows, values = _pauli_columns(p)
        out[rows, columns] += c * values
    return out


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


def dense_exact_ite(h: Hamiltonian, tau_grid, observables) -> IteCurve:
    """Exact thermal expectations ``Tr[O e^{-tau H}] / Tr[e^{-tau H}]``.

    One eigendecomposition serves the whole grid; weights are computed
    relative to the ground energy so arbitrarily large ``tau`` is safe.
    Each observable enters through its diagonal in the eigenbasis,
    ``d_j = sum_P c_P sum_b conj(V[b ^ x, j]) v_b V[b, j]``.
    """
    # the Hamiltonian, eigh's copy of it and workspace (two arrays' worth),
    # and the eigenvectors
    _check_budget(h.n_qubits, 5)
    taus = np.asarray(list(tau_grid), dtype=float)
    lam, vecs = np.linalg.eigh(hamiltonian_matrix(h))
    diag_obs = []
    for obs in observables:
        d = np.zeros(len(lam), dtype=np.complex128)
        for p, c in obs.items():
            rows, values = _pauli_columns(p)
            d += c * np.einsum("bj,b,bj->j", vecs[rows].conj(), values, vecs)
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


def _trace_with(obs, rho: np.ndarray) -> float:
    """``Tr[O rho]``, each term by ``Tr[P rho] = sum_b v_b rho[b, b ^ x]``."""
    b = np.arange(rho.shape[0])
    total = 0j
    for p, c in obs.items():
        rows, values = _pauli_columns(p)
        total += c * (values * rho[b, rows]).sum()
    return total.real


def dense_trotter_ite(h: Hamiltonian, schedule: ScheduleConfig,
                      observables) -> IteCurve:
    """Dense twin of the sparse driver: per-gate two-sided conjugation by
    ``V = exp(-(alpha dt / 2) h_j)`` with trace renormalization, recorded
    once per Trotter step (including ``tau = 0``).

    Every Pauli string squares to the identity, so ``V = c I - s P`` with
    ``c, s = cosh(t/2), sinh(t/2)``, and a gate applies ``V`` from the left,
    then from the right: ``V rho V = c^2 rho - c s (P rho + rho P) + s^2 P
    rho P``.  ``P X`` scales row ``b`` of ``X`` by ``v_b`` and moves it to
    row ``b ^ x``; ``X P`` gathers the columns ``b ^ x`` and scales column
    ``b`` by ``v_b``.
    """
    # rho, V rho and three temporaries of one side's update
    _check_budget(h.n_qubits, 5)
    gates = [(np.cosh(g.tau_eff / 2), np.sinh(g.tau_eff / 2),
              *_pauli_columns(g.generator)) for g in _step_gates(h, schedule)]
    dim = 2 ** h.n_qubits
    rho = np.diag(np.full(dim, 1.0 / dim, dtype=np.complex128))
    taus, values, purities = [], [], []

    def record(tau):
        taus.append(tau)
        values.append([_trace_with(o, rho) for o in observables])
        purities.append(float(np.vdot(rho, rho).real) * dim)

    record(0.0)
    for step in range(schedule.n_steps):
        for c, s, rows, v in gates:
            v_rho = c * rho - s * (v[:, None] * rho)[rows]
            rho = c * v_rho - s * v_rho[:, rows] * v
            rho /= np.trace(rho).real
        record((step + 1) * schedule.delta_tau)
    return IteCurve(np.array(taus), np.array(values), np.array(purities))


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
