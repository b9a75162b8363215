"""Exact Trotterized imaginary-time energies of the open TFIM chain from
free fermions, for the checks of the untruncated runs.

Jordan-Wigner Majoranas ``g[2i] = (X_0..X_{i-1}) Z_i`` and
``g[2i+1] = (X_0..X_{i-1}) Y_i`` turn both kinds of TFIM term into a
bilinear: ``X_i = i g[2i] g[2i+1]`` and ``Z_i Z_{i+1} = i g[2i+1] g[2i+2]``.
A gate ``exp(-(t/2) i g[a] g[b])`` is a Gaussian operator, represented by
the Hermitian ``2N x 2N`` matrix that equals ``cosh t`` on the diagonal of
modes ``a, b`` and ``-+ i sinh t`` off it.  After ``k`` steps the state is
``S^k (S^dag)^k`` for the sweep ``S = V_n..V_1``, so its matrix is
``R = M^k (M^dag)^k`` for the sweep's matrix ``M``, and
``<i g[a] g[b]> = -i T[a, b]`` with ``T = (R - 1)(R + 1)^-1``.  Everything is ``O(N^3)`` per gate, and nothing
here touches the sparse engine.  ``R`` grows like ``exp(2 tau |H|)``, so
this is meant for the short imaginary times of the untruncated runs.
"""

from __future__ import annotations

import numpy as np


def _bilinears(n: int, j: float, h: float) -> list[tuple[float, int, int]]:
    """``(coefficient, a, b)`` per term, in ``build_tfim``'s term order."""
    bonds = [(-j, 2 * i + 1, 2 * i + 2) for i in range(n - 1)]
    fields = [(-h, 2 * i, 2 * i + 1) for i in range(n)]
    return bonds + fields


def trotter_energies(n: int, j: float, h: float, delta_tau: float,
                     n_steps: int) -> list[float]:
    """``tr(H rho) / tr(rho)`` after each of ``n_steps`` first-order Trotter
    steps of the two-sided imaginary-time conjugation of the identity."""
    terms = _bilinears(n, j, h)
    dim = 2 * n
    gates = []
    for c, a, b in terms:
        t = c * delta_tau
        g = np.eye(dim, dtype=np.complex128)
        g[a, a] = g[b, b] = np.cosh(t)
        g[a, b] = -1j * np.sinh(t)
        g[b, a] = 1j * np.sinh(t)
        gates.append(g)
    sweep = np.eye(dim, dtype=np.complex128)
    for g in gates:
        sweep = g @ sweep
    r = np.eye(dim, dtype=np.complex128)
    energies = []
    ident = np.eye(dim)
    for _ in range(n_steps):
        r = sweep @ r @ sweep.conj().T
        t = np.linalg.solve((r + ident).T, (r - ident).T).T
        energy = sum(c * (-1j * t[a, b]) for c, a, b in terms)
        energies.append(float(energy.real))
    return energies
