"""Benchmark Hamiltonians and generic Pauli-term model ingestion."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .pauli import PauliString, require_width
from .opsum import PauliSum, _real_coefficient


class Hamiltonian:
    """An ordered list of ``(coefficient, PauliString)`` terms.

    Duplicate strings are merged at build time (coefficients summed, first
    position kept), so term order is well defined for Trotter sequencing.
    Real coefficients on Hermitian strings make the operator Hermitian by
    construction; a complex coefficient with a nonzero imaginary part
    raises ``TypeError``, one too large for a float or not finite once
    merged ``ValueError``.
    """

    __slots__ = ("n_qubits", "terms")

    def __init__(self, n_qubits: int,
                 terms: Iterable[tuple[float, Union[PauliString, str]]]):
        if n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        merged: dict[int, int] = {}  # key -> position
        out: list[tuple[float, PauliString]] = []
        for c, p in terms:
            p = require_width(p, n_qubits, "term")
            c = _real_coefficient(c, p)
            pos = merged.get(p.key)
            if pos is None:
                merged[p.key] = len(out)
                out.append((c, p))
            else:
                prev_c, prev_p = out[pos]
                out[pos] = (prev_c + c, prev_p)
        for c, p in out:
            if not math.isfinite(c):
                raise ValueError(f"coefficient {c!r} of {p} is not finite")
        self.n_qubits = n_qubits
        self.terms = tuple(out)

    def __iter__(self) -> Iterator[tuple[float, PauliString]]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def identity_coefficient(self) -> float:
        """Constant energy offset carried by an identity term, if any."""
        for c, p in self.terms:
            if p.is_identity:
                return c
        return 0.0

    def gated_terms(self) -> list[tuple[float, PauliString]]:
        """Terms that generate evolution (identity terms only shift energy)."""
        return [(c, p) for c, p in self.terms if not p.is_identity]

    def to_sum(self) -> PauliSum:
        """The same operator as a :class:`PauliSum`."""
        return PauliSum.from_terms(self.n_qubits, self.terms)

    def __repr__(self) -> str:
        body = " ".join(f"{c:+g}*{p}" for c, p in self.terms[:4])
        more = "" if len(self.terms) <= 4 else f" ... ({len(self.terms)} terms)"
        return f"Hamiltonian({body}{more})"


@dataclass(frozen=True)
class TfimParams:
    """Open-boundary transverse-field Ising chain parameters."""

    N: int
    J: float = 1.0
    h: float = 0.5

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("TFIM needs N >= 2 for the ZZ bonds to exist")


def build_tfim(params: TfimParams) -> Hamiltonian:
    """``H = -J sum_i Z_i Z_{i+1} - h sum_i X_i`` on an open chain.

    Term order is the bonds left to right, then the fields left to right;
    this is also the default Trotter ordering downstream.
    """
    n = params.N
    terms: list[tuple[float, str]] = []
    for i in range(n - 1):
        s = ["I"] * n
        s[i] = "Z"
        s[i + 1] = "Z"
        terms.append((-params.J, "".join(s)))
    for i in range(n):
        s = ["I"] * n
        s[i] = "X"
        terms.append((-params.h, "".join(s)))
    return Hamiltonian(n, terms)


def hamiltonian_from_file(path: str) -> Hamiltonian:
    """Read a plain-text term file: one ``coefficient pauli_string`` per
    line, ``#`` comments and blank lines ignored.  The width is taken from
    the first term.  A malformed line raises ``ValueError`` naming
    ``path:line``."""
    entries: list[tuple[float, PauliString]] = []
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if len(parts) != 2:
                    raise ValueError("expected 'coefficient pauli_string'")
                width = entries[0][1].n_qubits if entries else len(parts[1])
                c = float(parts[0])
                if not math.isfinite(c):
                    raise ValueError(f"coefficient {c!r} of {parts[1]} is "
                                     "not finite")
                entries.append((c, require_width(parts[1], width, "term")))
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
    if not entries:
        raise ValueError(f"{path}: no terms found")
    return Hamiltonian(entries[0][1].n_qubits, entries)
