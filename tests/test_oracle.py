"""Dense references: exact/Trotterized imaginary-time curves and the
free-fermion ground energy, cross-validated against each other."""

import math

import numpy as np
import pytest

from paulievo import (
    Hamiltonian,
    PauliSum,
    ScheduleConfig,
    SizeGuardError,
    TfimParams,
    bdg_ground_energy,
    build_tfim,
    dense_exact_ite,
    dense_trotter_ite,
    ground_energy,
    pauli_from_text,
)
from paulievo.oracle import (
    DENSE_BYTES_BUDGET,
    hamiltonian_matrix,
    hamiltonian_sparse,
)

from helpers import (
    all_pauli_texts,
    imaginary_conjugation_matrix,
    pauli_matrix,
    pauli_sum_matrix,
    random_pauli_text,
    real_conjugation_matrix,
)

# the bytes of the five 2^13 x 2^13 complex arrays a 13-qubit evolution
# would hold at once
N13_BYTES = 5 * 16 * 4 ** 13


def minus_z():
    return Hamiltonian(1, [(-1.0, "Z")])


class TestDenseExactIte:
    def test_single_qubit_closed_form(self):
        # state ~ exp(tau Z): energy is -tanh(tau), magnetization +tanh(tau)
        taus = [0.0, 0.3, 1.0, 5.0]
        h = minus_z()
        z_obs = PauliSum.from_terms(1, [(1.0, "Z")])
        curve = dense_exact_ite(h, taus, [h.to_sum(), z_obs])
        for t, tau in enumerate(taus):
            assert curve.values[t, 0] == pytest.approx(-math.tanh(tau), abs=1e-12)
            assert curve.values[t, 1] == pytest.approx(math.tanh(tau), abs=1e-12)

    def test_tau_zero_is_infinite_temperature(self):
        ham = build_tfim(TfimParams(N=3))
        obs = PauliSum.from_terms(3, [(1.0, "XII"), (0.5, "III")])
        curve = dense_exact_ite(ham, [0.0], [obs])
        # Tr[O]/2^n is the identity component
        assert curve.values[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert curve.purities[0] == pytest.approx(1.0, abs=1e-12)

    def test_tfim_n2_large_tau_ground_energy(self):
        ham = build_tfim(TfimParams(N=2, J=1.0, h=0.5))
        curve = dense_exact_ite(ham, [60.0], [ham.to_sum()])
        assert curve.values[0, 0] == pytest.approx(-math.sqrt(2), abs=1e-10)

    def test_size_guard(self):
        ham = build_tfim(TfimParams(N=13))
        with pytest.raises(SizeGuardError, match=f"{N13_BYTES} bytes .* "
                           f"budget of {DENSE_BYTES_BUDGET} bytes"):
            dense_exact_ite(ham, [1.0], [ham.to_sum()])


class TestDenseTrotterIte:
    def test_single_term_has_no_trotter_error(self):
        h = minus_z()
        schedule = ScheduleConfig(delta_tau=0.1, tau_final=1.0)
        trotter = dense_trotter_ite(h, schedule, [h.to_sum()])
        exact = dense_exact_ite(h, trotter.taus, [h.to_sum()])
        assert np.abs(trotter.values - exact.values).max() < 1e-12

    def test_second_order_energy_convergence(self):
        # The two-sided conjugation cancels the leading Trotter commutator,
        # so the energy deviation at fixed tau shrinks ~4x when the step
        # halves (the operator itself is only first-order accurate).
        ham = build_tfim(TfimParams(N=4, J=1.0, h=0.5))
        obs = [ham.to_sum()]
        exact = dense_exact_ite(ham, [4.0], obs).values[0, 0]
        residuals = []
        for dtau in (0.08, 0.04, 0.02):
            schedule = ScheduleConfig(delta_tau=dtau, tau_final=4.0)
            curve = dense_trotter_ite(ham, schedule, obs)
            residuals.append(abs(curve.values[-1, 0] - exact))
        assert 3.2 < residuals[0] / residuals[1] < 4.8
        assert 3.2 < residuals[1] / residuals[2] < 4.8

    def test_purity_matches_exact_for_single_term(self):
        h = minus_z()
        schedule = ScheduleConfig(delta_tau=0.25, tau_final=1.0)
        trotter = dense_trotter_ite(h, schedule, [h.to_sum()])
        exact = dense_exact_ite(h, trotter.taus, [h.to_sum()])
        assert np.abs(trotter.purities - exact.purities).max() < 1e-12

    def test_size_guard(self):
        ham = build_tfim(TfimParams(N=13))
        with pytest.raises(SizeGuardError, match=f"{N13_BYTES} bytes .* "
                           f"budget of {DENSE_BYTES_BUDGET} bytes"):
            dense_trotter_ite(ham, ScheduleConfig(0.1, 0.2), [ham.to_sum()])


class TestSignedPermutationForm:
    """The dense evolutions act with each string as a signed permutation.
    With an odd number of Y's in generators and observables, where
    ``v_b`` and ``v_(b ^ x)`` differ in sign, they equal the matrix
    products they replace."""

    HAM = Hamiltonian(3, [(0.9, "XYZ"), (-0.6, "YYI"), (0.4, "ZIY"),
                          (-1.1, "IXX"), (0.5, "YII")])
    OBS = [HAM.to_sum(),
           PauliSum.from_terms(3, [(0.7, "YZX"), (-0.4, "IYI"),
                                   (0.2, "III")])]

    def check(self, curve, states):
        mats = [pauli_sum_matrix(o) for o in self.OBS]
        for t, rho in enumerate(states):
            want = [np.trace(m @ rho).real for m in mats]
            assert np.abs(curve.values[t] - want).max() < 1e-12
            assert curve.purities[t] == pytest.approx(
                np.trace(rho @ rho).real * 8, abs=1e-12)

    def test_trotter_matches_matrix_products(self):
        schedule = ScheduleConfig(0.1, 0.5)
        half = [(c * schedule.delta_tau / 2, p) for c, p in self.HAM.terms]
        gates = [np.cosh(t) * np.eye(8) - np.sinh(t) * pauli_matrix(p)
                 for t, p in half]
        rho = np.eye(8) / 8
        states = [rho]
        for _ in range(schedule.n_steps):
            for g in gates:
                rho = g @ rho @ g
                rho = rho / np.trace(rho).real
            states.append(rho)
        self.check(dense_trotter_ite(self.HAM, schedule, self.OBS), states)

    def test_exact_matches_matrix_products(self):
        taus = [0.0, 0.3, 2.0]
        lam, vecs = np.linalg.eigh(hamiltonian_matrix(self.HAM))
        states = []
        for tau in taus:
            rho = (vecs * np.exp(-tau * (lam - lam[0]))) @ vecs.conj().T
            states.append(rho / np.trace(rho).real)
        self.check(dense_exact_ite(self.HAM, taus, self.OBS), states)


class TestPauliMatrix:
    """The package's closed form ``P|b> = i^(#Y) (-1)^popcount(b & z)
    |b ^ x>``, read through :func:`hamiltonian_matrix` of a one-term
    Hamiltonian, against the textbook Kronecker product of 2x2 matrices."""

    SINGLE = {
        "I": np.eye(2),
        "X": np.array([[0, 1], [1, 0]]),
        "Y": np.array([[0, -1j], [1j, 0]]),
        "Z": np.diag([1, -1]),
    }

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_kron_product(self, n):
        for text in all_pauli_texts(n):
            expected = np.array([[1.0]])
            for letter in text:
                expected = np.kron(expected, self.SINGLE[letter])
            got = hamiltonian_matrix(Hamiltonian(n, [(1.0, text)]))
            assert np.array_equal(got, expected), text

    def test_sparse_matches_dense_with_y_terms(self):
        rng = np.random.default_rng(4)
        ham = Hamiltonian(4, [(float(rng.normal()), random_pauli_text(rng, 4))
                              for _ in range(12)])
        assert any("Y" in str(p) for _, p in ham.terms)
        assert np.array_equal(hamiltonian_sparse(ham).toarray(),
                              hamiltonian_matrix(ham))


class TestConjugationHelpers:
    """The tests' dense two-sided conjugation reproduces the hyperbolic
    expansion."""

    @pytest.mark.parametrize("tau", [0.04, -0.04, 0.5, 2.0])
    def test_expansion_term_by_term(self, tau):
        rng = np.random.default_rng(int(abs(tau) * 100))
        for _ in range(10):
            p = pauli_from_text(random_pauli_text(rng, 3))
            q = pauli_from_text(random_pauli_text(rng, 3))
            if q.is_identity:
                continue
            pm, qm = pauli_matrix(p), pauli_matrix(q)
            ch, sh = math.cosh(tau / 2), math.sinh(tau / 2)
            expansion = (
                ch * ch * pm
                - ch * sh * (qm @ pm + pm @ qm)
                + sh * sh * (qm @ pm @ qm)
            )
            got = imaginary_conjugation_matrix(p, q, tau)
            assert np.abs(got - expansion).max() < 1e-12

    def test_real_conjugation_is_unitary_heisenberg(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = pauli_from_text(random_pauli_text(rng, 3))
            q = pauli_from_text(random_pauli_text(rng, 3))
            theta = float(rng.uniform(-2, 2))
            dim = 2 ** 3
            u = (np.cos(theta / 2) * np.eye(dim)
                 - 1j * np.sin(theta / 2) * pauli_matrix(q))
            expected = u.conj().T @ pauli_matrix(p) @ u
            got = real_conjugation_matrix(p, q, theta)
            assert np.abs(got - expected).max() < 1e-14


class TestGroundEnergy:
    def test_matches_dense_small(self):
        ham = build_tfim(TfimParams(N=4, J=1.0, h=0.5))
        dense_e0 = float(np.linalg.eigvalsh(hamiltonian_matrix(ham))[0])
        assert ground_energy(ham) == pytest.approx(dense_e0, abs=1e-12)

    def test_sparse_path_matches_dense(self):
        ham = build_tfim(TfimParams(N=9, J=1.0, h=0.5))
        dense_e0 = float(np.linalg.eigvalsh(hamiltonian_matrix(ham))[0])
        assert ground_energy(ham) == pytest.approx(dense_e0, rel=1e-11)

    def test_deterministic(self):
        ham = build_tfim(TfimParams(N=10, J=1.0, h=0.5))
        assert ground_energy(ham) == ground_energy(ham)

    def test_size_guard(self):
        ham = build_tfim(TfimParams(N=15))
        with pytest.raises(SizeGuardError):
            ground_energy(ham)


class TestBdg:
    def test_n2_is_sqrt2(self):
        assert bdg_ground_energy(TfimParams(N=2, J=1.0, h=0.5)) == \
            pytest.approx(-math.sqrt(2), abs=1e-12)

    def test_decoupled_limit(self):
        for n, h in ((2, 1.0), (5, 1.0), (7, 0.3)):
            assert bdg_ground_energy(TfimParams(N=n, J=0.0, h=h)) == \
                pytest.approx(-n * h, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_matches_ed(self, n):
        params = TfimParams(N=n, J=1.0, h=0.5)
        e_ed = ground_energy(build_tfim(params))
        assert bdg_ground_energy(params) == pytest.approx(e_ed, rel=1e-11)

    def test_matches_ed_random_couplings(self):
        rng = np.random.default_rng(83)
        for _ in range(6):
            params = TfimParams(
                N=int(rng.integers(2, 8)),
                J=float(rng.uniform(0.2, 2.0)),
                h=float(rng.uniform(0.2, 2.0)),
            )
            e_ed = ground_energy(build_tfim(params))
            assert bdg_ground_energy(params) == pytest.approx(e_ed, rel=1e-10)

    def test_polynomial_scale(self):
        # far beyond any dense solve; just needs to answer quickly
        e0 = bdg_ground_energy(TfimParams(N=200, J=1.0, h=0.5))
        assert e0 < -200.0

