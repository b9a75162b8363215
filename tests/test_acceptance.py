"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``[acceptance] criterion N: PASS/FAIL`` line (run
pytest with ``-s`` to see them live).  Criterion 5 is the heavy tier,
enabled with ``--heavy``.
"""

import math

import numpy as np
import pytest

from paulievo import (
    FixedK,
    GateSpec,
    PauliSum,
    ScheduleConfig,
    TfimParams,
    Threshold,
    apply_imaginary_gate,
    apply_real_gate,
    bdg_ground_energy,
    build_tfim,
    dense_exact_ite,
    dense_trotter_ite,
    expectation_squared_state,
    ground_energy,
    pauli_from_text,
    reachable_support_size,
    run_itpp,
    truncate,
)

from helpers import (
    all_pauli_texts,
    imaginary_conjugation_matrix,
    pauli_sum_matrix,
    random_pauli_sum,
    random_pauli_text,
    read_rows,
    real_conjugation_matrix,
    run_cli,
    squared_state_oracle,
)

ANGLES = (0.04, -0.04, 0.5, -0.5, 2.0, -2.0)


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"\n[acceptance] {name}: {status}{suffix}")
    return ok


def _max_rule_error(p_text, q, value, imaginary):
    a = PauliSum.from_terms(q.n_qubits, [(1.0, p_text)])
    if imaginary:
        out = apply_imaginary_gate(a, GateSpec(q, tau_eff=value))
        expected = imaginary_conjugation_matrix(
            pauli_from_text(p_text), q, value
        )
    else:
        out = apply_real_gate(a, GateSpec(q, theta=value))
        expected = real_conjugation_matrix(pauli_from_text(p_text), q, value)
    return np.abs(pauli_sum_matrix(out) - expected).max()


def test_criterion_1_rule_vs_oracle():
    """Gate rules match dense conjugation exhaustively (n <= 3) and on
    random pairs at n = 8, both to <= 1e-12."""
    worst = 0.0
    for n in (1, 2, 3):
        texts = all_pauli_texts(n)
        for q_text in texts:
            q = pauli_from_text(q_text)
            if q.is_identity:
                continue
            for p_text in texts:
                for value in ANGLES:
                    worst = max(
                        worst,
                        _max_rule_error(p_text, q, value, imaginary=True),
                        _max_rule_error(p_text, q, value, imaginary=False),
                    )
    rng = np.random.default_rng(2024)
    count = 0
    while count < 1000:
        p_text = random_pauli_text(rng, 8)
        q_text = random_pauli_text(rng, 8)
        q = pauli_from_text(q_text)
        if q.is_identity:
            continue
        value = ANGLES[count % len(ANGLES)]
        worst = max(
            worst,
            _max_rule_error(p_text, q, value, imaginary=True),
            _max_rule_error(p_text, q, value, imaginary=False),
        )
        count += 1
    ok = worst <= 1e-12
    _report("criterion 1 (rule vs dense oracle)", ok,
            f"max coefficient error {worst:.2e} (tolerance 1e-12)")
    assert ok


def test_criterion_2_itpp_equals_dense_trotter():
    """Untruncated ITPP reproduces dense Trotterized evolution at every
    recorded step to <= 1e-10 relative, N in {2, 4, 6, 8}."""
    worst = 0.0
    for n in (2, 4, 6, 8):
        ham = build_tfim(TfimParams(N=n, J=1.0, h=0.5))
        sched = ScheduleConfig(0.04, 10.0)
        _, traj = run_itpp(ham, sched)
        curve = dense_trotter_ite(ham, sched, [ham.to_sum()])
        assert np.array_equal(traj.taus(), curve.taus)
        for got, want in zip(traj.energies(), curve.values[:, 0]):
            diff = abs(got - want)
            rel = 0.0 if diff == 0.0 else diff / abs(want)
            worst = max(worst, rel)
    ok = worst <= 1e-10
    _report("criterion 2 (ITPP = dense Trotter, N in {2,4,6,8})", ok,
            f"max relative deviation {worst:.2e} (tolerance 1e-10)")
    assert ok


def test_criterion_3_ground_state_convergence():
    """(a) N=10 final energy within 1e-3 of the exact ground energy;
    (b) at N=6 the energy error of the Trotterized state is second order in
    the step: halving dtau from 0.04 to 0.02 shrinks it by a ratio in
    [3.2, 4.8] (2^2 +- 20%).

    The two-sided conjugation ``rho -> V rho V`` cancels the leading
    Trotter commutator in the energy, so the error is O(dtau^2).  It is
    measured against exact imaginary-time evolution at the trajectory's own
    final tau, not against the tau->infinity ground energy: at tau=20 the
    quasi-degenerate ordered-phase doublet keeps the exact thermal energy
    ~1.6e-3 (relative) above E0, a floor that swamps the Trotter error and
    drives the E0-based ratio to 1 as dtau shrinks.
    """
    ham10 = build_tfim(TfimParams(N=10, J=1.0, h=0.5))
    e_inf = ground_energy(ham10)
    _, traj = run_itpp(ham10, ScheduleConfig(0.04, 20.0))
    rel = abs(traj.final.energy - e_inf) / abs(e_inf)
    part_a = rel <= 1e-3

    ham6 = build_tfim(TfimParams(N=6, J=1.0, h=0.5))
    e6_inf = ground_energy(ham6)
    residuals, residuals_e0 = {}, {}
    for dtau in (0.04, 0.02):
        _, traj6 = run_itpp(ham6, ScheduleConfig(dtau, 20.0))
        e6_ite = dense_exact_ite(
            ham6, [traj6.final.tau], [ham6.to_sum()]
        ).values[0, 0]
        residuals[dtau] = abs(traj6.final.energy - e6_ite) / abs(e6_ite)
        residuals_e0[dtau] = abs(traj6.final.energy - e6_inf) / abs(e6_inf)
    floor = abs(e6_ite - e6_inf) / abs(e6_inf)
    ratio = residuals[0.04] / residuals[0.02]
    part_b = 3.2 <= ratio <= 4.8

    ok = part_a and part_b
    a_note = "ok" if part_a else "FAIL"
    b_note = "ok" if part_b else "FAIL"
    _report(
        "criterion 3 (ground-state convergence)", ok,
        f"N=10 rel residual {rel:.2e} (tol 1e-3, {a_note}); "
        f"N=6 vs exact ITE at tau={traj6.final.tau:g}: "
        f"{residuals[0.04]:.3e} -> {residuals[0.02]:.3e}, "
        f"ratio {ratio:.3f} (window [3.2, 4.8], {b_note}); "
        f"vs E0: {residuals_e0[0.04]:.3e} -> {residuals_e0[0.02]:.3e} "
        f"over a thermal floor of {floor:.3e}"
    )
    assert part_a, f"N=10 residual {rel:.3e} exceeds 1e-3"
    assert part_b, (
        f"Trotter error ratio {ratio:.3f} outside [3.2, 4.8]: the energy "
        "of the two-sided Trotterized state should converge at O(dtau^2) "
        "to exact imaginary-time evolution at equal tau (residuals "
        f"{residuals[0.04]:.3e} at dtau=0.04, {residuals[0.02]:.3e} at "
        "dtau=0.02)"
    )


def test_criterion_4_threshold_benchmark_n12():
    """N=12, delta=2^-7: relative error in [3e-3, 3e-2] and retained terms
    within 10% of 42,466."""
    params = TfimParams(N=12, J=1.0, h=0.5)
    ham = build_tfim(params)
    e0 = bdg_ground_energy(params)
    _, traj = run_itpp(ham, ScheduleConfig(0.04, 20.0), Threshold(2 ** -7),
                       reference_energy=e0)
    rel = traj.final.relative_error
    n_terms = traj.final.n_terms
    err_ok = 3e-3 <= rel <= 3e-2
    lo, hi = 42466 * 0.9, 42466 * 1.1
    count_ok = lo <= n_terms <= hi
    ok = err_ok and count_ok
    _report(
        "criterion 4 (threshold benchmark N=12, delta=2^-7)", ok,
        f"rel error {rel:.3e} in [3e-3, 3e-2]: {err_ok}; "
        f"retained {n_terms} in [{lo:.0f}, {hi:.0f}]: {count_ok}"
    )
    assert ok


@pytest.mark.heavy
def test_criterion_5_untruncated_support_n12():
    """Heavy tier: the untruncated N=12 run saturates at exactly 2,704,156
    Pauli terms under the default ordering.

    The census keeps float residues (only exact zeros drop): a handful of
    strings carry exact coefficients below 1e-15 of the leading one, and
    the benchmark count includes them.  The count is then monotone and
    bounded by the reachable closure, so the run may stop honestly once it
    has sat at the target for a few steps; otherwise it runs the full
    tau = 20 protocol and reports whatever it reached.
    """
    target = 2_704_156
    ham = build_tfim(TfimParams(N=12, J=1.0, h=0.5))
    counts = []

    def until_saturated(step, state, record):
        counts.append(record.n_terms)
        return len(counts) >= 3 and \
            counts[-1] == counts[-2] == counts[-3] == target

    run_itpp(ham, ScheduleConfig(0.04, 20.0), step_callback=until_saturated,
             drop_relative=0.0)
    saturated = counts[-1]
    closure = reachable_support_size(ham)
    ok = saturated == target and max(counts) == saturated
    _report(
        "criterion 5 (untruncated N=12 support, heavy)", ok,
        f"saturated at {saturated} terms after {len(counts)} steps "
        f"(closure {closure}, target {target})"
    )
    assert saturated == target
    assert closure == target


def test_criterion_6_squared_state_estimator():
    """Squared-state estimator equals explicit squaring and the dense
    oracle (<= 1e-10); the single-qubit closed form holds to 1e-12."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for n in (2, 3, 4, 5):
        for _ in range(4):
            obs = random_pauli_sum(rng, n, 2 * n)
            rho = random_pauli_sum(rng, n, 3 * n, with_identity=True)
            got = expectation_squared_state(obs, rho)
            via_square = squared_state_oracle(obs, rho)
            worst = max(worst, abs(got - via_square))
            mo = pauli_sum_matrix(obs)
            mr = pauli_sum_matrix(rho)
            dense_val = (np.trace(mo @ mr @ mr) / np.trace(mr @ mr)).real
            worst = max(worst, abs(got - dense_val))
    closed_worst = 0.0
    z = PauliSum.from_terms(1, [(1.0, "Z")])
    for t in (0.05, 0.3, 0.9, 2.0):
        rho = PauliSum.from_terms(1, [(1.0, "I"), (math.tanh(t), "Z")])
        got = expectation_squared_state(z, rho)
        closed_worst = max(closed_worst, abs(got - math.tanh(2 * t)))
    ok = worst <= 1e-10 and closed_worst <= 1e-12
    _report(
        "criterion 6 (squared-state estimator)", ok,
        f"max oracle deviation {worst:.2e} (tol 1e-10), closed form "
        f"{closed_worst:.2e} (tol 1e-12)"
    )
    assert ok


def test_criterion_7_bdg_vs_exact_diagonalization():
    """Free-fermion ground energies match exact diagonalization to 1e-10
    relative for N = 2..12 and for 20 random couplings."""
    worst = 0.0
    for n in range(2, 13):
        params = TfimParams(N=n, J=1.0, h=0.5)
        e_ed = ground_energy(build_tfim(params))
        worst = max(worst, abs(bdg_ground_energy(params) - e_ed) / abs(e_ed))
    rng = np.random.default_rng(101)
    for _ in range(20):
        params = TfimParams(
            N=int(rng.integers(2, 13)),
            J=float(rng.uniform(0.2, 2.0)),
            h=float(rng.uniform(0.2, 2.0)),
        )
        e_ed = ground_energy(build_tfim(params))
        worst = max(worst, abs(bdg_ground_energy(params) - e_ed) / abs(e_ed))
    ok = worst <= 1e-10
    _report("criterion 7 (BdG vs exact diagonalization)", ok,
            f"max relative deviation {worst:.2e} (tolerance 1e-10)")
    assert ok


def test_criterion_8_structural_invariants(tmp_path):
    """Branch bound, fixed points, gate inversion, normalization, realness,
    tie-break stability, and deterministic reruns."""
    rng = np.random.default_rng(55)
    checks = {}

    # per-gate term growth is bounded by a factor of two
    bound_ok = True
    for _ in range(20):
        a = random_pauli_sum(rng, 5, int(rng.integers(1, 40)))
        g_text = random_pauli_text(rng, 5)
        if g_text == "IIIII":
            continue
        g = GateSpec(pauli_from_text(g_text), tau_eff=0.3)
        bound_ok &= len(apply_imaginary_gate(a, g)) <= 2 * len(a)
    checks["2x branch bound"] = bound_ok

    # anticommuting terms are bit-identical fixed points
    a = PauliSum.from_terms(2, [(0.123456789, "XI"), (-0.5, "YI")])
    out = apply_imaginary_gate(a, GateSpec(pauli_from_text("ZI"), tau_eff=0.7))
    checks["anticommuting fixed points"] = (
        out == a and out.coefficient("XI") == 0.123456789
    )

    # gate at tau then -tau restores the operator
    inv_ok = True
    for _ in range(10):
        a = random_pauli_sum(rng, 4, 12)
        g = pauli_from_text(random_pauli_text(rng, 4).replace("IIII", "ZIII"))
        there = apply_imaginary_gate(a, GateSpec(g, tau_eff=0.6))
        back = apply_imaginary_gate(there, GateSpec(g, tau_eff=-0.6))
        for s, c in a.items():
            inv_ok &= abs(back.coefficient(s) - c) <= 1e-12
        inv_ok &= len(back) == len(a)
    checks["tau/-tau inversion"] = inv_ok

    # identity coefficient is exactly 1 and coefficients stay real
    ham = build_tfim(TfimParams(N=4, J=1.0, h=0.5))
    state_ok = {"value": True}

    def check_state(step, state, record):
        state_ok["value"] &= state.coefficient("IIII") == 1.0
        state_ok["value"] &= state.is_real
        return False

    run_itpp(ham, ScheduleConfig(0.04, 1.0), Threshold(2 ** -6),
             step_callback=check_state)
    checks["identity=1 and real coefficients"] = state_ok["value"]

    # fixed-K ties resolve by first insertion, stably under shrinking K
    tie = PauliSum.from_terms(2, [(0.5, "ZZ"), (0.5, "XX"), (0.3, "YY")])
    kept = truncate(tie, FixedK(2))
    checks["fixed-K tie-break"] = (
        set(str(s) for s, _ in kept.items()) == {"ZZ", "XX"}
    )

    # identical reruns are bit-identical; the worker env var changes nothing
    s1, t1 = run_itpp(ham, ScheduleConfig(0.04, 1.0), Threshold(2 ** -6))
    s2, t2 = run_itpp(ham, ScheduleConfig(0.04, 1.0), Threshold(2 ** -6))
    rerun_ok = (
        s1 == s2
        and s1.coefficients().tobytes() == s2.coefficients().tobytes()
        and t1.energies().tobytes() == t2.energies().tobytes()
    )
    outs = []
    for workers in ("1", "4"):
        out = tmp_path / f"w{workers}"
        res = run_cli("run-itpp", "--N", "3", "--tau-final", "0.4",
                      "--truncation", "threshold=2^-6",
                      "--out-dir", str(out),
                      env_extra={"PAULIEVO_WORKERS": workers})
        assert res.returncode == 0, res.stderr
        outs.append(read_rows(out / "trajectory.csv"))
    checks["deterministic reruns"] = rerun_ok and outs[0] == outs[1]

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _report("criterion 8 (structural invariants)", ok,
            "all checks passed" if ok else f"failed: {failed}")
    assert ok, failed
