"""scipy is imported by the sparse exact diagonalization alone.

Importing the package, propagating, estimating, checkpointing, the dense
imaginary-time references and a CLI run whose reference is the dense solve
must leave scipy unloaded; the first sparse ``ground_energy`` call loads it.
Each check runs in a fresh interpreter, so nothing an earlier test imported
can hide a load.
"""

import os
import subprocess
import sys
import textwrap

SCRIPT = textwrap.dedent("""
    import os
    import sys
    import tempfile

    from paulievo import (
        ScheduleConfig, TfimParams, Threshold, bdg_ground_energy, build_tfim,
        dense_exact_ite, dense_trotter_ite, expectation_squared_state,
        ground_energy, load_pauli_sum, run_itpp, save_pauli_sum,
    )
    from paulievo.cli import main

    params = TfimParams(N=6, J=1.0, h=0.5)
    h = build_tfim(params)
    state, trajectory = run_itpp(h, ScheduleConfig(0.04, 0.12),
                                 Threshold(2 ** -7))
    assert len(trajectory.records) == 4
    expectation_squared_state(h.to_sum(), state)
    bdg_ground_energy(params)
    h4 = build_tfim(TfimParams(N=4, J=1.0, h=0.5))
    dense_exact_ite(h4, [0.0, 0.4], [h4.to_sum()])
    dense_trotter_ite(h4, ScheduleConfig(0.04, 0.12), [h4.to_sum()])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.psum")
        save_pauli_sum(state, path)
        loaded, _ = load_pauli_sum(path)
        assert loaded == state
        assert main(["run-itpp", "--N", "6", "--tau-final", "0.12",
                     "--out-dir", os.path.join(tmp, "run")]) == 0
    assert "scipy" not in sys.modules

    params = TfimParams(N=10, J=1.0, h=0.5)
    e0 = ground_energy(build_tfim(params))
    assert "scipy.sparse.linalg" in sys.modules
    assert abs(e0 - bdg_ground_energy(params)) < 1e-10, e0
""")


def test_scipy_loaded_only_by_sparse_ground_energy():
    res = subprocess.run([sys.executable, "-c", SCRIPT],
                         capture_output=True, text=True,
                         env=os.environ.copy())
    assert res.returncode == 0, res.stderr
