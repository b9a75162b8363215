"""Model construction: the open-chain TFIM and generic term ingestion."""

import math

import numpy as np
import pytest

from paulievo import (
    DimensionMismatchError,
    Hamiltonian,
    PauliParseError,
    PauliSum,
    TfimParams,
    build_tfim,
    hamiltonian_from_file,
)
from paulievo.oracle import hamiltonian_matrix


def textbook_tfim_matrix(n, j, h):
    """Independent dense construction via explicit Kronecker products."""
    eye = np.eye(2)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])

    def site_op(op, i):
        m = np.array([[1.0]])
        for q in range(n):
            m = np.kron(m, op if q == i else eye)
        return m

    mat = np.zeros((2 ** n, 2 ** n))
    for i in range(n - 1):
        mat -= j * site_op(sz, i) @ site_op(sz, i + 1)
    for i in range(n):
        mat -= h * site_op(sx, i)
    return mat


class TestBuildTfim:
    def test_n2_term_list(self):
        ham = build_tfim(TfimParams(N=2, J=1.0, h=0.5))
        assert [(c, str(p)) for c, p in ham.terms] == [
            (-1.0, "ZZ"), (-0.5, "XI"), (-0.5, "IX")
        ]

    def test_n3_counts(self):
        ham = build_tfim(TfimParams(N=3, J=1.0, h=0.5))
        assert len(ham) == 5
        assert sum(1 for _, p in ham.terms if "ZZ" in str(p)) == 2

    def test_n10_has_19_terms(self):
        assert len(build_tfim(TfimParams(N=10, J=1.0, h=0.5))) == 19

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12])
    def test_term_count_formula(self, n):
        assert len(build_tfim(TfimParams(N=n))) == 2 * n - 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dense_matches_textbook(self, n):
        ham = build_tfim(TfimParams(N=n, J=1.3, h=0.7))
        got = hamiltonian_matrix(ham)
        assert np.abs(got - textbook_tfim_matrix(n, 1.3, 0.7)).max() < 1e-12

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            TfimParams(N=1)


class TestHamiltonianFromTerms:
    def test_single_term(self):
        ham = Hamiltonian(1, [(-1.0, "Z")])
        assert len(ham) == 1
        assert ham.terms[0][0] == -1.0

    def test_duplicates_merge(self):
        ham = Hamiltonian(2, [(1.0, "ZZ"), (1.0, "ZZ")])
        assert len(ham) == 1
        assert ham.terms[0][0] == 2.0

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_qubits_rejected(self, n):
        with pytest.raises(ValueError, match="n_qubits must be positive"):
            Hamiltonian(n, [])

    def test_width_error(self):
        with pytest.raises(DimensionMismatchError):
            Hamiltonian(2, [(1.0, "ZZZ")])

    def test_parse_error_propagates(self):
        with pytest.raises(PauliParseError):
            Hamiltonian(2, [(1.0, "ZQ")])

    def test_identity_offset_and_gated_terms(self):
        ham = Hamiltonian(2, [(0.25, "II"), (1.0, "ZZ")])
        assert ham.identity_coefficient == 0.25
        assert [(c, str(p)) for c, p in ham.gated_terms()] == [(1.0, "ZZ")]

    def test_to_sum(self):
        ham = Hamiltonian(2, [(1.5, "ZZ"), (-0.5, "XI")])
        s = ham.to_sum()
        assert s.coefficient("ZZ") == 1.5
        assert s.coefficient("XI") == -0.5

    @pytest.mark.parametrize("terms, named", [
        pytest.param([(1.0, "ZZ"), (math.nan, "XI")], "nan", id="nan"),
        pytest.param([(math.inf, "ZZ")], "inf", id="inf"),
        pytest.param([(-math.inf, "XI"), (1.0, "ZZ")], "-inf", id="-inf"),
        pytest.param([(1e308, "ZZ"), (1e308, "ZZ")], "inf",
                     id="duplicates-overflow"),
    ])
    def test_non_finite_coefficient_rejected(self, terms, named):
        with pytest.raises(ValueError, match=f"coefficient {named} of"):
            Hamiltonian(2, terms)


# the two term builders, each returning the coefficient it stored for "Z"
BUILDERS = {
    "Hamiltonian": lambda terms: Hamiltonian(1, terms).terms[0][0],
    "from_terms":
        lambda terms: PauliSum.from_terms(1, terms).coefficient("Z"),
}


@pytest.mark.filterwarnings("error")  # no ComplexWarning either
@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
class TestCoefficientRule:
    """Both builders take a coefficient by one rule: a complex one with a
    nonzero imaginary part raises ``TypeError``, a zero one gives its real
    part, and a number too large for a float raises ``ValueError``."""

    @pytest.mark.parametrize("c", [
        1 + 2j, np.complex64(1 + 2j), np.complex128(1 + 2j),
        complex(1, math.nan),
    ], ids=["complex", "complex64", "complex128", "nan-imag"])
    def test_nonzero_imaginary_part_rejected(self, build, c):
        with pytest.raises(TypeError, match="of Z is not real"):
            build([(c, "Z")])

    @pytest.mark.parametrize("c", [
        1.5 + 0j, np.complex64(1.5), np.complex128(1.5), np.float32(1.5),
    ], ids=["complex", "complex64", "complex128", "float32"])
    def test_zero_imaginary_part_gives_the_real_part(self, build, c):
        got = build([(c, "Z")])
        assert got == 1.5
        assert isinstance(got, float)

    @pytest.mark.parametrize("c", [10 ** 400, -(10 ** 400)],
                             ids=["positive", "negative"])
    def test_too_large_for_a_float_rejected(self, build, c):
        with pytest.raises(ValueError,
                           match="coefficient of Z overflows a float"):
            build([(c, "Z")])


class TestTermFile:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(
            "# a two-spin model\n"
            "-1.0 ZZ\n"
            "\n"
            "-0.5 XI  # field on the first spin\n"
            "-0.5 IX\n"
        )
        ham = hamiltonian_from_file(str(path))
        assert ham.n_qubits == 2
        assert [(c, str(p)) for c, p in ham.terms] == [
            (-1.0, "ZZ"), (-0.5, "XI"), (-0.5, "IX")
        ]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError):
            hamiltonian_from_file(str(path))

    @pytest.mark.parametrize("text, named", [
        ("abc ZZ", "2: could not convert string to float: 'abc'"),
        ("1.0 XQ", "2: invalid Pauli letter 'Q' at position 1"),
        ("-1.0 ZZ\n0.5 XXX", "3: term acts on 3 qubits, not 2"),
        ("1.0 ZZ\ninf XX", "3: coefficient inf of XX is not finite"),
    ], ids=["coefficient", "letter", "width", "non-finite"])
    def test_error_names_path_and_line(self, tmp_path, text, named):
        path = tmp_path / "bad.txt"
        path.write_text("# model\n" + text + "\n")
        with pytest.raises(ValueError) as err:
            hamiltonian_from_file(str(path))
        assert str(err.value) == f"{path}:{named}"

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("-1.0 ZZ extra\n")
        with pytest.raises(ValueError):
            hamiltonian_from_file(str(path))
