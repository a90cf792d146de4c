"""Tests for truncated Fock-space constructions.

Displacement matrices are checked against the closed-form Laguerre matrix
elements, coherent tails against explicit Poisson partial sums; both are
computed here independently of the library's tridiagonal exponential.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose
from scipy.special import eval_genlaguerre

from quasiphase import fock
from quasiphase.errors import (
    BudgetError,
    InvalidDimensionError,
    TruncationError,
    ValidationError,
)


def displacement_oracle(beta: complex, dim: int) -> np.ndarray:
    """<n|D(beta)|m> from the Laguerre closed form."""
    out = np.empty((dim, dim), dtype=np.complex128)
    y = abs(beta) ** 2
    for n in range(dim):
        for m in range(dim):
            if n >= m:
                ratio = math.sqrt(math.factorial(m) / math.factorial(n))
                out[n, m] = ratio * beta ** (n - m) * eval_genlaguerre(m, n - m, y)
            else:
                ratio = math.sqrt(math.factorial(n) / math.factorial(m))
                out[n, m] = ratio * (-np.conj(beta)) ** (m - n) * eval_genlaguerre(n, m - n, y)
    return out * math.exp(-0.5 * y)


def poisson_tail_oracle(alpha: complex, dim: int) -> float:
    y = abs(alpha) ** 2
    kept = sum(y**n / math.factorial(n) for n in range(dim))
    return 1.0 - math.exp(-y) * kept


class TestFockState:
    def test_projector(self):
        state = fock.fock_state(2, 5)
        expected = np.zeros((5, 5))
        expected[2, 2] = 1.0
        assert_allclose(state.matrix, expected)

    def test_mean_photon(self):
        assert fock.mean_photon(fock.fock_state(2, 16)) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("n, dim", [(5, 5), (-1, 5), (2.0, 5)])
    def test_rejects_bad_level(self, n, dim):
        with pytest.raises(InvalidDimensionError):
            fock.fock_state(n, dim)


class TestDenseBudget:
    # 16 * 100000^2 bytes = 160 GB: each constructor must refuse it before
    # allocating anything.
    @pytest.mark.parametrize("build", [
        lambda d: fock.fock_state(0, d),
        lambda d: fock.thermal_state(1.0, d),
        lambda d: fock.coherent_state(0.5, d),
        lambda d: fock.random_density(d, rank=1, support=2, rng=0),
        lambda d: fock.displacement_matrix(0.5, d),
        lambda d: fock.displaced_parity(0.5, d),
    ])
    def test_state_over_the_budget_raises_before_allocating(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError) as info:
                build(100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.required_bytes == 16 * 100_000**2
        assert info.value.budget_bytes == fock.DENSE_BUDGET_BYTES
        assert peak < 1e6

    def test_numpy_dim_past_the_comma_range_prints_in_e_notation(self):
        with pytest.raises(BudgetError) as info:
            fock.fock_state(0, np.int64(10**17))
        assert "a 1.000e+17 x 1.000e+17 complex matrix needs 1.600e+35 bytes" in str(info.value)


class TestCoherent:
    def test_alpha_zero_is_vacuum(self):
        state, report = fock.coherent_state(0.0, 8)
        assert_allclose(state.matrix, fock.fock_state(0, 8).matrix)
        assert report.tail_mass == 0.0

    def test_mean_photon_matches_intensity(self):
        state, _ = fock.coherent_state(1.0, 48)
        assert fock.mean_photon(state) == pytest.approx(1.0, abs=1e-10)
        state, _ = fock.coherent_state(0.6 + 0.9j, 48)
        assert fock.mean_photon(state) == pytest.approx(0.36 + 0.81, abs=1e-10)

    @pytest.mark.parametrize("alpha, dim", [(2.0, 8), (1.0, 4), (0.5 + 0.5j, 6)])
    def test_tail_matches_partial_sums(self, alpha, dim):
        assert fock.coherent_tail(alpha, dim) == pytest.approx(
            poisson_tail_oracle(alpha, dim), abs=1e-13)

    def test_truncation_error_reports_tail_and_dim(self):
        with pytest.raises(TruncationError) as info:
            fock.coherent_state(2.0, 8)
        err = info.value
        assert err.tail_mass == pytest.approx(poisson_tail_oracle(2.0, 8), abs=1e-12)
        assert err.tail_mass == pytest.approx(5.11e-2, abs=2e-4)
        assert fock.coherent_tail(2.0, err.required_dim) <= fock.TAIL_TOLERANCE
        assert fock.coherent_tail(2.0, err.required_dim - 1) > fock.TAIL_TOLERANCE

    def test_amplitudes_norm_complements_tail(self):
        amps = fock.coherent_amplitudes(1.3, 12)
        norm2 = float(np.sum(np.abs(amps) ** 2))
        assert norm2 == pytest.approx(1.0 - fock.coherent_tail(1.3, 12), abs=1e-13)


class TestDisplacement:
    def test_zero_is_identity(self):
        assert_allclose(fock.displacement_matrix(0.0, 6).matrix, np.eye(6), atol=1e-14)

    def test_first_column_is_coherent_vector(self):
        d = fock.displacement_matrix(1.0, 48).matrix
        assert_allclose(d[:, 0], fock.coherent_amplitudes(1.0, 48), atol=1e-10)

    @pytest.mark.parametrize("beta, dim, tol", [
        pytest.param(0.7, 24, 1e-10, id="0.7"),
        pytest.param(0.3 - 1.1j, 24, 1e-10, id="(0.3-1.1j)"),
        pytest.param(1.8j, 24, 1e-10, id="1.8j"),
        # the register must grow with dim, not only with the radius
        pytest.param(0.5, 300, 1e-12, id="0.5-dim300"),
    ])
    def test_matches_laguerre_closed_form(self, beta, dim, tol):
        d = fock.displacement_matrix(beta, dim).matrix
        assert np.max(np.abs(d - displacement_oracle(beta, dim))) < tol

    @pytest.mark.parametrize("beta", [1.3 - 0.8j, -2.0j])
    def test_matches_dense_expm(self, beta):
        # expm of the literal generator on a wide register, then cropped
        dim = 30
        work = dim + 200
        a = np.diag(np.sqrt(np.arange(1.0, work)), k=1)
        expected = scipy.linalg.expm(beta * a.T - np.conj(beta) * a)[:dim, :dim]
        d = fock.displacement_matrix(beta, dim).matrix
        assert np.max(np.abs(d - expected)) < 1e-13

    def test_inverse_composition(self):
        # Compose with headroom, then crop: truncation at the composition
        # dim would otherwise leak ~1e-4 into the block corner.
        dim, work = 32, 48
        d = fock.displacement_matrix(0.5, work).matrix
        dinv = fock.displacement_matrix(-0.5, work).matrix
        prod = (d @ dinv)[:dim, :dim]
        low = int(0.75 * dim)
        assert np.max(np.abs(prod[:low, :low] - np.eye(dim)[:low, :low])) < 1e-10

    @pytest.mark.parametrize("a, b", [(0.4, 0.3j), (0.2 - 0.5j, -0.3 + 0.1j)])
    def test_composition_phase(self, a, b):
        # D(a) D(b) = exp(i Im(a conj(b))) D(a+b)
        dim, work = 32, 48
        lhs = (fock.displacement_matrix(a, work).matrix
               @ fock.displacement_matrix(b, work).matrix)[:dim, :dim]
        rhs = np.exp(1j * (a * np.conj(b)).imag) * fock.displacement_matrix(a + b, dim).matrix
        low = dim // 2
        assert np.max(np.abs(lhs[:low, :low] - rhs[:low, :low])) < 1e-10

    def test_crop_is_unitary_deep_inside_the_block(self):
        # Deep inside the block the crop is effectively unitary; toward the
        # corner the defect |U^dag U - I| grows.
        d = fock.displacement_matrix(1.2, 40).matrix
        gram = d.conj().T @ d - np.eye(40)
        defects = [np.max(np.abs(gram[:k, :k])) for k in (10, 20, 30)]
        assert defects[0] < 1e-10
        assert defects == sorted(defects)


class TestThermal:
    def test_geometric_law(self):
        state = fock.thermal_state(1.0, 40)
        expected = 0.5 ** (np.arange(40) + 1)
        assert_allclose(np.diagonal(state.matrix).real, expected, rtol=1e-13)
        assert fock.mean_photon(state) == pytest.approx(1.0, abs=1e-10)

    def test_nbar_zero_is_vacuum(self):
        assert_allclose(fock.thermal_state(0.0, 6).matrix, fock.fock_state(0, 6).matrix)

    def test_truncation_error(self):
        with pytest.raises(TruncationError) as info:
            fock.thermal_state(3.0, 10)
        err = info.value
        assert err.tail_mass == pytest.approx(0.75**10, rel=1e-12)
        q = 3.0 / 4.0
        assert q**err.required_dim <= fock.TAIL_TOLERANCE < q ** (err.required_dim - 1)

    def test_rejects_negative_nbar(self):
        with pytest.raises(ValidationError):
            fock.thermal_state(-0.1, 8)


class TestDisplacedParity:
    def test_at_origin_is_signed_diagonal(self):
        # `state parity:0,0` writes this operator, so its label and its
        # entries, signed zeros included, are part of the file.
        p = fock.displaced_parity(0j, 6)
        exact = np.diag([2.0, -2.0, 2.0, -2.0, 2.0, -2.0]).astype(np.complex128)
        assert p.label == "parity(0)"
        assert np.array_equal(p.matrix, exact)
        assert np.array_equal(np.signbit(p.matrix.real), np.signbit(exact.real))
        assert not np.signbit(p.matrix.imag).any()

    def test_matches_double_displacement_identity(self):
        # 2 D(a) (-1)^n D(a)^dag = 2 D(2a) (-1)^n, an exact operator identity.
        dim, alpha = 40, 0.7 - 0.4j
        lhs = fock.displaced_parity(alpha, dim).matrix
        signs = np.where(np.arange(dim) % 2 == 0, 2.0, -2.0)
        rhs = fock.displacement_matrix(2 * alpha, dim).matrix * signs
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_involution_on_low_energy_vectors(self):
        dim, alpha = 48, 0.8
        p = fock.displaced_parity(alpha, dim).matrix
        v = fock.coherent_amplitudes(0.5, dim)
        assert np.linalg.norm(p @ (p @ v) - 4.0 * v) < 1e-8

    def test_truncated_trace_reported_not_pinned(self):
        # The exact operator is not trace class; the truncated trace just
        # reflects the alternating partial sums.
        assert fock.displaced_parity(0.0, 8).trace == pytest.approx(0.0)
        assert fock.displaced_parity(0.0, 9).trace == pytest.approx(2.0)


class TestDensityValidation:
    def test_rejects_non_hermitian(self):
        mat = np.array([[1.0, 0.5], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="Hermitian"):
            fock.as_density(mat)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            fock.as_density(np.diag([0.6, 0.6]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="eigenvalue"):
            fock.as_density(np.diag([1.5, -0.5]).astype(complex))


class TestRandomDensity:
    def test_rank_and_support(self):
        state = fock.random_density(32, rank=3, support=10, rng=11)
        eigs = np.linalg.eigvalsh(state.matrix)
        assert np.sum(eigs > 1e-12) == 3
        assert fock.trim_dim(state, 1e-14) <= 10
        assert np.trace(state.matrix).real == pytest.approx(1.0, abs=1e-13)

    def test_seed_reproducible(self):
        a = fock.random_density(16, rank=2, support=6, rng=5)
        b = fock.random_density(16, rank=2, support=6, rng=5)
        assert np.array_equal(a.matrix, b.matrix)


class TestMetrics:
    def test_trace_distance_orthogonal_pure(self):
        td = fock.trace_distance(fock.fock_state(0, 4), fock.fock_state(1, 4))
        assert td == pytest.approx(1.0, abs=1e-12)

    def test_trace_distance_embeds_smaller_operand(self):
        td = fock.trace_distance(fock.fock_state(0, 4), fock.fock_state(0, 9))
        assert td == pytest.approx(0.0, abs=1e-12)

    def test_fidelity_pure_against_mixed(self):
        # For a pure reference, fidelity reduces to the matrix element.
        f = fock.fidelity(fock.fock_state(0, 32), fock.thermal_state(1.0, 32))
        assert f == pytest.approx(0.5, abs=1e-9)

    def test_fidelity_self_is_one(self):
        # sqrt of clipped eigenvalues costs ~sqrt(eps) here
        state = fock.random_density(12, rank=3, support=8, rng=2)
        assert fock.fidelity(state, state) == pytest.approx(1.0, abs=5e-8)


class TestShapeTools:
    def test_embed_then_crop_roundtrip(self):
        op = fock.TruncatedOperator(np.diag(np.sqrt(np.arange(1, 5)), 1))
        back = fock.crop(fock.embed(op, 9), 5)
        assert np.array_equal(back.matrix, op.matrix)

    def test_crop_and_embed_accept_states(self):
        state = fock.fock_state(0, 40)
        cropped = fock.crop(state, 39)
        assert cropped.dim == 39 and cropped.label == state.label
        assert cropped.matrix[0, 0] == 1.0
        assert fock.embed(state, 41).dim == 41

    def test_trim_dim_finds_live_block(self):
        state = fock.fock_state(2, 32)
        assert fock.trim_dim(state, 1e-14) == 3

    def test_trim_dim_floor_is_one(self):
        assert fock.trim_dim(np.zeros((6, 6), dtype=complex), 1e-14) == 1

    def test_mean_photon_rejects_rotating_diagonal(self):
        with pytest.raises(ValidationError):
            fock.mean_photon(np.diag([0.0, 1j]))


class TestSerialization:
    def test_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        op = fock.TruncatedOperator(mat, label="scratch")
        text = fock.operator_to_json(op)
        back = fock.operator_from_json(text)
        assert np.array_equal(back.matrix, op.matrix)
        assert back.label == "scratch"
        assert fock.operator_to_json(back) == text

    def test_malformed_json_rejected(self):
        with pytest.raises(ValidationError, match="malformed"):
            fock.operator_from_json("{not json")
        with pytest.raises(ValidationError, match="an object"):
            fock.operator_from_json("5")

    def test_ragged_parts_rejected(self):
        with pytest.raises(ValidationError, match="not real matrices"):
            fock.operator_from_json('{"dim": 2, "re": [[1.0, 0.0], [0.0]], '
                                    '"im": [[0.0, 0.0], [0.0, 0.0]]}')

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            fock.operator_from_json('{"dim": 2, "re": [[1.0]], "im": [[0.0]]}')

    @pytest.mark.parametrize("text", [
        '{"dim": true, "re": [[1.0]], "im": [[0.0]]}',
        '{"dim": 1, "re": [[true]], "im": [[0.0]]}',
        '{"dim": 1, "re": [[1.0]], "im": [[false]]}',
        '{"dim": 2, "re": [[1.0, 0.0], [0.0, true]], "im": [[0.0, 0.0], [0.0, 0.0]]}',
        '{"dim": true, "re": [[true]], "im": [[false]]}',
    ])
    def test_json_boolean_is_not_a_number(self, text):
        with pytest.raises(ValidationError):
            fock.operator_from_json(text)

    @pytest.mark.parametrize("text", [
        '{"dim": 1, "re": [["1.0"]], "im": [["0"]]}',
        '{"dim": 1, "re": [[1.0]], "im": [["0"]]}',
        '{"dim": 1, "re": [[null]], "im": [[0.0]]}',
        '{"dim": 1, "re": [[{"re": 1.0}]], "im": [[0.0]]}',
        '{"dim": 2, "re": [[1.0, 0.0], [0.0, "1e0"]], "im": [[0.0, 0.0], [0.0, 0.0]]}',
    ])
    def test_json_string_is_not_a_number(self, text):
        # numpy would read "1.0" as 1.0 and null as nan
        with pytest.raises(ValidationError, match="expected numbers"):
            fock.operator_from_json(text)

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"dim": 1, "re": ' + "[" * 100_000 + "]" * 100_000 + ', "im": [[0.0]]}',
    ], ids=["bare", "in_field"])
    def test_deeply_nested_json_rejected(self, text):
        with pytest.raises(ValidationError, match="nested too deeply"):
            fock.operator_from_json(text)

    @pytest.mark.parametrize("dim", ["0", "-5"])
    def test_json_dim_must_be_positive(self, dim):
        with pytest.raises(ValidationError, match="dim must be positive"):
            fock.operator_from_json(f'{{"dim": {dim}, "re": [], "im": []}}')

    def test_shape_error_names_the_expected_shape(self):
        with pytest.raises(ValidationError, match=r"expected 2 x 2$"):
            fock.operator_from_json('{"dim": 2, "re": [[1.0]], "im": [[0.0]]}')
        with pytest.raises(ValidationError, match=r"expected 1\.000e\+3000 x 1\.000e\+3000$"):
            fock.operator_from_json('{"dim": 1' + "0" * 3000 + ', "re": [], "im": []}')

    @pytest.mark.parametrize("dim", ["1.0", "[1]", '"1"'])
    def test_json_dim_must_be_an_integer(self, dim):
        # 1.0 and [1] would otherwise pass or fail only through the shape
        # comparison, since (1, 1) == (1.0, 1.0).
        with pytest.raises(ValidationError, match="dim must be an integer"):
            fock.operator_from_json(f'{{"dim": {dim}, "re": [[1.0]], "im": [[0.0]]}}')
