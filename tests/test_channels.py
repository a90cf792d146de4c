"""Channel tests: closed-form kernels against dilation oracles and exact laws.

The amplifier and attenuator each have two independent realizations
(number-basis shells vs two-mode unitary dilation); agreement between them
is the main correctness argument, anchored by exact small cases worked out
by hand (vacuum, single photon, coherent covariance, bare parity).
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from quasiphase import channels, fock
from quasiphase.analysis import default_battery
from quasiphase.channels import (
    AdditiveNoise,
    Amplifier,
    Attenuator,
    Compose,
    Inverse,
    amplifier_apply,
    amplifier_dilated,
    apply,
    attenuator_apply,
    attenuator_dilated,
    attenuator_kraus,
    channel_diagnostics,
    coherent_projection,
    inverse_apply,
    smoothing_channel,
    spec_from_json,
    spec_to_json,
    superoperator_of,
)
from quasiphase.errors import (
    AncillaTailError,
    BudgetError,
    InvalidDimensionError,
    TraceLeakError,
    ValidationError,
)
from quasiphase.fock import (
    DENSE_BUDGET_BYTES,
    ULP_TAIL,
    TruncatedOperator,
    coherent_state,
    crop,
    displaced_parity,
    displacement_matrix,
    fidelity,
    fock_state,
    mean_photon,
    random_density,
    thermal_state,
    trace_distance,
)


def bare_parity(dim: int) -> TruncatedOperator:
    signs = ((-1.0) ** np.arange(dim)).astype(np.complex128)
    return TruncatedOperator(np.diag(signs), label="parity")


def embedded_max_diff(a: TruncatedOperator, b: TruncatedOperator) -> float:
    n = max(a.dim, b.dim)
    pa = np.pad(a.matrix, ((0, n - a.dim), (0, n - a.dim)))
    pb = np.pad(b.matrix, ((0, n - b.dim), (0, n - b.dim)))
    return float(np.max(np.abs(pa - pb)))


def battery(dim: int = 40):
    rng = np.random.default_rng(11)
    return [
        ("vacuum", fock_state(0, dim)),
        ("fock1", fock_state(1, dim)),
        ("fock2", fock_state(2, dim)),
        ("fock3", fock_state(3, dim)),
        ("coherent", coherent_state(1.2, dim)[0]),
        ("thermal", thermal_state(1.5, dim)),
        ("random", random_density(dim, rank=3, support=10, rng=rng)),
    ]


class TestSpecs:
    def test_parameter_ranges(self):
        with pytest.raises(ValidationError):
            Amplifier(0.5)
        with pytest.raises(ValidationError):
            Attenuator(-0.1)
        with pytest.raises(ValidationError):
            Attenuator(1.2)
        with pytest.raises(ValidationError):
            AdditiveNoise(-1.0)
        with pytest.raises(ValidationError):
            Inverse(Amplifier(2.0), epsilon=0.0)
        for build in (lambda: Amplifier(math.inf), lambda: AdditiveNoise(math.inf),
                      lambda: Inverse(Amplifier(2.0), epsilon=math.inf)):
            with pytest.raises(ValidationError, match="finite"):
                build()
        with pytest.raises(ValidationError):
            Compose(())
        with pytest.raises(ValidationError):
            Compose((Amplifier(2.0), "not a spec"))

    def test_specs_hashable(self):
        assert hash(smoothing_channel()) == hash(smoothing_channel())
        assert Amplifier(2.0) == Amplifier(2.0)

    def test_canonical_json_form(self):
        # This exact object is the smoothing channel.
        payload = json.loads(spec_to_json(smoothing_channel()))
        assert payload == {
            "kind": "compose",
            "items": [
                {"kind": "attenuator", "lambda": 0.5},
                {"kind": "amplifier", "kappa": 2.0},
            ],
        }

    def test_json_round_trip(self):
        specs = [
            Amplifier(1.5),
            Attenuator(0.3),
            AdditiveNoise(0.7),
            Inverse(smoothing_channel(), epsilon=1e-8),
            Compose((AdditiveNoise(1.0), Amplifier(2.0))),
        ]
        for spec in specs:
            assert spec_from_json(spec_to_json(spec)) == spec

    def test_json_errors(self):
        with pytest.raises(ValidationError):
            spec_from_json("{not json")
        with pytest.raises(ValidationError):
            spec_from_json('{"kind": "squeezer", "r": 1.0}')
        with pytest.raises(ValidationError):
            spec_from_json('{"kind": "amplifier"}')
        with pytest.raises(ValidationError):
            spec_from_json('[1, 2]')

    @pytest.mark.parametrize("text", [
        '{"kind": "amplifier", "kappa": "big"}',
        '{"kind": "inverse", "inner": {"kind": "attenuator", "lambda": 0.5}, '
        '"epsilon": "tiny"}',
        '{"kind": "compose", "items": 5}',
    ])
    def test_json_wrong_field_type(self, text):
        with pytest.raises(ValidationError, match="malformed field"):
            spec_from_json(text)

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"kind": "amplifier", "kappa": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ], ids=["bare", "in_field"])
    def test_deeply_nested_json_rejected(self, text):
        with pytest.raises(ValidationError, match="nested too deeply"):
            spec_from_json(text)

    @pytest.mark.parametrize("text", [
        '{"kind": "amplifier", "kappa": true}',
        '{"kind": "attenuator", "lambda": false}',
        '{"kind": "additive_noise", "noise": true}',
        '{"kind": "inverse", "inner": {"kind": "attenuator", "lambda": 0.5}, '
        '"epsilon": true}',
    ])
    def test_json_boolean_is_not_a_number(self, text):
        with pytest.raises(ValidationError, match="malformed field"):
            spec_from_json(text)


def negative_binomial_tail(kappa: float, live: int, dim: int) -> float:
    """Mass the amplifier moves from level live - 1 to dim or above."""
    if dim < live:
        return 1.0
    log_p, log_q = math.log(1.0 / kappa), math.log1p(-1.0 / kappa)
    shifts = range(dim - live + 1, dim - live + 3001)  # the terms fall past the mode
    return math.fsum(math.exp(math.lgamma(j + live) - math.lgamma(live) - math.lgamma(j + 1)
                              + live * log_p + j * log_q) for j in shifts)


class TestGrowthRule:
    CASES = [(kappa, live) for kappa in (1.5, 2.0, 5.0) for live in (1, 4, 40, 64)]

    @pytest.mark.parametrize("kappa,live", CASES)
    def test_default_dim_is_the_first_below_the_tolerance(self, kappa, live):
        dim = amplifier_apply(kappa, fock_state(live - 1, live)).dim
        tol = ULP_TAIL
        assert negative_binomial_tail(kappa, live, dim) <= tol * (1.0 + 1e-6)
        assert negative_binomial_tail(kappa, live, dim - 1) > tol * (1.0 - 1e-6)

    @pytest.mark.parametrize("kappa,live", CASES)
    def test_top_level_leaks_at_most_an_ulp(self, kappa, live):
        rho = fock_state(live - 1, live)
        dim = amplifier_apply(kappa, rho).dim
        wide = amplifier_apply(kappa, rho, dim_out=dim + 300).matrix
        leak = math.fsum(np.diagonal(wide).real[dim:])
        assert 0.0 < leak <= 2.0 * np.finfo(float).eps

    def test_default_dim_leaks_at_most_the_trimmed_mass(self):
        # ULP_TAIL bounds the leak of the live block only.  Level 63 holds
        # 5e-17, below the 1e-16 trim, so the vacuum's 52 levels lose it
        # whole.  Exact sums put the leak at 1.23 ulps; one more ULP_TAIL
        # covers the kernel's rounding, 0.43 ulp here.
        mat = np.zeros((64, 64), dtype=complex)
        mat[0, 0], mat[63, 63] = 1.0, 5e-17
        out = amplifier_apply(2.0, TruncatedOperator(mat))
        assert out.dim == 52
        leak = math.fsum(np.concatenate([mat.diagonal().real, -out.matrix.diagonal().real]))
        trimmed = mat[63, 63].real
        assert trimmed < leak <= 2 * ULP_TAIL + trimmed

    def test_a_level_above_the_trim_grows_the_default_dim(self):
        # 1e-15 at level 63 is live, so the default dim grows from 64 live
        # levels and nothing past it holds more than the growth rule allows
        mat = np.zeros((64, 64), dtype=complex)
        mat[0, 0], mat[63, 63] = 1.0, 1e-15
        out = amplifier_apply(2.0, TruncatedOperator(mat))
        assert out.dim == channels._amplifier_grown_dim(2.0, 64)
        wide = amplifier_apply(2.0, TruncatedOperator(mat), dim_out=out.dim + 300).matrix
        leak = math.fsum(np.diagonal(wide).real[out.dim:])
        assert 0.0 < leak <= 2 * ULP_TAIL


class TestAmplifierKernel:
    def test_gain_one_is_identity(self):
        rho = random_density(12, rank=2, rng=5)
        out = amplifier_apply(1.0, rho)
        assert out.dim == 12
        assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_vacuum_becomes_thermal_one(self):
        out = amplifier_apply(2.0, fock_state(0, 8))
        expected = thermal_state(1.0, out.dim)
        assert_allclose(out.matrix, expected.matrix, atol=1e-14)

    def test_bare_parity_collapses_to_half_vacuum(self):
        out = amplifier_apply(2.0, bare_parity(16), dim_out=16)
        expected = np.zeros((16, 16), dtype=complex)
        expected[0, 0] = 0.5
        assert_allclose(out.matrix, expected, atol=1e-12)

    def test_default_dim_preserves_trace(self):
        rho = random_density(12, rank=3, support=10, rng=3)
        out = amplifier_apply(1.7, rho)
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-10

    def test_trace_leak_raises_for_tight_output(self):
        with pytest.raises(TraceLeakError) as info:
            amplifier_apply(2.0, fock_state(0, 8), dim_out=24)
        # thermal(1) tail past level 24
        assert info.value.deficit == pytest.approx(0.5**24, rel=1e-6)
        assert info.value.dim_out == 24

    def test_gain_one_crop_is_a_trace_leak(self):
        # Unit gain goes through the same leak check as every other gain:
        # thermal(1) holds 0.5^5 of its trace above level 5.
        with pytest.raises(TraceLeakError) as info:
            amplifier_apply(1.0, thermal_state(1.0, 40), dim_out=5)
        assert info.value.deficit == pytest.approx(0.5**5, rel=1e-6)

    def test_bare_operator_crop_is_no_trace_leak(self):
        # The type decides the leak check: the same state's bare operator
        # is cropped as asked.
        state = thermal_state(1.0, 40)
        out = amplifier_apply(1.0, state.op, dim_out=5)
        assert np.array_equal(out.matrix, state.matrix[:5, :5])

    def test_output_over_the_dense_budget_raises(self):
        # The 100-fold image of a full dim-64 block needs over 8192 levels,
        # so the tail search stops at the first dim past the dense budget.
        rho = random_density(64, rank=2, rng=1)
        with pytest.raises(BudgetError) as info:
            amplifier_apply(100.0, rho)
        assert info.value.required_bytes == 16 * 8193**2
        assert info.value.budget_bytes == DENSE_BUDGET_BYTES
        assert f"{16 * 8193**2:,} bytes" in str(info.value)
        with pytest.raises(BudgetError):
            apply(Amplifier(100.0), rho)

    def test_non_density_inputs_exempt_from_leak_check(self):
        out = amplifier_apply(2.0, bare_parity(16), dim_out=16)
        assert out.dim == 16

    def test_displacement_covariance(self):
        # A_2[D(a) X D(a)^dag] = D(sqrt(2) a) A_2[X] D(sqrt(2) a)^dag
        alpha = 0.6 + 0.3j
        rho = random_density(12, rank=3, support=10, rng=3)
        base = np.zeros((40, 40), dtype=complex)
        base[:12, :12] = rho.matrix
        d = displacement_matrix(alpha, 40).matrix
        lhs = amplifier_apply(2.0, TruncatedOperator(d @ base @ d.conj().T), dim_out=120)
        inner = amplifier_apply(2.0, TruncatedOperator(base), dim_out=120)
        d2 = displacement_matrix(math.sqrt(2.0) * alpha, 120).matrix
        rhs = d2 @ inner.matrix @ d2.conj().T
        assert_allclose(lhs.matrix[:60, :60], rhs[:60, :60], atol=1e-10)

    @pytest.mark.parametrize("kappa", [1.0, 1.5, 2.0])
    def test_photon_number_law(self, kappa):
        # Not machine-exact: input and output truncate different tails.
        for _, state in battery(40):
            out = amplifier_apply(kappa, state)
            expected = kappa * mean_photon(state) + kappa - 1.0
            assert mean_photon(out) == pytest.approx(expected, abs=1e-7)


class TestAttenuatorKernel:
    def test_unit_transmissivity_is_identity(self):
        rho = random_density(12, rank=2, rng=5)
        out = attenuator_apply(1.0, rho)
        assert_allclose(out.matrix, rho.matrix, atol=0)

    def test_zero_transmissivity_collapses_to_vacuum(self):
        rho = random_density(12, rank=2, rng=5)
        out = attenuator_apply(0.0, rho)
        expected = np.zeros((12, 12), dtype=complex)
        expected[0, 0] = 1.0
        assert_allclose(out.matrix, expected, atol=1e-12)

    def test_single_photon_splits(self):
        out = attenuator_apply(0.5, fock_state(1, 8))
        expected = np.zeros((8, 8), dtype=complex)
        expected[0, 0] = expected[1, 1] = 0.5
        assert_allclose(out.matrix, expected, atol=1e-14)

    def test_coherent_covariance(self):
        out = attenuator_apply(0.5, coherent_state(1.0, 32)[0])
        expected = coherent_state(1.0 / math.sqrt(2.0), 32)[0]
        assert_allclose(out.matrix, expected.matrix, atol=1e-12)

    def test_thermal_scaling(self):
        out = attenuator_apply(0.5, thermal_state(1.0, 40))
        expected = thermal_state(0.5, 40)
        assert_allclose(out.matrix, expected.matrix, atol=1e-12)

    def test_semigroup(self):
        rho = random_density(16, rank=3, rng=7)
        via_two = attenuator_apply(0.8, attenuator_apply(0.6, rho))
        direct = attenuator_apply(0.48, rho)
        assert_allclose(via_two.matrix, direct.matrix, atol=1e-12)

    @pytest.mark.parametrize("lam", [1.0, 0.7, 0.5, 0.0])
    def test_photon_number_law(self, lam):
        for _, state in battery(40):
            out = attenuator_apply(lam, state)
            assert mean_photon(out) == pytest.approx(lam * mean_photon(state), abs=1e-9)


def comb_shells(atom, n: int, dim_out: int) -> list:
    """Each Kraus operator K_j of atom as [(row, col, weight)], weights from math.comb."""
    if isinstance(atom, Amplifier):
        k = atom.kappa
        return [[(j + m, m, math.sqrt(math.comb(j + m, m) * k ** -(m + 1)
                                      * ((k - 1.0) / k) ** j))
                 for m in range(n) if j + m < dim_out] for j in range(dim_out)]
    lam = atom.transmissivity
    return [[(m - j, m, math.sqrt(math.comb(m, j) * lam ** (m - j) * (1.0 - lam) ** j))
             for m in range(j, n)] for j in range(n)]


def kraus_sum(atom, x: np.ndarray, dim_out: int) -> np.ndarray:
    """sum_j K_j X K_j^dag in plain Python, each K_j's weights from math.comb."""
    out = [[0j] * dim_out for _ in range(dim_out)]
    for shell in comb_shells(atom, x.shape[0], dim_out):
        for row, m, w in shell:
            for col, m2, w2 in shell:
                out[row][col] += w * complex(x[m, m2]) * w2
    return np.array(out)


def kraus_matrices(atom, n: int, dim_out: int) -> list:
    """The K_j of `comb_shells` as dense dim_out x n matrices."""
    mats = []
    for shell in comb_shells(atom, n, dim_out):
        k = np.zeros((dim_out, n))
        for row, col, w in shell:
            k[row, col] = w
        mats.append(k)
    return mats


class TestToeplitzKernel:
    """The factorised GEMM kernel against the operator sum it replaces."""

    ATOMS = [Amplifier(1.0), Amplifier(1.5), Amplifier(2.0), Amplifier(7.3),
             Attenuator(0.0), Attenuator(0.13), Attenuator(0.5), Attenuator(0.9),
             Attenuator(1.0)]

    @pytest.mark.parametrize("atom", ATOMS, ids=repr)
    @pytest.mark.parametrize("dim", [1, 5, 12])
    def test_matches_the_kraus_sum(self, atom, dim):
        rng = np.random.default_rng(dim)
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        if isinstance(atom, Amplifier):
            for dim_out in (dim + 6, max(1, dim - 3)):  # grown, and cropped
                out = amplifier_apply(atom.kappa, x, dim_out=dim_out)
                assert_allclose(out.matrix, kraus_sum(atom, x, dim_out), rtol=0, atol=1e-14)
        else:
            out = attenuator_apply(atom.transmissivity, x)
            assert_allclose(out.matrix, kraus_sum(atom, x, dim), rtol=0, atol=1e-14)

    # the exact edge atoms are closed forms that never reach the factors
    @pytest.mark.parametrize("atom", [a for a in ATOMS if a not in (
        Amplifier(1.0), Attenuator(0.0), Attenuator(1.0))], ids=repr)
    def test_factors_give_the_shell_weight_products(self, atom):
        dim_in, dim_out = 24, 60
        log_b, log_c, log_a, rising = channels._toeplitz_factors(atom, dim_in, dim_out)
        assert rising == isinstance(atom, Amplifier)
        for shell in comb_shells(atom, dim_in, dim_out):
            p, q, w = map(np.array, zip(*shell))  # consecutive levels
            for e in range(w.size):
                k = w.size - e
                factored = np.exp(log_a[p[:k]] + log_a[p[:k] + e] + log_b[np.abs(p[:k] - q[:k])]
                                  + log_c[q[:k]] + log_c[q[:k] + e])
                assert_allclose(factored, w[:k] * w[e:], rtol=1e-13, atol=0)

    @staticmethod
    def hermitian_state(dim: int) -> np.ndarray:
        rho = random_density(dim, rank=3, support=dim, rng=2).matrix
        return 0.5 * (rho + rho.conj().T)  # exactly Hermitian

    def assert_sound(self, out: np.ndarray, rho: np.ndarray):
        assert np.all(np.isfinite(out))
        assert np.array_equal(out, out.conj().T)
        assert abs(np.trace(out) - np.trace(rho)) <= 1e-12

    def test_attenuator_stays_finite_over_many_tiles(self):
        # With one slope for all 1300 levels the largest factor would reach
        # e^642; the per-tile slopes keep every factor below e^60.
        rho = self.hermitian_state(1300)
        self.assert_sound(attenuator_apply(0.5, rho).matrix, rho)

    def test_amplifier_finite_where_one_slope_overflows(self, monkeypatch):
        # A 600-level state grows to 1515 levels, where one slope for the
        # whole matrix overflows.
        rho = self.hermitian_state(600)
        out = amplifier_apply(2.0, rho).matrix
        assert out.shape == (1515, 1515)
        self.assert_sound(out, rho)
        monkeypatch.setattr(channels, "_TILE", 1 << 20)  # one tile, one slope
        with np.errstate(over="ignore", invalid="ignore"):
            one_slope = channels._atom_kernel(Amplifier(2.0), rho, 1515)
        assert not np.all(np.isfinite(one_slope))


class TestKrausSet:
    def test_completeness_exact(self):
        for lam in (0.0, 0.25, 0.5, 1.0):
            ks = attenuator_kraus(lam, 24)
            total = sum(k.conj().T @ k for k in ks)
            assert_allclose(total, np.eye(24), atol=1e-12)
            assert ks.completeness_residual <= 1e-10

    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("dim", [1, 2, 16, 64])
    def test_residual_is_the_dense_sum_bit_for_bit(self, lam, dim):
        # the weights' squares, summed in ascending j, are what the GEMMs give
        ks = attenuator_kraus(lam, dim)
        total = sum(k.conj().T @ k for k in ks)
        low = max(1, 3 * dim // 4)
        dense = float(np.max(np.abs(total[:low, :low] - np.eye(dim)[:low, :low])))
        assert ks.completeness_residual == dense

    def test_stack_over_the_budget_raises(self, monkeypatch):
        # dim complex dim x dim matrices, 16 dim^3 bytes
        monkeypatch.setattr(fock, "DENSE_BUDGET_BYTES", 16 * 12**3 - 1)
        with pytest.raises(BudgetError) as info:
            attenuator_kraus(0.5, 12)
        assert info.value.required_bytes == 16 * 12**3
        monkeypatch.setattr(fock, "DENSE_BUDGET_BYTES", 16 * 12**3)
        assert len(attenuator_kraus(0.5, 12).matrices) == 12

    @pytest.mark.parametrize("dim", [0, 8.0])
    def test_dim_must_be_a_positive_integer(self, dim):
        with pytest.raises(InvalidDimensionError, match="positive integer"):
            attenuator_kraus(0.5, dim)

    def test_unit_transmissivity_single_identity(self):
        ks = attenuator_kraus(1.0, 8)
        assert len(ks.matrices) == 1
        assert_allclose(ks.matrices[0], np.eye(8), atol=0)

    def test_kraus_action_matches_kernel(self):
        rho = random_density(16, rank=3, rng=9)
        ks = attenuator_kraus(0.35, 16)
        summed = sum(k @ rho.matrix @ k.conj().T for k in ks)
        direct = attenuator_apply(0.35, rho)
        assert_allclose(summed, direct.matrix, atol=1e-12)

    def test_kraus_on_coherent(self):
        ks = attenuator_kraus(0.5, 32)
        rho = coherent_state(1.0, 32)[0]
        summed = sum(k @ rho.matrix @ k.conj().T for k in ks)
        expected = coherent_state(1.0 / math.sqrt(2.0), 32)[0]
        assert_allclose(summed, expected.matrix, atol=1e-8)


class TestDilations:
    @pytest.mark.parametrize("kappa", [1.5, 2.0])
    def test_amplifier_oracle_equivalence(self, kappa):
        for name, state in battery(40):
            kernel = amplifier_apply(kappa, state)
            dilated = amplifier_dilated(kappa, state.op if hasattr(state, "op") else state)
            assert trace_distance(kernel, dilated) < 1e-6, name

    @pytest.mark.parametrize("lam", [0.7, 0.5])
    def test_attenuator_oracle_equivalence(self, lam):
        for name, state in battery(40):
            kernel = attenuator_apply(lam, state)
            dilated = attenuator_dilated(lam, state.op if hasattr(state, "op") else state)
            assert trace_distance(kernel, dilated) < 1e-6, name

    def test_identity_gains(self):
        rho = random_density(10, rank=2, rng=13)
        amp = amplifier_dilated(1.0, rho.op)
        att = attenuator_dilated(1.0, rho.op)
        assert trace_distance(crop(amp, 10), rho) < 1e-10
        assert trace_distance(att, rho) < 1e-10

    def test_amplified_vacuum_thermal(self):
        out = amplifier_dilated(2.0, fock_state(0, 4).op)
        expected = thermal_state(1.0, out.dim)
        assert trace_distance(out, expected) < 1e-6

    def test_amplified_coherent_is_displaced_thermal(self):
        out = amplifier_dilated(2.0, coherent_state(0.8, 24)[0].op)
        d = displacement_matrix(math.sqrt(2.0) * 0.8, out.dim).matrix
        expected = d @ thermal_state(1.0, out.dim).matrix @ d.conj().T
        assert trace_distance(out, expected) < 1e-6

    def test_attenuated_thermal(self):
        out = attenuator_dilated(0.5, thermal_state(1.0, 40))
        assert trace_distance(out, thermal_state(0.5, 40)) < 1e-8

    def test_ancilla_tail_error(self):
        # The truncated register evolution is unitary, so no trace goes
        # missing; what shows the cut is the wave it stops.
        with pytest.raises(AncillaTailError):
            amplifier_dilated(2.0, coherent_state(1.0, 16)[0].op, anc_dim=3)

    def test_ancilla_cut_bounds_the_error_not_the_top_population(self):
        # The top level holds 6.3e-9 here, under the 1e-8 tolerance, yet
        # the output sits 1.8e-8 from the kernel.
        with pytest.raises(AncillaTailError):
            amplifier_dilated(2.0, random_density(40, 3, rng=1).op, anc_dim=100)

    @pytest.mark.parametrize("n", range(9))
    def test_ancilla_with_linear_headroom_passes(self, n):
        # 4(n+1)+48 ancilla levels hold the amplified Fock n at dim 64.
        state = fock_state(n, 64)
        dilated = amplifier_dilated(2.0, state, anc_dim=4 * (n + 1) + 48)
        assert trace_distance(amplifier_apply(2.0, state), dilated) < 1e-14

    def test_ancilla_over_the_budget_raises_before_allocating(self):
        # One live level on 9000 ancilla levels: a 9000-level output register.
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError) as info:
                amplifier_dilated(2.0, fock_state(0, 4).op, anc_dim=9000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.required_bytes == 16 * 9000**2
        assert peak < 1e6

    def test_unit_gain_keeps_the_live_block(self):
        # At kappa = 1 nothing moves, so registers of the live block are exact.
        rho = random_density(40, 3, support=10, rng=2)
        out = amplifier_dilated(1.0, rho.op)
        assert out.dim == 10
        assert trace_distance(out, rho) < 1e-14

    def test_default_ancilla_holds_a_wide_random_state(self):
        # 40 live levels at kappa = 2: the ancilla must grow with the input.
        rho = random_density(40, 3, rng=1)
        kernel = amplifier_apply(2.0, rho)
        dilated = amplifier_dilated(2.0, rho.op)
        assert dilated.dim == kernel.dim
        assert trace_distance(kernel, dilated) < 1e-12


class TestDilationsAgainstDenseRegister:
    """The per-chain exponentials against expm of the literal two-mode
    generator on a small sys x anc register, vacuum ancilla traced out.
    SYS = LIVE + ANC holds every squeezer chain of ANC ancilla levels."""

    LIVE, ANC = 6, 12
    SYS = LIVE + ANC

    def register_image(self, generator, rho: np.ndarray) -> np.ndarray:
        a_sys = np.diag(np.sqrt(np.arange(1.0, self.SYS)), k=1)
        a_anc = np.diag(np.sqrt(np.arange(1.0, self.ANC)), k=1)
        a_s, a_a = np.kron(a_sys, np.eye(self.ANC)), np.kron(np.eye(self.SYS), a_anc)
        u = scipy.linalg.expm(generator(a_s, a_a))
        cols = u[:, ::self.ANC][:, :rho.shape[0]]  # U|m,0>
        v = cols.reshape(self.SYS, self.ANC, rho.shape[0])
        return np.einsum("sam,mn,zan->sz", v, rho, v.conj())

    def test_squeezer(self):
        rho = random_density(self.LIVE, rank=2, rng=21).matrix
        r = math.acosh(math.sqrt(1.5))
        expected = self.register_image(lambda s, a: r * (s.T @ a.T - s @ a), rho)
        # This ancilla cuts every chain with population left; the reference
        # is the same truncated evolution, so the chains are summed without
        # the cut check, as attenuator_dilated sums its own.
        out = channels._dilated_action(lambda n, k: r * np.sqrt((n + 1.0) * (k + 1.0)), 1,
                                       rho, self.ANC, math.inf, "squeezer")
        assert out.shape == (self.SYS - 1,) * 2
        assert embedded_max_diff(TruncatedOperator(out), TruncatedOperator(expected)) < 1e-13

    def test_beamsplitter(self):
        rho = random_density(self.LIVE, rank=2, rng=21).matrix
        theta = math.acos(math.sqrt(0.3))
        expected = self.register_image(lambda s, a: theta * (s.T @ a - s @ a.T), rho)
        out = attenuator_dilated(0.3, rho)
        assert out.dim == self.LIVE
        assert embedded_max_diff(out, TruncatedOperator(expected)) < 1e-13


class TestApply:
    def test_smoothed_vacuum_is_thermal_half(self):
        out = apply(smoothing_channel(), fock_state(0, 8))
        expected = thermal_state(0.5, out.dim)
        assert trace_distance(out, expected) < 1e-7

    def test_smoothed_parity_is_coherent(self):
        # High levels of the truncated image are garbage (the true operator
        # has support beyond any truncation), but they are nearly orthogonal
        # to the coherent target, so fidelity is still the clean probe.
        par = displaced_parity(0.7, 120)
        out = apply(smoothing_channel(), par)
        target = coherent_state(0.7, out.dim)[0]
        assert fidelity(out, target) >= 1.0 - 1e-7

    def test_additive_noise_matches_double_smoothing(self):
        rho = random_density(12, rank=3, support=10, rng=3)
        noisy = apply(AdditiveNoise(1.0), rho)
        c = smoothing_channel()
        twice = apply(Compose((c, c)), rho)
        assert embedded_max_diff(noisy, twice) < 1e-8

    def test_additive_noise_photon_law(self):
        for noise in (0.0, 0.5, 1.0):
            rho = random_density(12, rank=3, support=10, rng=3)
            out = apply(AdditiveNoise(noise), rho)
            assert mean_photon(out) == pytest.approx(mean_photon(rho) + noise, abs=1e-9)

    def test_smoothing_photon_law(self):
        for _, state in battery(40):
            out = apply(smoothing_channel(), state)
            expected = mean_photon(state) + 0.5
            assert mean_photon(out) == pytest.approx(expected, abs=1e-9)

    def test_compose_right_to_left(self):
        # Attenuator first, then amplifier, is not the same map as the
        # reverse order; check the order actually dispatched.
        rho = fock_state(1, 16)
        spec = Compose((Amplifier(2.0), Attenuator(0.5)))
        out = apply(spec, rho)
        direct = amplifier_apply(2.0, attenuator_apply(0.5, rho))
        assert embedded_max_diff(out, direct) < 1e-12

    def test_apply_dispatches_inverse(self):
        rho = random_density(10, rank=2, support=8, rng=17)
        image = attenuator_apply(0.6, rho)
        back = apply(Inverse(Attenuator(0.6)), image)
        assert trace_distance(back, rho) < 1e-4

    def test_rejects_non_spec(self):
        with pytest.raises(ValidationError):
            apply("amplifier", fock_state(0, 4))

    def test_cptp_on_battery(self):
        specs = [smoothing_channel(), AdditiveNoise(0.5), Amplifier(1.5),
                 Attenuator(0.7)]
        for spec in specs:
            for name, state in battery(40):
                out = apply(spec, state)
                mat = out.matrix
                assert np.max(np.abs(mat - mat.conj().T)) < 1e-10, name
                assert abs(np.trace(mat).real - 1.0) < 1e-7, name
                assert np.min(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))) > -1e-8, name


class TestCoherentProjection:
    @pytest.mark.parametrize("state_key", ["vacuum", "fock2", "coherent", "random"])
    def test_three_routes_agree(self, state_key):
        state = dict(battery(40))[state_key]
        results = [coherent_projection(state, route)
                   for route in ("compose", "reversed", "projection")]
        for i in range(3):
            for k in range(i + 1, 3):
                assert trace_distance(results[i], results[k]) < 1e-6

    def test_vacuum_routes_give_thermal_one(self):
        for route in ("compose", "reversed", "projection"):
            out = coherent_projection(fock_state(0, 8), route)
            assert trace_distance(out, thermal_state(1.0, out.dim)) < 1e-6

    def test_projection_route_preserves_trace(self):
        out = coherent_projection(coherent_state(1.0, 24)[0], "projection")
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-6

    def test_unknown_route_rejected(self):
        with pytest.raises(ValidationError):
            coherent_projection(fock_state(0, 4), "spiral")

    @pytest.mark.parametrize("dim", [1, 2, 5, 12, 40])
    def test_projection_matches_compose_on_non_hermitian(self, dim):
        # The quadrature is exact on the truncated supports, so both routes
        # agree to rounding wherever both represent the image.
        rng = np.random.default_rng(dim)
        x = TruncatedOperator(rng.normal(size=(dim, dim))
                              + 1j * rng.normal(size=(dim, dim)))
        proj = coherent_projection(x, "projection")
        comp = coherent_projection(x, "compose")
        n = min(proj.dim, comp.dim)
        assert np.max(np.abs(proj.matrix[:n, :n] - comp.matrix[:n, :n])) <= 1e-12

    @pytest.mark.parametrize("n", range(4))
    def test_projection_is_exact_on_every_level(self, n):
        # <p|C^2(|n><n|)|p> = binom(n+p, p) / 2^(n+p+1); an exact rule meets
        # it to rounding even on the top levels, where it is ~1e-12.
        out = coherent_projection(fock_state(n, 8), "projection").matrix
        p = np.arange(out.shape[0])
        exact = np.array([math.comb(n + k, k) for k in p]) / 2.0 ** (n + p + 1)
        assert_allclose(np.diagonal(out), exact, rtol=1e-12, atol=0.0)
        assert np.max(np.abs(out - np.diag(np.diagonal(out)))) <= 1e-15

    @pytest.mark.parametrize("index", range(4, 10))
    def test_projection_matches_compose_on_battery(self, index):
        # The Fock members (indices 0-3) differ by the compose route's own
        # truncation, ~1e-12; every other battery state agrees to rounding.
        state = default_battery(64)[index]
        proj = coherent_projection(state, "projection")
        assert trace_distance(proj, coherent_projection(state, "compose")) <= 1e-13

    def test_projection_never_reads_the_channel_kernels(self, monkeypatch):
        state = default_battery(64)[7]
        expected = coherent_projection(state, "compose")

        def forbidden(*args, **kwargs):
            raise AssertionError("the projection route must stay independent")

        for name in ("_toeplitz_factors", "_toeplitz_apply", "_transfer_blocks"):
            monkeypatch.setattr(channels, name, forbidden)
        out = coherent_projection(state, "projection")
        assert trace_distance(out, expected) <= 1e-13


class TestParityPipeline:
    """Smoothing the displaced parity operator at a generous construction dim.

    The amplifier output is cropped back to the construction dim at each
    step: levels at and above the input dim are contaminated by the
    operator's missing tail, and cropping removes exactly that region.
    """

    WORK = 240
    WINDOW = 64

    def smooth_cropped(self, op):
        step = amplifier_apply(2.0, op, dim_out=self.WORK)
        return attenuator_apply(0.5, step)

    @pytest.mark.parametrize("alpha", [0.0, 0.5 + 0.2j, 1.5])
    def test_single_smoothing_gives_coherent_state(self, alpha):
        par = displaced_parity(alpha, self.WORK)
        out = crop(self.smooth_cropped(par), self.WINDOW)
        target = coherent_state(alpha, self.WINDOW)[0]
        assert fidelity(out, target) >= 1.0 - 1e-7
        assert trace_distance(out, target) < 1e-8

    @pytest.mark.parametrize("alpha", [0.0, 0.5 + 0.2j, 1.5])
    def test_double_smoothing_gives_displaced_thermal(self, alpha):
        par = displaced_parity(alpha, self.WORK)
        out = crop(self.smooth_cropped(self.smooth_cropped(par)), self.WINDOW)
        d = displacement_matrix(alpha, self.WINDOW).matrix
        target = d @ thermal_state(0.5, self.WINDOW).matrix @ d.conj().T
        assert trace_distance(out, target) < 1e-6

    def test_amplifier_alone_gives_scaled_coherent(self):
        alpha = 0.5 + 0.2j
        par = displaced_parity(alpha, self.WORK)
        step = crop(amplifier_apply(2.0, par, dim_out=self.WORK), self.WINDOW)
        target = coherent_state(math.sqrt(2.0) * alpha, self.WINDOW)[0]
        assert trace_distance(step, target) < 1e-8


class TestSuperoperator:
    def test_identity_specs(self):
        for spec in (Amplifier(1.0), Attenuator(1.0)):
            s = superoperator_of(spec, 6)
            assert_allclose(s.matrix, np.eye(36), atol=1e-12)

    def test_dense_matrix_over_the_budget_raises(self):
        # 16 * 91^4 bytes = 1.10 GB, just over; the blocks themselves are small.
        s = superoperator_of(Attenuator(0.5), 91)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError) as info:
                s.matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.required_bytes == 16 * 91**4
        assert peak < 1e6

    @pytest.mark.parametrize("dim", [512, 100_000])
    def test_transfer_blocks_over_the_budget_raise(self, dim):
        # The zero-padded block, U^T and V stacks hold 3 * dim^3 reals and the
        # singular values dim^2: 3.2 GB at dim 512.
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError) as info:
                superoperator_of(smoothing_channel(), dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.required_bytes == 24 * dim**3 + 8 * dim**2
        assert peak < 1e6

    def test_inverse_over_the_transfer_budget_raises(self):
        # The dim-600 input is 5.8 MB; its transfer stacks would be 5.2 GB.
        with pytest.raises(BudgetError):
            inverse_apply(smoothing_channel(), fock_state(0, 600))

    def test_attenuator_matches_kernel(self):
        rho = random_density(16, rank=3, rng=9)
        s = superoperator_of(Attenuator(0.5), 16)
        assert_allclose(s.apply_matrix(rho.matrix),
                        attenuator_apply(0.5, rho).matrix, atol=1e-10)

    def test_amplifier_matches_cropped_kernel(self):
        rho = random_density(16, rank=3, support=8, rng=9)
        s = superoperator_of(Amplifier(2.0), 16)
        direct = amplifier_apply(2.0, rho.op, dim_out=16)
        assert_allclose(s.apply_matrix(rho.matrix), direct.matrix, atol=1e-10)

    @pytest.mark.parametrize("d", [1, 12])
    @pytest.mark.parametrize("spec", [Attenuator(0.0), Attenuator(1.0),
                                      Amplifier(1.0), Amplifier(2.0)])
    def test_special_atoms_match_kernels(self, spec, d):
        # The exact special cases, and the amplifier cropped to the input
        # dim, on a state and on a non-Hermitian input.
        rng = np.random.default_rng(41)
        inputs = [random_density(d, rank=1, rng=rng).matrix,
                  rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))]
        s = superoperator_of(spec, d)
        for x in inputs:
            if isinstance(spec, Amplifier):
                direct = amplifier_apply(spec.kappa, TruncatedOperator(x), dim_out=d)
            else:
                direct = attenuator_apply(spec.transmissivity, TruncatedOperator(x))
            assert_allclose(s.apply_matrix(x), direct.matrix, atol=1e-12)

    def test_compose_matches_sequential_kernels(self):
        rho = random_density(40, rank=3, support=10, rng=21)
        s = superoperator_of(smoothing_channel(), 40)
        via_super = s.apply_matrix(rho.matrix)
        direct = apply(smoothing_channel(), rho)
        assert np.max(np.abs(via_super - direct.matrix[:40, :40])) < 1e-8

    @pytest.mark.parametrize("spec", [
        Compose((Amplifier(2.0), Amplifier(2.0))),
        Compose((Amplifier(2.0), smoothing_channel())),
        Compose((Amplifier(2.0), AdditiveNoise(1.0))),
    ])
    def test_chain_with_two_amplifiers(self, spec):
        # The first amplifier grows the dim past d before the last one
        # runs, so the last stage reads input levels above its crop.
        d = 16
        rho = random_density(d, rank=3, support=6, rng=5)
        via_super = superoperator_of(spec, d).apply_matrix(rho.matrix)
        direct = crop(apply(spec, rho), d)
        assert np.max(np.abs(via_super - direct.matrix)) < 1e-12
        res = inverse_apply(spec, via_super)
        assert res.operator.dim == d
        assert res.residual < 1e-5

    def test_dual_unital_on_low_block(self):
        # Trace preservation of the cropped amplifier, read off the
        # superoperator rows: partial-tracing the output index must give
        # the identity where the crop leak is negligible.
        dim = 40
        s = superoperator_of(Amplifier(2.0), dim).matrix
        folded = s.reshape(dim, dim, dim, dim)
        row_sums = np.einsum("iipq->pq", folded)
        assert_allclose(row_sums[:4, :4], np.eye(dim)[:4, :4], atol=1e-8)

    # every atom of TestToeplitzKernel.ATOMS: attenuators with the library's
    # Kraus stack, amplifiers with the test-side math.comb one
    @pytest.mark.parametrize("spec,kraus", [
        (Attenuator(0.5), lambda d: attenuator_kraus(0.5, d).matrices),
        (Attenuator(0.0), lambda d: attenuator_kraus(0.0, d).matrices),
        (Amplifier(2.0), lambda d: kraus_matrices(Amplifier(2.0), d, d)),
        (Amplifier(1.0), lambda d: kraus_matrices(Amplifier(1.0), d, d)),
        (Amplifier(1.5), lambda d: kraus_matrices(Amplifier(1.5), d, d)),
        (Amplifier(7.3), lambda d: kraus_matrices(Amplifier(7.3), d, d)),
        (Attenuator(0.13), lambda d: attenuator_kraus(0.13, d).matrices),
        (Attenuator(0.9), lambda d: attenuator_kraus(0.9, d).matrices),
        (Attenuator(1.0), lambda d: attenuator_kraus(1.0, d).matrices),
    ])
    def test_atom_blocks_match_kraus_sum(self, spec, kraus):
        # The operator-sum form sum_K K (x) conj(K) is an independent
        # route to a single atom's superoperator.
        d = 12
        expected = sum(np.kron(k, k.conj()) for k in kraus(d))
        assert_allclose(superoperator_of(spec, d).matrix, expected, atol=1e-14)

    @pytest.mark.parametrize("spec", [Amplifier(1.0), Attenuator(1.0)], ids=repr)
    def test_identity_atoms_have_identity_blocks(self, spec):
        for block in superoperator_of(spec, 12).blocks:
            assert np.array_equal(block, np.eye(block.shape[0]))

    def test_inverse_has_no_superoperator(self):
        with pytest.raises(ValidationError):
            superoperator_of(Inverse(Attenuator(0.5)), 8)


class TestInverse:
    def test_identity_inverse(self):
        rho = random_density(12, rank=3, rng=23)
        res = inverse_apply(Amplifier(1.0), rho)
        assert trace_distance(res.operator, rho) < 1e-10

    def test_attenuator_round_trip_gaussian(self):
        # Coherent states live along well-conditioned directions of the
        # attenuator superoperator; the round trip is nearly exact.
        rho = coherent_state(0.8, 24)[0]
        image = attenuator_apply(0.6, rho)
        res = inverse_apply(Attenuator(0.6), image)
        assert res.residual < 1e-8
        assert trace_distance(res.operator, rho) < 1e-6

    def test_attenuator_round_trip_random(self):
        # The attenuator superoperator is non-normal with singular values
        # far below its diagonal; a rank-3 support-8 state overlaps the
        # sigma < 1e-5 directions, and the epsilon = 1e-10 Tikhonov filter
        # halves those components.  The recovery error is set by that
        # filter loss, not by the solver.
        rho = random_density(24, rank=3, support=8, rng=23)
        image = attenuator_apply(0.6, rho)
        res = inverse_apply(Attenuator(0.6), image)
        assert res.residual < 1e-6
        assert trace_distance(res.operator, rho) < 2e-2

    def test_smoothing_round_trip_vacuum(self):
        rho = fock_state(0, 40)
        image = apply(smoothing_channel(), rho)
        res = inverse_apply(smoothing_channel(), image)
        assert res.residual < 1e-8
        assert trace_distance(res.operator, rho) < 1e-4

    def test_smoothing_round_trip_fock(self):
        # The smoothing channel damps characteristic-function content at
        # |beta| by exp(-|beta|^2 / 2); the Fock-state structure near
        # |beta| ~ 4.8 sits at sigma ~ 1e-5, where the Tikhonov filter at
        # epsilon = 1e-10 keeps only half.  Measured recovery: 3.8e-4.
        rho = fock_state(1, 40)
        image = crop(apply(smoothing_channel(), rho), 40)
        res = inverse_apply(smoothing_channel(), image)
        assert res.residual < 1e-6
        assert trace_distance(res.operator, rho) < 1e-3

    def test_hermitian_preimage(self):
        rho = random_density(16, rank=3, support=8, rng=29)
        image = attenuator_apply(0.7, rho)
        res = inverse_apply(Attenuator(0.7), image)
        mat = res.operator.matrix
        assert np.max(np.abs(mat - mat.conj().T)) == 0.0

    def test_unsmoothed_coherent_state_is_not_a_state(self):
        # The preimage of a coherent state under the smoothing channel is
        # parity-like: sharply non-positive.
        image = coherent_state(0.7, 24)[0]
        res = inverse_apply(smoothing_channel(), image)
        floor = float(np.min(np.linalg.eigvalsh(res.operator.matrix)))
        assert floor < -1e-2
        assert res.residual < 1e-4

    def test_residual_bound_enforced(self):
        # A far-off-diagonal matrix unit is outside the attenuator's
        # numerically reachable image; the fit must be reported as bad.
        target = np.zeros((40, 40), dtype=complex)
        target[0, 39] = 1.0
        res = inverse_apply(Attenuator(0.3), TruncatedOperator(target))
        assert res.residual > 1e-4

    @pytest.mark.parametrize("spec", [Attenuator(0.6), smoothing_channel()])
    def test_matches_dense_tikhonov_minimiser(self, spec):
        # The least-squares solution of the stacked system [M; sqrt(eps) I]
        # is the Tikhonov minimiser, found here without the per-offset split.
        # The non-Hermitian input differs between offsets +e and -e.
        d, eps = 10, 1e-10
        rng = np.random.default_rng(37)
        m = superoperator_of(spec, d).matrix
        stacked = np.vstack([m, math.sqrt(eps) * np.eye(d * d)])
        inputs = [random_density(d, rank=3, rng=rng).matrix,
                  rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))]
        for x in inputs:
            rhs = np.concatenate([x.reshape(-1), np.zeros(d * d)])
            expected = np.linalg.lstsq(stacked, rhs, rcond=None)[0].reshape(d, d)
            got = inverse_apply(spec, TruncatedOperator(x), epsilon=eps).operator
            scale = float(np.max(np.abs(expected)))
            assert np.max(np.abs(got.matrix - expected)) <= 1e-9 * scale

    def test_cold_inverse_holds_no_dense_superoperator(self):
        # A dense dim-64 superoperator alone is 64^4 complex entries, 268 MB.
        channels._transfer_blocks.cache_clear()
        tracemalloc.start()
        try:
            inverse_apply(smoothing_channel(), fock_state(1, 64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 268e6 / 10

    def test_epsilon_validated(self):
        with pytest.raises(ValidationError):
            inverse_apply(Attenuator(0.5), fock_state(0, 4), epsilon=0.0)


def per_offset_reference(spec, x, epsilon=None):
    """The channel's image of x (epsilon None) or its Tikhonov preimage, one
    diagonal offset at a time from the blocks and their SVDs, with the
    Hermitian projection inverse_apply makes for a Hermitian x."""
    d = x.shape[0]
    blocks = superoperator_of(spec, d).blocks
    out = np.zeros((d, d), dtype=np.complex128)
    for offset in range(1 - d, d):
        block, diag = blocks[abs(offset)], np.diagonal(x, offset)
        if epsilon is None:
            image = block @ diag
        else:
            u, s, vt = np.linalg.svd(block)
            image = vt.T @ (s / (s * s + epsilon) * (u.T @ diag))
        i = np.arange(d - abs(offset))
        out[i + max(0, -offset), i + max(0, offset)] = image
    hermitian = np.max(np.abs(x - x.conj().T)) <= 1e-10 * max(1.0, np.max(np.abs(x)))
    if epsilon is not None and hermitian:
        out = 0.5 * (out + out.conj().T)
    return out


class TestBatchedOffsets:
    """apply_matrix and inverse_apply run every offset in one matmul per
    sign of e; the per-offset reference loops over the offsets instead."""

    @staticmethod
    def inputs(d):
        rng = np.random.default_rng(d)
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return {"hermitian": 0.5 * (z + z.conj().T),
                "state": random_density(d, rank=min(3, d), rng=rng).matrix,
                "complex": rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))}

    @pytest.mark.parametrize("d", [1, 2, 5, 40])
    @pytest.mark.parametrize("spec", [smoothing_channel(), Attenuator(0.3), Amplifier(1.5)],
                             ids=repr)
    def test_apply_matrix_matches_per_offset_reference(self, spec, d):
        s = superoperator_of(spec, d)
        for name, x in self.inputs(d).items():
            got = s.apply_matrix(x)
            # the blocks are non-negative, so this bounds every sum's terms
            scale = float(np.max(per_offset_reference(spec, np.abs(x)).real))
            assert np.max(np.abs(got - per_offset_reference(spec, x))) <= 1e-15 * scale, name
        hermitian = s.apply_matrix(self.inputs(d)["hermitian"])
        assert np.array_equal(hermitian, hermitian.conj().T)

    @pytest.mark.parametrize("epsilon", [1e-6, 1e-10])
    @pytest.mark.parametrize("d", [1, 2, 5, 40])
    def test_inverse_matches_per_offset_reference(self, d, epsilon):
        spec = smoothing_channel()
        for name, x in self.inputs(d).items():
            got = inverse_apply(spec, TruncatedOperator(x), epsilon=epsilon).operator.matrix
            expected = per_offset_reference(spec, x, epsilon)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected)), name
            if name == "hermitian":
                assert np.array_equal(got, got.conj().T)

    def test_apply_matrix_refuses_a_wrong_or_non_finite_matrix(self):
        s = superoperator_of(smoothing_channel(), 4)
        with pytest.raises(ValidationError):
            s.apply_matrix(np.eye(5))
        bad = np.eye(4, dtype=complex)
        bad[3, 0] = np.nan  # read past the edge of offset 1's diagonal
        with pytest.raises(ValidationError):
            s.apply_matrix(bad)


class TestDiagnostics:
    def test_keys_and_values(self):
        rho = random_density(16, rank=3, rng=31)
        out = attenuator_apply(0.5, rho)
        diag = channel_diagnostics(rho, out)
        assert diag["trace_deficit"] < 1e-12
        assert diag["psd_floor_out"] > -1e-10
        assert diag["mean_photon_out"] == pytest.approx(
            0.5 * diag["mean_photon_in"], abs=1e-10)
        assert diag["hermiticity_defect_out"] < 1e-12
