"""Tests for grid distributions.

The Wigner routes are independent by construction (tridiagonal-exponential
parity kernel vs Hermite-Gauss grid vs characteristic-function quadrature)
and are cross-checked here; number-state closed forms pin them absolutely.
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import eval_laguerre

from quasiphase import analysis, fock
from quasiphase import phasespace as ps
from quasiphase.errors import (BudgetError, GridTooSmallError, SingularPError,
                               ValidationError)

DESK = ps.PhaseGrid(half_extent=5.0, spacing=0.05)


def wigner_fock_oracle(n, alphas):
    y4 = 4.0 * np.abs(alphas) ** 2
    return 2.0 * (-1) ** n * np.exp(-0.5 * y4) * eval_laguerre(n, y4)


def husimi_fock_oracle(n, alphas):
    y = np.abs(alphas) ** 2
    return np.exp(-y) * y**n / math.factorial(n)


class TestPhaseGrid:
    def test_points_exact_division(self):
        assert DESK.points_per_axis == 201

    def test_points_inexact_division_floors(self):
        grid = ps.PhaseGrid(half_extent=1.0, spacing=0.3)
        assert grid.points_per_axis == 7
        # centred: the 0.2 remainder of 2R/h = 6.67 steps splits 0.1 a side
        assert grid.axis_offsets() == pytest.approx([-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9])

    @pytest.mark.parametrize("extent,step", [(5.0, 0.05), (6.25, 0.05), (5.0, 0.1)])
    def test_centred_offsets_are_antisymmetric(self, extent, step):
        # R/h = 100, 125 and 50: the offsets are whole steps either side of 0
        off = ps.PhaseGrid(half_extent=extent, spacing=step).axis_offsets()
        assert np.array_equal(off, -off[::-1])

    def test_lattice_layout(self):
        grid = ps.PhaseGrid(center=1 + 2j, half_extent=1.0, spacing=0.5)
        al = grid.alphas()
        assert al.shape == (5, 5)
        assert al[0, 0] == pytest.approx(1 + 2j - 1 - 1j)
        assert al[3, 1] == pytest.approx(1 + 2j + 0.5 - 0.5j)

    def test_masks(self):
        grid = ps.PhaseGrid(half_extent=1.0, spacing=0.5)
        inner = grid.interior_mask(0.5)
        assert inner.sum() == 9
        edge = grid.boundary_mask()
        assert edge.sum() == 16

    @pytest.mark.parametrize("kwargs", [
        {"spacing": 0.0}, {"spacing": -1.0},
        {"half_extent": 0.01, "spacing": 0.05},
        {"half_extent": math.inf}, {"half_extent": math.nan},
        {"spacing": math.inf}, {"spacing": math.nan},
        {"center": complex(math.inf, 0.0)}, {"center": complex(0.0, math.nan)},
    ])
    def test_rejects_bad_geometry(self, kwargs):
        with pytest.raises(ValidationError):
            ps.PhaseGrid(**kwargs)

    def test_a_lattice_past_the_budget_is_only_geometry(self):
        # the routes that sample it check their own arrays (TestGridBudget)
        assert ps.PhaseGrid(half_extent=1e4, spacing=1e-3).points_per_axis == 20_000_001

    def test_overflowing_lattice_raises_validation_error(self):
        # 2R/h is inf here, so the lattice size cannot become an int
        with pytest.raises(ValidationError, match="2R/h must be finite"):
            ps.PhaseGrid(half_extent=1e300, spacing=1e-300)


def _refusal(call) -> tuple:
    """The BudgetError `call` raises, and the traced peak until it did."""
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError) as info:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return info.value, peak


class TestGridBudget:
    """Each grid route checks what it holds per lattice point against the
    dense budget before it allocates anything of lattice size."""

    # 6001 points a side: 16 bytes a point fit the budget, no route's arrays do
    LOOSE = ps.PhaseGrid(half_extent=3.0, spacing=0.001)

    def test_a_fine_beta_grid_serves_the_quadrature(self):
        # 10001 points a side, but the quadrature holds only its axes
        grid = ps.PhaseGrid(half_extent=5.0, spacing=0.001)
        state = fock.fock_state(1, 32)
        got = ps.w_char_at(state, 0.5 + 0.2j, grid)
        assert got == pytest.approx(ps.w_at(state, 0.5 + 0.2j), abs=1e-5)

    @pytest.mark.parametrize("kind,per_point", [("Q", 152), ("P", 48), ("W", 40)])
    def test_each_sampler_refuses_before_allocating(self, kind, per_point):
        state = fock.thermal_state(0.5, 32)
        error, peak = _refusal(lambda: ps.sample(state, kind, self.LOOSE))
        n = self.LOOSE.points_per_axis
        assert error.required_bytes == per_point * n * n
        assert peak < 2**20

    def test_a_batch_of_w_budgets_every_kept_sample(self, monkeypatch):
        states = [fock.fock_state(k, 8).matrix for k in range(3)]
        need = (8 * 3 + 32) * CENTRED.points_per_axis ** 2
        monkeypatch.setattr(fock, "DENSE_BUDGET_BYTES", need - 1)
        with pytest.raises(BudgetError) as info:
            ps.sample_wigner(states, CENTRED)
        assert info.value.required_bytes == need
        monkeypatch.setattr(fock, "DENSE_BUDGET_BYTES", need)
        assert len(ps.sample_wigner(states, CENTRED)) == 3

    @pytest.mark.parametrize("route,per_point", [
        (lambda d: ps.weierstrass(d, 0.5), 32),
        (ps.distribution_to_csv, 166),
    ], ids=["weierstrass", "csv"])
    def test_each_distribution_route_refuses_before_allocating(self, monkeypatch,
                                                               route, per_point):
        # 401 points a side: each route would hold several MB
        dist = ps.sample(fock.fock_state(0, 8), "Q", ps.PhaseGrid(half_extent=8.0, spacing=0.04))
        n = dist.grid.points_per_axis
        monkeypatch.setattr(fock, "DENSE_BUDGET_BYTES", per_point * n * n - 1)
        error, peak = _refusal(lambda: route(dist))
        assert error.required_bytes == per_point * n * n
        assert peak < 2**20


class TestDistributionType:
    def test_shape_must_match_grid(self):
        grid = ps.PhaseGrid(half_extent=1.0, spacing=0.5)
        with pytest.raises(ValidationError, match="shape"):
            ps.QuasiDistribution(grid=grid, kind="Q", values=np.zeros((3, 3)))

    def test_kind_checked(self):
        grid = ps.PhaseGrid(half_extent=1.0, spacing=0.5)
        with pytest.raises(ValidationError, match="kind"):
            ps.QuasiDistribution(grid=grid, kind="X", values=np.zeros((5, 5)))


class TestPointEvaluators:
    def test_husimi_vacuum_peak(self):
        assert ps.q_at(fock.fock_state(0, 16), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_husimi_fock_one(self):
        # e^-1 at unit intensity, 0 at the origin
        val = ps.q_at(fock.fock_state(1, 32), 1.0)
        assert val == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert ps.q_at(fock.fock_state(1, 32), 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_husimi_thermal_center(self):
        val = ps.q_at(fock.thermal_state(1.0, 48), 0.0)
        assert val == pytest.approx(0.5, abs=1e-10)

    def test_wigner_vacuum_peak(self):
        assert ps.w_at(fock.fock_state(0, 16), 0.0) == pytest.approx(2.0, abs=1e-10)

    def test_wigner_fock_one(self):
        assert ps.w_at(fock.fock_state(1, 32), 0.0) == pytest.approx(-2.0, abs=1e-9)
        # node of L_1(4 y) at y = 1/4
        assert ps.w_at(fock.fock_state(1, 32), 0.5) == pytest.approx(0.0, abs=1e-9)

    def test_quadrature_route_vacuum(self):
        grid = ps.PhaseGrid(half_extent=4.0, spacing=0.05)
        val = ps.w_char_at(fock.fock_state(0, 16), 0.0, grid)
        assert val == pytest.approx(2.0, abs=5e-3)

    def test_quadrature_route_agrees_with_parity_route(self):
        # support-8 states keep a visible characteristic tail; R=7.5 clears it
        grid = ps.PhaseGrid(half_extent=7.5, spacing=0.05)
        state = fock.random_density(32, rank=3, support=8, rng=3)
        for alpha in (0.0, 0.7, -0.4 + 0.9j, 1.5j):
            assert ps.w_char_at(state, alpha, grid) == pytest.approx(
                ps.w_at(state, alpha), abs=5e-3)

    @pytest.mark.parametrize("alpha", [math.pi / 0.05, 1e155, 1e155j, 0.5 * math.pi / 0.05])
    def test_quadrature_refuses_an_aliased_point(self, alpha):
        # the sum on spacing h is W made periodic with period pi/h: at pi/h
        # it returned the vacuum's peak 2 again, at 1e155 it returned -0.08
        grid = ps.PhaseGrid(half_extent=4.0, spacing=0.05)
        with pytest.raises(ValidationError, match=r"pi/\(2h\) = 31\.4159"):
            ps.w_char_at(fock.fock_state(0, 16), alpha, grid)

    def test_quadrature_below_the_alias_limit_still_answers(self):
        grid = ps.PhaseGrid(half_extent=4.0, spacing=0.05)
        val = ps.w_char_at(fock.fock_state(0, 16), 0.999 * 0.5 * math.pi / 0.05, grid)
        assert val == pytest.approx(0.0, abs=5e-3)

    def test_quadrature_peak_memory_is_axis_sized(self):
        # a 2001 x 2001 beta grid: one complex lattice alone would be 64 MB
        grid = ps.PhaseGrid(half_extent=5.0, spacing=0.005)
        state = fock.thermal_state(1.0, 32)
        tracemalloc.start()
        try:
            val = ps.w_char_at(state, 0.5 + 0.5j, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert val == pytest.approx(ps.w_at(state, 0.5 + 0.5j), abs=5e-3)

    def test_quadrature_route_boundary_guard(self):
        grid = ps.PhaseGrid(half_extent=2.0, spacing=0.05)
        with pytest.raises(GridTooSmallError):
            ps.w_char_at(fock.fock_state(0, 16), 0.0, grid)

    @pytest.mark.parametrize("evaluate", [
        lambda x, a: ps.q_at(x, a),
        lambda x, a: ps.w_at(x, a),
        lambda x, a: ps.w_char_at(x, a, ps.PhaseGrid(half_extent=4.0, spacing=0.1)),
    ], ids=["q_at", "w_at", "w_char_at"])
    @pytest.mark.parametrize("alpha", [math.inf, complex(0.0, math.nan)])
    def test_non_finite_point_raises(self, evaluate, alpha):
        with pytest.raises(ValidationError, match="must be finite"):
            evaluate(fock.fock_state(0, 16), alpha)

    def test_husimi_far_out_is_zero(self):
        # |alpha|^2 overflows to inf, so the vacuum amplitude is exp(-inf) = 0
        assert ps.q_at(fock.fock_state(0, 16), 1e200) == 0.0

    def test_thermal_p_values(self):
        assert ps.p_thermal_at(0.5, 0.0) == pytest.approx(2.0, abs=1e-12)
        assert ps.p_thermal_at(1.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)

    @pytest.mark.parametrize("nbar,alpha", [
        (math.nan, 0.3), (1.0, complex(math.nan, 0.0)), (-1.0, 0.3), (math.inf, 0.3),
    ], ids=["nan nbar", "nan point", "negative nbar", "infinite nbar"])
    def test_thermal_p_refuses_bad_input(self, nbar, alpha):
        # as thermal_state refuses the nbar and q_at, w_at and w_char_at the point
        with pytest.raises(ValidationError, match="must be finite"):
            ps.p_thermal_at(nbar, alpha)

    def test_thermal_p_far_out_is_zero(self):
        # |alpha|^2 overflows to inf, as in q_at, and P reads exp(-inf) = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ps.p_thermal_at(1.0, 1e200) == 0.0

    def test_thermal_p_delta_limit(self):
        with pytest.raises(SingularPError):
            ps.p_thermal_at(0.0, 0.3)


class TestRecognizeGaussianP:
    def test_thermal_recognized(self):
        form = ps.recognize_gaussian_p(fock.thermal_state(0.8, 48))
        assert form is not None
        assert form.nbar == pytest.approx(0.8, abs=1e-12)
        assert form.weight == pytest.approx(1.0, abs=1e-9)

    def test_vacuum_is_delta(self):
        form = ps.recognize_gaussian_p(fock.fock_state(0, 8))
        assert form is not None and form.nbar == 0.0

    @pytest.mark.parametrize("state", [
        fock.fock_state(1, 16),
        fock.coherent_state(0.7, 32)[0],
        fock.random_density(16, rank=2, support=5, rng=0),
    ])
    def test_non_thermal_not_recognized(self, state):
        assert ps.recognize_gaussian_p(state) is None


def _displacement_trace_oracle(mat, betas):
    """Tr[X D(beta)] point by point from the displacement matrices."""
    dim = mat.shape[0]
    return np.array([np.sum(mat * fock.displacement_matrix(b, dim).matrix.T)
                     for b in betas.ravel()]).reshape(betas.shape)


def _offsets_only(mat, offsets):
    keep = np.zeros(mat.shape, dtype=bool)
    for e in offsets:
        keep |= np.eye(mat.shape[0], k=e, dtype=bool)
    return np.where(keep, mat, 0.0)


_RNG = np.random.default_rng(11)
# non-Hermitian, so the upper and lower diagonal sums differ
NON_HERMITIAN = _RNG.normal(size=(20, 20)) + 1j * _RNG.normal(size=(20, 20))
CENTRED = ps.PhaseGrid(half_extent=1.5, spacing=0.25)


def _husimi_oracle(mat, alphas):
    """<alpha|X|alpha> point by point from the exact coherent amplitudes."""
    values = []
    for alpha in alphas.ravel():
        amps = fock.coherent_amplitudes(alpha, mat.shape[0])
        values.append(amps.conj() @ mat @ amps)
    return np.array(values).reshape(alphas.shape)


FOLD_CASES = pytest.mark.parametrize("mat,grid", [
    # off-centre: almost every |beta|^2 is distinct
    (NON_HERMITIAN, ps.PhaseGrid(center=0.37 - 0.21j, half_extent=1.3, spacing=0.13)),
    # centred: includes beta = 0 and many repeated radii
    (NON_HERMITIAN, CENTRED),
    # live offsets 0 and +-15 only, dead offsets in between
    (_offsets_only(NON_HERMITIAN, (0, 15, -15)), CENTRED),
], ids=["off_centre", "centred", "dead_offsets"])


class TestDisplacementTraceGrid:
    @FOLD_CASES
    @pytest.mark.parametrize("alpha", [0.0, 0.7 - 0.4j, 1.5j])
    def test_matches_per_point_displacement_oracle(self, mat, grid, alpha):
        # the axis-wise sum and its boundary ring against a lattice of
        # per-point traces, summed against the phase point by point
        betas = grid.alphas()
        chi = _displacement_trace_oracle(mat, betas)
        phase = np.exp(alpha * betas.conj() - np.conj(alpha) * betas)
        expected = np.sum(chi * phase) * grid.spacing**2 / math.pi
        value, edge = ps._char_quadrature(mat, complex(alpha), grid)
        assert abs(value - expected) < 1e-10
        assert abs(edge - np.max(np.abs(chi[grid.boundary_mask()]))) < 1e-10

    @FOLD_CASES
    def test_husimi_matches_per_point_coherent_oracle(self, mat, grid):
        alphas = grid.alphas()
        got = ps._harmonic_fold(mat, alphas)
        assert np.max(np.abs(got - _husimi_oracle(mat, alphas))) < 1e-12

    def test_radial_rows_over_the_budget_raise(self, monkeypatch):
        state = fock.coherent_state(0.5, 16)[0]
        ys = np.unique(np.abs(CENTRED.alphas()) ** 2).size
        rows = 8 * 16 * ys * 2  # the rows buffer and the amplitudes
        monkeypatch.setattr(fock, "DENSE_BUDGET_BYTES", rows - 1)
        with pytest.raises(BudgetError) as info:
            ps._harmonic_fold(state.matrix, CENTRED.alphas())
        assert info.value.required_bytes == rows

    def test_beta_grid_past_the_reach_raises(self, monkeypatch):
        # psi_0(Re beta) underflows past 2 W_REACH = 37.63
        monkeypatch.setattr(ps, "_mode_coefficients", _raise)
        betagrid = ps.PhaseGrid(center=37.5j, half_extent=0.5, spacing=0.25)
        with pytest.raises(ValidationError, match="up to 37.63"):
            ps.w_char_at(fock.fock_state(0, 16), 0.0, betagrid)

    def test_coherent_wigner_grid_matches_point_route(self):
        state, _ = fock.coherent_state(1.2 - 0.7j, 64)
        dist = ps.sample(state, "W", DESK)
        al = DESK.alphas()
        for idx in [(100, 100), (124, 86), (73, 12), (40, 150), (140, 95), (160, 60)]:
            assert dist.values[idx] == pytest.approx(ps.w_at(state, al[idx]), abs=1e-8)


class TestSample:
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_wigner_fock_closed_form(self, n):
        dist = ps.sample(fock.fock_state(n, 64), "W", DESK)
        assert np.max(np.abs(dist.values - wigner_fock_oracle(n, DESK.alphas()))) < 1e-10

    @pytest.mark.parametrize("n", [0, 2])
    def test_husimi_fock_closed_form(self, n):
        dist = ps.sample(fock.fock_state(n, 64), "Q", DESK)
        assert np.max(np.abs(dist.values - husimi_fock_oracle(n, DESK.alphas()))) < 1e-10

    def test_husimi_peak_and_bounds(self):
        dist = ps.sample(fock.fock_state(0, 32), "Q", DESK)
        peak = np.unravel_index(dist.values.argmax(), dist.values.shape)
        assert DESK.alphas()[peak] == pytest.approx(0.0)
        assert dist.values.max() == pytest.approx(1.0, abs=1e-12)
        assert dist.values.min() >= -1e-10

    def test_wigner_grid_certified_against_point_route(self):
        state = fock.random_density(48, rank=3, support=10, rng=9)
        dist = ps.sample(state, "W", DESK)
        al = DESK.alphas()
        for idx in [(0, 0), (100, 100), (35, 160), (73, 12), (200, 200), (140, 95)]:
            assert dist.values[idx] == pytest.approx(ps.w_at(state, al[idx]), abs=1e-8)

    def test_thermal_p_sampling_normalizes(self):
        dist = ps.sample(fock.thermal_state(1.0, 64), "P", DESK)
        assert ps.integrate(dist) == pytest.approx(1.0, abs=1e-4)
        assert dist.kind == "P"

    def test_p_of_number_state_is_singular(self):
        with pytest.raises(SingularPError):
            ps.sample(fock.fock_state(1, 16), "P", DESK)

    def test_p_of_vacuum_is_delta(self):
        with pytest.raises(SingularPError):
            ps.sample(fock.fock_state(0, 16), "P", DESK)

    def test_quadrature_invariant_catches_small_grid(self):
        tight = ps.PhaseGrid(half_extent=2.0, spacing=0.05)
        with pytest.raises(GridTooSmallError):
            ps.sample(fock.thermal_state(1.5, 64), "W", tight)

    def test_raw_operator_skips_density_invariants(self):
        op = fock.TruncatedOperator(2.0 * fock.fock_state(1, 24).matrix)
        tight = ps.PhaseGrid(half_extent=2.0, spacing=0.1)
        dist = ps.sample(op, "Q", tight)  # trace 2, small grid: no raise
        assert np.isfinite(dist.values).all()

    def test_non_hermitian_w_raises(self):
        op = fock.TruncatedOperator(NON_HERMITIAN)
        with pytest.raises(ValidationError, match="sampled W values carry imaginary part"):
            ps.sample(op, "W", CENTRED)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            ps.sample(fock.fock_state(0, 8), "R", DESK)


def _raise(*args, **kwargs):
    raise AssertionError("this route must not be reached")


class TestHermiteRoute:
    def test_blocks_stay_orthogonal(self):
        # the coupling step keeps B_312 orthogonal; the ladder step is off by 6e10
        block = next(itertools.islice(ps._beamsplitter_blocks(313), 312, None))
        assert block.shape == (313, 313)
        assert np.max(np.abs(block.T @ block - np.eye(313))) < 1e-13

    def test_battery_and_smoothed_images_match_the_point_route(self):
        shared = analysis._Shared(analysis.VerifyConfig())
        ops = [fock._as_operator(rho) for rho in shared.battery] + shared.smoothed
        grid = ps.PhaseGrid(center=0.37 - 0.21j, half_extent=1.3, spacing=0.13)
        alphas = grid.alphas()
        for op, dist in zip(ops, ps.sample_wigner(ops, grid)):
            for idx in [(0, 0), (10, 10), (3, 17), (20, 6)]:
                assert abs(dist.values[idx] - ps.w_at(op, alphas[idx])) < 1e-12

    def test_batch_matches_batches_of_one(self):
        ops = [fock.fock_state(1, 12).matrix, fock.coherent_state(0.8j, 40)[0].matrix]
        batch = ps.sample_wigner(ops, CENTRED)
        for op, dist in zip(ops, batch):
            assert_allclose(dist.values, ps.sample(op, "W", CENTRED).values,
                            rtol=0, atol=1e-15)

    def test_non_hermitian_operator_in_a_batch_raises(self):
        ops = [fock.fock_state(0, 4).matrix, fock.TruncatedOperator(NON_HERMITIAN)]
        with pytest.raises(ValidationError, match="sampled W values carry imaginary part"):
            ps.sample_wigner(ops, CENTRED)

    def test_coherent_state_at_centre_twelve(self):
        state = fock.coherent_state(12.0, 260)[0]
        grid = ps.PhaseGrid(center=12.0, half_extent=0.5, spacing=0.25)
        dist = ps.sample(state.op, "W", grid)
        exact = 2.0 * np.exp(-2.0 * np.abs(grid.alphas() - 12.0) ** 2)
        assert np.max(np.abs(dist.values - exact)) < 1e-12
        assert abs(dist.values[2, 2] - ps.w_at(state, 12.0)) < 1e-12

    @pytest.mark.parametrize("center,extent", [(20.0, 1.0), (19.0, 1.0), (18.35, 0.5),
                                               (18j, 1.0), (-18.85 + 1j, 0.05)])
    def test_grid_past_the_reach_raises(self, monkeypatch, center, extent):
        monkeypatch.setattr(ps, "_mode_coefficients", _raise)
        grid = ps.PhaseGrid(center=center, half_extent=extent, spacing=0.05)
        with pytest.raises(ValidationError, match="up to 18.82"):
            ps.sample(fock.coherent_state(0.5, 16)[0], "W", grid)

    def test_grid_at_the_reach_samples(self):
        grid = ps.PhaseGrid(center=18.3 - 18.3j, half_extent=0.5, spacing=0.25)
        dist = ps.sample(fock.fock_state(3, 8).matrix, "W", grid)
        assert ps.W_REACH == pytest.approx(18.816, abs=1e-3)
        assert np.array_equal(dist.values, np.zeros((5, 5)))

    def test_working_set_over_the_budget_raises(self, monkeypatch):
        ops = [fock.fock_state(15, 16).matrix, fock.fock_state(3, 16).matrix]
        dim, count, points = 16, 31, CENTRED.points_per_axis
        needed = 16 * 2 * (dim * dim + count * count) + 16 * count * points + 8 * dim * dim
        monkeypatch.setattr(fock, "DENSE_BUDGET_BYTES", needed - 1)
        with pytest.raises(BudgetError) as info:
            ps.sample_wigner(ops, CENTRED)
        assert info.value.required_bytes == needed
        monkeypatch.setattr(fock, "DENSE_BUDGET_BYTES", needed)
        assert len(ps.sample_wigner(ops, CENTRED)) == 2


_RADIAL = ("_radial_sums", "_harmonic_fold")
_HERMITE = ("_hermite_rows", "_mode_coefficients", "_beamsplitter_blocks")


class TestRouteIndependence:
    """Each evaluator matches its oracle with the other routes' helpers raising.

    Grid W and the characteristic function never read the radial kernel, and
    `w_char_at` never reaches the parity kernel, so criterion 10 compares two
    unshared routes; `w_at`, grid Q and `q_at` never read the Hermite route,
    so criterion 3 does too.
    """

    @pytest.mark.parametrize("evaluate,oracle,patched,tol", [
        (lambda x: ps.sample(x, "W", DESK).values,
         lambda: wigner_fock_oracle(1, DESK.alphas()), _RADIAL, 1e-10),
        (lambda x: ps.w_char_at(x, 0.3, DESK),
         lambda: wigner_fock_oracle(1, 0.3), _RADIAL + ("displaced_parity",), 5e-3),
        (lambda x: ps.w_at(x, 0.3), lambda: wigner_fock_oracle(1, 0.3), _HERMITE, 1e-9),
        (lambda x: ps.sample(x, "Q", DESK).values,
         lambda: husimi_fock_oracle(1, DESK.alphas()), _HERMITE, 1e-10),
        (lambda x: ps.q_at(x, 0.3), lambda: husimi_fock_oracle(1, 0.3), _HERMITE, 1e-12),
    ], ids=["grid_W", "w_char_at", "w_at", "grid_Q", "q_at"])
    def test_evaluator_avoids_the_other_routes(self, monkeypatch, evaluate, oracle,
                                               patched, tol):
        for name in patched:
            monkeypatch.setattr(ps, name, _raise)
        got = evaluate(fock.fock_state(1, 16))
        assert np.max(np.abs(got - oracle())) < tol


EVALUATORS = pytest.mark.parametrize("evaluate", [
    lambda x: ps.q_at(x, 0.3 - 0.2j),
    lambda x: ps.w_at(x, 0.3 - 0.2j),
    lambda x: ps.sample(x, "W", CENTRED).values[2, 5],
], ids=["q_at", "w_at", "sample"])


class TestOperatorInputs:
    @EVALUATORS
    def test_square_matrix_is_an_operator(self, evaluate):
        state = fock.random_density(8, rank=2, rng=1)
        assert evaluate(state.matrix) == evaluate(state.op)

    @EVALUATORS
    def test_non_square_matrix_raises(self, evaluate):
        with pytest.raises(ValidationError, match="square"):
            evaluate(np.zeros((2, 3)))


class TestWeierstrass:
    def test_half_step_takes_thermal_p_to_wigner(self):
        grid = ps.PhaseGrid(half_extent=6.0, spacing=0.05)
        dist = ps.sample(fock.thermal_state(1.0, 64), "P", grid)
        out = ps.weierstrass(dist, 0.5)
        ref = (2.0 / 3.0) * np.exp(-2.0 * np.abs(grid.alphas()) ** 2 / 3.0)
        assert np.max(np.abs(out.values - ref)) < 1e-10
        assert out.kind == "W"

    def test_half_step_takes_wigner_to_husimi(self):
        grid = ps.PhaseGrid(half_extent=6.0, spacing=0.05)
        dist = ps.sample(fock.fock_state(0, 16), "W", grid)
        out = ps.weierstrass(dist, 0.5)
        ref = ps.sample(fock.fock_state(0, 16), "Q", grid)
        assert np.max(np.abs(out.values - ref.values)) < 1e-6
        assert out.kind == "Q"

    def test_semigroup_two_half_steps_equal_one_full(self):
        grid = ps.PhaseGrid(half_extent=6.0, spacing=0.05)
        start = ps.sample(fock.thermal_state(1.0, 64), "P", grid)
        twice = ps.weierstrass(ps.weierstrass(start, 0.5), 0.5)
        once = ps.weierstrass(start, 1.0)
        inner = grid.interior_mask(2.0)
        assert np.max(np.abs(twice.values - once.values)[inner]) < 2e-4
        assert once.kind == "Q"

    def test_boundary_decay_guard(self):
        # thermal 1.5 is ~2e-6 at the R=5 boundary, above the 1e-8 gate
        dist = ps.sample(fock.thermal_state(1.5, 64), "W", DESK)
        with pytest.raises(GridTooSmallError):
            ps.weierstrass(dist, 0.5)

    def test_rejects_nonpositive_variance(self):
        dist = ps.sample(fock.fock_state(0, 8), "W", DESK)
        with pytest.raises(ValidationError):
            ps.weierstrass(dist, 0.0)

    def test_offrung_variance_keeps_kind(self):
        grid = ps.PhaseGrid(half_extent=6.0, spacing=0.05)
        dist = ps.sample(fock.fock_state(0, 8), "W", grid)
        assert ps.weierstrass(dist, 0.3).kind == "W"


class TestIntegralsAndNegativity:
    def test_husimi_integrates_to_trace(self):
        dist = ps.sample(fock.fock_state(0, 16), "Q", DESK)
        assert ps.integrate(dist) == pytest.approx(1.0, abs=1e-5)

    def test_wigner_integrates_to_trace(self):
        dist = ps.sample(fock.fock_state(1, 32), "W", DESK)
        assert ps.integrate(dist) == pytest.approx(1.0, abs=1e-4)

    def test_zero_distribution(self):
        grid = ps.PhaseGrid(half_extent=1.0, spacing=0.5)
        dist = ps.QuasiDistribution(grid=grid, kind="W", values=np.zeros((5, 5)))
        assert ps.integrate(dist) == 0.0
        rep = ps.negativity(dist)
        assert rep.min_value == 0.0 and rep.negative_volume == 0.0

    def test_fock_one_negativity(self):
        # negative lobe of 2 e^-2y (4y - 1) integrates to 2 e^-1/2 - 1;
        # the clipped integrand has a kink, so quadrature is O(h^2) here
        dist = ps.sample(fock.fock_state(1, 32), "W", DESK)
        rep = ps.negativity(dist)
        assert rep.min_value == pytest.approx(-2.0, abs=1e-9)
        assert rep.negative_volume == pytest.approx(2.0 * math.exp(-0.5) - 1.0, abs=5e-4)

    def test_husimi_never_negative(self):
        state = fock.random_density(32, rank=3, support=8, rng=4)
        rep = ps.negativity(ps.sample(state, "Q", DESK))
        assert rep.min_value >= -1e-10
        assert rep.negative_volume <= 1e-8

    def test_coherent_wigner_positive(self):
        state, _ = fock.coherent_state(0.9, 64)
        rep = ps.negativity(ps.sample(state, "W", DESK))
        assert rep.min_value >= -1e-10
        assert rep.negative_volume <= 1e-8


def _csv_by_rows(dist):
    """The original line-by-line export, kept as the byte-exact reference."""
    lines = ["re_alpha,im_alpha,value\n"]
    alphas = dist.grid.alphas()
    n = dist.grid.points_per_axis
    for j in range(n):
        for k in range(n):
            a = alphas[j, k]
            lines.append(f"{float(a.real)!r},{float(a.imag)!r},"
                         f"{float(dist.values[j, k])!r}\n")
    return "".join(lines)


# subnormal, signed zeros, huge and negative values
_AWKWARD_VALUES = [5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 0.0, 1e19,
                   -1e19, 1.7976931348623157e308, -0.1, 1 / 3, -2.5e-17]


class TestSerialization:
    def test_csv_layout_and_exact_floats(self):
        grid = ps.PhaseGrid(half_extent=0.5, spacing=0.5)
        # a raw operator skips the quadrature check this 3 x 3 grid would fail
        dist = ps.sample(fock.fock_state(0, 8).op, "Q", grid)
        text = ps.distribution_to_csv(dist)
        lines = text.strip().split("\n")
        assert lines[0] == "re_alpha,im_alpha,value"
        assert len(lines) == 1 + 9
        re0, im0, v0 = lines[1].split(",")
        assert float(re0) == -0.5 and float(im0) == -0.5
        assert float(v0) == dist.values[0, 0]

    @pytest.mark.parametrize("grid", [
        ps.PhaseGrid(),
        ps.PhaseGrid(center=0.3 - 1.7j, half_extent=1.0, spacing=0.1),
        ps.PhaseGrid(center=complex(-0.0, -0.0), half_extent=1.0, spacing=0.25),
        ps.PhaseGrid(center=complex(-0.0, 0.5), half_extent=1.0, spacing=0.3),
        ps.PhaseGrid(center=2.0 + 0.0j, half_extent=0.7, spacing=0.3),
    ])
    def test_csv_matches_line_by_line_export(self, grid):
        n = grid.points_per_axis
        rng = np.random.default_rng(n)
        values = rng.normal(size=n * n)
        values[:len(_AWKWARD_VALUES)] = _AWKWARD_VALUES
        rng.shuffle(values)
        dist = ps.QuasiDistribution(grid=grid, kind="W", values=values.reshape(n, n))
        assert ps.distribution_to_csv(dist) == _csv_by_rows(dist)
