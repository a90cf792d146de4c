"""Classicality certificates and the verification suite."""

import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quasiphase import analysis, channels, fock
from quasiphase.analysis import (
    CHECK_NAMES,
    VerifyConfig,
    classicality_check,
    classicality_report_to_json,
    default_battery,
    nonclassicality_profile,
    nonclassicality_score,
    psd_margin,
    report_to_json,
    report_to_text,
    verify_suite,
)
from quasiphase.channels import apply, inverse_apply, smoothing_channel
from quasiphase.errors import BudgetError, GridTooSmallError, ValidationError
from quasiphase.fock import (
    TruncatedOperator,
    coherent_state,
    crop,
    displaced_parity,
    fock_state,
    random_density,
    thermal_state,
)
from quasiphase.phasespace import integrate


def smoothed(rho):
    return apply(smoothing_channel(), rho)


class TestPsdMargin:
    def test_vacuum_margin_zero(self):
        assert psd_margin(fock_state(0, 16)) == pytest.approx(0.0, abs=1e-12)

    def test_parity_margin(self):
        # Displaced parity at the origin has spectrum {+2, -2}.
        assert psd_margin(displaced_parity(0.0, 24)) == pytest.approx(-2.0, abs=1e-10)

    def test_thermal_floor_is_geometric(self):
        margin = psd_margin(thermal_state(1.0, 32))
        assert margin == pytest.approx(2.0 ** -32, rel=1e-9)
        assert margin >= 0.0

    def test_rejects_non_hermitian(self):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 3] = 1.0
        with pytest.raises(ValidationError):
            psd_margin(TruncatedOperator(mat))


class TestClassicalityCheck:
    def test_smoothed_thermal_certifies(self):
        report = classicality_check(smoothed(thermal_state(1.0, 40)), 1)
        assert report.verdict == "CertifiedClassical"
        assert report.criterion == "WignerSufficient"
        assert report.min_eigenvalue_of_inverse >= -1e-8
        assert report.residual < 1e-6
        assert report.epsilon_used == 1e-10

    def test_coherent_state_preimage_is_parity_like(self):
        # The preimage of a coherent state is the displaced parity
        # operator: sharply non-positive, never certifiable.
        report = classicality_check(coherent_state(0.7, 40)[0], 1)
        assert report.verdict == "Inconclusive"
        assert report.min_eigenvalue_of_inverse < -1.9

    def test_smoothed_vacuum_is_inconclusive_at_pinned_bounds(self):
        # The preimage of the smoothed vacuum is the vacuum itself, which
        # sits exactly on the PSD boundary; the Tikhonov filter loss at
        # epsilon = 1e-10 perturbs its zero eigenvalues to ~ -6e-6, below
        # the -1e-8 certification bound.  Only preimages with spectral
        # slack (heated thermal states) certify at these settings.
        report = classicality_check(smoothed(fock_state(0, 40)), 1)
        assert report.verdict == "Inconclusive"
        assert -1e-4 < report.min_eigenvalue_of_inverse < -1e-8
        assert report.residual < 1e-8

    def test_double_smoothed_random_is_inconclusive(self):
        # Same filter-loss mechanism, twice over: a rank-3 support-10
        # state overlaps the poorly conditioned directions strongly and
        # its double preimage is visibly non-PSD.
        rho = random_density(40, rank=3, support=10, rng=5)
        report = classicality_check(smoothed(smoothed(rho)), 2)
        assert report.criterion == "PNegSufficient"
        assert report.verdict == "Inconclusive"
        assert report.min_eigenvalue_of_inverse < -1e-4

    def test_order_two_residual_uses_double_round_trip(self):
        # The second inversion amplifies the first one's filter loss by up
        # to 1/(2 sqrt(epsilon)), so even a strictly PSD thermal preimage
        # lands at margin ~ -2e-4 and order-2 certification is out of
        # reach at the pinned bounds.  The double-forward residual is the
        # part that must stay tiny.
        rho = thermal_state(1.0, 40)
        report = classicality_check(smoothed(smoothed(rho)), 2)
        assert report.criterion == "PNegSufficient"
        assert report.verdict == "Inconclusive"
        assert report.residual < 1e-6
        assert -1e-2 < report.min_eigenvalue_of_inverse < -1e-8

    def test_order_two_solves_twice_and_measures_once(self, monkeypatch):
        image = smoothed(thermal_state(0.8, 40))
        calls = {"solve": 0, "distance": 0}

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(analysis, "_preimage", counted("solve", analysis._preimage))
        monkeypatch.setattr(channels, "trace_distance",
                            counted("distance", channels.trace_distance))
        classicality_check(image, 2)
        assert calls == {"solve": 2, "distance": 1}

    def test_order_one_residual_is_the_inverse_round_trip(self):
        # the full grown image, cropped to the work dim as the certificate crops it
        image = smoothed(random_density(40, rank=3, support=10, rng=5))
        work = crop(image, 40)
        report = classicality_check(image, 1)
        assert report.residual == inverse_apply(smoothing_channel(), work).residual
        pre = channels._preimage(smoothing_channel(), work.matrix, 1e-10)
        assert report.residual == channels._round_trip_residual(
            smoothing_channel(), pre, work.matrix, 1)

    def test_label_propagates(self):
        report = classicality_check(thermal_state(0.5, 24), 1)
        assert report.state_label == "thermal(0.5)"

    def test_bad_order_and_epsilon(self):
        rho = fock_state(0, 12)
        with pytest.raises(ValidationError):
            classicality_check(rho, 3)
        with pytest.raises(ValidationError):
            classicality_check(rho, 1, epsilon=0.0)

    def test_json_form(self):
        report = classicality_check(thermal_state(0.5, 24), 1)
        payload = json.loads(classicality_report_to_json(report))
        assert payload["verdict"] == report.verdict
        assert payload["criterion"] == "WignerSufficient"
        assert payload["min_eigenvalue_of_inverse"] == report.min_eigenvalue_of_inverse


class TestNonclassicalityScore:
    def test_fock_one_scores_high(self):
        assert nonclassicality_score(fock_state(1, 40), 1, epsilon=1e-8) > 0.1

    def test_vacuum_scores_positive(self):
        # The vacuum is pure; its preimage is parity-like, not PSD.
        assert nonclassicality_score(fock_state(0, 40), 1) > 0.0

    def test_smoothed_vacuum_scores_near_zero(self):
        # Exactly zero is unreachable: the filter loss leaves ~2e-5 of
        # negative mass in the recovered vacuum.
        assert nonclassicality_score(smoothed(fock_state(0, 40)), 1) < 1e-4

    def test_monotone_under_smoothing(self):
        for rho in default_battery(dim=40, seed=3):
            before = nonclassicality_score(rho, 1)
            after = nonclassicality_score(smoothed(rho), 1)
            assert after <= before + 1e-6

    def test_profile_ladder(self):
        profile = nonclassicality_profile(fock_state(1, 40), 1)
        eps = [e for e, _ in profile]
        assert eps == sorted(eps, reverse=True)
        assert len(profile) == 4
        assert all(score > 0.1 for _, score in profile)

    def test_profile_rejects_empty_ladder(self):
        with pytest.raises(ValidationError):
            nonclassicality_profile(fock_state(0, 12), 1, epsilons=())
        # an iterator or generator object is truthy however many items it holds
        with pytest.raises(ValidationError, match="non-empty"):
            nonclassicality_profile(fock_state(0, 12), 1, epsilons=iter(()))
        with pytest.raises(ValidationError, match="non-empty"):
            nonclassicality_profile(fock_state(0, 12), 1, epsilons=(e for e in ()))

    def test_profile_validates_once_and_measures_nothing(self, monkeypatch):
        image = smoothed(thermal_state(0.8, 40))  # a bare operator, not yet a state
        built, distances = [], []
        post_init = fock.DensityOperator.__post_init__

        def counted(state):
            built.append(state)
            post_init(state)

        monkeypatch.setattr(fock.DensityOperator, "__post_init__", counted)
        monkeypatch.setattr(channels, "trace_distance",
                            lambda *args: distances.append(args) or 0.0)
        assert len(nonclassicality_profile(image, 1)) == 4
        assert len(built) == 1
        assert distances == []


class TestDefaultBattery:
    def test_composition(self):
        battery = default_battery(dim=40, seed=7)
        assert len(battery) == 10
        assert [rho.dim for rho in battery] == [40] * 10
        labels = [rho.label for rho in battery]
        assert labels[0] == "fock(0)"
        assert labels.count("random(rank=3,support=10)") == 2

    def test_seed_determinism(self):
        a = default_battery(dim=40, seed=11)
        b = default_battery(dim=40, seed=11)
        c = default_battery(dim=40, seed=12)
        for x, y in zip(a, b):
            assert_allclose(x.matrix, y.matrix, atol=0)
        assert np.max(np.abs(a[-1].matrix - c[-1].matrix)) > 1e-3


class TestVerifyConfig:
    def test_defaults(self):
        config = VerifyConfig()
        assert (config.dim, config.grid_extent, config.grid_step) == (64, 5.0, 0.05)
        assert config.seed == 7 and config.only is None

    @pytest.mark.parametrize("kwargs", [
        {"dim": 7},
        {"grid_step": 0.0},
        {"grid_extent": 0.01, "grid_step": 0.1},
        {"tolerances": {"no_such_check": 1e-6}},
        {"tolerances": {"photon_number_laws": 0.0}},
        {"only": ("no_such_check",)},
        {"only": ()},
        {"grid_extent": math.inf}, {"grid_extent": math.nan},
        {"grid_step": math.inf}, {"grid_step": math.nan},
        {"seed": -1},
        {"tolerances": {"photon_number_laws": math.inf}},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValidationError):
            VerifyConfig(**kwargs)

    def test_budgets_the_suite_working_set(self):
        # ten battery states, and the parity checks at 4 dim: 256 dim^2 bytes
        VerifyConfig(dim=2048)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError) as info:
                VerifyConfig(dim=2049)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.required_bytes == 16 * (4 * 2049) ** 2
        assert peak < 1e6

    def test_budgets_the_suite_w_samples(self):
        # the half-step grid has 2501 points a side: three sets of ten W
        # samples and one route's arrays, 272 bytes a point
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError) as info:
                VerifyConfig(grid_step=0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.required_bytes == 272 * 2501**2
        assert peak < 1e6


REDUCED = dict(dim=40, grid_extent=5.0, grid_step=0.1)


class TestVerifySuite:
    def test_reduced_scale_all_green(self):
        report = verify_suite(VerifyConfig(**REDUCED))
        assert report.passed
        assert [c.name for c in report.checks] == list(CHECK_NAMES)
        assert len({c.name for c in report.checks}) == len(report.checks)
        for check in report.checks:
            assert check.deviation <= check.tolerance
            assert check.runtime_s >= 0.0
        # Photon-law adjudication: the scaling/half-shift forms hold, the
        # affine and unit-shift variants miss by the predicted half quantum.
        disc = report.discrepancies
        assert disc["attenuator_scaling_law_max_residual"] < 1e-7
        assert disc["smoothing_half_shift_law_max_residual"] < 1e-7
        assert disc["attenuator_affine_variant_max_residual"] == pytest.approx(0.5, abs=1e-6)
        assert disc["smoothing_unit_shift_variant_max_residual"] == pytest.approx(0.5, abs=1e-6)

    def test_only_selection(self):
        config = VerifyConfig(only=("amplified_vacuum_is_thermal",
                                    "amplified_parity_is_half_vacuum"), **REDUCED)
        report = verify_suite(config)
        assert [c.name for c in report.checks] == [
            "amplified_vacuum_is_thermal", "amplified_parity_is_half_vacuum"]
        assert report.passed
        assert report.discrepancies == {}

    def test_tolerance_override_fails_check(self):
        config = VerifyConfig(only=("amplified_vacuum_is_thermal",),
                              tolerances={"amplified_vacuum_is_thermal": 1e-300},
                              **REDUCED)
        report = verify_suite(config)
        assert not report.passed
        assert report.checks[0].deviation > 1e-300

    def test_errored_check_never_passes(self):
        # The battery does not fit at dim 8, so the check records deviation
        # inf and a note; a tolerance of inf written past the validation
        # still does not pass it.
        name = "husimi_equals_wigner_of_smoothed"
        config = VerifyConfig(dim=8, only=(name,))
        config.tolerances[name] = math.inf
        report = verify_suite(config)
        (check,) = report.checks
        assert check.note.startswith("TruncationError")
        assert not check.passed and not report.passed

    def test_under_resolved_dim_completes_with_failures(self):
        # Battery members do not fit at dim 12; the suite must still
        # finish, carrying the truncation messages in the check notes.
        report = verify_suite(VerifyConfig(dim=12, grid_extent=4.0, grid_step=0.1))
        assert not report.passed
        assert len(report.checks) == len(CHECK_NAMES)
        failed = [c for c in report.checks if not c.passed]
        assert failed and all(c.note for c in failed)
        assert all(not math.isfinite(c.deviation) for c in failed)
        # each check that reads the battery records the failed build itself
        battery_checks = {"husimi_equals_wigner_of_smoothed",
                          "weierstrass_halfstep_matches_smoothed_wigner",
                          "coherent_projection_route_agreement", "photon_number_laws",
                          "smoothed_image_wigner_positive",
                          "double_smoothed_image_wigner_positive"}
        failed_battery = [c for c in failed if c.name in battery_checks]
        assert {c.name for c in failed_battery} == battery_checks
        assert all(c.note.startswith("TruncationError") for c in failed_battery)

    def test_deterministic_given_config(self):
        config = VerifyConfig(only=("photon_number_laws",), **REDUCED)
        a, b = verify_suite(config), verify_suite(config)
        assert [c.deviation for c in a.checks] == [c.deviation for c in b.checks]
        assert a.discrepancies["amplifier_law_max_residual"] == \
            b.discrepancies["amplifier_law_max_residual"]

    # the last geometry has 2R/h = 42.86, off the lattice of whole steps
    @pytest.mark.parametrize("kwargs", [{}, REDUCED, {"grid_extent": 3.0, "grid_step": 0.14}])
    def test_suite_grid_is_the_halfstep_grid_centre(self, kwargs):
        config = VerifyConfig(**kwargs)
        big = analysis._halfstep_grid(config)
        n = analysis._grid_of(config).points_per_axis
        pad = (big.points_per_axis - n) // 2
        assert 2 * pad == big.points_per_axis - n
        assert pad == {0.05: 25, 0.1: 13, 0.14: 9}[config.grid_step]
        centre = big.alphas()[pad:pad + n, pad:pad + n]
        assert np.array_equal(centre, analysis._grid_of(config).alphas())

    def test_sliced_wigner_keeps_the_quadrature_check(self, monkeypatch):
        # W of the smoothed vacuum, exp(-|a|^2), keeps its mass on the
        # half-step grid (R = 2.75) but loses 7% of it on the suite grid.
        monkeypatch.setattr(analysis, "default_battery", lambda dim, seed: [fock_state(0, dim)])
        shared = analysis._Shared(VerifyConfig(dim=20, grid_extent=1.5, grid_step=0.05))
        (w,) = shared.w_halfstep
        assert integrate(w) == pytest.approx(1.0, abs=1e-3)
        with pytest.raises(GridTooSmallError):
            shared.w_smoothed

    def test_double_smoothed_wigner_keeps_the_quadrature_check(self):
        # At R = 4.5 the W of a double-smoothed battery image loses 2.0e-3
        # of its trace, twice GRID_TOLERANCE.
        report = verify_suite(VerifyConfig(
            dim=40, grid_extent=4.5, only=("double_smoothed_image_wigner_positive",)))
        (check,) = report.checks
        assert not check.passed
        assert check.note.startswith("GridTooSmallError")

    def test_halfstep_wigner_keeps_the_quadrature_check(self, monkeypatch):
        # The half-step grid of R = 0.5, h = 0.25 reaches 1.75: its
        # quadrature of W of the smoothed vacuum, exp(-|a|^2), gives 0.985.
        monkeypatch.setattr(analysis, "default_battery", lambda dim, seed: [fock_state(0, dim)])
        shared = analysis._Shared(VerifyConfig(dim=20, grid_extent=0.5, grid_step=0.25))
        with pytest.raises(GridTooSmallError):
            shared.w_halfstep

    def test_double_smoothed_rung_is_the_compose_route(self):
        # apply trims each stage's input to its live block, and a second trim
        # is a no-op, so C of the smoothed rung is C o C of the state bit for bit
        shared = analysis._Shared(VerifyConfig())
        for rho, double in zip(shared.battery, shared.double_smoothed):
            assert np.array_equal(double.matrix,
                                  analysis.coherent_projection(rho, "compose").matrix)

    @pytest.mark.parametrize("only", [None, ("smoothed_image_wigner_positive",)])
    def test_smoothed_ladder_built_once_per_state(self, monkeypatch, only):
        # Each battery state is smoothed once, and its smoothed image once
        # more, with one apply per rung and no compose route; W of each image
        # is sampled once over both grids, and each parity point's smoothed
        # parity is built once, however many checks read them.
        batteries, applied, projected, sampled, parities = [], [], [], [], []
        original_battery = analysis.default_battery
        original_apply, original_wigner = analysis.apply, analysis.sample_wigner
        original_projection = analysis.coherent_projection
        original_parity = analysis.displaced_parity

        def battery(*args):
            batteries.append(original_battery(*args))
            return batteries[-1]

        def counting_apply(spec, x, *args, **kwargs):
            out = original_apply(spec, x, *args, **kwargs)
            applied.append((spec, x, out))
            return out

        def counting_projection(x, route):
            out = original_projection(x, route=route)
            projected.append((x, route, out))
            return out

        def counting_wigner(xs, grid):
            sampled.extend(xs)
            return original_wigner(xs, grid)

        def counting_parity(alpha, dim):
            parities.append((alpha, dim))
            return original_parity(alpha, dim)

        monkeypatch.setattr(analysis, "default_battery", battery)
        monkeypatch.setattr(analysis, "apply", counting_apply)
        monkeypatch.setattr(analysis, "coherent_projection", counting_projection)
        monkeypatch.setattr(analysis, "sample_wigner", counting_wigner)
        monkeypatch.setattr(analysis, "displaced_parity", counting_parity)
        config = VerifyConfig(only=only, **REDUCED)
        assert verify_suite(config).passed

        def w_samples_of(image):
            return sum(1 for x in sampled if x is image)

        (states,) = batteries
        double = 1 if only is None else 0
        assert not [route for _, route, _ in projected if route == "compose"]
        for rho in states:
            (image,) = [out for spec, x, out in applied
                        if x is rho and spec == smoothing_channel()]
            doubles = [out for spec, x, out in applied
                       if x is image and spec == smoothing_channel()]
            assert len(doubles) == double
            assert w_samples_of(image) == 1
            assert [w_samples_of(d) for d in doubles] == [1] * double
        work = [alpha for alpha, dim in parities if dim == 4 * config.dim]
        assert work == (list(analysis._PARITY_POINTS) if only is None else [])


def blas_counts() -> list:
    """Each bundled OpenBLAS's thread count, read through its setter."""
    counts = []
    for setter in analysis._blas_thread_setters():
        counts.append(setter(1))
        setter(counts[-1])
    return counts


@pytest.mark.skipif(not analysis._blas_thread_setters(),
                    reason="neither numpy.libs nor scipy.libs holds an OpenBLAS "
                           "that exports openblas_set_num_threads_local")
class TestVerifySuiteBlasThreads:
    CHEAP = "amplified_vacuum_is_thermal"

    @pytest.fixture(autouse=True)
    def two_threads(self):
        # Start from a count other than one, so that restoring it shows.
        found = [setter(2) for setter in analysis._blas_thread_setters()]
        self.before = blas_counts()
        yield
        for setter, count in zip(analysis._blas_thread_setters(), found):
            setter(count)

    def test_one_thread_inside_and_restored_after_a_return(self, monkeypatch):
        seen = []

        def runner(config, shared):
            seen.append(blas_counts())
            return 0.0, None

        monkeypatch.setattr(analysis, "_CHECKS", ((self.CHEAP, 1e-8, runner),))
        assert verify_suite(VerifyConfig(dim=8)).passed
        assert seen == [[1] * len(self.before)]
        assert blas_counts() == self.before == [2] * len(self.before)

    def test_restored_when_a_check_raises_past_the_suite(self, monkeypatch):
        def runner(config, shared):
            raise RuntimeError("not a QuasiphaseError")

        monkeypatch.setattr(analysis, "_CHECKS", ((self.CHEAP, 1e-8, runner),))
        with pytest.raises(RuntimeError, match="not a QuasiphaseError"):
            verify_suite(VerifyConfig(dim=8))
        assert blas_counts() == self.before

    def test_restored_after_two_threads_at_once(self, monkeypatch):
        # Both suites are inside at once.  The first to leave must not hand
        # the count back under the second; the last to leave restores it.
        (check,) = [runner for name, _, runner in analysis._CHECKS if name == self.CHEAP]
        inside, first_left = threading.Barrier(2, timeout=30), threading.Event()
        seen, reports = {}, {}

        def runner(config, shared):
            inside.wait()
            if threading.current_thread().name == "second":
                seen["first left"] = first_left.wait(timeout=30)
                seen["second"] = blas_counts()
            return check(config, shared)

        def run():
            label = threading.current_thread().name
            reports[label] = verify_suite(VerifyConfig(dim=8, only=(self.CHEAP,)))
            if label == "first":
                first_left.set()

        monkeypatch.setattr(analysis, "_CHECKS", ((self.CHEAP, 1e-8, runner),))
        threads = [threading.Thread(target=run, name=name) for name in ("first", "second")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert seen == {"first left": True, "second": [1] * len(self.before)}
        assert reports["first"].passed and reports["second"].passed
        assert blas_counts() == self.before

    def test_many_threads_never_see_the_count_back_while_a_suite_runs(self, monkeypatch):
        # More threads than cores, switching often: a suite that handed the
        # count back under another would show here as a count other than 1.
        seen = []

        def runner(config, shared):
            seen.append(blas_counts())
            return 0.0, None

        def run():
            for _ in range(50):
                verify_suite(config)

        monkeypatch.setattr(analysis, "_CHECKS", ((self.CHEAP, 1e-8, runner),))
        config = VerifyConfig(dim=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert seen == [[1] * len(self.before)] * 200
        assert blas_counts() == self.before
        assert analysis._blas_held == []


class TestReportSerialization:
    def test_json_round_trip_and_text(self):
        config = VerifyConfig(only=("amplified_vacuum_is_thermal",
                                    "photon_number_laws"), **REDUCED)
        report = verify_suite(config)
        payload = json.loads(report_to_json(report))
        assert payload["passed"] is True
        assert payload["dim"] == 40
        assert [c["name"] for c in payload["checks"]] == [
            "amplified_vacuum_is_thermal", "photon_number_laws"]
        assert "note" in payload["discrepancies"]
        text = report_to_text(report)
        assert "PASS" in text and "overall: PASS (2/2 checks" in text

    def test_json_null_for_unmeasured_deviation(self):
        report = verify_suite(VerifyConfig(dim=12, grid_extent=4.0, grid_step=0.1,
                                           only=("photon_number_laws",)))
        payload = json.loads(report_to_json(report))
        assert payload["checks"][0]["deviation"] is None
        assert "FAIL" in report_to_text(report)
