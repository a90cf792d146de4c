"""Classicality certificates and the cross-identity verification suite.

Two sufficient classicality criteria invert the smoothing channel once or
twice and test the regularized preimage for positivity: a PSD preimage under
one inversion certifies a nonnegative Wigner function, under two a valid
P representation.  Both certificates are one-sided; a negative margin is
never a proof of non-classicality, so the verdict is only ever
CertifiedClassical or Inconclusive.  The inversions and the forward model
behind the residuals both use the channel's per-offset transfer blocks
(`channels.superoperator_of`), so an epsilon ladder reuses one cached
decomposition.

verify_suite cross-checks every closed-form identity the package relies on
(distribution ladder, projection routes, parity images, photon-number laws,
image positivity) on a seeded state battery and reports deviations against
per-check tolerances.  Checks are pure functions of the config and run one
after another.  The battery, each state's smoothed and double-smoothed images,
W of the smoothed images on the half-step grid (whose exact centre is the
suite grid) and the smoothed parity kernels are built once per call, on first
use, and shared.  W grids are sampled a batch at a time, one batch per grid
and family of operators, so each batch runs one beamsplitter-block recursion.
The suite always completes, converting per-check exceptions into failed
entries rather than aborting.
"""

from __future__ import annotations

import ctypes
import json
import math
import threading
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

from .channels import (
    amplifier_apply,
    apply,
    attenuator_apply,
    coherent_projection,
    inverse_apply,
    smoothing_channel,
    superoperator_of,
)
from .errors import QuasiphaseError, ValidationError
from .fock import (
    TruncatedOperator,
    _as_operator,
    _check_dense_budget,
    _count,
    as_density,
    coherent_state,
    crop,
    displaced_parity,
    displacement_matrix,
    embed,
    fidelity,
    fock_state,
    hermiticity_defect,
    mean_photon,
    random_density,
    thermal_state,
    trace_distance,
)
from .phasespace import (PhaseGrid, _check_grid_budget, _check_quadrature, sample,
                         sample_wigner, weierstrass)

__all__ = [
    "PSD_MARGIN_TOLERANCE",
    "RESIDUAL_BOUND",
    "DEFAULT_EPSILON",
    "DEFAULT_WORK_DIM",
    "ClassicalityReport",
    "CheckResult",
    "VerifyConfig",
    "VerificationReport",
    "psd_margin",
    "classicality_check",
    "nonclassicality_score",
    "nonclassicality_profile",
    "default_battery",
    "verify_suite",
    "classicality_report_to_json",
    "report_to_json",
    "report_to_text",
]

PSD_MARGIN_TOLERANCE = 1e-8
RESIDUAL_BOUND = 1e-6
DEFAULT_EPSILON = 1e-10
DEFAULT_WORK_DIM = 40


def psd_margin(x) -> float:
    """Minimum eigenvalue of the Hermitian part (X + X^dag)/2."""
    mat = _as_operator(x).matrix
    scale = max(1.0, float(np.max(np.abs(mat))))
    defect = hermiticity_defect(mat)
    if defect > 1e-10 * scale:
        raise ValidationError(
            f"psd margin is defined for Hermitian operators; defect {defect:.3e}")
    return float(np.min(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))))


@dataclass(frozen=True)
class ClassicalityReport:
    """Outcome of one sufficient-criterion test.

    `min_eigenvalue_of_inverse` is the PSD margin of the regularized
    preimage; `residual` is the trace distance between the re-smoothed
    preimage and the input under the same truncated forward model.
    """

    state_label: str
    criterion: str
    min_eigenvalue_of_inverse: float
    epsilon_used: float
    residual: float
    verdict: str


def _work_block(x, work_dim: int) -> TruncatedOperator:
    op = _as_operator(x)
    return crop(op, work_dim) if op.dim >= work_dim else embed(op, work_dim)


def _regularized_preimage(state, order: int, epsilon: float,
                          work_dim: int) -> tuple[TruncatedOperator, float]:
    if order not in (1, 2):
        raise ValidationError(f"criterion order must be 1 or 2, got {order!r}")
    spec = smoothing_channel()
    work = _work_block(state, work_dim)
    first = inverse_apply(spec, work, epsilon=epsilon)
    pre, residual = first.operator, first.residual
    if order == 2:
        second = inverse_apply(spec, pre, epsilon=epsilon)
        pre = second.operator
        # Residual of the double round trip under the same forward model.
        forward_map = superoperator_of(spec, work.dim)
        forward = forward_map.apply_matrix(forward_map.apply_matrix(pre.matrix))
        residual = trace_distance(TruncatedOperator(forward), work)
    return pre, residual


def classicality_check(rho, order: int, epsilon: float = DEFAULT_EPSILON,
                       work_dim: int = DEFAULT_WORK_DIM) -> ClassicalityReport:
    """Sufficient classicality certificate of the given order.

    Order 1 tests whether the Wigner function of `rho` is a Husimi function
    of some state (preimage under one smoothing step); order 2 tests for a
    valid P representation (two steps).  CertifiedClassical requires the
    preimage margin to clear -1e-8 and the round-trip residual to stay
    below 1e-6; everything else is Inconclusive, including preimages the
    regularized inverse cannot fit.
    """
    state = as_density(rho)
    pre, residual = _regularized_preimage(state, order, epsilon, work_dim)
    margin = psd_margin(pre)
    certified = margin >= -PSD_MARGIN_TOLERANCE and residual <= RESIDUAL_BOUND
    return ClassicalityReport(
        state_label=state.label,
        criterion="WignerSufficient" if order == 1 else "PNegSufficient",
        min_eigenvalue_of_inverse=margin,
        epsilon_used=float(epsilon),
        residual=float(residual),
        verdict="CertifiedClassical" if certified else "Inconclusive",
    )


def nonclassicality_score(rho, order: int, epsilon: float = DEFAULT_EPSILON,
                          work_dim: int = DEFAULT_WORK_DIM) -> float:
    """Absolute sum of negative preimage eigenvalues (0 when PSD).

    The value depends on the regularization strength and the truncation
    dim; it is a comparable score at fixed (epsilon, work_dim), not a
    regularization-independent quantity.
    """
    state = as_density(rho)
    pre, _ = _regularized_preimage(state, order, epsilon, work_dim)
    eigs = np.linalg.eigvalsh(0.5 * (pre.matrix + pre.matrix.conj().T))
    return float(-eigs[eigs < 0.0].sum())


def nonclassicality_profile(rho, order: int,
                            epsilons=(1e-6, 1e-8, 1e-10, 1e-12),
                            work_dim: int = DEFAULT_WORK_DIM) -> tuple:
    """Score ladder over regularization strengths, strongest first.

    No limit is taken: the profile exposes the epsilon dependence so the
    caller can judge stability instead of trusting a single value.
    """
    if not epsilons:
        raise ValidationError("epsilon ladder must be non-empty")
    ladder = tuple(sorted((float(e) for e in epsilons), reverse=True))
    return tuple((e, nonclassicality_score(rho, order, epsilon=e,
                                           work_dim=work_dim)) for e in ladder)


def default_battery(dim: int = 64, seed: int = 7) -> list:
    """Seeded reference states: vacuum, low Fock, coherent, thermal, random.

    The random members are rank-3 mixtures on the first ten levels drawn
    from one generator, so the battery is a pure function of (dim, seed).
    """
    rng = np.random.default_rng(seed)
    return [
        fock_state(0, dim),
        fock_state(1, dim),
        fock_state(2, dim),
        fock_state(3, dim),
        coherent_state(0.9, dim)[0],
        coherent_state(0.66 + 0.9j, dim)[0],
        thermal_state(0.8, dim),
        thermal_state(1.5, dim),
        random_density(dim, rank=3, support=10, rng=rng),
        random_density(dim, rank=3, support=10, rng=rng),
    ]


# ---------------------------------------------------------------------------
# verification suite


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float
    passed: bool
    runtime_s: float
    note: str = ""


@dataclass(frozen=True)
class VerifyConfig:
    """Suite parameters; tolerances override per-check defaults by name."""

    dim: int = 64
    grid_extent: float = 5.0
    grid_step: float = 0.05
    seed: int = 7
    tolerances: Mapping[str, float] = field(default_factory=dict)
    only: tuple | None = None

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 8:
            raise ValidationError(f"dim must be an integer >= 8, got {self.dim!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValidationError(f"seed must be an integer >= 0, got {self.seed!r}")
        dim = int(self.dim)
        # Budget the whole request: ten battery states live at once, and the
        # parity checks work at 4 dim.
        _check_dense_budget(
            16 * max(10 * dim**2, (4 * dim) ** 2),
            f"the verify suite at dim {_count(dim)} (ten battery states of "
            f"{_count(16 * dim**2)} bytes each, parity checks at dim {_count(4 * dim)})")
        _grid_of(self)  # PhaseGrid validates the geometry
        # three sets of ten W samples, at most half-step sized, and one route's arrays
        _check_grid_budget(_halfstep_grid(self), 3 * 10 * 8 + 32, "the verify suite's W samples")
        names = set(CHECK_NAMES)
        for key, value in dict(self.tolerances).items():
            if key not in names:
                raise ValidationError(
                    f"unknown tolerance {key!r}; valid names: {CHECK_NAMES}")
            if not value > 0.0:
                raise ValidationError(f"tolerance {key!r} must be positive, got {value}")
        if self.only is not None:
            chosen = tuple(self.only)
            unknown = [n for n in chosen if n not in names]
            if unknown:
                raise ValidationError(
                    f"unknown check names {unknown}; valid names: {CHECK_NAMES}")
            if not chosen:
                raise ValidationError("check selection must be non-empty")
            object.__setattr__(self, "only", chosen)
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "grid_extent", float(self.grid_extent))
        object.__setattr__(self, "grid_step", float(self.grid_step))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "tolerances", dict(self.tolerances))


@dataclass(frozen=True)
class VerificationReport:
    dim: int
    grid_extent: float
    grid_step: float
    seed: int
    checks: tuple
    discrepancies: dict
    runtime_s: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _grid_of(config: VerifyConfig) -> PhaseGrid:
    return PhaseGrid(half_extent=config.grid_extent, spacing=config.grid_step)


def _halfstep_grid(config: VerifyConfig) -> PhaseGrid:
    pad = np.ceil(1.25 / config.grid_step - 1e-9)  # whole steps: the suite grid nests
    return PhaseGrid(half_extent=config.grid_extent + pad * config.grid_step,
                     spacing=config.grid_step)


@dataclass(frozen=True, eq=False)
class _Ladder:
    """One battery state and the channel images above it that several checks read.

    Each image is computed on first access; an access that raises is not
    cached, so every check that needs a failing rung records the error.
    """

    rho: object

    @cached_property
    def smoothed(self):
        return apply(smoothing_channel(), self.rho)

    @cached_property
    def double_smoothed(self):
        return coherent_projection(self.rho, route="compose")


def _image_wigners(images: list, grid: PhaseGrid) -> list:
    """W of channel images, each held to the quadrature check `sample` gives a state.

    `apply` returns a TruncatedOperator, so `sample_wigner` cannot know an
    image is a state; the grid must still keep each image's whole trace.
    """
    ws = sample_wigner(images, grid)
    for image, w in zip(images, ws):
        _check_quadrature(w.values, grid, "W", float(np.trace(image.matrix).real))
    return ws


_PARITY_POINTS = (0.0, 0.5 + 0.2j, 1.5)


def _smooth_cropped(op: TruncatedOperator, work: int) -> TruncatedOperator:
    # Crop the amplifier output at the construction dim: levels above the
    # input dim are contaminated by the operator's missing tail.
    step = amplifier_apply(2.0, op, dim_out=work)
    return attenuator_apply(0.5, step)


@dataclass(frozen=True, eq=False)
class _Shared:
    """One verify_suite call's battery ladders, W of their smoothed images and parity rung.

    Like a `_Ladder` rung, each is built on first access and an access that
    raises is not cached, so every check that reads a failing one records
    the error.
    """

    config: VerifyConfig

    @cached_property
    def ladders(self) -> list:
        return [_Ladder(rho) for rho in default_battery(self.config.dim, self.config.seed)]

    @cached_property
    def w_halfstep(self) -> list:
        """W of each smoothed image on the half-step grid."""
        return _image_wigners([rung.smoothed for rung in self.ladders],
                              _halfstep_grid(self.config))

    @cached_property
    def w_smoothed(self) -> list:
        """W of each smoothed image on the suite grid, cut from the half-step W's centre."""
        grid, halfstep = _grid_of(self.config), _halfstep_grid(self.config)
        n, m = grid.points_per_axis, halfstep.points_per_axis
        keep = slice((m - n) // 2, (m + n) // 2)
        if not np.array_equal(halfstep.axis_offsets()[keep], grid.axis_offsets()):
            # not the half-step grid's centre
            return _image_wigners([rung.smoothed for rung in self.ladders], grid)
        out = []
        for rung, w in zip(self.ladders, self.w_halfstep):
            w = replace(w, grid=grid, values=w.values[keep, keep])
            # the image is a state: the cut must keep its mass, as sample checks
            _check_quadrature(w.values, grid, "W", float(np.trace(rung.smoothed.matrix).real))
            out.append(w)
        return out

    @cached_property
    def parity_smoothed(self) -> tuple:
        work = 4 * self.config.dim
        return tuple(_smooth_cropped(displaced_parity(a, work), work) for a in _PARITY_POINTS)


def _check_husimi_equals_wigner_of_smoothed(config, shared):
    grid = _grid_of(config)
    dev = 0.0
    for rung, w in zip(shared.ladders, shared.w_smoothed):
        q = sample(rung.rho, "Q", grid)
        dev = max(dev, float(np.max(np.abs(q.values - w.values))))
    return dev, None


def _check_weierstrass_halfstep_matches_smoothed_wigner(config, shared):
    # The half-step Gaussian smoothing of W must land on W of the smoothed
    # state.  Sampled on an enlarged grid so the convolution sees the full
    # mass, compared away from the edge where the truncated kernel bites.
    grid = _halfstep_grid(config)
    mask = grid.interior_mask(2.0)
    dev = 0.0
    w_states = sample_wigner([rung.rho for rung in shared.ladders], grid)
    for w, smoothed in zip(w_states, shared.w_halfstep):
        lhs = weierstrass(w, 0.5)
        dev = max(dev, float(np.max(np.abs(lhs.values - smoothed.values)[mask])))
    return dev, None


def _check_coherent_projection_route_agreement(config, shared):
    dev = 0.0
    for rung in shared.ladders:
        outs = [rung.double_smoothed] + [coherent_projection(rung.rho, route=r)
                                         for r in ("reversed", "projection")]
        for i in range(len(outs)):
            for j in range(i + 1, len(outs)):
                dev = max(dev, trace_distance(outs[i], outs[j]))
    return dev, None


def _check_parity_smooths_to_coherent_state(config, shared):
    dev = 0.0
    for alpha, once in zip(_PARITY_POINTS, shared.parity_smoothed):
        fid = fidelity(crop(once, config.dim), coherent_state(alpha, config.dim)[0])
        dev = max(dev, max(0.0, 1.0 - fid))
    return dev, None


def _check_parity_double_smooth_gaussian_mixture(config, shared):
    window, work = config.dim, 4 * config.dim
    dev = 0.0
    for alpha, once in zip(_PARITY_POINTS, shared.parity_smoothed):
        out = crop(_smooth_cropped(crop(once, work), work), window)
        d = displacement_matrix(alpha, window).matrix
        target = d @ thermal_state(0.5, window).matrix @ d.conj().T
        dev = max(dev, trace_distance(out, TruncatedOperator(target)))
    return dev, None


def _check_amplified_vacuum_is_thermal(config, shared):
    out = amplifier_apply(2.0, fock_state(0, config.dim))
    return trace_distance(out, thermal_state(1.0, out.dim)), None


def _check_amplified_parity_is_half_vacuum(config, shared):
    dim = config.dim
    signs = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    parity = TruncatedOperator(np.diag(signs).astype(np.complex128), label="parity")
    # Levels below the input dim receive their complete alternating sums;
    # everything above is missing-tail junk, so compare on the input block.
    out = crop(amplifier_apply(2.0, parity), dim)
    target = np.zeros((dim, dim), dtype=np.complex128)
    target[0, 0] = 0.5
    return trace_distance(out, TruncatedOperator(target)), None


def _check_photon_number_laws(config, shared):
    att_scaling = att_affine = smooth_half = smooth_unit = amp_law = 0.0
    for rung in shared.ladders:
        n_in = mean_photon(rung.rho)
        amp = mean_photon(amplifier_apply(2.0, rung.rho))
        att = mean_photon(attenuator_apply(0.5, rung.rho))
        smooth = mean_photon(rung.smoothed)
        amp_law = max(amp_law, abs(amp - (2.0 * n_in + 1.0)))
        att_scaling = max(att_scaling, abs(att - 0.5 * n_in))
        att_affine = max(att_affine, abs(att - (0.5 * n_in + 0.5)))
        smooth_half = max(smooth_half, abs(smooth - (n_in + 0.5)))
        smooth_unit = max(smooth_unit, abs(smooth - (n_in + 1.0)))
    dev = max(amp_law, att_scaling, smooth_half)
    discrepancies = {
        "amplifier_law_max_residual": amp_law,
        "attenuator_scaling_law_max_residual": att_scaling,
        "attenuator_affine_variant_max_residual": att_affine,
        "smoothing_half_shift_law_max_residual": smooth_half,
        "smoothing_unit_shift_variant_max_residual": smooth_unit,
        "note": ("the affine attenuator variant and the unit-shift variant "
                 "are ruled out by the dilation oracle; coherent-state "
                 "transport fixes the scaling and half-shift forms"),
    }
    return dev, discrepancies


def _check_smoothed_image_wigner_positive(config, shared):
    dev = 0.0
    for w in shared.w_smoothed:
        dev = max(dev, max(0.0, -float(w.values.min())))
    return dev, None


def _check_double_smoothed_image_wigner_positive(config, shared):
    images = [rung.double_smoothed for rung in shared.ladders]
    dev = 0.0
    for w in _image_wigners(images, _grid_of(config)):
        dev = max(dev, max(0.0, -float(w.values.min())))
    return dev, None


# (name, default tolerance, runner)
_CHECKS: tuple = (
    ("husimi_equals_wigner_of_smoothed", 1e-6, _check_husimi_equals_wigner_of_smoothed),
    ("weierstrass_halfstep_matches_smoothed_wigner", 2e-4,
     _check_weierstrass_halfstep_matches_smoothed_wigner),
    ("coherent_projection_route_agreement", 1e-6, _check_coherent_projection_route_agreement),
    ("parity_smooths_to_coherent_state", 1e-7, _check_parity_smooths_to_coherent_state),
    ("parity_double_smooth_gaussian_mixture", 1e-6,
     _check_parity_double_smooth_gaussian_mixture),
    ("amplified_vacuum_is_thermal", 1e-8, _check_amplified_vacuum_is_thermal),
    ("amplified_parity_is_half_vacuum", 1e-8, _check_amplified_parity_is_half_vacuum),
    ("photon_number_laws", 1e-7, _check_photon_number_laws),
    ("smoothed_image_wigner_positive", 1e-6, _check_smoothed_image_wigner_positive),
    ("double_smoothed_image_wigner_positive", 1e-6,
     _check_double_smoothed_image_wigner_positive),
)

CHECK_NAMES = tuple(name for name, _, _ in _CHECKS)


@cache
def _blas_thread_setters() -> tuple:
    """openblas_set_num_threads_local of numpy's and scipy's OpenBLAS; each
    returns the count it replaces.  Empty under MKL or OpenBLAS < 0.3.27."""
    site = Path(np.__file__).resolve().parent.parent
    setters = []
    for path in [*site.glob("numpy.libs/*openblas*"), *site.glob("scipy.libs/*openblas*")]:
        with suppress(OSError, AttributeError):
            setter = ctypes.CDLL(str(path)).openblas_set_num_threads_local
            setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
            setters.append(setter)
    return tuple(setters)


_BLAS_LOCK = threading.Lock()
_blas_held: list = []  # the counts each running suite replaced; all but the first read 1


@contextmanager
def _one_blas_thread():
    """BLAS on one thread while any suite runs.  The count is process-wide in
    OpenBLAS's pthreads builds, so the last suite out restores the first's."""
    with _BLAS_LOCK:
        _blas_held.append([setter(1) for setter in _blas_thread_setters()])
    try:
        yield
    finally:
        with _BLAS_LOCK:
            for setter, count in zip(_blas_thread_setters(), _blas_held.pop()):
                setter(count)


@_one_blas_thread()
def verify_suite(config: VerifyConfig | None = None) -> VerificationReport:
    """Run the selected checks and aggregate one report.

    A check that raises is recorded as failed with the error message in its
    note; the suite itself always completes.  Checks run in order in the
    calling thread and share one lazily built `_Shared` for this call.
    Results are deterministic for a fixed config: the battery is seeded and
    BLAS runs on one thread, restoring the caller's count on every exit: after
    each threaded call OpenBLAS's idle worker spins ~0.1 s, and at dim 64 the
    four eigh_tridiagonal calls took 27-42 ms on two threads, 11-12 ms on one.
    """
    config = config or VerifyConfig()
    selected = [c for c in _CHECKS if config.only is None or c[0] in config.only]
    start = time.perf_counter()
    shared = _Shared(config)
    checks = []
    discrepancies: dict = {}
    for name, default_tol, runner in selected:
        tolerance = float(config.tolerances.get(name, default_tol))
        t0 = time.perf_counter()
        try:
            deviation, extra = runner(config, shared)
            note = ""
            discrepancies.update(extra or {})
        except QuasiphaseError as err:
            deviation, note = math.inf, f"{type(err).__name__}: {err}"
        checks.append(CheckResult(name=name, deviation=float(deviation),
                                  tolerance=tolerance,
                                  passed=bool(deviation <= tolerance),
                                  runtime_s=time.perf_counter() - t0, note=note))
    return VerificationReport(
        dim=config.dim,
        grid_extent=config.grid_extent,
        grid_step=config.grid_step,
        seed=config.seed,
        checks=tuple(checks),
        discrepancies=discrepancies,
        runtime_s=time.perf_counter() - start,
    )


def _json_real(value: float):
    return value if math.isfinite(value) else None


def classicality_report_to_json(report: ClassicalityReport) -> str:
    payload = {
        "state_label": report.state_label,
        "criterion": report.criterion,
        "min_eigenvalue_of_inverse": _json_real(report.min_eigenvalue_of_inverse),
        "epsilon_used": report.epsilon_used,
        "residual": _json_real(report.residual),
        "verdict": report.verdict,
    }
    return json.dumps(payload, indent=2) + "\n"


def report_to_json(report: VerificationReport) -> str:
    payload = {
        "dim": report.dim,
        "grid": {"half_extent": report.grid_extent, "spacing": report.grid_step},
        "seed": report.seed,
        "passed": report.passed,
        "runtime_s": report.runtime_s,
        "checks": [
            {
                "name": c.name,
                "deviation": _json_real(c.deviation),
                "tolerance": c.tolerance,
                "passed": c.passed,
                "runtime_s": c.runtime_s,
                "note": c.note,
            }
            for c in report.checks
        ],
        "discrepancies": report.discrepancies,
    }
    return json.dumps(payload, indent=2) + "\n"


def report_to_text(report: VerificationReport) -> str:
    width = max((len(c.name) for c in report.checks), default=4)
    lines = [
        f"verification suite  dim={report.dim}  "
        f"grid R={report.grid_extent:g} h={report.grid_step:g}  seed={report.seed}"
    ]
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        dev = f"{c.deviation:.3e}" if math.isfinite(c.deviation) else "n/a"
        line = (f"{status}  {c.name:<{width}}  deviation {dev:>9}  "
                f"tolerance {c.tolerance:.0e}  {c.runtime_s:6.2f}s")
        if c.note:
            line += f"  [{c.note}]"
        lines.append(line)
    if report.discrepancies:
        lines.append("discrepancies:")
        for key, value in report.discrepancies.items():
            shown = f"{value:.3e}" if isinstance(value, float) else str(value)
            lines.append(f"  {key}: {shown}")
    n_pass = sum(1 for c in report.checks if c.passed)
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(f"overall: {verdict} ({n_pass}/{len(report.checks)} checks, "
                 f"{report.runtime_s:.1f}s)")
    return "\n".join(lines) + "\n"
