"""Quasiprobability distributions on square phase-space grids.

Three distributions of a truncated operator X are supported, all with the
d^2alpha/pi integration convention so that densities integrate to 1:

* Q(alpha) = <alpha| X |alpha>, bounded, vacuum peak 1;
* W(alpha) = Tr[X pi(alpha)] with the displaced parity kernel, vacuum peak 2;
* P, which is an ordinary function only for special families (Gaussian
  mixtures of coherent states, e.g. thermal); anything else raises
  SingularPError rather than pretending.

The point oracles `q_at` and `w_at` share no code with the grid routes:
`q_at` takes the exact coherent amplitudes and `w_at` builds the parity
kernel by exponentiation on a sized register.

Grid W takes the Hermite-Gauss mode converter (Beijersbergen et al., Opt.
Commun. 96, 123): a 50:50 beamsplitter maps the W of |m><n|, a
Laguerre-Gauss mode, onto products of Hermite functions of the two grid
axes, so W on a Cartesian grid is two GEMMs per operator.  The beamsplitter
blocks do not depend on the operator; `sample_wigner` builds them once for a
batch of operators that share a grid and keeps none of them past the call.
`w_char_at` reads its characteristic function from the same route, as
Tr[X D(beta)] = W_(Pi X)(beta/2) / 2 with Pi = (-1)^n.  Its phase factorises
over the two beta axes, so the quadrature is sqrt(pi) (Psi_re f)^T C (Psi_im
g) h^2/pi with one phase vector per axis: O(K n + K^2) work for K Hermite
levels and n points an axis, and no n x n array.  The boundary gate reads
only the grid's four edge lines.  The sum on spacing h is W made periodic
with period pi/h, so a point with |Re alpha| or |Im alpha| at or past
pi/(2h) raises.

Grid Q takes the radial kernel: sum_e u^e S_e(y) + u*^e L_e(y), u =
alpha/|alpha|, with S and L X's two e-diagonals weighted by products of
Poisson amplitudes once per distinct y = |alpha|^2, and the phases summed
by Horner's rule.  The projection route of `channels` reads the same S and
L as its angular harmonics.

The Weierstrass transform `weierstrass` smooths a sampled distribution with
a Gaussian of variance t; t = 1/2 shifts P -> W -> Q one rung, t = 1 maps
P -> Q directly, and the semigroup law composes in t.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GridTooSmallError,
    SingularPError,
    ValidationError,
)
from .fock import (DensityOperator, _as_operator, _check_dense_budget, _count, _live,
                   _live_floor, coherent_amplitudes, displaced_parity)

__all__ = [
    "GRID_TOLERANCE",
    "KINDS",
    "PhaseGrid",
    "QuasiDistribution",
    "GaussianP",
    "NegativityReport",
    "q_at",
    "w_at",
    "w_char_at",
    "p_thermal_at",
    "recognize_gaussian_p",
    "sample",
    "sample_wigner",
    "weierstrass",
    "integrate",
    "negativity",
    "distribution_to_csv",
]

GRID_TOLERANCE = 1e-3
KINDS = ("P", "W", "Q")
# psi_0(t) = pi^(-1/4) exp(-t^2/2) is a normal float for |t| <= 2 W_REACH, so the
# Hermite rows keep full relative precision there and underflow past it: grid W
# reads t = 2 Re alpha (reach 18.8), the characteristic function t = Re beta (37.6).
W_REACH = 0.5 * math.sqrt(-2.0 * math.log(np.finfo(float).tiny * math.pi**0.25))
# what recognize_gaussian_p allows off and along a thermal-form diagonal
GAUSSIAN_DIAG_TOLERANCE = 1e-12
GAUSSIAN_RATIO_TOLERANCE = 1e-10


@dataclass(frozen=True)
class PhaseGrid:
    """Square lattice center + (j h - R) + i (k h - R), 0 <= j, k <= floor(2R/h)."""

    center: complex = 0j
    half_extent: float = 5.0
    spacing: float = 0.05

    def __post_init__(self):
        if not (cmath.isfinite(self.center) and math.isfinite(self.half_extent)
                and math.isfinite(self.spacing)):
            raise ValidationError(
                f"grid geometry must be finite, got center {self.center}, "
                f"half extent {self.half_extent}, spacing {self.spacing}")
        if not (self.spacing > 0.0):
            raise ValidationError(f"grid spacing must be positive, got {self.spacing}")
        if self.half_extent < self.spacing:
            raise ValidationError(
                f"grid half extent {self.half_extent} below spacing {self.spacing}")
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "half_extent", float(self.half_extent))
        object.__setattr__(self, "spacing", float(self.spacing))
        # routes check their own arrays (`_check_grid_budget`); int() needs a finite 2R/h
        if not math.isfinite(2.0 * self.half_extent / self.spacing):
            raise ValidationError(
                f"grid half extent {self.half_extent:g} over spacing {self.spacing:g} "
                f"overflows: 2R/h must be finite")

    @property
    def points_per_axis(self) -> int:
        # tolerate float fuzz when 2R/h is an exact integer
        return int(math.floor(2.0 * self.half_extent / self.spacing + 1e-9)) + 1

    def axis_offsets(self) -> np.ndarray:
        n = self.points_per_axis
        if abs(2.0 * self.half_extent / self.spacing - (n - 1)) <= 1e-9:
            # (j - (n-1)/2) h: exactly antisymmetric, and nested lattices share points
            return (np.arange(n) - 0.5 * (n - 1)) * self.spacing
        return np.arange(n) * self.spacing - self.half_extent

    def alphas(self) -> np.ndarray:
        """Complex lattice, axis 0 along Re, axis 1 along Im."""
        off = self.axis_offsets()
        return self.center + off[:, None] + 1j * off[None, :]

    def interior_mask(self, margin: float) -> np.ndarray:
        off = self.axis_offsets()
        keep = np.abs(off) <= self.half_extent - margin + 1e-12
        return keep[:, None] & keep[None, :]

    def boundary_mask(self) -> np.ndarray:
        n = self.points_per_axis
        mask = np.zeros((n, n), dtype=bool)
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = mask[:, -1] = True
        return mask


def _check_grid_budget(grid: PhaseGrid, bytes_per_point: int, what: str) -> None:
    """BudgetError where a route holding `bytes_per_point` a lattice point passes the budget."""
    n = grid.points_per_axis
    _check_dense_budget(bytes_per_point * n * n, f"{what} on {_count(n)} x {_count(n)} points")


@dataclass(frozen=True, eq=False)
class QuasiDistribution:
    """Real samples of one distribution kind on a PhaseGrid."""

    grid: PhaseGrid
    kind: str
    values: np.ndarray
    source_label: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"kind must be one of {KINDS}, got {self.kind!r}")
        vals = np.array(self.values, dtype=np.float64, order="C")
        n = self.grid.points_per_axis
        if vals.shape != (n, n):
            raise ValidationError(
                f"values shape {vals.shape} does not match grid ({n}, {n})")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("distribution contains non-finite values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class GaussianP:
    """Closed-form P of a thermal state: (weight/nbar) exp(-|a|^2/nbar)."""

    nbar: float
    weight: float = 1.0

    def value_at(self, alpha: complex) -> float:
        if self.nbar <= 0.0:
            raise SingularPError(
                "P is a delta distribution at nbar=0; no function values exist")
        y = abs(complex(alpha)) ** 2
        return self.weight * math.exp(-y / self.nbar) / self.nbar


@dataclass(frozen=True)
class NegativityReport:
    min_value: float
    negative_volume: float


def _real_guard(value: complex, what: str) -> float:
    if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
        raise ValidationError(f"{what} of a Hermitian operator has imaginary "
                              f"part {value.imag:.3e}")
    return float(value.real)


def q_at(x, alpha: complex) -> float:
    """<alpha| X |alpha> from the exact first-dim coherent amplitudes.

    The amplitudes are the exact projection of |alpha> onto the truncated
    space; no tail gate is applied here, so the value degrades gracefully to
    0 far outside the represented region instead of refusing.
    """
    mat = _as_operator(x).matrix
    amps = coherent_amplitudes(alpha, mat.shape[0])
    val = complex(amps.conj() @ mat @ amps)
    return _real_guard(val, "Husimi value")


def w_at(x, alpha: complex) -> float:
    """Tr[X pi(alpha)] with the parity kernel of `fock.displaced_parity`."""
    mat = _as_operator(x).matrix
    kernel = displaced_parity(alpha, mat.shape[0]).matrix
    val = complex(np.sum(mat * kernel.T))
    return _real_guard(val, "Wigner value")


def w_char_at(x, alpha: complex, betagrid: PhaseGrid) -> float:
    """Wigner value by quadrature of the characteristic function.

    Independent of `w_at`: sums Tr[X D(beta)] from the Hermite-Gauss route
    against the phase exp(alpha beta* - alpha* beta) over `betagrid`, one
    axis at a time (`_char_quadrature`): O(K n + K^2) work for K Hermite
    levels and n points an axis, and no beta lattice.  The grid may reach
    |Re beta| and |Im beta| up to 2 W_REACH (37.63).  The trapezoid sum on
    spacing h returns W made periodic with period pi/h, so |Re alpha| and
    |Im alpha| must stay below pi/(2h); a point at or past it raises
    ValidationError.  The grid must enclose the characteristic function's
    support: the largest |Tr[X D(beta)]| on the boundary ring, read from the
    grid's four edge lines alone, must stay below 1e-3, a gate tuned to the
    ~5e-3 accuracy this quadrature is used for.
    """
    mat = _as_operator(x).matrix
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValidationError(f"Wigner point alpha must be finite, got {alpha}")
    limit = 0.5 * math.pi / betagrid.spacing
    if max(abs(alpha.real), abs(alpha.imag)) >= limit:
        raise ValidationError(
            f"a beta grid of spacing {betagrid.spacing:g} returns W made periodic "
            f"with period pi/h; |Re alpha| and |Im alpha| must stay below "
            f"pi/(2h) = {limit:.6g}, got {alpha}")
    val, edge = _char_quadrature(mat, alpha, betagrid)
    tolerance = 1e-3
    if edge > tolerance:
        raise GridTooSmallError(
            f"characteristic function is {edge:.3e} at the beta-grid boundary, "
            f"above {tolerance:g}; enlarge the grid",
            boundary_value=edge, tolerance=tolerance)
    return _real_guard(val, "Wigner quadrature value")


def p_thermal_at(nbar: float, alpha: complex) -> float:
    """Closed-form thermal P value; nbar = 0 is a delta and raises."""
    return GaussianP(float(nbar)).value_at(alpha)


def recognize_gaussian_p(x) -> GaussianP | None:
    """Detect a thermal-form matrix (diagonal, geometric) and return its P.

    Returns None when the matrix is not of that form: an off-diagonal or
    imaginary entry above GAUSSIAN_DIAG_TOLERANCE, or a diagonal that
    leaves its geometric fit by more than GAUSSIAN_RATIO_TOLERANCE.  A
    recognized q -> 0 (vacuum-like) case is the delta limit and maps to
    GaussianP(0), whose evaluation raises SingularPError.
    """
    mat = _as_operator(x).matrix
    dim = mat.shape[0]
    off = mat - np.diag(np.diagonal(mat))
    if float(np.max(np.abs(off))) > GAUSSIAN_DIAG_TOLERANCE:
        return None
    diag = np.diagonal(mat).real
    if float(np.max(np.abs(np.diagonal(mat).imag))) > GAUSSIAN_DIAG_TOLERANCE:
        return None
    if diag[0] <= 0.0:
        return None
    if dim == 1:
        return GaussianP(0.0, weight=float(diag[0]))
    q = diag[1] / diag[0]
    if not 0.0 <= q < 1.0:
        return None
    expected = diag[0] * q ** np.arange(dim)
    if float(np.max(np.abs(diag - expected))) > GAUSSIAN_RATIO_TOLERANCE:
        return None
    weight = float(diag[0] / (1.0 - q))  # total geometric mass
    nbar = float(q / (1.0 - q))
    return GaussianP(nbar, weight=weight)


def _radial_sums(mat: np.ndarray, y: np.ndarray):
    """Yield (e, [S_e; L_e]) for e from X's highest live offset down to 0.

    S_e = sum_m X[m, m+e] R_e[m](y) and L_e = sum_m X[m+e, m] R_e[m](y) at
    each radius y = |alpha|^2, one real GEMM against the real radial rows
    R_e[m] = A[m] A[m+e], A[k] = |<k|alpha>| = e^(-y/2) y^(k/2)/sqrt(k!).
    A dead offset (both diagonals at or below LIVE_TOLERANCE of max(1,
    max|X|), `fock._live_floor`) yields None; L_0 repeats S_0.
    """
    dim = mat.shape[0]
    # the rows buffer, and beside it the amplitudes
    _check_dense_budget(16 * dim * y.size, f"Q radial rows of {dim} levels at {y.size} radii")
    rows = np.empty((dim, y.size))
    amps = np.empty((dim, y.size))
    amps[0] = np.exp(-0.5 * y)
    for k in range(1, dim):
        amps[k] = amps[k - 1] * np.sqrt(y / k)
    mag = np.abs(mat)
    floor = _live_floor(mat)
    alive = {e for e in range(dim)
             if max(mag.diagonal(e).max(), mag.diagonal(-e).max()) > floor}
    for e in range(max(alive, default=-1), -1, -1):
        if e not in alive:
            yield e, None
            continue
        r = np.multiply(amps[:dim - e], amps[e:], out=rows[:dim - e])
        diags = np.stack([np.diagonal(mat, e), np.diagonal(mat, -e)])
        sums = np.concatenate([diags.real, diags.imag]) @ r
        yield e, sums[:2] + 1j * sums[2:]


def _harmonic_fold(mat: np.ndarray, points) -> np.ndarray:
    """<alpha|X|alpha> at every point.

    It is sum_e u^e S_e(y) + u*^e L_e(y), u = point/|point| (Cahill &
    Glauber, Phys. Rev. 177, 1857).  S and L come once per distinct y =
    |point|^2; the phases are folded in by Horner's rule, from the highest
    live offset e down.
    """
    points = np.asarray(points, dtype=np.complex128)
    flat = points.ravel()
    y_pts = np.abs(flat) ** 2
    y, inv = np.unique(y_pts, return_inverse=True)
    # step = [u; u*]; u = 0 at the origin, where every e > 0 term vanishes
    step = np.zeros((2, flat.size), dtype=np.complex128)
    np.divide(flat, np.sqrt(y_pts), out=step[0], where=y_pts > 0.0)
    np.conjugate(step[0], out=step[1])
    acc = np.zeros((2, flat.size), dtype=np.complex128)
    gathered = np.empty(flat.size, dtype=np.complex128)
    for e, sums in _radial_sums(mat, y):
        if sums is not None:
            for half in (0, 1) if e else (0,):  # L_0 is S_0 again
                acc[half] += np.take(sums[half], inv, out=gathered)
        if e:
            acc *= step
    return (acc[0] + acc[1]).reshape(points.shape)


def sample(x, kind: str, grid: PhaseGrid) -> QuasiDistribution:
    """Evaluate one distribution of X on every grid point.

    For density inputs two invariants are enforced: Q stays within
    [-1e-10, trace + 1e-10], and the grid quadrature reproduces the trace
    within GRID_TOLERANCE (raising GridTooSmallError otherwise).  W is
    `sample_wigner` of a batch of one.  P is available only where X itself
    has a closed form: the thermal form `recognize_gaussian_p` finds in the
    matrix; anything else raises SingularPError.
    """
    if kind not in KINDS:
        raise ValidationError(f"kind must be one of {KINDS}, got {kind!r}")
    if kind == "W":
        (dist,) = sample_wigner([x], grid)
        return dist
    op = _as_operator(x)
    # peaks measured at n = 801: Q 137-140 bytes a point (152 holds every
    # radius distinct), P 41
    _check_grid_budget(grid, 152 if kind == "Q" else 48, f"{kind} samples")
    alphas = grid.alphas()
    if kind == "Q":
        vals = _harmonic_fold(_live(op.matrix), alphas)
        _check_real("Q", vals.imag)
        vals = vals.real
    else:
        form = recognize_gaussian_p(op)
        if form is None:
            raise SingularPError(
                "no closed-form P available for this operator; its P "
                "distribution is singular or not a recognized Gaussian form")
        if form.nbar <= 0.0:
            raise SingularPError(
                "P is a delta distribution at nbar=0; sample W or Q instead")
        y = np.abs(alphas) ** 2
        vals = form.weight * np.exp(-y / form.nbar) / form.nbar
    return _distribution(x, op, kind, grid, vals)


def sample_wigner(xs, grid: PhaseGrid) -> list:
    """W of every operator in the sequence `xs` on one grid, one QuasiDistribution each.

    W(alpha) = 2 sqrt(pi) sum_ab C[a, b] psi_a(2 Re alpha) psi_b(2 Im alpha),
    two GEMMs per operator over the `_hermite_terms` at scale 2.  Each
    operator is checked as `sample` checks it.
    """
    ops = [_as_operator(x) for x in xs]
    # 8 bytes a point for each kept sample, 32 for one operator's working arrays
    _check_grid_budget(grid, 8 * len(ops) + 32, f"W of a batch of {len(ops)}")
    coeffs, re_rows, im_rows, _ = _hermite_terms([op.matrix for op in ops], grid, 2.0)
    out = []
    for x, op, c in zip(xs, ops, coeffs):
        # Re W and Im W, over 2 sqrt(pi), each computed as it is read
        vals = re_rows[:c.shape[1]].T @ c @ im_rows[:c.shape[1]]
        _check_real("W", vals[1])
        out.append(_distribution(x, op, "W", grid, (2.0 * math.sqrt(math.pi)) * vals[0]))
    return out


def _char_quadrature(mat: np.ndarray, alpha: complex, grid: PhaseGrid):
    """Sum of Tr[X D(beta)] e^(alpha beta* - alpha* beta) h^2/pi over the grid,
    and the largest |Tr[X D(beta)]| on its boundary ring.

    Tr[X D(beta)] = W_(Pi X)(beta/2) / 2 = sqrt(pi) Psi_re^T C Psi_im, with C
    of Pi X and psi at scale 1.  The phase is f(Re beta) g(Im beta), f =
    e^(2i Im alpha Re beta) and g = e^(-2i Re alpha Im beta), so the sum is
    sqrt(pi) (Psi_re f)^T C (Psi_im g) h^2/pi, and the ring is the first and
    last grid line along each axis.
    """
    parity = (-1.0) ** np.arange(mat.shape[0])[:, None]
    (c,), re_rows, im_rows, (x, y) = _hermite_terms([mat * parity], grid, 1.0)
    re_rows, im_rows = re_rows[:c.shape[1]], im_rows[:c.shape[1]]
    ends = [0, -1]
    # real and imaginary parts along the two Re beta lines, then the two Im beta lines
    lines = (re_rows[:, ends].T @ c @ im_rows, re_rows.T @ (c @ im_rows[:, ends]))
    root = math.sqrt(math.pi)
    edge = root * max(float(np.max(np.hypot(*parts))) for parts in lines)
    f, g = np.exp(2j * alpha.imag * x), np.exp(-2j * alpha.real * y)
    total = (re_rows @ f) @ (c[0] + 1j * c[1]) @ (im_rows @ g)
    return complex(total) * (root * grid.spacing**2 / math.pi), edge


def _hermite_terms(mats: list, grid: PhaseGrid, scale: float):
    """C of each X, and psi_k at scale Re alpha and at scale Im alpha.

    Returns the `_mode_coefficients` of the trimmed Xs, the two axes' Hermite
    rows, shape (2 dim - 1, n) with dim the largest trimmed X's, and the two
    axes themselves; one `_mode_coefficients` pass serves every X.
    psi_0(t) is a normal float only for |t| <= 2 W_REACH: a grid past
    2 W_REACH / scale along either axis raises ValidationError before
    any Hermite row is computed.
    """
    mats = [_live(mat) for mat in mats]
    dim = max((mat.shape[0] for mat in mats), default=1)
    count = 2 * dim - 1
    n = grid.points_per_axis
    # the stacked inputs and C (16 bytes an entry), both axes' Hermite rows and
    # the widest block; checked before the axes are made
    _check_dense_budget(
        16 * len(mats) * (dim * dim + count * count) + 16 * count * n + 8 * dim * dim,
        f"{len(mats)} Hermite sums of {dim} levels on {_count(n)} x {_count(n)} points")
    off = grid.axis_offsets()
    axes = (grid.center.real + off, grid.center.imag + off)
    reach = max(float(np.max(np.abs(axis))) for axis in axes)
    limit = 2.0 * W_REACH / scale
    if reach > limit:
        raise ValidationError(
            f"this route samples |Re alpha| and |Im alpha| up to {limit:.2f}; this "
            f"grid reaches {reach:.6g}")
    coeffs = _mode_coefficients(mats, dim)
    re_rows, im_rows = (_hermite_rows(scale * axis, count) for axis in axes)
    return coeffs, re_rows, im_rows, axes


def _hermite_rows(t: np.ndarray, count: int) -> np.ndarray:
    """psi_k(t) for 0 <= k < count, the normalised Hermite functions.

    The three-term recurrence psi_(k+1) = sqrt(2/(k+1)) t psi_k -
    sqrt(k/(k+1)) psi_(k-1) never leaves |psi| <= 1.09 pi^(-1/4).
    """
    rows = np.empty((count, t.size))
    rows[0] = math.pi**-0.25 * np.exp(-0.5 * t * t)
    for k in range(count - 1):
        np.multiply(t, math.sqrt(2.0 / (k + 1)), out=rows[k + 1])
        rows[k + 1] *= rows[k]
        if k:
            rows[k + 1] -= math.sqrt(k / (k + 1)) * rows[k - 1]
    return rows


def _beamsplitter_blocks(dim: int):
    """Yield B_N for N = 0 .. 2 dim - 2, keeping its columns N - dim < m < dim.

    B_N is the 50:50 beamsplitter on the N-photon block: its column m is
    |m, N - m> in the number basis of the modes u, v = (1 +- 2)/sqrt(2).
    Each block comes from the last by the coupling step |m, n> = (sqrt(m)
    a1^dag |m-1, n> + sqrt(n) a2^dag |m, n-1>) / N, a1,2^dag = (au^dag +-
    av^dag)/sqrt(2), whose coefficients are bounded (Risbo, J. Geodesy 70,
    383); the ladder step a1^dag |m-1, n> / sqrt(m) is not stable.  Columns
    outside the kept range would pair with levels at or past dim.
    """
    roots = np.sqrt(np.arange(2 * dim - 1))
    block = np.ones((1, 1))
    yield block
    for n in range(1, 2 * dim - 1):
        # the last block's columns lo - 1 .. hi, zero where it has none
        prev = np.zeros((n, block.shape[1] + 2))
        prev[:, 1:-1] = block
        m, s = np.arange(max(0, n - dim + 1), min(n, dim - 1) + 1), int(n >= dim)
        up = prev[:, s:s + m.size] * roots[m]  # sqrt(m) |m-1, n-m>
        down = prev[:, s + 1:s + 1 + m.size] * roots[n - m]  # sqrt(n-m) |m, n-m-1>
        block = np.zeros((n + 1, m.size))
        block[1:] += roots[1:n + 1, None] * (up + down)  # au^dag
        block[:n] += roots[n:0:-1, None] * (up - down)  # av^dag
        block *= 1.0 / (n * math.sqrt(2.0))
        yield block


_MINUS_I_POWERS = np.array([1.0, -1j, -1.0, 1j])


def _mode_coefficients(mats: list, dim: int) -> list:
    """C[a, b] = (-i)^b sum_m B_N[a, m] X[m, N - m], N = a + b, for each X.

    Each C comes as its real and imaginary parts, shape (2, K, K) with K =
    2 live - 1: X's antidiagonals, hence C, vanish past N = 2 (live - 1).
    One pass over `_beamsplitter_blocks` serves every X.
    """
    stack = np.zeros((len(mats), dim, dim), dtype=np.complex128)
    for x, mat in zip(stack, mats):
        x[:mat.shape[0], :mat.shape[0]] = mat
    flipped = stack[:, :, ::-1]  # the antidiagonal N of X is a diagonal of its flip
    coeffs = [np.zeros((2,) + (2 * mat.shape[0] - 1,) * 2) for mat in mats]
    for n, block in enumerate(_beamsplitter_blocks(dim)):
        anti = np.diagonal(flipped, dim - 1 - n, axis1=1, axis2=2)  # X[m, n - m]
        sums = np.concatenate([anti.real, anti.imag]) @ block.T
        a = np.arange(n + 1)
        phased = (sums[:len(mats)] + 1j * sums[len(mats):]) * _MINUS_I_POWERS[(n - a) % 4]
        for c, re, im in zip(coeffs, phased.real, phased.imag):
            if n < c.shape[1]:
                c[:, a, n - a] = re, im
    return coeffs


def _check_real(kind: str, imag: np.ndarray) -> None:
    worst = float(np.max(np.abs(imag)))
    if worst > 1e-9:
        raise ValidationError(f"sampled {kind} values carry imaginary part {worst:.3e}")


def _distribution(x, op, kind: str, grid: PhaseGrid, vals) -> QuasiDistribution:
    """Real samples of X, held to the invariants `sample` promises a state."""
    if isinstance(x, DensityOperator):
        trace = float(np.trace(op.matrix).real)
        if kind == "Q":
            lo, hi = float(vals.min()), float(vals.max())
            if lo < -1e-10 or hi > trace + 1e-10:
                raise ValidationError(
                    f"Husimi samples outside [0, {trace:.6g}]: min {lo:.3e}, "
                    f"max {hi:.3e}")
        _check_quadrature(vals, grid, kind, trace)
    return QuasiDistribution(grid=grid, kind=kind, values=vals, source_label=op.label)


def _check_quadrature(values: np.ndarray, grid: PhaseGrid, kind: str, target: float):
    total = float(values.sum() * grid.spacing**2 / math.pi)
    if abs(total - target) > GRID_TOLERANCE:
        raise GridTooSmallError(
            f"grid quadrature of {kind} gives {total:.6g}, trace is "
            f"{target:.6g}; enlarge or refine the grid",
            boundary_value=abs(total - target), tolerance=GRID_TOLERANCE)


_SMOOTHED_KIND = {("P", 0.5): "W", ("W", 0.5): "Q", ("P", 1.0): "Q"}


def weierstrass(dist: QuasiDistribution, t: float) -> QuasiDistribution:
    """Gaussian smoothing (1/t) integral of exp(-|a-b|^2/t) on the same grid.

    Requires the source to have decayed below 1e-8 on its boundary ring,
    since mass outside the grid is silently lost.  The kernel factorizes
    over axes, so the transform is two matrix products.
    """
    t = float(t)
    if t <= 0.0:
        raise ValidationError(f"smoothing variance must be positive, got {t}")
    # the mask, kernel, products and copy: 25 bytes a point measured at n = 801
    _check_grid_budget(dist.grid, 32, "Gaussian smoothing")
    tolerance = 1e-8
    edge = float(np.max(np.abs(dist.values[dist.grid.boundary_mask()])))
    if edge > tolerance:
        raise GridTooSmallError(
            f"source is {edge:.3e} at the grid boundary, above "
            f"{tolerance:g}; enlarge the grid before smoothing",
            boundary_value=edge, tolerance=tolerance)
    off = dist.grid.axis_offsets()
    kernel = np.exp(-np.subtract.outer(off, off) ** 2 / t)
    h = dist.grid.spacing
    out = (h * h / (math.pi * t)) * (kernel @ dist.values @ kernel.T)
    kind = _SMOOTHED_KIND.get((dist.kind, t), dist.kind)
    label = f"{dist.source_label}*gauss({t})" if dist.source_label else f"*gauss({t})"
    return QuasiDistribution(grid=dist.grid, kind=kind, values=out, source_label=label)


def integrate(dist: QuasiDistribution) -> float:
    """Grid quadrature with the d^2alpha/pi measure."""
    h = dist.grid.spacing
    return float(dist.values.sum() * h * h / math.pi)


def negativity(dist: QuasiDistribution) -> NegativityReport:
    """Most negative sample and total negative quadrature volume."""
    h = dist.grid.spacing
    neg = np.minimum(dist.values, 0.0)
    return NegativityReport(
        min_value=float(dist.values.min()),
        negative_volume=float(-neg.sum() * h * h / math.pi),
    )


def distribution_to_csv(dist: QuasiDistribution) -> str:
    """Row-major CSV: re_alpha, im_alpha, value with repr-exact floats.

    Re alpha is constant along a lattice row and Im alpha down a column, so
    each axis float is formatted once and its string shared by every line
    that carries it: an n x n grid costs n^2 + 2n reprs instead of 3 n^2.
    Values become Python floats one row at a time, so only n of them are
    alive at once.
    """
    # the lattice, and each line (three reprs of <= 24 characters) twice
    _check_grid_budget(dist.grid, 16 + 2 * 75, "CSV text")
    alphas = dist.grid.alphas()
    res = [f"{re!r}," for re in alphas[:, 0].real.tolist()]
    ims = [f"{im!r}," for im in alphas[0].imag.tolist()]
    rows = ["".join([f"{re}{im}{v!r}\n" for im, v in zip(ims, vals.tolist())])
            for re, vals in zip(res, dist.values)]
    return "re_alpha,im_alpha,value\n" + "".join(rows)
