"""Truncated Fock-space operators and standard single-mode constructions.

Everything in this package works on an N-level truncation of the oscillator
Hilbert space.  A matrix X represents the number-basis block <m|X|n> for
m, n < N.  Truncation is never silent: constructors that can estimate their
own tail mass (coherent, thermal) either stay within the tail tolerance or
raise TruncationError with the dimension that would suffice (BudgetError
when no dimension within the dense budget would).  The displacement here
and the channel dilations' squeezer and beamsplitter have generators that
are real tridiagonal up to a diagonal phase; one helper,
`_tridiagonal_expm_rows`, exponentiates all three, each on a register
that `_required_dim` sizes to leave at most ULP_TAIL.

Conventions: the annihilation operator has sqrt(n) on the first superdiagonal,
a[n-1, n] = sqrt(n); the displaced parity operator carries the factor 2,
pi(alpha) = 2 D(alpha) (-1)^n D(alpha)^dag, so its phase-space expectation
Tr[X pi(alpha)] is the Wigner function with vacuum peak 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from decimal import Decimal

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammainc

from .errors import BudgetError, InvalidDimensionError, TruncationError, ValidationError

__all__ = [
    "DENSE_BUDGET_BYTES",
    "HERMITIAN_TOLERANCE",
    "LIVE_TOLERANCE",
    "PSD_TOLERANCE",
    "TAIL_TOLERANCE",
    "TRACE_TOLERANCE",
    "TailReport",
    "TruncatedOperator",
    "DensityOperator",
    "fock_state",
    "coherent_amplitudes",
    "coherent_tail",
    "coherent_state",
    "displacement_matrix",
    "thermal_state",
    "displaced_parity",
    "random_density",
    "as_density",
    "mean_photon",
    "trace_distance",
    "fidelity",
    "embed",
    "crop",
    "trim_dim",
    "operator_to_json",
    "operator_from_json",
]

# The largest dense array whose size a request may set; checked before the
# array is allocated.
DENSE_BUDGET_BYTES = 1 << 30

# State tolerances.  Only the trace one has a per-call override
# (`DensityOperator.trace_tolerance`); the tail, Hermitian and PSD ones are
# fixed.
HERMITIAN_TOLERANCE = 1e-12
PSD_TOLERANCE = 1e-10
TAIL_TOLERANCE = 1e-8
TRACE_TOLERANCE = 1e-8
# Error a register's cut may leave in a unit trace or a unitary: one ulp of 1.0
ULP_TAIL = float(np.finfo(float).eps)
# An entry at or below this fraction of max(1, max|X|) is dead: every
# truncation of a live block (`_live`) and every dead-diagonal skip drops it.
LIVE_TOLERANCE = 1e-16


def _as_square_complex(matrix) -> np.ndarray:
    arr = np.array(matrix, dtype=np.complex128, order="C")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"operator matrix must be square, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise InvalidDimensionError("operator dimension must be at least 1")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValidationError("operator matrix contains non-finite entries")
    arr.setflags(write=False)
    return arr


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Largest absolute entry of X - X^dag."""
    return float(np.max(np.abs(matrix - matrix.conj().T))) if matrix.size else 0.0


@dataclass(frozen=True)
class TailReport:
    """How much of a construction fell outside the truncated space."""

    input_dim: int
    work_dim: int
    tail_mass: float


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """A number-basis matrix block on the first `dim` Fock levels.

    The matrix is stored read-only.
    """

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_square_complex(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def relabeled(self, label: str) -> "TruncatedOperator":
        return replace(self, label=label)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A TruncatedOperator validated as a physical state.

    Hermitian within HERMITIAN_TOLERANCE, unit trace within
    `trace_tolerance` (truncation may shave tail mass below it), and
    positive semidefinite within PSD_TOLERANCE.
    """

    op: TruncatedOperator
    trace_tolerance: float = field(default=TRACE_TOLERANCE, repr=False)

    def __post_init__(self):
        mat = self.op.matrix
        defect = hermiticity_defect(mat)
        if defect > HERMITIAN_TOLERANCE * max(1.0, float(np.max(np.abs(mat)))):
            raise ValidationError(f"density matrix not Hermitian: defect {defect:.3e}")
        tr = np.trace(mat)
        if abs(tr - 1.0) > self.trace_tolerance:
            raise ValidationError(f"density matrix trace {tr:.12g} not within "
                                  f"{self.trace_tolerance:g} of 1")
        floor = float(np.min(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))))
        if floor < -PSD_TOLERANCE:
            raise ValidationError(f"density matrix has eigenvalue {floor:.3e} below "
                                  f"-{PSD_TOLERANCE:g}")

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def label(self) -> str:
        return self.op.label


def _check_dim(dim: int) -> int:
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise InvalidDimensionError(f"dimension must be a positive integer, got {dim!r}")
    dim = int(dim)
    _check_dense_budget(16 * dim**2, f"a {_count(dim)} x {_count(dim)} complex matrix")
    return dim


def fock_state(n: int, dim: int) -> DensityOperator:
    """Number-state projector |n><n|."""
    dim = _check_dim(dim)
    if not isinstance(n, (int, np.integer)) or n < 0 or n >= dim:
        raise InvalidDimensionError(f"fock level n={n!r} must satisfy 0 <= n < dim={dim}")
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[n, n] = 1.0
    return as_density(TruncatedOperator(mat, label=f"fock({n})"))


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Exact first-`dim` number-basis amplitudes of |alpha>.

    No tail check: the vector is the exact projection onto the truncated
    space, so its squared norm is 1 minus the Poisson tail mass.
    """
    dim = _check_dim(dim)
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValidationError(f"coherent amplitude alpha must be finite, got {alpha}")
    r = abs(alpha)
    amps = np.empty(dim, dtype=np.complex128)
    amps[0] = math.exp(-0.5 * (r * r))  # inf, where r ** 2 would raise OverflowError
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps


def coherent_tail(alpha: complex, dim: int) -> float:
    """Poisson tail mass of |alpha> beyond the first `dim` levels."""
    r = abs(complex(alpha))
    y = r * r  # inf, where r ** 2 would raise OverflowError
    if y == 0.0:
        return 0.0
    # sum_{n>=dim} e^-y y^n / n!  =  P(dim, y), the regularized lower gamma.
    return float(gammainc(dim, y))


def _required_dim(tail_at, tol: float, what: str) -> int:
    """Smallest dim with tail_at(dim) <= tol, for a decreasing tail_at.

    No dim past the dense budget can be built, so the search ends there.
    """
    lo, hi = 1, math.isqrt(DENSE_BUDGET_BYTES // 16)
    if tail_at(hi) > tol:
        _check_dense_budget(16 * (hi + 1) ** 2,
                            f"{what} needs over {hi} levels for tail tolerance {tol:g}, "
                            f"and a dim of {hi + 1}")
    while lo < hi:
        mid = (lo + hi) // 2
        if tail_at(mid) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return hi


def _check_tail(tail_at, dim: int, what: str) -> float:
    """tail_at(dim), the tail mass lost on `dim` levels; above TAIL_TOLERANCE,
    TruncationError with the dim `_required_dim` finds for the decreasing tail_at."""
    tail = tail_at(dim)
    if tail > TAIL_TOLERANCE:
        need = _required_dim(tail_at, TAIL_TOLERANCE, what)
        raise TruncationError(f"{what} loses tail mass {tail:.3e} at dim={dim}; dim={need} "
                              f"would satisfy tolerance {TAIL_TOLERANCE:g}",
                              tail_mass=tail, required_dim=need)
    return tail


def coherent_state(alpha: complex, dim: int) -> tuple[DensityOperator, TailReport]:
    """Coherent-state projector |alpha><alpha| and its truncation report."""
    dim = _check_dim(dim)
    alpha = complex(alpha)
    amps = coherent_amplitudes(alpha, dim)  # refuses a non-finite alpha
    tail = _check_tail(lambda n: coherent_tail(alpha, n), dim, f"coherent state alpha={alpha}")
    state = as_density(TruncatedOperator(np.outer(amps, amps.conj()), label=f"coherent({alpha})"),
                       trace_tolerance=max(TRACE_TOLERANCE, 2.0 * TAIL_TOLERANCE))
    return state, TailReport(input_dim=dim, work_dim=dim, tail_mass=tail)


def thermal_state(nbar: float, dim: int) -> DensityOperator:
    """Thermal state with mean photon number `nbar`; geometric number law."""
    dim = _check_dim(dim)
    nbar = float(nbar)
    if not 0.0 <= nbar < math.inf:
        raise ValidationError(f"thermal nbar must be finite and >= 0, got {nbar}")
    if nbar == 0.0:
        return fock_state(0, dim)
    q = nbar / (nbar + 1.0)
    # q rounds to 1 for nbar past ~1e16, so search rather than divide by log q
    _check_tail(lambda n: q**n, dim, f"thermal state nbar={nbar}")
    probs = (1.0 - q) * q ** np.arange(dim, dtype=np.float64)
    mat = np.diag(probs).astype(np.complex128)
    return as_density(TruncatedOperator(mat, label=f"thermal({nbar})"),
                      trace_tolerance=max(TRACE_TOLERANCE, 2.0 * TAIL_TOLERANCE))


def _tridiagonal_expm_rows(n: int, off, rows: int) -> np.ndarray:
    """First `rows` rows of exp(-iS), S the n-level real symmetric tridiagonal
    with zero diagonal and off-diagonal off(k) between sites k and k+1:
    S = V diag(w) V^T gives exp(-iS) = V diag(e^(-iw)) V^T, a symmetric matrix.
    The budget is checked before `off` allocates anything of length n."""
    _check_dense_budget(8 * n * n, f"a tridiagonal exponential of {n} levels")
    w, v = eigh_tridiagonal(np.zeros(n), off(np.arange(n - 1.0)))
    return (v[:rows] * np.exp(-1j * w)) @ v.T


def _displacement_register(beta: complex, rows: int) -> int:
    """Levels on which the first `rows` rows of D(beta) are exact to ULP_TAIL.

    Cutting the chain at n levels drops the coupling |beta| sqrt(n), so to
    first order (Duhamel) row m errs by at most |beta| sqrt(n) |<n|D|m>|,
    and |<n|D|m>| <= |beta|^k sqrt(n!/m!) / k!, k = n - m, by
    |L_m^(k)(x)| <= C(m+k, m) e^(x/2) (Abramowitz & Stegun 22.14.13).  A
    step up in m scales it by k / (|beta| sqrt(m+1)), below 1 only where the
    top row's bound exceeds 1, so below 1 the top row m = rows - 1 is the
    worst.  A step up in n scales that by |beta| (n+1) / (sqrt(n) (k+1)),
    which falls with n and is below 1 wherever the bound is.
    """
    r = abs(beta)
    if not math.isfinite(r):
        raise ValidationError(f"displacement radius {r} must be finite")

    def tail_at(n: int) -> float:
        if n < rows:
            return math.inf
        k = n - rows + 1
        log_bound = ((k + 1) * math.log(r) + 0.5 * math.log(n)
                     + 0.5 * (math.lgamma(n + 1) - math.lgamma(rows)) - math.lgamma(k + 1))
        # a bound past 1 says nothing more, and exp of it may overflow
        return math.exp(min(0.0, log_bound))

    return _required_dim(tail_at, ULP_TAIL, f"displacement |beta|={r} of {rows} rows")


def _displacement_rows(beta: complex, rows: int) -> np.ndarray:
    """First `rows` rows of D(beta) = exp(beta a^dag - beta* a) on
    `_displacement_register`'s levels; D(0) is exactly the identity.

    i(beta a^dag - beta* a) = P S P^dag with P = diag(e^(ik(arg beta + pi/2)))
    and S real symmetric tridiagonal with off-diagonal |beta| sqrt(k).
    """
    if beta == 0.0:
        return np.eye(rows, dtype=np.complex128)
    work = _displacement_register(beta, rows)
    e = _tridiagonal_expm_rows(work, lambda k: abs(beta) * np.sqrt(k + 1.0), rows)
    phase = np.exp(1j * np.arange(work) * (np.angle(beta) + 0.5 * math.pi))
    return phase[:rows, None] * e * phase.conj()


def displacement_matrix(beta: complex, dim: int) -> TruncatedOperator:
    """Displacement operator block, exact to ULP_TAIL (`_displacement_rows`)."""
    dim = _check_dim(dim)
    beta = complex(beta)
    return TruncatedOperator(_displacement_rows(beta, dim)[:, :dim],
                             label=f"displacement({beta})")


def displaced_parity(alpha: complex, dim: int) -> TruncatedOperator:
    """Displaced parity observable 2 D(alpha) (-1)^n D(alpha)^dag.

    Summed over the columns of D(alpha)'s first `dim` rows
    (`_displacement_rows`).  Its expectation in a state is the Wigner
    function at alpha (vacuum peak 2).  Not trace class: the truncated trace
    oscillates with dim and is reported as computed, never asserted.
    """
    dim = _check_dim(dim)
    alpha = complex(alpha)
    d = _displacement_rows(alpha, dim)
    signs = np.where(np.arange(d.shape[1]) % 2 == 0, 2.0, -2.0)
    if alpha == 0.0:  # D(0) is the identity, so this is the parity itself
        return TruncatedOperator(np.diag(signs).astype(np.complex128), label="parity(0)")
    block = (d * signs) @ d.conj().T
    block = 0.5 * (block + block.conj().T)  # exact operator is Hermitian
    return TruncatedOperator(block, label=f"parity({alpha})")


def random_density(
    dim: int, rank: int, support: int | None = None, rng: np.random.Generator | int | None = None
) -> DensityOperator:
    """Random rank-`rank` density matrix supported on the first `support` levels."""
    dim = _check_dim(dim)
    support = dim if support is None else int(support)
    if not 1 <= support <= dim:
        raise InvalidDimensionError(f"support {support} must lie in [1, dim={dim}]")
    if not 1 <= rank <= support:
        raise InvalidDimensionError(f"rank {rank} must lie in [1, support={support}]")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    g = gen.normal(size=(support, rank)) + 1j * gen.normal(size=(support, rank))
    q, _ = np.linalg.qr(g)
    w = gen.random(rank) + 0.1  # bounded away from zero so the rank is honest
    w /= w.sum()
    block = (q * w) @ q.conj().T
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[:support, :support] = block
    return as_density(TruncatedOperator(
        mat, label=f"random(rank={rank},support={support})"))


def as_density(op, **tolerances) -> DensityOperator:
    """Validate and wrap a matrix or TruncatedOperator as a state."""
    if isinstance(op, DensityOperator):
        return op
    if not isinstance(op, TruncatedOperator):
        op = TruncatedOperator(op)
    return DensityOperator(op, **tolerances)


def _as_operator(x) -> TruncatedOperator:
    """A state's operator, an operator itself, or a validated square matrix."""
    if isinstance(x, DensityOperator):
        return x.op
    return x if isinstance(x, TruncatedOperator) else TruncatedOperator(x)


def mean_photon(x) -> float:
    """Tr[a^dag a X]; real part, with the imaginary part required to be roundoff."""
    mat = _as_operator(x).matrix
    diag = np.diagonal(mat)
    value = np.sum(np.arange(mat.shape[0]) * diag)
    if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
        raise ValidationError(f"mean photon number has imaginary part {value.imag:.3e}")
    return float(value.real)


def trace_distance(x, y) -> float:
    """Half the trace norm of X - Y (operators embedded to a common dim).

    An exactly Hermitian difference takes its singular values as the
    absolute eigenvalues, from `eigvalsh`; any other goes through the SVD.
    """
    a, b = _as_operator(x).matrix, _as_operator(y).matrix
    n = max(a.shape[0], b.shape[0])
    diff = _embedded(a, n) - _embedded(b, n)
    if np.array_equal(diff, diff.conj().T):
        return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
    return 0.5 * float(np.sum(np.linalg.svd(diff, compute_uv=False)))


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(x, y) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(X) Y sqrt(X)))^2 for PSD inputs."""
    a, b = _as_operator(x).matrix, _as_operator(y).matrix
    n = max(a.shape[0], b.shape[0])
    a, b = _embedded(a, n), _embedded(b, n)
    root = _psd_sqrt(a)
    inner = root @ b @ root
    w = np.clip(np.linalg.eigvalsh(0.5 * (inner + inner.conj().T)), 0.0, None)
    return float(np.sum(np.sqrt(w)) ** 2)


def _embedded(mat: np.ndarray, dim: int) -> np.ndarray:
    if mat.shape[0] == dim:
        return mat
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[: mat.shape[0], : mat.shape[0]] = mat
    return out


def embed(op: TruncatedOperator, dim: int) -> TruncatedOperator:
    """Zero-pad an operator block (or a state's) up to `dim` levels."""
    dim = _check_dim(dim)
    op = _as_operator(op)
    if dim < op.dim:
        raise InvalidDimensionError(f"embed target {dim} below operator dim {op.dim}")
    return TruncatedOperator(_embedded(op.matrix, dim), label=op.label)


def crop(op: TruncatedOperator, dim: int) -> TruncatedOperator:
    """Keep the low `dim`-level block of an operator (or a state's)."""
    dim = _check_dim(dim)
    op = _as_operator(op)
    if dim > op.dim:
        raise InvalidDimensionError(f"crop target {dim} above operator dim {op.dim}")
    return TruncatedOperator(np.ascontiguousarray(op.matrix[:dim, :dim]), label=op.label)


def trim_dim(x, tol: float) -> int:
    """Smallest dim whose discarded rows and columns are all below the absolute `tol`."""
    mag = np.abs(_as_operator(x).matrix)
    live = np.nonzero(np.maximum(mag.max(axis=1), mag.max(axis=0)) > tol)[0]
    return int(live[-1]) + 1 if live.size else 1


def _live_floor(mat: np.ndarray) -> float:
    """LIVE_TOLERANCE of max(1, max|X|): an entry at or below it is dead."""
    return LIVE_TOLERANCE * max(1.0, float(np.max(np.abs(mat))))


def _live(mat: np.ndarray) -> np.ndarray:
    """The leading block of mat past which every row and column is dead; it
    keeps mat's scale (`_live_floor`), so trimming it again keeps it whole."""
    keep = trim_dim(mat, _live_floor(mat))
    return mat[:keep, :keep]


def operator_to_json(op: TruncatedOperator) -> str:
    """Serialize to the interchange form {dim, re, im, label}.

    Floats are emitted with repr (shortest exact round-trip), so
    load(save(X)) reproduces X bit for bit.
    """
    op = _as_operator(op)
    payload = {
        "dim": op.dim,
        "re": op.matrix.real.tolist(),
        "im": op.matrix.imag.tolist(),
        "label": op.label,
    }
    return json.dumps(payload)


def _json_number(value):
    """`value` itself, if it is a JSON number or nested lists of them.

    Any other leaf raises TypeError for the caller's handler: numpy and
    float() would read the string "0.5" as 0.5 and true / false as 1 / 0
    (bool is an int subclass, but type(True) is bool).  Each list's entry
    types are collected in one pass, not one call per leaf.
    """
    if isinstance(value, list):
        kinds = set(map(type, value))
        if kinds == {list}:
            for item in value:
                _json_number(item)
            return value
    else:
        kinds = {type(value)}
    if not kinds <= {int, float}:
        raise TypeError(f"expected numbers, got {sorted(k.__name__ for k in kinds)}")
    return value


def _count(n) -> str:
    """n as 1,234,567, or from 10^16 on as 1.235e+16.

    Decimal, not float(): a count from user input can pass the float range,
    and str() of an int past 4300 digits raises.
    """
    return f"{Decimal(n):.3e}" if n >= 10**16 else f"{n:,}"


def _check_dense_budget(nbytes: int, what: str) -> None:
    if nbytes > DENSE_BUDGET_BYTES:
        raise BudgetError(
            f"{what} needs {_count(nbytes)} bytes, over the dense budget of "
            f"{DENSE_BUDGET_BYTES:,} bytes",
            required_bytes=nbytes, budget_bytes=DENSE_BUDGET_BYTES)


def operator_from_json(text: str | bytes) -> TruncatedOperator:
    """Parse the interchange form produced by operator_to_json, from text or bytes."""
    try:
        payload = json.loads(text)
    except ValueError as exc:  # bad JSON or UTF-8, or an int literal past 4300 digits
        raise ValidationError(f"operator JSON is malformed: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError("operator JSON is nested too deeply") from exc
    if not isinstance(payload, dict):
        raise ValidationError("operator JSON must be an object")
    for key in ("dim", "re", "im"):
        if key not in payload:
            raise ValidationError(f"operator JSON missing key {key!r}")
    dim = payload["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValidationError(f"operator JSON dim must be an integer, got a {type(dim).__name__}")
    if dim < 1:
        raise ValidationError("operator JSON dim must be positive")
    try:
        re = np.asarray(_json_number(payload["re"]), dtype=np.float64)
        im = np.asarray(_json_number(payload["im"]), dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # incl. ints beyond float range
        raise ValidationError(f"operator JSON parts are not real matrices: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValidationError(
            f"operator JSON parts have shapes {re.shape} and {im.shape}, "
            f"expected {_count(dim)} x {_count(dim)}")
    # set the parts, not re + 1j im: that sum turns a -0.0 real part into +0.0
    mat = np.empty((dim, dim), dtype=np.complex128)
    mat.real, mat.imag = re, im
    return TruncatedOperator(mat, label=str(payload.get("label", "")))
