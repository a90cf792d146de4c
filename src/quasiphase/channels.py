"""Quantum-limited amplifier and attenuator channels on truncated operators.

Channel specs are small frozen dataclasses (hence hashable and cacheable)
with a JSON form for the CLI.  Composition applies right to left, so
Compose((Attenuator(1/2), Amplifier(2))) amplifies first; that particular
composition is the canonical smoothing channel returned by
`smoothing_channel()`: it shifts P -> W -> Q one rung per application.

Each channel has two independent realizations that the test suite plays
against each other:

* a closed-form number-basis kernel (`amplifier_apply`,
  `attenuator_apply`): each Kraus operator is a weighted shift.  One
  factorised formula (`_toeplitz_factors`) holds the weights: on each
  diagonal a shell's weight product is a row factor times a Toeplitz
  factor B[j] times a column factor, so two real GEMMs per tile of levels
  apply every shell to every diagonal at once (`_toeplitz_apply`);
* a physical dilation (`amplifier_dilated`, `attenuator_dilated`): a
  two-mode squeezer/beamsplitter acting on a vacuum ancilla, exponentiated
  on the conserved chain of each input level |m,0>, with the ancilla
  traced out afterwards.

Trace bookkeeping: every truncation here keeps the live block, the levels
up to the last row or column holding an entry above LIVE_TOLERANCE (1e-16)
of max(1, max|X|) (`fock._live`).  Amplification grows support, so
outputs default to the fewest levels at which the live block leaks at
most ULP_TAIL of a unit trace (`_amplifier_grown_dim`); a level trimmed
from the live block can leak what it holds.  The input's type decides
what an explicit output dim may cut: a DensityOperator that loses more
than TRACE_TOLERANCE of its trace raises TraceLeakError, while a bare
operator, such as the parity operator whose truncated trace legitimately
moves, is cropped as asked.  The squeezer's ancilla holds the same
growth; a first-order bound on the population its cut stops above
TAIL_TOLERANCE raises AncillaTailError.

Both atoms are phase covariant: they map the diagonal <m|X|m+e> onto the
same diagonal.  At a fixed dim every channel built from them is therefore
one small real transfer block per offset e (`superoperator_of`), whose
entries are the kernels' weight products from the same factors, and the
regularized inverse (`inverse_apply`) filters each diagonal through its
block's SVD.  The blocks, U^T and V are cached per (spec, dim) as
zero-padded (dim, dim, dim) stacks beside the singular values, 3 dim^3 +
dim^2 reals shared by every epsilon, so one matmul per sign of the offset
maps every diagonal at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view
from scipy.special import digamma, gammaln, nbdtrc, roots_laguerre

from .errors import AncillaTailError, TraceLeakError, ValidationError
from .fock import (
    TAIL_TOLERANCE,
    TRACE_TOLERANCE,
    ULP_TAIL,
    DensityOperator,
    TruncatedOperator,
    _as_operator,
    _check_dense_budget,
    _check_dim,
    _count,
    _json_number,
    _live,
    _required_dim,
    _tridiagonal_expm_rows,
    hermiticity_defect,
    trace_distance,
)
from .phasespace import _radial_sums

__all__ = [
    "Amplifier",
    "Attenuator",
    "Compose",
    "AdditiveNoise",
    "Inverse",
    "ChannelSpec",
    "smoothing_channel",
    "additive_noise_expansion",
    "spec_to_json",
    "spec_from_json",
    "amplifier_apply",
    "attenuator_apply",
    "attenuator_kraus",
    "amplifier_dilated",
    "attenuator_dilated",
    "apply",
    "coherent_projection",
    "KrausSet",
    "Superoperator",
    "superoperator_of",
    "inverse_apply",
    "InverseResult",
    "channel_diagnostics",
]

KRAUS_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Amplifier:
    kappa: float

    def __post_init__(self):
        if not 1.0 <= self.kappa < math.inf:
            raise ValidationError(f"amplifier gain must be finite and >= 1, got {self.kappa}")
        object.__setattr__(self, "kappa", float(self.kappa))


@dataclass(frozen=True)
class Attenuator:
    transmissivity: float

    def __post_init__(self):
        if not 0.0 <= self.transmissivity <= 1.0:
            raise ValidationError(
                f"attenuator transmissivity must lie in [0, 1], got {self.transmissivity}")
        object.__setattr__(self, "transmissivity", float(self.transmissivity))


@dataclass(frozen=True)
class Compose:
    """Channels applied right to left: the last item acts first."""

    items: tuple

    def __post_init__(self):
        items = tuple(self.items)
        if not items:
            raise ValidationError("compose needs at least one channel")
        for item in items:
            if not isinstance(item, (Amplifier, Attenuator, Compose, AdditiveNoise, Inverse)):
                raise ValidationError(f"not a channel spec: {item!r}")
        object.__setattr__(self, "items", items)


@dataclass(frozen=True)
class AdditiveNoise:
    """Additive Gaussian noise of strength E >= 0 quanta."""

    noise: float

    def __post_init__(self):
        if not 0.0 <= self.noise < math.inf:
            raise ValidationError(f"noise strength must be finite and >= 0, got {self.noise}")
        object.__setattr__(self, "noise", float(self.noise))


@dataclass(frozen=True)
class Inverse:
    """Regularized inverse of a forward channel."""

    inner: "ChannelSpec"
    epsilon: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValidationError(
                f"inverse epsilon must be finite and positive, got {self.epsilon}")
        object.__setattr__(self, "epsilon", float(self.epsilon))


ChannelSpec = Union[Amplifier, Attenuator, Compose, AdditiveNoise, Inverse]


def smoothing_channel() -> Compose:
    """Amplify by 2, then attenuate by 1/2: one P -> W -> Q rung per pass."""
    return Compose((Attenuator(0.5), Amplifier(2.0)))


def additive_noise_expansion(spec: AdditiveNoise) -> Compose:
    """AdditiveNoise(E) as attenuate-by-1/(E+1) first, then amplify-by-(E+1).

    The order matters: this factor order adds exactly E quanta to the mean
    photon number; the reverse order adds only E/(E+1).
    """
    gain = spec.noise + 1.0
    return Compose((Amplifier(gain), Attenuator(1.0 / gain)))


def spec_to_json(spec: ChannelSpec) -> str:
    return json.dumps(_spec_payload(spec))


def _spec_payload(spec: ChannelSpec) -> dict:
    if isinstance(spec, Amplifier):
        return {"kind": "amplifier", "kappa": spec.kappa}
    if isinstance(spec, Attenuator):
        return {"kind": "attenuator", "lambda": spec.transmissivity}
    if isinstance(spec, Compose):
        return {"kind": "compose", "items": [_spec_payload(i) for i in spec.items]}
    if isinstance(spec, AdditiveNoise):
        return {"kind": "additive_noise", "noise": spec.noise}
    if isinstance(spec, Inverse):
        return {"kind": "inverse", "inner": _spec_payload(spec.inner),
                "epsilon": spec.epsilon}
    raise ValidationError(f"not a channel spec: {spec!r}")


def spec_from_json(text: str | bytes) -> ChannelSpec:
    """Parse the form spec_to_json writes, from text or bytes."""
    try:
        payload = json.loads(text)
    except ValueError as exc:  # bad JSON or UTF-8, or an int literal past 4300 digits
        raise ValidationError(f"channel JSON is malformed: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError("channel JSON is nested too deeply") from exc
    return _spec_from_payload(payload)


def _spec_from_payload(payload) -> ChannelSpec:
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ValidationError(f"channel spec needs a 'kind' key, got {payload!r}")
    kind = payload["kind"]
    try:
        if kind == "amplifier":
            return Amplifier(_json_number(payload["kappa"]))
        if kind == "attenuator":
            return Attenuator(_json_number(payload["lambda"]))
        if kind == "compose":
            return Compose(tuple(_spec_from_payload(p) for p in payload["items"]))
        if kind == "additive_noise":
            return AdditiveNoise(_json_number(payload["noise"]))
        if kind == "inverse":
            return Inverse(_spec_from_payload(payload["inner"]),
                           epsilon=_json_number(payload.get("epsilon", 1e-10)))
    except KeyError as exc:
        raise ValidationError(f"channel spec {kind!r} missing field {exc}") from exc
    except (TypeError, OverflowError) as exc:  # wrong JSON type, or an int beyond float range
        raise ValidationError(f"channel spec {kind!r} has a malformed field: {exc}") from exc
    raise ValidationError(f"unknown channel kind {kind!r}")


@lru_cache(maxsize=256)
def _amplifier_grown_dim(kappa: float, live: int) -> int:
    """Fewest output levels that leak at most ULP_TAIL of a unit trace on `live` levels.

    The amplifier moves level m up by a negative-binomial count of m + 1
    successes at probability 1/kappa, so the top live level m = live - 1
    has the heaviest tail, P(shift > dim - live) = nbdtrc(dim - live, live,
    1/kappa), and it bounds the trace leak of a unit trace on the first
    `live` levels.  A level trimmed above them can leak what it holds.
    `fock._required_dim` searches that tail.
    """
    def tail_at(dim: int) -> float:
        return 1.0 if dim < live else float(nbdtrc(dim - live, live, 1.0 / kappa))

    return _required_dim(tail_at, ULP_TAIL, f"amplifier({kappa}) of {live} live levels")


def _amplifier_default_dim(kappa: float, mat: np.ndarray) -> int:
    return mat.shape[0] if kappa == 1.0 else _amplifier_grown_dim(kappa, _live(mat).shape[0])


_TILE = 128  # output and input levels per GEMM tile


def _toeplitz_factors(atom, dim_in: int, dim_out: int) -> tuple:
    """log B[j], log c[q], log a[p] and the direction of one atom's kernel.

    The one formula for the atom's weights: both the kernel
    (`_toeplitz_apply`) and the transfer blocks (`_transfer_blocks`) read
    it.  On diagonal e, shell j's weight product factorises as
    w_j(i) w_j(i+e) = a[p] a[p+e] B[j] c[q] c[q+e] with input level q and
    output level p: the amplifier moves q up to p = q + j, so a[p] =
    sqrt(p!), B[j] = ((kappa-1)/kappa)^j / (kappa j!) and c[q] =
    kappa^(-q/2) / sqrt(q!); the attenuator moves q down to p = q - j, so
    a[p] = lam^(p/2) / sqrt(p!), B[j] = (1-lam)^j / j! and c[q] = sqrt(q!).
    Each weight is a probability's square root, so a product's summed log
    is <= 0: the factors can overflow, the products cannot.
    Returns (log_b, log_c, log_a, rising), rising meaning p >= q.
    """
    half_fact = 0.5 * gammaln(np.arange(max(dim_in, dim_out)) + 1.0)
    j = np.arange(max(dim_in, dim_out), dtype=np.float64)
    if isinstance(atom, Amplifier):
        kappa = atom.kappa
        log_b = j * math.log((kappa - 1.0) / kappa) - 2.0 * half_fact - math.log(kappa)
        log_c = -0.5 * math.log(kappa) * j[:dim_in] - half_fact[:dim_in]
        return log_b, log_c, half_fact[:dim_out], True
    lam = atom.transmissivity
    log_b = j * math.log(1.0 - lam) - 2.0 * half_fact
    log_a = 0.5 * math.log(lam) * j[:dim_out] - half_fact[:dim_out]
    return log_b, half_fact[:dim_in], log_a, False


def _skew(buf: np.ndarray, n: int) -> np.ndarray:
    """The [half, q, e] view of the entries q*(n+1) + e of each row of buf.

    buf is (2, n*n + n) complex: each half an n x n matrix in row-major
    order followed by n spare entries, so the view reads or writes entry
    (q, q+e) of each half.  Offsets past the edge (q + e >= n) wrap onto
    entry (q+1, q+e-n), below the diagonal, or reach the spare entries;
    no two view entries share a buffer entry.
    """
    return as_strided(buf, (2, n, n), (buf.strides[0], 16 * (n + 1), 16))


def _skewed_halves(mat: np.ndarray) -> np.ndarray:
    """skew[0, q, e] = mat[q, q+e] and skew[1, q, e] = mat[q+e, q], read only.

    Every diagonal of mat and of its transpose is a column of one strided
    view, without a copy per diagonal.  Entries with q + e >= n hold
    whatever the wrap reaches (`_skew`); a caller gives them zero weight.
    """
    n = mat.shape[0]
    src = np.zeros((2, n * n + n), dtype=np.complex128)
    src[0, :n * n] = mat.ravel()
    src[1, :n * n].reshape(n, n)[...] = mat.T
    skew = _skew(src, n)
    skew.flags.writeable = False
    return skew


def _diagonals(mat: np.ndarray) -> np.ndarray:
    """parts[half, e, q] = the skewed halves' entry (q, e), as (re, im) floats.

    Row e of half 0 is diagonal e of mat, mat[q, q+e], and of half 1 that
    of its transpose, mat[q+e, q], contiguous for the batched solves.
    """
    n = mat.shape[0]
    halves = np.ascontiguousarray(_skewed_halves(mat).transpose(0, 2, 1))
    return halves.view(np.float64).reshape(2, n, n, 2)


def _from_diagonals(parts: np.ndarray) -> np.ndarray:
    """Y with Y[q, q+e] = parts[0, e, q] and Y[q+e, q] = parts[1, e, q].

    The inverse of `_diagonals`, with the main diagonal read from half 0.
    Entries with q + e >= n must be zero: they land below the diagonal or
    in the spare entries (`_skew`), where adding zero is exact.
    """
    n = parts.shape[1]
    dst = np.zeros((2, n * n + n), dtype=np.complex128)
    _skew(dst, n)[...] = parts.view(np.complex128)[..., 0].transpose(0, 2, 1)
    upper, lower = (half[:n * n].reshape(n, n) for half in dst)
    np.fill_diagonal(lower, 0.0)
    return upper + lower.T


def _toeplitz_apply(mat: np.ndarray, dim_out: int, log_b: np.ndarray,
                    log_c: np.ndarray, log_a: np.ndarray,
                    rising: bool) -> np.ndarray:
    """out[p, p+e] = sum_q a[p] a[p+e] B[|p-q|] c[q] c[q+e] mat[q, q+e].

    q runs up to p when `rising` and from p on otherwise; the factors come
    from `_toeplitz_factors`.  Diagonal e of mat and of its transpose are
    columns of two skewed halves, so the offsets +e and -e share every
    weight, and each tile of at most _TILE output x _TILE input levels is
    two real GEMMs of one shape, one per half: the shared Toeplitz block
    B[|p-q|] against the float view of the diagonals scaled by c, with the
    rows then scaled by a.  One GEMM over both halves would put their
    columns in different BLAS edge kernels; two of one shape round +e and
    -e alike, so a Hermitian input stays exactly Hermitian.  The
    factorials overflow, so each tile takes its own slope tau: B gains
    e^(tau j), c c e^(+-tau q) and a a e^(-+tau p), which leaves every
    product unchanged.  tau is the slope of the factorial factor at the
    tile's centre, and the tile's maxima of B and of each offset's c c
    move into a a, so B <= 1 and c c <= 1; a factor then underflows only
    where the weight it carries is far below any representable
    contribution.
    """
    n = mat.shape[0]
    sign = 1 if rising else -1
    rows = min(_TILE, max(n, dim_out))  # levels per tile side
    spare = min(rows, n, dim_out) - 1
    # the skewed input, the output with its spare rows and the tile buffers
    _check_dense_budget(32 * n * (n + 1) + 16 * dim_out * (dim_out + spare) + 80 * rows * n,
                        f"the channel kernel from {n} to {dim_out} levels")
    skew_in = _skewed_halves(mat)  # a zero c or a cancels the wrapped reads
    # offsets past the last level land below the diagonal or in the spare
    # rows, and a zero a writes nothing there
    out = np.zeros((dim_out + spare, dim_out), dtype=np.complex128)
    flat = out.reshape(-1)
    diagonal, across = 16 * (dim_out + 1), (16, 16 * dim_out)  # out[p, p+e], out[p+e, p]
    # hank[q, e] = log[q + e], -inf past the last level
    pad_c = np.concatenate([log_c, np.full(n, -np.inf)])
    hank_c = as_strided(pad_c, (n, n), (8, 8), writeable=False)
    pad_a = np.concatenate([log_a, np.full(n, -np.inf)])
    hank_a = as_strided(pad_a, (dim_out, n), (8, 8), writeable=False)
    buf_c = np.empty(rows * n)
    buf_a = np.empty(rows * n)
    buf_z = np.empty(2 * rows * n, dtype=np.complex128)
    buf_r = np.empty(4 * rows * n)
    for p0 in range(0, dim_out, rows):
        p1 = min(dim_out, p0 + rows)
        for q0 in range(0, n, rows):
            q1 = min(n, q0 + rows)
            if (q0 >= p1) if rising else (q1 <= p0):
                continue  # the Toeplitz block is zero
            # tau on a 2^-20 grid keeps every tau * level product exact
            centre = 0.5 * ((p0 + p1 - 1) if rising else (q0 + q1 - 1))
            tau = round(float(digamma(centre + 1.0)) * 2.0**20) / 2.0**20
            mp, mq = p1 - p0, q1 - q0
            j = np.arange(mp + mq - 1) + ((p0 - q1 + 1) if rising else (q0 - p1 + 1))
            lb = np.where(j >= 0, log_b[np.abs(j)] + tau * j, -np.inf)
            beta_b = float(lb.max())
            windows = sliding_window_view(np.exp(lb - beta_b), mq)
            toeplitz = windows[:, ::-1] if rising else windows[::-1]  # B[|p-q|]
            cols = min(n - q0, dim_out - p0)  # offsets with levels on both sides
            cc = buf_c[:mq * cols].reshape(mq, cols)
            np.add(hank_c[q0:q1, :cols],
                   (log_c[q0:q1] + sign * tau * np.arange(q0, q1))[:, None], out=cc)
            beta_c = cc.max(axis=0)
            cc -= beta_c
            np.exp(cc, out=cc)
            z = buf_z[:mq * 2 * cols].reshape(mq, 2, cols)
            for half in range(2):
                np.multiply(skew_in[half][q0:q1, :cols], cc, out=z[:, half])
            r = buf_r[:mp * 4 * cols].reshape(mp, 2, 2 * cols)
            for half in range(2):  # same-shape GEMMs round both halves alike
                np.matmul(toeplitz, z[:, half].view(np.float64), out=r[:, half])
            aa = buf_a[:mp * cols].reshape(mp, cols)
            np.add(hank_a[p0:p1, :cols],
                   (log_a[p0:p1] - sign * tau * np.arange(p0, p1) + beta_b)[:, None], out=aa)
            aa += beta_c
            np.exp(aa, out=aa)
            scaled = r.view(np.complex128).reshape(mp, 2, cols)
            scaled *= aa[:, None, :]
            for half, step in enumerate(across):
                skew = as_strided(flat[p0 * (dim_out + 1):], (mp, cols), (diagonal, step))[:, half:]
                np.add(skew, scaled[:, half, half:], out=skew)  # the diagonal once
    return out[:dim_out]


def _atom_kernel(atom, mat: np.ndarray, dim_out: int) -> np.ndarray:
    """One atom's closed-form action on mat, with dim_out output levels."""
    n = min(mat.shape[0], dim_out)  # an amplifier never moves a level down
    if atom in (Amplifier(1.0), Attenuator(1.0)):
        out = np.zeros((dim_out, dim_out), dtype=np.complex128)
        out[:n, :n] = mat[:n, :n]
        return out
    if atom == Attenuator(0.0):
        out = np.zeros((dim_out, dim_out), dtype=np.complex128)
        out[0, 0] = np.trace(mat)
        return out
    return _toeplitz_apply(mat[:n, :n], dim_out, *_toeplitz_factors(atom, n, dim_out))


def amplifier_apply(kappa: float, x, dim_out: int | None = None) -> TruncatedOperator:
    """Closed-form amplifier action, as a few real GEMMs.

    Shell j moves <m|X|n> to <m+j|.|n+j> with weight w_j(m) w_j(n).  On
    output diagonal e that weight is sqrt(p! (p+e)!) B[p-q] c[q] c[q+e],
    B[j] = ((kappa-1)/kappa)^j / (kappa j!) and c[q] = kappa^(-q/2) /
    sqrt(q!), so the lower-triangular Toeplitz B contracts every input
    diagonal at once, in balanced tiles (`_toeplitz_apply`).  The default
    output dim is the fewest levels at which the live block leaks at most
    ULP_TAIL of a unit trace (`_amplifier_grown_dim`); a level trimmed from
    the live block, at or below 1e-16 of the scale (`fock._live`), can
    leak what it holds.  A DensityOperator that loses more than
    TRACE_TOLERANCE of its trace at an explicit `dim_out` raises
    TraceLeakError naming the deficit; a bare operator or matrix is
    cropped as asked.
    """
    spec = Amplifier(kappa)
    kappa = spec.kappa
    op = _as_operator(x)
    mat = op.matrix
    if dim_out is None:
        dim_out = _amplifier_default_dim(kappa, mat)
    if dim_out < 1:
        raise ValidationError(f"dim_out must be positive, got {dim_out}")
    _check_dense_budget(16 * dim_out * dim_out,
                        f"amplifier({kappa}) output of {dim_out} levels")
    out = _atom_kernel(spec, mat, dim_out)
    if isinstance(x, DensityOperator):
        deficit = abs(np.trace(out).real - np.trace(mat).real)
        if deficit > TRACE_TOLERANCE * max(1.0, abs(np.trace(mat).real)):
            raise TraceLeakError(
                f"amplifier({kappa}) lost trace {deficit:.3e} at dim_out={dim_out}; "
                f"enlarge the output dimension", deficit=float(deficit), dim_out=dim_out)
    return TruncatedOperator(out, label=f"amplifier({kappa})[{op.label}]")


def attenuator_apply(lam: float, x) -> TruncatedOperator:
    """Closed-form attenuator action, as a few real GEMMs; dim is preserved.

    Shell j moves the (j-deep) sub-block down by j levels with weights
    binom(p+j, j) lam^p (1-lam)^j under the square root; all exact, so
    completeness holds to machine precision at every represented level.
    On diagonal e the weight product is lam^(p+e/2) / sqrt(p! (p+e)!)
    B[q-p] sqrt(q! (q+e)!), B[j] = (1-lam)^j / j!, so the upper-triangular
    Toeplitz B contracts every input diagonal at once, in balanced tiles
    (`_toeplitz_apply`).
    """
    spec = Attenuator(lam)
    op = _as_operator(x)
    mat = op.matrix
    dim = mat.shape[0]
    out = _atom_kernel(spec, mat, dim)
    return TruncatedOperator(out, label=f"attenuator({spec.transmissivity})[{op.label}]")


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Operator-sum form; completeness checked on the low block."""

    dim_in: int
    dim_out: int
    matrices: tuple
    completeness_residual: float

    def __iter__(self):
        return iter(self.matrices)


def attenuator_kraus(lam: float, dim: int) -> KrausSet:
    """Kraus matrices K_j = sum_n sqrt(binom(n,j)) lam^(n-j)/2 (1-lam)^j/2 |n-j><n|."""
    spec = Attenuator(lam)
    lam = spec.transmissivity
    dim = _check_dim(dim)
    _check_dense_budget(16 * dim**3, f"{_count(dim)} Kraus matrices of {_count(dim)} levels")
    mats: list[np.ndarray] = []
    # sum_j K_j^dag K_j is diagonal: w_(j,n)^2 summed in ascending j, as a sum
    # of the dense products would add them
    total = np.zeros(dim)
    if lam == 1.0:
        mats.append(np.eye(dim, dtype=np.complex128))
        total += 1.0
    elif lam == 0.0:
        for j in range(dim):
            k = np.zeros((dim, dim), dtype=np.complex128)
            k[0, j] = 1.0
            mats.append(k)
            total[j] += 1.0
    else:
        log_lam, log_rest = math.log(lam), math.log(1.0 - lam)
        for j in range(dim):
            n = np.arange(j, dim, dtype=np.float64)
            log_binom = gammaln(n + 1.0) - gammaln(n - j + 1.0) - gammaln(j + 1.0)
            weights = np.exp(0.5 * (log_binom + (n - j) * log_lam + j * log_rest))
            total[j:] += weights * weights
            k = np.zeros((dim, dim), dtype=np.complex128)
            k[np.arange(dim - j), np.arange(j, dim)] = weights
            mats.append(k)
    low = max(1, int(math.floor(0.75 * dim)))
    residual = float(np.max(np.abs(total[:low] - 1.0)))
    if residual > KRAUS_TOLERANCE:
        raise ValidationError(
            f"attenuator Kraus completeness residual {residual:.3e} exceeds "
            f"{KRAUS_TOLERANCE:g}")
    return KrausSet(dim_in=dim, dim_out=dim, matrices=tuple(mats),
                    completeness_residual=residual)


_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def _dilated_action(coupling, shift: int, mat: np.ndarray, anc_dim: int,
                    tail_tolerance: float, what: str) -> np.ndarray:
    """U (X (x) |0><0|) U^dag traced over the ancilla, one chain per input level.

    The generator conserves a sector, so U|m,0> stays on the chain whose
    site k is |n, k>, n = m + shift*k, and coupling(n, k) is its real
    amplitude from site k to site k+1.  There the generator is
    diag(i^k) (-iS) diag(i^-k), S real symmetric tridiagonal with those
    amplitudes, so the column of |m,0> is i^k times the first row of
    exp(-iS).  A beamsplitter's chain (shift -1) ends by itself at k = m; a
    squeezer's (shift 1) is cut at the ancilla's top level, dropping its
    coupling c.  To first order (Duhamel, as `fock._displacement_register`)
    the wave the cut stops has norm <= c |top amplitude|, as the squeezer
    fills the top site monotonically; its square, summed by |X[m, m]| per
    unit trace, above `tail_tolerance` raises AncillaTailError.
    """
    live = mat.shape[0]
    if anc_dim < 1:
        raise ValidationError(f"anc_dim must be positive, got {anc_dim}")
    dim_out = live + anc_dim - 1 if shift > 0 else live
    _check_dense_budget(16 * dim_out * dim_out, f"{what} output of {dim_out} levels")
    amps = np.zeros((live, anc_dim), dtype=np.complex128)
    stopped = 0.0  # bound on the population the ancilla cuts stop
    for m in range(live):
        sites = anc_dim if shift > 0 else m + 1
        row = _tridiagonal_expm_rows(sites, lambda k: coupling(m + shift * k, k), 1)[0]
        amps[m, :sites] = row * _I_POWERS[np.arange(sites) % 4]
        cut = coupling(m + shift * (sites - 1), sites - 1) * abs(amps[m, sites - 1])
        stopped += abs(mat[m, m]) * cut * cut
    out = np.zeros((dim_out, dim_out), dtype=np.complex128)
    for k in range(anc_dim):  # out[m+shift k, n+shift k] += c_m[k] X[m,n] c_n[k]*
        lo = max(0, -shift * k)
        w = amps[lo:, k]
        out[lo + shift * k:live + shift * k, lo + shift * k:live + shift * k] += (
            np.outer(w, w.conj()) * mat[lo:, lo:])
    stopped /= max(1.0, abs(float(np.trace(mat).real)))
    if stopped > tail_tolerance:
        raise AncillaTailError(f"{what}: the ancilla cut may stop {stopped:.3e} of the trace; "
                               f"enlarge anc_dim", tail_mass=float(stopped))
    return out


def amplifier_dilated(kappa: float, x, anc_dim: int | None = None) -> TruncatedOperator:
    """Two-mode squeezer with vacuum ancilla; the independent amplifier oracle.

    exp(r (a_s^dag a_a^dag - a_s a_a)) conserves n_s - n_a, so |m,0> stays on
    |m+k, k> with amplitudes r sqrt((m+k+1)(k+1)).  The ancilla counts the
    photons added, so by default it holds the kernel's own growth,
    `_amplifier_default_dim` - live + 1 levels, and the output has the
    kernel's default dim, live + anc_dim - 1.  Dead levels (`fock._live`)
    would only waste register space.
    """
    kappa = Amplifier(kappa).kappa
    op = _as_operator(x)
    mat = _live(op.matrix)
    if anc_dim is None:
        anc_dim = _amplifier_default_dim(kappa, mat) - mat.shape[0] + 1
    r = math.acosh(math.sqrt(kappa))
    out = _dilated_action(lambda n, k: r * np.sqrt((n + 1.0) * (k + 1.0)), 1, mat,
                          anc_dim, TAIL_TOLERANCE, f"amplifier_dilated({kappa})")
    return TruncatedOperator(out, label=f"amplifier_dilated({kappa})[{op.label}]")


def attenuator_dilated(lam: float, x) -> TruncatedOperator:
    """Beamsplitter with vacuum ancilla; the independent attenuator oracle.

    exp(theta (a_s^dag a_a - a_s a_a^dag)) conserves n_s + n_a, so |m,0>
    stays on |m-k, k> with amplitudes -theta sqrt((m-k)(k+1)), ending at
    k = m, so registers of the live block cut no chain.
    """
    lam = Attenuator(lam).transmissivity
    op = _as_operator(x)
    mat = _live(op.matrix)
    theta = math.acos(math.sqrt(lam))
    out = _dilated_action(lambda n, k: -theta * np.sqrt(n * (k + 1.0)), -1, mat,
                          mat.shape[0], math.inf, f"attenuator_dilated({lam})")
    return TruncatedOperator(out, label=f"attenuator_dilated({lam})[{op.label}]")


def apply(spec: ChannelSpec, x) -> TruncatedOperator:
    """Apply any ChannelSpec with the closed-form kernels.

    Composition trims each stage's input to its live block (`fock._live`
    drops trailing levels at or below LIVE_TOLERANCE of the scale) so
    amplifier growth does not snowball.
    """
    op = _as_operator(x)
    if isinstance(spec, Amplifier):
        return amplifier_apply(spec.kappa, op)
    if isinstance(spec, Attenuator):
        return attenuator_apply(spec.transmissivity, op)
    if isinstance(spec, AdditiveNoise):
        return apply(additive_noise_expansion(spec), op)
    if isinstance(spec, Inverse):
        return inverse_apply(spec.inner, op, epsilon=spec.epsilon).operator
    if isinstance(spec, Compose):
        current = op
        for item in reversed(spec.items):
            current = apply(item, TruncatedOperator(_live(current.matrix), label=current.label))
        return current
    raise ValidationError(f"not a channel spec: {spec!r}")


def coherent_projection(x, route: str = "compose") -> TruncatedOperator:
    """Double smoothing of X, which projects onto coherent states.

    Three routes realize the same map and certify each other:
    * "compose": the smoothing channel applied twice;
    * "reversed": attenuate by 1/2 first, then amplify by 2 (the same map
      in the opposite factor order);
    * "projection": the literal integral of Q_X(alpha) |alpha><alpha|, whose
      angle integral keeps one phase harmonic of Q per diagonal; those
      harmonics come straight from the radial kernel at the nodes of a
      Gauss-Laguerre rule in |alpha|^2, which integrates the rest exactly
      on the truncated supports.
    """
    op = _as_operator(x)
    if route == "compose":
        c = smoothing_channel()
        return apply(Compose((c, c)), op).relabeled(f"double_smooth[{op.label}]")
    if route == "reversed":
        return apply(Compose((Amplifier(2.0), Attenuator(0.5))), op).relabeled(
            f"double_smooth_reversed[{op.label}]")
    if route == "projection":
        work = _live(op.matrix)
        live = work.shape[0]
        # The image has an amplified tail; reconstruct on the grown dim.
        dim_out = _amplifier_grown_dim(2.0, live)
        # With t = |alpha|^2 every entry's integrand is e^(-2t) times a
        # polynomial of degree <= live + dim_out - 2: Gauss-Laguerre in u = 2t
        # integrates it exactly.  The angle integral of <m|alpha><alpha|m+e>
        # keeps Q's phase harmonic u^e alone, which is S_e(t) of the radial
        # kernel (L_e for <m+e|.|m>), so no angle is ever sampled.
        u, w = roots_laguerre((live + dim_out - 2) // 2 + 1)
        u, w = u[w > 0.0], w[w > 0.0]  # the outermost weights underflow
        t = 0.5 * u
        # g[k, p] = sqrt(w_k e^t_k / 2) t_k^(p/2) / sqrt(p!): its factors
        # overflow, but g^2 <= w_k e^u_k / 2 stays small, so build it in logs.
        p = np.arange(dim_out)
        g = np.exp(0.5 * (np.log(w) + t - math.log(2.0))[:, None]
                   + 0.5 * (np.log(t)[:, None] * p - gammaln(p + 1.0)))
        out = np.zeros((dim_out, dim_out), dtype=np.complex128)
        for e, sums in _radial_sums(work, t):
            if sums is not None and e < dim_out:  # offsets e and -e share g g
                rows, cols = _offset_entries(dim_out, e)
                out[rows, cols], out[cols, rows] = sums @ (g[:, :dim_out - e] * g[:, e:])
        return TruncatedOperator(out, label=f"double_smooth_projection[{op.label}]")
    raise ValidationError(
        f"route must be 'compose', 'reversed' or 'projection', got {route!r}")


def _offset_entries(dim: int, offset: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the entries <m|X|m+offset> of a dim-level X."""
    i = np.arange(dim - abs(offset))
    return i + max(0, -offset), i + max(0, offset)


@dataclass(frozen=True, eq=False)
class Superoperator:
    """A channel at fixed dim as per-offset real transfer blocks.

    The channel maps the diagonal <m|X|m+e> onto the same diagonal, so
    `blocks[e]` (square, dim - e levels) acts on offset e and, being real,
    equally on offset -e.  `stack[e]` holds `blocks[e]` in its top-left
    corner and zeros elsewhere, so `apply_matrix` runs every offset in one
    matmul per sign of e.  `matrix` assembles the row-major dense form,
    vec(out) = matrix @ vec(in), on access.
    """

    spec: ChannelSpec
    dim: int
    stack: np.ndarray

    @property
    def blocks(self) -> tuple:
        return tuple(self.stack[e, :self.dim - e, :self.dim - e] for e in range(self.dim))

    @property
    def matrix(self) -> np.ndarray:
        n = self.dim
        _check_dense_budget(16 * n**4, f"a dense superoperator at dim {n}")
        out = np.zeros((n * n, n * n), dtype=np.complex128)
        blocks = self.blocks
        for offset in range(1 - n, n):
            rows, cols = _offset_entries(n, offset)
            flat = rows * n + cols
            out[np.ix_(flat, flat)] = blocks[abs(offset)]
        return out

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        """The channel's image of a finite dim x dim matrix."""
        mat = _as_operator(mat).matrix  # a wrapped read must be finite to cancel
        if mat.shape != (self.dim, self.dim):
            raise ValidationError(
                f"expected a {self.dim} x {self.dim} matrix, got shape {mat.shape}")
        parts = _diagonals(mat)
        for half in parts:  # same-shape matmuls round +e and -e alike
            half[...] = np.matmul(self.stack, half)
        return _from_diagonals(parts)


def _atoms_in_application_order(spec: ChannelSpec) -> list:
    if isinstance(spec, (Amplifier, Attenuator)):
        return [spec]
    if isinstance(spec, AdditiveNoise):
        return _atoms_in_application_order(additive_noise_expansion(spec))
    if isinstance(spec, Compose):
        atoms = []
        for item in reversed(spec.items):
            atoms.extend(_atoms_in_application_order(item))
        return atoms
    raise ValidationError(
        "a regularized inverse has no exact superoperator; use inverse_apply")


@lru_cache(maxsize=16)
def _transfer_blocks(spec: ChannelSpec, dim: int) -> tuple:
    """Per-offset blocks of the grown-then-cropped pipeline and their SVDs.

    A block is the transfer of the whole atom chain, cropped only after the
    last stage; a product of square-cropped factor blocks would crop
    between the stages instead, discarding mass the later stages fold back
    below dim and spoiling the small singular values the inverse needs.
    On diagonal e an atom moves <q|X|q+e> to <p|Y|p+e> with the kernel's
    weight a[p] a[p+e] B[|p-q|] c[q] c[q+e] (`_toeplitz_factors`), on the
    triangle its direction allows.
    Returns (stack, ut, v, s): with U diag(s) V^T the SVD of block e,
    stack[e], ut[e] and v[e] hold the block, U^T and V in their top-left
    (dim - e) x (dim - e) corner and zeros elsewhere, and s[e] holds s
    followed by zeros.
    """
    # three (dim, dim, dim) stacks and the singular values
    _check_dense_budget(24 * dim**3 + 8 * dim**2,
                        f"transfer blocks and their SVDs at dim {dim}")
    atoms = _atoms_in_application_order(spec)
    blocks = [np.eye(dim - offset) for offset in range(dim)]
    cur_dim = dim
    for k, atom in enumerate(atoms, start=1):
        if k == len(atoms):
            out_dim = dim
        elif isinstance(atom, Amplifier):
            out_dim = _amplifier_grown_dim(atom.kappa, cur_dim)
        else:
            out_dim = cur_dim
        exact = atom in (Amplifier(1.0), Attenuator(1.0), Attenuator(0.0))
        if not exact:  # the edge atoms have no finite logs
            log_b, log_c, log_a, rising = _toeplitz_factors(atom, cur_dim, out_dim)
            p, q = np.arange(out_dim)[:, None], np.arange(cur_dim)
            gap = p - q if rising else q - p
            log_t = np.where(gap >= 0, log_b[np.abs(gap)], -np.inf)  # B[|p-q|]
        for offset in range(dim):
            rows, cols = out_dim - offset, cur_dim - offset
            if atom == Attenuator(0.0):  # every level to the vacuum
                step = np.zeros((rows, cols))
                if offset == 0:
                    step[0] = 1.0
            elif exact:
                step = np.eye(rows, cols)
            else:
                step = np.exp((log_a[:rows] + log_a[offset:])[:, None] + log_t[:rows, :cols]
                              + log_c[:cols] + log_c[offset:])
            blocks[offset] = step @ blocks[offset]
        cur_dim = out_dim
    stack, ut, v = (np.zeros((dim, dim, dim)) for _ in range(3))
    s = np.zeros((dim, dim))
    for offset, block in enumerate(blocks):
        m = dim - offset
        u, s[offset, :m], vt = np.linalg.svd(block)
        stack[offset, :m, :m], ut[offset, :m, :m], v[offset, :m, :m] = block, u.T, vt.T
    for arr in (stack, ut, v, s):
        arr.setflags(write=False)  # shared by every caller of the cache
    return stack, ut, v, s


def superoperator_of(spec: ChannelSpec, dim: int) -> Superoperator:
    """Transfer blocks at fixed dim (amplifier growth is cropped there)."""
    if dim < 1:
        raise ValidationError(f"dimension must be positive, got {dim}")
    return Superoperator(spec=spec, dim=int(dim), stack=_transfer_blocks(spec, int(dim))[0])


@dataclass(frozen=True, eq=False)
class InverseResult:
    operator: TruncatedOperator
    residual: float
    epsilon: float


def inverse_apply(spec: ChannelSpec, x, epsilon: float = 1e-10) -> InverseResult:
    """Tikhonov-regularized preimage: argmin |C(Y) - X|^2 + eps |Y|^2.

    The problem splits by diagonal offset; with the SVD U diag(s) V^T of
    the offset's transfer block the minimiser is V diag(s / (s^2 + eps))
    U^T applied to that diagonal of X.  Every offset runs at once, as two
    matmuls against the zero-padded U^T and V stacks per sign of e
    (`_transfer_blocks`).  The residual reports the trace
    distance between C(Y) and X; the forward map only, never the
    regularizer, decides whether the preimage is trustworthy, and the
    caller judges it.  Hermitian inputs get Hermitian preimages (the exact
    preimage is, and projecting cannot grow the residual of a
    Hermitian-covariant map).
    """
    if not 0.0 < epsilon < math.inf:
        raise ValidationError(f"epsilon must be finite and positive, got {epsilon}")
    op = _as_operator(x)
    mat = op.matrix
    dim = mat.shape[0]
    stack, ut, v, s = _transfer_blocks(spec, dim)
    gain = (s / (s * s + epsilon))[:, :, None]  # zero past each block's corner
    parts = _diagonals(mat)
    for half in parts:  # same-shape matmuls round +e and -e alike
        half[...] = np.matmul(v, gain * np.matmul(ut, half))
    y = _from_diagonals(parts)
    scale = max(1.0, float(np.max(np.abs(mat))))
    if hermiticity_defect(mat) <= 1e-10 * scale:
        y = 0.5 * (y + y.conj().T)
    forward = Superoperator(spec=spec, dim=dim, stack=stack).apply_matrix(y)
    return InverseResult(operator=TruncatedOperator(y, label=f"inverse[{op.label}]"),
                         residual=float(trace_distance(forward, mat)),
                         epsilon=float(epsilon))


def channel_diagnostics(x_in, x_out) -> dict:
    """Trace, hermiticity, positivity and photon bookkeeping for a channel hop."""
    a = _as_operator(x_in).matrix
    b = _as_operator(x_out).matrix
    diag = {
        "trace_in": float(np.trace(a).real),
        "trace_out": float(np.trace(b).real),
        "trace_deficit": float(abs(np.trace(a).real - np.trace(b).real)),
        "hermiticity_defect_out": hermiticity_defect(b),
        "psd_floor_out": float(np.min(np.linalg.eigvalsh(0.5 * (b + b.conj().T)))),
    }
    for name, mat in (("mean_photon_in", a), ("mean_photon_out", b)):
        value = np.sum(np.arange(mat.shape[0]) * np.diagonal(mat))
        diag[name] = float(value.real)
    return diag
