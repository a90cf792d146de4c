"""Property tests: the ladder claim, the route agreement, Hermiticity,
trace and photon number under the channels, composition, the CSV export
and the JSON interchange forms.

Hypothesis draws the operators, phase-space points and JSON payloads; the
runs are derandomized and bounded, so every run tests the same examples.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiphase.channels import (AdditiveNoise, Amplifier, Attenuator, Compose, apply,
                                 coherent_projection, smoothing_channel, spec_from_json)
from quasiphase.errors import QuasiphaseError
from quasiphase.fock import (TruncatedOperator, as_density, hermiticity_defect, mean_photon,
                             operator_from_json, operator_to_json)
from quasiphase.phasespace import (PhaseGrid, QuasiDistribution, distribution_to_csv,
                                   q_at, w_at)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25, database=None)

entries = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def operators(draw, max_dim: int = 8) -> np.ndarray:
    """A complex matrix of dim <= max_dim with entries in the unit square."""
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    parts = draw(st.lists(entries, min_size=2 * dim * dim, max_size=2 * dim * dim))
    re, im = np.reshape(parts, (2, dim, dim))
    return re + 1j * im


@st.composite
def densities(draw):
    a = draw(operators())
    # The identity shift keeps the drawn state away from zero.
    rho = a @ a.conj().T + 1e-3 * np.eye(a.shape[0])
    return as_density(rho / np.trace(rho).real)


points = st.builds(
    lambda r, phase: r * np.exp(2j * np.pi * phase),
    st.floats(min_value=0.0, max_value=1.5), st.floats(min_value=0.0, max_value=1.0))


@PROPERTY
@given(rho=densities(), alpha=points)
def test_wigner_of_smoothed_state_is_husimi(rho, alpha):
    smoothed = apply(smoothing_channel(), rho)
    assert abs(w_at(smoothed, alpha) - q_at(rho, alpha)) <= 1e-12


@PROPERTY
@given(x=operators())
def test_projection_route_matches_compose(x):
    proj = coherent_projection(TruncatedOperator(x), "projection")
    comp = coherent_projection(TruncatedOperator(x), "compose")
    n = min(proj.dim, comp.dim)
    scale = max(1.0, float(np.max(np.abs(x))))
    assert np.max(np.abs(proj.matrix[:n, :n] - comp.matrix[:n, :n])) <= 1e-12 * scale


channel_specs = st.one_of(
    st.builds(Amplifier, st.floats(min_value=1.0, max_value=4.0)),
    st.builds(Attenuator, st.floats(min_value=0.0, max_value=1.0)),
    st.builds(AdditiveNoise, st.floats(min_value=0.0, max_value=3.0)),
    st.just(smoothing_channel()))


@PROPERTY
@given(rho=densities(), spec=channel_specs)
def test_apply_keeps_states_hermitian_with_unit_trace(rho, spec):
    out = apply(spec, rho).matrix
    assert hermiticity_defect(out) <= 1e-12 * max(1.0, float(np.max(np.abs(out))))
    assert abs(np.trace(out) - 1.0) <= 1e-8


@PROPERTY
@given(rho=densities(), kappa=st.floats(min_value=1.0, max_value=4.0),
       lam=st.floats(min_value=0.0, max_value=1.0))
def test_photon_number_laws(rho, kappa, lam):
    n = mean_photon(rho)
    # the amplifier's default output dim leaves a tail below 1e-10
    assert abs(mean_photon(apply(Amplifier(kappa), rho)) - (kappa * n + kappa - 1.0)) <= 1e-7
    assert abs(mean_photon(apply(Attenuator(lam), rho)) - lam * n) <= 1e-12
    assert abs(mean_photon(apply(smoothing_channel(), rho)) - (n + 0.5)) <= 1e-7


@PROPERTY
@given(rho=densities(), specs=st.lists(channel_specs, min_size=3, max_size=3))
def test_compose_is_associative(rho, specs):
    a, b, c = specs
    left = apply(Compose((Compose((a, b)), c)), rho).matrix
    right = apply(Compose((a, Compose((b, c)))), rho).matrix
    assert left.shape == right.shape
    assert np.max(np.abs(left - right)) <= 1e-14


@st.composite
def distributions(draw) -> QuasiDistribution:
    """Up to 13 x 13 points with any centre and any finite values."""
    spacing = draw(st.floats(min_value=1e-3, max_value=10.0))
    half_extent = spacing * draw(st.floats(min_value=1.0, max_value=6.0))
    parts = st.floats(min_value=-1e3, max_value=1e3)
    grid = PhaseGrid(center=complex(draw(parts), draw(parts)),
                     half_extent=half_extent, spacing=spacing)
    n = grid.points_per_axis
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=n * n, max_size=n * n))
    return QuasiDistribution(grid=grid, kind="W", values=np.reshape(values, (n, n)))


@PROPERTY
@given(dist=distributions())
def test_csv_reads_back_bit_for_bit(dist):
    header, *lines = distribution_to_csv(dist).splitlines()
    assert header == "re_alpha,im_alpha,value"
    n = dist.grid.points_per_axis
    table = np.array([[float(x) for x in line.split(",")] for line in lines])
    assert table.shape == (n * n, 3)
    alphas = dist.grid.alphas().ravel()
    assert table[:, 0].tobytes() == alphas.real.tobytes()
    assert table[:, 1].tobytes() == alphas.imag.tobytes()
    assert table[:, 2].tobytes() == dist.values.ravel().tobytes()


@PROPERTY
@given(x=operators(), scale=st.floats(allow_nan=False, allow_infinity=False),
       label=st.text(max_size=12))
def test_operator_json_round_trip_is_bit_exact(x, scale, label):
    # scale spans every finite magnitude, subnormals and -0.0 included
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        mat = x * scale
    mat = np.where(np.isfinite(mat), mat, 0.0)
    back = operator_from_json(operator_to_json(TruncatedOperator(mat, label=label)))
    assert back.matrix.tobytes() == mat.tobytes()
    assert back.label == label


PARSERS = {"operator": operator_from_json, "channel": spec_from_json}
PARSE_EXAMPLES = settings(PROPERTY, max_examples=200)

# JSON integers have no bound, so some lie beyond the float range
beyond_float = st.builds(lambda bits, sign: sign * 2**bits,
                         st.integers(min_value=1024, max_value=1400), st.sampled_from([1, -1]))
numbers = st.floats() | st.integers() | beyond_float
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12)


def _parses_or_raises_typed(parse, payload) -> None:
    try:
        parse(json.dumps(payload))
    except QuasiphaseError:
        pass


@st.composite
def shaped_payloads(draw, kind: str):
    """Payloads with the right keys, each field any JSON value or number."""
    field = draw(st.sampled_from([numbers, json_values]))
    if kind == "operator":
        return {"dim": draw(field), "re": draw(field), "im": draw(field),
                "label": draw(json_values)}
    name = draw(st.sampled_from(["amplifier", "attenuator", "additive_noise",
                                 "compose", "inverse"]))
    return {"kind": name, "kappa": draw(field), "lambda": draw(field),
            "noise": draw(field), "epsilon": draw(field),
            "items": draw(json_values), "inner": draw(json_values)}


@pytest.mark.parametrize("kind", sorted(PARSERS))
@PARSE_EXAMPLES
@given(raw=st.binary(max_size=64))
def test_parsers_take_random_bytes(kind, raw):
    # json.loads takes bytes as well; bytes that do not decode are malformed
    try:
        PARSERS[kind](raw)
    except QuasiphaseError:
        pass


@pytest.mark.parametrize("kind", sorted(PARSERS))
@PARSE_EXAMPLES
@given(data=st.data())
def test_parsers_raise_only_typed_errors(kind, data):
    _parses_or_raises_typed(PARSERS[kind], data.draw(json_values))
    _parses_or_raises_typed(PARSERS[kind], data.draw(shaped_payloads(kind)))
