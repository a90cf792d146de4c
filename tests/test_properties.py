"""Property tests: the ladder claim, the route agreement and the CSV export.

Hypothesis draws the operators and phase-space points; the runs are
derandomized and bounded, so every run tests the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiphase.channels import apply, coherent_projection, smoothing_channel
from quasiphase.fock import TruncatedOperator, as_density
from quasiphase.phasespace import (PhaseGrid, QuasiDistribution,
                                   distribution_to_csv, q_at, w_at)

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
