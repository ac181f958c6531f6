"""Property tests: the angle-addition residual and the in-place Jacobian
against their direct N x N trigonometric forms."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from betanewton.multivariate import KuramotoSystem, build_kuramoto_problem  # noqa: E402

EPS = float(np.finfo(float).eps)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def systems_and_phases(draw):
    """Asymmetric coupling of either sign, delays in [-pi, pi], phases up to 1e3."""
    n = draw(st.integers(2, 12))
    gamma = draw(hnp.arrays(float, (n, n), elements=st.floats(-2.0, 2.0)))
    np.fill_diagonal(gamma, 0.0)
    psi = draw(hnp.arrays(float, (n, n), elements=st.floats(-np.pi, np.pi)))
    phi = draw(hnp.arrays(float, n - 1, elements=st.floats(-1e3, 1e3)))
    return KuramotoSystem(n, gamma, psi), phi


def _direct(system, phi):
    """f_0 - f_i and its Jacobian from sin and cos of every phi_i - phi_j + psi_ij."""
    full = np.concatenate(([0.0], phi))
    arg = full[:, None] - full[None, :] + system.psi
    f = (system.gamma * np.sin(arg)).sum(axis=1)
    c = system.gamma * np.cos(arg)
    # d f_i / d phi_k = -c[i, k] for k != i and sum_j c[i, j] for k == i
    df = -c
    df[np.diag_indices_from(df)] += c.sum(axis=1)
    return f[0] - f[1:], df[0, 1:] - df[1:, 1:]


def _bound(system, phi):
    # rounding of the phase differences grows with |phi|; the sums with sum |gamma|
    return 32 * EPS * (1.0 + np.abs(phi).max() + np.pi) * np.abs(system.gamma).sum()


@PROPERTY
@given(systems_and_phases())
def test_residual_matches_direct_sine_sum(case):
    system, phi = case
    want, _ = _direct(system, phi)
    got = build_kuramoto_problem(system).residual(phi)
    assert np.abs(got - want).max() <= _bound(system, phi)


@PROPERTY
@given(systems_and_phases())
def test_jacobian_matches_direct_cos_form(case):
    system, phi = case
    _, want = _direct(system, phi)
    got = build_kuramoto_problem(system).jacobian(phi)
    assert got.flags.f_contiguous
    assert np.abs(got - want).max() <= _bound(system, phi)
