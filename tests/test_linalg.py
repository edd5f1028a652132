import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainlab import linalg
from chainlab.errors import DimensionMismatch, NonHermitianInput
from chainlab.model import PAULI_X, PAULI_Z


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def test_zero_matrix_eigensystem_reconstructs():
    # a zero spectrum reconstructs the identity at any time
    assert np.allclose(linalg.expm_i(np.zeros((4, 4)), 1.3), np.eye(4), atol=1e-14)


def test_heisenberg_pair_spectrum():
    # sigma.sigma on two sites: singlet at -3, triplet at +1, so h = 1 - 4 P_singlet
    h = sum(np.kron(p, p) for p in (PAULI_X, 1j * np.array([[0, -1], [1, 0]]), PAULI_Z))
    singlet = (np.eye(4) - h) / 4.0
    t = 0.7
    want = np.exp(-1j * t) * (np.eye(4) - singlet) + np.exp(3j * t) * singlet
    assert np.allclose(linalg.expm_i(h, t), want, atol=1e-12)


def test_non_hermitian_rejected():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonHermitianInput):
        linalg.expm_i(bad, 1.0)


def test_expm_zero_time_is_identity():
    rng = np.random.default_rng(7)
    h = random_hermitian(rng, 6)
    assert np.allclose(linalg.expm_i(h, 0.0), np.eye(6), atol=1e-14)


def test_expm_sigma_z_quarter_period():
    u = linalg.expm_i(PAULI_Z, np.pi / 2)
    assert np.allclose(u, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]), atol=1e-14)


def test_expm_unitarity_random():
    rng = np.random.default_rng(42)
    h = random_hermitian(rng, 8)
    u = linalg.expm_i(h, 1.7)
    assert linalg.unitarity_defect(u) < 1e-10


def test_op_distance_self_and_phase():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 4)
    u = linalg.expm_i(h, 0.9)
    assert linalg.op_distance(u, u) < 1e-12
    assert linalg.op_distance(u, np.exp(1j * np.pi / 7) * u) < 1e-9


def test_op_distance_identity_vs_x():
    # No global phase aligns I with sigma^x; the entrywise gap stays 1.
    assert linalg.op_distance(np.eye(2), PAULI_X) == pytest.approx(1.0, abs=1e-9)


def test_op_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        linalg.op_distance(np.eye(2), np.eye(4))


def test_polar_unitary_projects():
    rng = np.random.default_rng(11)
    h = random_hermitian(rng, 4)
    u = linalg.expm_i(h, 0.4)
    dented = u * 0.999 + 1e-4 * rng.standard_normal((4, 4))
    fixed = linalg.polar_unitary(dented)
    assert linalg.unitarity_defect(fixed) < 1e-12
    assert linalg.op_distance(fixed, u) < 1e-2


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 6), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_group_property(seed, t1, t2):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, 5)
    u12 = linalg.expm_i(h, t1) @ linalg.expm_i(h, t2)
    u = linalg.expm_i(h, t1 + t2)
    assert np.abs(u12 - u).max() < 1e-9


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 6), st.floats(-5.0, 5.0))
def test_norm_preservation(seed, t):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, 6)
    psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    psi /= np.linalg.norm(psi)
    out = linalg.expm_i(h, t) @ psi
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_golden_section_extrema_and_tie_rule():
    tol = 1e-6
    x, fx = linalg.golden_section(lambda x: (x - 0.3) ** 2, -1.0, 2.0, tol)
    assert abs(x - 0.3) <= tol and fx <= tol ** 2
    x, fx = linalg.golden_section(lambda x: -(x + 0.6) ** 2, -1.0, 2.0, tol, maximize=True)
    assert abs(x + 0.6) <= tol and fx >= -tol ** 2
    # on a tie the minimizer keeps the upper part of the bracket, the maximizer the lower
    flat = lambda x: 1.0  # noqa: E731
    assert linalg.golden_section(flat, 0.0, 1.0, tol)[0] == pytest.approx(1.0, abs=tol)
    assert linalg.golden_section(flat, 0.0, 1.0, tol, maximize=True)[0] == pytest.approx(
        0.0, abs=tol)
