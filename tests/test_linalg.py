import contextlib
import warnings

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


@pytest.mark.parametrize("operand", ["u", "v"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_op_distance_refuses_a_non_finite_operand(operand, bad):
    mats = {"u": np.eye(4, dtype=complex), "v": np.eye(4, dtype=complex)}
    mats[operand][0, 0] = bad
    with pytest.raises(ValueError, match=f"{operand} has a non-finite entry"):
        linalg.op_distance(mats["u"], mats["v"])


def scalar_op_distance(u, v):
    """op_distance with its phase candidates scored one at a time: the first
    minimum of the trace phase and the 64-point grid, then golden section."""
    a, b = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)

    def dist(phi):
        return float(np.abs(a - np.exp(1j * phi) * b).max())

    overlap = np.trace(b.conj().T @ a)
    candidates = [float(np.angle(overlap))] if abs(overlap) > 1e-12 else []
    candidates.extend(np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
    best_phi = min(candidates, key=dist)
    span = 2.0 * np.pi / 64
    _, refined = linalg.golden_section(dist, best_phi - span, best_phi + span,
                                       linalg.PHASE_REFINE_TOL)
    return min(dist(best_phi), refined)


def op_distance_cases():
    rng = np.random.default_rng(17)
    cases = [(np.eye(2), PAULI_X),                   # |tr| = 0: the grid alone
             (np.eye(4), np.zeros((4, 4))),          # every candidate ties at max|u|
             (np.eye(3), np.eye(3))]
    for dim in (2, 3, 4, 8, 16):
        for _ in range(20):
            u = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            noise = rng.normal(scale=10.0 ** rng.uniform(-12, 0), size=(dim, dim))
            cases += [(u, np.exp(1j * rng.uniform(-3, 3)) * u + noise),
                      (u, rng.normal(size=(dim, dim)))]
    return cases


def test_op_distance_scores_candidates_as_the_scalar_loop():
    for u, v in op_distance_cases():
        got = linalg.op_distance(u, v)
        assert type(got) is float
        assert got == scalar_op_distance(u, v)


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



def _quadratic(seed, dim):
    """A random symmetric positive-definite A (eigenvalues in [0.1, 10]), a
    random b, and the closed-form minimizer A^-1 b of x.A x / 2 - b.x."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a = (q * rng.uniform(0.1, 10.0, dim)) @ q.T
    b = rng.standard_normal(dim)
    return a, b, np.linalg.solve(a, b)


@pytest.mark.parametrize("dim", [2, 12, 30])
def test_minimize_reaches_quadratic_closed_form(monkeypatch, dim):
    # with the relative-decrease stop off, and f written about its minimizer
    # so that its rounding error shrinks with f, the gradient stop ends the search
    a, b, x_star = _quadratic(dim, dim)
    monkeypatch.setattr(linalg, "MINIMIZE_FTOL", 0.0)
    f, x = linalg.minimize(lambda x: (0.5 * (x - x_star) @ a @ (x - x_star), a @ (x - x_star)),
                           np.zeros(dim))
    np.testing.assert_allclose(x, x_star, rtol=0, atol=1e-10)
    assert f < 1e-20


@pytest.mark.parametrize("dim", [2, 12, 30])
def test_minimize_stops_at_the_rounding_floor_of_f(dim):
    # x.A x / 2 - b.x carries a rounding error of about 1e-16 |f*|, so no
    # line search on f places x closer than about sqrt(1e-15 |f*| / 0.1)
    a, b, x_star = _quadratic(dim, dim)
    f_star = -0.5 * b @ x_star
    f, x = linalg.minimize(lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b), np.zeros(dim))
    assert abs(f - f_star) <= 1e-14 * max(abs(f_star), 1.0)
    np.testing.assert_allclose(x, x_star, rtol=0, atol=1e-6)


def test_minimize_reaches_rosenbrock_minimum():
    def rosenbrock(x):
        u, v = x
        return ((1 - u) ** 2 + 100 * (v - u * u) ** 2,
                np.array([-2 * (1 - u) - 400 * u * (v - u * u), 200 * (v - u * u)]))

    f, x = linalg.minimize(rosenbrock, [-1.2, 1.0])
    np.testing.assert_allclose(x, [1.0, 1.0], rtol=0, atol=1e-8)
    assert f < 1e-15


def test_minimize_is_deterministic():
    a, b, _ = _quadratic(3, 18)
    fun = lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b)  # noqa: E731
    x0 = np.random.default_rng(4).uniform(-np.pi, np.pi, 18)
    f1, x1 = linalg.minimize(fun, x0)
    f2, x2 = linalg.minimize(fun, x0)
    assert f1 == f2 and x1.tobytes() == x2.tobytes()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("raises", [False, True])
def test_blas_threads_restores_the_previous_count(monkeypatch, raises, n):
    threads = [3]   # every count set, the current one last
    monkeypatch.setattr(linalg, "_openblas_threads",
                        lambda: (lambda: threads[-1], threads.append, lambda: 4))
    with pytest.raises(KeyError) if raises else contextlib.nullcontext():
        with linalg.blas_threads(n):
            assert threads == [3, n]
            if raises:
                raise KeyError("body")
    assert threads == [3, n, 3]


def test_blas_threads_defaults_to_openblas_own_count(monkeypatch):
    threads = [1]
    monkeypatch.setattr(linalg, "_openblas_threads",
                        lambda: (lambda: threads[-1], threads.append, lambda: 4))
    with linalg.blas_threads():
        assert threads == [1, 4]
    assert threads == [1, 4, 1]


@pytest.mark.parametrize("n", [1, 2])
def test_blas_threads_sets_numpys_openblas_count(n):
    binding = linalg._openblas_threads()
    if binding is None:
        pytest.skip("numpy's BLAS exports no thread-count functions here")
    get, _, _ = binding
    before = get()
    with linalg.blas_threads(n):
        assert get() == n
    assert get() == before


def _no_library(path):
    raise OSError(f"cannot open {path}")


@pytest.mark.parametrize("cdll", [lambda path: object(), _no_library],
                         ids=["symbols-missing", "library-missing"])
def test_blas_threads_is_a_silent_no_op_when_unbound(monkeypatch, cdll):
    monkeypatch.setattr(linalg.ctypes, "CDLL", cdll)
    assert linalg._openblas_threads() is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with linalg.blas_threads(1):
            product = np.eye(2) @ np.eye(2)
    assert np.array_equal(product, np.eye(2))
