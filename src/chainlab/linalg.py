"""Dense linear algebra for small spin chains.

Unitarity checks, the phase-invariant operator distance, polar projection,
golden-section search, a BFGS minimizer, and blas_threads, which runs a
block on a given number of OpenBLAS threads.  expm_i, the dense spectral
exp(-i H t) = V exp(-i D t) V+ of a Hermitian H, is the independent reference
that the tests hold the sector kernel of evolve to; the package itself never
calls it.
"""

from __future__ import annotations

import contextlib
import ctypes

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput

HERMITICITY_RTOL = 1e-12   # relative anti-Hermitian part that expm_i refuses
PHASE_REFINE_TOL = 1e-12   # golden-section bracket of op_distance's phase
MINIMIZE_GTOL = 1e-12      # minimize stops once no gradient entry is larger
MINIMIZE_FTOL = 1e-15      # ... or once a step's relative decrease is no larger
MINIMIZE_MAX_ITER = 2000
ARMIJO_C1 = 1e-4           # sufficient-decrease constant of the line search
ARMIJO_MAX_HALVINGS = 60


def _as_square(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    return arr


def expm_i(mat, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H, via spectral decomposition.

    Raises NonHermitianInput when the anti-Hermitian part, entrywise max norm
    relative to that of H (at least 1), exceeds HERMITICITY_RTOL.
    """
    h = _as_square(mat)
    defect = np.abs(h - h.conj().T).max() / max(np.abs(h).max(), 1.0)
    if defect > HERMITICITY_RTOL:
        raise NonHermitianInput(
            f"symmetry defect {defect:.3e} exceeds rtol {HERMITICITY_RTOL:.3e}")
    values, vectors = np.linalg.eigh(h)
    return (vectors * np.exp(-1j * values * t)) @ vectors.conj().T


def unitarity_defect(mat) -> float:
    """Entrywise max deviation of U+ U from the identity."""
    arr = _as_square(mat)
    return float(np.abs(arr.conj().T @ arr - np.eye(arr.shape[0])).max())


def op_distance(u, v) -> float:
    """Entrywise max norm of U - exp(i phi) V, minimized over the phase phi.

    Zero exactly when the operators agree up to a global phase.  The optimal
    phase for the Frobenius norm, angle(tr(V+ U)), and a coarse grid of 64
    phases are scored in one array expression (the grid alone when the trace
    is degenerate), which holds 65 operator-sized temporaries; a
    golden-section pass then refines the max-norm objective around the first
    best candidate.  Raises ValueError when u or v has a non-finite entry.
    """
    a = _as_square(u)
    b = _as_square(v)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    for name, mat in (("u", a), ("v", b)):
        if not np.isfinite(mat).all():
            raise ValueError(f"cannot take the operator distance: {name} has a non-finite entry")

    def dist(phi: float) -> float:
        return float(np.abs(a - np.exp(1j * phi) * b).max())

    overlap = np.trace(b.conj().T @ a)
    grid = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    phis = np.concatenate([[np.angle(overlap)], grid]) if abs(overlap) > 1e-12 else grid
    scores = np.abs(a - np.exp(1j * phis)[:, None, None] * b).max(axis=(1, 2))
    best = int(np.argmin(scores))
    best_phi = phis[best]

    # Golden-section refinement in a bracket around the best candidate.
    span = 2.0 * np.pi / 64
    _, refined = golden_section(dist, best_phi - span, best_phi + span, PHASE_REFINE_TOL)
    return min(float(scores[best]), refined)


def golden_section(f, lo: float, hi: float, tol: float,
                   maximize: bool = False) -> tuple[float, float]:
    """Golden-section search of a unimodal f on [lo, hi] to a bracket of width
    tol: (bracket midpoint, better of the last two interior values).  On a tie
    the minimizer keeps the upper part of the bracket, the maximizer the lower."""
    inv = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if (f1 < f2) != maximize:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = f(x2)
    return (a + b) / 2.0, (max if maximize else min)(f1, f2)


def minimize(fun, x0) -> tuple[float, np.ndarray]:
    """Local minimum of a smooth f from x0 by dense BFGS: (f, x).

    fun(x) returns (f(x), grad f(x)).  Each step follows -H g for the BFGS
    inverse-Hessian estimate H (the identity at first), halving the step
    until it meets the Armijo condition (Nocedal & Wright, Alg. 3.1 and 6.1).
    The search stops once max|g| <= MINIMIZE_GTOL, once a step lowers f by
    at most MINIMIZE_FTOL relative to max(|f|, 1), once no step length meets
    the condition, or after MINIMIZE_MAX_ITER steps.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    h = np.eye(x.size)
    for _ in range(MINIMIZE_MAX_ITER):
        if np.abs(g).max() <= MINIMIZE_GTOL:
            break
        p = -(h @ g)
        slope = g @ p
        if slope >= 0.0:   # H lost positive definiteness to rounding: restart it
            h = np.eye(x.size)
            p, slope = -g, -(g @ g)
        step = 1.0
        for _ in range(ARMIJO_MAX_HALVINGS):
            x_new = x + step * p
            f_new, g_new = fun(x_new)
            if f_new <= f + ARMIJO_C1 * step * slope:
                break
            step *= 0.5
        else:
            break
        s, y = x_new - x, g_new - g
        sy = s @ y
        if sy > 0.0:   # curvature condition; otherwise H is kept as it is
            hy = h @ y
            h += (((sy + y @ hy) / sy) * np.outer(s, s) - np.outer(hy, s) - np.outer(s, hy)) / sy
        done = f - f_new <= MINIMIZE_FTOL * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if done:
            break
    return f, x


def _openblas_threads():
    """The (get, set, default) thread-count functions of the OpenBLAS that
    numpy's own extension links, or None where that library does not export
    all three.  default returns OpenBLAS's own count, the one a process that
    sets no thread variable starts with."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
        default = lib.scipy_openblas_get_num_procs64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    default.argtypes, default.restype = [], ctypes.c_int
    return get, put, default


@contextlib.contextmanager
def blas_threads(n: int | None = None):
    """Run the block on n OpenBLAS threads, or on OpenBLAS's own default
    count when n is None, and restore the previous count on exit, also when
    the block raises.  Does nothing where the thread count cannot be bound."""
    binding = _openblas_threads()
    if binding is None:
        yield
        return
    get, put, default = binding
    previous = get()
    put(default() if n is None else n)
    try:
        yield
    finally:
        put(previous)


def polar_unitary(mat) -> np.ndarray:
    """Closest unitary to mat in Frobenius norm (polar factor via SVD)."""
    arr = _as_square(mat)
    w, _, vh = np.linalg.svd(arr)
    return w @ vh
