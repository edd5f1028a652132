"""Piecewise-constant Zeeman schedules and the evolution they generate.

Control is a sequence of (duration, per-site energies) segments with abrupt
switching between them.  Every segment Hamiltonian commutes with total
sigma^z and is real in the z basis, so evolve, apply_hold and hold_modes
share one sector pass: the rows of each magnetization sector the state
occupies are gathered once, carried through every segment as phase
rotations in the sector's real eigenbasis, and scattered once.  The
eigensystems are kept in a bounded LRU cache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import LengthMismatch
from .model import ChainSpec, check_energies, heisenberg_block, sigma_z_values


@dataclass(frozen=True)
class Segment:
    duration: float
    energies: tuple[float, ...]

    def __post_init__(self):
        if not 0 < self.duration < np.inf:
            raise ValueError(f"segment duration must be positive and finite, got {self.duration}")
        object.__setattr__(self, "energies", _floats(self.energies))


@dataclass(frozen=True)
class ZeemanSchedule:
    segments: tuple[Segment, ...]

    @classmethod
    def from_steps(cls, steps: Sequence[tuple[float, Sequence[float]]]) -> "ZeemanSchedule":
        return cls(tuple(Segment(float(d), e) for d, e in steps))

    @property
    def total_duration(self) -> float:
        return sum(seg.duration for seg in self.segments)


def _floats(energies: Sequence[float]) -> tuple[float, ...]:   # the eigensystem cache's key
    return tuple(float(x) for x in energies)


# ---------------------------------------------------------------------------
# the sector kernel: real eigensystems per (chain, energies, sector), filled
# lazily and kept in an LRU cache; at 12 sites 16 entries hold at most 109 MB

EIG_CACHE_ENTRIES = 16


@functools.lru_cache(maxsize=None)
def _sectors(n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Down spins of each basis index, and each sector's basis indices in ascending order."""
    idx = np.arange(1 << n)
    down = sum((idx >> i) & 1 for i in range(n))
    return down, tuple(np.flatnonzero(down == k) for k in range(n + 1))


@functools.lru_cache(maxsize=EIG_CACHE_ENTRIES)
def _sector_eig(chain: ChainSpec, energies: tuple[float, ...], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and real eigenvectors of the block of sector k (k spins down)."""
    return np.linalg.eigh(heisenberg_block(chain, energies, _sectors(chain.n)[1][k]))


def _steps(chain: ChainSpec, steps) -> list[tuple[tuple[float, ...], object]]:
    """Checked steps (energies as floats, t as one duration or one per column)."""
    out = [(_floats(energies), t) for energies, t in steps]
    for energies, t in out:
        check_phase(chain, energies, t)
        check_energies(chain, energies)
    return out


def _occupied(chain: ChainSpec, psi: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(sector, its basis indices) for each sector some column of psi occupies."""
    down, sector_rows = _sectors(chain.n)
    # bincount, not np.unique: unique imports numpy.ma on its first call
    return [(int(k), sector_rows[k])
            for k in np.flatnonzero(np.bincount(down[psi.any(axis=1)]))]


def _carry(chain: ChainSpec, steps, k: int, block: np.ndarray) -> np.ndarray:
    """Sector k's C-contiguous complex block through every checked step."""
    for energies, t in steps:
        block = _rotate(*_sector_eig(chain, energies, k), t, block)
    return block


def _pass(chain: ChainSpec, steps, psi: np.ndarray) -> np.ndarray:
    """The steps in order on a state or a (dim, m) batch; unoccupied sectors stay 0."""
    psi = _check_rows(chain, np.ascontiguousarray(psi, dtype=complex))
    cols = psi.reshape(psi.shape[0], -1)
    steps = _steps(chain, steps)
    out = np.zeros_like(cols)
    for k, rows in _occupied(chain, cols):
        out[rows] = _carry(chain, steps, k, cols[rows])
    return out.reshape(psi.shape)


def _check_rows(chain: ChainSpec, psi: np.ndarray) -> np.ndarray:
    """psi, or LengthMismatch unless it has one row per basis state."""
    if psi.shape[:1] != (chain.dim,):
        raise LengthMismatch(f"expected {chain.dim} state rows, got shape {psi.shape}")
    return psi


def check_phase(chain: ChainSpec, energies: Sequence[float], t) -> None:
    """Refuse (ValueError) a hold for t, one duration or an array of them,
    whose phases w t could overflow.  Every eigenvalue w of its Hamiltonian
    lies within sum_i |E_i| + 3 (n - 1) J (Gershgorin: the diagonal bound
    model.site_energies checks, plus the 2J flip-flops); Python floats, so an
    overflowing bound is inf without a numpy warning.  O(n) for a scalar t."""
    longest = abs(float(t)) if np.ndim(t) == 0 else float(np.abs(t).max(initial=0.0))
    bound = sum(abs(float(x)) for x in energies) + 3 * (chain.n - 1) * chain.coupling
    if not longest * bound < np.inf:
        raise ValueError(f"a hold of {longest} under energies bounded by {bound} "
                         "overflows its phase")


def phases(w: np.ndarray, t) -> np.ndarray:
    """exp(-i w[:, None] t) for real eigenvalues w and one duration or an
    array of them, bit for bit, from one real cos and one real sin of
    y = -w t instead of a complex exp.  The 0.0 - keeps the sign of zero the
    complex product gives where w or t is exactly 0."""
    y = 0.0 - w[:, None] * t
    out = np.empty(y.shape, dtype=complex)
    np.cos(y, out=out.real)
    np.sin(y, out=out.imag)
    return out


def _rotate(w: np.ndarray, v: np.ndarray, t, block: np.ndarray) -> np.ndarray:
    """exp(-i H t) on one sector's C-contiguous complex block, from its eigensystem (w, v)."""
    amp = (v.T @ block.view(float)).view(complex)
    amp *= phases(w, t)
    return (v @ amp.view(float)).view(complex)


# ---------------------------------------------------------------------------
# public evolution API

def evolve(chain: ChainSpec, schedule: ZeemanSchedule, psi0: np.ndarray) -> np.ndarray:
    """Apply the schedule to a state or a (dim, m) batch; the identity gives its
    unitary, and an empty schedule (the zero-duration limit) returns the input."""
    return _pass(chain, [(seg.energies, seg.duration) for seg in schedule.segments], psi0)


def apply_hold(chain: ChainSpec, energies: Sequence[float], durations: np.ndarray,
               psi: np.ndarray) -> np.ndarray:
    """Evolve each column of psi under one energy vector for its own duration,
    as in jittered-timing ensembles: one Hamiltonian, a different time each."""
    durations = np.asarray(durations, dtype=float)
    if np.ndim(psi) != 2 or durations.shape != np.shape(psi)[1:]:
        raise LengthMismatch("durations must match the number of state columns")
    return _pass(chain, [(energies, durations)], psi)


def hold_modes(chain: ChainSpec, energies: Sequence[float], after: ZeemanSchedule,
               psi: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Eigenmodes of a hold, carried through the segments after it, in each
    magnetization sector that a complex (dim, m) psi occupies.

    Yields (rows, w, amp, modes) per occupied sector: the sector's basis
    indices, the hold's eigenvalues w, the columns' amplitudes amp = v^T psi
    in the hold eigenbasis v, and modes = (after's block of the sector) v.
    Evolving psi under the hold for t and then under `after` gives
    modes @ (exp(-i w t)[:, None] * amp) on those rows, for any t.
    """
    psi = _check_rows(chain, np.ascontiguousarray(psi, dtype=complex))
    # the hold is checked as a step of no duration: callers phase it for their own t
    (hold, _), *steps = _steps(chain, [(energies, 0.0)] + [(seg.energies, seg.duration)
                                                          for seg in after.segments])
    for k, rows in _occupied(chain, psi):
        w, v = _sector_eig(chain, hold, k)
        amp = (v.T @ psi[rows].view(float)).view(complex)
        yield rows, w, amp, _carry(chain, steps, k, v.astype(complex))


def zeeman_frame(chain: ChainSpec, energies: Sequence[float], t: float) -> np.ndarray:
    """Diagonal of R(t) = exp(-i t sum_i E_i sigma^z_i); refuses a t whose
    phase could overflow, as every hold does."""
    check_phase(chain, energies, t)
    zphase = check_energies(chain, energies) @ sigma_z_values(chain.n)
    return np.exp(-1j * t * zphase)
