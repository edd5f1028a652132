"""Piecewise-constant Zeeman schedules and the evolution they generate.

Control is a sequence of (duration, per-site energies) segments with abrupt
switching between them.  Every segment Hamiltonian commutes with total
sigma^z and is real in the z basis, so it is diagonalized one real
magnetization-sector block at a time, only for the sectors the evolved state
occupies, and the eigensystems are kept in a byte-bounded LRU cache; time
evolution for any duration is then a cheap phase rotation.  Every energy
vector is held to the chain's length by model.check_energies.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
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


@dataclass(frozen=True)
class ZeemanSchedule:
    segments: tuple[Segment, ...]

    @classmethod
    def from_steps(cls, steps: Sequence[tuple[float, Sequence[float]]]) -> "ZeemanSchedule":
        return cls(tuple(Segment(float(d), tuple(float(x) for x in e)) for d, e in steps))

    @property
    def total_duration(self) -> float:
        return sum(seg.duration for seg in self.segments)


# ---------------------------------------------------------------------------
# the sector kernel: real eigensystems per (n, J, energies, sector), filled
# lazily and kept in an LRU cache under a byte budget

EIG_CACHE_BYTES = 128 << 20

_EIG_CACHE: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = OrderedDict()
_EIG_LOCK = threading.Lock()
_eig_bytes = 0


@functools.lru_cache(maxsize=None)
def _sectors(n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Number of down spins of each basis index, and the basis indices of
    each magnetization sector in ascending order."""
    idx = np.arange(1 << n)
    down = sum((idx >> i) & 1 for i in range(n))
    return down, tuple(np.flatnonzero(down == k) for k in range(n + 1))


def _sector_eig(chain: ChainSpec, energies: tuple[float, ...], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and real eigenvectors of the block of sector k (k spins
    down), from the cache or from one eigh whose result is then cached."""
    global _eig_bytes
    key = (chain.n, chain.coupling, energies, k)
    with _EIG_LOCK:
        hit = _EIG_CACHE.get(key)
        if hit is not None:
            _EIG_CACHE.move_to_end(key)
            return hit
    wv = np.linalg.eigh(heisenberg_block(chain, energies, _sectors(chain.n)[1][k]))
    with _EIG_LOCK:
        if key not in _EIG_CACHE:
            _EIG_CACHE[key] = wv
            _eig_bytes += wv[0].nbytes + wv[1].nbytes
        wv = _EIG_CACHE[key]
        while _eig_bytes > EIG_CACHE_BYTES:
            w, v = _EIG_CACHE.popitem(last=False)[1]
            _eig_bytes -= w.nbytes + v.nbytes
    return wv


def _apply(chain: ChainSpec, energies: tuple[float, ...], t, psi: np.ndarray) -> np.ndarray:
    """exp(-i H t) on the columns of a C-contiguous complex (dim, m) psi.

    t is one duration for every column or an array of one per column.  A
    sector is diagonalized only when some column has amplitude in it; the
    rows of the others stay exactly zero.  The real eigenvectors act on the
    float view of the complex columns.
    """
    out = np.zeros_like(psi)
    for k, rows in _occupied(chain, psi, energies):
        out[rows] = _rotate(*_sector_eig(chain, energies, k), t, psi[rows])
    return out


def _occupied(chain: ChainSpec, psi: np.ndarray, *energies: tuple[float, ...]
              ) -> list[tuple[int, np.ndarray]]:
    """(sector, its basis indices) for each sector in which some column of
    psi has amplitude, once every segment's energies are checked to fit."""
    for e in energies:
        check_energies(chain, e)
    down, sector_rows = _sectors(chain.n)
    # bincount, not np.unique: unique imports numpy.ma on its first call
    return [(int(k), sector_rows[k])
            for k in np.flatnonzero(np.bincount(down[psi.any(axis=1)]))]


def _rotate(w: np.ndarray, v: np.ndarray, t, block: np.ndarray) -> np.ndarray:
    """exp(-i H t) on the C-contiguous complex columns of one sector block,
    from the block's eigensystem (w, v)."""
    amp = (v.T @ block.view(float)).view(complex)
    amp *= np.exp(-1j * w[:, None] * t)
    return (v @ amp.view(float)).view(complex)


# ---------------------------------------------------------------------------
# public evolution API

def evolve(chain: ChainSpec, schedule: ZeemanSchedule, psi0: np.ndarray) -> np.ndarray:
    """Apply the schedule to a state or a (dim, m) batch; the identity gives its unitary.

    An empty schedule is the zero-duration limit and returns the input.
    """
    psi = np.array(psi0, dtype=complex, order="C")
    cols = psi.reshape(psi.shape[0], -1)
    for seg in schedule.segments:
        cols = _apply(chain, seg.energies, seg.duration, cols)
    return cols.reshape(psi.shape)


def apply_hold(chain: ChainSpec, energies: Sequence[float], durations: np.ndarray,
               psi: np.ndarray) -> np.ndarray:
    """Evolve each column of psi under one energy vector for its own duration.

    durations has one entry per column; used for jittered-timing ensembles
    where every trajectory sees the same Hamiltonian for a different time.
    """
    durations = np.asarray(durations, dtype=float)
    psi = np.ascontiguousarray(psi, dtype=complex)
    if psi.ndim != 2 or durations.shape != (psi.shape[1],):
        raise LengthMismatch("durations must match the number of state columns")
    return _apply(chain, tuple(float(x) for x in energies), durations, psi)


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
    energies = tuple(float(x) for x in energies)
    psi = np.ascontiguousarray(psi, dtype=complex)
    for k, rows in _occupied(chain, psi, energies, *(seg.energies for seg in after.segments)):
        w, v = _sector_eig(chain, energies, k)
        amp = (v.T @ psi[rows].view(float)).view(complex)
        modes = v.astype(complex)
        for seg in after.segments:
            modes = _rotate(*_sector_eig(chain, seg.energies, k), seg.duration, modes)
        yield rows, w, amp, modes


def zeeman_frame(chain: ChainSpec, energies: Sequence[float], t: float) -> np.ndarray:
    """Diagonal of R(t) = exp(-i t sum_i E_i sigma^z_i)."""
    zphase = check_energies(chain, energies) @ sigma_z_values(chain.n)
    return np.exp(-1j * t * zphase)
