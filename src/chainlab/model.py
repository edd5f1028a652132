"""Spin-chain Hamiltonians: always-on Heisenberg coupling plus tunable Zeeman terms.

The physical model is a 1-D chain of spin-1/2 sites,

    H = sum_i E_i sigma^z_i  +  J sum_i vec(sigma)_i . vec(sigma)_{i+1}

with hbar = 1 and Pauli matrices (not spin operators).  Site Zeeman energies
E_i are the only control knobs; the exchange J is fixed and always on.

Basis convention, used everywhere in this package:
  * spin up |u> is the sigma^z = +1 eigenstate and encodes logical |0>,
  * site 0 is the leftmost spin and the most significant bit, so a product
    state with bits b_0..b_{n-1} (0 = up) sits at index sum b_i 2^(n-1-i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LengthMismatch, SiteOutOfRange

PAULI_ID = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}

MIN_SITES = 2
MAX_SITES = 12

ROLE_NAMES = ("A", "B", "C")


@dataclass(frozen=True)
class ChainSpec:
    """Chain size, exchange coupling, and the passive role of each site."""

    n: int
    coupling: float
    roles: str

    def __post_init__(self):
        if not (MIN_SITES <= self.n <= MAX_SITES):
            raise ValueError(f"n must be in [{MIN_SITES}, {MAX_SITES}], got {self.n}")
        if not self.coupling > 0:
            raise ValueError(f"coupling must be positive, got {self.coupling}")
        if len(self.roles) != self.n:
            raise LengthMismatch(f"roles string has length {len(self.roles)}, chain has {self.n} sites")
        bad = set(self.roles) - set(ROLE_NAMES)
        if bad:
            raise ValueError(f"unknown roles {sorted(bad)}; allowed: {ROLE_NAMES}")

    @property
    def dim(self) -> int:
        return 1 << self.n


@dataclass(frozen=True)
class ZeemanLevels:
    """The three passive Zeeman energies. Detunings are in units of J."""

    a: float
    b: float
    c: float

    @classmethod
    def from_delta(cls, coupling: float, delta: float) -> "ZeemanLevels":
        """Equally spaced levels: A = 0 and (B - A)/J = (C - B)/J = delta."""
        if not delta > 0:
            raise ValueError(f"delta must be positive, got {delta}")
        b = delta * coupling
        return cls(a=0.0, b=b, c=b + b)

    def of_role(self, role: str) -> float:
        return {"A": self.a, "B": self.b, "C": self.c}[role]


def site_energies(chain: ChainSpec, levels: ZeemanLevels) -> np.ndarray:
    """Passive per-site Zeeman energies implied by the role pattern."""
    return np.array([levels.of_role(r) for r in chain.roles], dtype=float)


# ---------------------------------------------------------------------------
# basis bookkeeping

def basis_index(bits: Sequence[int]) -> int:
    """Index of the product state with the given bits (site 0 most significant)."""
    idx = 0
    for b in bits:
        idx = (idx << 1) | (b & 1)
    return idx


def sigma_z_values(n: int) -> np.ndarray:
    """(n, 2^n) array of sigma^z eigenvalues: entry [i, k] is s_i of basis state k."""
    idx = np.arange(1 << n)
    return np.stack([1 - 2 * ((idx >> (n - 1 - i)) & 1) for i in range(n)]).astype(float)


# ---------------------------------------------------------------------------
# operators

def kron_all(ops: Sequence[np.ndarray]) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def pauli_site(axis: str, site: int, n: int) -> np.ndarray:
    """Pauli operator on one site of an n-site chain, identity elsewhere."""
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of x, y, z; got {axis!r}")
    if not (0 <= site < n):
        raise SiteOutOfRange(f"site {site} outside chain of {n} sites")
    return kron_all([_PAULI[axis] if i == site else PAULI_ID for i in range(n)])


def _check_energies(chain: ChainSpec, energies: Sequence[float]) -> np.ndarray:
    e = np.asarray(energies, dtype=float)
    if e.shape != (chain.n,):
        raise LengthMismatch(f"expected {chain.n} site energies, got shape {e.shape}")
    return e


def classical_ising_energies(chain: ChainSpec, energies: Sequence[float]) -> np.ndarray:
    """Diagonal sum_i E_i s_i + J sum_i s_i s_{i+1} over all 2^n configurations:
    the strong-detuning (effective Ising) limit of the Heisenberg chain, with
    the exchange reduced to its J zz terms."""
    e = _check_energies(chain, energies)
    s = sigma_z_values(chain.n)
    diag = e @ s
    for i in range(chain.n - 1):
        diag = diag + chain.coupling * s[i] * s[i + 1]
    return diag


def heisenberg_block(chain: ChainSpec, energies: Sequence[float], states) -> np.ndarray:
    """Real block of H = sum_i E_i sigma^z_i + J sum_i vec(sigma)_i . vec(sigma)_{i+1}
    on the given basis indices, rows and columns in their order.

    The xx + yy exchange appears as a 2J flip-flop element between basis
    states whose spins differ by one neighboring up-down swap; flip-flops
    leading out of `states` are dropped.
    """
    e = _check_energies(chain, energies)
    n, J = chain.n, chain.coupling
    states = np.asarray(states)
    local = np.arange(states.size)
    pos = np.full(chain.dim, -1)
    pos[states] = local
    h = np.zeros((states.size, states.size))
    h[local, local] = classical_ising_energies(chain, e)[states]
    s = sigma_z_values(n)[:, states]
    for i in range(n - 1):
        src = local[s[i] * s[i + 1] < 0]
        dst = pos[states[src] ^ ((1 << (n - 1 - i)) | (1 << (n - 2 - i)))]
        h[dst[dst >= 0], src[dst >= 0]] += 2.0 * J
    return h


def build_heisenberg(chain: ChainSpec, energies: Sequence[float]) -> np.ndarray:
    """Dense complex H on the full basis; see heisenberg_block."""
    return heisenberg_block(chain, energies, np.arange(chain.dim)).astype(complex)


def reduced_three_spin(qubit_energy: float, coupling: float, eps: float) -> np.ndarray:
    """Three-spin model of a five-spin gate section with frozen outer spins.

    The outer up spins shift both qubit-site Zeeman energies by +J, so the
    section reduces to a three-site chain with energies (A+J, eps, A+J).  The
    tuned barrier energy eps enters as eps * sigma^z on the middle site.
    """
    chain = ChainSpec(n=3, coupling=coupling, roles="ABA")
    shifted = qubit_energy + coupling
    return build_heisenberg(chain, (shifted, eps, shifted))
