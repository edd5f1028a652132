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

import functools
from dataclasses import dataclass, field
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
        if not 0 < self.coupling < np.inf:
            raise ValueError(f"coupling must be positive and finite, got {self.coupling}")
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
    """The coupling J, the detuning delta in units of J, and the three passive
    Zeeman energies they set: A = 0 and (B - A)/J = (C - B)/J = delta."""

    coupling: float
    delta: float
    a: float = field(init=False)
    b: float = field(init=False)
    c: float = field(init=False)

    def __post_init__(self):
        b = self.delta * self.coupling
        if not (0 < self.delta < np.inf and b + b < np.inf):
            raise ValueError(f"delta must be positive and finite, as must 2 delta J; got {self.delta}")
        for name, energy in (("a", 0.0), ("b", b), ("c", b + b)):
            object.__setattr__(self, name, energy)

    def of_role(self, role: str) -> float:
        return {"A": self.a, "B": self.b, "C": self.c}[role]


def site_energies(chain: ChainSpec, levels: ZeemanLevels) -> np.ndarray:
    """Passive per-site Zeeman energies implied by the role pattern.

    Refuses (ValueError) levels at another J, and a chain whose largest diagonal
    energy, sum_i |E_i| + (n - 1) J, is not finite: its Hamiltonian would overflow.
    """
    if chain.coupling != levels.coupling:
        raise ValueError(f"a chain at J = {chain.coupling} given levels at J = {levels.coupling}")
    e = [float(levels.of_role(r)) for r in chain.roles]
    # Python floats: an overflowing sum is inf without a numpy warning
    if not sum(map(abs, e)) + (chain.n - 1) * chain.coupling < np.inf:
        raise ValueError(f"the {chain.roles} chain's diagonal energy sum |E_i| + (n-1)J "
                         f"overflows at B = {levels.b}, J = {chain.coupling}")
    return np.array(e, dtype=float)


# ---------------------------------------------------------------------------
# basis bookkeeping

def basis_index(bits: Sequence[int]) -> int:
    """Index of the product state with the given bits (site 0 most significant)."""
    idx = 0
    for b in bits:
        idx = (idx << 1) | (b & 1)
    return idx


@functools.lru_cache(maxsize=None)
def sigma_z_values(n: int) -> np.ndarray:
    """(n, 2^n) read-only array of sigma^z eigenvalues: entry [i, k] is s_i of
    basis state k."""
    idx = np.arange(1 << n)
    s = np.stack([1 - 2 * ((idx >> (n - 1 - i)) & 1) for i in range(n)]).astype(float)
    s.flags.writeable = False
    return s


# ---------------------------------------------------------------------------
# operators

def pauli_site(axis: str, site: int, n: int) -> np.ndarray:
    """Pauli operator on one site of an n-site chain, identity elsewhere."""
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of x, y, z; got {axis!r}")
    if not (0 <= site < n):
        raise SiteOutOfRange(f"site {site} outside chain of {n} sites")
    return functools.reduce(np.kron, [_PAULI[axis] if i == site else PAULI_ID for i in range(n)])


def check_energies(chain: ChainSpec, energies: Sequence[float]) -> np.ndarray:
    """The energies as a float array, or LengthMismatch unless one per site."""
    e = np.asarray(energies, dtype=float)
    if e.shape != (chain.n,):
        raise LengthMismatch(f"expected {chain.n} site energies, got shape {e.shape}")
    return e


def classical_ising_energies(chain: ChainSpec, energies: Sequence[float]) -> np.ndarray:
    """Diagonal sum_i E_i s_i + J sum_i s_i s_{i+1} over all 2^n configurations:
    the strong-detuning (effective Ising) limit of the Heisenberg chain, with
    the exchange reduced to its J zz terms."""
    e = check_energies(chain, energies)
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
    e = check_energies(chain, energies)
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
