"""Logical-gate extraction and identification on top of full-chain evolution.

A logical qubit is carried by one physical site (up = |0>) or by a site pair
(|0>_L = down-up, |1>_L = up-down); every non-qubit site is a barrier pinned
to a reference z-state.  Gates are compared frame-free: once through explicit
per-qubit z-phase dressing against a target matrix, and once through local
equivalence invariants that no single-qubit dressing can move.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (DimensionMismatch, ExcessiveLeakage, NoRevivalFound,
                     NotDiagonalizableLocally, NotUnitary, SynthesisFailed)
from .evolve import ZeemanSchedule, check_phase, evolve, hold_modes, zeeman_frame
from .linalg import minimize
from .model import ChainSpec, basis_index, sigma_z_values

REVIVAL_THRESHOLD = 0.999
REVIVAL_DIP_LEVEL = 0.9
REVIVAL_GRID_POINTS = 800
REVIVAL_REFINE_TOL = 1e-6
REVIVAL_BATCH_COLUMNS = 256   # (time, input) columns per batched grid evaluation
LEAKAGE_REUNITARIZE = 1e-3
LEAKAGE_MEANINGLESS = 0.1
UNITARY_CHECK_ATOL = 1e-8
ALIGN_ANGLE_TOL = 1e-13     # coordinate ascent stops once no z-angle moves more
ALIGN_MAX_SWEEPS = 1000
SYNTH_SUCCESS_FIDELITY = 1.0 - 1e-6   # a start this good stops the synthesis early
SYNTH_FAIL_FIDELITY = 0.999          # below this best fidelity the synthesis fails

# |0>_L, |1>_L bit patterns on a (lower-level, upper-level) site pair
PAIR_LOGICAL_BITS = ((1, 0), (0, 1))


@dataclass(frozen=True)
class EncodingMap:
    """Assignment of chain sites to logical qubits and reference barriers."""

    n: int
    qubit_sites: tuple[tuple[int, ...], ...]
    barrier_refs: tuple[tuple[int, int], ...]  # (site, reference bit), 0 = up

    def __post_init__(self):
        seen: set[int] = set()
        for group in self.qubit_sites:
            if len(group) not in (1, 2):
                raise ValueError(f"a logical qubit spans 1 or 2 sites, got {group}")
            seen.update(group)
        for site, bit in self.barrier_refs:
            if bit not in (0, 1):
                raise ValueError(f"barrier reference bit must be 0 or 1, got {bit}")
            seen.add(site)
        want = set(range(self.n))
        total = sum(len(g) for g in self.qubit_sites) + len(self.barrier_refs)
        if seen != want or total != self.n:
            raise ValueError("qubit and barrier sites must partition the chain")

    @classmethod
    def single_site(cls, n: int, qubits: Sequence[int], barrier_refs: dict[int, int]) -> "EncodingMap":
        return cls(n, tuple((q,) for q in qubits), tuple(sorted(barrier_refs.items())))

    @classmethod
    def paired(cls, n: int, pairs: Sequence[tuple[int, int]], barrier_refs: dict[int, int]) -> "EncodingMap":
        return cls(n, tuple(tuple(p) for p in pairs), tuple(sorted(barrier_refs.items())))

    @property
    def n_qubits(self) -> int:
        return len(self.qubit_sites)

    @property
    def logical_dim(self) -> int:
        return 2 ** self.n_qubits

    def reference_bit(self, site: int) -> int:
        for s, bit in self.barrier_refs:
            if s == site:
                return bit
        raise ValueError(f"site {site} is not a barrier")

    def chain_bits(self, logical_index: int) -> tuple[int, ...]:
        """Full-chain bit pattern carrying the given logical basis state."""
        bits = [0] * self.n
        for site, ref in self.barrier_refs:
            bits[site] = ref
        for q, group in enumerate(self.qubit_sites):
            lbit = (logical_index >> (self.n_qubits - 1 - q)) & 1
            if len(group) == 1:
                bits[group[0]] = lbit
            else:
                bits[group[0]], bits[group[1]] = PAIR_LOGICAL_BITS[lbit]
        return tuple(bits)

    def basis_indices(self) -> np.ndarray:
        return np.array([basis_index(self.chain_bits(j)) for j in range(self.logical_dim)])

    def embed_basis(self) -> np.ndarray:
        """(2^n, logical_dim) matrix whose columns are the encoded basis states."""
        out = np.zeros((2 ** self.n, self.logical_dim), dtype=complex)
        out[self.basis_indices(), np.arange(self.logical_dim)] = 1.0
        return out

    def embed_state(self, logical: np.ndarray) -> np.ndarray:
        return self.embed_basis() @ np.asarray(logical, dtype=complex)


# ---------------------------------------------------------------------------
# revival search


def _revival_populations(modes: list, n_in: int, times: np.ndarray) -> np.ndarray:
    """(n_in, len(times)) barrier reference populations, summed over sectors
    given as (live inputs, w, their amplitudes a, C) as in find_revival."""
    pops = np.zeros((n_in, len(times)))
    for live, w, amp, c in modes:
        phased = amp[:, :, None] * np.exp(-1j * w[:, None, None] * times)
        out = c @ phased.reshape(len(w), -1)
        pops[live] += (np.abs(out) ** 2).sum(axis=0).reshape(len(live), len(times))
    return pops


def find_revival(chain: ChainSpec, head: ZeemanSchedule, hold: Sequence[float],
                 tail: ZeemanSchedule, barrier_site: int, window: tuple[float, float],
                 enc: EncodingMap, threshold: float = REVIVAL_THRESHOLD,
                 dip_level: float = REVIVAL_DIP_LEVEL) -> tuple[float, float]:
    """Earliest t at which the barrier returns to its reference state after
    leaving it, under the schedule head, then `hold` energies for t, then tail.

    The figure of merit p(t) is the minimum, over encoded logical basis
    inputs, of the barrier's reference-state population.  A revival requires
    p to first dip below `dip_level` and then recover above `threshold`;
    the earliest of REVIVAL_GRID_POINTS grid maxima doing so is refined by
    golden section to REVIVAL_REFINE_TOL (in units of 1/J).

    p is scored spectrally: the hold of length t is a phase rotation in its
    own eigenbasis, so an input's population is the sum over the sectors k
    it occupies of ||C_k (a_k * exp(-i w_k t))||^2, with a_k its hold
    eigenbasis amplitudes and C_k the tail-evolved hold eigenmodes on the
    barrier's reference rows.  The grid is scored in order, in batches of at
    most REVIVAL_BATCH_COLUMNS (time, input) columns, and the scoring stops
    after the batch that holds the grid point just past the first revival;
    a search that finds no revival scores all REVIVAL_GRID_POINTS points.
    """
    check_phase(chain, hold, max(map(abs, window)))   # the grid phases the hold itself
    ref = enc.reference_bit(barrier_site)
    lead = evolve(chain, head, enc.embed_basis())
    n_in = enc.logical_dim
    modes = []
    for rows, w, amp, c in hold_modes(chain, hold, tail, lead):
        live = np.flatnonzero(amp.any(axis=0))
        keep = ((rows >> (chain.n - 1 - barrier_site)) & 1) == ref
        modes.append((live, w, amp[:, live], c[keep]))

    def probs(times: np.ndarray) -> np.ndarray:
        return _revival_populations(modes, n_in, times).min(axis=0)

    def prob(t: float) -> float:
        return float(probs(np.array([t]))[0])

    ts = np.linspace(window[0], window[1], REVIVAL_GRID_POINTS)
    step = max(1, REVIVAL_BATCH_COLUMNS // n_in)
    ps: list[float] = []

    def grid(i: int) -> float:   # p(ts[i]), scoring the batches up to i's in order
        while len(ps) <= i:
            ps.extend(probs(ts[len(ps):len(ps) + step]))
        return ps[i]

    start = next((i for i in range(len(ts)) if grid(i) < dip_level), None)
    if start is None:
        raise NoRevivalFound(
            f"barrier {barrier_site} never left its reference state "
            f"(min population {np.min(ps):.6f})")
    best_i, best_p = None, 0.0
    for i in range(start + 1, len(ts) - 1):
        lo, p, hi = grid(i - 1), grid(i), grid(i + 1)
        if p >= lo and p >= hi:
            if p > best_p:
                best_p = float(p)
            if p >= threshold:
                best_i = i
                break
    if best_i is None:
        raise NoRevivalFound(f"no revival above {threshold} in window (best {best_p:.6f})")
    t_r, _ = linalg.golden_section(prob, ts[best_i - 1], ts[best_i + 1],
                                   REVIVAL_REFINE_TOL / chain.coupling, maximize=True)
    return float(t_r), prob(t_r)


# ---------------------------------------------------------------------------
# extraction and comparison


def logical_block(chain: ChainSpec, schedule: ZeemanSchedule, enc: EncodingMap,
                  passive: Sequence[float]) -> tuple[np.ndarray, float]:
    """(encoded block, leakage) of the gate the schedule carries out on the
    encoded basis, read in the passive Zeeman frame.

    The encoded basis is evolved through the schedule and kept on its own
    rows; the passive winding exp(-i t sum_i E_i sigma^z_i) over the whole
    schedule is taken off those rows.  The leakage is the largest population
    any input loses from the encoded subspace.
    """
    idx = enc.basis_indices()
    frame = zeeman_frame(chain, passive, schedule.total_duration)[idx]
    block = evolve(chain, schedule, enc.embed_basis())[idx] * frame.conj()[:, None]
    col_mass = (np.abs(block) ** 2).sum(axis=0)
    return block, float(np.clip(1.0 - col_mass.min(), 0.0, 1.0))


def extract_gate(block: np.ndarray, leakage: float) -> np.ndarray:
    """The logical gate of an encoded block with the given leakage (see
    logical_block).

    The block is re-unitarized by polar projection when leakage is small.
    """
    if leakage > LEAKAGE_MEANINGLESS:
        raise ExcessiveLeakage(
            f"leakage {leakage:.4f} exceeds {LEAKAGE_MEANINGLESS}; extracted block is meaningless")
    return linalg.polar_unitary(block) if leakage < LEAKAGE_REUNITARIZE else block


_MAGIC = np.array([
    [1, 0, 0, 1j],
    [0, 1j, 1, 0],
    [0, 1j, -1, 0],
    [1, 0, 0, -1j],
], dtype=complex) / np.sqrt(2.0)


def _two_qubit_unitary(u) -> np.ndarray:
    """u as a complex 4x4 unitary to UNITARY_CHECK_ATOL, else DimensionMismatch or NotUnitary."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise DimensionMismatch(f"expected a 4x4 matrix, got {u.shape}")
    defect = linalg.unitarity_defect(u)
    if defect > UNITARY_CHECK_ATOL:
        raise NotUnitary(f"unitarity defect {defect:.3e} exceeds {UNITARY_CHECK_ATOL}")
    return u


def local_equivalence_invariants(u: np.ndarray) -> tuple[complex, complex]:
    """Two-qubit local invariants (g1, g2); equal iff gates differ by local unitaries."""
    u = _two_qubit_unitary(u)
    m = _MAGIC.conj().T @ u @ _MAGIC
    mm = m.T @ m
    det = np.linalg.det(u)
    tr = np.trace(mm)
    g1 = tr ** 2 / (16.0 * det)
    g2 = (tr ** 2 - np.trace(mm @ mm)) / (4.0 * det)
    return complex(g1), complex(g2)


def invariant_deviation(u: np.ndarray, v: np.ndarray) -> float:
    gu, gv = local_equivalence_invariants(u), local_equivalence_invariants(v)
    return float(max(abs(gu[0] - gv[0]), abs(gu[1] - gv[1])))


def operator_schmidt_factor(mat: np.ndarray, n_qubits: int,
                            group: Sequence[int]) -> tuple[np.ndarray, float]:
    """Leading product factor of a multi-qubit operator across a bipartition.

    For mat close to A_group (x) B_rest, returns the group factor (normalized
    to Frobenius norm sqrt(dim), phase arbitrary) and the Schmidt weight
    s_0 / ||s||, which is 1 exactly when mat is a product across the cut.
    Unlike postselected blocks, this stays well conditioned when the other
    qubits are driven far from their input states.
    """
    mat = np.asarray(mat, dtype=complex)
    dim = 2 ** n_qubits
    if mat.shape != (dim, dim):
        raise DimensionMismatch(f"expected {dim}x{dim}, got {mat.shape}")
    group = tuple(group)
    rest = tuple(q for q in range(n_qubits) if q not in group)
    if not group or sorted(set(group)) != sorted(group):
        raise DimensionMismatch("group must be a nonempty set of distinct qubits")
    t = mat.reshape((2,) * (2 * n_qubits))   # axes: out 0..n-1, in n..2n-1
    perm = ([q for q in group] + [n_qubits + q for q in group]
            + [q for q in rest] + [n_qubits + q for q in rest])
    dg, dr = 2 ** len(group), 2 ** len(rest)
    realigned = t.transpose(perm).reshape(dg * dg, dr * dr)
    u, s, _ = np.linalg.svd(realigned, full_matrices=False)
    factor = u[:, 0].reshape(dg, dg)
    factor = factor * (np.sqrt(dg) / np.linalg.norm(factor))
    weight = float(s[0] / np.linalg.norm(s))
    return factor, weight


def rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def euler_zyz(a: float, b: float, c: float) -> np.ndarray:
    return rz(a) @ ry(b) @ rz(c)


@dataclass
class PhaseAlignment:
    distance: float
    dressed: np.ndarray


def align_phases(gate: np.ndarray, target: np.ndarray, two_sided: bool = True) -> PhaseAlignment:
    """Dress a gate with per-qubit z-rotations to best match a target.

    Maximizes |tr(target^dag Z_post gate Z_pre)| over the z-angles (post
    only, if two_sided is false) by exact coordinate ascent: the dressed gate
    is gate * (p q^T) for the dressings' diagonals p and q, so each angle
    enters the trace as a e^{-i theta/2} + b e^{i theta/2} and moves straight
    to its maximizer theta = arg a - arg b.  The ascent runs from every
    corner of {0, pi}^k for the k free angles and keeps the best overlap; the
    reported distance is op_distance at that trace optimum.
    """
    gate = np.asarray(gate, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if gate.shape != target.shape or gate.shape[0] not in (2, 4):
        raise DimensionMismatch(f"cannot align shapes {gate.shape} and {target.shape}")
    n_qubits = 2 if gate.shape[0] == 4 else 1
    signs = sigma_z_values(n_qubits)
    weights = target.conj() * gate
    sides = 2 if two_sided else 1

    def dressing(x: np.ndarray) -> np.ndarray:   # x rows: post angles, pre angles
        return np.outer(np.exp(-0.5j * x[0] @ signs), np.exp(-0.5j * x[1] @ signs))

    best_overlap, best_x = -1.0, None
    for corner in itertools.product((0.0, np.pi), repeat=sides * n_qubits):
        x = np.zeros((2, n_qubits))
        x[:sides] = np.reshape(corner, (sides, n_qubits))
        for _ in range(ALIGN_MAX_SWEEPS):
            step = 0.0
            for side, q in itertools.product(range(sides), range(n_qubits)):
                # post angles weigh the rows of the dressed trace, pre angles the columns
                sums = (weights * dressing(x)).sum(axis=1 - side)
                delta = np.angle(sums[signs[q] > 0].sum() * np.conj(sums[signs[q] < 0].sum()))
                x[side, q] += delta
                step = max(step, abs(delta))
            if step <= ALIGN_ANGLE_TOL:
                break
        overlap = abs((weights * dressing(x)).sum())
        if overlap > best_overlap:
            best_overlap, best_x = overlap, x
    dressed = gate * dressing(best_x)
    return PhaseAlignment(distance=linalg.op_distance(dressed, target), dressed=dressed)


def derive_local_corrections(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Split a (near-)diagonal two-qubit gate into local z-phases and a
    controlled phase: (Q1 x Q2) K = diag(1, 1, 1, e^{i phi}).

    Returns (Q1, Q2, phi, off_diagonal_residual), phi in (-pi, pi].
    """
    k = _two_qubit_unitary(k)
    off = k - np.diag(np.diag(k))
    residual = float(np.abs(off).max())
    if residual > 1e-3:
        raise NotDiagonalizableLocally(
            f"off-diagonal residual {residual:.3e} exceeds 1e-3")
    a, b, c, d = np.angle(np.diag(k))
    phi = float(np.angle(np.exp(1j * (a - b - c + d))))
    # q1 = (0, a - c) and q2 = (-a, -b) solve the three unit-entry equations
    q1 = np.diag([1.0, np.exp(1j * (a - c))]).astype(complex)
    q2 = np.diag([np.exp(-1j * a), np.exp(-1j * b)])
    return q1, q2, phi, residual


# ---------------------------------------------------------------------------
# reference gates


def exchange_gate_target() -> np.ndarray:
    """Two-qubit gate produced by the resonant barrier exchange."""
    w = 0.5 * np.exp(1j * np.pi / 3.0)
    return np.array([
        [1, 0, 0, 0],
        [0, w, 1j * np.sqrt(3.0) * w, 0],
        [0, 1j * np.sqrt(3.0) * w, w, 0],
        [0, 0, 0, 1],
    ], dtype=complex)


def controlled_phase(phi: float) -> np.ndarray:
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)]).astype(complex)


def cnot_target() -> np.ndarray:
    return np.array([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ], dtype=complex)


# local invariants of the identity class, which the refocusing demo aims for
IDENTITY_INVARIANTS = (1.0 + 0.0j, 3.0 + 0.0j)


# ---------------------------------------------------------------------------
# CNOT synthesis


@dataclass
class SynthesisResult:
    fidelity: float
    local_angles: np.ndarray  # (n_uses + 1, 6): ZYZ angles for each qubit pair
    n_starts_used: int


def _local_layer(angles: np.ndarray) -> np.ndarray:
    return np.kron(euler_zyz(*angles[:3]), euler_zyz(*angles[3:]))


def circuit_fidelity(entangler: np.ndarray, angles: np.ndarray, target: np.ndarray) -> float:
    """F = |tr(target^dag L_n E ... E L_0)|^2 / 16 for interleaved local layers."""
    u = _local_layer(angles[0])
    for row in angles[1:]:
        u = _local_layer(row) @ entangler @ u
    t = np.trace(target.conj().T @ u)
    return float(abs(t) ** 2 / 16.0)


# Rz(a) Ry(b) Rz(c) has entries e^{-i(s_j a + s_k c)/2} cos(b/2 + o_jk)
_ZYZ_SIGNS = np.array([1.0, -1.0])
_ZYZ_OFFSETS = np.array([[0.0, 0.5 * np.pi], [-0.5 * np.pi, 0.0]])


def _zyz_with_grad(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rz(a) Ry(b) Rz(c) for angle triples (..., 3), as (..., 2, 2), and its
    partial derivatives in (a, b, c), as (..., 3, 2, 2), in closed form."""
    a, b, c = (angles[..., i, None, None] for i in range(3))
    s = _ZYZ_SIGNS
    phase = np.exp(-0.5j * (s[:, None] * a + s * c))
    half_b = 0.5 * b + _ZYZ_OFFSETS
    u = phase * np.cos(half_b)
    du = np.stack([-0.5j * s[:, None] * u, -0.5 * phase * np.sin(half_b),
                   -0.5j * s * u], axis=-3)
    return u, du


def _fidelity_and_grad(entangler: np.ndarray, angles: np.ndarray,
                       target: np.ndarray) -> tuple[float, np.ndarray]:
    """circuit_fidelity and its exact gradient in the (n_uses + 1, 6) angles.

    With U = P_k L_k Q_k for the products above and below layer k,
    g = tr(T^dag U) = tr(M_k L_k) with M_k = Q_k T^dag P_k, so each layer's
    partials need one contraction of M_k with dL_k = dA (x) B or A (x) dB.
    """
    u, du = _zyz_with_grad(angles.reshape(-1, 2, 3))
    a, b, da, db = u[:, 0], u[:, 1], du[:, 0], du[:, 1]
    layers = np.einsum("kac,kbd->kabcd", a, b).reshape(-1, 4, 4)
    n = len(layers)
    below = [np.eye(4, dtype=complex)]   # E L_{k-1} ... L_0
    for k in range(1, n):
        below.append(entangler @ layers[k - 1] @ below[-1])
    above = [np.eye(4, dtype=complex)]   # L_{n-1} E ... L_{k+1} E, built downward
    for k in range(n - 1, 0, -1):
        above.append(above[-1] @ layers[k] @ entangler)
    g = np.vdot(target, layers[-1] @ below[-1])
    m = (np.stack(below) @ target.conj().T @ np.stack(above[::-1])).reshape(n, 2, 2, 2, 2)
    grad_a = np.einsum("kabcd,kdb,kpca->kp", m, b, da)
    grad_b = np.einsum("kabcd,kca,kpdb->kp", m, a, db)
    dg = np.concatenate([grad_a, grad_b], axis=1).ravel()
    return float(abs(g) ** 2 / 16.0), (g.conjugate() * dg).real / 8.0


def synthesize_cnot(entangler: np.ndarray, n_uses: int, seed: int,
                    n_starts: int) -> SynthesisResult:
    """Search interleaving single-qubit layers for a CNOT realization.

    Multi-start exact-gradient BFGS (linalg.minimize) maximization of
    circuit fidelity; start k draws its initial angles from a stream seeded
    by (seed, k), so the result does not depend on evaluation order.  Starts
    run in fixed batches with early stop once a batch contains a success.
    """
    entangler = _two_qubit_unitary(entangler)
    target = cnot_target()
    shape = (n_uses + 1, 6)

    def cost(x: np.ndarray) -> tuple[float, np.ndarray]:
        f, grad = _fidelity_and_grad(entangler, x, target)
        return 1.0 - f, -grad

    def run_start(k: int) -> tuple[float, np.ndarray]:
        rng = np.random.default_rng([seed, k])
        x0 = rng.uniform(-np.pi, np.pi, shape).ravel()
        f, x = minimize(cost, x0)
        return 1.0 - f, x.reshape(shape)

    best_f, best_x, used = -1.0, None, 0
    batch = 8
    for lo in range(0, n_starts, batch):
        ids = range(lo, min(lo + batch, n_starts))
        used = max(ids) + 1
        for f, x in map(run_start, ids):
            if f > best_f:
                best_f, best_x = f, x
        if best_f > SYNTH_SUCCESS_FIDELITY:
            break
    if best_f < SYNTH_FAIL_FIDELITY:
        raise SynthesisFailed(
            f"best fidelity {best_f:.6f} after {used} starts",
            best_fidelity=best_f)
    return SynthesisResult(fidelity=best_f, local_angles=best_x, n_starts_used=used)
