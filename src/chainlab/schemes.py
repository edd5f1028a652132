"""The three chain architectures, the architecture-1 exchange-gate pipeline,
the six-setting global switch, the barrier-collapse trajectory engine, and
the refocusing demo.

Each architecture's layout is built once as a Section (chain, passive
levels, encoding and its own parameters) that holds the schedules it runs
and refuses a bad parameter or an overflowing hold.

Architecture 1 places qubits on alternate sites of an ...ABAB... chain with
barrier spins between them (guards up, the gate-mediating barrier down);
architecture 2 encodes a qubit in a site pair of an ABCABC chain next to an
up barrier; architecture 3 drives an ABCABC chain through two global knobs
(the Zeeman energy of all even-group and all odd-group tunable sites).

The module does no file I/O: it returns records and arrays, and callers
write them as tables through analysis.emit_table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidGrouping
from .evolve import ZeemanSchedule, apply_hold, check_phase, evolve
from .gates import (IDENTITY_INVARIANTS, EncodingMap, PhaseAlignment, align_phases,
                    exchange_gate_target, extract_gate, find_revival,
                    local_equivalence_invariants, logical_block)
from .model import ChainSpec, ZeemanLevels, pauli_site, site_energies

ARCH1_SECTION_SITES = 9
ARCH1_GATE_BARRIER = 4
DEFAULT_PAD = 0.2
ARCH1_REVIVAL_WINDOW = (0.4, 2.2)   # in units of the nominal gate time pi / (3J)
ARCH1_REVIVAL_THRESHOLD = 0.5       # strongly detuned points never reach 0.999
ARCH1_REVIVAL_DIP = 0.85
JITTER_MODES = ("independent", "systematic")
# trials zeno_run simulates together: bounds the states held, and keeps each
# sector product small enough that BLAS runs it on one thread, so no BLAS
# worker spins during a run (tests/test_schemes.py checks the worker's CPU time)
_ZENO_BLOCK_TRIALS = 4096


def _steps(*segments: tuple[float, Sequence[float]]) -> ZeemanSchedule:
    return ZeemanSchedule.from_steps([(d, e) for d, e in segments if d != 0])


@dataclass(frozen=True)
class Section:
    """A chain laid out for one architecture: the chain, its passive Zeeman
    levels and the encoding of its qubits and barriers."""

    chain: ChainSpec
    levels: ZeemanLevels
    enc: EncodingMap
    passive_energies: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):   # site_energies refuses a layout whose Hamiltonian overflows
        object.__setattr__(self, "passive_energies", tuple(site_energies(self.chain, self.levels)))

    def _check_holds(self, *holds: tuple[str, Sequence[float], float]) -> None:
        """Refuse (ValueError, prefixed with its name) the first named hold
        (name, energies, duration) whose phase overflows on this chain."""
        for name, energies, t in holds:
            try:
                check_phase(self.chain, energies, t)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None


# ---------------------------------------------------------------------------
# architecture 1: single-site qubits on alternate spins


@dataclass(frozen=True)
class ArchitectureOne(Section):
    """Nine-site section; enc holds all four qubits.  Its gate is a passive hold
    of pad (absolute time), gate_energies for a time in revival_window, and the pad
    again; a bad pad, or a pad or window hold whose phase overflows, is refused."""

    enc_gate_pair: EncodingMap    # just the two qubits adjacent to ARCH1_GATE_BARRIER
    pad: float = DEFAULT_PAD
    gate_energies: tuple[float, ...] = field(init=False, repr=False, compare=False)
    revival_window: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.pad < np.inf:
            raise ValueError(f"pad must be >= 0 and finite, got {self.pad}")
        gate = list(self.passive_energies)
        gate[ARCH1_GATE_BARRIER] = self.levels.a + self.chain.coupling
        t0 = np.pi / (3.0 * self.chain.coupling)   # the nominal gate time
        object.__setattr__(self, "gate_energies", tuple(gate))
        object.__setattr__(self, "revival_window", tuple(x * t0 for x in ARCH1_REVIVAL_WINDOW))
        window = f"the revival window at coupling {self.chain.coupling}"
        self._check_holds(("pad", self.passive_energies, self.pad),
                          (window, self.gate_energies, self.revival_window[1]))


def arch1_section(levels: ZeemanLevels, pad: float = DEFAULT_PAD) -> ArchitectureOne:
    """Nine-site section: barriers at even sites, qubits at odd sites.

    Barrier references alternate down/up from the chain ends so that the
    central gate barrier sits in the down state with up guards beside it.
    """
    n = ARCH1_SECTION_SITES
    chain = ChainSpec(n=n, coupling=levels.coupling, roles="BA" * (n // 2) + "B")
    barrier_refs = {site: (1 if (site // 2) % 2 == 0 else 0) for site in range(0, n, 2)}
    enc = EncodingMap.single_site(n, [1, 3, 5, 7], barrier_refs)
    pair_refs = dict(barrier_refs)
    pair_refs.update({1: 0, 7: 0})
    enc_pair = EncodingMap.single_site(n, [3, 5], pair_refs)
    return ArchitectureOne(chain=chain, levels=levels, enc=enc, enc_gate_pair=enc_pair, pad=pad)


def arch1_revival(arch: ArchitectureOne) -> tuple[ZeemanSchedule, float, float]:
    """Barrier revival of the section's two-qubit gate, searched on the gate
    pair within its revival_window: (schedule at the revival: pad, gate barrier
    at A+J, pad; revival time, revival probability); raises NoRevivalFound."""
    pad = (arch.pad, arch.passive_energies)
    pad_hold = _steps(pad)
    t_r, p_r = find_revival(arch.chain, pad_hold, arch.gate_energies, pad_hold,
                            ARCH1_GATE_BARRIER, arch.revival_window, arch.enc_gate_pair,
                            ARCH1_REVIVAL_THRESHOLD, ARCH1_REVIVAL_DIP)
    return _steps(pad, (t_r, arch.gate_energies), pad), t_r, p_r


def arch1_exchange_gate(arch: ArchitectureOne
                        ) -> tuple[float, float, np.ndarray, float, PhaseAlignment]:
    """The section's exchange gate at the barrier revival: (revival time,
    revival probability, the gate pair's gate, its leakage, z-phase alignment
    to the ideal exchange gate).

    The gate pair's block is read in the passive Zeeman frame (see
    gates.logical_block); raises NoRevivalFound or ExcessiveLeakage.
    """
    sched, t_r, p_r = arch1_revival(arch)
    block, leakage = logical_block(arch.chain, sched, arch.enc_gate_pair, arch.passive_energies)
    gate = extract_gate(block, leakage)
    return t_r, p_r, gate, leakage, align_phases(gate, exchange_gate_target())


# ---------------------------------------------------------------------------
# architecture 2: paired-site qubits on an ABC chain


def _abc_layout(levels: ZeemanLevels, n_triples: int) -> dict:
    """Section fields of n_triples ABC triples: a qubit per (A, B) pair, its C barrier up."""
    chain = ChainSpec(n=3 * n_triples, coupling=levels.coupling, roles="ABC" * n_triples)
    pairs = [(3 * k, 3 * k + 1) for k in range(n_triples)]
    refs = {3 * k + 2: 0 for k in range(n_triples)}
    return {"chain": chain, "levels": levels, "enc": EncodingMap.paired(chain.n, pairs, refs)}


def _pair_gate_time(levels: ZeemanLevels) -> float:
    """The nominal two-qubit revival time of a paired-site gate, pi / (sqrt(5) J)."""
    return np.pi / (np.sqrt(5.0) * levels.coupling)


@dataclass(frozen=True)
class ArchitectureTwo(Section):
    """Two ABC triples; enc holds both paired-site qubits.  Its gate holds the
    left qubit's upper site at eps for pi / (sqrt(5) J); both logical branches
    revive together at the working point eps = C - J.  A gate hold whose phase
    overflows is refused."""

    eps: float
    gate: ZeemanSchedule = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        energies = list(self.passive_energies)
        energies[1] = self.eps
        object.__setattr__(self, "gate", _steps((_pair_gate_time(self.levels), energies)))
        self._check_holds(("the gate hold", energies, self.gate.total_duration))


def arch2_section(levels: ZeemanLevels, eps: float | None = None) -> ArchitectureTwo:
    """The two-qubit paired-site section; eps defaults to the working point C - J."""
    return ArchitectureTwo(**_abc_layout(levels, 2),
                           eps=levels.c - levels.coupling if eps is None else eps)


def arch2_single_qubit_schedule(levels: ZeemanLevels, offset: float,
                                t: float) -> tuple[ZeemanSchedule, EncodingMap]:
    """Four-site guarded section (C A B C); the qubit's upper site is tuned
    to A + offset for time t, driving a logical rotation in the x-z plane."""
    chain = ChainSpec(n=4, coupling=levels.coupling, roles="CABC")
    enc = EncodingMap.paired(4, [(1, 2)], {0: 0, 3: 0})
    gate = list(site_energies(chain, levels))
    gate[2] = levels.a + offset
    return _steps((t, gate)), enc


# ---------------------------------------------------------------------------
# architecture 3: two global knobs, six settings


@dataclass(frozen=True)
class SixSetting:
    label: str
    eps_even: float
    eps_odd: float
    duration: float
    schedule: ZeemanSchedule = field(compare=False, repr=False)


@dataclass(frozen=True)
class ArchitectureThree(Section):
    """Four ABC triples; qubits 0 and 2 form the even group, 1 and 3 the odd
    group.  It holds the six (eps_even, eps_odd) settings driving universal
    control and tol_identity, a parked qubit's largest distance to diagonal;
    a tol_identity that is not positive and finite, given or defaulted, or a
    setting hold whose phase overflows is refused.

    One side always idles at B.  Resonant and shifted single-qubit values
    (A, A+J) carry a quarter-flip duration; the entangling value (C+J)
    carries the nominal two-qubit revival duration.  The all-passive pair
    (B, B) is represented by the absence of a segment, not a setting.
    """

    tol_identity: float
    settings: tuple[SixSetting, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.tol_identity < np.inf:
            raise ValueError(f"tol_identity must be positive and finite, got {self.tol_identity}")
        j = self.levels.coupling
        t1 = np.pi / (4.0 * j)
        t2 = _pair_gate_time(self.levels)
        a, b, c = self.levels.a, self.levels.b, self.levels.c

        def setting(label: str, eps_even: float, eps_odd: float, duration: float) -> SixSetting:
            # every even-group qubit's tunable (upper) site at eps_even, every odd one's at eps_odd
            energies = list(self.passive_energies)
            for q, (_, upper) in enumerate(self.enc.qubit_sites):
                energies[upper] = eps_odd if q % 2 else eps_even
            return SixSetting(label, eps_even, eps_odd, duration, _steps((duration, energies)))

        object.__setattr__(self, "settings", (
            setting("even:B odd:A", b, a, t1),
            setting("even:B odd:A+J", b, a + j, t1),
            setting("even:B odd:C+J", b, c + j, t2),
            setting("even:A odd:B", a, b, t1),
            setting("even:A+J odd:B", a + j, b, t1),
            setting("even:C+J odd:B", c + j, b, t2),
        ))
        self._check_holds(*((s.label, seg.energies, seg.duration) for s in self.settings
                            for seg in s.schedule.segments))


def arch3_section(levels: ZeemanLevels, tol_identity: float | None = None) -> ArchitectureThree:
    """The four-qubit paired-site section; tol_identity defaults to 10 J/delta."""
    return ArchitectureThree(**_abc_layout(levels, 4), tol_identity=(
        10.0 * levels.coupling / levels.delta if tol_identity is None else tol_identity))


# ---------------------------------------------------------------------------
# barrier-collapse (Zeno) trajectories


@dataclass(frozen=True)
class ZenoConfig:
    """Barrier collapses after every k-th gate, k = collapse_every_gates
    (None: only the final readout), under per-gate timing jitter.

    jitter_mode "independent" draws a fresh timing error for every gate;
    "systematic" draws one error per trial and applies it to every gate
    (a miscalibrated resonance period).  Collapse suppresses the coherent
    accumulation of the systematic kind; independent errors random-walk
    and gain nothing from intermediate collapses.
    """

    collapse_every_gates: int | None
    jitter_stddev: float          # relative per-gate timing error
    trials: int
    seed: int
    jitter_mode: str = "independent"

    def __post_init__(self):
        if self.collapse_every_gates is not None and self.collapse_every_gates < 1:
            raise ValueError("collapse_every_gates must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.jitter_stddev < np.inf:
            raise ValueError("jitter_stddev must be finite and >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.jitter_mode not in JITTER_MODES:
            raise ValueError(f"unknown jitter_mode {self.jitter_mode!r}")


@dataclass
class ZenoStats:
    wrong_collapse: np.ndarray    # bool per trial: any off-reference outcome
    fidelity: np.ndarray          # per trial, vs the jitter-free final state
    n_collapse_points: int

    @property
    def wrong_collapse_probability(self) -> float:
        return float(self.wrong_collapse.mean())

    @property
    def mean_fidelity(self) -> float:
        return float(self.fidelity.mean())


def zeno_gate_train(coupling: float
                    ) -> tuple[ChainSpec, EncodingMap, ZeemanSchedule, float, np.ndarray]:
    """Three-spin gate train of the Zeno study: (chain, encoding, gate,
    gate time, input state).

    Qubits sit on the ends of an ABA chain around an up barrier; one gate
    holds every site at A + J = J (A = 0 at every detuning) for the nominal
    pi / (3J).  The input is the product (|0> + |1>)(|0> + e^{i pi/4}|1>) / 2.
    """
    chain = ChainSpec(n=3, coupling=coupling, roles="ABA")
    enc = EncodingMap.single_site(3, [0, 2], {1: 1})
    t_gate = np.pi / (3.0 * coupling)
    gate = ZeemanSchedule.from_steps([(t_gate, (coupling,) * 3)])
    qa = np.array([1.0, 1.0]) / np.sqrt(2.0)
    qb = np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2.0)
    return chain, enc, gate, t_gate, enc.embed_state(np.kron(qa, qb))


def zeno_run(chain: ChainSpec, base_schedule_sequence: Sequence[ZeemanSchedule],
             enc: EncodingMap, cfg: ZenoConfig, psi0: np.ndarray) -> ZenoStats:
    """Monte-Carlo trajectories of a gate train with timing jitter and
    projective barrier collapses between gates.

    Every gate's segment durations are scaled by 1 + N(0, jitter_stddev),
    drawn as cfg.jitter_mode says.  After every k-th gate
    (k = cfg.collapse_every_gates) and after the last one, all barrier sites
    are measured in the z basis (outcomes recorded, never fed forward).
    Jitter and collapse randomness come from separate streams of cfg.seed,
    so runs with different k see identical timing noise.

    The trials run through the whole train in blocks of _ZENO_BLOCK_TRIALS,
    so peak memory is one block's states, duration factors and uniforms plus
    9 bytes per trial (fidelity and wrong_collapse), whatever the number of
    collapse points: the collapse uniforms are those of one
    (points, barriers, trials) draw, which no block holds whole.  Each
    trial's column is computed on its own, and its overlap with the ideal
    state is summed in one fixed order, so the block size changes no outcome:
    every wrong_collapse and every fidelity is bitwise the same for any
    block size.
    """
    n_gates = len(base_schedule_sequence)
    trials = cfg.trials
    every = n_gates if cfg.collapse_every_gates is None else cfg.collapse_every_gates
    flags = [(g + 1) % every == 0 or g == n_gates - 1 for g in range(n_gates)]
    n_points = sum(flags)
    noise_cols = n_gates if cfg.jitter_mode == "independent" else 1

    rng_jit = np.random.default_rng([cfg.seed, 1])
    rng_col = np.random.default_rng([cfg.seed, 2])
    col_start = rng_col.bit_generator.state
    psi0 = np.asarray(psi0, dtype=complex)
    ideal = psi0
    for sched in base_schedule_sequence:
        ideal = evolve(chain, sched, ideal)

    wrong = np.zeros(trials, dtype=bool)
    fid = np.empty(trials)
    for lo in range(0, trials, _ZENO_BLOCK_TRIALS):
        hi = min(lo + _ZENO_BLOCK_TRIALS, trials)
        # the block's rows of one (trials, noise_cols) draw, scaled in place into
        # one contiguous row of duration factors per gate (one for every gate
        # when systematic): the operations of clip(1 + stddev * noise, 0.05)
        factors = rng_jit.standard_normal((hi - lo, noise_cols)).T.copy()
        with np.errstate(over="ignore"):   # an overflowing factor is inf, which apply_hold refuses
            factors *= cfg.jitter_stddev
            factors += 1.0
            np.clip(factors, 0.05, None, out=factors)
        factors = np.broadcast_to(factors, (n_gates, hi - lo))
        # entry (point, b, j) of a whole (points, barriers, trials) draw of the
        # collapse stream is its output (point * n_barriers + b) * trials + j,
        # one 64-bit output per float: the block draws its columns of each row
        # and jumps over the other trials' ones
        rng_col.bit_generator.state = col_start
        rng_col.bit_generator.advance(lo)
        psi = np.repeat(psi0[:, None], hi - lo, axis=1)
        for g, sched in enumerate(base_schedule_sequence):
            for seg in sched.segments:
                with np.errstate(over="ignore"):   # likewise an overflowing duration
                    durations = seg.duration * factors[g]
                psi = apply_hold(chain, seg.energies, durations, psi)
            if flags[g]:
                for site, ref in enc.barrier_refs:
                    # collapse in place on the two half views; where= skips 1/sqrt(p) of
                    # the dropped half, which may hold no probability at all
                    split = psi.reshape(1 << site, 2, -1, hi - lo, copy=False)
                    halves = split[:, ref], split[:, 1 - ref]
                    probs = [(np.abs(h) ** 2).sum(axis=(0, 1)) for h in halves]
                    hit_ref = rng_col.random(hi - lo) < probs[0]
                    rng_col.bit_generator.advance(trials - (hi - lo))
                    wrong[lo:hi] |= ~hit_ref
                    for half, p, hit in zip(halves, probs, (hit_ref, ~hit_ref)):
                        half *= np.divide(1.0, np.sqrt(p), out=np.zeros_like(p), where=hit)
        # einsum's own loop, not a BLAS gemv: each column is summed in one
        # fixed order, and no BLAS worker thread is woken for the block
        fid[lo:hi] = np.abs(np.einsum("i,ij->j", ideal.conj(), psi)) ** 2
    return ZenoStats(wrong_collapse=wrong, fidelity=fid, n_collapse_points=n_points)


# ---------------------------------------------------------------------------
# refocusing demo (adjacent-qubit layout)


@dataclass(frozen=True)
class RefocusRecord:
    pulse_period: float
    residual: float   # deviation of the echo cycle from the identity class


def echo_cycle(chain: ChainSpec, energies: Sequence[float], tau: float,
               pulsed_sites: Sequence[int], cycles: int = 1) -> np.ndarray:
    """Propagator of `cycles` echo cycles; each cycle is twice a hold for tau
    under `energies` followed by x on every pulsed site."""
    pulse = np.eye(chain.dim, dtype=complex)
    for site in pulsed_sites:
        pulse = pauli_site("x", site, chain.n) @ pulse
    hold = evolve(chain, _steps((tau, energies)), np.eye(chain.dim))
    u = np.eye(chain.dim, dtype=complex)
    for _ in range(cycles):
        u = pulse @ hold @ pulse @ hold @ u
    return u


def refocus_demo(chain: ChainSpec, levels: ZeemanLevels,
                 pulse_periods: Sequence[float],
                 cycles: int = 1) -> list[RefocusRecord]:
    """Residual entangling power of an echo cycle versus pulse period.

    Instantaneous x pulses on even sites alternate with free evolution for
    tau; the cycle's two-qubit local invariants are compared to the identity
    class.  The residual vanishes as tau -> 0 (up to the detuning floor).
    """
    if chain.n != 2:
        raise InvalidGrouping("the refocusing demo uses an adjacent two-qubit chain")
    energies = site_energies(chain, levels)
    out = []
    for tau in pulse_periods:
        u = echo_cycle(chain, energies, tau, pulsed_sites=(0,), cycles=cycles)
        g1, g2 = local_equivalence_invariants(u)
        residual = max(abs(g1 - IDENTITY_INVARIANTS[0]), abs(g2 - IDENTITY_INVARIANTS[1]))
        out.append(RefocusRecord(pulse_period=float(tau), residual=float(residual)))
    return out
