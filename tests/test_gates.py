import functools
import itertools
import json
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainlab import cli, gates, linalg, model, schemes
from chainlab.errors import (DimensionMismatch, ExcessiveLeakage, NoRevivalFound,
                             NotDiagonalizableLocally, SynthesisFailed)
from chainlab.evolve import ZeemanSchedule, evolve, hold_modes, phases, zeeman_frame
from chainlab.model import ChainSpec

NO_SEGMENTS = ZeemanSchedule(())


def reduced_resonant_chain():
    # barrier site 1 held down between two qubits, all sites driven to a+J
    chain = ChainSpec(n=3, coupling=1.0, roles="ABA")
    enc = gates.EncodingMap.single_site(3, [0, 2], {1: 1})
    return chain, enc


def invariants_oracle(u):
    """Independent reconstruction of the two local-equivalence invariants.

    Magic basis built from the Bell states; the invariants are
    tr(m)^2 / (16 det u) and (tr(m)^2 - tr(m m)) / (4 det u) with
    m = M^T M, M = B* u B.
    """
    z = np.zeros(4, dtype=complex)
    phi_p, phi_m, psi_p, psi_m = z.copy(), z.copy(), z.copy(), z.copy()
    phi_p[[0, 3]] = 1.0
    phi_m[[0, 3]] = 1.0, -1.0
    psi_p[[1, 2]] = 1.0
    psi_m[[1, 2]] = 1.0, -1.0
    b = np.column_stack([phi_p, -1j * phi_m, psi_m, -1j * psi_p]) / np.sqrt(2.0)
    # column order chosen to match an orthogonal image of the product group
    b = b[:, [0, 3, 1, 2]]
    mm = b.conj().T @ u @ b
    m = mm.T @ mm
    det = np.linalg.det(u)
    tr = np.trace(m)
    return tr ** 2 / (16.0 * det), (tr ** 2 - np.trace(m @ m)) / (4.0 * det)


def reference_population(psi, site, ref_bit, n):
    """Probability of finding `site` in its reference z-state, per column."""
    idx = np.arange(2 ** n)
    mask = ((idx >> (n - 1 - site)) & 1) == ref_bit
    psi2 = np.abs(np.atleast_2d(psi.T).T) ** 2
    return psi2[mask].sum(axis=0)


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# encoding maps


def test_single_site_encoding_indices():
    _, enc = reduced_resonant_chain()
    # logical (q0, q1) maps to chain bits (q0, 1, q1); site 0 is the MSB
    assert list(enc.basis_indices()) == [2, 3, 6, 7]
    assert enc.n_qubits == 2
    assert enc.chain_bits(0) == (0, 1, 0)
    assert enc.chain_bits(3) == (1, 1, 1)
    basis = enc.embed_basis()
    assert basis.shape == (8, 4)
    assert np.allclose(basis.conj().T @ basis, np.eye(4))


def test_paired_encoding_uses_one_excitation_patterns():
    enc = gates.EncodingMap.paired(3, [(0, 1)], {2: 0})
    # |0>_L = down,up so the pair carries exactly one up spin either way
    assert enc.chain_bits(0) == (1, 0, 0)
    assert enc.chain_bits(1) == (0, 1, 0)
    assert list(enc.basis_indices()) == [4, 2]


def test_encoding_site_collision_rejected():
    with pytest.raises(Exception):
        gates.EncodingMap.single_site(3, [0, 1], {1: 0})


def test_reference_population_matches_marginal():
    rng = np.random.default_rng(5)
    psi = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi /= np.linalg.norm(psi)
    for site in range(4):
        for ref in (0, 1):
            expect = sum(abs(psi[i]) ** 2 for i in range(16)
                         if (i >> (3 - site)) & 1 == ref)
            got = reference_population(psi, site, ref, 4)
            assert got == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# the resonant exchange anchor


def test_reduced_model_reproduces_exchange_gate():
    chain, enc = reduced_resonant_chain()
    t_r = np.pi / 3.0
    sched = ZeemanSchedule.from_steps([(t_r, (1.0, 1.0, 1.0))])
    block, leakage = gates.logical_block(chain, sched, enc, (1.0, 1.0, 1.0))
    gate = gates.extract_gate(block, leakage)
    assert leakage < 1e-12
    aligned = gates.align_phases(gate, gates.exchange_gate_target())
    assert aligned.distance < 1e-9


def test_reduced_model_revival_time():
    chain, enc = reduced_resonant_chain()
    t_r, p_r = gates.find_revival(chain, NO_SEGMENTS, (1.0, 1.0, 1.0), NO_SEGMENTS, 1,
                                  (0.5, 2.0), enc)
    assert t_r == pytest.approx(np.pi / 3.0, rel=1e-6)
    assert p_r > 1.0 - 1e-9


def test_find_revival_parked_barrier_never_dips():
    chain, enc = reduced_resonant_chain()
    with pytest.raises(NoRevivalFound, match="never left"):
        gates.find_revival(chain, NO_SEGMENTS, (1.0, 600.0, 1.0), NO_SEGMENTS, 1,
                           (0.5, 2.0), enc)


def test_find_revival_window_too_short():
    chain, enc = reduced_resonant_chain()
    with pytest.raises(NoRevivalFound, match=r"no revival above 0\.999 in window \(best 0\.\d{6}\)"):
        gates.find_revival(chain, NO_SEGMENTS, (1.0, 1.0, 1.0), NO_SEGMENTS, 1,
                           (0.4, 0.8), enc)


def pointwise_revival(chain, head, hold, tail, site, window, enc, threshold, dip_level,
                      grid_points=800):
    """The revival search evaluated one schedule at a time: each grid time t
    evolves the whole schedule head, hold for t, tail from the encoded basis."""
    ref = enc.reference_bit(site)
    basis = enc.embed_basis()

    def prob(t):
        sched = ZeemanSchedule(head.segments + ZeemanSchedule.from_steps([(t, hold)]).segments
                               + tail.segments)
        psi = evolve(chain, sched, basis)
        return float(reference_population(psi, site, ref, chain.n).min())

    ts = np.linspace(window[0], window[1], grid_points)
    ps = np.array([prob(t) for t in ts])
    start = np.flatnonzero(ps < dip_level)[0]
    best = next(i for i in range(start + 1, grid_points - 1)
                if ps[i - 1] <= ps[i] >= ps[i + 1] and ps[i] >= threshold)
    t_r, _ = linalg.golden_section(prob, ts[best - 1], ts[best + 1],
                                   gates.REVIVAL_REFINE_TOL / chain.coupling,
                                   maximize=True)
    return t_r, prob(t_r)


def arch1_revival_case(delta):
    """The arch-1 gate schedule's (pad, gate hold, pad) parts, as held by its
    section, with the search settings of arch1_revival."""
    levels = model.ZeemanLevels(1.0, delta)
    arch = schemes.arch1_section(levels)
    pad = ZeemanSchedule.from_steps([(arch.pad, arch.passive_energies)])
    lo, hi = schemes.ARCH1_REVIVAL_WINDOW
    nominal = np.pi / 3.0
    return (arch.chain, pad, arch.gate_energies, pad,
            schemes.ARCH1_GATE_BARRIER, (lo * nominal, hi * nominal), arch.enc_gate_pair,
            schemes.ARCH1_REVIVAL_THRESHOLD, schemes.ARCH1_REVIVAL_DIP)


def reduced_revival_case():
    chain, enc = reduced_resonant_chain()
    return (chain, NO_SEGMENTS, (1.0, 1.0, 1.0), NO_SEGMENTS, 1, (0.5, 2.0), enc,
            gates.REVIVAL_THRESHOLD, gates.REVIVAL_DIP_LEVEL)


def two_segment_tail_case():
    # the tail's segments differ in energies, so the order they compose in matters
    chain, enc = reduced_resonant_chain()
    tail = ZeemanSchedule.from_steps([(0.25, (0.0, 1.0, 2.0)), (0.35, (1.5, 0.2, 0.7))])
    return chain, NO_SEGMENTS, (1.0, 1.0, 1.0), tail, 1, (0.5, 2.0), enc, 0.8, 0.5


class HadamardInputs(gates.EncodingMap):
    """Encoded basis turned by a Hadamard on every qubit, so each input
    spans several magnetization sectors."""

    def embed_basis(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        return super().embed_basis() @ functools.reduce(np.kron, [h] * self.n_qubits)


def multi_sector_lead_case():
    chain = ChainSpec(n=5, coupling=1.0, roles="BABAB")
    enc = HadamardInputs.single_site(5, [1, 3], {0: 0, 2: 1, 4: 0})
    pad = ZeemanSchedule.from_steps([(0.3, (5.0, 0.0, 0.5, 0.3, 5.0))])
    return chain, pad, (5.0, 1.0, 1.0, 1.0, 5.0), pad, 2, (0.5, 2.0), enc, 0.85, 0.5


def test_multi_sector_case_spans_sectors():
    chain, *_, enc, _, _ = multi_sector_lead_case()
    down = np.array([bin(i).count("1") for i in range(chain.dim)])
    basis = enc.embed_basis()
    # evolution keeps total sigma^z, so the lead occupies the inputs' sectors
    assert min(len(set(down[basis[:, j] != 0])) for j in range(enc.logical_dim)) >= 2


@pytest.mark.parametrize("case", [reduced_revival_case, lambda: arch1_revival_case(100.0),
                                  lambda: arch1_revival_case(5.0), two_segment_tail_case,
                                  multi_sector_lead_case],
                         ids=["reduced-3-site", "arch1-delta-100", "arch1-delta-5",
                              "two-segment-tail", "multi-sector-lead"])
def test_batched_revival_matches_pointwise_search(case):
    args = case()
    got = gates.find_revival(*args)
    want = pointwise_revival(*args)
    assert got == pytest.approx(want, abs=1e-12)


def test_arch1_revival_searches_its_gate_schedule():
    arch = schemes.arch1_section(model.ZeemanLevels(1.0, 100.0))
    sched, t_r, p_r = schemes.arch1_revival(arch)
    assert (t_r, p_r) == gates.find_revival(*arch1_revival_case(100.0))
    pad = (arch.pad, arch.passive_energies)
    assert sched == ZeemanSchedule.from_steps([pad, (t_r, arch.gate_energies), pad])


def full_grid_search(monkeypatch, args):
    """find_revival's answer beside the search it replaced, which scored the
    whole grid before scanning it.

    Returns (got, want, best_i, calls): got and want are each (t_r, p) or the
    NoRevivalFound message, want from the old scan over all REVIVAL_GRID_POINTS
    points scored in find_revival's batches with the modes it built; best_i is
    that scan's revival index (None without one), and calls holds the times
    of each _revival_populations call find_revival made."""
    *_, window, enc, threshold, dip_level = args
    populations = gates._revival_populations
    calls, seen = [], []

    def recording(modes, n_in, times):
        calls.append(np.array(times))
        seen.append(modes)
        return populations(modes, n_in, times)

    monkeypatch.setattr(gates, "_revival_populations", recording)
    try:
        got = gates.find_revival(*args)
    except NoRevivalFound as exc:
        got = str(exc)
    n_in = enc.logical_dim

    def probs(times):
        return populations(seen[0], n_in, times).min(axis=0)

    def prob(t):
        return float(probs(np.array([t]))[0])

    ts = np.linspace(window[0], window[1], gates.REVIVAL_GRID_POINTS)
    step = max(1, gates.REVIVAL_BATCH_COLUMNS // n_in)
    ps = np.concatenate([probs(ts[i:i + step]) for i in range(0, len(ts), step)])
    dipped = np.flatnonzero(ps < dip_level)
    if dipped.size == 0:
        return got, (f"barrier {args[4]} never left its reference state "
                     f"(min population {ps.min():.6f})"), None, calls
    best_i, best_p = None, 0.0
    for i in range(dipped[0] + 1, len(ts) - 1):
        if ps[i] >= ps[i - 1] and ps[i] >= ps[i + 1]:
            best_p = max(best_p, float(ps[i]))
            if ps[i] >= threshold:
                best_i = i
                break
    if best_i is None:
        return got, f"no revival above {threshold} in window (best {best_p:.6f})", None, calls
    t_r, _ = linalg.golden_section(prob, ts[best_i - 1], ts[best_i + 1],
                                   gates.REVIVAL_REFINE_TOL / args[0].coupling, maximize=True)
    return got, (float(t_r), prob(t_r)), best_i, calls


def batch_end_revival_case():
    # the window puts the revival at pi/3 on grid index 255, the last of the
    # fourth 64-time batch, so the point just past it opens the fifth batch
    chain, enc = reduced_resonant_chain()
    hi = 0.5 + (np.pi / 3.0 - 0.5) * (gates.REVIVAL_GRID_POINTS - 1) / 255
    return (chain, NO_SEGMENTS, (1.0, 1.0, 1.0), NO_SEGMENTS, 1, (0.5, hi), enc,
            gates.REVIVAL_THRESHOLD, gates.REVIVAL_DIP_LEVEL)


def assert_grid_stops_past_the_revival(args, calls, best_i):
    """The grid went through full batches, in order, and stopped after the
    batch holding best_i + 1; every later call refines one time."""
    step = gates.REVIVAL_BATCH_COLUMNS // args[6].logical_dim
    n_grid = (best_i + 1) // step + 1
    ts = np.linspace(*args[5], gates.REVIVAL_GRID_POINTS)
    assert [len(times) for times in calls[:n_grid]] == [step] * n_grid
    assert np.array_equal(np.concatenate(calls[:n_grid]), ts[:n_grid * step])
    assert [len(times) for times in calls[n_grid:]] == [1] * (len(calls) - n_grid)


def test_find_revival_batches_stay_within_column_cap(monkeypatch):
    args = arch1_revival_case(100.0)
    got, want, best_i, calls = full_grid_search(monkeypatch, args)
    n_in = args[6].logical_dim
    assert got == want
    assert max(n_in * len(times) for times in calls) <= gates.REVIVAL_BATCH_COLUMNS
    assert_grid_stops_past_the_revival(args, calls, best_i)
    # the revival sits about a third into the window: 5 of the 13 batches
    assert (best_i + 1) // (gates.REVIVAL_BATCH_COLUMNS // n_in) + 1 == 5


@pytest.mark.parametrize("case", [reduced_revival_case, lambda: arch1_revival_case(1000.0),
                                  batch_end_revival_case],
                         ids=["reduced-3-site", "arch1-delta-1000", "revival-at-batch-end"])
def test_find_revival_stops_after_the_batch_past_the_revival(monkeypatch, case):
    args = case()
    got, want, best_i, calls = full_grid_search(monkeypatch, args)
    assert got == want
    assert_grid_stops_past_the_revival(args, calls, best_i)


def test_batch_end_case_revives_on_a_batch_end(monkeypatch):
    _, _, best_i, _ = full_grid_search(monkeypatch, batch_end_revival_case())
    assert best_i == 255


@pytest.mark.parametrize("case", [
    # the barrier is parked far off resonance and never dips
    lambda: (*reduced_revival_case()[:2], (1.0, 600.0, 1.0), *reduced_revival_case()[3:]),
    # the window ends before the revival
    lambda: (*reduced_revival_case()[:5], (0.4, 0.8), *reduced_revival_case()[6:]),
    # every maximum in the window falls short of the threshold
    lambda: (*arch1_revival_case(100.0)[:7], 1.5, schemes.ARCH1_REVIVAL_DIP)],
    ids=["never-dips", "window-too-short", "threshold-unreached"])
def test_find_revival_without_revival_scores_the_whole_grid(monkeypatch, case):
    args = case()
    got, want, best_i, calls = full_grid_search(monkeypatch, args)
    assert best_i is None
    assert got == want   # the same message, from the same minimum or best maximum
    ts = np.linspace(*args[5], gates.REVIVAL_GRID_POINTS)
    assert max(args[6].logical_dim * len(times) for times in calls) <= gates.REVIVAL_BATCH_COLUMNS
    assert np.array_equal(np.concatenate(calls), ts)


@pytest.mark.parametrize("delta", [5.0, 20.0, 100.0, 300.0, 1000.0, 3000.0])
def test_find_revival_matches_the_full_grid_scan(monkeypatch, delta):
    got, want, _, _ = full_grid_search(monkeypatch, arch1_revival_case(delta))
    assert got == want   # bit for bit


# ---------------------------------------------------------------------------
# extraction


def test_extract_gate_round_trip():
    rng = np.random.default_rng(11)
    g = random_unitary(rng, 4)
    assert linalg.op_distance(gates.extract_gate(g, 0.0), g) < 1e-12


def test_extract_gate_reports_small_leakage_and_reunitarizes():
    _, enc = reduced_resonant_chain()
    theta = 0.01
    tilt = np.cos(theta / 2) * np.eye(8) - 1j * np.sin(theta / 2) * model.pauli_site("x", 1, 3)
    rng = np.random.default_rng(12)
    g = random_unitary(rng, 4)
    block = (tilt @ enc.embed_basis() @ g)[enc.basis_indices()]
    leakage = np.sin(theta / 2) ** 2
    assert 1.0 - (np.abs(block) ** 2).sum(axis=0) == pytest.approx([leakage] * 4, rel=1e-6)
    gate = gates.extract_gate(block, leakage)
    assert linalg.unitarity_defect(gate) < 1e-12
    assert linalg.op_distance(gate, g) < 1e-12


def test_extract_gate_rejects_meaningless_block():
    _, enc = reduced_resonant_chain()
    flip = model.pauli_site("x", 1, 3)
    block = (flip @ enc.embed_basis())[enc.basis_indices()]
    with pytest.raises(ExcessiveLeakage, match=r"^leakage 1\.0000 exceeds"):
        gates.extract_gate(block, 1.0)


@pytest.mark.parametrize("t", [0.4, 0.8])
def test_logical_block_leakage_is_the_barrier_population_lost(t):
    # far from the revival at pi/3 the barrier has left its reference state
    chain, enc = reduced_resonant_chain()
    energies = (1.0, 1.0, 1.0)
    psi = linalg.expm_i(model.build_heisenberg(chain, energies), t) @ enc.embed_basis()
    pops = reference_population(psi, 1, enc.reference_bit(1), chain.n)
    _, leakage = gates.logical_block(chain, ZeemanSchedule.from_steps([(t, energies)]),
                                     enc, energies)
    assert leakage > gates.LEAKAGE_MEANINGLESS
    assert leakage == pytest.approx(1.0 - pops.min(), abs=1e-12)


def arch1_gate_case(delta):
    arch = schemes.arch1_section(model.ZeemanLevels(1.0, delta))
    sched, _, _ = schemes.arch1_revival(arch)
    return arch.chain, sched, arch.enc_gate_pair, arch.passive_energies


def verify_m_gate_case():
    arch = schemes.arch2_section(model.ZeemanLevels(1.0, 4000.0))
    return arch.chain, arch.gate, arch.enc, arch.passive_energies


@pytest.mark.parametrize("case", [lambda: arch1_gate_case(100.0),
                                  lambda: arch1_gate_case(1000.0), verify_m_gate_case],
                         ids=["arch1-delta-100", "arch1-delta-1000", "verify-m"])
def test_extract_gate_from_evolved_basis_equals_propagator_block(case):
    chain, sched, enc, passive = case()
    u = evolve(chain, sched, np.eye(chain.dim))
    u *= zeeman_frame(chain, passive, sched.total_duration).conj()[:, None]
    idx = enc.basis_indices()
    block = u[np.ix_(idx, idx)]
    got, leakage = gates.logical_block(chain, sched, enc, passive)
    assert np.array_equal(got, block)
    assert leakage == max(0.0, 1.0 - (np.abs(block) ** 2).sum(axis=0).min())
    want = linalg.polar_unitary(block) if leakage < gates.LEAKAGE_REUNITARIZE else block
    assert np.array_equal(gates.extract_gate(got, leakage), want)


def test_gate_report_json_round_trip():
    # gate_report.json stores the logical unitary as [re, im] pairs
    rng = np.random.default_rng(13)
    g = random_unitary(rng, 4)
    leakage = 0.0
    gate = gates.extract_gate(g, leakage)
    doc = json.loads(json.dumps({"logical_unitary": cli._matrix_json(gate),
                                 "leakage": leakage}))
    mat = np.array([[complex(re, im) for re, im in row]
                    for row in doc["logical_unitary"]])
    assert np.array_equal(mat, gate)
    assert doc["leakage"] == leakage


# ---------------------------------------------------------------------------
# local-equivalence invariants


def test_reference_gate_invariants():
    g1, g2 = gates.local_equivalence_invariants(gates.cnot_target())
    assert abs(g1 - 0.0) < 1e-12
    assert abs(g2 - 1.0) < 1e-12
    g1, g2 = gates.local_equivalence_invariants(np.eye(4))
    assert abs(g1 - gates.IDENTITY_INVARIANTS[0]) < 1e-12
    assert abs(g2 - gates.IDENTITY_INVARIANTS[1]) < 1e-12


def test_exchange_gate_invariants_closed_form():
    g1, g2 = gates.local_equivalence_invariants(gates.exchange_gate_target())
    assert abs(g1 - (-13.0 - 3j * np.sqrt(3.0)) / 32.0) < 1e-12
    assert abs(g2 - (-1.5)) < 1e-12
    dev = gates.invariant_deviation(gates.exchange_gate_target(), np.eye(4))
    assert dev == pytest.approx(4.5, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_invariants_match_oracle(seed):
    u = random_unitary(np.random.default_rng(seed), 4)
    got = gates.local_equivalence_invariants(u)
    want = invariants_oracle(u)
    assert abs(got[0] - want[0]) < 1e-9
    assert abs(got[1] - want[1]) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_invariants_blind_to_local_dressing(seed):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 4)
    angles = rng.uniform(-np.pi, np.pi, 12)
    pre = np.kron(gates.euler_zyz(*angles[0:3]), gates.euler_zyz(*angles[3:6]))
    post = np.kron(gates.euler_zyz(*angles[6:9]), gates.euler_zyz(*angles[9:12]))
    assert gates.invariant_deviation(post @ u @ pre, u) < 1e-9


def test_invariants_distinguish_entangling_power():
    # controlled phase sweeps from the identity class to the CNOT class
    dev_id = gates.invariant_deviation(gates.controlled_phase(0.0), np.eye(4))
    dev_cnot = gates.invariant_deviation(gates.controlled_phase(np.pi),
                                         gates.cnot_target())
    assert dev_id < 1e-12
    assert dev_cnot < 1e-12


# ---------------------------------------------------------------------------
# phase alignment and local corrections


def test_align_phases_recovers_z_dressing():
    rng = np.random.default_rng(21)
    target = gates.exchange_gate_target()
    pre = np.kron(gates.rz(rng.uniform(-3, 3)), gates.rz(rng.uniform(-3, 3)))
    post = np.kron(gates.rz(rng.uniform(-3, 3)), gates.rz(rng.uniform(-3, 3)))
    dressed = np.exp(0.7j) * post.conj().T @ target @ pre.conj().T
    aligned = gates.align_phases(dressed, target)
    assert aligned.distance < 1e-7
    assert linalg.op_distance(aligned.dressed, target) < 1e-6


def test_align_phases_single_qubit():
    target = gates.ry(0.4)
    dressed = gates.rz(0.3) @ target @ gates.rz(-0.9)
    aligned = gates.align_phases(dressed, target)
    assert aligned.distance < 1e-7


def z_diagonal(angles):
    """Diagonal of Rz(a_0) (x) Rz(a_1) (x) ..., Rz(a) = diag(e^{-ia/2}, e^{ia/2})."""
    out = np.ones(1)
    for a in angles:
        out = np.outer(out, np.exp([-0.5j * a, 0.5j * a])).ravel()
    return out


@pytest.mark.parametrize("dim, target", [(2, gates.ry(0.4)), (4, gates.exchange_gate_target()),
                                         (4, gates.cnot_target())])
@pytest.mark.parametrize("two_sided", [True])
def test_align_phases_reaches_multistart_trace_optimum(dim, target, two_sided):
    from scipy.optimize import minimize
    rng = np.random.default_rng(dim + 10 * two_sided)
    n_qubits = dim // 2
    n_par = 2 * n_qubits
    for _ in range(2):
        gate = random_unitary(rng, dim)

        def cost(x):
            pre = z_diagonal(x[n_qubits:])
            dressed = z_diagonal(x[:n_qubits])[:, None] * gate * pre
            return -abs(np.vdot(target, dressed))

        reference = min(minimize(cost, rng.uniform(-np.pi, np.pi, n_par), method="Powell",
                                 options={"xtol": 1e-10, "ftol": 1e-14}).fun
                        for _ in range(8))
        aligned = gates.align_phases(gate, target)
        ratio = aligned.dressed / gate   # a z dressing multiplies entry (j, k) by p_j q_k
        assert np.allclose(np.abs(ratio), 1.0)
        assert np.allclose(ratio * ratio[0, 0], np.outer(ratio[:, 0], ratio[0]))
        assert abs(np.vdot(target, aligned.dressed)) >= -reference - 1e-9
        assert aligned.distance == linalg.op_distance(aligned.dressed, target)


def test_default_gate_alignment_distance(arch1_pipeline):
    assert arch1_pipeline["alignment"].distance == pytest.approx(2.965828055574488e-04,
                                                                 rel=1e-9)


def test_align_phases_shape_check():
    with pytest.raises(DimensionMismatch):
        gates.align_phases(np.eye(3), np.eye(3))


@pytest.mark.parametrize("operand", ["gate", "target"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_align_phases_refuses_a_non_finite_operand(operand, bad):
    mats = {"gate": np.eye(4, dtype=complex), "target": gates.exchange_gate_target()}
    mats[operand][0, 0] = bad
    with pytest.raises(ValueError, match=f"{operand} has a non-finite entry"):
        gates.align_phases(mats["gate"], mats["target"])


def per_start_alignment(gate, target):
    """Coordinate ascent from one {0, pi} corner at a time, the strictly best
    overlap kept in corner order: the loop that align_phases batches."""
    n_qubits = 2 if gate.shape[0] == 4 else 1
    signs = model.sigma_z_values(n_qubits)
    weights = target.conj() * gate

    def dressing(x):
        return np.outer(np.exp(-0.5j * x[0] @ signs), np.exp(-0.5j * x[1] @ signs))

    best_overlap, best_x = -1.0, None
    for corner in itertools.product((0.0, np.pi), repeat=2 * n_qubits):
        x = np.reshape(corner, (2, n_qubits))
        for _ in range(gates.ALIGN_MAX_SWEEPS):
            step = 0.0
            for side, q in itertools.product(range(2), range(n_qubits)):
                sums = (weights * dressing(x)).sum(axis=1 - side)
                delta = np.angle(sums[signs[q] > 0].sum() * np.conj(sums[signs[q] < 0].sum()))
                x[side, q] += delta
                step = max(step, abs(delta))
            if step <= gates.ALIGN_ANGLE_TOL:
                break
        overlap = abs((weights * dressing(x)).sum())
        if overlap > best_overlap:
            best_overlap, best_x = overlap, x
    dressed = gate * dressing(best_x)
    return linalg.op_distance(dressed, target), dressed


@functools.cache
def alignment_cases():
    exchange = gates.exchange_gate_target()
    pairs = [(schemes.arch1_exchange_gate(schemes.arch1_section(
        model.ZeemanLevels(coupling=1.0, delta=delta)))[2], exchange)
        for delta in (20.0, 100.0, 300.0, 1000.0, 3000.0)]
    rng = np.random.default_rng(2026)
    for _ in range(40):
        pairs += [(random_unitary(rng, 2), gates.ry(0.4)),
                  (random_unitary(rng, 4), exchange), (random_unitary(rng, 4), gates.cnot_target())]
    return pairs


@pytest.mark.parametrize("max_sweeps", [gates.ALIGN_MAX_SWEEPS, 1, 2])
def test_align_phases_matches_the_per_start_ascent(monkeypatch, max_sweeps):
    # a cap of 1 or 2 sweeps stops every start mid-ascent, so the cap shows;
    # at the default cap the starts converge at different sweeps, so the
    # freeze mask shows; every bit must match, signed zeros too
    monkeypatch.setattr(gates, "ALIGN_MAX_SWEEPS", max_sweeps)
    for gate, target in alignment_cases():
        want_distance, want_dressed = per_start_alignment(gate, target)
        got = gates.align_phases(gate, target)
        assert got.distance == want_distance
        assert got.dressed.tobytes() == want_dressed.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.floats(min_value=-3.1, max_value=3.1) for _ in range(4)]))
def test_derive_local_corrections_splits_diagonal(angles):
    a, b, c, d = angles
    k = np.diag(np.exp(1j * np.array([a, b, c, d])))
    q1, q2, phi, resid = gates.derive_local_corrections(k)
    assert resid == 0.0
    assert np.angle(np.exp(1j * (phi - (a - b - c + d)))) == pytest.approx(0.0, abs=1e-9)
    assert linalg.op_distance(np.kron(q1, q2) @ k, gates.controlled_phase(phi)) < 1e-9


def test_derive_local_corrections_rejects_off_diagonal():
    with pytest.raises(NotDiagonalizableLocally):
        gates.derive_local_corrections(gates.cnot_target())


# ---------------------------------------------------------------------------
# operator factorization across a bipartition


def test_schmidt_factor_recovers_product_parts():
    rng = np.random.default_rng(31)
    a, b = random_unitary(rng, 2), random_unitary(rng, 2)
    mat = np.kron(a, b)
    fa, wa = gates.operator_schmidt_factor(mat, 2, (0,))
    fb, wb = gates.operator_schmidt_factor(mat, 2, (1,))
    assert wa == pytest.approx(1.0, abs=1e-12)
    assert wb == pytest.approx(1.0, abs=1e-12)
    assert linalg.op_distance(fa, a) < 1e-9
    assert linalg.op_distance(fb, b) < 1e-9


def test_schmidt_factor_noncontiguous_group():
    rng = np.random.default_rng(32)
    a, b, c = (random_unitary(rng, 2) for _ in range(3))
    mat = np.kron(a, np.kron(b, c))
    fac, w = gates.operator_schmidt_factor(mat, 3, (0, 2))
    assert w == pytest.approx(1.0, abs=1e-12)
    assert linalg.op_distance(fac, np.kron(a, c)) < 1e-9


def test_schmidt_factor_flags_entangling_cut():
    _, w = gates.operator_schmidt_factor(gates.cnot_target(), 2, (0,))
    assert w == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_schmidt_factor_validates_input():
    with pytest.raises(DimensionMismatch):
        gates.operator_schmidt_factor(np.eye(4), 2, ())
    with pytest.raises(DimensionMismatch):
        gates.operator_schmidt_factor(np.eye(8), 2, (0,))


# ---------------------------------------------------------------------------
# synthesis


def test_synthesize_from_controlled_phase_pi():
    res = gates.synthesize_cnot(gates.controlled_phase(np.pi), 1, seed=0, n_starts=8)
    assert res.fidelity > 1.0 - 1e-6
    assert res.local_angles.shape == (2, 6)   # n_uses + 1 local layers
    # recompose the circuit from the reported angles
    layers = [np.kron(gates.euler_zyz(*row[:3]), gates.euler_zyz(*row[3:]))
              for row in res.local_angles]
    u = layers[0]
    for layer in layers[1:]:
        u = layer @ gates.controlled_phase(np.pi) @ u
    f = abs(np.trace(gates.cnot_target().conj().T @ u)) ** 2 / 16.0
    assert f == pytest.approx(res.fidelity, abs=1e-9)


@pytest.mark.parametrize("entangler", [gates.exchange_gate_target(),
                                       gates.controlled_phase(2.0 * np.pi / np.sqrt(5.0))],
                         ids=["exchange", "cphase"])
@pytest.mark.parametrize("n_uses", [1, 2, 3, 4])
def test_fidelity_gradient_matches_reference(entangler, n_uses):
    rng = np.random.default_rng(n_uses)
    target = gates.cnot_target()
    for _ in range(3):
        angles = rng.uniform(-np.pi, np.pi, (n_uses + 1, 6))
        f, grad = gates._fidelity_and_grad(entangler, angles, target)
        assert abs(f - gates.circuit_fidelity(entangler, angles, target)) < 1e-12
        h = 1e-5
        steps = h * np.eye(angles.size).reshape(-1, *angles.shape)
        central = [(gates.circuit_fidelity(entangler, angles + e, target)
                    - gates.circuit_fidelity(entangler, angles - e, target)) / (2 * h)
                   for e in steps]
        np.testing.assert_allclose(grad, central, rtol=0, atol=1e-7)


@pytest.mark.parametrize("entangler, n_uses, best", [
    pytest.param(gates.controlled_phase(-np.pi / np.sqrt(5.0)), 2,
                 np.cos(np.pi / 4 - np.pi / (2 * np.sqrt(5.0))) ** 2, id="cphase-2"),
    pytest.param(gates.exchange_gate_target(), 2, np.cos(np.pi / 12) ** 2, id="exchange-2"),
    pytest.param(gates.exchange_gate_target(), 3, 13.0 / 16.0, id="exchange-3"),
])
def test_synthesis_reaches_closed_form_optimum(entangler, n_uses, best):
    with pytest.raises(SynthesisFailed) as info:
        gates.synthesize_cnot(entangler, n_uses, seed=1234, n_starts=16)
    assert abs(info.value.best_fidelity - best) < 1e-9


def test_synthesize_json_round_trip(tmp_path):
    cfg = {"seed": 3, "synthesize": {"jobs": [
        {"entangler": "cphase", "phase": np.pi, "n_uses": 1, "n_starts": 4}]}}
    ok, summary = cli.cmd_synthesize(cfg, None, tmp_path)
    res = gates.synthesize_cnot(gates.controlled_phase(np.pi), 1, seed=3, n_starts=4)
    doc = json.loads((tmp_path / "synthesis.json").read_text())["jobs"][0]
    assert ok
    assert doc["n_uses"] == 1
    assert doc["fidelity"] == res.fidelity == summary["fidelities"][0]
    assert doc["fidelity"] > 1.0 - 1e-6
    assert doc["n_starts_used"] == res.n_starts_used
    assert np.array_equal(doc["local_angles"], res.local_angles)
    assert len(doc["local_angles"]) == 2


def test_synthesize_identity_entangler_fails():
    with pytest.raises(SynthesisFailed) as info:
        gates.synthesize_cnot(np.eye(4), 1, seed=0, n_starts=2)
    assert info.value.best_fidelity < 0.999


def test_synthesize_rejects_nonunitary_entangler():
    from chainlab.errors import NotUnitary
    with pytest.raises(NotUnitary):
        gates.synthesize_cnot(np.eye(4) * 1.5, 1, seed=0, n_starts=1)


# ---------------------------------------------------------------------------
# symmetries of H = sum_i E_i sigma^z_i + J sum_i vec(sigma)_i . vec(sigma)_{i+1}
# that the revival search and the gate readout must keep, as evolve does
# (tests/test_evolve.py): each compares two runs on 2-6 sites, no oracle

class GateCase(NamedTuple):
    chain: ChainSpec
    enc: gates.EncodingMap
    head: list          # (duration, energies) steps before the hold
    hold: tuple
    tail: list          # steps after it
    passive: tuple
    site: int           # the barrier whose revival is searched for
    window: tuple

    def remap(self, coupling=None, roles=None, time=1.0, energy=lambda e: e, enc=None, site=None):
        def steps(ss):
            return [(t * time, energy(e)) for t, e in ss]
        chain = ChainSpec(n=self.chain.n, coupling=coupling or self.chain.coupling,
                          roles=roles or self.chain.roles)
        return GateCase(chain, enc or self.enc, steps(self.head), energy(self.hold),
                        steps(self.tail), energy(self.passive),
                        self.site if site is None else site,
                        tuple(time * w for w in self.window))


def random_gate_case(seed, n, n_head):
    rng = np.random.default_rng(seed)
    chain = ChainSpec(n=n, coupling=float(rng.uniform(0.2, 2.0)), roles="A" * n)
    sites = [int(s) for s in rng.permutation(n)]
    n_barriers = int(rng.integers(1, n + 1))
    enc = gates.EncodingMap.single_site(n, sorted(sites[n_barriers:]),
                                        {s: int(rng.integers(0, 2)) for s in sites[:n_barriers]})

    def energies():
        return tuple(float(x) for x in rng.uniform(-4, 4, n))

    def steps(k):
        return [(float(rng.uniform(0.05, 3.0)), energies()) for _ in range(k)]

    return GateCase(chain, enc, steps(n_head), energies(), steps(int(rng.integers(1, 3))),
                    energies(), sites[0], (0.05 / chain.coupling, 5.0 / chain.coupling)), rng


def held(case, t, psi):
    """psi after the hold for t and then the tail, rebuilt from hold_modes."""
    out = np.zeros_like(psi)
    for rows, w, amp, modes in hold_modes(case.chain, case.hold,
                                          ZeemanSchedule.from_steps(case.tail), psi):
        out[rows] = modes @ (phases(w, t) * amp)
    return out


def revival(case):
    """find_revival's (t_r, p_r), counting any grid maximum after the first
    dip below 0.99, or which NoRevivalFound it raised."""
    try:
        return gates.find_revival(case.chain, ZeemanSchedule.from_steps(case.head), case.hold,
                                  ZeemanSchedule.from_steps(case.tail), case.site, case.window,
                                  case.enc, threshold=0.0, dip_level=0.99)
    except NoRevivalFound as exc:
        return "never left" if "never left" in str(exc) else "no revival"


def same_revival(got, want, coupling, time=1.0):
    """The same refusal, or a revival time (got's times `time`) within the
    refinement tolerance and the same population."""
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
    else:
        assert abs(got[0] * time - want[0]) <= 10 * gates.REVIVAL_REFINE_TOL / coupling
        assert abs(got[1] - want[1]) < 1e-9


def readout(case, t):
    """logical_block of head, the hold for t and the tail."""
    sched = ZeemanSchedule.from_steps(case.head + [(t, case.hold)] + case.tail)
    return gates.logical_block(case.chain, sched, case.enc, case.passive)


def mirrored(case):
    n = case.chain.n
    enc = gates.EncodingMap(n, tuple(tuple(n - 1 - s for s in g) for g in case.enc.qubit_sites),
                            tuple((n - 1 - s, b) for s, b in case.enc.barrier_refs))
    return case.remap(roles=case.chain.roles[::-1], energy=lambda e: e[::-1], enc=enc,
                      site=n - 1 - case.site)


def flipped(case):
    # every spin flips: a single-site qubit's logical bit flips with it, so
    # logical index j becomes (logical_dim - 1) - j
    enc = gates.EncodingMap(case.chain.n, case.enc.qubit_sites,
                            tuple((s, 1 - b) for s, b in case.enc.barrier_refs))
    return case.remap(energy=lambda e: tuple(-x for x in e), enc=enc)


GATE_CASES = (st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(0, 2),
              st.floats(0.1, 5.0))


@settings(deadline=None, max_examples=25)
@given(*GATE_CASES, st.floats(0.1, 10.0))
def test_hold_modes_and_find_revival_are_unchanged_by_scaling_coupling_and_energies_against_time(
        seed, n, n_head, t, lam):
    case, rng = random_gate_case(seed, n, n_head)
    scaled = case.remap(coupling=lam * case.chain.coupling, time=1 / lam,
                        energy=lambda e: tuple(lam * x for x in e))
    psi = rng.normal(size=(case.chain.dim, 2)) + 1j * rng.normal(size=(case.chain.dim, 2))
    assert np.abs(held(scaled, t / lam, psi) - held(case, t, psi)).max() < 1e-12
    same_revival(revival(scaled), revival(case), case.chain.coupling, time=lam)


@settings(deadline=None, max_examples=25)
@given(*GATE_CASES)
def test_reversing_the_sites_mirrors_hold_modes_and_find_revival(seed, n, n_head, t):
    case, rng = random_gate_case(seed, n, n_head)
    idx = np.arange(case.chain.dim)
    mirror = sum(((idx >> i) & 1) << (n - 1 - i) for i in range(n))   # an involution
    psi = rng.normal(size=(case.chain.dim, 2)) + 1j * rng.normal(size=(case.chain.dim, 2))
    assert np.abs(held(mirrored(case), t, psi[mirror]) - held(case, t, psi)[mirror]).max() < 1e-12
    same_revival(revival(mirrored(case)), revival(case), case.chain.coupling)


@settings(deadline=None, max_examples=25)
@given(*GATE_CASES)
def test_flipping_every_spin_flips_hold_modes_and_keeps_find_revival(seed, n, n_head, t):
    case, rng = random_gate_case(seed, n, n_head)
    psi = rng.normal(size=(case.chain.dim, 2)) + 1j * rng.normal(size=(case.chain.dim, 2))
    assert np.abs(held(flipped(case), t, psi[::-1]) - held(case, t, psi)[::-1]).max() < 1e-12
    same_revival(revival(flipped(case)), revival(case), case.chain.coupling)


@settings(deadline=None, max_examples=25)
@given(*GATE_CASES, st.floats(0.1, 10.0))
def test_logical_block_is_unchanged_by_scaling_coupling_and_energies_against_time(
        seed, n, n_head, t, lam):
    case, _ = random_gate_case(seed, n, n_head)
    scaled = case.remap(coupling=lam * case.chain.coupling, time=1 / lam,
                        energy=lambda e: tuple(lam * x for x in e))
    (got, got_leak), (want, want_leak) = readout(scaled, t / lam), readout(case, t)
    assert np.abs(got - want).max() < 1e-12 and abs(got_leak - want_leak) < 1e-12


@settings(deadline=None, max_examples=25)
@given(*GATE_CASES)
def test_reversing_the_sites_keeps_the_logical_block(seed, n, n_head, t):
    # the mirrored encoding keeps each qubit's place in the logical index
    case, _ = random_gate_case(seed, n, n_head)
    (got, got_leak), (want, want_leak) = readout(mirrored(case), t), readout(case, t)
    assert np.abs(got - want).max() < 1e-12 and abs(got_leak - want_leak) < 1e-12


@settings(deadline=None, max_examples=25)
@given(*GATE_CASES)
def test_flipping_every_spin_reverses_the_logical_block(seed, n, n_head, t):
    case, _ = random_gate_case(seed, n, n_head)
    (got, got_leak), (want, want_leak) = readout(flipped(case), t), readout(case, t)
    assert np.abs(got - want[::-1, ::-1]).max() < 1e-12 and abs(got_leak - want_leak) < 1e-12
