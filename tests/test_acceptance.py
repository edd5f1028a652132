"""End-to-end acceptance checks, one numbered test per claim.

Each test prints a single PASS line with the measured quantities at the
pinned tolerance (run with -s or -rA to see them).  Claims the simulation
contradicts are kept as strict xfails with a passing companion documenting
what the physics does support; details live in the test bodies.
"""

import numpy as np
import pytest

from chainlab import analysis, gates, linalg, schemes
from chainlab.errors import ExcessiveLeakage, NotDiagonalizableLocally, SynthesisFailed
from chainlab.evolve import ZeemanSchedule, evolve
from chainlab.model import ChainSpec, ZeemanLevels, site_energies

J = 1.0
ENTANGLING_PHASE = 2.0 * np.pi / np.sqrt(5.0)


def reduced_chain():
    chain = ChainSpec(n=3, coupling=J, roles="ABA")
    enc = gates.EncodingMap.single_site(3, [0, 2], {1: 1})
    return chain, enc


# ---------------------------------------------------------------------------
# 1. the exchange gate from the nine-site pipeline


def test_criterion_1_exchange_gate_distance(arch1_pipeline):
    al = arch1_pipeline["alignment"]
    leak = arch1_pipeline["leakage"]
    assert al.distance < 1e-3
    assert leak < 1e-3
    print(f"criterion 1 (gate distance): PASS "
          f"op_distance={al.distance:.3e} < 1e-3, leakage={leak:.3e}")


@pytest.mark.xfail(
    strict=True,
    reason="the detuning floor leaves an invariant deviation of order J/delta "
           "(1.2e-3 at delta=1e3), far above 1e-6; see the attainable-bound "
           "companion below")
def test_criterion_1_invariants_to_1e6(arch1_pipeline):
    dev = gates.invariant_deviation(arch1_pipeline["gate"], gates.exchange_gate_target())
    assert dev < 1e-6


def test_criterion_1_invariants_attainable_bound(arch1_pipeline):
    dev = gates.invariant_deviation(arch1_pipeline["gate"], gates.exchange_gate_target())
    assert dev == pytest.approx(1.1843e-3, rel=1e-2)
    assert dev < 5e-3
    # the reduced model with no spectator dressing hits the target exactly
    chain, enc = reduced_chain()
    t_r = np.pi / (3.0 * J)
    sched = ZeemanSchedule.from_steps([(t_r, (J, J, J))])
    gate = gates.extract_gate(*gates.logical_block(chain, sched, enc, (J, J, J)))
    dev_reduced = gates.invariant_deviation(gate, gates.exchange_gate_target())
    assert dev_reduced < 1e-9
    print(f"criterion 1 (companion): PASS nine-site invariant deviation "
          f"{dev:.3e} (scales as J/delta); reduced model {dev_reduced:.1e}")


# ---------------------------------------------------------------------------
# 2. revival time of the reduced model


def test_criterion_2_revival_time_and_ratio():
    ratios = {}
    for delta in (100.0, 1000.0):
        levels = ZeemanLevels(J, delta)
        chain, enc = reduced_chain()
        none = ZeemanSchedule(())
        t_r, p = gates.find_revival(chain, none, (levels.a + J,) * 3, none, 1, (0.5, 2.0), enc)
        assert p > 1.0 - 1e-4
        ratios[delta] = 6.0 * J * t_r
    spread = abs(ratios[100.0] - ratios[1000.0]) / ratios[1000.0]
    assert spread < 1e-3
    assert ratios[1000.0] == pytest.approx(2.0 * np.pi, rel=1e-5)
    print(f"criterion 2: PASS t_r={ratios[1000.0] / 6.0:.9f}/J, "
          f"t_r / (1/(6J)) = {ratios[1000.0]:.9f} = 2*pi, "
          f"stable to {spread:.1e} across detunings 1e2..1e3")


# ---------------------------------------------------------------------------
# 3. conditional phase of the paired-encoding gate


def pair_gate_corrections(delta, eps_offset):
    levels = ZeemanLevels(J, delta)
    arch = schemes.arch2_section(levels, eps=levels.c + eps_offset)
    gate = gates.extract_gate(*gates.logical_block(arch.chain, arch.gate, arch.enc,
                                                   arch.passive_energies))
    return gates.derive_local_corrections(gate)


@pytest.mark.xfail(
    strict=True,
    raises=(ExcessiveLeakage, NotDiagonalizableLocally, AssertionError),
    reason="driving the pair barrier to C+J leaves both exchange branches "
           "off-resonant (no simultaneous revival); the subspace leaks ~27% "
           "at the nominal duration.  The working point C-J realizes the "
           "simultaneous revival with conditional phase +2*pi/sqrt(5)")
def test_criterion_3_literal_shifted_barrier():
    _, _, phi, resid = pair_gate_corrections(1000.0, eps_offset=+J)
    assert resid < 1e-3
    assert abs(np.angle(np.exp(1j * (phi + np.pi / np.sqrt(5.0))))) < 1e-3


def test_criterion_3_working_point_companion():
    # larger detuning only shrinks the off-diagonal flip-flop dressing
    _, _, phi, resid = pair_gate_corrections(4000.0, eps_offset=-J)
    err = abs(np.angle(np.exp(1j * (phi - ENTANGLING_PHASE))))
    assert resid < 1e-3
    assert err < 1e-3
    print(f"criterion 3 (companion): PASS at eps=C-J phase={phi:.9f} "
          f"(+2*pi/sqrt(5) within {err:.1e} rad), off-diagonal {resid:.1e}")


# ---------------------------------------------------------------------------
# 4. CNOT synthesis counts


def test_criterion_4_cnot_synthesis():
    res_g = gates.synthesize_cnot(gates.exchange_gate_target(), 4,
                                  seed=1234, n_starts=16)
    assert res_g.fidelity > 1.0 - 1e-6

    res_m = gates.synthesize_cnot(gates.controlled_phase(ENTANGLING_PHASE), 2,
                                  seed=1234, n_starts=16)
    assert res_m.fidelity > 1.0 - 1e-6

    # the displayed-phase variant -pi/sqrt(5) is not CNOT-complete in two
    # uses; document its best fidelity and the minimal succeeding count
    with pytest.raises(SynthesisFailed) as info:
        gates.synthesize_cnot(gates.controlled_phase(-np.pi / np.sqrt(5.0)), 2,
                              seed=1234, n_starts=16)
    best_two = info.value.best_fidelity
    assert best_two < 1.0 - 1e-6
    res_three = gates.synthesize_cnot(gates.controlled_phase(-np.pi / np.sqrt(5.0)),
                                      3, seed=1234, n_starts=16)
    assert res_three.fidelity > 1.0 - 1e-6
    print(f"criterion 4: PASS exchange*4 F={res_g.fidelity:.9f}, "
          f"cphase(+2pi/sqrt5)*2 F={res_m.fidelity:.9f}; "
          f"cphase(-pi/sqrt5)*2 best F={best_two:.9f}, "
          f"minimal succeeding count 3 (F={res_three.fidelity:.9f})")


# ---------------------------------------------------------------------------
# 5. defect trend over the detuning grid


def test_criterion_5_defect_trend(default_sweep):
    assert len(default_sweep) == len(analysis.DEFAULT_DELTA_GRID)
    defects = {r.delta: r.defect_worst for r in default_sweep}
    seq = [r.defect_worst for r in default_sweep]
    assert all(b <= a for a, b in zip(seq, seq[1:]))
    assert defects[100.0] < defects[10.0] / 10.0
    for r in default_sweep:
        assert np.sin(r.phase_noise_rad / 2.0) ** 2 <= r.defect_worst
    print(f"criterion 5: PASS monotone over {len(seq)} points, "
          f"defect(100)={defects[100.0]:.3e} < defect(10)/10="
          f"{defects[10.0] / 10.0:.3e}, phase noise subdominant everywhere")


# ---------------------------------------------------------------------------
# 6. convergence to the effective Ising form


def test_criterion_6_ising_leakage_slope():
    fit = analysis.ising_convergence((10.0, 30.0, 100.0, 300.0, 1000.0), J)
    assert fit.leakage_slope == pytest.approx(-2.0, abs=0.3)
    print(f"criterion 6: PASS leakage log-log slope {fit.leakage_slope:.3f} "
          f"within -2 +- 0.3 (unitary-distance slope {fit.distance_slope:.3f})")


# ---------------------------------------------------------------------------
# 7. parity isolation of the global six-setting drive


def test_criterion_7_six_setting_isolation():
    delta = 1000.0
    levels = ZeemanLevels(J, delta)
    arch = schemes.arch3_section(levels)
    setting = arch.settings[1]
    assert setting.eps_even == levels.b and setting.eps_odd == levels.a + J
    logical, _ = gates.logical_block(arch.chain, setting.schedule, arch.enc, arch.passive_energies)
    blocks = [gates.operator_schmidt_factor(logical, 4, (q,))[0] for q in range(4)]
    odd_mismatch = linalg.op_distance(blocks[1], blocks[3])
    assert odd_mismatch < 1e-6

    bound = 10.0 * J / delta
    even_dists = []
    for q in (0, 2):
        d = np.diag(blocks[q])
        d = d / np.abs(d)
        even_dists.append(linalg.op_distance(blocks[q], np.diag(d)))
    assert all(dist < bound for dist in even_dists)
    print(f"criterion 7: PASS odd-qubit gates match to {odd_mismatch:.3e} "
          f"(< 1e-6); parked even qubits within {max(even_dists):.3e} of "
          f"z-phases (< 10 J/delta = {bound:.0e})")


# ---------------------------------------------------------------------------
# 8. collapse-frequency (Zeno) ordering


@pytest.fixture(scope="module")
def zeno_curves():
    chain, enc = reduced_chain()
    levels = ZeemanLevels(J, 1000.0)
    t_gate = np.pi / (3.0 * J)
    gate = ZeemanSchedule.from_steps([(t_gate, (levels.a + J,) * 3)])
    qa = np.array([1.0, 1.0]) / np.sqrt(2.0)
    qb = np.array([1.0, np.exp(1j * np.pi / 4.0)]) / np.sqrt(2.0)
    psi0 = enc.embed_state(np.kron(qa, qb))

    def curve(stddev, mode):
        stats = {}
        for k in (1, 2, 4, np.inf):
            cfg = schemes.ZenoConfig(
                collapse_every_gates=k if np.isfinite(k) else None,
                jitter_stddev=stddev, trials=10000, seed=1234, jitter_mode=mode)
            stats[k] = schemes.zeno_run(chain, [gate] * 20, enc, cfg, psi0=psi0)
        return stats

    return curve


def assert_zeno_ordering(stats):
    # paired comparisons: the jitter stream is shared across intervals
    dfid = stats[1].fidelity - stats[np.inf].fidelity
    se = dfid.std(ddof=1) / np.sqrt(dfid.size)
    assert dfid.mean() > 3.0 * se, "per-gate collapse must beat no collapse (3 sigma)"
    for a, b in ((1, 2), (2, 4), (4, np.inf)):
        dw = stats[a].wrong_collapse.astype(float) - stats[b].wrong_collapse.astype(float)
        se_w = dw.std(ddof=1) / np.sqrt(dw.size)
        assert dw.mean() < -3.0 * se_w, \
            f"wrong-collapse must fall from every-{b} to every-{a} (3 sigma)"


@pytest.mark.xfail(
    strict=True,
    reason="independent per-gate timing errors random-walk; collapsing more "
           "often only adds chances to catch the walker off reference "
           "(measured: wrong probability rises from 0.189 to 0.235 going from "
           "final-readout-only to every-gate collapse, and fidelity does not "
           "improve).  The companion below shows the claimed ordering for a "
           "per-trial miscalibration, which collapse does suppress")
def test_criterion_8_literal_independent_jitter(zeno_curves):
    assert_zeno_ordering(zeno_curves(0.05, "independent"))


def test_criterion_8_companion_systematic_miscalibration(zeno_curves):
    stats = zeno_curves(0.01, "systematic")
    assert_zeno_ordering(stats)
    w = {k: s.wrong_collapse_probability for k, s in stats.items()}
    f = {k: s.mean_fidelity for k, s in stats.items()}
    assert w[1] == pytest.approx(0.0104, abs=2e-3)
    assert w[np.inf] == pytest.approx(0.1636, abs=2e-3)
    print(f"criterion 8 (companion): PASS wrong collapse "
          f"{w[1]:.4f} < {w[2]:.4f} < {w[4]:.4f} < {w[np.inf]:.4f} "
          f"(every gate .. never, each gap > 3 sigma); fidelity "
          f"{f[1]:.4f} > {f[np.inf]:.4f} (> 3 sigma)")


# ---------------------------------------------------------------------------
# 9. conservation suite


def schedule_corpus():
    lv = ZeemanLevels(J, 1000.0)
    out = []
    arch1 = schemes.arch1_section(lv)
    pad = (arch1.pad, arch1.passive_energies)
    out.append((arch1.chain, ZeemanSchedule.from_steps(
        [pad, (np.pi / 3.0, arch1.gate_energies), pad])))
    chain2 = ChainSpec(n=4, coupling=J, roles="CABC")
    out.append((chain2, schemes.arch2_single_qubit_schedule(lv, 0.0, np.pi / 4.0)[0]))
    for arch2 in (schemes.arch2_section(lv, eps=lv.c + J), schemes.arch2_section(lv)):
        out.append((arch2.chain, arch2.gate))
    chain3, _ = reduced_chain()
    out.append((chain3, ZeemanSchedule.from_steps([(np.pi / 3.0, (lv.a + J,) * 3)])))
    chain_pair = ChainSpec(n=2, coupling=J, roles="AB")
    out.append((chain_pair, ZeemanSchedule.from_steps(
        [(0.35, site_energies(chain_pair, lv))])))
    return out


def total_z_expectation(chain, psi):
    idx = np.arange(chain.dim)
    ups = sum(1 - ((idx >> s) & 1) * 2 for s in range(chain.n))
    return float(np.real(np.sum(np.abs(psi) ** 2 * ups)))


def test_criterion_9_conservation_suite():
    rng = np.random.default_rng(17)
    worst_unitarity = 0.0
    worst_norm = 0.0
    worst_sz = 0.0
    corpus = schedule_corpus()
    for chain, sched in corpus:
        u = evolve(chain, sched, np.eye(chain.dim))
        worst_unitarity = max(worst_unitarity, linalg.unitarity_defect(u))
        psi = rng.normal(size=chain.dim) + 1j * rng.normal(size=chain.dim)
        psi /= np.linalg.norm(psi)
        before = total_z_expectation(chain, psi)
        out = evolve(chain, sched, psi)
        worst_norm = max(worst_norm, abs(np.linalg.norm(out) - 1.0))
        worst_sz = max(worst_sz, abs(total_z_expectation(chain, out) - before))
    assert worst_unitarity < 1e-9
    assert worst_norm < 1e-9
    assert worst_sz < 1e-9

    # reduced three-spin core against the five-spin frozen-guard oracle
    lv = ZeemanLevels(J, 1000.0)
    ch5 = ChainSpec(n=5, coupling=J, roles="BABAB")
    enc5 = gates.EncodingMap.single_site(5, [1, 3], {0: 0, 2: 1, 4: 0})
    e5 = list(site_energies(ch5, lv))
    e5[2] = lv.a + J
    ch3, enc3 = reduced_chain()
    e3 = (lv.a + J,) * 3
    logical = rng.normal(size=4) + 1j * rng.normal(size=4)
    logical /= np.linalg.norm(logical)
    states = [np.eye(4)[k] for k in range(4)] + [logical]
    worst_overlap = 1.0
    for t in np.linspace(0.0, 5.0 / J, 26)[1:]:
        s5 = ZeemanSchedule.from_steps([(t, e5)])
        s3 = ZeemanSchedule.from_steps([(t, e3)])
        for l in states:
            psi5 = evolve(ch5, s5, enc5.embed_state(l))
            psi3 = evolve(ch3, s3, enc3.embed_state(l))
            full3 = np.zeros(ch5.dim, dtype=complex)
            full3[0:16:2] = psi3  # guards pinned up on both ends
            worst_overlap = min(worst_overlap, abs(np.vdot(full3, psi5)))
    assert worst_overlap > 1.0 - 1e-4
    print(f"criterion 9: PASS unitarity {worst_unitarity:.1e}, norm drift "
          f"{worst_norm:.1e}, total-z drift {worst_sz:.1e} over "
          f"{len(corpus)} schedules; reduced-vs-five-spin overlap "
          f">= {worst_overlap:.6f} over t in [0, 5/J]")
