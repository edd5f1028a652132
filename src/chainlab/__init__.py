"""chainlab: gate construction on always-coupled Heisenberg spin chains.

Submodules:
  linalg    operator distance, unitarity, polar projection, golden-section
            search, BFGS minimize, single_blas_thread; the dense spectral
            exp(-iHt) the tests check against
  model     chain spec, Zeeman levels (J, delta and the energies they set),
            Heisenberg sector blocks and the classical (effective-Ising) energies
  evolve    piecewise-constant schedules, cached sector-blocked evolution
            (of states, or of the identity for a unitary), the Zeeman frame
  gates     revival search, gate readout, invariants, CNOT synthesis
  schemes   the three chain architectures, each built once as a section
            (chain, levels, encoding) that holds the schedules it runs;
            the arch-1 exchange-gate pipeline, Zeno runs, refocusing demo
  analysis  detuning sweeps, Ising-limit convergence, the artifact writers
  cli       the `chainlab` command line tool
"""

__version__ = "0.1.0"
