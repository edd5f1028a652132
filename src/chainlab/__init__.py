"""chainlab: gate construction on always-coupled Heisenberg spin chains.

Submodules:
  linalg    operator distance, unitarity, polar projection, golden-section
            search, BFGS minimize, blas_threads; the dense spectral
            exp(-iHt) the tests check against
  model     chain spec, Zeeman levels (J, delta and the energies they set),
            Heisenberg sector blocks and the classical (effective-Ising) energies
  evolve    piecewise-constant schedules, LRU-cached sector-blocked evolution
            (of states, or of the identity for a unitary), the Zeeman frame
  gates     revival search, gate readout, invariants, CNOT synthesis
  schemes   the three chain architectures, each built once as a section
            (chain, levels, encoding) that holds the schedules it runs;
            the arch-1 exchange-gate pipeline, Zeno runs, refocusing demo
  analysis  detuning sweeps, Ising-limit convergence, the artifact writers
  cli       the `chainlab` command line tool

Importing chainlab loads numpy with its OpenBLAS on one thread, so that no
BLAS worker starts and spins beside the main thread: the products and 9-site
eigensolves here are too small for a second one.  It does so only when numpy
is not loaded yet and none of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
OMP_NUM_THREADS is set; it sets OPENBLAS_NUM_THREADS=1 for the import alone,
so child processes see the environment unchanged.  BLAS_PINNED_AT_IMPORT
records whether it did; linalg.blas_threads changes the count for a block.
"""

import os
import sys

__version__ = "0.1.0"

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

BLAS_PINNED_AT_IMPORT = ("numpy" not in sys.modules
                         and not any(v in os.environ for v in BLAS_THREAD_VARIABLES))
if BLAS_PINNED_AT_IMPORT:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401  (OpenBLAS reads its thread count as it loads)
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
