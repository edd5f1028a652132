"""Shared fixtures for the expensive end-to-end pipelines.

The nine-site extraction and the default detuning sweep take seconds each;
they are computed once per session and reused by the unit and acceptance
tests.  blas_worker_ticks runs a statement in a fresh interpreter that has
a BLAS worker and counts the CPU time BLAS worker threads spend on it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainlab
from chainlab import analysis, schemes
from chainlab.model import ZeemanLevels


@pytest.fixture(scope="session")
def arch1_pipeline():
    """Nine-site exchange gate at detuning 1000: revival, extraction, alignment."""
    coupling = 1.0
    levels = ZeemanLevels(coupling=coupling, delta=1000.0)
    arch = schemes.arch1_section(levels)
    t_r, p_r, gate, leakage, alignment = schemes.arch1_exchange_gate(arch)
    return {
        "coupling": coupling,
        "levels": levels,
        "t_r": t_r,
        "p_r": p_r,
        "gate": gate,
        "leakage": leakage,
        "alignment": alignment,
    }


@pytest.fixture(scope="session")
def default_sweep():
    """Defect sweep over the default detuning grid."""
    spec = analysis.SweepSpec(delta_values=analysis.DEFAULT_DELTA_GRID, coupling=1.0)
    return analysis.defect_sweep(spec)


# CPU clock ticks (utime + stime, fields 14-15 of /proc/<pid>/task/<tid>/stat)
# that the threads other than the main one gain while argv[1] runs
BLAS_WORKER_TICKS = """
import json, sys, threading, time
from pathlib import Path
from chainlab import cli, schemes

def worker_ticks():
    main, total = threading.get_native_id(), 0
    for stat in Path("/proc/self/task").glob("*/stat"):
        if int(stat.parent.name) != main:
            fields = stat.read_text().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
    return total

n_threads = len(list(Path("/proc/self/task").iterdir()))
# BLAS workers spin for a while after they start; wait until they sleep
settled = worker_ticks()
for _ in range(20):
    time.sleep(0.1)
    settled, previous = worker_ticks(), settled
    if settled == previous:
        break
before, start = worker_ticks(), time.process_time()
exec(sys.argv[1])
print(json.dumps([n_threads, worker_ticks() - before, time.process_time() - start]))
"""


@pytest.fixture
def blas_worker_ticks():
    """run(statement) -> (worker ticks, CPU s): the statement runs in a fresh
    interpreter, with chainlab's cli and schemes imported, once the BLAS
    workers have gone to sleep.  The interpreter is started with
    OPENBLAS_NUM_THREADS=2, a count chosen by the user, which chainlab keeps
    instead of pinning one thread at import, so OpenBLAS starts a worker for
    the statement to leave idle.  Skips where there is no /proc to read
    per-thread CPU time from, or where BLAS starts no worker."""
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc to read per-thread CPU time from")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    src = str(Path(chainlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(statement):
        proc = subprocess.run([sys.executable, "-c", BLAS_WORKER_TICKS, statement],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        n_threads, worker_ticks, cpu_s = json.loads(proc.stdout.splitlines()[-1])
        if n_threads == 1:
            pytest.skip("BLAS runs on a single thread here")
        return worker_ticks, cpu_s

    return run
