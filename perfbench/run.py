"""chainlab benchmark: CLI pipelines timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a chainlab source tree; the package is imported from
``src/``.  Each operation (op) is one ``chainlab.cli.main([...])`` call in a
fresh interpreter (perfbench/op.py), so it pays the import and the cold
sector-eigensolve cache as a user does.  Ops run one after another (a closed
loop with one client) until the next one would end after ``--seconds``;
the first always runs.  CLI threads are left at their default.

``--trace 0`` reports the end-to-end metrics, each the median over the run:
``wall_s`` (entry to return of ``cli.main``), ``cpu_s`` (user + system time
of that call), ``setup_s`` (interpreter start, ``import chainlab`` and config
load; topped up with set-up-only processes to SETUP_SAMPLES samples) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced ops (at least
two traced) and reports the per-layer metrics of perfbench/tracer.py plus
the tracing overhead.

Every op's artifacts are checked against perfbench/reference.json and the
workload's own criteria, and digested.  The first digest seen for a
(workload, seed) in this tree is kept in ``.perfbench_run/state.json``; a
later op with another digest fails.  The same holds for the exact counts of
traced ops.  The last stdout line is the JSON result; the line before it
holds the details (samples, tail percentile, digests, environment).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
STATE = WORK / "state.json"

SETUP_SAMPLES = 5
MIN_TRACED = 2
DEADLINE_S = 170.0        # a run ends within this many seconds of starting
SUCCESS_FIDELITY = 1.0 - 1e-6


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# output checks: each returns the list of problems found in an op's output


def check_verify_g(out: Path, ref: dict) -> list[str]:
    doc = _read_json(out / "gate_report.json")
    problems = []
    if not doc["distance_to_target"] < 1e-3:
        problems.append(f"distance {doc['distance_to_target']} >= 1e-3")
    if abs(doc["revival_time"] - ref["verify-g"]["revival_time"]) > 1e-9:
        problems.append(f"revival time {doc['revival_time']!r} off the reference")
    return problems


def check_sweep(out: Path, ref: dict) -> list[str]:
    with open(out / "defect_sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    want = ref["sweep"]
    if len(rows) != len(want["t_r"]):
        return [f"{len(rows)} rows, want {len(want['t_r'])}"]
    problems = []
    defects = [float(r["defect_worst"]) for r in rows]
    if any(b > a + 1e-6 for a, b in zip(defects, defects[1:])):
        problems.append("defect not monotone in delta")
    for row, delta, t_r in zip(rows, want["delta"], want["t_r"]):
        if float(row["delta"]) != delta or abs(float(row["t_r"]) - t_r) > 1e-9:
            problems.append(f"row delta={row['delta']} t_r={row['t_r']} off the reference")
    return problems


def check_six_settings(out: Path, ref: dict) -> list[str]:
    settings = _read_json(out / "six_settings.json")["settings"]
    failed = [s["label"] for s in settings if not s["passed"]]
    if len(settings) != 6 or failed:
        return [f"{len(settings)} settings, failing: {failed}"]
    return []


def check_synth(out: Path, ref: dict) -> list[str]:
    jobs = _read_json(out / "synthesis.json")["jobs"]
    fid = jobs[0].get("fidelity", jobs[0].get("best_fidelity"))
    if len(jobs) != 1 or not fid > SUCCESS_FIDELITY:
        return [f"fidelity {fid} <= {SUCCESS_FIDELITY}"]
    return []


def check_zeno(out: Path, ref: dict) -> list[str]:
    summary = _read_json(out / "zeno_summary.json")
    with open(out / "zeno_stats.csv") as fh:
        rows = sum(1 for _ in fh) - 1
    problems = []
    if not summary["mean_fidelity"] >= 0.5:
        problems.append(f"mean fidelity {summary['mean_fidelity']} < 0.5")
    if rows != ZENO_TRIALS or summary["trials"] != ZENO_TRIALS:
        problems.append(f"{rows} csv rows, want {ZENO_TRIALS}")
    return problems


# ---------------------------------------------------------------------------
# workloads

ZENO_TRIALS = 100_000


@dataclass(frozen=True)
class Workload:
    command: str
    config: dict | None
    check: Callable[[Path, dict], list[str]]
    forward_seed: bool = True


# Why each workload is here (layers named as in perfbench/tracer.py):
#  sweep         revival search and segment application (find_revival,
#                evolve) plus the chi scan of analysis; eigensolves are rare.
#  verify-g      the only real load on align_phases / op_distance, and the
#                one full 512-column propagator.
#  six-settings  78 complex sector eigh calls on 12 sites; sets the memory
#                peak; never runs the revival search or the optimizer.
#  synth-cp2     the CNOT-synthesis optimizer and circuit_fidelity only; the
#                default two-job config takes too long to repeat.  It runs at
#                the CLI's default seed: its work follows the seed (34k-55k
#                circuit_fidelity calls over seeds 0-18, quartiles 15% apart),
#                which would swamp any bound a timing can be held to.
#  zeno-100k     apply_hold over 100k columns with one duration each, the
#                collapse sampling and a 2.4 MB CSV; the default 2000 trials
#                would vanish under set-up time.
WORKLOADS = {
    "sweep": Workload("sweep", None, check_sweep),
    "verify-g": Workload("verify-g", None, check_verify_g),
    "six-settings": Workload("six-settings", None, check_six_settings),
    "synth-cp2": Workload("synthesize", {"synthesize": {"jobs": [
        {"entangler": "cphase", "n_uses": 2, "n_starts": 8}]}}, check_synth,
        forward_seed=False),
    "zeno-100k": Workload("zeno", {"zeno": {"trials": ZENO_TRIALS}}, check_zeno),
}


# ---------------------------------------------------------------------------
# ops


def artifact_digest(out: Path) -> tuple[str, int]:
    """sha256 over the artifacts' names and bytes, and their total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), size


class Runner:
    """Runs the ops of one benchmark invocation in a private work directory."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.reference = reference
        self.key = f"{workload}:{seed}:{source_digest()[:16]}"
        self.deadline = time.monotonic() + DEADLINE_S
        self.dir = WORK / f"run-{os.getpid()}"
        self.n = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.state = _read_json(STATE) if STATE.exists() else {"digests": {}, "exact": {}}

    def __enter__(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = None
        if self.workload.config is not None:
            self.config = self.dir / "config.json"
            self.config.write_text(json.dumps(self.workload.config))
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)
        tmp = STATE.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.state, indent=1, sort_keys=True))
        tmp.replace(STATE)

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def _launch(self, mode: str) -> tuple[dict, float, Path, str]:
        """mode is "setup", "plain" or "traced"."""
        self.n += 1
        op_dir = self.dir / f"op{self.n}"
        op_dir.mkdir()
        out = op_dir / "out"
        result = op_dir / "result.json"
        opts = {"setup": ["--setup-only"], "plain": [],
                "traced": ["--spans", str(op_dir / "spans.json")]}[mode]
        cli = [self.workload.command, "--out", str(out)]
        if self.workload.forward_seed:
            cli += ["--seed", str(self.seed)]
        if self.config is not None:
            cli += ["--config", str(self.config)]
        cmd = [sys.executable, str(HERE / "op.py"), str(result), *opts, "--", *cli]
        launched = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=max(self.remaining(), 1.0))
        elapsed = time.monotonic() - launched
        if proc.returncode != 0 or not result.exists():
            return {}, elapsed, op_dir, f"op exited {proc.returncode}: {proc.stderr[-2000:]}"
        doc = _read_json(result)
        doc["setup_s"] = doc.pop("setup_end") - launched
        return doc, elapsed, op_dir, ""

    def setup_only(self) -> dict:
        doc, _, op_dir, err = self._launch("setup")
        shutil.rmtree(op_dir, ignore_errors=True)
        if err:
            raise RuntimeError(err)
        return doc

    def op(self, traced: bool) -> dict:
        """Run, check and digest one op; the record's "problems" lists why
        it failed, and is empty when it passed."""
        try:
            doc, elapsed, op_dir, err = self._launch("traced" if traced else "plain")
        except subprocess.TimeoutExpired:
            return {"traced": traced, "elapsed": DEADLINE_S, "problems": ["timed out"]}
        rec = {"traced": traced, "elapsed": elapsed, "problems": [err] if err else []}
        if not err:
            rec.update(doc)
            rec["problems"] += self._check(op_dir, rec)
        shutil.rmtree(op_dir, ignore_errors=True)
        return rec

    def _check(self, op_dir: Path, rec: dict) -> list[str]:
        out = op_dir / "out"
        if rec["exit_code"] != 0:
            return [f"cli exit code {rec['exit_code']}"]
        try:
            problems = self.workload.check(out, self.reference)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        rec["digest"], rec["artifact_bytes"] = artifact_digest(out)
        known = self.state["digests"].setdefault(self.key, rec["digest"])
        if known != rec["digest"]:
            problems.append(f"artifact digest {rec['digest'][:12]} != {known[:12]}")
        if rec["traced"]:
            problems += self._check_trace(op_dir / "spans.json", rec)
        return problems

    def _check_trace(self, spans_path: Path, rec: dict) -> list[str]:
        spans = tracer.load(spans_path)
        layers = tracer.layer_metrics(spans, SUCCESS_FIDELITY)
        layers["cli.artifact_bytes"] = rec["artifact_bytes"]
        rec["layers"] = layers
        problems = []
        self_sum = layers.pop("trace.self_sum_s")
        if self_sum > rec["wall_s"]:
            problems.append(f"self times sum to {self_sum} s, more than the wall time")
        exact = {k: layers[k] for k in tracer.EXACT_COUNTS}
        known = self.state["exact"].setdefault(self.key, exact)
        if known != exact:
            problems.append(f"exact counts {exact} != {known}")
        return problems


# ---------------------------------------------------------------------------
# statistics and output


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with ten samples beyond it, or None below 11."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}


def summary(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "n": len(samples),
            "tail": tail(samples), "samples": samples}


UNITS = {"calls": "count", "evals": "count", "nfev": "count", "starts": "count",
         "starts_ok": "count", "nfev_per_start": "count", "work_m3": "count",
         "columns_applied": "count", "us_per_call": "us",
         "artifact_bytes": "bytes"}


def layer_unit(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[-1], "s")


def run(workload: str, seed: int, seconds: float, trace: bool, reference: dict) -> tuple[dict, dict]:
    with Runner(workload, seed, reference) as runner:
        env = runner.setup_only()["env"]     # also warms the file cache
        start = time.monotonic()
        ops: list[dict] = []
        while True:
            # a traced run goes untraced, traced, traced, then takes turns
            n = len(ops)
            ops.append(runner.op(trace and (n in (1, 2) or n > 2 and n % 2 == 0)))
            last = ops[-1]["elapsed"]
            enough = not trace or sum(r["traced"] for r in ops) >= MIN_TRACED
            spent = time.monotonic() - start
            if runner.remaining() < last or enough and spent + last > seconds:
                break
        setups = [r["setup_s"] for r in ops if "setup_s" in r]
        while not trace and len(setups) < SETUP_SAMPLES and runner.remaining() > 10.0:
            setups.append(runner.setup_only()["setup_s"])

    ok = [r for r in ops if not r["problems"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    metrics = {}
    if trace and traced and plain:
        for k in traced[0]["layers"]:
            # counts stay whole numbers: a sample, not a midpoint
            middle = statistics.median if layer_unit(k) in ("s", "us") else statistics.median_low
            metrics[k] = middle(r["layers"][k] for r in traced)
        metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                       - statistics.median(r["wall_s"] for r in plain))
    elif not trace and plain:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    units = {k: "MB" if k == "peak_rss_mb" else layer_unit(k) for k in metrics}
    result = {
        "correct": len(ok) == len(ops) and bool(metrics),
        "attempted": len(ops),
        "failed": len(ops) - len(ok),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    details = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "env": env, "commit": git_commit(), "source_digest": source_digest(),
        "wall_s": summary([r["wall_s"] for r in plain]) if plain else None,
        "setup_s": summary(setups) if setups else None,
        "digests": sorted({r["digest"] for r in ops if "digest" in r}),
        "exact_counts": runner.state["exact"].get(runner.key) if trace else None,
        "wall_shares": {k: v / metrics["trace.wall_s"] for k, v in metrics.items()
                        if units[k] == "s" and k != "trace.wall_s"} if "trace.wall_s" in metrics else None,
        "ops": [{k: v for k, v in r.items() if k != "layers"} for r in ops],
    }
    return result, details


def git_commit() -> str | None:
    """HEAD of the tree's git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "chainlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "chainlab" / "cli.py").is_file():
        print(f"perfbench: no chainlab sources under {SRC}", file=sys.stderr)
        return 2
    reference = _read_json(HERE / "reference.json")
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace), reference)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
