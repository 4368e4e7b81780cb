"""vanhove-lab benchmark: one workload per run, checked outputs, JSON result.

Run from the root of a checkout:

    python3 bench/run.py --workload zt-reduced --seed 0 --seconds 25 --trace 0

Workloads are listed in BENCHMARK.json and described in workloads.py.
A run imports the package from ``src/`` and:

1. measures set-up five times, each in a fresh interpreter: importing
   ``vanhove_lab`` and ``vanhove_lab.cli`` plus the first
   ``bubbles.k_constant`` and ``k_prime_constant``;
2. pays the same set-up once in this process, untimed;
3. runs passes of the workload back to back from a single caller
   (closed loop) until the next pass would end past ``--seconds``; a
   pass longer than that runs once;
4. checks that the CSV and JSON artifacts hash the same in every pass
   and in every earlier run of the same ``src/`` and seed;
5. prints a readable summary and, as its last stdout line, one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s``
(median pass time), ``setup_s`` (median set-up time), ``peak_rss_mb``
(peak resident memory of this process) and ``ok_frac`` (operations that
converged and passed their checks, over operations attempted; the
complement of the failure share, which is printed in the summary with
both counts).  The summary adds the highest percentile of the pass
times with at least ten passes beyond it, when a run has that many.

With ``--trace 1`` each untraced pass is followed by a traced one, and the
metrics are the per-layer numbers from tracing.py, averaged over the
traced passes, plus ``trace.overhead_s`` (median traced pass minus
median untraced pass).

``failed`` in the JSON counts hard failures only: operations that
raised, exited non-zero without a non-converged row, or failed a
correctness check.  A quadrature that used up its budget is an honest
result; it lowers ``ok_frac`` but does not make the run incorrect.

The error calibration runs inside ``zt-reduced`` and the gap between the
two K integrals inside ``zt-reduced`` and ``no-cubature``; elsewhere
``quad.calibration_max`` and ``bubbles.k_gap`` read -1.

Artifacts, the full record (environment, operations, artifact SHA-256
hashes, calibration table) and, when traced, the spans go to
``.bench_run/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
SETUP_SAMPLES = 5
SETUP_CODE = """
import time
t0 = time.perf_counter()
import vanhove_lab, vanhove_lab.cli
from vanhove_lab import bubbles
bubbles.k_constant()
bubbles.k_prime_constant()
print(time.perf_counter() - t0)
"""
WORKLOAD_NAMES = ("zt-reduced", "zt-deep", "finite-beta", "no-cubature")


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def setup_once(env: dict) -> float:
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        fail(f"set-up failed:\n{out.stderr}")
    return float(out.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import mpmath
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "VANHOVE_LAB_THREADS": os.environ.get("VANHOVE_LAB_THREADS"),
        "blas": blas.get("name"),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def src_files() -> list:
    return sorted((SRC / "vanhove_lab").glob("*.py"))


def tail(times: list):
    """Highest percentile with at least ten passes beyond it, or None."""
    n = len(times)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(times)[k - 1]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0,
                    help="drives the overlap momenta and the interval corpus; "
                         "0 reproduces acceptance criterion 9 and the CLI defaults")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not __debug__:
        fail("refusing to run under python -O: it strips the 2/|q0| bound "
             "assertion in sigma2, so it would time a different program")
    if not (SRC / "vanhove_lab" / "__init__.py").is_file():
        fail(f"no package at {SRC / 'vanhove_lab'}; run from a full checkout")
    if os.environ.get("VANHOVE_LAB_THREADS", "1") != "1":
        fail("VANHOVE_LAB_THREADS must be unset or 1 for this benchmark")

    os.chdir(ROOT)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    setup_samples = [setup_once(env) for _ in range(SETUP_SAMPLES)]

    sys.path.insert(0, str(SRC))
    from vanhove_lab import bubbles
    bubbles.k_constant()
    bubbles.k_prime_constant()
    import tracing
    import workloads

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    ledger = workloads.Ledger(out_dir, args.seed)
    run_pass = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None

    def timed(traced: bool) -> float:
        ledger.tracer = tracer if traced else None
        undo = tracing.instrument(tracer) if traced else None
        t0 = time.perf_counter()
        try:
            run_pass(ledger)
            return time.perf_counter() - t0
        finally:
            if undo is not None:
                undo()
            ledger.tracer = None

    times, traced_times = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        times.append(timed(False))
        if args.trace:
            traced_times.append(timed(True))
        group = time.perf_counter() - t0
        if time.perf_counter() - start + group > args.seconds:
            break
    src_digest = hashlib.sha256(b"".join(p.read_bytes() for p in src_files()))
    ledger.check_against(
        out_dir / f"sha256-src{src_digest.hexdigest()[:16]}-seed{args.seed}.json")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes = ledger.outcomes
    attempted = sum(outcomes.values())
    hard = outcomes[workloads.ERROR] + outcomes[workloads.WRONG]
    not_ok = attempted - outcomes[workloads.OK]

    if args.trace:
        metrics = tracing.layer_metrics(tracer, len(traced_times))
        # -1 where the workload does not compute them
        metrics["quad.calibration_max"] = max(ledger.calibration.values(),
                                              default=-1.0)
        metrics["bubbles.k_gap"] = -1.0 if ledger.k_gap is None else ledger.k_gap
        metrics["trace.overhead_s"] = (statistics.median(traced_times)
                                       - statistics.median(times))
        tracer.dump(out_dir / "spans.jsonl")
    else:
        metrics = {
            "wall_s": statistics.median(times),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": outcomes[workloads.OK] / attempted,
        }

    digest = hashlib.sha256(json.dumps(ledger.hashes, sort_keys=True)
                            .encode()).hexdigest()
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in src_files())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "src_lines": src_lines, "pass_s": times, "traced_pass_s": traced_times,
        "setup_s": setup_samples, "peak_rss_mb": peak_rss_mb,
        "outcomes": dict(outcomes), "failures": ledger.failures,
        "artifact_sha256": ledger.hashes, "artifact_digest": digest,
        "calibration": ledger.calibration, "k_gap": ledger.k_gap,
        "metrics": metrics,
    }
    (out_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n",
                                         encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(times)}"
          f"  src lines {src_lines}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    spread = tail(times)
    if spread is not None:
        print(f"wall_s p{spread[0]:.0f} {spread[1]:.4f} s over {len(times)} passes")
    print(f"failed_frac {not_ok / attempted:.6f} ratio  "
          f"({not_ok} of {attempted} operations: {dict(outcomes)})")
    for f in ledger.failures[:20]:
        print(f"  {f['outcome']:13s} {f['op']}  {f['detail']}")
    print(f"artifacts {len(ledger.hashes)}  sha256 digest {digest}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {_unit(name)}")
    result = {
        "correct": hard == 0,
        "attempted": attempted,
        "failed": hard,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ns_per_eval"):
        return "ns"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_gap"):
        return "1"
    if name.endswith(("_share", "_ratio", "_max", "_frac")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    main()
