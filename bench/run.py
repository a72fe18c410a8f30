"""cpgates benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {synthesize,analyze,iontrap} --seed N
                         --seconds S --trace 0|1

Workloads (closed loop, one client; see ``workloads.py``):

* ``synthesize``: ``solve`` runs and ``polish`` calls; primary_ref is the
  summed solve time, secondary_ref the summed polish time.
* ``analyze``: catalog dumps, scans, bands, order fits and one ``verify``;
  primary_ref is the summed scan time, secondary_ref the summed time of
  the band searches (``band`` and ``verify --bands``).
* ``iontrap``: numerical ion-trap gates and a closed-form sweep;
  primary_ref is the summed numerical time, secondary_ref the summed
  ``--analytic`` time.

With ``--trace 0`` the last line of standard output is a JSON object with
``setup_s`` (median over fresh interpreters of importing ``cpgates.cli``
and building its parser, in seconds), ``wall_ref`` (the whole operation
list), ``primary_ref``, ``secondary_ref`` and ``peak_rss_mb`` (peak RSS of
the workload's own process).  The ``*_ref`` times are in units of a fixed
reference computation timed between the operations of the same pass (see
``reference.py``): each operation's time over its pass's median reference
sample, its median over passes, summed.  Seconds are kept in the record
file.  With ``--trace 1`` the line holds the per-layer metrics of one
traced pass, in seconds and counts.
Operations failing, or failing an oracle check or the byte-stability
check, count in ``failed``; ``correct`` is false when any did.  The line
before it is the environment record; the full record is also written to
``.bench_out/``.

The program is imported from ``src/`` of this checkout, with BLAS pinned
to one thread.  Without ``src/cpgates`` the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 170.0
SETUP_CODE = (
    "import time; t = time.perf_counter(); import cpgates.cli as c; "
    "c.build_parser(); print(time.perf_counter() - t); print(c.__file__)"
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def measure_setup(env: dict) -> list[float]:
    """Import-and-parser time of fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, source = done.stdout.split()
        if ROOT / "src" not in Path(source).resolve().parents:
            raise RuntimeError(f"cpgates imported from {source}, not from this checkout")
        samples.append(float(seconds))
    return samples


def environment(seed: int, env: dict) -> dict:
    code = (
        "import json, numpy, scipy\n"
        "try:\n"
        "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "    blas = f\"{blas.get('name')} {blas.get('version')}\"\n"
        "except Exception:\n"
        "    blas = None\n"
        "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__, 'blas': blas}))\n"
    )
    record = json.loads(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                       capture_output=True, text=True, timeout=60,
                                       check=True).stdout)
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    record.update(
        nproc=os.cpu_count(),
        cpus_usable=len(os.sched_getaffinity(0)),
        cpu_model=cpu,
        python=sys.version.split()[0],
        blas_threads=env["OPENBLAS_NUM_THREADS"],
        seed=seed,
        git_commit=commit,
    )
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="cpgates benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "cpgates" / "cli.py").is_file():
        print(f"error: no cpgates sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SIGTERM unwinds through subprocess.run, which then kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = perf_counter()
    env = child_env()
    record = {"environment": environment(args.seed, env), "workload": args.workload,
              "seconds": args.seconds, "trace": args.trace}
    metrics = {}
    if not args.trace:
        samples = measure_setup(env)
        record["setup_samples_s"] = samples
        metrics["setup_s"] = {"value": statistics.median(samples), "unit": "s"}

    out_dir = ROOT / ".bench_out"
    run_dir = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    worker = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--run-dir", str(run_dir)]
    try:
        done = subprocess.run(worker, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, DEADLINE_S - (perf_counter() - start)))
    except subprocess.TimeoutExpired:
        print("error: the workload did not finish in time", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"error: the workload exited with code {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not any(run_dir.iterdir()):
        run_dir.rmdir()

    metrics.update(result.pop("metrics"))
    record.update(result, metrics=metrics)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for failure in result["failures"]:
        print(f"failed: pass {failure['pass']} op {failure['op']} {failure['argv']}: "
              f"{failure['error']}", file=sys.stderr)
    print("environment: " + json.dumps(record["environment"]))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
