"""Run one workload in a fresh process and print its result as JSON.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and BLAS pinned to one thread.  The worker repeats the workload's
operation list in passes until ``--seconds`` are used up (at least three
passes), timing a reference sample between operations, then checks the
first pass's outputs with the oracle and compares every pass's output
hashes with the first.  With ``--trace 1`` one more pass runs with the
span recorder installed.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 --run-dir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3


def _resolve(value, pass_dir: Path):
    if isinstance(value, str) and value.startswith("@/"):
        return str(pass_dir / value[2:])
    return value


def _polish(n: int, out: str) -> bool:
    import cpgates.catalog
    import cpgates.seqio
    import cpgates.solver

    result = cpgates.solver.polish(cpgates.catalog.broadband(n), n)
    if not result.converged:
        return False
    Path(out).write_text(cpgates.seqio.sequence_to_csv(result.sequence))
    return True


LIBRARY_CALLS = {"polish": _polish}


def run_op(op, pass_dir: Path) -> tuple[float, str]:
    """Run one operation; returns (seconds, failure message or "")."""
    import cpgates.cli

    stdout, stderr = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if op.call:
                ok = LIBRARY_CALLS[op.call](*(_resolve(a, pass_dir) for a in op.args))
                status = "" if ok else f"{op.call} did not converge"
            else:
                code = cpgates.cli.main([_resolve(a, pass_dir) for a in op.argv])
                status = "" if code == 0 else f"exit code {code}: {stderr.getvalue().strip()[-300:]}"
    except Exception:  # an operation's crash is a failed operation, not a crashed run
        status = traceback.format_exc(limit=3)
    elapsed = perf_counter() - start
    if op.stdout:
        (pass_dir / op.stdout).write_text(stdout.getvalue())
    return elapsed, status


def run_pass(ops, pass_dir: Path, recorder=None) -> dict:
    """Run the operation list once, timing a reference sample before each
    operation and after the last."""
    pass_dir.mkdir(parents=True)
    for name, text in workloads.INPUTS.items():
        (pass_dir / name).write_text(text)
    times, refs, failures = [], [reference.sample()], {}
    for op in ops:
        if recorder is not None:
            recorder.op_id = op.op_id
        elapsed, status = run_op(op, pass_dir)
        times.append(elapsed)
        refs.append(reference.sample())
        if status:
            failures[op.op_id] = status
    hashes = {}
    for op in ops:
        for name in op.outputs:
            path = pass_dir / name
            hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return {"times": times, "refs": refs, "failures": failures, "hashes": hashes}


def relative_times(p: dict) -> list[float]:
    """Each operation's time in units of the pass's median reference
    sample.  The machine's speed wanders within a second, so samples
    next to one operation say little about it; the pass median follows
    the slower drift that moves whole runs."""
    ref = statistics.median(p["refs"])
    return [t / ref for t in p["times"]]


def _check_stability(ops, first: dict, other: dict, label: str) -> None:
    """Mark operations whose outputs differ from the first pass."""
    for op in ops:
        changed = [n for n in op.outputs if other["hashes"][n] != first["hashes"][n]]
        if changed and op.op_id not in other["failures"]:
            other["failures"][op.op_id] = f"{label}: output bytes differ from pass 0: {changed}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--run-dir", required=True)
    args = p.parse_args(argv)

    import cpgates.cli

    source = Path(cpgates.cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"cpgates imported from {source}, not from this checkout", file=sys.stderr)
        return 2

    run_dir = Path(args.run_dir)
    ops = workloads.build(args.workload, args.seed)
    start = perf_counter()
    passes = []
    while True:
        passes.append(run_pass(ops, run_dir / f"pass{len(passes)}"))
        if len(passes) > 1:
            shutil.rmtree(run_dir / f"pass{len(passes) - 1}")
        elapsed = perf_counter() - start
        typical = statistics.median(sum(p["times"]) for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    first_dir = run_dir / "pass0"
    check_failures = {}
    for op in ops:
        messages = [m for c in op.checks for m in oracle.run_check(first_dir, c)]
        if messages:
            check_failures[op.op_id] = "; ".join(messages)
    for k, other in enumerate(passes[1:], start=1):
        _check_stability(ops, passes[0], other, f"pass {k}")

    op_medians = [statistics.median(p["times"][op.op_id] for p in passes) for op in ops]
    relative = [relative_times(p) for p in passes]
    op_ref = [statistics.median(r[op.op_id] for r in relative) for op in ops]
    result = {
        "passes": len(passes),
        "op_median_s": op_medians,
        "op_median_ref": op_ref,
        "reference_median_s": statistics.median(x for p in passes for x in p["refs"]),
        "kinds": [op.kind for op in ops],
    }
    _, primary, secondary = workloads.WORKLOADS[args.workload]
    wall = result["wall_s"] = sum(op_medians)
    if args.trace:
        recorder = spans.SpanRecorder()
        recorder.install()
        try:
            traced = run_pass(ops, run_dir / "traced", recorder)
        finally:
            recorder.uninstall()
        _check_stability(ops, passes[0], traced, "traced pass")
        passes.append(traced)
        shutil.rmtree(run_dir / "traced")
        recorder.write(run_dir / "spans.csv.gz")
        metrics = spans.layer_metrics(recorder.spans)
        metrics["bench.tracing_overhead_s"] = sum(traced["times"]) - wall
        result["metrics"] = {k: {"value": v, "unit": spans.unit_of(k)} for k, v in metrics.items()}
    else:
        result["metrics"] = {
            "wall_ref": {"value": sum(op_ref), "unit": "ref"},
            "primary_ref": {"value": sum(t for t, op in zip(op_ref, ops) if op.kind == primary),
                            "unit": "ref"},
            "secondary_ref": {"value": sum(t for t, op in zip(op_ref, ops) if op.kind == secondary),
                              "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    failures = []
    for p_index, p in enumerate(passes):
        for op in ops:
            status = p["failures"].get(op.op_id) or check_failures.get(op.op_id)
            if status:
                failures.append({"pass": p_index, "op": op.op_id, "argv": list(op.argv or op.args),
                                 "error": status})
    if not failures:
        shutil.rmtree(first_dir)
    result.update(attempted=len(passes) * len(ops), failed=len(failures), failures=failures[:20])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
