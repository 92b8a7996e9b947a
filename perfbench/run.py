"""Benchmark runner for parrondo-maps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  This process only generates load:
it starts fresh worker processes (pb_worker.py) one at a time, each of which
imports the package from ``src/``, draws its inputs from the seed, runs one
pass of the workload and checks the outputs.  After one uncounted warm-up
launch, workers are started until about S seconds have been measured.

``--trace 0`` reports the end-to-end metrics (medians over the launches);
``--trace 1`` runs an untraced and then a traced pass in each worker and
reports the per-layer metrics (medians over the launches).  The last line of
standard output is the JSON result; the lines before it print every metric
by name with its unit, and a full record, including the environment, is
written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("mc_escape", "sweep_frontier", "geometry_audit")
HARD_LIMIT_S = 165.0
# Reference launch time: set-up is reported scaled to the machine state in
# which a bare ``python -c "import numpy"`` launch, timed right before each
# worker, takes LAUNCH_REF_S.  That launch holds none of the program's code.
LAUNCH_REF_S = 0.2
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class WorkerFailed(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, index: int, timeout: float) -> dict:
    t_spawn = time.monotonic()
    argv = [sys.executable, str(HERE / "pb_worker.py"), workload, str(seed), mode, repr(t_spawn), str(OUT), str(index)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {index} ({mode}) timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"worker {index} ({mode}) exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def bare_launch_s() -> float:
    t = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, check=True, timeout=60)
    return time.monotonic() - t


def tail(values: list[float]) -> dict:
    """Highest whole percentile with at least ten samples above it, if that is at least the median."""
    n = len(values)
    q = math.floor(100.0 * (1.0 - 10.0 / n)) if n > 10 else None
    if q is None or q < 50:
        return {"percentile": None, "value": None, "n": n, "max": max(values)}
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return {"percentile": q, "value": cuts[q - 1], "n": n, "max": max(values)}


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed: int, worker: dict) -> dict:
    return {
        "commit": _git_commit(),
        "python": worker["python"],
        "numpy": worker["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_workers(args) -> tuple[list[dict], str | None, float]:
    """Start workers one at a time until the measuring time is used; stop at the first failure."""
    spawn(args.workload, args.seed, "warm", 0, timeout=60.0)
    mode = "trace" if args.trace else "measure"
    minimum = 1 if args.trace else 3
    workers: list[dict] = []
    durations: list[float] = []
    t0 = time.monotonic()
    while True:
        elapsed = time.monotonic() - t0
        expected = statistics.median(durations) if durations else 0.0
        if len(workers) >= minimum and elapsed + expected > args.seconds:
            break
        if durations and elapsed + 2.0 * expected > HARD_LIMIT_S:
            break
        c0 = time.monotonic()
        try:
            launch = None if args.trace else bare_launch_s()
            worker = spawn(args.workload, args.seed, mode, len(workers) + 1, HARD_LIMIT_S - elapsed)
        except (WorkerFailed, subprocess.SubprocessError) as exc:
            return workers, str(exc), time.monotonic() - t0
        if launch is not None:
            worker["launch_s"] = launch
            worker["setup_s"] = worker["setup_raw_s"] * LAUNCH_REF_S / launch
        workers.append(worker)
        durations.append(time.monotonic() - c0)
    return workers, None, time.monotonic() - t0


def summarize(args, workers: list[dict], failure: str | None) -> tuple[dict, dict]:
    passes = [w["traced"] for w in workers if "traced" in w] + workers
    attempted = sum(p["checks_attempted"] for p in passes)
    failed = sum(p["checks_failed"] for p in passes)
    known = sum(p["checks_known"] for p in passes)
    digests = {w["sha256"] for w in passes}
    correct = (
        failure is None
        and failed == known
        and len(digests) == 1
        and all(w.get("restored", True) for w in workers)
    )
    result = {
        "correct": correct,
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(p["op_failures"] for p in passes),
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "workers": len(workers),
        "environment": environment(args.seed, workers[0]),
        "output_sha256": digests.pop() if len(digests) == 1 else sorted(map(str, digests)),
        "error_rate": failed / attempted if attempted else 1.0,
        "checks_attempted": attempted,
        "checks_failed": failed,
        "checks_failed_known_defect": known,
        "check_notes": sorted({note for p in passes for note in p["notes"]}),
        "operation_errors": [e for p in passes for e in p["errors"]][:5],
        "failure": failure,
    }
    if args.trace:
        from pb_trace import unit_of

        names = list(workers[0]["layers"])
        metrics = {
            name: {"value": statistics.median(w["layers"][name] for w in workers), "unit": unit_of(name)}
            for name in names
        }
        record["traced_wall_s"] = [w["traced"]["wall_s"] for w in workers]
        record["untraced_wall_s"] = [w["wall_s"] for w in workers]
        record["spans_files"] = [w["spans_file"] for w in workers]
    else:
        walls = [w["wall_s"] for w in workers]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(w["cpu_s"] for w in workers), "unit": "s"},
            "setup_s": {"value": statistics.median(w["setup_s"] for w in workers), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(w["peak_rss_mb"] for w in workers), "unit": "MB"},
            "check_pass_rate": {"value": 1.0 - record["error_rate"], "unit": "share"},
        }
        record["wall_s_tail"] = tail(walls)
        keys = ("wall_s", "cpu_s", "setup_s", "wall_raw_s", "cpu_raw_s", "setup_raw_s", "speed_scale",
                "cpu_speed_scale", "launch_s", "peak_rss_mb")
        record["samples"] = {key: [w[key] for w in workers] for key in keys}
        record["as_measured"] = {key: statistics.median(record["samples"][key]) for key in keys[3:9]}
    result["metrics"] = metrics
    record["result"] = result
    return result, record


def report(record: dict) -> None:
    res = record["result"]
    print(f"perfbench {record['workload']} seed={record['environment']['seed']} "
          f"trace={record['trace']} workers={record['workers']} correct={res['correct']}")
    for name, m in res["metrics"].items():
        print(f"  {name:34s} {m['value']:<22.10g} {m['unit']}")
    print(f"  {'error_rate':34s} {record['error_rate']:<22.10g} share "
          f"({record['checks_failed']} of {record['checks_attempted']} checks failed, "
          f"{record['checks_failed_known_defect']} of them criterion 2's known defect)")
    if "as_measured" in record:
        raw = record["as_measured"]
        print(f"  as measured (medians): wall {raw['wall_raw_s']:.6g} s, cpu {raw['cpu_raw_s']:.6g} s, "
              f"setup {raw['setup_raw_s']:.6g} s; speed scale {raw['speed_scale']:.4g}, "
              f"cpu speed scale {raw['cpu_speed_scale']:.4g}, bare launch {raw['launch_s']:.4g} s")
    if "wall_s_tail" in record:
        t = record["wall_s_tail"]
        where = f"p{t['percentile']} {t['value']:.6g} s" if t["percentile"] else "no percentile above the median"
        print(f"  wall_s tail: {where} over n={t['n']} passes, max {t['max']:.6g} s")
    print(f"  output_sha256 {record['output_sha256']}")
    print(f"  environment {json.dumps(record['environment'], sort_keys=True)}")
    for line in record["check_notes"] + record["operation_errors"]:
        print(f"  check: {line}")
    if record["failure"]:
        print(f"  failure: {record['failure']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "parrondo_maps" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    for old in OUT.glob("spans-*.npz"):  # keep only this run's spans on disk
        old.unlink()
    try:
        workers, failure, measured_s = run_workers(args)
    except WorkerFailed as exc:
        print(f"error: the warm-up worker failed: {exc}", file=sys.stderr)
        return 1
    if not workers:
        print(f"error: no worker finished: {failure}", file=sys.stderr)
        return 1
    result, record = summarize(args, workers, failure)
    record["measured_s"] = measured_s
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    report(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
