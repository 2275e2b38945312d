"""Benchmark of the spacelike package: one workload, one seed, one run.

    python3 perfbench/run.py --workload pointwise --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workloads and metrics are those named
in BENCHMARK.json at the root.  Every run starts fresh processes: a few that
only set up (import the package, build the seeded inputs), then one that
sets up and runs the job list in a closed loop for --seconds.  BLAS runs
single-threaded in those processes (see README.md).  The last line printed
is one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones of a separate traced run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_RUNS = 2          # set-up only processes per run, besides the measured one
RUN_LIMIT_S = 170.0     # the whole run must end within this
BLAS_THREADS = "1"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def spans_file(args) -> Path:
    return WORK / f"spans-{args.workload}-seed{args.seed}.csv"


def child(args, mode: str, workdir: Path, deadline: float) -> dict:
    result = workdir / f"result-{mode}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--mode", mode,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir / "io"), "--result", str(result),
           "--spans", str(spans_file(args))]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    # subprocess.run kills the child on timeout and waits for it to end
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(result.read_text())


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full",
                    help="smoke: reduced lattices, for the smoke test only")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "spacelike" / "__init__.py").is_file():
        return fail(f"no package source under {ROOT / 'src'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    deadline = started + RUN_LIMIT_S
    try:
        setups = [child(args, "setup", workdir, deadline) for _ in range(SETUP_RUNS)]
        res = child(args, "run", workdir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        return fail(str(err))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res)

    attempted, failed = res["attempted"], res["failed"]
    values = {
        "wall_s": res["wall_s"],
        "cpu_s": res["cpu_s"],
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_share": (attempted - failed) / attempted,
        "accuracy_err": res["accuracy_err"],
    }
    if args.trace:
        values = res["layers"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not produced: {', '.join(missing)}")

    env = res["env"]
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  run {args.seconds:g} s")
    print(f"env: nproc {env['nproc']} (affinity {env['affinity']}), python {env['python']}, "
          f"numpy {env['numpy']} ({env['numpy_blas']}), scipy {env['scipy']} "
          f"({env['scipy_blas']}), BLAS threads {env['blas_threads']}")
    print(f"samples: wall_s and cpu_s are medians of {res['lists']} job lists, "
          f"setup_s of {len(setups)} fresh processes; all three are speed-corrected "
          f"(see README.md).  Raw medians: wall {res['raw_wall_s']:.4f} s, "
          f"cpu {res['raw_cpu_s']:.4f} s, setup "
          f"{statistics.median(r['raw_setup_s'] for r in setups):.4f} s")
    for key, value in res["info"].items():
        print(f"input: {key} = {value}")
    if args.trace:
        print(f"trace: {res['traced_lists']} traced lists, spans of the first in "
              f"{spans_file(args).relative_to(ROOT)}, "
              f"overhead {values['trace.overhead_s']:.4f} s per list "
              f"(traced minus untraced wall_s)")
        if res["absent"]:
            print(f"trace: absent, reported as 0: {', '.join(res['absent'])}")
    print(f"operations: {attempted} attempted, {failed} failed")
    for job, count in res["failures"].items():
        print(f"FAILED {job}: {count} operations", file=sys.stderr)
        print(res["tracebacks"].get(job, ""), file=sys.stderr)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
