"""One workload process of the benchmark (started by run.py, one per run).

    python3 perfbench/worker.py --workload W --seed N --size full --mode run \
        --seconds S --trace 1 --workdir DIR --result FILE --spans FILE

``--mode setup`` imports the package, builds the inputs, reports the set-up
time and exits.  ``--mode run`` then runs the job list in a closed loop:
one untraced warm-up list (whose outputs are the reference bytes), then
lists until ``--seconds`` have passed.  With ``--trace 1`` the lists
alternate between traced and untraced, so the run also yields the tracing
overhead.  Every list is checked; the result is written as JSON to FILE.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here: imports, then inputs

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# Speed correction.  The machines this runs on share cores with other
# work, and their single-thread speed drifts by 20 to 70 percent within a
# minute, far beyond any bound a regression check could use.  A fixed CPU
# kernel, with the program's mix of interpreted Python, small numpy
# operations and small LAPACK calls, is timed before every job and after
# the last one; each job's times are scaled by CALIB_REF_S over the mean of
# the kernel times on either side of it.  Times are thus reported at the
# speed of a machine on which the kernel takes CALIB_REF_S; the kernel and
# this constant must not change between two runs that are compared.
CALIB_REF_S = 0.009


def _kernel() -> float:
    s = 0.0
    for i in range(8000):
        s += (i * 0.5) ** 2 % 7.0
    a = np.eye(3) + 0.1
    for _ in range(400):
        a = a @ a.T / np.trace(a)
        s += float(np.linalg.eigvalsh(a)[0])
    return s


def calibrate(reps: int = 3) -> float:
    """Median time of the calibration kernel."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_list(jobs, tally, reference, tracer=None, label=""):
    """Run every job once.  Returns the raw and speed-corrected wall and CPU
    time of the program calls alone, and the bytes of the output files."""
    from workloads import Outcome

    t = dict.fromkeys(("wall", "cpu", "wall_ref", "cpu_ref", "bytes_out"), 0)
    calib = calibrate()
    for job in jobs:
        if tracer is not None:
            tracer.job = f"{label}:{job.name}"
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            res, failed = job.call(), None
        except Exception:  # a crash is a failed operation, not an aborted run
            res, failed = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        before, calib = calib, calibrate()
        scale = CALIB_REF_S / (0.5 * (before + calib))
        t["wall"] += wall
        t["cpu"] += cpu
        t["wall_ref"] += wall * scale
        t["cpu_ref"] += cpu * scale
        out = None
        if failed is None:
            try:
                out = job.check(res)
            except Exception:  # unreadable output fails every operation
                failed = traceback.format_exc()
        if out is None or len(out.ok) != job.ops:
            out = Outcome(b"", [False] * job.ops)
        ok = list(out.ok)
        if reference.setdefault(job.name, out.blob) != out.blob:
            ok = [False] * job.ops
            failed = failed or "output bytes differ from the first run of the job"
        bad = ok.count(False)
        tally["attempted"] += job.ops
        tally["failed"] += bad
        tally["error"] = max(tally["error"], out.error)
        t["bytes_out"] += out.bytes_out
        if bad:
            tally["failures"][job.name] = tally["failures"].get(job.name, 0) + bad
            if failed and job.name not in tally["tracebacks"]:
                tally["tracebacks"][job.name] = failed
    return t


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            return f"{deps['blas']['name']} {deps['blas']['version']}"
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": {k: os.environ.get(k, "default") for k in BLAS_ENV},
    }


def write_spans(path: Path, tracer, spans):
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["span", "name", "start_s", "end_s", "parent", "job"])
        for i, (nid, start, end, parent, job) in enumerate(spans):
            out.writerow([i, tracer.names[nid], f"{start - t0:.9f}", f"{end - t0:.9f}", parent, job])


def layer_metrics(tracer, rounds, points, bytes_out) -> dict:
    """Per-list calls (exact counts) and self time (median over traced lists)."""
    from tracing import LAYERS

    metrics = {}
    for name in (f"{module}.{func}" for module, funcs in LAYERS.items() for func in funcs):
        if name in tracer.names:
            nid = tracer.names.index(name)
            calls = rounds[0]["calls"][nid]
            self_s = statistics.median(r["self_s"][nid] for r in rounds)
        else:
            calls, self_s = 0, 0.0
        metrics[f"{name}.calls"] = int(calls)
        metrics[f"{name}.self_s"] = float(self_s)
    n = len(rounds)
    counters = {k: v / n for k, v in tracer.counters.items()}
    lu = metrics.get("solver.spsolve.calls", 0)
    steps = counters.get("solver.newton_steps", 0.0)
    geo_nodes = counters.get("bernstein.geodesic_nodes", 0.0)
    jets = metrics.get("jets.evaluate_jet.calls", 0)
    metrics.update({
        "jets.evals_per_point": jets / points if points else 0.0,
        "solver.lu_solves": lu,
        "solver.unknowns": counters.get("solver.unknowns_total", 0.0) / lu if lu else 0.0,
        "solver.newton_steps": steps,
        "solver.useful_solve_ratio": steps / lu if lu else 0.0,
        "graphgeom.induced_metric.calls_per_node":
            rounds[0]["metric_under_dijkstra"] / geo_nodes if geo_nodes else 0.0,
        "cli.bytes_out": bytes_out,
    })
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--mode", choices=["setup", "run"], required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="file for the spans of the first traced list")
    args = ap.parse_args(argv)

    import workloads  # imports numpy, scipy and spacelike

    jobs, info = workloads.build(args.workload, args.seed, args.size, Path(args.workdir))
    setup_s = time.perf_counter() - T0
    result = {"raw_setup_s": setup_s, "setup_s": setup_s * CALIB_REF_S / calibrate(5), "info": info}
    if args.mode == "run":
        result.update(run_loop(args, jobs))
        result["env"] = environment()
    ru = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = ru.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    Path(args.result).write_text(json.dumps(result))
    return 0


def run_loop(args, jobs) -> dict:
    import workloads

    tally = {"attempted": 0, "failed": 0, "error": 0.0, "failures": {}, "tracebacks": {}}
    reference = {}
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    bytes_out = run_list(jobs, tally, reference)["bytes_out"]  # warm-up, reference bytes
    lists, traced, rounds = [], [], []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(rounds) <= len(lists):
            tracer.enable()
            try:
                t = run_list(jobs, tally, reference, tracer, f"list{len(rounds)}")
            finally:
                tracer.disable()
            spans, calls, self_s = tracer.take()
            rounds.append({"calls": calls, "self_s": self_s,
                           "metric_under_dijkstra": tracer.under(
                               spans, "graphgeom.induced_metric", "bernstein.geodesic_radius")})
            traced.append(t)
            if len(rounds) == 1:
                write_spans(Path(args.spans), tracer, spans)
        else:
            lists.append(run_list(jobs, tally, reference))
        if time.perf_counter() - start >= args.seconds and lists and (tracer is None or rounds):
            break

    def median(rows, key):
        return statistics.median(row[key] for row in rows)

    out = {
        "wall_s": median(lists, "wall_ref"),
        "cpu_s": median(lists, "cpu_ref"),
        "raw_wall_s": median(lists, "wall"),
        "raw_cpu_s": median(lists, "cpu"),
        "lists": len(lists),
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "accuracy_err": workloads.accuracy([tally["error"]]),
        "failures": tally["failures"],
        "tracebacks": tally["tracebacks"],
    }
    if tracer is not None:
        points = sum(job.points for job in jobs)
        out["layers"] = layer_metrics(tracer, rounds, points, bytes_out)
        out["layers"]["trace.overhead_s"] = median(traced, "wall_ref") - out["wall_s"]
        out["traced_lists"] = len(rounds)
        out["absent"] = tracer.absent
    return out


if __name__ == "__main__":
    sys.exit(main())
