"""Benchmark of the ma2d library: three closed-loop workloads, one caller each.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dual_solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (see ``workloads.py``):

* ``dual_solve``        verify-dual of configs/verify_dual.json: solve, save,
                        oracle error, independent verifier, dual identity.
* ``small_solves``      the ``solve`` experiment on a seeded stream of small
                        problems: each round solves five problems in a seeded
                        order with fresh seeded tilts, each under a
                        site-update budget of 80 x its interior sites.  The
                        known-failing sixth problem (degenerate rhs, h = 0.05)
                        is solved once per run after the measured phase, in a
                        child process stopped after 10 s, and reported; it is
                        not an op.
* ``duality_sections``  acceptance criteria 05-10 on the saved dual solution.

The set-up is done three times and ``setup_s`` is the import time plus the
median set-up.  One untimed warm-up round with the inputs of round 0
follows; then rounds of ops run until ``--seconds`` have passed.  Every op
is checked against its gate and its work counters must repeat exactly:
between the ops of a run that share inputs, and between runs of one checkout
with the same seed.  With
``--trace 1`` rounds alternate between traced and untraced; spans go to
``.perfbench_out/`` and the per-layer metrics (self time per op, counters,
tracing overhead) are printed instead of the end-to-end ones.

The last line of standard output is the JSON result.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
PROBE_WALL_S = 10
WORKLOAD_NAMES = ("dual_solve", "small_solves", "duality_sections")

SPAN_METRICS = (
    "solver.build_problem", "solver.solve", "solver.residual",
    "ma_measure.cells", "ma_measure.identity", "ma_measure.lower_envelope",
    "ma_measure.translator_identity", "ma_measure.gauss_mass",
    "legendre.fast", "legendre.brute",
    "analysis.cascade_grid", "analysis.cascade_callable", "analysis.stability",
    "sections.balance", "sections.doubling",
    "grid.save", "grid.load", "grid.sample", "oracle.eval",
)
LAYERS = ("grid", "ma_measure", "legendre", "solver", "oracle", "sections", "analysis")
COUNTERS = (
    "solver.site_updates", "solver.hull_faces", "ma_measure.cells",
    "legendre.pairs", "sections.doubling_samples", "grid.gfn_bytes",
)


def metric_spec(trace):
    """Names and units of the metrics a run reports, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def import_library():
    """Import ma2d from this checkout's src/ (never from anywhere else)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ma2d", "__init__.py")):
        raise SystemExit(f"perfbench: no ma2d sources under {src}")
    sys.path.insert(0, src)
    import ma2d

    if not os.path.abspath(ma2d.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported ma2d from {ma2d.__file__}, not {src}")


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """sha256 over the library's and the benchmark's sources, which identifies
    the code outside git too."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "ma2d", "*.py"))
                       + glob.glob(os.path.join(ROOT, "perfbench", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads():
    """Thread count reported by each OpenBLAS that numpy and scipy bundle."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        for lib in glob.glob(os.path.dirname(pkg.__file__) + ".libs/*openblas*"):
            try:
                handle = ctypes.CDLL(lib)
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = fn()
                    break
    return out


def provenance(args):
    import numpy
    import scipy

    def blas_version(cfg):
        try:
            return cfg(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (KeyError, TypeError):
            return None

    return {
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy.show_config),
        "openblas_scipy": blas_version(scipy.show_config),
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_op(wl, key, tracer, op_id, traced):
    """One op, timed from outside; an op that raises is a failed op."""
    tracer.begin_op(op_id, traced)
    t0, c0 = time.perf_counter(), time.process_time()
    result, error = None, None
    try:
        with tracer.span("op"):
            result = wl.run(key, tracer)
    except Exception as exc:  # counted as a failure and reported, never dropped
        error = f"{type(exc).__name__}: {exc}"
    rec = {
        "id": op_id,
        "key": key,
        "wall_s": time.perf_counter() - t0,
        "cpu_s": time.process_time() - c0,
        "traced": traced,
        "passed": result is not None and result.passed,
        "verdict": error or "; ".join(str(c) for c in result.checks),
        "counters": {} if result is None else result.counters,
        "nodal_err": None if result is None else result.nodal_err,
        "max_residual": None if result is None else result.max_residual,
    }
    tracer.begin_op(None, False)
    status = "pass" if rec["passed"] else "FAIL"
    print(f"op {op_id} [{status}] {key} {rec['wall_s']:.3f} s: {rec['verdict']}", flush=True)
    return rec


def tail(walls):
    """Highest percentile of a ladder with at least 10 samples beyond it."""
    n = len(walls)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            return p, sorted(walls)[math.ceil(p * n / 100) - 1]  # nearest rank
    return None, None


def compare_counters(ops, saved_path):
    """Mismatches of counters between ops with one key, and with a saved run."""
    ref, bad = {}, []
    for op in ops:
        if not op["counters"]:
            continue
        first = ref.setdefault(op["key"], op["counters"])
        if op["counters"] != first:
            bad.append(f"op {op['id']} {op['key']}: {op['counters']} != {first}")
    if os.path.exists(saved_path):
        with open(saved_path, encoding="utf-8") as fh:
            saved = json.load(fh)
        for key, counters in ref.items():
            if key in saved and saved[key] != counters:
                bad.append(f"{key}: {counters} != earlier run's {saved[key]}")
    else:
        with open(saved_path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, sort_keys=True)
    return ref, bad


def run_workload(args):
    import_library()
    import workloads
    from tracing import Tracer

    t_import = time.perf_counter() - _T0
    os.makedirs(OUT, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, OUT)
    prep = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.prepare()
        prep.append(time.perf_counter() - t0)
    setup_s = t_import + statistics.median(prep)

    tracer = Tracer()
    # the warm-up round has the inputs of round 0, so counters repeat in-run
    ops = [run_op(wl, key, tracer, f"w{i}", False) for i, key in enumerate(wl.keys(0))]
    warmup = list(ops)
    measured, rounds = [], 0
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < args.seconds or (args.trace and rounds < 2):
        traced = bool(args.trace) and rounds % 2 == 0
        for key in wl.keys(rounds):
            measured.append(run_op(wl, key, tracer, len(measured), traced))
        rounds += 1
    elapsed = time.perf_counter() - t_start
    ops += measured

    probe = None
    if args.workload == "small_solves":
        probe = run_probe(args.seed)
        print(f"known-failing member degenerate_square_h0.05: {probe['outcome']}", flush=True)

    prov = provenance(args)
    counters, mismatches = compare_counters(ops, os.path.join(
        OUT, f"counters-{args.workload}-seed{args.seed}-{prov['src_sha256'][:12]}.json"))
    for m in mismatches:
        print(f"counter mismatch: {m}", flush=True)
    failed = sum(not op["passed"] for op in measured)
    correct = failed == 0 and all(op["passed"] for op in warmup) and not mismatches

    untraced = [op for op in measured if not op["traced"]]
    ok_walls = [op["wall_s"] for op in untraced if op["passed"]]
    p50 = statistics.median(ok_walls or [op["wall_s"] for op in untraced])
    tail_p, tail_v = tail(ok_walls)
    errs = [op["nodal_err"] for op in measured if op["nodal_err"] is not None]
    summary = {
        "op_p50_s": {"value": p50, "unit": "s", "n": len(ok_walls)},
        "op_tail_s": {"value": tail_v, "unit": "s", "percentile": tail_p, "n": len(ok_walls)},
        "ops_per_s": {"value": len([op for op in untraced if op["passed"]])
                      / (elapsed if not args.trace else sum(op["wall_s"] for op in untraced)),
                      "unit": "1/s", "n": len(untraced)},
        "setup_s": {"value": setup_s, "unit": "s", "n": SETUP_REPEATS,
                    "import_s": t_import, "prepare_s": prep},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB", "n": 1},
        "fail_ratio": {"value": failed / len(measured), "unit": "ratio", "n": len(measured)},
        "max_nodal_rel_err": {"value": max(errs) if errs else None, "unit": "ratio",
                              "n": len(errs)},
    }
    if args.trace:
        values = layer_metrics(tracer, measured, ops)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"), t_start)
    else:
        values = {k: m["value"] for k, m in summary.items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_spec(args.trace)}

    print(f"workload {args.workload}, seed {args.seed}: {len(measured)} ops in "
          f"{elapsed:.2f} s, {failed} failed, correct {correct}")
    for name, m in summary.items():
        if m["value"] is None:
            why = "no percentile has 10 ops beyond it" if name == "op_tail_s" else "no solve"
            print(f"  {name} = n/a (n={m['n']}: {why})")
            continue
        extra = f" at p{m['percentile']:g}" if m.get("percentile") else ""
        print(f"  {name}{extra} = {m['value']:.6g} {m['unit']} (n={m['n']})")
    print(f"counters per op: {json.dumps(counters, sort_keys=True)}")
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    result = {"correct": correct, "attempted": len(measured), "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(result, summary=summary, provenance=prov, known_failure=probe,
                       counters=counters, ops=ops), fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, measured, ops):
    """Per-layer self time per traced op, counters per op and tracing overhead."""
    traced = [op for op in measured if op["traced"]]
    untraced = [op for op in measured if not op["traced"]]
    self_t = tracer.self_times()
    n = len(traced)
    m = {f"{name}_s": self_t.get(name, 0.0) / n for name in SPAN_METRICS}
    for layer in LAYERS:
        m[f"{layer}_s"] = sum(v for k, v in self_t.items() if k.split(".")[0] == layer) / n
    m["bench_glue_s"] = self_t.get("op", 0.0) / n
    m["cpu_s"] = statistics.mean(op["cpu_s"] for op in untraced)
    m["op_p50_traced_s"] = statistics.median(op["wall_s"] for op in traced)
    m["op_p50_untraced_s"] = statistics.median(op["wall_s"] for op in untraced)
    m["trace_overhead_s"] = m["op_p50_traced_s"] - m["op_p50_untraced_s"]
    for name in COUNTERS:
        m[name] = statistics.mean(op["counters"].get(name, 0) for op in measured)
    res = [op["max_residual"] for op in ops if op["max_residual"] is not None]
    m["solver.max_residual"] = max(res) if res else 0.0
    return m


def run_probe(seed):
    """Solve the known-failing small_solves member in a child process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-known-failure",
           "--workload", "small_solves", "--seed", str(seed)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_WALL_S)
    except subprocess.TimeoutExpired:
        return {"passed": False, "seconds": time.perf_counter() - t0,
                "outcome": f"still running at the {PROBE_WALL_S} s wall cap, stopped"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"passed": False, "seconds": time.perf_counter() - t0,
                "outcome": f"child exited {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    out = json.loads(lines[-1])
    out["seconds"] = time.perf_counter() - t0
    return out


def probe_child(args):
    import_library()
    import workloads
    from tracing import Tracer

    os.makedirs(OUT, exist_ok=True)
    out = workloads.probe_known_failure(ROOT, args.seed, OUT, Tracer())
    out["budget_per_site"] = workloads.BUDGET_PER_SITE
    print(json.dumps(out))
    return 0


def run_all(args):
    """Every workload in its own process, then one table of all metrics."""
    rows = []
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        with open(os.path.join(OUT, f"result-{name}-seed{args.seed}-trace{args.trace}.json"),
                  encoding="utf-8") as fh:
            res = json.load(fh)
        status = status or (0 if res["correct"] else 1)
        rows.append((name, res))
    print(f"\n{'workload':<18} {'metric':<20} {'value':>12} {'unit':<6} n")
    for name, res in rows:
        for metric, m in res["summary"].items():
            v = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            p = f" (p{m['percentile']:g})" if m.get("percentile") else ""
            print(f"{name:<18} {metric:<20} {v:>12} {m['unit']:<6} {m['n']}{p}")
        print(f"{name:<18} correct {res['correct']}, {res['failed']} of "
              f"{res['attempted']} ops failed")
        if res["known_failure"]:
            print(f"{name:<18} known-failing member: {res['known_failure']['outcome']}")
    print(json.dumps({name: {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
                      for name, res in rows}))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-known-failure", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.probe_known_failure:
        return probe_child(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
