"""Benchmark of the causal-kernel package: one workload, one run, one result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source tree; the package is imported from ``src/``.
One single-threaded client runs the workload's ops in a closed loop for S
seconds.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` the loop alternates
untraced and traced ops and the line carries the per-layer metrics.
``--workload all`` runs every workload in both modes, prints every metric
with its unit and exits with 1 if any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("gns-control-L2", "gns-sequential-L5", "verify-mix", "eval-stream")
SETUP_REPEATS = 5
# The tail is the highest of these round percentiles that leaves at least ten
# samples beyond it at the seed commit, with room for runs that get through
# fewer ops.  Below 20 samples no percentile above the median qualifies.
TAIL_PERCENTILE = {"gns-control-L2": 50.0, "gns-sequential-L5": 75.0,
                   "verify-mix": 90.0, "eval-stream": 99.9}
CHILD_TIMEOUT_S = 120
EVAL_PROBE_OPS = 64

END_TO_END_UNITS = {
    "latency_s.p50": "s",
    "latency_s.tail": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

GNS_SPANS = ("gns.WordBasis.build", "gns.gram", "gns.null_space",
             "gns.check_left_ideal", "gns.represent", "gns.reconstruct_check")
EVAL_SPANS = ("expr.parse", "expr.eval_expr", "states.eval_bilinear")

PER_LAYER_UNITS = {
    "trace.overhead_pct": "%",
    "setup.import_s": "s",
    "setup.load_model_s": "s",
    "cli.main_s": "s",
    **{f"{name}_s": "s" for name in GNS_SPANS},
    "gns.gram_jobs1_s": "s",
    "gns.gram_jobs_nproc_s": "s",
    "gns.gram_bytes": "B",
    "gns.basis_size": "count",
    "gns.null_rank": "count",
    "gns.quotient_dim": "count",
    "gns.left_ideal_pairs": "count",
    "states.forward_vector_s": "s",
    "states.forward_vector_calls": "count",
    "states.distinct_words": "count",
    "algebra.multiply_s": "s",
    "algebra.multiply_calls": "count",
    "algebra.product_terms": "count",
    **{f"{name}_s": "s" for name in EVAL_SPANS},
    "eval.repeat_share": "share",
    "verify.verify_state_s": "s",
    "sampling.random_element_s": "s",
    "sampling.random_element_calls": "count",
    "states.eval_bilinear_verify_s": "s",
    "states.eval_bilinear_verify_calls": "count",
    "oracle.state_kernel_bruteforce_s": "s",
    "oracle.state_kernel_bruteforce_calls": "count",
}

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import causal_kernel
t1 = time.perf_counter()
for path in sys.argv[1:]:
    causal_kernel.load_model(path)
t2 = time.perf_counter()
print(json.dumps([causal_kernel.__file__, t1 - t0, t2 - t1]))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=CHILD_TIMEOUT_S)


def measure_setup(model_paths) -> dict:
    """Fresh interpreters importing the package and loading the models.

    The first child only warms the byte-code and file caches.
    """
    samples = []
    for rep in range(SETUP_REPEATS + 1):
        proc = run_child(["-c", SETUP_CODE, *map(str, model_paths)])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.decode()[-500:]}")
        origin, import_s, load_s = json.loads(proc.stdout.decode().splitlines()[-1])
        if not Path(origin).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up child imported the package from {origin}")
        if rep:
            samples.append((import_s, load_s))
    return {
        "setup_s": statistics.median(i + lo for i, lo in samples),
        "setup.import_s": statistics.median(i for i, _ in samples),
        "setup.load_model_s": statistics.median(lo for _, lo in samples),
    }


def measure_cli(cli_args: list[str]) -> tuple[float, list[str]]:
    """Two identical CLI runs: their median wall time, and any mismatch."""
    times, outs, bad = [], [], []
    for _ in range(2):
        t0 = time.perf_counter()
        proc = run_child(["-m", "causal_kernel.cli", *cli_args])
        times.append(time.perf_counter() - t0)
        outs.append(proc.stdout)
        if proc.returncode != 0:
            bad.append(f"cli {cli_args[0]} exited {proc.returncode}")
    if outs[0] != outs[1]:
        bad.append(f"cli {cli_args[0]}: two identical runs printed different output")
    return statistics.median(times), bad


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        out = ""
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE",
                                            "LEVEL3_CACHE_SIZE"):
            info[parts[0].lower()] = int(parts[1])
    return info


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy links, if it exposes the count."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


@dataclass
class Record:
    traced: bool
    latency: float
    failure: str | None


def run_op(workload, arg, index: int, tracer, traced: bool):
    """Time one op; capture and check its result outside the timed region.

    Returns the latency, the capture (None if the op raised) and the failure
    message (None if the op passed its checks).
    """
    tracer.enabled = traced
    error = raw = None
    t0 = time.perf_counter()
    try:
        if traced:
            with tracer.span("bench.op"):
                raw = workload.op(arg, tracer)
        else:
            raw = workload.op(arg, tracer)
    except Exception as exc:  # an op that raises is a failed op; the loop goes on
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    tracer.enabled = False
    if error is not None:
        return latency, None, error
    cap = workload.capture(arg, raw, index)
    return latency, cap, "; ".join(workload.check(cap)) or None


def run_loop(workload, tracer, seconds: float, trace: bool):
    """Closed loop: the next op starts only after the previous one returned.

    With tracing, ops alternate untraced and traced; paired workloads give
    both ops of a pair the same input.  Returns the records, and the input
    and capture of the first op.
    """
    records: list[Record] = []
    first_arg = first_cap = None
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        traced = trace and i % 2 == 1
        index = i // 2 if trace and workload.paired else i
        arg = workload.prepare(index)
        tracer.op = i
        latency, cap, failure = run_op(workload, arg, index, tracer, traced)
        if i == 0:
            first_arg, first_cap = arg, cap
        records.append(Record(traced, latency, failure))
        i += 1
    return records, first_arg, first_cap


def gate(workload, records: list[Record], first_arg) -> dict:
    """Failures by record index, plus the checks that run after the loop."""
    failures: dict = {i: rec.failure for i, rec in enumerate(records) if rec.failure}
    for key, msg in workload.oracle_failures().items():
        failures[f"oracle {key}"] = msg
    if not workload.repeats and not records[0].failure:
        bad = workload.check(workload.redo(first_arg, 0))
        if bad:
            failures["determinism"] = "; ".join(bad)
    return failures


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile, and the number of samples beyond it."""
    xs = sorted(latencies)
    rank = max(1, math.ceil(pct / 100.0 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(name, records, failures, setup) -> tuple[dict, dict]:
    lat = [r.latency for r in records]
    tail_s, beyond = tail(lat, TAIL_PERCENTILE[name])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "latency_s.p50": statistics.median(lat),
        "latency_s.tail": tail_s,
        "ops_per_s": (len(records) - len(failures)) / sum(lat),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": rss_kb / 1024.0,
    }
    notes = {"samples": len(lat), "tail_percentile": TAIL_PERCENTILE[name],
             "samples_beyond_tail": beyond, "error_rate": len(failures) / len(records)}
    return {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}, notes


def per_op_median(tracer, name: str) -> float:
    totals = tracer.per_op_totals(name)
    return statistics.median(totals) if totals else 0.0


def layer_pass(root: Path, seed: int, home, tracer, first_op: int):
    """One traced op of each other workload kind, so every layer is measured.

    Returns the probe workloads with their records.
    """
    import workloads

    probes = []
    op = first_op
    for name, count in (("gns-sequential-L5", 1), ("verify-mix", 1),
                        ("eval-stream", EVAL_PROBE_OPS)):
        w = workloads.make(root, name, seed)
        if w.kind == home.kind:
            continue
        records = []
        for i in range(count):
            tracer.op = op
            op += 1
            _, cap, failure = run_op(w, w.prepare(i), i, tracer, traced=True)
            records.append((cap, failure))
        probes.append((w, records))
    return probes


def per_layer(root: Path, seed: int, workload, tracer, records, first_cap, setup,
              nproc: int):
    """Every per-layer metric, the probes' and CLI's failures, and the probe count."""
    import layers

    untraced = [r.latency for r in records if not r.traced]
    traced = [r.latency for r in records if r.traced]
    probes = layer_pass(root, seed, workload, tracer, len(records))
    failures = {f"{w.name}#{i}": failure for w, recs in probes
                for i, (_, failure) in enumerate(recs) if failure}
    cli_s, cli_bad = measure_cli(workload.cli_args())
    for k, msg in enumerate(cli_bad):
        failures[f"cli#{k}"] = msg

    kinds = [(workload, first_cap), *((w, recs[0][0]) for w, recs in probes)]
    gns_w, gns_cap = next((w, cap) for w, cap in kinds if w.kind == "gns")
    eval_w = next(w for w, _ in kinds if w.kind == "eval")
    values = {
        "trace.overhead_pct": 100.0 * (statistics.median(traced) / statistics.median(untraced)
                                       - 1.0) if traced and untraced else 0.0,
        "setup.import_s": setup["setup.import_s"],
        "setup.load_model_s": setup["setup.load_model_s"],
        "cli.main_s": cli_s,
        **{f"{name}_s": per_op_median(tracer, name) for name in GNS_SPANS + EVAL_SPANS},
        **gns_w.counts(gns_cap),
        "eval.repeat_share": eval_w.repeat_share(),
        "verify.verify_state_s": per_op_median(tracer, "verify.verify_state"),
        **layers.replay_switch_l2(root, nproc),
        **layers.replay_verify(root, seed),
    }
    n_probe = sum(len(r) for _, r in probes)
    return {k: metric(values[k], u) for k, u in PER_LAYER_UNITS.items()}, failures, n_probe


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracing import Tracer

    env = environment()
    workload = workloads.make(ROOT, name, seed)
    setup = measure_setup(workload.model_paths)
    tracer = Tracer(enabled=False)
    records, first_arg, first_cap = run_loop(workload, tracer, seconds, trace)
    failures = gate(workload, records, first_arg)
    attempted = len(records)
    if trace:
        metrics, extra, n_probe = per_layer(ROOT, seed, workload, tracer, records,
                                            first_cap, setup, env["nproc"])
        attempted += n_probe
        failures.update(extra)
        notes = {"samples": len(records), "self_time": tracer.self_time_table()}
    else:
        metrics, notes = end_to_end(name, records, failures, setup)
    for key, msg in list(failures.items())[:10]:
        print(f"FAILED op {key}: {msg}", file=sys.stderr)
    return {
        "env": env,
        "notes": notes,
        "result": {"correct": not failures, "attempted": attempted,
                   "failed": len(failures), "metrics": metrics},
    }


def print_result(name: str, out: dict) -> None:
    notes = out["notes"]
    print(f"workload {name}: attempted {out['result']['attempted']}, "
          f"failed {out['result']['failed']}")
    print("env " + json.dumps(out["env"], sort_keys=True))
    if "self_time" in notes:
        print(f"{'span':<28}{'calls':>8}{'total_s':>12}{'self_s':>12}")
        rows = sorted(notes["self_time"].items(), key=lambda kv: -kv[1]["self_s"])
        for span, row in rows:
            print(f"{span:<28}{row['calls']:>8}{row['total_s']:>12.6f}{row['self_s']:>12.6f}")
    else:
        print("notes " + json.dumps(notes, sort_keys=True))
    for key, m in out["result"]["metrics"].items():
        print(f"  {key:<40}{m['value']!r:>24} {m['unit']}")


def run_all(seed: int, seconds: int) -> int:
    """Every workload in both modes, each in its own process."""
    summary, ok = {}, True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
            sys.stderr.write(proc.stderr)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            ok = ok and proc.returncode == 0 and result["correct"]
            summary[f"{name}/trace{trace}"] = result
    print(json.dumps(summary, sort_keys=True))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "causal_kernel" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source tree",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, str(SRC))
    import causal_kernel

    if not Path(causal_kernel.__file__).resolve().is_relative_to(SRC):
        print(f"error: causal_kernel imported from {causal_kernel.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    out = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
