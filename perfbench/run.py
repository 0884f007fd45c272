"""lipjet benchmark: one workload per process, checked outputs, JSON result.

    python3 perfbench/run.py --workload norm-scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; lipjet is imported from ``src/``. The
untraced run (--trace 0) reports the end-to-end metrics; the traced run
(--trace 1) reports the per-layer metrics and writes a span dump. The
last line of stdout is the result object. Every metric is also printed
by name with its unit, and the full record with run metadata is written
to ``perfbench/out/``. Exit codes: 0 all outputs correct, 1 an output
check failed, 2 the library is missing, 4 a soundness violation (a
valid certificate whose conclusion fails).

The benchmark never sets LIPJET_THREADS and starts no threads or
processes while it measures; ``--workload all`` runs each workload in
its own child process, one after another.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("norm-scan", "certify-mix", "constants-sweep", "grid-cli")
# Set-up is repeated and its median reported, so slow repeats do not move setup_s.
SETUP_REPEATS = 7
MIN_PASSES = 2
EXIT_CHECK_FAILED = 1
EXIT_NO_LIBRARY = 2
EXIT_SOUNDNESS = 4


def load_library():
    """Import lipjet from src/ and the benchmark modules; None if src/ is missing."""
    if not os.path.isfile(os.path.join(SRC, "lipjet", "__init__.py")):
        return None
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import tracer
    import workloads

    return workloads, tracer


def git_sha():
    """HEAD of the checkout, read from .git without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_summary(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def metadata(np, name, seed, seconds, trace):
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_summary(np),
        "LIPJET_THREADS": os.environ.get("LIPJET_THREADS"),
        "machine": platform.machine(),
    }


def run_pass(ops, latencies, outputs, tracer=None):
    """Run every op once, recording its latency and its result or exception."""
    perf = time.perf_counter
    for kind, fn in ops:
        if tracer is not None:
            tracer.op_id = len(outputs)
        start = perf()
        try:
            result = fn()
        except Exception as exc:  # a failing op is counted, not fatal
            result = exc
        latencies.append(perf() - start)
        outputs.append((kind, result))


def run_workload(name, seed, seconds, trace, tiny=False, out_dir=OUT):
    """Set up, measure and check one workload. Returns (record, exit code)."""
    loaded = load_library()
    if loaded is None:
        return None, EXIT_NO_LIBRARY
    workloads, tracer_mod = loaded
    import numpy as np

    t_import = time.perf_counter() - _T_START
    workload = workloads.WORKLOADS[name]

    perf = time.perf_counter
    setup_times = []

    def set_up():
        start = perf()
        state = workload.setup(np.random.default_rng(seed), tiny)
        setup_times.append(perf() - start)
        return state

    state = set_up()
    ops = workload.ops(state)

    latencies, outputs = [], []
    if not trace:
        # Whole passes, so every run times the same mix of ops; at least
        # two, so that every op is timed twice even where one pass is long.
        # The set-up repeats run between passes, outside any op's timing,
        # so that they too are spread over the run's changes of CPU speed.
        start = perf()
        passes = 0
        while True:
            run_pass(ops, latencies, outputs)
            passes += 1
            if len(setup_times) < SETUP_REPEATS:
                set_up()
            if passes >= MIN_PASSES and perf() - start >= seconds:
                break
        while len(setup_times) < SETUP_REPEATS:
            set_up()
        # Percentiles are over the pass's ops, each at its mean latency over
        # the run's passes. On a shared host the CPU speed can switch between
        # levels every few seconds; a plain median of millisecond ops then
        # jumps from one level to the other with the share of time at each.
        per_op = np.asarray(latencies).reshape(-1, len(ops)).mean(axis=0)
        metrics = {
            "setup_s": (t_import + statistics.median(setup_times), "s"),
            "ops_per_s": (len(latencies) / sum(latencies), "op/s"),
            "op_p50_ms": (1e3 * float(np.percentile(per_op, 50)), "ms"),
            "op_p90_ms": (1e3 * float(np.percentile(per_op, 90)), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        # one untraced and one traced pass over the same ops; a fixed op
        # list keeps every *.count metric identical between runs
        start = perf()
        run_pass(ops, latencies, outputs)
        untraced = perf() - start
        rec = tracer_mod.Tracer()
        restore = rec.patch()
        try:
            start = perf()
            run_pass(ops, latencies, outputs, rec)
            traced = perf() - start
        finally:
            restore()
        metrics = rec.layer_metrics()
        cli_out = [r.out for _, r in outputs[len(ops):] if isinstance(r, workloads.CliResult)]
        metrics["cli.stdout.bytes"] = (sum(len(out.encode()) for out in cli_out), "B")
        metrics["trace.overhead_ratio"] = (traced / untraced, "1")

    verdict = workload.check(state, outputs)
    failed = len(verdict.failed)
    meta = metadata(np, name, seed, seconds, trace)
    meta.update({"ops": len(outputs), "ops_per_pass": len(ops), "setup_times": setup_times,
                 "inputs": workload.sizes(state)})
    record = {
        "meta": meta,
        "correct": failed == 0,
        "attempted": len(outputs),
        "failed": failed,
        "fail_ratio": failed / len(outputs),
        "problems": verdict.problems[:50],
        "soundness_violations": verdict.soundness,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, default=str)
        if trace:
            rec.dump(os.path.join(out_dir, f"spans-{name}-seed{seed}.json"), meta)
    if verdict.soundness:
        return record, EXIT_SOUNDNESS
    return record, EXIT_CHECK_FAILED if failed else 0


def print_record(record):
    meta = record["meta"]
    print("meta " + json.dumps({k: v for k, v in meta.items() if k != "inputs"}))
    for message in record["soundness_violations"] + record["problems"]:
        print("check failed: " + message)
    print(f"fail_ratio = {record['fail_ratio']:.6g} 1 ({record['failed']} of {record['attempted']} ops)")
    for key, metric in record["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))


def run_all(args):
    """Each workload in its own child process, one at a time."""
    results, worst = {}, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=False)
        sys.stdout.write(f"== {name}\n{child.stdout}")
        sys.stderr.write(child.stderr)
        worst = max(worst, child.returncode)
        lines = child.stdout.strip().splitlines()
        if child.returncode in (0, EXIT_CHECK_FAILED, EXIT_SOUNDNESS) and lines:
            results[name] = json.loads(lines[-1])
    if len(results) < len(WORKLOAD_NAMES):
        return worst or EXIT_NO_LIBRARY
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{key}": value for name, r in results.items() for key, value in r["metrics"].items()},
    }))
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    record, code = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if record is None:
        print(f"error: lipjet sources not found under {SRC}", file=sys.stderr)
        return code
    print_record(record)
    return code


if __name__ == "__main__":
    sys.exit(main())
