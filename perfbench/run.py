#!/usr/bin/env python3
"""threatprop benchmark: trial throughput on two detection workloads and a
CLI run, with a separate traced run for per-layer time.

Run from the repository root:

    python3 perfbench/run.py --workload sbm-a2 --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 7            # every workload, both modes
    python3 perfbench/run.py --self-test         # counts repeat, keys match
    python3 perfbench/run.py --record-references # rewrite references.json

A single-workload run prints a report and, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones
with ``--trace 1``.  Details (environment, sample counts, tail percentiles,
the full layer table and the spans) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread per BLAS/OpenMP pool, set before numpy loads; every child
# inherits it, so no run uses more threads than the workload asks for.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sbm-a2", "hmmb-g1", "cli-mixed")
REFERENCE_SEED = 0
# Fresh interpreters per run for setup_s, and for cli.import_ms when traced.
SETUP_PROBES = 9
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60
# Spans whose recorders are one trial or one replayed invocation.
TRIAL_ROOTS = ("experiment.trial", "cli.propagate")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values) -> dict | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    p = math.floor(100 * (1 - 10 / n)) if n else 0
    if p < 51:
        return None
    return {"p": p, "value": statistics.quantiles(values, n=100, method="inclusive")[p - 1], "n": n}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        **{k: os.environ[k] for k in PINNED_THREADS},
    }


def probe(cmd: list[str]) -> tuple[float, str]:
    """Wall time from spawning a fresh interpreter to its first output line."""
    from workloads import child_env

    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"probe {cmd[1:3]} exited {proc.returncode}")
    return wall, line.strip()


def measure_setup(name: str, seed: int, workdir: Path) -> list[float]:
    return [
        probe([sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", name,
               "--seed", str(seed), "--workdir", str(workdir / f"probe{k}")])[0]
        for k in range(SETUP_PROBES)
    ]


def measure_import() -> list[float]:
    code = "import time; t = time.perf_counter(); import threatprop.cli; print(time.perf_counter() - t)"
    return [float(probe([sys.executable, "-c", code])[1]) * 1e3 for _ in range(IMPORT_PROBES)]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracer import layer_table
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    workdir = OUT / f"work-{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup = measure_setup(name, seed, workdir)
        imports = measure_import() if trace else []

        refs = json.loads((HERE / "references.json").read_text())
        attempted, problems = w.check_reference(refs[name], refs["tolerance"], workdir)
        failed = attempted if problems else 0

        state, recorders = w.prepare(seed, workdir / "inputs", traced=trace)
        samples = []
        min_ops = 1 if trace else w.min_ops
        t0 = time.perf_counter()
        while len(samples) < min_ops or time.perf_counter() - t0 < seconds:
            samples.append((w.traced_op if trace else w.op)(state, seed, len(samples), workdir))
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted += sum(s.trials for s in samples)
    failed += sum(s.failed for s in samples)
    for s in samples:
        problems += s.problems
    result = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds, "elapsed_s": elapsed,
        "ops": len(samples), "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "correct": failed == 0 and not problems,
        "problems": problems[:20], "env": environment(seed),
    }
    if not trace:
        result["op_wall_s"] = [s.wall for s in samples]
        result["metrics"] = end_to_end(w, samples, setup)
        return result

    for s in samples:
        recorders += s.recorders
    layers = layer_table(recorders)
    result["layers"] = layers
    result["metrics"] = per_layer(samples, recorders, layers, imports)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{name}-s{seed}.jsonl", "w") as fh:
        for rec in recorders:
            for row in rec.rows():
                fh.write(json.dumps(row) + "\n")
    return result


def end_to_end(w, samples, setup) -> dict:
    per_trial = [s.wall / s.trials for s in samples]
    done = sum(s.trials - s.failed for s in samples)
    aucs = [s.auc for s in samples[: w.min_ops] if s.auc is not None]
    rss = [s.rss_mb for s in samples if s.rss_mb is not None]
    peak = median(rss) if rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "trials_per_s": {"value": done / sum(s.wall for s in samples), "unit": "1/s",
                         "n": sum(s.trials for s in samples), "what": "completed trials per second of op wall"},
        # A mean, not the p50: the machine's speed drifts in phases of several
        # seconds, and a p50 over a dozen ops jumps to whichever phase held
        # most of them.  The p50 and the tail are kept beside it.
        "propagate_s": {"value": sum(s.wall for s in samples) / sum(s.trials for s in samples), "unit": "s",
                        "n": len(per_trial), "p50": median(per_trial), "tail": tail(per_trial),
                        "what": "mean wall per trial (a batch's wall over its trials; one CLI invocation)"},
        "setup_s": {"value": median(setup), "unit": "s", "n": len(setup), "tail": tail(setup),
                    "what": "p50 fresh interpreter to ready for the first op"},
        "peak_rss_mb": {"value": peak, "unit": "MB", "n": len(rss) or 1,
                        "what": "CLI child peak RSS, p50" if rss else "benchmark process peak RSS"},
        "auc_sttp": {"value": statistics.fmean(aucs) if aucs else 0.0, "unit": "auc", "n": len(aucs),
                     "what": f"mean space-time AUC over the first {w.min_ops} ops"},
    }


def per_layer(samples, recorders, layers, imports) -> dict:
    trials = [r for r in recorders if r.spans and r.spans[0][0] in TRIAL_ROOTS]
    # Counts come from the setup and the first op, which depend on the seed alone.
    first = [r for r in recorders if r.trial.startswith(("setup.", "0.")) or r.trial == "0"]
    counts = {}
    for key in ("generators.interactions", "spacetime.order", "spacetime.nnz", "io.edge_rows", "io.bytes_written"):
        values = [r.counts[key] for r in first if key in r.counts]
        counts[key] = {"value": median(values), "unit": "count", "n": len(values)}
    roots = [r.spans[0] for r in trials]
    busy = sum(cpu for _, _, _, _, cpu in roots)
    metrics = {
        f"{layer}{suffix}": {"value": layers.get(layer, {}).get(key, 0.0), "unit": "ms",
                             "n": layers.get(layer, {}).get("n", 0)}
        for layer, suffix, key in (
            ("spacetime.assemble", "_ms", "ms"), ("spacetime.assemble", "_cpu_ms", "cpu_ms"),
            ("spacetime.solve", "_ms", "ms"), ("spacetime.solve", "_cpu_ms", "cpu_ms"),
            ("spacetime.reduce", "_ms", "ms"),
            ("generators.generate", "_ms", "ms"), ("generators.generate", "_cpu_ms", "cpu_ms"),
            ("experiment.choose_cue", "_ms", "ms"), ("evaluation.roc", "_ms", "ms"),
        )
    }
    metrics.update(counts)
    metrics["cli.import_ms"] = {"value": median(imports), "unit": "ms", "n": len(imports)}
    metrics["experiment.cpu_per_wall"] = {"value": busy / sum(s.traced_wall for s in samples), "unit": "ratio",
                                          "n": len(samples)}
    trial_ms = [(e - s) * 1e3 for _, _, s, e, _ in roots]
    metrics["trace.trial_ms"] = {"value": median(trial_ms), "unit": "ms", "n": len(trial_ms),
                                 "tail": tail(trial_ms)}
    metrics["trace.coverage"] = {"value": median([r.coverage() for r in trials]), "unit": "frac",
                                 "n": len(trials)}
    ratios = [s.traced_wall / s.untraced_wall - 1.0 for s in samples]
    metrics["trace.overhead"] = {"value": median(ratios), "unit": "frac", "n": len(ratios)}
    return metrics


def report(result: dict) -> None:
    env = result["env"]
    print(f"threatprop benchmark: workload {result['workload']}, seed {result['seed']}, "
          f"trace {result['trace']}, {result['ops']} ops in {result['elapsed_s']:.1f} s")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    rows = result["metrics"]
    if result["trace"]:
        print(f"{'layer (self time, p50 per trial)':40} {'wall ms':>10} {'cpu ms':>10} {'samples':>8}")
        for layer, row in result["layers"].items():
            print(f"{layer:40} {row['ms']:10.3f} {row['cpu_ms']:10.3f} {row['n']:8d}")
    print(f"{'metric':28} {'value':>12} {'unit':6} {'samples':>7}  p50, tail")
    for key, m in rows.items():
        t = m.get("tail")
        tail_text = f"p{t['p']} {t['value']:.6g}" if t else ("-" if "tail" not in m else "n<=20")
        if "p50" in m:
            tail_text = f"p50 {m['p50']:.6g}, {tail_text}"
        print(f"{key:28} {m['value']:12.6g} {m['unit']:6} {m['n']:7d}  {tail_text}")
    print(f"failed_frac {result['failed_frac']:.4g} ({result['failed']}/{result['attempted']}), "
          f"correct {result['correct']}")
    for p in result["problems"]:
        print(f"  problem: {p}")


def contract_line(result: dict, names: list[str]) -> str:
    metrics = {k: {"value": result["metrics"][k]["value"], "unit": result["metrics"][k]["unit"]} for k in names}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def child_run(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in a fresh interpreter, as the contract runs it."""
    from workloads import child_env

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=600)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        raise RuntimeError(f"{name} trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def self_test() -> int:
    """Each workload twice traced at one seed: the counts must repeat
    exactly, every run must be correct, and the keys must match the spec."""
    s = spec()
    want = {0: {m["name"] for m in s["end_to_end"]}, 1: {m["name"] for m in s["per_layer"]}}
    ok = True
    for name in WORKLOAD_NAMES:
        runs = [child_run(name, 3, 1, 1), child_run(name, 3, 1, 1), child_run(name, 3, 1, 0)]
        for run, trace in zip(runs, (1, 1, 0)):
            if not run["correct"] or set(run["metrics"]) != want[trace]:
                print(f"SELF-TEST FAIL {name} trace {trace}: correct {run['correct']}, "
                      f"keys {sorted(set(run['metrics']) ^ want[trace])}")
                ok = False
        for key, m in runs[0]["metrics"].items():
            if m["unit"] == "count" and m["value"] != runs[1]["metrics"][key]["value"]:
                print(f"SELF-TEST FAIL {name}: {key} {m['value']} then {runs[1]['metrics'][key]['value']}")
                ok = False
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def record_references() -> int:
    from workloads import WORKLOADS

    workdir = OUT / f"work-references-{os.getpid()}"
    try:
        refs = {name: WORKLOADS[name].reference(REFERENCE_SEED, workdir) for name in WORKLOAD_NAMES}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # AUC moves by about 1e-5 per flipped score pair; theta by the solve tolerance.
    refs["tolerance"] = {"auc": 1e-3, "theta": 1e-6}
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in refs.items()]
    (HERE / "references.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {HERE / 'references.json'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-references", action="store_true")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "threatprop" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.probe_setup:
        from workloads import WORKLOADS

        WORKLOADS[args.workload].prepare(args.seed, args.workdir)
        print("ready", flush=True)
        return 0
    if args.self_test:
        return self_test()
    if args.record_references:
        return record_references()

    s = spec()
    seconds = args.seconds if args.seconds is not None else s["run_seconds"]
    if args.workload == "all":
        # End-to-end runs first, then the traced per-layer runs.
        results = [child_run(name, args.seed, seconds, trace) for trace in (0, 1) for name in WORKLOAD_NAMES]
        return 0 if all(r["correct"] for r in results) else 1

    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    names = [m["name"] for m in s["per_layer" if args.trace else "end_to_end"]]
    print(contract_line(result, names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
