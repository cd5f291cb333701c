"""breathline benchmark: one workload per run, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

A run sets the workload up three times from the seed (rendering its
corpus and, where needed, pretraining a detector with `train-breath`)
and reports the median set-up time. It times IMPORT_PROBES imports of
`breathline.cli` in fresh processes, then repeats samples for about S
seconds, at least one: each sample is one `breathline.cli.main` call in
a fresh process (perfbench/child.py), so import time and peak RSS belong
to that call alone. Set-up and call times are scaled to reference host
speed (calibrate.py). Every sample's artifacts are checked. The last line
of standard output is a JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, and with
--trace 1 the per-layer metrics of one more, traced, sample. See
README.md for every metric and workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

# BLAS and OpenMP read these when numpy loads, so they are set before the
# imports below, for this process and every child; fixed for every commit
# measured, and never above the CPU count
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import tracer  # noqa: E402
from calibrate import REFERENCE_IMPORT_S, REFERENCE_S, Reference, reference_import  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 3
# import-only processes, each after one reference import (calibrate.py);
# the samples' own imports overlap the kernel sampling, so they do not count
IMPORT_PROBES = 5
# a run must end within 180 s; no sample starts once this much has gone
RUN_BUDGET_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "import_s": "s",
    "experiment_s": "s",
    "audio_x": "s/s",
    "peak_rss_mb": "MB",
    "quality": "score",
}


def environment(size: str) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or commit
    digest = hashlib.sha256()
    for folder, _, files in sorted(os.walk(os.path.join(SRC, "breathline"))):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_digest": digest.hexdigest()[:16],
        "size": size,
    }


def _tree_digest(directory: str) -> str:
    """Digest of every file under directory except the wall-clock run.log."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            if name != "run.log":
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, directory).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def time_import(deadline: float) -> float:
    """Seconds a fresh process takes to import breathline.cli."""
    command = [sys.executable, os.path.join(HERE, "child.py"), SRC, "-", "--"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    return json.loads(proc.stdout.strip().splitlines()[-1])["import_s"]


def run_sample(workload, setup: str, out: str, seed: int, size: dict, truth: dict, deadline: float, trace_file=None):
    """One fresh-process CLI call plus the checks on its artifacts."""
    from workloads import Outcome

    argv = workload.argv(setup, out, seed, size)
    command = [sys.executable, os.path.join(HERE, "child.py"), SRC, trace_file or "-", "--", *argv]
    os.makedirs(out, exist_ok=True)
    record = None
    with open(os.path.join(out, "stderr.txt"), "w") as err:
        try:
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True,
                                  timeout=max(1.0, deadline - time.perf_counter()))
            lines = proc.stdout.strip().splitlines()
            if proc.returncode == 0 and lines:
                record = json.loads(lines[-1])
        except subprocess.TimeoutExpired:
            pass
    if record is None or record["exit_code"] != 0:
        detail = "timed out or crashed" if record is None else f"exited {record['exit_code']}"
        return record, Outcome(len(truth), len(truth), {}, [f"breathline {argv[0]} {detail}; see {out}/stderr.txt"])
    return record, workload.check(truth, out)


def run_workload(name: str, seed: int, seconds: float, trace: bool, size_name: str) -> dict:
    import workloads

    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S + 20.0
    workload, size = workloads.WORKLOADS[name], workloads.SIZES[size_name]
    work = os.path.join(WORK, size_name, name, f"seed-{seed}")
    setup, samples_dir = os.path.join(work, "setup"), os.path.join(work, "samples")
    problems = []

    reference = Reference()
    setup_probes = [reference.probe()]
    setup_times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(setup, ignore_errors=True)
        t0 = time.perf_counter()
        workload.set_up(setup, seed, size)
        setup_times.append(time.perf_counter() - t0)
        setup_probes.append(reference.probe())
        digests.add(_tree_digest(setup))
    if len(digests) != 1:
        problems.append("set-up is not reproducible: same seed, different files")
    truth = workloads.load_truth(setup)
    import_times, reference_imports = [], []
    try:
        for _ in range(IMPORT_PROBES):
            reference_imports.append(reference_import(max(1.0, deadline - time.perf_counter())))
            import_times.append(time_import(deadline))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        problems.append(f"import probe failed: {exc}")
    audio_s = sum(doc["duration_ms"] for doc in truth.values()) / 1000.0

    shutil.rmtree(samples_dir, ignore_errors=True)
    records, outcomes, sample_s = [], [], []
    measure_start = time.perf_counter()

    def another_sample() -> bool:
        # past the first, a sample must fit the run budget and end (by the
        # mean sample so far) within --seconds
        if not sample_s:
            return True
        now = time.perf_counter()
        if now - started + max(sample_s) > RUN_BUDGET_S:
            return False
        return now - measure_start + statistics.fmean(sample_s) <= seconds

    layer, sample_probes = None, []
    with reference.sampling(sample_probes):
        while another_sample():
            out = os.path.join(samples_dir, str(len(outcomes)))
            t0 = time.perf_counter()
            record, outcome = run_sample(workload, setup, out, seed, size, truth, deadline)
            outcomes.append(outcome)
            if record is None or outcome.failed == outcome.attempted:
                break
            sample_s.append(time.perf_counter() - t0)
            records.append(record)

        if trace and len(records) == len(outcomes):
            trace_file = os.path.join(work, "trace.json")
            out = os.path.join(samples_dir, "traced")
            record, outcome = run_sample(workload, setup, out, seed, size, truth, deadline, trace_file)
            outcomes.append(outcome)
            if record is not None and outcome.failed < outcome.attempted:
                with open(trace_file) as f:
                    layer = tracer.layer_metrics(json.load(f), statistics.median(r["cli_s"] for r in records))
    sample_probes.append(reference.call())  # at least one, however short the samples

    for outcome in outcomes:
        problems.extend(outcome.problems)
    qualities = [o.quality for o in outcomes if not o.problems]
    quality = qualities[0] if qualities else {}
    if any(q != quality for q in qualities):
        problems.append(f"quality differs between samples of one seed: {qualities}")
    quality_file = os.path.join(work, "quality.json")
    if quality and os.path.exists(quality_file):
        with open(quality_file) as f:
            earlier = json.load(f)
        if earlier != quality:
            problems.append(f"quality {quality} differs from an earlier run of this seed: {earlier}")
    elif quality:
        with open(quality_file, "w") as f:
            json.dump(quality, f, sort_keys=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    figures = {"error_rate": failed / attempted, **quality}
    metrics = {}
    # set-up and call times to reference host speed
    setup_scale = REFERENCE_S / statistics.median(setup_probes)
    scale = REFERENCE_S / statistics.median(sample_probes)
    if layer is not None:
        layer = {k: v * scale if tracer.LAYER_METRICS[k] == "s" else v for k, v in layer.items()}
    if records and import_times and workload.quality in quality:
        cli_s = [r["cli_s"] * scale for r in records]
        metrics = {
            "setup_s": statistics.median(setup_times) * setup_scale,
            "import_s": REFERENCE_IMPORT_S * statistics.median(
                own / ref for own, ref in zip(import_times, reference_imports)),
            "experiment_s": statistics.median(cli_s),
            "audio_x": statistics.median(audio_s / t for t in cli_s),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
            "quality": quality[workload.quality],
        }
    else:
        problems.append("no sample produced a complete result")
    if trace and layer is None:
        problems.append("the traced sample produced no per-layer metrics")
    for key, value in {**metrics, **(layer or {})}.items():
        if not math.isfinite(value):
            problems.append(f"{key} is not finite: {value}")

    shutil.rmtree(setup, ignore_errors=True)
    shutil.rmtree(samples_dir, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": records,
        "setup_times": setup_times,
        "setup_probes": setup_probes,
        "sample_probes": sample_probes,
        "setup_scale": setup_scale,
        "scale": scale,
        "import_times": import_times,
        "reference_imports": reference_imports,
        "audio_s": audio_s,
        "figures": figures,
        "metrics": metrics,
        "layer": layer,
    }


def _units(metrics: dict, units: dict) -> dict:
    return {key: {"value": value, "unit": units[key]} for key, value in metrics.items()}


def print_report(result: dict) -> None:
    head = f"{result['workload']} seed={result['seed']}"
    print(f"{head}: {len(result['samples'])} samples, {result['audio_s']:.0f} audio-s per sample, "
          f"set-up times {[round(t, 3) for t in result['setup_times']]}")
    for key, value in result["metrics"].items():
        print(f"{head}: {key} = {value:.6g} {END_TO_END[key]}")
    for key, value in result["figures"].items():
        print(f"{head}: {key} = {value:.6g} {'ratio' if key == 'error_rate' else 'score'}")
    for key, value in (result["layer"] or {}).items():
        print(f"{head}: {key} = {value:.6g} {tracer.LAYER_METRICS[key]}")
    for problem in result["problems"]:
        print(f"{head}: CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="detect_long, pipeline_eval, train_folds or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to repeat samples")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full", help="tiny: for the smoke test only")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "breathline", "cli.py")):
        print(f"error: no breathline sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")
    env = environment(args.size)
    print("environment: " + json.dumps(env, sort_keys=True))
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
        result["environment"] = env
        with open(os.path.join(WORK, args.size, name, f"seed-{args.seed}", "result.json"), "w") as f:
            json.dump(result, f, sort_keys=True, indent=2)
        print_report(result)
        results.append(result)

    def summary(result: dict) -> dict:
        if args.trace:
            metrics = _units(result["layer"] or {}, tracer.LAYER_METRICS)
        else:
            metrics = _units(result["metrics"], END_TO_END)
        return {"correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "metrics": metrics}

    line = summary(results[0])
    if len(results) > 1:
        line = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": v for r in results for k, v in summary(r)["metrics"].items()},
        }
    print(json.dumps(line, sort_keys=True))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
