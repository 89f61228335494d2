"""dpkit end-to-end benchmark: one workload, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload cli-convection-2d --seed 1 --seconds 30 --trace 0

Jobs of the workload run back to back in this process for ``--seconds``
seconds, each checked for correctness.  With ``--trace 0`` the last line of
standard output is a JSON object carrying the end-to-end metrics; with
``--trace 1`` jobs run in pairs, untraced and traced, and it carries the
per-layer metrics instead.  The lines before it print every metric with its
unit and sample count, the checks, and the run metadata.  See README.md in
this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The variables ``dpkit --threads 1`` sets; they must be set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5  # fresh processes timed for setup_s; the median is reported

E2E_METRICS = {"job_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="set the workload up, print the wall-clock time and exit (used for setup_s)",
    )
    return parser.parse_args(argv)


def load_dpkit():
    """Cap BLAS threads, then import dpkit from this checkout's src/."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "dpkit" / "__init__.py").is_file():
        raise FileNotFoundError(f"dpkit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import dpkit

    if Path(dpkit.__file__).resolve().parent != SRC / "dpkit":
        raise ImportError(f"imported dpkit from {dpkit.__file__}, not from {SRC}")


class Record:
    """One executed job: wall seconds, whether traced, failures, layer totals."""

    def __init__(self, seconds, traced, failures, artifact=b"", layers=None):
        self.seconds = seconds
        self.traced = traced
        self.failures = failures
        self.artifact = artifact
        self.layers = layers


def execute(workload, job, tag, tracer=None, job_id=0) -> Record:
    """Run one job; only ``workload.run`` is timed, preparation and checks are not."""
    payload = workload.prepare(job, tag)
    traced = tracer is not None
    first = len(tracer.spans) if traced else 0
    t0 = time.perf_counter()
    try:
        with tracer.installed(job_id) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            result = workload.run(payload)
            seconds = time.perf_counter() - t0
    except Exception as exc:  # a failed job is counted, never fatal
        return Record(time.perf_counter() - t0, traced, [_describe(exc)])
    layers = tracer.job_metrics(first) if traced else None
    try:
        outcome = workload.check(payload, result)
    except Exception as exc:
        return Record(seconds, traced, [_describe(exc)], layers=layers)
    return Record(seconds, traced, outcome.failures, outcome.artifact, layers)


def _describe(exc: Exception) -> str:
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} ({Path(where.filename).name}:{where.lineno})"


def probe_setup(args) -> float:
    """Wall seconds from spawning a fresh process to its workload being ready."""
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def tail(samples: list) -> tuple:
    """The highest percentile with at least ten samples above it.

    Returns (value, percentile).  With ten samples or fewer no percentile
    qualifies and the minimum (percentile 0) is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    i = max(0, n - 11)
    return ordered[i], (100.0 * i / (n - 1) if n > 1 else 0.0)


def git_commit():
    """HEAD of the checkout's git repository, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dpkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run(args) -> int:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise ValueError(
            f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[args.workload]()
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            workload.setup(workdir)
            print(repr(time.time()))
            return 0
        measure(args, workload, workdir)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_jobs(args, workload, tracer, probes: int) -> tuple:
    """Run jobs back to back for ``args.seconds``; with a tracer, in pairs.

    The ``probes`` set-up probes are spread evenly over the run, between
    jobs, so that their median samples the machine's state over the whole
    run; the time they take is added to the run.  Returns the job records
    (the replay last) and the set-up samples.
    """
    import workloads

    records, setup_samples = [], []
    gen = workloads.jobs(args.workload, args.seed)
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        if len(setup_samples) < probes and time.perf_counter() >= (
            start + len(setup_samples) * args.seconds / probes
        ):
            t0 = time.perf_counter()
            setup_samples.append(probe_setup(args))
            deadline += time.perf_counter() - t0
            continue
        job = next(gen)
        if tracer is None:
            records.append(execute(workload, job, f"job{i}"))
        else:
            # alternate which of the pair runs first, so neither side is favoured
            pair = [execute(workload, job, f"job{i}-{k}", tracer if k == i % 2 else None, i)
                    for k in (0, 1)]
            untraced, traced = sorted(pair, key=lambda r: r.traced)
            if not (untraced.failures or traced.failures) and untraced.artifact != traced.artifact:
                traced.failures.append("traced output differs from the untraced output")
            records += [untraced, traced]
        i += 1
    setup_samples += [probe_setup(args) for _ in range(probes - len(setup_samples))]
    # Replay the first job: the same inputs must give byte-identical output.
    replay = execute(workload, next(workloads.jobs(args.workload, args.seed)), "replay")
    if not replay.failures and replay.artifact != records[0].artifact:
        replay.failures.append("replayed job output differs from its first run")
    return records + [replay], setup_samples


def end_to_end(ok: list, setup_samples: list) -> tuple:
    samples = [r.seconds for r in ok]
    values = {
        "job_s_p50": statistics.median(samples),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {"job_s_p50": len(samples), "setup_s": len(setup_samples), "peak_rss_mb": 1}
    # The tail is printed, not gated: on a shared 2-core machine it mostly
    # measures other tenants (see README.md).
    tail_value, tail_pct = tail(samples)
    few = "" if len(samples) > 10 else ", ten or fewer jobs: no percentile has ten above it"
    notes = {"job_s_p50": f"job_s_tail {tail_value:.6g} s = p{tail_pct:.1f}{few}",
             "setup_s": "median over fresh processes: imports, mesh and phase building"}
    return values, counts, notes


def measure(args, workload, workdir) -> None:
    import numpy
    import scipy

    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    t0 = time.perf_counter()
    if tracer is None:
        workload.setup(workdir)
    else:
        with tracer.installed(spans.SETUP_JOB):
            workload.setup(workdir)
        setup_layers = tracer.job_metrics(0)
    own_setup = time.perf_counter() - t0

    probes = 0 if args.trace else SETUP_REPEATS
    attempted, setup_samples = timed_jobs(args, workload, tracer, probes)
    records = attempted[:-1]  # the replay is checked, not timed
    failed = [r for r in attempted if r.failures]
    ok = [r for r in records if not r.failures] or records
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
             f"trace {args.trace}"]
    if tracer is None:
        units = E2E_METRICS
        values, counts, notes = end_to_end(ok, setup_samples)
    else:
        units = spans.LAYER_METRICS
        traced = [r for r in ok if r.layers is not None]
        overhead = (statistics.median(r.seconds for r in traced)
                    / statistics.median(r.seconds for r in ok if not r.traced) - 1.0)
        values, counts, notes = spans.summarize(
            [r.layers for r in traced], setup_layers, overhead)
        out = HERE / "_out"
        out.mkdir(exist_ok=True)
        span_file = out / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(span_file)
        lines.append(f"spans: {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")

    for name, unit in units.items():
        note = f"; {notes[name]}" if name in notes else ""
        lines.append(f"{name:32s} {values[name]:.6g} {unit}  (n={counts[name]}{note})")
    lines.append(f"checks: attempted {len(attempted)}, failed {len(failed)}, "
                 f"failed_ratio {len(failed) / len(attempted):.4g}")
    lines += ["  FAILED: " + "; ".join(r.failures) for r in failed[:10]]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "sizes": workload.sizes,
        "ranges": {k: (list(v) if isinstance(v, (tuple, list)) else str(v))
                   for k, v in workloads.RANGES[args.workload].items()},
        "job_seconds": [round(r.seconds, 4) for r in records],
        "sample_counts": counts,
        "setup_samples_s": setup_samples,
        "in_process_setup_s": own_setup,
    }
    lines.append("meta: " + json.dumps(meta, sort_keys=True))
    print("\n".join(lines))
    result = {
        "correct": not failed,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_dpkit()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
