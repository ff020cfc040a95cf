"""ncpqec benchmark: time to a verdict, a verified recovery, a report and a CLI command.

    python3 bench/run.py --workload rep-d64 --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``rep-d64``: the inverted (c0 = -0.2) and CP (c0 = 0.7) bit-flip maps on
  the 6-qubit repetition code, d = 64; CLI command ``reproduce-paper --json``.
* ``corpus-small``: a seeded corpus of d <= 16 inputs in five groups,
  including the two known-defect re-decompositions; CLI command ``qec`` on
  one corpus input.
* ``cli-bmatrix-d16``: ``ncpqec qec`` on the 4-qubit inverted map given as
  a 0.68 MB compact ``b_matrix`` document, plus in-process calls on the 4-qubit maps.

Each run is one closed loop: a single caller issues calls one after
another.  The run sets up ``SETUPS`` fresh worker processes in turn; the
last one goes on to measure for ``--seconds``.  The BLAS thread count of
every worker is pinned to ``BLAS_THREADS``, and every process of the run
to one CPU.

With ``--trace 0`` the last line holds the end-to-end metrics, taken
over the successful calls of the run and scaled by the machine's speed
next to each call (see ``speed.py`` and ``metrics.py``; the sample
counts and wall times are printed above it).  With ``--trace 1`` the
worker measures half the time untraced and half traced, and the last
line holds the per-layer metrics (span times in wall seconds) and the
tracing overhead.  Every output is checked by an independent
numpy oracle (``oracle.py``).  ``--smoke`` runs the same code at tiny
sizes (n = 3, one corpus input per group, a d = 8 document).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, SETUPS, per_input

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("rep-d64", "corpus-small", "cli-bmatrix-d16")
# One BLAS thread, and every process of a run pinned to one CPU: on a
# 2-core VM the two vCPUs ran at different speeds (a fixed kernel read
# about 2.6 ms on one and 4.5 ms on the other at the same moment), so a
# process that migrated between them changed speed mid-call, and the
# speed read in the worker (``speed.py``) did not hold for a CLI
# subprocess on the other vCPU.
BLAS_THREADS = 1

def machine(threads: int, cpu_index: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    probe = (
        "import json, numpy; c = numpy.show_config(mode='dicts')['Build Dependencies']['blas'];"
        "print(json.dumps([numpy.__version__, c.get('name'), c.get('version')]))"
    )
    numpy_version, blas, blas_version = json.loads(
        subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout
    )
    sha = "not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": f"{blas} {blas_version}",
        "blas_threads": threads,
        "pinned_cpu": cpu_index,
        "git_sha": sha,
    }


def run_worker(args: argparse.Namespace, env: dict, workdir: Path, setup_only: bool) -> tuple[dict, float]:
    """Start one worker, wait for it with ``wait4``, return its result and peak RSS in MB."""
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    cmd += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), usage.ru_maxrss / 1024


def tail(by_input: dict[str, list[float]]) -> str:
    """Highest percentile of the pooled calls with at least ten calls beyond it."""
    xs = sorted(x for v in by_input.values() for x in v)
    if len(xs) < 11:
        return f"max {xs[-1]:.6g} s (n={len(xs)}, fewer than 11 calls)"
    return f"p{100 * (len(xs) - 10) / len(xs):.1f} = {xs[-11]:.6g} s (n={len(xs)}, 10 beyond)"


def end_to_end(run: dict, setups: list[dict], rss_mb: float) -> tuple[dict, dict]:
    """Metric values and the note printed beside each (sample count or source)."""
    samples = run["samples"]
    values, notes = {}, {}
    for name, _, kind, _ in END_TO_END:
        if kind is None:
            continue
        if not samples.get(kind):
            raise SystemExit(f"no successful {kind} samples for {name}")
        if name != "doc_bytes":
            values[name] = per_input(samples[kind])
            calls = sum(len(v) for v in samples[kind].values())
            notes[name] = f"median, n={calls} over {len(samples[kind])} inputs, wall {per_input(run['wall'][kind]):.6g}"
    values["doc_bytes"] = statistics.fmean(run["doc_bytes"].values())
    notes["doc_bytes"] = f"{len(run['doc_bytes'])} inputs"
    values["peak_rss_mb"] = rss_mb
    notes["peak_rss_mb"] = "worker + subprocesses"
    values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    notes["setup_s"] = f"n={len(setups)}, wall " + ", ".join(f"{s['setup_wall_s']:.3f}" for s in setups)
    values["ok_frac"] = (run["attempted"] - run["failed"]) / run["attempted"]
    notes["ok_frac"] = f"fail_frac={run['failed']}/{run['attempted']}={run['failed'] / run['attempted']:.6f}"
    return values, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up")
    args = parser.parse_args()

    for needed in (ROOT / "src" / "ncpqec" / "__init__.py", ROOT / "tests" / "helpers.py"):
        if not needed.is_file():
            print(f"{needed.relative_to(ROOT)} is missing: run from a full checkout", file=sys.stderr)
            return 2
    threads = BLAS_THREADS
    cpu_index = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu_index})  # inherited by the workers and their subprocesses
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env.pop("QEC_TOL", None)
    workdir = ROOT / ".bench_out"
    workdir.mkdir(exist_ok=True)

    setups = []
    for _ in range((1 if args.smoke else SETUPS) - 1):
        result, _ = run_worker(args, env, workdir, setup_only=True)
        setups.append(result)
    result, rss_mb = run_worker(args, env, workdir, setup_only=False)
    setups.append(result)
    run = result["run"]
    problems = result["problems"] + run["wrong"]

    info = machine(threads, cpu_index)
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, {run['cycles']} cycles, closed loop, 1 caller")
    if args.trace:
        print("  (traced run: the figures below are its untraced half, with the CLI run in process)")
    values, notes = end_to_end(run, setups, rss_mb)
    for name, unit, _, meaning in END_TO_END:
        print(f"  {name:<16} {values[name]:>14.6g} {unit:<5} [{notes[name]}]  {meaning}")
    print(f"  verdict_tail: {tail(run['samples']['verdict'])} (printed only: too noisy to gate)")
    if run["samples"].get("connect"):
        connect = run["samples"]["connect"]
        print(f"  {'connect_s':<16} {per_input(connect):>14.6g} s     [median, {len(connect)} inputs]  "
              "maps_equal + connecting_pseudounitary (printed only: corpus-small alone has base and boosted pairs)")
    for label, count in sorted(run["failures"].items()):
        print(f"  failed: {label} x{count}")
    for problem in problems:
        print(f"  WRONG: {problem}")

    attempted, failed = run["attempted"], run["failed"]
    if args.trace:
        traced, layers = result["traced"], result["layers"]
        problems += traced["wrong"]
        attempted, failed = traced["attempted"], traced["failed"]
        print(f"traced half: {traced['cycles']} cycles; no layer waits on a queue or lock, so all span time is busy time")
        for name, unit, _, moves in PER_LAYER:
            print(f"  {name:<52} {layers[name]:>12.6g} {unit:<5} -> {moves}")
        for label, count in layers["failures_by_type"].items():
            print(f"  raised in {label}: {count:g} per cycle")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _, _ in PER_LAYER}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}
    record = {"machine": info, "workload": args.workload, "seed": args.seed, "trace": args.trace, "result": result}
    (workdir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
