"""Pipeline benchmark for the ``msmark`` command line.

Usage, from the root of a checkout::

    python3 msmark_bench/run.py --workload backtest_wide --seed 1 --seconds 10 --trace 0

A run makes the workload's input from ``--seed`` three times in fresh
processes (``setup_s`` is their median), runs one traced pass whose
outputs are checked against computations made apart from the program,
then, in one more fresh process, repeats untraced passes for at most
``--seconds`` (``wall_s`` is their median). ``hostspeed.py`` samples the
host's speed all through each timed piece of work, and every time is
given in seconds at the reference host speed. Every pass must write the
same reports as the checked one. The last line of standard output is one
JSON object; with ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of the traced pass. The full result,
spans and raw times included, is also written under ``bench_results/``.
README.md says why each choice was made.
"""
from __future__ import annotations

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
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# a run must end well inside three minutes, whatever the host does
DEADLINE_S = 170.0
BLAS_THREADS = "1"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {"_s": "s", "_calls": "count", "_ms_p50": "ms", "_ms_p90": "ms",
                   "_mib": "MiB", "_kib": "KiB", "_factor": "x"}
TIMED = ("_s", "_ms_p50", "_ms_p90")
SETUP_LAYERS = ("synth.generate_s", "synth.generate_calls",
                "timeseries.prices_to_csv_s", "timeseries.prices_to_csv_calls")


class BenchError(Exception):
    pass


def unit_of(name):
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


class Runner:
    """Starts workers in fresh processes under one deadline."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int, small: bool):
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.base = {"src": str(root / "src"), "workload": workload, "seed": seed,
                     "small": small, "csv": str(work / "input.csv")}
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
                        OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS,
                        PYTHONHASHSEED="0", TMPDIR=str(work))
        self.count = 0

    def __call__(self, mode, **extra):
        self.count += 1
        tag = f"{mode}{self.count}"
        job = dict(self.base, mode=mode, result=str(self.work / f"{tag}.json"),
                   out_dir=str(self.work / tag), **extra)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the run finished")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, env=self.env, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker ran past the deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr}")
        out = json.loads(Path(job["result"]).read_text())
        shutil.rmtree(job["out_dir"], ignore_errors=True)
        return out


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        small: bool = False):
    """One benchmark run; returns ``(result, failures)``."""
    work = root / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results = root / "bench_results"
    results.mkdir(exist_ok=True)
    stem = f"{workload}_seed{seed}_trace{int(trace)}"
    try:
        worker = Runner(root, work, workload, seed, small)
        # set-ups are spread over the run so that their median samples the
        # host at three different times
        setups = [worker("setup", trace=trace)]
        checked = worker("traced", spans=str(results / f"{stem}_spans.json"))
        setups.append(worker("setup", trace=trace, csv=str(work / "again1.csv")))
        timed = worker("passes", seconds=seconds)
        setups.append(worker("setup", trace=trace, csv=str(work / "again2.csv")))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = list(checked["failures"])
    if len({s["csv_sha256"] for s in setups}) != 1:
        failures.append("the same seed generated different inputs")
    if timed["docs"] != checked["docs"] or timed["differing"]:
        failures.append("the timed passes wrote other reports than the checked pass")
    attempted = checked["attempted"] + timed["attempted"]
    failed = checked["failed"] + timed["failed"]
    # every time is in seconds at the reference host speed (hostspeed.py)
    wall_s = statistics.median(timed["reference_s"])
    setup_s = statistics.median(s["setup_s"] for s in setups)
    if trace:
        values = {k: v / checked["host_factor"] if k.endswith(TIMED) else v
                  for k, v in checked["metrics"].items()}
        for key in SETUP_LAYERS:
            values[key] = statistics.median(
                s[key] / s["host_factor"] if key.endswith(TIMED) else s[key]
                for s in setups)
        values["bench.trace_overhead_s"] = checked["reference_s"] - wall_s
        values["bench.host_factor"] = statistics.median(timed["factors"])
        values["bench.raw_wall_s"] = statistics.median(timed["walls"])
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(values.items())}
    else:
        values = {"setup_s": setup_s, "wall_s": wall_s,
                  "peak_rss_mib": timed["peak_rss_mib"]}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = dict(result, workload=workload, seed=seed, failures=failures[:50],
                  setup_raw_s=[s["setup_raw_s"] for s in setups],
                  setup_host_factor=[s["host_factor"] for s in setups],
                  pass_wall_s=timed["walls"], pass_host_factor=timed["factors"],
                  traced_wall_s=checked["wall_s"], traced_host_factor=checked["host_factor"],
                  check_s=checked["check_s"])
    (results / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n")
    return result, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "multiscale_markowitz" / "__init__.py").is_file():
        print(f"msmark_bench: no src/multiscale_markowitz under {root}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        result, failures = run(root, args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except BenchError as exc:
        print(f"msmark_bench: {exc}", file=sys.stderr)
        return 1
    for failure in failures[:50]:
        print(failure, file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
