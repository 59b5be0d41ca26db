"""One benchmark step in a fresh process; ``run.py`` starts it.

Usage: ``python3 worker.py '<json job>'``. The job names a ``mode``:

- ``setup``: import the package, generate the workload's input with
  ``synth`` and write the CSV; times all three.
- ``passes``: run the workload's ``msmark`` commands through ``cli.main``
  with nothing wrapped, pass after pass for at most ``seconds`` (at least
  one pass); times each pass and reads the process's peak RSS.
- ``traced``: one pass with every layer wrapped by the tracer, then the
  independent checks on what it produced.

Every timing runs under a ``hostspeed.Sampler``, which samples the
host's speed all through it. The worker writes its findings as JSON to
``job["result"]``.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def setup(job):
    import hostspeed

    with hostspeed.Sampler(start=_T0) as timing:
        tracer = None
        if job["trace"]:
            from spans import Tracer

            tracer = Tracer()
        from multiscale_markowitz import synth, timeseries as ts

        if tracer is not None:
            for name in ("gen_correlated", "gen_regime_switch", "gen_fgn",
                         "gen_multifractal", "gen_epps"):
                tracer.patch(synth, name, "synth.generate")
            tracer.patch(ts, "prices_to_csv", "timeseries.prices_to_csv")
        ids, returns = workloads.generate(job["workload"], job["seed"], job["small"])
        text = ts.prices_to_csv(ts.to_price_series(ts.panel_from_returns(returns, ids)))
        Path(job["csv"]).write_text(text)
    out = {"setup_s": timing.reference_s, "setup_raw_s": timing.work_s,
           "host_factor": timing.factor,
           "csv_sha256": hashlib.sha256(text.encode()).hexdigest()}
    if tracer is not None:
        for key in ("synth.generate", "timeseries.prices_to_csv"):
            d = tracer.durations(key)
            out[f"{key}_s"] = float(sum(d))
            out[f"{key}_calls"] = len(d)
    return out


def run_commands(job, out_dir):
    """One pass: each command through ``cli.main``.

    Returns the pass's ``hostspeed.Sampler``, ``[exit code, operations]``
    per command and the JSON reports written.
    """
    import hostspeed
    from multiscale_markowitz import cli

    out_dir.mkdir(parents=True, exist_ok=True)
    commands = workloads.spec(job["workload"], job["small"]).commands(job["csv"], out_dir)
    codes = []
    sink = io.StringIO()
    with hostspeed.Sampler() as timing:
        for argv, _ in commands:
            try:
                with contextlib.redirect_stdout(sink):
                    codes.append(cli.main(argv))
            except Exception:  # an uncaught error is what a user's shell sees as status 1
                traceback.print_exc()
                codes.append(1)
    docs = {p.name: json.loads(p.read_text()) for p in sorted(out_dir.glob("*.json"))}
    return timing, [[code, n] for code, (_, n) in zip(codes, commands)], docs


def passes(job):
    import multiscale_markowitz  # noqa: F401  imported before the clock starts

    spec = workloads.spec(job["workload"], job["small"])
    timings, attempted, failed, differing, first = [], 0, 0, 0, None
    start = time.perf_counter()
    # whole passes only: stop before one that would end past the budget
    while not timings or time.perf_counter() - start + timings[-1].work_s <= job["seconds"]:
        out_dir = Path(job["out_dir"]) / f"pass{len(timings)}"
        timing, codes, docs = run_commands(job, out_dir)
        shutil.rmtree(out_dir)
        timings.append(timing)
        attempted += sum(n for _, n in codes)
        failed += spec.failed_ops(codes, docs)
        if first is None:
            first = docs
        differing += docs != first
    return {"walls": [t.work_s for t in timings], "factors": [t.factor for t in timings],
            "reference_s": [t.reference_s for t in timings],
            "attempted": attempted, "failed": failed,
            "docs": first, "differing": differing,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def traced(job):
    import checks
    from spans import Recorder, Tracer, install, layer_metrics

    tracer = Tracer()
    recorder = Recorder()
    install(tracer, recorder)
    out_dir = Path(job["out_dir"])
    try:
        timing, codes, docs = run_commands(job, out_dir)
    finally:
        tracer.restore()
    metrics = layer_metrics(tracer, recorder)
    metrics["cli.output_kib"] = sum(p.stat().st_size for p in out_dir.iterdir()) / 1024

    check_start = time.perf_counter()
    spec = workloads.spec(job["workload"], job["small"])
    ids, dates, returns = checks.read_returns(job["csv"])
    # a command that failed counts as failed operations; one that exited 0
    # must have written its report
    failures = [f"{name} was not written" for (code, _), name in zip(codes, spec.reports)
                if code == 0 and name not in docs]
    metrics["backtest.fallbacks"] = 0
    if isinstance(spec, workloads.Scaling):
        failures += checks.check_scaling(ids, returns, workloads.SCALES,
                                         docs.get("dfa.json"), docs.get("structure.json"))
    elif "backtest.json" in docs:
        doc = docs["backtest.json"]
        failures += checks.check_backtest(spec, returns, dates, doc,
                                          dict(enumerate(recorder.rows)))
        metrics["backtest.fallbacks"] = sum(len(r["fallbacks"] or []) for r in doc["rows"])
    Path(job["spans"]).write_text(json.dumps(tracer.spans, separators=(",", ":")))
    return {"wall_s": timing.work_s, "host_factor": timing.factor,
            "reference_s": timing.reference_s, "attempted": sum(n for _, n in codes),
            "failed": spec.failed_ops(codes, docs), "docs": docs, "failures": failures,
            "metrics": metrics, "check_s": time.perf_counter() - check_start}


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    result = {"setup": setup, "passes": passes, "traced": traced}[job["mode"]](job)
    Path(job["result"]).write_text(json.dumps(result))
