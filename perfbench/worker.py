"""One workload run in a fresh interpreter.

Imports ``wavemetric.cli`` from the checkout's ``src``, writes the seeded
scenarios into the work directory, and calls ``wavemetric.cli.main`` once per
workload step, in a fixed order, for about ``--seconds`` (at least one pass;
another pass starts only if half of it fits).  Every command's output is checked.  Untraced passes give the
end-to-end times; with ``--trace 1`` each unit is an untraced pass followed by
a traced one, and the traced pass gives the per-layer metrics.  The result
goes to ``--result`` as JSON.

    python3 perfbench/worker.py --workload maxwell-2d --seed 0 --seconds 30 \
        --trace 0 --src src --workdir WORK --result WORK/result.json
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import layers
import scenarios

COMMANDS = ("analyze", "distance_geodesic", "distance_arrival", "simulate")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
REFERENCES = Path(__file__).with_name("references.json")


def clear_caches() -> None:
    """Drop what a previous command left cached, as a new CLI process would."""
    for mod in layers.package_modules():
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    gc.collect()


def run_step(cli, step, doc, tracer=None) -> tuple[float, list[str]]:
    """Run one CLI command and check its output; returns (seconds, problems)."""
    out_dir = Path(doc["output"]["dir"])
    for name in checks.OUTPUT_FILES[step.command]:
        (out_dir / name).unlink(missing_ok=True)
    clear_caches()
    argv = [a.replace("{scenario}", f"{step.scenario}.json") for a in step.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.command_span(step.command, cli.main, argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a failing command is counted, not fatal
        code, error = None, repr(exc)
    elapsed = time.perf_counter() - start
    if error is not None:
        return elapsed, [f"raised {error}"]
    if code != 0:
        return elapsed, [f"exit code {code}: {stderr.getvalue().strip()[-300:]}"]
    return elapsed, checks.check_step(step, doc, out_dir, stderr.getvalue())


def run_pass(cli, wl, refs, tracer=None) -> tuple[dict, list[str]]:
    """All steps once; returns (seconds per command, one problem per failed step)."""
    times: dict = defaultdict(float)
    failures = []
    for i, step in enumerate(wl.steps):
        doc = wl.files[step.scenario]
        elapsed, problems = run_step(cli, step, doc, tracer)
        if not problems and str(i) in refs:
            observed = checks.observe(step.command, Path(doc["output"]["dir"]))
            problems = checks.against_reference(observed, refs[str(i)])
        times[step.command] += elapsed
        if problems:
            failures.append(f"{step.command} on {step.scenario}: {problems[0]}")
    return times, failures


def trace_metrics(tracer: layers.Tracer, missing, untraced: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced pass, and any accounting inconsistency."""
    metrics = layers.layer_metrics(tracer, missing)
    problems = [] if tracer.balanced else ["trace spans left open"]
    for cmd in COMMANDS:
        metrics[f"cmd.{cmd}_s"] = (untraced.get(cmd, 0.0), "s")
        metrics[f"cmd.{cmd}_unattributed_s"] = (tracer.layer_self("cmd." + cmd), "s")
        wall = tracer.wall_s.get(cmd, 0.0)
        covered = sum(v for (_, c), v in tracer.self_s.items() if c == cmd)
        covered += tracer.hook_s.get(cmd, 0.0)
        if abs(covered - wall) > 1e-6 * wall + 1e-9:
            problems.append(f"{cmd}: self times sum to {covered:.6f} s, wall {wall:.6f} s")

    def share(layer, cmd):
        wall = tracer.wall_s.get(cmd, 0.0)
        return (tracer.layer_self(layer, cmd) / wall if wall > 0 else 0.0, "ratio")

    if "geometry.shortest_path" not in missing:
        metrics["geometry.shortest_path_share_of_analyze"] = share(
            "geometry.shortest_path", "analyze")
    if "evolve.apply" not in missing:
        metrics["evolve.apply_share_of_simulate"] = share("evolve.apply", "simulate")
    metrics["trace.hook_s"] = (sum(tracer.hook_s.values()), "s")
    metrics["trace.overhead_s"] = (sum(tracer.wall_s.values()) - sum(untraced.values()), "s")
    return metrics, problems


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--src", required=True, help="directory holding the wavemetric package")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import wavemetric.cli as cli
    if src not in Path(cli.__file__).resolve().parents:
        print(f"wavemetric imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    wl = scenarios.generate(args.workload, args.seed)
    os.chdir(args.workdir)
    for key, doc in wl.files.items():
        Path(f"{key}.json").write_text(json.dumps(doc, indent=1))
    refs = {}
    if args.seed == scenarios.DEFAULT_SEED:
        refs = json.loads(REFERENCES.read_text()).get(args.workload, {})

    passes, failures, traced, problems = [], [], [], []
    begin = time.perf_counter()
    while True:
        times, failed = run_pass(cli, wl, refs)
        passes.append(times)
        failures += failed
        if args.trace:
            tracer = layers.Tracer()
            uninstall, missing = layers.install(tracer)
            try:
                _, failed = run_pass(cli, wl, refs, tracer)
            finally:
                uninstall()
            failures += failed
            metrics, trouble = trace_metrics(tracer, missing, times)
            traced.append(metrics)
            problems += trouble
        # start another unit only if at least half of it fits in the budget
        elapsed = time.perf_counter() - begin
        if elapsed + 0.5 * elapsed / len(passes) >= args.seconds:
            break

    def median(key):
        return statistics.median(t.get(key, 0.0) for t in passes)

    result = {
        "attempted": len(wl.steps) * (len(passes) + len(traced)),
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "passes": len(passes),
        "pass_s": [{c: round(v, 4) for c, v in t.items()} for t in passes],
        "commands": {c: median(c) for c in COMMANDS if any(c in t for t in passes)},
        "commands_s": statistics.median(sum(t.values()) for t in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_facts(),
    }
    if traced:
        result["absent"] = missing
        result["layers"] = {
            name: [statistics.median(m[name][0] for m in traced), unit]
            for name, (_, unit) in traced[0].items()
        }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
