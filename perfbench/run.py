"""The wavemetric benchmark: CLI command times on seeded scenarios.

Run from the root of a checkout:

    python3 perfbench/run.py --workload maxwell-2d --seed 0 --seconds 30 --trace 0

Workloads are telegraph-1d, maxwell-2d and dirac-3d (see scenarios.py).  The
program is the checkout's own ``src/wavemetric``; nothing is installed.  Each
run is a closed loop with one client: the commands run one after another in
one fresh worker interpreter (worker.py).

With ``--trace 0`` the run first times several fresh interpreters importing
``wavemetric.cli`` (setup_s, the median), then reports end-to-end metrics.
With ``--trace 1`` it reports per-layer metrics from a traced pass and the
import time of ``wavemetric.sampling`` from ``python -X importtime``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when a result was printed, whether or not the outputs were correct.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import scenarios

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().with_name("worker.py")
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _python(args, cwd: Path, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, env=_env(), timeout=timeout,
                          capture_output=True, text=True, check=True)


def setup_times(cwd: Path) -> list[float]:
    """Wall time of fresh interpreters importing wavemetric.cli."""
    out = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        _python(["-c", "import wavemetric.cli"], cwd, 60)
        out.append(time.perf_counter() - start)
    return out


def sampling_import_s(cwd: Path) -> float | None:
    """Cumulative import time of wavemetric.sampling, from -X importtime."""
    proc = _python(["-X", "importtime", "-c", "import wavemetric.cli"], cwd, 60)
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "wavemetric.sampling":
            return int(fields[1]) / 1e6
    return None


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    p.add_argument("--seed", type=int, default=scenarios.DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "wavemetric" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'wavemetric'} is missing", file=sys.stderr)
        return 2
    started = time.perf_counter()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        metrics = {}
        if args.trace:
            import_s = sampling_import_s(workdir)
            if import_s is not None:
                metrics["sampling.import_s"] = {"value": import_s, "unit": "s"}
        else:
            setup = setup_times(workdir)
        result_path = workdir / "result.json"
        _python([str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--src", str(SRC), "--workdir", str(workdir),
                 "--result", str(result_path)],
                workdir, RUN_LIMIT_S - (time.perf_counter() - started))
        res = json.loads(result_path.read_text())
    except subprocess.CalledProcessError as exc:
        print(f"benchmark step failed ({exc.returncode}):\n{exc.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"benchmark step timed out after {exc.timeout:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only succeeds once no other run is using it

    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{res['passes']} untraced pass(es), {attempted} commands, {failed} failed")
    print("machine: " + json.dumps(dict(res["machine"], git_sha=git_sha())))
    for line in res["failures"] + res["problems"]:
        print(f"FAILED: {line}")
    if args.trace:
        for name, (value, unit) in res["layers"].items():
            metrics[name] = {"value": value, "unit": unit}
        if res["absent"]:
            print("absent layers (traced name gone): " + ", ".join(res["absent"]))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "analyze_s": {"value": res["commands"]["analyze"], "unit": "s"},
            "commands_s": {"value": res["commands_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print("setup samples (s): " + ", ".join(f"{t:.4f}" for t in setup))
        print("passes (s): " + json.dumps(res["pass_s"]))
        for cmd, value in res["commands"].items():
            print(f"  {cmd}_s = {value:.4f} s (median of {res['passes']})")
        print(f"  failed_share = {failed / attempted:.4f} ratio")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    correct = failed == 0 and not res["problems"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
