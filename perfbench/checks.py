"""Output checks for every benchmark command.

Each check reads the files one CLI command wrote and returns a list of
problems; an empty list means the command's output is correct.  The checks
read outputs only, so they hold across refactors of the program.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

NON_DIVERGENT = ("likely-convergent", "inconclusive")
MAX_ENERGY_DRIFT = 1e-6
# Later refactors may reorder floating-point sums; verdicts must not change.
REFERENCE_RTOL = 1e-9
# The CLI flags a run boundary-contaminated when its support box comes within
# this many nodes of the grid edge.
EDGE_MARGIN_NODES = 4

OUTPUT_FILES = {
    "analyze": ("verdict.json", "summary.txt"),
    "distance_geodesic": ("distance.csv",),
    "distance_arrival": ("distance.csv",),
    "simulate": ("evolution.csv",),
}


def _rows(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [[float(v) for v in row] for row in reader]


def observe(command: str, out_dir: Path) -> dict:
    """The facts of a command's output that references pin down."""
    if command == "analyze":
        verdict = json.loads((out_dir / "verdict.json").read_text())
        return {
            "classification": verdict["classification"],
            "routes": {
                r["parameters"].get("route", r["criterion"]): {
                    "classification": r["classification"],
                    "last_integral": r["integrals"][-1] if r["integrals"] else None,
                }
                for r in verdict["routes"]
            },
        }
    if command.startswith("distance"):
        _, rows = _rows(out_dir / "distance.csv")
        finite = [r[-1] for r in rows if math.isfinite(r[-1])]
        return {"max": max(finite) if finite else None}
    return {}


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=0.0)


def against_reference(observed: dict, reference: dict) -> list[str]:
    problems = []
    if "classification" in reference and observed.get("classification") != reference["classification"]:
        problems.append(f"verdict {observed.get('classification')} differs from "
                        f"reference {reference['classification']}")
    for route, want in reference.get("routes", {}).items():
        got = observed.get("routes", {}).get(route)
        if got is None:
            problems.append(f"route {route!r} missing")
        elif got["classification"] != want["classification"]:
            problems.append(f"route {route!r} grade {got['classification']} differs "
                            f"from reference {want['classification']}")
        elif not _close(got["last_integral"], want["last_integral"]):
            problems.append(f"route {route!r} last integral {got['last_integral']!r} "
                            f"differs from reference {want['last_integral']!r}")
    if "max" in reference and not _close(observed.get("max"), reference["max"]):
        problems.append(f"distance maximum {observed.get('max')!r} differs from "
                        f"reference {reference['max']!r}")
    return problems


def check_analyze(expect: dict, out_dir: Path) -> list[str]:
    observed = observe("analyze", out_dir)
    grade = observed["classification"]
    problems = []
    if "verdict" in expect and grade != expect["verdict"]:
        problems.append(f"verdict {grade}, analytic rule gives {expect['verdict']} "
                        f"for q={expect['q']:.6g}")
    if expect.get("non_divergent"):
        if grade not in NON_DIVERGENT:
            problems.append(f"verdict {grade} claims divergence")
        summary = (out_dir / "summary.txt").read_text()
        if "sufficient condition" not in summary:
            problems.append("summary lacks the sufficiency note")
    route = expect.get("route")
    if route is not None:
        got = observed["routes"].get(route)
        if got is None or got["classification"] not in NON_DIVERGENT:
            problems.append(f"route {route!r} is {got and got['classification']}")
    return problems


def _spacing(doc: dict) -> list[float]:
    dom, nodes = doc["domain"], doc["grid"]["nodes"]
    return [(hi - lo) / (n + 1) for lo, hi, n in zip(dom["lower"], dom["upper"], nodes)]


def check_distance(doc: dict, out_dir: Path) -> list[str]:
    """Finite at every passable node, zero at the source node."""
    header, rows = _rows(out_dir / "distance.csv")
    d = len(header) - 1
    nodes = doc["grid"]["nodes"]
    if len(rows) != math.prod(nodes):
        return [f"distance.csv has {len(rows)} rows for {math.prod(nodes)} nodes"]
    radius = doc["system"]["params"].get("radius") if doc["system"]["name"] == "dirac" else None
    problems = []
    for r in rows:
        passable = radius is None or math.hypot(*r[:d]) > radius
        if passable and not math.isfinite(r[-1]):
            problems.append(f"non-finite distance {r[-1]!r} at node {r[:d]}")
            break
    # the source is the node nearest the pulse center (ties either way)
    center = doc["simulate"]["pulse"]["center"]
    reach = [0.5 * h * (1.0 + 1e-9) for h in _spacing(doc)]
    source = [r for r in rows
              if all(abs(x - c) <= e for x, c, e in zip(r[:d], center, reach))]
    if not any(r[-1] == 0.0 for r in source):
        problems.append(f"no zero distance at the source, nodes near {center}: "
                        f"{[r[-1] for r in source]}")
    return problems


def check_simulate(doc: dict, out_dir: Path, stderr: str) -> list[str]:
    """Energy drift within bound, no boundary contamination, steps taken."""
    header, rows = _rows(out_dir / "evolution.csv")
    problems = []
    if len(rows) < 2:
        return [f"evolution log has {len(rows)} rows; no steps were taken"]
    t_col, e_col, m_col = (header.index(c) for c in ("t", "energy", "boundary_margin"))
    T = doc["simulate"]["T"]
    if not math.isclose(rows[-1][t_col], T, rel_tol=1e-9):
        problems.append(f"log ends at t={rows[-1][t_col]!r}, not T={T!r}")
    drift = abs(rows[-1][e_col] / rows[0][e_col] - 1.0)
    if not drift <= MAX_ENERGY_DRIFT:
        problems.append(f"relative energy drift {drift:.3e} above {MAX_ENERGY_DRIFT:g}")
    # a support box lo nodes from the edge has margin (lo + 1) * h
    floor = (EDGE_MARGIN_NODES + 1) * max(_spacing(doc)) * (1.0 - 1e-9)
    if "contaminated" in stderr or not all(r[m_col] >= floor for r in rows):
        problems.append("run is boundary-contaminated")
    return problems


def check_step(step, doc: dict, out_dir: Path, stderr: str) -> list[str]:
    """Problems with the output of one workload step."""
    try:
        if step.command == "analyze":
            return check_analyze(step.expect, out_dir)
        if step.command.startswith("distance"):
            return check_distance(doc, out_dir)
        return check_simulate(doc, out_dir, stderr)
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        return [f"unreadable output: {exc!r}"]
