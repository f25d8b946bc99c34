"""Seeded scenario generator for the three benchmark workloads.

A scenario is one JSON input document for the ``wavemetric`` CLI.  The seed
chooses the coefficients; the program only ever sees the JSON.  Each workload
is a fixed list of steps, each step one CLI command on one scenario file.
This module imports nothing from ``wavemetric``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("telegraph-1d", "maxwell-2d", "dirac-3d")
# references.json holds this seed's outputs, recorded from the unmodified program
DEFAULT_SEED = 0

# The CLI's support cut (evolve.DEFAULT_SUPPORT_THRESHOLD) and the edge rule
# it enforces on pulses: the support box must clear the grid edge by 4 nodes.
SUPPORT_THRESHOLD = 1e-8
EDGE_MARGIN_NODES = 4

TELEGRAPH_NODES = 2048
TELEGRAPH_SIM_Q = 2.0
MAXWELL_NODES = 128
DIRAC_NODES = 32
DIRAC_HALF_WIDTH = 2.0
# On the 32^3 window (-2, 2)^3 the eight nodes nearest the origin sit at
# radius 0.105 and the next shell at 0.201, so a radius in this range always
# makes exactly those eight nodes impassable.
DIRAC_RADIUS = (0.11, 0.19)


@dataclass(frozen=True)
class Step:
    """One CLI command: ``argv`` names the scenario by its key in ``files``."""

    command: str          # metric stem: analyze, distance_geodesic, ...
    argv: tuple           # CLI arguments with "{scenario}" in place of the path
    scenario: str         # key into Workload.files
    expect: dict          # what the output check needs to know


@dataclass(frozen=True)
class Workload:
    name: str
    files: dict           # scenario key -> JSON document (output dir relative)
    steps: tuple


def pulse_halfwidth(sigma: float) -> float:
    """Half-width of a Gaussian pulse's support box at the CLI's cut."""
    return sigma * math.sqrt(-2.0 * math.log(SUPPORT_THRESHOLD))


def _fmt(v: float) -> str:
    return repr(round(float(v), 6))


def _telegraph(rng: random.Random) -> Workload:
    qs = sorted(rng.uniform(0.5, 0.9) for _ in range(4))
    qs += sorted(rng.uniform(1.0, 3.0) for _ in range(4))
    center = 0.5 + rng.uniform(-0.05, 0.05)
    files, steps = {}, []
    for i, q in enumerate(qs):
        coeff = f"sin(pi*x)^(-{_fmt(q)})"
        key = f"sweep{i}"
        files[key] = {
            "system": {"name": "telegraph", "params": {"L": coeff, "C": coeff}},
            "domain": {"lower": [0.0], "upper": [1.0]},
            "grid": {"nodes": [TELEGRAPH_NODES]},
            "output": {"dir": key},
        }
        verdict = "certified-divergent" if q >= 1.0 else "likely-convergent"
        steps.append(Step("analyze", ("analyze", "{scenario}"), key,
                          {"verdict": verdict, "q": q}))
    coeff = f"sin(pi*x)^(-{_fmt(TELEGRAPH_SIM_Q)})"
    files["confine"] = {
        "system": {"name": "telegraph", "params": {"L": coeff, "C": coeff}},
        "domain": {"lower": [0.0], "upper": [1.0]},
        "grid": {"nodes": [TELEGRAPH_NODES]},
        "simulate": {"T": 2.0, "cfl": 0.4,
                     "pulse": {"center": [round(center, 6)], "sigma": 0.02,
                               "components": [1.0, 0.0]}},
        "output": {"dir": "confine"},
    }
    steps.append(Step("simulate", ("simulate", "{scenario}"), "confine", {}))
    return Workload("telegraph-1d", files, tuple(steps))


def _maxwell(rng: random.Random) -> Workload:
    a = rng.uniform(0.3, 0.5)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    eps = f"1 + {_fmt(a)}*sin(6*x + {_fmt(phi)})*cos(4*y)"
    doc = {
        "system": {"name": "maxwell_isotropic", "params": {"eps": eps, "mu": "1"}},
        "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "grid": {"nodes": [MAXWELL_NODES, MAXWELL_NODES]},
        "simulate": {"T": 0.1, "cfl": 0.4,
                     "pulse": {"center": [0.5, 0.5], "sigma": 0.05,
                               "components": [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]}},
        "output": {"dir": "maxwell"},
    }
    steps = (
        # the speed is bounded below, so the boundary is metrically reachable
        Step("analyze", ("analyze", "{scenario}"), "maxwell", {"non_divergent": True}),
        Step("distance_geodesic", ("distance", "{scenario}", "--mode", "geodesic"),
             "maxwell", {}),
        Step("distance_arrival", ("distance", "{scenario}", "--mode", "arrival"),
             "maxwell", {}),
        Step("simulate", ("simulate", "{scenario}"), "maxwell", {}),
    )
    return Workload("maxwell-2d", {"maxwell": doc}, steps)


def _dirac(rng: random.Random) -> Workload:
    radius = round(rng.uniform(*DIRAC_RADIUS), 6)
    w = DIRAC_HALF_WIDTH
    doc = {
        "system": {"name": "dirac", "params": {"radius": radius}},
        "domain": {"lower": [-w] * 3, "upper": [w] * 3,
                   "unbounded": ["both"] * 3},
        "grid": {"nodes": [DIRAC_NODES] * 3},
        "analysis": {"cutoffs": 12},
        "output": {"dir": "dirac"},
    }
    # acceptance criterion 11: confinement without divergence of the probes
    steps = (Step("analyze", ("analyze", "{scenario}"), "dirac",
                  {"non_divergent": True, "route": "distance to the domain boundary"}),)
    return Workload("dirac-3d", {"dirac": doc}, steps)


_GENERATORS = {"telegraph-1d": _telegraph, "maxwell-2d": _maxwell, "dirac-3d": _dirac}


def generate(workload: str, seed: int) -> Workload:
    """The workload's scenarios for this seed; the same seed gives the same inputs."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    return _GENERATORS[workload](rng)
