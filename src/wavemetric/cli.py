"""Command-line front end: scenario files, four commands, report files.

A scenario is a strict-keyed JSON document naming a system (built-in family
with parameter expressions, or a raw coefficient table), a box window with
per-axis unbounded flags, a grid resolution, optional analysis and simulation
settings, and an output directory.  The commands are

    analyze   velocity field, majorant, completeness probes -> verdict + summary
    distance  lattice geodesic or first-arrival field -> CSV
    simulate  energy-conserving pulse evolution -> log CSV + snapshots
    verify    run the registered numerical self-checks -> table on stdout

Exit codes: 0 success, 2 malformed scenario (a coefficient matrix that is not
Hermitian positive definite where it is sampled included), 3 numerical
failure, 4 verdict inconclusive under analyze --strict.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import velocity as vel
from . import verify as verify_mod
from .errors import (
    DomainEvalError,
    ExpressionError,
    MatrixError,
    ScenarioError,
    ValidationError,
    WavemetricError,
)
from .evolve import (
    DEFAULT_SUPPORT_THRESHOLD,
    gaussian_state,
    integrate,
)
from .geometry import (
    CompletenessVerdict,
    boundary_distance_probe,
    combine_classifications,
    eikonal_arrival,
    lattice_geodesic,
    metric_from_velocity,
    node_boundary_distances,
    ray_completeness,
    stencil_offsets,
)
from .grids import Grid
from .systems import (
    BoxDomain,
    CoefficientSystem,
    ConstMatrixField,
    ExprMatrixField,
    dirac_free,
    elastic,
    elastic_isotropic,
    maxwell_anisotropic,
    maxwell_isotropic,
    telegraph,
    validate_system,
)
from .velocity import VelocityField, char_speed, majorant, velocity_matrix
from .verify import DEFAULT_SEED

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_NUMERIC = 3
EXIT_INCONCLUSIVE = 4

RADIAL_OCTAVES = 12
RADIAL_PER_OCTAVE = 4
BOUNDARY_MARGIN_COUNT = 8

_UNBOUNDED_WORDS = ("none", "lower", "upper", "both")


# --- scenario parsing -------------------------------------------------------

def _check_keys(mapping, allowed, where: str) -> None:
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{where} must be an object")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ScenarioError(
            f"{where}: unknown key(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _need(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _num(value, where: str) -> float:
    """A finite number; JSON's Infinity, -Infinity and NaN, and integers past
    the float range, are scenario errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{where} must be a finite number, got {number!r}")
    return number


def _num_list(value, where: str, length: int | None = None) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{where} must be a non-empty array of numbers")
    out = [_num(v, f"{where}[{i}]") for i, v in enumerate(value)]
    if length is not None and len(out) != length:
        raise ScenarioError(f"{where} must have length {length}, got {len(out)}")
    return out


def _coeff(value, where: str, *_):
    """A coefficient entry: an expression string or a plain number."""
    if isinstance(value, str):
        from . import dsl

        dsl.parse(value)  # surfaces positioned errors now, not mid-pipeline
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where} must be an expression string or a number")
    return float(value)


def _coeff_table(value, size: int, where: str) -> list[list]:
    if not isinstance(value, list) or len(value) != size:
        raise ScenarioError(f"{where} must be a {size}x{size} table")
    out = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != size:
            raise ScenarioError(f"{where}[{i}] must have {size} entries")
        out.append([_coeff(c, f"{where}[{i}][{j}]") for j, c in enumerate(row)])
    return out


def _table3(value, where: str, *_):
    return _coeff_table(value, 3, where)


def _stiffness(value, where: str, *_):
    if not isinstance(value, list) or len(value) != 21:
        raise ScenarioError(f"{where} must list the 21 upper-triangle entries")
    return [_coeff(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _radius(value, where: str, *_):
    radius = _num(value, where)
    if not radius > 0:
        raise ScenarioError(f"{where} must be positive")
    return radius


def _component_count(value, where: str, *_):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ScenarioError(f"{where} must be a positive integer")
    return value


def _axis_tables(value, where: str, parsed: dict, d: int):
    if not isinstance(value, list) or len(value) != d:
        raise ScenarioError(f"{where} must list {d} matrices (one per axis)")
    return [_coeff_table(a, parsed["k"], f"{where}[{j}]") for j, a in enumerate(value)]


def _optional_table(value, where: str, parsed: dict, d: int):
    return None if value is None else _coeff_table(value, parsed["k"], where)


def _dirac(radius: float, domain: BoxDomain) -> CoefficientSystem:
    width = domain.upper[0]
    symmetric = all(l == -width and u == width
                    for l, u in zip(domain.lower, domain.upper))
    if not (symmetric and all(domain.unbounded_lower + domain.unbounded_upper)):
        raise ScenarioError(
            "the dirac demo needs a symmetric window (-w, w)^3 with all "
            "axes unbounded 'both'"
        )
    return dirac_free(radius=radius, half_width=width)


def _custom(k: int, A: list, E, V, domain: BoxDomain) -> CoefficientSystem:
    sys_obj = CoefficientSystem(
        domain=domain,
        k=k,
        E=ConstMatrixField(np.eye(k)) if E is None else ExprMatrixField(E),
        A=tuple(ExprMatrixField(a) for a in A),
        V=ConstMatrixField(np.zeros((k, k))) if V is None else ExprMatrixField(V),
        label="custom",
    )
    report = validate_system(sys_obj, samples=64)
    if not report.ok:
        raise ScenarioError(
            "custom system fails validation: " + "; ".join(report.issues[:3])
        )
    return sys_obj


_REQUIRED = object()


@dataclass(frozen=True)
class _Family:
    """A built-in system family: where it lives, its parameters, its factory.

    ``params`` maps each parameter, in parsing order, to its default
    (``_REQUIRED`` when it has none) and its parser, called as
    ``parse(value, where, parsed, d)`` with the parameters parsed before it.
    ``k`` is None when the ``k`` parameter gives the component count.  The
    system is ``build(**params, domain=domain)``.
    """

    dims: tuple[int, ...]
    dim_error: str
    k: int | None
    params: dict
    build: Callable[..., CoefficientSystem]


_MAXWELL_DIMS = ((2, 3), "maxwell systems need a 2- or 3-dimensional domain")
_ELASTIC_DIMS = ((1, 2, 3), "elastic systems need a 1-, 2- or 3-dimensional domain")

_FAMILIES = {
    "telegraph": _Family(
        (1,), "telegraph needs a 1-dimensional domain", 2,
        {"L": ("1", _coeff), "C": ("1", _coeff)}, telegraph),
    "maxwell_isotropic": _Family(
        *_MAXWELL_DIMS, 6,
        {"eps": ("1", _coeff), "mu": ("1", _coeff)}, maxwell_isotropic),
    "maxwell_anisotropic": _Family(
        *_MAXWELL_DIMS, 6,
        {"eps": (_REQUIRED, _table3), "mu": (_REQUIRED, _table3)},
        maxwell_anisotropic),
    "elastic_isotropic": _Family(
        *_ELASTIC_DIMS, 9,
        {"rho": ("1", _coeff), "K": ("1", _coeff), "mu": ("1", _coeff)},
        elastic_isotropic),
    "elastic": _Family(
        *_ELASTIC_DIMS, 9,
        {"stiffness": (_REQUIRED, _stiffness), "rho": ("1", _coeff)}, elastic),
    "dirac": _Family(
        (3,), "the dirac demo needs a 3-dimensional domain", 4,
        {"radius": (0.1, _radius)}, _dirac),
    "custom": _Family(
        (1, 2, 3), "custom systems need a 1-, 2- or 3-dimensional domain", None,
        {"k": (_REQUIRED, _component_count), "A": (_REQUIRED, _axis_tables),
         "E": (None, _optional_table), "V": (None, _optional_table)},
        _custom),
}


def _normalize_system(raw, d: int) -> tuple[dict, int]:
    _check_keys(raw, {"name", "params"}, "system")
    name = _need(raw, "name", "system")
    if not isinstance(name, str) or name not in _FAMILIES:
        raise ScenarioError(
            f"system.name {name!r} unknown; expected one of "
            f"{', '.join(sorted(_FAMILIES))}"
        )
    family = _FAMILIES[name]
    params = raw.get("params", {})
    _check_keys(params, family.params, f"system.params ({name})")
    if d not in family.dims:
        raise ScenarioError(family.dim_error)
    out: dict = {}
    for key, (default, parse) in family.params.items():
        value = (_need(params, key, "system.params") if default is _REQUIRED
                 else params.get(key, default))
        out[key] = parse(value, f"system.params.{key}", out, d)
    return {"name": name, "params": out}, family.k or out["k"]


def _normalize_domain(raw) -> dict:
    _check_keys(raw, {"lower", "upper", "unbounded"}, "domain")
    lower = _num_list(_need(raw, "lower", "domain"), "domain.lower")
    upper = _num_list(_need(raw, "upper", "domain"), "domain.upper", len(lower))
    words = raw.get("unbounded", ["none"] * len(lower))
    if not isinstance(words, list) or len(words) != len(lower):
        raise ScenarioError("domain.unbounded must list one flag per axis")
    for i, w in enumerate(words):
        if w not in _UNBOUNDED_WORDS:
            raise ScenarioError(
                f"domain.unbounded[{i}] must be one of {', '.join(_UNBOUNDED_WORDS)}"
            )
    for i, (lo, hi) in enumerate(zip(lower, upper)):
        if not lo < hi:
            raise ScenarioError(f"domain axis {i}: lower {lo} must be below upper {hi}")
    return {"lower": lower, "upper": upper, "unbounded": [str(w) for w in words]}


def _normalize_analysis(raw) -> dict:
    raw = raw if raw is not None else {}
    _check_keys(raw, {"delta", "cutoffs", "stencil", "criterion"}, "analysis")
    delta = _num(raw.get("delta", 0.1), "analysis.delta")
    if not 0.0 < delta < 1.0:
        raise ScenarioError("analysis.delta must lie in (0, 1)")
    cutoffs = raw.get("cutoffs", 24)
    if isinstance(cutoffs, bool) or not isinstance(cutoffs, int) or cutoffs < 4:
        raise ScenarioError("analysis.cutoffs must be an integer >= 4")
    stencil = raw.get("stencil")
    if stencil is not None and (isinstance(stencil, bool)
                                or not isinstance(stencil, int)):
        raise ScenarioError("analysis.stencil must be an integer or null")
    criterion = raw.get("criterion", "velocity")
    if criterion not in ("velocity", "symbol-norm"):
        raise ScenarioError(
            "analysis.criterion must be 'velocity' or 'symbol-norm'"
        )
    return {"delta": delta, "cutoffs": cutoffs, "stencil": stencil,
            "criterion": criterion}


def _normalize_simulate(raw, d: int, k: int, lower, upper, nodes) -> dict | None:
    if raw is None:
        return None
    _check_keys(raw, {"T", "cfl", "pulse"}, "simulate")
    T = _num(_need(raw, "T", "simulate"), "simulate.T")
    if not T > 0:
        raise ScenarioError("simulate.T must be positive")
    cfl = _num(raw.get("cfl", 0.4), "simulate.cfl")
    if not 0.0 < cfl <= 1.0:
        raise ScenarioError("simulate.cfl must lie in (0, 1]")
    pulse = _need(raw, "pulse", "simulate")
    _check_keys(pulse, {"center", "sigma", "components"}, "simulate.pulse")
    center = _num_list(_need(pulse, "center", "simulate.pulse"),
                       "simulate.pulse.center", d)
    sigma = _num(_need(pulse, "sigma", "simulate.pulse"), "simulate.pulse.sigma")
    if not sigma > 0:
        raise ScenarioError("simulate.pulse.sigma must be positive")
    comps = _num_list(_need(pulse, "components", "simulate.pulse"),
                      "simulate.pulse.components", k)
    if not any(c != 0.0 for c in comps):
        raise ScenarioError("simulate.pulse.components must not all vanish")
    # support box of the pulse must clear the grid edge by 4 nodes
    halfwidth = sigma * math.sqrt(-2.0 * math.log(DEFAULT_SUPPORT_THRESHOLD))
    for j in range(d):
        h = (upper[j] - lower[j]) / (nodes[j] + 1)
        if (center[j] - halfwidth < lower[j] + 5 * h
                or center[j] + halfwidth > upper[j] - 5 * h):
            raise ScenarioError(
                f"simulate.pulse support [{center[j] - halfwidth:.6g}, "
                f"{center[j] + halfwidth:.6g}] on axis {j + 1} comes within "
                "4 nodes of the window edge; shrink sigma or move the center"
            )
    return {"T": T, "cfl": cfl,
            "pulse": {"center": center, "sigma": sigma, "components": comps}}


def normalize_scenario(raw: dict) -> dict:
    """Validate a scenario document and fill defaults; idempotent."""
    _check_keys(raw, {"system", "domain", "grid", "analysis", "simulate",
                      "output"}, "scenario")
    domain = _normalize_domain(_need(raw, "domain", "scenario"))
    d = len(domain["lower"])
    system, k = _normalize_system(_need(raw, "system", "scenario"), d)
    grid_raw = _need(raw, "grid", "scenario")
    _check_keys(grid_raw, {"nodes"}, "grid")
    nodes_raw = _need(grid_raw, "nodes", "grid")
    if not isinstance(nodes_raw, list) or len(nodes_raw) != d:
        raise ScenarioError(f"grid.nodes must list {d} per-axis counts")
    nodes = []
    for i, n in enumerate(nodes_raw):
        if isinstance(n, bool) or not isinstance(n, int) or n < 8:
            raise ScenarioError(f"grid.nodes[{i}] must be an integer >= 8")
        nodes.append(n)
    analysis = _normalize_analysis(raw.get("analysis"))
    simulate = _normalize_simulate(raw.get("simulate"), d, k,
                                   domain["lower"], domain["upper"], nodes)
    output_raw = _need(raw, "output", "scenario")
    _check_keys(output_raw, {"dir"}, "output")
    out_dir = _need(output_raw, "dir", "output")
    if not isinstance(out_dir, str) or not out_dir:
        raise ScenarioError("output.dir must be a non-empty string")
    data = {"system": system, "domain": domain, "grid": {"nodes": nodes},
            "analysis": analysis}
    if simulate is not None:
        data["simulate"] = simulate
    data["output"] = {"dir": out_dir}
    return data


def _build_domain(dom: dict) -> BoxDomain:
    words = dom["unbounded"]
    return BoxDomain(
        lower=tuple(dom["lower"]),
        upper=tuple(dom["upper"]),
        unbounded_lower=tuple(w in ("lower", "both") for w in words),
        unbounded_upper=tuple(w in ("upper", "both") for w in words),
    )


def _build_system(data: dict) -> CoefficientSystem:
    system = data["system"]
    return _FAMILIES[system["name"]].build(**system["params"],
                                           domain=_build_domain(data["domain"]))


@dataclass
class Scenario:
    """Parsed scenario: normalized document plus built objects."""

    data: dict
    path: Path | None
    system: CoefficientSystem
    grid: Grid

    @classmethod
    def from_dict(cls, raw: dict, path: Path | None = None) -> "Scenario":
        data = normalize_scenario(raw)
        system = _build_system(data)
        grid = Grid(system.domain, tuple(data["grid"]["nodes"]))
        return cls(data, path, system, grid)

    @classmethod
    def from_file(cls, path) -> "Scenario":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ScenarioError("scenario root must be a JSON object")
        return cls.from_dict(raw, path)

    @property
    def analysis(self) -> dict:
        return self.data["analysis"]

    @property
    def simulate(self) -> dict | None:
        return self.data.get("simulate")

    @property
    def output_dir(self) -> Path:
        return Path(self.data["output"]["dir"])

    def ensure_output_dir(self) -> Path:
        out = self.output_dir
        out.mkdir(parents=True, exist_ok=True)
        return out


# --- analyze ----------------------------------------------------------------

def _probe_point(scn: Scenario, bdist: np.ndarray) -> np.ndarray:
    """Interior reference point: the pulse center, else the deepest node by
    the grid's node boundary distances ``bdist``."""
    sim = scn.simulate
    if sim is not None:
        p = np.asarray(sim["pulse"]["center"], dtype=float)
        if scn.system.domain.contains(p, strict=True):
            return p
    if np.isfinite(bdist).any():
        masked = np.where(np.isfinite(bdist), bdist, -np.inf)
        idx = np.unravel_index(int(np.argmax(masked)), scn.grid.shape)
        return scn.grid.node_coords(idx)
    return scn.grid.node_coords(scn.grid.nearest_node(scn.system.domain.center()))


def _axis_speed(sys: CoefficientSystem, criterion: str):
    """Speed profile along the (1-D) axis per the criterion flag, at an array of points."""
    if criterion == "velocity":
        return lambda x: np.sqrt(np.maximum(velocity_matrix(sys, x[..., None])[..., 0, 0], 0.0))
    return lambda x: char_speed(sys, x[..., None], [1.0])


def _ray_routes(scn: Scenario) -> list[CompletenessVerdict]:
    dom = scn.system.domain
    crit = scn.analysis["criterion"]
    speed = _axis_speed(scn.system, crit)
    anchor = 0.5 * (dom.lower[0] + dom.upper[0])
    ends = (("lower", dom.unbounded_lower[0], dom.lower[0], -1.0),
            ("upper", dom.unbounded_upper[0], dom.upper[0], 1.0))
    return [
        ray_completeness(
            lambda t, sign=sign: speed(anchor + sign * t), 0.0, abs(end - anchor),
            n_cutoffs=scn.analysis["cutoffs"], criterion=f"ray-quadrature/{crit}",
            extra_parameters={"route": f"{name} end of axis 1"},
        )
        for name, unbounded, end, sign in ends if not unbounded
    ]


def _radial_route(scn: Scenario) -> CompletenessVerdict:
    sys_obj = scn.system
    dom = sys_obj.domain
    half = [0.5 * (u - l) for l, u in zip(dom.lower, dom.upper)]
    r0 = 0.25 * min(half)
    if dom.excluded_ball is not None:
        r0 = max(r0, 1.05 * dom.excluded_ball[1])
    n_r = RADIAL_OCTAVES * RADIAL_PER_OCTAVE + 1
    radii = r0 * 2.0 ** (np.arange(n_r) / RADIAL_PER_OCTAVE)
    center = dom.center() if dom.excluded_ball is None else np.asarray(
        dom.excluded_ball[0], dtype=float
    )
    env = vel.radial_envelope(sys_obj, radii, center=center)
    floor = 1e-12 * max(float(env.max()), 1e-300)
    env = np.maximum(env, floor)
    return ray_completeness(
        lambda t: np.interp(t, radii, env),
        r0, math.inf,
        n_cutoffs=min(scn.analysis["cutoffs"], RADIAL_OCTAVES),
        criterion="radial-envelope",
        extra_parameters={"route": "radial growth toward infinity",
                          "sampled_radii": [float(radii[0]), float(radii[-1])]},
    )


def _stencil(scn: Scenario) -> int | None:
    """analysis.stencil, checked against the lattice stencils of the grid's dimension."""
    try:
        stencil_offsets(scn.grid.d, scn.analysis["stencil"])
    except ValueError as exc:
        raise ScenarioError(f"analysis.stencil: {exc}") from None
    return scn.analysis["stencil"]


def _boundary_route(scn: Scenario, fld: VelocityField, stencil: int | None,
                    notes: list[str]) -> CompletenessVerdict:
    grid = scn.grid
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        metric = metric_from_velocity(fld)
    notes.extend(str(w.message) for w in caught)
    bdist = node_boundary_distances(grid)
    deepest = float(bdist[np.isfinite(bdist)].max())
    hmax = float(max(grid.spacing))
    m0 = 0.5 * deepest
    m1 = max(1.5 * hmax, deepest / 256.0)
    if m1 >= 0.5 * m0:
        return CompletenessVerdict(
            "inconclusive", "boundary-distance", [], [],
            {"route": "distance to the window boundary",
             "diagnostic": "grid too coarse to shrink boundary margins"},
        )
    margins = np.geomspace(m0, m1, BOUNDARY_MARGIN_COUNT)
    probe = _probe_point(scn, bdist)
    _, verdict = boundary_distance_probe(metric, probe, margins, stencil=stencil)
    verdict.parameters["route"] = "distance to the domain boundary"
    return verdict


_EXPLANATIONS = {
    "certified-divergent": (
        "every probed escape route has a divergent completeness integral: "
        "the boundary is metrically out of reach and disturbances stay "
        "confined."
    ),
    "likely-divergent": (
        "the completeness integrals grow without a detected limit, "
        "consistent with confinement, but the growth law is not clean "
        "enough to certify."
    ),
    "likely-convergent": (
        "at least one escape route shows a finite completeness integral: "
        "the boundary (or infinity) appears metrically reachable."
    ),
    "inconclusive": (
        "the probes did not settle on a growth law at this resolution."
    ),
}

_SUFFICIENCY_NOTE = (
    "note: divergence of these integrals is a sufficient condition for "
    "confinement, not a necessary one; a non-divergent probe leaves the "
    "outcome open instead of refuting it (the free Dirac demo is the "
    "standard example of confinement without divergence)."
)


def cmd_analyze(scn: Scenario, seed: int = DEFAULT_SEED,
                strict: bool = False) -> int:
    """Velocity field, majorant, completeness probes, verdict, summary."""
    sys_obj = scn.system
    dom = sys_obj.domain
    rays = dom.d == 1 and dom.excluded_ball is None
    stencil = _stencil(scn) if dom.has_finite_boundary() and not rays else None
    out = scn.ensure_output_dir()
    notes: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fld = VelocityField.from_system(sys_obj, scn.grid)
        fld = majorant(fld, scn.analysis["delta"])
    notes.extend(str(w.message) for w in caught)
    vel.to_csv(fld, out / "velocity.csv")

    routes: list[CompletenessVerdict] = []
    if dom.fully_unbounded:
        routes.append(_radial_route(scn))
    if dom.has_finite_boundary():
        if rays:
            routes.extend(_ray_routes(scn))
        else:
            routes.append(_boundary_route(scn, fld, stencil, notes))
    if not dom.fully_unbounded and any(dom.unbounded_lower + dom.unbounded_upper):
        notes.append(
            "escape toward infinity along the unbounded axes was not probed; "
            "the verdict covers the finite boundary only"
        )

    overall = combine_classifications([v.classification for v in routes])
    deciders = [v for v in routes if v.classification == overall]

    speed_hi = math.sqrt(max(float(fld.lam_max.max()), 0.0))
    payload = {
        "classification": overall,
        "criterion": "weakest-route",
        "routes": [v.to_json() for v in routes],
        "parameters": {
            "seed": int(seed),
            "system": sys_obj.label or scn.data["system"]["name"],
            "nodes": list(scn.grid.shape),
            "delta": scn.analysis["delta"],
            "delta_effective": fld.delta,
            "criterion": scn.analysis["criterion"],
            "stencil": scn.analysis["stencil"],
            "max_speed": speed_hi,
        },
    }
    (out / "verdict.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    lines = [
        "completeness analysis",
        "=====================",
        f"system: {sys_obj.label or scn.data['system']['name']} "
        f"(k={sys_obj.k}, d={sys_obj.d})",
        f"grid: {' x '.join(str(n) for n in scn.grid.shape)} nodes on "
        f"{_window_text(dom)}",
        f"largest sampled speed: {speed_hi:.6g}; majorant slack: "
        f"{fld.delta:g} (requested {scn.analysis['delta']:g})",
        "",
        "escape routes:",
    ]
    for v in routes:
        name = v.parameters.get("route", v.criterion)
        extra = ""
        if "limit_estimate" in v.parameters:
            extra = f" (limit estimate {v.parameters['limit_estimate']:.6g})"
        elif "tail_exponent" in v.parameters:
            extra = f" (tail exponent {v.parameters['tail_exponent']:.3g})"
        lines.append(f"  - {name}: {v.classification}{extra}")
    lines += [
        "",
        f"overall: {overall}",
        f"decided by: {', '.join(v.parameters.get('route', v.criterion) for v in deciders)}",
        _EXPLANATIONS[overall],
    ]
    if overall in ("likely-convergent", "inconclusive"):
        lines.append(_SUFFICIENCY_NOTE)
    for n in notes:
        lines.append(f"note: {n}")
    lines.append(f"seed: {int(seed)}")
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    print(f"overall: {overall} -> {out / 'verdict.json'}")
    if strict and overall == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _window_text(dom: BoxDomain) -> str:
    parts = []
    for j in range(dom.d):
        lo = "-inf" if dom.unbounded_lower[j] else f"{dom.lower[j]:g}"
        hi = "inf" if dom.unbounded_upper[j] else f"{dom.upper[j]:g}"
        parts.append(f"({lo}, {hi})")
    text = " x ".join(parts)
    if dom.excluded_ball is not None:
        center, radius = dom.excluded_ball
        text += f" minus ball(center {tuple(center)}, radius {radius:g})"
    return text


# --- distance ---------------------------------------------------------------

def cmd_distance(scn: Scenario, mode: str = "geodesic") -> int:
    """Geodesic distance or first-arrival time from a source node."""
    stencil = _stencil(scn)
    out = scn.ensure_output_dir()
    src = scn.grid.nearest_node(_probe_point(scn, node_boundary_distances(scn.grid)))
    if mode == "geodesic":
        fld = majorant(VelocityField.from_system(scn.system, scn.grid),
                       scn.analysis["delta"])
        metric = metric_from_velocity(fld)
        dist = lattice_geodesic(metric, [src], stencil=stencil)
    elif mode == "arrival":
        fld = VelocityField.from_system(scn.system, scn.grid)
        dist = eikonal_arrival(scn.grid, fld, [src], stencil=stencil)
    else:
        raise ScenarioError(f"unknown distance mode {mode!r}")
    dist.to_csv(out / "distance.csv")
    finite = dist.values[np.isfinite(dist.values)]
    print(
        f"{mode} field from node {src}: max finite value "
        f"{float(finite.max()):.6g} -> {out / 'distance.csv'}"
    )
    return EXIT_OK


# --- simulate ---------------------------------------------------------------

def cmd_simulate(scn: Scenario, method: str = "rk4") -> int:
    """Integrate the pulse from the scenario and write log plus snapshots."""
    sim = scn.simulate
    if sim is None:
        raise ScenarioError("scenario has no simulate section")
    out = scn.ensure_output_dir()
    pulse = sim["pulse"]
    state0 = gaussian_state(scn.grid, pulse["components"], pulse["center"],
                            pulse["sigma"])
    final, log = integrate(scn.system, state0, sim["T"], cfl=sim["cfl"],
                           method=method)
    log.to_csv(out / "evolution.csv")
    state0.to_csv(out / "state_initial.csv")
    final.to_csv(out / "state_final.csv")
    drift = abs(log.energies[-1] / log.energies[0] - 1.0)
    print(
        f"{log.steps} steps of {method}, dt={log.dt:.6g}; relative energy "
        f"drift {drift:.3e} -> {out / 'evolution.csv'}"
    )
    if log.contaminated:
        print("warning: support reached the window edge; late-time data is "
              "boundary-contaminated", file=sys.stderr)
    return EXIT_OK


# --- verify -----------------------------------------------------------------

def cmd_verify(pattern: str | None = None, seed: int = DEFAULT_SEED) -> int:
    """Run registered self-checks and print the residual table."""
    import re

    try:
        results = verify_mod.run_checks(pattern, seed=seed)
    except re.error as exc:
        print(f"bad --filter regex: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    if not results:
        print(f"no checks match filter {pattern!r}", file=sys.stderr)
        return EXIT_SCENARIO
    print(verify_mod.format_table(results))
    if any(r.status == "fail" for r in results):
        return EXIT_NUMERIC
    return EXIT_OK


# --- entry point ------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of verify's draws, recorded by analyze (default 0x5eed)")
    p = argparse.ArgumentParser(
        prog="wavemetric",
        description="velocity-matrix completeness analysis and wave evolution",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", parents=[common],
                        help="completeness probes and verdict")
    pa.add_argument("scenario", help="scenario JSON file")
    pa.add_argument("--strict", action="store_true",
                    help="exit 4 when the verdict is inconclusive")

    pd = sub.add_parser("distance", help="distance or arrival field CSV")
    pd.add_argument("scenario", help="scenario JSON file")
    pd.add_argument("--mode", choices=("geodesic", "arrival"),
                    default="geodesic")

    ps = sub.add_parser("simulate", help="pulse evolution log and snapshots")
    ps.add_argument("scenario", help="scenario JSON file")
    ps.add_argument("--method", choices=("rk4", "midpoint"), default="rk4")

    pv = sub.add_parser("verify", parents=[common],
                        help="run numerical self-checks")
    pv.add_argument("--filter", default=None, metavar="RE",
                    help="run only checks whose id matches the regex")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args.filter, seed=args.seed)
    path = Path(args.scenario)
    try:
        scn = Scenario.from_file(path)
    except (ScenarioError, ExpressionError, DomainEvalError, ValidationError, OSError) as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    try:
        if args.command == "analyze":
            return cmd_analyze(scn, seed=args.seed, strict=args.strict)
        if args.command == "distance":
            return cmd_distance(scn, mode=args.mode)
        return cmd_simulate(scn, method=args.method)
    except (ScenarioError, MatrixError) as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except (WavemetricError, ValueError) as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
