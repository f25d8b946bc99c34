"""Per-layer tracing, installed from outside the program.

Each traced name is a function or method of one ``wavemetric`` module, all
public but one.  It is wrapped in a span and patched wherever a caller looks it up: in the
defining module, in every ``wavemetric`` module that imported it by name, or
on its class.  A span's self time is its duration minus the time of the spans
it encloses; the root span of each CLI command therefore holds the time no
layer covers.  A traced name that no longer exists leaves its metric absent.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "wavemetric"


class Tracer:
    """Nested spans and counters, kept in memory for one traced pass."""

    def __init__(self):
        self._stack: list[list[float]] = []   # [start, time of enclosed spans]
        self.command: str | None = None
        self.self_s: dict = defaultdict(float)   # (layer, command) -> s
        self.calls: dict = defaultdict(int)      # layer -> spans closed
        self.counts: dict = defaultdict(float)   # counter -> value
        self.wall_s: dict = defaultdict(float)   # command -> traced wall s
        self.hook_s: dict = defaultdict(float)   # command -> s spent counting
        self.broken: set[str] = set()            # layers whose hooks failed

    def enter(self) -> None:
        self._stack.append([time.perf_counter(), 0.0])

    def leave(self, layer: str) -> float:
        end = time.perf_counter()
        start, enclosed = self._stack.pop()
        duration = end - start
        self.self_s[(layer, self.command)] += duration - enclosed
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def run_hook(self, layer: str, hook, *args):
        """Run a counting hook; its time is charged to no layer.

        A hook that fails, say because a refactor renamed what it reads,
        leaves the layer's counters absent instead of failing the command.
        """
        start = time.perf_counter()
        try:
            return hook(self, *args)
        except Exception:  # the program's own errors never pass through hooks
            self.broken.add(layer)
            return None
        finally:
            spent = time.perf_counter() - start
            self.hook_s[self.command] += spent
            if self._stack:
                self._stack[-1][1] += spent

    def command_span(self, command: str, fn, *args):
        """Run one CLI command as the root span; returns fn's result."""
        self.command = command
        self.enter()
        try:
            return fn(*args)
        finally:
            self.wall_s[command] += self.leave("cmd." + command)
            self.command = None

    @property
    def balanced(self) -> bool:
        return not self._stack

    def layer_self(self, layer: str, command: str | None = None) -> float:
        return sum(v for (lay, cmd), v in self.self_s.items()
                   if lay == layer and (command is None or cmd == command))


def _wrap(fn, layer: str, tracer: Tracer, before=None, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            args, kwargs = tracer.run_hook(layer, before, args, kwargs) or (args, kwargs)
        tracer.enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(layer)
        if after is not None:
            tracer.run_hook(layer, after, args, kwargs, result)
        return result

    return traced


# --- counting hooks ---------------------------------------------------------

def _path_arg(args, kwargs):
    return kwargs.get("path", args[-1] if args else None)


def _csv_bytes(counter):
    def hook(tracer, args, kwargs, result):
        tracer.counts[counter] += os.path.getsize(_path_arg(args, kwargs))
    return hook


def _slack_doublings(tracer, args, kwargs, result):
    requested = kwargs.get("delta", args[1] if len(args) > 1 else None)
    tracer.counts["velocity.slack_doublings"] += round(
        math.log2(result.delta / requested))


def _graph_size(tracer, args, kwargs, result):
    """Nodes and directed edges of the lattice graph behind a distance field.

    Counted from the stencil, the grid and the excluded ball: an edge exists
    when both ends are on the grid and its head node is passable.
    """
    import numpy as np

    geometry = sys.modules[PACKAGE + ".geometry"]
    grid = result.grid
    _, offsets = geometry.stencil_offsets(grid.d, result.stencil)
    passable = np.ones(grid.shape, dtype=bool)
    ball = grid.domain.excluded_ball
    if ball is not None:
        center, radius = ball
        passable = np.linalg.norm(grid.coords() - np.asarray(center), axis=-1) > radius
    edges = 0
    for off in offsets:
        heads = tuple(slice(o, None) if o > 0 else slice(None, n + o) if o < 0
                      else slice(None) for o, n in zip(off, grid.shape))
        edges += int(passable[heads].sum())
    tracer.counts["geometry.graph_nodes"] += int(passable.sum())
    tracer.counts["geometry.graph_edges"] += edges


def _count_integrand(tracer, args, kwargs):
    """Count the ray integrand's speed evaluations by wrapping the callable."""
    def counted(speed):
        if not callable(speed):
            return speed

        def s(t):
            tracer.counts["geometry.ray_integrand_evals"] += 1
            return speed(t)
        return s

    if "speed" in kwargs:
        kwargs = dict(kwargs, speed=counted(kwargs["speed"]))
    elif args:
        args = (counted(args[0]),) + tuple(args[1:])
    return args, kwargs


def _apply_bytes(tracer, args, kwargs, result):
    # computed, not measured: the state read plus the state written
    tracer.counts["evolve.apply_bytes_computed"] += args[1].nbytes + result.nbytes


def _evolution(tracer, args, kwargs, result):
    _, log = result
    tracer.counts["evolve.steps"] += log.steps
    drift = abs(log.energies[-1] / log.energies[0] - 1.0)
    tracer.counts["evolve.energy_drift"] = max(tracer.counts["evolve.energy_drift"], drift)


# --- what is traced ---------------------------------------------------------

@dataclass(frozen=True)
class Target:
    layer: str
    module: str       # submodule of the package
    name: str         # "func", "Class.method", or "Base+.method" for subclasses
    before: object = None
    after: object = None


TARGETS = (
    Target("cli.scenario", "cli", "Scenario.from_file"),
    Target("dsl.eval", "dsl", "eval_expr"),
    Target("systems.canonicalize", "systems", "canonicalize"),
    Target("systems.sample", "systems", "MatrixField+.on_grid"),
    Target("velocity.pointwise", "velocity", "velocity_matrix"),
    Target("velocity.pointwise", "velocity", "velocity_matrix_structured"),
    Target("velocity.pointwise", "velocity", "char_speed"),
    Target("velocity.pointwise", "velocity", "chernoff_c"),
    Target("velocity.pointwise", "velocity", "fattorini_r"),
    Target("velocity.field", "velocity", "VelocityField.from_system"),
    Target("velocity.majorant", "velocity", "majorant", after=_slack_doublings),
    Target("velocity.radial", "velocity", "radial_envelope"),
    Target("velocity.csv", "velocity", "to_csv", after=_csv_bytes("velocity.csv_bytes")),
    Target("geometry.metric", "geometry", "metric_from_velocity"),
    Target("geometry.shortest_path", "geometry", "lattice_geodesic", after=_graph_size),
    Target("geometry.shortest_path", "geometry", "eikonal_arrival", after=_graph_size),
    Target("geometry.probe", "geometry", "boundary_distance_probe"),
    Target("geometry.ray_quad", "geometry", "ray_completeness", before=_count_integrand),
    Target("geometry.csv", "geometry", "DistanceField.to_csv",
           after=_csv_bytes("geometry.csv_bytes")),
    Target("evolve.cfl", "evolve", "cfl_dt"),
    Target("evolve.operator_build", "evolve", "DiscreteOperator.__init__"),
    Target("evolve.apply", "evolve", "DiscreteOperator.apply", after=_apply_bytes),
    Target("evolve.record", "evolve", "DiscreteOperator.density"),
    Target("evolve.record", "evolve", "EvolutionLog.append"),
    # private, so it may go; record_s then covers the two methods above only
    Target("evolve.record", "evolve", "_support_extent"),
    Target("evolve.loop", "evolve", "integrate", after=_evolution),
    Target("evolve.csv", "evolve", "EvolutionLog.to_csv",
           after=_csv_bytes("evolve.csv_bytes")),
    Target("evolve.csv", "evolve", "WaveState.to_csv",
           after=_csv_bytes("evolve.csv_bytes")),
)


def package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def _classes(module, name: str) -> list[type]:
    """The named class, or with a trailing '+' it and its subclasses in module."""
    if not name.endswith("+"):
        cls = getattr(module, name, None)
        return [cls] if isinstance(cls, type) else []
    base = getattr(module, name[:-1], None)
    if not isinstance(base, type):
        return []
    return [c for c in vars(module).values()
            if isinstance(c, type) and issubclass(c, base)]


def install(tracer: Tracer, targets=TARGETS):
    """Patch every target; returns (undo callable, layers left untraced)."""
    undo: list[tuple[object, str, object]] = []
    found: set[str] = set()

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                     else getattr(owner, attr)))
        setattr(owner, attr, new)

    for t in targets:
        try:
            module = importlib.import_module(f"{PACKAGE}.{t.module}")
        except ImportError:
            continue
        owner_name, _, attr = t.name.rpartition(".")
        if not owner_name:
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            wrapped = _wrap(fn, t.layer, tracer, t.before, t.after)
            for mod in package_modules():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        patch(mod, key, wrapped)
            found.add(t.layer)
            continue
        for cls in _classes(module, owner_name):
            raw = cls.__dict__.get(attr)
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(_wrap(raw.__func__, t.layer, tracer, t.before, t.after))
            elif callable(raw):
                new = _wrap(raw, t.layer, tracer, t.before, t.after)
            else:
                continue
            patch(cls, attr, new)
            found.add(t.layer)

    def uninstall():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    missing = sorted({t.layer for t in targets} - found)
    return uninstall, missing


# --- per-layer metrics ------------------------------------------------------

# metric -> (layer it needs, unit, how it is read from the tracer)
SELF_TIME = "self"     # summed self time of the layer's spans
CALLS = "calls"        # spans closed
COUNT = "count"        # a counter set by a hook

METRICS = {
    "cli.scenario_s": ("cli.scenario", "s", SELF_TIME),
    "dsl.eval_calls": ("dsl.eval", "count", CALLS),
    "dsl.eval_s": ("dsl.eval", "s", SELF_TIME),
    "systems.canonicalize_calls": ("systems.canonicalize", "count", CALLS),
    "systems.canonicalize_s": ("systems.canonicalize", "s", SELF_TIME),
    "systems.sample_s": ("systems.sample", "s", SELF_TIME),
    "velocity.pointwise_calls": ("velocity.pointwise", "count", CALLS),
    "velocity.pointwise_s": ("velocity.pointwise", "s", SELF_TIME),
    "velocity.field_s": ("velocity.field", "s", SELF_TIME),
    "velocity.majorant_s": ("velocity.majorant", "s", SELF_TIME),
    "velocity.slack_doublings": ("velocity.majorant", "count", COUNT),
    "velocity.radial_s": ("velocity.radial", "s", SELF_TIME),
    "velocity.csv_s": ("velocity.csv", "s", SELF_TIME),
    "velocity.csv_bytes": ("velocity.csv", "B", COUNT),
    "geometry.metric_s": ("geometry.metric", "s", SELF_TIME),
    "geometry.shortest_path_calls": ("geometry.shortest_path", "count", CALLS),
    "geometry.shortest_path_s": ("geometry.shortest_path", "s", SELF_TIME),
    "geometry.graph_nodes": ("geometry.shortest_path", "count", COUNT),
    "geometry.graph_edges": ("geometry.shortest_path", "count", COUNT),
    "geometry.probe_self_s": ("geometry.probe", "s", SELF_TIME),
    "geometry.ray_quad_self_s": ("geometry.ray_quad", "s", SELF_TIME),
    "geometry.ray_integrand_evals": ("geometry.ray_quad", "count", COUNT),
    "geometry.csv_s": ("geometry.csv", "s", SELF_TIME),
    "geometry.csv_bytes": ("geometry.csv", "B", COUNT),
    "evolve.cfl_s": ("evolve.cfl", "s", SELF_TIME),
    "evolve.operator_build_s": ("evolve.operator_build", "s", SELF_TIME),
    "evolve.steps": ("evolve.loop", "count", COUNT),
    "evolve.matvecs": ("evolve.apply", "count", CALLS),
    "evolve.apply_s": ("evolve.apply", "s", SELF_TIME),
    "evolve.apply_bytes_computed": ("evolve.apply", "B", COUNT),
    "evolve.record_s": ("evolve.record", "s", SELF_TIME),
    "evolve.loop_self_s": ("evolve.loop", "s", SELF_TIME),
    "evolve.csv_s": ("evolve.csv", "s", SELF_TIME),
    "evolve.csv_bytes": ("evolve.csv", "B", COUNT),
    "evolve.energy_drift": ("evolve.loop", "ratio", COUNT),
}


def layer_metrics(tracer: Tracer, missing) -> dict:
    """Every per-layer metric whose layer was traced: name -> (value, unit)."""
    out = {}
    for name, (layer, unit, kind) in METRICS.items():
        if layer in missing:
            continue
        if kind == SELF_TIME:
            value = tracer.layer_self(layer)
        elif kind == CALLS:
            value = tracer.calls[layer]
        elif layer in tracer.broken:
            continue
        else:
            value = tracer.counts[name]
        out[name] = (value, unit)
    if "geometry.graph_edges" in out:
        busy = out["geometry.shortest_path_s"][0]
        edges = out["geometry.graph_edges"][0]
        out["geometry.edges_per_s"] = (edges / busy if busy > 0 else 0.0, "1/s")
    return out
