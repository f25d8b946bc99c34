"""Velocity-matrix metrics, completeness probes, and wave evolution.

The package models first-order symmetric hyperbolic systems with a weight
matrix, extracts the quadratic form giving local propagation speeds, builds
Riemannian metrics from it, probes metric completeness with lattice shortest
paths and ray integrals, and evolves wave pulses to compare analytic bounds
against observed fronts.

The names live in the submodules (``systems``, ``grids``, ``velocity``,
``geometry``, ``evolve``, ``verify``, ``errors``); the package root imports
none of them, so a command loads only the modules it runs.
"""

__version__ = "0.1.0"
