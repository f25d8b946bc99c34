"""Grids whose end nodes lie on the edges of a window.

A grid puts its n nodes per axis strictly inside its window, with spacing
extent/(n+1).  On the window widened by h = extent/(n-1) on each side, the
n nodes run from the window's lower edge to its upper edge with spacing h.
"""

from dataclasses import replace

from wavemetric import grids


def closure_grid(domain, shape) -> grids.Grid:
    """Nodes from ``domain.lower`` to ``domain.upper``: the grid of ``shape``
    on the domain widened by one spacing, its flags and ball kept."""
    h = [(hi - lo) / (n - 1) for lo, hi, n in zip(domain.lower, domain.upper, shape)]
    wide = replace(domain, lower=tuple(lo - s for lo, s in zip(domain.lower, h)),
                   upper=tuple(hi + s for hi, s in zip(domain.upper, h)))
    return grids.Grid(wide, shape)
