"""The full-generator stepper, for the tests only.

``full_evolution`` steps every component of the state with the whole
generator G, each product on the state array reshaped to (rows, columns):
``(n, 1)`` for a real or complex state, ``(n, 2)`` for the float64 pairs of
a complex state on a real G.  RK4 is Horner's rule written out of place,
``x + (dt/j) G w``, with R(dt G) assembled for 1-D grids.  It has the
signature and the yields of ``wavemetric.evolve._evolution``, which the
tests hold to it bit for bit.
"""

import math

import numpy as np

from wavemetric import evolve as ev
from wavemetric.errors import InstabilityError


def _product(matrix, values):
    return (matrix @ values.reshape(matrix.shape[1], -1)).reshape(values.shape)


def _rk4_polynomial(apply, x, dt):
    w = x
    for j in (4, 3, 2, 1):
        w = x + (dt / j) * apply(w)
    return w


def _rk4(op, dt):
    G = op.generator
    if op.grid.d == 1:
        from scipy import sparse
        eye = sparse.eye_array(G.shape[0], dtype=G.dtype, format="csr")
        step = _rk4_polynomial(lambda w: G @ w, eye, dt)
        return lambda values: _product(step, values)
    return lambda values: _rk4_polynomial(lambda w: _product(G, w), values, dt)


def _midpoint(op, dt):
    G = op.generator

    def step(values):
        y = values + dt * _product(G, values)
        tol = ev.MIDPOINT_TOL * max(1.0, float(np.abs(values).max()))
        for _ in range(ev.MIDPOINT_MAX_ITER):
            y_new = values + dt * _product(G, 0.5 * (values + y))
            gap = float(np.abs(y_new - y).max())
            y = y_new
            if gap <= tol:
                return y
        raise ev.ConvergenceError("midpoint stalled")
    return step


def full_evolution(sys, state0, T, cfl, threshold, method, order, dt):
    ev._check_grid(sys, state0.grid, order)
    if dt is None:
        dt = ev.cfl_dt(sys, state0.grid, cfl)
    steps = max(1, int(math.ceil(T / dt - 1e-12)))
    dt = T / steps
    op = ev.DiscreteOperator(sys, state0.grid, order)
    step = {"rk4": _rk4, "midpoint": _midpoint}[method](op, dt)

    def states():
        values = state0.values
        real_g = op.generator.dtype.kind == "f"
        pairs = real_g and values.imag.any()
        if pairs:
            values = np.ascontiguousarray(values).view(np.float64).reshape(values.shape + (2,))
        elif real_g:
            values = values.real.copy()
        yield 0, state0.t, state0.values if pairs else values
        for i in range(1, steps + 1):
            values = step(values)
            t = state0.t + i * dt
            if not np.all(np.isfinite(values)):
                raise InstabilityError(i, t, "")
            yield i, t, values.view(np.complex128)[..., 0] if pairs else values

    return op, dt, steps, states()
