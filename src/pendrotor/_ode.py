"""Adaptive Dormand-Prince 5(4) integrator specialized to the inner flow.

State vector y = (I, phi, E) where E accumulates the explicit time
derivative of the restricted Hamiltonian (energy-balance quadrature):

    dI/dt   = eps * (a1 sin(phi) + r a2 sin(r phi - s))
    dphi/dt = I
    dE/dt   = eps * a2 sin(r phi - s),        s = s0 + t.

The stepper clips steps onto requested output times, so states at arbitrary
times come out at full integration accuracy (no interpolation error).
"""

from __future__ import annotations

import math

ODE_OK = 0
ODE_STEPFAIL = 1

# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (19372.0 / 6561.0, -25360.0 / 2187.0,
                          64448.0 / 6561.0, -212.0 / 729.0)
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0,
                                46732.0 / 5247.0, 49.0 / 176.0,
                                -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0,
                           -2187.0 / 6784.0, 11.0 / 84.0)
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0,
                                71.0 / 1920.0, -17253.0 / 339200.0,
                                22.0 / 525.0, -1.0 / 40.0)


def _rhs(t, y0, y1, s0, eps, a1, a2, r):
    psi = r * y1 - (s0 + t)
    f0 = eps * (a1 * math.sin(y1) + r * a2 * math.sin(psi))
    f1 = y0
    f2 = eps * a2 * math.sin(psi)
    return f0, f1, f2


def integrate_inner(y0, y1, y2, s0, t0, t1, eps, a1, a2, r, rtol, atol):
    """Advance (I, phi, E) from t0 to t1.  Returns (I, phi, E, nsteps, status)."""
    t = t0
    direction = 1.0 if t1 >= t0 else -1.0
    span = abs(t1 - t0)
    if span == 0.0:
        return y0, y1, y2, 0, ODE_OK
    if eps == 0.0:
        # integrable limit: I constant, phi advances linearly
        return y0, y1 + y0 * (t1 - t0), y2, 0, ODE_OK
    h = direction * min(0.1, span)
    k10, k11, k12 = _rhs(t, y0, y1, s0, eps, a1, a2, r)
    nsteps = 0
    while True:
        if direction * (t1 - t) <= 0.0:
            return y0, y1, y2, nsteps, ODE_OK
        if direction * (t + h - t1) > 0.0:
            h = t1 - t
        # stages
        w0 = y0 + h * _A21 * k10
        w1 = y1 + h * _A21 * k11
        k20, k21, k22 = _rhs(t + _C2 * h, w0, w1, s0, eps, a1, a2, r)
        w0 = y0 + h * (_A31 * k10 + _A32 * k20)
        w1 = y1 + h * (_A31 * k11 + _A32 * k21)
        k30, k31, k32 = _rhs(t + _C3 * h, w0, w1, s0, eps, a1, a2, r)
        w0 = y0 + h * (_A41 * k10 + _A42 * k20 + _A43 * k30)
        w1 = y1 + h * (_A41 * k11 + _A42 * k21 + _A43 * k31)
        k40, k41, k42 = _rhs(t + _C4 * h, w0, w1, s0, eps, a1, a2, r)
        w0 = y0 + h * (_A51 * k10 + _A52 * k20 + _A53 * k30 + _A54 * k40)
        w1 = y1 + h * (_A51 * k11 + _A52 * k21 + _A53 * k31 + _A54 * k41)
        k50, k51, k52 = _rhs(t + _C5 * h, w0, w1, s0, eps, a1, a2, r)
        w0 = y0 + h * (_A61 * k10 + _A62 * k20 + _A63 * k30 + _A64 * k40 + _A65 * k50)
        w1 = y1 + h * (_A61 * k11 + _A62 * k21 + _A63 * k31 + _A64 * k41 + _A65 * k51)
        k60, k61, k62 = _rhs(t + h, w0, w1, s0, eps, a1, a2, r)
        z0 = y0 + h * (_B1 * k10 + _B3 * k30 + _B4 * k40 + _B5 * k50 + _B6 * k60)
        z1 = y1 + h * (_B1 * k11 + _B3 * k31 + _B4 * k41 + _B5 * k51 + _B6 * k61)
        z2 = y2 + h * (_B1 * k12 + _B3 * k32 + _B4 * k42 + _B5 * k52 + _B6 * k62)
        k70, k71, k72 = _rhs(t + h, z0, z1, s0, eps, a1, a2, r)
        # embedded error estimate
        e0 = h * (_E1 * k10 + _E3 * k30 + _E4 * k40 + _E5 * k50 + _E6 * k60 + _E7 * k70)
        e1 = h * (_E1 * k11 + _E3 * k31 + _E4 * k41 + _E5 * k51 + _E6 * k61 + _E7 * k71)
        e2 = h * (_E1 * k12 + _E3 * k32 + _E4 * k42 + _E5 * k52 + _E6 * k62 + _E7 * k72)
        s0c = atol + rtol * max(abs(y0), abs(z0))
        s1c = atol + rtol * max(abs(y1), abs(z1))
        s2c = atol + rtol * max(abs(y2), abs(z2))
        err = math.sqrt(((e0 / s0c) ** 2 + (e1 / s1c) ** 2 + (e2 / s2c) ** 2) / 3.0)
        if err <= 1.0:
            t = t + h
            y0, y1, y2 = z0, z1, z2
            k10, k11, k12 = k70, k71, k72  # FSAL
            nsteps += 1
            fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h = h * fac
        else:
            h = h * max(0.2, 0.9 * err ** -0.2)
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            return y0, y1, y2, nsteps, ODE_STEPFAIL
