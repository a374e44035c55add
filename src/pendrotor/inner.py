"""Inner dynamics on the invariant cylinder p = q = 0.

The restriction of the Hamiltonian to the cylinder is

    K(I, phi, s) = I^2/2 + eps (a1 cos(phi) + a2 cos(r phi - s)),
    phi' = I,  s' = 1,  I' = eps (a1 sin(phi) + r a2 sin(r phi - s)),

with first-order resonances at I = 0 and I = 1/r.  Inside bands of
half-width ``resonance_half_width`` around them the motion is
pendulum-like and approximately conserves

    F0 = I^2/2 + eps a1 cos(phi)              (around I = 0),
    F1 = (I - 1/r)^2/2 + eps a2 cos(r phi - s) (around I = 1/r),

while outside it approximately conserves Fnr = I^2/2.  The O(eps^2)
corrections to these profiles are truncated.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._ode import H_START, ODE_OK, integrate_inner
from .errors import StepFailure
from .params import DEFAULT_TOL, SystemParams, Tolerances

TWO_PI = 2.0 * math.pi

#: Half-width of the resonance bands in I.  It contains the pendulum zones
#: around I = 0 and I = 1/r, of half-widths 2 sqrt(eps |a1|) and
#: 2 sqrt(eps |a2|), while 2 sqrt(eps max(|a1|, |a2|)) <= 0.25 (at
#: eps = 0.05, a1 = 0.75 the I = 0 zone reaches 0.39), and keeps the two
#: bands disjoint for every r in (0, 1].
RESONANCE_HALF_WIDTH = 0.25


class TorusRegion(enum.Enum):
    RES0 = "res0"
    RES1 = "res1"
    NONRES = "nonres"


@dataclass(frozen=True)
class InnerState:
    I: float
    phi: float
    s: float


def restricted_hamiltonian(state: InnerState, params: SystemParams) -> float:
    return (0.5 * state.I * state.I
            + params.eps * (params.a1 * math.cos(state.phi)
                            + params.a2 * math.cos(params.r * state.phi
                                                   - state.s)))


def region_of(I: float, params: SystemParams,
              half_width: float = RESONANCE_HALF_WIDTH) -> TorusRegion:
    """Which resonance band (if any) the action I falls in."""
    if abs(I) <= half_width:
        return TorusRegion.RES0
    if abs(I - 1.0 / params.r) <= half_width:
        return TorusRegion.RES1
    return TorusRegion.NONRES


def torus_value(state: InnerState, params: SystemParams) -> float:
    """Truncated first-order invariant for the region of state.I."""
    region = region_of(state.I, params)
    if region is TorusRegion.RES0:
        return 0.5 * state.I ** 2 + params.eps * params.a1 * math.cos(state.phi)
    if region is TorusRegion.RES1:
        dI = state.I - 1.0 / params.r
        return (0.5 * dI * dI
                + params.eps * params.a2 * math.cos(params.r * state.phi
                                                    - state.s))
    return 0.5 * state.I ** 2


def resonance_half_width_pendulum(params: SystemParams) -> float:
    """Separatrix half-width in I of the I = 0 resonant pendulum,
    2 sqrt(eps |a1|)."""
    return 2.0 * math.sqrt(params.eps * abs(params.a1))


def inner_flow(state: InnerState, t: float, params: SystemParams,
               tol: Tolerances = DEFAULT_TOL) -> InnerState:
    """Flow the inner equations for time t (exact in the eps = 0 limit)."""
    I, phi, _, _, status = integrate_inner(
        state.I, state.phi, state.s, 0.0, t, H_START, params.eps, params.a1,
        params.a2, params.r, tol.tol_ode, tol.tol_ode)
    if status != ODE_OK:
        raise StepFailure(f"step size collapsed near t = {t}")
    return InnerState(I=I, phi=phi, s=state.s + t)


def sections(state: InnerState, params: SystemParams,
             tol_ode: float) -> Iterator[tuple[float, float, float]]:
    """The stroboscopic sections s = s0 + 2*pi*n, n = 1, 2, ..., without end.

    Yields (t, I, phi) with t the time since ``state`` and phi unwrapped.
    Every period is one integrator call, which starts with the step size
    the previous call proposed before clipping onto its section.
    """
    I, phi = state.I, state.phi
    t, h = 0.0, H_START
    for n in itertools.count():
        I, phi, h, _, status = integrate_inner(
            I, phi, state.s, t, t + TWO_PI, h, params.eps, params.a1,
            params.a2, params.r, tol_ode, tol_ode)
        if status != ODE_OK:
            raise StepFailure(f"step size collapsed in period {n} at "
                              f"I = {I:.6f}")
        t += TWO_PI
        yield t, I, phi


def stroboscopic_sections(state: InnerState, n_periods: int,
                          params: SystemParams,
                          tol_ode: float = DEFAULT_TOL.tol_ode) -> np.ndarray:
    """States at the next ``n_periods`` sections s = s0 + 2*pi*n.

    Returns an array of rows (t, I, phi); phi is unwrapped.
    """
    return np.fromiter(itertools.islice(sections(state, params, tol_ode),
                                        n_periods),
                       dtype=np.dtype((float, 3)), count=n_periods)
