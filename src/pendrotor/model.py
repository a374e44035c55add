"""Unperturbed separatrix and the scalar special functions of the system.

The splitting potential of the coupled system factors through two amplitude
profiles

    A1(I) = 2 pi I a1 / sinh(pi I / 2),
    A2(I) = 2 pi (rI - 1) a2 / sinh(pi (rI - 1) / 2),

both with removable singularities (A1(0) = 4 a1, A2(1/r) = 4 a2), and the
odd rational-hyperbolic ratio

    alpha_r(I) = I^2 sinh(pi (rI-1)/2) / ((rI-1)^2 sinh(pi I/2)),
    beta_r(I)  = I alpha_r(I) / (rI - 1),

whose level crossings with 1/|mu| organize the whole ridge geometry.  All
evaluations route through overflow-safe kernels; the removable
singularities are exact (no patching error at the special points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels as K
from .errors import PoleAtOne, PoleAtOneOverR
from .params import SystemParams

#: half-width in I of the pole guard of alpha, beta, alpha_r and beta_r
DELTA_SING = 1e-4


@dataclass(frozen=True)
class SeparatrixPoint:
    tau: float
    p0: float
    q0: float


def separatrix(tau: float, sign: int = 1) -> SeparatrixPoint:
    """Point on the pendulum separatrix branch selected by ``sign``.

    p0 = sign * 2 / cosh(tau), q0 = 4 arctan(exp(sign * tau)).  Both
    branches satisfy cos(q0) = 1 - 2 / cosh(tau)^2, so every splitting-level
    quantity is independent of the branch (and of the pendulum sign in the
    Hamiltonian).
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    p0 = sign * 2.0 / math.cosh(tau)
    q0 = 4.0 * math.atan(math.exp(sign * tau))
    return SeparatrixPoint(tau=tau, p0=p0, q0=q0)


def cos_q0(tau: float) -> float:
    """cos(q0(tau)) = 1 - 2 sech(tau)^2, branch-independent."""
    s = 1.0 / math.cosh(tau)
    return 1.0 - 2.0 * s * s


def amplitude_A1(I: float, params: SystemParams) -> float:
    """First-harmonic amplitude profile; A1(0) = 4 a1 exactly."""
    return K.amp1(I, params.a1)


def amplitude_A2(I: float, params: SystemParams) -> float:
    """Second-harmonic amplitude profile; A2(1/r) = 4 a2 exactly."""
    return K.amp2(I, params.a2, params.r)


def amplitude_A1_prime(I: float, params: SystemParams) -> float:
    return K.amp1_prime(I, params.a1)


def amplitude_A2_prime(I: float, params: SystemParams) -> float:
    return K.amp2_prime(I, params.a2, params.r)


def alpha_r(I: float, r: float) -> float:
    """alpha generalized to frequency ratio r; pole at I = 1/r.

    Raises :class:`PoleAtOneOverR` within ``DELTA_SING`` of the pole,
    where callers must switch to the vertical-ridge regime.
    """
    if abs(r * I - 1.0) < DELTA_SING:
        raise PoleAtOneOverR(
            f"alpha_r undefined at I = 1/r = {1.0 / r}; got I = {I}")
    return K.alpha_r_raw(I, r)


def beta_r(I: float, r: float) -> float:
    """beta_r(I) = I alpha_r(I) / (rI - 1)."""
    if abs(r * I - 1.0) < DELTA_SING:
        raise PoleAtOneOverR(
            f"beta_r undefined at I = 1/r = {1.0 / r}; got I = {I}")
    return K.beta_r_raw(I, r)


def alpha(I: float) -> float:
    """alpha(I) = I^2 sinh(pi(I-1)/2) / ((I-1)^2 sinh(pi I/2)).

    alpha(0) = 0 exactly; raises :class:`PoleAtOne` near the pole I = 1.
    Limits: alpha -> exp(+pi/2) as I -> -inf and exp(-pi/2) as I -> +inf,
    approached at algebraic rate O(1/I) through the (I/(I-1))^2 prefactor.
    """
    if abs(I - 1.0) < DELTA_SING:
        raise PoleAtOne(f"alpha undefined at I = 1; got I = {I}")
    return K.alpha_r_raw(I, 1.0)


def beta(I: float) -> float:
    """beta(I) = I alpha(I) / (I - 1); |beta(1/2)| = |alpha(1/2)| = 1."""
    if abs(I - 1.0) < DELTA_SING:
        raise PoleAtOne(f"beta undefined at I = 1; got I = {I}")
    return K.beta_r_raw(I, 1.0)
