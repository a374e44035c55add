"""Homoclinic jump maps of the forced pendulum-rotor system.

The splitting (Melnikov) potential of the system is

    L(I, phi, s) = A1(I) cos(phi) + A2(I) cos(r phi - s),

and its critical points along connection lines select homoclinic orbits.
Given the co-moving angle theta = phi - I s, the critical time tau* solves

    c sin(theta - I tau) + sin(r theta - (rI - 1) tau) = 0,
    c = mu * alpha_r(I),

geometrically the first contact of a line of slope (rI-1)/I launched from
(theta, r theta) with the ridge set of L.  Different contact-selection
criteria (marching down/up, minimal |tau|, or a fixed unwrapped ridge
branch) produce different jump maps.  To first order in eps the jump map is
the eps-time flow of -L*(I, theta), so its iterates follow level curves of
the reduced function

    L*(I, theta) = A1(I) cos(theta - I tau*) + A2(I) cos(r theta - (rI-1) tau*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .crests import CrestKind, classify
from .errors import (ConfigError, OnDiscontinuity, QuadratureNotConverged,
                     SingularCrest, TangencyDegenerate, UnreachableBranch)
from .params import SystemParams

TWO_PI = 2.0 * math.pi
TAU_OK = K.TAU_OK

#: transversality margin below which a tau* contact is degenerate
TOL_DEGEN = 1e-6
#: absolute error target of the splitting-integral quadrature
TOL_QUAD = 1e-10


def _mod_two_pi(theta: float) -> float:
    """theta reduced into [0, 2*pi), the package's one angle reduction;
    ``%`` alone rounds a tiny negative theta up to 2*pi itself."""
    th = theta % TWO_PI
    return 0.0 if th == TWO_PI else th


# ----------------------------------------------------------------------
# criteria and result types
# ----------------------------------------------------------------------

#: kernel code of each criterion kind
_CRIT_CODES = {"down": K.CRIT_DOWN, "up": K.CRIT_UP, "minabs": K.CRIT_MINABS,
               "branch": K.CRIT_BRANCH}


@dataclass(frozen=True)
class TauCriterion:
    """Contact selection rule for tau*.

    kind 'down'/'up': first crossing of the even (M) ridge family marching
    with sigma decreasing/increasing; 'minabs': nearest crossing of any
    branch; 'branch': crossing of the fixed unwrapped branch ``k``.
    """

    kind: str
    k: int = 0

    def __post_init__(self):
        if self.kind not in ("down", "up", "minabs", "branch"):
            raise ConfigError(f"unknown criterion kind {self.kind!r}")
        try:
            float(self.k)  # the solver takes k*pi
        except OverflowError:
            raise ConfigError("criterion branch k is too large for a "
                              "float") from None

    @property
    def code(self) -> int:
        return _CRIT_CODES[self.kind]

    @classmethod
    def parse(cls, text: str) -> "TauCriterion":
        text = text.strip().lower()
        if text in ("down", "up", "minabs"):
            return cls(text)
        if text.startswith("branch="):
            try:
                return cls("branch", int(text[7:]))
            except ValueError:
                pass
        raise ConfigError(f"cannot parse criterion {text!r}")

    def __str__(self) -> str:
        return self.kind if self.kind != "branch" else f"branch={self.k}"


DOWN = TauCriterion("down")
UP = TauCriterion("up")
MINABS = TauCriterion("minabs")


def branch(k: int) -> TauCriterion:
    return TauCriterion("branch", k)


ODD = branch(1)  # the odd-branch map, which carries the drift construction


@dataclass(frozen=True)
class TauSolution:
    I: float
    theta: float
    tau_star: float
    band: int  # the kernel's ridge band: the unwrapped branch k hit
    phi_star: float
    sigma_star: float
    margin: float
    degenerate: bool


@dataclass(frozen=True)
class ScatteringState:
    I: float
    theta: float

    def normalized(self) -> "ScatteringState":
        return ScatteringState(self.I, _mod_two_pi(self.theta))


class PiecewiseMapAtlas:
    """theta-partition of the minimal-|tau| global map into smooth pieces."""

    regions = (
        (0.0, math.pi / 2.0, "I", 0),
        (math.pi / 2.0, 3.0 * math.pi / 2.0, "II", 1),
        (3.0 * math.pi / 2.0, TWO_PI, "III", 2),
    )
    discontinuities = (math.pi / 2.0, 3.0 * math.pi / 2.0)

    def region_of(self, theta: float) -> tuple[str, int]:
        if not math.isfinite(theta):
            raise ConfigError(f"theta must be finite, got {theta}")
        th = _mod_two_pi(theta)
        return next((name, k) for lo, hi, name, k in self.regions
                    if lo <= th < hi)


ATLAS = PiecewiseMapAtlas()

#: half-width of the band around the atlas discontinuities in which
#: :func:`piecewise_global_map` raises :class:`OnDiscontinuity`
TOL_DISC = 1e-9


# ----------------------------------------------------------------------
# splitting potential: closed form and quadrature oracle
# ----------------------------------------------------------------------

def melnikov_closed(I: float, phi: float, s: float,
                    params: SystemParams) -> float:
    """A1(I) cos(phi) + A2(I) cos(r phi - s)."""
    return (K.amp1(I, params.a1) * math.cos(phi)
            + K.amp2(I, params.a2, params.r) * math.cos(params.r * phi - s))


def melnikov_quadrature(I: float, phi: float, s: float,
                        params: SystemParams) -> float:
    """Composite trapezoidal rule for the splitting integral; sign-convention
    oracle.

    Integrates 2 sech(x)^2 * g(phi + I x, s + x) over the real line,
    truncated where the envelope falls below 1e-16.  The integrand is
    analytic in |Im x| < pi/2 and decays like exp(-2|x|), so the rule's
    error falls like exp(-pi^2/h) (Trefethen & Weideman, SIAM Rev. 56,
    2014).  Starting at h = 0.1 the step is halved, adding only the new
    midpoints, until two successive sums agree to within
    100 * TOL_QUAD + 1e-13 * |value|; :class:`QuadratureNotConverged` after
    six halvings.  Sums are compared only once the coarser step takes two
    nodes per period of the faster harmonic (|I| or |rI - 1|): the finer
    sum shares the coarser one's even aliases, so below that rate both can
    agree on an alias (at I = 1000 they agree on 0.019; the value is 0).

    The overall sign is fixed so that the first-harmonic coefficient at
    I = 0 is +4*a1, matching the closed form (the pendulum factor
    cos(q0) - 1 = -2 sech^2 enters the geometric derivation with a
    compensating orientation sign).
    """
    a1, a2, r = params.a1, params.a2, params.r
    # envelope 2 sech^2 L < 1e-16  =>  L ~ 19.5
    L = 20.0

    def integrand(x: np.ndarray) -> np.ndarray:
        sech = 1.0 / np.cosh(x)
        ph = phi + I * x
        return 2.0 * sech * sech * (a1 * np.cos(ph)
                                    + a2 * np.cos(r * ph - (s + x)))

    w_max = max(abs(I), abs(r * I - 1.0))
    n = 400
    h = 2.0 * L / n
    f = integrand(np.linspace(-L, L, n + 1))
    total = f.sum() - 0.5 * (f[0] + f[-1])
    val = h * total
    for _ in range(6):
        h *= 0.5
        total += integrand(-L + h * np.arange(1, 2 * n, 2)).sum()
        n *= 2
        prev, val = val, float(h * total)
        target = 100.0 * TOL_QUAD + 1e-13 * abs(val)
        if 2.0 * h * w_max <= math.pi and abs(val - prev) <= target:
            return val
    raise QuadratureNotConverged(
        f"trapezoid sums not settled at h = {h:.3g} (last change "
        f"{abs(val - prev):.3g}, target {TOL_QUAD:.3g}, fastest harmonic "
        f"frequency {w_max:.3g}) at (I, phi, s) = ({I}, {phi}, {s})")


# ----------------------------------------------------------------------
# tau* and the reduced function
# ----------------------------------------------------------------------

def lstar(I: float, theta: float, criterion: TauCriterion,
          params: SystemParams) -> tuple:
    """The selected contact and L* there, as the kernel returns them:
    (status, tau*, band, margin, phi*, sigma*, L*, dL*/dtheta, dL*/dI).

    theta is reduced into [0, 2*pi) before solving.  A status other than
    ``TAU_OK`` is returned, not raised; the values after it are then NaN.
    """
    if not (math.isfinite(I) and math.isfinite(theta)):
        raise ConfigError(f"(I, theta) must be finite, got ({I}, {theta})")
    return K.lstar_kernel(I, _mod_two_pi(theta), params.r, params.a1,
                          params.a2, criterion.code, criterion.k)


def unusable_contact(status, margin):
    """Whether a solve defines no scattering map: a status other than
    ``TAU_OK``, or a degenerate critical point of tau -> L (margin below
    ``TOL_DEGEN``), where the homoclinic intersection is not transversal.
    Element-wise on the arrays of :func:`sweep`."""
    return (status != TAU_OK) | (margin < TOL_DEGEN)


def sweep(I_vals, th_vals, criterion: TauCriterion,
          params: SystemParams) -> tuple:
    """:func:`lstar` over the grid of the 1-D arrays I_vals x th_vals.

    Returns (nI, nth) arrays (status, tau*, band, margin, L*, dL*/dtheta,
    dL*/dI); status and band are int64.
    """
    if not (np.isfinite(I_vals).all() and np.isfinite(th_vals).all()):
        raise ConfigError("sweep grid values must be finite")
    th = np.array([_mod_two_pi(t) for t in th_vals], dtype=float)
    return K.sweep_kernel(I_vals, th, params.r, params.a1, params.a2,
                          criterion.code, criterion.k)


def _lstar_raw(I: float, theta: float, criterion: TauCriterion,
               params: SystemParams) -> tuple:
    """:func:`lstar`, raising for a status other than ``TAU_OK``."""
    res = lstar(I, theta, criterion, params)
    if res[0] == K.TAU_SINGULAR:
        raise SingularCrest(
            f"|mu*alpha(I)| within tolerance of 1 at I = {I}")
    if res[0] == K.TAU_UNREACHABLE:
        raise UnreachableBranch(
            f"criterion {criterion} finds no ridge crossing within the tau "
            f"window at (I, theta) = ({I}, {_mod_two_pi(theta)})")
    return res


def solve_tau_star(I: float, theta: float, criterion: TauCriterion,
                   params: SystemParams) -> TauSolution:
    """Contact time tau* of the connection line with the selected ridge.

    theta is reduced into [0, 2*pi) before solving.  Near-tangent contacts
    (ridge transversality below ``TOL_DEGEN``) are returned with
    ``degenerate=True``; map evaluations refuse them.
    """
    status, tau, kband, margin, phis, sigs = _lstar_raw(I, theta, criterion,
                                                        params)[:6]
    return TauSolution(
        I=I, theta=_mod_two_pi(theta), tau_star=tau, band=kband,
        phi_star=phis, sigma_star=sigs, margin=margin,
        degenerate=unusable_contact(status, margin))


def reduced_poincare(I: float, theta: float, criterion: TauCriterion,
                     params: SystemParams) -> float:
    """L*(I, theta): the splitting potential at the selected contact."""
    return _lstar_raw(I, theta, criterion, params)[6]


def grad_reduced_poincare(I: float, theta: float, criterion: TauCriterion,
                          params: SystemParams) -> tuple[float, float]:
    """(dL*/dI, dL*/dtheta) from the analytic formulas.

    dL*/dtheta = A1 sin(phi*)/(rI-1) = -A2 sin(sigma*)/I (the form with the
    larger denominator is used); dL*/dI = A1' cos(phi*) + A2' cos(sigma*)
    - tau* dL*/dtheta.  Raises :class:`TangencyDegenerate` at near-tangent
    contacts, where the contact ceases to be differentiable.
    """
    return _grad_of(_lstar_raw(I, theta, criterion, params), I, theta)


def _grad_of(res, I: float, theta: float) -> tuple[float, float]:
    """(dL*/dI, dL*/dtheta) of an OK :func:`lstar` result at (I, theta)."""
    status, _, _, margin, _, _, _, dth, dI = res
    if unusable_contact(status, margin):
        raise TangencyDegenerate(
            f"tau* transversality margin {margin:.3g} below tolerance at "
            f"(I, theta) = ({I}, {theta})")
    return dI, dth


def grad_theta_forms(sol: TauSolution,
                     params: SystemParams) -> tuple[float, float]:
    """Both algebraic forms of dL*/dtheta at a solved contact."""
    A1 = K.amp1(sol.I, params.a1)
    A2 = K.amp2(sol.I, params.a2, params.r)
    d = params.r * sol.I - 1.0
    f1 = A1 * math.sin(sol.phi_star) / d if d != 0.0 else math.nan
    f2 = -A2 * math.sin(sol.sigma_star) / sol.I if sol.I != 0.0 else math.nan
    return f1, f2


def scattering_step(state: ScatteringState, criterion: TauCriterion,
                    params: SystemParams) -> ScatteringState:
    """One first-order jump: (I, theta) -> (I + eps dL*/dtheta, theta - eps dL*/dI).

    The discarded remainder is O(eps^2) per application, so iterates follow
    level curves of L* up to that order.  eps = 0 returns the state
    unchanged, theta reduced.
    """
    I, theta = state.I, state.theta
    if not (math.isfinite(I) and math.isfinite(theta)):
        raise ConfigError(f"(I, theta) must be finite, got ({I}, {theta})")
    if params.eps == 0.0:
        return state.normalized()
    dI, dth = grad_reduced_poincare(I, theta, criterion, params)
    return _jump(state, dI, dth, params.eps)


def _jump(state: ScatteringState, dI: float, dth: float, eps: float):
    """(I + eps dL*/dtheta, theta - eps dL*/dI) from the gradient
    (dL*/dI, dL*/dtheta) at ``state``: the first-order jump."""
    return ScatteringState(I=state.I + eps * dth,
                           theta=_mod_two_pi(state.theta - eps * dI))


def extended_map_domain(I: float, theta: float, params: SystemParams,
                        branch_k: int) -> bool:
    """Whether the horizontally-parameterized branch map extends to (I, theta).

    In the horizontal regime the branch-k map exists for every theta.  In
    the vertical regime the branch-k contact must still lie inside the
    sigma-strip of width pi around k*pi, i.e. carry |mu alpha(I) sin(phi*)|
    < 1, which is exactly where the vertical ridge behaves as a horizontal
    graph piece.
    """
    try:
        sol = solve_tau_star(I, theta, branch(branch_k), params)
    except (UnreachableBranch, SingularCrest):
        return False
    dev = abs(sol.sigma_star - branch_k * math.pi)
    return dev < math.pi / 2.0 - 1e-9


def piecewise_global_map(state: ScatteringState, params: SystemParams
                         ) -> tuple[ScatteringState, str]:
    """Minimal-|tau*| global jump map plus its atlas region label.

    The step is one :func:`scattering_step` with ``MINABS``.  The map loses
    smoothness on theta = pi/2 and 3*pi/2 where the nearest ridge branch
    changes; those lines raise :class:`OnDiscontinuity`.  Where the MINABS
    contact lies on the region's branch k, the step equals the branch-k
    step.
    """
    th = _mod_two_pi(state.theta)
    for d in ATLAS.discontinuities:
        if abs(th - d) < TOL_DISC:
            raise OnDiscontinuity(f"theta = {th} lies on the discontinuity "
                                  f"line {d}")
    name, _ = ATLAS.region_of(th)
    return scattering_step(ScatteringState(state.I, th), MINABS, params), name


def theta_plus(I: float, params: SystemParams) -> float:
    """Upper end theta_plus(I) of the window (pi, theta_plus) where the
    odd-branch jump map increases I (positive amplitudes).

    Closed forms, by crest regime at I:
      horizontal: 3pi/2 for I <= 0 and I >= 3/2, (2-I)pi on (0,1), pi*I on
      (1, 3/2);  vertical: 3pi/2 for I <= -1/2 and I > 1, (1-I)pi on
      (-1/2, 0), (1+I)pi on (0, 1].
    """
    if params.r != 1.0:
        raise ConfigError("theta_plus closed forms are derived for r = 1")
    if params.a1 <= 0.0 or params.a2 <= 0.0:
        raise ConfigError("theta_plus requires a1, a2 > 0")
    kind = classify(I, params)
    if kind is CrestKind.SINGULAR:
        raise SingularCrest(f"singular crest regime at I = {I}")
    if kind is CrestKind.HORIZONTAL:
        if 0.0 < I < 1.0:
            return (2.0 - I) * math.pi
        if 1.0 <= I < 1.5:
            return math.pi * I
    else:
        if -0.5 < I < 0.0:
            return (1.0 - I) * math.pi
        if 0.0 <= I <= 1.0:
            return (1.0 + I) * math.pi
    return 1.5 * math.pi
