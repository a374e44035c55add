"""Action-drift machinery: transversality tests and pseudo-orbits.

A drift pseudo-orbit alternates (i) first-order jump-map steps of the
odd-branch map inside the window theta in (rho, theta_plus(I)), where the
action strictly increases, with (ii) inner-flow arcs that re-enter the
window after the jump iterates leave it.  Jumps follow a level curve of the
reduced splitting function up to O(eps^2) per step; inner arcs run between
stroboscopic sections s = 0 mod 2*pi so that consecutive legs share their
endpoint states exactly.

Transversality of the jump foliation against the inner invariant foliation
is measured by the Poisson bracket {F_region, L*}; it vanishes on theta in
{0, pi} plus a non-horizontal curve inside the resonance bands.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

from . import _kernels as K, scattering
from .errors import (ConfigError, SingularCrest, StepFailure,
                     StuckAtResonance, TangencyDegenerate, UnreachableBranch,
                     WindowEmpty)
from .inner import (InnerState, TorusRegion, inner_flow, region_of, sections,
                    torus_value)
from .params import SystemParams
from .scattering import (ODD, TAU_OK, ScatteringState, TauCriterion,
                         _grad_of, _jump, _lstar_raw, _mod_two_pi,
                         grad_reduced_poincare, lstar, theta_plus)

TWO_PI = 2.0 * math.pi

# margins and budgets of the drift construction (not of the underlying maps)
DELTA = 0.05              # rho = pi + delta
MARGIN_COEFF = 10.0       # window margin = max(coeff*eps^2, floor)
MARGIN_FLOOR = 0.01
LEVEL_COEFF = 10.0        # per-leg |dL*| budget, in eps^2 units
ARC_TOL = 1e-13           # inner-arc integrator rtol = atol
T_MAX_FACTOR = 1e3        # inner-return budget t_max = factor/eps
MAX_LEGS = 500_000
MAX_STALL_ARCS = 80
REINT_BUDGET = 1e-8       # verification: arc re-integration
F_LEVEL_COEFF = 60.0      # advisory resonance F-drift scale
TANGENT_BRACKET = 1e-6    # |{F, L*}| below this reads as a tangent line


# ----------------------------------------------------------------------
# transversality
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TransversalityReport:
    I: float
    theta: float
    bracket: float
    verdict: str  # "transversal" | "tangent-line"


def poisson_bracket(I: float, theta: float, criterion: TauCriterion,
                    params: SystemParams) -> float:
    """{F_region, L*} = dF/dtheta * dL*/dI - dF/dI * dL*/dtheta at s = 0.

    F is the truncated invariant of the resonance band containing I (or
    I^2/2 outside the bands).  A nonzero bracket means the jump map moves
    points across the inner invariant curves.
    """
    return transversality(I, theta, criterion, params).bracket


def transversality(I: float, theta: float, criterion: TauCriterion,
                   params: SystemParams) -> TransversalityReport:
    dI_L, dth_L = grad_reduced_poincare(I, theta, criterion, params)
    return _transversality(I, theta, dI_L, dth_L, params)


def _transversality(I: float, theta: float, dI_L: float, dth_L: float,
                    params: SystemParams) -> TransversalityReport:
    """{F_region, L*} at (I, theta) and its verdict, from the gradient
    (dL*/dI, dL*/dtheta) already in hand."""
    th = _mod_two_pi(theta)
    region = region_of(I, params)
    if region is TorusRegion.RES0:
        F_I = I
        F_th = -params.eps * params.a1 * math.sin(th)
    elif region is TorusRegion.RES1:
        F_I = I - 1.0 / params.r
        F_th = -params.eps * params.a2 * params.r * math.sin(params.r * th)
    else:
        F_I = I
        F_th = 0.0
    b = F_th * dI_L - F_I * dth_L
    verdict = "tangent-line" if abs(b) < TANGENT_BRACKET else "transversal"
    return TransversalityReport(I=I, theta=th, bracket=b, verdict=verdict)


# ----------------------------------------------------------------------
# pseudo-orbit data model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScatterLeg:
    src: ScatteringState
    dst: ScatteringState
    level: float          # L* at src
    residual: float       # |L*(dst) - L*(src)|


@dataclass(frozen=True)
class InnerLeg:
    src: InnerState
    dst: InnerState
    duration: float
    n_periods: int


@dataclass
class PseudoOrbit:
    legs: list
    params: SystemParams            # canonical frame (a1, a2 > 0)
    frame_phi_shift: float
    frame_s_shift: float

    @property
    def n_scatter(self) -> int:
        return sum(1 for leg in self.legs if isinstance(leg, ScatterLeg))

    @property
    def n_inner(self) -> int:
        return sum(1 for leg in self.legs if isinstance(leg, InnerLeg))

    @property
    def final_I(self) -> float:
        leg = self.legs[-1]
        return leg.dst.I


@dataclass
class VerificationReport:
    ok: bool
    n_scatter: int
    n_inner: int
    max_level_residual: float
    level_budget: float
    max_reintegration_residual: float
    reintegration_budget: float
    window_violations: int
    monotone_violations: int
    resonant_brackets: list[TransversalityReport] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def _canonical_frame(params: SystemParams) -> tuple[SystemParams, float, float]:
    """Conjugate negative amplitudes away.

    (phi, s) -> (phi + pi, s + pi) flips the sign of a1 and fixes a2;
    (phi, s) -> (phi, s + pi) flips a2.  Both conjugate the full flow, so a
    run built with |a1|, |a2| maps back to the original system by the
    inverse shifts (recorded on the orbit).
    """
    phi_shift = 0.0
    s_shift = 0.0
    a1, a2 = params.a1, params.a2
    if a1 < 0.0:
        a1 = -a1
        phi_shift += math.pi
        s_shift += math.pi
    if a2 < 0.0:
        a2 = -a2
        s_shift += math.pi
    return replace(params, a1=a1, a2=a2), phi_shift, s_shift


def _theta_plus_safe(I: float, params: SystemParams) -> float:
    try:
        return theta_plus(I, params)
    except SingularCrest:
        return min(theta_plus(I - 10.0 * K.TOL_CLS, params),
                   theta_plus(I + 10.0 * K.TOL_CLS, params))


def build_pseudo_orbit(I_start: float, I_end: float,
                       params: SystemParams) -> PseudoOrbit:
    """Construct a drift pseudo-orbit carrying I from I_start up to I_end.

    Jump legs use the odd-branch criterion, which increases I strictly for
    theta in (pi, theta_plus(I)) when both amplitudes are positive;
    negative amplitudes are handled by a conjugating angle shift (see
    ``PseudoOrbit.frame_phi_shift`` / ``frame_s_shift``).  Inner legs
    integrate whole forcing periods and end on the first stroboscopic
    section from which a jump leg starts.  At most ``MAX_LEGS`` legs are
    built.
    """
    params.require_nontrivial()
    if params.r != 1.0:
        raise ConfigError("pseudo-orbit windows are implemented for r = 1")
    if I_end <= I_start:
        raise ConfigError("need I_end > I_start")
    canon, phi_shift, s_shift = _canonical_frame(params)
    eps = canon.eps
    rho = math.pi + DELTA
    margin = max(MARGIN_COEFF * eps * eps, MARGIN_FLOOR)
    level_cap = 0.9 * LEVEL_COEFF * eps * eps
    n_max_periods = max(4, int(T_MAX_FACTOR / eps / TWO_PI))

    def window(I: float) -> tuple[float, float]:
        thp = _theta_plus_safe(I, canon)
        if thp - rho <= 2.5 * margin:
            raise WindowEmpty(
                f"drift window (rho, theta_plus) too small at I = {I}: "
                f"({rho:.6f}, {thp:.6f})")
        return rho + margin, thp - margin

    def probe_step(I: float, th: float, res):
        """The next jump from (I, th) and the L* solve at its destination,
        or None if (I, th) is outside the window or the jump breaks a
        construction rule.  ``res`` is the L* solve at (I, th), or None to
        make it here.

        Rules: transversal contact, positive drift, and per-leg level
        residual inside the budget (the drift curvature grows near the
        tangency wedge; the construction stays in low-residual corridors).
        """
        lo, hi = window(I)
        if not (lo < th < hi):
            return None
        if res is None:
            res = lstar(I, th, ODD, canon)
        status, _, _, margin_t, _, _, L0, dth_L, dI_L = res
        if (status != TAU_OK or margin_t < scattering.TOL_DEGEN
                or dth_L <= 0.0):
            return None
        src = ScatteringState(I, th)
        dst = _jump(src, dI_L, dth_L, eps)
        res1 = lstar(dst.I, dst.theta, ODD, canon)
        if res1[0] != TAU_OK:
            return None
        L1 = res1[6]
        if abs(L1 - L0) > level_cap:
            return None
        return ScatterLeg(src=src, dst=dst, level=L0,
                          residual=abs(L1 - L0)), res1

    I = I_start
    lo, hi = window(I)
    th = 0.5 * (lo + hi)
    legs: list = []
    best_I, stall_arcs = I, 0  # arcs since one last started at a new max
    step = probe_step(I, th, None)  # the next jump leg, while one is in hand

    while I < I_end:
        if len(legs) >= MAX_LEGS:
            raise StuckAtResonance(
                f"leg budget {MAX_LEGS} exhausted at I = {I:.6f}")
        if step is not None:
            # jump: follow one level of L* while inside the window
            leg, res = step
            legs.append(leg)
            I, th = leg.dst.I, leg.dst.theta
            step = probe_step(I, th, res) if I < I_end else None
            continue
        # one rule catches stalls and cycles alike: an arc must start at a
        # new maximum of I at least once every MAX_STALL_ARCS arcs
        if I > best_I:
            best_I, stall_arcs = I, 0
        else:
            stall_arcs += 1
            if stall_arcs >= MAX_STALL_ARCS:
                raise StuckAtResonance(
                    f"{stall_arcs} consecutive inner arcs started without a "
                    f"new maximum of I ({best_I:.6f}) near I = {I:.6f}")
        # inner arc: integrate whole periods until a section yields a jump
        src = InnerState(I=I, phi=th, s=0.0)
        arc = itertools.islice(sections(src, canon, ARC_TOL), n_max_periods)
        for n, (t, Icur, phicur) in enumerate(arc):
            thcur = _mod_two_pi(phicur)
            try:
                step = probe_step(Icur, thcur, None)
            except WindowEmpty:
                continue
            if step is not None:
                break
        else:
            raise StuckAtResonance(
                f"no stroboscopic return into the window within "
                f"{n_max_periods} periods from I = {I:.6f}")
        dst = InnerState(I=Icur, phi=phicur, s=t)
        legs.append(InnerLeg(src=src, dst=dst, duration=t, n_periods=n + 1))
        I, th = Icur, thcur

    return PseudoOrbit(legs=legs, params=canon, frame_phi_shift=phi_shift,
                       frame_s_shift=s_shift)


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------

def verify_pseudo_orbit(orbit: PseudoOrbit) -> VerificationReport:
    """Recompute every invariant of the orbit independently.

    Jump legs: fresh tau* solve and step at the stored source, level values
    at both ends, window containment, per-leg monotone I.  Inner legs:
    re-integration at a tighter tolerance against the stored endpoint and
    (inside resonance bands) drift of the band invariant.  Transversality
    brackets are sampled at resonance-band jump points.
    """
    p = orbit.params
    eps = p.eps
    rho = math.pi + DELTA
    level_budget = LEVEL_COEFF * eps * eps
    failures: list[str] = []
    max_level = 0.0
    max_reint = 0.0
    window_violations = 0
    monotone_violations = 0
    brackets: list[TransversalityReport] = []
    prev_dst = None
    dst_res = None  # the _lstar_raw solve at prev_dst, when a jump leg made it

    for idx, leg in enumerate(orbit.legs):
        if isinstance(leg, ScatterLeg):
            if prev_dst is not None and leg.src != prev_dst:
                failures.append(f"leg {idx}: endpoint chain broken")
                dst_res = None
            prev_dst = leg.dst
            res, dst_res = dst_res, None
            try:
                if res is None:
                    res = _lstar_raw(leg.src.I, leg.src.theta, ODD, p)
                dst_res = _lstar_raw(leg.dst.I, leg.dst.theta, ODD, p)
                dI_L, dth_L = _grad_of(res, leg.src.I, leg.src.theta)
            except (SingularCrest, UnreachableBranch,
                    TangencyDegenerate) as exc:
                failures.append(f"leg {idx}: re-solve failed: {exc}")
                continue
            lev = abs(dst_res[6] - res[6])
            max_level = max(max_level, lev)
            if lev > level_budget:
                failures.append(
                    f"leg {idx}: level residual {lev:.3e} > {level_budget:.3e}")
            I_re = leg.src.I + eps * dth_L
            th_re = (leg.src.theta - eps * dI_L) % TWO_PI
            mism = max(abs(I_re - leg.dst.I),
                       abs((th_re - leg.dst.theta + math.pi) % TWO_PI
                           - math.pi))
            if mism > 1e-10:
                failures.append(f"leg {idx}: step mismatch {mism:.3e}")
            thp = _theta_plus_safe(leg.src.I, p)
            if not (rho <= leg.src.theta <= thp):
                window_violations += 1
                failures.append(
                    f"leg {idx}: source theta {leg.src.theta:.6f} outside "
                    f"({rho:.6f}, {thp:.6f})")
            if leg.dst.I <= leg.src.I:
                monotone_violations += 1
                failures.append(f"leg {idx}: action did not increase")
            if region_of(leg.src.I, p) is not TorusRegion.NONRES:
                brackets.append(_transversality(leg.src.I, leg.src.theta,
                                                dI_L, dth_L, p))
        else:
            if prev_dst is not None:
                if (abs(leg.src.I - prev_dst.I) > 0.0
                        or abs(leg.src.phi % TWO_PI - prev_dst.theta) > 1e-15):
                    failures.append(f"leg {idx}: endpoint chain broken")
            prev_dst = ScatteringState(leg.dst.I, leg.dst.phi % TWO_PI)
            dst_res = None
            try:
                end = inner_flow(leg.src, leg.duration, p, 0.1 * ARC_TOL)
            except StepFailure:
                failures.append(f"leg {idx}: verification re-integration "
                                f"failed")
                continue
            reint = max(abs(end.I - leg.dst.I), abs(end.phi - leg.dst.phi))
            max_reint = max(max_reint, reint)
            if reint > REINT_BUDGET:
                failures.append(
                    f"leg {idx}: re-integration residual {reint:.3e} > "
                    f"{REINT_BUDGET:.3e}")
            reg = region_of(leg.src.I, p)
            if reg is not TorusRegion.NONRES and region_of(leg.dst.I, p) is reg:
                f0 = torus_value(leg.src, p)
                f1 = torus_value(leg.dst, p)
                drift = abs(f1 - f0)
                amp = max(abs(leg.src.I), abs(leg.dst.I),
                          abs(leg.src.I - 1.0 / p.r),
                          abs(leg.dst.I - 1.0 / p.r))
                budget = (F_LEVEL_COEFF * leg.n_periods
                          * (eps * eps + eps * amp * amp))
                if drift > budget:
                    failures.append(
                        f"leg {idx}: resonance invariant drift {drift:.3e} "
                        f"> {budget:.3e}")

    ok = not failures
    return VerificationReport(
        ok=ok, n_scatter=orbit.n_scatter, n_inner=orbit.n_inner,
        max_level_residual=max_level, level_budget=level_budget,
        max_reintegration_residual=max_reint,
        reintegration_budget=REINT_BUDGET,
        window_violations=window_violations,
        monotone_violations=monotone_violations,
        resonant_brackets=brackets, failures=failures)
