"""Ridge curves of the splitting potential and their interaction geometry.

For each action I the ridge set {c sin(phi) + sin(sigma) = 0} with
c = mu*alpha_r(I) splits into two curves on the torus.  Depending on |c|
they are graphs over phi ("horizontal", |c| < 1) or over sigma
("vertical", |c| > 1); |c| = 1 is a bifurcation where the curves are
straight lines with corners.  Connection lines in the (phi, sigma) plane
have slope (rI-1)/I, and tangencies between them and a ridge curve bound
the domains of the induced jump maps.  This module classifies the regime,
locates every threshold action in a window, and finds tangency points.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as K
from .errors import ConfigError, NoSolutionInWindow, OutOfDomain, SingularCrest
from .params import DEFAULT_TOL, SystemParams, Tolerances

E_PI_HALF = math.exp(math.pi / 2.0)

DEFAULT_WINDOW = (-5.0, 5.0)


class CrestKind(enum.Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"
    SINGULAR = "singular"


@dataclass(frozen=True)
class CrestBranch:
    k: int
    kind: CrestKind
    I: float


@dataclass(frozen=True)
class TangencyPoint:
    I: float
    angle: float  # phi on horizontal ridges, sigma on vertical ones
    branch: CrestBranch


@dataclass(frozen=True)
class IntervalInfo:
    lo: float
    hi: float
    kind: CrestKind
    tangency: bool


@dataclass
class ClassificationReport:
    mu: float
    r: float
    window: tuple[float, float]
    alpha_thresholds: list[float]
    beta_thresholds: list[float]
    intervals: list[IntervalInfo]
    labels: dict[str, float] = field(default_factory=dict)
    missing: list[tuple[str, float]] = field(default_factory=list)


def _coef(I: float, params: SystemParams) -> float:
    return K.crest_coef(I, params.a1, params.a2, params.r)


def classify(I: float, params: SystemParams,
             tol: Tolerances = DEFAULT_TOL) -> CrestKind:
    """Horizontal / Vertical / Singular by |mu*alpha_r(I)| against 1."""
    c = abs(_coef(I, params))
    if abs(c - 1.0) < tol.tol_cls:
        return CrestKind.SINGULAR
    return CrestKind.HORIZONTAL if c < 1.0 else CrestKind.VERTICAL


def crest_sigma(I: float, phi: float, k: int, params: SystemParams) -> float:
    """sigma of branch k at angle phi (horizontal parameterization), unwrapped.

    Raises :class:`OutOfDomain` where |c sin(phi)| > 1, i.e. where the
    horizontal parameterization does not cover this angle and the caller
    must switch to the vertical one.
    """
    c = _coef(I, params)
    x = c * math.sin(phi)
    if abs(x) > 1.0:
        raise OutOfDomain(
            f"|mu*alpha(I)*sin(phi)| = {abs(x):.6g} > 1 at I={I}, phi={phi}")
    u = math.asin(x)
    return (-u if k % 2 == 0 else u) + k * math.pi


def crest_phi(I: float, sigma: float, k: int, params: SystemParams) -> float:
    """phi of branch k at angle sigma (vertical parameterization), unwrapped."""
    c = _coef(I, params)
    if math.isinf(c):
        x = 0.0
    else:
        if c == 0.0:
            raise OutOfDomain("vertical parameterization undefined at c = 0")
        x = math.sin(sigma) / c
    if abs(x) > 1.0:
        raise OutOfDomain(
            f"|sin(sigma)/(mu*alpha(I))| = {abs(x):.6g} > 1 at I={I}, "
            f"sigma={sigma}")
    u = math.asin(x)
    return (-u if k % 2 == 0 else u) + k * math.pi


def crest_residual(I: float, phi: float, sigma: float,
                   params: SystemParams) -> float:
    """Ridge-equation residual c sin(phi) + sin(sigma), normalized for |c|>1."""
    c = _coef(I, params)
    ac = abs(c)
    if ac <= 1.0:
        return c * math.sin(phi) + math.sin(sigma)
    return math.copysign(1.0, c) * math.sin(phi) + math.sin(sigma) / ac


def line_slope(I: float, r: float = 1.0) -> float:
    """Slope (rI-1)/I of connection lines in the (phi, sigma) plane."""
    return (r * I - 1.0) / I


def has_tangency(I: float, params: SystemParams,
                 tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff some connection line is tangent to the ridge at this I.

    Sign test: (|alpha|-1/|mu|)(|beta|-1/|mu|) < 0, written with
    c = mu*alpha and c_b = mu*beta so it is safe at large values.
    """
    kind = classify(I, params, tol)
    if kind is CrestKind.SINGULAR:
        raise SingularCrest(f"classification singular at I = {I}")
    c = abs(_coef(I, params))
    d = params.r * I - 1.0
    if d == 0.0:
        return False  # vertical straight lines, no finite-slope tangency
    cb = c * abs(I / d)
    return (c - 1.0) * (cb - 1.0) < 0.0


def tangency_points(I: float, params: SystemParams,
                    tol: Tolerances = DEFAULT_TOL) -> list[TangencyPoint]:
    """Angles where a connection line is tangent to a ridge branch.

    Horizontal regime: phi = +/- arctan sqrt((c^2-m^2)/(m^2(1-c^2))) and the
    pi-shifted pair, with m the line slope; vertical regime the analogous
    sigma values.  Each candidate is assigned to the branch (even/odd) whose
    graph slope actually matches m there.
    """
    if not has_tangency(I, params, tol):
        return []
    kind = classify(I, params, tol)
    c = _coef(I, params)
    m = line_slope(I, params.r)
    out: list[TangencyPoint] = []
    if kind is CrestKind.HORIZONTAL:
        t2 = (c * c - m * m) / (m * m * (1.0 - c * c))
        if t2 < 0.0:
            return []
        base = math.atan(math.sqrt(t2))
        candidates = [base, -base, math.pi - base, math.pi + base]
        for phi in candidates:
            s = math.sin(phi)
            root = math.sqrt(max(1e-300, 1.0 - (c * s) ** 2))
            dslope = c * math.cos(phi) / root
            for k, par in ((0, 1.0), (1, -1.0)):
                if abs(-par * dslope - m) < 1e-9 * max(1.0, abs(m)):
                    out.append(TangencyPoint(
                        I=I, angle=phi % (2.0 * math.pi),
                        branch=CrestBranch(k=k, kind=kind, I=I)))
    else:
        t2 = (m * m - c * c) / (c * c - 1.0)
        if t2 < 0.0:
            return []
        base = math.atan(math.sqrt(t2))
        candidates = [base, -base, math.pi - base, math.pi + base]
        minv = 1.0 / m
        for sig in candidates:
            s = math.sin(sig) / c
            root = math.sqrt(max(1e-300, 1.0 - s * s))
            dslope = (math.cos(sig) / c) / root
            for k, par in ((0, 1.0), (1, -1.0)):
                if abs(-par * dslope - minv) < 1e-9 * max(1.0, abs(minv)):
                    out.append(TangencyPoint(
                        I=I, angle=sig % (2.0 * math.pi),
                        branch=CrestBranch(k=k, kind=kind, I=I)))
    return out


# ----------------------------------------------------------------------
# threshold actions
# ----------------------------------------------------------------------

def _abs_curve(curve: str, I: float, r: float) -> float:
    v = K.alpha_r_raw(I, r) if curve == "alpha" else K.beta_r_raw(I, r)
    return abs(v)


def _bisect_level(curve: str, level: float, lo: float, hi: float, r: float,
                  tol_root: float) -> float:
    flo = _abs_curve(curve, lo, r) - level
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = _abs_curve(curve, mid, r) - level
        if fm == 0.0:
            return mid
        if (flo > 0.0) == (fm > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= tol_root * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def _component_crossings(curve: str, level: float, lo: float, hi: float,
                         r: float, tol_root: float) -> list[float]:
    """All solutions of |curve(I)| = level in (lo, hi), by a 4000-point scan
    plus bisection."""
    pole = 1.0 / r
    pts = list(np.linspace(lo, hi, 4000))
    # geometric refinement toward an interior/endpoint pole
    if lo < pole < hi or abs(lo - pole) < 1e-12 or abs(hi - pole) < 1e-12:
        for kk in range(1, 48):
            d = (hi - lo) * 0.5 ** kk
            for cand in (pole - d, pole + d):
                if lo < cand < hi:
                    pts.append(cand)
    pts = sorted(set(pts))
    roots: list[float] = []
    fprev = None
    xprev = None
    for x in pts:
        if abs(r * x - 1.0) < 1e-12:
            fprev, xprev = None, None
            continue
        f = _abs_curve(curve, x, r) - level
        if fprev is not None and (fprev > 0.0) != (f > 0.0):
            roots.append(_bisect_level(curve, level, xprev, x, r, tol_root))
        fprev, xprev = f, x
    dedup: list[float] = []
    for rt in roots:
        if not dedup or abs(rt - dedup[-1]) > 1e-8:
            dedup.append(rt)
    return dedup


def solve_level_crossing(curve: str, component: str, params: SystemParams,
                         window: tuple[float, float] = DEFAULT_WINDOW,
                         tol: Tolerances = DEFAULT_TOL) -> float:
    """One |alpha_r| or |beta_r| crossing of 1/|mu| on a named component.

    ``component`` is one of 'neg' ((window_lo, 0)), 'mid' ((0, 1/r)) or
    'pos' ((1/r, window_hi)).  Raises :class:`NoSolutionInWindow` with the
    relevant asymptote attached when the level is never reached there.
    """
    mu = params.mu
    if mu == 0.0 or not math.isfinite(mu):
        raise ConfigError("threshold search needs a finite nonzero mu")
    level = 1.0 / abs(mu)
    pole = 1.0 / params.r
    eps = 1e-9
    lo, hi = window
    if component == "neg":
        seg = (lo, -eps)
        asym = E_PI_HALF if params.r == 1.0 else 0.0
    elif component == "mid":
        seg = (eps, pole - eps)
        asym = math.inf
    elif component == "pos":
        seg = (pole + eps, hi)
        asym = math.exp(-math.pi / 2.0) if params.r == 1.0 else 0.0
    else:
        raise ConfigError(f"unknown component {component!r}")
    if seg[0] >= seg[1]:
        raise NoSolutionInWindow(
            f"component {component} outside window {window}", asymptote=asym)
    roots = _component_crossings(curve, level, seg[0], seg[1], params.r,
                                 tol.tol_root)
    if not roots:
        raise NoSolutionInWindow(
            f"|{curve}| never reaches 1/|mu| = {level:.6g} on component "
            f"{component} within {window}", asymptote=asym)
    return roots[0]


def find_thresholds(params: SystemParams,
                    window: tuple[float, float] = DEFAULT_WINDOW,
                    tol: Tolerances = DEFAULT_TOL) -> ClassificationReport:
    """All regime and tangency thresholds of |mu*alpha_r|, |mu*beta_r| = 1.

    The report lists the crossing actions of both curves, the labeled
    intervals between them (kind + tangency verdict sampled at interior
    points), and annotations for crossings that do not exist in this regime
    (with the asymptotic level attached).
    """
    mu = params.mu
    if mu == 0.0 or not math.isfinite(mu):
        raise ConfigError("threshold search needs a finite nonzero mu "
                          "(both amplitudes nonzero)")
    report = ClassificationReport(mu=mu, r=params.r, window=window,
                                  alpha_thresholds=[], beta_thresholds=[],
                                  intervals=[])
    per_comp: dict[tuple[str, str], list[float]] = {}
    for curve in ("alpha", "beta"):
        for comp in ("neg", "mid", "pos"):
            try:
                root = solve_level_crossing(curve, comp, params, window, tol)
                per_comp[(curve, comp)] = [root]
            except NoSolutionInWindow as exc:
                per_comp[(curve, comp)] = []
                report.missing.append((f"{curve}/{comp}", exc.asymptote))
        vals = sorted(v for c in ("neg", "mid", "pos")
                      for v in per_comp[(curve, c)])
        if curve == "alpha":
            report.alpha_thresholds = vals
        else:
            report.beta_thresholds = vals

    # Prop-2 style labels (defined for the r = 1 monotone structure)
    if params.r == 1.0:
        lab: dict[str, float] = {}
        a_neg = per_comp[("alpha", "neg")]
        a_mid = per_comp[("alpha", "mid")]
        a_pos = per_comp[("alpha", "pos")]
        b_neg = per_comp[("beta", "neg")]
        b_mid = per_comp[("beta", "mid")]
        b_pos = per_comp[("beta", "pos")]
        if a_neg and b_neg:
            lab["I_b"] = b_neg[0]
            lab["I_a"] = a_neg[0]
            if a_pos and b_pos:
                both = sorted([a_mid[0], b_mid[0]])
                lab["I_c"], lab["I_C"] = both[0], both[1]
                lab["I_A"] = a_pos[0]
                lab["I_B"] = b_pos[0]
            else:
                lab["I_A"] = min(a_mid[0], b_mid[0])
                lab["I_B"] = max(a_mid[0], b_mid[0])
        elif a_mid and b_mid:
            lab["I_b"] = min(a_mid[0], b_mid[0])
            lab["I_a"] = max(a_mid[0], b_mid[0])
            if a_pos and b_pos:
                lab["I_A"] = a_pos[0]
                lab["I_B"] = b_pos[0]
        report.labels = lab

    cuts = sorted(set(report.alpha_thresholds + report.beta_thresholds))
    edges = [window[0]] + cuts + [window[1]]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo < 4.0 * tol.tol_root:
            continue
        mids = [lo + f * (hi - lo) for f in (0.31, 0.5, 0.73)]
        kinds = []
        tangs = []
        for m in mids:
            if abs(params.r * m - 1.0) < 10.0 * tol.delta_sing:
                continue
            kinds.append(classify(m, params, tol))
            tangs.append(has_tangency(m, params, tol))
        if not kinds:
            # sliver hugging the pole: vertical by the limit argument
            report.intervals.append(IntervalInfo(lo, hi, CrestKind.VERTICAL,
                                                 False))
            continue
        kind = max(set(kinds), key=kinds.count)
        tang = max(set(tangs), key=tangs.count)
        report.intervals.append(IntervalInfo(lo, hi, kind, tang))
    return report
