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
    missing: list[tuple[str, float | None]] = field(default_factory=list)


def _coef(I: float, params: SystemParams) -> float:
    return K.crest_coef(I, params.a1, params.a2, params.r)


def _kind(c: float, tol: Tolerances) -> CrestKind:
    ac = abs(c)
    if abs(ac - 1.0) < tol.tol_cls:
        return CrestKind.SINGULAR
    return CrestKind.HORIZONTAL if ac < 1.0 else CrestKind.VERTICAL


def classify(I: float, params: SystemParams,
             tol: Tolerances = DEFAULT_TOL) -> CrestKind:
    """Horizontal / Vertical / Singular by |mu*alpha_r(I)| against 1."""
    return _kind(_coef(I, params), tol)


def _graph(x: float, k: int, I: float, name: str, angle: float) -> float:
    """Branch k of a ridge graph, k*pi -/+ asin(x) for even/odd k, where x is
    c sin(phi) over phi or sin(sigma)/c over sigma."""
    if abs(x) > 1.0:
        raise OutOfDomain(f"ridge graph over {name} undefined: |x| = "
                          f"{abs(x):.6g} > 1 at I={I}, {name}={angle}")
    u = math.asin(x)
    return (-u if k % 2 == 0 else u) + k * math.pi


def crest_sigma(I: float, phi: float, k: int, params: SystemParams) -> float:
    """sigma of branch k at angle phi (horizontal parameterization), unwrapped.

    Raises :class:`OutOfDomain` where |c sin(phi)| > 1, i.e. where the
    horizontal parameterization does not cover this angle and the caller
    must switch to the vertical one.
    """
    return _graph(_coef(I, params) * math.sin(phi), k, I, "phi", phi)


def crest_phi(I: float, sigma: float, k: int, params: SystemParams) -> float:
    """phi of branch k at angle sigma (vertical parameterization), unwrapped."""
    c = _coef(I, params)
    if c == 0.0:
        raise OutOfDomain("vertical parameterization undefined at c = 0")
    x = 0.0 if math.isinf(c) else math.sin(sigma) / c
    return _graph(x, k, I, "sigma", sigma)


def crest_residual(I: float, phi: float, sigma: float,
                   params: SystemParams) -> float:
    """Ridge-equation residual c sin(phi) + sin(sigma), normalized for |c|>1."""
    c = _coef(I, params)
    ac = abs(c)
    if ac <= 1.0:
        return c * math.sin(phi) + math.sin(sigma)
    return math.copysign(1.0, c) * math.sin(phi) + math.sin(sigma) / ac


def _tangent(I: float, c: float, r: float, tol: Tolerances) -> bool:
    """has_tangency at I, given c = mu*alpha_r(I)."""
    if _kind(c, tol) is CrestKind.SINGULAR:
        raise SingularCrest(f"classification singular at I = {I}")
    c = abs(c)
    d = r * I - 1.0
    if d == 0.0:
        return False  # vertical straight lines, no finite-slope tangency
    cb = c * abs(I / d)
    # bool() so that a numpy scalar I gets a plain bool, as a float I does
    return bool((c - 1.0) * (cb - 1.0) < 0.0)


def has_tangency(I: float, params: SystemParams,
                 tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff some connection line is tangent to the ridge at this I.

    Sign test: (|alpha|-1/|mu|)(|beta|-1/|mu|) < 0, written with
    c = mu*alpha and c_b = mu*beta so it is safe at large values.
    """
    return _tangent(I, _coef(I, params), params.r, tol)


def tangency_points(I: float, params: SystemParams,
                    tol: Tolerances = DEFAULT_TOL) -> list[TangencyPoint]:
    """Angles where a connection line is tangent to a ridge branch.

    In the strip frame of the tau* kernel the branches are graphs
    w = k*pi -/+ asin(q sin psi) over the angle psi, with (psi, q) = (phi, c)
    on horizontal ridges and (sigma, 1/c) on vertical ones, and the lines
    have slope M = dw/dpsi = m or 1/m, m = (rI-1)/I.  Tangency puts
    psi = +/- arctan sqrt((q^2-M^2)/(M^2(1-q^2))) or the pi-shifted pair;
    each candidate goes to the branch (even/odd) whose graph slope matches M
    there.
    """
    c = _coef(I, params)
    if not _tangent(I, c, params.r, tol):
        return []
    kind = _kind(c, tol)
    m = (params.r * I - 1.0) / I
    q, slope = (c, m) if kind is CrestKind.HORIZONTAL else (1.0 / c, 1.0 / m)
    t2 = (q * q - slope * slope) / (slope * slope * (1.0 - q * q))
    if t2 < 0.0:
        return []
    base = math.atan(math.sqrt(t2))
    out: list[TangencyPoint] = []
    for psi in (base, -base, math.pi - base, math.pi + base):
        x = q * math.sin(psi)
        dslope = q * math.cos(psi) / math.sqrt(max(1e-300, 1.0 - x * x))
        for k, par in ((0, 1.0), (1, -1.0)):
            if abs(-par * dslope - slope) < 1e-9 * max(1.0, abs(slope)):
                out.append(TangencyPoint(
                    I=I, angle=psi % (2.0 * math.pi),
                    branch=CrestBranch(k=k, kind=kind, I=I)))
    return out


# ----------------------------------------------------------------------
# threshold actions
# ----------------------------------------------------------------------

_CURVES = {"alpha": K.alpha_r_raw, "beta": K.beta_r_raw}


def _components(window: tuple[float, float], r: float):
    """(name, lo, hi, asymptote) of the components of both curves: 'neg'
    (-inf, 0), 'mid' (0, 1/r) and 'pos' (1/r, inf), kept 1e-9 off 0 and the
    pole and clipped to the window (empty, lo >= hi, where the window does
    not reach them), with the level the curves tend to at the far end: -inf,
    the pole and +inf, in turn.  The window's own edge stands in for an
    infinite far end; 'mid' carries no asymptote (None) when the window
    stops short of the pole."""
    (lo, hi), pole, eps = window, 1.0 / r, 1e-9
    return (("neg", lo, min(-eps, hi), E_PI_HALF if r == 1.0 else 0.0),
            ("mid", max(eps, lo), min(pole - eps, hi),
             math.inf if hi >= pole - eps else None),
            ("pos", max(pole + eps, lo), hi,
             math.exp(-math.pi / 2.0) if r == 1.0 else 0.0))


def _level(params: SystemParams) -> float:
    """1/|mu|, the level both curves are crossed at."""
    mu = params.mu
    if mu == 0.0 or not math.isfinite(mu):
        raise ConfigError("threshold search needs a finite nonzero mu "
                          "(both amplitudes nonzero)")
    return 1.0 / abs(mu)


def _bisect_level(f, lo: float, hi: float, tol_root: float) -> float:
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo > 0.0) == (fm > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= tol_root * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def _crossings(curve, level: float, lo: float, hi: float, r: float,
               tol_root: float) -> list[float]:
    """Every solution of |curve(I, r)| = level in (lo, hi), ascending, by a
    4000-point scan plus bisection; none when lo >= hi."""
    if lo >= hi:
        return []
    f = lambda x: abs(curve(x, r)) - level
    pole = 1.0 / r
    pts = np.linspace(lo, hi, 4000).tolist()
    # geometric refinement toward an interior/endpoint pole
    if lo < pole < hi or abs(lo - pole) < 1e-12 or abs(hi - pole) < 1e-12:
        for kk in range(1, 48):
            d = (hi - lo) * 0.5 ** kk
            for cand in (pole - d, pole + d):
                if lo < cand < hi:
                    pts.append(cand)
    roots: list[float] = []
    fprev = xprev = None
    for x in sorted(set(pts)):
        if abs(r * x - 1.0) < 1e-12:
            fprev, xprev = None, None
            continue
        fx = f(x)
        if fprev is not None and (fprev > 0.0) != (fx > 0.0):
            rt = _bisect_level(f, xprev, x, tol_root)
            if not roots or abs(rt - roots[-1]) > 1e-8:
                roots.append(rt)
        fprev, xprev = fx, x
    return roots


def solve_level_crossing(curve: str, component: str, params: SystemParams,
                         window: tuple[float, float] = DEFAULT_WINDOW,
                         tol: Tolerances = DEFAULT_TOL) -> float:
    """The lowest |alpha_r| or |beta_r| crossing of 1/|mu| on a named component.

    ``curve`` is 'alpha' or 'beta'; ``component`` is one of 'neg'
    ((-inf, 0)), 'mid' ((0, 1/r)) or 'pos' ((1/r, inf)), each clipped to
    the window.  Raises :class:`NoSolutionInWindow` when the level is never
    reached on the clipped component, with the asymptote of
    ``_components`` attached (None for a 'mid' cut short of the pole).
    """
    level = _level(params)
    comps = {name: (lo, hi, asym)
             for name, lo, hi, asym in _components(window, params.r)}
    if curve not in _CURVES or component not in comps:
        raise ConfigError(f"unknown curve {curve!r} or component {component!r}")
    lo, hi, asym = comps[component]
    roots = _crossings(_CURVES[curve], level, lo, hi, params.r, tol.tol_root)
    if not roots:
        raise NoSolutionInWindow(
            f"|{curve}| never reaches 1/|mu| = {level:.6g} on component "
            f"{component} within {window}", asymptote=asym)
    return roots[0]


def _r1_label_names(mu: float) -> dict[tuple[str, str], str]:
    """Prop-2 label of each (curve, component) crossing at r = 1.

    Which crossings exist, and their order, depend on mu alone: on 'neg'
    |alpha| and |beta| rise toward e^{pi/2} as I -> -inf, on 'mid' from 0
    to inf, and on 'pos' they fall toward e^{-pi/2}; alpha's 'mid' crossing
    is the lower one iff |mu| >= 1 (they meet at I = 1/2 for |mu| = 1).
    """
    neg, pos = abs(mu) * E_PI_HALF > 1.0, abs(mu) < E_PI_HALF
    names: dict[tuple[str, str], str] = {}
    if neg:
        names["beta", "neg"], names["alpha", "neg"] = "I_b", "I_a"
        pair = ("I_c", "I_C") if pos else ("I_A", "I_B")
    else:
        pair = ("I_b", "I_a")
    lower, upper = ("alpha", "beta") if abs(mu) >= 1.0 else ("beta", "alpha")
    names[lower, "mid"], names[upper, "mid"] = pair
    if pos:
        names["alpha", "pos"], names["beta", "pos"] = "I_A", "I_B"
    return names


def find_thresholds(params: SystemParams,
                    window: tuple[float, float] = DEFAULT_WINDOW,
                    tol: Tolerances = DEFAULT_TOL) -> ClassificationReport:
    """All regime and tangency thresholds of |mu*alpha_r|, |mu*beta_r| = 1.

    The report lists every crossing action of both curves on each component
    (for r < 1 the negative component can hold two, as |alpha_r| -> 0 at
    both of its ends), the labeled intervals between them (kind + tangency
    verdict, constant on each interval and read at its midpoint), and
    annotations for components where a curve has no crossing (with the
    asymptotic level attached).
    """
    level = _level(params)

    found = {curve: [] for curve in _CURVES}
    first: dict[str, dict[str, float]] = {curve: {} for curve in _CURVES}
    missing = []
    for curve, fn in _CURVES.items():
        for comp, lo, hi, asym in _components(window, params.r):
            if lo >= hi:
                continue
            roots = _crossings(fn, level, lo, hi, params.r, tol.tol_root)
            if roots:
                first[curve][comp] = roots[0]
                found[curve] += roots
            else:
                missing.append((f"{curve}/{comp}", asym))
    report = ClassificationReport(
        mu=params.mu, r=params.r, window=window,
        alpha_thresholds=sorted(found["alpha"]),
        beta_thresholds=sorted(found["beta"]), intervals=[], missing=missing)

    # Prop-2 style labels (defined for the r = 1 monotone structure, with one
    # crossing per component) are named from mu, not from the window; a
    # label pair is set only when the window holds both of its crossings
    if params.r == 1.0:
        names = _r1_label_names(params.mu)
        for pair in (("I_b", "I_a"), ("I_c", "I_C"), ("I_A", "I_B")):
            held = {name: first[curve][comp]
                    for (curve, comp), name in names.items()
                    if name in pair and comp in first[curve]}
            if len(held) == 2:
                report.labels.update(held)

    # every crossing is a cut, so kind and tangency are constant in between
    cuts = sorted(set(report.alpha_thresholds + report.beta_thresholds))
    edges = [window[0]] + cuts + [window[1]]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo < 4.0 * tol.tol_root:
            continue
        mid = 0.5 * (lo + hi)
        report.intervals.append(IntervalInfo(
            lo, hi, classify(mid, params, tol), has_tangency(mid, params, tol)))
    return report
