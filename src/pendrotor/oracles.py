"""Independent brute-force oracles for the contact solver and splitting maps.

These deliberately avoid the strip-based geometry of the production solver:
the ray is sampled on a uniform fine grid and the first sign change matching
the criterion is taken.  Two shortcuts leave stretches of the grid unsampled,
and neither can change the result (see ``brute_tau_scan``): a stretch whose
every crossing the scan's own band classifier would reject, and a stretch
that a Lipschitz bound on the residual proves holds no sign change (the
exclusion step of Piyavskii 1972 and Shubert 1972).  The bound is read off
the ray rates and the crest coefficient alone.  The oracles exist to
cross-validate the fast path and are also wired into ``pendrotor verify``.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels as K
from .errors import SingularCrest, UnreachableBranch
from .params import DEFAULT_TOL, SystemParams, Tolerances
from .scattering import TauCriterion

TWO_PI = 2.0 * math.pi

# An exclusion jump shorter than this many grid cells hands over to the
# vectorised chunk (near a root, or along a grazing stretch).  Of 8...512,
# 128 was the cheapest on near-grazing rays at h = 1e-5 (0.66 ms a query,
# 1.02 ms at 8); verify-style queries cost the same across that range.
MIN_JUMP_CELLS = 128
# Bound on the rounding of one computed residual sample, in units of
# 2**-52 * (1 + the largest |phi| + |sigma| the ray reaches).
SAMPLE_ERR_ULPS = 16


def _residual_grid(taus, phi0, sig0, rphi, rsig, c, ac, sin=np.sin):
    """Ridge residual along the ray at taus; ``sin=math.sin`` evaluates it
    at one float with the same operations."""
    phi = phi0 + rphi * taus
    sig = sig0 + rsig * taus
    if ac <= 1.0:
        return c * sin(phi) + sin(sig)
    return math.copysign(1.0, c) * sin(phi) + sin(sig) / ac


def _refine(ta, tb, phi0, sig0, rphi, rsig, c, ac):
    fa = _residual_grid(ta, phi0, sig0, rphi, rsig, c, ac, math.sin)
    for _ in range(100):
        mid = 0.5 * (ta + tb)
        fm = _residual_grid(mid, phi0, sig0, rphi, rsig, c, ac, math.sin)
        if fm == 0.0:
            return mid
        if (fa > 0.0) == (fm > 0.0):
            ta, fa = mid, fm
        else:
            tb = mid
        if tb - ta < 1e-15 * (1.0 + abs(ta)):
            break
    return 0.5 * (ta + tb)


def _band_of(t, phi0, sig0, rphi, rsig, horizontal):
    w = (sig0 + rsig * t) if horizontal else (phi0 + rphi * t)
    return int(math.floor(w / math.pi + 0.5))


def brute_tau_scan(I: float, theta: float, criterion: TauCriterion,
                   params: SystemParams, h: float = 1e-5,
                   chunk: int = 8192,
                   tol: Tolerances = DEFAULT_TOL) -> float:
    """First criterion-matching ridge crossing found by uniform ray marching.

    Scans the ray at step h, refines each detected sign change by bisection
    inside its cell, classifies the crossing's unwrapped branch, and accepts
    per the criterion semantics.  Raises like the production solver.

    Each direction is marched from grid index k (tau_k = d*h*k) in three
    ways, and all three give the result of the full scan:

    * *Band skip.*  The ``chunk`` cells from k are passed unevaluated when
      no band between those of their end samples is accepted (``branch=k``
      needs band k, ``down``/``up`` an even band).  The strip coordinate
      w = w0 + r_w*tau is affine, and rounded ``+``, ``*`` and ``floor`` are
      monotone, so a root refined inside any of those cells lies in a band
      between the end samples' bands: the stretch held only crossings the
      scan would have rejected.
    * *Exclusion.*  The residual g has |g'| <= L on the ray, with
      L = |c||r_phi| + |r_sigma| (or |r_phi| + |r_sigma|/|c| when |c| > 1,
      where g = sign(c) sin(phi) + sin(sigma)/|c|).  Along the ray
      |phi| + |sigma| <= R = |phi0| + |sigma0| + (|r_phi| + |r_sigma|)*tau_lim,
      and the rounding of tau, of the phases and of sin then puts every
      computed sample within e = SAMPLE_ERR_ULPS * 2**-52 * (1 + R) of the
      exact residual at tau = d*h*k (several times the worst case, which
      also covers the rounding of the radius below).  So a sample j with
      h*|j - k| < (|g_k| - 2e)/L has g_j >= |g_k| - 2e - L*h*|j - k| > 0
      (for g_k > 0; likewise < 0 for g_k < 0): it has the computed sign of
      g_k, no cell in between flags a sign change, and the march jumps to
      the last such index.
    * *Chunk.*  Where that jump would clear fewer than MIN_JUMP_CELLS cells,
      the ``chunk`` cells from k are evaluated at once and every flagged
      cell is refined and classified, as in a plain scan.

    Every flagged cell is still visited in order along each direction, so
    the first accepted crossing of each is that of the full scan.  Of the
    two directions' crossings the smaller |tau| wins, and tau >= 0 on an
    exact tie, whichever direction reached its crossing first.
    """
    if not (math.isfinite(h) and h > 0.0) or chunk < 1:
        raise ValueError(f"brute scan needs a finite step h > 0 and chunk "
                         f">= 1, got h = {h}, chunk = {chunk}")
    th = theta % TWO_PI
    c = K.crest_coef(I, params.a1, params.a2, params.r)
    ac = abs(c)
    if abs(ac - 1.0) < tol.tol_cls:
        raise SingularCrest(f"singular regime at I = {I}")
    horizontal = ac < 1.0
    phi0, sig0 = th, params.r * th
    rphi, rsig = -I, -(params.r * I - 1.0)
    fmin = max(min(abs(rphi), abs(rsig)), 1e-12)
    tau_lim = 8.0 * math.pi * max(1.0, 1.0 / fmin)
    lip = (ac * abs(rphi) + abs(rsig) if ac <= 1.0
           else abs(rphi) + abs(rsig) / ac)
    reach = abs(phi0) + abs(sig0) + (abs(rphi) + abs(rsig)) * tau_lim
    err = SAMPLE_ERR_ULPS * 2.0 ** -52 * (1.0 + reach)

    if criterion.kind == "down":
        dirs = [-1.0 if rsig > 0 else 1.0]
    elif criterion.kind == "up":
        dirs = [1.0 if rsig > 0 else -1.0]
    else:
        dirs = [1.0, -1.0]

    def accepts(b1: int, b2: int) -> bool:
        """Whether some band from b1 to b2 is accepted by the criterion."""
        lo, hi = min(b1, b2), max(b1, b2)
        if criterion.kind in ("down", "up"):
            return hi > lo or lo % 2 == 0
        if criterion.kind == "branch":
            return lo <= criterion.k <= hi
        return True

    def band(t: float) -> int:
        return _band_of(t, phi0, sig0, rphi, rsig, horizontal)

    # exact start on the ridge
    g0 = float(_residual_grid(np.array([0.0]), phi0, sig0, rphi, rsig, c,
                              ac)[0])
    b0 = band(0.0)
    if g0 == 0.0 and accepts(b0, b0):
        return 0.0

    # March each direction, always advancing the one that currently lags in
    # |tau|; a direction stops once it passes the best accepted crossing
    # (which cannot change its own first hit).
    starts = {d: 0 for d in dirs}
    done = {d: False for d in dirs}
    best: float | None = None
    n_cap = int(tau_lim / h) + 2
    while not all(done.values()):
        d = min((dd for dd in dirs if not done[dd]), key=lambda dd: starts[dd])
        start = starts[d]
        if start * h >= tau_lim:
            done[d] = True
            continue
        if best is not None and start * h > abs(best) + h:
            done[d] = True
            continue
        n = min(chunk, n_cap - start)
        step = d * h
        if not accepts(band(step * start), band(step * (start + n))):
            starts[d] = start + n
            continue
        g_k = _residual_grid(step * start, phi0, sig0, rphi, rsig, c, ac)
        cells = (abs(g_k) - 2.0 * err) / (lip * h)
        if cells >= MIN_JUMP_CELLS:
            starts[d] = start + int(min(cells, n_cap - start))
            continue
        taus = step * np.arange(start, start + n + 1)
        g = _residual_grid(taus, phi0, sig0, rphi, rsig, c, ac)
        sgn = np.signbit(g)
        flips = np.nonzero(sgn[1:] != sgn[:-1])[0]
        for idx in flips:
            ta, tb = sorted((float(taus[idx]), float(taus[idx + 1])))
            root = _refine(ta, tb, phi0, sig0, rphi, rsig, c, ac)
            b = band(root)
            if accepts(b, b):
                done[d] = True
                if (best is None or abs(root) < abs(best)
                        or (abs(root) == abs(best) and root > best)):
                    best = root
                break
        starts[d] = start + n
    if best is None:
        raise UnreachableBranch(
            f"brute scan found no {criterion} crossing within |tau| <= "
            f"{tau_lim:.3g} at (I, theta) = ({I}, {th})")
    return best
