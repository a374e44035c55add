"""Independent brute-force oracles for the contact solver and splitting maps.

These deliberately avoid the strip-based geometry of the production solver:
the ray is sampled on a uniform fine grid and the first sign change matching
the criterion is taken.  The only shortcut is to leave unsampled a stretch of
the ray whose every crossing the scan's own band classifier would reject;
that cannot change the result (see ``brute_tau_scan``).  The oracles exist
to cross-validate the fast path and are also wired into ``pendrotor verify``.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels as K
from .errors import SingularCrest, UnreachableBranch
from .params import DEFAULT_TOL, SystemParams, Tolerances
from .scattering import TauCriterion

TWO_PI = 2.0 * math.pi


def _residual_grid(taus, phi0, sig0, rphi, rsig, c, ac):
    phi = phi0 + rphi * taus
    sig = sig0 + rsig * taus
    if ac <= 1.0:
        return c * np.sin(phi) + np.sin(sig)
    return math.copysign(1.0, c) * np.sin(phi) + np.sin(sig) / ac


def _refine(ta, tb, phi0, sig0, rphi, rsig, c, ac):
    fa = float(_residual_grid(np.array([ta]), phi0, sig0, rphi, rsig, c, ac)[0])
    for _ in range(100):
        mid = 0.5 * (ta + tb)
        fm = float(_residual_grid(np.array([mid]), phi0, sig0, rphi, rsig,
                                  c, ac)[0])
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

    The ray is taken ``chunk`` cells at a time, and a chunk is skipped
    unevaluated when no band between those of its end samples is accepted
    (``branch=k`` needs band k, ``down``/``up`` an even band).  This is
    exact: the strip coordinate w = w0 + r_w*tau is affine, and rounded
    ``+``, ``*`` and ``floor`` are monotone, so a root refined inside any
    cell of the chunk lies in a band between the end samples' bands.  A
    skipped chunk held only crossings the scan would have rejected, so the
    result is the same as that of the full scan.
    """
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

    # March each direction chunk by chunk, always advancing the direction
    # that currently lags in |tau|; a direction stops once it passes the
    # best accepted crossing (which cannot change its own first hit).
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
                if best is None or abs(root) < abs(best):
                    best = root
                break
        starts[d] = start + n
    if best is None:
        raise UnreachableBranch(
            f"brute scan found no {criterion} crossing within |tau| <= "
            f"{tau_lim:.3g} at (I, theta) = ({I}, {th})")
    return best
