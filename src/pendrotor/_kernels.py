"""Scalar hot kernels, in plain Python.

Everything here works on plain floats/ints; the solver entry points coerce
their float arguments, so they return Python floats/ints whatever scalar
type the caller passes.  Geometry conventions, used throughout:

* reduced angles (phi, sigma) with sigma = r*phi - s;
* a connection line launched from the point (theta, r*theta) moves as
  phi(tau) = theta - I*tau,  sigma(tau) = r*theta - (r*I - 1)*tau;
* the ridge set of the splitting potential ("crest") is
  c*sin(phi) + sin(sigma) = 0 with c = mu*alpha_r(I);
* for |c| < 1 the ridge decomposes into graphs over phi located in
  sigma-strips of width pi around k*pi ("horizontal", index k); for |c| > 1
  into graphs over sigma in phi-strips around k*pi ("vertical").  Even k is
  the family through (0, 0), odd k the family through (pi, pi).

tau* solver.  Along the ray, branch k is the zero set of the band residual

    h_b(tau) = (w(tau) - k*pi) + par * asin(q sin psi(tau)),   par = (-1)^k,

with band coordinate w = sigma, oscillating angle psi = phi and q = c for
horizontal ridges, and w = phi, psi = sigma, q = 1/c for vertical ones
(|q| < 1 off the singular band).  With k' = w'/(q psi') its critical points
satisfy sin^2 psi = (k'^2 - 1)/(k'^2 q^2 - 1), sign(cos psi) = -par*k', two
per 2*pi of psi when |k'| <= 1 and none otherwise, so h_b is monotone
between consecutive critical tau and a sign check at each of them brackets
every crossing exactly.  Newton's method on h_b, whose tau-derivative is
closed-form, finishes each bracket from the secant point, with bisection
as its safeguard (_newton_hb).  Crossings also need |w - k*pi| <= asin|q|,
which bounds the pieces a strip walk visits.
"""

from __future__ import annotations

import math

import numpy as np

# status codes returned by the tau* solver
TAU_OK = 0
TAU_SINGULAR = 1
TAU_UNREACHABLE = 2

# criterion codes
CRIT_DOWN = 0
CRIT_UP = 1
CRIT_MINABS = 2
CRIT_BRANCH = 3

PI = math.pi

# Relative margin gap under which two tied crossings count as mirror images.
# The margins of the exact mirror pair at tau = +-t (theta = pi/2, 3pi/2 for
# r = 1) are equal; computed, they differ by |g''| times the root error, up
# to 21 ulps on 100 x 100 sweeps.  32 ulps covers that; every tie across
# tau = 0 on those sweeps was such a mirror pair.
MARGIN_TIE_RTOL = 32.0 * 2.0 ** -52


# ----------------------------------------------------------------------
# stable special-function cores
# ----------------------------------------------------------------------

def h_ratio_fn(x: float) -> float:
    """x / sinh(x), extended by 1 at x = 0.  Even, positive, decays ~2|x|e^-|x|."""
    ax = abs(x)
    if ax < 1e-8:
        return 1.0 - x * x / 6.0
    if ax <= 350.0:
        return x / math.sinh(x)
    return 2.0 * ax * math.exp(-ax)


def h_ratio_prime(x: float) -> float:
    """Derivative of x/sinh(x).  Odd; series near 0 avoids cancellation."""
    ax = abs(x)
    if ax < 0.1:
        x2 = x * x
        return x * (-1.0 / 3.0 + x2 * (7.0 / 90.0 + x2 * (-31.0 / 2520.0
                    + x2 * (127.0 / 75600.0))))
    if ax <= 350.0:
        sh = math.sinh(x)
        return (sh - x * math.cosh(x)) / (sh * sh)
    v = 2.0 * ax * math.exp(-ax)
    return -v if x > 0.0 else v


def sinh_quot(u: float, v: float) -> float:
    """sinh(u)/sinh(v), overflow-safe for large same-scale arguments."""
    au = abs(u)
    av = abs(v)
    if au < 300.0 and av < 300.0:
        return math.sinh(u) / math.sinh(v)
    s = 1.0
    if u < 0.0:
        s = -s
    if v < 0.0:
        s = -s
    return s * math.exp(au - av) * (1.0 - math.exp(-2.0 * au)) / (1.0 - math.exp(-2.0 * av))


def alpha_r_raw(I: float, r: float) -> float:
    """I^2 sinh(pi(rI-1)/2) / ((rI-1)^2 sinh(pi I/2)); +/-inf at I = 1/r.

    Evaluated as (I/(rI-1)) * h(pi I/2)/h(pi(rI-1)/2) so the removable zero
    at I = 0 is exact and large |I| stays finite.
    """
    u = 0.5 * PI * (r * I - 1.0)
    v = 0.5 * PI * I
    d = r * I - 1.0
    if d == 0.0:
        # pole; sign from the one-sided limit is irrelevant to callers
        return math.inf if I > 0.0 else -math.inf
    au = abs(u)
    av = abs(v)
    if au < 300.0 and av < 300.0:
        return (I / d) * h_ratio_fn(v) / h_ratio_fn(u)
    # large-|I| branch: use the sinh quotient directly
    return (I * I / (d * d)) * sinh_quot(u, v)


def beta_r_raw(I: float, r: float) -> float:
    """I * alpha_r(I) / (rI - 1)."""
    d = r * I - 1.0
    if d == 0.0:
        return math.inf
    return I * alpha_r_raw(I, r) / d


def crest_coef(I: float, a1: float, a2: float, r: float) -> float:
    """c = mu * alpha_r(I) = I*A1(I) / ((rI-1)*A2(I)); signed, +/-inf at poles."""
    d = r * I - 1.0
    num = a1 * I * h_ratio_fn(0.5 * PI * I)
    den = a2 * d * h_ratio_fn(0.5 * PI * d)
    if den == 0.0:
        if num == 0.0:
            return 0.0
        return math.inf if num > 0.0 else -math.inf
    u = 0.5 * PI * d
    v = 0.5 * PI * I
    if abs(u) >= 300.0 or abs(v) >= 300.0:
        return (a1 / a2) * (I * I / (d * d)) * sinh_quot(u, v)
    return num / den


def amp1(I: float, a1: float) -> float:
    return 4.0 * a1 * h_ratio_fn(0.5 * PI * I)


def amp2(I: float, a2: float, r: float) -> float:
    return 4.0 * a2 * h_ratio_fn(0.5 * PI * (r * I - 1.0))


def amp1_prime(I: float, a1: float) -> float:
    return 2.0 * PI * a1 * h_ratio_prime(0.5 * PI * I)


def amp2_prime(I: float, a2: float, r: float) -> float:
    return 2.0 * PI * a2 * r * h_ratio_prime(0.5 * PI * (r * I - 1.0))


# ----------------------------------------------------------------------
# tau* geometry helpers
# ----------------------------------------------------------------------

def _gn_prime(tau, phi0, sig0, rphi, rsig, c, ac):
    """tau-derivative of the ridge residual normalized by max(1, |c|); its
    modulus at a crossing is the transversality margin."""
    phi = phi0 + rphi * tau
    sig = sig0 + rsig * tau
    if ac <= 1.0:
        return c * math.cos(phi) * rphi + math.cos(sig) * rsig
    s = 1.0 if c > 0.0 else -1.0
    return s * math.cos(phi) * rphi + math.cos(sig) * rsig / ac


def _hb(tau, m, par, w0, lw, phi0, sig0, rphi, rsig, c, horizontal):
    """Signed distance to the branch-m graph along the strip coordinate, and
    its tau-derivative lw + par*x'/sqrt(1 - x^2) (lw where x is clamped).

    par = +1 for even m, -1 for odd m.  Opposite signs at the two strip
    edges, so a sign change brackets exactly one family member.
    """
    if horizontal:
        psi = phi0 + rphi * tau
        x = c * math.sin(psi)
        dx = c * math.cos(psi) * rphi
    else:
        psi = sig0 + rsig * tau
        x = math.sin(psi) / c
        dx = math.cos(psi) * rsig / c
    base = w0 + lw * tau - m * PI
    if x >= 1.0:
        return base + par * (0.5 * PI), lw
    if x <= -1.0:
        return base - par * (0.5 * PI), lw
    return base + par * math.asin(x), lw + par * dx / math.sqrt((1.0 - x) * (1.0 + x))


def _newton_hb(ta, tb, fa, fb, m, par, w0, lw, phi0, sig0, rphi, rsig, c,
               horizontal):
    """Root of _hb between ta and tb, where it is monotone and its values fa,
    fb are nonzero and of opposite signs.

    Newton from the secant point, safeguarded by bisection (rtsafe; Press et
    al., Numerical Recipes 3rd ed., 9.4): a Newton step that would leave the
    bracket, or that is not under half the step before last, becomes a
    bisection step.  Stops once the bracket [a, b] or the step is at most
    1e-15*(1 + |a| + |b|).
    """
    # h_b < 0 at tn, > 0 at tp
    tn, tp = (ta, tb) if fa < 0.0 else (tb, ta)
    t = ta - fa * (tb - ta) / (fb - fa)
    last = before = tb - ta
    for _ in range(120):
        f, df = _hb(t, m, par, w0, lw, phi0, sig0, rphi, rsig, c, horizontal)
        if f == 0.0:
            return t
        if f < 0.0:
            tn = t
        else:
            tp = t
        tol = 1e-15 * (1.0 + abs(tn) + abs(tp))
        if abs(tp - tn) <= tol:
            return t
        step = f / df if df != 0.0 else math.inf
        if ((t - step - tn) * (t - step - tp) > 0.0
                or abs(2.0 * step) > abs(before)):
            step = 0.5 * (tp - tn)
            t = tn + step
        else:
            t -= step
        before, last = last, step
        if abs(step) <= tol:
            return t
    return t


def _strip(m, w0, lw, half):
    """tau interval where |w0 + lw*tau - m*pi| <= half (lw != 0)."""
    e1 = ((m * PI - half) - w0) / lw
    e2 = ((m * PI + half) - w0) / lw
    return min(e1, e2), max(e1, e2)


def _crit_tau(j, u1, u2, period):
    """j-th critical point of h_b along the ray; nondecreasing in j."""
    return (u1 if j % 2 == 0 else u2) + (j // 2) * period


def _fold(root, d, phi0, sig0, rphi, rsig, c, ac, tie_tol, found, best_t,
          best_key, best_marg):
    """Merge a crossing into the running best: smallest key d*tau wins; within
    tie_tol of the best key the larger transversality margin wins, except
    that of two crossings on opposite sides of tau = 0 whose margins agree to
    MARGIN_TIE_RTOL (mirror crossings) the one with tau >= 0 wins."""
    key = d * root
    marg = abs(_gn_prime(root, phi0, sig0, rphi, rsig, c, ac))
    if not found or key < best_key - tie_tol:
        return True, root, key, marg
    if key < best_key + tie_tol:
        mirror = ((root >= 0.0) != (best_t >= 0.0)
                  and abs(marg - best_marg) <= MARGIN_TIE_RTOL * max(marg, best_marg))
        if root >= 0.0 if mirror else marg > best_marg:
            return True, root, best_key, marg
    return found, best_t, best_key, best_marg


def _walk_band(lo, hi, d, m, w0, lw, phi0, sig0, rphi, rsig, c, ac,
               horizontal, psi0, rpsi, q, tie_tol, found, best_t, best_key,
               best_marg):
    """Fold the crossings of branch m with tau in [lo, hi] into the running best.

    The interval lies on one side of tau = 0 and is walked away from it
    (d = +1 from lo, d = -1 from hi), so the key d*tau = |tau| grows along
    the walk.  Breakpoints are the critical points of h_b, between which it
    is monotone: a sign check at each breakpoint brackets every crossing
    exactly, and the walk stops once no later crossing can beat or tie the
    best.  Returns the updated (found, tau, key, margin).
    """
    par = 1.0 if (m % 2) == 0 else -1.0
    # critical tau of h_b (module docstring): u1 + j*period, u2 + j*period;
    # period = 0 means h_b is monotone on [lo, hi]
    period = 0.0
    u1 = 0.0
    u2 = 0.0
    if q * rpsi != 0.0:
        k = lw / (q * rpsi)
        if abs(k) <= 1.0:
            den = 1.0 - k * k * q * q
            sn = math.sqrt((1.0 - k * k) / den)
            cs = abs(k) * math.sqrt((1.0 - q * q) / den)
            if par * k > 0.0:
                cs = -cs
            period = 2.0 * PI / abs(rpsi)
            u1 = ((math.atan2(sn, cs) - psi0) / rpsi) % period
            u2 = ((math.atan2(-sn, cs) - psi0) / rpsi) % period
            if u1 > u2:
                u1, u2 = u2, u1
            if period <= 1e-15 * (abs(lo) + abs(hi)):
                # closer than the float spacing of tau: not separable
                period = 0.0
    # crossings need |w - m*pi| <= asin|q|; walk only the pieces meeting that
    zlo, zhi = _strip(m, w0, lw, math.asin(abs(q)))
    if d > 0.0:
        s = max(lo, zlo)
        e = min(hi, zhi)
    else:
        s = min(hi, zhi)
        e = max(lo, zlo)
    j = 0
    if period > 0.0:
        # start at the breakpoint on or before s in walk order
        j = 2 * int(math.floor((s - u1) / period))
        if d > 0.0:
            j -= 2
            while _crit_tau(j + 1, u1, u2, period) <= s:
                j += 1
        else:
            j += 4
            while _crit_tau(j - 1, u1, u2, period) >= s:
                j -= 1
        t = min(max(_crit_tau(j, u1, u2, period), lo), hi)
    else:
        t = lo if d > 0.0 else hi
    f = _hb(t, m, par, w0, lw, phi0, sig0, rphi, rsig, c, horizontal)[0]
    if f == 0.0:
        found, best_t, best_key, best_marg = _fold(
            t, d, phi0, sig0, rphi, rsig, c, ac, tie_tol, found, best_t,
            best_key, best_marg)
    while d * (e - t) > 0.0:
        if found and d * t > best_key + tie_tol:
            break
        if period > 0.0:
            j += 1 if d > 0.0 else -1
            tn = min(max(_crit_tau(j, u1, u2, period), lo), hi)
        else:
            tn = hi if d > 0.0 else lo
        fn = _hb(tn, m, par, w0, lw, phi0, sig0, rphi, rsig, c, horizontal)[0]
        root = math.nan
        if fn == 0.0:
            root = tn
        elif f != 0.0 and (f > 0.0) != (fn > 0.0):
            root = _newton_hb(t, tn, f, fn, m, par, w0, lw, phi0, sig0, rphi,
                              rsig, c, horizontal)
        if root == root:
            found, best_t, best_key, best_marg = _fold(
                root, d, phi0, sig0, rphi, rsig, c, ac, tie_tol, found,
                best_t, best_key, best_marg)
        t = tn
        f = fn
    return found, best_t, best_key, best_marg


def tau_star_kernel(I, theta, r, c, crit, kreq, tol_cls, tie_tol):
    """Crossing time tau* of the connection line with the ridge set.

    Returns (status, tau, band_index, margin, phi_star, sigma_star).
    """
    # numpy scalars (e.g. from np.linspace) would otherwise flow into every
    # returned value, and make every step of the solve several times slower
    I = float(I)
    theta = float(theta)
    r = float(r)
    c = float(c)
    ac = abs(c)
    if abs(ac - 1.0) < tol_cls:
        return TAU_SINGULAR, math.nan, 0, 0.0, math.nan, math.nan
    horizontal = ac < 1.0
    phi0 = theta
    sig0 = r * theta
    rphi = -I
    rsig = -(r * I - 1.0)
    # band coordinate w and oscillating angle psi: h_b = (w - m*pi) + par*asin(q sin psi)
    if horizontal:
        w0 = sig0
        lw = rsig
        psi0 = phi0
        rpsi = rphi
        q = c
    else:
        w0 = phi0
        lw = rphi
        psi0 = sig0
        rpsi = rsig
        q = 1.0 / c
    fmin = min(abs(rphi), abs(rsig))
    if fmin < 1e-12:
        fmin = 1e-12
    tau_max = 8.0 * PI * max(1.0, 1.0 / fmin)

    if abs(lw) < 1e-300:
        return TAU_UNREACHABLE, math.nan, 0, 0.0, math.nan, math.nan

    found = False
    best_t = math.inf
    best_key = math.inf
    best_marg = 0.0

    # march strips outward from the launch point: on the side of decreasing/
    # increasing sigma (down/up, even family only), or on both sides (minabs
    # over every strip, branch over strip kreq alone)
    marching = crit == CRIT_DOWN or crit == CRIT_UP
    if marching and abs(rsig) < 1e-300:
        return TAU_UNREACHABLE, math.nan, 0, 0.0, math.nan, math.nan
    m0 = kreq if crit == CRIT_BRANCH else int(math.floor(w0 / PI + 0.5))
    for side in range(1 if marching else 2):
        dtau = 1.0 if side == 0 else -1.0
        if marching:
            want_dsig = -1.0 if crit == CRIT_DOWN else 1.0
            dtau = 1.0 if rsig * want_dsig > 0.0 else -1.0
        step_m = 1 if lw * dtau > 0.0 else -1
        m = m0
        for _ in range(1 if crit == CRIT_BRANCH else 64):
            ta, tb = _strip(m, w0, lw, 0.5 * PI)
            if dtau > 0.0:
                if ta < 0.0:
                    ta = 0.0
            else:
                if tb > 0.0:
                    tb = 0.0
            entry = ta if dtau > 0.0 else -tb
            if entry > tau_max:
                break
            if found and entry > best_key + tie_tol:
                break
            if dtau > 0.0 and tb > tau_max:
                tb = tau_max
            if dtau < 0.0 and ta < -tau_max:
                ta = -tau_max
            if tb >= ta and (not marching or (m % 2) == 0):
                found, best_t, best_key, best_marg = _walk_band(
                    ta, tb, dtau, m, w0, lw, phi0, sig0, rphi, rsig, c, ac,
                    horizontal, psi0, rpsi, q, tie_tol, found, best_t,
                    best_key, best_marg)
            m += step_m
    if not found:
        return TAU_UNREACHABLE, math.nan, 0, 0.0, math.nan, math.nan
    # recover the band index of the winner
    if horizontal:
        kb = int(math.floor((sig0 + rsig * best_t) / PI + 0.5))
    else:
        kb = int(math.floor((phi0 + rphi * best_t) / PI + 0.5))
    return (TAU_OK, best_t, kb, best_marg, phi0 + rphi * best_t,
            sig0 + rsig * best_t)


def lstar_kernel(I, theta, r, a1, a2, crit, kreq, tol_cls, tie_tol):
    """Reduced splitting value and gradient at the selected crossing.

    Returns (status, tau, band, margin, phi*, sigma*, L, dL/dtheta, dL/dI).
    """
    I = float(I)
    r = float(r)
    a1 = float(a1)
    a2 = float(a2)
    c = crest_coef(I, a1, a2, r)
    status, tau, kb, margin, phis, sigs = tau_star_kernel(
        I, theta, r, c, crit, kreq, tol_cls, tie_tol)
    if status != TAU_OK:
        return status, tau, kb, margin, phis, sigs, math.nan, math.nan, math.nan
    d = r * I - 1.0
    A1 = amp1(I, a1)
    A2 = amp2(I, a2, r)
    L = A1 * math.cos(phis) + A2 * math.cos(sigs)
    # two equivalent gradient forms; pick the well-conditioned denominator
    if abs(d) >= abs(I):
        dth = A1 * math.sin(phis) / d
    else:
        dth = -A2 * math.sin(sigs) / I
    dI = (amp1_prime(I, a1) * math.cos(phis)
          + amp2_prime(I, a2, r) * math.cos(sigs) - tau * dth)
    return status, tau, kb, margin, phis, sigs, L, dth, dI


def sweep_kernel(Ivals, thvals, r, a1, a2, crit, kreq, tol_cls, tie_tol):
    """lstar_kernel for a criterion over the grid Ivals x thvals.

    Returns (nI, nth) arrays (status, tau, band, margin, lstar, dth, dI);
    status and band are int64.
    """
    nI = Ivals.shape[0]
    nth = thvals.shape[0]
    status = np.empty((nI, nth), dtype=np.int64)
    band = np.empty((nI, nth), dtype=np.int64)
    tau, margin, lstar, dth, dI = np.empty((5, nI, nth))
    for i in range(nI):
        for j in range(nth):
            st, t, kb, mg, ph, sg, L, g1, g2 = lstar_kernel(
                Ivals[i], thvals[j], r, a1, a2, crit, kreq, tol_cls, tie_tol)
            status[i, j] = st
            tau[i, j] = t
            band[i, j] = kb
            margin[i, j] = mg
            lstar[i, j] = L
            dth[i, j] = g1
            dI[i, j] = g2
    return status, tau, band, margin, lstar, dth, dI
