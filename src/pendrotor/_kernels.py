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

#: band around |c| = 1 (c = mu*alpha_r(I)) classified as singular
TOL_CLS = 1e-9
#: |tau| window within which two crossings tie for the minimal-|tau| criterion
TIE_TOL = 1e-9


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


#: pi|I|/2 or pi|rI - 1|/2 from which alpha_r is taken by _alpha_r_far;
#: below it neither x/sinh(x) underflows
SINH_FAR = 300.0


def _alpha_r_far(I: float, r: float, d: float) -> float:
    """alpha_r(I) for d = rI - 1 != 0 where pi|I|/2 or pi|d|/2 reaches
    SINH_FAR.

    sinh(pi d/2)/sinh(pi I/2) = s_d s_I exp(pi(|d| - |I|)/2) times a ratio
    of expm1 tails, with s = sign.  The exponent is formed as
    (pi/2)((s_d r - s_I) I - s_d), so that the -1 in d is not lost against
    |I| (at r = 1 the I term cancels exactly), and (I/d)^2 as (I/d)*(I/d)
    so that it does not overflow.
    """
    s_d = 1.0 if d > 0.0 else -1.0
    s_I = 1.0 if I > 0.0 else -1.0
    q = I / d
    tails = math.expm1(-PI * abs(d)) / math.expm1(-PI * abs(I))
    return (s_d * s_I * q * q * tails
            * math.exp(0.5 * PI * ((s_d * r - s_I) * I - s_d)))


def alpha_r_raw(I: float, r: float) -> float:
    """I^2 sinh(pi(rI-1)/2) / ((rI-1)^2 sinh(pi I/2)); +/-inf at I = 1/r.

    Evaluated as (I/(rI-1)) * h(pi I/2)/h(pi(rI-1)/2) so the removable zero
    at I = 0 is exact, and by :func:`_alpha_r_far` from SINH_FAR on.
    """
    d = r * I - 1.0
    if d == 0.0:
        # pole; sign from the one-sided limit is irrelevant to callers
        return math.inf if I > 0.0 else -math.inf
    u = 0.5 * PI * d
    v = 0.5 * PI * I
    if abs(u) < SINH_FAR and abs(v) < SINH_FAR:
        return (I / d) * h_ratio_fn(v) / h_ratio_fn(u)
    return _alpha_r_far(I, r, d)


def beta_r_raw(I: float, r: float) -> float:
    """I * alpha_r(I) / (rI - 1)."""
    d = r * I - 1.0
    if d == 0.0:
        return math.inf
    return I * alpha_r_raw(I, r) / d


def crest_coef(I: float, a1: float, a2: float, r: float) -> float:
    """c = mu * alpha_r(I) = I*A1(I) / ((rI-1)*A2(I)); signed, +/-inf at poles."""
    d = r * I - 1.0
    u = 0.5 * PI * d
    v = 0.5 * PI * I
    if ((abs(u) >= SINH_FAR or abs(v) >= SINH_FAR) and d != 0.0
            and a2 != 0.0):
        return (a1 / a2) * _alpha_r_far(I, r, d)
    num = a1 * I * h_ratio_fn(v)
    den = a2 * d * h_ratio_fn(u)
    if den == 0.0:
        # num has the sign of a1*I, and is zero only with it (not where
        # h underflows, at a2 = 0)
        s = a1 * I
        if s == 0.0:
            return 0.0
        return math.inf if s > 0.0 else -math.inf
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
    hb = _hb
    # h_b < 0 at tn, > 0 at tp
    tn, tp = (ta, tb) if fa < 0.0 else (tb, ta)
    t = ta - fa * (tb - ta) / (fb - fa)
    last = before = tb - ta
    for _ in range(120):
        f, df = hb(t, m, par, w0, lw, phi0, sig0, rphi, rsig, c, horizontal)
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


def _fold(root, d, phi0, sig0, rphi, rsig, c, ac, best):
    """Merge a crossing into the running best (tau, key, margin), key inf for
    none yet: smallest key d*tau wins; within TIE_TOL of the best key the
    larger transversality margin wins, except that of two crossings on
    opposite sides of tau = 0 whose margins agree to MARGIN_TIE_RTOL (mirror
    crossings) the one with tau >= 0 wins."""
    best_t, best_key, best_marg = best
    key = d * root
    marg = abs(_gn_prime(root, phi0, sig0, rphi, rsig, c, ac))
    if key < best_key - TIE_TOL:
        return root, key, marg
    if key < best_key + TIE_TOL:
        mirror = ((root >= 0.0) != (best_t >= 0.0)
                  and abs(marg - best_marg) <= MARGIN_TIE_RTOL * max(marg, best_marg))
        if root >= 0.0 if mirror else marg > best_marg:
            return root, best_key, marg
    return best


def _walk_band(lo, hi, d, m, w0, lw, phi0, sig0, rphi, rsig, c, horizontal,
               best):
    """Fold the crossings of branch m with tau in [lo, hi] into the running
    best (tau, key, margin) and return it.

    The interval lies on one side of tau = 0 and is walked away from it
    (d = +1 from lo, d = -1 from hi), so the key d*tau = |tau| grows along
    the walk.  Breakpoints are the critical points of h_b, between which it
    is monotone: a sign check at each breakpoint brackets every crossing
    exactly, and the walk stops once no later crossing can beat or tie the
    best.
    """
    ac = abs(c)
    # oscillating angle psi of h_b (module docstring)
    if horizontal:
        psi0, rpsi, q = phi0, rphi, c
    else:
        psi0, rpsi, q = sig0, rsig, 1.0 / c
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
    # crossings need |w - m*pi| <= asin|q|: the tau interval [zlo, zhi]
    # where |w0 + lw*tau - m*pi| <= asin|q|; walk only the pieces meeting it
    half = math.asin(abs(q))
    e1 = ((m * PI - half) - w0) / lw
    e2 = ((m * PI + half) - w0) / lw
    zlo = e2 if e2 < e1 else e1
    zhi = e2 if e2 > e1 else e1
    if d > 0.0:
        s = zlo if zlo > lo else lo
        e = zhi if zhi < hi else hi
    else:
        s = zhi if zhi < hi else hi
        e = zlo if zlo > lo else lo
    hb = _hb
    # the j-th critical tau is (u1 for even j, u2 for odd j) + (j // 2)*period,
    # nondecreasing in j
    j = 0
    if period > 0.0:
        # start at the breakpoint on or before s in walk order
        j = 2 * int(math.floor((s - u1) / period))
        if d > 0.0:
            j -= 2
            while (u2 if j % 2 == 0 else u1) + ((j + 1) // 2) * period <= s:
                j += 1
        else:
            j += 4
            while (u2 if j % 2 == 0 else u1) + ((j - 1) // 2) * period >= s:
                j -= 1
        t = (u1 if j % 2 == 0 else u2) + (j // 2) * period
        if t < lo:
            t = lo
        if t > hi:
            t = hi
    else:
        t = lo if d > 0.0 else hi
    dj = 1 if d > 0.0 else -1
    f = hb(t, m, par, w0, lw, phi0, sig0, rphi, rsig, c, horizontal)[0]
    if f == 0.0:
        best = _fold(t, d, phi0, sig0, rphi, rsig, c, ac, best)
    while d * (e - t) > 0.0:
        if d * t > best[1] + TIE_TOL:
            break
        if period > 0.0:
            j += dj
            tn = (u1 if j % 2 == 0 else u2) + (j // 2) * period
            if tn < lo:
                tn = lo
            if tn > hi:
                tn = hi
        else:
            tn = hi if d > 0.0 else lo
        fn = hb(tn, m, par, w0, lw, phi0, sig0, rphi, rsig, c, horizontal)[0]
        root = math.nan
        if fn == 0.0:
            root = tn
        elif f != 0.0 and (f > 0.0) != (fn > 0.0):
            root = _newton_hb(t, tn, f, fn, m, par, w0, lw, phi0, sig0, rphi,
                              rsig, c, horizontal)
        if root == root:
            best = _fold(root, d, phi0, sig0, rphi, rsig, c, ac, best)
        t = tn
        f = fn
    return best


def tau_star_kernel(I, theta, r, c, crit, kreq):
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
    if abs(ac - 1.0) < TOL_CLS:
        return TAU_SINGULAR, math.nan, 0, 0.0, math.nan, math.nan
    horizontal = ac < 1.0
    phi0 = theta
    sig0 = r * theta
    rphi = -I
    rsig = -(r * I - 1.0)
    # band coordinate w of h_b = (w - m*pi) + par*asin(q sin psi)
    if horizontal:
        w0, lw = sig0, rsig
    else:
        w0, lw = phi0, rphi
    fmin = abs(rphi)
    if abs(rsig) < fmin:
        fmin = abs(rsig)
    if fmin < 1e-12:
        fmin = 1e-12
    tau_max = 8.0 * PI * (1.0 / fmin if fmin < 1.0 else 1.0)

    if abs(lw) < 1e-300:
        return TAU_UNREACHABLE, math.nan, 0, 0.0, math.nan, math.nan

    # running best (tau, key, margin); key inf: no crossing yet
    best = (math.inf, math.inf, 0.0)

    # march strips outward from the launch point: on the side of decreasing/
    # increasing sigma (down/up, even family only), or on both sides (minabs
    # over every strip, branch over strip kreq alone)
    marching = crit == CRIT_DOWN or crit == CRIT_UP
    if marching and abs(rsig) < 1e-300:
        return TAU_UNREACHABLE, math.nan, 0, 0.0, math.nan, math.nan
    m0 = kreq if crit == CRIT_BRANCH else int(math.floor(w0 / PI + 0.5))
    half = 0.5 * PI
    for side in range(1 if marching else 2):
        dtau = 1.0 if side == 0 else -1.0
        if marching:
            want_dsig = -1.0 if crit == CRIT_DOWN else 1.0
            dtau = 1.0 if rsig * want_dsig > 0.0 else -1.0
        step_m = 1 if lw * dtau > 0.0 else -1
        m = m0
        for _ in range(1 if crit == CRIT_BRANCH else 64):
            # strip m: the tau interval [ta, tb] where |w - m*pi| <= pi/2
            e1 = ((m * PI - half) - w0) / lw
            e2 = ((m * PI + half) - w0) / lw
            ta = e2 if e2 < e1 else e1
            tb = e2 if e2 > e1 else e1
            if dtau > 0.0:
                if ta < 0.0:
                    ta = 0.0
            else:
                if tb > 0.0:
                    tb = 0.0
            entry = ta if dtau > 0.0 else -tb
            if entry > tau_max or entry > best[1] + TIE_TOL:
                break
            if dtau > 0.0 and tb > tau_max:
                tb = tau_max
            if dtau < 0.0 and ta < -tau_max:
                ta = -tau_max
            if tb >= ta and (not marching or (m % 2) == 0):
                best = _walk_band(ta, tb, dtau, m, w0, lw, phi0, sig0, rphi,
                                  rsig, c, horizontal, best)
            m += step_m
    best_t, best_key, best_marg = best
    if best_key == math.inf:
        return TAU_UNREACHABLE, math.nan, 0, 0.0, math.nan, math.nan
    # recover the band index of the winner
    if horizontal:
        kb = int(math.floor((sig0 + rsig * best_t) / PI + 0.5))
    else:
        kb = int(math.floor((phi0 + rphi * best_t) / PI + 0.5))
    return (TAU_OK, best_t, kb, best_marg, phi0 + rphi * best_t,
            sig0 + rsig * best_t)


def lstar_row(I, r, a1, a2):
    """The part of lstar_kernel that depends on I alone:
    (c, rI - 1, A1, A2, A1', A2')."""
    I = float(I)
    r = float(r)
    a1 = float(a1)
    a2 = float(a2)
    return (crest_coef(I, a1, a2, r), r * I - 1.0, amp1(I, a1),
            amp2(I, a2, r), amp1_prime(I, a1), amp2_prime(I, a2, r))


def lstar_point(I, theta, r, row, crit, kreq):
    """lstar_kernel at (I, theta), given lstar_row(I, r, a1, a2) and float
    I and r."""
    c, d, A1, A2, A1p, A2p = row
    status, tau, kb, margin, phis, sigs = tau_star_kernel(
        I, theta, r, c, crit, kreq)
    if status != TAU_OK:
        return status, tau, kb, margin, phis, sigs, math.nan, math.nan, math.nan
    cp = math.cos(phis)
    cs = math.cos(sigs)
    L = A1 * cp + A2 * cs
    # two equivalent gradient forms; pick the well-conditioned denominator
    if abs(d) >= abs(I):
        dth = A1 * math.sin(phis) / d
    else:
        dth = -A2 * math.sin(sigs) / I
    dI = A1p * cp + A2p * cs - tau * dth
    return status, tau, kb, margin, phis, sigs, L, dth, dI


def lstar_kernel(I, theta, r, a1, a2, crit, kreq):
    """Reduced splitting value and gradient at the selected crossing.

    Returns (status, tau, band, margin, phi*, sigma*, L, dL/dtheta, dL/dI).
    """
    I = float(I)
    r = float(r)
    return lstar_point(I, theta, r, lstar_row(I, r, a1, a2), crit, kreq)


def sweep_kernel(Ivals, thvals, r, a1, a2, crit, kreq):
    """lstar_kernel for a criterion over the grid Ivals x thvals.

    Returns (nI, nth) arrays (status, tau, band, margin, lstar, dth, dI);
    status and band are int64.
    """
    nI = Ivals.shape[0]
    nth = thvals.shape[0]
    status = np.empty((nI, nth), dtype=np.int64)
    band = np.empty((nI, nth), dtype=np.int64)
    tau, margin, lstar, dth, dI = np.empty((5, nI, nth))
    r = float(r)
    ths = thvals.tolist()
    if not ths:
        # no angle: zip below would yield no columns
        return status, tau, band, margin, lstar, dth, dI
    for i, I in enumerate(Ivals.tolist()):
        I = float(I)
        row = lstar_row(I, r, a1, a2)
        # one row of every output at once, from the columns of the results
        (status[i], tau[i], band[i], margin[i], _, _, lstar[i], dth[i],
         dI[i]) = zip(*[lstar_point(I, th, r, row, crit, kreq)
                        for th in ths])
    return status, tau, band, margin, lstar, dth, dI
