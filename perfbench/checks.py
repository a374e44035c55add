"""Output checks for the benchmark workloads, computed apart from pendrotor.

Every reference value here comes from a textbook formula, a uniform ray scan
written in this file, scipy's DOP853 integrator or an mpmath quadrature; no
check compares against a stored copy of earlier output, and none calls the
pendrotor code that produced the output under test.  All workloads use r = 1,
so sigma = phi - s and the formulas below are written for that case:

    alpha(I) = I^2 sinh(pi (I-1)/2) / ((I-1)^2 sinh(pi I/2)),
    beta(I)  = I alpha(I) / (I-1),
    A1(I)    = 2 pi I a1 / sinh(pi I/2),
    A2(I)    = 2 pi (I-1) a2 / sinh(pi (I-1)/2),
    L*       = A1 cos(phi*) + A2 cos(sigma*),
    dL*/dth  = A1 sin(phi*) / (I-1) = -A2 sin(sigma*) / I,
    dL*/dI   = A1' cos(phi*) + A2' cos(sigma*) - tau* dL*/dth,

with phi* = theta - I tau*, sigma* = theta - (I-1) tau* and tau* a root of
the ridge residual c sin(phi) + sin(sigma), c = mu alpha(I).

Each ``check_*`` function returns a list of failure messages (empty when the
output passes).
"""

from __future__ import annotations

import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi

#: step of the uniform ray scan; crossing pairs closer than this are missed
SCAN_STEP = 1e-4
#: |tau| window in which two crossings count as equally near (solver tie rule)
TIE = 1e-9
#: published mu = 0.5 thresholds (alpha and beta crossings of 1/|mu|)
PUBLISHED_ALPHA = (-1.807, 0.701, 1.367)
PUBLISHED_BETA = (-2.942, 0.595, 1.85)
PUBLISHED_TOL = 0.005
#: half-width of the resonance bands used by the inner-portrait regions
RES_HALF_WIDTH = 0.25
#: DOP853 tolerances of the inner-flow reference integrations
IVP_TOL = 1e-13
#: allowed gap between a program inner arc and the DOP853 reference
ARC_GAP = 1e-7
#: allowed gap between program sections and DOP853 over SECTION_PERIODS
SECTION_GAP = 5e-7
SECTION_PERIODS = 20


# ----------------------------------------------------------------------
# textbook formulas (r = 1)
# ----------------------------------------------------------------------

def alpha(I: float) -> float:
    d = I - 1.0
    if I == 0.0:
        return 0.0
    return I * I * math.sinh(0.5 * math.pi * d) / (d * d * math.sinh(0.5 * math.pi * I))


def beta(I: float) -> float:
    return I * alpha(I) / (I - 1.0)


def _x_over_sinh(x: float) -> float:
    return 1.0 if x == 0.0 else x / math.sinh(x)


def _x_over_sinh_prime(x: float) -> float:
    if abs(x) < 1e-2:
        x2 = x * x
        return x * (-1.0 / 3.0 + x2 * (7.0 / 90.0 - x2 * 31.0 / 2520.0))
    sh = math.sinh(x)
    return (sh - x * math.cosh(x)) / (sh * sh)


def amp1(I: float, a1: float) -> float:
    """2 pi I a1 / sinh(pi I / 2), equal to 4 a1 at I = 0."""
    return 4.0 * a1 * _x_over_sinh(0.5 * math.pi * I)


def amp2(I: float, a2: float) -> float:
    """2 pi (I-1) a2 / sinh(pi (I-1) / 2), equal to 4 a2 at I = 1."""
    return 4.0 * a2 * _x_over_sinh(0.5 * math.pi * (I - 1.0))


def amp1_prime(I: float, a1: float) -> float:
    return 2.0 * math.pi * a1 * _x_over_sinh_prime(0.5 * math.pi * I)


def amp2_prime(I: float, a2: float) -> float:
    return 2.0 * math.pi * a2 * _x_over_sinh_prime(0.5 * math.pi * (I - 1.0))


def melnikov_textbook(I, phi, s, a1, a2):
    return amp1(I, a1) * math.cos(phi) + amp2(I, a2) * math.cos(phi - s)


# ----------------------------------------------------------------------
# uniform ray scan for tau*
# ----------------------------------------------------------------------

def _residual(taus, I, theta, c):
    """Ridge residual along the ray, divided by max(1, |c|)."""
    phi = theta - I * taus
    sig = theta - (I - 1.0) * taus
    if abs(c) <= 1.0:
        return c * np.sin(phi) + np.sin(sig)
    return math.copysign(1.0, c) * np.sin(phi) + np.sin(sig) / abs(c)


def residual(tau: float, I: float, theta: float, c: float) -> float:
    return float(_residual(np.array([tau]), I, theta, c)[0])


def residual_slope(tau, I, theta, c):
    """|d residual / d tau|, the transversality margin of a crossing."""
    phi = theta - I * tau
    sig = theta - (I - 1.0) * tau
    if abs(c) <= 1.0:
        return abs(-c * I * np.cos(phi) - (I - 1.0) * np.cos(sig))
    return abs(-math.copysign(1.0, c) * I * np.cos(phi)
               - (I - 1.0) * np.cos(sig) / abs(c))


def band_of(tau, I, theta, c):
    """Unwrapped ridge branch through the crossing at tau."""
    w = theta - (I - 1.0) * tau if abs(c) < 1.0 else theta - I * tau
    return int(math.floor(w / math.pi + 0.5))


def scan_roots(I, theta, c, lo, hi):
    """Every sign change of the ridge residual on [lo, hi], bisected."""
    n = max(1, int(math.ceil((hi - lo) / SCAN_STEP)))
    taus = np.linspace(lo, hi, n + 1)
    g = _residual(taus, I, theta, c)
    neg = np.signbit(g)
    idx = np.nonzero(neg[1:] != neg[:-1])[0]
    a, b = taus[idx], taus[idx + 1]
    neg_a = neg[idx]
    for _ in range(64):
        mid = 0.5 * (a + b)
        same = np.signbit(_residual(mid, I, theta, c)) == neg_a
        a = np.where(same, mid, a)
        b = np.where(same, b, mid)
    return [float(t) for t in 0.5 * (a + b)]


def tau_limit(I: float) -> float:
    """The solver's |tau| window, 8 pi max(1, 1/min(|I|, |I-1|))."""
    fmin = max(min(abs(I), abs(I - 1.0)), 1e-12)
    return 8.0 * math.pi * max(1.0, 1.0 / fmin)


def _accepts(criterion: str, I: float, tau: float, band: int) -> bool:
    if criterion == "minabs":
        return True
    if criterion == "down":
        # sigma decreases along tau > 0 exactly when I > 1
        forward = 1.0 if I > 1.0 else -1.0
        return band % 2 == 0 and forward * tau >= 0.0
    return band == int(criterion.split("=")[1])


def acceptable_roots(criterion, I, theta, c, reach):
    """Criterion-matching crossings with |tau| <= reach, nearest first."""
    roots = [t for t in scan_roots(I, theta, c, -reach, reach)
             if _accepts(criterion, I, t, band_of(t, I, theta, c))]
    return sorted(roots, key=abs)


def nearest_roots(criterion, I, theta, c):
    """Nearest criterion-matching crossings (ties within TIE), or [].

    The scan window doubles until it holds a crossing, so the cost follows
    |tau*| rather than the solver's (possibly long) tau window.
    """
    limit = tau_limit(I)
    reach = min(2.0, limit)
    while True:
        roots = acceptable_roots(criterion, I, theta, c, reach)
        if roots:
            return [t for t in roots if abs(t) <= abs(roots[0]) + TIE]
        if reach >= limit:
            return []
        reach = min(2.0 * reach, limit)


def lstar(I, theta, tau, a1, a2):
    """(L*, dL*/dtheta, dL*/dI) at the crossing tau, from the closed forms."""
    phi = theta - I * tau
    sig = theta - (I - 1.0) * tau
    A1, A2 = amp1(I, a1), amp2(I, a2)
    L = A1 * math.cos(phi) + A2 * math.cos(sig)
    if abs(I - 1.0) >= abs(I):
        dth = A1 * math.sin(phi) / (I - 1.0)
    else:
        dth = -A2 * math.sin(sig) / I
    dI = amp1_prime(I, a1) * math.cos(phi) + amp2_prime(I, a2) * math.cos(sig) - tau * dth
    return L, dth, dI


def close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol * (1.0 + abs(y))


# ----------------------------------------------------------------------
# output parsing
# ----------------------------------------------------------------------

def read_csv(path):
    """(header dict of strings, list of row lists) of a pendrotor CSV."""
    header, rows = {}, []
    with open(path) as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, val = line[2:].partition(" = ")
                header[key] = val.strip()
            else:
                rows.append(line.rstrip("\n").split(","))
    return header, rows[1:]


def read_jsonl(path):
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    return records[0], records[1:]


# ----------------------------------------------------------------------
# scatter-drift-verify: the atlas (thresholds, portrait, tau-field)
# ----------------------------------------------------------------------

def check_thresholds(path, mu, I_min, I_max):
    fails = []
    _, rows = read_csv(path)
    got = {"alpha": [], "beta": []}
    intervals = []
    for rec, curve, lo, hi, value, tang, _label in rows:
        if rec == "threshold":
            got[curve].append(float(value))
        elif rec == "interval":
            intervals.append((float(lo), float(hi), curve, tang == "1"))
    for curve, fn, published in (("alpha", alpha, PUBLISHED_ALPHA),
                                 ("beta", beta, PUBLISHED_BETA)):
        vals = sorted(got[curve])
        if len(vals) != len(published):
            fails.append(f"{curve}: {len(vals)} crossings, expected {len(published)}")
            continue
        for v, ref in zip(vals, published):
            if abs(v - ref) > PUBLISHED_TOL:
                fails.append(f"{curve} crossing {v:.6f} is not within "
                             f"{PUBLISHED_TOL} of the published {ref}")
            if abs(abs(mu * fn(v)) - 1.0) > 1e-9:
                fails.append(f"|mu {curve}({v!r})| = {abs(mu * fn(v))!r} != 1")
    # the labelled intervals tile the window, cut at the crossings, and carry
    # the regime and tangency verdict of their midpoint
    cuts = sorted(got["alpha"] + got["beta"])
    edges = [lo for lo, _, _, _ in intervals] + [hi for _, hi, _, _ in intervals[-1:]]
    if edges != [I_min] + cuts + [I_max]:
        fails.append(f"interval edges {edges} do not follow the crossings {cuts}")
    for lo, hi, kind, tang in intervals:
        mid = 0.5 * (lo + hi)
        ca, cb = abs(mu * alpha(mid)), abs(mu * beta(mid))
        want = "horizontal" if ca < 1.0 else "vertical"
        if kind != want or tang != ((ca - 1.0) * (cb - 1.0) < 0.0):
            fails.append(f"interval ({lo}, {hi}) labelled {kind}/{tang}, "
                         f"midpoint says {want}/{(ca - 1.0) * (cb - 1.0) < 0.0}")
    return fails


def _sample(rng, n_total, n):
    return sorted(rng.choice(n_total, size=min(n, n_total), replace=False).tolist())


def check_tau_field(path, rng, n_sample=40):
    fails = []
    head, rows = read_jsonl(path)
    mu, crit = head["mu"], head["criterion"]
    if not rows:
        return ["no rows"]
    I = np.array([r["I"] for r in rows])
    th = np.array([r["theta"] for r in rows])
    tau = np.array([r["tau_star"] if r["status"] == 0 else math.nan for r in rows])
    ok = np.array([r["status"] == 0 for r in rows])
    if not ok.all():
        fails.append(f"{int((~ok).sum())} rows without a crossing")
    cs = np.array([mu * alpha(float(x)) for x in I])
    # every status-0 row lies on the ridge, on an even branch, with the
    # reported margin
    for k in np.nonzero(ok)[0]:
        r = rows[k]
        Ik, tk, ck = float(I[k]), float(tau[k]), float(cs[k])
        res = residual(tk, Ik, float(th[k]), ck)
        band = band_of(tk, Ik, float(th[k]), ck)
        slope = float(residual_slope(tk, Ik, float(th[k]), ck))
        if abs(res) > 1e-10:
            fails.append(f"row {k}: ridge residual {res:.3e} at tau* = {tk!r}")
        if band != r["branch"] or (crit in ("down", "up") and band % 2):
            fails.append(f"row {k}: branch {r['branch']} but the crossing "
                         f"lies on branch {band}")
        if not close(slope, r["margin"], 1e-9):
            fails.append(f"row {k}: margin {r['margin']!r}, slope {slope!r}")
        if r["degenerate"] != int(r["margin"] < 1e-6):
            fails.append(f"row {k}: degenerate flag {r['degenerate']}")
        if len(fails) > 20:
            return fails
    # a seeded sample: the uniform scan finds the same tau* and no
    # acceptable crossing nearer
    for k in _sample(rng, len(rows), n_sample):
        if not ok[k]:
            continue
        Ik, thk, ck, tk = float(I[k]), float(th[k]), float(cs[k]), float(tau[k])
        found = acceptable_roots(crit, Ik, thk, ck, abs(tk) + 0.5)
        nearer = [t for t in found if abs(t) < abs(tk) - TIE]
        if nearer:
            fails.append(f"row {k}: scan finds a crossing at {nearer[0]!r}, "
                         f"nearer than tau* = {tk!r}")
        elif not any(abs(t - tk) <= 1e-9 * (1.0 + abs(tk)) for t in found):
            fails.append(f"row {k}: scan finds no crossing at tau* = {tk!r}")
    return fails


def check_portrait(path, rng, n_sample=40):
    fails = []
    head, rows = read_csv(path)
    mu, a1, a2 = float(head["mu"]), float(head["a1"]), float(head["a2"])
    crit = head["criterion"]
    for k in _sample(rng, len(rows), n_sample):
        I, th, L, dth, sign, _region, _degen, status = rows[k]
        I, th = float(I), float(th)
        c = mu * alpha(I)
        roots = nearest_roots(crit, I, th, c)
        if status != "0":
            if roots:
                fails.append(f"row {k}: status {status} but the scan finds "
                             f"tau* = {roots[0]!r}")
            continue
        if not roots:
            fails.append(f"row {k}: status 0 but the scan finds no crossing")
            continue
        refs = [lstar(I, th, t, a1, a2) for t in roots]
        if not any(close(float(L), rL, 1e-9) and close(float(dth), rd, 1e-8)
                   for rL, rd, _ in refs):
            fails.append(f"row {k}: (lstar, dlstar_dtheta) = ({L}, {dth}), "
                         f"closed forms give {refs[0][:2]}")
        elif int(sign) != int(np.sign(float(dth))):
            fails.append(f"row {k}: idot_sign {sign} for dL*/dtheta {dth}")
    return fails


# ----------------------------------------------------------------------
# scatter-drift-verify: the drift orbits (diffuse)
# ----------------------------------------------------------------------

def _inner_rhs(t, y, eps, a1, a2):
    I, phi = y
    return [eps * (a1 * math.sin(phi) + a2 * math.sin(phi - t)), I]


def integrate_reference(I0, phi0, t_end, eps, a1, a2, t_eval=None):
    """DOP853 solution of the inner flow from s = 0; rows (I, phi)."""
    from scipy.integrate import solve_ivp
    sol = solve_ivp(_inner_rhs, (0.0, t_end), [I0, phi0], method="DOP853",
                    rtol=IVP_TOL, atol=IVP_TOL, t_eval=t_eval,
                    args=(eps, a1, a2))
    if sol.status != 0:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T


def check_orbit(orbit_path, report_path, I_start, I_end, rng, n_sample=25):
    fails = []
    with open(report_path) as fh:
        rep = json.load(fh)
    if rep.get("ok") is not True:
        fails.append(f"report not ok: {rep.get('failures')}")
    if not rep.get("final_I", -math.inf) >= I_end:
        fails.append(f"final_I {rep.get('final_I')} below I_end {I_end}")
    head, rows = read_csv(orbit_path)
    # jump legs live in the canonical frame, where both amplitudes are positive
    eps, a1, a2 = float(head["eps"]), abs(float(head["a1"])), abs(float(head["a2"]))
    legs = [(r[1], float(r[2]), float(r[3]), float(r[4]), float(r[5]),
             r[6], r[7], float(r[8])) for r in rows]
    if not legs:
        return fails + ["no legs"]
    if legs[0][1] != I_start or legs[-1][3] != rep.get("final_I"):
        fails.append("orbit does not run from I_start to final_I")
    jumps = [k for k, leg in enumerate(legs) if leg[0] == "scatter"]
    if (len(jumps), len(legs) - len(jumps)) != (rep.get("n_scatter"), rep.get("n_inner")):
        fails.append("leg counts differ from the report")
    for k, (kind, I0, a0, I1, a1_, *_rest) in enumerate(legs):
        if kind == "scatter" and not I1 > I0:
            fails.append(f"leg {k}: jump does not raise I")
        if k:
            prev = legs[k - 1]
            prev_angle = prev[4] % TWO_PI if prev[0] == "inner" else prev[4]
            if I0 != prev[3] or a0 != prev_angle:
                fails.append(f"leg {k}: does not start where leg {k - 1} ends")
        if len(fails) > 20:
            return fails
    budget = 10.0 * eps * eps
    for k in _sample(rng, len(jumps), n_sample):
        k = jumps[k]
        _, I0, th0, I1, th1, level, resid, _ = legs[k]
        ends = []
        for I, th in ((I0, th0), (I1, th1)):
            roots = nearest_roots("branch=1", I, th, (a1 / a2) * alpha(I))
            ends.append(lstar(I, th, roots[0], a1, a2) if roots else None)
        if None in ends:
            fails.append(f"leg {k}: the scan finds no branch-1 crossing")
            continue
        (L0, dth, dI), (L1, _, _) = ends
        if abs(L1 - L0) > budget:
            fails.append(f"leg {k}: |dL*| = {abs(L1 - L0):.3e} > {budget:.3e}")
        if not (close(float(level), L0, 1e-9) and abs(float(resid) - abs(L1 - L0)) <= 1e-12):
            fails.append(f"leg {k}: level/residual ({level}, {resid}) differ "
                         f"from ({L0!r}, {abs(L1 - L0)!r})")
        dth_step = (th0 - eps * dI) % TWO_PI - th1
        if abs(I0 + eps * dth - I1) > 1e-10 or abs((dth_step + math.pi) % TWO_PI - math.pi) > 1e-10:
            fails.append(f"leg {k}: destination is not the jump of its source")
    for k, (kind, I0, phi0, I1, phi1, _, _, duration) in enumerate(legs):
        if kind != "inner":
            continue
        I_ref, phi_ref = integrate_reference(I0, phi0, duration, eps, a1, a2)[-1]
        gap = max(abs(I_ref - I1), abs(phi_ref - phi1))
        if gap > ARC_GAP:
            fails.append(f"leg {k}: DOP853 lands {gap:.3e} from the arc end")
    return fails


def check_conjugate_orbit(orbit_path, reference_path):
    """The negative-a1 orbit is the positive one shifted by pi in phi and s."""
    head, rows = read_csv(orbit_path)
    ref_head, ref_rows = read_csv(reference_path)
    fails = []
    if rows != ref_rows:
        fails.append("legs differ from the positive-amplitude orbit")
    pi = format(math.pi, ".17g")
    if (head.get("frame_phi_shift"), head.get("frame_s_shift")) != (pi, pi):
        fails.append(f"frame shifts ({head.get('frame_phi_shift')}, "
                     f"{head.get('frame_s_shift')}) are not (pi, pi)")
    if float(head["a1"]) != -float(ref_head["a1"]):
        fails.append("a1 is not the negated reference amplitude")
    return fails


# ----------------------------------------------------------------------
# inner-sections
# ----------------------------------------------------------------------

def check_inner(path, I_min, I_max, grid_n, periods, rng, n_orbits=6):
    fails = []
    head, rows = read_csv(path)
    eps, a1, a2 = float(head["eps"]), float(head["a1"]), float(head["a2"])
    if len(rows) != grid_n * periods:
        return [f"{len(rows)} rows, expected {grid_n * periods}"]
    data = np.array([[float(v) for v in (r[0], r[1], r[2], r[3], r[4], r[6])]
                     for r in rows])
    orbit, n, t, I, phi, tv = data.T
    if not (np.array_equal(orbit, np.repeat(np.arange(grid_n), periods))
            and np.array_equal(n, np.tile(np.arange(1, periods + 1), grid_n))):
        fails.append("rows are not orbit-major with n = 1..periods")
    if np.max(np.abs(t - TWO_PI * n)) > 1e-9:
        fails.append("section times are not 2 pi n")
    if np.any((phi < 0.0) | (phi >= TWO_PI)):
        fails.append("phi_mod outside [0, 2 pi)")
    for k, r in enumerate(rows):
        Ik = float(r[3])
        want = ("res0" if abs(Ik) <= RES_HALF_WIDTH
                else "res1" if abs(Ik - 1.0) <= RES_HALF_WIDTH else "nonres")
        if r[5] != want:
            fails.append(f"row {k}: region {r[5]}, expected {want}")
            break
    res0 = np.abs(I) <= RES_HALF_WIDTH
    res1 = ~res0 & (np.abs(I - 1.0) <= RES_HALF_WIDTH)
    ref = 0.5 * I * I
    ref = np.where(res0, ref + eps * a1 * np.cos(phi), ref)
    ref = np.where(res1, 0.5 * (I - 1.0) ** 2 + eps * a2 * np.cos(phi - t), ref)
    if np.max(np.abs(tv - ref)) > 1e-10:
        fails.append(f"torus_value differs from the truncated invariant by "
                     f"{np.max(np.abs(tv - ref)):.3e}")
    starts = np.linspace(I_min, I_max, grid_n)
    n_cmp = min(SECTION_PERIODS, periods)
    t_eval = TWO_PI * np.arange(1, n_cmp + 1)
    for o in _sample(rng, grid_n, n_orbits):
        ref = integrate_reference(float(starts[o]), 0.0, t_eval[-1], eps, a1, a2, t_eval)
        sl = slice(o * periods, o * periods + n_cmp)
        dphi = (ref[:, 1] - phi[sl] + math.pi) % TWO_PI - math.pi
        gap = max(np.max(np.abs(ref[:, 0] - I[sl])), np.max(np.abs(dphi)))
        if gap > SECTION_GAP:
            fails.append(f"orbit {o}: sections {gap:.3e} from DOP853")
    return fails


# ----------------------------------------------------------------------
# scatter-drift-verify: the oracle self-check (verify)
# ----------------------------------------------------------------------

REPORT_CHECKS = ("melnikov_closed_vs_quadrature", "tau_star_vs_ray_scan",
                 "down_up_reflection_symmetry", "positive_drift_window")


def check_verify_report(path, expect_failed=()):
    """All four checks present with n > 0; exactly ``expect_failed`` fail."""
    with open(path) as fh:
        rep = json.load(fh)
    fails = []
    checks = {c["name"]: c for c in rep.get("checks", [])}
    if tuple(checks) != REPORT_CHECKS:
        return [f"checks {list(checks)}, expected {list(REPORT_CHECKS)}"]
    for name, c in checks.items():
        if c["n"] <= 0:
            fails.append(f"{name}: n = {c['n']}")
        if c["passed"] == (name in expect_failed):
            fails.append(f"{name}: passed = {c['passed']}")
    if rep.get("ok") != (not expect_failed):
        fails.append(f"ok = {rep.get('ok')}")
    return fails


def check_melnikov_mpmath(melnikov_closed, params, rng, n=3):
    """Closed-form splitting values against mpmath.quad of 2 sech^2(x) g.

    ``melnikov_closed`` is the program's closed form; the textbook closed
    form is compared too, since the other checks rely on it.
    """
    import mpmath as mp

    fails = []
    a1, a2 = params.a1, params.a2
    with mp.workdps(30):
        for _ in range(n):
            I, phi, s = rng.uniform(-3.0, 3.0), rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI)

            def g(x):
                ph = phi + I * x
                return 2 * mp.sech(x) ** 2 * (a1 * mp.cos(ph) + a2 * mp.cos(ph - (s + x)))

            ref = float(mp.quad(g, [-mp.inf, 0, mp.inf]))
            for name, val in (("program", melnikov_closed(I, phi, s, params)),
                              ("textbook", melnikov_textbook(I, phi, s, a1, a2))):
                if abs(val - ref) > 1e-10:
                    fails.append(f"{name} closed form {val!r} != quadrature "
                                 f"{ref!r} at (I, phi, s) = ({I}, {phi}, {s})")
    return fails
