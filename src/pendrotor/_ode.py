"""Adaptive Dormand-Prince 8(5,3) integrator (DOP853) specialized to the
inner flow.

State vector y = (I, phi):

    dI/dt   = eps * (a1 sin(phi) + r a2 sin(r phi - s))
    dphi/dt = I,                                   s = s0 + t.

The stages are unrolled by hand; dphi/dt = I makes each stage's phi
derivative the stage's own I value.  The step is accepted when the
combined 5th/3rd-order error estimate of Hairer, Norsett & Wanner,
"Solving Ordinary Differential Equations I" (2nd ed., Springer 1993),
Sec. II.10, is at most 1: an RMS over (I, phi) of each component's error
over atol + rtol * |y|.

The stepper clips steps onto the requested end time, so states at arbitrary
times come out at full integration accuracy (no interpolation error).  Each
call returns the step size its controller proposed before that clip, so a
caller that integrates on from the end time carries the step across calls
instead of starting again from ``H_START``.
"""

from __future__ import annotations

import math

ODE_OK = 0
ODE_STEPFAIL = 1

#: First step size of an integration that has no step to carry over
H_START = 0.1

# DOP853 tableau (Hairer, Norsett & Wanner, Sec. II.10; their dop853.f).
# _Ai_j is the weight of stage j in stage i; stage 1 is the FSAL
# derivative at the step start and stage 12 sits at t + h.
_C2 = 0.526001519587677318785587544488e-01
_C3 = 0.789002279381515978178381316732e-01
_C4 = 0.118350341907227396726757197510
_C5 = 0.281649658092772603273242802490
_C6 = 0.333333333333333333333333333333
_C7 = 0.25
_C8 = 0.307692307692307692307692307692
_C9 = 0.651282051282051282051282051282
_C10 = 0.6
_C11 = 0.857142857142857142857142857142

_A2_1 = 5.26001519587677318785587544488e-2

_A3_1 = 1.97250569845378994544595329183e-2
_A3_2 = 5.91751709536136983633785987549e-2

_A4_1 = 2.95875854768068491816892993775e-2
_A4_3 = 8.87627564304205475450678981324e-2

_A5_1 = 2.41365134159266685502369798665e-1
_A5_3 = -8.84549479328286085344864962717e-1
_A5_4 = 9.24834003261792003115737966543e-1

_A6_1 = 3.7037037037037037037037037037e-2
_A6_4 = 1.70828608729473871279604482173e-1
_A6_5 = 1.25467687566822425016691814123e-1

_A7_1 = 3.7109375e-2
_A7_4 = 1.70252211019544039314978060272e-1
_A7_5 = 6.02165389804559606850219397283e-2
_A7_6 = -1.7578125e-2

_A8_1 = 3.70920001185047927108779319836e-2
_A8_4 = 1.70383925712239993810214054705e-1
_A8_5 = 1.07262030446373284651809199168e-1
_A8_6 = -1.53194377486244017527936158236e-2
_A8_7 = 8.27378916381402288758473766002e-3

_A9_1 = 6.24110958716075717114429577812e-1
_A9_4 = -3.36089262944694129406857109825
_A9_5 = -8.68219346841726006818189891453e-1
_A9_6 = 2.75920996994467083049415600797e1
_A9_7 = 2.01540675504778934086186788979e1
_A9_8 = -4.34898841810699588477366255144e1

_A10_1 = 4.77662536438264365890433908527e-1
_A10_4 = -2.48811461997166764192642586468
_A10_5 = -5.90290826836842996371446475743e-1
_A10_6 = 2.12300514481811942347288949897e1
_A10_7 = 1.52792336328824235832596922938e1
_A10_8 = -3.32882109689848629194453265587e1
_A10_9 = -2.03312017085086261358222928593e-2

_A11_1 = -9.3714243008598732571704021658e-1
_A11_4 = 5.18637242884406370830023853209
_A11_5 = 1.09143734899672957818500254654
_A11_6 = -8.14978701074692612513997267357
_A11_7 = -1.85200656599969598641566180701e1
_A11_8 = 2.27394870993505042818970056734e1
_A11_9 = 2.49360555267965238987089396762
_A11_10 = -3.0467644718982195003823669022

_A12_1 = 2.27331014751653820792359768449
_A12_4 = -1.05344954667372501984066689879e1
_A12_5 = -2.00087205822486249909675718444
_A12_6 = -1.79589318631187989172765950534e1
_A12_7 = 2.79488845294199600508499808837e1
_A12_8 = -2.85899827713502369474065508674
_A12_9 = -8.87285693353062954433549289258
_A12_10 = 1.23605671757943030647266201528e1
_A12_11 = 6.43392746015763530355970484046e-1

# 8th-order weights
_B1 = 5.42937341165687622380535766363e-2
_B6 = 4.45031289275240888144113950566
_B7 = 1.89151789931450038304281599044
_B8 = -5.8012039600105847814672114227
_B9 = 3.1116436695781989440891606237e-1
_B10 = -1.52160949662516078556178806805e-1
_B11 = 2.01365400804030348374776537501e-1
_B12 = 4.47106157277725905176885569043e-2

# 3rd-order error weights are _B - _BHH (zero _BHH where not listed)
_BHH1 = 0.244094488188976377952755905512
_BHH9 = 0.733846688281611857341361741547
_BHH12 = 0.220588235294117647058823529412e-1

# 5th-order error weights
_E1 = 0.1312004499419488073250102996e-1
_E6 = -0.1225156446376204440720569753e+1
_E7 = -0.4957589496572501915214079952
_E8 = 0.1664377182454986536961530415e+1
_E9 = -0.3503288487499736816886487290
_E10 = 0.3341791187130174790297318841
_E11 = 0.8192320648511571246570742613e-1
_E12 = -0.2235530786388629525884427845e-1


def integrate_inner(y0, y1, s0, t0, t1, h, eps, a1, a2, r, rtol, atol):
    """Advance (I, phi) from t0 to t1, trying a first step of size h > 0.

    Returns (I, phi, h_next, nsteps, status), where h_next > 0 is the step
    size the controller proposed for the last step before clipping it onto
    t1: the first step to try when integrating on from t1.
    """
    t = t0
    direction = 1.0 if t1 >= t0 else -1.0
    if t1 == t0:
        return y0, y1, h, 0, ODE_OK
    if eps == 0.0:
        # integrable limit: I constant, phi advances linearly
        return y0, y1 + y0 * (t1 - t0), h, 0, ODE_OK
    sin = math.sin
    ea1 = eps * a1
    ra2 = r * eps * a2
    h = direction * h
    # stage i: I value u_i (also dphi/dt), phi value v, dI/dt p_i
    p1 = ea1 * sin(y1) + ra2 * sin(r * y1 - (s0 + t))
    nsteps = 0
    while True:
        if direction * (t1 - t) <= 0.0:
            return y0, y1, abs(h_next), nsteps, ODE_OK
        h_next = h
        if direction * (t + h - t1) > 0.0:
            h = t1 - t
        st = s0 + t
        u2 = y0 + h * (_A2_1 * p1)
        v = y1 + h * (_A2_1 * y0)
        p2 = ea1 * sin(v) + ra2 * sin(r * v - (st + _C2 * h))
        u3 = y0 + h * (_A3_1 * p1 + _A3_2 * p2)
        v = y1 + h * (_A3_1 * y0 + _A3_2 * u2)
        p3 = ea1 * sin(v) + ra2 * sin(r * v - (st + _C3 * h))
        u4 = y0 + h * (_A4_1 * p1 + _A4_3 * p3)
        v = y1 + h * (_A4_1 * y0 + _A4_3 * u3)
        p4 = ea1 * sin(v) + ra2 * sin(r * v - (st + _C4 * h))
        u5 = y0 + h * (_A5_1 * p1 + _A5_3 * p3 + _A5_4 * p4)
        v = y1 + h * (_A5_1 * y0 + _A5_3 * u3 + _A5_4 * u4)
        p5 = ea1 * sin(v) + ra2 * sin(r * v - (st + _C5 * h))
        u6 = y0 + h * (_A6_1 * p1 + _A6_4 * p4 + _A6_5 * p5)
        v = y1 + h * (_A6_1 * y0 + _A6_4 * u4 + _A6_5 * u5)
        p6 = ea1 * sin(v) + ra2 * sin(r * v - (st + _C6 * h))
        u7 = y0 + h * (_A7_1 * p1 + _A7_4 * p4 + _A7_5 * p5 + _A7_6 * p6)
        v = y1 + h * (_A7_1 * y0 + _A7_4 * u4 + _A7_5 * u5 + _A7_6 * u6)
        p7 = ea1 * sin(v) + ra2 * sin(r * v - (st + _C7 * h))
        u8 = y0 + h * (_A8_1 * p1 + _A8_4 * p4 + _A8_5 * p5 + _A8_6 * p6
                       + _A8_7 * p7)
        v = y1 + h * (_A8_1 * y0 + _A8_4 * u4 + _A8_5 * u5 + _A8_6 * u6
                      + _A8_7 * u7)
        p8 = ea1 * sin(v) + ra2 * sin(r * v - (st + _C8 * h))
        u9 = y0 + h * (_A9_1 * p1 + _A9_4 * p4 + _A9_5 * p5 + _A9_6 * p6
                       + _A9_7 * p7 + _A9_8 * p8)
        v = y1 + h * (_A9_1 * y0 + _A9_4 * u4 + _A9_5 * u5 + _A9_6 * u6
                      + _A9_7 * u7 + _A9_8 * u8)
        p9 = ea1 * sin(v) + ra2 * sin(r * v - (st + _C9 * h))
        u10 = y0 + h * (_A10_1 * p1 + _A10_4 * p4 + _A10_5 * p5 + _A10_6 * p6
                        + _A10_7 * p7 + _A10_8 * p8 + _A10_9 * p9)
        v = y1 + h * (_A10_1 * y0 + _A10_4 * u4 + _A10_5 * u5 + _A10_6 * u6
                      + _A10_7 * u7 + _A10_8 * u8 + _A10_9 * u9)
        p10 = ea1 * sin(v) + ra2 * sin(r * v - (st + _C10 * h))
        u11 = y0 + h * (_A11_1 * p1 + _A11_4 * p4 + _A11_5 * p5 + _A11_6 * p6
                        + _A11_7 * p7 + _A11_8 * p8 + _A11_9 * p9
                        + _A11_10 * p10)
        v = y1 + h * (_A11_1 * y0 + _A11_4 * u4 + _A11_5 * u5 + _A11_6 * u6
                      + _A11_7 * u7 + _A11_8 * u8 + _A11_9 * u9
                      + _A11_10 * u10)
        p11 = ea1 * sin(v) + ra2 * sin(r * v - (st + _C11 * h))
        u12 = y0 + h * (_A12_1 * p1 + _A12_4 * p4 + _A12_5 * p5 + _A12_6 * p6
                        + _A12_7 * p7 + _A12_8 * p8 + _A12_9 * p9
                        + _A12_10 * p10 + _A12_11 * p11)
        v = y1 + h * (_A12_1 * y0 + _A12_4 * u4 + _A12_5 * u5 + _A12_6 * u6
                      + _A12_7 * u7 + _A12_8 * u8 + _A12_9 * u9
                      + _A12_10 * u10 + _A12_11 * u11)
        p12 = ea1 * sin(v) + ra2 * sin(r * v - (st + h))
        # 8th-order solution
        b0 = (_B1 * p1 + _B6 * p6 + _B7 * p7 + _B8 * p8 + _B9 * p9
              + _B10 * p10 + _B11 * p11 + _B12 * p12)
        b1 = (_B1 * y0 + _B6 * u6 + _B7 * u7 + _B8 * u8 + _B9 * u9
              + _B10 * u10 + _B11 * u11 + _B12 * u12)
        z0 = y0 + h * b0
        z1 = y1 + h * b1
        # combined 5th/3rd-order error estimate, scaled per component
        sc = atol + rtol * max(abs(y0), abs(z0))
        e = (_E1 * p1 + _E6 * p6 + _E7 * p7 + _E8 * p8 + _E9 * p9
             + _E10 * p10 + _E11 * p11 + _E12 * p12) / sc
        n5 = e * e
        e = (b0 - _BHH1 * p1 - _BHH9 * p9 - _BHH12 * p12) / sc
        n3 = e * e
        sc = atol + rtol * max(abs(y1), abs(z1))
        e = (_E1 * y0 + _E6 * u6 + _E7 * u7 + _E8 * u8 + _E9 * u9
             + _E10 * u10 + _E11 * u11 + _E12 * u12) / sc
        n5 += e * e
        e = (b1 - _BHH1 * y0 - _BHH9 * u9 - _BHH12 * u12) / sc
        n3 += e * e
        err = 0.0 if n5 == 0.0 else abs(h) * n5 / math.sqrt(2.0 * (n5 + 0.01 * n3))
        if err <= 1.0:
            t = t + h
            y0, y1 = z0, z1
            # FSAL: the derivative at the new point starts the next step
            p1 = ea1 * sin(y1) + ra2 * sin(r * y1 - (s0 + t))
            nsteps += 1
            fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.125))
            h = h * fac
        else:
            h = h * max(0.2, 0.9 * err ** -0.125)
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            return y0, y1, abs(h), nsteps, ODE_STEPFAIL
