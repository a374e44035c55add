"""Where drift builds and verifies today: one table of (mu, I_start, I_end).

The source paper proves drift for every non-trivial two-harmonic
perturbation, but the builder reaches it on part of the parameter plane
only.  Each cell runs ``build_pseudo_orbit`` and then
``verify_pseudo_orbit`` at eps = 0.01, a2 = 1, r = 1 (so a1 = mu), and
must give its listed outcome:

* ``ok``: the orbit builds and the verifier passes it;
* ``stuck``: the build raises :class:`StuckAtResonance`;
* ``verify-fails``: the orbit builds and the verifier fails it.

A change that mends a cell turns it to ``ok`` and says so in CHANGES.md.
A cell is never moved the other way, or removed, to get a passing run.
The cells cover every way a range fails today and run in about 12 s.
"""

import pytest

import pendrotor as pr

EPS = 0.01

CELLS = [
    # (mu, I_start, I_end, outcome)     how it fails today
    (0.5, -1.0, 1.0, "ok"),
    (1.0, -1.0, 1.0, "ok"),
    (0.75, -0.7, 0.3, "stuck"),         # cycles at I ~ 0.037
    (0.75, -0.1, 1.0, "stuck"),         # cycles at I ~ 0.039
    (1.0, -0.5, 1.0, "stuck"),          # cycles at I ~ 0.121
    (1.5, -0.5, 1.0, "stuck"),          # no return into the window
    (3.0, -1.0, 1.0, "stuck"),          # no return into the window
    (2.0, -0.1, 1.0, "verify-fails"),   # leg 9, a chaotic arc: 11.6
    (0.3, -1.5, 1.0, "verify-fails"),   # leg 527, a long arc: 3.0e-8
]


def _outcome(mu: float, I_start: float, I_end: float) -> str:
    params = pr.SystemParams(a1=mu, a2=1.0, eps=EPS)
    try:
        orbit = pr.build_pseudo_orbit(I_start, I_end, params)
    except pr.StuckAtResonance:
        return "stuck"
    return "ok" if pr.verify_pseudo_orbit(orbit).ok else "verify-fails"


@pytest.mark.parametrize(
    "mu,I_start,I_end,outcome", CELLS,
    ids=[f"mu{mu}:{a}->{b}" for mu, a, b, _ in CELLS])
def test_cell(mu, I_start, I_end, outcome):
    assert _outcome(mu, I_start, I_end) == outcome
