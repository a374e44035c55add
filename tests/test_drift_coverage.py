"""Where drift builds and verifies today: one table of
(a1, a2, eps, I_start, I_end).

The source paper proves drift for every non-trivial two-harmonic
perturbation, but the builder reaches it on part of the parameter plane
only.  Each cell runs ``build_pseudo_orbit`` and then
``verify_pseudo_orbit`` at r = 1 and must give its listed outcome:

* ``ok``: the orbit builds and the verifier passes it;
* ``stuck``: the build raises :class:`StuckAtResonance`;
* ``verify-fails``: the orbit builds and the verifier fails it.

The first block runs at eps = 0.01, a2 = 1 (so a1 = mu) and covers every
way a range fails there.  The twin pair writes one Hamiltonian twice, since
(a1, a2, eps) -> (l a1, l a2, eps / l) leaves H unchanged, and the eps axis
follows two ``ok`` ranges to smaller and larger eps; both show that the
drift budgets, which scale with eps alone, decide the outcome.

A change that mends a cell turns it to ``ok`` and says so in CHANGES.md.
A cell is never moved the other way, or removed, to get a passing run.
The cells run in about 23 s, 10 s of them in the eleven twin and eps cells.
"""

import pytest

import pendrotor as pr

EPS = 0.01

CELLS = [
    # (a1, a2, eps, I_start, I_end, outcome)     how it fails today
    (0.5, 1.0, EPS, -1.0, 1.0, "ok"),
    (1.0, 1.0, EPS, -1.0, 1.0, "ok"),
    (0.75, 1.0, EPS, -0.7, 0.3, "stuck"),        # cycles at I ~ 0.037
    (0.75, 1.0, EPS, -0.1, 1.0, "stuck"),        # cycles at I ~ 0.039
    (1.0, 1.0, EPS, -0.5, 1.0, "stuck"),         # cycles at I ~ 0.121
    (1.5, 1.0, EPS, -0.5, 1.0, "stuck"),         # no return into the window
    (3.0, 1.0, EPS, -1.0, 1.0, "stuck"),         # no return into the window
    (2.0, 1.0, EPS, -0.1, 1.0, "verify-fails"),  # leg 9, a chaotic arc: 11.6
    (0.3, 1.0, EPS, -1.5, 1.0, "verify-fails"),  # leg 527, a long arc: 3.0e-8
    # twin pair: one Hamiltonian at mu = 1.5
    (1.0, 1.0 / 1.5, EPS, -0.5, 1.0, "ok"),
    (1.5, 1.0, EPS / 1.5, -0.5, 1.0, "stuck"),   # no return into the window
    # eps axis
    (0.75, 1.0, 0.02, -1.0, 1.0, "ok"),
    (0.75, 1.0, 0.005, -1.0, 1.0, "ok"),
    (0.75, 1.0, 0.002, -1.0, 1.0, "ok"),
    (0.75, 1.0, 0.001, -1.0, 1.0, "ok"),
    (0.75, 1.0, EPS, -1.0, 1.0, "ok"),
    (1.0, 1.0, 0.02, -1.0, 1.0, "ok"),
    (1.0, 1.0, 0.005, -1.0, 1.0, "ok"),
    (1.0, 1.0, 0.002, -1.0, 1.0, "stuck"),       # cycles at I ~ 0.046
    (1.0, 1.0, 0.001, -1.0, 1.0, "ok"),
]


def _cell_id(a1, a2, eps, I_start, I_end, _outcome):
    # a2 = 1 cells are named by mu = a1, as the table's rows are
    head = f"mu{a1}" if a2 == 1.0 else f"a1={a1:g},a2={a2:.4g}"
    tail = "" if eps == EPS else f",eps={eps:.4g}"
    return f"{head}{tail}:{I_start}->{I_end}"


def _outcome(a1: float, a2: float, eps: float, I_start: float,
             I_end: float) -> str:
    params = pr.SystemParams(a1=a1, a2=a2, eps=eps)
    try:
        orbit = pr.build_pseudo_orbit(I_start, I_end, params)
    except pr.StuckAtResonance:
        return "stuck"
    return "ok" if pr.verify_pseudo_orbit(orbit).ok else "verify-fails"


@pytest.mark.parametrize("a1,a2,eps,I_start,I_end,outcome", CELLS,
                         ids=[_cell_id(*cell) for cell in CELLS])
def test_cell(a1, a2, eps, I_start, I_end, outcome):
    assert _outcome(a1, a2, eps, I_start, I_end) == outcome
