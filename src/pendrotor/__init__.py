"""Scattering maps and action drift for a two-harmonic forced pendulum-rotor.

The package computes, for the Hamiltonian

    H = +/-(p^2/2 + cos q - 1) + I^2/2
        + eps cos q (a1 cos(phi) + a2 cos(r phi - s)),

the splitting (Melnikov) potential and its amplitude profiles, the ridge
("crest") geometry that organizes homoclinic contacts, the family of
first-order scattering maps with their extended and piecewise-smooth global
variants, the resonant inner dynamics on the invariant cylinder, and
constructive drift pseudo-orbits that carry the action across resonances.
"""

from .params import SystemParams, Tolerances, DEFAULT_TOL
from .errors import (PendrotorError, ConfigError, PoleAtOne, PoleAtOneOverR,
                     OutOfDomain, NoSolutionInWindow, SingularCrest,
                     TangencyDegenerate, UnreachableBranch,
                     QuadratureNotConverged, StepFailure, OnDiscontinuity,
                     WindowEmpty, StuckAtResonance)
from .model import (separatrix, cos_q0, SeparatrixPoint,
                    amplitude_A1, amplitude_A2,
                    amplitude_A1_prime, amplitude_A2_prime,
                    alpha, beta, alpha_r, beta_r)
from .crests import (CrestKind, CrestBranch, TangencyPoint, IntervalInfo,
                     ClassificationReport, classify, crest_sigma, crest_phi,
                     crest_residual, find_thresholds, has_tangency,
                     tangency_points, solve_level_crossing)
from .scattering import (TauCriterion, TauSolution, ScatteringState,
                         PiecewiseMapAtlas, ATLAS, DOWN, UP, MINABS, branch,
                         melnikov_closed, melnikov_quadrature, lstar, sweep,
                         solve_tau_star, reduced_poincare,
                         grad_reduced_poincare, grad_theta_forms,
                         scattering_step, extended_map_domain,
                         piecewise_global_map, theta_plus)
from .inner import (InnerState, TorusRegion, RESONANCE_HALF_WIDTH,
                    restricted_hamiltonian, region_of, torus_value,
                    resonance_half_width_pendulum, inner_flow,
                    stroboscopic_sections)
from .diffusion import (TransversalityReport, poisson_bracket, transversality,
                        ScatterLeg, InnerLeg, PseudoOrbit,
                        VerificationReport, build_pseudo_orbit,
                        verify_pseudo_orbit)

__version__ = "0.1.0"

# the kernels run as plain Python; the benchmark's environment record reads this
NUMBA_ENABLED = False

__all__ = [name for name in dir() if not name.startswith("_")]
