"""System parameters.

The physical model is a pendulum-rotor Hamiltonian with a two-harmonic
time-periodic coupling

    H = +/- (p^2/2 + cos q - 1) + I^2/2
        + eps * cos q * (a1 cos(k1 phi + l1 s) + a2 cos(k2 phi + l2 s)).

All computations run in the reduced form with harmonics (1, 0) and (r, -1),

    g(phi, s) = a1 cos(phi) + a2 cos(r phi - s),       r in (0, 1],

to which any independent integer pair reduces; the reduction rescales the
perturbation size by k1^2.  ``SystemParams`` stores the reduced quantities
directly; :meth:`SystemParams.from_harmonics` performs the reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError


@dataclass(frozen=True)
class SystemParams:
    """Reduced parameters of the forced pendulum-rotor system.

    a1, a2         harmonic amplitudes (mu = a1/a2); 2*pi*|a1| and
                   2*pi*|a2|, which scale the slopes A1'(I), A2'(I) of the
                   amplitude profiles and exceed their peaks 4*|a|, must
                   be finite
    eps            perturbation size (already rescaled by k1^2 if the
                   parameters came from a general harmonic pair)
    r              frequency ratio of the second harmonic, in (0, 1]
    harmonics      optional original (k1, k2, l1, l2) before reduction

    The +/- in front of the pendulum part is not a parameter: only the
    separatrix branch depends on it (cos q0 does not), so every
    splitting-level quantity is sign-invariant.
    """

    a1: float
    a2: float
    eps: float = 0.0
    r: float = 1.0
    harmonics: tuple[int, int, int, int] | None = None

    def __post_init__(self):
        for name in ("a1", "a2", "eps", "r"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got "
                                  f"{getattr(self, name)}")
        for name in ("a1", "a2"):
            # _kernels.amp1_prime forms 2*pi*a before scaling it by h'
            if not math.isfinite(2.0 * math.pi * getattr(self, name)):
                raise ConfigError(f"2*pi*|{name}|, the scale of its amplitude "
                                  f"profile's slope, must be finite, got "
                                  f"{name} = {getattr(self, name)}")
        if self.eps < 0:
            raise ConfigError("eps must be >= 0")
        if not (0.0 < self.r <= 1.0):
            raise ConfigError(f"r must lie in (0, 1], got {self.r}")

    @classmethod
    def from_harmonics(
        cls,
        a1: float,
        a2: float,
        k1: int,
        k2: int,
        l1: int,
        l2: int,
        eps: float,
    ) -> "SystemParams":
        """Reduce a general harmonic pair (k1,l1), (k2,l2) to canonical form.

        Requires independence k1*l2 - k2*l1 != 0 and k1*k2 != 0 (a vanishing
        k makes the reduced ratio r = 0, a case outside this library).  The
        pair is ordered so that |k2| <= |k1|, giving r = |k2/k1| in (0, 1],
        and eps is rescaled by k1^2.
        """
        delta = k1 * l2 - k2 * l1
        if delta == 0:
            raise ConfigError("harmonics are dependent: k1*l2 - k2*l1 = 0")
        if k1 == 0 or k2 == 0:
            raise ConfigError("reduced form needs k1*k2 != 0 (r in (0,1])")
        for name, k in (("k1", k1), ("k2", k2)):
            try:
                float(k)  # eps is rescaled by k1^2 in floats
            except OverflowError:
                raise ConfigError(f"{name} is too large for a float") from None
        if abs(k2) > abs(k1):
            a1, a2 = a2, a1
            k1, k2, l1, l2 = k2, k1, l2, l1
        r = abs(k2 / k1)
        return cls(
            a1=a1,
            a2=a2,
            eps=eps * k1 * k1,
            r=r,
            harmonics=(k1, k2, l1, l2),
        )

    @property
    def mu(self) -> float:
        if self.a2 == 0.0:
            return math.inf if self.a1 > 0 else (-math.inf if self.a1 < 0 else math.nan)
        return self.a1 / self.a2

    @property
    def delta(self) -> int | None:
        if self.harmonics is None:
            return None
        k1, k2, l1, l2 = self.harmonics
        return k1 * l2 - k2 * l1

    def require_nontrivial(self) -> None:
        """Hypotheses for drift runs: both amplitudes and independence."""
        if self.a1 * self.a2 == 0.0:
            raise ConfigError("drift requires a1*a2 != 0 (otherwise the system "
                              "is integrable or autonomous)")
        if self.harmonics is not None and self.delta == 0:
            raise ConfigError("drift requires independent harmonics (delta != 0)")
        if self.eps <= 0.0:
            raise ConfigError("drift requires eps > 0")

    def with_eps(self, eps: float) -> "SystemParams":
        return replace(self, eps=eps)
