"""Thermal-vacuum analytics on the doubled number basis.

Everything is parametrized by the single dimensionless number
theta = beta * omega (inverse temperature times mode frequency, with
hbar = k = 1): the pair-number law is the Bose-Einstein-type geometric
P_n = (1 - e^-theta) e^(-n theta), the squeezed law under
tanh^2 xi <-> e^-theta.  Every closed form lives on ``GeometricLaw``;
this module is a parameter map: it builds the law with r = e^-theta,
which decides whether it can be cut at the spec's tolerance.

The second moments obey <a a+> = e^theta nbar and <a a~> = e^(theta/2)
nbar; these are forced by the index-shift identities of the geometric
law (for any scheme with d(0) = 0) and are what the truncated-sum oracle
in tests confirms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .deformation import DeformationScheme
from .geometric import GeometricLaw, geometric_state
from .paired_state import moments

__all__ = [
    "ThermalSpec",
    "thermal_probabilities",
    "thermal_nbar_series",
    "thermal_nbar_closed_bm",
    "thermal_variances_closed",
    "thermal_entropy_bits",
]


@dataclass(frozen=True)
class ThermalSpec:
    """Dimensionless inverse temperature theta = beta * omega > 0.

    ``law`` is the pair-number law at r = e^-theta, built on construction.
    """

    theta: float
    scheme: DeformationScheme
    tail_tol: float = 1e-12
    law: GeometricLaw = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # A bad theta is named first, then r = 1 (theta up to 2^-54), then a
        # bad tolerance.
        law = GeometricLaw.from_theta(self.theta)
        law._check_cut("theta", self.theta, "e^-theta", self.tail_tol)
        object.__setattr__(self, "law", law)


def thermal_probabilities(spec: ThermalSpec) -> list[float]:
    """Pair-number law P_n = (1 - e^-theta) e^(-n theta), tail-truncated.

    The prefactor is the reciprocal of the partition function
    Z = 1 / (1 - e^-theta) of the free Hamiltonian H = omega N.  Cut as
    the squeezed law is: the emitted sum is >= 1 - tail_tol unless the
    cutoff reaches the 200,000-term cap (``--theta 1e-7`` reads
    ``cutoff-capped``).  As with squeezing, the law never sees the scheme.
    """
    return spec.law.probabilities(spec.tail_tol)


def thermal_nbar_series(spec: ThermalSpec) -> float:
    """Mean occupation sum d(n) P_n through the paired-state machinery.

    Builds the geometric paired state, cut at the larger of the
    probability cutoff and ``weighted_cutoff``, and sums only <a+ a>, over
    d(0..cutoff), from its moments.  It raises as ``squeezed.nbar_series``
    does: DivergenceError when theta <= |ln q| for a built-in law or past
    the term cap (q = 2, theta = 0.6932097), OverflowError from the scan
    (q = 2, theta = 0.71).
    """
    state = geometric_state(spec.scheme, spec.law.r, spec.tail_tol)
    return moments(state, spec.scheme).adag_a


def thermal_nbar_closed_bm(q: float, theta: float) -> float:
    """Closed-form mean occupation for the symmetric scheme.

    ``GeometricLaw.symmetric_nbar`` at r = e^-theta, valid for
    theta > |ln q| (DivergenceError otherwise); at q = 1 it is the Bose
    mean 1 / (e^theta - 1).
    """
    return GeometricLaw.from_theta(theta).symmetric_nbar(q)


def thermal_variances_closed(
    theta: float, nbar: float
) -> tuple[float, float, float]:
    """Quadrature variances and their product for the thermal vacuum.

    var1 = (e^(theta/2) + 1)^2 nbar / 4
    var2 = (e^(theta/2) - 1)^2 nbar / 4
    product = (e^theta - 1)^2 nbar^2 / 16

    At q = 1 (nbar = 1/(e^theta - 1)) the product collapses to the
    minimum-uncertainty value 1/16.  A mean of exactly zero is the vacuum,
    whose values (1/4, 1/4, 1/16) are returned directly, with no 0 * inf
    form at very large theta.
    """
    return GeometricLaw.from_theta(theta).variances(nbar)


def thermal_entropy_bits(theta: float) -> float:
    """Thermal entanglement entropy in bits; the squeezed closed form at
    tanh^2 xi = e^-theta."""
    return GeometricLaw.from_theta(theta).entropy_bits()
