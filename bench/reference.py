"""Reference values for the geometric pair-number law, written without qfock.

Both vacua distribute the pair number as P_n = (1 - r) r^n.  Every sweep
cell is a sum of d(n) P_n, and each law the benchmark sends has a closed
sum that needs no series and no library code:

- symmetric law d(n) = (q^n - q^-n)/(q - 1/q), and d(n) = n at q = 1:
  nbar = r (1 - r) / ((1 - q r)(1 - r/q)), valid iff max(q, 1/q) r < 1;
- quadratic law d(n) = n + (q - 1) n (n - 1)/2:
  nbar = r/(1 - r) + (q - 1) r^2/(1 - r)^2, valid for every r < 1;
- entropy of the law in bits: -log2(1 - r) - r log2(r)/(1 - r).

The symmetric form keeps 1 - q r and 1 - r/q as (1 - r) -/+ (q - 1) r
terms, so it has no cancellation as q -> 1, unlike a two-part split.
Inputs carry 1 - r and 1 - sqrt(r) computed from the physical parameter,
so nothing is lost to 1 - r when r is close to 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class Law(NamedTuple):
    """P_n = (1 - r) r^n, with complements computed without cancellation."""

    r: float
    one_minus_r: float
    sqrt_r: float
    one_minus_sqrt_r: float


def squeezed_law(xi: float) -> Law:
    """r = tanh^2 xi; 1 - r = 1/cosh^2 xi and 1 - tanh xi = 2/(1 + e^(2 xi))."""
    t = math.tanh(xi)
    return Law(t * t, 1.0 / math.cosh(xi) ** 2, t, 2.0 / (1.0 + math.exp(2.0 * xi)))


def thermal_law(theta: float) -> Law:
    """r = e^-theta."""
    return Law(
        math.exp(-theta), -math.expm1(-theta), math.exp(-0.5 * theta), -math.expm1(-0.5 * theta)
    )


def law_for(family: str, param: float) -> Law:
    return squeezed_law(param) if family == "squeezed" else thermal_law(param)


def symmetric_nbar(law: Law, q: float) -> float | None:
    """Mean of the symmetric law (q = 1 is the undeformed oscillator); None if divergent."""
    r, omr = law.r, law.one_minus_r
    if max(q, 1.0 / q) * r >= 1.0:
        return None
    dq = q - 1.0
    return r * omr / ((omr - dq * r) * (omr + dq * r / q))


def quadratic_nbar(law: Law, q: float) -> tuple[float, float]:
    """(mean, magnitude) of the quadratic law; magnitude = sum of |d(n)| P_n bound.

    The mean crosses zero for q < 1, so deviations are scaled by the
    magnitude of the two parts rather than by the mean itself.
    """
    m = law.r / law.one_minus_r
    return m + (q - 1.0) * m * m, m + abs(q - 1.0) * m * m


def entropy_bits(law: Law) -> float:
    r, omr = law.r, law.one_minus_r
    return -math.log2(omr) - r * math.log2(r) / omr


def variances(law: Law, nbar: float) -> tuple[float, float, float]:
    """Two-mode quadrature variances from the mean.

    The geometric index shifts give <a a+> = nbar / r and
    <a a~> = <a+ a~+> = nbar / sqrt(r) for every law with d(0) = 0, so
    var1,2 = nbar (1 +- 1/sqrt(r))^2 / 4.
    """
    s, oms = law.sqrt_r, law.one_minus_sqrt_r
    var1 = 0.25 * nbar * ((1.0 + s) / s) ** 2
    var2 = 0.25 * nbar * (oms / s) ** 2
    return var1, var2, var1 * var2
