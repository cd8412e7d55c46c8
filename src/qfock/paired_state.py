"""States in the correlated pair sector of a doubled number basis.

A paired diagonal state is sum_n c_n |n, n~> over equal occupation of a
physical mode and its twin, with nonnegative real coefficients.  Both the
squeezed and the thermal vacuum live entirely in this sector, so states
are stored as the coefficient sequence alone, never as the full two-mode
tensor.  Everything here is the brute-force side of the closed forms in
the squeezed/thermal modules: moments are plain truncated sums over the
stored coefficients.  The coefficients are the state's Schmidt spectrum,
so tracing out the twin mode leaves rho = diag(c_n^2) and the
entanglement entropy is the Shannon entropy of {c_n^2}.  A state is
checked once, when it is built (entries and norm); ``from_probabilities``
also checks each P_n before its square root, to name the first bad one.
``shannon_entropy_bits`` checks every entry and the total of what it is
given.  A sweep row's own law list is finite and nonnegative as built, so
the row checks only its total, through ``_distribution_entropy_bits``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Sequence

from .deformation import DeformationScheme

__all__ = [
    "PairedDiagonalState",
    "MomentSet",
    "from_probabilities",
    "moments",
    "quadrature_variances",
    "shannon_entropy_bits",
    "reduced_entropy_bits",
]

_NORM_SLOP = 1e-12


@dataclass(frozen=True)
class PairedDiagonalState:
    """Normalized coefficients c_n over |n, n~>, n = 0..cutoff.

    ``tail_bound`` is an upper bound on the probability mass discarded by
    the cutoff; sum(c_n^2) lies within [1 - tail_bound - 1e-12, 1 + 1e-12].
    """

    coeffs: tuple[float, ...]
    tail_bound: float

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("state needs at least the vacuum coefficient")
        c = self.coeffs
        if not all(map(math.isfinite, c)) or min(c) < 0.0:
            raise ValueError("coefficients must be finite and nonnegative")
        total = _total(map(operator.mul, c, c))
        if total > 1.0 + _NORM_SLOP:
            raise ValueError(f"squared coefficients sum to {total!r} > 1")
        if 1.0 - total > self.tail_bound + _NORM_SLOP:
            raise ValueError(
                f"mass deficit {1.0 - total!r} exceeds tail bound {self.tail_bound!r}"
            )


@dataclass(frozen=True)
class MomentSet:
    """Second-order expectations of a paired state, each summed on its
    first read (one ``math.fsum`` over the coefficients, then cached).

    adag_a  = <a+ a>        a_adag          = <a a+>
    a_atilde = <a a~>       adag_atildedag  = <a+ a~+>

    ``coeffs`` are the state's c_n and ``scheme`` gives d(n).  On its first
    read a moment reads only the d(n) it sums: adag_a d(0..cutoff), a_adag
    d(1..cutoff+1), a_atilde d(1..cutoff).
    """

    coeffs: tuple[float, ...]
    scheme: DeformationScheme

    @cached_property
    def adag_a(self) -> float:
        d = self.scheme.d_values(len(self.coeffs))
        return math.fsum(dn * cn * cn for dn, cn in zip(d, self.coeffs))

    @cached_property
    def a_adag(self) -> float:
        d = self.scheme.d_values(len(self.coeffs) + 1)
        return math.fsum(dn * cn * cn for dn, cn in zip(islice(d, 1, None), self.coeffs))

    @cached_property
    def a_atilde(self) -> float:
        c = self.coeffs
        d = self.scheme.d_values(len(c))
        return math.fsum(dn * cp * cn for dn, cp, cn in zip(islice(d, 1, None), c, c[1:]))

    @property
    def adag_atildedag(self) -> float:
        return self.a_atilde


def from_probabilities(
    probabilities: Sequence[float], tail_bound: float
) -> PairedDiagonalState:
    """Build the state with c_n = sqrt(P_n); each P_n must be finite and
    nonnegative, and the state checks their sum against ``tail_bound``."""
    probs = _checked(probabilities)
    return PairedDiagonalState(tuple(map(math.sqrt, probs)), tail_bound)


def moments(state: PairedDiagonalState, scheme: DeformationScheme) -> MomentSet:
    """Truncated-sum second moments of a paired state under a scheme.

    With P_n = c_n^2 and d the scheme's spectrum function:

        <a+ a>  = sum d(n)   P_n
        <a a+>  = sum d(n+1) P_n
        <a a~>  = <a+ a~+> = sum d(n) c_{n-1} c_n

    The cross moment follows from a a~ |n, n~> = d(n) |n-1, n~-1> and the
    orthogonality of the pair basis.  No d(n) is read here: each sum reads
    its own d(n) and runs when its moment is first read.
    """
    return MomentSet(state.coeffs, scheme)


def quadrature_variances(m: MomentSet) -> tuple[float, float]:
    """Variances of the symmetric/antisymmetric two-mode quadratures.

    The quadratures are u1 = (a + a+ + a~ + a~+) / 2^(3/2) and
    u2 = (a - a+ + a~ - a~+) / (2^(3/2) i).  On a diagonal pair state the
    first moments vanish: a single ladder action turns |n, n~> into a
    state with unequal occupation of the two modes, orthogonal to every
    |m, m~>, so <u_i> = 0 and the variance is just <u_i^2>.  Expanding the
    squares, the only products that preserve equal pair occupation are
    a a+, a+ a, their twin-mode copies, and the correlated pairs a a~ and
    a+ a~+ (twin-mode moments equal the physical ones by symmetry of the
    state), giving

        var1 = (adag_a + a_adag) / 4 + (a_atilde + adag_atildedag) / 4
        var2 = (adag_a + a_adag) / 4 - (a_atilde + adag_atildedag) / 4
    """
    symmetric = 0.25 * (m.adag_a + m.a_adag)
    cross = 0.25 * (m.a_atilde + m.adag_atildedag)
    return symmetric + cross, symmetric - cross


def shannon_entropy_bits(probabilities: Sequence[float]) -> float:
    """Shannon entropy -sum P log2 P in bits, with 0 log 0 = 0.

    The sequence must be a distribution: every entry finite and
    nonnegative, total within 1e-9 of 1.  A point mass gives +0.0, never
    -0.0.  Every entry is checked here; a sweep row, whose law builds its
    list finite and nonnegative, checks only the total.
    """
    return _distribution_entropy_bits(_checked(probabilities))


def reduced_entropy_bits(state: PairedDiagonalState) -> float:
    """Entanglement entropy in bits of the reduced density operator.

    Tracing the twin mode out of sum_n c_n |n, n~> leaves
    rho = diag(c_n^2): the coefficients are the Schmidt spectrum.  The von
    Neumann entropy is read off that spectrum in O(cutoff), with no
    two-mode matrix; the dense partial trace is kept in the tests as the
    reference it must match bit for bit.  A point mass gives +0.0.
    """
    return _entropy_bits(c * c for c in state.coeffs)


def _checked(probabilities: Sequence[float]) -> list[float]:
    """The entries as floats, each checked finite and nonnegative."""
    probs = list(map(float, probabilities))
    if not all(map(math.isfinite, probs)) or min(probs, default=0.0) < 0.0:
        # This test fails exactly when some entry does; the loop names the first.
        for n, p in enumerate(probs):
            if not math.isfinite(p):
                raise ValueError(f"non-finite probability P[{n}] = {p!r}")
            if p < 0.0:
                raise ValueError(f"negative probability P[{n}] = {p!r}")
    return probs


def _total(values: Iterable[float]) -> float:
    """math.fsum of nonnegative values, inf where the partial sums overflow
    (fsum raises OverflowError there)."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _distribution_entropy_bits(probs: Sequence[float]) -> float:
    """``_entropy_bits`` of finite nonnegative floats, after checking that
    they total within 1e-9 of 1 (ValueError otherwise)."""
    total = _total(probs)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return _entropy_bits(probs)


def _entropy_bits(probs: Iterable[float]) -> float:
    """-sum P log2 P over the positive entries, correctly rounded (fsum),
    so the order of the entries does not change the result."""
    return 0.0 - math.fsum(p * math.log2(p) for p in probs if p > 0.0)
