"""Small shared test utilities, the written-out sinh form of a built-in
d(n), the dense-matrix reference routes, the per-call ``eval_d``
references for the routes that read a scheme's column (the closed stop of
the built-in laws, the adaptive scan of ``expr:`` laws), and the
tree-walking reference for ``evaluate_tree``."""

import math
import sys

import numpy as np
import pytest

from qfock import DivergenceError, annihilation_matrix, creation_matrix, number_matrix
from qfock.deformation import BIEDENHARN_MACFARLANE, eval_d
from qfock.expressions import (
    FUNCTIONS,
    EvaluationError,
    FunctionCall,
    Negate,
    Number,
    Variable,
)

SINH_ARG_MAX = math.asinh(sys.float_info.max)  # sinh overflows past it


def close(a, b, tol):
    """Magnitude-scaled closeness: |a - b| <= tol * max(1, |a|, |b|).

    Coincides with an absolute comparison for O(1) quantities and stays
    meaningful for deformation values that reach ~1e19 in double precision.
    """
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def geometric_probs(r, count):
    """First ``count`` probabilities of the law P_n = (1 - r) r^n."""
    return [(1.0 - r) * r**n for n in range(count)]


def geometric_tail(r, count):
    """Mass discarded by keeping only the first ``count`` terms."""
    return r**count


def bm_reference(q, n):
    """Direct evaluation of the symmetric deformation (q^n - q^-n)/(q - q^-1)."""
    return (q ** float(n) - q ** (-float(n))) / (q - q ** (-1.0))


def sinh_reference(q, n):
    """d(n) of a built-in law written out: sinh(n lam) / sinh(lam) with
    lam = |ln q| while sinh is in range, e^((n-1) lam) (1 - e^(-2 n lam)) /
    (1 - e^(-2 lam)) past it, and n itself at q = 1."""
    if q == 1.0:
        return float(n)
    lam = abs(math.log(q))
    if n * lam <= SINH_ARG_MAX and lam <= SINH_ARG_MAX:
        return math.sinh(n * lam) / math.sinh(lam)
    return math.exp((n - 1) * lam) * -math.expm1(-2.0 * n * lam) / -math.expm1(-2.0 * lam)


def undeformed_nbar_squeezed(xi):
    return math.sinh(xi) ** 2


def undeformed_nbar_thermal(theta):
    return 1.0 / math.expm1(theta)


def dense(op):
    """The dense numpy matrix of a ``TruncatedOperator``."""
    return np.array(op.entries)


def projector(m, n, dim):
    """Matrix unit |m><n|: a single 1 at row m, column n."""
    if not (0 <= m < dim and 0 <= n < dim):
        raise IndexError(f"projector indices ({m}, {n}) out of range for dim {dim}")
    entries = np.zeros((dim, dim))
    entries[m, n] = 1.0
    return entries


def deformation_diagonal(scheme, dim, shift=0):
    """diag(d(n + shift)) for n = 0..dim-1; shift 1 gives the a a+ spectrum.

    Built entrywise from the scheme, never by a matrix function of N.
    """
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return np.diag([eval_d(scheme, n + shift) for n in range(dim)])


def commutator(a, b):
    """AB - BA of two dense matrices."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def tensor_pair(a, b):
    """Kronecker product of two dense matrices, acting on (physical, twin)
    mode pairs.

    The result is (dim_a * dim_b)^2 entries, so keep dims small (<= 16).
    """
    return np.kron(a, b)


def _interior_residual(delta, *operands):
    interior = delta[: delta.shape[0] - 1, : delta.shape[1] - 1]
    scale = max([1.0] + [float(np.abs(op).max()) for op in operands])
    return float(np.abs(interior).max() / scale)


def dense_algebra_residuals(scheme, dim):
    """Reference for ``verify_algebra(...).residuals``: the six ladder
    products formed as dense dim x dim matrices, O(dim^3).  The q^-n
    diagonal is formed with Python's float power, as the library does."""
    if dim < 2:
        raise ValueError(f"need dim >= 2 to form an interior block, got {dim}")
    a = dense(annihilation_matrix(scheme, dim))
    adag = dense(creation_matrix(scheme, dim))
    num = dense(number_matrix(dim))
    d_n = deformation_diagonal(scheme, dim)
    d_n1 = deformation_diagonal(scheme, dim, shift=1)

    adag_a = adag @ a
    a_adag = a @ adag
    n_adag = num @ adag
    adag_n = adag @ num
    n_a = num @ a
    a_n = a @ num

    residuals = {
        "ladder_product": _interior_residual(adag_a - d_n, adag_a, d_n),
        "shifted_ladder_product": _interior_residual(a_adag - d_n1, a_adag, d_n1),
        "ladder_commutator": _interior_residual(
            (a_adag - adag_a) - (d_n1 - d_n), a_adag, adag_a, d_n1 - d_n
        ),
        "number_raises": _interior_residual(
            (n_adag - adag_n) - adag, n_adag, adag_n, adag
        ),
        "number_lowers": _interior_residual((n_a - a_n) + a, n_a, a_n, a),
    }
    if scheme.kind == BIEDENHARN_MACFARLANE:
        q_pow = np.diag([scheme.q**-n for n in range(dim)])
        q_scaled = scheme.q * adag_a
        residuals["q_commutation"] = _interior_residual(
            a_adag - q_scaled - q_pow, a_adag, q_scaled, q_pow
        )
    return residuals


def dense_reduced_entropy_bits(state):
    """Reference for ``reduced_entropy_bits``: the von Neumann entropy of
    the reduced density matrix, formed densely.

    Assembles the two-mode amplitude matrix psi[n, m] = c_n delta_nm,
    traces out the twin mode (rho = psi psi^T), and takes the entropy of
    the eigenvalues, O(cutoff^2) memory and O(cutoff^3) time.
    """
    psi = np.diag(np.asarray(state.coeffs, dtype=float))
    rho = psi @ psi.T
    evals = np.linalg.eigvalsh(rho)
    evals = np.clip(evals, 0.0, None)
    return 0.0 - math.fsum(v * math.log2(v) for v in evals if v > 0.0)


def reference_weighted_scan(scheme, ratio, tol, prefactor):
    """Reference for the adaptive d-weighted scan: (fsum of terms, last index).

    The scan as it was before schemes carried a column: every term calls
    ``eval_d`` afresh, and the stop test forms its scale and tail estimate
    on every term.  A NaN term ends it at once.
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"geometric ratio must lie in [0, 1), got {ratio!r}")
    if ratio == 0.0:
        return 0.0, 0
    terms = []
    running = 0.0
    prev_mag = 0.0
    growth_run = 0
    zero_run = 0
    for n in range(200_000):
        t = eval_d(scheme, n) * prefactor * ratio**n
        if math.isnan(t):
            raise DivergenceError(f"series term is NaN at n={n}")
        terms.append(t)
        running += t
        mag = abs(t)
        if prev_mag > 0.0 and mag >= prev_mag:
            growth_run += 1
            if growth_run >= 32:
                rho = mag / prev_mag
                raise DivergenceError(
                    f"series terms stopped decreasing (term ratio {rho:.6g} >= 1 "
                    f"sustained over 32 terms)",
                    ratio=rho,
                )
        else:
            growth_run = 0
        if n >= 1:
            scale = abs(running)
            if mag == 0.0:
                zero_run += 1
                if zero_run >= 4:
                    return math.fsum(terms), n
            else:
                zero_run = 0
                if prev_mag > 0.0 and mag < prev_mag:
                    rho = mag / prev_mag
                    tail = mag * rho / (1.0 - rho)
                    if mag < tol * scale and tail < tol * scale:
                        return math.fsum(terms), n
        prev_mag = mag
    raise DivergenceError("series did not settle within 200000 terms")


def reference_closed_cutoff(scheme, ratio, tol):
    """Reference for a built-in law's stop: the smallest N whose tail
    sum_{n>N} d(n) ratio^n is at most tol times the whole sum.

    The verdict max(q, 1/q) ratio < 1 comes first.  Tail and sum are the
    standard sums sum x^n and sum n x^n at 50 digits, two geometric parts
    for the symmetric law, and N is found by bisection over the term cap.
    """
    mpmath = pytest.importorskip("mpmath")

    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"geometric ratio must lie in [0, 1), got {ratio!r}")
    if ratio == 0.0:
        return 0
    peak = max(scheme.q, 1.0 / scheme.q)
    if peak * ratio >= 1.0:
        x = peak * ratio
        raise DivergenceError(f"series diverges: max(q, 1/q) * r = {x!r} >= 1", ratio=x)
    with mpmath.workdps(50):
        r, b = mpmath.mpf(ratio), mpmath.mpf(peak)
        if peak == 1.0:
            total = r / (1 - r) ** 2

            def tail(n):
                return r ** (n + 1) * ((n + 1) - n * r) / (1 - r) ** 2

        else:
            x, y = b * r, r / b
            total = r / ((1 - x) * (1 - y))

            def tail(n):
                return (x ** (n + 1) / (1 - x) - y ** (n + 1) / (1 - y)) / (b - 1 / b)

        limit = mpmath.mpf(tol) * total
        if tail(199_999) > limit:
            raise DivergenceError("series did not settle within 200000 terms")
        lo, hi = -1, 199_999  # tail(lo) > limit >= tail(hi), tail(-1) being the sum
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if tail(mid) <= limit else (mid, hi)
        return hi


def reference_closed_scan(scheme, ratio, tol, prefactor):
    """Reference for a built-in law's series: (fsum of terms, last index N).

    N is ``reference_closed_cutoff``'s; every d(n) up to N, and none past
    it, comes from one ``eval_d`` call, and one that overflows hands the
    cell to ``reference_weighted_scan``.  A term that is not finite ends it
    with DivergenceError naming n; finite terms whose sum overflows name N.
    """
    last = reference_closed_cutoff(scheme, ratio, tol)
    try:
        d = [eval_d(scheme, n) for n in range(last + 1)]
    except OverflowError:
        return reference_weighted_scan(scheme, ratio, tol, prefactor)
    terms = [d[n] * prefactor * ratio**n for n in range(last + 1)]
    for n, t in enumerate(terms):
        if not math.isfinite(t):
            raise DivergenceError(f"series term is not finite at n={n}")
    try:
        return math.fsum(terms), last
    except OverflowError:
        raise DivergenceError(f"series sum overflowed by n={last}") from None


def reference_moments(state, scheme):
    """Reference for ``moments``: d(0..cutoff+1) by one ``eval_d`` call each,
    and the four moments (adag_a, a_adag, a_atilde, adag_atildedag)."""
    c = state.coeffs
    d = [eval_d(scheme, n) for n in range(len(c) + 1)]
    adag_a = math.fsum(d[n] * c[n] * c[n] for n in range(len(c)))
    a_adag = math.fsum(d[n + 1] * c[n] * c[n] for n in range(len(c)))
    cross = math.fsum(d[n] * c[n - 1] * c[n] for n in range(1, len(c)))
    return adag_a, a_adag, cross, cross


def reference_evaluate_tree(tree, q, n):
    """Reference for ``evaluate_tree``: a recursive walk of the tree, with
    the error mapping ``evaluate_tree`` applies to it."""
    try:
        value = _reference_eval(tree, q, n)
    except ZeroDivisionError as exc:
        raise EvaluationError(f"division by zero at q={q!r}, n={n!r}") from exc
    except OverflowError as exc:
        raise EvaluationError(f"overflow at q={q!r}, n={n!r}") from exc
    except ValueError as exc:
        raise EvaluationError(f"{exc} at q={q!r}, n={n!r}") from exc
    if isinstance(value, complex) or not math.isfinite(value):
        raise EvaluationError(f"non-finite value {value!r} at q={q!r}, n={n!r}")
    return value


def _reference_eval(node, q, n):
    if isinstance(node, Number):
        return node.value
    if isinstance(node, Variable):
        return q if node.name == "q" else n
    if isinstance(node, Negate):
        return -_reference_eval(node.operand, q, n)
    if isinstance(node, FunctionCall):
        return FUNCTIONS[node.name](_reference_eval(node.argument, q, n))
    left = _reference_eval(node.left, q, n)
    right = _reference_eval(node.right, q, n)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        return left / right
    result = left**right
    if isinstance(result, complex):
        raise EvaluationError(f"complex power {left!r} ^ {right!r}")
    return result
