"""The cutoff weights of the class sums, and the bump's numerical Mellin transform.

Each cutoff of the class sums is one object: `support`, the n it weighs as
multiples of X, and `weigh`, which writes omega(n) tau_k(n) over a run of n.
`_CUTOFFS` maps each name to the call that returns its object: sharp weighs
(0, 1] by 1, smooth (1, 2] by w(n/X), w the bump of `make_bump_weight`.

The bump is the classical one  w(y) = C * exp(-1/((y-1)(2-y)))  on (1,2),
identically zero outside, with C fixed so that the L2 norm is 1.  Because w
vanishes to infinite order at both endpoints, tanh-sinh quadrature (nodes
clustered double-exponentially at the endpoints) converges at machine
precision with a few thousand nodes, including for the oscillatory integrand
x^(s-1) up to |Im s| of several hundred.

M[f](s) = int_0^inf f(x) x^(s-1) dx restricted to the support (1,2).

scipy (Simpson's rule) is imported on the first parseval_check call, not with
the module, so importing tauvar loads numpy and the standard library only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "SmoothWeight",
    "MellinValue",
    "DecayReport",
    "ToleranceNotReached",
    "TruncationInsufficient",
    "make_bump_weight",
    "mellin_numeric",
    "mellin_decay_check",
    "parseval_check",
]

_MIN_LEVEL = 6
_MAX_LEVEL = 12
_UMAX = 3.5


class ToleranceNotReached(RuntimeError):
    """Quadrature refinement exhausted; carries the best values and the
    largest error estimate."""

    def __init__(self, value: Union[complex, np.ndarray], error: float, tol: float):
        super().__init__(
            f"quadrature error estimate {error:.3e} above requested tol {tol:.3e}"
        )
        self.value = value
        self.error = error
        self.tol = tol


class TruncationInsufficient(RuntimeError):
    """Tail of a truncated t-integral exceeds the requested tolerance."""


# read-only nodes and weights, built once per level
@functools.cache
def _tanh_sinh_nodes(level: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for int_1^2 f(x) dx, x = 1.5 + 0.5 tanh((pi/2) sinh u)."""
    h = _UMAX / (1 << level)
    u = np.arange(-(1 << level), (1 << level) + 1) * h
    su = 0.5 * math.pi * np.sinh(u)
    x = 1.5 + 0.5 * np.tanh(su)
    dx = 0.25 * math.pi * np.cosh(u) / np.cosh(su) ** 2 * h
    good = (x > 1.0) & (x < 2.0) & (dx > 0.0)
    return x[good], dx[good]


@dataclass(frozen=True)
class SmoothWeight:
    """Compactly supported weight amplitude * exp(-1/((y-1)(2-y))) on [1,2].

    make_bump_weight() fixes the amplitude so int w^2 = 1; scaled copies are
    available for identities that do not assume normalization.
    """

    amplitude: float
    support = (1, 2)

    def __call__(self, y: float) -> float:
        if not 1.0 < y < 2.0:  # NaN included, as in values()
            return 0.0
        return self.amplitude * math.exp(-1.0 / ((y - 1.0) * (2.0 - y)))

    def values(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """w at every y, 0 outside (1, 2), NaN included; written to `out`
        (which may be y itself) when given.

        With t = y - 1, t (1 - t) is (y - 1)(2 - y) bit for bit on [1, 2],
        where both differences are exact, and has its sign elsewhere (NaN
        aside): it is positive exactly on (1, 2), where both factors are at
        least 2^-52, and far out it overflows to -inf, still not positive.
        So the product is also the support test, and the masks run only
        when some y fails it.
        """
        y = np.asarray(y, dtype=np.float64)
        t = np.subtract(y, 1.0, out=np.empty_like(y) if out is None else out)
        with np.errstate(over="ignore"):
            t *= np.subtract(1.0, t)
        if t.min(initial=np.inf) > 0.0:
            np.divide(-1.0, t, out=t)
            np.exp(t, out=t)
        else:
            inside = t > 0.0
            np.divide(-1.0, t, out=t, where=inside)
            np.exp(t, out=t, where=inside)
            np.copyto(t, 0.0, where=np.logical_not(inside, out=inside))
        t *= self.amplitude
        return t

    def weigh(self, lo: int, hi: int, x: float, tau: np.ndarray, out: np.ndarray) -> None:
        """w(n / x) tau_k(n) for n in [lo, hi) into `out`, tau holding tau_k there."""
        # y = n / x in the cells, w(y) in place, then times float(tau):
        # bincount's product.  n < 2^33 under the sieve budget, so y is exact.
        np.divide(np.arange(lo, hi, dtype=np.float64), x, out=out)
        self.values(out, out=out)
        out *= tau

    def scaled(self, factor: float) -> "SmoothWeight":
        return SmoothWeight(amplitude=self.amplitude * factor)

    @property
    def weight_id(self) -> str:
        return f"bump12-l2(amplitude={self.amplitude:.12g})"

    def l2_norm_sq(self) -> float:
        """int w(y)^2 dy by tanh-sinh at the finest level."""
        x, wq = _tanh_sinh_nodes(_MAX_LEVEL)
        f = self.values(x)
        return float(np.sum(f * f * wq))


@dataclass(frozen=True)
class MellinValue:
    """Mellin-transform values with their quadrature error estimates: scalars
    for a scalar s, arrays of the shape of s otherwise."""

    s: Union[complex, np.ndarray]
    value: Union[complex, np.ndarray]
    error: Union[float, np.ndarray]


@functools.cache
def make_bump_weight() -> SmoothWeight:
    """The canonical bump with int w^2 = 1 (within quadrature precision).

    Built once per process: the first call runs the quadrature and every
    later one returns that same frozen weight.
    """
    return SmoothWeight(amplitude=1.0 / math.sqrt(SmoothWeight(1.0).l2_norm_sq()))


class _SharpCutoff:
    """[n <= X]: every n of its support weighs 1, so no weight is evaluated."""

    support = (0, 1)
    weight_id = None

    def weigh(self, lo: int, hi: int, x: float, tau: np.ndarray, out: np.ndarray) -> None:
        out[:] = tau


# make_bump_weight by its module name, so a wrapper put there sees every call
_CUTOFFS = {"sharp": _SharpCutoff, "smooth": lambda: make_bump_weight()}


def mellin_numeric(
    w: SmoothWeight, s: Union[complex, np.ndarray], tol: float = 1e-10
) -> MellinValue:
    """M[w](s) = int_1^2 w(x) x^(s-1) dx by level-doubling tanh-sinh.

    s is a scalar or an array; the result has the same shape.  Each point
    stops at the first level whose change from the level before is at most
    tol, and that change is its error estimate; only the points not yet
    converged go on to the next level.  If any point misses tol at the
    maximum refinement, ToleranceNotReached carries the best values and the
    largest estimate.
    """
    if not tol >= 1e-13:  # NaN fails this too
        raise ValueError(f"tol = {tol} below the supported floor 1e-13")
    s_arr = np.asarray(s, dtype=np.complex128)
    sm1 = s_arr.ravel() - 1.0
    value = np.zeros(sm1.shape, dtype=np.complex128)
    error = np.full(sm1.shape, math.inf)
    todo = np.arange(sm1.size)
    for level in range(_MIN_LEVEL, _MAX_LEVEL + 1):
        x, wq = _tanh_sinh_nodes(level)
        base = w.values(x) * wq
        lx = np.log(x)
        # rows of (points, nodes) complex exponentials, about 16 MB at a time
        step = max(1, (1 << 20) // lx.size)
        new = np.empty(todo.size, dtype=np.complex128)
        for i in range(0, todo.size, step):
            new[i : i + step] = np.exp(np.outer(sm1[todo[i : i + step]], lx)) @ base
        if level > _MIN_LEVEL:
            error[todo] = np.abs(new - value[todo])
        value[todo] = new
        todo = todo[~(error[todo] <= tol)]
        if todo.size == 0:
            break
    # [()] turns 0-d results into scalars and leaves arrays whole
    shape = s_arr.shape
    out = MellinValue(s_arr[()], value.reshape(shape)[()], error.reshape(shape)[()])
    if todo.size:
        raise ToleranceNotReached(out.value, float(np.max(error)), tol)
    return out


@dataclass(frozen=True)
class DecayReport:
    """sup over a t grid of (1+|t|)^ell |M[w](sigma+it)| for several sigma."""

    ell: int
    t_list: Tuple[float, ...]
    bounds: Dict[float, float] = field(default_factory=dict)

    @property
    def sup(self) -> float:
        return max(self.bounds.values())


def mellin_decay_check(
    w: SmoothWeight,
    ell: int,
    t_list: Sequence[float],
    sigmas: Sequence[float] = (-1.0, 0.5, 2.0),
) -> DecayReport:
    """Numerical witness for the decay hypothesis M[w](sigma+it) = O(|t|^-ell).

    Past |t| of about 1e4 the quadrature cannot converge: ToleranceNotReached.
    """
    if not (0 <= ell <= 6):
        raise ValueError(f"ell = {ell} outside the supported range 0..6")
    t_arr = np.asarray(list(t_list), dtype=np.float64)
    bounds: Dict[float, float] = {}
    for sigma in sigmas:
        m = np.abs(mellin_numeric(w, float(sigma) + 1j * t_arr).value)
        bounds[float(sigma)] = float(np.max(m * (1.0 + np.abs(t_arr)) ** ell))
    return DecayReport(ell=ell, t_list=tuple(float(t) for t in t_arr), bounds=bounds)


def parseval_check(
    w: SmoothWeight, t_max: float = 200.0, dt: float = 0.05, tail_tol: float = 1e-7
) -> float:
    """|(1/2pi) int M[w](1/2+it) M[w](1/2-it) dt  -  int w(x)^2 dx|.

    The t-integral is truncated at |t| <= t_max; the omitted tail is bounded
    using the measured third-order decay constant and must stay below
    tail_tol, else TruncationInsufficient is raised.  For the normalized bump
    the right side is 1 up to quadrature precision.
    """
    for name, v in (("t_max", t_max), ("dt", dt)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive, got {v}")
    from scipy.integrate import simpson

    n = int(round(t_max / dt))
    if n % 2 == 1:
        n += 1
    t = np.linspace(0.0, t_max, n + 1)
    m = mellin_numeric(w, 0.5 + 1j * t).value
    # w real: M(1/2 - it) = conj M(1/2 + it), so the integrand is |M|^2
    integrand = np.abs(m) ** 2
    lhs = 2.0 * float(simpson(integrand, x=t)) / (2.0 * math.pi)
    k3 = float(np.abs(m[-1])) * (1.0 + t_max) ** 3
    tail = 2.0 * k3**2 * (1.0 + t_max) ** (-5) / 5.0 / (2.0 * math.pi)
    if tail > tail_tol:
        raise TruncationInsufficient(
            f"estimated tail {tail:.3e} beyond |t| = {t_max} exceeds {tail_tol:.1e}"
        )
    rhs = w.l2_norm_sq()
    return abs(lhs - rhs)
