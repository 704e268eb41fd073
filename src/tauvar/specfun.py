"""Complex log-gamma, the gamma ratio of the functional equation, and Barnes G.

For a Dirichlet character of parity a in {0, 1} the functional equation of
its L-function, solved for L(s, chi), carries the gamma ratio

    g_a(s) = Gamma((1 - s + a)/2) / Gamma((s + a)/2),

times (q/pi)^(s - 1/2) and a root number of modulus 1.  On the critical line
Re s = 1/2 the two Gamma arguments are complex conjugates, so |g_a| = 1.

scipy is imported on the first log_gamma (or gamma_ratio) call, not with the
module, so importing tauvar loads numpy and the standard library only.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .arith import _INTEGERS

__all__ = ["log_gamma", "gamma_ratio", "barnes_g"]

_POLE_TOL = 1e-8


def _near_pole(z: np.ndarray, tol: float) -> bool:
    """Whether any z lies within tol (in each coordinate) of 0, -1, -2, ..."""
    n = np.round(z.real)
    return bool(np.any((n <= 0) & (np.abs(z.real - n) < tol) & (np.abs(z.imag) < tol)))


def log_gamma(s: Union[complex, np.ndarray]) -> Union[complex, np.ndarray]:
    """Principal branch of log Gamma(s), elementwise; poles (s = 0, -1, -2, ...)
    rejected.  A scalar s gives a complex, an array a complex array."""
    from scipy.special import loggamma

    z = np.asarray(s, dtype=np.complex128)
    if _near_pole(z, 1e-300):
        raise ValueError(f"log_gamma pole at s = {s}")
    out = loggamma(z)
    return complex(out) if out.ndim == 0 else out


def gamma_ratio(s: Union[complex, np.ndarray], parity: int) -> Union[complex, np.ndarray]:
    """g_a(s) = Gamma((1 - s + a)/2) / Gamma((s + a)/2) for parity a, elementwise.

    Arguments with either Gamma argument within 1e-8 of a pole are rejected.
    A scalar s gives a complex, an array a complex array.
    """
    if parity not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {parity}")
    s = np.asarray(s, dtype=np.complex128)
    z_num = (1.0 - s + parity) / 2.0
    z_den = (s + parity) / 2.0
    for z in (z_num, z_den):
        if _near_pole(z, _POLE_TOL):
            raise ValueError(f"gamma ratio argument {z} is within {_POLE_TOL} of a pole")
    out = np.exp(log_gamma(z_num) - log_gamma(z_den))
    return complex(out) if np.ndim(out) == 0 else out


def barnes_g(m: int) -> int:
    """Barnes G at a positive integer: G(m) = prod_{j=1}^{m-2} j!, G(1)=G(2)=1."""
    if not isinstance(m, _INTEGERS) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if m > 30:
        raise ValueError(f"m = {m} exceeds the supported bound 30")
    out = 1
    fact = 1
    for j in range(1, m - 1):
        fact *= j
        out *= fact
    return out
