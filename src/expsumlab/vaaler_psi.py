"""Vaaler's trigonometric approximation to the centered sawtooth.

The degree-H approximation is

    psi_approx(x, H) = - sum_{h=1}^{H} Phi(h/(H+1)) sin(2 pi h x) / (pi h)

with the tapering weight Phi(t) = pi t (1 - |t|) cot(pi t) + |t|, and the
approximation error is bounded pointwise by a scaled Fejer kernel:

    |psi_frac(x) - psi_approx(x, H)| <= (1/(2H+2)) *
        sum_{|h| <= H} (1 - |h|/(H+1)) e(h x)
      = (sin(pi (H+1) x))^2 / (2 (H+1)^2 sin(pi x)^2).

At integer x the majorant takes its maximum value 1/2.
"""

from __future__ import annotations

import numbers

import numpy as np

# Below this |t| the closed form 0/0-cancels; a 4-term series of
# pi t cot(pi t) = 1 - u/3 - u^2/45 - 2u^3/945 + O(u^4), u = (pi t)^2,
# is exact to ~1e-16 relative there.
_PHI_TAYLOR_CUT = 1e-4
# Below this |sin(pi x)| the Fejer quotient is evaluated by its cosine series.
_SIN_FALLBACK = 1e-6


def _check_degree(H) -> None:
    if not isinstance(H, numbers.Integral) or H < 1:
        raise ValueError(f"degree H must be an integer >= 1, got {H!r}")


def vaaler_phi_many(t: np.ndarray) -> np.ndarray:
    """Tapering weight Phi at every entry of a float array: defined on
    |t| < 1, even, Phi(0) = 1, Phi(1/2) = 1/2."""
    a = np.abs(t)
    outside = ~(a < 1.0)  # NaN is outside too
    if np.any(outside):
        raise ValueError(f"Phi is defined on |t| < 1, got t = {t[outside][0]}")
    out = np.empty_like(t, dtype=np.float64)
    small = a < _PHI_TAYLOR_CUT
    if np.any(small):
        u = (np.pi * t[small]) ** 2
        core = 1.0 - u / 3.0 - u * u / 45.0 - 2.0 * u ** 3 / 945.0
        out[small] = (1.0 - a[small]) * core + a[small]
    big = ~small
    if np.any(big):
        pt = np.pi * t[big]
        out[big] = pt * (1.0 - a[big]) * (np.cos(pt) / np.sin(pt)) + a[big]
    return out


def vaaler_coefficients(H: int) -> np.ndarray:
    """Coefficients c_h = Phi(h/(H+1))/(pi h), h = 1..H, of the degree-H
    sine polynomial; strictly positive and strictly decreasing."""
    _check_degree(H)
    h = np.arange(1, H + 1, dtype=np.float64)
    return vaaler_phi_many(h / (H + 1)) / (np.pi * h)


def psi_approx_many(xs, H: int) -> np.ndarray:
    """Degree-H approximation to psi_frac at every entry of xs."""
    c = vaaler_coefficients(H)
    h = np.arange(1, H + 1, dtype=np.float64)
    # one len(xs) x H matrix, worked on in place; negating c rather than the
    # result keeps every product, and so the sign of a zero sum, as in
    # (-sin) @ c
    t = np.outer(np.asarray(xs, dtype=np.float64), h)
    t *= 2.0 * np.pi
    return np.sin(t, out=t) @ -c


def error_majorant_many(xs, H: int) -> np.ndarray:
    """Pointwise bound on |psi_frac - psi_approx| at degree H."""
    _check_degree(H)
    xs = np.asarray(xs, dtype=np.float64)
    s = np.sin(np.pi * xs)
    out = np.empty_like(xs)
    near = np.abs(s) < _SIN_FALLBACK
    far = ~near
    if np.any(far):
        r = np.sin(np.pi * (H + 1) * xs[far]) / s[far]
        out[far] = r * r / (2.0 * (H + 1) ** 2)
    if np.any(near):
        h = np.arange(1, H + 1, dtype=np.float64)
        kern = 1.0 + 2.0 * (
            np.cos(2.0 * np.pi * np.outer(xs[near], h)) @ (1.0 - h / (H + 1))
        )
        out[near] = np.maximum(kern, 0.0) / (2.0 * (H + 1))
    return out
