"""Odd power nonlinearity f(t) = |t|^(p-2) t."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def _subcritical_bound(dim_n):
    if dim_n <= 2:
        return np.inf
    return 2.0 * dim_n / (dim_n - 2.0)


@dataclass(frozen=True)
class Nonlinearity:
    """Power nonlinearity with exponent p > 2, odd in t.

    dim_n only enters through the subcritical growth bound
    p < 2 n/(n-2) for n >= 3; in one and two dimensions any p > 2 is
    admissible. Immutable: every method is re-entrant.
    """

    p: float
    dim_n: int = 2

    def __post_init__(self):
        if not np.isfinite(self.p):
            raise ConfigError("exponent p must be finite")
        if self.p <= 2.0:
            raise ConfigError(f"need p > 2, got p = {self.p}")
        if int(self.dim_n) != self.dim_n or self.dim_n < 1:
            raise ConfigError(f"dimension must be a positive integer, got {self.dim_n}")
        object.__setattr__(self, "dim_n", int(self.dim_n))
        bound = _subcritical_bound(self.dim_n)
        if self.p >= bound:
            raise ConfigError(
                f"p = {self.p} is not subcritical in dimension {self.dim_n}"
                f" (need p < {bound})"
            )

    def f(self, t):
        """|t|^(p-2) t, vectorized; odd, with f(0) = f'(0) = 0."""
        t = _check_finite(t)
        return np.abs(t) ** (self.p - 2.0) * t

    def F(self, t):
        """Antiderivative |t|^p / p with F(0) = 0."""
        t = _check_finite(t)
        return np.abs(t) ** self.p / self.p

    def fprime(self, t):
        """(p-1)|t|^(p-2); continuous at 0 for p > 2."""
        t = _check_finite(t)
        return (self.p - 1.0) * np.abs(t) ** (self.p - 2.0)


def _check_finite(t):
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ConfigError("argument must be finite")
    return t if t.ndim else t[()]
