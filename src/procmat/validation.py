"""Named validity checks with measured residuals.

Reports carry residual magnitudes, not just booleans, so tolerance policy
lives in one place and failures are auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: the one validity tolerance: process and instrument checks, the separable
#: family's block positivity and the optimizer's default ``psd_tol``
VALIDITY_TOL = 1e-10


def require_positive_finite(name: str, value: float):
    """Raise ValueError unless ``value`` is a positive finite number (a
    tolerance such as ``psd_tol``)."""
    # NaN fails every comparison, so `value <= 0` alone would let it through
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single named check.

    ``residual`` is the measured violation (most-negative eigenvalue for
    positivity checks, max absolute deviation for equality checks); the check
    passes when the residual does not exceed ``tolerance``.
    """

    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class ValidityReport:
    checks: tuple[CheckResult, ...]

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status, rule = ("pass", "<=") if c.passed else ("FAIL", ">")
            residual = f"residual {c.residual:.3e} {rule} tol {c.tolerance:.0e}"
            out.append(f"{status}  {c.name}: {residual}")
        return out
