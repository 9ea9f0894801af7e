"""The accuracy budget every adaptive evaluator takes.

Each evaluator either meets the budget's relative tolerance or raises
:class:`~fso_linklab.errors.AccuracyError`; silent precision loss is treated
as a bug. The density, the distribution function and the transform need no
special function of their own (see the kernel in fso_linklab.malaga).
"""

from __future__ import annotations

from dataclasses import dataclass

# not called here: bench/spans.py traces the scipy Bessel and Kummer
# functions where this module binds them
from scipy.special import hyp1f1, kve  # noqa: F401

from .errors import DomainError


@dataclass(frozen=True)
class AccuracyBudget:
    """Accuracy demanded from an adaptive evaluation: rel_tol is the target
    relative error of every returned value."""

    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must be in (0,1), got {self.rel_tol}")


DEFAULT_BUDGET = AccuracyBudget()
