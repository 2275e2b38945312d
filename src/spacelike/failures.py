"""The one failure record of a batched pass, and the errors it raises.

A pass decides for each point whether it is inside f's domain, space-like
and convex, and records only each point's first failure, in the order a
point runs its checks: a small code and the one number its message needs.
The exception is built when it is raised, so a lattice of 2^22 nodes holds
no exception object per node; the DomainErrors of the jets, which carry the
span of the subexpression at fault, are shared by the points that raise them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprparse import DomainError

# What a point failed first, in the order the checks run: a DomainError, a
# metric that is not positive definite, one whose smallest eigenvalue is at
# most the space-like tolerance, a pair of planes of grassmann's distance of
# which one has such a metric I - A^T A, and a Hessian that is not convex.
OK, DOMAIN, INDEFINITE, DEGENERATE, PLANE, NOT_CONVEX = range(6)
STATUS = np.array(["ok", "error:DomainError", "not-spacelike", "error:NotSpacelikeError",
                   "error:NotSpacelikeError", "not-convex"], dtype=object)  # node-table status


class NotSpacelikeError(ValueError):
    def __init__(self, min_eig: float):
        super().__init__(f"induced metric is not positive definite (min eigenvalue {min_eig:.3e})")
        self.min_eig = min_eig


class NotConvexError(ValueError):
    def __init__(self, min_eig: float):
        super().__init__(f"Hessian of the potential is not positive definite "
                         f"(min eigenvalue {min_eig:.3e})")
        self.min_eig = min_eig


@dataclass
class Failures:
    """Each point's first failure over a batch of points.  ``code`` is OK
    where a point passes and otherwise names the check it failed first;
    ``value`` is the number that check reports (a smallest eigenvalue),
    and for DOMAIN the index in ``errors`` of the point's DomainError."""

    code: np.ndarray
    value: np.ndarray
    errors: tuple = ()

    @classmethod
    def clean(cls, shape) -> "Failures":
        return cls(np.zeros(shape, dtype=np.int8), np.full(shape, np.nan))

    def add(self, bad, code, value=np.nan) -> "Failures":
        """Run one more check: a point that passed the earlier ones and where
        ``bad`` holds fails with ``code`` (a DomainError for DOMAIN) and ``value``."""
        new = bad & (self.code == OK)
        if new.any():
            if isinstance(code, DomainError):
                code, value, self.errors = DOMAIN, len(self.errors), self.errors + (code,)
            self.code[new] = code
            self.value[new] = np.broadcast_to(value, new.shape)[new]
        return self

    def then(self, later: "Failures", rows=...) -> "Failures":
        """Run the checks of ``later``, a record over the points ``rows`` (all
        by default): a point that passed these takes its failure there."""
        code, value = self.code[rows], self.value[rows]
        new = (code == OK) & (later.code != OK)
        code[new] = later.code[new]
        shifted = np.where(later.code == DOMAIN, later.value + len(self.errors), later.value)
        value[new] = shifted[new]  # a DomainError's index, past the errors of this record
        self.code[rows], self.value[rows], self.errors = code, value, self.errors + later.errors
        return self

    def first_along(self, axis: int) -> "Failures":
        """Per point its first failure over the sub-steps along ``axis``, which it runs in order."""
        step = np.expand_dims(np.argmax(self.code != OK, axis=axis), axis)
        return Failures(*(np.take_along_axis(a, step, axis).squeeze(axis)
                          for a in (self.code, self.value)), self.errors)

    def __getitem__(self, index):
        """The exception of the point at ``index``, or None where it passes."""
        code, value = self.code[index], self.value[index]
        if code == OK:
            return None
        if code == DOMAIN:
            return self.errors[int(value)]
        return (NotConvexError if code == NOT_CONVEX else NotSpacelikeError)(float(value))

    def raise_first(self, upto: int = NOT_CONVEX) -> None:
        """Raise the exception of the first point, in C order, that failed a
        check with a code up to ``upto`` (by default any check), if any."""
        if not self.code.any():
            return
        failing = (self.code != OK) & (self.code <= upto)
        if failing.any():
            raise self[np.unravel_index(np.argmax(failing), failing.shape)]
