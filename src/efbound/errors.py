"""Shared error types and the global computation deadline.

The deadline is process-global on purpose: enumeration loops deep inside the
library (rectangle scans, cover search, graph enumeration) poll it without
having to thread a context object through every signature.
"""

import time
from contextlib import contextmanager


class InputError(ValueError):
    """Malformed or out-of-contract input."""


@contextmanager
def decoding(what):
    """Raise InputError(what) for a field that the block finds missing or of
    the wrong type: a KeyError, IndexError, TypeError, ValueError or
    AttributeError escaping it.  An InputError keeps its own message."""
    try:
        yield
    except InputError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(what) from exc


class VerificationError(RuntimeError):
    """An exact post-check of a computed result failed.

    The result is withheld; this signals a defect in efbound, not in the
    input.  Raised instead of ``assert`` so it survives ``python -O``.
    """


def require(ok, what):
    """Raise VerificationError naming the failed check ``what`` unless ok."""
    if not ok:
        raise VerificationError(what)


class BudgetError(RuntimeError):
    """Enumeration or time budget exhausted.

    ``partial`` carries the best bound found so far when the interrupted
    operation has a meaningful one, else None.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


_deadline = None


def set_budget_ms(ms):
    """Arm the global deadline ``ms`` milliseconds from now; None disarms."""
    global _deadline
    _deadline = None if ms is None else time.monotonic() + ms / 1000.0


def check_deadline():
    if _deadline is not None and time.monotonic() > _deadline:
        raise BudgetError("computation budget exhausted")
