"""Exception types shared across the package.

Input problems (bad polynomial text, non-square matrices, points not on the
hypersurface, ...) raise ``ValueError`` or its subclass ``PolyParseError``.
A failed internal consistency check raises ``InternalCheckError``: that
signals a bug or a violated mathematical invariant, never bad user input.
"""

from __future__ import annotations

# The longest list built from one integer of the input: the quad-betti
# table, the default Betti vector of bounds replay, an inferred variable
# list and the distinct entries of a Hessian.  Also the most quotient
# terms of every division (``poly._divide_terms``): each ``divides``, and
# each principal set's division by f in the hypersurface rank search.
MAX_LENGTH = 1 << 16


# The most decimal digits one number of the input may have.  Python 3.11
# and later refuse longer ones in ``int`` with advice about their own
# settings; 3.10 has no limit.  Checking the same bound on every version
# keeps the outcome and the message symdeg's own.
MAX_DIGITS = 4300


# The most bits one exact value may take in evaluation, substitution and
# the pointwise Hessian rank (half a megabyte); past it, ValueError.
_EVALUATE_BITS = 1 << 22


def check_length(what: str, length: int) -> None:
    """ValueError when a list would be longer than ``MAX_LENGTH``.

    A length of more than ``MAX_DIGITS`` digits is not printed: the CLI
    would echo it in full, and Python 3.11 and later refuse to format it.
    """
    if length > MAX_LENGTH:
        count = length if length < 10**MAX_DIGITS else f"at least 10^{MAX_DIGITS}"
        raise ValueError(f"{what} would have {count} entries (limit {MAX_LENGTH})")


class PolyParseError(ValueError):
    """Raised when polynomial text cannot be parsed."""


class InternalCheckError(RuntimeError):
    """Raised when a redundant internal verification fails.

    Every certificate this package emits is re-checked before being
    returned. If the re-check fails the computation is unsound and we
    refuse to return a value.
    """
