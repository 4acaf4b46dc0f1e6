"""Brute-force sequence oracles the tests compare the library against, and
the integer spellings every text reader must refuse."""
import itertools

from crisscross.errors import InvalidParameterError

# Spellings that int() reads but str() never prints.
NON_CANONICAL = ["+3", "03", "3_0", "\u0663", "-0"]


def runs_count(x: tuple[int, ...]) -> int:
    """Number of maximal blocks of equal adjacent symbols."""
    if not x:
        raise InvalidParameterError("runs are undefined for the empty sequence")
    return 1 + sum(1 for a, b in zip(x, x[1:]) if a != b)


def one_deletion_ball(x: tuple[int, ...], s: int) -> tuple[tuple[int, ...], ...]:
    """All distinct subsequences of x obtained by deleting exactly s symbols."""
    if s < 0 or s > len(x):
        raise InvalidParameterError(f"cannot delete {s} symbols from length {len(x)}")
    return tuple(sorted(set(itertools.combinations(x, len(x) - s))))
