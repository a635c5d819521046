"""Reference work, timed beside the program to rescale its times.

The shared host runs the same code at speeds up to 2x apart, in spells of
seconds to minutes.  A fixed piece of pure-Python work timed between the
instances slows down with them, so a time multiplied by
REFERENCE_S / (the reference's time next to it) reads as seconds on a host
where the reference work takes REFERENCE_S: the reference seconds of the
end-to-end metrics.  The neighbours on the host do not slow every kind of
code alike, so each workload's reference repeats its dominant operation:
group closure over permutation tuples for census-symmetric, elimination
over Fractions on a small matrix for cross-oracle, and a fraction-free
elimination step across a large sparse matrix for construct-ladder.  Nothing here calls
nutorbits, so no change to the program can move the reference.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.01

_ROTATE = (1, 2, 3, 4, 5, 6, 7, 8, 0)
_SWAP = (1, 0, 2, 3, 4, 5, 6, 7, 8)


def closure() -> int:
    """Breadth-first closure of permutation tuples of 9 points under a
    rotation and a swap, stopped at 5000 elements."""
    seen = {tuple(range(9))}
    frontier = list(seen)
    while len(seen) < 5000:
        grown = []
        for p in frontier:
            for g in (_ROTATE, _SWAP):
                q = tuple(p[i] for i in g)
                if q not in seen:
                    seen.add(q)
                    grown.append(q)
        frontier = grown
    return len(seen)


def elimination() -> int:
    """Rank of a fixed 0/1 matrix of order 28 by elimination over Fractions."""
    n = 28
    rows = [[Fraction(int((i * 7 + j * 13) % 5 == 0) + (i == j)) for j in range(n)]
            for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, n):
            factor = rows[r][col] / rows[rank][col]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def bareiss_step() -> int:
    """One fraction-free elimination step, row by row, across a fixed
    sparse integer matrix of order 180."""
    n = 180
    rows = [[2 if i == j else int((j - i) % n in (1, 3, n - 1, n - 3)) for j in range(n)]
            for i in range(n)]
    pivot_row = rows[0]
    pivot = pivot_row[0]
    for row in rows[1:]:
        factor = row[0]
        row[1:] = [pivot * x - factor * y for x, y in zip(row[1:], pivot_row[1:])]
        row[0] = 0
    return sum(rows[-1])


REFERENCE_WORK = {
    "cross-oracle": elimination,
    "construct-ladder": bareiss_step,
    "census-symmetric": closure,
}


def time_reference(workload: str) -> tuple[float, float]:
    """Run the workload's reference work once; return its start and end.
    The garbage collector is held off meanwhile: a collection would walk
    the program's live objects and tie the reference's time to the
    program's heap."""
    work = REFERENCE_WORK[workload]
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        work()
        end = perf_counter()
    finally:
        if enabled:
            gc.enable()
    return start, end
