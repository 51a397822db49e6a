"""Reference scan-and-refine: the one-midpoint-per-call bisection the
existence probes used before they evaluated a tree of midpoints per
predicate call, kept so that the tests can compare the two exactly."""

import numpy as np


def refine_last(pred, grid, tol=0.0):
    """(lo, hi) from the last grid point where the array predicate holds to
    the next grid point, bisected one midpoint per predicate call until it is
    narrower than tol or lo and hi are adjacent floats; None when the
    predicate holds nowhere."""
    hits = np.nonzero(pred(grid))[0]
    if hits.size == 0:
        return None
    i = int(hits[-1])
    lo, hi = grid[i], grid[min(i + 1, grid.size - 1)]
    while hi - lo >= tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if pred(np.array([mid]))[0]:
            lo = mid
        else:
            hi = mid
    return lo, hi
