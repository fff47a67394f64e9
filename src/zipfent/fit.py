"""Unweighted least-squares fit of log F(k) = -a ln k + b."""

from __future__ import annotations

import math
import statistics

from ._record import Record
from .errors import InsufficientPointsError
from .spectrum import FreqSpectrum


class PowerLawFit(Record):
    """Fitted slope magnitude a and intercept b (natural-log units).

    ``k_min``/``k_max`` are the smallest and largest stored frequencies that
    entered the fit; ``rmse`` is the root-mean-square residual in log space.
    """

    a: float
    b: float
    rmse: float
    points_used: int
    k_min: int
    k_max: int


def fit_loglog(spec: FreqSpectrum, k_min: int = 1, k_max: int | None = None) -> PowerLawFit:
    """Ordinary least squares on (ln k, ln F(k)) over stored points in [k_min, k_max].

    Unweighted and deterministic; the result does not depend on point order.
    Raises InsufficientPointsError when fewer than two distinct k survive the
    range filter (e.g. single-word corpora, or a k_min above the largest
    stored k when k_max is not given), or when they do not give two distinct
    floats ln k (k beyond 2**53 can share one), in which case the power law
    cannot be instantiated at all.  An explicit k_max below k_min is a
    ValueError.
    """
    if k_min < 1:
        raise ValueError(f"k_min must be >= 1, got {k_min}")
    if k_max is None:
        k_max = spec.max_k
    elif k_max < k_min:
        raise ValueError(f"k_max ({k_max}) must be >= k_min ({k_min})")
    used = {k: f for k, f in spec.points.items() if k_min <= k <= k_max}
    if len(used) < 2:
        raise InsufficientPointsError(len(used))
    xs = [math.log(k) for k in used]
    distinct = len(set(xs))
    if distinct < 2:
        raise InsufficientPointsError(distinct)
    ys = [math.log(f) for f in used.values()]
    slope, intercept = statistics.linear_regression(xs, ys)
    resid = [y - (slope * x + intercept) for x, y in zip(xs, ys)]
    rmse = math.sqrt(math.fsum(r * r for r in resid) / len(resid))
    # + 0.0 normalizes the -0.0 slope produced by flat data
    return PowerLawFit(
        a=-slope + 0.0,
        b=intercept + 0.0,
        rmse=rmse,
        points_used=len(used),
        k_min=min(used),
        k_max=max(used),
    )
