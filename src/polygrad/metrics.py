"""Gradient tail-ratio diagnostics and paired statistical tests.

The tail ratio tau = p99/mean of per-sample input-gradient L2 norms
summarizes how heavy the upper tail of input sensitivity is: tau == 1
for constant norms, and it grows with rare extreme-sensitivity samples.
The test machinery (one-sided paired t, exact Wilcoxon signed-rank,
Bonferroni) is self-contained so results do not depend on an external
stats stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDistributionError, NumericOverflowError
from .linalg import quantile
from .polynet import Net
from .tape import Tape

__all__ = [
    "TailRatioReport",
    "StatTestResult",
    "tail_ratio",
    "input_grad_norms",
    "paired_t_one_sided",
    "wilcoxon_signed_rank",
    "bonferroni",
    "t_sf",
    "regularized_incomplete_beta",
]


@dataclass(frozen=True)
class TailRatioReport:
    mean: float
    p99: float
    tau: float
    n: int


def tail_ratio(norms) -> TailRatioReport:
    """p99-over-mean summary of a nonempty, nonnegative norm sequence."""
    arr = np.asarray(norms, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("norms must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError("norms must be finite and >= 0")
    mean = float(arr.mean())
    if mean == 0.0:
        raise DegenerateDistributionError("all-zero gradient norms: tau undefined")
    p99 = quantile(arr, 0.99)
    return TailRatioReport(mean=mean, p99=p99, tau=p99 / mean, n=int(arr.size))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite norm raises instead
def input_grad_norms(net: Net, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample L2 norm of the gradient of each sample's own
    cross-entropy with respect to its input row.

    The summed per-sample cross-entropies are reverse-accumulated
    through the recorded forward; row b of the input gradient is then
    exactly the gradient of row b's loss, because no sample's loss
    touches another row.
    """
    dx = Tape(net, net.check_input(x), labels, reduction="sum").backward()
    norms = np.sqrt((dx**2).sum(axis=1))

    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise NumericOverflowError(f"non-finite input gradient at sample {int(bad[0])}")
    return norms


@dataclass(frozen=True)
class StatTestResult:
    test: str
    statistic: float
    p_value: float
    n_pairs: int
    bonferroni_m: int = 1
    p_adjusted: float | None = None

    def __post_init__(self):
        if self.p_adjusted is None:
            object.__setattr__(self, "p_adjusted", self.p_value)


def _paired_diffs(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be equal-length 1-D sequences")
    return a - b


def paired_t_one_sided(a, b) -> StatTestResult:
    """Paired t-test of mean(a - b) > 0.

    p comes from the Student-t survival function evaluated through the
    regularized incomplete beta (accurate to ~1e-10), not a lookup table.
    """
    d = _paired_diffs(a, b)
    n = d.size
    if n < 2:
        raise ValueError("paired t-test needs at least 2 pairs")
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise ValueError("zero variance in paired differences")
    t = float(d.mean()) / (sd / math.sqrt(n))
    return StatTestResult("paired-t-one-sided", t, t_sf(t, n - 1), n)


def wilcoxon_signed_rank(a, b) -> StatTestResult:
    """One-sided Wilcoxon signed-rank test of median(a - b) > 0.

    Zero differences are dropped. Ties in |d| get average ranks. For
    n <= 20 the p-value is the exact tail mass of the signed-rank null
    (counted over all 2^n sign assignments, reduced by dynamic
    programming over doubled ranks so averaged half-ranks stay
    integral); beyond that, normal approximation with tie and
    continuity corrections.
    """
    d = _paired_diffs(a, b)
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        raise ValueError("all paired differences are zero")
    ranks = _average_ranks(np.abs(d))
    w = float(ranks[d > 0].sum())

    if n <= 20:
        doubled = [int(round(2 * r)) for r in ranks]
        target = int(round(2 * w))
        # counts[s] = number of sign assignments with doubled positive-rank sum s
        counts = [0] * (sum(doubled) + 1)
        counts[0] = 1
        for r in doubled:
            for s in range(len(counts) - 1, r - 1, -1):
                counts[s] += counts[s - r]
        tail = sum(counts[target:])
        p = tail / (1 << n)
    else:
        mu = n * (n + 1) / 4.0
        tie_sizes = np.unique(np.abs(d), return_counts=True)[1]
        var = n * (n + 1) * (2 * n + 1) / 24.0 - float(((tie_sizes**3 - tie_sizes) / 48.0).sum())
        z = (w - mu - 0.5) / math.sqrt(var)
        p = 0.5 * math.erfc(z / math.sqrt(2.0))
    return StatTestResult("wilcoxon-signed-rank", w, p, n)


def bonferroni(results: list[StatTestResult], m: int) -> list[StatTestResult]:
    """Family-wise correction: p_adjusted = min(1, m * p)."""
    if m < 1:
        raise ValueError("bonferroni family size must be >= 1")
    if m < len(results):
        raise ValueError(f"family size {m} smaller than number of results {len(results)}")
    return [
        replace(r, bonferroni_m=m, p_adjusted=min(1.0, m * r.p_value)) for r in results
    ]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties replaced by the mean rank of the tie group."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


# -- Student-t survival function ------------------------------------------


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) by the standard continued-fraction evaluation.

    Uses the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) to keep the fraction
    in its fast-converging region; modified Lentz iteration, absolute
    accuracy well below 1e-10 for the dof used here.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must be in [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


BETA_CF_MAX_ITER, BETA_CF_EPS = 300, 1e-14


def _beta_cf(a: float, b: float, x: float) -> float:
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, BETA_CF_MAX_ITER + 1):
        m2 = 2 * m
        num = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        num = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < BETA_CF_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def t_sf(t: float, dof: int) -> float:
    """P(T > t) for Student's t with ``dof`` degrees of freedom."""
    if dof < 1:
        raise ValueError("degrees of freedom must be >= 1")
    half_tail = 0.5 * regularized_incomplete_beta(dof / 2.0, 0.5, dof / (dof + t * t))
    return half_tail if t >= 0 else 1.0 - half_tail
