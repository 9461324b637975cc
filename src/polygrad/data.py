"""Tabular CSV ingestion, preprocessing, stratified splits, subsampling.

The split protocol: one stratified 80/20 train/eval partition per seed
(eval takes ceil(0.2 * n_c) of each class, so the eval side never
starves a small class), then data fractions subsample the train side
only, nested so the 5% subset is contained in the 10% subset and so on
for a given seed. Imputation and standardization statistics are fitted
on the active training subset only and reused verbatim on eval rows.

Includes a deterministic generator for a diabetes-screening-style
surrogate table (8 numeric features, binary outcome, zero-inflated
measurement columns) used when no real CSV is supplied.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CsvParseError, ShapeError
from .linalg import Rng

__all__ = [
    "PIMA_FEATURES",
    "PIMA_ZERO_MISSING",
    "Dataset",
    "load_csv",
    "save_csv",
    "PreprocessStats",
    "fit_preprocess",
    "stratified_split",
    "subsample_fraction",
    "make_blobs",
    "make_pima_like",
]

log = logging.getLogger(__name__)

PIMA_FEATURES = [
    "pregnancies",
    "glucose",
    "blood_pressure",
    "skin_thickness",
    "insulin",
    "bmi",
    "pedigree",
    "age",
]
# Physiologically impossible zeros in these columns mark missing readings.
PIMA_ZERO_MISSING = ("glucose", "blood_pressure", "skin_thickness", "insulin", "bmi")

PIMA_LABEL = "outcome"


@dataclass
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64 in [0, class_count)
    feature_names: list[str]
    class_count: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ShapeError("features must be 2-D and labels 1-D")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ShapeError("features and labels disagree on sample count")
        if len(self.feature_names) != self.features.shape[1]:
            raise ShapeError("feature_names length does not match feature count")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ShapeError("labels out of [0, class_count) range")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def load_csv(path, label_column: str = PIMA_LABEL) -> Dataset:
    """Read a comma-delimited numeric table with a header row (a leading
    UTF-8 byte-order mark, as spreadsheet exports write, is skipped).

    Error messages number rows by csv record: the header is row 0 and
    blank records count. Labels may be any integers that fit an int64;
    they are remapped to contiguous classes 0..K-1 in sorted order. A
    fractional, non-finite or out-of-range label is refused with its row.

    The data rows are parsed in one call to numpy's C reader. A file it
    rejects (or one holding ASCII separator characters, which numpy
    strips as cell padding and ``float()`` does not) is re-read with a
    ``csv.reader`` + ``float()`` row loop, so every accepted value
    equals ``float(cell)`` and every rejection names the row loop's row
    and column.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise CsvParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        repeated = next((h for i, h in enumerate(header) if h in header[:i]), None)
        if repeated is not None:
            raise CsvParseError(f"{path}: column {repeated!r} is named more than once", column=repeated)
        if label_column not in header:
            raise CsvParseError(f"{path}: missing column {label_column!r}", column=label_column)
        table = None if _has_separator_chars(path) else _bulk_parse(fh)
    if table is None or table.shape[1] != len(header):
        table = _parse_rows(path, header)
    if table.shape[0] == 0:
        raise CsvParseError(f"{path}: no data rows")

    label_pos = header.index(label_column)
    labels_f = table[:, label_pos]
    non_integer = labels_f != np.round(labels_f)  # True for NaN
    in_range = (labels_f >= -(2.0**63)) & (labels_f < 2.0**63)  # False for NaN and +-inf
    refused = non_integer | ~in_range
    if refused.any():
        index = int(np.flatnonzero(refused)[0])
        with open(path, newline="", encoding="utf-8-sig") as fh:
            bad = next(itertools.islice(_records(fh), index, None))[0]
        what = "non-integer label" if non_integer[index] else "label outside the int64 range"
        raise CsvParseError(
            f"{path}: {what} at row {bad}, column {label_column!r}", row=bad, column=label_column
        )
    values, labels = np.unique(labels_f.astype(np.int64), return_inverse=True)
    feature_names = [h for h in header if h != label_column]
    ds = Dataset(np.delete(table, label_pos, axis=1), labels, feature_names, len(values))
    hist = np.bincount(ds.labels, minlength=ds.class_count)
    log.info("loaded %s: n=%d d=%d classes=%s", path, ds.n, ds.d, hist.tolist())
    return ds


def _has_separator_chars(path) -> bool:
    """True if the file holds a byte in \\x1c-\\x1f (see load_csv)."""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            if any(ch in chunk for ch in (b"\x1c", b"\x1d", b"\x1e", b"\x1f")):
                return True
    return False


def _bulk_parse(fh) -> np.ndarray | None:
    """The remaining rows of fh as one float64 table, or None if numpy rejects them."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            return np.loadtxt(
                fh, delimiter=",", quotechar='"', comments=None, dtype=np.float64, ndmin=2
            )
    except ValueError:
        return None


def _records(fh):
    """(csv record number, cells) of every non-blank data record; the header is record 0."""
    reader = csv.reader(fh)
    next(reader)
    for row_num, cells in enumerate(reader, start=1):
        if cells and any(c.strip() for c in cells):
            yield row_num, cells


def _parse_rows(path, header: list[str]) -> np.ndarray:
    """Row-by-row parse; skips blank records and raises the exact CsvParseError."""
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for row_num, cells in _records(fh):
            if len(cells) != len(header):
                raise CsvParseError(
                    f"{path}: row {row_num} has {len(cells)} cells, expected {len(header)}",
                    row=row_num,
                )
            parsed = []
            for pos, cell in enumerate(cells):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise CsvParseError(
                        f"{path}: non-numeric cell {cell.strip()!r} at row {row_num}, "
                        f"column {header[pos]!r}",
                        row=row_num,
                        column=header[pos],
                    ) from None
            rows.append(parsed)
    return np.asarray(rows, dtype=np.float64)


def save_csv(path, ds: Dataset, label_column: str = PIMA_LABEL) -> None:
    """Write the dataset back out with shortest-round-trip float text.

    Each feature is ``repr`` of its float with a trailing ``.0`` dropped
    (``36.4``, ``1e-05``, ``2``, ``-0``), so ``float()`` of every cell
    gives the value's exact bits back.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.feature_names + [label_column])
        for row, label in zip(ds.features, ds.labels):
            writer.writerow([_float_text(v) for v in row.tolist()] + [int(label)])


def _float_text(v: float) -> str:
    text = repr(v)
    return text[:-2] if text.endswith(".0") else text


# -- preprocessing ---------------------------------------------------------


@dataclass
class PreprocessStats:
    """Imputation and standardization constants fitted on one index set."""

    feature_names: list[str]
    impute_values: dict[str, float] = field(default_factory=dict)
    means: np.ndarray | None = None
    stds: np.ndarray | None = None

    def impute(self, features: np.ndarray) -> np.ndarray:
        """A float64 copy of ``features`` with each imputed column's zeros filled."""
        out = np.array(features, dtype=np.float64, copy=True)
        for name, fill in self.impute_values.items():
            col = out[:, self.feature_names.index(name)]
            col[col == 0.0] = fill
        return out

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (self.impute(features) - self.means) / self.stds


def fit_preprocess(
    features: np.ndarray,
    feature_names: list[str],
    fit_idx: np.ndarray,
) -> PreprocessStats:
    """Fit imputation medians and standardization moments on fit_idx rows.

    Imputation fill for a zero-inflated column is the median of its
    nonzero fitted-subset values; standardization moments are computed
    after imputation. Constant columns keep std 1 so they map to zero
    instead of dividing by zero. A non-finite value in a fitted row would
    make its column's constants, and so every row, NaN: it raises a
    ValueError naming the first such column.
    """
    X = np.asarray(features, dtype=np.float64)
    sub = X[np.asarray(fit_idx)]
    finite = np.isfinite(sub).all(axis=0)
    if not finite.all():
        name = feature_names[int(np.argmin(finite))]
        raise ValueError(f"column {name!r} holds a non-finite value in the rows preprocessing is fitted on")
    stats = PreprocessStats(feature_names=list(feature_names))
    for name in PIMA_ZERO_MISSING:
        if name not in feature_names:
            continue
        col = sub[:, feature_names.index(name)]
        nonzero = col[col != 0.0]
        if nonzero.size == 0:
            log.warning("column %s is all zeros in the fitted subset; filling with 0", name)
            stats.impute_values[name] = 0.0
        else:
            stats.impute_values[name] = _median(nonzero)
    work = stats.impute(sub)
    stats.means = work.mean(axis=0)
    stds = work.std(axis=0)
    stds[stds == 0.0] = 1.0
    stats.stds = stds
    return stats


# -- splitting and subsampling ---------------------------------------------


# Sort-based stand-ins for np.unique and np.median, which import numpy.ma
# (about 12 ms per process) to check for masked input.


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of ``values``, as ``np.unique`` gives them for labels."""
    v = np.sort(values, axis=None)
    keep = np.empty(v.size, dtype=bool)
    keep[:1] = True
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return v[keep]


def _median(values: np.ndarray) -> float:
    """``float(np.median(values))`` of a nonempty 1-D float array, bit for bit.

    NaN input gives NaN; the middle values are summed and divided as
    ``np.mean`` does, so a -0.0 median comes out +0.0 as numpy's does.
    """
    v = np.sort(values)
    if np.isnan(v[-1]):
        return float("nan")
    mid = v[(v.size - 1) // 2 : v.size // 2 + 1]
    return float(mid.sum() / mid.size)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def stratified_split(labels: np.ndarray, eval_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-class 80/20 partition; eval takes ceil(eval_fraction * n_c).

    Ceiling per class keeps every class represented on the eval side
    (6/4 two-class toy: eval gets 2 + 1). Returned index arrays are
    sorted; the eval set depends only on (labels, seed), never on any
    later fraction subsampling.
    """
    labels = np.asarray(labels)
    if not 0.0 < eval_fraction < 1.0:
        raise ValueError("eval_fraction must be in (0, 1)")
    rng = Rng(seed).spawn("split")
    train_parts, eval_parts = [], []
    for c in _distinct(labels):
        idx = np.flatnonzero(labels == c)
        if idx.size < 2:
            raise ValueError(f"class {int(c)} has {idx.size} samples; need at least 2")
        k = math.ceil(eval_fraction * idx.size)
        if k >= idx.size:
            raise ValueError(f"class {int(c)} too small for eval_fraction {eval_fraction}")
        perm = rng.spawn("class", str(int(c))).permutation(idx.size)
        eval_parts.append(idx[perm[:k]])
        train_parts.append(idx[perm[k:]])
    train = np.sort(np.concatenate(train_parts))
    evals = np.sort(np.concatenate(eval_parts))
    return train, evals


def _largest_remainder(class_sizes: np.ndarray, total: int) -> np.ndarray:
    quotas = total * class_sizes / class_sizes.sum()
    counts = np.floor(quotas).astype(np.int64)
    remainders = quotas - counts
    short = total - int(counts.sum())
    # Stable tie-break: larger remainder first, then lower class index.
    order = sorted(range(len(class_sizes)), key=lambda c: (-remainders[c], c))
    for c in order[:short]:
        counts[c] += 1
    return np.minimum(counts, class_sizes)


def subsample_fraction(train_indices: np.ndarray, labels: np.ndarray, f: float, seed: int, rounding: str) -> np.ndarray:
    """Stratified fraction-f subset of the training indices, nested per seed.

    Per-class membership is a prefix of a permutation derived only from
    (seed, class), so subsets at increasing f nest whenever the class
    counts are monotone. ``rounding="ceil"`` is used by sweep plans for
    their smallest fraction so the tiniest subset is never rounded down.
    """
    train_indices = np.asarray(train_indices)
    if not 0.0 < f <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if rounding not in ("round", "ceil"):
        raise ValueError(f"unknown rounding mode {rounding!r}")
    if f == 1.0:
        return np.sort(train_indices)
    labels = np.asarray(labels)
    sub_labels = labels[train_indices]
    classes = _distinct(sub_labels)
    class_sizes = np.asarray([(sub_labels == c).sum() for c in classes])
    n = train_indices.size
    total = math.ceil(f * n) if rounding == "ceil" else _round_half_up(f * n)
    counts = _largest_remainder(class_sizes, total)
    if np.any(counts == 0):
        starved = int(classes[np.flatnonzero(counts == 0)[0]])
        raise ValueError(f"fraction {f} leaves class {starved} with 0 samples")

    rng = Rng(seed).spawn("fraction")
    picked = []
    for c, k in zip(classes, counts):
        pool = np.sort(train_indices[sub_labels == c])
        perm = rng.spawn("class", str(int(c))).permutation(pool.size)
        picked.append(pool[perm[:k]])
    return np.sort(np.concatenate(picked))


# -- synthetic datasets ----------------------------------------------------


_BLOB_RADIUS = 4.0  # cluster centers lie on this circle in the first two dimensions
_BLOB_NOISE = 1.0  # per-coordinate std of each cluster


def make_blobs(n_samples: int, n_classes: int, dim: int, seed: int) -> Dataset:
    """Well-separated Gaussian clusters on a circle; a sanity-check task."""
    if dim < 2 or n_classes < 2 or n_samples < n_classes:
        raise ValueError("need dim >= 2, n_classes >= 2 and n_samples >= n_classes")
    rng = Rng(seed).spawn("blobs")
    centers = np.zeros((n_classes, dim))
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    centers[:, 0] = _BLOB_RADIUS * np.cos(angles)
    centers[:, 1] = _BLOB_RADIUS * np.sin(angles)

    base = n_samples // n_classes
    counts = [base + (1 if c < n_samples % n_classes else 0) for c in range(n_classes)]
    X = np.concatenate(
        [centers[c] + _BLOB_NOISE * rng.standard_normal(counts[c], dim) for c in range(n_classes)]
    )
    y = np.concatenate([np.full(counts[c], c, dtype=np.int64) for c in range(n_classes)])
    order = rng.permutation(n_samples)
    names = [f"x{j}" for j in range(dim)]
    return Dataset(X[order], y[order], names, n_classes)


# Frozen constants of the surrogate diabetes-screening table. Marginals
# follow the published summary statistics of the classic 768-row
# dataset (nonzero-reading moments for the zero-inflated columns); the
# outcome is a logistic rule over standardized features whose scale
# _PIMA_KAPPA was calibrated once so trained-model accuracy lands in
# the high-70s-to-high-80s band, then frozen.
_PIMA_N = 768
_PIMA_POSITIVE_RATE = 0.349
_PIMA_ZERO_COUNTS = {
    "glucose": 5,
    "blood_pressure": 35,
    "skin_thickness": 227,
    "insulin": 374,
    "bmi": 11,
}
_PIMA_KAPPA = 2.4
_PIMA_LOGIT_WEIGHTS = {
    "glucose": 1.05,
    "bmi": 0.70,
    "pregnancies": 0.38,
    "pedigree": 0.30,
    "age": 0.35,
    "blood_pressure": -0.18,
    "insulin": -0.10,
    "skin_thickness": 0.05,
}
_PIMA_INTERACTION = 0.15  # glucose x bmi synergy
# (mean, std) of each feature's generating marginal, used both to build
# the columns and to standardize them inside the labeling rule.
_PIMA_MARGINALS = {
    "pregnancies": (3.8, 3.3),
    "glucose": (121.7, 30.5),
    "blood_pressure": (72.4, 12.4),
    "skin_thickness": (29.2, 10.5),
    "insulin": (155.5, 118.8),
    "bmi": (32.46, 6.92),
    "pedigree": (0.472, 0.331),
    "age": (33.2, 11.8),
}


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))


def _lognormal_params(mean: float, std: float) -> tuple[float, float]:
    sigma2 = math.log(1.0 + (std / mean) ** 2)
    return math.log(mean) - 0.5 * sigma2, math.sqrt(sigma2)


def make_pima_like(seed: int, n_samples: int = _PIMA_N) -> Dataset:
    """Deterministic surrogate with the diabetes-screening schema.

    Eight numeric features with realistic marginals, a few fixed
    cross-correlations, exact zero-inflation counts in the measurement
    columns (scaled with n_samples), and a Bernoulli outcome from a
    fixed logistic rule evaluated on the pre-zeroing feature values.
    """
    rng = Rng(seed).spawn("pima-like")
    u = {name: rng.spawn("latent", name).standard_normal(n_samples) for name in PIMA_FEATURES}
    # Fixed mild correlations: age drives pregnancies, BMI drives skin
    # fold, glucose drives insulin.
    mix = [("age", "pregnancies", 0.5), ("bmi", "skin_thickness", 0.4), ("glucose", "insulin", 0.35)]
    for src, dst, rho in mix:
        u[dst] = rho * u[src] + math.sqrt(1.0 - rho * rho) * u[dst]

    cols: dict[str, np.ndarray] = {}
    m, s = _PIMA_MARGINALS["glucose"]
    cols["glucose"] = np.clip(np.round(m + s * u["glucose"]), 44, 199)
    m, s = _PIMA_MARGINALS["blood_pressure"]
    cols["blood_pressure"] = np.clip(np.round(m + s * u["blood_pressure"]), 24, 122)
    m, s = _PIMA_MARGINALS["skin_thickness"]
    cols["skin_thickness"] = np.clip(np.round(m + s * u["skin_thickness"]), 7, 99)
    m, s = _PIMA_MARGINALS["bmi"]
    cols["bmi"] = np.clip(np.round(m + s * u["bmi"], 1), 18.2, 67.1)
    mu, sig = _lognormal_params(*_PIMA_MARGINALS["insulin"])
    cols["insulin"] = np.clip(np.round(np.exp(mu + sig * u["insulin"])), 14, 846)
    mu, sig = _lognormal_params(*_PIMA_MARGINALS["pedigree"])
    cols["pedigree"] = np.clip(np.round(np.exp(mu + sig * u["pedigree"]), 3), 0.078, 2.42)
    mu, sig = _lognormal_params(13.2, 11.8)
    cols["age"] = np.clip(20 + np.round(np.exp(mu + sig * u["age"])), 21, 81)
    mu, sig = _lognormal_params(4.8, 3.3)
    cols["pregnancies"] = np.clip(np.round(np.exp(mu + sig * u["pregnancies"])) - 1, 0, 17)

    # Label rule sees the true (pre-zeroing) standardized values.
    z = np.zeros(n_samples)
    std_cols = {}
    for name in PIMA_FEATURES:
        m, s = _PIMA_MARGINALS[name]
        std_cols[name] = (cols[name] - m) / s
        z += _PIMA_LOGIT_WEIGHTS[name] * std_cols[name]
    z += _PIMA_INTERACTION * std_cols["glucose"] * std_cols["bmi"]
    z *= _PIMA_KAPPA
    # Bisect the intercept so the expected positive rate hits the target.
    lo, hi = -20.0, 20.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(_sigmoid(z + mid).mean()) < _PIMA_POSITIVE_RATE:
            lo = mid
        else:
            hi = mid
    p = _sigmoid(z + 0.5 * (lo + hi))
    y = (rng.spawn("labels").uniform(n_samples) < p).astype(np.int64)

    # Impose missing readings (zeros) after labeling: missingness is a
    # property of measurement, not of the underlying biology.
    for name, count in _PIMA_ZERO_COUNTS.items():
        k = _round_half_up(count * n_samples / _PIMA_N)
        hit = rng.spawn("zeros", name).permutation(n_samples)[:k]
        cols[name][hit] = 0.0

    X = np.column_stack([cols[name] for name in PIMA_FEATURES])
    return Dataset(X, y, list(PIMA_FEATURES), 2)
