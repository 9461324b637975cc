"""Checkpoint files: JSON with every float as 17-significant-digit text.

Decimal text round-trips IEEE doubles exactly and, unlike binary
blobs, diffs cleanly and is platform-independent; with sorted keys and
fixed indentation, save -> load -> save is byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .data import PreprocessStats
from .errors import ConfigError, ShapeError
from .polynet import Net, param_shapes

__all__ = ["save_checkpoint", "load_checkpoint", "checkpoint_bytes", "CheckpointBundle"]

FORMAT_VERSION = 1


def _f(x: float) -> str:
    return format(float(x), ".17g")


def _encode_array(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": [_f(v) for v in np.asarray(arr).ravel()]}


def _typed(obj: dict, key: str, kind: type, path):
    """``obj[key]`` if it is a ``kind`` (dict or list); a missing key raises KeyError."""
    value = obj[key]
    if not isinstance(value, kind):
        expected = "object" if kind is dict else "array"
        raise ConfigError(
            f"{path}: checkpoint field {key!r} must be a JSON {expected}, got {type(value).__name__}",
            key=key,
        )
    return value


def _float(value, key: str, path) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: checkpoint field {key!r} holds a non-number {value!r}", key=key) from None


def _decode_array(obj: dict, key: str, path) -> np.ndarray:
    """The array stored as ``{"shape": [...], "data": [...]}`` under ``obj[key]``."""
    spec = _typed(obj, key, dict, path)
    data, shape = _typed(spec, "data", list, path), _typed(spec, "shape", list, path)
    try:
        arr = np.asarray([float(s) for s in data], dtype=np.float64)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: array {key!r} holds a non-number in field 'data'", key="data") from None
    try:
        return arr.reshape(shape)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{path}: array {key!r} of {arr.size} values does not fit field 'shape' {shape}", key="shape"
        ) from None


class CheckpointBundle:
    """A loaded checkpoint: the network plus its training provenance."""

    def __init__(self, net, provenance: dict, preprocess: PreprocessStats | None):
        self.net = net
        self.provenance = provenance
        self.preprocess = preprocess


def _checkpoint_dict(net, provenance: dict | None, preprocess: PreprocessStats | None) -> dict:
    obj = {
        "format_version": FORMAT_VERSION,
        "kind": net.activation_kind,
        "input_dim": net.input_dim,
        "num_classes": net.num_classes,
        "widths": net.widths,
        "params": {name: _encode_array(arr) for name, arr in net.parameters().items()},
        "provenance": dict(provenance or {}),
    }
    # Cubic nets without dropout have never stored the field.
    if net.activation_kind == "relu" or net.dropout_rate:
        obj["dropout_rate"] = _f(net.dropout_rate)
    if preprocess is not None:
        obj["preprocess"] = {
            "feature_names": list(preprocess.feature_names),
            "impute_values": {k: _f(v) for k, v in sorted(preprocess.impute_values.items())},
            "means": _encode_array(preprocess.means),
            "stds": _encode_array(preprocess.stds),
        }
    return obj


def checkpoint_bytes(net, provenance=None, preprocess=None) -> bytes:
    text = json.dumps(_checkpoint_dict(net, provenance, preprocess), sort_keys=True, indent=2)
    return (text + "\n").encode("utf-8")


def save_checkpoint(path, net, provenance=None, preprocess=None) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(net, provenance, preprocess))


def load_checkpoint(path) -> CheckpointBundle:
    """Read a checkpoint file; a missing or mistyped field is a ``ConfigError`` naming it."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: checkpoint is not a JSON object")
    try:
        return _bundle_from_dict(obj, path)
    except KeyError as err:
        key = err.args[0]
        raise ConfigError(f"{path}: checkpoint has no field {key!r}", key=key) from None


def _dim(value, key: str, path) -> int:
    """``value`` if it is a positive integer, else a ConfigError naming ``key``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{path}: checkpoint field {key!r} must hold positive integers, got {value!r}", key=key)
    return value


def _bundle_from_dict(obj: dict, path) -> CheckpointBundle:
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint format_version {version!r}")
    kind = obj["kind"]
    if kind not in ("poly", "relu"):
        raise ConfigError(f"{path}: unknown model kind {kind!r}")
    stored = _typed(obj, "params", dict, path)
    widths = [_dim(w, "widths", path) for w in _typed(obj, "widths", list, path)]
    if not widths:
        raise ConfigError(f"{path}: checkpoint field 'widths' is empty", key="widths")
    input_dim = _dim(obj["input_dim"], "input_dim", path)
    num_classes = _dim(obj["num_classes"], "num_classes", path)
    dropout_rate = _float(obj.get("dropout_rate", 0.0), "dropout_rate", path)
    other = "relu" if kind == "poly" else "poly"
    if stored.keys() == param_shapes(other, input_dim, widths, num_classes).keys():
        raise ShapeError(f"{path}: parameters describe a {other} net, kind is {kind!r}")

    # The net the shape fields describe; every stored array must fill one of its views.
    net = Net(kind, input_dim, widths, num_classes, dropout_rate)
    params = net.parameters()
    unknown = sorted(stored.keys() - params.keys())
    if unknown:
        raise ConfigError(
            f"{path}: checkpoint field 'params' holds {unknown[0]!r}, which a {kind} net "
            f"of widths {widths} does not have",
            key=unknown[0],
        )
    for name, view in params.items():
        arr = _decode_array(stored, name, path)  # a missing name is a KeyError
        if arr.shape != view.shape:
            raise ShapeError(
                f"{path}: parameter {name!r} of shape {arr.shape} disagrees with the shape "
                f"{view.shape} that input_dim, widths and num_classes give"
            )
        view[...] = arr

    preprocess = None
    if "preprocess" in obj:
        pp = _typed(obj, "preprocess", dict, path)
        preprocess = PreprocessStats(
            feature_names=list(_typed(pp, "feature_names", list, path)),
            impute_values={k: _float(v, k, path) for k, v in _typed(pp, "impute_values", dict, path).items()},
            means=_decode_array(pp, "means", path),
            stds=_decode_array(pp, "stds", path),
        )
    provenance = _typed(obj, "provenance", dict, path) if "provenance" in obj else {}
    return CheckpointBundle(net, provenance, preprocess)
