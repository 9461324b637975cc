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
from .polynet import ActivationCoeffs, Layer, Net

__all__ = ["save_checkpoint", "load_checkpoint", "checkpoint_bytes", "CheckpointBundle"]

FORMAT_VERSION = 1


def _f(x: float) -> str:
    return format(float(x), ".17g")


def _encode_array(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": [_f(v) for v in np.asarray(arr).ravel()]}


def _decode_array(obj: dict) -> np.ndarray:
    arr = np.asarray([float(s) for s in obj["data"]], dtype=np.float64)
    return arr.reshape(obj["shape"])


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
    """Read a checkpoint file; a missing field is a ``ConfigError`` naming it."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        return _bundle_from_dict(obj, path)
    except KeyError as err:
        key = err.args[0]
        raise ConfigError(f"{path}: checkpoint has no field {key!r}", key=key) from None


def _bundle_from_dict(obj: dict, path) -> CheckpointBundle:
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint format_version {version!r}")
    kind = obj["kind"]
    if kind not in ("poly", "relu"):
        raise ConfigError(f"{path}: unknown model kind {kind!r}")
    params = {name: _decode_array(spec) for name, spec in obj["params"].items()}
    widths = obj["widths"]

    def coeffs(i: int) -> ActivationCoeffs | None:
        if f"layer{i}.c0" not in params:
            return None
        return ActivationCoeffs(*(params[f"layer{i}.c{k}"] for k in range(4)))

    layers = [
        Layer(params[f"layer{i}.W"], params[f"layer{i}.b"], coeffs(i)) for i in range(len(widths))
    ]
    net = Net(layers, params["head.W"], params["head.b"], float(obj.get("dropout_rate", 0.0)))
    if net.activation_kind != kind:
        raise ShapeError(f"{path}: parameters describe a {net.activation_kind} net, kind is {kind!r}")
    if net.input_dim != obj["input_dim"] or net.widths != widths:
        raise ShapeError(f"{path}: stored shapes disagree with parameter arrays")

    preprocess = None
    if "preprocess" in obj:
        pp = obj["preprocess"]
        preprocess = PreprocessStats(
            feature_names=list(pp["feature_names"]),
            impute_values={k: float(v) for k, v in pp["impute_values"].items()},
            means=_decode_array(pp["means"]),
            stds=_decode_array(pp["stds"]),
        )
    return CheckpointBundle(net, obj.get("provenance", {}), preprocess)
