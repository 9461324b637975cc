"""Shared oracles for the test suite.

The finite-difference helpers deliberately avoid the package's own tape:
they perturb raw numpy arrays in place and re-evaluate a plain forward
function, so gradient tests compare two independent computations.
"""

import numpy as np


def rel_err(analytic, numeric) -> float:
    """Max elementwise |a - n| / max(1, |a|, |n|)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    assert a.shape == n.shape, f"shape mismatch {a.shape} vs {n.shape}"
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def fd_gradient(scalar_fn, arr: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar_fn() w.r.t. arr, elementwise.

    Mutates arr in place during probing and restores every entry.
    """
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = scalar_fn()
        flat[i] = orig - step
        fm = scalar_fn()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return grad


def make_net(layers, head_weights, head_bias, dropout_rate=0.0):
    """A Net holding the given arrays. ``layers`` lists ``(W, b, coeffs)``
    per layer, ``coeffs`` a (4, width) block of rows c0..c3 or None for ReLU."""
    from polygrad.polynet import Net

    activation = "relu" if layers[0][2] is None else "poly"
    widths = [np.shape(W)[0] for W, _, _ in layers]
    net = Net(activation, np.shape(layers[0][0])[1], widths, np.shape(head_weights)[0], dropout_rate)
    for layer, (W, b, coeffs) in zip(net.layers, layers):
        layer.weights[...] = W
        layer.bias[...] = b
        if coeffs is not None:
            layer.coeffs[...] = coeffs
    net.head_weights[...] = head_weights
    net.head_bias[...] = head_bias
    return net


def identity_coeffs(width: int) -> np.ndarray:
    """The (4, width) coefficient block of phi(z) = z."""
    return np.repeat([[0.0], [1.0], [0.0], [0.0]], width, axis=1)


def curved(net):
    """``net`` with its cubic curvature rows c2, c3 scaled from ``polynet.COEFF_NOISE``
    to 0.05, so finite-difference gates exercise the curvature terms. A ReLU net is
    returned unchanged."""
    from polygrad.polynet import COEFF_NOISE

    for layer in net.layers:
        if layer.coeffs is not None:
            layer.coeffs[2:] *= 0.05 / COEFF_NOISE
    return net
