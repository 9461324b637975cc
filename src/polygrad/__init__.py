"""Learnable cubic-activation networks with analytic input-Jacobians.

Core pieces: a dual-stream forward pass that carries per-sample
input-Jacobians alongside activations, a Jacobian-norm training
penalty with exact tape gradients, matched ReLU baselines, the
gradient tail-ratio diagnostic with paired statistical tests, a
tabular data protocol, and a resumable sweep harness.

The package root re-exports nothing: import every name from its module.
"""
