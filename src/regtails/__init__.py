"""Tail-probability verification for continuous-time least-squares regression.

The package simulates regression observations X(t) = a(t, theta) + eps(t) with
strictly sub-Gaussian noise, fits the least-squares estimator on [0, T],
evaluates the closed-form exponential tail envelopes for the normalized
deviation, and tests the empirical exceedance probabilities against them.

Names are imported from their modules (``regtails.harness``, ``regtails.bounds``,
...); the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
