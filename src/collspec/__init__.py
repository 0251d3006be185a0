"""Verification toolkit for the collision invariant on (Z/b^2 Z)* and its
character spectrum: closed-form Fourier coefficients, L(1) values, packet
statistics, and truncated sums over primes.

Everything exact stays exact (int64 arrays, rationals as integer numerators
over the common denominator b) until a single, explicit rational-to-float
step; every floating-point identity carries a residual that a caller can
gate against a tolerance.
"""

__version__ = "0.1.0"
