"""Verification toolkit for the collision invariant on (Z/b^2 Z)* and its
character spectrum: closed-form Fourier coefficients, L(1) values, packet
statistics, and truncated sums over primes.

Everything exact stays exact (int64 arrays, rationals as integer numerators
over the common denominator b) until a single, explicit rational-to-float
step; every floating-point identity carries a residual that a caller can
gate against a tolerance.
"""

from .collision import (
    CollisionTable,
    DiagonalSet,
    collision_invariant,
    diagonal_set,
)
from .characters import (
    Character,
    Family,
    GroupPair,
    build_group_pair,
    companion_mod_b,
    enumerate_family,
    gauss_sum,
    lift_and_twist,
)
from .errors import (
    BadDiscriminant,
    CutoffBelowModulus,
    IncompatibleGroups,
    LimitTooLarge,
    NotOddPrime,
    NotPrimitiveOdd,
    PrincipalCharacter,
    VerificationError,
    WrongModulus,
)
from .lvalues import (
    LValue,
    class_number_check,
    l_value_closed,
    l_value_series,
    reduced_forms,
    verify_encoding,
)
from .packet import (
    PacketRecord,
    PacketStats,
    normalization_probe,
    packet_delta,
    packet_records,
    packet_stats,
)
from .prime_sums import cross_moment_bound, verify_expansion
from .spectrum import (
    SpectrumRecord,
    bernoulli_b1,
    diagonal_sum,
    fourier_coefficient,
    short_partial_sum,
    verify_base5_identities,
    verify_decomposition,
    verify_moment,
    verify_proof_steps,
)
from .unit_group import Level, UnitGroup, build_unit_group, sieve_primes

__version__ = "0.1.0"

__all__ = [
    "BadDiscriminant",
    "Character",
    "CollisionTable",
    "CutoffBelowModulus",
    "DiagonalSet",
    "Family",
    "GroupPair",
    "IncompatibleGroups",
    "LValue",
    "Level",
    "LimitTooLarge",
    "NotOddPrime",
    "NotPrimitiveOdd",
    "PacketRecord",
    "PacketStats",
    "PrincipalCharacter",
    "SpectrumRecord",
    "UnitGroup",
    "VerificationError",
    "WrongModulus",
    "bernoulli_b1",
    "build_group_pair",
    "build_unit_group",
    "class_number_check",
    "collision_invariant",
    "companion_mod_b",
    "cross_moment_bound",
    "diagonal_set",
    "diagonal_sum",
    "enumerate_family",
    "fourier_coefficient",
    "gauss_sum",
    "l_value_closed",
    "l_value_series",
    "lift_and_twist",
    "normalization_probe",
    "packet_delta",
    "packet_records",
    "packet_stats",
    "reduced_forms",
    "short_partial_sum",
    "sieve_primes",
    "verify_base5_identities",
    "verify_decomposition",
    "verify_encoding",
    "verify_expansion",
    "verify_moment",
    "verify_proof_steps",
]
