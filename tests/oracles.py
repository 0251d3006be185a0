"""Per-character reference sums: the independent routes the tests hold the
library's arrays over the dual index j to.

Each function evaluates one character chi_j, as a `Character`, by direct
summation over its values, except packet_twist_sum, which sums the
packets' twists one at a time, and the three prime-sum routes at the end,
mask_sieve, full_array_sums and list_records, which the segmented sieve,
the blocked prime-sum pass and its records are held to bit for bit.  The
direct sums run over the units in ascending order, not in the library's
order a = g**t.  None of them is on a command's path.
"""

import math

import numpy as np

from collspec.characters import Character, gauss_sum
from collspec.collision import CollisionTable, diagonal_set
from collspec.errors import VerificationError, WrongModulus
from collspec.prime_sums import _sums
from collspec.spectrum import odd_l_values, spectrum_of
from collspec.unit_group import Level, build_unit_group


class NotPrimitiveOdd(VerificationError):
    """A primitive odd character is required here."""


def conjugate(chi: Character) -> Character:
    """conj(chi_j) = chi_{-j}."""
    return Character(chi.group, -chi.index % chi.group.phi)


def ascending(group) -> np.ndarray:
    """The permutation that sorts group.units, for sums over ascending a."""
    return np.argsort(group.units)


def fourier_coefficient(table: CollisionTable, chi: Character) -> complex:
    """s0_hat(chi) = (1/phi) sum_a S0(a) conj(chi(a))."""
    if chi.group.q != table.m:
        raise WrongModulus("table and character moduli differ")
    order = ascending(chi.group)
    vals = np.conj(chi.values_on_units()[order])
    return complex(np.dot(table.S0_num[order] / table.b, vals)) / chi.group.phi


def bernoulli_b1(chi: Character) -> complex:
    """First generalized Bernoulli number of the conjugate character.

    (1/q) * sum_a a * conj(chi(a)) over a in [1, q).  Works on either
    modulus.
    """
    order = ascending(chi.group)
    weights = chi.group.units[order].astype(float)
    return complex(np.dot(weights, np.conj(chi.values_on_units()[order]))) / chi.group.q


def diagonal_sum(chi: Character) -> complex:
    """S_G(chi) = sum_{n in G} [conj(chi)(n+1) - conj(chi)(n)]."""
    chibar = conjugate(chi)
    total = 0j
    for n in diagonal_set(chi.group.b):
        total += chibar.value(n + 1) - chibar.value(n)
    return total


def short_partial_sum(chi: Character) -> complex:
    """P(chi) = sum_{k=1}^{b-1} conj(chi)(k), the short initial segment."""
    chibar = conjugate(chi)
    return sum((chibar.value(k) for k in range(1, chi.group.b)), 0j)


def _require_primitive_odd(chi: Character) -> None:
    odd = chi.index % 2 == 1
    if chi.group.q == chi.group.b:
        if not odd:
            raise NotPrimitiveOdd(f"chi_{chi.index} mod {chi.group.q} is even")
    elif not (odd and chi.index % chi.group.b != 0):
        raise NotPrimitiveOdd(
            f"chi_{chi.index} mod {chi.group.q} is not primitive odd"
        )


def l_value_closed(chi: Character) -> complex:
    """L(1, chi) = i pi tau(chi) B1(conj chi) / q for odd primitive chi."""
    _require_primitive_odd(chi)
    return 1j * math.pi * gauss_sum(chi) * bernoulli_b1(chi) / chi.group.q


def is_primitive_by_subgroup(chi: Character) -> bool:
    """Primitivity mod b**2 as chi nontrivial on {1 + t*b}.  Exact, via indices;
    the library's test is the index rule b does not divide j."""
    g = chi.group
    if g.q == g.b:
        raise WrongModulus("primitivity test is defined here only mod b**2")
    t = g.dlog[1 + np.arange(1, g.b) * g.b]
    return bool(np.any(chi.index * t % g.phi != 0))


def packet_twist_sum(b: int, js: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L(1, conj chi_j), Delta(chi_j)) for odd j mod b**2 by the stated sum

        Delta(chi) = (i / phi(b)) sum_{xi even, xi != xi_0 mod b} tau(conj xi) L(1, xi conj chi),

    one twist at a time.  The twist of conj(chi_j) by xi_k mod b is
    chi_{(b*k - j) mod phi}; for imprimitive j = b*k0 it is induced by
    chi_{(k - k0) mod (b-1)} mod b, and conj(chi_j) by chi_{-k0}, both
    indexed against the mod-b group on the reduced root.  tau is summed
    directly; the L-values are the library's L1 arrays mod b**2 and mod b.
    """
    spec = spectrum_of(b)
    mod_b = build_unit_group(b, Level.MOD_B)
    if mod_b.g != spec.group.g % b:
        raise ValueError(f"root {spec.group.g} mod {b * b} does not reduce to {mod_b.g} mod {b}")
    phi, phi_b = spec.group.phi, b - 1
    l1_b = odd_l_values(mod_b)
    primitive, k0 = js % b != 0, js // b
    l1 = np.where(primitive, spec.L1[-js % phi], l1_b[-k0 % phi_b])
    total = np.zeros(len(js), dtype=complex)
    for k in range(2, b - 1, 2):  # the even nontrivial xi_k mod b
        twisted = np.where(primitive, spec.L1[(b * k - js) % phi], l1_b[(k - k0) % phi_b])
        total += gauss_sum(Character(mod_b, -k % phi_b)) * twisted
    return l1, 1j / (b - 1) * total


def mask_sieve(limit: int) -> np.ndarray:
    """The primes up to limit, int64: one byte-mask over every odd number up to
    limit at once, the unsegmented sieve of Eratosthenes."""
    odd = np.ones((limit + 1) // 2, dtype=bool)  # odd[i] stands for 2*i + 1, odd[0] for 2
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = 2 * np.flatnonzero(odd) + 1
    primes[0] = 2
    return primes


def full_array_sums(spec, s_values, cutoff: int, primes: np.ndarray):
    """[(F0(s), P(s, chi_j) for every j)] per s, by full-length arrays over the
    primes m < p <= cutoff: int64 residues and dlogs, one ln p per base, and per
    s the terms S0/b * p^-s and the weights copied into class order whole."""
    group, table = spec.group, spec.table
    m = group.q
    start, stop = np.searchsorted(primes, [m, cutoff], side="right")
    p_arr = primes[start:stop]
    residues = p_arr % m
    keys = group.dlog[residues].astype(np.min_scalar_type(group.phi - 1))
    order = np.argsort(keys, kind="stable")
    bounds = [0, *np.cumsum(np.bincount(keys, minlength=group.phi)).tolist()]
    s0_num = np.zeros(m, dtype=np.min_scalar_type(-1 - np.abs(table.S0_num).max()))
    s0_num[table.units] = table.S0_num
    s0_num = s0_num[residues]
    log_p = p_arr.astype(float)
    np.log(log_p, out=log_p)
    out = []
    for s in s_values:
        weights = -s * log_p
        np.exp(weights, out=weights)
        terms = s0_num / float(table.b)
        terms *= weights
        by_class = weights[order]
        c = np.array([by_class[lo:hi].sum() for lo, hi in zip(bounds[:-1], bounds[1:])])
        out.append((float(terms.sum()), np.fft.ifft(c, norm="forward")))
    return out


def list_records(spec, s_values, cutoff: int, primes: np.ndarray) -> list[dict]:
    """prime_sums._base_records by Python scalars: s_hat, B1, S_G and each P
    as lists of complex, the family as a set of indices, every product by
    complex *, every in-order sum by sum(..., 0j)."""
    s_hat, b1, s_g = spec.s_hat.tolist(), spec.B1.tolist(), spec.S_G.tolist()
    js = np.flatnonzero(spec.odd & spec.primitive).tolist()
    prim_odd = set(js)
    records = []
    for s, (f_val, p_val) in zip(s_values, _sums(spec, s_values, cutoff, primes)):
        p_val = p_val.tolist()
        terms = [h * p for h, p in zip(s_hat, p_val)]
        expansion = sum((terms[j] for j in js), 0j)
        dropped = sum((t for j, t in enumerate(terms) if j not in prim_odd), 0j)
        bound_terms = (abs(b1[j]) * abs(s_g[j]) * abs(p_val[j]) for j in js)
        bound_rhs = math.fsum(bound_terms) / spec.group.phi
        bound_lhs = abs(f_val)
        records.append({"b": spec.b, "s": s, "N": cutoff, "F": f_val,
                        "expansion_residual": abs(f_val - expansion),
                        "restriction_residual": abs(dropped),
                        "bound_lhs": bound_lhs, "bound_rhs": bound_rhs,
                        "margin": bound_rhs - bound_lhs})
    return records
