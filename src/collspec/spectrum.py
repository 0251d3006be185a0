"""Character spectrum of the centered collision invariant.

The transform coefficient of the centered invariant S0 at a character
chi mod m = b**2 is

    s0_hat(chi) = (1/phi) * sum_a S0(a) * conj(chi(a)),

and for primitive odd chi it factors exactly as

    s0_hat(chi) = -B1 * conj(S_G(chi)) / phi(m),

where B1 = (1/m) sum_a a*conj(chi(a)) is the first generalized
Bernoulli number of the conjugate character and

    S_G(chi) = sum_{n in G} [conj(chi)(n+1) - conj(chi)(n)]

is the diagonal character sum.  verify_proof_steps re-derives the
factorization one ingredient at a time:

  * the centering term and the fractional-part sum vanish coset by
    coset (every coset {a = k mod b} sums conj(chi) to zero when chi is
    primitive),
  * the floor term contributes exactly -b * B1,
  * each interior diagonal slice contributes [1 + chi(n) - chi(n+1)]*B1,
    via sum_a conj(chi(a)) * {n*a/m} = chi(n) * B1 (substitute
    a -> n^{-1} a, which permutes the units),
  * the endpoint slices n = 0 and n = m-1 contribute nothing.

Even characters and imprimitive odd characters are annihilated: the
first by coset constancy against a mean-zero table, the second because
S_G telescopes to psi(b) - psi(0) = 0 for the inducing character psi.

spectrum_of computes every character at once: s0_hat, B1 and tau are
one FFT each along the discrete-log axis a = g**t (float64, numpy's
pocketfft), and Spectrum.factorization_residual holds the residual of
the factorization for every chi.  Measured residuals on that route:
factorization 3.8e-16, 6.5e-16, 5.8e-16 and 9.0e-16 at b = 13, 43, 97
and 199; |s0_hat| on the vanishing families below 2.1e-16; |S_G| on
imprimitive odd chi, summed term by term, up to 2.1e-15 at b = 199.
The arrays agree with the direct per-character sums within 1.2e-13 at
b = 43.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .characters import Character, Family, _unit_phases, family_mask, roots_of_unity
from .collision import CollisionTable, DiagonalSet, collision_invariant, diagonal_set
from .errors import NotPrimitiveOdd, WrongModulus
from .unit_group import Level, UnitGroup, build_unit_group


# ====== per-character direct sums (single-character API and test oracles) ======


def fourier_coefficient(table: CollisionTable, chi: Character) -> complex:
    """s0_hat(chi) = (1/phi) sum_a S0(a) conj(chi(a))."""
    if chi.group.q != table.m:
        raise WrongModulus("table and character moduli differ")
    vals = np.conj(chi.values_on_units())
    return complex(np.dot(table.S0_num / table.b, vals)) / chi.group.phi


def bernoulli_b1(chi: Character) -> complex:
    """First generalized Bernoulli number of the conjugate character.

    (1/q) * sum_a a * conj(chi(a)) over a in [1, q).  Works on either
    modulus.
    """
    g = chi.group
    weights = g.units.astype(float)
    return complex(np.dot(weights, np.conj(chi.values_on_units()))) / g.q


def diagonal_sum(chi: Character, diag: DiagonalSet | None = None) -> complex:
    """S_G(chi) = sum_{n in G} [conj(chi)(n+1) - conj(chi)(n)]."""
    if diag is None:
        diag = diagonal_set(chi.group.b)
    chibar = chi.conjugate()
    total = 0j
    for n in diag.members:
        total += chibar.value(n + 1) - chibar.value(n)
    return total


def short_partial_sum(chi: Character) -> complex:
    """P(chi) = sum_{k=1}^{b-1} conj(chi)(k), the short initial segment."""
    chibar = chi.conjugate()
    return sum((chibar.value(k) for k in range(1, chi.group.b)), 0j)


def _require_primitive_odd(chi: Character) -> None:
    if chi.group.q == chi.group.b:
        if not chi.is_odd:
            raise NotPrimitiveOdd(f"chi_{chi.index} mod {chi.group.q} is even")
    elif not (chi.is_odd and chi.is_primitive()):
        raise NotPrimitiveOdd(
            f"chi_{chi.index} mod {chi.group.q} is not primitive odd"
        )


# ====== every character at once ======


def _by_dlog(group: UnitGroup, values: np.ndarray) -> np.ndarray:
    """Reorder values aligned with ascending units to the order a = g**t."""
    out = np.empty_like(values)
    out[group.dlog[group.units]] = values
    return out


def dual_transforms(group: UnitGroup) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B1, tau, L1) for every chi_j of group, indexed by j.

    With a = g**t, chi_j(a) = e(jt/phi), so each family is one length-phi
    transform along t: B1 = fft(g**t)/q, tau = phi*ifft(e(g**t/q)) and
    L1 = i*pi*tau*B1/q.  L1 is L(1, chi_j) where chi_j is odd and
    primitive; elsewhere it is only the value of the formula.
    """
    powers = _by_dlog(group, group.units.astype(float))
    b1 = np.fft.fft(powers) / group.q
    tau = group.phi * np.fft.ifft(_by_dlog(group, _unit_phases(group)))
    return b1, tau, 1j * np.pi * tau * b1 / group.q


def _conj_values(group: UnitGroup, n: int) -> np.ndarray:
    """conj(chi_j)(n) for every j: the value chi_{-j}.value(n) looks up."""
    t = group.dlog[n % group.q]
    if t < 0:
        return np.zeros(group.phi, dtype=complex)
    return roots_of_unity(group.phi)[-np.arange(group.phi) % group.phi * t % group.phi]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Every per-character family of one base, as arrays over j = 0..phi-1.

    Entry j belongs to chi_j mod b**2.  B1 is the Bernoulli number of
    the conjugate character; L1 = i*pi*tau*B1/q is L(1, chi_j) on the
    primitive odd entries.  odd and primitive are the parity and
    primitivity masks.
    """

    b: int
    group: UnitGroup
    table: CollisionTable
    s_hat: np.ndarray
    B1: np.ndarray
    S_G: np.ndarray
    P_short: np.ndarray
    tau: np.ndarray
    L1: np.ndarray
    odd: np.ndarray
    primitive: np.ndarray

    def indices(self, family: Family = Family.ALL) -> np.ndarray:
        """Ascending j of a family, as enumerate_family orders it."""
        return np.flatnonzero(family_mask(family, self.odd, self.primitive))

    @property
    def factorization_residual(self) -> np.ndarray:
        """|s0_hat + B1 * conj(S_G) / phi| for every j.

        The factorization is asserted on the primitive odd entries; on the
        vanishing families both terms vanish on their own.
        """
        return np.abs(self.s_hat + self.B1 * np.conj(self.S_G) / self.group.phi)

    def columns(self, family: Family, *names: str) -> list[tuple]:
        """(j, *fields) for each j of a family, as Python scalars."""
        idx = self.indices(family)
        return list(zip(idx.tolist(), *(getattr(self, n)[idx].tolist() for n in names)))


@lru_cache(maxsize=8)
def spectrum_of(b: int) -> Spectrum:
    """The spectrum of base b, built once per process."""
    group = build_unit_group(b, Level.MOD_B_SQUARED)
    table = collision_invariant(group)
    j = np.arange(group.phi)
    b1, tau, l1 = dual_transforms(group)
    # S_G and P_short have only 2b and b-1 terms.  Summed term by term in
    # the order of diagonal_sum and short_partial_sum they equal those sums
    # bit for bit; a transform would add rounding to the vanishing S_G.
    s_g = np.zeros(group.phi, dtype=complex)
    for n in diagonal_set(b).members:
        s_g += _conj_values(group, n + 1) - _conj_values(group, n)
    p_short = np.zeros(group.phi, dtype=complex)
    for k in range(1, b):
        p_short += _conj_values(group, k)
    s_hat = np.fft.fft(_by_dlog(group, table.S0_num / b)) / group.phi
    arrays = dict(
        s_hat=s_hat, B1=b1, S_G=s_g, P_short=p_short, tau=tau, L1=l1,
        odd=j % 2 == 1, primitive=j % b != 0,
    )
    for arr in arrays.values():
        arr.flags.writeable = False
    return Spectrum(b=b, group=group, table=table, **arrays)


# ====== step-by-step re-derivation ======


@dataclass(frozen=True)
class ProofStepReport:
    """Residuals of the individual steps behind the factorization.

    All fields are absolute values of float sums that are exactly zero
    in the underlying algebra, except floor/lemma/slice/total which
    compare two computed quantities.
    """

    b: int
    chi_index: int
    centering_residual: float  # sum_a mean(a mod b) conj(chi(a))
    constant_residual: float  # sum_a conj(chi(a))
    fractional_residual: float  # sum_a {a/b} conj(chi(a))
    floor_residual: float  # sum_a floor(a/b) conj(chi(a))  vs  b*B1
    lemma_residual: float  # max_n |sum_a conj(chi(a)){na/m} - chi(n)B1|
    slice_residual: float  # max interior n: sum_a d_n(a)conj(chi(a)) vs (1+chi(n)-chi(n+1))B1
    endpoint_bottom_residual: float  # max_a |d_0(a)|, exact integers
    endpoint_top_residual: float  # |sum_a d_{m-1}(a) conj(chi(a))|
    total_residual: float  # sum_a S(a) conj(chi(a))  vs  -B1*conj(S_G)

    @property
    def max_residual(self) -> float:
        return max(getattr(self, f.name) for f in fields(self) if f.name.endswith("_residual"))


@lru_cache(maxsize=4)
def _fractional_matrix(group: UnitGroup) -> np.ndarray:
    """{n*a/m} for all unit pairs (n, a); exact small rationals in float."""
    u = group.units
    mat = (u[:, None] * u[None, :] % group.q) / group.q
    mat.flags.writeable = False
    return mat


def verify_proof_steps(b: int, chi: Character) -> ProofStepReport:
    """Re-derive the factorization for one primitive odd chi, slice by slice."""
    _require_primitive_odd(chi)
    group = chi.group
    if group.q != group.b**2:
        raise WrongModulus("proof steps run on the mod-b**2 group")
    m, phi = group.q, group.phi
    table = spectrum_of(b).table
    units = group.units
    chibar = np.conj(chi.values_on_units())
    b1 = bernoulli_b1(chi)

    means = table.class_sums[units % b] / b
    centering = abs(complex(np.dot(means, chibar)))
    constant = abs(complex(chibar.sum()))
    fractional = abs(complex(np.dot((units % b) / b, chibar)))
    floor_test = abs(complex(np.dot((units // b).astype(float), chibar)) - b * b1)

    # Lemma: sum_a conj(chi(a)) {n a / m} = chi(n) B1, for every unit n.
    chi_vals = chi.values_on_units()
    lemma_vec = _fractional_matrix(group) @ chibar
    lemma = float(np.max(np.abs(lemma_vec - chi_vals * b1)))

    # Interior diagonal slices; endpoints handled separately below.
    diag = diagonal_set(b).members
    slice_worst = 0.0
    for n in diag:
        if n == 0 or n == m - 1:
            continue
        d_n = (n + 1) * units // m - n * units // m
        lhs = complex(np.dot(d_n.astype(float), chibar))
        rhs = (1 + chi.value(n) - chi.value(n + 1)) * b1
        slice_worst = max(slice_worst, abs(lhs - rhs))

    d_bottom = units // m  # d_0(a) = floor(a/m), identically zero here
    bottom = float(np.max(np.abs(d_bottom)))
    d_top = m * units // m - (m - 1) * units // m
    top = abs(complex(np.dot(d_top.astype(float), chibar)))

    s_g = diagonal_sum(chi)
    s_vals = table.S.astype(float)
    total = abs(complex(np.dot(s_vals, chibar)) + b1 * s_g.conjugate())

    return ProofStepReport(
        b=b,
        chi_index=chi.index,
        centering_residual=centering,
        constant_residual=constant,
        fractional_residual=fractional,
        floor_residual=floor_test,
        lemma_residual=lemma,
        slice_residual=slice_worst,
        endpoint_bottom_residual=bottom,
        endpoint_top_residual=top,
        total_residual=total,
    )


# ====== moment identity ======


@dataclass(frozen=True)
class MomentReport:
    """Both sides of the second-moment identity, plus the Parseval precheck."""

    b: int
    lhs: float  # sum over primitive odd chi of |L(1,chi)|^2 |S_G(chi)|^2
    rhs: float  # pi^2 phi(m) / b^2 * sum_a S0(a)^2
    rel_err: float
    parseval_lhs: float  # sum over all chi of |s0_hat|^2
    parseval_rhs: float  # (1/phi) sum_a S0(a)^2
    parseval_rel_err: float


def centered_square_sum(table: CollisionTable) -> Fraction:
    """sum_a S0(a)^2 as an exact rational; Python ints, since int64 would overflow."""
    return Fraction(sum(x * x for x in table.S0_num.tolist()), table.b**2)


def verify_moment(b: int) -> MomentReport:
    """Parseval for the full dual group, then the primitive-odd restriction."""
    spec = spectrum_of(b)
    phi = spec.group.phi
    square_sum = float(centered_square_sum(spec.table))

    parseval_lhs = math.fsum(abs(z) ** 2 for z in spec.s_hat.tolist())
    parseval_rhs = square_sum / phi
    parseval_rel = abs(parseval_lhs - parseval_rhs) / parseval_rhs

    lhs = math.fsum(
        abs(l_val) ** 2 * abs(s_g) ** 2
        for _, l_val, s_g in spec.columns(Family.PRIMITIVE_ODD, "L1", "S_G")
    )
    rhs = math.pi**2 * phi / b**2 * square_sum
    return MomentReport(
        b=b,
        lhs=lhs,
        rhs=rhs,
        rel_err=abs(lhs - rhs) / rhs,
        parseval_lhs=parseval_lhs,
        parseval_rhs=parseval_rhs,
        parseval_rel_err=parseval_rel,
    )


# ====== short-sum identities ======


@dataclass(frozen=True)
class ShortSumRow:
    chi_index: int
    S_G_abs: float
    P_short_abs: float
    doubling_residual: float  # | |S_G| - 2|P| |
    sqrt5_residual: float | None  # b = 5 only: | |P| - (sqrt5/2)|B1| |


@dataclass(frozen=True)
class FourthMomentCheck:
    """sum |L(1,chi)|^4 against (4 pi^4 / 625) sum_a S0(a)^2 at b = 5."""

    lhs: float
    rhs: float
    rel_err: float


@dataclass(frozen=True)
class ShortSumReport:
    b: int
    in_verified_range: bool  # the doubling identity is asserted only for b <= 13
    rows: tuple[ShortSumRow, ...]
    max_doubling_residual: float
    max_sqrt5_residual: float | None
    fourth_moment: FourthMomentCheck | None


# Largest base for which the doubling identity |S_G| = 2|P| is asserted
# rather than merely measured.
DOUBLING_VERIFIED_MAX = 13


def verify_base5_identities(b: int) -> ShortSumReport:
    """Short-sum identities per primitive odd chi; extra closed forms at b = 5."""
    spec = spectrum_of(b)
    rows = []
    sqrt5_max: float | None = None
    for j, s_g, p_short, b1 in spec.columns(Family.PRIMITIVE_ODD, "S_G", "P_short", "B1"):
        doubling = abs(abs(s_g) - 2 * abs(p_short))
        sqrt5 = None
        if b == 5:
            sqrt5 = abs(abs(p_short) - math.sqrt(5) / 2 * abs(b1))
            sqrt5_max = sqrt5 if sqrt5_max is None else max(sqrt5_max, sqrt5)
        rows.append(
            ShortSumRow(
                chi_index=j,
                S_G_abs=abs(s_g),
                P_short_abs=abs(p_short),
                doubling_residual=doubling,
                sqrt5_residual=sqrt5,
            )
        )

    fourth: FourthMomentCheck | None = None
    if b == 5:
        lhs = math.fsum(
            abs(l_val) ** 4 for _, l_val in spec.columns(Family.PRIMITIVE_ODD, "L1")
        )
        rhs = 4 * math.pi**4 / 625 * float(centered_square_sum(spec.table))
        fourth = FourthMomentCheck(lhs=lhs, rhs=rhs, rel_err=abs(lhs - rhs) / rhs)

    return ShortSumReport(
        b=b,
        in_verified_range=b <= DOUBLING_VERIFIED_MAX,
        rows=tuple(rows),
        max_doubling_residual=max(row.doubling_residual for row in rows),
        max_sqrt5_residual=sqrt5_max,
        fourth_moment=fourth,
    )
