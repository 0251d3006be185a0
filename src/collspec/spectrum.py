"""Character spectrum of the centered collision invariant.

The transform coefficient of the centered invariant S0 at a character
chi mod m = b**2 is

    s0_hat(chi) = (1/phi) * sum_a S0(a) * conj(chi(a)),

and for primitive odd chi it factors exactly as

    s0_hat(chi) = -B1 * conj(S_G(chi)) / phi(m),

where B1 = (1/m) sum_a a*conj(chi(a)) is the first generalized
Bernoulli number of the conjugate character and

    S_G(chi) = sum_{n in G} [conj(chi)(n+1) - conj(chi)(n)]

is the diagonal character sum.

Every character sum here, sum_a f(a) * conj(chi_j(a)) for all j at once,
is one FFT of f along the discrete-log axis a = g**t (float64, numpy's
pocketfft), since conj(chi_j)(g**t) = e(-jt/phi): s0_hat, B1, tau, and
S_G and P_short from their terms' histograms over t.  S_G's b - 1
entries j = b*k come from the histogram folded mod b - 1 instead, since
chi_{b*k}(g**t) = e(kt/(b-1)) depends on t mod b - 1 only.  That fold
counts the diagonal terms by unit residue mod b, and each one is hit
once as n + 1 and once as n: it is exactly 0, and so are those entries
(the vanishing on imprimitive odd chi below, without rounding).
Measured: factorization residual 3.1e-16, 5.6e-16, 4.7e-16 and 6.3e-16
at b = 13, 43, 97 and 199; |s0_hat| on the vanishing families below
2.1e-16; the arrays within 1.2e-13 of the direct per-character sums at
b = 43.  Those one-character sums are not part of the library: they are
the tests' oracles (tests/oracles.py).

verify_proof_steps re-derives the factorization for every primitive odd
chi at once, each ingredient a transform held against its closed form:

  * the centering term and the fractional-part sum vanish coset by
    coset (every coset {a = k mod b} sums conj(chi) to zero when chi is
    primitive),
  * the floor term contributes exactly -b * B1,
  * each interior diagonal slice contributes [1 + chi(n) - chi(n+1)]*B1,
    via sum_a conj(chi(a)) * {n*a/m} = chi(n) * B1 (substitute
    a -> n^{-1} a, which permutes the units),
  * the endpoint slices n = 0 and n = m-1 contribute nothing,
  * and in total sum_a S(a) * conj(chi(a)) = -B1 * conj(S_G).

The lemma is checked for every unit n, not by that substitution: each
row {n*a/m} is transformed from its own exact integers n*a mod m.  The
worst step residual at b = 31 is 4.8e-13, the floor step (the lemma's
is 2.8e-14); every step agrees with the per-character direct sums
within 5.0e-13 there.

Even characters and imprimitive odd characters are annihilated: the
first by coset constancy against a mean-zero table, the second because
S_G telescopes to psi(b) - psi(0) = 0 for the inducing character psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .characters import Family, _unit_phases, family_mask, roots_of_unity
from .collision import CollisionTable, collision_invariant, diagonal_set
from .unit_group import Level, UnitGroup, build_unit_group


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


def _term_histogram(group: UnitGroup, plus: np.ndarray, minus: np.ndarray = ()) -> np.ndarray:
    """The signed histogram over t of the dlogs of the terms n in plus less those
    in minus (non-units drop out), whose FFT is sum_n conj(chi_j)(n) for every j.
    Complex, so that the FFT can run in place; its entries are small integers."""
    h = np.zeros(group.phi, dtype=complex)
    for terms, sign in ((plus, 1), (minus, -1)):
        t = group.dlog[np.asarray(terms, dtype=np.int64) % group.q]
        np.add.at(h, t[t >= 0], sign)
    return h


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Every per-character family of one base, as arrays over j = 0..phi-1.

    Entry j belongs to chi_j mod b**2.  B1 is the Bernoulli number of
    the conjugate character; L1 = i*pi*tau*B1/q is L(1, chi_j) on the
    primitive odd entries (tau itself is not kept).  odd and primitive
    are the parity and primitivity masks.
    """

    b: int
    group: UnitGroup
    table: CollisionTable
    s_hat: np.ndarray
    B1: np.ndarray
    S_G: np.ndarray
    P_short: np.ndarray
    L1: np.ndarray
    odd: np.ndarray
    primitive: np.ndarray

    def indices(self, family: Family = Family.ALL) -> np.ndarray:
        """The j of a family, ascending."""
        return np.flatnonzero(family_mask(family, self.odd, self.primitive))

    @property
    def factorization_residual(self) -> np.ndarray:
        """|s0_hat + B1 * conj(S_G) / phi| for every j.

        The factorization is asserted on the primitive odd entries; on the
        vanishing families both terms vanish on their own.
        """
        return np.abs(self.s_hat + self.B1 * np.conj(self.S_G) / self.group.phi)


@lru_cache(maxsize=8)
def spectrum_of(b: int) -> Spectrum:
    """The spectrum of base b, built once per process."""
    group = build_unit_group(b, Level.MOD_B_SQUARED)
    table = collision_invariant(group)
    phi, j = group.phi, np.arange(group.phi)
    # S_G and P_short first: after dual_transforms they would raise the peak.
    members = np.array(diagonal_set(b).members)
    h = _term_histogram(group, members + 1, members)
    fold = h.real.reshape(b, b - 1).sum(axis=0)  # by t mod b - 1: exact integer sums
    s_g = np.fft.fft(h, out=h)
    s_g[::b] = np.fft.fft(fold)  # the entries j = b*k (see the docstring)
    h = _term_histogram(group, np.arange(1, b))
    p_short = np.fft.fft(h, out=h)
    b1, _, l1 = dual_transforms(group)  # tau is not kept: packets take it mod b
    s_hat = np.fft.fft(_by_dlog(group, table.S0_num / b)) / phi
    arrays = dict(s_hat=s_hat, B1=b1, S_G=s_g, P_short=p_short, L1=l1,
                  odd=j % 2 == 1, primitive=j % b != 0)
    for arr in arrays.values():
        arr.flags.writeable = False
    return Spectrum(b=b, group=group, table=table, **arrays)


# ====== the proof steps, for every primitive odd chi at once ======


# Entries of {n*a/m} the lemma transforms at a time, LEMMA_BLOCK // phi rows:
# 16 MB of float64, and 32 MB as their FFT, while phi <= 2**21; one row a
# block above that.
LEMMA_BLOCK = 1 << 21


def magnitudes(z: np.ndarray) -> np.ndarray:
    """|z| elementwise, bit for bit as Python's abs(complex); np.abs is not."""
    return np.hypot(z.real, z.imag)


def verify_proof_steps(b: int) -> dict[str, np.ndarray]:
    """Residuals of the steps behind the factorization, as columns b, j over
    the primitive odd j, then each step against its closed form (see the
    module docstring); endpoint_bottom is max |d_0(a)|, exact integers."""
    spec = spectrum_of(b)
    group, table = spec.group, spec.table
    m, phi, units = group.q, group.phi, group.units
    js = spec.indices(Family.PRIMITIVE_ODD)
    b1, roots = spec.B1[js], roots_of_unity(phi)

    def transform(values: np.ndarray) -> np.ndarray:  # sum_a values(a) conj(chi_j(a))
        return np.fft.fft(_by_dlog(group, values.astype(float)))[js]

    def chi(n):  # chi_j(n) for units n, an int or a column of them
        return roots[group.dlog[n] * js % phi]

    slice_worst = np.zeros(len(js))
    for n in diagonal_set(b).members:
        if 0 < n < m - 1:  # interior, so n and n + 1 are units; the endpoint slices follow
            d_n = (n + 1) * units // m - n * units // m
            rhs = (1 + chi(n) - chi(n + 1)) * b1
            slice_worst = np.maximum(slice_worst, magnitudes(transform(d_n) - rhs))

    # The lemma for every unit n: one FFT per row {n*a/m} along a = g**t, each row
    # from its own exact integers n*a mod m (not shifted from another row).
    powers = _by_dlog(group, units)
    step = max(1, LEMMA_BLOCK // phi)
    lemma = np.zeros(len(js))
    for r in range(0, phi, step):
        rows = units[r : r + step, None]
        frac = rows * powers % m / m  # n*a < m**2 < 2**63
        gap = magnitudes(np.fft.fft(frac)[:, js] - chi(rows) * b1)
        lemma = np.maximum(lemma, gap.max(axis=0))

    return {
        "b": np.full(len(js), b),
        "j": js,
        "centering": magnitudes(transform(table.class_sums[units % b] / b)),
        "constant": magnitudes(transform(np.ones(phi))),
        "fractional": magnitudes(transform(units % b / b)),
        "floor": magnitudes(transform(units // b) - b * b1),
        "lemma": lemma,
        "slice": slice_worst,
        "endpoint_bottom": np.full(len(js), float(np.max(units // m))),
        "endpoint_top": magnitudes(transform(m * units // m - (m - 1) * units // m)),
        "total": magnitudes(transform(table.S) + b1 * np.conj(spec.S_G[js])),
    }


# ====== moment identity ======


def centered_square_sum(table: CollisionTable) -> int:
    """sum_a S0(a)^2 exactly, as its numerator over the denominator b^2: sum_a S0_num(a)^2
    in Python ints (int64 would overflow).  Divide by b**2: int / int rounds correctly."""
    return sum(x * x for x in table.S0_num.tolist())


def verify_moment(b: int) -> dict:
    """Parseval for the full dual group, then the primitive-odd restriction.

    Keys: b; lhs, the sum over primitive odd chi of |L(1,chi)|^2 |S_G(chi)|^2;
    rhs, pi^2 phi(m) / b^2 * sum_a S0(a)^2; rel_err; parseval_lhs, the sum
    over all chi of |s0_hat|^2; parseval_rhs, (1/phi) sum_a S0(a)^2;
    parseval_rel_err.
    """
    spec = spectrum_of(b)
    phi = spec.group.phi
    square_sum = centered_square_sum(spec.table) / b**2

    parseval_lhs = math.fsum(abs(z) ** 2 for z in spec.s_hat.tolist())
    parseval_rhs = square_sum / phi
    parseval_rel = abs(parseval_lhs - parseval_rhs) / parseval_rhs

    js = spec.indices(Family.PRIMITIVE_ODD)
    lhs = math.fsum(
        abs(l_val) ** 2 * abs(s_g) ** 2
        for l_val, s_g in zip(spec.L1[js].tolist(), spec.S_G[js].tolist())
    )
    rhs = math.pi**2 * phi / b**2 * square_sum
    return {"b": b, "lhs": lhs, "rhs": rhs, "rel_err": abs(lhs - rhs) / rhs,
            "parseval_lhs": parseval_lhs, "parseval_rhs": parseval_rhs,
            "parseval_rel_err": parseval_rel}


# ====== short-sum identities ======


# Largest base for which the doubling identity |S_G| = 2|P| is asserted
# rather than merely measured.
DOUBLING_VERIFIED_MAX = 13


def verify_base5_identities(b: int) -> dict[str, np.ndarray]:
    """Short-sum identities as columns b, j over the primitive odd j: the
    doubling | |S_G| - 2|P| |, and at b = 5 also | |P| - (sqrt5/2)|B1| |."""
    spec = spectrum_of(b)
    js = spec.indices(Family.PRIMITIVE_ODD)
    s_g_abs, p_abs = magnitudes(spec.S_G[js]), magnitudes(spec.P_short[js])
    columns = {"b": np.full(len(js), b), "j": js, "S_G_abs": s_g_abs, "P_short_abs": p_abs,
               "doubling_residual": np.abs(s_g_abs - 2 * p_abs)}
    if b == 5:
        columns["sqrt5_residual"] = np.abs(p_abs - math.sqrt(5) / 2 * magnitudes(spec.B1[js]))
    return columns


def verify_fourth_moment() -> dict:
    """The fourth moment of L(1, chi) over the primitive odd chi mod 25.

    Keys: b = 5; lhs, sum |L(1,chi)|^4; rhs, (4 pi^4 / 625) sum_a S0(a)^2;
    rel_err.
    """
    spec = spectrum_of(5)
    l1 = spec.L1[spec.indices(Family.PRIMITIVE_ODD)].tolist()
    lhs = math.fsum(abs(l_val) ** 4 for l_val in l1)
    rhs = 4 * math.pi**4 / 625 * (centered_square_sum(spec.table) / 25)
    return {"b": 5, "lhs": lhs, "rhs": rhs, "rel_err": abs(lhs - rhs) / rhs}
