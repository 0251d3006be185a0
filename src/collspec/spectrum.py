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
pocketfft), since conj(chi_j)(g**t) = e(-jt/phi): s0_hat, B1, and S_G
and P_short from their terms' histograms over t.  So is L(1, chi_j) on
every odd chi_j, primitive or induced, with no Gauss sum, by the
cotangent formula sum_{n>=1} f(n)/n = (pi/2q) sum_{0<a<q} f(a) cot(pi a/q)
for odd q-periodic f (odd_l_values).  The group stores its units in
that order, units[t] = g**t, so an array over the units is a transform
input as built.  S_G's b - 1 entries j = b*k come from the histogram
folded mod b - 1 instead, since chi_{b*k}(g**t) = e(kt/(b-1)) depends
on t mod b - 1 only.  That fold counts the diagonal terms by unit
residue mod b, and each one is hit once as n + 1 and once as n: it is
exactly 0, and so are those entries (the vanishing on imprimitive odd
chi below, without rounding).
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
  * the lemma: sum_a conj(chi(a)) * {n*a/m} = chi(n) * B1 for every
    unit n (substitute a -> n^{-1} a, which permutes the units),
  * each interior diagonal slice contributes [1 + chi(n) - chi(n+1)]*B1,
  * the endpoint slices n = 0 and n = m-1 contribute nothing,
  * and in total sum_a S(a) * conj(chi(a)) = -B1 * conj(S_G).

The lemma is checked for every unit n at once: an exact int64
certificate shows that the units, the table of g**t mod m, obey
units[0] = 1 and units[t + 1] = g * units[t] mod m cyclically, so row
n, {n*a/m} along a = g**t, is row 1 rolled by dlog n, and its transform
is chi(n) times row 1's (the shift theorem).  Row 1, a/m, is transformed once against
B1.  The slices need no transform of their own: by the floor identity
d_n(a) = a/m + {n*a/m} - {(n+1)*a/m}, d_n's transform is exactly
[1 + chi(n) - chi(n+1)], at most 3 in modulus, times row 1's, so the
slice residual is 3 * lemma; a failed certificate makes both inf.  The
steps take seven length-phi transforms whatever b is.  At b = 31 the
worst step residual is 4.8e-13, the floor step (lemma 1.3e-14, slice
3.9e-14); every step agrees with the per-character direct sums within
5.0e-13 there.

Even characters and imprimitive odd characters are annihilated: the
first by coset constancy against a mean-zero table, the second because
S_G telescopes to psi(b) - psi(0) = 0 for the inducing character psi.

The doubling theorem: for every chi mod m, with P(chi) = sum_{0<r<b}
conj(chi)(r),

    S_G(chi) = conj(chi)(1+b) * (conj(chi)(-1) - 1) * P(chi).

Proof: G = {r(b+1) : 0 <= r < b} and (b+1)(1-b) = 1 - b**2 = 1 mod m, so
r(b+1) + 1 = (b+1)(r+1-b).  As r runs over 0..b-1, the n are (b+1) times
0..b-1 and the n + 1 are (b+1) times -(0..b-1); the non-units drop out.
So S_G = -2 conj(chi)(1+b) P on odd chi, and |S_G| = 2|P| at every base.
Its exact form, with d = dlog(1+b) and dlog(-1) = phi/2: the histogram
of S_G's terms is roll(p, d + phi/2) - roll(p, d), where p is the
histogram of 1..b-1.  doubling_certificate checks that exactly (the
entries are small integers) in O(phi); verify_base5_identities gates
| |S_G| - 2|P| | behind it (2.3e-13 at b = 997).  The factorization
then reads s0_hat(chi) = 2 chi(1+b) B1 conj(P) / phi on the primitive
odd family, and at b = 5, where |P| = (sqrt5/2)|B1|, |s0_hat| =
sqrt5 |B1|^2 / phi: |s0_hat| is proportional to |L(1, chi)|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collision import CollisionTable, collision_invariant, diagonal_set
from .unit_group import Level, UnitGroup, build_unit_group


# ====== every character at once ======


def odd_l_values(group: UnitGroup, weights: np.ndarray | None = None) -> np.ndarray:
    """sum_{n>=1} w(n) chi_j(n) / n on every odd chi_j of group, indexed by j, for
    w even and q-periodic, given over group.units (default 1: L(1, chi_j)).

    By the cotangent formula (module docstring) it is phi*ifft of
    (pi/2q) cot(pi a/q) w(a) along a = g**t; the cot is taken at
    min(a, q - a), where tan is accurate.  Even entries are not L-values.
    """
    q, units = group.q, group.units
    weight = (np.pi / (2 * q)) / np.tan(np.pi / q * np.minimum(units, q - units))
    weight[units > q // 2] *= -1  # cot(pi (q - a)/q) = -cot(pi a/q)
    if weights is not None:
        weight *= weights
    out = np.fft.ifft(weight)
    out *= group.phi
    return out


def _term_histogram(group: UnitGroup, plus: np.ndarray, minus: np.ndarray = ()) -> np.ndarray:
    """The signed histogram over t of the dlogs of the terms n in plus less those
    in minus (non-units drop out), whose FFT is sum_n conj(chi_j)(n) for every j.
    Complex, so that the FFT can run in place; its entries are small integers."""
    h = np.zeros(group.phi, dtype=complex)
    for terms, sign in ((plus, 1), (minus, -1)):
        t = group.dlog[np.asarray(terms, dtype=np.int64) % group.q]
        np.add.at(h, t[t >= 0], sign)
    return h


def _short_histograms(group: UnitGroup) -> tuple[np.ndarray, np.ndarray]:
    """Fresh term histograms (h, p) of S_G, G + 1 less G, and P_short, 1..b-1."""
    members = np.array(diagonal_set(group.b))
    return (_term_histogram(group, members + 1, members),
            _term_histogram(group, np.arange(1, group.b)))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Every per-character family of one base, as arrays over j = 0..phi-1.

    Entry j belongs to chi_j mod b**2.  B1 is the Bernoulli number of
    the conjugate character; L1 is L(1, chi_j) on the odd entries.  odd
    and primitive are the parity and primitivity masks.
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

    @property
    def factorization_residual(self) -> np.ndarray:
        """|s0_hat + B1 * conj(S_G) / phi| for every j.

        The factorization is asserted on the primitive odd entries; on the
        vanishing families both terms vanish on their own.
        """
        return np.abs(self.s_hat + self.B1 * np.conj(self.S_G) / self.group.phi)


_held: dict[int, Spectrum] = {}  # the last one built: every caller takes one base at a time


def spectrum_of(b: int) -> Spectrum:
    """The spectrum of base b.  The last one built is held, and dropped
    before another base's is built."""
    if b in _held:
        return _held[b]
    _held.clear()
    group = build_unit_group(b, Level.MOD_B_SQUARED)
    table = collision_invariant(group)
    phi = group.phi
    # S_G and P_short first: after the B1 and L1 transforms they would raise the peak.
    h, p = _short_histograms(group)
    fold = h.real.reshape(b, b - 1).sum(axis=0)  # by t mod b - 1: exact integer sums
    s_g = np.fft.fft(h, out=h)
    s_g[::b] = np.fft.fft(fold)  # the entries j = b*k (see the docstring)
    p_short = np.fft.fft(p, out=p)
    b1 = np.fft.fft(group.units.astype(float)) / group.q
    l1 = odd_l_values(group)
    s_hat = np.fft.fft(table.S0_num / b) / phi
    j = np.arange(phi)  # after the transforms, whose workspace sets the peak
    arrays = dict(s_hat=s_hat, B1=b1, S_G=s_g, P_short=p_short, L1=l1,
                  odd=j % 2 == 1, primitive=j % b != 0)
    for arr in arrays.values():
        arr.flags.writeable = False
    _held[b] = Spectrum(b=b, group=group, table=table, **arrays)
    return _held[b]


# ====== the proof steps, for every primitive odd chi at once ======


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
    js = np.flatnonzero(spec.odd & spec.primitive)
    b1 = spec.B1[js]

    def transform(values: np.ndarray) -> np.ndarray:  # sum_a values(a) conj(chi_j(a))
        return np.fft.fft(values.astype(float))[js]

    # The lemma's certificate (module docstring); g*units < m**2 < 2**63.
    if units[0] == 1 and np.array_equal(group.g * units % m, np.roll(units, -1)):
        lemma = magnitudes(transform(units / m) - b1)
    else:
        lemma = np.full(len(js), np.inf)

    return {
        "b": np.full(len(js), b),
        "j": js,
        "centering": magnitudes(transform(table.class_sums[units % b] / b)),
        "constant": magnitudes(transform(np.ones(phi))),
        "fractional": magnitudes(transform(units % b / b)),
        "floor": magnitudes(transform(units // b) - b * b1),
        "lemma": lemma,
        "slice": 3 * lemma,  # d_n = a/m + row n - row n+1 (module docstring)
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

    js = np.flatnonzero(spec.odd & spec.primitive)
    lhs = math.fsum(
        abs(l_val) ** 2 * abs(s_g) ** 2
        for l_val, s_g in zip(spec.L1[js].tolist(), spec.S_G[js].tolist())
    )
    rhs = math.pi**2 * phi / b**2 * square_sum
    return {"b": b, "lhs": lhs, "rhs": rhs, "rel_err": abs(lhs - rhs) / rhs,
            "parseval_lhs": parseval_lhs, "parseval_rhs": parseval_rhs,
            "parseval_rel_err": parseval_rel}


# ====== short-sum identities ======


def doubling_certificate(group: UnitGroup) -> bool:
    """The doubling theorem in exact form (module docstring): the dlog histogram
    of S_G's terms is roll(p, d + phi/2) - roll(p, d), where p is that of 1..b-1
    and d = dlog(1 + b)."""
    h, p = _short_histograms(group)
    d = int(group.dlog[1 + group.b])
    return np.array_equal(h, np.roll(p, d + group.phi // 2) - np.roll(p, d))


def verify_base5_identities(b: int) -> dict[str, np.ndarray]:
    """Short-sum identities as columns b, j over the primitive odd j: the
    doubling | |S_G| - 2|P| |, inf where doubling_certificate fails, and at
    b = 5 also | |P| - (sqrt5/2)|B1| |."""
    spec = spectrum_of(b)
    js = np.flatnonzero(spec.odd & spec.primitive)
    s_g_abs, p_abs = magnitudes(spec.S_G[js]), magnitudes(spec.P_short[js])
    if doubling_certificate(spec.group):
        doubling = np.abs(s_g_abs - 2 * p_abs)
    else:
        doubling = np.full(len(js), np.inf)
    columns = {"b": np.full(len(js), b), "j": js, "S_G_abs": s_g_abs, "P_short_abs": p_abs,
               "doubling_residual": doubling}
    if b == 5:
        columns["sqrt5_residual"] = np.abs(p_abs - math.sqrt(5) / 2 * magnitudes(spec.B1[js]))
    return columns


def verify_fourth_moment() -> dict:
    """The fourth moment of L(1, chi) over the primitive odd chi mod 25.

    Keys: b = 5; lhs, sum |L(1,chi)|^4; rhs, (4 pi^4 / 625) sum_a S0(a)^2;
    rel_err.
    """
    spec = spectrum_of(5)
    l1 = spec.L1[spec.odd & spec.primitive].tolist()
    lhs = math.fsum(abs(l_val) ** 4 for l_val in l1)
    rhs = 4 * math.pi**4 / 625 * (centered_square_sum(spec.table) / 25)
    return {"b": 5, "lhs": lhs, "rhs": rhs, "rel_err": abs(lhs - rhs) / rhs}
