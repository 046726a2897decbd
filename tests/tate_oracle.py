"""Two-variable Tate expansions, used only by tests.

Laurent expansions in t over integer q-powers: gamma(t) and the
Laurent-polynomial part of the c-theta function, against which the
q-expansion code's theta pullbacks and D-compositions are checked.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from mazurtate.arith import CycElt, cyc_embed
from mazurtate.qexp import QSeries


class TateExpansion:
    """Laurent expansion in t over integer q-powers, truncated in q.

    Terms are stored as {(n, m): coeff} for coeff q^n t^m; products
    truncate at q^q_trunc.  D = t d/dt multiplies a term by m.
    """

    def __init__(self, terms: dict, q_trunc: int, conductor: int = 1):
        self.terms = {
            nm: c for nm, c in terms.items() if nm[0] < q_trunc and not c.is_zero()
        }
        self.q_trunc = q_trunc
        self.conductor = conductor

    @staticmethod
    def one(q_trunc: int, conductor: int = 1):
        return TateExpansion({(0, 0): CycElt.one(conductor)}, q_trunc, conductor)

    def __add__(self, other):
        assert self.q_trunc == other.q_trunc
        f = lcm(self.conductor, other.conductor)
        out = dict(self._embedded(f).terms)
        for nm, c in other._embedded(f).terms.items():
            out[nm] = out[nm] + c if nm in out else c
        return TateExpansion(out, self.q_trunc, f)

    def _embedded(self, f):
        if f == self.conductor:
            return self
        return TateExpansion(
            {nm: cyc_embed(c, f) for nm, c in self.terms.items()}, self.q_trunc, f
        )

    def __neg__(self):
        return TateExpansion(
            {nm: -c for nm, c in self.terms.items()}, self.q_trunc, self.conductor
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycElt)):
            return TateExpansion(
                {nm: c * other for nm, c in self.terms.items()},
                self.q_trunc,
                self.conductor
                if not isinstance(other, CycElt)
                else lcm(self.conductor, other.conductor),
            )
        assert self.q_trunc == other.q_trunc
        f = lcm(self.conductor, other.conductor)
        a, b = self._embedded(f), other._embedded(f)
        out: dict = {}
        for (n1, m1), c1 in a.terms.items():
            for (n2, m2), c2 in b.terms.items():
                if n1 + n2 >= self.q_trunc:
                    continue
                key = (n1 + n2, m1 + m2)
                v = c1 * c2
                out[key] = out[key] + v if key in out else v
        return TateExpansion(out, self.q_trunc, f)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        assert n >= 0
        out = TateExpansion.one(self.q_trunc, self.conductor)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def D(self) -> "TateExpansion":
        """t d/dt, term by term."""
        return TateExpansion(
            {nm: c * Fraction(nm[1]) for nm, c in self.terms.items()},
            self.q_trunc,
            self.conductor,
        )

    def evaluate_t_root_of_unity(self, b: int, N: int) -> QSeries:
        """Substitute t = zeta_N^b (a pure t-direction pullback)."""
        f = lcm(self.conductor, N if N > 1 else 1)
        acc: dict[int, CycElt] = {}
        for (n, m), c in self.terms.items():
            v = cyc_embed(c, f) * cyc_embed(CycElt.zeta(N, b * m), f)
            acc[n] = acc[n] + v if n in acc else v
        if not acc:
            return QSeries.zero(1, self.q_trunc, f)
        lo = min(acc)
        coeffs = [acc.get(i, CycElt.zero(f)) for i in range(lo, self.q_trunc)]
        return QSeries(1, lo, coeffs, self.q_trunc, f)

    def __eq__(self, other):
        if not isinstance(other, TateExpansion):
            return NotImplemented
        f = lcm(self.conductor, other.conductor)
        a, b = self._embedded(f), other._embedded(f)
        keys = set(a.terms) | set(b.terms)
        zero = CycElt.zero(f)
        return all(a.terms.get(k, zero) == b.terms.get(k, zero) for k in keys)


def gamma_tate(q_trunc: int, t_power: int = 1, conductor: int = 1) -> TateExpansion:
    """gamma(t^{t_power}) as a two-variable expansion truncated in q."""
    out = TateExpansion.one(q_trunc, conductor)
    one = CycElt.one(conductor)
    for n in range(0, q_trunc):
        out = out * TateExpansion(
            {(0, 0): one, (n, t_power): -one}, q_trunc, conductor
        )
    for n in range(1, q_trunc):
        out = out * TateExpansion(
            {(0, 0): one, (n, -t_power): -one}, q_trunc, conductor
        )
    return out


def theta_numerator_tate(c: int, q_trunc: int) -> TateExpansion:
    """(-t)^{(c-c^2)/2} gamma(t)^{c^2}: the Laurent-polynomial part of c-theta."""
    m_exp = (c - c * c) // 2
    mono = TateExpansion(
        {(0, m_exp): CycElt.rational(-1 if m_exp % 2 else 1)}, q_trunc, 1
    )
    return mono * gamma_tate(q_trunc) ** (c * c)



def theta_pullback_product(a: int, b: int, N: int, c: int, prec: int) -> QSeries:
    """The c-theta function at t = zeta_N^b q^{a/N} from the product form.

    q^{(c^2-1)/12} (-t)^{(c-c^2)/2} gamma(t)^{c^2} / gamma(t^c), with
    gamma(t) = prod_{n>=0} (1 - q^n t) prod_{n>=1} (1 - q^n / t) multiplied
    out one factor at a time: no triple product and no quasi-periodicity,
    so it holds for every integer c, negative ones included.  The factors
    are truncated at q^prec; the result carries its own truncation order.
    """

    def gamma_at(m):
        e, z = Fraction(a * m, N), CycElt.zeta(N, b * m)
        factors = [(z, n + e) for n in range(prec + abs(m))]
        factors += [(z.inverse(), n - e) for n in range(1, prec + abs(m))]
        out = QSeries.one(N, prec, N)
        for coeff, exp in factors:
            if exp < prec:
                out = out * (QSeries.one(N, prec, N) - QSeries.monomial(coeff, exp, N, prec))
        return out

    m_exp = (c - c * c) // 2
    pref = CycElt.rational(-1 if m_exp % 2 else 1, N) * CycElt.zeta(N, b * m_exp)
    theta = gamma_at(1) ** (c * c) * gamma_at(c).inverse()
    return theta.scale(pref).shift(Fraction(c * c - 1, 12) + Fraction(a * m_exp, N))
