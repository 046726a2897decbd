"""Truncated q-expansions over cyclotomic fields: theta, Siegel, Eisenstein.

Series live on a fixed exponent grid (1/L)Z with an explicit exclusive
truncation order; every ring operation propagates the truncation
(product order = min(t1 + lead2, t2 + lead1), sums take the min).  The
coefficients in Q(zeta_L) are integer power-basis rows over one common
denominator, and ring operations work on the rows; ``CycElt`` appears
only at the edge (the constructor, ``coeffs`` and the coefficient readers).

The universal object behind everything is the Tate curve with parameter
t and invariant differential dt/t, so the weight-raising operator is
D = t d/dt before pullback.  The canonical theta function with divisor
c^2(0) - [c-torsion] has the product expansion

    q^{(c^2-1)/12} (-t)^{(c-c^2)/2} gamma(t)^{c^2} gamma(t^c)^{-1},
    gamma(t) = prod_{n>=0} (1 - q^n t) prod_{n>=1} (1 - q^n / t),

and pulls back along t = zeta_N^b q^{a/N}; the quasi-periodicity
gamma(q t) = -t^{-1} gamma(t) reduces arguments with q-exponent >= 1
into the fundamental annulus.  Log-derivatives are expanded through

    t d/dt log gamma(t) = -t/(1-t) - sum_{n,m>=1} q^{nm} (t^m - t^{-m}),

whose rational part is differentiated formally and evaluated exactly at
roots of unity when the pullback has no q-shift.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd, isqrt, lcm

from .arith import CycElt, cyc_embed, reduce_mod_cyclotomic
from .nt import euler_phi
from .records import Frozen, Record


class QExpError(ValueError):
    pass


class GatedFeatureError(NotImplementedError):
    """Weight-2 variants needing the Weierstrass-p convention are gated."""


class TorsionPoint(Frozen):
    """(a/N, b/N) in (1/N Z / Z)^2, with 0 <= a, b < N."""

    __slots__ = ("a", "b", "level")

    def __init__(self, a: int, b: int, level: int):
        if level < 1:
            raise ValueError("level must be >= 1")
        object.__setattr__(self, "a", a % level)
        object.__setattr__(self, "b", b % level)
        object.__setattr__(self, "level", level)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def scaled(self, c: int) -> "TorsionPoint":
        return TorsionPoint(self.a * c, self.b * c, self.level)

    def __repr__(self):
        return f"({self.a}/{self.level}, {self.b}/{self.level})"


# ---------------------------------------------------------------------------
# Truncated series


class QSeries:
    """Truncated series sum rows[i]/den q^{(start+i)/grid}, trunc exclusive.

    Row i holds the phi(L) power-basis numerators of one coefficient in
    Q(zeta_L), every row over the one denominator ``den``.  The form is
    canonical (den > 0, gcd(den, every entry) = 1, no zero row at either
    end), so den is the lcm of the coefficients' own denominators and
    equal series have equal fields.  The constructor takes ``CycElt``
    coefficients; ``coeffs`` is their read-only view, built on first use.
    """

    __slots__ = ("grid", "start", "rows", "den", "trunc", "conductor", "_coeffs")

    def __init__(self, grid: int, start: int, coeffs, trunc: int, conductor: int):
        coeffs = list(coeffs)
        den = lcm(1, *(c.den for c in coeffs))
        rows = [[v * (den // c.den) for v in c.num] for c in coeffs]
        self._set(grid, start, rows, den, trunc, conductor)

    def _set(self, grid, start, rows, den, trunc, conductor):
        i, j = 0, len(rows)
        while i < j and not any(rows[i]):
            i += 1
        while j > i and not any(rows[j - 1]):
            j -= 1
        rows, start, g = rows[i:j], start + i, den
        # last row first: Miller's rows carry falling powers of den, so the
        # gcd reaches 1 soonest there
        for r in reversed(rows):
            if g == 1:
                break
            g = gcd(g, *r)
        if g > 1:
            rows = [[v // g for v in r] for r in rows]
        if not rows:
            start = trunc
        if start + len(rows) > trunc:
            raise ValueError("coefficients extend past the truncation order")
        self.grid = grid
        self.start = start
        self.rows = rows
        self.den = den // g
        self.trunc = trunc
        self.conductor = conductor
        self._coeffs = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(grid: int, trunc_exp, conductor: int = 1) -> "QSeries":
        t = _to_idx(trunc_exp, grid)
        return _series(grid, t, [], 1, t, conductor)

    @staticmethod
    def one(grid: int, trunc_exp, conductor: int = 1) -> "QSeries":
        row = [1] + [0] * (euler_phi(conductor) - 1)
        return _series(grid, 0, [row], 1, _to_idx(trunc_exp, grid), conductor)

    @staticmethod
    def monomial(coeff: CycElt, exponent, grid: int, trunc_exp) -> "QSeries":
        t = _to_idx(trunc_exp, grid)
        s = _to_idx(exponent, grid)
        return QSeries(grid, s, [coeff], t, coeff.conductor)

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[CycElt, ...]:
        if self._coeffs is None:
            self._coeffs = tuple(CycElt._make(self.conductor, r, self.den) for r in self.rows)
        return self._coeffs

    @property
    def lead_exponent(self) -> Fraction:
        return Fraction(self.start, self.grid)

    @property
    def trunc_exponent(self) -> Fraction:
        return Fraction(self.trunc, self.grid)

    def is_zero(self) -> bool:
        return not self.rows

    def lead_coefficient(self) -> CycElt:
        if not self.rows:
            raise QExpError("zero series has no leading coefficient")
        return CycElt._make(self.conductor, self.rows[0], self.den)

    def coefficient(self, exponent) -> CycElt:
        """Coefficient at a given exponent; exponent must be below truncation."""
        e = Fraction(exponent)
        if e >= self.trunc_exponent:
            raise QExpError(f"exponent {e} is beyond the truncation order")
        i = e * self.grid - self.start
        if i.denominator == 1 and 0 <= i < len(self.rows):
            return self.coeffs[int(i)]
        return CycElt.zero(self.conductor)

    def terms(self):
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                yield Fraction(self.start + i, self.grid), c

    # -- grid/conductor alignment ------------------------------------------

    def refine(self, grid2: int) -> "QSeries":
        if grid2 == self.grid:
            return self
        if grid2 % self.grid != 0:
            raise QExpError(f"grid {grid2} does not refine {self.grid}")
        f = grid2 // self.grid
        rows = [[0] * euler_phi(self.conductor)] * (f * len(self.rows))
        rows[::f] = self.rows
        return _series(grid2, self.start * f, rows, self.den, self.trunc * f, self.conductor)

    def embed(self, conductor2: int) -> "QSeries":
        """The series over Q(zeta_conductor2), zeta_L -> zeta^{conductor2/L}."""
        if conductor2 == self.conductor:
            return self
        step, rows = conductor2 // self.conductor, []
        for r in self.rows:
            poly = [0] * conductor2
            poly[: step * len(r) : step] = r
            rows.append(reduce_mod_cyclotomic(poly, conductor2))
        return _series(self.grid, self.start, rows, self.den, self.trunc, conductor2)

    @staticmethod
    def _common(x: "QSeries", y: "QSeries"):
        g = lcm(x.grid, y.grid)
        f = lcm(x.conductor, y.conductor)
        return x.refine(g).embed(f), y.refine(g).embed(f)

    def truncate(self, trunc_exp) -> "QSeries":
        t = _to_idx(trunc_exp, self.grid)
        if t > self.trunc:
            raise QExpError("cannot extend a truncated series")
        rows = self.rows[: max(0, t - self.start)]
        return _series(self.grid, self.start, rows, self.den, t, self.conductor)

    def shift(self, exponent) -> "QSeries":
        d = _to_idx(exponent, self.grid)
        return _series(
            self.grid, self.start + d, self.rows, self.den, self.trunc + d, self.conductor
        )

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        x, y = QSeries._common(self, other)
        t = min(x.trunc, y.trunc)
        s = min(x.start, y.start, t)
        d = lcm(x.den, y.den)
        rows = [[0] * euler_phi(x.conductor)] * (t - s)  # shared, replaced below
        for z in (x, y):
            f = d // z.den
            for i, r in zip(range(z.start - s, t - s), z.rows):
                rows[i] = [u + f * v for u, v in zip(rows[i], r)]
        return _series(x.grid, s, rows, d, t, x.conductor)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar) -> "QSeries":
        if isinstance(scalar, CycElt):
            f = lcm(self.conductor, scalar.conductor)
            s, me = cyc_embed(scalar, f), self.embed(f)
            rows = [
                reduce_mod_cyclotomic(_mac([0] * (2 * len(r) - 1), s.num, r), f)
                for r in me.rows
            ]
            return _series(me.grid, me.start, rows, me.den * s.den, me.trunc, f)
        r = Fraction(scalar)
        a = r.numerator
        rows = [[v * a for v in row] for row in self.rows]
        return _series(
            self.grid, self.start, rows, self.den * r.denominator, self.trunc, self.conductor
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycElt)):
            return self.scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        x, y = QSeries._common(self, other)
        L = x.conductor
        t = min(x.trunc + y.start, y.trunc + x.start)
        s = x.start + y.start
        if x.is_zero() or y.is_zero():
            return _series(x.grid, t, [], 1, t, L)
        n = t - s  # >= 1: each factor knows at least its lead term
        # a factor known past n steps is cut there, over its own denominator
        if len(x.rows) > n:
            x = x.truncate(Fraction(x.start + n, x.grid))
        if len(y.rows) > n:
            y = y.truncate(Fraction(y.start + n, y.grid))
        ma = max(max(map(abs, r)) for r in x.rows)
        mb = ma if y is x else max(max(map(abs, r)) for r in y.rows)
        m = min(len(x.rows), len(y.rows))
        if ma.bit_length() + mb.bit_length() > _KRONECKER_BITS_PER_TERM * m:
            rows = _coefficient_loop(x.rows, y.rows, n, L)
        else:
            rows = [
                reduce_mod_cyclotomic(p, L) for p in _kronecker(x.rows, y.rows, n, ma * mb * m)
            ]
        return _series(x.grid, s, rows, x.den * y.den, t, L)

    __rmul__ = __mul__

    def _wide(self, m: int) -> bool:
        """Whether u^m outgrows the packed product: |m| width(u) > 32 n.

        width(u) is the bit length of the largest numerator over the common
        denominator plus that of the denominator.
        """
        top = max(max(map(abs, r)) for r in self.rows)
        width = top.bit_length() + self.den.bit_length()
        return abs(m) * width > _KRONECKER_BITS_PER_TERM * (self.trunc - self.start)

    def _miller_power(self, m: int) -> "QSeries":
        """u^m by J. C. P. Miller's recurrence (Knuth, TAOCP 2, 4.7).

        For u = u0 q^s (1 + v), g = u^m / q^{ms} has g_0 = u0^m and
        j g_j = sum_{k=1..j} ((m + 1) k - j) v_k g_{j-k}.  With v_k = V_k / D^k
        and u0^m = P/Q over integers, G_j = D^j Q g_j is integral (g_j / u0^m
        is an integer polynomial in v of weight j) and j G_j = sum_k ((m + 1) k
        - j) V_k G_{j-k}: each narrow V_k meets a wide G_{j-k} on integer rows.
        """
        L, n, u0 = self.conductor, self.trunc - self.start, self.lead_coefficient()
        inv = u0.inverse()
        w = self.scale(inv)  # rows D, D v_1, D v_2, ... over D
        D = w.den
        V = [[x * D ** (k - 1) for x in r] for k, r in enumerate(w.rows[1:], 1)]
        lead = (u0 if m > 0 else inv) ** abs(m)
        G = [list(lead.num)]
        for j in range(1, n):
            acc = [0] * (2 * len(G[0]) - 1)
            for k in range(1, min(j, len(V)) + 1):
                _mac(acc, V[k - 1], G[j - k], (m + 1) * k - j)
            G.append([x // j for x in reduce_mod_cyclotomic(acc, L)])
        rows = [[x * D ** (n - 1 - j) for x in r] for j, r in enumerate(G)]
        s = m * self.start
        return _series(self.grid, s, rows, D ** (n - 1) * lead.den, s + n, L)

    def __pow__(self, n: int):
        if n and not self.is_zero() and self._wide(n):
            return self._miller_power(n)
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return QSeries.one(
                self.grid, Fraction(self.trunc - self.start, self.grid), self.conductor
            )
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def inverse(self) -> "QSeries":
        """Reciprocal series; the leading coefficient must be invertible.

        Newton's y <- y (2 - u y) = y + y (1 - u y) doubles the known terms
        per step; y is exact as a polynomial, so it is read at the new order.
        A wide series, whose Newton products would run the coefficient loop,
        takes Miller's recurrence with m = -1, the schoolbook recursion.
        """
        if self.is_zero():
            raise QExpError("cannot invert a series that is zero to its precision")
        if self._wide(-1):
            return self._miller_power(-1)
        g, L = self.grid, self.conductor
        n = self.trunc - self.start
        y = QSeries(g, 0, [self.lead_coefficient().inverse()], 1, L)
        k = 1
        while k < n:
            k = min(2 * k, n)
            u = _series(g, 0, self.rows[:k], self.den, k, L)
            yk = _series(g, 0, y.rows, y.den, k, L)
            y = yk + yk * (QSeries.one(g, Fraction(k, g), L) - u * yk)
        return _series(g, -self.start, y.rows, y.den, n - self.start, L)

    # -- unit-series transcendentals -----------------------------------------

    def _require_unit_one(self):
        if self.is_zero() or self.start != 0 or not (
            self.lead_coefficient() == CycElt.one(self.conductor)
        ):
            raise QExpError("operation requires a series with constant term 1")

    def _times_exponent(self, power: int) -> "QSeries":
        """The series with the coefficient at each exponent e multiplied by e^power."""
        w = [Fraction(self.start + i, self.grid) ** power for i in range(len(self.rows))]
        d = lcm(1, *(x.denominator for x in w))
        rows = [[v * (x.numerator * d // x.denominator) for v in r] for x, r in zip(w, self.rows)]
        return _series(self.grid, self.start, rows, self.den * d, self.trunc, self.conductor)

    def log_unit(self) -> "QSeries":
        """log of a series with constant term 1 (antiderivative of u'/u)."""
        self._require_unit_one()
        # u'/u has no constant term, so no exponent is 0
        return (self.theta_derivative() * self.inverse())._times_exponent(-1)

    def exp_positive(self) -> "QSeries":
        """exp of a series supported in strictly positive exponents.

        Newton's y <- y (1 + v - log y) doubles the known terms per step.
        """
        if not self.is_zero() and self.start <= 0:
            raise QExpError("exp needs strictly positive exponents")
        g, L, n = self.grid, self.conductor, self.trunc
        if n <= 0:
            raise QExpError("truncation too small for exp")
        y, k = QSeries.one(g, Fraction(1, g), L), 1
        while k < n:
            k = min(2 * k, n)
            y = _series(g, 0, y.rows, y.den, k, L)
            y = y + y * (self.truncate(Fraction(k, g)) - y.log_unit())
        return y

    def theta_derivative(self) -> "QSeries":
        """q d/dq: multiply the coefficient at exponent e by e."""
        return self._times_exponent(1)

    # -- comparisons -----------------------------------------------------------

    def agreement(self, other: "QSeries"):
        """(holds, witness): compare up to the smaller truncation order."""
        x, y = QSeries._common(self, other)
        d = x - y
        if d.is_zero():
            return True, None
        e = d.lead_exponent
        return False, (e, x.coefficient(e), y.coefficient(e))

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.agreement(other)[0]

    def __repr__(self):
        parts = []
        for e, c in list(self.terms())[:6]:
            parts.append(f"({c!r}) q^{e}")
        more = " + ..." if len(self.rows) > 6 else ""
        return (
            f"QSeries[{' + '.join(parts) or '0'}{more}; O(q^{self.trunc_exponent})]"
        )

    def serialized_rows(self):
        """(exponent, power-basis coordinates) rows for structured output."""
        return [
            (Fraction(self.start + i, self.grid), tuple(Fraction(v, self.den) for v in r))
            for i, r in enumerate(self.rows)
        ]


def _series(grid: int, start: int, rows, den: int, trunc: int, conductor: int) -> QSeries:
    """The canonical series sum rows[i]/den q^{(start+i)/grid}.

    Rows are shared, never copied: no operation writes into a stored row.
    """
    x = object.__new__(QSeries)
    x._set(grid, start, rows, den, trunc, conductor)
    return x


def _to_idx(exponent, grid: int) -> int:
    e = Fraction(exponent) * grid
    if e.denominator != 1:
        raise QExpError(f"exponent {exponent} is not on the 1/{grid} grid")
    return int(e)


# CPython multiplies big ints by Karatsuba only, so one packed multiply
# beats the coefficient loop only while the numerators stay narrow
_KRONECKER_BITS_PER_TERM = 32


def _pack(rows, span: int, nbytes: int) -> int:
    """sum_i sum_k rows[i][k] 2^(8 nbytes (i span + k)) for signed entries."""
    half = 1 << (8 * nbytes - 1)
    zero = half.to_bytes(nbytes, "little")
    pad = [zero] * (span - len(rows[0]))
    chunks = []
    for row in rows:
        chunks += [(v + half).to_bytes(nbytes, "little") for v in row]
        chunks += pad
    offset = int.from_bytes(zero * len(chunks), "little")
    return int.from_bytes(b"".join(chunks), "little") - offset


def _kronecker(ra, rb, n: int, bound: int) -> list[list[int]]:
    """First n coefficients of (sum ra[i] q^i)(sum rb[j] q^j) by one multiply.

    Rows hold phi power-basis numerators; no product entry exceeds bound * phi.
    A square (rb is ra) packs once and multiplies the int by itself.
    """
    phi = len(ra[0])
    span = 2 * phi - 1  # a product of two phi-term polynomials
    nbytes = (bound * phi).bit_length() // 8 + 1  # with a sign bit
    half, size = 1 << (8 * nbytes - 1), n * span * nbytes
    # half in every slot keeps each one a nonnegative byte field, so the
    # low n q-terms read off with no carry from one slot into the next
    offset = int.from_bytes(half.to_bytes(nbytes, "little") * (n * span), "little")
    pa = _pack(ra, span, nbytes)
    z = pa * (pa if rb is ra else _pack(rb, span, nbytes))
    data = ((z + offset) & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    slots = [int.from_bytes(data[i : i + nbytes], "little") - half for i in range(0, size, nbytes)]
    return [slots[i : i + span] for i in range(0, n * span, span)]


def _mac(acc: list[int], a, b, f: int = 1) -> list[int]:
    """acc += f a b for polynomials a, b (lowest degree first); returns acc."""
    for i, x in enumerate(a):
        fx = f * x
        if fx:
            for r, y in enumerate(b, i):
                acc[r] += fx * y
    return acc


def _coefficient_loop(a, b, n: int, L: int) -> list[list[int]]:
    """The first n rows of (sum a_i q^i)(sum b_j q^j), term by term, reduced once."""
    out = [[0] * (2 * len(a[0]) - 1) for _ in range(n)]
    for i, ai in enumerate(a):
        if any(ai):
            for j, bj in enumerate(b[: n - i], i):
                _mac(out[j], ai, bj)
    return [reduce_mod_cyclotomic(p, L) for p in out]


# ---------------------------------------------------------------------------
# Theta pullbacks


def _zeta(N: int, j: int) -> CycElt:
    return CycElt.zeta(N, j) if N > 1 else CycElt.one(1)


def _partitions(n: int) -> list[int]:
    """p(0), ..., p(n) by Euler's pentagonal recurrence."""
    p = [1]
    for i in range(1, n + 1):
        total, j = 0, 1
        while (g := j * (3 * j - 1) // 2) <= i:
            sign = 1 if j % 2 else -1
            total += sign * (p[i - g] + (p[i - g - j] if g + j <= i else 0))
            j += 1
        p.append(total)
    return p


def _gamma_core(s: Fraction, b: int, N: int, grid: int, rel_steps: int) -> QSeries:
    """gamma(zeta_N^b q^s) for 0 <= s < 1, truncated rel_steps grid steps.

    Jacobi's triple product (Hardy-Wright, Thm 352) gives gamma(t) =
    sum_k (-1)^k q^{k(k-1)/2} t^k * sum_n p(n) q^n, and t^k = zeta^{bk}
    q^{sk}: each k adds +-p(n) at column bk of the rows.
    """
    L, e = (N if N > 1 else 1), _to_idx(s, grid)
    p = _partitions((rel_steps - 1) // grid)
    rows = [[0] * L for _ in range(rel_steps)]
    k_max = isqrt(2 * rel_steps // grid) + 2  # beyond it k(k-1)/2 > rel_steps / grid
    for k in range(-k_max, k_max + 1):
        sign, col = (-1 if k % 2 else 1), b * k % L
        for n, i in enumerate(range(grid * k * (k - 1) // 2 + e * k, rel_steps, grid)):
            rows[i][col] += sign * p[n]
    return _series(grid, 0, [reduce_mod_cyclotomic(r, L) for r in rows], 1, rel_steps, L)


def _gamma_pullback(exp: Fraction, b: int, N: int, grid: int, trunc_exp: Fraction) -> QSeries:
    """gamma(zeta_N^b q^exp) for exp >= 0, reduced into the fundamental annulus.

    gamma(q^w u) = (-1)^w q^{-w(w-1)/2} u^{-w} gamma(u) peels off whole
    powers of q from the argument.
    """
    w = int(exp)  # floor; exp >= 0
    s = exp - w
    if s == 0 and b % N == 0:
        raise QExpError("gamma vanishes at t = 1: the point hits the c-torsion")
    shift = Fraction(-w * (w - 1), 2) - s * w
    rel_steps = _to_idx(trunc_exp - shift, grid)
    if rel_steps <= 0:
        return QSeries.zero(grid, trunc_exp, N if N > 1 else 1)
    core = _gamma_core(s, b, N, grid, rel_steps)
    sign = CycElt.rational(-1 if w % 2 else 1, N if N > 1 else 1)
    pref = sign * _zeta(N, -b * w)
    return core.scale(pref).shift(shift)


def _check_c(pt: TorsionPoint, c: int):
    if pt.is_zero():
        raise QExpError("the torsion point (0, 0) is excluded")
    if gcd(c, 6 * pt.level) != 1:
        raise QExpError(f"c = {c} must be prime to 6 N = {6 * pt.level}")


def _theta_gamma_shift(pt: TorsionPoint, c: int) -> Fraction:
    """The q-exponent peeled off gamma(t^c) by quasi-periodicity."""
    exp_tc = Fraction(pt.a * c, pt.level)
    w = int(exp_tc)
    s = exp_tc - w
    return Fraction(-w * (w - 1), 2) - s * w


def theta_lead_exponent(pt: TorsionPoint, c: int) -> Fraction:
    """Exact leading exponent of the c-theta pullback at pt."""
    N = pt.level
    e12 = (c * c - 1) // 12
    m_exp = (c - c * c) // 2
    return e12 + Fraction(pt.a * m_exp, N) - _theta_gamma_shift(pt, c)


def siegel_theta_qexp(pt: TorsionPoint, c: int, prec) -> QSeries:
    """Pullback of the canonical c-theta function along t = zeta^b q^{a/N}.

    ``prec`` is the absolute truncation order.  Exponents live on the
    1/N grid ((c^2-1)/12 and (c-c^2)/2 are integral because (c, 6) = 1);
    coefficients in Q(zeta_N).  Points with a = 0 produce integral
    exponents and use the unit grid.
    """
    _check_c(pt, c)
    N = pt.level
    prec = Fraction(prec)
    grid = 1 if pt.a == 0 and prec.denominator == 1 else N
    m_exp = (c - c * c) // 2
    b_shift = _theta_gamma_shift(pt, c)
    lead = theta_lead_exponent(pt, c)
    rel = prec - lead
    if rel <= 0:
        return QSeries.zero(grid, prec, N if N > 1 else 1)
    part_a = _gamma_pullback(Fraction(pt.a, N), pt.b, N, grid, rel) ** (c * c)
    part_b = _gamma_pullback(Fraction(pt.a * c, N), pt.b * c, N, grid, rel + b_shift)
    sign = CycElt.rational(-1 if m_exp % 2 else 1, N if N > 1 else 1)
    pref = sign * _zeta(N, pt.b * m_exp)
    out = (part_a * part_b.inverse()).scale(pref).shift(lead + b_shift)
    return out.truncate(min(out.trunc_exponent, prec))


def siegel_theta_relative(pt: TorsionPoint, c: int, rel_prec) -> QSeries:
    """The c-theta pullback carrying rel_prec known steps past its lead."""
    return siegel_theta_qexp(pt, c, theta_lead_exponent(pt, c) + Fraction(rel_prec))


# ---------------------------------------------------------------------------
# Rationalized Siegel units (c eliminated)


class RationalizedUnit(Record):
    """g at a torsion point: unit-part series plus a formal leading monomial.

    The leading coefficient is the root_order-th root of lead_base, kept
    as a formal tag; no branch of the root is ever chosen.
    """

    __slots__ = ("lead_exponent", "lead_base", "root_order", "unit")


def rationalized_g_qexp(pt: TorsionPoint, prec, c: int) -> RationalizedUnit:
    """Extract the (c^2-1)-th root of the c-Siegel unit at pt.

    Requires c = 1 mod N, (c, 6) = 1, c != +-1, so that the c-unit equals
    g^{c^2-1}; the unit part is exp(log/(c^2-1)) and is independent of c.
    ``prec`` counts known unit-part steps past the leading monomial.
    """
    N = pt.level
    if c % N != 1 % N:
        raise QExpError(f"c = {c} must be 1 mod N = {N}")
    if gcd(c, 6) != 1 or c in (1, -1):
        raise QExpError("c must be prime to 6 and different from +-1")
    theta = siegel_theta_relative(pt, c, prec)
    lead = theta.lead_coefficient()
    unit = theta.shift(-theta.lead_exponent).scale(lead.inverse())
    log = unit.log_unit()
    root_log = log.scale(Fraction(1, c * c - 1))
    root_unit = root_log.exp_positive()
    return RationalizedUnit(
        lead_exponent=theta.lead_exponent / (c * c - 1),
        lead_base=lead,
        root_order=c * c - 1,
        unit=root_unit,
    )


class CRelationReport(Record):
    __slots__ = ("point", "c", "d", "prec", "holds", "witness")


def check_c_relation(pt: TorsionPoint, c: int, d: int, prec) -> CRelationReport:
    """The c,d-symmetric product relation between Siegel units, exactly.

    (d-unit at pt)^{c^2} / (d-unit at c pt) = (c-unit at pt)^{d^2} /
    (c-unit at d pt), as truncated series.
    """
    _check_c(pt, c)
    _check_c(pt, d)
    prec = Fraction(prec)  # relative: known steps past the (equal) leads
    lhs = siegel_theta_relative(pt, d, prec) ** (c * c) * siegel_theta_relative(
        pt.scaled(c), d, prec
    ).inverse()
    rhs = siegel_theta_relative(pt, c, prec) ** (d * d) * siegel_theta_relative(
        pt.scaled(d), c, prec
    ).inverse()
    holds, witness = lhs.agreement(rhs)
    return CRelationReport(pt, c, d, prec, holds, witness)


# ---------------------------------------------------------------------------
# Log-derivative Eisenstein series


def _rational_part_derivative(k: int, zeta_val: CycElt) -> CycElt:
    """Value of (t d/dt)^{k-1} [-t/(1-t)] at t = a root of unity != 1.

    The family P(t)/(1-t)^j is stable under t d/dt, which sends P to
    t P' (1-t) + j t P, whose t^i coefficient is i p_i + (j + 1 - i) p_{i-1};
    differentiate formally on integer coefficients and evaluate exactly.
    """
    num = [0, -1]  # -t
    for j in range(1, k):
        num = [i * p + (j + 1 - i) * q for i, (p, q) in enumerate(zip(num + [0], [0] + num))]
    L = zeta_val.conductor
    value = CycElt.zero(L)
    for c in reversed(num):
        value = value * zeta_val + c
    return value * ((CycElt.one(L) - zeta_val) ** k).inverse()


def _dlog_gamma_pullback(k: int, pt: TorsionPoint, prec: Fraction, grid: int) -> QSeries:
    """(t d/dt)^{k-1} of t d/dt log gamma, pulled back at t = zeta^b q^{a/N}.

    The expansion -t/(1-t) - sum_{n,m>=1} q^{nm}(t^m - t^{-m}) picks up a
    factor (+-m)^{k-1} per term under D^{k-1}, added as an integer at
    column j = +-bm of its row; the rational part is a geometric q-series
    when a != 0, and is evaluated in the field and added after the
    reduction when a = 0.
    """
    N = pt.level
    a, b = pt.a, pt.b
    L = N if N > 1 else 1
    t_idx = _to_idx(prec, grid)
    if t_idx <= 0:
        return QSeries.zero(grid, prec, L)
    rows = [[0] * L for _ in range(t_idx)]  # column j holds zeta_N^j
    step = grid // N
    if a != 0:
        m = 1
        while m * a * step < t_idx:
            rows[m * a * step][b * m % L] -= m ** (k - 1)
            m += 1
    n = 1
    while n * grid - a * step < t_idx:  # smallest exponent contributed at this n
        base_plus = n * grid + a * step
        base_minus = n * grid - a * step
        m = 1
        while True:
            e_plus = m * base_plus
            e_minus = m * base_minus
            if e_minus >= t_idx and e_plus >= t_idx:
                break
            mk = m ** (k - 1)
            if e_plus < t_idx:
                rows[e_plus][b * m % L] -= mk
            if e_minus < t_idx:
                rows[e_minus][-b * m % L] += mk if (k - 1) % 2 == 0 else -mk
            m += 1
        n += 1
    out = _series(grid, 0, [reduce_mod_cyclotomic(r, L) for r in rows], 1, t_idx, L)
    if a == 0:
        out = out + QSeries.monomial(_rational_part_derivative(k, _zeta(N, b)), 0, grid, prec)
    return out


def dlog_d_eisenstein(pt: TorsionPoint, c: int, k: int, prec) -> QSeries:
    """The weight-k Eisenstein pullback of D^{k-1} dlog of the c-theta.

    Equals delta_{k,1} (c - c^2)/2 + c^2 G_k(pt) - c^k (G_k(c pt) -
    delta_{k,1} w), where G_k is the pulled-back (k-1)-fold D-derivative
    of dlog gamma at the representative in the fundamental annulus and
    w = floor(a c / N) counts the annulus reductions of the scaled
    point.  For k = 1, dlog gamma drops by 1 under t -> q t, hence the
    w term; for k >= 2 the derivatives are q-periodic and no correction
    arises.
    """
    _check_c(pt, c)
    if k < 1:
        raise QExpError("weight k must be >= 1")
    N = pt.level
    prec = Fraction(prec)
    grid = N
    g1 = _dlog_gamma_pullback(k, pt, prec, grid).scale(Fraction(c * c))
    g2 = _dlog_gamma_pullback(k, pt.scaled(c), prec, grid).scale(Fraction(c**k))
    out = g1 - g2
    if k == 1:
        w = (pt.a * c) // N
        const = Fraction(c - c * c, 2) + c * w
        if const:
            out = out + QSeries.monomial(
                CycElt.rational(const, out.conductor), 0, grid, prec
            )
    return out


# ---------------------------------------------------------------------------
# Eisenstein assembly


def eisenstein_00(k: int, c: int, a: int, prec) -> QSeries:
    """The c-Eisenstein series at (0,0) via the auxiliary-a torsion sum.

    (a^k - 1)^{-1} sum of the c-Eisenstein pullbacks over the nonzero
    a-torsion points; the result is checked to have rational
    coefficients supported on integer exponents and is returned with
    conductor 1.
    """
    if a in (1, -1) or a == 0:
        raise QExpError("auxiliary a must satisfy |a| >= 2")
    if a < 0:
        a = -a
    if gcd(a, c) != 1:
        raise QExpError("(a, c) = 1 is required")
    if gcd(c, 6) != 1:
        raise QExpError("(c, 6) = 1 is required")
    prec = Fraction(prec)
    total = None
    for x in range(a):
        for y in range(a):
            if x == 0 and y == 0:
                continue
            e = dlog_d_eisenstein(TorsionPoint(x, y, a), c, k, prec)
            total = e if total is None else total + e
    total = total.scale(Fraction(1, a**k - 1))
    g = total.grid
    for i, r in enumerate(total.rows):
        if any(r) and ((total.start + i) % g or any(r[1:])):
            raise AssertionError(
                f"torsion sum failed to be rational at q^{Fraction(total.start + i, g)}: "
                f"{total.coeffs[i]!r}"
            )
    # every nonzero row sits at an integer exponent, the lead too, so the
    # rows at integer exponents are every g-th one from the lead
    rows = [r[:1] for r in total.rows[::g]]
    t = ceil(total.trunc_exponent)
    return _series(1, ceil(total.lead_exponent), rows, total.den, t, 1)


def _smallest_unit_scalar(N: int) -> int:
    """Smallest c > 1 with c = 1 mod N and (c, 6) = 1."""
    c = N + 1 if N > 1 else 2
    while gcd(c, 6) != 1 or c == 1:
        c += N if N > 1 else 1
    return c


def rationalized_eisenstein(pt: TorsionPoint, k: int, prec, c: int | None = None) -> QSeries:
    """E^(k) at a torsion point with the auxiliary c eliminated (k != 2).

    For c = 1 mod N the c-series equals (c^2 - c^k) E^(k), an exact
    rational multiple, so no root extraction is needed.
    """
    if k == 2:
        raise GatedFeatureError(
            "weight-2 rationalized Eisenstein series need the Weierstrass-p "
            "convention and are gated out"
        )
    prec = Fraction(prec)
    if pt.is_zero():
        cc = c if c is not None else 5
        aux = 2 if gcd(2, cc) == 1 else 3
        base = eisenstein_00(k, cc, aux, prec)
        return base.scale(Fraction(1, cc * cc - cc**k))
    if c is None:
        c = _smallest_unit_scalar(pt.level)
    if c % pt.level != 1 % pt.level:
        raise QExpError("c must be 1 mod the level to eliminate the c-twist")
    denom = c * c - c**k
    if denom == 0:  # c = 1, or c = -1 with k even
        raise QExpError(f"c = {c} gives c^2 = c^k at weight {k}, which eliminates nothing")
    return dlog_d_eisenstein(pt, c, k, prec).scale(Fraction(1, denom))


def f_series(k: int, pt: TorsionPoint, prec) -> QSeries:
    """The dual-lattice Eisenstein series: the finite Fourier transform
    N^{-k} sum_{x,y} E^(k)_{x/N,y/N} zeta^{b x - a y} (k != 2).
    """
    if k == 2:
        raise GatedFeatureError(
            "the weight-2 dual Eisenstein series needs the Weierstrass-p "
            "convention and is gated out"
        )
    if k < 1:
        raise QExpError("weight must be >= 1")
    N = pt.level
    prec = Fraction(prec)
    total = None
    for x in range(N):
        for y in range(N):
            e = rationalized_eisenstein(TorsionPoint(x, y, N), k, prec)
            term = e.scale(_zeta(N, pt.b * x - pt.a * y))
            total = term if total is None else total + term
    return total.scale(Fraction(1, N**k))


# ---------------------------------------------------------------------------
# Zeta modular forms


class ZetaParameterError(ValueError):
    def __init__(self, name: str, detail: str):
        self.name = name
        super().__init__(f"{name}: {detail}")


def validate_zeta_parameters(M: int, N: int, k: int, r: int, rp: int):
    """The side conditions on (k, r, r'), each violation named."""
    if not (1 <= r <= k - 1):
        raise ZetaParameterError("r-range", f"need 1 <= r <= k-1, got r={r}, k={k}")
    if not (1 <= rp <= k - 1):
        raise ZetaParameterError(
            "r'-range", f"need 1 <= r' <= k-1, got r'={rp}, k={k}"
        )
    if r != k - 1 and rp != k - 1:
        raise ZetaParameterError("one-of-them", "one of r, r' must equal k-1")
    if (r, rp) in ((2, k - 1), (k - 1, 2), (k - 1, k - 2)):
        # these pairs would need the undefined weight-2 E-factor, so the
        # exclusion is unconditional (for k = 4 it overlaps the M-bullet
        # below and wins)
        raise ZetaParameterError(
            "excluded-pair", f"(r, r') = ({r}, {rp}) is excluded"
        )
    if r == k - 2 and rp == k - 1 and M < 2:
        raise ZetaParameterError(
            "M-at-least-2", "(r, r') = (k-2, k-1) requires M >= 2"
        )


class ZetaModularForm(Record):
    __slots__ = ("M", "N", "k", "r", "rp", "constant", "branches")


def zeta_modular_form(
    M: int, N: int, k: int, r: int, rp: int, prec, constant=Fraction(1)
) -> ZetaModularForm:
    """The product of an F-type and E-type Eisenstein series, per branch.

    When both r = k-1 and r' = k-1 hold, both branch products are
    computed and reported separately.
    """
    validate_zeta_parameters(M, N, k, r, rp)
    prec = Fraction(prec)
    constant = Fraction(constant)
    branches = {}
    if rp == k - 1:
        f_part = f_series(k - r, TorsionPoint(1, 0, M), prec)
        e_part = rationalized_eisenstein(TorsionPoint(0, 1, N), r, prec)
        branches["r'=k-1"] = (f_part * e_part).scale(constant)
    if r == k - 1:
        e_left = rationalized_eisenstein(TorsionPoint(1, 0, M), k - rp, prec)
        e_right = rationalized_eisenstein(TorsionPoint(0, 1, N), rp, prec)
        branches["r=k-1"] = (e_left * e_right).scale(constant)
    return ZetaModularForm(M, N, k, r, rp, constant, branches)
