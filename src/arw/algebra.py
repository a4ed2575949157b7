"""Exact algebraization of trigonometric polynomials.

A trigonometric polynomial in d variables becomes an ordinary polynomial
in 2d variables (c_1, s_1, ..., c_d, s_d) via c_j = cos(2 pi x_j),
s_j = sin(2 pi x_j), together with the circle relations c_j^2 + s_j^2 = 1.
All coefficient arithmetic here is exact.  Integer coefficients stay Python
ints, so a `Fraction` appears only where a caller passes one; since
`Fraction(3) == 3`, their hashes agree and both print as `3`, a polynomial
compares, hashes and prints the same either way.  Floating point appears
only where a caller passes floats, and at evaluation boundaries.

The cosine/sine pair of a single frequency D in one variable algebraizes
to the classical degree-D homogeneous pair (C_D, S_D) with
C_D^2 + S_D^2 = (c^2 + s^2)^D, and C_D + i S_D = (c + i s)^D.

Terms combine in one place per type: `AlgPoly(nvars, terms)` and
`TrigPoly.build(d, raw)` take a mapping or (key, coefficient) pairs, sum
the coefficients of repeated keys in first-seen key order (`build` after
making each frequency canonical), drop the keys whose sum is zero and
check the arity.  Arithmetic only produces terms and hands them over.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import DegreeTooSmall, ExpansionBudgetExceeded, IdentityFailure, ValidationError

Coeff = Union[Fraction, int, float]
# a mapping, or (key, coefficient) pairs in which a key may repeat
_Terms = Union[Mapping[tuple[int, ...], Coeff], Iterable[tuple[tuple[int, ...], Coeff]]]
_Pair = tuple[Coeff, Coeff]
_PairTerms = Union[Mapping[tuple[int, ...], _Pair], Iterable[tuple[tuple[int, ...], _Pair]]]


class AlgPoly:
    """Sparse polynomial: map from exponent tuples to nonzero coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[_Terms] = None):
        self.nvars = nvars
        acc: dict[tuple[int, ...], Coeff] = {}
        if terms:
            for exp, coef in terms.items() if isinstance(terms, Mapping) else terms:
                if len(exp) != nvars:
                    raise ValueError("exponent arity mismatch")
                exp = tuple(exp)
                acc[exp] = acc[exp] + coef if exp in acc else coef
        self.terms = {exp: coef for exp, coef in acc.items() if coef != 0}

    # -- constructors -------------------------------------------------
    @staticmethod
    def constant(nvars: int, value: Coeff) -> "AlgPoly":
        return AlgPoly(nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(nvars: int, index: int) -> "AlgPoly":
        exp = [0] * nvars
        exp[index] = 1
        return AlgPoly(nvars, {tuple(exp): 1})

    # -- structure ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "AlgPoly(0)"
        bits = []
        for exp in sorted(self.terms, reverse=True):
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(exp) if e)
            coef = self.terms[exp]
            bits.append(f"{coef}" + (f"*{mono}" if mono else ""))
        return "AlgPoly(" + " + ".join(bits) + ")"

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "AlgPoly") -> "AlgPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        return AlgPoly(self.nvars, chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> "AlgPoly":
        return AlgPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "AlgPoly") -> "AlgPoly":
        return self + (-other)

    def scale(self, value: Coeff) -> "AlgPoly":
        if value == 0:
            return AlgPoly(self.nvars)
        return AlgPoly(self.nvars, {e: c * value for e, c in self.terms.items()})

    def __mul__(self, other: "AlgPoly") -> "AlgPoly":
        return self.mul(other)

    def mul(self, other: "AlgPoly", budget: Optional[list[int]] = None) -> "AlgPoly":
        """Product; `budget` is a one-element countdown of monomial merges
        (one per pair of terms), raising ExpansionBudgetExceeded when it
        would go negative."""
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        if budget is not None:
            budget[0] -= len(self.terms) * len(other.terms)
            if budget[0] < 0:
                raise ExpansionBudgetExceeded("monomial budget exhausted")
        return AlgPoly(
            self.nvars,
            (
                (tuple(map(operator.add, e1, e2)), c1 * c2)
                for e1, c1 in self.terms.items()
                for e2, c2 in other.terms.items()
            ),
        )

    def __pow__(self, power: int) -> "AlgPoly":
        if power < 0:
            raise ValueError("negative power")
        result = AlgPoly.constant(self.nvars, 1)
        for _ in range(power):
            result = result * self
        return result

    def diff(self, var: int) -> "AlgPoly":
        return AlgPoly(
            self.nvars,
            (
                (exp[:var] + (exp[var] - 1,) + exp[var + 1 :], coef * exp[var])
                for exp, coef in self.terms.items()
                if exp[var]
            ),
        )

    # -- variable plumbing ---------------------------------------------
    def embed(self, nvars: int, var_map: Sequence[int]) -> "AlgPoly":
        """Rename variables: old index i becomes var_map[i]."""

        def moved(exp: tuple[int, ...]) -> tuple[int, ...]:
            new = [0] * nvars
            for i, e in enumerate(exp):
                new[var_map[i]] += e
            return tuple(new)

        return AlgPoly(nvars, ((moved(exp), coef) for exp, coef in self.terms.items()))

    def substitute_one(self, var: int) -> "AlgPoly":
        """Set one variable to 1 and drop it."""
        return AlgPoly(
            self.nvars - 1,
            ((exp[:var] + exp[var + 1 :], coef) for exp, coef in self.terms.items()),
        )

    # -- evaluation -----------------------------------------------------
    def eval(self, values: Sequence[Coeff]):
        total: Coeff = 0
        for exp, coef in self.terms.items():
            term = coef
            for v, e in zip(values, exp):
                if e:
                    term = term * v**e
            total = total + term
        return total


def _chebyshev_pairs(D_max: int) -> Iterator[tuple[AlgPoly, AlgPoly]]:
    """(C_D, S_D) for D = 0, 1, ..., D_max, by the angle-addition recurrence
    C_(D+1) + i S_(D+1) = (c + i s) (C_D + i S_D)."""
    c = AlgPoly.variable(2, 0)
    s = AlgPoly.variable(2, 1)
    C, S = AlgPoly.constant(2, 1), AlgPoly(2)
    yield C, S
    for _ in range(D_max):
        C, S = c * C - s * S, s * C + c * S
        yield C, S


def chebyshev_pair(D: int) -> tuple[AlgPoly, AlgPoly]:
    """(C_D, S_D): algebraizations of cos(2 pi D x) and sin(2 pi D x) in the
    two variables (c, s), by the angle-addition recurrence."""
    if D < 0:
        raise ValidationError("D must be >= 0")
    for pair in _chebyshev_pairs(D):  # keeps only the last pair alive
        pass
    return pair


@dataclass(frozen=True)
class TrigPoly:
    """Trigonometric polynomial with rational (or real) coefficients.

    `terms` maps a canonical frequency (first nonzero coordinate positive,
    or the zero vector for the constant term) to its (cos, sin) coefficient
    pair.  Degree is the max l1 norm of active frequencies.
    """

    d: int
    terms: dict[tuple[int, ...], tuple[Coeff, Coeff]] = field(default_factory=dict)

    @staticmethod
    def build(d: int, raw: _PairTerms) -> "TrigPoly":
        out: dict[tuple[int, ...], tuple[Coeff, Coeff]] = {}
        for lam, (cc, sc) in raw.items() if isinstance(raw, Mapping) else raw:
            lam = tuple(int(v) for v in lam)
            if len(lam) != d:
                raise ValueError("frequency arity mismatch")
            if any(lam):
                first = next(v for v in lam if v)
                if first < 0:
                    lam = tuple(-v for v in lam)
                    sc = -sc
            else:
                if sc != 0:
                    raise ValueError("sin coefficient of the zero frequency must vanish")
            acc_c, acc_s = out.get(lam, (0, 0))
            out[lam] = (acc_c + cc, acc_s + sc)
        clean = {lam: cs for lam, cs in out.items() if cs[0] != 0 or cs[1] != 0}
        return TrigPoly(d=d, terms=clean)

    @staticmethod
    def constant(d: int, value: Coeff) -> "TrigPoly":
        return TrigPoly.build(d, {(0,) * d: (value, 0)})

    @staticmethod
    def from_sample(sample) -> "TrigPoly":
        """Lossless embedding of a wave sample (real coefficients)."""
        norm = sample.normalization
        raw = {}
        for lam, a, b in zip(sample.shell.half_points, sample.a, sample.b):
            raw[tuple(int(v) for v in lam)] = (norm * float(a), norm * float(b))
        return TrigPoly.build(sample.shell.d, raw)

    def degree(self) -> int:
        return max((sum(abs(v) for v in lam) for lam in self.terms), default=0)

    def add(self, other: "TrigPoly") -> "TrigPoly":
        return TrigPoly.build(self.d, chain(self.terms.items(), other.terms.items()))

    def scale(self, value: Coeff) -> "TrigPoly":
        return TrigPoly.build(
            self.d, {lam: (cc * value, sc * value) for lam, (cc, sc) in self.terms.items()}
        )

    def derivative_scaled(self, axis: int) -> "TrigPoly":
        """U with dT/dx_axis = 2 pi U; keeps coefficients rational."""
        raw: dict[tuple[int, ...], tuple[Coeff, Coeff]] = {}
        for lam, (cc, sc) in self.terms.items():
            m = lam[axis]
            if m == 0:
                continue
            # d/dx [cc cos + sc sin] = 2 pi m (-cc sin + sc cos)
            raw[lam] = (sc * m, -(cc * m))
        return TrigPoly.build(self.d, raw)

    def eval(self, x: Sequence[float]) -> float:
        total = 0.0
        for lam, (cc, sc) in self.terms.items():
            phase = 2.0 * math.pi * sum(l * xi for l, xi in zip(lam, x))
            total += float(cc) * math.cos(phase) + float(sc) * math.sin(phase)
        return total


def algebraize(T: TrigPoly) -> AlgPoly:
    """The polynomial P with T(x) = P(cos 2 pi x_1, sin 2 pi x_1, ...).

    Variable order: (c_1, s_1, c_2, s_2, ..., c_d, s_d).  Linear in T, and
    degree-preserving; homogeneous T yields homogeneous P.
    """
    n = 2 * T.d
    out = AlgPoly(n)
    for lam, (cc, sc) in T.terms.items():
        re = AlgPoly.constant(n, 1)
        im = AlgPoly(n)
        for axis, m in enumerate(lam):
            if m == 0:
                continue
            # (c + i s)^|m| on this axis; m < 0 conjugates it
            pre, pim = (P.embed(n, [2 * axis, 2 * axis + 1]) for P in chebyshev_pair(abs(m)))
            if m < 0:
                pim = -pim
            re, im = re * pre - im * pim, re * pim + im * pre
        out = out + re.scale(cc) + im.scale(sc)
    return out


def circle_relations(d: int) -> list[AlgPoly]:
    """c_j^2 + s_j^2 - 1 for each coordinate, in 2d variables."""
    out = []
    for j in range(d):
        c = AlgPoly.variable(2 * d, 2 * j)
        s = AlgPoly.variable(2 * d, 2 * j + 1)
        out.append(c * c + s * s - AlgPoly.constant(2 * d, 1))
    return out


def algebraize_system(polys: Union[TrigPoly, Iterable[TrigPoly]]) -> list[AlgPoly]:
    """Algebraizations of the given polynomials followed by the d circle
    relations."""
    if isinstance(polys, TrigPoly):
        polys = [polys]
    polys = list(polys)
    if not polys:
        raise ValueError("need at least one polynomial")
    d = polys[0].d
    if any(p.d != d for p in polys):
        raise ValueError("dimension mismatch")
    return [algebraize(p) for p in polys] + circle_relations(d)


def homogenize(P: AlgPoly, formal_degree: int) -> AlgPoly:
    """Pad every monomial with the new first variable z0 up to
    formal_degree; substituting z0 = 1 recovers P."""
    if formal_degree < P.degree():
        raise DegreeTooSmall(f"formal degree {formal_degree} < deg = {P.degree()}")
    return AlgPoly(
        P.nvars + 1, (((formal_degree - sum(exp),) + exp, coef) for exp, coef in P.terms.items())
    )


def determinant(matrix: Sequence[Sequence[AlgPoly]], budget: int = 10**6) -> AlgPoly:
    """Exact determinant by cofactor expansion with zero pruning and a
    monomial budget."""
    size = len(matrix)
    if size == 0:
        raise ValueError("empty matrix")
    nvars = matrix[0][0].nvars
    counter = [budget]

    def minor(rows: tuple[int, ...], cols: tuple[int, ...]) -> AlgPoly:
        if len(rows) == 1:
            return matrix[rows[0]][cols[0]]
        # expand along the row with the most zero entries
        best_row = max(
            range(len(rows)),
            key=lambda ri: sum(matrix[rows[ri]][c].is_zero() for c in cols),
        )
        row = rows[best_row]
        rest_rows = rows[:best_row] + rows[best_row + 1 :]
        total = AlgPoly(nvars)
        for ci, col in enumerate(cols):
            entry = matrix[row][col]
            if entry.is_zero():
                continue
            sub = minor(rest_rows, cols[:ci] + cols[ci + 1 :])
            term = entry.mul(sub, counter)
            if (best_row + ci) % 2:
                term = -term
            total = total + term
        return total

    return minor(tuple(range(size)), tuple(range(size)))


def gradient_system_jacobian(T: TrigPoly, budget: int = 10**6) -> tuple[AlgPoly, int]:
    """Jacobian of the algebraized gradient system of T.

    The system interleaves, per coordinate, the algebraization of dT/dx_j
    and the j-th circle relation; the Jacobian is taken with respect to
    (c_1, s_1, ..., c_d, s_d).  Each gradient row carries one factor 2 pi,
    which is tracked symbolically: the return value is (P, k) meaning
    (2 pi)^k * P with P exact rational.
    """
    d = T.d
    circles = circle_relations(d)
    rows = [row for j in range(d) for row in (algebraize(T.derivative_scaled(j)), circles[j])]
    matrix = [[row.diff(v) for v in range(2 * d)] for row in rows]
    return determinant(matrix, budget=budget), d


def example_trig_poly(d: int, D: int, A: Coeff) -> TrigPoly:
    """sum_j sin(2 pi D x_j) + A: the fully regular workhorse example."""
    if d < 1 or D < 1:
        raise ValidationError(f"example_trig_poly needs d >= 1 and D >= 1, got d={d}, D={D}")
    raw: dict[tuple[int, ...], tuple[Coeff, Coeff]] = {(0,) * d: (A, 0)}
    for j in range(d):
        lam = [0] * d
        lam[j] = D
        raw[tuple(lam)] = (0, 1)
    return TrigPoly.build(d, raw)


def jacobian_example_holds(d: int, D: int) -> bool:
    """Whether the gradient-system Jacobian of example_trig_poly(d, D, d + 1)
    is exactly (2 pi)^d * (2 D^2)^d * prod_j S_D(c_j, s_j)."""
    jac, power = gradient_system_jacobian(example_trig_poly(d, D, d + 1))
    _, S = chebyshev_pair(D)
    expected = AlgPoly.constant(2 * d, 2 * D**2) ** d
    for j in range(d):
        expected = expected * S.embed(2 * d, [2 * j, 2 * j + 1])
    return jac == expected and power == d


def _binomial_pair(D: int) -> tuple[AlgPoly, AlgPoly]:
    """(Re, Im) of (c + i s)^D by direct binomial expansion; independent of
    the recurrence used in chebyshev_pair."""
    re_terms: dict[tuple[int, int], Coeff] = {}
    im_terms: dict[tuple[int, int], Coeff] = {}
    for k in range(D + 1):
        coef = math.comb(D, k)
        if k % 4 == 1:
            im_terms[(D - k, k)] = coef
        elif k % 4 == 2:
            re_terms[(D - k, k)] = -coef
        elif k % 4 == 3:
            im_terms[(D - k, k)] = -coef
        else:
            re_terms[(D - k, k)] = coef
    return AlgPoly(2, re_terms), AlgPoly(2, im_terms)


@dataclass(frozen=True)
class CsdReport:
    """Outcome of the exact identity suite for the (C_D, S_D) family."""

    d_max: int
    pythagoras: dict[int, bool]  # C^2 + S^2 = (c^2 + s^2)^D
    determinant: dict[int, bool]  # det([[dC/dc, dC/ds], [c, s]]) = D * S
    factorization: dict[int, bool]  # C + i S = (c + i s)^D

    @property
    def passed(self) -> bool:
        return all(self.pythagoras.values()) and all(self.determinant.values()) and all(
            self.factorization.values()
        )


def verify_csd_identities(D_max: int) -> CsdReport:
    """Exact checks of the three structural identities for 1 <= D <= D_max.

    The factorization identity implies that the only common complex zero of
    (C_D, S_D) is the origin: C +- i S = (c +- i s)^D vanishing forces
    c = +- i s, and with the Pythagorean identity, c = s = 0.
    Raises IdentityFailure on any mismatch (which would be a bug).
    """
    if D_max < 1:
        raise ValidationError("D_max must be >= 1")
    c = AlgPoly.variable(2, 0)
    s = AlgPoly.variable(2, 1)
    circle = c * c + s * s
    circle_power = AlgPoly.constant(2, 1)  # (c^2 + s^2)^D, one factor per step
    pyth: dict[int, bool] = {}
    det: dict[int, bool] = {}
    fact: dict[int, bool] = {}
    pairs = _chebyshev_pairs(D_max)
    next(pairs)  # D = 0
    for D, (C, S) in enumerate(pairs, start=1):
        circle_power = circle_power * circle
        pyth[D] = (C * C + S * S) == circle_power
        jac = determinant([[C.diff(0), C.diff(1)], [c, s]])
        det[D] = jac == S.scale(D)
        bre, bim = _binomial_pair(D)
        fact[D] = C == bre and S == bim
        if not (pyth[D] and det[D] and fact[D]):
            raise IdentityFailure(f"identity failure at D={D}")
    return CsdReport(d_max=D_max, pythagoras=pyth, determinant=det, factorization=fact)
