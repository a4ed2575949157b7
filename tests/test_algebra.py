import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arw import algebra, field, lattice
from arw.algebra import (
    AlgPoly,
    TrigPoly,
    algebraize,
    algebraize_system,
    chebyshev_pair,
    circle_relations,
    determinant,
    example_trig_poly,
    gradient_system_jacobian,
    homogenize,
    verify_csd_identities,
)
from arw.errors import DegreeTooSmall, ExpansionBudgetExceeded, ValidationError


def poly2(terms):
    return AlgPoly(2, {e: Fraction(c) for e, c in terms.items()})


def test_chebyshev_low_degrees():
    C1, S1 = chebyshev_pair(1)
    assert C1 == poly2({(1, 0): 1})
    assert S1 == poly2({(0, 1): 1})
    C2, S2 = chebyshev_pair(2)
    assert C2 == poly2({(2, 0): 1, (0, 2): -1})
    assert S2 == poly2({(1, 1): 2})
    C3, S3 = chebyshev_pair(3)
    assert C3 == poly2({(3, 0): 1, (1, 2): -3})
    assert S3 == poly2({(2, 1): 3, (0, 3): -1})


def test_bad_arguments_raise_validation_error():
    calls = [
        lambda: chebyshev_pair(-1),
        lambda: verify_csd_identities(0),
        lambda: example_trig_poly(0, 2, 1),
        lambda: example_trig_poly(2, 0, 3),
    ]
    for call in calls:
        with pytest.raises(ValidationError):
            call()


def test_chebyshev_integer_coeffs_and_base_point():
    for D in range(0, 20):
        C, S = chebyshev_pair(D)
        for coef in list(C.terms.values()) + list(S.terms.values()):
            assert Fraction(coef).denominator == 1
        assert C.eval([Fraction(1), Fraction(0)]) == 1
        assert S.eval([Fraction(1), Fraction(0)]) == 0
        assert C.is_homogeneous() and S.is_homogeneous()
        if D >= 1:
            assert C.degree() == D == S.degree()


def test_csd_identities_exact():
    report = verify_csd_identities(12)
    assert report.passed
    # spot-check (a) at rational points
    for D in (2, 5):
        C, S = chebyshev_pair(D)
        for c, s in ((Fraction(1, 3), Fraction(2, 5)), (Fraction(-2, 7), Fraction(1, 2))):
            lhs = C.eval([c, s]) ** 2 + S.eval([c, s]) ** 2
            assert lhs == (c * c + s * s) ** D


def test_csd_determinant_d1():
    C1, _ = chebyshev_pair(1)
    c = AlgPoly.variable(2, 0)
    s = AlgPoly.variable(2, 1)
    det = determinant([[C1.diff(0), C1.diff(1)], [c, s]])
    assert det == poly2({(0, 1): 1})  # = 1 * S_1


def test_algebraize_single_cosine():
    T = TrigPoly.build(2, {(1, 0): (Fraction(1), Fraction(0))})
    P = algebraize(T)
    assert P == AlgPoly(4, {(1, 0, 0, 0): Fraction(1)})


def test_algebraize_sine_is_SD():
    for D in (1, 2, 4):
        T = TrigPoly.build(1, {(D,): (Fraction(0), Fraction(1))})
        _, SD = chebyshev_pair(D)
        assert algebraize(T) == SD


def test_algebraize_angle_addition():
    T = TrigPoly.build(2, {(1, 1): (Fraction(1), Fraction(0))})
    P = algebraize(T)
    assert P == AlgPoly(4, {(1, 0, 1, 0): Fraction(1), (0, 1, 0, 1): Fraction(-1)})


def test_algebraize_roundtrip_random():
    rng = np.random.default_rng(10)
    freqs = [(1, 0), (0, 2), (1, 1), (2, 1)]
    T = TrigPoly.build(
        2,
        {
            lam: (Fraction(int(rng.integers(-3, 4)), 2), Fraction(int(rng.integers(-3, 4)), 3))
            for lam in freqs
        },
    )
    P = algebraize(T)
    assert P.degree() == T.degree()
    for x in rng.random((100, 2)):
        values = []
        for xi in x:
            values += [math.cos(2 * math.pi * xi), math.sin(2 * math.pi * xi)]
        assert abs(T.eval(x) - float(P.eval(values))) < 1e-9


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)
def test_algebraize_linear(a, b):
    T1 = TrigPoly.build(2, {(1, 0): (Fraction(1), Fraction(2))})
    T2 = TrigPoly.build(2, {(1, 1): (Fraction(-1), Fraction(1, 2))})
    combo = T1.scale(a).add(T2.scale(b))
    lhs = algebraize(combo)
    rhs = algebraize(T1).scale(a) + algebraize(T2).scale(b)
    assert lhs == rhs


def test_homogeneous_input_homogeneous_output():
    # both frequencies have l1 norm 2
    T = TrigPoly.build(2, {(1, 1): (Fraction(3), Fraction(1)), (2, 0): (Fraction(1), Fraction(0))})
    P = algebraize(T)
    assert P.is_homogeneous() and P.degree() == 2


def test_sample_embedding_degree():
    shell = lattice.enumerate_shell(2, 25)
    sample = field.sample_coefficients(shell, 1, 0)
    T = TrigPoly.from_sample(sample)
    assert T.degree() <= math.ceil(math.sqrt(2) * math.sqrt(25))
    rng = np.random.default_rng(2)
    for x in rng.random((20, 2)):
        assert T.eval(x) == pytest.approx(field.eval_point(sample, x), abs=1e-9)


def test_algebraize_system_appends_circle_relations():
    T = TrigPoly.build(2, {(1, 0): (Fraction(1), Fraction(0))})
    system = algebraize_system(T)
    assert len(system) == 3
    assert system[1:] == circle_relations(2)


def test_homogenize():
    rel = circle_relations(1)[0]  # c^2 + s^2 - 1
    hom = homogenize(rel, 2)
    assert hom == AlgPoly(3, {(0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1), (2, 0, 0): Fraction(-1)})
    assert hom.substitute_one(0) == rel

    c = AlgPoly.variable(2, 0)
    lifted = homogenize(c, 3)
    assert lifted == AlgPoly(3, {(2, 1, 0): Fraction(1)})

    C2, _ = chebyshev_pair(2)
    assert homogenize(C2, 2).substitute_one(0) == C2
    for exp in homogenize(C2, 2).terms:
        assert exp[0] == 0  # already homogeneous: no padding needed

    with pytest.raises(DegreeTooSmall):
        homogenize(C2, 1)


def test_gradient_system_jacobian_d1():
    T = example_trig_poly(1, 1, 2)
    jac, power = gradient_system_jacobian(T)
    assert power == 1
    assert jac == poly2({(0, 1): 2})  # (2 pi) * 2 s = 4 pi S_1


def test_gradient_system_jacobian_product_identity():
    for d, D in ((1, 2), (2, 2), (2, 4)):
        T = example_trig_poly(d, D, d + 1)
        jac, power = gradient_system_jacobian(T)
        assert power == d
        expected = AlgPoly.constant(2 * d, Fraction(2 * D**2)) ** d
        for j in range(d):
            _, S = chebyshev_pair(D)
            expected = expected * S.embed(2 * d, [2 * j, 2 * j + 1])
        assert jac == expected


def test_gradient_system_jacobian_constant():
    T = TrigPoly.constant(2, Fraction(5))
    jac, power = gradient_system_jacobian(T)
    assert jac.is_zero()
    assert power == 2


def test_jacobian_budget():
    T = example_trig_poly(2, 4, 3)
    with pytest.raises(ExpansionBudgetExceeded):
        gradient_system_jacobian(T, budget=10)
    # the smallest budget each Jacobian accepts: one unit per pair of
    # terms multiplied in the cofactor expansion
    for args, smallest in (((2, 2, 3), 8), ((2, 4, 3), 20), ((3, 2, 4), 20)):
        T = example_trig_poly(*args)
        gradient_system_jacobian(T, budget=smallest)
        with pytest.raises(ExpansionBudgetExceeded):
            gradient_system_jacobian(T, budget=smallest - 1)


def test_example_value_poly_positive_on_circles():
    # sum of S_D(c_j, s_j) + A cannot vanish on the circles when A > d:
    # |S_D| <= 1 there by the Pythagorean identity
    d, D, A = 2, 3, 3
    C, S = chebyshev_pair(D)
    for theta in np.linspace(0, 2 * math.pi, 40, endpoint=False):
        c, s = math.cos(theta), math.sin(theta)
        val = float(C.eval([c, s])) ** 2 + float(S.eval([c, s])) ** 2
        assert val == pytest.approx(1.0, abs=1e-12)
        assert abs(float(S.eval([c, s]))) <= 1.0 + 1e-12
    assert A > d  # hence sum S_D + A >= A - d > 0 on the circles


def test_trigpoly_canonical_representatives():
    T = TrigPoly.build(2, {(-1, 2): (Fraction(1), Fraction(1))})
    (lam, (cc, sc)), = T.terms.items()
    assert lam == (1, -2)
    assert cc == 1 and sc == -1  # sin flips under negation


def test_constructors_combine_repeated_terms():
    # pairs may repeat a key: sums in first-seen key order, zero sums dropped
    P = AlgPoly(2, [((1, 0), Fraction(1)), ((0, 1), 2), ((1, 0), Fraction(-1)), ((2, 0), 3),
                    ((0, 1), 1)])
    assert list(P.terms.items()) == [((0, 1), 3), ((2, 0), 3)]
    assert AlgPoly(2, {(1, 0): 2, (0, 1): 0}).terms == {(1, 0): 2}
    with pytest.raises(ValueError):
        AlgPoly(2, [((1, 0, 0), 1)])
    # (-1, 0) is canonicalized to (1, 0) first, flipping its sin coefficient
    T = TrigPoly.build(2, [((1, 0), (1, 2)), ((0, 1), (5, 0)), ((-1, 0), (-1, 3)), ((0, 0), (4, 0))])
    assert list(T.terms.items()) == [((1, 0), (0, -1)), ((0, 1), (5, 0)), ((0, 0), (4, 0))]
    assert T.add(T.scale(-1)).terms == {}


def test_trigpoly_degree():
    T = TrigPoly.build(2, {(2, 1): (Fraction(1), Fraction(0)), (1, 0): (Fraction(0), Fraction(1))})
    assert T.degree() == 3
    assert TrigPoly.constant(2, Fraction(4)).degree() == 0


def _coefficients(*polys):
    return [coef for P in polys for coef in P.terms.values()]


def test_integer_coefficients_stay_ints():
    jac, _ = gradient_system_jacobian(example_trig_poly(3, 4, 4))
    for coef in _coefficients(*chebyshev_pair(32), *circle_relations(3), jac):
        assert type(coef) is int
    # a Fraction given by the caller is kept, and stays non-integral
    third = Fraction(1, 3)
    T = TrigPoly.build(2, {(1, 0): (third, 0), (1, 1): (0, third), (0, 0): (third, 0)})
    for P in (algebraize(T), gradient_system_jacobian(T)[0]):
        coefs = _coefficients(P)
        assert all(isinstance(coef, (int, Fraction)) for coef in coefs)
        assert any(isinstance(coef, Fraction) and coef.denominator > 1 for coef in coefs)


def test_chebyshev_pair_is_the_pair_the_suite_checks(monkeypatch):
    seen = []
    recurrence = algebra._chebyshev_pairs

    def spy(D_max):
        for pair in recurrence(D_max):
            seen.append(pair)
            yield pair

    monkeypatch.setattr(algebra, "_chebyshev_pairs", spy)
    assert verify_csd_identities(32).passed
    monkeypatch.undo()
    assert len(seen) == 33
    for D, pair in enumerate(seen):
        assert chebyshev_pair(D) == pair


def test_jacobian_examples_repr_digest():
    # the sha256 of these reprs when every coefficient was a Fraction
    lines = []
    for d in (2, 3, 4):
        for D in range(1, 9):
            jac, power = gradient_system_jacobian(example_trig_poly(d, D, d + 1))
            lines.append(f"{d},{D},{power}:{jac!r}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "24c34ef6ddb82c1e28408c51b067567b7c2b3a85aff163397aa0dfc974e302ea"
