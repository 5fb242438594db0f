import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamari_balance.polynomials import ONE, Monomial, Polynomial


def x_to(e):
    return Monomial({"x": e})


def test_monomial_basics():
    m = Monomial({"x": 2, "y": 1})
    assert m.exponent("x") == 2
    assert m.exponent("z") == 0
    assert m.degree() == 3
    assert m.degree(exclude=frozenset("y")) == 2
    assert (m * Monomial({"y": 2})).pairs == (("x", 2), ("y", 3))
    assert ONE.is_one
    with pytest.raises(ValueError):
        Monomial({"x": 0})
    with pytest.raises(ValueError):
        Monomial({"x": -1})


def test_polynomial_normalizes():
    p = Polynomial({x_to(1): 2, x_to(2): 0})
    assert p.coefficient(x_to(1)) == 2
    assert p.coefficient(x_to(2)) == 0
    assert Polynomial({x_to(1): 1}) - Polynomial({x_to(1): 1}) == 0
    assert Polynomial.zero().is_zero


def test_arithmetic_examples():
    x = Polynomial.variable("x")
    y = Polynomial.variable("y")
    assert (x + y) * (x + y) == x * x + 2 * x * y + y * y
    assert (x + 1) * (x - 1) == x * x - 1
    assert (x + y) ** 3 == (
        x**3 + 3 * x * x * y + 3 * x * y * y + y**3
    )
    assert x**0 == 1
    with pytest.raises(ValueError):
        x ** (-1)


monomials = st.dictionaries(
    st.sampled_from("xyz"), st.integers(1, 3), max_size=2
).map(Monomial)
polynomials = st.dictionaries(monomials, st.integers(-3, 3), max_size=4).map(
    Polynomial
)


@given(polynomials, polynomials, polynomials)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + 0 == p
    assert p * 1 == p
    assert p - p == 0
    assert p * 0 == 0


@given(polynomials, st.integers(0, 4))
def test_pow_matches_repeated_multiplication(p, e):
    expected = Polynomial.constant(1)
    for _ in range(e):
        expected = expected * p
    assert p**e == expected


def test_truncate_ignores_markers():
    xi = Polynomial.variable("xi", markers=("xi",))
    x = Polynomial.variable("x", markers=("xi",))
    p = x * x * xi + x**3
    assert p.truncate(2) == x * x * xi
    assert p.truncate(3) == p
    assert p.truncate(1).is_zero
    assert p.min_counting_degree() == 2
    assert p.max_counting_degree() == 3


@given(polynomials, polynomials, st.integers(0, 5))
def test_truncate_commutes_with_multiplication(p, q, d):
    assert (p * q).truncate(d) == (p.truncate(d) * q.truncate(d)).truncate(d)


def test_substitute_examples():
    x = Polynomial.variable("x")
    y = Polynomial.variable("y")
    p = x * x + x * y
    result = p.substitute({"x": x + y, "y": 1})
    assert result == (x + y) * (x + y) + (x + y)
    with pytest.raises(ValueError, match="unassigned"):
        p.substitute({"x": x})
    assert p.substitute({"x": x, "y": y}) == p


def test_substitute_requires_all_variables_listed():
    p = Polynomial.variable("x") + Polynomial.variable("y")
    with pytest.raises(ValueError, match="y"):
        p.substitute({"x": 1})


@settings(max_examples=50)
@given(polynomials, polynomials, polynomials)
def test_substitution_composes(p, a, b):
    direct = p.substitute({"x": a, "y": b, "z": 1})
    two_step = p.substitute(
        {"x": Polynomial.variable("u"), "y": Polynomial.variable("v"), "z": 1}
    ).substitute({"u": a, "v": b})
    assert direct == two_step


@settings(max_examples=60)
@given(polynomials, st.integers(0, 4))
def test_truncation_commutes_with_positive_degree_substitution(p, d):
    x = Polynomial.variable("x")
    y = Polynomial.variable("y")
    assignment = {"x": x * x + x * y, "y": y, "z": x * y}
    full = p.substitute(assignment).truncate(d)
    pre = p.truncate(d).substitute(assignment).truncate(d)
    assert full == pre


def test_specialize_partial_assignment():
    x = Polynomial.variable("x")
    y = Polynomial.variable("y")
    p = 4 * x * x * y + 2 * x**3 + x**4
    assert p.specialize({"y": 0}) == 2 * x**3 + x**4
    assert p.specialize({"y": 1}) == 4 * x * x + 2 * x**3 + x**4
    assert p.specialize({}) == p
    with pytest.raises(TypeError):
        p.specialize({"y": Polynomial.variable("y")})


def test_collect_groups_by_exponent():
    x = Polynomial.variable("x", markers=("xi",))
    xi = Polynomial.variable("xi", markers=("xi",))
    p = x * xi + x * x * xi + x * x
    groups = p.collect("xi")
    assert groups[0] == x * x
    assert groups[1] == x + x * x
    assert set(groups) == {0, 1}


def test_display_is_graded_lex_and_stable():
    x = Polynomial.variable("x")
    y = Polynomial.variable("y")
    p = x * x - 3 * x * y + 1
    assert str(p) == "1 - 3*x*y + x^2"
    assert str(Polynomial.zero()) == "0"
    assert str(-x) == "-x"
    assert str(2 * x * y**2) == "2*x*y^2"
    series_term = 4 * x * x * y + 2 * x**3 + 4 * x * x * y * y + 4 * x**3 * y + x**4
    assert str(series_term) == "4*x^2*y + 2*x^3 + 4*x^2*y^2 + 4*x^3*y + x^4"


def test_display_groups_by_counting_degree_first():
    xi = Polynomial.variable("xi", markers=("xi",))
    x = Polynomial.variable("x", markers=("xi",))
    p = x * xi**2 + x * x + x * xi
    assert str(p) == "x*xi + x*xi^2 + x^2"


# sympy is a test-only oracle: these tests skip where it is missing.
@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def to_sympy(sp, p):
    return sp.Add(
        *(
            coeff * sp.Mul(*(sp.Symbol(var) ** exp for var, exp in mono.pairs))
            for mono, coeff in p.items()
        )
    )


def sympy_terms(sp, expr):
    """``{Monomial: coefficient}`` of an expanded sympy polynomial."""
    expr = sp.expand(expr)
    gens = sorted(expr.free_symbols, key=str)
    if not gens:
        return {ONE: int(expr)} if expr != 0 else {}
    return {
        Monomial({str(g): e for g, e in zip(gens, exps) if e}): int(coeff)
        for exps, coeff in sp.Poly(expr, *gens).terms()
    }


def from_sympy(sp, expr, markers=()):
    return Polynomial(sympy_terms(sp, expr), markers)


marker_sets = st.sampled_from(["", "z", "yz"])


@given(st.dictionaries(monomials, st.integers(-3, 3), max_size=8), marker_sets)
def test_sorted_terms_orders_by_counting_then_total_degree(terms, markers):
    p = Polynomial(terms, markers)
    want = sorted(
        p.items(),
        key=lambda item: (
            item[0].degree(exclude=frozenset(markers)),
            item[0].degree(),
            item[0].pairs,
        ),
    )
    assert p.sorted_terms() == want


@settings(max_examples=60, deadline=None)
@given(polynomials, polynomials)
def test_sum_and_product_match_sympy(sp, p, q):
    assert p + q == from_sympy(sp, to_sympy(sp, p) + to_sympy(sp, q))
    assert p * q == from_sympy(sp, to_sympy(sp, p) * to_sympy(sp, q))
    assert p * 3 == from_sympy(sp, to_sympy(sp, p) * 3)
    assert (p * 0).is_zero


@settings(max_examples=40, deadline=None)
@given(polynomials, polynomials, polynomials, st.integers(-2, 2))
def test_substitute_matches_sympy(sp, p, a, b, c):
    x, y, z = sp.symbols("x y z")
    want = to_sympy(sp, p).subs(
        {x: to_sympy(sp, a), y: to_sympy(sp, b), z: c}, simultaneous=True
    )
    assert p.substitute({"x": a, "y": b, "z": c}) == from_sympy(sp, want)


@settings(max_examples=60, deadline=None)
@given(
    polynomials,
    st.dictionaries(st.sampled_from("xyz"), st.integers(-2, 2), max_size=3),
    marker_sets,
)
def test_specialize_matches_sympy(sp, p, values, markers):
    p = Polynomial(dict(p.items()), markers)
    want = to_sympy(sp, p).subs(
        {sp.Symbol(var): val for var, val in values.items()}, simultaneous=True
    )
    got = p.specialize(values)
    assert got == from_sympy(sp, want)
    assert got.markers == frozenset(markers)


@settings(max_examples=60, deadline=None)
@given(polynomials, st.integers(0, 6), marker_sets)
def test_truncate_matches_sympy(sp, p, d, markers):
    p = Polynomial(dict(p.items()), markers)
    kept = {
        mono: coeff
        for mono, coeff in sympy_terms(sp, to_sympy(sp, p)).items()
        if sum(e for v, e in mono.pairs if v not in markers) <= d
    }
    got = p.truncate(d)
    assert got == Polynomial(kept)
    assert got.markers == frozenset(markers)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        monomials, st.integers(-3, 3).filter(bool), max_size=5
    ),
    marker_sets,
)
def test_trusted_constructor_matches_sympy(sp, terms, markers):
    trusted = Polynomial._from_terms(dict(terms), markers)
    checked = Polynomial(terms, markers)
    assert trusted == checked
    assert trusted.markers == checked.markers
    assert str(trusted) == str(checked)
    expr = sp.Add(*(c * to_sympy(sp, Polynomial({m: 1})) for m, c in terms.items()))
    assert dict(trusted.items()) == sympy_terms(sp, expr)
