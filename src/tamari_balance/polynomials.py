"""Sparse multivariate polynomials with exact integer coefficients.

Variables split into counting variables and markers.  Truncation bounds
the counting degree only: markers are bookkeeping factors (they tag
combinatorial features, not sizes) and never count toward the degree cut.

Monomials store only positive exponents; polynomials store only nonzero
coefficients.  Display order is graded lexicographic, grading first by
counting degree so that series read off small objects first.

The public constructor checks its terms.  Arithmetic results, and the
grammar series (computed on exponent tuples in :mod:`.grammars`, not by
:meth:`Polynomial.substitute`), are wrapped once by the trusted
``Polynomial._from_terms``, which skips those checks.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping


class Monomial:
    """A product of variable powers; immutable and hashable."""

    __slots__ = ("pairs", "_hash")

    pairs: tuple[tuple[str, int], ...]

    def __init__(self, exponents: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        items = dict(exponents)
        for var, exp in items.items():
            if not isinstance(exp, int) or exp <= 0:
                raise ValueError(f"exponent of {var!r} must be a positive int")
        self.pairs = tuple(sorted(items.items()))
        self._hash = hash(self.pairs)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.pairs == other.pairs

    def __repr__(self) -> str:
        return f"Monomial({dict(self.pairs)!r})"

    def __mul__(self, other: "Monomial") -> "Monomial":
        merged = dict(self.pairs)
        for var, exp in other.pairs:
            merged[var] = merged.get(var, 0) + exp
        return Monomial(merged)

    def exponent(self, var: str) -> int:
        return dict(self.pairs).get(var, 0)

    def degree(self, exclude: frozenset[str] = frozenset()) -> int:
        return sum(exp for var, exp in self.pairs if var not in exclude)

    def variables(self) -> frozenset[str]:
        return frozenset(var for var, _ in self.pairs)

    def without(self, var: str) -> "Monomial":
        return Monomial((v, e) for v, e in self.pairs if v != var)

    @property
    def is_one(self) -> bool:
        return not self.pairs


ONE = Monomial()


class Polynomial:
    """Integer-coefficient polynomial over named variables.

    ``markers`` is the set of variable names treated as markers by
    :meth:`truncate` and the degree helpers.  Equality compares terms
    only; the marker set is presentation metadata.
    """

    __slots__ = ("_terms", "markers")

    def __init__(
        self,
        terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] = (),
        markers: Iterable[str] = (),
    ):
        collected: dict[Monomial, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, coeff in items:
            if not isinstance(mono, Monomial):
                raise TypeError("terms must be keyed by Monomial")
            if not isinstance(coeff, int):
                raise TypeError("coefficients must be ints")
            if coeff:
                new = collected.get(mono, 0) + coeff
                if new:
                    collected[mono] = new
                else:
                    collected.pop(mono, None)
        self._terms = collected
        self.markers = frozenset(markers)

    @classmethod
    def _from_terms(
        cls, terms: dict[Monomial, int], markers: Iterable[str] = ()
    ) -> "Polynomial":
        """Adopt ``terms`` as is: no copy and no checks.

        For callers that built ``terms`` themselves, keyed by
        :class:`Monomial` with nonzero ``int`` coefficients.
        """
        poly = cls.__new__(cls)
        poly._terms = terms
        poly.markers = frozenset(markers)
        return poly

    @classmethod
    def zero(cls, markers: Iterable[str] = ()) -> "Polynomial":
        return cls((), markers)

    @classmethod
    def constant(cls, value: int, markers: Iterable[str] = ()) -> "Polynomial":
        return cls({ONE: value}, markers)

    @classmethod
    def variable(cls, name: str, markers: Iterable[str] = ()) -> "Polynomial":
        return cls({Monomial({name: 1}): 1}, markers)

    def items(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self._terms.items())

    def coefficient(self, mono: Monomial | Mapping[str, int]) -> int:
        if not isinstance(mono, Monomial):
            mono = Monomial(mono)
        return self._terms.get(mono, 0)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for mono in self._terms:
            out |= mono.variables()
        return frozenset(out)

    def counting_degree(self, mono: Monomial) -> int:
        return mono.degree(exclude=self.markers)

    def min_counting_degree(self) -> int | None:
        """Smallest counting degree over the terms; ``None`` when zero."""
        if not self._terms:
            return None
        return min(self.counting_degree(m) for m in self._terms)

    def max_counting_degree(self) -> int | None:
        if not self._terms:
            return None
        return max(self.counting_degree(m) for m in self._terms)

    def _wrap(self, terms: dict[Monomial, int]) -> "Polynomial":
        return Polynomial._from_terms(terms, self.markers)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        merged = dict(self._terms)
        for mono, coeff in other._terms.items():
            new = merged.get(mono, 0) + coeff
            if new:
                merged[mono] = new
            else:
                merged.pop(mono, None)
        return Polynomial._from_terms(merged, self.markers | other.markers)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return self._wrap({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other: int) -> "Polynomial":
        return Polynomial.constant(other) - self

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            if not other:
                return self._wrap({})
            return self._wrap({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        product: dict[Monomial, int] = {}
        for m0, c0 in self._terms.items():
            for m1, c1 in other._terms.items():
                mono = m0 * m1
                new = product.get(mono, 0) + c0 * c1
                if new:
                    product[mono] = new
                else:
                    product.pop(mono, None)
        return Polynomial._from_terms(product, self.markers | other.markers)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative int")
        result = Polynomial.constant(1, self.markers)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def truncate(self, max_degree: int) -> "Polynomial":
        """Drop terms whose counting degree exceeds ``max_degree``.

        Marker exponents never count toward the bound.
        """
        return self._wrap(
            {
                m: c
                for m, c in self._terms.items()
                if self.counting_degree(m) <= max_degree
            }
        )

    def substitute(self, assignment: Mapping[str, "Polynomial | int"]) -> "Polynomial":
        """Replace every variable simultaneously.

        Each variable occurring in the polynomial must have an entry
        (map a variable to itself for the identity); missing ones raise
        ``ValueError``.
        """
        missing = sorted(self.variables() - set(assignment))
        if missing:
            raise ValueError(f"unassigned variables: {', '.join(missing)}")
        values = {
            var: (
                Polynomial.constant(val, self.markers)
                if isinstance(val, int)
                else val
            )
            for var, val in assignment.items()
        }
        markers = self.markers
        for var in self.variables():
            markers |= values[var].markers
        total: dict[Monomial, int] = {}
        for mono, coeff in self._terms.items():
            term = Polynomial.constant(coeff, self.markers)
            for var, exp in mono.pairs:
                term = term * values[var] ** exp
            for m, c in term._terms.items():
                new = total.get(m, 0) + c
                if new:
                    total[m] = new
                else:
                    del total[m]
        return Polynomial._from_terms(total, markers)

    def specialize(self, values: Mapping[str, int]) -> "Polynomial":
        """Assign integers to some variables, keeping the others."""
        if not all(isinstance(val, int) for val in values.values()):
            raise TypeError("specialize takes integer values")
        total: dict[Monomial, int] = {}
        for mono, coeff in self._terms.items():
            for var, exp in mono.pairs:
                coeff *= values.get(var, 1) ** exp
            if coeff:
                kept = Monomial((v, e) for v, e in mono.pairs if v not in values)
                total[kept] = total.get(kept, 0) + coeff
        return self._wrap({m: c for m, c in total.items() if c})

    def collect(self, var: str) -> dict[int, "Polynomial"]:
        """Group terms by the exponent of ``var``.

        Returns a map from exponent to the cofactor polynomial.
        """
        groups: dict[int, dict[Monomial, int]] = {}
        for mono, coeff in self._terms.items():
            exp = mono.exponent(var)
            groups.setdefault(exp, {})[mono.without(var)] = coeff
        return {
            exp: Polynomial(terms, self.markers - {var})
            for exp, terms in sorted(groups.items())
        }

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in graded-lex order (counting degree, then total degree,
        then variable-exponent pairs)."""
        return sorted(
            self._terms.items(),
            key=lambda item: (
                self.counting_degree(item[0]),
                item[0].degree(),
                item[0].pairs,
            ),
        )

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for mono, coeff in self.sorted_terms():
            factors = [
                var if exp == 1 else f"{var}^{exp}" for var, exp in mono.pairs
            ]
            magnitude = abs(coeff)
            if magnitude != 1 or not factors:
                factors.insert(0, str(magnitude))
            body = "*".join(factors)
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"<Polynomial {self}>"
