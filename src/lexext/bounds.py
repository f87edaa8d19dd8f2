"""Sharp closed-form upper bounds, in both parameterizations.

For graphs of order n and size m the bounds come in two equivalent forms:
one written in the depth decomposition (k, p_k) of m, one in the
triangular decomposition (s, t) of the non-edge count.  Both are computed
with exact integers, and ``bound_report`` evaluates the two independent-set
forms side by side and insists they agree, so each decomposition
cross-validates the other at runtime.

Boundary sizes are handled by explicit special cases instead of forcing a
decomposition outside its domain: the edgeless graph (m = 0) has bound n
for the independence number and C(n, r) for size-r sets; the complete
graph has bound 1 and 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .arith import binom, is_exact_triangular, triangular_decompose
from .errors import DomainError
from .sds import erdos_decompose_for_independent_sets, sds_decompose


class SRelation(Enum):
    """How the triangular parameter s sits against the independence bound."""

    S_EQUALS_ALPHA_U = "S_EQUALS_ALPHA_U"
    S_EQUALS_ALPHA_U_MINUS_1 = "S_EQUALS_ALPHA_U_MINUS_1"


@lru_cache(maxsize=1)
def _cell(n: int, m: int):
    """Validate the cell (n, m) once and decompose it both ways.

    Returns (sds(m, n), the (s, t) decomposition of C(n, 2) - m), each
    None on the boundary where it is undefined: the first at m = 0, the
    second at m = C(n, 2).  The two are computed independently, so the
    callers' cross-checks compare two derivations, not one.  One entry
    is cached because callers walk r (or certificates) inside one cell;
    an invalid cell raises on every call, as exceptions are not cached.

    Every function taking a cell checks it here alone: the bounds here,
    lexgraph's build_lex_graph, lex_neighborhood and
    lex_maximum_independent_sets, and verify's graph_count (every scan).
    """
    if n < 1:
        raise DomainError(f"cell (n, m) requires n >= 1, got n={n}")
    edges = binom(n, 2)
    if not 0 <= m <= edges:
        raise DomainError(f"cell (n, m) requires 0 <= m <= C(n,2) = {edges}, got m={m}")
    depth = sds_decompose(n, m) if m > 0 else None
    triangular = erdos_decompose_for_independent_sets(n, m) if m < edges else None
    return depth, triangular


def alpha_upper(n: int, m: int) -> int:
    """Sharp upper bound for the independence number over graphs (n, m).

    Equals n - k with k the depth of sds(m, n); the edgeless graph gets n.
    """
    d, _ = _cell(n, m)
    return n if d is None else n - d.k


def ir_upper_lex(n: int, m: int, r: int) -> int:
    """Sharp upper bound for the number of size-r independent sets,
    written in the depth decomposition: C(n-k-p_k, r-1) + C(n-k, r).

    When p_k = n - k the first term vanishes and the bound collapses to
    C(n-k, r).  Defined for r >= 2; sizes 0 and 1 are trivially 1 and n
    and are outside this formula's scope.
    """
    d, _ = _cell(n, m)
    if r < 2:
        raise DomainError(f"ir_upper_lex requires r >= 2, got r={r}")
    if d is None:
        return binom(n, r)
    return binom(n - d.k - d.p_k, r - 1) + binom(n - d.k, r)


def ir_upper_erdos(n: int, m: int, r: int) -> int:
    """The same bound written in the triangular decomposition of the
    non-edge count: C(s, r) + C(t, r-1).

    The complete graph is special-cased to 0 for r >= 2 (its complement
    has no edges to decompose, and it has no independent pair).  r = 2 is
    an extension of the classical r >= 3 statement and is validated
    against the other form.
    """
    _, e = _cell(n, m)
    if r < 2:
        raise DomainError(f"ir_upper_erdos requires r >= 2, got r={r}")
    if e is None:
        return 0
    return binom(e.s, r) + binom(e.t, r - 1)


def cr_upper(m: int, r: int) -> int:
    """Sharp upper bound for the number of r-cliques in any graph with m
    edges: C(s, r) + C(t, r-1) with m = C(s, 2) + t, 0 < t <= s.

    Depends on m alone.  An edgeless graph has no clique on r >= 3
    vertices, so m = 0 yields 0.
    """
    if m < 0:
        raise DomainError(f"cr_upper requires m >= 0, got m={m}")
    if r < 3:
        raise DomainError(f"cr_upper requires r >= 3, got r={r}")
    if m == 0:
        return 0
    s, t = triangular_decompose(m)
    return binom(s, r) + binom(t, r - 1)


def s_alpha_relation(n: int, m: int) -> SRelation:
    """Whether s equals the independence bound or falls one short.

    s = alpha_upper - 1 exactly when the non-edge count is triangular,
    i.e. of the form C(s, 2) + s.  The answer is cross-checked against s
    and the bound n - k, taken from the two decompositions.
    """
    d, e = _cell(n, m)
    if d is None or e is None:
        raise DomainError(
            f"s_alpha_relation requires 0 < m < C(n,2), got m={m}; "
            "the boundary graphs are excluded"
        )
    exact = is_exact_triangular(e.m_complement) is not None
    expected = n - d.k - 1 if exact else n - d.k
    if e.s != expected:
        raise AssertionError(f"s/alpha cross-check failed for n={n}, m={m}")
    return SRelation.S_EQUALS_ALPHA_U_MINUS_1 if exact else SRelation.S_EQUALS_ALPHA_U


@dataclass(frozen=True)
class IrBound:
    r: int
    ir_upper_lex: int
    ir_upper_erdos: int


@dataclass(frozen=True)
class BoundReport:
    """Everything the closed forms say about one (n, m) cell.

    Decomposition fields are None where the decomposition is undefined or
    excluded: k, p_k need m >= 1; s, t and the s relation are reported
    only for 0 < m < C(n, 2).
    """

    n: int
    m: int
    k: int | None
    p_k: int | None
    s: int | None
    t: int | None
    alpha_upper: int
    s_relation: SRelation | None
    entries: tuple[IrBound, ...]

    def as_dict(self) -> dict:
        """The report as JSON-ready data: the relation by its value and
        the entries as a list under "bounds", after the cell fields."""
        d = dict(vars(self))
        d["s_relation"] = None if self.s_relation is None else self.s_relation.value
        d["bounds"] = [dict(vars(entry)) for entry in d.pop("entries")]
        return d


def bound_report(n: int, m: int, r_max: int | None = None, *, r_values=None) -> BoundReport:
    """Assemble all bounds for r in 2..r_max (or an explicit size list).

    Both independent-set forms are evaluated for every r and must agree;
    a mismatch raises, since it would mean one decomposition is wrong.
    """
    d, e = _cell(n, m)
    if r_values is None:
        if r_max is None:
            raise DomainError("bound_report needs r_max or r_values")
        if r_max > n:
            raise DomainError(f"bound_report requires r_max <= n, got r_max={r_max}")
        r_values = range(2, r_max + 1)
    rs = sorted(set(int(r) for r in r_values))
    for r in rs:
        if not 2 <= r <= n:
            raise DomainError(f"independent-set size r={r} outside 2..{n}")

    entries = []
    for r in rs:
        lex_form = ir_upper_lex(n, m, r)
        erdos_form = ir_upper_erdos(n, m, r)
        if lex_form != erdos_form:
            raise AssertionError(
                f"bound forms disagree for n={n}, m={m}, r={r}: "
                f"{lex_form} vs {erdos_form}"
            )
        entries.append(IrBound(r=r, ir_upper_lex=lex_form, ir_upper_erdos=erdos_form))

    interior = d is not None and e is not None
    return BoundReport(
        n=n,
        m=m,
        k=None if d is None else d.k,
        p_k=None if d is None else d.p_k,
        s=e.s if interior else None,
        t=e.t if interior else None,
        alpha_upper=alpha_upper(n, m),
        s_relation=s_alpha_relation(n, m) if interior else None,
        entries=tuple(entries),
    )
