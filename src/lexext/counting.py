"""Exact counting oracle: independence profiles, which carry the
independence number as alpha(), complements, and clique profiles.

This is the brute-force side of every sharpness check; nothing here
consults the closed-form bounds.  Counts are exact Python ints.  The hot
recursion lives in the selected kernel backend (see ``_kernels``).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels
from .lexgraph import Graph


@dataclass(frozen=True)
class IndependenceProfile:
    """Counts of independent sets by size: entry r is the size-r count.

    Entry 0 counts the empty set, so the sum over all entries is the
    total number of independent sets.
    """

    counts: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.counts) - 1

    def size_count(self, r: int) -> int:
        if not 0 <= r <= self.n:
            return 0
        return self.counts[r]

    def total(self) -> int:
        return sum(self.counts)

    def alpha(self) -> int:
        """Largest size with a nonzero count."""
        return max(r for r, c in enumerate(self.counts) if c)


def independence_profile(g: Graph) -> IndependenceProfile:
    """Exact counts of independent sets of every size in g."""
    return IndependenceProfile(counts=tuple(_kernels.profile_counts(g.adj, g.n)))


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly the non-edges of g."""
    full = (1 << g.n) - 1
    rows = tuple((full & ~g.adj[i]) & ~(1 << i) for i in range(g.n))
    return Graph(n=g.n, adj=rows)


def clique_profile(g: Graph) -> IndependenceProfile:
    """Counts of cliques by size: the independence profile of the complement."""
    return independence_profile(complement(g))
