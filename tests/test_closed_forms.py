"""The battery on ∫terminal:N against counts derived from outside the program.

terminal:N has one object ``*`` and one morphism, its identity, in each
arity 1..N.  So ∫terminal:N has the N 0-cells [n,*], a 1-cell
[m,*] -> [k,*] is fixed by its surjection f: m -> k (every fiber object
and every component morphism is forced), and every hom is discrete: a
2-cell's components are identities, so each 1-cell has its identity
2-cell and no other.  The surjections are order-preserving.  Three counts
follow, each summed over the domain m = 1..N:

- 1-cells, c1 = 2^N - 1.  A surjection f: m -> k is the choice of the k-1
  gaps, among the m-1 between neighbours i and i+1, where f steps up.  So
  there are C(m-1, k-1) of them, and 2^(m-1) out of m.
- composable pairs f: m -> k, g: k -> n, c2 = (3^N - 1)/2.  Each step of
  g o f is a step of f, and g is fixed by which steps of f survive in
  g o f.  So each gap is of one of three kinds (no step, a step of f only,
  a step of g o f): 3^(m-1) pairs out of m.
- composable triples, c3 = (4^N - 1)/3: four kinds per gap, 4^(m-1).

Each check then charges (with ``cap=None``):

- unitality: 2 for the object and 2 for the morphism of each arity, 4N;
- associativity: one object tuple and one morphism tuple per composable
  pair of surjections, 2 c2 = 3^N - 1;
- hom categories: a discrete hom of k objects charges k objects, k
  composable pairs, and 2 per morphism on the thin path, 4 c1 in all;
- horizontal units: one per 1-cell, c1; horizontal associativity: one
  per composable triple, c3; interchange: one per pair (e2, e1), (d2, d1)
  of identity pairs over composable homs, one per composable pair, c2;
- projection: one per 0-cell, one per composable pair, one per 2-cell,
  N + c2 + c1;
- strict factorization: one per 1-cell phi: x -> y, and one per cut part
  x -> y tried after the only component part out of x, its identity; so
  c1 + Σ_m Σ_k C(m-1, k-1)^2 = c1 + Σ_{m=1..N} C(2m-2, m-1) (Vandermonde);
- lali choice, axioms (ii) and (iii): one per 0-cell, N;
- a lax triangle onto phi is a 1-cell psi with the identity filler on
  phi o psi, so the triangles are the composable pairs, c2.  Axiom (i):
  one per 1-cell, one per triangle, one per 2-cell, c2 + 2 c1.  Axiom
  (iv): one per 1-cell, c1.  Axiom (v): one per triangle, c2.  Axiom (v)
  one-cells: per triangle (psi, phi) and triangle (chi, phi o psi) onto
  its left face, the only source triangle is (psi o chi, phi), so one per
  composable triple, c3;
- splitting: two per 0-cell and one per composable pair, c2 + 2N;
- cartesian lifts: each surjection g is one chosen lift, and its test
  charges one instance per 1-cell theta into its target and fiber maps
  psi_i, which are the surjections base with g o base = theta: one per
  composable pair (base, g), c2;
- trivial subcategory: the trivial cells are the N identities.  One per
  identity, one composable pair per cardinality, and the fiber matching of
  the identity of [n] against the Σ_{m=n..N} C(m-1, n-1) = C(N, n)
  1-cells into [n]: 2N + 2^N - 1.

Two counts of cells come from outside the program too:

- the 0-cells of ∫trees:N are the trees [n, t] with n <= N leaves.  The
  reduced planar trees with n leaves are counted by the little Schroeder
  numbers 1, 1, 3, 11, 45, 197 (OEIS A001003), so ∫trees:N has their
  partial sums 1, 2, 5, 16, 61, 258 for N = 1..6;
- the 1-cells [1, a] -> [1, b] of ∫nat:M are the p in 0..M with
  min(b + p, M) >= a (the README's membership rule), that is b + p >= a,
  as a <= M.  The (M+1)(M+2)/2 pairs a <= b have all M + 1 of them; a pair
  with a - b = d > 0 has M + 1 - d, and there are M + 1 - d such pairs.  So
  ∫nat:M has (M+1)^2 (M+2)/2 + Σ_{j=1..M} j^2
  = (M+1)^2 (M+2)/2 + M(M+1)(2M+1)/6 1-cells: 54 at M = 3, 10,143 at M = 22.
"""

from math import comb

import pytest

from opint.integration import (
    check_factorization, check_projection, check_two_category_laws, integrate,
)
from opint.operadic import (
    canonical_fibration, check_all_lifts_cartesian, check_operadic_axioms,
    check_splitting, check_trivial_subcategory,
)
from opint.operads import check_associativity, check_unitality, nat_operad, \
    terminal_operad, tree_operad


def battery(I):
    """The 18 reports of ``opint check`` and the trivial subcategory, uncapped."""
    P, S = I.P, canonical_fibration(I)
    return [check_unitality(P), check_associativity(P, cap=None),
            *check_two_category_laws(I, cap=None),
            check_projection(I, cap=None), check_factorization(I, cap=None),
            *check_operadic_axioms(S.operadic, cap=None),
            check_splitting(S, cap=None), check_all_lifts_cartesian(S, cap=None),
            check_trivial_subcategory(S.operadic, cap=None)]


def derived(N):
    """The count of each report, in battery order, from the module docstring."""
    c1, c2, c3 = 2 ** N - 1, (3 ** N - 1) // 2, (4 ** N - 1) // 3
    return {"unitality": 4 * N, "associativity": 2 * c2, "hom categories": 4 * c1,
            "horizontal units": c1, "horizontal associativity": c3, "interchange": c2,
            "projection": N + c2 + c1,
            "strict factorization": c1 + sum(comb(2 * m - 2, m - 1) for m in range(1, N + 1)),
            "lali choice": N, "axiom (i)": c2 + 2 * c1, "axiom (ii)": N, "axiom (iii)": N,
            "axiom (iv)": c1, "axiom (v)": c2, "axiom (v) one-cells": c3,
            "splitting": c2 + 2 * N, "cartesian lifts": c2, "trivial subcategory": 2 * N + c1}


@pytest.mark.parametrize("N", range(1, 10))
def test_terminal_battery_counts_are_the_derived_ones(N):
    I = integrate(terminal_operad(N))
    assert sum(len(cells) for y in I.zero_cells() for cells in I.sources(y).values()) == \
        2 ** N - 1
    assert [(r.name, r.status, r.checked) for r in battery(I)] == \
        [(name, "pass", n) for name, n in derived(N).items()]


def cells_through_sources(I):
    """The 0-cells that are the source of some 1-cell, and the 1-cells, read
    from ``sources`` alone; no hom may be built on the way."""
    zero = {x for y in I.zero_cells() for x in I.sources(y)}
    one = sum(len(cells) for y in I.zero_cells() for cells in I.sources(y).values())
    assert I.stats()["memos"]["hom"]["size"] == 0
    return len(zero), one


@pytest.mark.parametrize("N, count", enumerate([1, 2, 5, 16, 61, 258], start=1))
def test_trees_zero_cells_are_partial_sums_of_little_schroeder_numbers(N, count):
    # every 0-cell is the source of its identity 1-cell
    I = integrate(tree_operad(N))
    assert cells_through_sources(I)[0] == len(I.zero_cells()) == count


def nat_one_cells(M):
    return (M + 1) ** 2 * (M + 2) // 2 + M * (M + 1) * (2 * M + 1) // 6


@pytest.mark.parametrize("M", range(23))
def test_nat_one_cells_follow_the_membership_rule(M):
    assert (nat_one_cells(3), nat_one_cells(22)) == (54, 10143)
    assert cells_through_sources(integrate(nat_operad(M))) == (M + 1, nat_one_cells(M))
