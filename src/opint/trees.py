"""Reduced planar rooted trees: enumeration, contraction order, grafting.

A tree is either the bare leaf ``"L"`` or a tuple of at least two
subtrees (the ordered children of the root vertex).  Internal vertices
therefore always have arity >= 2, which keeps the set of trees with a
fixed number of leaves finite; those sets are counted by the little
Schroeder numbers 1, 1, 3, 11, 45, ...
"""

from __future__ import annotations

import itertools
from functools import lru_cache

LEAF = "L"


def is_tree(t) -> bool:
    if t == LEAF:
        return True
    return (isinstance(t, tuple) and len(t) >= 2 and all(is_tree(c) for c in t))


def leaves(t) -> int:
    if t == LEAF:
        return 1
    return sum(leaves(c) for c in t)


def corolla(n: int):
    """The tree with one internal vertex and n leaves (n >= 2)."""
    if n < 2:
        raise ValueError("a corolla needs at least two leaves")
    return (LEAF,) * n


@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple:
    """All reduced planar rooted trees with exactly n leaves.

    Deterministic order: by the composition of n giving the leaf counts
    of the root's children (lexicographically), then recursively.
    """
    if n < 1:
        raise ValueError("trees have at least one leaf")
    if n == 1:
        return (LEAF,)
    out = []
    for r in range(2, n + 1):
        for parts in _compositions(n, r):
            for children in itertools.product(*[enumerate_trees(p) for p in parts]):
                out.append(tuple(children))
    return tuple(out)


def _compositions(n, r):
    """Compositions of n into r positive parts, lexicographically."""
    if r == 1:
        yield (n,)
        return
    for first in range(1, n - r + 2):
        for rest in _compositions(n - first, r - 1):
            yield (first,) + rest


def one_step_contractions(t):
    """Trees obtained by contracting a single internal edge of t.

    Contracting merges a non-root internal vertex into its parent,
    splicing its children in place; leaf edges and the root edge are
    never contracted, so the leaf count is preserved.
    """
    if t == LEAF:
        return
    for i, child in enumerate(t):
        if child != LEAF:
            yield t[:i] + child + t[i + 1:]
        for smaller in one_step_contractions(child):
            yield t[:i] + (smaller,) + t[i + 1:]


@lru_cache(maxsize=None)
def contraction_closure(s) -> frozenset:
    """Every tree reachable from s by (any number of) edge contractions."""
    seen = {s}
    frontier = [s]
    while frontier:
        t = frontier.pop()
        for u in one_step_contractions(t):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return frozenset(seen)


def contracts_to(s, t) -> bool:
    """True when t can be reached from s by edge contractions (reflexively)."""
    if leaves(s) != leaves(t):
        raise ValueError("leaf counts differ: %d vs %d" % (leaves(s), leaves(t)))
    return t in contraction_closure(s)


def graft(c, subtrees):
    """Replace the leaves of c, left to right, by the given subtrees."""
    subtrees = list(subtrees)
    if len(subtrees) != leaves(c):
        raise ValueError("need %d subtrees, got %d" % (leaves(c), len(subtrees)))
    it = iter(subtrees)
    out = _graft(c, it)
    return out


def _graft(t, it):
    if t == LEAF:
        return next(it)
    return tuple(_graft(c, it) for c in t)


def tree_to_json(t):
    if t == LEAF:
        return LEAF
    return [tree_to_json(c) for c in t]


def tree_from_json(data):
    if data == LEAF:
        return LEAF
    if isinstance(data, (list, tuple)):
        t = tuple(tree_from_json(c) for c in data)
        if not is_tree(t):
            raise ValueError("not a reduced tree: %r" % (data,))
        return t
    raise ValueError("not a tree: %r" % (data,))
