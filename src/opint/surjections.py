"""Finite non-empty ordinals and their order-preserving surjections.

The ordinal ``n`` stands for the chain ``{1 < 2 < ... < n}``; everything
here is 1-indexed.  A map is stored by its value sequence and is
hash-consed on it (see ``interning``): two surjections with the same
values are the same object, so equality and hashing are identity.
Fibers of a monotone surjection are consecutive blocks, which is what
makes the block-cutting and ordinal-sum calculus below work.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from .interning import HashConsed


class CompositionError(ValueError):
    """Two maps whose codomain and domain do not line up."""


class Surjection(HashConsed):
    """An order-preserving surjection ``dom -> cod`` given by its values.

    Invariants: ``values`` has length ``dom``, starts at 1, ends at
    ``cod``, and increases in steps of 0 or 1 (this is equivalent to
    being weakly increasing and onto ``1..cod``).
    """

    __slots__ = ("dom", "cod", "values")

    def __new__(cls, dom: int, cod: int, values):
        values = tuple(values)
        if dom < 1 or cod < 1:
            raise ValueError("ordinals are non-empty: need dom >= 1 and cod >= 1")
        if len(values) != dom:
            raise ValueError("expected %d values, got %r" % (dom, values))
        if values[0] != 1 or values[-1] != cod:
            raise ValueError("%r is not onto 1..%d" % (values, cod))
        for a, b in zip(values, values[1:]):
            if b - a not in (0, 1):
                raise ValueError("%r skips or decreases at %d -> %d" % (values, a, b))
        return super().__new__(cls, dom, cod, values)

    def __str__(self):
        return "%d->%d:[%s]" % (self.dom, self.cod, ",".join(map(str, self.values)))

    def is_identity(self) -> bool:
        return self.dom == self.cod

    def fiber_sizes(self) -> tuple[int, ...]:
        return _fiber_sizes(self)

    def preimage(self, i: int) -> tuple[int, tuple[int, ...]]:
        """The fiber over ``i`` as an ordinal plus its embedding.

        Returns ``(k_i, embedding)`` where ``k_i >= 1`` is the fiber size
        and ``embedding`` lists the elements of the fiber in order.
        """
        if not 1 <= i <= self.cod:
            raise IndexError("index %d outside 1..%d" % (i, self.cod))
        return _preimage(self, i)


@lru_cache(maxsize=None)
def _fiber_sizes(g: Surjection) -> tuple[int, ...]:
    sizes = [0] * g.cod
    for v in g.values:
        sizes[v - 1] += 1
    return tuple(sizes)


@lru_cache(maxsize=None)
def _preimage(g: Surjection, i: int) -> tuple[int, tuple[int, ...]]:
    members = tuple(j for j in range(1, g.dom + 1) if g.values[j - 1] == i)
    return len(members), members


@lru_cache(maxsize=None)
def identity_surjection(n: int) -> Surjection:
    return Surjection(n, n, tuple(range(1, n + 1)))


@lru_cache(maxsize=None)
def bang(n: int) -> Surjection:
    """The unique map ``n -> 1``."""
    return Surjection(n, 1, (1,) * n)


def from_fiber_sizes(sizes) -> Surjection:
    """The surjection with the given positive fiber sizes."""
    sizes = tuple(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("fiber sizes must be a non-empty sequence of positive ints")
    values = tuple(i for i, s in enumerate(sizes, start=1) for _ in range(s))
    return Surjection(sum(sizes), len(sizes), values)


@lru_cache(maxsize=None)
def compose(f: Surjection, g: Surjection) -> Surjection:
    """Pointwise composite ``g o f`` of ``f: m -> k`` and ``g: k -> n``."""
    if f.cod != g.dom:
        raise CompositionError("cannot compose %s with %s" % (f, g))
    return Surjection(f.dom, g.cod, tuple(g.values[v - 1] for v in f.values))


@lru_cache(maxsize=None)
def induced_map(f: Surjection, g: Surjection, i: int) -> Surjection:
    """The map the composite induces between fibers over ``i``.

    For ``f: m -> k``, ``g: k -> n`` this is the restriction of ``f`` to
    ``(g o f)^{-1}(i) -> g^{-1}(i)``, written in the ordinal
    identifications of the two fibers.
    """
    if f.cod != g.dom:
        raise CompositionError("cannot compose %s with %s" % (f, g))
    _, target = g.preimage(i)
    rank = {j: r for r, j in enumerate(target, start=1)}
    source = [j for j in range(1, f.dom + 1) if f.values[j - 1] in rank]
    if not source:
        raise IndexError("index %d outside 1..%d" % (i, g.cod))
    return Surjection(len(source), len(target), tuple(rank[f.values[j - 1]] for j in source))


def ordinal_sum(maps) -> Surjection:
    """Place maps side by side: domains, codomains and values concatenate."""
    maps = list(maps)
    if not maps:
        raise ValueError("ordinal sum of an empty sequence")
    values = []
    shift = 0
    for m in maps:
        values.extend(v + shift for v in m.values)
        shift += m.cod
    return Surjection(sum(m.dom for m in maps), shift, tuple(values))


def block_cut(seq, g: Surjection) -> tuple[tuple, ...]:
    """Cut a length-``k`` sequence into ``cod(g)`` blocks along ``g``.

    Block ``i`` picks the entries at the positions of ``g^{-1}(i)``; the
    concatenation of the blocks is the original sequence.
    """
    seq = tuple(seq)
    if len(seq) != g.dom:
        raise ValueError("sequence of length %d cannot be cut along %s" % (len(seq), g))
    # not memoized: a process-wide cache on seq would keep every cell cut
    # here alive
    blocks = []
    pos = 0
    for size in g.fiber_sizes():
        blocks.append(seq[pos:pos + size])
        pos += size
    return tuple(blocks)


def enumerate_surjections(m: int, n: int) -> list[Surjection]:
    """All order-preserving surjections ``m -> n`` in lexicographic order.

    There are C(m-1, n-1) of them, one per composition of ``m`` into
    ``n`` positive parts; the list is empty when ``n > m``.  Each call
    returns a fresh list.
    """
    return list(_surjections(m, n))


@lru_cache(maxsize=None)
def _surjections(m: int, n: int) -> tuple[Surjection, ...]:
    if m < 1 or n < 1:
        raise ValueError("ordinals are non-empty")
    if n > m:
        return ()
    out = []
    for cuts in itertools.combinations(range(1, m), n - 1):
        bounds = (0,) + cuts + (m,)
        sizes = tuple(b - a for a, b in zip(bounds, bounds[1:]))
        out.append(from_fiber_sizes(sizes))
    out.sort(key=lambda s: s.values)
    assert len(out) == comb(m - 1, n - 1)
    return tuple(out)


def all_surjections_up_to(bound: int):
    """Every surjection ``k -> n`` with ``k <= bound``, in (k, n, lex) order."""
    for k in range(1, bound + 1):
        for n in range(1, k + 1):
            yield from enumerate_surjections(k, n)


def parse_surjection(text: str) -> Surjection:
    """Parse the textual form ``m->n:[v1,v2,...,vm]``."""
    try:
        head, _, body = text.partition(":")
        dom, _, cod = head.partition("->")
        body = body.strip()
        if not body.startswith("[") or not body.endswith("]"):
            raise ValueError
        values = tuple(int(v) for v in body[1:-1].split(","))
        return Surjection(int(dom), int(cod), values)
    except (ValueError, IndexError) as exc:
        raise ValueError("cannot parse surjection %r (want m->n:[v1,...,vm])" % text) from exc
