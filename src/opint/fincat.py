"""Finite categories presented by explicit tables, and functors between them.

Objects and morphisms are identified by hashable ids; composition is
either a table ``{(g, f): g∘f}`` or a callable computing composites on
demand (products use the callable form, since their tables can be large).
Functors likewise are given by tables or by rules: a :class:`RuleMap`
computes an image on its first lookup and keeps it.
Morphism equality is id equality throughout.
"""

from __future__ import annotations

import itertools

from .report import FAIL, PASS, Report
from .surjections import CompositionError


class FinCat:
    __slots__ = ("_objects", "_obj_set", "_mor", "_identity", "_compose", "_hom")

    def __init__(self, objects, morphisms, identity, compose):
        """A finite category.

        ``morphisms`` is an iterable of ``(id, src, dst)`` triples;
        ``identity`` maps each object to its identity morphism id;
        ``compose`` is a dict keyed by ``(g, f)`` for composable pairs
        (f first), or a callable ``(g, f) -> g∘f``.
        """
        self._objects = tuple(objects)
        self._obj_set = set(self._objects)
        self._mor = {}
        for mid, src, dst in morphisms:
            if mid in self._mor:
                raise ValueError("duplicate morphism id %r" % (mid,))
            self._mor[mid] = (src, dst)
        self._identity = dict(identity)
        self._compose = compose
        self._hom = None

    @property
    def objects(self):
        return self._objects

    def morphism_ids(self):
        return tuple(self._mor)

    def morphisms(self):
        """Triples (id, src, dst) in presentation order."""
        return tuple((m, s, d) for m, (s, d) in self._mor.items())

    def __contains__(self, obj):
        return obj in self._obj_set

    def has_morphism(self, mid):
        return mid in self._mor

    def src(self, mid):
        return self._mor[mid][0]

    def dst(self, mid):
        return self._mor[mid][1]

    def id_of(self, obj):
        return self._identity[obj]

    def is_identity(self, mid) -> bool:
        src, dst = self._mor[mid]
        return src == dst and self._identity.get(src) == mid

    def compose(self, g, f):
        """The composite g∘f (f acts first)."""
        if self.dst(f) != self.src(g):
            raise CompositionError("morphisms %r and %r are not composable" % (f, g))
        if callable(self._compose):
            return self._compose(g, f)
        try:
            return self._compose[(g, f)]
        except KeyError:
            raise ValueError("missing composite for (%r, %r)" % (g, f)) from None

    def hom(self, a, b):
        """Morphism ids a -> b, in presentation order."""
        if self._hom is None:
            index = {}
            for mid, (src, dst) in self._mor.items():
                index.setdefault((src, dst), []).append(mid)
            self._hom = {k: tuple(v) for k, v in index.items()}
        return self._hom.get((a, b), ())

    def composable_pairs(self):
        """Pairs (g, f), f first: g in presentation order, f as ``_pairs_into`` has it."""
        return self._pairs_into()[0]

    def _pairs_into(self):
        """The composable pairs, lazily, and the index they are read from: the
        morphisms into each object from an object, by source in object order
        and in presentation order within one source."""
        out_of, into = {}, {}
        for m, (src, dst) in self._mor.items():
            out_of.setdefault(src, []).append((m, dst))
        for m, dst in (t for a in self._objects for t in out_of.get(a, ())):
            into.setdefault(dst, []).append(m)
        return ((g, f) for g, (gs, _) in self._mor.items() for f in into.get(gs, ())), into

    def counts(self):
        return len(self._objects), len(self._mor)

    def is_thin(self) -> bool:
        """Whether no two morphisms share their endpoints, each an object: a preorder."""
        ends = set(self._mor.values())
        return len(ends) == len(self._mor) and self._obj_set.issuperset(itertools.chain(*ends))


def terminal_category() -> FinCat:
    mid = ("id", "*")
    return FinCat(["*"], [(mid, "*", "*")], {"*": mid}, {(mid, mid): mid})


def poset_category(elements, le) -> FinCat:
    """The category of a finite poset, with arrows running downward.

    ``le(a, b)`` should hold when ``a <= b``; there is then one morphism
    ``b -> a``, whose id is the pair ``(b, a)``.  (This matches the usual
    convention for the naturals ordered by >=: an arrow a -> b exists
    when a >= b.)
    """
    elements = tuple(elements)
    morphisms = []
    for src in elements:
        for dst in elements:
            if le(dst, src):
                morphisms.append(((src, dst), src, dst))
    identity = {x: (x, x) for x in elements}

    def _compose(g, f):
        # pair ids compose by endpoints; the relation is transitive
        return (f[0], g[1])

    return FinCat(elements, morphisms, identity, _compose)


def product(cats) -> FinCat:
    """Product category: tuple objects, tuple morphisms, componentwise composition."""
    cats = list(cats)
    if not cats:
        raise ValueError("product of an empty list of categories")
    objects = list(itertools.product(*[c.objects for c in cats]))
    morphisms = []
    for mids in itertools.product(*[c.morphism_ids() for c in cats]):
        src = tuple(c.src(m) for c, m in zip(cats, mids))
        dst = tuple(c.dst(m) for c, m in zip(cats, mids))
        morphisms.append((tuple(mids), src, dst))
    identity = {obj: tuple(c.id_of(x) for c, x in zip(cats, obj)) for obj in objects}

    def _compose(g, f):
        return tuple(c.compose(gi, fi) for c, gi, fi in zip(cats, g, f))

    return FinCat(objects, morphisms, identity, _compose)


def validate_category(C: FinCat, name: str = "category", show=repr) -> Report:
    """Check the category axioms, reporting every violated instance, with
    objects and morphism ids formatted by ``show``.  The composable pairs
    and their index (``C._pairs_into``) are built once per call.  A thin
    category whose composites are all well typed, with no problem so far,
    passes, as each law's two sides are parallel arrows, charged as the
    sweep would: one per morphism, ``len(F)`` per row ``(h, g, F)``, F every
    f.  Any other takes the sweep, which composes both sides of every
    identity law and every associativity triple through ``C.compose``."""
    def ids(*values):   # as repr shows a tuple of two or three
        return "(%s)" % ", ".join(map(show, values))

    problems = []
    checked = 0
    for x in C.objects:
        checked += 1
        mid = C._identity.get(x)
        if mid is None or not C.has_morphism(mid):
            problems.append("object %s has no identity morphism" % show(x))
        elif C._mor[mid] != (x, x):
            problems.append("identity of %s has endpoints %s" % (show(x), ids(*C._mor[mid])))
    pairs, into = C._pairs_into()
    pairs = list(pairs)
    compose = C._compose   # every pair is composable: C.compose minus its checks
    if not callable(compose):
        composable, table = set(pairs), set(compose)
        for key in sorted(composable - table, key=repr):
            problems.append("missing composite for pair %s" % ids(*key))
        for key in sorted(table - composable, key=repr):
            problems.append("composite defined for non-composable pair %s" % ids(*key))
        compose = lambda g, f, t=C._compose: t[g, f]
    kept = 0   # well-typed composites
    for g, f in pairs:
        checked += 1
        try:
            gf = compose(g, f)
        except (ValueError, KeyError):
            continue  # already reported above for table categories
        ends = C._mor.get(gf)
        if ends is None:
            problems.append("composite of %s is not a morphism: %s" % (ids(g, f), show(gf)))
        elif ends != (C._mor[f][0], C._mor[g][1]):
            problems.append("composite of %s has wrong endpoints" % ids(g, f))
        else:
            kept += 1
    if not problems and kept == len(pairs) and C.is_thin():
        rows = {x: sum(len(into.get(C._mor[g][0], ())) for g in G) for x, G in into.items()}
        return Report(name, PASS, checked + sum(1 + rows.get(s, 0) for s, _ in C._mor.values()))
    for mid, (src, dst) in C._mor.items():
        checked += 1
        try:
            if C.compose(mid, C.id_of(src)) != mid:
                problems.append("right identity law fails at %s" % show(mid))
            if C.compose(C.id_of(dst), mid) != mid:
                problems.append("left identity law fails at %s" % show(mid))
        except (ValueError, KeyError):
            problems.append("identity laws cannot be evaluated at %s" % show(mid))
    for h, (hs, _) in C._mor.items():
        for g in into.get(hs, ()):
            for f in into.get(C._mor[g][0], ()):
                checked += 1
                try:
                    if C.compose(C.compose(h, g), f) != C.compose(h, C.compose(g, f)):
                        problems.append("associativity fails on %s" % ids(h, g, f))
                except (ValueError, KeyError):
                    problems.append("associativity cannot be evaluated on %s" % ids(h, g, f))
    status = PASS if not problems else FAIL
    return Report(name, status, checked, witness=problems[:5] or None,
                  notes=["%d problem(s)" % len(problems)] if problems else [])


class RuleMap(dict):
    """A functor's table out of the product of ``factors``, filled on demand:
    ``[]`` on a missing tuple of objects (of morphism ids, with ``mor``)
    stores and returns ``rule(key)``; any other key raises KeyError.  So
    ``in``, ``get`` and ``items`` see only the entries stored so far."""

    def __init__(self, factors, rule, mor=False):
        self.rule = rule   # dict.__new__ has made the empty table
        self.member = [C.has_morphism if mor else C.__contains__ for C in factors]

    def __missing__(self, key):
        if len(key) == len(self.member) and all(t(x) for t, x in zip(self.member, key)):
            value = self[key] = self.rule(key)
            return value
        raise KeyError(key)


class Functor:
    """A functor given by object and morphism tables: dicts or RuleMaps.
    ``source`` may be the list of factors of a product, built on first read."""

    def __init__(self, source, target, obj_map, mor_map):
        self._source, self.target = source, target
        self.obj_map, self.mor_map = obj_map, mor_map

    @property
    def source(self) -> FinCat:
        if not isinstance(self._source, FinCat):
            self._source = product(self._source)
        return self._source


def identity_functor(C: FinCat) -> Functor:
    return Functor(C, C, {x: x for x in C.objects},
                   {m: m for m in C.morphism_ids()})


def lookup(table: dict, key):
    """``table[key]``, or None where the table has no image for ``key``."""
    try:
        return table[key]
    except KeyError:
        return None


def validate_functor(F: Functor) -> Report:
    """Check functoriality, one charge per object, morphism, identity and composable
    pair.  Into a thin target, once the rest holds, ``F(g∘f)`` and ``Fg∘Ff``
    are parallel, hence equal: the pairs are charged, not composed."""
    problems = []
    checked = 0
    C, D = F.source, F.target
    for x in C.objects:
        checked += 1
        fx = lookup(F.obj_map, x)
        if fx is None:
            problems.append("object %r has no image" % (x,))
        elif fx not in D:
            problems.append("image of object %r is not in the target" % (x,))
    for m, src, dst in C.morphisms():
        checked += 1
        fm = lookup(F.mor_map, m)
        if fm is None:
            problems.append("morphism %r has no image" % (m,))
            continue
        if not D.has_morphism(fm):
            problems.append("image of morphism %r is not in the target" % (m,))
            continue
        if (D.src(fm), D.dst(fm)) != (lookup(F.obj_map, src), lookup(F.obj_map, dst)):
            problems.append("morphism %r is sent across wrong endpoints" % (m,))
    for x in C.objects:
        checked += 1
        if lookup(F.mor_map, C.id_of(x)) != D.id_of(lookup(F.obj_map, x)):
            problems.append("identity of %r is not preserved" % (x,))
    if not problems and D.is_thin():
        return Report("functor", PASS, checked + sum(1 for _ in C.composable_pairs()))
    for g, f in C.composable_pairs():
        checked += 1
        lhs = lookup(F.mor_map, C.compose(g, f))
        try:
            rhs = D.compose(lookup(F.mor_map, g), lookup(F.mor_map, f))
        except (ValueError, KeyError, CompositionError):
            rhs = None
        if lhs != rhs or lhs is None:
            problems.append("composition not preserved on (%r, %r)" % (g, f))
    status = PASS if not problems else FAIL
    return Report("functor", status, checked, witness=problems[:5] or None)


def enumerate_functors(C: FinCat, D: FinCat):
    """Every functor C -> D, in a fixed order: object maps in the order of
    ``itertools.product`` over D's objects, then morphism maps choosing one
    arrow of ``D.hom(F s, F d)`` per morphism, each kept when
    ``validate_functor`` passes.  Exponential in C's objects and morphisms."""
    for values in itertools.product(D.objects, repeat=len(C.objects)):
        obj_map = dict(zip(C.objects, values))
        slots = [D.hom(obj_map[s], obj_map[d]) for _, s, d in C.morphisms()]
        for images in itertools.product(*slots):
            F = Functor(C, D, dict(obj_map), dict(zip(C.morphism_ids(), images)))
            if validate_functor(F).ok:
                yield F


def is_terminal(C: FinCat, t) -> bool:
    """Whether ``t`` is an object of C receiving exactly one morphism from
    every object.  In a category that is not skeletal several objects
    may qualify; each is terminal."""
    return t in C and all(len(C.hom(x, t)) == 1 for x in C.objects)


def terminal_object(C: FinCat):
    """The first terminal object with its witness maps, or None.

    Returns ``(t, {x: the unique morphism x -> t})``.
    """
    for t in C.objects:
        if is_terminal(C, t):
            return t, {x: C.hom(x, t)[0] for x in C.objects}
    return None
