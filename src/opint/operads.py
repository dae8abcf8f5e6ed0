"""Truncated constant-free non-symmetric categorical operads.

An operad here is a finite family of categories P_1..P_N together with
composition functors mu_g indexed by the order-preserving surjections
g: k -> n with k <= N, and a unit object in P_1.  The axioms (elementwise
associativity over composable pairs of surjections, and the two unit
laws) are executable: see :func:`check_associativity` and
:func:`check_unitality`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import trees as T
from .fincat import FinCat, Functor, RuleMap, identity_functor, lookup, poset_category, \
    terminal_category, validate_category, validate_functor
from .report import DEFAULT_CAP, FAIL, PASS, Report
from .surjections import Surjection, all_surjections_up_to, bang, block_cut, compose, \
    enumerate_surjections, identity_surjection, induced_map


class TruncationOverflow(ValueError):
    """An arity above the stored bound was requested."""


class ArityMismatch(ValueError):
    """Arguments whose arities do not match the indexing surjection."""


@dataclass
class TruncatedOperad:
    """Categories P_1..P_N with composition functors and a unit object.

    ``mu[g]`` is a functor  P_n x P_{k_1} x ... x P_{k_n}  ->  P_k
    for each surjection g: k -> n with k <= bound, where k_i is the size
    of the fiber g^{-1}(i).  Argument tuples are flat: ``(c, b_1..b_n)``.
    """

    bound: int
    components: dict[int, FinCat]
    unit: object
    mu: dict[Surjection, Functor]
    name: str = "operad"

    def component(self, n: int) -> FinCat:
        if not 1 <= n <= self.bound:
            raise TruncationOverflow("arity %d outside 1..%d" % (n, self.bound))
        return self.components[n]

    def mu_for(self, g: Surjection) -> Functor:
        F = self.mu.get(g)
        if F is None and g.dom > self.bound:
            raise TruncationOverflow("surjection %s exceeds bound %d" % (g, self.bound))
        if F is None:
            raise ValueError("no composition functor stored for %s" % g)
        return F

    def arg_arities(self, g: Surjection) -> tuple[int, ...]:
        return (g.cod,) + g.fiber_sizes()

    def check_objects(self, arities, args: tuple) -> tuple:
        """``args``, once each is an object of the component of its arity."""
        for n, a in zip(arities, args):
            if a not in self.component(n):
                raise ArityMismatch("%r is not an object of the arity-%d component" % (a, n))
        return args

    def apply_obj(self, g: Surjection, args: tuple) -> object:
        """mu_g on a tuple of objects; ArityMismatch on a tuple its table lacks."""
        try:
            return self.mu_for(g).obj_map[args]
        except KeyError:
            raise ArityMismatch("mu_%s has no value at objects %r" % (g, args)) from None

    def apply_mor(self, g: Surjection, margs: tuple) -> object:
        """mu_g on a tuple of morphism ids; ArityMismatch on a tuple its table lacks."""
        try:
            return self.mu_for(g).mor_map[margs]
        except KeyError:
            raise ArityMismatch("mu_%s has no value at morphisms %r" % (g, margs)) from None

    def apply_mixed(self, g: Surjection, args: tuple, objects) -> object:
        """mu_g on morphisms, the objects at the positions ``objects`` promoted
        to identities; the other positions hold morphism ids, whatever their names."""
        arities, margs = self.arg_arities(g), list(args)
        for i in objects:
            margs[i] = self.component(arities[i]).id_of(args[i])
        return self.apply_mor(g, tuple(margs))

    def unit_morphism(self):
        return self.component(1).id_of(self.unit)

    def hom(self, n: int, a, b):
        return self.component(n).hom(a, b)

    def compose_in(self, n: int, g, f):
        return self.component(n).compose(g, f)


def check_unitality(P: TruncatedOperad) -> Report:
    """Both unit laws, on every object and morphism of every component."""
    r = Report("unitality")
    for n in range(1, P.bound + 1):
        C = P.component(n)
        idn = identity_surjection(n)
        bn = bang(n)
        e_id = P.unit_morphism()
        for a in C.objects:
            r.charge(2)
            lhs = P.apply_obj(idn, (a,) + (P.unit,) * n)
            if lhs != a:
                return r.fail(("identity law on object", n, a, lhs))
            lhs = P.apply_obj(bn, (P.unit, a))
            if lhs != a:
                return r.fail(("bang law on object", n, a, lhs))
        for m in C.morphism_ids():
            r.charge(2)
            lhs = P.apply_mor(idn, (m,) + (e_id,) * n)
            if lhs != m:
                return r.fail(("identity law on morphism", n, m, lhs))
            lhs = P.apply_mor(bn, (e_id, m))
            if lhs != m:
                return r.fail(("bang law on morphism", n, m, lhs))
    return r


def _composable_pairs(bound):
    """All pairs f: m -> k, g: k -> n with m <= bound."""
    for m in range(1, bound + 1):
        for k in range(1, m + 1):
            for f in enumerate_surjections(m, k):
                for n in range(1, k + 1):
                    for g in enumerate_surjections(k, n):
                        yield f, g


def _assoc_sweep(P, f, g, on_morphisms, r: Report) -> bool:
    """Check the pair (f, g) on every tuple (c, b_1..b_n, a_1..a_m) of
    objects, or of morphisms, charging ``r``; False once ``r`` holds its
    verdict (failed or capped).  Once per pair: the functors and arities of
    g, f, fg and the induced maps, and each tail a_1..a_m cut along g; once
    per head (c, b_1..b_n): mu_g's value.  Each instance reads as ``apply_obj``
    or ``apply_mor`` would; on objects, each value mu returns is checked (once
    per pair) to be an object before it is read further.

    A head with more than one tail is first checked as one row: the row of
    left sides, read once per value v of mu_g, is compared at once with the
    head's row of right sides, read at the inner values: the product of one
    row of mu_i values per fiber of g, read once per (b_1..b_n).  A row that
    holds and fits under the cap is charged whole; any other row (a
    mismatch, an exception, the cap inside it) goes to the per-instance loop,
    which finds the verdict, count and witness the row cannot locate."""
    nb = g.cod
    hs = [g, f, compose(f, g)] + [induced_map(f, g, i + 1) for i in range(nb)]
    (mu_g, mu_f, mu_fg, *mu_i) = [getattr(P.mu_for(h), "mor_map" if on_morphisms
                                          else "obj_map") for h in hs]
    ar_v, ar_inner = (f.cod,), hs[2].fiber_sizes()
    check, known, outer, inner = (None if on_morphisms else P.check_objects), set(), {}, {}
    slots = [C.morphism_ids() if on_morphisms else C.objects
             for C in [P.component(a) for a in P.arg_arities(g) + f.fiber_sizes()]]
    tails = [(tail, block_cut(tail, g)) for tail in itertools.product(*slots[1 + nb:])]
    # a row needs two tails; in product order, the tails are the product of their blocks
    n = len(tails)
    cuts = n > 1 and [list(itertools.product(*s)) for s in block_cut(slots[1 + nb:], g)]
    for head in itertools.product(*slots[:1 + nb]):
        if cuts and (r.cap is None or r.checked + n <= r.cap):
            try:
                v = check(ar_v, (mu_g[head],)) if check else (mu_g[head],)
                if head[1:] not in inner:   # the inner row, kept once its values are checked
                    inners = list(itertools.product(*[[mu[(b,) + a] for a in block] for mu, b,
                                                      block in zip(mu_i, head[1:], cuts)]))
                    if check:
                        known.update(check(ar_inner, i) for i in set(inners) - known)
                    inner[head[1:]] = inners
                lhs = outer[v] = outer.get(v) or [mu_f[v + t] for t, _ in tails]
                if lhs == [mu_fg[head[:1] + i] for i in inner[head[1:]]]:
                    r.charge(n)
                    continue
            except Exception:   # the loop raises it, or fails first, at its own instance
                pass
        v = None
        for tail, blocks in tails:
            if not r.charge():
                return False
            v = v or (check(ar_v, (mu_g[head],)) if check else (mu_g[head],))
            lhs = mu_f[v + tail]
            inner = tuple(mu[(b,) + a] for mu, b, a in zip(mu_i, head[1:], blocks))
            if check and inner not in known:
                known.add(check(ar_inner, inner))
            rhs = mu_fg[head[:1] + inner]
            if lhs != rhs:
                r.fail((str(f), str(g), head + tail, lhs, rhs))
                return False
    return True


def check_associativity(P: TruncatedOperad, cap: int | None = DEFAULT_CAP) -> Report:
    """Elementwise associativity over all composable surjection pairs.

    Each pair is checked on every tuple of objects and then on every
    tuple of morphisms, until ``cap`` instances are spent; a report that
    runs out of cap reads ``capped``, never pass.  Rows of instances that
    hold are charged whole (:func:`_assoc_sweep`); a failing or capped row
    is rerun instance by instance, so the count and witness are per instance.
    """
    r = Report("associativity", cap=cap)
    for f, g in _composable_pairs(P.bound):
        for on_morphisms in (False, True):
            if not _assoc_sweep(P, f, g, on_morphisms, r):
                return r
    return r


def validate_structure(P: TruncatedOperad) -> list[Report]:
    """Each component is a category, every mu functor is present and well
    typed on objects, the unit is an object; then, if all that holds, unitality."""
    reports = [validate_category(P.component(n), "category P_%d" % n)
               for n in range(1, P.bound + 1)]
    missing = [str(g) for g in all_surjections_up_to(P.bound) if g not in P.mu]
    reports.append(Report("mu coverage", PASS if not missing else FAIL,
                          checked=len(list(all_surjections_up_to(P.bound))),
                          witness=missing[:5] or None))
    if P.unit not in P.component(1):
        reports.append(Report("unit", FAIL, 1, witness=P.unit))
    reports.append(_check_mu_typing(P))
    if all(r.ok for r in reports):
        reports.append(check_unitality(P))
    return reports


def validate_operad(P: TruncatedOperad) -> list[Report]:
    """Structural validation, light enough to run on every construction.

    Adds object-level associativity to :func:`validate_structure`, and
    checks that each ``mu_g`` given by a plain table is a functor on
    morphisms (a :class:`fincat.RuleMap` is one by its rule); the witness
    names the first that fails.  The object sweep runs by rows, as in
    :func:`check_associativity`, the full associativity check.
    """
    reports = validate_structure(P)
    if reports[-1].name == "unitality":  # the structure is sound
        obj_only = Report("associativity (objects)")
        for f, g in _composable_pairs(P.bound):
            if not _assoc_sweep(P, f, g, False, obj_only):
                break
        reports.append(obj_only)
        functors = Report("mu on morphisms")
        for g in all_surjections_up_to(P.bound):
            if type(P.mu[g].mor_map) is dict:
                sub = validate_functor(P.mu[g])
                functors.charge(sub.checked)
                if not sub.ok:
                    functors.fail("mu_%s is not a functor: %s" % (g, sub.witness[0]))
                    break
        reports.append(functors)
    return reports


def _check_mu_typing(P: TruncatedOperad) -> Report:
    r = Report("mu typing")
    for g in all_surjections_up_to(P.bound):
        if g not in P.mu:
            continue
        slots = [P.component(a).objects for a in P.arg_arities(g)]
        for tup in itertools.product(*slots):
            r.charge()
            value = lookup(P.mu[g].obj_map, tup)
            if value is None or value not in P.component(g.dom):
                return r.fail((str(g), tup, value))
    return r


# ---------------------------------------------------------------------------
# operad morphisms


@dataclass
class OperadMorphism:
    source: TruncatedOperad
    target: TruncatedOperad
    functors: dict[int, Functor]
    name: str = "morphism"

    def on_obj(self, n, a):
        return self.functors[n].obj_map[a]

    def on_mor(self, n, m):
        return self.functors[n].mor_map[m]


def validate_operad_morphism(F: OperadMorphism, cap: int | None = DEFAULT_CAP) -> Report:
    """Check functoriality per arity, unit preservation, and both
    compatibility squares with the composition functors.  A component that
    is not a functor fails with ``("component", n, its first problem)``."""
    P, Q = F.source, F.target
    r = Report("operad morphism %s" % F.name, cap=cap)
    if P.bound != Q.bound:
        return r.fail("bounds differ")
    for n in range(1, P.bound + 1):
        sub = validate_functor(F.functors[n])
        within = r.charge(sub.checked)
        if not sub.ok:
            return r.fail(("component", n, sub.witness[0]))
        if not within:
            return r
    return _check_mu_squares(F, r)


def _check_mu_squares(F: OperadMorphism, r: Report) -> Report:
    """Unit preservation and the object and morphism squares of every
    composition functor, one charge of ``r`` per tuple; witnesses hold ``str`` forms."""
    P, Q = F.source, F.target
    if F.on_obj(1, P.unit) != Q.unit:
        return r.fail(("unit not preserved", str(F.on_obj(1, P.unit))))
    for g in all_surjections_up_to(P.bound):
        arities = P.arg_arities(g)
        obj_slots = [P.component(a).objects for a in arities]
        for tup in itertools.product(*obj_slots):
            if not r.charge():
                return r
            lhs = F.on_obj(g.dom, P.apply_obj(g, tup))
            rhs = Q.apply_obj(g, tuple(F.on_obj(n, a) for n, a in zip(arities, tup)))
            if lhs != rhs:
                return r.fail((str(g), tup, str(lhs), str(rhs)))
        mor_slots = [P.component(a).morphism_ids() for a in arities]
        for tup in itertools.product(*mor_slots):
            if not r.charge():
                return r
            lhs = F.on_mor(g.dom, P.apply_mor(g, tup))
            rhs = Q.apply_mor(g, tuple(F.on_mor(n, m) for n, m in zip(arities, tup)))
            if lhs != rhs:
                return r.fail((str(g), tup, str(lhs), str(rhs)))
    return r


def identity_operad_morphism(P: TruncatedOperad) -> OperadMorphism:
    return OperadMorphism(P, P, {n: identity_functor(P.component(n))
                                 for n in range(1, P.bound + 1)}, name="identity")


def morphism_to_terminal(P: TruncatedOperad) -> OperadMorphism:
    """The unique morphism into the terminal operad of the same bound."""
    Q = terminal_operad(P.bound)
    functors = {}
    for n in range(1, P.bound + 1):
        C, D = P.component(n), Q.component(n)
        star = D.objects[0]
        functors[n] = Functor(C, D, {x: star for x in C.objects},
                              {m: D.id_of(star) for m in C.morphism_ids()})
    return OperadMorphism(P, Q, functors, name="to terminal")


# ---------------------------------------------------------------------------
# builders


def _mu_functor(P_components, g, obj_rule, mor_rule) -> Functor:
    """The composition functor mu_g, backed by its rules: nothing is
    computed here.  Each entry is computed on its first lookup and kept
    (:class:`fincat.RuleMap`); the product source is built only if read."""
    cats = [P_components[a] for a in (g.cod,) + g.fiber_sizes()]
    return Functor(cats, P_components[g.dom], RuleMap(cats, obj_rule),
                   RuleMap(cats, mor_rule, mor=True))


def nat_operad(M: int) -> TruncatedOperad:
    """Saturating-addition operad on the chain 0..M.

    Concentrated in arity one: the single component is the poset
    {0..M} with arrows a -> b for a >= b, the unit is 0, and the only
    composition functor sends (a, b) to min(a + b, M).  On values whose
    true sum stays within the bound this is plain addition.
    """
    if M < 0:
        raise ValueError("need M >= 0")
    C = poset_category(range(M + 1), lambda a, b: a <= b)
    components = {1: C}

    def add(values):
        return min(sum(values), M)

    g = identity_surjection(1)
    mu = {g: _mu_functor(components, g, add,
                         lambda ms: (add(m[0] for m in ms), add(m[1] for m in ms)))}
    return TruncatedOperad(1, components, 0, mu, name="nat:%d" % M)


def tree_operad(N: int) -> TruncatedOperad:
    """The grafting operad of reduced planar rooted trees, up to N leaves.

    Component n is the poset of trees with n leaves ordered by edge
    contraction (an arrow s -> t exists when t is obtained from s by
    contractions); mu_g grafts the argument trees onto the leaves of the
    first one, block by block along g; the unit is the bare leaf.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    components = {}
    for n in range(1, N + 1):
        elems = T.enumerate_trees(n)
        components[n] = poset_category(elems, lambda t, s: t in T.contraction_closure(s))

    def obj_rule(tup):
        return T.graft(tup[0], tup[1:])

    def mor_rule(mids):  # arrows s -> t of a poset are the pairs (s, t)
        return (obj_rule(tuple(m[0] for m in mids)), obj_rule(tuple(m[1] for m in mids)))

    mu = {g: _mu_functor(components, g, obj_rule, mor_rule)
          for g in all_surjections_up_to(N)}
    return TruncatedOperad(N, components, T.LEAF, mu, name="trees:%d" % N)


def terminal_operad(N: int) -> TruncatedOperad:
    """One object and one morphism in every arity; everything collapses."""
    if N < 1:
        raise ValueError("need N >= 1")
    components = {n: terminal_category() for n in range(1, N + 1)}
    star = "*"
    mu = {g: _mu_functor(components, g, lambda tup: star, lambda ms: ("id", star))
          for g in all_surjections_up_to(N)}
    return TruncatedOperad(N, components, star, mu, name="terminal:%d" % N)
