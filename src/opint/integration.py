"""The integration 2-category of a truncated operad.

0-cells are pairs [m, a] with a an object of P_m; a 1-cell
[f; a_1..a_k; alpha]: [m, a] -> [k, b] carries a surjection f: m -> k,
an object a_i of P_{f^{-1}(i)} for each i, and a morphism
alpha: mu_f(b, a_1..a_k) -> a of P_m.  2-cells exist only between
1-cells with the same surjection and are tuples of component morphisms
delta_i: a'_i -> a''_i subject to  alpha'' o mu_f(1, delta) = alpha'.

A 1-cell into [k, b] is fixed by f, the a_i and a morphism out of
mu_f(b, a_1..a_k), so the 1-cells into each 0-cell are listed once, by
source (``sources``), for every walk of 1-cells; a hom adds its 2-cells on
demand, and every empty hom is one shared empty category.  The projection
to the surjection calculus is carried on the cells (``f``).

Cells are hash-consed (see ``interning``): building a cell whose fields
equal those of a live cell returns that very cell, so two cells are
equal exactly when they are identical.  The checkers compare and hash
cells millions of times; identity makes each O(1), not a deep
structural walk.  The tables hold cells weakly, one entry per live
cell, so a dropped integration's cells and entries are freed.  Homs,
identities, composites, the fibers of 1-cells and of triangles, and the
chosen lifts are ``memoized``; ``Integration.stats()`` reads the memos.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fincat import FinCat, validate_category
from .interning import HashConsed, memo_tables, memoized
from .operads import OperadMorphism, TruncatedOperad, validate_operad, \
    validate_operad_morphism
from .report import DEFAULT_CAP, FAIL, Report
from .surjections import CompositionError, Surjection, all_surjections_up_to, \
    block_cut, compose, identity_surjection, induced_map

_EMPTY_HOM = FinCat((), (), {}, {})   # every hom with no 1-cells; holds no integration


class InvalidOperad(ValueError):
    """The operad handed to ``integrate`` failed light validation, which
    includes a ``mu`` given by a table that is not a functor on morphisms."""


class ZeroCell(HashConsed):
    __slots__ = ("arity", "obj")

    def __str__(self):
        return "[%d,%s]" % (self.arity, self.obj)


class OneCell(HashConsed):
    __slots__ = ("f", "args", "alpha", "src", "dst")

    def __str__(self):
        return "[%s; %s; %s]: %s -> %s" % (
            self.f, ",".join(map(str, self.args)), self.alpha, self.src, self.dst)


class TwoCell(HashConsed):
    __slots__ = ("src", "dst", "deltas")

    def __str__(self):
        return "(%s) => (%s) via %s" % (self.src, self.dst, list(self.deltas))


class LaxTriangle(HashConsed):
    """A triangle d0 o d2 => d1 with the given filler 2-cell.

    ``d2`` is the top map z -> y, ``d0`` the right face y -> x, ``d1``
    the left face z -> x; the filler runs from the composite to d1.
    """

    __slots__ = ("d2", "d1", "d0", "filler")


class Integration:
    """The 2-category integrating a valid truncated operad."""

    def __init__(self, P: TruncatedOperad):
        bad = [r for r in validate_operad(P) if not r.ok]
        if bad:
            raise InvalidOperad("; ".join(r.line() for r in bad))
        self.P = P
        self._memos, self._hits = memo_tables(
            "alphas", "into", "hom", "targets", "id1", "id2", "hcomp", "hcomp2", "vcomp",
            "fibtri", "fib0", "lift")
        self._zero = tuple(ZeroCell(n, a)
                           for n in range(1, P.bound + 1)
                           for a in P.component(n).objects)
        self._rank = {x: i for i, x in enumerate(self._zero)}

    # -- cells ------------------------------------------------------------

    def zero_cells(self) -> tuple:
        return self._zero

    def one_cell(self, f: Surjection, args, alpha, dst: ZeroCell) -> OneCell:
        """Build a validated 1-cell with target ``dst``."""
        P = self.P
        args = tuple(args)
        if dst.arity != f.cod:  # the table cannot tell: terminal:N has "*" in every arity
            raise ValueError("target %s does not match %s" % (dst, f))
        source_obj = P.apply_obj(f, (dst.obj,) + args)  # ArityMismatch on a non-operand
        C = P.component(f.dom)
        if not C.has_morphism(alpha) or C.src(alpha) != source_obj:
            raise ValueError("%r is not a morphism of P_%d out of %r"
                             % (alpha, f.dom, source_obj))
        return OneCell(f, args, alpha, ZeroCell(f.dom, C.dst(alpha)), dst)

    @memoized("id1")
    def identity_one_cell(self, x: ZeroCell) -> OneCell:
        return self.component_part(x.arity, self.P.component(x.arity).id_of(x.obj))

    def two_cell(self, src: OneCell, dst: OneCell, deltas) -> TwoCell:
        """Build a validated 2-cell; raises if the compatibility fails."""
        deltas = tuple(deltas)
        cell = TwoCell(src, dst, deltas)
        # a built hom holds exactly the 2-cells that pass the checks below
        built = self._memos["hom"].get((src.src, src.dst))
        if built is not None and built.has_morphism(cell):
            return cell
        if src.f != dst.f or src.src != dst.src or src.dst != dst.dst:
            raise ValueError("no 2-cells between %s and %s" % (src, dst))
        P = self.P
        for size, d, a1, a2 in zip(src.f.fiber_sizes(), deltas, src.args, dst.args):
            C = P.component(size)
            if not C.has_morphism(d) or C.src(d) != a1 or C.dst(d) != a2:
                raise ValueError("component %r does not run %r -> %r" % (d, a1, a2))
        whisker = P.apply_mixed(src.f, (dst.dst.obj,) + deltas, (0,))
        if P.compose_in(src.f.dom, dst.alpha, whisker) != src.alpha:
            raise ValueError("2-cell condition fails for %s => %s" % (src, dst))
        return cell

    @memoized("id2")
    def identity_two_cell(self, cell: OneCell) -> TwoCell:
        ids = tuple(self.P.component(s).id_of(a)
                    for s, a in zip(cell.f.fiber_sizes(), cell.args))
        return TwoCell(cell, cell, ids)

    # -- composition ------------------------------------------------------

    @memoized("hcomp")
    def h_compose(self, second: OneCell, first: OneCell) -> OneCell:
        """Horizontal composite: ``first`` then ``second``."""
        if first.dst != second.src:
            raise CompositionError("cells %s and %s do not meet" % (first, second))
        P = self.P
        f, g = first.f, second.f
        blocks = block_cut(first.args, g)
        new_args = tuple(
            P.apply_obj(induced_map(f, g, i), (second.args[i - 1],) + blocks[i - 1])
            for i in range(1, g.cod + 1))
        whisker = P.apply_mixed(f, (second.alpha,) + first.args, range(1, f.cod + 1))
        alpha = P.compose_in(f.dom, first.alpha, whisker)
        return self.one_cell(compose(f, g), new_args, alpha, second.dst)

    @memoized("vcomp")
    def v_compose(self, second: TwoCell, first: TwoCell) -> TwoCell:
        if first.dst != second.src:
            raise CompositionError("2-cells do not meet")
        P = self.P
        deltas = tuple(P.compose_in(s, d2, d1)
                       for s, d2, d1 in zip(first.src.f.fiber_sizes(),
                                            second.deltas, first.deltas))
        return TwoCell(first.src, second.dst, deltas)

    @memoized("hcomp2")
    def h_compose_2cells(self, second: TwoCell, first: TwoCell) -> TwoCell:
        """Horizontal composition of 2-cells, componentwise through mu.

        The component over fiber i of the composite surjection is
        mu_{f^i}(eps_i, block of deltas), f the inner surjection.
        """
        P = self.P
        f, g = first.src.f, second.src.f
        blocks = block_cut(first.deltas, g)
        comps = tuple(
            P.apply_mor(induced_map(f, g, i), (second.deltas[i - 1],) + blocks[i - 1])
            for i in range(1, g.cod + 1))
        src = self.h_compose(second.src, first.src)
        dst = self.h_compose(second.dst, first.dst)
        return self.two_cell(src, dst, comps)

    def stats(self) -> dict:
        """Live cells per class (process-wide) and, per memo of this
        integration, its size and its hit count.  The memos: P_m's morphisms
        by source (``alphas``), the 1-cells into a 0-cell (``into``), the
        targets of the 1-cells out of it (``targets``), homs (``hom``),
        identities (``id1``, ``id2``), compositions (``hcomp``, ``hcomp2``,
        ``vcomp``), fibers of triangles (``fibtri``) and of 1-cells (``fib0``),
        chosen lifts (``lift``)."""
        cells = (ZeroCell, OneCell, TwoCell, LaxTriangle)
        return {"live_cells": {cls.__name__: len(cls._live) for cls in cells},
                "memos": {name: {"size": len(memo), "hits": self._hits[name]}
                          for name, memo in self._memos.items()}}

    # -- homs ---------------------------------------------------------------

    @memoized("alphas")
    def _alphas(self, m: int) -> dict:
        """The morphisms of P_m out of each object, each with its target 0-cell."""
        out: dict = {}
        for alpha, s, a in self.P.component(m).morphisms():
            out.setdefault(s, []).append((alpha, ZeroCell(m, a)))
        return out

    @memoized("into")
    def sources(self, y: ZeroCell) -> dict:
        """The 1-cells into y by source, ``{x: hom(x, y).objects}`` in 0-cell order,
        each hom by f, args, then alpha, a morphism out of mu_f(y, args) into x's object."""
        P = self.P
        by_src: dict = {}
        for f in (f for f in all_surjections_up_to(P.bound) if f.cod == y.arity):
            alphas = self._alphas(f.dom)
            for args in itertools.product(*[P.component(s).objects for s in f.fiber_sizes()]):
                for alpha, x in alphas.get(P.apply_obj(f, (y.obj,) + args), ()):
                    by_src.setdefault(x, []).append(OneCell(f, args, alpha, x, y))
        return {x: tuple(by_src[x]) for x in sorted(by_src, key=self._rank.__getitem__)}

    @memoized("targets")
    def targets(self, x: ZeroCell) -> tuple:
        return tuple(y for y in self._zero if x in self.sources(y))

    @memoized("hom")
    def hom(self, x: ZeroCell, y: ZeroCell) -> FinCat:
        """The hom-category x -> y: objects 1-cells, morphisms 2-cells."""
        P = self.P
        cells = self.sources(y).get(x)
        if cells is None:
            return _EMPTY_HOM
        twos = []
        for f, group in itertools.groupby(cells, lambda c: c.f):   # cells run by f
            group, sizes = tuple(group), f.fiber_sizes()
            for src in group:
                for dst in group:
                    slots = [P.hom(s, a1, a2)
                             for s, a1, a2 in zip(sizes, src.args, dst.args)]
                    for deltas in itertools.product(*slots):
                        whisker = P.apply_mixed(f, (y.obj,) + deltas, (0,))
                        if P.compose_in(f.dom, dst.alpha, whisker) == src.alpha:
                            twos.append(TwoCell(src, dst, deltas))
        identity = {c: self.identity_two_cell(c) for c in cells}
        return FinCat(cells, [(t, t.src, t.dst) for t in twos], identity, self.v_compose)

    # -- factorization, fibers, lifts --------------------------------------

    def component_part(self, m: int, alpha) -> OneCell:
        """[1; e..e; alpha] into [m, src alpha], over the identity surjection."""
        return self.one_cell(identity_surjection(m), (self.P.unit,) * m, alpha,
                             ZeroCell(m, self.P.component(m).src(alpha)))

    def factorize(self, phi: OneCell) -> tuple[OneCell, OneCell]:
        """Split a 1-cell through the cleavage: phi = [f; args; 1] o [1; e..e;
        alpha], its component part (over an identity, with unit fibers)
        followed by ``cartesian_lift(f, dst, fibers of phi)``."""
        return (self.component_part(phi.f.dom, phi.alpha),
                self.cartesian_lift(phi.f, phi.dst, self.fibers_of_1cell(phi)))

    @memoized("fib0")
    def fibers_of_1cell(self, phi: OneCell) -> tuple[ZeroCell, ...]:
        return tuple(ZeroCell(s, a) for s, a in zip(phi.f.fiber_sizes(), phi.args))

    def cartesian_lift(self, g: Surjection, c_cell: ZeroCell, fiber_cells) -> OneCell:
        """The canonical lift [g; b_1..b_n; 1] with source [k, mu_g(c, b)]."""
        return self._lift((g, c_cell, tuple(fiber_cells)))

    @memoized("lift")
    def _lift(self, key: tuple) -> OneCell:
        g, c_cell, fiber_cells = key
        arities = tuple(fc.arity for fc in fiber_cells)
        if arities != g.fiber_sizes():
            raise ValueError("fiber arities %r do not match %s" % (list(arities), g))
        bs = tuple(fc.obj for fc in fiber_cells)
        s = self.P.apply_obj(g, (c_cell.obj,) + bs)
        return self.one_cell(g, bs, self.P.component(g.dom).id_of(s), c_cell)

    @memoized("fibtri")
    def fibers_of_lax_triangle(self, tri: LaxTriangle) -> tuple[OneCell, ...]:
        """The induced 1-cells between the fibers of d1 and d0: each runs from
        a fiber of d1 into the fiber of d0 over the same point."""
        f, g = tri.d2.f, tri.d0.f
        parts = zip(self.fibers_of_1cell(tri.d0), self.fibers_of_1cell(tri.d1),
                    block_cut(tri.d2.args, g), tri.filler.deltas, strict=True)
        out = []
        for i, (target, expected_src, block, delta) in enumerate(parts, start=1):
            cell = self.one_cell(induced_map(f, g, i), block, delta, target)
            if cell.src != expected_src:
                raise ValueError("fiber %d of the triangle is ill-typed" % i)
            out.append(cell)
        return tuple(out)

    def fibers_of_slice_2cell(self, src: LaxTriangle, dst: LaxTriangle,
                              gamma: TwoCell) -> tuple[TwoCell, ...]:
        """The fibers of the slice 2-cell ``gamma``: ``src => dst`` onto ``src.d0``."""
        blocks = block_cut(gamma.deltas, src.d0.f)
        src_fibers = self.fibers_of_lax_triangle(src)
        dst_fibers = self.fibers_of_lax_triangle(dst)
        return tuple(self.two_cell(s, d, b)
                     for s, d, b in zip(src_fibers, dst_fibers, blocks))


def integrate(P: TruncatedOperad) -> Integration:
    """Construct the integration 2-category of a structurally valid operad."""
    return Integration(P)


# ---------------------------------------------------------------------------
# generic helpers over 2-category presentations


def group_by_card(zero_cells, card) -> dict:
    """The 0-cells by cardinality, in order of first appearance, each in 0-cell order."""
    groups: dict = {}
    for x in zero_cells:
        groups.setdefault(card(x), []).append(x)
    return groups


def homs(tc):
    """The non-empty homs (x, y, hom(x, y)): x in 0-cell order, then ``targets(x)``."""
    return ((x, y, tc.hom(x, y)) for x in tc.zero_cells() for y in tc.targets(x))


def lift_instances(by_card: dict):
    """Every lift problem (g, c, bs): a surjection g: k -> n, a 0-cell c of
    cardinality n and a tuple bs of 0-cells whose cardinalities are the fiber
    sizes of g, in a fixed order, from ``group_by_card``.  k runs up to the
    largest cardinality present: a lift's source has cardinality k."""
    for g in all_surjections_up_to(max(by_card)):
        slots = [by_card.get(s, ()) for s in g.fiber_sizes()]
        for c in by_card.get(g.cod, ()):
            for bs in itertools.product(*slots):
                yield g, c, bs


# ---------------------------------------------------------------------------
# law checkers


def check_two_category_laws(I, cap: int | None = DEFAULT_CAP) -> list[Report]:
    """Horizontal associativity and units, hom-category laws, interchange,
    on a presentation speaking the protocol of ``Integration``.

    The two capped laws each get the whole ``cap``; hom categories and
    horizontal units are exhaustive."""
    return [_check_hom_categories(I), _check_horizontal_units(I),
            _check_horizontal_associativity(I, Report("horizontal associativity",
                                                      cap=cap)),
            _check_interchange(I, Report("interchange", cap=cap))]


def _cells_out(I) -> dict:
    """Per 0-cell x, each 1-cell out of x with its target y, y in ``targets(x)`` order."""
    return {x: tuple((y, cell) for y in I.targets(x) for cell in I.sources(y)[x])
            for x in I.zero_cells()}


def _check_hom_categories(I) -> Report:
    r = Report("hom categories")
    for x, y, H in homs(I):
        sub = validate_category(H, show=str)
        r.charge(sub.checked)
        if not sub.ok:
            return r.fail((str(x), str(y), sub.witness))
    return r


def _check_horizontal_units(I) -> Report:
    r = Report("horizontal units")
    for x, cells in _cells_out(I).items():
        for y, cell in cells:
            r.charge()
            if I.h_compose(cell, I.identity_one_cell(x)) != cell or \
               I.h_compose(I.identity_one_cell(y), cell) != cell:
                return r.fail(str(cell))
    return r


def _check_horizontal_associativity(I, r: Report) -> Report:
    out = _cells_out(I)
    for y, f in itertools.chain.from_iterable(out.values()):
        for z, g in out[y]:
            gf = I.h_compose(g, f)
            for _, h in out[z]:
                if not r.charge():
                    return r
                if I.h_compose(h, gf) != I.h_compose(I.h_compose(h, g), f):
                    return r.fail((str(f), str(g), str(h)))
    return r


def _check_interchange(I, r: Report) -> Report:
    """(e2∘e1)*(d2∘d1) = (e2*d2)∘(e1*d1): homs in ``homs`` order, and the
    pairs (t2, t1) of each as its ``composable_pairs``."""
    twos_by_hom = {(x, y): list(H.composable_pairs()) for x, y, H in homs(I)}
    for (_, y), inner in twos_by_hom.items():
        for z in I.targets(y):
            for e2, e1 in twos_by_hom[(y, z)]:
                for d2, d1 in inner:
                    if not r.charge():
                        return r
                    lhs = I.h_compose_2cells(I.v_compose(e2, e1),
                                             I.v_compose(d2, d1))
                    rhs = I.v_compose(I.h_compose_2cells(e2, d2),
                                      I.h_compose_2cells(e1, d1))
                    if lhs != rhs:
                        return r.fail((str(e2), str(e1), str(d2), str(d1)))
    return r


def check_projection(I: Integration, cap: int | None = DEFAULT_CAP) -> Report:
    """The projection onto the surjection calculus is a strict 2-functor."""
    r = Report("projection", cap=cap)
    for x in I.zero_cells():
        if not r.charge():
            return r
        if I.identity_one_cell(x).f != identity_surjection(x.arity):
            return r.fail(str(x))
    out = _cells_out(I)
    for y, f_cell in itertools.chain.from_iterable(out.values()):
        for _, g_cell in out[y]:
            if not r.charge():
                return r
            if I.h_compose(g_cell, f_cell).f != compose(f_cell.f, g_cell.f):
                return r.fail((str(f_cell), str(g_cell)))
    for _, _, H in homs(I):
        for t, _, _ in H.morphisms():
            if not r.charge():
                return r
            if t.src.f != t.dst.f:
                return r.fail(str(t))
    return r


def check_factorization(I: Integration, cap: int | None = DEFAULT_CAP) -> Report:
    """Every 1-cell factors uniquely through the cleavage: a component part,
    over an identity with unit fibers, followed by a cut part, which is
    its own chosen lift."""
    r = Report("strict factorization", cap=cap)
    unit = ZeroCell(1, I.P.unit)

    def component(c):
        return c.f.is_identity() and I.fibers_of_1cell(c) == (unit,) * c.f.dom

    def cut(c):
        return c is I.cartesian_lift(c.f, c.dst, I.fibers_of_1cell(c))

    for cells in _cells_out(I).values():   # the 1-cells out of one 0-cell
        for y, phi in cells:
            if not r.charge():
                return r
            e_part, m_part = I.factorize(phi)
            if I.h_compose(m_part, e_part) != phi or not component(e_part) or not cut(m_part):
                return r.fail(str(phi))
            found = 0
            for z, e_cand in cells:
                if not component(e_cand):
                    continue
                for m_cand in I.sources(y).get(z, ()):
                    if not r.charge():
                        return r
                    if cut(m_cand) and I.h_compose(m_cand, e_cand) == phi:
                        found += 1
            if found != 1:
                return r.fail((str(phi), "%d factorizations" % found))
    return r


# ---------------------------------------------------------------------------
# functoriality of the construction


@dataclass
class IntegrationMap:
    """The 2-functor a morphism of operads induces between integrations.
    For any per-arity functors F these are the cell maps of ∫F, raising
    ValueError where an image cell does not exist; ``on1`` is memoized."""

    F: OperadMorphism
    source: Integration
    target: Integration

    def __post_init__(self):
        self._memos, self._hits = memo_tables("on1")

    def on0(self, x: ZeroCell) -> ZeroCell:
        return ZeroCell(x.arity, self.F.on_obj(x.arity, x.obj))

    @memoized("on1")
    def on1(self, cell: OneCell) -> OneCell:
        sizes = cell.f.fiber_sizes()
        args = tuple(self.F.on_obj(s, a) for s, a in zip(sizes, cell.args))
        alpha = self.F.on_mor(cell.f.dom, cell.alpha)
        return self.target.one_cell(cell.f, args, alpha, self.on0(cell.dst))

    def on2(self, t: TwoCell) -> TwoCell:
        sizes = t.src.f.fiber_sizes()
        deltas = tuple(self.F.on_mor(s, d) for s, d in zip(sizes, t.deltas))
        return self.target.two_cell(self.on1(t.src), self.on1(t.dst), deltas)


def integrate_morphism(F: OperadMorphism, cap: int | None = DEFAULT_CAP) -> IntegrationMap:
    report = validate_operad_morphism(F, cap=cap)
    if report.status == FAIL:
        raise ValueError("invalid operad morphism: %s" % report.line())
    return IntegrationMap(F, integrate(F.source), integrate(F.target))
