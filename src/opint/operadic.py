"""Operadic 2-categories: the abstract side of the equivalence.

An operadic structure on a finite 2-category presentation consists of a
cardinality labelling into the surjection calculus, fiber assignments on
the lax slices (0-, 1- and 2-dimensional), and one chosen unit: a
0-cell of cardinality 1 into which every hom has a terminal object.  The
integration of an operad carries a canonical such structure; the checks
here verify the axioms, identify cartesian cells, verify a chosen
splitting, and extract an operad back from any split-fibered structure.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from .fincat import FinCat, Functor, enumerate_functors, is_terminal, validate_functor
from .interning import memo_tables, memoized
from .integration import (
    Integration, IntegrationMap, InvalidOperad, LaxTriangle, OneCell, ZeroCell, _cells_out,
    group_by_card, homs, integrate, lift_instances,
)
from .operads import OperadMorphism, TruncatedOperad, _check_mu_squares, _composable_pairs
from .report import DEFAULT_CAP, FAIL, Report
from .surjections import (
    Surjection, all_surjections_up_to, bang, block_cut, compose, enumerate_surjections,
    identity_surjection, induced_map, ordinal_sum,
)


class ExtractionError(ValueError):
    """The data fed to the extraction was not genuinely split-fibered."""


@dataclass
class OperadicTwoCat:
    """A finite 2-category presentation with its operadic structure.

    The presentation ``tc`` must provide ``zero_cells()``, ``hom(x, y)``
    (a FinCat of 1-cells and 2-cells), ``sources(y)`` (the 1-cells into y
    by source, ``{x: hom(x, y).objects}`` over the non-empty homs),
    ``targets(x)`` (the 0-cells with a 1-cell out of x), both in 0-cell order,
    ``h_compose(g, f)``, ``identity_one_cell(x)``, ``identity_two_cell(f)``,
    ``v_compose(t2, t1)`` and ``h_compose_2cells(e, d)``, named as on
    :class:`Integration`.  The remaining fields interpret its cells in the
    surjection calculus, each fiber map from its cells alone (a slice
    2-cell ``src => dst`` lies over ``src.d0``).  The presentation is
    connected, as Delta_s is: ``eps`` sends every 0-cell into the one
    chosen ``unit``.  Every search over lax triangles reads one memo,
    ``triangles_from(phi, z)``: the triangles onto ``phi`` out of ``z``,
    each with its ``fib1``.
    """

    tc: Any
    card0: Callable
    card1: Callable
    src0: Callable
    dst0: Callable
    src2: Callable
    fib0: Callable          # one-cell -> tuple of 0-cells
    fib1: Callable          # lax triangle -> tuple of 1-cells
    fib2: Callable          # (src, dst, gamma) -> tuple of 2-cells, for a
                            # slice 2-cell gamma: src => dst onto src.d0
    unit: Any               # the chosen 0-cell of cardinality 1
    eps: Callable           # 0-cell -> terminal 1-cell into the unit
    label: str = "operadic 2-category"
    # not init fields, so that dataclasses.replace starts with empty memos
    _memos: dict = field(init=False, repr=False, compare=False)
    _hits: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._memos, self._hits = memo_tables("cards", "triangles", "trivial")

    @memoized("cards")
    def cells_by_card(self) -> dict:
        """The 0-cells by cardinality (``group_by_card``), grouped once."""
        return group_by_card(self.tc.zero_cells(), self.card0)

    def one_cells_into(self, x):
        return itertools.chain.from_iterable(self.tc.sources(x).values())

    @memoized("triangles")
    def triangles_from(self, phi, z) -> tuple:
        """The lax triangles onto ``phi`` out of ``z``, by top map, left face,
        then filler, each followed by its ``fib1``.  The tuple is flat: a pair
        per triangle would take 56 more bytes each."""
        x = self.dst0(phi)
        hom_zx = self.tc.hom(z, x)
        out = []
        for psi in self.tc.sources(self.src0(phi)).get(z, ()):
            composite = self.tc.h_compose(phi, psi)
            for theta in hom_zx.objects:
                for filler in hom_zx.hom(composite, theta):
                    tri = LaxTriangle(psi, theta, phi, filler)
                    out += (tri, self.fib1(tri))
        return tuple(out)

    def triangles_onto(self, phi):
        """All lax triangles with right face ``phi``, each paired with its ``fib1``."""
        for z in self.tc.sources(self.src0(phi)):   # each has a 1-cell into x too, through phi
            table = iter(self.triangles_from(phi, z))
            yield from zip(table, table)

    def fib1_cached(self, x, tri):
        """``fib1(tri)``; no caller in ``src/``, kept while the benchmark traces it."""
        return self.fib1(tri)

    def slice_compose(self, second: LaxTriangle, first: LaxTriangle) -> LaxTriangle:
        """Composition of lax-slice morphisms over a common vertex; no caller
        in ``src/``, kept while the benchmark traces it."""
        d2 = self.tc.h_compose(second.d2, first.d2)
        whisk = self.tc.h_compose_2cells(second.filler, self.tc.identity_two_cell(first.d2))
        filler = self.tc.v_compose(first.filler, whisk)
        return LaxTriangle(d2, first.d1, second.d0, filler)

    @classmethod
    def from_integration(cls, I: Integration) -> "OperadicTwoCat":
        # chosen unit [1, unit]: the lali choice check proves it, since
        # eps(x) is a 1-cell from each 0-cell x into it
        u = ZeroCell(1, I.P.unit)

        def eps(x):
            return I.cartesian_lift(bang(x.arity), u, (x,))

        return cls(
            tc=I,
            card0=lambda x: x.arity,
            card1=lambda c: c.f,
            src0=lambda c: c.src,
            dst0=lambda c: c.dst,
            src2=lambda t: t.src,
            fib0=I.fibers_of_1cell,
            fib1=I.fibers_of_lax_triangle,
            fib2=I.fibers_of_slice_2cell,
            unit=u,
            eps=eps,
            label="integration of %s" % I.P.name,
        )


# ---------------------------------------------------------------------------
# the surjection calculus as an operadic 2-category with identity 2-cells


class DeltaSTwoCat:
    """Ordinals 1..N with surjections as 1-cells and only identity 2-cells."""

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("need N >= 1")
        self.N = N
        self._memos, self._hits = memo_tables("into", "hom")

    def zero_cells(self):
        return tuple(range(1, self.N + 1))

    @memoized("into")
    def sources(self, k) -> dict:
        return {m: tuple(enumerate_surjections(m, k)) for m in range(k, self.N + 1)}

    def targets(self, m):
        return tuple(range(1, m + 1))

    @memoized("hom")
    def hom(self, m, k) -> FinCat:
        cells = self.sources(k).get(m, ())
        identity = {c: ("id2", c) for c in cells}
        return FinCat(cells, [(t, c, c) for c, t in identity.items()], identity,
                      {(t, t): t for t in identity.values()})

    def h_compose(self, g, f):
        return compose(f, g)

    def identity_one_cell(self, n):
        return identity_surjection(n)

    def identity_two_cell(self, cell):
        return ("id2", cell)

    def v_compose(self, t2, t1):
        if t1 != t2:
            raise ValueError("only identity 2-cells exist here")
        return t1

    def h_compose_2cells(self, e, d):
        return ("id2", compose(d[1], e[1]))


def delta_s(N: int) -> OperadicTwoCat:
    tc = DeltaSTwoCat(N)

    def fib1(tri):
        return tuple(induced_map(tri.d2, tri.d0, i) for i in range(1, tri.d0.cod + 1))

    def fib2(src, dst, gamma):
        return tuple(("id2", c) for c in fib1(src))

    return OperadicTwoCat(
        tc=tc,
        card0=lambda n: n,
        card1=lambda f: f,
        src0=lambda f: f.dom,
        dst0=lambda f: f.cod,
        src2=lambda t: t[1],
        fib0=Surjection.fiber_sizes,
        fib1=fib1,
        fib2=fib2,
        unit=1,
        eps=lambda n: bang(n),
        label="surjection calculus up to %d" % N,
    )


# ---------------------------------------------------------------------------
# axiom checks


def check_operadic_axioms(O: OperadicTwoCat, cap: int | None = DEFAULT_CAP) -> list[Report]:
    """All five axioms, instance by instance, plus the lali choice itself.

    Each capped check gets the whole ``cap`` on a report of its own.
    Malformed structure surfacing as typing errors inside a check is
    reported as a failure of that check rather than raised.
    """
    reports = []
    for name, checker in (("lali choice", _check_lali_choice),
                          ("axiom (i)", _check_axiom_cardinality),
                          ("axiom (ii)", _check_axiom_unit_fibers),
                          ("axiom (iii)", _check_axiom_identity_fibers),
                          ("axiom (iv)", _check_axiom_terminal_fibers),
                          ("axiom (v)", _check_fiber_axiom),
                          ("axiom (v) one-cells", _check_fiber_axiom_one_cells)):
        try:
            reports.append(checker(O, Report(name, cap=cap)))
        except (ValueError, KeyError, IndexError) as exc:
            reports.append(Report(name, FAIL, witness=("error", repr(exc))))
    return reports


def _check_lali_choice(O, r) -> Report:
    # eps(x) must be a terminal object of hom(x, u), not a particular one
    u = O.unit
    if O.card0(u) != 1:
        return r.fail(("cardinality", str(u)))
    for x in O.tc.zero_cells():
        if not r.charge():
            return r
        if not is_terminal(O.tc.hom(x, u), O.eps(x)):
            return r.fail(("terminal map", str(x)))
    if O.eps(u) != O.tc.identity_one_cell(u):
        return r.fail(("endo terminal", str(u)))
    return r


def _check_axiom_cardinality(O, r) -> Report:
    for x in O.tc.zero_cells():
        for phi in O.one_cells_into(x):
            if not r.charge():
                return r
            if tuple(O.card0(c) for c in O.fib0(phi)) != O.card1(phi).fiber_sizes():
                return r.fail(("fiber cardinalities", str(phi)))
            for tri, fib1s in O.triangles_onto(phi):
                if not r.charge():
                    return r
                f, g = O.card1(tri.d2), O.card1(tri.d0)
                if len(fib1s) != g.cod:
                    return r.fail(("triangle fiber count", str(phi)))
                for i, cell in enumerate(fib1s, start=1):
                    if O.card1(cell) != induced_map(f, g, i):
                        return r.fail(("triangle fiber map", i, str(phi)))
    for _, _, H in homs(O.tc):
        for t, s, d in H.morphisms():
            if not r.charge():
                return r
            if O.card1(s) != O.card1(d):
                return r.fail(("2-cell over distinct maps", str(t)))
    return r


def _check_axiom_unit_fibers(O, r) -> Report:
    # over the unit, the fiber of each terminal map is its domain
    for x in O.tc.zero_cells():
        if not r.charge():
            return r
        if O.fib0(O.eps(x)) != (x,):
            return r.fail(str(x))
    return r


def _check_axiom_identity_fibers(O, r) -> Report:
    for x in O.tc.zero_cells():
        if not r.charge():
            return r
        if O.fib0(O.tc.identity_one_cell(x)) != (O.unit,) * O.card0(x):
            return r.fail(str(x))
    return r


def _check_axiom_terminal_fibers(O, r) -> Report:
    # fibers of the unit triangle on phi are the terminal maps of its fibers
    for x in O.tc.zero_cells():
        ident = O.tc.identity_one_cell(x)
        for phi in O.one_cells_into(x):
            if not r.charge():
                return r
            if O.tc.h_compose(ident, phi) != phi:
                return r.fail(("strict unit law", str(phi)))
            tri = LaxTriangle(phi, phi, ident, O.tc.identity_two_cell(phi))
            if O.fib1(tri) != tuple(O.eps(c) for c in O.fib0(phi)):
                return r.fail(str(phi))
    return r


def _check_fiber_axiom(O, r) -> Report:
    """Fibers of fibers agree along both routes around the square.

    Exhaustive over the triangles onto every 1-cell: the fibers of the
    top map, regrouped along the right face, must equal the fibers of
    the induced fiber maps.  This is the instance form the facts about
    trivial cells and the extraction consume.
    """
    for x in O.tc.zero_cells():
        for phi in O.one_cells_into(x):
            g, n_fib = O.card1(phi), len(O.fib0(phi))
            for tri, fib1s in O.triangles_onto(phi):
                if not r.charge():
                    return r
                route_a = block_cut(O.fib0(tri.d2), g)
                route_b = tuple(O.fib0(fib1s[i]) for i in range(n_fib))
                if route_a != route_b:
                    return r.fail(("objects", str(phi)))
    return r


def _check_fiber_axiom_one_cells(O, r) -> Report:
    """The square on the connecting data of the double slice.

    This sweeps pairs of triangles onto each 1-cell together with a
    connecting triangle and a compatible slice 2-cell; the space is
    quadratic in the triangle count, so large presentations cap out with
    an explicit verdict while small ones exhaust.
    """
    for x in O.tc.zero_cells():
        onto = {}   # each 1-cell into x read so far: its triangles, with their fib1
        for phi in O.one_cells_into(x):
            if not _fiber_axiom_on_one_cells(O, phi, r, onto):
                return r
    return r


def _kept(table, key, items):
    """Yield ``items`` when a plain walk would, each kept in ``table[key]`` as read."""
    table[key] = read = []
    for item in items:
        read.append(item)
        yield item


def _fiber_axiom_on_one_cells(O, phi, r, onto) -> bool:
    """The square on the 1-cells of the double slice over ``phi``.

    A 1-cell from the triangle ``a1`` to the triangle ``a2`` is a
    connecting triangle ``sigma`` between their left faces plus a slice
    2-cell from ``a2 o sigma`` to ``a1``; both routes around the square
    must then send it to the same blocks of fiber data; ``triangles``
    pairs each triangle onto ``phi`` with its fibers, as ``onto`` keeps them
    per 1-cell into ``phi``'s target (``_kept``).  Three tables are
    local to ``phi`` and reused only for an identical key, never assumed:
    the routes ``block_cut(fib1(tri_a), g)``, keyed on all of ``tri_a``;
    the candidates, which depend only on ``sigma.d1`` and ``a2.d2 o
    sigma.d2`` (``candidates``), each an entry ``[a1, gamma, fibers of a1,
    filled, slice fibers]`` with ``filled = a1.filler o (1_phi * gamma)``;
    and the squares that passed (``verified``).  An instance passes the
    filler test when ``filled`` is the filler of the composite ``a2 o
    sigma``; the composite slice is then ``(a2.d2 o sigma.d2, sigma.d1,
    phi, filled)``, and ``fib2(composite slice, a1, gamma)``, asked at the
    candidate's first passing instance, is kept in the entry.  Per ``(a2,
    sigma)``: the composite's filler, and the composed fibers once a
    square of the pair misses ``verified``.  Per instance: a charge, the
    filler test, the route lookup and the square ``(sig_f, a1_f, a2_f,
    xi_f, route_a)``, which fixes the fiber loop (the fibers of ``phi``
    are fixed, ``composed_f`` follows from ``a2_f`` and ``sig_f``); the
    loop runs unless an equal square passed before, and ``verified`` gains
    a square only once it passes, so a failing one is evaluated at its
    first instance.  Counts on ``r`` and returns False once ``r`` holds its
    verdict (capped or failed).
    """
    tc, fib1, fib2, src2 = O.tc, O.fib1, O.fib2, O.src2
    y, g, n_fib = O.src0(phi), O.card1(phi), len(O.fib0(phi))
    triangles = onto.get(phi) or tuple(_kept(onto, phi, O.triangles_onto(phi)))
    by_d1: dict = {}
    for pair in triangles:
        by_d1.setdefault(pair[0].d1, []).append(pair)
    id2_phi = tc.identity_two_cell(phi)
    routes, candidates, verified = {}, {}, set()   # local to phi
    for a2, a2_f in triangles:                 # target object of the 1-cell
        for sigma, sig_f in onto.get(a2.d1) or _kept(onto, a2.d1, O.triangles_onto(a2.d1)):
            sources = by_d1.get(sigma.d1)
            if not sources:
                continue
            d2comp = tc.h_compose(a2.d2, sigma.d2)
            entries = candidates.get((sigma.d1, d2comp))
            if entries is None:
                hom_up = tc.hom(O.src0(sigma.d1), y)
                entries = candidates[sigma.d1, d2comp] = [
                    [a1, gamma, a1_f,
                     tc.v_compose(a1.filler, tc.h_compose_2cells(id2_phi, gamma)), None]
                    for a1, a1_f in sources for gamma in hom_up.hom(d2comp, a1.d2)]
            if not entries:
                continue
            comp_filler = tc.v_compose(
                sigma.filler, tc.h_compose_2cells(a2.filler, tc.identity_two_cell(sigma.d2)))
            composed_f = None
            for entry in entries:              # a1: source object of the 1-cell
                if not r.charge():
                    return False
                a1, gamma, a1_f, filled, xi_f = entry
                if filled != comp_filler:
                    continue
                if xi_f is None:
                    xi_f = entry[4] = fib2(
                        LaxTriangle(d2comp, sigma.d1, phi, filled), a1, gamma)
                tri_a = (sigma.d2, a1.d2, a2.d2, gamma)
                route_a = routes.get(tri_a)
                if route_a is None:
                    route_a = routes[tri_a] = block_cut(fib1(LaxTriangle(*tri_a)), g)
                square = (sig_f, a1_f, a2_f, xi_f, route_a)
                if square in verified:
                    continue
                if composed_f is None:
                    composed_f = tuple(tc.h_compose(a2_f[i], sig_f[i])
                                       for i in range(n_fib))
                for i in range(n_fib):
                    if src2(xi_f[i]) != composed_f[i]:
                        r.fail(("fiber functoriality", i, str(phi)))
                        return False
                    tri_b = LaxTriangle(sig_f[i], a1_f[i], a2_f[i], xi_f[i])
                    if fib1(tri_b) != route_a[i]:
                        r.fail(("one-cells", i, str(phi)))
                        return False
                verified.add(square)
    return True


# ---------------------------------------------------------------------------
# cartesian cells, fibrations, splittings


def is_operadic_cartesian(O: OperadicTwoCat, phi,
                          cap: int | None = DEFAULT_CAP) -> Report:
    """Exhaustively test the unique-lift property of a single 1-cell.

    For every map into the target, every tuple of fiber morphisms and the
    unique compatible base triangle, exactly one lax triangle onto
    ``phi`` must restrict to the given fibers.
    """
    t = O.dst0(phi)
    g = O.card1(phi)
    fibs_phi = O.fib0(phi)
    r = Report("operadic cartesian", cap=cap)
    for theta in O.one_cells_into(t):
        fibs_theta = O.fib0(theta)
        slots = [O.tc.sources(b).get(a, ()) for a, b in zip(fibs_theta, fibs_phi)]
        for psis in itertools.product(*slots):
            if not r.charge():
                return r
            base = ordinal_sum([O.card1(p) for p in psis])
            if compose(base, g) != O.card1(theta):
                continue  # no base triangle has these induced maps
            matches = len(_fillers(O, phi, theta, psis, base))
            if matches != 1:
                return r.fail((str(phi), str(theta), tuple(map(str, psis)),
                               "%d fillers" % matches))
    return r


def _fillers(O, phi, theta, psis, base) -> list:
    """The lax triangles onto ``phi`` with left face ``theta``, top map
    over the surjection ``base`` and fiber maps ``psis``."""
    table = iter(O.triangles_from(phi, O.src0(theta)))
    return [tri for tri, fib1s in zip(table, table)
            if tri.d1 == theta and O.card1(tri.d2) == base and fib1s == psis]


@dataclass
class SplitFibrationData:
    """A choice of cartesian lifts over the surjection calculus, up to the
    largest cardinality of a 0-cell (``bound``)."""

    operadic: OperadicTwoCat
    lift: Callable          # (g, target 0-cell, fiber 0-cells) -> 1-cell

    @property
    def bound(self) -> int:
        return max(self.operadic.cells_by_card())

    def lift_source(self, g, target, fibers):
        return self.operadic.src0(self.lift(g, target, fibers))


def canonical_fibration(I: Integration) -> SplitFibrationData:
    O = OperadicTwoCat.from_integration(I)
    return SplitFibrationData(O, I.cartesian_lift)


def check_splitting(S: SplitFibrationData, cap: int | None = DEFAULT_CAP) -> Report:
    """The three coherence equations of the chosen lifts.

    The composite-lift equation is checked in its composite form: the
    outer lift composed with the lift over the assembled source equals
    the lift of the composite surjection at the blockwise lift sources.
    """
    O = S.operadic
    u = O.unit
    by_card = O.cells_by_card()
    r = Report("splitting", cap=cap)
    for n in range(1, S.bound + 1):
        units = (u,) * n
        for c in by_card.get(n, ()):
            if not r.charge():
                return r
            if S.lift(identity_surjection(n), c, units) != O.tc.identity_one_cell(c):
                return r.fail(("identity lift", str(c)))
            if not r.charge():
                return r
            if S.lift(bang(n), u, (c,)) != O.eps(c):
                return r.fail(("terminal lift", str(c)))
    for f, g in _composable_pairs(S.bound):
        gf = compose(f, g)
        b_slots = [by_card.get(s, ()) for s in g.fiber_sizes()]
        a_slots = [by_card.get(s, ()) for s in f.fiber_sizes()]
        for c in by_card.get(g.cod, ()):
            for bs in itertools.product(*b_slots):
                outer = S.lift(g, c, bs)
                mid = O.src0(outer)
                for as_ in itertools.product(*a_slots):
                    if not r.charge():
                        return r
                    lhs = O.tc.h_compose(outer, S.lift(f, mid, as_))
                    blocks = block_cut(as_, g)
                    inner_sources = tuple(
                        S.lift_source(induced_map(f, g, i), bs[i - 1], blocks[i - 1])
                        for i in range(1, g.cod + 1))
                    rhs = S.lift(gf, c, inner_sources)
                    if lhs != rhs:
                        return r.fail((str(f), str(g), str(c)))
    return r


def check_all_lifts_cartesian(S: SplitFibrationData,
                              cap: int | None = DEFAULT_CAP) -> Report:
    """Run the unique-lift test on every chosen lift within the bound."""
    O = S.operadic
    r = Report("cartesian lifts", cap=cap)
    for g, c, bs in lift_instances(O.cells_by_card()):
        sub = is_operadic_cartesian(O, S.lift(g, c, bs),
                                    cap=None if cap is None else cap - r.checked)
        # a capped sub-search has spent what was left of the cap, so
        # charging its count caps r too
        within = r.charge(sub.checked)
        if sub.status == FAIL:
            return r.fail((str(g), str(c), sub.witness))
        if not within:
            return r
    return r


# ---------------------------------------------------------------------------
# trivial cells and extraction


@memoized("trivial")
def is_trivial(O: OperadicTwoCat, phi) -> bool:
    """A cardinality-preserving cell all of whose unit triangles have
    terminal fibers; these are the morphisms the extraction keeps.  The
    verdict is memoized on ``O``."""
    x, y = O.dst0(phi), O.src0(phi)
    if O.card0(x) != O.card0(y):
        return False
    for psi in O.one_cells_into(y):
        theta = O.tc.h_compose(phi, psi)
        tri = LaxTriangle(psi, theta, phi, O.tc.identity_two_cell(theta))
        if O.fib1(tri) != tuple(O.eps(c) for c in O.fib0(psi)):
            return False
    return True


def trivial_subcategory(O: OperadicTwoCat, n: int) -> FinCat:
    """Objects of cardinality n with the trivial cells between them,
    oriented so that the extraction is covariant: the cell t appears as
    a morphism  dst(t) -> src(t)."""
    objects = O.cells_by_card().get(n, ())
    morphisms = [(t, y, x) for x in objects for y in O.tc.targets(x) if O.card0(y) == n
                 for t in O.tc.sources(y)[x] if is_trivial(O, t)]
    identity = {x: O.tc.identity_one_cell(x) for x in objects}

    def comp(t2, t1):
        return O.tc.h_compose(t1, t2)

    return FinCat(objects, morphisms, identity, comp)


def check_trivial_subcategory(O: OperadicTwoCat,
                              cap: int | None = DEFAULT_CAP) -> Report:
    """Identities are trivial and trivial cells compose; additionally the
    fiber-matching property of trivial cells holds instance-wise.  The pairs
    (t1, t2), t1 first, are those of each ``trivial_subcategory``."""
    r = Report("trivial subcategory", cap=cap)
    for x in O.tc.zero_cells():
        if not r.charge():
            return r
        if not is_trivial(O, O.tc.identity_one_cell(x)):
            return r.fail(("identity", str(x)))
    cats = [trivial_subcategory(O, n) for n in O.cells_by_card()]
    for t1, t2 in (pair for cat in cats for pair in cat.composable_pairs()):
        if not r.charge():
            return r
        if not is_trivial(O, O.tc.h_compose(t2, t1)):
            return r.fail(("composite", str(t1), str(t2)))
    for t in (t for cat in cats for t in cat.morphism_ids()):
        for psi in O.one_cells_into(O.src0(t)):
            if not r.charge():
                return r
            if O.fib0(O.tc.h_compose(t, psi)) != O.fib0(psi):
                return r.fail(("fiber matching", str(t), str(psi)))
    return r


def _unique_filler(O, cartesian, theta, psis, base):
    """The unique triangle onto ``cartesian`` with the prescribed fibers."""
    found = _fillers(O, cartesian, theta, psis, base)
    if len(found) != 1:
        raise ExtractionError("expected a unique filler, found %d" % len(found))
    return found[0]


def extract_operad(S: SplitFibrationData) -> TruncatedOperad:
    """Rebuild an operad: objects are the 0-cells sorted by cardinality,
    morphisms the trivial cells, and composition comes from the lifts.

    The composition on morphisms is computed through the unique-filler
    property of the chosen lifts; a missing or ambiguous filler means the
    input was not genuinely split-fibered and raises ExtractionError.
    """
    O = S.operadic
    bound = S.bound
    components = {}
    for n in range(1, bound + 1):
        cat = trivial_subcategory(O, n)
        if not cat.objects:
            raise ExtractionError("no objects of cardinality %d" % n)
        components[n] = cat
    mu = {g: _extracted_mu(S, g, components) for g in all_surjections_up_to(bound)}
    return TruncatedOperad(bound, components, O.unit, mu,
                           name="extracted(%s)" % O.label)


def _extracted_mu(S: SplitFibrationData, g: Surjection, components) -> Functor:
    O = S.operadic
    cats = [components[a] for a in (g.cod,) + g.fiber_sizes()]
    target = components[g.dom]
    obj_map = {}
    for tup in itertools.product(*[C.objects for C in cats]):
        obj_map[tup] = S.lift_source(g, tup[0], tup[1:])
    mor_map = {}
    base = identity_surjection(g.dom)
    for mids in itertools.product(*[C.morphism_ids() for C in cats]):
        t_c, t_bs = mids[0], mids[1:]
        # extracted morphisms point backwards relative to the underlying
        # cells: the cartesian side is the extracted source, the composite
        # through t_c the extracted target
        c_src, c_dst = O.dst0(t_c), O.src0(t_c)
        bs_src = tuple(O.dst0(t) for t in t_bs)
        bs_dst = tuple(O.src0(t) for t in t_bs)
        cartesian = S.lift(g, c_src, bs_src)
        theta = O.tc.h_compose(t_c, S.lift(g, c_dst, bs_dst))
        tri = _unique_filler(O, cartesian, theta, t_bs, base)
        d2 = tri.d2
        if not target.has_morphism(d2):
            raise ExtractionError("extracted composite is not trivial: %s" % (d2,))
        mor_map[mids] = d2
    return Functor(cats, target, obj_map, mor_map)


# ---------------------------------------------------------------------------
# lift-preserving operadic 2-functors out of an integration


def check_integration_map(im: IntegrationMap, cap: int | None = DEFAULT_CAP) -> Report:
    """Identity, composition, projection, fiber and lift preservation."""
    return _check_cell_map(im.source, canonical_fibration(im.target), im.on0, im.on1,
                           Report("integration 2-functor", cap=cap))


def _check_cell_map(I: Integration, S: SplitFibrationData, on0, on1,
                    r: Report) -> Report:
    """Whether the cell maps ``on0`` and ``on1`` from I into the split
    fibration S preserve identities, projection, endpoints, fibers,
    composition and the chosen lifts, as a morphism of cleaved fibrations
    does (Vistoli, arXiv:math/0412512, ch. 3), checking every endpoint
    before forming any composite.  S is read only through its lifts and
    its 2-category's cells, cardinalities and 0-cell fibers.  Witnesses
    hold ``str`` forms."""
    O = S.operadic
    for x in I.zero_cells():
        if not r.charge():
            return r
        if on1(I.identity_one_cell(x)) != O.tc.identity_one_cell(on0(x)):
            return r.fail(("identity", str(x)))
    out = _cells_out(I)
    for x, cells in out.items():
        for y, f_cell in cells:
            if not r.charge():
                return r
            image = on1(f_cell)
            if O.card1(image) != f_cell.f:
                return r.fail(("projection", str(f_cell)))
            if (O.src0(image), O.dst0(image)) != (on0(x), on0(y)):
                return r.fail(("endpoints", str(f_cell)))
            if O.fib0(image) != tuple(on0(c) for c in I.fibers_of_1cell(f_cell)):
                return r.fail(("fibers", str(f_cell)))
    for y, f_cell in itertools.chain.from_iterable(out.values()):
        image = on1(f_cell)
        for _, g_cell in out[y]:
            if not r.charge():
                return r
            if on1(I.h_compose(g_cell, f_cell)) != O.tc.h_compose(on1(g_cell), image):
                return r.fail(("composition", str(f_cell), str(g_cell)))
    by_arity = group_by_card(I.zero_cells(), lambda x: x.arity)
    for g, c, fibers in lift_instances(by_arity):
        if not r.charge():
            return r
        expected = S.lift(g, on0(c), tuple(on0(fc) for fc in fibers))
        if on1(I.cartesian_lift(g, c, fibers)) != expected:
            return r.fail(("lift", str(g), str(c), tuple(map(str, fibers))))
    return r


# ---------------------------------------------------------------------------
# round trips


@dataclass
class Certificate(Report):
    """A round-trip report carrying its details."""

    details: dict = field(default_factory=dict)

    def line(self):
        msg = "%s: %s" % (self.name, self.status)
        if self.witness is not None:
            msg += " witness=%s" % (self.witness,)
        if self.notes:
            msg += " (%d instances) [%s]" % (self.checked, "; ".join(self.notes))
        return msg


def _bijective(images, targets) -> bool:
    """Whether ``images`` lists each of the distinct ``targets`` once."""
    images = list(images)
    return len(images) == len(targets) and set(images) == set(targets)


def roundtrip_operad(P: TruncatedOperad, cap: int | None = DEFAULT_CAP) -> Certificate:
    """Integrate, extract, and certify the canonical per-arity isomorphism
    commuting with the composition functors and the unit."""
    I = integrate(P)
    S = canonical_fibration(I)
    P2 = extract_operad(S)
    details = {"per_arity_iso": []}
    cert = Certificate("roundtrip operad", cap=cap, details=details)
    if P2.bound != P.bound:
        return cert.fail(("bound", P2.bound))
    functors = {}
    for n in range(1, P.bound + 1):
        C, D = P.component(n), P2.component(n)
        obj_map = {a: ZeroCell(n, a) for a in C.objects}
        mor_map = {m: I.component_part(n, m) for m in C.morphism_ids()}
        if not _bijective(obj_map.values(), D.objects):
            return cert.fail(("object bijection", n))
        if not _bijective(mor_map.values(), D.morphism_ids()):
            return cert.fail(("morphism bijection", n))
        functors[n] = Functor(C, D, obj_map, mor_map)
        if not validate_functor(functors[n]).ok:
            return cert.fail(("functoriality", n))
        details["per_arity_iso"].append(
            {"n": n,
             "obj_map": {str(k): str(v) for k, v in obj_map.items()},
             "mor_map": {str(k): str(v) for k, v in mor_map.items()}})
    return _check_mu_squares(OperadMorphism(P, P2, functors), cert)


def roundtrip_2cat(S: SplitFibrationData, cap: int | None = DEFAULT_CAP) -> Certificate:
    """Certify that integrating the extracted operad reproduces the input,
    via the canonical bijective 2-functor dropping the cardinality tag."""
    O = S.operadic
    cert = Certificate("roundtrip 2-category", cap=cap)
    try:
        J = integrate(extract_operad(S))
    except InvalidOperad as exc:
        return cert.fail(("extracted operad invalid", str(exc)))
    details = cert.details
    details.update(zero_cells=0, one_cells=0, two_cells=0)

    def g0(x: ZeroCell):
        return x.obj

    def g1(cell: OneCell):
        lift = S.lift(cell.f, g0(cell.dst), cell.args)
        return O.tc.h_compose(lift, cell.alpha)

    # 0-cells are in bijection
    if not _bijective(map(g0, J.zero_cells()), O.tc.zero_cells()):
        return cert.fail("0-cell bijection")
    details["zero_cells"] = len(J.zero_cells())
    for xj in J.zero_cells():
        # the pairs with a 1-cell on either side, so a one-sided hom is seen
        ys = set(J.targets(xj)) | {ZeroCell(O.card0(y), y) for y in O.tc.targets(g0(xj))}
        for yj in (yj for yj in J.zero_cells() if yj in ys):
            Hj = J.hom(xj, yj)
            Ho = O.tc.hom(g0(xj), g0(yj))
            images = [g1(c) for c in Hj.objects]
            if not _bijective(images, Ho.objects):
                return cert.fail(("1-cell bijection", str(xj), str(yj)))
            details["one_cells"] += len(images)
            two_images = set()
            for t, s, d in Hj.morphisms():
                if not cert.charge():
                    return cert
                image = _image_two_cell(O, g1(s), g1(d), t.deltas)
                if image is None:
                    return cert.fail(("2-cell image", str(t)))
                two_images.add(image)
                details["two_cells"] += 1
            if len(two_images) != len(Hj.morphism_ids()) or \
               len(Hj.morphism_ids()) != len(Ho.morphism_ids()):
                return cert.fail(("2-cell bijection", str(xj), str(yj)))
    return _check_cell_map(J, S, g0, g1, cert)


def _image_two_cell(O, src_cell, dst_cell, deltas):
    """The unique 2-cell whose unit triangle has the given trivial fibers."""
    z = O.src0(src_cell)
    x = O.dst0(src_cell)
    H = O.tc.hom(z, x)
    ident = O.tc.identity_one_cell(z)
    found = None
    for xi in H.hom(src_cell, dst_cell):
        tri = LaxTriangle(ident, dst_cell, src_cell, xi)
        if O.fib1(tri) == deltas:
            if found is not None:
                return None
            found = xi
    return found


# ---------------------------------------------------------------------------
# full faithfulness: the candidates are the choices of per-arity functors,
# exponential in the objects and morphisms of each component; keep them small


def _candidates(P: TruncatedOperad, Q: TruncatedOperad) -> list:
    """Every choice of functors P_n -> Q_n, one per arity, as an OperadMorphism."""
    if P.bound != Q.bound:
        raise ValueError("operads of unequal bounds %d and %d" % (P.bound, Q.bound))
    arities = range(1, P.bound + 1)
    per_arity = (list(enumerate_functors(P.component(n), Q.component(n))) for n in arities)
    return [OperadMorphism(P, Q, dict(zip(arities, choice)))
            for choice in itertools.product(*per_arity)]


def _integrates_to_2functor(F: OperadMorphism, IP: Integration,
                            SQ: SplitFibrationData) -> bool:
    """Whether ∫F, the ``IntegrationMap`` of the candidate F, is a
    lift-preserving 2-functor IP -> SQ: defined on every 1-cell (``on1``) and
    every 2-cell (``on2``), and passing ``_check_cell_map``.  A 1-cell
    [f; args; alpha] goes to [f; F args; F alpha], which exists where
    src(F alpha) = mu_f(F b, F args); a 2-cell goes to the 2-cell of its
    mapped components, where they form one.  By the unit law of Q's mu, each
    image is also the chosen lift after the image of the component part."""
    im = IntegrationMap(F, IP, SQ.operadic.tc)
    built = [H for _, _, H in homs(IP)]   # IP's homs, built outside the try
    try:   # each 1-cell has its identity 2-cell, so on2 builds every on1 image
        for t in itertools.chain.from_iterable(H.morphism_ids() for H in built):
            im.on2(t)
    except ValueError:   # an image 1-cell or 2-cell that does not exist
        return False
    return _check_cell_map(IP, SQ, im.on0, im.on1, Report("2-functor")).ok


def enumerate_operad_morphisms(P: TruncatedOperad, Q: TruncatedOperad) -> list:
    """All operad morphisms P -> Q: the candidates (per-arity functors) that
    preserve the unit and every mu square (``_check_mu_squares``)."""
    return [F for F in _candidates(P, Q) if _check_mu_squares(F, Report("operad morphism")).ok]


def enumerate_lift_preserving_2functors(SP: SplitFibrationData,
                                        SQ: SplitFibrationData) -> list:
    """All lift-preserving operadic 2-functors between the canonical
    integrations of two operads, each as the per-arity functors it acts by
    on 0-cells and component morphisms.  These cover every such 2-functor:
    it keeps projection and fibers, so it sends each component part
    [1; e..e; alpha] to a component part, and component parts compose as
    their components do, so on them it is one functor per arity.  Every
    1-cell is its component part followed by a chosen lift, and lifts go
    to lifts, so the functors F force the rest: ∫F.  Of the candidates of
    ``enumerate_operad_morphisms``, those where ∫F is one are kept
    (``_integrates_to_2functor``)."""
    IP: Integration = SP.operadic.tc
    return [F.functors for F in _candidates(IP.P, SQ.operadic.tc.P)
            if _integrates_to_2functor(F, IP, SQ)]


def check_full_faithfulness(P: TruncatedOperad, Q: TruncatedOperad) -> Report:
    """Integration sends the operad morphisms P -> Q bijectively onto the
    lift-preserving operadic 2-functors between the integrations, judged per
    candidate: each choice F of per-arity functors must pass the mu squares
    exactly when ∫F passes as a 2-functor.  The candidates are listed before
    either operad is integrated.  ``checked`` counts the morphisms plus the
    2-functors; the witness counts the candidates that are 2-functors only,
    then those that are morphisms only."""
    candidates = _candidates(P, Q)
    IP, SQ = integrate(P), canonical_fibration(integrate(Q))
    tally = Counter((_check_mu_squares(F, Report("operad morphism")).ok,
                     _integrates_to_2functor(F, IP, SQ)) for F in candidates)
    both, only_2functors, only_morphisms = (tally[True, True], tally[False, True],
                                            tally[True, False])
    r = Report("full faithfulness", checked=2 * both + only_2functors + only_morphisms)
    if only_2functors or only_morphisms:
        return r.fail(("sides differ", only_2functors, only_morphisms))
    r.notes.append("%d morphisms, %d 2-functors" % (both, both))
    return r
