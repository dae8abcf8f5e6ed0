"""Hash-consed cells, the known-2-cell path of ``two_cell`` and the
integration's cache statistics."""

import gc
import itertools
import weakref
from dataclasses import replace

import pytest

from opint import jsonio
from opint.fincat import FinCat, is_terminal, terminal_object, validate_category
from opint.integration import (
    LaxTriangle, OneCell, TwoCell, ZeroCell, check_two_category_laws, integrate,
)
from opint.interning import HashConsed
from opint.operadic import OperadicTwoCat, canonical_fibration, check_operadic_axioms, \
    check_splitting, check_trivial_subcategory, roundtrip_2cat, roundtrip_operad
from opint.operads import nat_operad, tree_operad
from opint.surjections import Surjection, all_surjections_up_to, bang, compose, \
    enumerate_surjections, from_fiber_sizes, identity_surjection, induced_map
from opint.trees import corolla
from test_integration import all_one_cells


def z2_operad(obj):
    """Arity 1 only: one object ``obj`` whose morphisms form the group
    Z/2 = {e, s}, composed by mu as by the group law.  Its hom has
    parallel morphisms, so the 2-cell condition can fail on well-typed
    components."""
    def law(g, f):
        return "e" if g == f else "s"

    return jsonio.operad_from_json({
        "bound": 1, "unit": obj, "name": "Z/2",
        "components": [{
            "objects": [obj],
            "morphisms": [{"id": m, "src": obj, "dst": obj} for m in "es"],
            "identities": {obj: "e"},
            "comp": [[g, f, law(g, f)] for g in "es" for f in "es"]}],
        "mu": [{"g": {"dom": 1, "cod": 1, "values": [1]},
                "graph": [[[obj, obj], obj]],
                "mor_graph": [[[g, f], law(g, f)] for g in "es" for f in "es"]}]})


def chaotic_operad():
    """Arities 1 and 2, each the indiscrete category on Z/2 (one arrow
    between any two objects), with mu adding mod 2.  Isomorphic objects
    make its integration non-skeletal: hom([1,1], [1,0]) has two
    terminal 1-cells."""
    component = {"poset": {"elements": [0, 1], "le": [[0, 1], [1, 0]]}}
    mu = [{"g": str(g),
           "graph": [[list(tup), sum(tup) % 2]
                     for tup in itertools.product((0, 1), repeat=1 + g.cod)]}
          for g in all_surjections_up_to(2)]
    return jsonio.operad_from_json({"bound": 2, "unit": 0, "name": "chaotic:2:2",
                                    "components": [component, component], "mu": mu})


def test_lali_choice_accepts_any_terminal_object():
    P = chaotic_operad()
    I = integrate(P)
    u = ZeroCell(1, 0)
    H = I.hom(ZeroCell(1, 1), u)
    assert len(H.objects) == 2 and all(is_terminal(H, c) for c in H.objects)
    O = OperadicTwoCat.from_integration(I)
    assert O.unit == u and O.eps(u) == I.identity_one_cell(u)
    assert all(r.ok for r in check_two_category_laws(I)), "laws"
    assert [r.line() for r in check_operadic_axioms(O) if not r.ok] == []
    assert roundtrip_operad(P).ok and roundtrip_2cat(canonical_fibration(I)).ok
    # each way of breaking the choice fails it with its own witness:
    # a cell of hom(x, u) that is not terminal (on nat:3),
    N = OperadicTwoCat.from_integration(integrate(nat_operad(3)))

    def not_terminal(x):
        H = N.tc.hom(x, u)
        return next((c for c in H.objects if not is_terminal(H, c)), N.eps(x))

    # a unit of arity 2, and the other terminal cell of hom(u, u) as eps(u)
    two = next(x for x in I.zero_cells() if x.arity == 2)
    other, = (c for c in I.hom(u, u).objects if c != I.identity_one_cell(u))

    def other_endo(x):
        return other if x == u else O.eps(x)

    assert [check_operadic_axioms(broken)[0].line() for broken in (
        replace(N, eps=not_terminal), replace(O, unit=two), replace(O, eps=other_endo))] == [
        "lali choice: fail (1 instances) witness=('terminal map', '[1,0]')",
        "lali choice: fail (0 instances) witness=('cardinality', '[2,0]')",
        "lali choice: fail (4 instances) witness=('endo terminal', '[1,0]')"]


def test_cells_built_twice_are_identical():
    g = Surjection(3, 2, (1, 1, 2))
    assert from_fiber_sizes((2, 1)) is g and Surjection(3, 2, [1, 1, 2]) is g
    assert compose(identity_surjection(3), g) is g and induced_map(g, bang(2), 1) is g
    f = Surjection(4, 3, (1, 1, 2, 3))
    assert compose(f, g) is Surjection(4, 2, (1, 1, 1, 2))
    assert induced_map(f, g, 1) is g
    I = integrate(nat_operad(3))
    x, y = ZeroCell(1, 3), ZeroCell(1, 1)
    assert ZeroCell(1, 3) is x
    H = I.hom(x, y)
    cell = H.objects[0]
    assert OneCell(cell.f, cell.args, cell.alpha, cell.src, cell.dst) is cell
    assert I.one_cell(cell.f, list(cell.args), cell.alpha, y) is cell
    for t, _, _ in H.morphisms():
        assert TwoCell(t.src, t.dst, t.deltas) is t
        assert I.two_cell(t.src, t.dst, list(t.deltas)) is t
    ident = I.identity_one_cell(y)
    tri = LaxTriangle(cell, cell, ident, I.identity_two_cell(cell))
    assert LaxTriangle(H.objects[0], cell, I.identity_one_cell(y), tri.filler) is tri


def test_cells_are_immutable_and_keep_their_repr():
    x = ZeroCell(2, 7)
    assert repr(x) == "ZeroCell(arity=2, obj=7)" and str(x) == "[2,7]"
    with pytest.raises(AttributeError):
        x.obj = 8
    with pytest.raises(ValueError):
        ZeroCell(2)
    g = Surjection(3, 2, (1, 1, 2))
    assert repr(g) == "Surjection(dom=3, cod=2, values=(1, 1, 2))"
    assert str(g) == "3->2:[1,1,2]"
    with pytest.raises(AttributeError):
        g.values = (1, 2, 2)
    for args, message in [((3, 2, (1, 2, 2, 2)), r"^expected 3 values"),
                          ((3, 2, (2, 2, 2)), r"is not onto 1\.\.2$"),
                          ((3, 3, (1, 3, 3)), r"skips or decreases at 1 -> 3$"),
                          ((4, 2, (1, 2, 1, 2)), r"skips or decreases at 2 -> 1$"),
                          ((0, 1, ()), r"^ordinals are non-empty")]:
        with pytest.raises(ValueError, match=message):
            Surjection(*args)


def test_cells_of_two_integrations_compare_equal():
    I, J = integrate(nat_operad(3)), integrate(nat_operad(3))
    assert I.zero_cells() == J.zero_cells()
    assert all_one_cells(I) == all_one_cells(J)
    for x in I.zero_cells():
        for y in I.zero_cells():
            assert I.hom(x, y).morphisms() == J.hom(x, y).morphisms()


def live_sizes():
    gc.collect()
    return {cls: len(cls._live) for cls in HashConsed.__subclasses__()}


def test_cells_of_a_dropped_integration_are_freed():
    # the object names are used by no other test, so nothing else holds
    # these cells; the operadic checks route them through every cache
    def checked(name):
        I = integrate(z2_operad(name))
        assert all(r.ok for r in check_two_category_laws(I))
        assert all(r.ok for r in check_operadic_axioms(OperadicTwoCat.from_integration(I)))
        return I

    checked("warm")   # fills the process-wide caches of surjections
    before = live_sizes()
    I = checked("freed")
    refs = [weakref.ref(c) for c in all_one_cells(I)]
    refs.append(weakref.ref(I.zero_cells()[0]))
    assert live_sizes()[OneCell] > before[OneCell]
    del I
    # the records are freed, and their table entries forgotten
    assert live_sizes() == before
    assert refs and all(ref() is None for ref in refs)


def test_a_rebuilt_record_is_live_and_alone_under_its_fields():
    fields = (1, "rebuilt")
    ref = weakref.ref(ZeroCell(*fields))
    gc.collect()
    assert ref() is None and fields not in ZeroCell._live
    x = ZeroCell(*fields)
    assert ZeroCell._live[fields]() is x and ZeroCell(*fields) is x
    # rebuilt by a callback that runs after the old entry is cleared and
    # before that entry's own callback: the late callback keeps the new entry
    kept = []
    hook = weakref.ref(x, lambda _: kept.append(ZeroCell(*fields)))
    del x
    assert hook() is None and len(kept) == 1
    entry = ZeroCell._live.get(fields)
    assert entry is not None and entry() is kept[0] and ZeroCell(*fields) is kept[0]


def test_empty_homs_share_one_category():
    P = tree_operad(4)
    integrations = (integrate(P), integrate(P))
    homs = [I.hom(x, y) for I in integrations
            for x in I.zero_cells() for y in I.zero_cells()]
    empty = {id(H): H for H in homs if not H.objects}
    full = [H for H in homs if H.objects]
    assert len(empty) == 1 and len({id(H) for H in full}) == len(full)
    # the shared category behaves as the one each empty hom built before
    (H,) = empty.values()
    assert validate_category(H).line() == \
        validate_category(FinCat((), [], {}, integrations[0].v_compose)).line() == \
        "category: pass (0 instances)"
    assert H.objects == H.morphism_ids() == () and terminal_object(H) is None
    for I in integrations:   # connected: a terminal 1-cell into the unit from every 0-cell
        O = OperadicTwoCat.from_integration(I)
        assert all(is_terminal(I.hom(x, O.unit), O.eps(x)) for x in I.zero_cells())


def brute_force_one_cells(I, x, y):
    """The 1-cells x -> y found pair by pair: every surjection, every tuple
    of fiber objects, every alpha: mu_f(y, args) -> x, in that order."""
    P = I.P
    return [OneCell(f, args, alpha, x, y)
            for f in enumerate_surjections(x.arity, y.arity)
            for args in itertools.product(*[P.component(s).objects
                                            for s in f.fiber_sizes()])
            for alpha in P.hom(x.arity, P.apply_obj(f, (y.obj,) + args), x.obj)]


@pytest.mark.parametrize("make", [lambda: tree_operad(4), lambda: nat_operad(3),
                                  chaotic_operad], ids=["trees:4", "nat:3", "chaotic:2:2"])
def test_target_index_matches_brute_force(make):
    I = integrate(make())
    Z = I.zero_cells()
    cells = {(x, y): brute_force_one_cells(I, x, y) for x in Z for y in Z}
    for (x, y), expected in cells.items():
        assert list(I.hom(x, y).objects) == expected, (str(x), str(y))
    for z in Z:
        assert tuple(I.sources(z)) == tuple(x for x in Z if cells[x, z])
        assert I.targets(z) == tuple(y for y in Z if cells[z, y])
        assert [c for y in I.targets(z) for c in I.hom(z, y).objects] == \
            [c for y in Z for c in cells[z, y]]


@pytest.mark.parametrize("built", [True, False])
def test_two_cell_rejects_a_failing_condition(built):
    # in Z/2, e o mu(1, s) = s, not e: well typed, but no 2-cell
    I = integrate(z2_operad("*"))
    x = ZeroCell(1, "*")
    e_cell = I.identity_one_cell(x)
    if built:
        I.hom(x, x)
    with pytest.raises(ValueError, match=r"^2-cell condition fails for "):
        I.two_cell(e_cell, e_cell, ("s",))


def test_two_cell_rejects_cells_over_distinct_surjections():
    I = integrate(tree_operad(3))
    H = I.hom(ZeroCell(3, corolla(3)), ZeroCell(2, corolla(2)))
    left = next(c for c in H.objects if c.f == Surjection(3, 2, (1, 1, 2)))
    right = next(c for c in H.objects if c.f == Surjection(3, 2, (1, 2, 2)))
    with pytest.raises(ValueError, match=r"^no 2-cells between "):
        I.two_cell(left, right, I.identity_two_cell(left).deltas)


def test_two_cell_rejects_an_ill_typed_component():
    I = integrate(nat_operad(6))
    H = I.hom(ZeroCell(1, 5), ZeroCell(1, 3))
    t = next(t for t, _, _ in H.morphisms()
             if t.src.args == (4,) and t.dst.args == (2,))
    for bad in [(5, 5), (2, 4), "x"]:
        with pytest.raises(ValueError, match=r"^component .* does not run 4 -> 2$"):
            I.two_cell(t.src, t.dst, (bad,))


def test_stats_count_memo_hits():
    I = integrate(tree_operad(3))
    assert all(m == {"size": 0, "hits": 0} for m in I.stats()["memos"].values())
    assert all(r.ok for r in check_two_category_laws(I))
    stats = I.stats()
    for name in ("hcomp", "hcomp2", "vcomp"):
        assert stats["memos"][name]["size"] > 0
        assert stats["memos"][name]["hits"] > 0, name
    assert stats["memos"]["fibtri"] == {"size": 0, "hits": 0}
    assert set(stats["memos"]) == {"alphas", "into", "hom", "targets", "id1", "id2", "hcomp",
                                   "hcomp2", "vcomp", "fibtri", "fib0", "lift"}
    assert stats["memos"]["hom"]["hits"] > 0
    # one index per target, one list of targets per source and one
    # out-index per arity, each built once
    assert stats["memos"]["into"]["size"] == len(I.zero_cells())
    assert stats["memos"]["targets"]["size"] == len(I.zero_cells())
    assert stats["memos"]["targets"]["hits"] > 0
    assert stats["memos"]["alphas"]["size"] == I.P.bound
    live = stats["live_cells"]
    assert set(live) == {"ZeroCell", "OneCell", "TwoCell", "LaxTriangle"}
    assert live["OneCell"] >= len(all_one_cells(I))


def test_lifts_and_fibers_of_1cells_are_memoized():
    # the splitting and the triviality test (through eps) ask for the same
    # chosen lifts and 1-cell fibers again and again
    I = integrate(tree_operad(3))
    S = canonical_fibration(I)
    assert check_splitting(S).ok and check_trivial_subcategory(S.operadic).ok
    memos = I.stats()["memos"]
    for name in ("lift", "fib0"):
        assert memos[name]["size"] > 0 and memos[name]["hits"] > 0, name
    # the memo keys the fibers as a tuple, so a list finds the same lift
    g, c, fibers = bang(3), ZeroCell(1, "L"), (ZeroCell(3, corolla(3)),)
    assert I.cartesian_lift(g, c, list(fibers)) is I.cartesian_lift(g, c, fibers)


def test_triviality_is_memoized_per_operadic_structure():
    O = canonical_fibration(integrate(tree_operad(3))).operadic
    assert check_trivial_subcategory(O).ok
    assert len(O._memos["trivial"]) > 0 and O._hits["trivial"] > 0
    copy = replace(O)
    assert copy._memos["trivial"] == {} and copy._hits["trivial"] == 0
