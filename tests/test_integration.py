import itertools
from dataclasses import dataclass, field

import pytest

from opint.fincat import is_terminal, validate_category
from opint.integration import (
    Integration, IntegrationMap, InvalidOperad, LaxTriangle, ZeroCell, check_factorization,
    check_projection, check_two_category_laws, integrate, integrate_morphism,
)
from opint.jsonio import operad_from_json
from opint.operadic import OperadicTwoCat, check_integration_map
from opint.operads import (
    identity_operad_morphism, morphism_to_terminal, nat_operad, terminal_operad,
    tree_operad,
)
from opint.surjections import Surjection, all_surjections_up_to, bang, identity_surjection
from opint.trees import LEAF, corolla, graft


def one_cells_from(I, x):
    """The 1-cells out of x found over every 0-cell y: y in 0-cell order,
    then the cells of hom(x, y) in order."""
    return [c for y in I.zero_cells() for c in I.hom(x, y).objects]


def all_one_cells(I):
    """Every 1-cell found over every pair of 0-cells, by source first."""
    return [c for x in I.zero_cells() for c in one_cells_from(I, x)]


def in_e_subcategory(I, cell):
    """The component parts by their fields: identity f, unit args."""
    return cell.f.is_identity() and all(a == I.P.unit for a in cell.args)


def in_m_subcategory(I, cell):
    """The cut parts by their fields: alpha is an identity."""
    return I.P.component(cell.f.dom).is_identity(cell.alpha)


def nat_cell(I, a, b, p):
    """The 1-cell [1,a] -> [1,b] carrying the middle object p."""
    x, y = ZeroCell(1, a), ZeroCell(1, b)
    for cell in I.hom(x, y).objects:
        if cell.args == (p,):
            return cell
    raise AssertionError("no cell %d -> %d via %d" % (a, b, p))


def test_saturating_chain_homs_match_worked_example():
    I = integrate(nat_operad(20))
    objs = I.hom(ZeroCell(1, 5), ZeroCell(1, 2)).objects
    assert sorted(c.args[0] for c in objs) == list(range(3, 21))
    # 2-cells p' => p'' exactly when p' >= p''
    H = I.hom(ZeroCell(1, 5), ZeroCell(1, 2))
    arrows = {(t.src.args[0], t.dst.args[0]) for t, _, _ in H.morphisms()}
    assert arrows == {(p, q) for p in range(3, 21) for q in range(3, 21) if p >= q}


def test_saturating_chain_hom_membership_predicate():
    # hom([1,a],[1,b]) is {p : min(b+p, M) >= a}; in particular it is
    # never empty here, since every 0-cell admits a map to every other
    I = integrate(nat_operad(20))
    for a, b in ((2, 5), (5, 2), (0, 20)):
        objs = I.hom(ZeroCell(1, a), ZeroCell(1, b)).objects
        assert sorted(c.args[0] for c in objs) == \
            [p for p in range(21) if min(b + p, 20) >= a]
    # the cut subcategory, by contrast, is one-directional
    cuts = [c for c in I.hom(ZeroCell(1, 2), ZeroCell(1, 5)).objects
            if in_m_subcategory(I, c)]
    assert cuts == []


def test_nat_horizontal_composition_adds():
    I = integrate(nat_operad(20))
    first = nat_cell(I, 5, 2, 3)
    second = nat_cell(I, 2, 0, 2)
    out = I.h_compose(second, first)
    assert out.args == (5,)
    assert out.src == ZeroCell(1, 5) and out.dst == ZeroCell(1, 0)


def test_unit_only_integration_is_a_point():
    I = integrate(tree_operad(1))
    assert I.zero_cells() == (ZeroCell(1, LEAF),)
    H = I.hom(ZeroCell(1, LEAF), ZeroCell(1, LEAF))
    assert H.objects == (I.identity_one_cell(ZeroCell(1, LEAF)),)


def lali_choice(I):
    """The operadic view of I, once eps(x) is checked terminal in
    hom(x, unit) for every 0-cell x and eps(unit) is the identity."""
    O = OperadicTwoCat.from_integration(I)
    for x in I.zero_cells():
        assert is_terminal(I.hom(x, O.unit), O.eps(x)), x
    assert O.eps(O.unit) == I.identity_one_cell(O.unit)
    return O


def test_integrations_are_connected_across_arities():
    # every 0-cell has a 1-cell into the one unit
    for P in (nat_operad(4), tree_operad(3)):
        I = integrate(P)
        lali_choice(I)
        assert {x.arity for x in I.zero_cells()} == set(range(1, P.bound + 1))


def test_identity_cell_is_a_unit():
    I = integrate(tree_operad(3))
    for phi in all_one_cells(I):
        assert I.h_compose(phi, I.identity_one_cell(phi.src)) == phi
        assert I.h_compose(I.identity_one_cell(phi.dst), phi) == phi


def test_identity_cell_fibers_are_units():
    I = integrate(tree_operad(3))
    x = ZeroCell(3, corolla(3))
    fibers = I.fibers_of_1cell(I.identity_one_cell(x))
    assert fibers == (ZeroCell(1, LEAF),) * 3


def test_tree_composition_against_two_stage_grafting_oracle():
    # cut a 4-leaf tree twice; the composite cut carries the grafted middles
    I = integrate(tree_operad(4))
    c2 = corolla(2)
    f = Surjection(4, 2, (1, 1, 2, 2))
    g = Surjection(2, 1, (1, 1))
    total = graft(c2, [c2, c2])  # (LL)(LL)
    first = I.one_cell(f, (c2, c2), I.P.component(4).id_of(total), ZeroCell(2, c2))
    second = I.one_cell(g, (c2,), I.P.component(2).id_of(c2), ZeroCell(1, LEAF))
    out = I.h_compose(second, first)
    # the middle object of the composite is the two-stage graft
    assert out.args == (graft(c2, [c2, c2]),)
    assert out.f == Surjection(4, 1, (1, 1, 1, 1))
    assert out.src.obj == total


def test_two_cell_enumeration_is_poset_transitivity():
    I = integrate(nat_operad(6))
    H = I.hom(ZeroCell(1, 5), ZeroCell(1, 3))
    t1 = None
    for t, _, _ in H.morphisms():
        if t.src.args == (5,) and t.dst.args == (4,):
            t1 = t
    t2 = next(t for t, _, _ in H.morphisms()
              if t.src.args == (4,) and t.dst.args == (2,))
    out = I.v_compose(t2, t1)
    assert out.src.args == (5,) and out.dst.args == (2,)


def test_no_two_cells_across_surjections():
    I = integrate(tree_operad(3))
    H = I.hom(ZeroCell(3, corolla(3)), ZeroCell(2, corolla(2)))
    for t, _, _ in H.morphisms():
        assert t.src.f == t.dst.f


def test_two_category_laws_small():
    for P in (nat_operad(3), tree_operad(2)):
        for r in check_two_category_laws(integrate(P)):
            assert r.ok, r.line()


def test_projection_is_strict():
    assert check_projection(integrate(nat_operad(4))).ok
    assert check_projection(integrate(tree_operad(3))).ok


def test_factorization_worked_example():
    I = integrate(nat_operad(9))
    phi = nat_cell(I, 5, 2, 3)
    e_part, m_part = I.factorize(phi)
    # a -> (p+b) -> b with parameters 0 then p
    assert e_part.args == (0,) and e_part.dst == ZeroCell(1, 5)
    assert m_part.args == (3,) and m_part.src == ZeroCell(1, 5)
    assert I.h_compose(m_part, e_part) == phi


def test_cell_already_in_m_factors_trivially():
    I = integrate(tree_operad(3))
    lift = I.cartesian_lift(bang(3), ZeroCell(1, LEAF), (ZeroCell(3, corolla(3)),))
    e_part, m_part = I.factorize(lift)
    assert e_part == I.identity_one_cell(lift.src)
    assert m_part == lift


def test_factorization_unique_small():
    assert check_factorization(integrate(nat_operad(3))).ok
    assert check_factorization(integrate(tree_operad(2))).ok


def test_fibers_of_bang_cell():
    I = integrate(tree_operad(3))
    c = corolla(3)
    cell = I.cartesian_lift(bang(3), ZeroCell(1, LEAF), (ZeroCell(3, c),))
    assert I.fibers_of_1cell(cell) == (ZeroCell(3, c),)


def test_fibers_of_cut_cell_are_the_cut_off_subtrees():
    I = integrate(tree_operad(3))
    f = Surjection(3, 2, (1, 1, 2))
    c2 = corolla(2)
    total = graft(c2, [c2, LEAF])
    cell = I.one_cell(f, (c2, LEAF), I.P.component(3).id_of(total), ZeroCell(2, c2))
    assert I.fibers_of_1cell(cell) == (ZeroCell(2, c2), ZeroCell(1, LEAF))


def test_identity_triangle_fibers_are_terminal_maps():
    I = integrate(tree_operad(3))
    for phi in all_one_cells(I):
        ident = I.identity_one_cell(phi.dst)
        assert I.h_compose(ident, phi) == phi   # the filler runs from the composite
        tri = LaxTriangle(phi, phi, ident, I.identity_two_cell(phi))
        fibers = I.fibers_of_lax_triangle(tri)
        for fiber_cell, fiber0 in zip(fibers, I.fibers_of_1cell(phi)):
            assert fiber_cell == I.cartesian_lift(
                bang(fiber0.arity), ZeroCell(1, LEAF), (fiber0,))


def test_triangle_fiber_endpoints_match_block_cut():
    I = integrate(nat_operad(4))
    O = OperadicTwoCat.from_integration(I)
    x = ZeroCell(1, 1)
    for phi in O.one_cells_into(x):
        for tri, fibers in O.triangles_onto(phi):
            assert fibers == I.fibers_of_lax_triangle(tri)
            assert tuple(c.dst for c in fibers) == I.fibers_of_1cell(tri.d0)
            assert tuple(c.src for c in fibers) == I.fibers_of_1cell(tri.d1)


def test_lali_terminal_of_trees_is_the_leaf():
    I = integrate(tree_operad(3))
    O = lali_choice(I)
    assert O.unit == ZeroCell(1, LEAF)
    # terminal map out of [n, c] is the bang cell carrying c itself
    for x in I.zero_cells():
        eps = O.eps(x)
        assert eps.f == bang(x.arity)
        assert eps.args == (x.obj,)
        assert in_m_subcategory(I, eps)


def test_lali_terminal_of_saturating_chain():
    I = integrate(nat_operad(6))
    O = lali_choice(I)
    assert O.unit == ZeroCell(1, 0)
    # hom([1,a],[1,0]) has terminal the cell carrying a itself
    for x in I.zero_cells():
        assert O.eps(x).args == (x.obj,)


def test_lali_terminal_one_object_two_cat():
    I = integrate(terminal_operad(1))
    assert lali_choice(I).unit == ZeroCell(1, "*")


def test_cartesian_lift_degenerate_shapes():
    I = integrate(tree_operad(3))
    x = ZeroCell(3, corolla(3))
    unit_fibers = (ZeroCell(1, LEAF),) * 3
    assert I.cartesian_lift(identity_surjection(3), x, unit_fibers) == \
        I.identity_one_cell(x)
    # a bang lift with unit target is the terminal map
    lift = I.cartesian_lift(bang(3), ZeroCell(1, LEAF), (x,))
    assert lift.args == (corolla(3),)
    assert in_m_subcategory(I, lift)


def test_cartesian_lift_tree_is_uncontracted_cut():
    I = integrate(tree_operad(3))
    g = Surjection(3, 2, (1, 1, 2))
    c2 = corolla(2)
    lift = I.cartesian_lift(g, ZeroCell(2, c2),
                            (ZeroCell(2, c2), ZeroCell(1, LEAF)))
    assert lift.src == ZeroCell(3, graft(c2, [c2, LEAF]))
    assert I.P.component(3).is_identity(lift.alpha)


def test_cartesian_lift_arity_errors():
    I = integrate(tree_operad(3))
    with pytest.raises(ValueError):
        I.cartesian_lift(bang(3), ZeroCell(1, LEAF), (ZeroCell(2, corolla(2)),))


def test_slice_two_cell_fibers_partition_by_blocks():
    I = integrate(nat_operad(3))
    O = OperadicTwoCat.from_integration(I)
    x = ZeroCell(1, 0)
    count = 0
    for phi in O.one_cells_into(x):
        id_phi = I.identity_two_cell(phi)
        triangles = [tri for tri, _ in O.triangles_onto(phi)]
        for t1 in triangles:
            for t2 in triangles:
                if t1.d1 != t2.d1:
                    continue
                H = I.hom(t1.d2.src, t1.d2.dst)
                for gamma in H.hom(t1.d2, t2.d2):
                    # gamma is a slice 2-cell t1 => t2 when the fillers agree
                    if I.v_compose(t2.filler, I.h_compose_2cells(id_phi, gamma)) \
                       != t1.filler:
                        continue
                    fibers = I.fibers_of_slice_2cell(t1, t2, gamma)
                    count += 1
                    flat = tuple(d for f2 in fibers for d in f2.deltas)
                    assert flat == gamma.deltas
    assert count > 0


def test_integrate_rejects_invalid_operad():
    P = nat_operad(3)
    g = identity_surjection(1)
    P.mu[g].obj_map[(1, 1)] = 0
    with pytest.raises(InvalidOperad):
        integrate(P)


def test_integration_of_identity_morphism():
    P = tree_operad(2)
    I = integrate(P)
    im = integrate_morphism(identity_operad_morphism(P))
    assert check_integration_map(im).ok
    # hash-consing: both integrations of P hold the very cells of I
    assert all_one_cells(im.source) == all_one_cells(I)
    for cell in all_one_cells(I):
        assert im.on1(cell) is cell


def test_integration_of_terminal_collapse():
    P = tree_operad(3)
    F = morphism_to_terminal(P)
    im = integrate_morphism(F)
    assert check_integration_map(im).ok
    cell = im.source.cartesian_lift(bang(3), ZeroCell(1, LEAF),
                                    (ZeroCell(3, corolla(3)),))
    out = im.on1(cell)
    assert out.dst == ZeroCell(1, "*")
    assert im.target.P.component(3).is_identity(out.alpha)


def test_integration_respects_composition_of_morphisms():
    # endomorphisms of the saturating chain: doubling then collapsing to zero
    from opint.fincat import Functor
    from opint.operads import OperadMorphism, validate_operad_morphism
    P = nat_operad(3)
    C = P.component(1)

    def mono(fn):
        return OperadMorphism(P, P, {1: Functor(C, C,
                                                {a: fn(a) for a in C.objects},
                                                {m: (fn(m[0]), fn(m[1]))
                                                 for m in C.morphism_ids()})})

    F = mono(lambda a: min(2 * a, 3))
    G = mono(lambda a: 0)
    assert validate_operad_morphism(F).ok
    assert validate_operad_morphism(G).ok
    I = integrate(P)
    imF = IntegrationMap(F, I, I)
    imG = IntegrationMap(G, I, I)
    GF = mono(lambda a: 0)
    imGF = IntegrationMap(GF, I, I)
    for cell in all_one_cells(I):
        assert imGF.on1(cell) == imG.on1(imF.on1(cell))


# ---------------------------------------------------------------------------
# seeded corruptions of an integration map, one per FAIL path of the checker


@dataclass
class MisroutedMap(IntegrationMap):
    """The identity 2-functor of an integration, except that ``on1`` sends
    each cell in ``wrong`` to the cell given there."""

    wrong: dict = field(default_factory=dict)

    def on1(self, cell):
        return self.wrong.get(cell) or super().on1(cell)


def cyclic_json(N, k):
    """The JSON form of cyclic:N:k: one object ``*`` in each arity up to N
    whose morphisms form Z/k; mu adds."""
    component = {"objects": ["*"],
                 "morphisms": [{"id": m, "src": "*", "dst": "*"} for m in range(k)],
                 "identities": {"*": 0},
                 "comp": [[g, f, (g + f) % k] for g in range(k) for f in range(k)]}
    mu = [{"g": str(g),
           "graph": [[["*"] * (1 + g.cod), "*"]],
           "mor_graph": [[list(ms), sum(ms) % k]
                         for ms in itertools.product(range(k), repeat=1 + g.cod)]}
          for g in all_surjections_up_to(N)]
    return {"bound": N, "unit": "*", "name": "cyclic:%d:%d" % (N, k),
            "components": [component] * N, "mu": mu}


def cyclic_operad(N, k):
    """cyclic:N:k, loaded from its JSON form.  Parallel 1-cells differ only
    in their component morphism."""
    return operad_from_json(cyclic_json(N, k))


def test_integrate_rejects_a_mu_table_that_breaks_composition():
    # cyclic:2:3 with mu_1->1(1, 1) = 0, not 2: every endpoint is right (one
    # object), the unit laws read other entries, but (1, 1) o (1, 1) = (2, 2)
    # goes to 1 while 0 o 0 = 0
    g = identity_surjection(1)
    assert integrate(cyclic_operad(2, 3)).P.mu[g].mor_map[(1, 1)] == 2
    P = cyclic_operad(2, 3)
    P.mu[g].mor_map[(1, 1)] = 0
    with pytest.raises(InvalidOperad, match=r"mu_1->1:\[1\] is not a functor: "
                                            r"composition not preserved on "):
        integrate(P)


@pytest.mark.parametrize("P", [nat_operad(3), tree_operad(3), cyclic_operad(2, 3)],
                         ids=lambda P: P.name)
@pytest.mark.parametrize("morphism", [identity_operad_morphism, morphism_to_terminal],
                         ids=["identity", "to terminal"])
def test_on2_is_a_functor_on_each_hom(morphism, P):
    # on2 keeps endpoints, identity 2-cells and vertical composites; under
    # the identity morphism it is the identity on 2-cells
    im = integrate_morphism(morphism(P))
    I, J = im.source, im.target
    pairs = 0
    for x in I.zero_cells():
        for y in I.targets(x):
            H = I.hom(x, y)
            for t in H.morphism_ids():
                image = im.on2(t)
                assert (image.src, image.dst) == (im.on1(t.src), im.on1(t.dst))
                assert image is t or morphism is not identity_operad_morphism
            for c in H.objects:
                assert im.on2(I.identity_two_cell(c)) is J.identity_two_cell(im.on1(c))
            for t2, t1 in H.composable_pairs():
                assert im.on2(I.v_compose(t2, t1)) is J.v_compose(im.on2(t2), im.on2(t1))
                pairs += 1
    assert pairs > 0


# ---------------------------------------------------------------------------
# seeded corruptions of the 2-category laws, on cyclic:2:3's parallel 2-cells


class MiscomposedIntegration(Integration):
    """An integration whose ``h_compose_2cells`` answers ``h_wrong[pair]``,
    and whose ``v_compose`` answers ``v_wrong[pair]``, on the pairs
    ``(second, first)`` given there."""

    def __init__(self, P, h_wrong=(), v_wrong=()):
        super().__init__(P)
        self.h_wrong, self.v_wrong = dict(h_wrong), dict(v_wrong)

    def h_compose_2cells(self, second, first):
        if (second, first) in self.h_wrong:
            return self.h_wrong[second, first]
        return super().h_compose_2cells(second, first)

    def v_compose(self, second, first):
        if (second, first) in self.v_wrong:
            return self.v_wrong[second, first]
        return super().v_compose(second, first)


def miscomposed_pair(compose):
    """The endo-2-cell t via [1, 2] of the 1-cell [2->2:[1,2]; *,*; 0], second
    in the listing of hom([2,*], [2,*]) in cyclic:2:3, and a 2-cell parallel
    to ``compose(I)(t, t)`` but not equal to it."""
    I = integrate(cyclic_operad(2, 3))
    H = I.hom(ZeroCell(2, "*"), ZeroCell(2, "*"))
    t = H.morphism_ids()[1]
    right = compose(I)(t, t)
    assert (str(t), len(H.hom(right.src, right.dst))) == \
        ("(%s) => (%s) via [1, 2]" % ((H.objects[0],) * 2), 3)
    return I, H, t, next(u for u in H.hom(right.src, right.dst) if u != right)


def test_a_wrong_horizontal_composite_of_2_cells_fails_interchange():
    I, H, t, other = miscomposed_pair(lambda I: I.h_compose_2cells)
    bad = MiscomposedIntegration(cyclic_operad(2, 3), h_wrong={(t, t): other})
    homs, units, assoc, interchange = check_two_category_laws(bad, cap=None)
    assert homs.ok and units.ok and assoc.ok
    assert interchange.status == "fail"
    # the failing instance meets t * t in one of its three horizontal composites
    cells = {str(u): u for u in H.morphism_ids()}
    e2, e1, d2, d1 = (cells[w] for w in interchange.witness)
    assert (t, t) in {(I.v_compose(e2, e1), I.v_compose(d2, d1)), (e2, d2), (e1, d1)}


def test_a_wrong_vertical_composite_fails_the_hom_categories():
    I, H, t, other = miscomposed_pair(lambda I: I.v_compose)
    bad = MiscomposedIntegration(cyclic_operad(2, 3), v_wrong={(t, t): other})
    x = ZeroCell(2, "*")
    sub = validate_category(bad.hom(x, x))
    assert sub.status == "fail" and sub.witness
    assert validate_category(H).ok   # the honest hom passes
    # the same problem lines, each 2-cell printed by its str, not its repr
    shown = sub.witness
    for u in bad.hom(x, x).morphism_ids():
        shown = [line.replace(repr(u), str(u)) for line in shown]
    homs = check_two_category_laws(bad, cap=None)[0]
    assert (homs.status, homs.witness) == ("fail", (str(x), str(x), shown))
    assert [len(line) for line in shown] == [302] * 5


class RecordingIntegration(Integration):
    """An integration that records each ``h_compose(second, first)``."""

    def __init__(self, P):
        super().__init__(P)
        self.calls = []

    def h_compose(self, second, first):
        self.calls.append((second, first))
        return super().h_compose(second, first)


def factorize_by_fields(I, phi):
    """phi = [f; args; 1] o [1; e..e; alpha], each part built from its fields."""
    P, m = I.P, phi.f.dom
    s = P.component(m).src(phi.alpha)
    e_part = I.one_cell(identity_surjection(m), (P.unit,) * m, phi.alpha, ZeroCell(m, s))
    return e_part, I.one_cell(phi.f, phi.args, P.component(m).id_of(s), phi.dst)


@pytest.mark.parametrize("P", [nat_operad(3), tree_operad(3), cyclic_operad(2, 3)],
                         ids=lambda P: P.name)
def test_factorization_is_the_component_part_then_the_chosen_lift(P):
    I = integrate(P)
    cells = all_one_cells(I)
    assert len(cells) == {"nat:3": 54, "trees:3": 17, "cyclic:2:3": 9}[P.name]
    for phi in cells:
        e_part, m_part = I.factorize(phi)
        assert (e_part, m_part) == factorize_by_fields(I, phi)
        assert m_part is I.cartesian_lift(phi.f, phi.dst, I.fibers_of_1cell(phi))


@pytest.mark.parametrize("P", [nat_operad(3), tree_operad(3), cyclic_operad(2, 3)],
                         ids=lambda P: P.name)
def test_field_predicates_agree_with_the_cleavage(P):
    # strict factorization tests its parts through the cleavage: a
    # component part lies over an identity with unit fibers, a cut part is
    # its own chosen lift; on every 1-cell these are the field predicates
    I = integrate(P)
    unit = ZeroCell(1, P.unit)
    seen = set()
    for c in all_one_cells(I):
        fibers = I.fibers_of_1cell(c)
        component = c.f.is_identity() and fibers == (unit,) * c.f.dom
        cut = c is I.cartesian_lift(c.f, c.dst, fibers)
        assert (in_e_subcategory(I, c), in_m_subcategory(I, c)) == (component, cut), str(c)
        seen.add((component, cut))
    assert len(seen) == 4   # each predicate holds on some cells and fails on others


WALKS = {   # each checker, exhaustive, on an integration that records h_compose
    "laws": lambda I: check_two_category_laws(I, cap=None),
    "projection": lambda I: [check_projection(I, cap=None)],
    "factorization": lambda I: [check_factorization(I, cap=None)],
    "integration map": lambda I: [check_integration_map(
        IntegrationMap(identity_operad_morphism(I.P), I, I), cap=None)],
}


def expected_calls(walk, J):
    """The ``h_compose(second, first)`` calls of ``WALKS[walk]``, from the
    1-cells found pair by pair: each 1-cell f by source, then each g out of
    the target of f."""
    cells = all_one_cells(J)
    pairs = [(g, f) for f in cells for g in one_cells_from(J, f.dst)]
    if walk == "projection":
        return pairs
    if walk == "integration map":   # composed on the source, then on the target
        return [call for pair in pairs for call in (pair, pair)]
    calls = []
    if walk == "factorization":
        for phi in cells:
            e_part, m_part = factorize_by_fields(J, phi)
            calls.append((m_part, e_part))
            calls += [(m, e) for e in one_cells_from(J, phi.src) if in_e_subcategory(J, e)
                      for m in J.hom(e.dst, phi.dst).objects if in_m_subcategory(J, m)]
        return calls
    for f in cells:   # the laws: units, then associativity
        calls += [(f, J.identity_one_cell(f.src)), (J.identity_one_cell(f.dst), f)]
    for g, f in pairs:
        calls.append((g, f))
        for h in one_cells_from(J, g.dst):
            calls += [(h, J.h_compose(g, f)), (h, g), (J.h_compose(h, g), f)]
    return calls


@pytest.mark.parametrize("P", [tree_operad(3), cyclic_operad(2, 3)], ids=lambda P: P.name)
@pytest.mark.parametrize("walk", list(WALKS))
def test_checkers_walk_the_1_cells_out_of_each_0_cell_in_order(walk, P):
    # the checkers walk 0-cells, their targets and homs; on an integration
    # that is the order of the 1-cells found over every pair of 0-cells
    I, J = RecordingIntegration(P), integrate(P)   # J: the cells, unrecorded
    reports = WALKS[walk](I)
    assert all(r.ok for r in reports)
    expected = expected_calls(walk, J)
    if walk != "laws":
        assert I.calls == expected
        return
    units, assoc = reports[1:3]   # interchange composes after them
    assert I.calls[:len(expected)] == expected
    assert len(expected) == 2 * units.checked + 3 * assoc.checked + \
        sum(len(one_cells_from(J, f.dst)) for f in all_one_cells(J))


def misrouted(P, wrong):
    I = integrate(P)
    return I, MisroutedMap(identity_operad_morphism(P), I, I, wrong(I))


def cyclic_cells(I, src_arity, dst_arity):
    """The 1-cells [src_arity,*] -> [dst_arity,*], by component morphism."""
    cells = I.hom(ZeroCell(src_arity, "*"), ZeroCell(dst_arity, "*")).objects
    return {c.alpha: c for c in cells}


def test_check_integration_map_passes_on_the_uncorrupted_maps():
    for P in (cyclic_operad(2, 3), nat_operad(3)):
        assert check_integration_map(misrouted(P, lambda I: {})[1], cap=None).ok


def test_map_moving_an_identity_fails_at_identity():
    I, im = misrouted(cyclic_operad(2, 3), lambda I: {
        I.identity_one_cell(ZeroCell(1, "*")): cyclic_cells(I, 1, 1)[1]})
    r = check_integration_map(im, cap=None)
    assert (r.status, r.witness) == ("fail", ("identity", "[1,*]"))


def test_map_changing_the_surjection_fails_at_projection():
    # the first cell out of [2,*]: no earlier pair composes through it
    def wrong(I):
        return {cyclic_cells(I, 2, 1)[0]: I.identity_one_cell(ZeroCell(2, "*"))}
    I, im = misrouted(cyclic_operad(2, 3), wrong)
    r = check_integration_map(im, cap=None)
    assert (r.status, r.witness) == ("fail", ("projection", str(cyclic_cells(I, 2, 1)[0])))


def test_map_changing_a_middle_object_fails_at_fibers():
    # over the same surjection, middle object 2 in place of 1; composing
    # with the identity of [1,0], the only earlier cell, cannot see it
    x = ZeroCell(1, 0)

    def wrong(I):
        by_p = {c.args: c for c in I.hom(x, x).objects}
        return {by_p[(1,)]: by_p[(2,)]}
    I, im = misrouted(nat_operad(3), wrong)
    cell = next(c for c in I.hom(x, x).objects if c.args == (1,))
    r = check_integration_map(im, cap=None)
    assert (r.status, r.witness) == ("fail", ("fibers", str(cell)))


def test_map_that_is_not_a_homomorphism_fails_at_composition():
    # 2 -> 1 on the endo-cells of [1,*] fixes the identity, the surjection and
    # the fibers, but 1 + 1 = 2 is sent to 1, not to 1 + 1
    I, im = misrouted(cyclic_operad(2, 3), lambda I: {
        cyclic_cells(I, 1, 1)[2]: cyclic_cells(I, 1, 1)[1]})
    a1 = str(cyclic_cells(I, 1, 1)[1])
    r = check_integration_map(im, cap=None)
    assert (r.status, r.witness) == ("fail", ("composition", a1, a1))


def test_map_moving_the_chosen_lift_fails_at_lift():
    # conjugation by the automorphism 1 of [2,*] is a 2-functor over the
    # projection that keeps every fiber, but shifts the cells [2,*] -> [1,*]
    # by 2 and so moves the chosen lift [2->1:[1,1]; *; 0]
    def wrong(I):
        b = cyclic_cells(I, 2, 1)
        return {b[i]: b[(i + 2) % 3] for i in range(3)}
    I, im = misrouted(cyclic_operad(2, 3), wrong)
    r = check_integration_map(im, cap=None)
    assert (r.status, r.witness) == ("fail", ("lift", "2->1:[1,1]", "[1,*]", ("[2,*]",)))


def test_map_moving_an_endpoint_fails_at_endpoints():
    # the cell [1,0] -> [1,0] with middle object 1 sent to [1,1] -> [1,0]
    # with the same middle object: surjection and fibers agree, and the
    # identity of [1,0] composes with the cell before the cell's own turn
    def wrong(I):
        return {nat_cell(I, 0, 0, 1): nat_cell(I, 1, 0, 1)}
    I, im = misrouted(nat_operad(3), wrong)
    r = check_integration_map(im, cap=None)
    assert (r.status, r.witness) == ("fail", ("endpoints", str(nat_cell(I, 0, 0, 1))))
