import dataclasses
import itertools
import json
import pathlib
from collections import Counter

import pytest

from opint.cli import load_operad
from opint.fincat import FinCat, Functor, poset_category, validate_functor
from opint.integration import (
    Integration, IntegrationMap, InvalidOperad, LaxTriangle, OneCell, ZeroCell, _cells_out,
    check_factorization, check_two_category_laws, homs, integrate, integrate_morphism,
    lift_instances,
)
from opint.jsonio import operad_from_json
from opint.operads import (
    OperadMorphism, check_associativity, nat_operad, terminal_operad, tree_operad,
    validate_operad,
)
from opint.operadic import (
    DeltaSTwoCat, ExtractionError, canonical_fibration, check_all_lifts_cartesian,
    check_full_faithfulness, check_integration_map, check_operadic_axioms,
    check_splitting, check_trivial_subcategory, delta_s,
    enumerate_lift_preserving_2functors, enumerate_operad_morphisms, extract_operad,
    is_operadic_cartesian, is_trivial, roundtrip_2cat, roundtrip_operad,
    OperadicTwoCat, SplitFibrationData, _candidates, _check_fiber_axiom_one_cells,
    _check_lali_choice, _fillers, _integrates_to_2functor, trivial_subcategory,
)
from opint.operads import validate_operad_morphism
from opint.report import Report
from opint.surjections import (
    Surjection, bang, compose, enumerate_surjections, identity_surjection, ordinal_sum,
)
from opint.trees import LEAF, corolla


def fibration(P):
    return canonical_fibration(integrate(P))


def test_axioms_pass_on_small_integrations():
    for P in (nat_operad(3), tree_operad(2), terminal_operad(2)):
        S = fibration(P)
        for r in check_operadic_axioms(S.operadic):
            assert r.ok, (P.name, r.line())


def test_axioms_pass_on_truncated_surjection_calculus():
    for r in check_operadic_axioms(delta_s(4)):
        assert r.ok, r.line()


def test_corrupted_fiber_labels_fail_axiom_i():
    S = fibration(nat_operad(2))
    O = S.operadic
    real_fib0 = O.fib0

    def bad_fib0(cell):
        out = real_fib0(cell)
        if cell.args == (1,):
            return (ZeroCell(2, 0),) * len(out)  # wrong cardinality tag
        return out

    broken = dataclasses.replace(O, fib0=bad_fib0)
    reports = {r.name: r for r in check_operadic_axioms(broken)}
    assert not reports["axiom (i)"].ok


def test_a_triangle_with_a_fiber_too_many_fails_axiom_i():
    # one identity 1-cell appended to every triangle's fibers: axiom (i)
    # counts the fibers against the right face before reading them
    O = fibration(tree_operad(3)).operadic
    real_fib1, extra = O.fib1, O.tc.identity_one_cell(O.unit)
    broken = dataclasses.replace(O, fib1=lambda tri: real_fib1(tri) + (extra,))
    r = {r.name: r for r in check_operadic_axioms(broken)}["axiom (i)"]
    assert r.line() == ("axiom (i): fail (2 instances) witness=('triangle fiber count', "
                        "\"[1->1:[1]; L; ('L', 'L')]: [1,L] -> [1,L]\")")


def identity_fibers(O):
    """``O.fib1`` with each fiber map replaced by an identity."""
    I, real_fib1 = O.tc, O.fib1
    return lambda tri: tuple(I.identity_one_cell(c.dst) for c in real_fib1(tri))


def test_replaced_fibers_are_not_served_from_the_original_memos():
    # the copy made by replace starts with empty memos, so fibers the
    # original already computed cannot stand in for the corrupted ones
    O = fibration(nat_operad(2)).operadic
    assert all(r.ok for r in check_operadic_axioms(O))
    broken = dataclasses.replace(O, fib1=identity_fibers(O))
    reports = {r.name: r for r in check_operadic_axioms(broken)}
    assert not reports["axiom (v)"].ok
    assert not reports["axiom (v) one-cells"].ok
    # on trees:3 the fiber maps are not all identities, so axiom (i) and
    # the cartesian lifts read the corrupted fibers from the copy's table
    S = fibration(tree_operad(3))
    O = S.operadic
    assert all(r.ok for r in check_operadic_axioms(O)) and check_all_lifts_cartesian(S).ok
    bad_fib1 = identity_fibers(O)
    broken = dataclasses.replace(O, fib1=bad_fib1)
    assert not {r.name: r for r in check_operadic_axioms(broken)}["axiom (i)"].ok
    assert not check_all_lifts_cartesian(dataclasses.replace(S, operadic=broken)).ok
    for x in O.tc.zero_cells():
        for phi in O.one_cells_into(x):
            for (tri, fibers), (served, bad) in zip(O.triangles_onto(phi),
                                                    broken.triangles_onto(phi)):
                assert served is tri and fibers == O.fib1(tri)
                assert bad == bad_fib1(tri)


def one_cells_report(O):
    return next(r for r in check_operadic_axioms(O) if r.name == "axiom (v) one-cells")


def operad(spec):
    """A builtin by its CLI spec, or a hand-built non-poset operad."""
    from test_cells import chaotic_operad
    from test_integration import cyclic_operad
    hand_built = {"cyclic:2:2": lambda: cyclic_operad(2, 2),
                  "cyclic:2:3": lambda: cyclic_operad(2, 3), "chaotic:2:2": chaotic_operad}
    return hand_built[spec]() if spec in hand_built else load_operad(spec)


@pytest.mark.parametrize("spec, instances", [
    ("nat:2", 16905), ("trees:3", 105), ("nat:3", 280369), ("cyclic:2:2", 1344),
    ("cyclic:2:3", 63423)], ids=["nat:2", "trees:3", "nat:3", "cyclic:2:2", "cyclic:2:3"])
def test_one_cells_charge_every_instance(spec, instances):
    r = one_cells_report(fibration(operad(spec)).operadic)
    assert (r.status, r.checked) == ("pass", instances)


def test_corrupted_slice_fiber_fails_fiber_functoriality():
    # one fiber of one slice 2-cell is replaced by an identity 2-cell,
    # whose source is not the composite of the fibers of a2 and sigma
    O = fibration(nat_operad(2)).operadic
    I, real_fib1, real_fib2 = O.tc, O.fib1, O.fib2
    r = Report("axiom (v) one-cells")
    routes, calls = set(), []

    def recording_fib1(tri):
        routes.add((r.checked, tri.d1, tri.filler))
        return real_fib1(tri)

    def recording_fib2(*parts):
        out = real_fib2(*parts)
        calls.append((r.checked, parts, out))
        return out

    assert _check_fiber_axiom_one_cells(
        dataclasses.replace(O, fib1=recording_fib1, fib2=recording_fib2), r).ok
    first = {}
    for n, parts, _ in calls:
        first.setdefault(parts, n)
    # the last slice 2-cell with a fiber that is not an identity, first met
    # at an instance that reused its connecting route: fib1 saw no triangle
    # with the instance's a1.d2 and gamma there
    found = next(((n, parts, out) for n, parts, out in reversed(calls)
                  if first[parts] == n and (n, parts[1].d2, parts[2]) not in routes
                  and any(t.src != t.dst for t in out)), None)
    assert found, "no instance that reused its route asked for its slice fibers"
    checked, target, fibers = found
    i = next(k for k, t in enumerate(fibers) if t.src != t.dst)

    def bad_fib2(*parts):
        out = real_fib2(*parts)
        if parts == target:
            out = out[:i] + (I.identity_two_cell(out[i].dst),) + out[i + 1:]
        return out

    r = one_cells_report(dataclasses.replace(O, fib2=bad_fib2))
    assert (r.status, r.checked) == ("fail", checked)
    assert r.witness == ("fiber functoriality", i, str(target[0].d0))


def test_corrupted_connecting_triangle_fails_one_cells():
    # the unit triangle of the identity on [3, corolla(3)] is the
    # connecting triangle tri_a of 12 of the 105 instances on trees:3; its
    # fibers cut along phi are looked up once per 1-cell and reused, so a
    # corrupted fiber must FAIL at the first instance that meets it
    O = fibration(tree_operad(3)).operadic
    I, real_fib1 = O.tc, O.fib1
    ident = I.identity_one_cell(ZeroCell(3, corolla(3)))
    unit = LaxTriangle(ident, ident, ident, I.identity_two_cell(ident))
    stray = I.identity_one_cell(ZeroCell(2, corolla(2)))

    def bad_fib1(tri):
        out = real_fib1(tri)
        return (stray,) + out[1:] if tri is unit else out

    r = one_cells_report(dataclasses.replace(O, fib1=bad_fib1))
    assert (r.status, r.checked) == ("fail", 71)
    assert r.witness == ("one-cells", 0, "[3->1:[1,1,1]; ('L', ('L', 'L')); "
                         "(('L', ('L', 'L')), ('L', 'L', 'L'))]: [3,('L', 'L', 'L')] -> [1,L]")


@pytest.mark.parametrize("spec, instances, distinct", [
    ("nat:3", 280369, 4937), ("cyclic:2:3", 63423, 1134), ("chaotic:2:2", 77824, 2816)],
    ids=["nat:3", "cyclic:2:3", "chaotic:2:2"])
def test_slice_fibers_are_asked_once_per_distinct_arguments(spec, instances, distinct):
    # per 1-cell, fib2 sees each (comp_slice, a1, gamma) once; every
    # instance is still charged, also where the filler test rejects
    # (39,366 of the instances on cyclic:2:3)
    O = fibration(operad(spec)).operadic
    real_fib2, calls = O.fib2, []

    def recording_fib2(comp_slice, a1, gamma):
        calls.append((comp_slice, a1, gamma))
        return real_fib2(comp_slice, a1, gamma)

    r = one_cells_report(dataclasses.replace(O, fib2=recording_fib2))
    assert (r.status, r.checked) == ("pass", instances)
    assert len(calls) == len(set(calls)) == distinct


def recorded_one_cells(O):
    """Run axiom (v) one-cells on O and record each fib1 call as
    ``(instance, tri, phi, i)``, with ``i`` the fiber index of a tri_b
    call of the fiber loop and None in other roles, together with the
    instances that called fib2 and those that ran the fiber loop."""
    r = Report("axiom (v) one-cells")
    at, calls, fib2_at, loop_at = {}, [], set(), set()

    def fib0(phi):
        at["phi"] = phi
        return O.fib0(phi)

    def fib2(*parts):
        fib2_at.add(r.checked)
        return O.fib2(*parts)

    def src2(xi):  # once per fiber of the loop, just before its tri_b call
        i = at["i"] + 1 if r.checked in loop_at else 0
        at.update(i=i, tri_b=i)
        loop_at.add(r.checked)
        return O.src2(xi)

    def fib1(tri):
        calls.append((r.checked, tri, at["phi"], at.pop("tri_b", None)))
        return O.fib1(tri)

    assert _check_fiber_axiom_one_cells(dataclasses.replace(
        O, fib0=fib0, fib1=fib1, fib2=fib2, src2=src2), r).ok
    return calls, fib2_at, loop_at


def one_cells_with_fib1_wrong_on(O, target, checked):
    """Axiom (v) one-cells with fib1 wrong on ``target`` from instance
    ``checked`` on; every triangle of a builtin is met in some role early,
    so a fib1 wrong on it from the start would FAIL there instead."""
    I = O.tc
    strays = [I.identity_one_cell(x) for x in (ZeroCell(1, LEAF), ZeroCell(2, corolla(2)))]
    r = Report("axiom (v) one-cells")

    def bad_fib1(tri):
        out = O.fib1(tri)
        if tri is target and r.checked >= checked:
            return (strays[out[0] == strays[0]],) + out[1:]
        return out

    return _check_fiber_axiom_one_cells(dataclasses.replace(O, fib1=bad_fib1), r)


def test_corrupted_fiber_triangle_fails_where_slice_fibers_are_reused():
    # a fiber triangle tri_b first asked for at an instance whose slice
    # fibers came from the per-1-cell table, not from fib2, and that asks
    # for it in no other role: the check must FAIL right there
    O = fibration(tree_operad(3)).operadic
    calls, fib2_at, _ = recorded_one_cells(O)
    roles = Counter((n, tri) for n, tri, _, _ in calls)
    met = set()
    for n, tri, phi, i in calls:
        if i is not None and tri not in met:
            met.add(tri)
            if n not in fib2_at and roles[n, tri] == 1:
                break
    else:
        raise AssertionError("no such fiber triangle")
    r = one_cells_with_fib1_wrong_on(O, tri, n)
    assert (r.status, r.checked, r.witness) == ("fail", n, ("one-cells", i, str(phi)))


def test_corrupted_route_fails_where_an_equal_square_passed():
    # a connecting triangle tri_a, whose right face ends at y = phi.src
    # (not x = y, where the triangles onto phi end too), asked for by an
    # instance that skipped its fiber loop, since an equal square, route
    # included, passed earlier in the 1-cell; once its route is wrong the
    # square is new and must FAIL there (a verified key without the route
    # would skip it)
    O = fibration(tree_operad(3)).operadic
    calls, _, loop_at = recorded_one_cells(O)
    roles = Counter((n, tri) for n, tri, _, _ in calls)
    n, tri, phi = next(
        (n, tri, phi) for n, tri, phi, _ in calls
        if n not in loop_at and tri.d0.dst is phi.src and phi.src is not phi.dst
        and roles[n, tri] == 1)
    r = one_cells_with_fib1_wrong_on(O, tri, n)
    assert (r.status, r.checked, r.witness) == ("fail", n, ("one-cells", 0, str(phi)))


def test_one_cells_pass_with_parallel_slice_2cells():
    # on cyclic:2:2 a composite slice and a source triangle take several
    # gamma, each with slice fibers of its own
    from test_integration import cyclic_operad
    O = fibration(cyclic_operad(2, 2)).operadic
    real_fib2, gammas = O.fib2, {}

    def recording_fib2(comp_slice, a1, gamma):
        gammas.setdefault((comp_slice, a1), set()).add(gamma)
        return real_fib2(comp_slice, a1, gamma)

    r = one_cells_report(dataclasses.replace(O, fib2=recording_fib2))
    assert (r.status, r.checked) == ("pass", 1344)
    assert sum(len(g) > 1 for g in gammas.values()) == 16


@pytest.mark.parametrize("spec", ["nat:3", "trees:3", "cyclic:2:3", "chaotic:2:2"])
def test_triangle_table_matches_a_walk_over_the_homs(spec):
    # each table lists, in order, the triangles psi x 2-cells of hom(z, x)
    # out of the composite, with fib1; every source z with a triangle
    # onto phi is among tc.sources(src0(phi))
    S = fibration(operad(spec))
    O, tc = S.operadic, S.operadic.tc
    total = 0
    for x in tc.zero_cells():
        for phi in O.one_cells_into(x):
            y, walked = O.src0(phi), []
            for z in tc.zero_cells():
                morphisms = tc.hom(z, x).morphisms()
                expected = [LaxTriangle(psi, theta, phi, t)
                            for psi in tc.hom(z, y).objects
                            for theta in tc.hom(z, x).objects
                            for t, s, d in morphisms
                            if s == tc.h_compose(phi, psi) and d == theta]
                if z in tc.sources(y):
                    table = O.triangles_from(phi, z)   # each triangle, then its fib1
                    assert list(table[::2]) == expected
                    assert list(table[1::2]) == [O.fib1(tri) for tri in expected]
                    walked += zip(table[::2], table[1::2])
                else:
                    assert not expected
            assert list(O.triangles_onto(phi)) == walked
            total += len(walked)
    assert total > 0


def walked_fillers(O, phi, theta, psis, base):
    """The fillers as found before the triangle table: a walk over the
    top maps z -> src0(phi) and the 2-cells into ``theta``."""
    z, t = O.src0(theta), O.dst0(phi)
    hom_zt = O.tc.hom(z, t)
    for d2 in O.tc.hom(z, O.src0(phi)).objects:
        if O.card1(d2) != base:
            continue
        composite = O.tc.h_compose(phi, d2)
        for filler in hom_zt.hom(composite, theta):
            tri = LaxTriangle(d2, theta, phi, filler)
            if O.fib1(tri) == psis:
                yield tri


@pytest.mark.parametrize("spec", ["nat:3", "trees:3", "cyclic:2:3", "chaotic:2:2"])
def test_fillers_from_the_table_match_the_hom_walk(spec):
    S = fibration(operad(spec))
    O, tc = S.operadic, S.operadic.tc
    instances = compared = 0   # as check_all_lifts_cartesian charges them
    for g, c, bs in lift_instances(O.cells_by_card()):
        phi = S.lift(g, c, bs)
        fibs_phi = O.fib0(phi)
        for theta in O.one_cells_into(c):
            slots = [tc.hom(a, b).objects for a, b in zip(O.fib0(theta), fibs_phi)]
            for psis in itertools.product(*slots):
                instances += 1
                base = ordinal_sum([O.card1(p) for p in psis])
                if compose(base, g) != O.card1(theta):
                    continue
                assert _fillers(O, phi, theta, psis, base) == \
                    list(walked_fillers(O, phi, theta, psis, base))
                compared += 1
    assert instances == check_all_lifts_cartesian(S, cap=None).checked
    assert compared > 0


def test_canonical_lifts_are_cartesian_small():
    for P in (nat_operad(3), tree_operad(2)):
        S = fibration(P)
        assert check_all_lifts_cartesian(S, cap=None).ok


def test_identity_cells_are_cartesian():
    S = fibration(nat_operad(3))
    I = S.operadic.tc
    for x in I.zero_cells():
        assert is_operadic_cartesian(S.operadic, I.identity_one_cell(x)).ok


def test_non_lift_cell_fails_cartesian():
    # the middle object 1 with a strictly shrinking component morphism
    S = fibration(nat_operad(5))
    I = S.operadic.tc
    bad = None
    for cell in I.hom(ZeroCell(1, 0), ZeroCell(1, 1)).objects:
        if cell.args == (1,):
            bad = cell
    assert bad is not None
    report = is_operadic_cartesian(S.operadic, bad)
    assert not report.ok
    assert "0 fillers" in str(report.witness) or "2 fillers" in str(report.witness)


def test_splitting_passes_and_perturbation_fails():
    for P in (nat_operad(3), tree_operad(2)):
        S = fibration(P)
        assert check_splitting(S).ok
    S = fibration(nat_operad(3))
    I = S.operadic.tc
    real_lift = S.lift

    def tampered(g, c, fibers):
        out = real_lift(g, c, fibers)
        if c == ZeroCell(1, 1) and tuple(f.obj for f in fibers) == (1,):
            # swap in a non-identity component morphism at one triple
            H = I.hom(ZeroCell(1, 3), ZeroCell(1, 1))
            for cell in H.objects:
                if cell.args == (2,):
                    return cell
        return out

    bad = dataclasses.replace(S, lift=tampered)
    report = check_splitting(bad)
    assert not report.ok


def test_trivial_cells_in_tree_integration():
    S = fibration(tree_operad(3))
    O = S.operadic
    I = O.tc
    # identities are trivial
    for x in I.zero_cells():
        assert is_trivial(O, I.identity_one_cell(x))
    # pure contractions (identity surjection, unit middles) are trivial;
    # the component morphism (lcomb, corolla) contracts the left comb
    lcomb = ((LEAF, LEAF), LEAF)
    cell = I.one_cell(identity_surjection(3), (LEAF,) * 3,
                      (lcomb, corolla(3)), ZeroCell(3, lcomb))
    assert cell.src == ZeroCell(3, corolla(3))
    assert is_trivial(O, cell)
    # a proper cut is rejected on cardinality grounds
    cut = I.cartesian_lift(bang(3), ZeroCell(1, LEAF), (ZeroCell(3, corolla(3)),))
    assert (O.card0(O.src0(cut)), O.card0(O.dst0(cut))) == (3, 1)
    assert is_trivial(O, cut) is False


def test_non_unit_middles_are_not_trivial():
    S = fibration(nat_operad(4))
    O = S.operadic
    I = O.tc
    for cell in I.hom(ZeroCell(1, 1), ZeroCell(1, 2)).objects:
        if cell.args != (0,):
            assert not is_trivial(O, cell)


def test_trivial_subcategory_checks():
    # every composable pair of trivial cells is charged once
    for P, n in ((nat_operad(3), 149), (tree_operad(2), 7), (tree_operad(4), 263)):
        r = check_trivial_subcategory(fibration(P).operadic)
        assert (r.status, r.checked) == ("pass", n), (P.name, r.line())


def test_replaced_eps_is_not_served_from_the_triviality_memo():
    # O's memo says every identity is trivial; a copy with a wrong terminal
    # map at [3, corolla(3)] starts with an empty memo, so the identity of
    # the unit object, whose unit triangles have that map as a fiber, fails
    O = fibration(tree_operad(3)).operadic
    assert check_trivial_subcategory(O).ok and O._memos["trivial"]
    I, u, x = O.tc, ZeroCell(1, LEAF), ZeroCell(3, corolla(3))
    wrong = next(c for c in I.hom(x, u).objects if c != O.eps(x))

    def bad_eps(c):
        return wrong if c == x else O.eps(c)

    broken = dataclasses.replace(O, eps=bad_eps)
    r = check_trivial_subcategory(broken)
    assert (r.status, r.witness) == ("fail", ("identity", str(u)))
    reports = {r.name: r for r in check_operadic_axioms(broken)}
    assert (reports["axiom (ii)"].status, reports["axiom (ii)"].witness) == ("fail", str(x))


def test_extracted_operad_is_valid_and_isomorphic():
    P = nat_operad(3)
    P2 = extract_operad(fibration(P))
    # full validation: associative on morphisms and every composition
    # functor is a functor, rule-backed or not
    assert all(r.ok for r in validate_operad(P2))
    assert check_associativity(P2).ok
    assert all(validate_functor(mu).ok for mu in P2.mu.values())
    # the explicit isomorphism a -> ZeroCell(1, a), alpha: a -> b to the trivial
    # 1-cell [1; 0; alpha]: b -> a, is a functor bijective on objects and morphisms
    C, D = P.component(1), P2.component(1)
    F = Functor(C, D, {a: ZeroCell(1, a) for a in C.objects},
                {m: OneCell(identity_surjection(1), (0,), m, ZeroCell(1, C.dst(m)),
                            ZeroCell(1, C.src(m)))
                 for m in C.morphism_ids()})
    for image, target in [(F.obj_map.values(), D.objects),
                          (F.mor_map.values(), D.morphism_ids())]:
        assert len(set(image)) == len(image) and set(image) == set(target)
    assert validate_functor(F).ok
    assert P2.unit == ZeroCell(1, 0)


def test_extracted_mu_on_identities():
    P = tree_operad(2)
    S = fibration(P)
    P2 = extract_operad(S)
    g = bang(2)
    I = S.operadic.tc
    c, b = ZeroCell(1, LEAF), ZeroCell(2, corolla(2))
    lifted_src = P2.apply_obj(g, (c, b))
    ident = P2.apply_mor(g, (P2.component(1).id_of(c), P2.component(2).id_of(b)))
    assert ident == I.identity_one_cell(lifted_src)


def test_roundtrip_operad_certificates():
    for P in (nat_operad(3), tree_operad(2), terminal_operad(2)):
        cert = roundtrip_operad(P)
        assert cert.ok, (P.name, cert.line())
        assert cert.checked > 0


def test_corrupted_mu_on_morphisms_fails_roundtrip_operad():
    # light validation checks mu on objects only, so this corruption
    # integrates; the round trip's morphism square must catch it
    P = nat_operad(3)
    P.mu[identity_surjection(1)].mor_map[((3, 2), (1, 0))] = (3, 3)
    assert all(r.ok for r in validate_operad(P))
    cert = roundtrip_operad(P)
    assert cert.status == "fail", cert.line()
    assert "1->1:[1]" in cert.witness and ((3, 2), (1, 0)) in cert.witness
    # the two images are named by their short forms, not their reprs
    line = cert.line()
    assert "OneCell(" not in line and len(line) < 200, line


def test_roundtrip_2cat_certificates():
    for P in (nat_operad(2), tree_operad(2), terminal_operad(2)):
        cert = roundtrip_2cat(fibration(P))
        assert cert.ok, (P.name, cert.line())


def test_roundtrip_2cat_sees_a_hom_empty_on_the_extracted_side():
    # the presentation gains a 1-cell [1,L] -> [2,(L,L)], where the
    # integration of the extracted operad has an empty hom: the pair walk
    # must reach it through the presentation's own targets (the ghost is
    # not among the sources of [2,(L,L)], so the extraction never meets it)
    S = fibration(tree_operad(2))
    I = S.operadic.tc
    x, y = ZeroCell(1, LEAF), ZeroCell(2, corolla(2))
    assert not I.hom(x, y).objects

    class Ghost:
        def __getattr__(self, name):
            return getattr(I, name)

        def hom(self, a, b):
            if (a, b) != (x, y):
                return I.hom(a, b)
            return FinCat(["ghost"], [("id2", "ghost", "ghost")], {"ghost": "id2"},
                          {("id2", "id2"): "id2"})

        def targets(self, a):
            return I.targets(a) + (y,) * (a == x)

    ghost = dataclasses.replace(S, operadic=dataclasses.replace(S.operadic, tc=Ghost()))
    cert = roundtrip_2cat(ghost)
    assert (cert.status, cert.witness) == \
        ("fail", ("1-cell bijection", str(ZeroCell(1, x)), str(ZeroCell(2, y))))


def test_roundtrip_with_relabeled_objects():
    # rename the chain objects; everything should be invariant under ids
    base = nat_operad(2)
    C = poset_category(["zero", "one", "two"],
                       lambda a, b: ["zero", "one", "two"].index(a) <=
                       ["zero", "one", "two"].index(b))
    names = {0: "zero", 1: "one", 2: "two"}
    from opint.operads import TruncatedOperad
    g = identity_surjection(1)
    mu_obj = {(names[a], names[b]): names[min(a + b, 2)]
              for a in range(3) for b in range(3)}
    mu_mor = {}
    for m1 in base.component(1).morphism_ids():
        for m2 in base.component(1).morphism_ids():
            key = ((names[m1[0]], names[m1[1]]), (names[m2[0]], names[m2[1]]))
            mu_mor[key] = (names[min(m1[0] + m2[0], 2)], names[min(m1[1] + m2[1], 2)])
    from opint.fincat import product
    renamed = TruncatedOperad(
        1, {1: C}, "zero",
        {g: Functor(product([C, C]), C, mu_obj, mu_mor)}, name="renamed")
    assert all(r.ok for r in validate_operad(renamed))
    assert roundtrip_operad(renamed).ok
    assert roundtrip_2cat(fibration(renamed)).ok


def test_extraction_rejects_non_fibered_input():
    S = fibration(nat_operad(2))
    I = S.operadic.tc

    def broken_lift(g, c, fibers):
        # always hand back an identity cell: fibers are then wrong
        return I.identity_one_cell(c)

    bad = dataclasses.replace(S, lift=broken_lift)
    with pytest.raises(ExtractionError):
        extract_operad(bad)


def test_full_faithfulness_poset_instances():
    r = check_full_faithfulness(nat_operad(2), nat_operad(2))
    assert r.ok, r.line()
    r = check_full_faithfulness(tree_operad(2), tree_operad(2))
    assert r.ok, r.line()


def test_morphism_enumeration_matches_validator_oracle():
    # independent cross-check: filter all object maps by the full validator
    import itertools
    P = nat_operad(2)
    C = P.component(1)
    expected = 0
    for values in itertools.product(C.objects, repeat=len(C.objects)):
        fn = dict(zip(C.objects, values))
        if any(not C.hom(fn[s], fn[d]) for _, s, d in C.morphisms()):
            continue
        F = OperadMorphism(P, P, {1: Functor(
            C, C, fn, {m: (fn[m[0]], fn[m[1]]) for m in C.morphism_ids()})})
        if validate_operad_morphism(F).ok:
            expected += 1
    assert len(enumerate_operad_morphisms(P, P)) == expected
    assert expected >= 2  # identity and the constant-to-unit morphism


def test_two_functor_enumeration_matches_morphisms():
    P = nat_operad(2)
    SP = fibration(P)
    functors = enumerate_lift_preserving_2functors(SP, SP)
    morphisms = enumerate_operad_morphisms(P, P)
    assert len(functors) == len(morphisms)


def endpoint_respecting_maps(C, D):
    """Every object map with one arrow of D per arrow of C between the
    images of its endpoints: the candidates, before any functor law."""
    import itertools
    for values in itertools.product(D.objects, repeat=len(C.objects)):
        fn = dict(zip(C.objects, values))
        for images in itertools.product(*[D.hom(fn[s], fn[d]) for _, s, d in C.morphisms()]):
            yield Functor(C, D, fn, dict(zip(C.morphism_ids(), images)))


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("k2", range(1, 5))
def test_full_faithfulness_on_cyclic_operads(k, k2):
    # Z/k -> Z/k2 has gcd(k, k2) homomorphisms; the mu squares force the
    # arity-2 one to equal the arity-1 one
    import math
    from test_integration import cyclic_operad
    r = check_full_faithfulness(cyclic_operad(2, k), cyclic_operad(2, k2))
    g = math.gcd(k, k2)
    assert (r.status, r.notes) == ("pass", ["%d morphisms, %d 2-functors" % (g, g)]), r.line()


def test_full_faithfulness_on_a_chaotic_operad():
    import itertools
    from test_cells import chaotic_operad
    P = chaotic_operad()
    r = check_full_faithfulness(P, P)
    assert (r.status, r.notes) == ("pass", ["4 morphisms, 4 2-functors"]), r.line()
    per_arity = [list(endpoint_respecting_maps(P.component(n), P.component(n)))
                 for n in (1, 2)]
    brute = sum(validate_operad_morphism(OperadMorphism(P, P, {1: F1, 2: F2}), cap=None).ok
                for F1, F2 in itertools.product(*per_arity))
    assert brute == 4


def fiber_action_operad(k, acts):
    """Z/k in arities 1 and 2, mu_{1->1} adding.  mu_{2->1}(c, a) = a
    ignores the arity-1 slot, and mu_{2->2}(x, c1, c2) is x + c1 + c2 when
    ``acts``, else x: arity-1 morphisms reach arity 2 only through the
    fiber slots of mu_{2->2}, which only the 2-cells of the integration see."""
    import itertools
    rules = {("1->1:[1]", 1): sum, ("2->1:[1,1]", 1): lambda ms: ms[1],
             ("2->2:[1,2]", 2): sum if acts else (lambda ms: ms[0])}
    component = {"objects": ["*"],
                 "morphisms": [{"id": m, "src": "*", "dst": "*"} for m in range(k)],
                 "identities": {"*": 0},
                 "comp": [[g, f, (g + f) % k] for g in range(k) for f in range(k)]}
    mu = [{"g": g, "graph": [[["*"] * (1 + cod), "*"]],
           "mor_graph": [[list(ms), rule(ms) % k]
                         for ms in itertools.product(range(k), repeat=1 + cod)]}
          for (g, cod), rule in rules.items()]
    return operad_from_json({"bound": 2, "unit": "*", "name": "fiber action",
                             "components": [component] * 2, "mu": mu})


@pytest.mark.parametrize("acts, count", [(True, 3), (False, 9)])
def test_full_faithfulness_reads_the_2_cells(acts, count):
    # the 1-cells alone would let the two arities' homomorphisms Z/3 -> Z/3
    # differ (9 candidates); the 2-cells tie them together when mu_{2->2}
    # acts through its fiber slots
    P = fiber_action_operad(3, acts)
    assert all(r.ok for r in validate_operad(P))
    assert check_associativity(P).ok
    assert all(validate_functor(mu).ok for mu in P.mu.values())
    r = check_full_faithfulness(P, P)
    assert (r.status, r.notes) == \
        ("pass", ["%d morphisms, %d 2-functors" % (count, count)]), r.line()


@pytest.mark.parametrize("P, count", [(nat_operad(2), 3), (nat_operad(3), 4),
                                      (tree_operad(3), 1)])
def test_full_faithfulness_poset_counts(P, count):
    r = check_full_faithfulness(P, P)
    assert (r.status, r.checked, r.notes) == \
        ("pass", 2 * count, ["%d morphisms, %d 2-functors" % (count, count)])


def forced_extension(IP, SQ, functors):
    """The cell maps full faithfulness once built by hand: a 0-cell through
    the object maps, a 1-cell to the chosen lift after the image of its
    component part."""
    IQ = SQ.operadic.tc

    def h0(x):
        return ZeroCell(x.arity, functors[x.arity].obj_map[x.obj])

    def h1(cell):
        m = cell.f.dom
        component = IQ.component_part(m, functors[m].mor_map[cell.alpha])
        lift = SQ.lift(cell.f, h0(cell.dst), tuple(map(h0, IP.fibers_of_1cell(cell))))
        return IQ.h_compose(lift, component)

    return h0, h1


def defined(f, x):
    try:
        return f(x)
    except ValueError:
        return None


def ff_operad(spec):
    if spec == "fiber action":
        return fiber_action_operad(3, True)
    return operad(spec)


@pytest.mark.parametrize("spec, count, undefined", [
    ("nat:2", 230, 50), ("nat:3", 1890, 620), ("trees:2", 3, 0), ("trees:3", 187, 28),
    ("terminal:3", 7, 0), ("chaotic:2:2", 512, 192), ("fiber action", 81, 0)])
def test_integration_map_is_the_forced_extension(spec, count, undefined):
    # for every candidate and every 1-cell, IntegrationMap.on1 is the chosen
    # lift after the image of the component part, or both are undefined;
    # ``count`` pairs (candidate, 1-cell) in all, ``undefined`` of them undefined
    P = ff_operad(spec)
    SQ = fibration(P)
    IP = SQ.operadic.tc
    cells = [c for x in IP.zero_cells() for y in IP.targets(x) for c in IP.hom(x, y).objects]
    seen = Counter()
    for F in _candidates(P, P):
        h0, h1 = forced_extension(IP, SQ, F.functors)
        im = IntegrationMap(F, IP, SQ.operadic.tc)
        assert all(im.on0(x) is h0(x) for x in IP.zero_cells())
        for cell in cells:
            ref, got = defined(h1, cell), defined(im.on1, cell)
            assert ref is got, (str(cell), ref, got)
            seen[got is None] += 1
    assert (seen[False] + seen[True], seen[True]) == (count, undefined)


def is_identity_morphism(F):
    return all(all(k == v for k, v in G.obj_map.items()) and
               all(k == v for k, v in G.mor_map.items()) for G in F.functors.values())


@pytest.mark.parametrize("side, witness", [("2-functors", ("sides differ", 0, 1)),
                                           ("morphisms", ("sides differ", 1, 0))],
                         ids=["2-functors", "morphisms"])
def test_full_faithfulness_fails_when_one_side_rejects_the_identity(monkeypatch, side,
                                                                    witness):
    # each side's per-candidate test, wrapped to reject the identity of nat:2
    import opint.operadic as operadic
    name = {"2-functors": "_integrates_to_2functor", "morphisms": "_check_mu_squares"}[side]
    real = getattr(operadic, name)

    def rejecting(F, *args):
        out = real(F, *args)
        if not is_identity_morphism(F):
            return out
        return False if side == "2-functors" else out.fail("rejected")

    monkeypatch.setattr(operadic, name, rejecting)
    r = check_full_faithfulness(nat_operad(2), nat_operad(2))
    assert r.line() == "full faithfulness: fail (5 instances) witness=%s" % (witness,)


def test_morphism_enumeration_needs_equal_bounds():
    with pytest.raises(ValueError):
        enumerate_operad_morphisms(nat_operad(2), tree_operad(3))
    with pytest.raises(ValueError):
        enumerate_lift_preserving_2functors(fibration(nat_operad(2)), fibration(tree_operad(3)))


def test_lali_absent_on_discrete_presentation():
    class DiscreteTwoCat:
        def zero_cells(self):
            return (0, 1)

        def hom(self, x, y):
            if x == y:
                cell = ("one", x)
                return FinCat([cell], [(("two", x), cell, cell)],
                              {cell: ("two", x)},
                              {(("two", x), ("two", x)): ("two", x)})
            return FinCat([], [], {}, {})

        def identity_one_cell(self, x):
            return ("one", x)

    def view(tc):
        # only the fields the lali choice reads are meaningful
        return OperadicTwoCat(tc, card0=lambda x: 1, card1=None, src0=None, dst0=None,
                              src2=None, fib0=None, fib1=None, fib2=None,
                              unit=0, eps=tc.identity_one_cell)

    # two isolated objects: hom(1, 0) is empty, so no 1-cell from 1 is
    # terminal into the chosen unit and the presentation has no lali
    r = _check_lali_choice(view(DiscreteTwoCat()), Report("lali choice"))
    assert r.line() == "lali choice: fail (2 instances) witness=('terminal map', '1')"

    class NoTerminal(DiscreteTwoCat):
        def hom(self, x, y):
            # two parallel 1-cells with no 2-cells: no terminal anywhere
            cells = [("a", x, y), ("b", x, y)]
            return FinCat(cells,
                          [(("id2", c), c, c) for c in cells],
                          {c: ("id2", c) for c in cells},
                          {(("id2", c), ("id2", c)): ("id2", c) for c in cells})

        def identity_one_cell(self, x):
            return ("a", x, x)

    r = _check_lali_choice(view(NoTerminal()), Report("lali choice"))
    assert r.line() == "lali choice: fail (1 instances) witness=('terminal map', '0')"


def test_delta_s_presentation_basics():
    D = DeltaSTwoCat(3)
    assert D.hom(3, 2).counts() == (2, 2)
    assert D.h_compose(identity_surjection(2), Surjection(3, 2, (1, 1, 2))) == \
        Surjection(3, 2, (1, 1, 2))
    O = delta_s(3)
    assert O.fib0(Surjection(3, 2, (1, 2, 2))) == (1, 2)
    assert O.eps(3) == bang(3)


def test_delta_s_sources_and_targets_are_the_non_empty_homs():
    D = DeltaSTwoCat(4)
    Z = D.zero_cells()
    for n in Z:
        assert tuple(D.sources(n)) == tuple(m for m in Z if enumerate_surjections(m, n))
        assert D.targets(n) == tuple(k for k in Z if enumerate_surjections(n, k))


# the presentation protocol OperadicTwoCat documents, one name per operation
PROTOCOL = ("zero_cells", "hom", "sources", "targets", "h_compose", "identity_one_cell",
            "identity_two_cell", "v_compose", "h_compose_2cells")


@pytest.mark.parametrize("presentation", [Integration, DeltaSTwoCat],
                         ids=lambda c: c.__name__)
def test_presentations_speak_the_protocol_under_one_name(presentation):
    assert all(callable(getattr(presentation, name, None)) for name in PROTOCOL)
    aliases = ("compose1", "identity1", "identity2", "vcompose2", "hcompose2")
    assert not [name for name in aliases if hasattr(presentation, name)]


@pytest.mark.parametrize("N, counts", [(2, (8, 4, 7)), (3, (19, 13, 13))])
def test_abstract_checks_on_the_surjection_calculus(N, counts):
    # Delta_s with each surjection its own lift was never an integration;
    # it is split-fibered, and its extraction is terminal:N
    S = SplitFibrationData(delta_s(N), lambda g, c, bs: g)
    assert S.bound == N
    reports = (check_splitting(S, cap=None), check_all_lifts_cartesian(S, cap=None),
               check_trivial_subcategory(S.operadic, cap=None))
    assert [(r.status, r.checked) for r in reports] == [("pass", n) for n in counts]
    assert roundtrip_2cat(S, cap=None).ok
    P, T = extract_operad(S), terminal_operad(N)
    assert [P.component(n).counts() for n in range(1, N + 1)] == \
        [T.component(n).counts() for n in range(1, N + 1)] == [(1, 1)] * N


@pytest.mark.parametrize("N, counts", [(2, (12, 3, 5, 4)), (3, (28, 7, 21, 13)),
                                       (4, (60, 15, 85, 40))])
def test_two_category_laws_on_the_surjection_calculus(N, counts):
    # Delta_s speaks the presentation protocol the laws walk, and has the
    # homs of the integration of terminal:N, so the same instance counts
    reports = check_two_category_laws(delta_s(N).tc, cap=None)
    assert [(r.status, r.checked) for r in reports] == [("pass", n) for n in counts]
    reports = check_two_category_laws(integrate(terminal_operad(N)), cap=None)
    assert [(r.status, r.checked) for r in reports] == [("pass", n) for n in counts]


def battery(S):
    """``(name, status, checked)`` of the laws, the axioms, the splitting,
    the cartesian lifts and the trivial cells of S, uncapped."""
    O = S.operadic
    reports = check_two_category_laws(O.tc, cap=None) + check_operadic_axioms(O, cap=None) + \
        [check_splitting(S, cap=None), check_all_lifts_cartesian(S, cap=None),
         check_trivial_subcategory(O, cap=None)]
    return [(r.name, r.status, r.checked) for r in reports]


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_delta_s_is_the_integration_of_the_terminal_operad(N):
    # n <-> [n,*], f <-> its chosen lift, identity 2-cells <-> identity
    # 2-cells: a bijection onto each hom in order that commutes with
    # composition, fibers, triangles and the chosen lifts
    SD = SplitFibrationData(delta_s(N), lambda g, c, bs: g)
    SI = fibration(terminal_operad(N))
    OD, OI = SD.operadic, SI.operadic
    D, I = OD.tc, OI.tc

    def h0(n):
        return ZeroCell(n, "*")

    def h1(f):
        return I.cartesian_lift(f, h0(f.cod), tuple(map(h0, f.fiber_sizes())))

    def h2(t):   # every 2-cell of D is an identity
        f = OD.src2(t)
        assert t == D.identity_two_cell(f)
        return I.identity_two_cell(h1(f))

    def h_tri(tri):
        return LaxTriangle(h1(tri.d2), h1(tri.d1), h1(tri.d0), h2(tri.filler))

    assert tuple(map(h0, D.zero_cells())) == I.zero_cells()
    for m in D.zero_cells():
        assert tuple(map(h0, D.sources(m))) == tuple(I.sources(h0(m)))
        assert tuple(map(h0, D.targets(m))) == I.targets(h0(m))
        for k in D.targets(m):
            HD, HI = D.hom(m, k), I.hom(h0(m), h0(k))
            assert [h1(f) for f in HD.objects] == list(HI.objects)
            assert [h2(t) for t in HD.morphism_ids()] == list(HI.morphism_ids())
            for f in HD.objects:
                assert tuple(map(h0, OD.fib0(f))) == OI.fib0(h1(f))
                for j in D.targets(k):
                    for g in D.hom(k, j).objects:
                        assert h1(D.h_compose(g, f)) is I.h_compose(h1(g), h1(f))
                triangles = list(OD.triangles_onto(f))
                assert [h_tri(tri) for tri, _ in triangles] == \
                    [tri for tri, _ in OI.triangles_onto(h1(f))]
                for tri, fibers in triangles:
                    assert tuple(map(h1, fibers)) == OI.fib1(h_tri(tri))
    for g, c, bs in lift_instances(OD.cells_by_card()):
        assert h1(SD.lift(g, c, bs)) is SI.lift(g, h0(c), tuple(map(h0, bs)))
    reports = battery(SD)
    assert reports == battery(SI)
    assert all(status == "pass" for _, status, _ in reports)


MU_NOT_FUNCTOR = pathlib.Path(__file__).parent / "data" / "nat2_mu_not_functor.json"


@pytest.fixture
def mu_not_functor():
    # nat:2 whose mu is a functor on objects only: light validation rejects it
    return operad_from_json(json.loads(MU_NOT_FUNCTOR.read_text()))


@pytest.mark.parametrize("broken_side", ["source", "target"])
def test_full_faithfulness_rejects_a_mu_that_is_not_a_functor(mu_not_functor, broken_side):
    # light validation rejects the broken operad as soon as it is integrated
    pair = (nat_operad(2), mu_not_functor)
    P, Q = pair if broken_side == "target" else pair[::-1]
    with pytest.raises(InvalidOperad, match="is not a functor"):
        check_full_faithfulness(P, Q)


def test_integration_map_rejects_a_target_mu_that_is_not_a_functor(mu_not_functor):
    Q = mu_not_functor
    T = terminal_operad(1)
    F = OperadMorphism(T, Q, {1: Functor(T.component(1), Q.component(1), {"*": Q.unit},
                                         {T.unit_morphism(): Q.unit_morphism()})})
    assert validate_operad_morphism(F).ok
    with pytest.raises(InvalidOperad, match="is not a functor"):
        check_integration_map(integrate_morphism(F))


@pytest.mark.parametrize("spec", ["trees:3", "nat:3", "cyclic:2:3", "DeltaSTwoCat(4)"])
def test_sources_hold_the_very_objects_of_each_hom(spec):
    # one route to a presentation's 1-cells: sources(y)[x] is hom(x, y).objects
    tc = DeltaSTwoCat(4) if spec == "DeltaSTwoCat(4)" else integrate(operad(spec))
    Z = tc.zero_cells()
    for y in Z:
        into = tc.sources(y)
        assert list(into) == [x for x in Z if x in into]   # in 0-cell order
        for x in Z:
            if x in into:
                assert into[x] and tc.hom(x, y).objects is into[x]
            else:
                assert tc.hom(x, y).objects == ()


def test_walks_of_one_cells_build_no_hom(capsys, monkeypatch):
    # walks that read only 1-cells read sources(y), not the hom categories
    from opint import cli, jsonio
    I = integrate(tree_operad(4))
    O = canonical_fibration(I).operadic

    def homs_built():
        return I.stats()["memos"]["hom"]["size"]

    assert sum(len(list(O.one_cells_into(x))) for x in I.zero_cells()) == 133
    assert homs_built() == 0
    assert sum(map(len, _cells_out(I).values())) == 133 and homs_built() == 0
    assert check_factorization(I, cap=None).ok and homs_built() == 0
    assert [len(trivial_subcategory(O, n).morphism_ids()) for n in O.cells_by_card()] == \
        [1, 1, 5, 31]
    assert homs_built() == 0
    monkeypatch.setattr(cli, "integrate", lambda P: I)   # in-process queries on this I
    Z = [json.dumps(jsonio.zero_cell_to_json(x)) for x in I.zero_cells()]
    for src, dst in [(Z[-1], Z[0]), (Z[-1], Z[-1]), (Z[4], Z[2]), (Z[0], Z[-1])]:
        assert cli.main(["factor", "--operad", "trees:4", "--src", src, "--dst", dst]) == 0
        assert cli.main(["export-dot", "--entity", "factorization", "--operad", "trees:4",
                         "--src", src, "--dst", dst]) == (0 if src != Z[0] else 2)
    capsys.readouterr()
    assert homs_built() == 0


def test_each_image_of_a_candidate_is_built_once(monkeypatch):
    # on2 reads the memoized on1 images: with the target's identities,
    # composites and lifts already built, judging one candidate builds one
    # target 1-cell per 1-cell of the source integration
    P = nat_operad(3)
    IP, SQ = integrate(P), fibration(P)
    F = next(F for F in _candidates(P, P) if _integrates_to_2functor(F, IP, SQ))
    target, built = SQ.operadic.tc, []
    one_cell = target.one_cell
    monkeypatch.setattr(target, "one_cell", lambda *args: built.append(args) or one_cell(*args))
    assert _integrates_to_2functor(F, IP, SQ)
    one_cells = sum(len(cells) for y in IP.zero_cells() for cells in IP.sources(y).values())
    two_cells = sum(len(H.morphism_ids()) for _, _, H in homs(IP))
    assert len(built) == one_cells < two_cells
