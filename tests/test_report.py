import importlib
import importlib.util
import pathlib
from types import SimpleNamespace

import pytest

from opint.integration import (
    ZeroCell, check_factorization, check_projection, check_two_category_laws,
    integrate, integrate_morphism,
)
from opint.operadic import (
    canonical_fibration, check_all_lifts_cartesian, check_integration_map,
    check_operadic_axioms, check_splitting, check_trivial_subcategory,
    is_operadic_cartesian, roundtrip_2cat, roundtrip_operad,
)
from opint.operads import check_associativity, identity_operad_morphism, tree_operad, \
    validate_operad_morphism
from opint.report import CAPPED, Report
from opint.trees import LEAF

UNIT = ZeroCell(1, LEAF)


@pytest.fixture(scope="module")
def trees3():
    """trees:3 (``P``), its integration ``I`` and canonical fibration ``S``
    with its operadic structure ``O``, built once for the tests that read them."""
    P = tree_operad(3)
    I = integrate(P)
    S = canonical_fibration(I)
    return SimpleNamespace(P=P, I=I, S=S, O=S.operadic)


# each capping checker on the ``trees3`` fixture with cap=1, and the
# reports it caps; each capped law and axiom has a budget of its own
CAPPING = {
    "associativity": (lambda t: [check_associativity(t.P, cap=1)], {"associativity"}),
    "two-category laws": (lambda t: check_two_category_laws(t.I, cap=1),
                          {"horizontal associativity", "interchange"}),
    "projection": (lambda t: [check_projection(t.I, cap=1)], {"projection"}),
    "factorization": (lambda t: [check_factorization(t.I, cap=1)],
                      {"strict factorization"}),
    "integration map": (lambda t: [check_integration_map(
        integrate_morphism(identity_operad_morphism(t.P)), cap=1)],
        {"integration 2-functor"}),
    "operadic axioms": (lambda t: check_operadic_axioms(t.O, cap=1),
                        {"lali choice", "axiom (i)", "axiom (ii)", "axiom (iii)",
                         "axiom (iv)", "axiom (v)", "axiom (v) one-cells"}),
    "operadic cartesian": (lambda t: [is_operadic_cartesian(
        t.O, t.I.identity_one_cell(UNIT), cap=1)], {"operadic cartesian"}),
    "splitting": (lambda t: [check_splitting(t.S, cap=1)], {"splitting"}),
    "cartesian lifts": (lambda t: [check_all_lifts_cartesian(t.S, cap=1)],
                        {"cartesian lifts"}),
    "trivial subcategory": (lambda t: [check_trivial_subcategory(t.O, cap=1)],
                            {"trivial subcategory"}),
    "operad morphism": (lambda t: [validate_operad_morphism(
        identity_operad_morphism(t.P), cap=1)], {"operad morphism identity"}),
    "roundtrip operad": (lambda t: [roundtrip_operad(t.P, cap=1)], {"roundtrip operad"}),
    "roundtrip 2-category": (lambda t: [roundtrip_2cat(t.S, cap=1)],
                             {"roundtrip 2-category"}),
}


@pytest.mark.parametrize("checker", sorted(CAPPING))
def test_capped_reports_carry_the_cap_note(trees3, checker):
    run, expected = CAPPING[checker]
    reports = run(trees3)
    assert {r.name for r in reports if r.status == CAPPED} == expected
    for r in reports:
        if r.status == CAPPED:
            assert r.notes == ["cap 1 reached"], r.line()
        else:
            assert r.ok, r.line()


def test_each_capped_law_and_axiom_has_its_own_cap(trees3):
    # one instance within the cap, the second charged and refused, even in
    # a check that runs after another one capped
    reports = check_two_category_laws(trees3.I, cap=1) + \
        check_operadic_axioms(trees3.O, cap=1)
    assert {r.name: r.checked for r in reports if r.status == CAPPED} == {
        "horizontal associativity": 2, "interchange": 2, "lali choice": 2,
        "axiom (i)": 2, "axiom (ii)": 2, "axiom (iii)": 2,
        "axiom (iv)": 2, "axiom (v)": 2, "axiom (v) one-cells": 2}


def test_capped_roundtrip_2cat_stops_at_the_cap(trees3):
    cert = roundtrip_2cat(trees3.S, cap=1)
    assert (cert.status, cert.checked, cert.notes) == (CAPPED, 2, ["cap 1 reached"])
    # one 2-cell within the cap, then no further work
    assert cert.details["two_cells"] == 1
    assert cert.line() == "roundtrip 2-category: capped (2 instances) [cap 1 reached]"


def test_charge_counts_before_capping():
    r = Report("r", cap=2)
    assert r.charge() and r.charge()
    assert not r.charge()
    assert (r.checked, r.status, r.notes) == (3, CAPPED, ["cap 2 reached"])
    unbounded = Report("u")
    assert unbounded.charge(10 ** 9) and unbounded.checked == 10 ** 9


def test_every_capped_report_reads_cap_plus_one(trees3):
    # every instance is charged, so a capped report has counted exactly one
    # instance past the cap; the operad morphism charges a whole component
    # functor check (4 instances on trees:3) at once and stops there
    counts = {r.name: r.checked for run, _ in CAPPING.values() for r in run(trees3)
              if r.status == CAPPED}
    assert counts.pop("operad morphism identity") == 4
    assert counts and set(counts.values()) == {2}, counts


def test_splitting_charges_each_unit_lift(trees3):
    # the identity lift of the first 0-cell and its terminal lift fit in
    # the cap; the identity lift of the second is refused
    r = check_splitting(trees3.S, cap=2)
    assert r.line() == "splitting: capped (3 instances) [cap 2 reached]"


def test_fail_records_the_witness_and_cap_stays_private():
    r = Report("r", checked=3, cap=5)
    assert r.fail(("at", 1)) is r
    assert (r.status, r.witness, r.checked, r.notes) == ("fail", ("at", 1), 3, [])
    assert r == Report("r", "fail", 3, ("at", 1)) and "cap" not in repr(r)


def test_bench_trace_targets_resolve():
    # bench/tracing.py wraps these by name and raises KeyError on a missing
    # one, so a rename in opint must show up here first
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("opint_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for _, module, attr in tracing.TARGETS:
        owner = importlib.import_module("opint." + module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        assert attr in vars(owner), (module, attr)
        assert callable(vars(owner)[attr])
