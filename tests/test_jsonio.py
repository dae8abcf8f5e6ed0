"""The morphism graph a JSON operad leaves out: certified at load and
filled on read, or derived in full at load where the certificate fails.
Either way the loader must end as an eager derivation does, entry by entry
in product order: with the same table, or with the same first refusal."""

import copy
import itertools
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from opint import jsonio
from opint.operads import nat_operad, tree_operad


def eager_mor_map(g, cats, target, obj_map) -> dict:
    """The reference derivation: each tuple of morphism ids, in product
    order, goes to the one arrow between the images of its ends; the first
    tuple whose ends lack an image, or whose images have no single arrow
    between them, is refused."""
    table = {}
    for mid in itertools.product(*[C.morphism_ids() for C in cats]):
        ends = [tuple(C.src(m) for C, m in zip(cats, mid)),
                tuple(C.dst(m) for C, m in zip(cats, mid))]
        for x in ends:
            if x not in obj_map:
                raise ValueError("graph of %s lacks %r" % (g, x))
        arrows = target.hom(obj_map[ends[0]], obj_map[ends[1]])
        if len(arrows) != 1:
            raise ValueError("cannot derive morphism graph at %r" % (mid,))
        table[mid] = arrows[0]
    return table


def load(data, eager=False):
    """``(("ok", {g: every product entry of mu_g on morphisms}), stored)`` from
    the loader (from the reference derivation, with ``eager``), where ``stored``
    counts the entries held right after load; or ``(("error", type, message), None)``."""
    derive = eager_mor_map if eager else jsonio._derive_mor_map
    with mock.patch.object(jsonio, "_derive_mor_map", derive):
        try:
            P = jsonio.operad_from_json(copy.deepcopy(data))
        except Exception as exc:
            return ("error", type(exc).__name__, str(exc)), None
    stored = sum(len(F.mor_map) for F in P.mu.values())
    tables = {g: {k: F.mor_map[k] for k in itertools.product(
                  *[P.component(a).morphism_ids() for a in P.arg_arities(g)])}
              for g, F in P.mu.items()}
    return ("ok", tables), stored


def without_mor_graph(P) -> dict:
    data = jsonio.operad_to_json(P)
    for entry in data["mu"]:
        del entry["mor_graph"]
    return json.loads(json.dumps(data))


def chain_operad(arrows, graph) -> dict:
    """A bound-1 operad file on one category: its objects are the ends of
    ``arrows`` (``(id, src, dst)``), each with the identity ``[x, x]``, and
    composites are listed where an identity is involved; ``mu`` is the
    table ``graph`` on pairs of objects, with no ``mor_graph``."""
    objects = sorted({x for _, s, d in arrows for x in (s, d)})
    morphisms = [([x, x], x, x) for x in objects] + list(arrows)
    comp = [[[d, d], m, m] for m, _, d in morphisms] + \
        [[m, [s, s], m] for m, s, d in arrows]
    return {
        "bound": 1,
        "components": [{
            "objects": objects,
            "morphisms": [{"id": m, "src": s, "dst": d} for m, s, d in morphisms],
            "identities": {jsonio._key(x): [x, x] for x in objects},
            "comp": comp}],
        "unit": objects[0],
        "mu": [{"g": "1->1:[1]",
                "graph": [[[a, b], graph(a, b)] for a in objects for b in objects]}],
    }


def products(data) -> int:
    """The number of tuples of morphism ids of mu_{1->1:[1]}."""
    return len(data["components"][0]["morphisms"]) ** 2


@pytest.mark.parametrize("P", [nat_operad(3), tree_operad(3)],
                         ids=lambda P: P.name)
def test_a_certified_table_stores_nothing_at_load(P):
    data = without_mor_graph(P)
    outcome, stored = load(data)
    assert stored == 0 and outcome == load(data, eager=True)[0]


def test_a_target_that_is_not_thin_is_derived_in_full():
    # 9 -> 8 twice; every image lands in a hom of one arrow, so the
    # derivation succeeds, but only by the full pass
    data = chain_operad([([1, 0], 1, 0), ("p", 9, 8), ("q", 9, 8)],
                        lambda a, b: a if a < 2 else 8)
    outcome, stored = load(data)
    assert outcome[0] == "ok" and stored == products(data)
    assert outcome == load(data, eager=True)[0]


def test_a_relation_that_is_not_transitive_is_derived_in_full():
    # 2 -> 1 -> 0 with no arrow 2 -> 0: mu projecting to the first entry
    # never needs that composite, so the full pass fills the table
    arrows = [([2, 1], 2, 1), ([1, 0], 1, 0)]
    data = chain_operad(arrows, lambda a, b: a)
    outcome, stored = load(data)
    assert outcome[0] == "ok" and stored == products(data)
    assert outcome == load(data, eager=True)[0]
    # saturating addition needs it first at the images 2 -> 0 of ((1, 0), (1, 0))
    data = chain_operad(arrows, lambda a, b: min(a + b, 2))
    outcome = load(data)[0]
    assert outcome == ("error", "ValueError",
                       "cannot derive morphism graph at ((1, 0), (1, 0))")
    assert outcome == load(data, eager=True)[0]


def test_a_graph_with_a_gap_is_refused_at_its_first_key():
    data = chain_operad([([2, 1], 2, 1), ([1, 0], 1, 0), ([2, 0], 2, 0)],
                        lambda a, b: min(a + b, 2))
    assert load(data)[0][0] == "ok"
    data["mu"][0]["graph"] = [[k, v] for k, v in data["mu"][0]["graph"] if k != [1, 2]]
    outcome = load(data)[0]
    assert outcome == ("error", "ValueError", "graph of 1->1:[1] lacks (1, 2)")
    assert outcome == load(data, eager=True)[0]


def test_an_arrow_out_of_a_non_object_is_refused_as_a_gap():
    # the graph keys only objects, so the arrow 5 -> 0 has no image to run from
    data = chain_operad([([1, 0], 1, 0)], lambda a, b: a)
    data["components"][0]["morphisms"].append({"id": "p", "src": 5, "dst": 0})
    outcome = load(data)[0]
    assert outcome == ("error", "ValueError", "graph of 1->1:[1] lacks (0, 5)")
    assert outcome == load(data, eager=True)[0]


# ---------------------------------------------------------------------------
# differential test: seeded mutations of small exports


EXPORTS = {P.name: without_mor_graph(P) for P in (nat_operad(3), tree_operad(3))}


def _entry(data, draw):
    return data["mu"][draw(st.integers(0, len(data["mu"]) - 1))]


def drop_graph_entry(data, draw):
    graph = _entry(data, draw)["graph"]
    if graph:
        del graph[draw(st.integers(0, len(graph) - 1))]


def reroute_graph_entry(data, draw):
    entry = _entry(data, draw)
    objects = data["components"][jsonio.surjection_from_json(entry["g"]).dom - 1]["objects"]
    if entry["graph"] and objects:
        entry["graph"][draw(st.integers(0, len(entry["graph"]) - 1))][1] = \
            draw(st.sampled_from(objects))


def drop_arrow(data, draw):
    comp = draw(st.sampled_from(data["components"]))
    if comp["morphisms"]:
        m = comp["morphisms"].pop(draw(st.integers(0, len(comp["morphisms"]) - 1)))["id"]
        comp["comp"] = [row for row in comp["comp"] if m not in row]


def rename_object(data, draw):
    # everywhere the component names it and as an entry of graph keys; as a
    # graph value only if drawn so
    comp = draw(st.sampled_from(data["components"]))
    if not comp["objects"]:
        return
    old = draw(st.sampled_from(comp["objects"]))
    new, values = ["renamed", old], draw(st.booleans())

    def rename(x):
        return new if x == old else x

    comp["objects"] = [rename(x) for x in comp["objects"]]
    for m in comp["morphisms"]:
        m["src"], m["dst"] = rename(m["src"]), rename(m["dst"])
    comp["identities"] = {(jsonio._key(new) if k == jsonio._key(old) else k): v
                          for k, v in comp["identities"].items()}
    for entry in data["mu"]:
        entry["graph"] = [[[rename(x) for x in k], rename(v) if values else v]
                          for k, v in entry["graph"]]


MUTATIONS = [drop_graph_entry, reroute_graph_entry, drop_arrow, rename_object]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(EXPORTS)), st.data())
def test_the_loader_ends_as_the_eager_derivation_does(name, data):
    doc = copy.deepcopy(EXPORTS[name])
    for mutate in data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        mutate(doc, data.draw)
    assert load(doc)[0] == load(doc, eager=True)[0]
