"""JSON forms for categories, operads, cells and certificates.

JSON has no tuples, so nested lists are converted to tuples on load;
objects and morphism ids in files should be strings, numbers or nested
lists thereof.  Posets may be given instead of full category tables and
are converted with arrows running downward (an arrow b -> a for each
listed pair [a, b] with a <= b, matching the naturals under >=).
"""

from __future__ import annotations

import itertools
import json
import math

from .fincat import FinCat, Functor, RuleMap, lookup, poset_category
from .integration import OneCell, TwoCell, ZeroCell, homs
from .operads import TruncatedOperad
from .surjections import Surjection, all_surjections_up_to, parse_surjection


def freeze(data):
    """Recursively turn lists into tuples so values are hashable; ValueError
    on a JSON object, which has no hashable form."""
    if isinstance(data, list):
        return tuple(freeze(v) for v in data)
    if isinstance(data, dict):
        raise ValueError("%s is not hashable" % json.dumps(data))
    return data


def thaw(data):
    """Recursively turn tuples back into lists for JSON emission, and the
    cells of an extracted operad into their JSON forms."""
    if isinstance(data, tuple):
        return [thaw(v) for v in data]
    if isinstance(data, (ZeroCell, OneCell)):
        return (zero_cell_to_json if isinstance(data, ZeroCell) else one_cell_to_json)(data)
    return data


def surjection_to_json(g: Surjection) -> dict:
    return {"dom": g.dom, "cod": g.cod, "values": list(g.values)}


def surjection_from_json(data) -> Surjection:
    if isinstance(data, str):
        return parse_surjection(data)
    return Surjection(int(data["dom"]), int(data["cod"]),
                      tuple(int(v) for v in data["values"]))


def _key(obj) -> str:
    """A stable string key for a JSON object position."""
    if isinstance(obj, str):
        return obj
    return json.dumps(thaw(obj), sort_keys=True, separators=(",", ":"))


def fincat_to_json(C: FinCat) -> dict:
    comp = []
    for g, f in C.composable_pairs():
        comp.append([thaw(g), thaw(f), thaw(C.compose(g, f))])
    return {
        "objects": [thaw(x) for x in C.objects],
        "morphisms": [{"id": thaw(m), "src": thaw(s), "dst": thaw(d)}
                      for m, s, d in C.morphisms()],
        "identities": {_key(x): thaw(C.id_of(x)) for x in C.objects},
        "comp": comp,
    }


def fincat_from_json(data) -> FinCat:
    if "poset" in data:
        spec = data["poset"]
        elements = [freeze(e) for e in spec["elements"]]
        le_pairs = {(freeze(a), freeze(b)) for a, b in spec["le"]}
        return poset_category(elements, lambda a, b: (a, b) in le_pairs or a == b)
    objects = [freeze(x) for x in data["objects"]]
    morphisms = [(freeze(m["id"]), freeze(m["src"]), freeze(m["dst"]))
                 for m in data["morphisms"]]
    by_key = {_key(x): x for x in objects}
    identity = {by_key[k]: freeze(v) for k, v in data["identities"].items()}
    comp = {(freeze(g), freeze(f)): freeze(gf) for g, f, gf in data["comp"]}
    return FinCat(objects, morphisms, identity, comp)


def operad_to_json(P: TruncatedOperad) -> dict:
    mu = []
    for g in sorted(P.mu, key=lambda s: (s.dom, s.cod, s.values)):
        cats = [P.component(a) for a in P.arg_arities(g)]
        mu.append({
            "g": surjection_to_json(g),
            "graph": _graph(P.mu[g].obj_map, [C.objects for C in cats]),
            "mor_graph": _graph(P.mu[g].mor_map, [C.morphism_ids() for C in cats]),
        })
    return {
        "bound": P.bound,
        "components": [fincat_to_json(P.component(n))
                       for n in range(1, P.bound + 1)],
        "unit": thaw(P.unit),
        "mu": mu,
        "name": P.name,
    }


def _graph(table, slots) -> list:
    """``[key, image]`` over the product of ``slots`` (a RuleMap in full)."""
    return [[thaw(k), thaw(v)] for k in itertools.product(*slots)
            if (v := lookup(table, k)) is not None]


def operad_from_json(data) -> TruncatedOperad:
    """The operad a JSON file describes; ValueError on a bound below 1, a
    JSON object as a value, a table key that is not an operand tuple, or a
    ``mor_graph`` that lacks a tuple of morphism ids."""
    bound = int(data["bound"])
    components = {n + 1: fincat_from_json(c)
                  for n, c in enumerate(data["components"])}
    if not 1 <= bound == len(components):
        raise ValueError("bound %d needs as many components, at least one; found %d"
                         % (bound, len(components)))
    unit = freeze(data["unit"])
    mu = {}
    for entry in data["mu"]:
        g = surjection_from_json(entry["g"])
        cats = [components[a] for a in (g.cod,) + g.fiber_sizes()]
        target = components[g.dom]
        obj_map = _table(entry, "graph", [C.__contains__ for C in cats], g)
        if "mor_graph" in entry:
            mor_map = _table(entry, "mor_graph", [C.has_morphism for C in cats], g)
            slots = [C.morphism_ids() for C in cats]
            if len(mor_map) != math.prod(map(len, slots)):  # every key is an operand
                gap = next(k for k in itertools.product(*slots) if k not in mor_map)
                raise ValueError("mor_graph of %s lacks %r" % (g, gap))
        else:
            mor_map = _derive_mor_map(g, cats, target, obj_map)
        mu[g] = Functor(cats, target, obj_map, mor_map)
    missing = [str(g) for g in all_surjections_up_to(bound) if g not in mu]
    if missing:
        raise ValueError("missing composition functors for %s" % ", ".join(missing))
    return TruncatedOperad(bound, components, unit, mu,
                           name=data.get("name", "operad"))


def _table(entry, field, member, g) -> dict:
    """The ``[key, image]`` pairs of ``entry[field]`` as a dict, once every key
    is an operand tuple of mu_g: a tuple whose entry i passes ``member[i]``."""
    table = {freeze(k): freeze(v) for k, v in entry[field]}
    for key in table:
        if not (isinstance(key, tuple) and len(key) == len(member)
                and all(t(x) for t, x in zip(member, key))):
            raise ValueError("%s key %r of %s is not an operand tuple" % (field, key, g))
    return table


def _derive_mor_map(g, cats, target, obj_map) -> RuleMap:
    """The morphism table when every target hom between images has one
    arrow: a RuleMap whose rule is that arrow, so a functor by construction.

    Where :func:`_derivable` certifies at load that every product morphism
    has that arrow, the table is returned empty and fills on read.
    Otherwise it is filled at load in one pass over the product; where an
    image or its arrow is missing, the rule refuses the first such entry in
    product order."""
    sides = [C.src for C in cats], [C.dst for C in cats]
    single = {(s, d): m for m, s, d in target.morphisms() if len(target.hom(s, d)) == 1}

    def rule(mid):
        ends = [tuple(end(m) for end, m in zip(side, mid)) for side in sides]
        for x in ends:
            if x not in obj_map:
                raise ValueError("graph of %s lacks %r" % (g, x))
        try:
            return single[obj_map[ends[0]], obj_map[ends[1]]]
        except KeyError:
            raise ValueError("cannot derive morphism graph at %r" % (mid,)) from None

    mor_map = RuleMap(cats, rule, mor=True)
    if not _derivable(cats, target, obj_map, single):
        for mid in itertools.product(*[C.morphism_ids() for C in cats]):
            mor_map[mid]   # stores rule(mid), or raises at the first entry refused
    return mor_map


def _derivable(cats, target, obj_map, single) -> bool:
    """Whether every tuple of morphisms of ``cats`` has an arrow of
    ``single`` (the one-arrow homs of ``target``, by endpoints) between its
    images, certified on tuples with at most one non-identity entry:

    (a) ``target`` is thin (``single`` holds all its morphisms), and
        ``single`` is reflexive on its objects and transitive;
    (b) ``obj_map`` sends every tuple of objects to an object of ``target``,
        and every morphism of ``cats`` runs between objects;
    (c) every tuple of objects with one entry replaced by a morphism between
        distinct objects has an arrow of ``single`` between its images.

    A tuple of morphisms runs from its sources to its targets by such steps,
    one entry at a time, so transitivity (reflexivity, for no step) gives it
    an arrow, which thinness makes the only one.  False says only that the
    certificate does not hold, not that an arrow is missing."""
    above = {}
    for s, d in single:
        above.setdefault(s, []).append(d)
    objects = [C.objects for C in cats]
    if not (len(single) == len(target.morphism_ids())
            and all((y, y) in single for y in target.objects)
            and all((s, e) in single for s, d in single for e in above.get(d, ()))
            and len(obj_map) == math.prod(map(len, objects))
            and all(map(target.__contains__, obj_map.values()))
            and all(s in C and d in C for C in cats for _, s, d in C.morphisms())):
        return False
    image = obj_map.__getitem__
    for i, C in enumerate(cats):
        steps = dict.fromkeys((s, d) for _, s, d in C.morphisms() if s != d)
        srcs, dsts = [itertools.product(*objects[:i], [e[k] for e in steps], *objects[i + 1:])
                      for k in range(2)]
        if not all(map(single.__contains__, zip(map(image, srcs), map(image, dsts)))):
            return False
    return True


def zero_cell_to_json(x: ZeroCell):
    return [x.arity, thaw(x.obj)]


def zero_cell_from_json(data) -> ZeroCell:
    arity, obj = data
    return ZeroCell(int(arity), freeze(obj))


def one_cell_to_json(c: OneCell) -> dict:
    return {
        "f": str(c.f),
        "args": [thaw(a) for a in c.args],
        "alpha": thaw(c.alpha),
        "src": zero_cell_to_json(c.src),
        "dst": zero_cell_to_json(c.dst),
    }


def two_cell_to_json(t: TwoCell) -> dict:
    return {
        "src": one_cell_to_json(t.src),
        "dst": one_cell_to_json(t.dst),
        "deltas": [thaw(d) for d in t.deltas],
    }


def integration_to_json(I) -> dict:
    """The whole 2-category, hom by hom; meant for desk-scale instances."""
    by_key, pi = {}, {}
    for x, y, H in homs(I):
        key = "%s|%s" % (_key(zero_cell_to_json(x)), _key(zero_cell_to_json(y)))
        cells = [one_cell_to_json(c) for c in H.objects]
        twos = [two_cell_to_json(t) for t, _, _ in H.morphisms()]
        by_key[key] = {"one_cells": cells, "two_cells": twos}
        pi.update((_key(j), str(c.f)) for j, c in zip(cells, H.objects))
    return {
        "zero_cells": [zero_cell_to_json(x) for x in I.zero_cells()],
        "homs": by_key,
        "pi": pi,
    }


def certificate_to_json(cert) -> dict:
    out = {"name": cert.name, "status": cert.status}
    out.update({k: thaw(v) if isinstance(v, tuple) else v
                for k, v in cert.details.items()})
    if cert.witness is not None:
        out["witness"] = str(cert.witness)
    if cert.notes:
        out.update(checked=cert.checked, notes=cert.notes)
    return out


def reports_to_json(reports) -> list:
    return [{"name": r.name, "status": r.status, "checked": r.checked,
             **({"witness": str(r.witness)} if r.witness is not None else {}),
             **({"notes": r.notes} if r.notes else {})}
            for r in reports]
