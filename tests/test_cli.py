import itertools
import json
import pathlib

import pytest

from opint import jsonio
from opint.cli import main
from opint.dot import hom_to_dot, tree_to_dot
from opint.fincat import RuleMap, validate_functor
from opint.integration import ZeroCell, integrate
from opint.operads import check_associativity, nat_operad, terminal_operad, tree_operad, \
    validate_operad
from opint.trees import LEAF


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_builtin(capsys):
    code, out, _ = run(capsys, "validate", "--operad", "trees:3")
    assert code == 0
    assert "associativity: pass" in out
    assert "unitality: pass" in out


def test_validate_json_flag(capsys):
    code, out, _ = run(capsys, "validate", "--operad", "nat:3", "--json")
    assert code == 0
    data = json.loads(out)
    assert all(entry["status"] == "pass" for entry in data)


def test_validate_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "validate", "--operad", "nat:4")
    code2, out2, _ = run(capsys, "validate", "--operad", "nat:4")
    assert (code1, out1) == (code2, out2)


def test_unknown_builtin_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "--operad", "foo:3")
    assert code == 2
    assert "unknown builtin" in err


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"bound": 1, "components": [')
    code, _, err = run(capsys, "validate", "--operad", str(path))
    assert code == 2
    assert "line" in err and "column" in err


def test_hom_lists_terminal(capsys):
    code, out, _ = run(capsys, "hom", "--operad", "nat:20",
                       "--src", "5", "--dst", "2")
    assert code == 0
    assert "18 1-cells" in out
    # the terminal is the difference of the endpoints
    terminal_line = [l for l in out.splitlines() if "terminal" in l]
    assert len(terminal_line) == 1 and "; 3;" in terminal_line[0]


def test_hom_json(capsys):
    code, out, _ = run(capsys, "hom", "--operad", "nat:20",
                       "--src", "5", "--dst", "2", "--json")
    data = json.loads(out)
    assert sorted(c["args"][0] for c in data["one_cells"]) == list(range(3, 21))
    assert data["terminal"]["args"] == [3]


def test_hom_marks_every_terminal_cell(tmp_path, capsys):
    # chaotic:2:2 is not skeletal: both 1-cells of hom([1,1], [1,0]) are
    # terminal; JSON still names the first one
    from test_cells import chaotic_operad
    path = tmp_path / "chaotic.json"
    path.write_text(json.dumps(jsonio.operad_to_json(chaotic_operad())))
    argv = ("hom", "--operad", str(path), "--src", "[1,1]", "--dst", "[1,0]")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "hom([1,1], [1,0]): 2 1-cells, 4 2-cells"
    assert len(lines) == 3 and all(l.endswith("  <- terminal") for l in lines[1:])
    code, out, _ = run(capsys, *argv, "--json")
    data = json.loads(out)
    assert code == 0 and data["terminal"] == data["one_cells"][0]


def test_factor_verb(capsys):
    code, out, _ = run(capsys, "factor", "--operad", "trees:3",
                       "--src", '[3, ["L", "L", "L"]]', "--dst", '[1, "L"]')
    assert code == 0
    assert "then" in out


def test_lift_verb(capsys):
    code, out, _ = run(capsys, "lift", "--operad", "nat:5",
                       "--surjection", "1->1:[1]",
                       "--dst", "2", "--fibers", "[[1, 3]]")
    assert code == 0
    assert "operadic cartesian: pass" in out


def test_lift_arity_mismatch_is_usage_error(capsys):
    code, _, err = run(capsys, "lift", "--operad", "trees:3",
                       "--surjection", "3->1:[1,1,1]",
                       "--dst", '[1, "L"]', "--fibers", '[[2, ["L", "L"]]]')
    assert code == 2
    assert "fiber" in err


def test_roundtrip_verb(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "roundtrip", "--operad", "terminal:2",
                       "--json", "--out", str(out_path))
    assert code == 0
    assert str(out_path) in out
    cert = json.loads(out_path.read_text())
    assert cert["operad"]["status"] == "pass"
    assert cert["two_category"]["status"] == "pass"


def test_trees_verb(capsys):
    code, out, _ = run(capsys, "trees", "--leaves", "4")
    assert code == 0
    assert "11 trees with 4 leaves" in out


@pytest.mark.parametrize("leaves", ["0", "-2"])
def test_trees_with_no_leaf_is_a_usage_error(capsys, leaves):
    code, out, err = run(capsys, "trees", "--leaves", leaves)
    assert (code, out) == (2, "")
    assert err == "error: trees needs --leaves N, with N >= 1\n"


def test_integrate_verb(capsys):
    code, out, _ = run(capsys, "integrate", "--operad", "terminal:2")
    assert code == 0
    assert "0-cells: 2" in out


def test_check_verb_small(capsys):
    code, out, _ = run(capsys, "check", "--operad", "terminal:2")
    assert code == 0
    assert "axiom (v): pass" in out
    assert "splitting: pass" in out


def test_capped_exit_code(capsys):
    code, out, _ = run(capsys, "check", "--operad", "nat:3", "--cap", "50")
    assert code == 3


@pytest.mark.parametrize("argv, env, source, text", [
    (("check", "--operad", "nat:2", "--cap", "-1"), None, "--cap", "-1"),
    (("check", "--operad", "nat:2", "--cap", "1e3"), "5", "--cap", "1e3"),
    (("check", "--operad", "nat:2"), "-5", "OPINT_CAP", "-5"),
    (("trees", "--leaves", "2"), "abc", "OPINT_CAP", "abc"),
], ids=["negative-flag", "non-integer-flag", "negative-env", "non-integer-env"])
def test_a_bad_cap_is_a_usage_error(capsys, monkeypatch, argv, env, source, text):
    if env is not None:
        monkeypatch.setenv("OPINT_CAP", env)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: %s must be a non-negative integer, not %r\n" % (source, text)


def test_cap_zero_and_the_environment_cap_still_apply(capsys, monkeypatch):
    code, out, _ = run(capsys, "validate", "--operad", "nat:2", "--cap", "0")
    assert code == 3 and "associativity: capped (1 instances) [cap 0 reached]" in out
    monkeypatch.setenv("OPINT_CAP", "7")
    code, out, _ = run(capsys, "validate", "--operad", "nat:2")
    assert code == 3 and "[cap 7 reached]" in out
    code, out, _ = run(capsys, "validate", "--operad", "nat:2", "--cap", "100000000")
    assert code == 0 and "associativity: pass" in out


def test_calls_in_one_process_share_no_state(capsys, monkeypatch):
    monkeypatch.delenv("OPINT_CAP", raising=False)
    first = ("hom", "--operad", "nat:3", "--src", "2", "--dst", "1", "--json")
    answer = run(capsys, *first)
    assert answer[0] == 0 and json.loads(answer[1])["one_cells"]
    with pytest.raises(SystemExit) as exc:   # argparse: --operad is required
        main(["hom", "--src", "2", "--dst", "1"])
    assert exc.value.code == 2 and "--operad" in capsys.readouterr().err
    code, out, _ = run(capsys, "check", "--operad", "nat:2", "--cap", "5")
    assert code == 3 and "[cap 5 reached]" in out
    assert run(capsys, "trees", "--leaves", "0")[0] == 2
    code, out, _ = run(capsys, "check", "--operad", "nat:2")   # the default cap again
    assert code == 0 and "capped" not in out
    assert run(capsys, *first) == answer


GOLDEN =pathlib.Path(__file__).parent / "golden"
DATA = pathlib.Path(__file__).parent / "data"


def operad_spec(tmp_path, spec):
    """``spec`` itself for a builtin; a JSON operad named by ``spec`` is
    written to ``tmp_path`` first, and its path returned."""
    from test_integration import cyclic_json
    made = {"nat-8.json": lambda: nat_json_without_mor_graph(8),
            "cyclic-2-3.json": lambda: cyclic_json(2, 3)}
    if spec not in made:
        return spec
    path = tmp_path / spec
    path.write_text(json.dumps(made[spec]()))
    return str(path)


@pytest.mark.parametrize("spec", ["terminal:3", "trees:3", "trees:4", "trees:5", "nat:3",
                                  "cyclic-2-3.json"])
def test_check_json_matches_golden(tmp_path, capsys, spec):
    # the files hold the verbatim output of an earlier release; any change
    # to a verdict, an instance count, a witness or the report order shows.
    # cyclic:2:3 has parallel arrows, so most of its categories are not thin
    code, out, _ = run(capsys, "check", "--operad", operad_spec(tmp_path, spec), "--json")
    assert code == 0
    name = spec.removesuffix(".json").replace(":", "").replace("-", "")
    assert out == (GOLDEN / ("check_%s.json" % name)).read_text()


@pytest.mark.parametrize("spec", ["trees:3", "trees:4", "nat:3"])
def test_roundtrip_json_matches_golden(capsys, spec):
    # verbatim output of an earlier release, as for the check goldens
    code, out, _ = run(capsys, "roundtrip", "--operad", spec, "--json")
    assert code == 0
    assert out == (GOLDEN / ("roundtrip_%s.json" % spec.replace(":", ""))).read_text()


def test_capped_roundtrip_reports_the_cap(capsys):
    code, out, _ = run(capsys, "roundtrip", "--operad", "trees:3", "--cap", "1")
    assert code == 3
    assert out.splitlines() == [
        "roundtrip operad: capped (2 instances) [cap 1 reached]",
        "roundtrip 2-category: capped (2 instances) [cap 1 reached]"]
    code, out, _ = run(capsys, "roundtrip", "--operad", "trees:3", "--cap", "1", "--json")
    data = json.loads(out)
    for part in ("operad", "two_category"):
        assert data[part]["notes"] == ["cap 1 reached"]
        assert data[part]["checked"] == 2


def nat_json_without_mor_graph(M):
    """The JSON form of nat:M without its morphism graphs, which the loader derives."""
    data = jsonio.operad_to_json(nat_operad(M))
    for entry in data["mu"]:
        del entry["mor_graph"]
    return data


@pytest.mark.parametrize("spec, golden", [
    ("nat:12", "validate_nat12.json"), ("trees:4", "validate_trees4.json"),
    ("nat-8.json", "validate_nat8_json.json"), ("cyclic-2-3.json", "validate_cyclic23.json")])
def test_validate_json_matches_golden(tmp_path, capsys, spec, golden):
    # verbatim output of an earlier release, as for the check goldens
    code, out, _ = run(capsys, "validate", "--operad", operad_spec(tmp_path, spec), "--json")
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_validate_sweeps_each_object_tuple_once(capsys, monkeypatch):
    from opint import operads
    sweeps = []
    sweep = operads._assoc_sweep

    def counted(P, f, g, on_morphisms, r):
        sweeps.append((f, g, on_morphisms))
        return sweep(P, f, g, on_morphisms, r)

    monkeypatch.setattr(operads, "_assoc_sweep", counted)
    assert run(capsys, "validate", "--operad", "trees:3")[0] == 0
    assert sweeps and len(sweeps) == len(set(sweeps))
    assert {s[2] for s in sweeps} == {False, True}


def test_underivable_morphism_graph_is_refused_at_load():
    # without the arrow 3 -> 1 the image of ((1, 0), (2, 1)), the hom 3 -> 1,
    # is empty; the loader names the first product morphism it cannot map
    data = nat_json_without_mor_graph(3)
    comp = data["components"][0]
    comp["morphisms"] = [m for m in comp["morphisms"] if m["id"] != [3, 1]]
    comp["comp"] = [t for t in comp["comp"] if [3, 1] not in t]
    with pytest.raises(ValueError) as info:
        jsonio.operad_from_json(json.loads(json.dumps(data)))
    assert str(info.value) == "cannot derive morphism graph at ((1, 0), (2, 1))"


LIFT = ("lift", "--operad", "nat:3", "--surjection", "1->1:[1]", "--dst", "1")
DEEP = "[" * 3000 + "]" * 3000   # past the recursion limit of json.loads


@pytest.mark.parametrize("argv", [
    ("hom", "--operad", "nat:3", "--src", "[0,1]", "--dst", "1"),
    ("factor", "--operad", "nat:3", "--src", "{}", "--dst", "1"),
    LIFT + ("--fibers", "[[1]]"),
    LIFT + ("--fibers", "[1]"),
    LIFT + ("--fibers", "5"),
    LIFT + ("--fibers", "[[1, 7]]"),
    ("lift", "--operad", "nat:3", "--surjection", "bad", "--dst", "1",
     "--fibers", "[[1, 1]]"),
    ("hom", "--operad", "nat:3", "--src", DEEP, "--dst", "1"),
    # json.loads reads 600 levels, but jsonio.freeze, two frames a level, cannot
    ("hom", "--operad", "nat:3", "--src", "[" * 600 + "]" * 600, "--dst", "1"),
    LIFT + ("--fibers", DEEP),
    ("export-dot", "--entity", "tree", "--tree", DEEP),
], ids=["arity-0", "unhashable", "short-fiber", "bare-fiber", "fibers-not-list",
        "fiber-not-an-object", "bad-surjection", "src-too-deep", "src-too-deep-to-freeze",
        "fibers-too-deep", "tree-too-deep"])
def test_hostile_input_is_a_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    if "--src" in argv:   # a 0-cell that cannot be parsed is quoted by its first 40 characters
        assert len(err) < 200, err


@pytest.mark.parametrize("verb", ["check", "integrate", "extract", "roundtrip"])
def test_invalid_operad_exits_with_report(tmp_path, capsys, verb):
    # unit 2 breaks both unit laws of the saturating chain
    data = jsonio.operad_to_json(nat_operad(2))
    data["unit"] = 2
    path = tmp_path / "bad_unit.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, verb, "--operad", str(path))
    assert code == 1
    assert err.startswith("error: ") and "unitality: fail" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", [
    ("validate",), ("integrate",), ("check",), ("hom", "--src", "1", "--dst", "1"),
    ("factor", "--src", "1", "--dst", "0"), ("lift",)], ids=" ".join)
@pytest.mark.parametrize("name, problem", [
    ("trees3_missing_graph_entry", "mu typing: fail"),
    ("nat3_value_outside_chain", "mu typing: fail"),
    ("nat2_mu_not_functor", "mu_1->1:[1] is not a functor: "
                            "morphism ((1, 0), (1, 0)) is sent across wrong endpoints"),
])
def test_hostile_operad_files_exit_with_a_verdict(capsys, verb, name, problem):
    # every verb that integrates validates first, and light validation checks
    # that a mu given by a table is a functor on morphisms
    code, out, err = run(capsys, *verb, "--operad", str(DATA / (name + ".json")))
    assert code == 1
    if verb == ("validate",):
        assert "fail" in out and err == ""
    else:
        assert err.startswith("error: invalid operad: ") and problem in err
    assert "Traceback" not in err


# a bound below 1, a JSON object as a value (unit or image), an incomplete
# mor_graph, a graph with a gap where mor_graph is derived and JSON nested
# past the recursion limit exit 2 at load
REFUSED_AT_LOAD = {"bound0_no_components", "nat2_unit_unhashable", "nat2_value_unhashable",
                   "nat2_mor_graph_incomplete", "nat3_graph_gap_derived", "nested_too_deep"}


@pytest.mark.parametrize("argv", [
    ("validate",), ("integrate",), ("check",),
    ("hom", "--src", "1", "--dst", "1"), ("factor", "--src", "1", "--dst", "0"),
    ("lift",), ("lift", "--surjection", "1->1:[1]", "--dst", "1", "--fibers", "[[1,0]]"),
    ("extract",), ("roundtrip",),
    ("export-dot", "--entity", "hom", "--src", "1", "--dst", "1"),
    ("export-dot", "--entity", "factorization", "--src", "1", "--dst", "0"),
], ids=" ".join)
@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.stem)
def test_hostile_operad_files_end_in_a_verdict_on_every_verb(capsys, argv, path):
    # an exception escaping main fails the test; a usage error, an invalid
    # operad, a failed or capped check is a verdict
    code, _, err = run(capsys, *argv, "--operad", str(path))
    assert code <= 3 and "Traceback" not in err
    if path.stem in REFUSED_AT_LOAD:
        assert code == 2 and err.startswith("error: bad operad file")


@pytest.mark.parametrize("field, key", [
    ("graph", [[1, 0], [0, 0]]), ("graph", [1]), ("graph", 1), ("mor_graph", [0, 0])],
    ids=["morphisms", "short", "not-a-tuple", "objects"])
def test_table_key_that_is_not_an_operand_is_refused_at_load(field, key):
    # dict tables hold only operand tuples, as rule-backed ones do, so that
    # a lookup hit is an operand check
    data = jsonio.operad_to_json(nat_operad(2))
    data["mu"][0][field].append([key, 0])
    with pytest.raises(ValueError, match="key .* of 1->1:\\[1\\] is not an operand tuple"):
        jsonio.operad_from_json(data)


def test_incomplete_mor_graph_is_refused_at_load():
    # nat:2 without its last three mor_graph pairs: the first missing tuple
    # in product order is named
    data = jsonio.operad_to_json(nat_operad(2))
    del data["mu"][0]["mor_graph"][-3:]
    with pytest.raises(ValueError, match=r"mor_graph of 1->1:\[1\] lacks \(\(2, 2\), \(2, 0\)\)"):
        jsonio.operad_from_json(data)


def test_graph_gap_is_named_where_mor_graph_is_derived(capsys):
    # nat:3 without mor_graph, its graph lacking the entry at (2, 1): the
    # derived table names the gap as an incomplete mor_graph would
    path = str(DATA / "nat3_graph_gap_derived.json")
    code, out, err = run(capsys, "validate", "--operad", path)
    assert (code, out) == (2, "")
    assert err == "error: bad operad file %r: graph of 1->1:[1] lacks (2, 1)\n" % path


def test_morphism_ids_named_like_objects_are_morphisms(tmp_path, capsys):
    # nat:2 with the arrow 1 -> 0 renamed 2, the name of an object: whiskering
    # promotes only the positions that hold objects, so nothing is misread
    def rename(m):
        return 2 if m == [1, 0] else m

    data = jsonio.operad_to_json(nat_operad(2))
    comp = data["components"][0]
    comp["comp"] = [[rename(m) for m in t] for t in comp["comp"]]
    for m in comp["morphisms"]:
        m["id"] = rename(m["id"])
    data["mu"][0]["mor_graph"] = [[[rename(m) for m in key], rename(image)]
                                  for key, image in data["mu"][0]["mor_graph"]]
    path = tmp_path / "nat2_renamed.json"
    path.write_text(json.dumps(data))
    for verb in ("validate", "check", "roundtrip"):
        assert run(capsys, verb, "--operad", str(path))[0] == 0
    I, J = integrate(jsonio.operad_from_json(data)), integrate(nat_operad(2))
    assert I.zero_cells() == J.zero_cells()
    assert [I.hom(x, y).counts() for x in I.zero_cells() for y in I.zero_cells()] == \
        [J.hom(x, y).counts() for x in J.zero_cells() for y in J.zero_cells()]


@pytest.mark.parametrize("spec", ["nat:3", "trees:3", "terminal:3"])
def test_export_matches_golden(spec):
    # every entry of every composition functor, including the ones that no
    # lookup has computed yet
    family, _, size = spec.partition(":")
    P = {"nat": nat_operad, "trees": tree_operad, "terminal": terminal_operad}[family](
        int(size))
    out = json.dumps(jsonio.operad_to_json(P), indent=1, sort_keys=True) + "\n"
    assert out == (GOLDEN / ("export_%s.json" % spec.replace(":", ""))).read_text()


def test_extract_json_matches_golden(capsys):
    code, out, _ = run(capsys, "extract", "--operad", "trees:3", "--json")
    assert code == 0
    assert out == (GOLDEN / "extract_trees3.json").read_text()


def test_cold_queries_build_no_product_category(tmp_path, capsys, monkeypatch):
    from opint import fincat

    def refuse(cats):
        raise AssertionError("a product category was built")

    monkeypatch.setattr(fincat, "product", refuse)
    path = tmp_path / "nat4.json"
    data = jsonio.operad_to_json(nat_operad(4))
    for entry in data["mu"]:
        del entry["mor_graph"]   # the loader derives it
    path.write_text(json.dumps(data))
    for argv in (("hom", "--operad", "nat:6", "--src", "5", "--dst", "2"),
                 ("hom", "--operad", str(path), "--src", "4", "--dst", "1"),
                 ("factor", "--operad", "trees:4", "--src", '[3, ["L", "L", "L"]]',
                  "--dst", '[1, "L"]')):
        assert run(capsys, *argv)[0] == 0


def test_derived_mor_graph_is_a_rule_filled_on_read():
    # a table the loader derives is a functor by construction: a RuleMap,
    # so light validation skips it; certified at load, it stores nothing
    # until read, and each read stores the entry its rule gives
    data = jsonio.operad_to_json(tree_operad(3))
    for entry in data["mu"]:
        del entry["mor_graph"]
    P, Q = jsonio.operad_from_json(data), tree_operad(3)
    for g, F in P.mu.items():
        assert type(F.mor_map) is RuleMap and dict(F.mor_map) == {}
        keys = list(itertools.product(*[P.component(a).morphism_ids()
                                        for a in P.arg_arities(g)]))
        assert [F.mor_map[k] for k in keys] == [F.mor_map.rule(k) for k in keys] == \
            [Q.mu[g].mor_map[k] for k in keys]
        assert len(F.mor_map) == len(keys)


def test_missing_graph_entry_fails_mu_typing():
    data = jsonio.operad_to_json(nat_operad(2))
    data["mu"][0]["graph"] = [[k, v] for k, v in data["mu"][0]["graph"] if k != [1, 0]]
    reports = validate_operad(jsonio.operad_from_json(data))
    typing = [r for r in reports if r.name == "mu typing"]
    assert typing[0].status == "fail"
    assert typing[0].witness == ("1->1:[1]", (1, 0), None)


def test_failed_check_exit_code(tmp_path, capsys):
    # corrupt one composition entry; validation must fail with exit 1
    data = jsonio.operad_to_json(nat_operad(2))
    for entry in data["mu"]:
        entry["graph"] = [[k, 0 if k == [1, 1] else v] for k, v in entry["graph"]]
        entry["mor_graph"] = [
            [k, [0, 0] if k == [[1, 1], [1, 1]] else v]
            for k, v in entry["mor_graph"]]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", "--operad", str(path))
    assert code == 1
    assert "fail" in out


def test_export_dot_tree(capsys, tmp_path):
    out_path = tmp_path / "t.dot"
    code, out, _ = run(capsys, "export-dot", "--entity", "tree",
                       "--tree", '["L", "L", "L"]', "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("digraph")
    # corolla: one internal vertex, three leaves, one root stub
    assert text.count("shape=point") == 2  # stub + internal vertex
    assert text.count("shape=none") == 3


def test_export_dot_hom_and_factorization(capsys, tmp_path):
    code, out, _ = run(capsys, "export-dot", "--entity", "hom",
                       "--operad", "trees:3",
                       "--src", '[3, ["L", "L", "L"]]', "--dst", '[1, "L"]')
    assert code == 0
    assert "digraph" in out and "cluster" in out and "style=dashed" in out
    code, out, _ = run(capsys, "export-dot", "--entity", "factorization",
                       "--operad", "trees:3",
                       "--src", '[3, ["L", "L", "L"]]', "--dst", '[1, "L"]',
                       "--index", "0")
    assert code == 0
    assert "digraph" in out and "dashed" in out


def test_export_dot_factorization_of_an_empty_hom_is_a_usage_error(capsys):
    code, out, err = run(capsys, "export-dot", "--entity", "factorization",
                         "--operad", "trees:3", "--src", '[1, "L"]', "--dst", '[2, ["L", "L"]]')
    assert (code, out) == (2, "")
    assert err == "error: hom([1,L], [2,('L', 'L')]) has no 1-cells\n"


def test_export_dot_determinism(capsys):
    args = ("export-dot", "--entity", "hom", "--operad", "trees:3",
            "--src", '[3, ["L", "L", "L"]]', "--dst", '[2, ["L", "L"]]')
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_operad_json_roundtrip(tmp_path, capsys):
    P = tree_operad(2)
    data = jsonio.operad_to_json(P)
    path = tmp_path / "trees2.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", "--operad", str(path))
    assert code == 0
    Q = jsonio.operad_from_json(json.loads(path.read_text()))
    assert Q.bound == P.bound and Q.unit == P.unit
    assert all(r.ok for r in validate_operad(Q))
    assert check_associativity(Q).ok
    assert all(validate_functor(mu).ok for mu in Q.mu.values())


def test_poset_component_json():
    data = {
        "bound": 1,
        "unit": 0,
        "components": [{"poset": {"elements": [0, 1, 2],
                                  "le": [[0, 1], [1, 2], [0, 2]]}}],
        "mu": [{"g": {"dom": 1, "cod": 1, "values": [1]},
                "graph": [[[a, b], min(a + b, 2)]
                          for a in range(3) for b in range(3)]}],
    }
    P = jsonio.operad_from_json(data)
    assert all(r.ok for r in validate_operad(P))
    assert check_associativity(P).ok
    assert all(validate_functor(mu).ok for mu in P.mu.values())
    # the derived morphism graph agrees with the saturating sum
    from opint.surjections import identity_surjection
    assert P.apply_mor(identity_surjection(1), ((2, 1), (1, 0))) == (2, 1)


def test_surjection_text_in_json():
    assert jsonio.surjection_from_json("3->2:[1,1,2]").values == (1, 1, 2)


def test_integration_json_shape():
    I = integrate(terminal_operad(2))
    payload = jsonio.integration_to_json(I)
    assert len(payload["zero_cells"]) == 2
    assert payload["pi"]
    for key in payload["homs"]:
        assert "|" in key


def test_tree_dot_renders_nested():
    text = tree_to_dot(((LEAF, LEAF), LEAF))
    assert text.count("shape=point") == 3  # stub, root vertex, inner vertex
    assert text.count("shape=none") == 3


def test_hom_dot_non_tree_operad():
    I = integrate(nat_operad(3))
    text = hom_to_dot(I, ZeroCell(1, 2), ZeroCell(1, 0))
    assert "digraph" in text and "shape=box" in text
