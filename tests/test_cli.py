"""CLI surface: exit codes, JSON schemas, and document round trips."""

import json

import pytest

from topmonads import cli
from topmonads import spaces as sp

SIERPINSKI = {
    "schema": 1,
    "points": ["0", "1"],
    "opens": [[], ["1"], ["0", "1"]],
}


@pytest.fixture
def sierpinski_file(tmp_path):
    path = tmp_path / "sierpinski.json"
    path.write_text(json.dumps(SIERPINSKI))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_space_info(capsys, sierpinski_file):
    code, out, _ = run_cli(capsys, "space", "info", sierpinski_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["T0"] is True
    assert doc["T1"] is False
    assert doc["sober"] is True
    assert doc["opens"] == 3


def test_space_hyper_is_a_three_chain(capsys, sierpinski_file):
    code, out, _ = run_cli(capsys, "space", "hyper", sierpinski_file)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["points"]) == 3
    assert len(doc["opens"]) == 4
    assert doc["closed_sets"] == [[], ["0"], ["0", "1"]]
    # the emitted document re-parses to a valid space (JSON round trip)
    space = cli.parse_space(doc)
    assert space.n == 3


def test_space_validate_bad_family(capsys, tmp_path):
    path = write_json(
        tmp_path, "bad.json", {"points": ["a", "b"], "opens": [[], ["a"], ["b"]]}
    )
    code, _, err = run_cli(capsys, "space", "validate", path)
    assert code == 2
    assert json.loads(err)["error"] == "axiom"


def test_malformed_json_exits_1(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = run_cli(capsys, "space", "validate", str(path))
    assert code == 1
    assert json.loads(err)["error"] == "malformed"


def test_space_product(capsys, sierpinski_file):
    code, out, _ = run_cli(
        capsys, "space", "product", sierpinski_file, sierpinski_file
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["points"]) == 4
    assert cli.parse_space(doc).n == 4


def test_val_supp(capsys, tmp_path, sierpinski_file):
    path = write_json(
        tmp_path,
        "delta1.json",
        {"space": SIERPINSKI, "weights": {"1": "1"}},
    )
    code, out, _ = run_cli(capsys, "val", "supp", path)
    assert code == 0
    assert json.loads(out) == ["0", "1"]


def test_val_integrate(capsys, tmp_path):
    val = write_json(
        tmp_path,
        "nu.json",
        {"space": SIERPINSKI, "weights": {"0": "1/2", "1": "1/2"}},
    )
    fn = write_json(tmp_path, "g.json", {"values": {"0": "1", "1": "2"}})
    code, out, _ = run_cli(capsys, "val", "integrate", val, "--function", fn)
    assert code == 0
    assert json.loads(out) == "3/2"


def test_val_extend(capsys, tmp_path):
    val = write_json(
        tmp_path,
        "nu.json",
        {"space": SIERPINSKI, "weights": {"0": "2/3", "1": "1/3"}},
    )
    code, out, _ = run_cli(capsys, "val", "extend", val)
    assert code == 0
    assert json.loads(out) == {"0": "2/3", "1": "1/3"}


def test_val_extend_infinite_mass_exits_3(capsys, tmp_path):
    val = write_json(
        tmp_path,
        "nu.json",
        {"space": SIERPINSKI, "weights": {"0": "inf"}},
    )
    code, _, err = run_cli(capsys, "val", "extend", val)
    assert code == 3
    assert json.loads(err)["error"] == "precondition"


def test_val_product_and_push(capsys, tmp_path):
    nu = write_json(
        tmp_path,
        "nu.json",
        {"space": SIERPINSKI, "weights": {"0": "1/2", "1": "1/2"}},
    )
    rho = write_json(
        tmp_path,
        "rho.json",
        {"space": SIERPINSKI, "weights": {"0": "1/3", "1": "2/3"}},
    )
    code, out, _ = run_cli(capsys, "val", "product", nu, "--other", rho)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["weights"]) == 4
    mapdoc = write_json(
        tmp_path,
        "map.json",
        {
            "source": SIERPINSKI,
            "target": SIERPINSKI,
            "assignment": {"0": "1", "1": "1"},
        },
    )
    code, out, _ = run_cli(capsys, "val", "push", nu, "--map", mapdoc)
    assert code == 0
    pushed = json.loads(out)
    assert pushed["weights"]["1"] == "1"


def test_val_E(capsys, tmp_path):
    doc = write_json(
        tmp_path,
        "xi.json",
        {
            "space": SIERPINSKI,
            "atoms": [
                ["1/2", {"weights": {"0": "1"}}],
                ["1/2", {"weights": {"1": "1"}}],
            ],
        },
    )
    code, out, _ = run_cli(capsys, "val", "E", doc)
    assert code == 0
    result = json.loads(out)
    assert result["weights"] == {"0": "1/2", "1": "1/2"}


@pytest.mark.parametrize(
    "atoms",
    [None, 5, "ab", {"1/2": {"weights": {"0": "1"}}}, [5], ["ab"], [["1"]], [["1", {}, {}]]],
    ids=[
        "null", "number", "string", "object",
        "atom-number", "atom-string", "one-entry", "three-entry",
    ],
)
def test_val_E_malformed_atoms_exit_1(capsys, tmp_path, atoms):
    doc = write_json(tmp_path, "xi.json", {"space": SIERPINSKI, "atoms": atoms})
    code, out, err = run_cli(capsys, "val", "E", doc)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "malformed"


def test_undecodable_document_exits_1(capsys, tmp_path):
    # a UTF-16 byte order mark and "{}": not UTF-8, which RFC 8259 asks for
    path = tmp_path / "bad.json"
    path.write_bytes(bytes([0xFF, 0xFE, 0x7B, 0x7D]))
    for argv in (("space", "info", str(path)), ("val", "validate", str(path))):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "malformed"


@pytest.mark.parametrize(
    "key", ["01", "00", "+1", " 1", "1 ", "1_0", "-1", "", "1.0", "1e0", "\u0661", "\uff11"]
)
def test_table_key_is_the_canonical_index(capsys, tmp_path, key):
    # "01" would otherwise overwrite the value of "1" and fail as NotMonotone
    table = {"0": "0", "1": "1", "2": "2", key: "5"}
    val = write_json(tmp_path, "nu.json", {"space": SIERPINSKI, "table": table})
    code, _, err = run_cli(capsys, "val", "validate", val)
    assert code == 1
    error = json.loads(err)
    assert error["error"] == "malformed"
    assert error["detail"] == f"table key {key!r} is not an index"


@pytest.mark.parametrize("key", ["3", "10", "1" + "0" * 5000], ids=["3", "10", "5001-digits"])
def test_table_key_past_the_last_open_is_out_of_range(capsys, tmp_path, key):
    table = {"0": "0", "1": "1", "2": "2", key: "5"}
    val = write_json(tmp_path, "nu.json", {"space": SIERPINSKI, "table": table})
    code, _, err = run_cli(capsys, "val", "validate", val)
    assert code == 1
    assert json.loads(err)["detail"] == f"open index {key} out of range"


def test_valuation_table_document_with_checksum(capsys, tmp_path):
    space = cli.parse_space(SIERPINSKI)
    checksum = cli._opens_checksum(space)
    val = write_json(
        tmp_path,
        "nu.json",
        {
            "space": SIERPINSKI,
            "table": {"0": "0", "1": "1/2", "2": "1"},
            "opens_checksum": checksum,
        },
    )
    code, out, _ = run_cli(capsys, "val", "validate", val)
    assert code == 0
    assert json.loads(out)["mass"] == "1"
    bad = write_json(
        tmp_path,
        "bad.json",
        {
            "space": SIERPINSKI,
            "table": {"0": "0", "1": "1/2", "2": "1"},
            "opens_checksum": "deadbeef0000",
        },
    )
    code, _, err = run_cli(capsys, "val", "validate", bad)
    assert code == 1


def test_rationals_never_parse_floats(capsys, tmp_path):
    val = write_json(
        tmp_path,
        "nu.json",
        {"space": SIERPINSKI, "weights": {"0": 0.5}},
    )
    code, _, err = run_cli(capsys, "val", "validate", val)
    assert code == 1


def test_laws_unknown_suite_exits_5(capsys):
    code, _, err = run_cli(capsys, "laws", "bogus")
    assert code == 5
    assert json.loads(err)["error"] == "unknown-suite"


def test_laws_negative_size_exits_1(capsys):
    code, out, err = run_cli(capsys, "laws", "supp-unit", "--max-points", "-1")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {
        "error": "malformed",
        "type": "InvalidValue",
        "detail": "max_points must be an int >= 0, not -1",
    }


def test_laws_count_below_one_exits_1(capsys):
    # a run that checks nothing is malformed, not a pass
    for count in ("0", "-1"):
        code, out, err = run_cli(capsys, "laws", "all", "--count", count)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "malformed",
            "type": "InvalidValue",
            "detail": f"instance_count must be an int >= 1, not {count}",
        }


def test_laws_suite_that_checks_nothing_exits_4(capsys):
    # at 0 points five suites find no space they can use: each says so,
    # and the run is not a pass
    code, out, _ = run_cli(capsys, "laws", "all", "--max-points", "0", "--count", "5")
    assert code == 4
    empty = [line.split(":")[0] for line in out.splitlines() if "nothing checked" in line]
    assert empty == ["algebra-transfer", "p-product", "p-submonad", "v-portmanteau", "v-strength"]
    assert all(
        line.endswith(")") and ", ok (" in line
        for line in out.splitlines()
        if line.split(":")[0] not in empty
    )
    code, out, _ = run_cli(capsys, "laws", "p-product", "--max-points", "0", "--json")
    assert code == 4
    assert json.loads(out)[0]["instances"] == 0


def test_laws_suite_json_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "laws",
        "supp-unit",
        "--seed",
        "42",
        "--max-points",
        "2",
        "--count",
        "10",
        "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report[0]["suite"] == "supp-unit"
    assert report[0]["failures"] == []
    assert report[0]["instances"] > 0
    assert report[0]["capped"] == {}


def test_document_round_trip():
    for space in (sp.sierpinski(), sp.w_lattice(), sp.discrete(3)):
        doc = cli.space_document(space)
        assert cli.parse_space(doc) == space


def test_valuation_document_round_trip(tmp_path):
    from topmonads import valuations as va
    from topmonads.extrat import ext

    s = sp.sierpinski()
    nu = va.valuation_from_weights(s, (ext("1/2"), ext("1/3")))
    doc = cli.valuation_document(nu)
    assert cli.parse_valuation(doc) == nu


@pytest.mark.parametrize(
    "doc",
    [
        {"points": ["a", "b"], "opens": [[], ["a", ["b"]], ["a", "b"]]},
        {"points": ["a", "b"], "opens": 5},
        {"points": ["a", "b"], "opens": [[], "ab"]},
        {"points": "ab", "opens": [[], ["a", "b"]]},
        {"points": ["a", "b"], "preorder": [["a", "a"], ["b"]]},
        {"points": ["a", "b"], "preorder": "ab"},
        {"points": ["a", "b"], "preorder": [["a", "a"], "ab"]},
    ],
    ids=[
        "list-inside-open",
        "opens-not-array",
        "open-as-string",
        "points-as-string",
        "one-entry-pair",
        "preorder-as-string",
        "pair-as-string",
    ],
)
def test_space_validate_malformed_shapes_exit_1(capsys, tmp_path, doc):
    path = write_json(tmp_path, "shape.json", doc)
    code, _, err = run_cli(capsys, "space", "validate", path)
    assert code == 1
    assert json.loads(err)["error"] == "malformed"


ONE_POINT = {"points": ["a"], "opens": [[], ["a"]]}
UNIT_MASS = {"space": ONE_POINT, "weights": {"a": "1"}}


def _map(assignment):
    return {"source": ONE_POINT, "target": ONE_POINT, "assignment": assignment}


@pytest.mark.parametrize(
    "subcommand, valuation, extra",
    [
        ("supp", {"space": ONE_POINT, "weights": ["a"]}, None),
        ("supp", {"space": ONE_POINT, "weights": "a"}, None),
        ("validate", {"space": ONE_POINT, "table": ["0", "1"]}, None),
        ("integrate", UNIT_MASS, ("--function", {"values": ["a"]})),
        ("push", UNIT_MASS, ("--map", _map([["a", "a"]]))),
        ("push", UNIT_MASS, ("--map", _map({"a": ["a"]}))),
        ("push", UNIT_MASS, ("--map", _map({"a": 7}))),
    ],
    ids=[
        "weights-as-array",
        "weights-as-string",
        "table-as-array",
        "values-as-array",
        "assignment-as-array",
        "assignment-target-as-array",
        "assignment-target-unknown-int",
    ],
)
def test_val_malformed_shapes_exit_1(capsys, tmp_path, subcommand, valuation, extra):
    argv = ["val", subcommand, write_json(tmp_path, "val.json", valuation)]
    if extra is not None:
        flag, doc = extra
        argv += [flag, write_json(tmp_path, "extra.json", doc)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(err)["error"] == "malformed"


def _renamed(space):
    """The space with names whose string order differs from index order:
    "x1" < "x10" < "x11" < "x2"."""
    names = ("x2", "x10", "x1", "x11")[: space.n]
    return sp.FiniteSpace(names, space.min_nbhd)


def test_open_names_sort_each_open_by_name():
    """`_open_names` lists each open's names in string order, on the 390
    topologies of at most four points, on their hyperspaces, and on the
    products of every ordered pair of them with at most eight points."""
    from topmonads.hyperspace import build_hyperspace
    from topmonads.lawcheck import all_topologies

    base = [_renamed(s) for n in range(5) for s in all_topologies(n)]
    checked = [*base, *(build_hyperspace(s).space for s in base)]
    checked += [
        sp.product(a, b).space for a in base for b in base if a.n * b.n <= 8
    ]
    assert len(checked) == 390 + 390 + 4644
    for space in checked:
        want = [sorted(space.mask_names(u)) for u in space.opens]
        assert cli._open_names(space) == want


INT_NAMES_OPENS = {"points": [0, 1], "opens": [[], [1], [0, 1]]}
INT_NAMES_PREORDER = {"points": [0, 1], "preorder": [[0, 0], [1, 1], [0, 1]]}


def test_point_names_are_read_one_way_in_every_field(capsys, tmp_path):
    # str() reads every name, as it reads the points: both forms give
    # Sierpinski space, and a map may name its target points by integer
    code, out, _ = run_cli(
        capsys, "space", "info", write_json(tmp_path, "s.json", INT_NAMES_OPENS)
    )
    assert (code, json.loads(out)["points"]) == (0, ["0", "1"])
    s = sp.sierpinski()
    assert cli.parse_space(INT_NAMES_OPENS) == s
    assert cli.parse_space(INT_NAMES_PREORDER) == s
    mixed = {"points": ["0", 1], "opens": [[], ["1"], [0, "1"]]}
    assert cli.parse_space(mixed) == s
    f = cli.parse_map(
        {"source": INT_NAMES_OPENS, "target": SIERPINSKI, "assignment": {"0": 1, "1": 1}}
    )
    assert f.assignment == (1, 1)


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"points": [0, 1], "preorder": [[0, 0], [1, 1], [0, "zz"]]},
            "preorder pair [0, 'zz'] mentions an unknown point",
        ),
        (
            {"points": [0, 1], "preorder": [[0, 0], [1, 1], [2, 1]]},
            "preorder pair [2, 1] mentions an unknown point",
        ),
        ({"points": [0, 1], "opens": [[], [2], [0, 1]]}, "open mentions unknown point 2"),
    ],
    ids=["preorder-name", "preorder-int", "open-int"],
)
def test_an_unknown_name_is_malformed_in_every_field(capsys, tmp_path, doc, message):
    with pytest.raises(cli.MalformedDocument) as info:
        cli.parse_space(doc)
    assert str(info.value) == message
    code, _, err = run_cli(capsys, "space", "info", write_json(tmp_path, "s.json", doc))
    assert code == 1
    assert json.loads(err)["error"] == "malformed"


@pytest.mark.parametrize("points", [[1, "1"], ["a", "a"]])
@pytest.mark.parametrize("form", ["opens", "preorder"])
def test_duplicate_point_names_are_malformed(capsys, tmp_path, points, form):
    name = str(points[0])
    doc = {"points": points, form: [[], [name]] if form == "opens" else [[name, name]]}
    with pytest.raises(cli.MalformedDocument, match="^duplicate point names$"):
        cli.parse_space(doc)
    code, out, err = run_cli(capsys, "space", "validate", write_json(tmp_path, "s.json", doc))
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "malformed", "type": "MalformedDocument", "detail": "duplicate point names",
    }


@pytest.mark.parametrize("schema", [2, 99, "1", True, 1.0])
def test_every_document_kind_checks_its_schema(capsys, tmp_path, schema):
    unsupported = f"unsupported schema {schema!r}"
    with pytest.raises(cli.MalformedDocument, match=unsupported):
        cli.parse_space({**SIERPINSKI, "schema": schema})
    with pytest.raises(cli.MalformedDocument, match=unsupported):
        cli.parse_valuation({**UNIT_MASS, "schema": schema})
    with pytest.raises(cli.MalformedDocument, match=unsupported):
        cli.parse_lsc({"schema": schema, "values": {"a": "1"}}, cli.parse_space(ONE_POINT))
    with pytest.raises(cli.MalformedDocument, match=unsupported):
        cli.parse_map({**_map({"a": "a"}), "schema": schema})
    nu = write_json(tmp_path, "nu.json", UNIT_MASS)
    g = write_json(tmp_path, "g.json", {"schema": schema, "values": {"a": "1"}})
    f = write_json(tmp_path, "f.json", {**_map({"a": "a"}), "schema": schema})
    xi = write_json(tmp_path, "xi.json", {
        "schema": schema, "space": ONE_POINT, "atoms": [["1", {"weights": {"a": "1"}}]],
    })
    runs = [
        ["val", "integrate", nu, "--function", g],
        ["val", "push", nu, "--map", f],
        ["val", "E", xi],
    ]
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "malformed", "type": "MalformedDocument", "detail": unsupported,
        }


def test_function_and_map_documents_parse_at_schema_1():
    a = cli.parse_space(ONE_POINT)
    assert cli.parse_lsc({"schema": 1, "values": {"a": "1"}}, a).values == (1,)
    assert cli.parse_map({**_map({"a": "a"}), "schema": 1}).assignment == (0,)
