import gc
import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from math import prod
from pathlib import Path

import pytest

import quasi3
from quasi3 import acceptance, basis, cli, group_ops
from quasi3.cli import build_parser, main
from quasi3.linsys import extract_blocks
from quasi3.poly import TERM_REPR_CAP, Polynomial, parse_poly
from test_linsys import det_bareiss

GOLDEN_A1_M1 = "x1^4 - 2*x1^3*x2 - 2*x1^3*x3 + 6*x1^2*x2*x3"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_basis_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "basis", "--m", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["degrees"] == {
        "1": 0, "A1": 4, "s12(A1)": 4, "A2": 5, "s12(A2)": 5, "Delta^(2m+1)": 9,
    }
    a1 = Polynomial.from_json_obj(obj["elements"]["A1"])
    assert a1 == parse_poly(GOLDEN_A1_M1)
    assert obj["null_vectors"]["A1"]["coefficients"] == ["1", "-2", "6"]
    assert obj["null_vectors"]["A2"]["coefficients"] == ["1", "-5/3", "10/3"]


def test_basis_latex_golden(capsys):
    code, out, _ = run_cli(capsys, "basis", "--m", "1", "--format", "latex")
    assert code == 0
    lines = out.splitlines()
    assert "A1: x_1^4 - 2x_1^3(x_2 + x_3) + 6x_1^2(x_2x_3)" in lines


def test_basis_text_mentions_verdicts(capsys):
    code, out, _ = run_cli(capsys, "basis", "--m", "0", "--verify", "full")
    assert code == 0
    assert "degrees ok: True" in out
    assert "quasiinvariance ok: True" in out
    assert "independence coinvariant_det_nonzero: True" in out


@pytest.mark.parametrize(
    "attr, value, verdict",
    [
        pytest.param("IDEAL_BUDGET", 0, "skipped (budget)", id="over-budget"),
        pytest.param(
            "free_module_certificate", lambda polys, m: (None, None),
            "not certified", id="certificate-open",
        ),
    ],
)
def test_basis_text_unsettled_verdicts(capsys, monkeypatch, attr, value, verdict):
    # a verdict of None is named for its cause, and never fails the report
    monkeypatch.setattr(basis, attr, value)
    code, out, _ = run_cli(capsys, "basis", "--m", "1", "--verify", "full")
    assert code == 0
    assert out.splitlines()[-3:] == [
        f"independence {name}: {verdict}"
        for name in ("pair_degree_3m+1", "pair_degree_3m+2", "delta_power")
    ]


def test_basis_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "basis", "--m", "2", "--format", "json")
    _, second, _ = run_cli(capsys, "basis", "--m", "2", "--format", "json")
    assert first == second


def test_check_accepts_quasiinvariant(tmp_path, capsys):
    target = tmp_path / "poly.txt"
    target.write_text(GOLDEN_A1_M1 + "\n")
    code, out, _ = run_cli(capsys, "check", "--m", "1", "--poly", str(target))
    assert code == 0
    assert "is quasiinvariant" in out


def test_check_accepts_json_file(tmp_path, capsys):
    target = tmp_path / "poly.json"
    target.write_text(json.dumps(parse_poly(GOLDEN_A1_M1).to_json_obj()))
    code, out, _ = run_cli(
        capsys, "check", "--m", "1", "--poly", str(target), "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["is_quasiinvariant"] is True
    assert len(obj["checks"]) == 3


def test_check_rejects_non_quasiinvariant(tmp_path, capsys):
    target = tmp_path / "poly.txt"
    target.write_text("x1^2 + x2\n")
    code, out, _ = run_cli(capsys, "check", "--m", "1", "--poly", str(target))
    assert code == 1
    assert "is NOT quasiinvariant" in out


def test_check_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "check", "--m", "1", "--poly", "/nonexistent")
    assert code == 2
    assert "error" in err


def test_check_malformed_file_is_usage_error(tmp_path, capsys):
    target = tmp_path / "poly.txt"
    target.write_text("x1 ++ x2\n")
    code, _, err = run_cli(capsys, "check", "--m", "1", "--poly", str(target))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "name, body", [("poly.txt", "1/0*x1 + x2\n"), ("poly.json", '[{"e":[1,0,0],"c":"1/0"}]')]
)
def test_check_zero_denominator_is_usage_error(tmp_path, capsys, name, body):
    target = tmp_path / name
    target.write_text(body)
    code, out, err = run_cli(capsys, "check", "--m", "1", "--poly", str(target))
    assert code == 2
    assert out == ""
    assert err == "error: zero denominator: '1/0'\n"


@pytest.mark.parametrize(
    "body",
    [
        '[{"e":[1,0,0],"c":1}]',
        '[{"e":5,"c":"1"}]',
        '[{"e":[true,0,0],"c":"1"}]',
        '[{"e":[1,0,0],"c":null}]',
    ],
)
def test_check_malformed_json_term_is_usage_error(tmp_path, capsys, body):
    target = tmp_path / "poly.json"
    target.write_text(body)
    code, out, err = run_cli(capsys, "check", "--m", "1", "--poly", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_check_deeply_nested_json_is_usage_error(tmp_path, capsys):
    target = tmp_path / "poly.json"
    target.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "check", "--m", "1", "--poly", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed polynomial JSON")
    assert err.endswith(": nested too deeply\n")


@pytest.mark.parametrize(
    "body, shown",
    [
        ("[" * 800 + "]" * 800, "bad term object: [[[["),
        ("[[" + ", ".join(["0"] * 5000) + "]]", "bad term object: [0, 0, "),
        ('[{"e": [' + ", ".join(["0"] * 5000) + '], "c": "1"}]', "term needs three"),
    ],
    ids=["deep", "long-list", "long-e"],
)
def test_check_long_bad_json_term_is_one_capped_line(tmp_path, capsys, body, shown):
    target = tmp_path / "poly.json"
    target.write_text(body)
    code, out, err = run_cli(capsys, "check", "--m", "1", "--poly", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: " + shown)
    assert err.count("\n") == 1
    assert " (term 0, " in err
    assert len(err) < 2 * TERM_REPR_CAP


@pytest.mark.parametrize(
    "name, body, size",
    [
        ("poly.txt", "x1^99999999999999999999\n", 10**20),
        ("poly.json", '[{"e":[99999999999999999999,0,0],"c":"1"}]', 10**20),
        ("poly.txt", "x1^2000000*x2 + x3\n", 2_000_002),
    ],
)
def test_check_refuses_huge_exponents(tmp_path, capsys, name, body, size):
    target = tmp_path / name
    target.write_text(body)
    for fmt in ("text", "json"):
        code, out, err = run_cli(
            capsys, "check", "--m", "1", "--poly", str(target), "--format", fmt
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: divisibility search needs at least {size} dense entries,"
            " more than the limit of 1048576\n"
        )


def test_system_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "system", "--m", "1", "--d", "4")
    assert code == 0
    assert "full system m=1 d=4 shape (2, 3)" in out
    code, out, _ = run_cli(
        capsys, "system", "--m", "1", "--d", "4", "--restrict-bm", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["entries"] == [["4", "5"], ["0", "3"]]
    assert obj["rows"] == [[0, 1], [1, 1]]
    assert obj["cols"] == [[0, 0], [1, 0]]


def test_system_rejects_bad_degree(capsys):
    code, _, err = run_cli(capsys, "system", "--m", "1", "--d", "6")
    assert code == 2
    assert "degree must be" in err


def test_blocks_json(capsys):
    code, out, _ = run_cli(
        capsys, "blocks", "--m", "3", "--d", "10", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["determinants"] == ["252", "2352", "112", "35"]
    assert len(obj["blocks"]) == 4


def test_det_agreement(capsys):
    code, out, _ = run_cli(capsys, "det", "--m", "3", "--d", "10", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["det"] == "2323399680"
    assert obj["agree"] is True and obj["nonzero"] is True


def test_dims_agreement(capsys):
    code, out, _ = run_cli(capsys, "dims", "--m", "1", "--max-degree", "9", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["series"] == [1, 1, 2, 3, 6, 9, 13, 18, 24, 31]
    assert obj["agree"] is True


def test_dims_cost_does_not_grow_with_m(capsys):
    # no t^r coefficient of a degree-6 slice survives past r = 6, so every
    # m >= 3 solves the same systems as m = 3
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "dims", "--m", "1000000000", "--max-degree", "6")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 5
    assert (code, out) == run_cli(capsys, "dims", "--m", "3", "--max-degree", "6")[:2]


def test_paths_count_golden(capsys):
    code, out, _ = run_cli(
        capsys, "paths", "count", "--start", "2,2", "--end", "0,6",
        "--barrier", "9", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == "15"


def test_identity_thm1_golden(capsys):
    code, out, _ = run_cli(
        capsys, "identity", "thm1", "--params", "10,-1,7,-1,-2,2"
    )
    assert code == 0
    assert "matrix det: 2352" in out
    assert "prefactor: 1176" in out
    assert "family count: 2" in out
    assert "identity holds: True" in out


def test_identity_thm1_json(capsys):
    code, out, _ = run_cli(
        capsys, "identity", "thm1", "--params", "10,-1,7,-1,-2,2",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == [
        "params", "entries", "det", "starts", "ends", "barrier", "applicable",
        "family_count", "checked", "equal", "note", "prefactor", "inner_params",
    ]
    assert obj["det"] == "2352"
    assert obj["prefactor"] == "1176"
    assert obj["family_count"] == "2"
    assert obj["equal"] is True
    assert obj["starts"] == [[1, 1], [0, 0]]
    assert obj["ends"] == [[0, 6], [0, 4]]
    assert obj["barrier"] == 9


def test_identity_thm1_vanishing_prefactor_is_unchecked(capsys):
    code, out, _ = run_cli(capsys, "identity", "thm1", "--params=0,1,0,-1,-1,1")
    assert code == 0
    assert "prefactor: None" in out.splitlines()
    assert out.splitlines()[-1] == (
        "family count: unchecked (prefactor denominator vanishes)"
    )


def test_identity_thm2_inapplicable_mismatch_exits_one(capsys):
    # barrier strictly between the endpoint sums: the closed form is not
    # valid there, and the honest comparison reports the mismatch
    code, out, _ = run_cli(
        capsys, "identity", "thm2", "--params", "5,1,1,1,4,1", "--format", "json"
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["applicable"] is False
    assert obj["equal"] is False


def test_identity_sweep_deterministic(capsys):
    code, first, _ = run_cli(capsys, "identity", "sweep", "--seed", "3", "--trials", "3")
    assert code == 0
    code, second, _ = run_cli(capsys, "identity", "sweep", "--seed", "3", "--trials", "3")
    assert code == 0
    assert first == second
    obj = json.loads(first)
    assert obj["failed"] == 0
    assert obj["instances"] >= 3
    for entry in obj["results"]:
        assert entry["kind"] in ("thm1", "thm2")


def test_sweep_instances_with_negative_first_param_replay(capsys):
    # argparse reads "--params -1,..." as a missing value; "--params=-1,..."
    # is the form that replays such an instance
    code, out, _ = run_cli(capsys, "identity", "sweep", "--seed", "7", "--trials", "25")
    assert code == 0
    results = json.loads(out)["results"]
    for kind, params in (("thm2", (-1, 3, 0, 1, 7, 1)), ("thm1", (-1, 1, -3, 1, 1, 1))):
        (swept,) = [
            r for r in results
            if r["kind"] == kind and tuple(r["params"].values()) == params
        ]
        text = ",".join(map(str, params))
        code, out, _ = run_cli(capsys, "identity", kind, f"--params={text}", "--format", "json")
        assert code == 0
        assert {**json.loads(out), "kind": kind} == swept


def test_parser_is_built_once(capsys):
    assert build_parser() is build_parser()
    argv = ["det", "--m", "1", "--d", "4"]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        unreachable = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert unreachable < 50


def test_json_output_leaves_no_cyclic_garbage(capsys):
    # the indented JSON writer makes no closures, so it leaves no cycle
    argv = ["basis", "--m", "1", "--format", "json"]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        unreachable = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert unreachable == 0


def test_json_cycle_stays_young_while_collections_run(capsys):
    # collections while the JSON is written find no cycle to keep alive
    # past the young generation: the writer makes none
    argv = ["basis", "--m", "1", "--format", "json"]
    assert main(argv) == 0
    threshold = gc.get_threshold()
    gc.collect()
    gc.set_threshold(10, 1000, 1000)
    try:
        assert main(argv) == 0
    finally:
        gc.set_threshold(*threshold)
    capsys.readouterr()
    assert gc.collect() == 0


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("det", "--m", "1", "--d", "4", "--format", "latex"), id="det-latex"),
        pytest.param(("dims", "--max-degree", "3"), id="dims-without-m"),
        pytest.param(
            ("identity", "thm2", "--params", "-1,3,0,1,7,1"), id="params-negative-first",
        ),
    ],
)
def test_argparse_rejects_bad_options(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# Exit code and stdout sha256 of outputs pinned byte for byte; "{poly}"
# stands for a file holding GOLDEN_A1_M1.
STDOUT_GOLDEN = [
    pytest.param(
        "identity sweep --seed 7 --trials 25", 0,
        "2c22ad18c8dce85f357a4ab49c6680ecc5a0fbda9d1afee7874ad9c8c1ca03fc",
        id="sweep-seed7",
    ),
    pytest.param(
        "identity thm1 --params 10,-1,7,-1,-2,2", 0,
        "bab97561b94f5b43e7705401d343288025d1ce5212f9069c213951468761e9b4",
        id="thm1-block-text",
    ),
    pytest.param(
        "identity thm1 --params 10,-1,7,-1,-2,2 --format json", 0,
        "1187b9715d9993da1d75437301c612d812c621c8ec34f8ba52043e7d22ca21af",
        id="thm1-block-json",
    ),
    pytest.param(
        "identity thm1 --params 3,2,1,1,-1,2 --format json", 0,
        "524ddbfa7aaadf8496c81c332d0ce9be6a10f9f8afa85087ebb4261fc9485012",
        id="thm1-json",
    ),
    pytest.param(
        "identity thm2 --params 4,1,1,1,6,2", 0,
        "1ae522a264e9cbf99611359216cd0f92371a62c1f91554d16fc004d2b9e3d422",
        id="thm2-text",
    ),
    pytest.param(
        "identity thm2 --params 5,1,1,1,4,1 --format json", 1,
        "840df498d8d93cbfa7ef6831a10375095d9b56bff97c0b30df75d35023d70b01",
        id="thm2-mismatch-json",
    ),
    pytest.param(
        "system --m 3 --d 10 --restrict-bm --blocks", 0,
        "f3d369e0a24c9e94493621b1f4ad27993cc7bea1b64c65257886a1954cd3ff93",
        id="system-blocks-text",
    ),
    pytest.param(
        "system --m 3 --d 10 --restrict-bm --blocks --format json", 0,
        "142d3bd484a4f6b1be513efc3a8032fdb27166a5ea1397def02aae14ed1a69f0",
        id="system-blocks-json",
    ),
    pytest.param(
        "blocks --m 3 --d 10", 0,
        "d7391a0decd1761fcd4edaf363b82f507b89023247f0a8ff884f97b4896758a7",
        id="blocks-text",
    ),
    pytest.param(
        "blocks --m 3 --d 11 --format json", 0,
        "4506d215e0b3e17e805e5ef4435e66cafbc75b3edc8ed14bdffba11d8315cb10",
        id="blocks-json",
    ),
    pytest.param(
        "det --m 3 --d 10", 0,
        "d2dcfaa773e97c01d85016c33987ea5ec375d64c8135d79344780b4a4c0db9af",
        id="det-text",
    ),
    pytest.param(
        "check --m 1 --poly {poly} --format json", 0,
        "224ba9ccf67ab1311b710d8e77b1799f2df7717d1b3bac8725fb19865ec86ea8",
        id="check-m1-json",
    ),
    pytest.param(
        "check --m 2 --poly {poly} --format json", 1,
        "a11fde7376cb59d3ac9f34ad5ef0e4ae6a46375b53308f396c3350437d40b835",
        id="check-m2-json",
    ),
    pytest.param(
        "blocks --m 1 --d 4", 0,
        "b0a3fbee487d6e94d736e54f3997cbcbefbaca327c87e0d0dbecce1bc1fac783",
        id="blocks-m1-text",
    ),
    pytest.param(
        "blocks --m 5 --d 17 --format json", 0,
        "0927176dc262c4e54c3434682967dbf3f5722c3733f87003e16422d8b9b39024",
        id="blocks-m5-json",
    ),
    pytest.param(
        "system --m 4 --d 14 --restrict-bm --blocks --format json", 0,
        "fc8c8c6a4738ae1483e602b43d9b9881beb8465e63e08441a00b0476be3d09f5",
        id="system-blocks-m4-json",
    ),
    pytest.param(
        "dims --m 2 --max-degree 14 --format json", 0,
        "9251b329cf2b5895276c3c123fdc80ce67872d0423137f91b37409a14ce41849",
        id="dims-m2-json",
    ),
    pytest.param(
        "basis --m 0 --verify full", 0,
        "acdf6d6a35121b236fbf7126e3c98020195dbdddd4088836b2669ab33646aad1",
        id="basis-m0-full-text",
    ),
    pytest.param(
        "basis --m 2 --verify full --format json", 0,
        "d23a0c5db0e76f5674e7936fb700d69abaa25c571efe4894827c57cf7bedd17d",
        id="basis-m2-full-json",
    ),
    pytest.param(
        "basis --m 3 --verify full", 0,
        "3c07f6d3b60b51a24428f94684d3658c5e6df51fd83d209102856d6b66228fc8",
        id="basis-m3-full-text",
    ),
    pytest.param(
        "identity thm2 --params=-5,1,1,1,6,2 --format json", 0,
        "5a4b5e8b81cad5b4c3324c4a77e7067313cb77c9db37cc43980325dbe548f361",
        id="thm2-unusable-endpoints-json",
    ),
    pytest.param(
        "identity thm2 --params 29,1,9,1,100,1", 0,
        "f123eb66c9ea7cbad760b64b270fcc419ed6c86558ff35f4b98d9dfd8f8cfdb7",
        id="thm2-over-budget-text",
    ),
    pytest.param(
        "identity thm1 --params 10,-1,7,-1,2,2 --format json", 0,
        "c3a3afd6c1c39af0d803744d1be709edd7fafccd8ed8bc8590b04a1c36f5c423",
        id="thm1-unusable-endpoints-json",
    ),
    pytest.param(
        "identity thm1 --params 19,-1,13,-1,-2,6 --format json", 0,
        "465d56895feb04ba4f77ce4a4f665f3dac17d34262b1e07481344b28dd1ea8ce",
        id="thm1-over-budget-json",
    ),
    pytest.param(
        "blocks --m 2 --d 7", 0,
        "00ec872b4fd5061d85d0a8c71e4efdef70f0e16a41cf0487b023bc2298de38a5",
        id="blocks-m2-text",
    ),
    pytest.param(
        "det --m 4 --d 13 --format json", 0,
        "8a3e6ad44aba24d5c74743f1a830d4ec0e23ca94f7d3c691d9b73b152b4f07c7",
        id="det-m4-json",
    ),
    pytest.param(
        "paths count --start 2,2 --end 0,6 --barrier 9", 0,
        "f207dbe8ae92941fdc0e13ebfba1370203c104468adfdf83f03f3041713b257e",
        id="paths-count-text",
    ),
    pytest.param(
        "paths count --start 3,1 --end 0,6 --barrier 4 --format json", 0,
        "3cde6f7cb27c5217dccb6dc6b54f9411a163ba11c0686b78e741cb14d54fb1c9",
        id="paths-count-json",
    ),
    pytest.param(
        "identities --samples 100 --seed 1234", 0,
        "42bc70e52f5551485f0b720ff8dbaf19cb59a2e27fb456fac7184c502ebb76fe",
        id="identities-text",
    ),
    pytest.param(
        "identities --samples 20 --seed 7 --format json", 0,
        "3ab1975aa1c88413afcc9506e55c98d613b725599b21efffdbded70f597ce538",
        id="identities-json",
    ),
    pytest.param(
        "system --m 0 --d 1", 0,
        "c39a1822e7cb84a11e5d21c3b93ccf573c6e4eb6fc47ac61055c231db4e63b2c",
        id="system-no-rows-text",
    ),
    pytest.param(
        "system --m 2 --d 7", 0,
        "b7d3c2650db3b040d6f35225a7428a2018760f9854c3207c4c8366f0fb64e2ee",
        id="system-m2-text",
    ),
    pytest.param(
        "basis --m 3 --format latex", 0,
        "58aa5cae200220ae1b0fd88ce73a077999ac3e84d876f3c7f4901f2431b06536",
        id="basis-m3-latex",
    ),
    pytest.param(
        "check --m 1 --poly {poly}", 0,
        "4e101399eea83145d42dbbe91a12315e7b7bb0975cdd863c16d38a01233be48a",
        id="check-m1-text",
    ),
]


@pytest.mark.parametrize("argv, code, digest", STDOUT_GOLDEN)
def test_stdout_golden(capsys, tmp_path, argv, code, digest):
    poly = tmp_path / "a1.txt"
    poly.write_text(GOLDEN_A1_M1)
    got, out, _ = run_cli(capsys, *argv.format(poly=poly).split())
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


JSON_EDGE_CASES = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": [{}, [[]]]},
    [[], {}, ()],
    (1, (2, (3,)), [4]),
    [True, False, None],
    {"flag": True, "off": False, "none": None},
    {2: "int key", 2.5: [], False: {}, None: 0},
    [2**64, -(2**64) - 1, 3**100, 0, -1],
    ["é", "雪☃", "\U0001f600"],
    ['say "hi"', "back\\slash", "\x00\x01\x1f\x7f", "tab\tnew\nline\r", "/"],
    {'k"ey\\': ["\b\f"], "ü": {"é": "ß"}},
    [1.5, -0.0, 1e300, float("inf"), float("nan")],
    # polynomials write as their to_json_obj
    Polynomial.zero(),
    {"p": parse_poly("1/2*x1^2 - 3*x2*x3 + 7"), "q": [Polynomial.zero(), parse_poly("-1/6*x3^10")]},
    [parse_poly("x1 - x2"), [parse_poly("-4/6")]],
]


def test_print_json_matches_json_dumps(capsys, tmp_path, monkeypatch):
    seen = []
    print_json = cli._print_json
    monkeypatch.setattr(cli, "_print_json", seen.append)
    poly = tmp_path / "a1.txt"
    poly.write_text(GOLDEN_A1_M1)
    for case in STDOUT_GOLDEN:
        main(case.values[0].format(poly=poly).split())
    main(["selftest", "--only", "6", "--format", "json"])
    # every --format json request writes through _print_json (the sweep does too)
    assert len(seen) > sum("json" in case.values[0] for case in STDOUT_GOLDEN)
    capsys.readouterr()
    for obj in seen + JSON_EDGE_CASES:
        print_json(obj)
        assert capsys.readouterr().out == json.dumps(
            obj, indent=2, ensure_ascii=False, default=Polynomial.to_json_obj
        ) + "\n"


def test_identities_json(capsys):
    code, out, _ = run_cli(
        capsys, "identities", "--samples", "4", "--seed", "9", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["sample_failures"] == []
    assert len(obj["element_level"]) == 8


def test_criterion_10_and_identities_share_the_sample_drawer(capsys, monkeypatch):
    calls = []
    drawer = group_ops.random_samples

    def recording(seed, count):
        calls.append((seed, count))
        return drawer(seed, count)

    monkeypatch.setattr(group_ops, "random_samples", recording)
    result = acceptance.criterion_10()
    assert result.passed
    assert result.detail == "8 identities, element level plus 100 samples"
    code, _, _ = run_cli(capsys, "identities", "--samples", "7", "--seed", "5")
    assert code == 0
    assert calls == [(1234, 100), (5, 7)]


def test_identities_zero_samples_runs_element_level(capsys):
    code, out, _ = run_cli(capsys, "identities", "--samples", "0", "--seed", "9")
    assert code == 0
    assert len([l for l in out.splitlines() if l.startswith("element level:")]) == 8
    assert out.splitlines()[-1] == "samples: 0, all pass: True"


def test_selftest_subset(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--only", "1,2")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == 2
    assert all(l.startswith("[PASS] criterion") for l in lines)
    assert "2/2 criteria passed" in out


def test_selftest_json(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--only", "6", "--format", "json")
    assert code == 0
    (obj,) = json.loads(out)
    assert list(obj) == [
        "index", "title", "passed", "seconds", "limit", "within_limit", "detail",
    ]
    assert obj["index"] == 6
    assert obj["title"] == "independence certificates"
    assert obj["passed"] is obj["within_limit"] is True
    assert 0 <= obj["seconds"] < obj["limit"] == 120.0
    assert "exact routes agree at m=1,2" in obj["detail"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_selftest_failure_exits_one(capsys, monkeypatch, fmt):
    failed = acceptance.CriterionResult(
        index=1, title="t", passed=False, detail="d", seconds=0.0, limit=1.0
    )
    monkeypatch.setattr(acceptance, "run_all", lambda indices: [failed])
    code, out, _ = run_cli(capsys, "selftest", "--format", fmt)
    assert code == 1
    if fmt == "json":
        assert json.loads(out)[0]["passed"] is False
    else:
        assert out.splitlines() == ["[FAIL] criterion 1: t [0.00s] d", "0/1 criteria passed"]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ("paths", "count", "--start", "2", "--end", "0,6"),
            "point must be X,Y", id="paths-bad-point",
        ),
        pytest.param(
            ("paths", "count", "--start", "a,b", "--end", "0,6"),
            "--start point must be X,Y with integer X and Y, got 'a,b'",
            id="paths-non-integer-start",
        ),
        pytest.param(
            ("paths", "count", "--start", "2,2", "--end", "0,y"),
            "--end point must be X,Y with integer X and Y, got '0,y'",
            id="paths-non-integer-end",
        ),
        pytest.param(
            ("identity", "thm1", "--params", "1,2,3"),
            "needs 6", id="thm1-short-params",
        ),
        pytest.param(
            ("identity", "thm1", "--params", "1,2,3,4,5,x"),
            "thm1 needs 6 comma-separated integers, got '1,2,3,4,5,x'",
            id="thm1-non-integer-params",
        ),
        pytest.param(
            ("identity", "thm2", "--params", "4,1,1.5,1,6,2"),
            "thm2 needs 6 comma-separated integers, got '4,1,1.5,1,6,2'",
            id="thm2-non-integer-params",
        ),
        pytest.param(
            ("identity", "thm2", "--params", "1,2,3"),
            "needs 6", id="thm2-short-params",
        ),
        pytest.param(
            ("check", "--m", "1", "--poly", "/nonexistent/poly.txt"),
            "cannot read polynomial file", id="check-missing-poly",
        ),
        pytest.param(
            ("det", "--m", "0", "--d", "1"),
            "requires m >= 1", id="det-m0",
        ),
        pytest.param(
            ("blocks", "--m", "0", "--d", "1"),
            "require m >= 1", id="blocks-m0",
        ),
        pytest.param(
            ("system", "--m", "2", "--d", "5"),
            "degree must be 7 or 8", id="system-bad-degree",
        ),
        pytest.param(
            ("det", "--m", "29", "--d", "88"),
            "m must be at most 28, got 29", id="det-m-above-cap",
        ),
        pytest.param(
            ("blocks", "--m", "29", "--d", "89"),
            "m must be at most 28, got 29", id="blocks-m-above-cap",
        ),
        pytest.param(
            ("selftest", "--only", "0,11"),
            "--only takes criteria 1..10, got 0, 11", id="selftest-out-of-range",
        ),
        pytest.param(
            ("selftest", "--only", "abc"),
            "--only takes criteria 1..10, got 'abc'", id="selftest-non-integer",
        ),
        pytest.param(
            ("selftest", "--only", "1,,2"),
            "--only takes criteria 1..10, got ''", id="selftest-empty-item",
        ),
        pytest.param(
            ("selftest", "--only", ""),
            "--only takes criteria 1..10, got ''", id="selftest-empty",
        ),
        pytest.param(
            ("identity", "sweep", "--seed", "1", "--trials", "0"),
            "--trials must be at least 1", id="sweep-zero-trials",
        ),
        pytest.param(
            ("identity", "sweep", "--seed", "1", "--trials", "-1"),
            "--trials must be at least 1", id="sweep-negative-trials",
        ),
        pytest.param(
            ("identity", "sweep", "--seed", "1", "--trials", "100000"),
            "could not draw 100000 thm1 instances in 200000 attempts",
            id="sweep-sampler-exhausted",
        ),
        pytest.param(
            ("identity", "thm1", "--params", "10,-1,7,-1,-2,29"),
            "matrix size k must be at most 28, got 29", id="thm1-k-above-cap",
        ),
        pytest.param(
            ("identity", "thm2", "--params", "4,1,1,1,6,29"),
            "matrix size n must be at most 28, got 29", id="thm2-n-above-cap",
        ),
        pytest.param(
            ("identities", "--samples", "-3", "--seed", "1"),
            "--samples must be nonnegative", id="identities-negative-samples",
        ),
    ],
)
def test_usage_error_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert message in err


def test_det_m20_factorises(capsys):
    code, out, _ = run_cli(capsys, "det", "--m", "20", "--d", "61", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["agree"] is True and obj["nonzero"] is True
    blocks = extract_blocks(20, 61)
    assert obj["det"] == str(prod(det_bareiss(b) for b in blocks))


def test_module_runs_as_a_process():
    env = dict(os.environ, PYTHONPATH=str(Path(quasi3.__file__).resolve().parents[1]))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "quasi3.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    ok = run("det", "--m", "1", "--d", "4", "--format", "json")
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["agree"] is True
    bad = run("det", "--m", "0", "--d", "1")
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert bad.stderr.startswith("error:")


def test_startup_imports_no_dataclasses_inspect_or_typing():
    """The benchmark's set-up probe in an interpreter without site hooks,
    which can import these modules themselves."""
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import quasi3, quasi3.cli\n"
        "quasi3.cli.build_parser()\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & sys.modules.keys()))\n"
    )
    src = str(Path(quasi3.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, src],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_console_script_installed():
    exe = shutil.which("quasi3")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "det", "--m", "1", "--d", "4", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["agree"] is True


def test_console_script_target_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["quasi3"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main
