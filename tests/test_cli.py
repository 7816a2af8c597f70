import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from soergelkit import cli, selftest
from soergelkit.tate import Complex


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_kl_s3_all_monomials():
    code, out = run_cli(["kl", "--rank", "3", "--w", "1,2,1"])
    assert code == 0
    data = json.loads(out)
    assert data["w"] == "321"
    assert set(data["polys"]) == {"123", "132", "213", "231", "312", "321"}
    for poly in data["polys"].values():
        assert "+" not in poly and "-" not in poly


def test_bs_decompose_payload():
    code, out = run_cli(["bs", "--rank", "3", "--word", "1,2,1", "--decompose"])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 8
    assert data["dims"] == {"-3": 1, "-1": 3, "1": 3, "3": 1}
    assert {(s["w"], s["shift"]) for s in data["summands"]} == {("321", 0), ("213", 0)}


def test_decompose_alias_matches_bs():
    _, out1 = run_cli(["decompose", "--rank", "2", "--word", "1,1"])
    data = json.loads(out1)
    assert {(s["w"], s["shift"]) for s in data["summands"]} == {("21", 1), ("21", -1)}


def test_hom_match_and_exit_zero():
    code, out = run_cli(["hom", "--rank", "3", "--x", "1", "--y", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["match"] is True
    assert data["graded"] == {"0": 1, "2": 1}


def test_identical_invocations_byte_identical():
    for argv in (
        ["bs", "--rank", "3", "--word", "2,1,2", "--decompose"],
        ["koszul-square", "--rank", "2", "--seed", "11", "--cases", "25"],
        ["tate", "--demo", "--seed", "3", "--cases", "10"],
    ):
        _, out1 = run_cli(argv)
        _, out2 = run_cli(argv)
        assert out1 == out2


def test_seed_changes_are_respected():
    _, out1 = run_cli(["koszul-square", "--rank", "2", "--seed", "1", "--cases", "5"])
    _, out2 = run_cli(["koszul-square", "--rank", "2", "--seed", "2", "--cases", "5"])
    assert json.loads(out1)["failures"] == 0
    assert json.loads(out2)["failures"] == 0


def test_decomposition_json_roundtrip():
    _, out = run_cli(["decompose", "--rank", "3", "--word", "1,2,1"])
    data = json.loads(out)
    reemitted = cli.emit(data, "json")
    assert reemitted == out
    assert json.loads(reemitted) == data


def test_csv_empty_table_header_only():
    assert cli.emit({}, "csv", (["a", "b"], [])) == "a,b\n"


def test_csv_laurent_canonical_order():
    # ascending exponents in the sparse string
    from soergelkit.laurent import LaurentPoly

    assert str(LaurentPoly({1: 1, -1: 1})) == "v^-1+v"


def test_csv_and_text_formats():
    code, out = run_cli(["coinv", "--rank", "2", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "degree,dim"
    code, out = run_cli(["coinv", "--rank", "2", "--format", "text"])
    assert code == 0
    assert "poincare: 1+v^2" in out


def test_usage_errors_exit_two():
    code, _ = run_cli(["kl", "--rank", "3"])  # missing --w
    assert code == 2
    code, _ = run_cli(["bogus"])
    assert code == 2
    code, _ = run_cli(["kl", "--rank", "3", "--w", "5,1"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["koszul-square", "--rank", "2", "--cases", "-3"],
        ["tate", "--demo", "--cases", "-2"],
        ["tate", "--demo", "--cases", "0"],
    ],
)
def test_cases_below_one_exit_two(argv, capsys):
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--cases" in err


def test_size_cap_refusal_exits_two(monkeypatch, capsys):
    # a word no other test computes, so the cap is hit before any cache
    monkeypatch.setenv("SOERGEL_MAX_DIM", "10")
    code, _ = run_cli(["bs", "--rank", "4", "--word", "3,2,1,2,3"])
    assert code == 2
    assert capsys.readouterr().err.count("\n") == 1
    # with cold caches the ring build comes first, and rref refuses its first
    # ideal slice in more unknowns than the cap, before copying any row
    proc = fresh_process("coinv --rank 3", 0, {"SOERGEL_MAX_DIM": "6"})
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == (
        b"refused: linear system in 10 unknowns exceeds the dimension cap 6 "
        b"(raise SOERGEL_MAX_DIM to override)\n"
    )


def test_induced_module_cap_refusal_exits_two():
    # in a new interpreter nothing before the fifth induction step exceeds
    # 16, so the refusal is always the induced-module cap (2^5 = 32)
    proc = fresh_process("bs --rank 3 --word 1,2,1,2,1", 0, {"SOERGEL_MAX_DIM": "16"})
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == (
        b"refused: induced module of dimension 32 exceeds the dimension cap 16 "
        b"(raise SOERGEL_MAX_DIM to override)\n"
    )


def test_endomorphism_algebra_cap_refusal_exits_two():
    # the dimension, 77 at rank 3, is read off the Hecke pairing before any
    # D_w is built, and nothing built before it exceeds 76
    proc = fresh_process("endo --rank 3", 0, {"SOERGEL_MAX_DIM": "76"})
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == (
        b"refused: endomorphism algebra of dimension 77 exceeds the dimension cap 76 "
        b"(raise SOERGEL_MAX_DIM to override)\n"
    )
    proc = fresh_process("endo --rank 3", 0, {"SOERGEL_MAX_DIM": "77"})
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(proc.stdout)["dim"] == 77


def test_coinvariant_rank_cap_exits_two(capsys):
    code, out = run_cli(["coinv", "--rank", "6"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "refused: rank 6 exceeds the configured cap 5\n"


def test_verification_failure_exits_one(monkeypatch):
    def fake_handler(args):
        return {"ok": False}, False, None

    monkeypatch.setitem(cli.HANDLERS, "koszulity", fake_handler)
    code, _ = run_cli(["koszulity", "--rank", "1"])
    assert code == 1


def test_ext_table():
    code, out = run_cli(["ext", "--rank", "2", "--x", "", "--y", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["table"] == [{"k": 1, "dim": 1, "graded": {"2": 1}}]


def test_koszulity_command():
    code, out = run_cli(["koszulity", "--rank", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["koszul"] is True and data["max_k"] == 2


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["--help"])
    assert exc.value.code == 0


# Exact stdout of each command, pinned so that refactors keep the CLI bytes.
GOLDEN = {
    "decompose --rank 4 --word 1,2,3,2,1": (
        '{"character":"v^-5+5v^-3+10v^-1+10v+5v^3+v^5","dim":32,'
        '"dims":{"-1":10,"-3":5,"-5":1,"1":10,"3":5,"5":1},"rank":4,'
        '"summands":[{"shift":0,"w":"2134"},{"shift":0,"w":"3214"},{"shift":0,"w":"4231"}],'
        '"word":"1,2,3,2,1"}\n'
    ),
    "bs --rank 4 --word 3,2,1,2,3": (
        '{"character":"v^-5+5v^-3+10v^-1+10v+5v^3+v^5","dim":32,'
        '"dims":{"-1":10,"-3":5,"-5":1,"1":10,"3":5,"5":1},"rank":4,"word":"3,2,1,2,3"}\n'
    ),
    "endo --rank 3": (
        '{"dim":77,"graded":{"0":6,"1":16,"2":22,"3":18,"4":10,"5":4,"6":1},"rank":3,'
        '"summands":["123","132","213","231","312","321"]}\n'
    ),
    "hom --rank 4 --x 1,2,3 --y 2,3,2": (
        '{"graded":{"2":1,"4":2,"6":1},"match":true,"pairing":"v^2+2v^4+v^6","rank":4,'
        '"total":4,"x":"2341","y":"1432"}\n'
    ),
    "ext --rank 3 --x 1 --y 1,2,1": (
        '{"complete":true,"rank":3,"resolution_length":5,'
        '"table":[{"dim":1,"graded":{"4":1},"k":2}],"x":"213","y":"321"}\n'
    ),
    "koszulity --rank 3": '{"complete":true,"koszul":true,"max_k":6,"rank":3}\n',
    "koszul-square --rank 3 --cases 50": '{"cases":50,"failures":0,"rank":3,"seed":42}\n',
    "tate --demo --seed 42 --cases 20": (
        '{"seed":42,"t_axioms":{"all_pass":true,"cases":5,"decomposition":true,"nesting":true,'
        '"orthogonality":true,"pairs":25},"w_axioms":{"all_pass":true,"cases":5,'
        '"decomposition":true,"nesting":true,"orthogonality":true,"pairs":25},'
        '"witnesses":{"collapse_breaks_t":true,'
        '"collapse_preserves_weight":true,"t_degree_after_collapse":0,'
        '"t_degree_before_collapse":-2,"weight_exactness_cases":20,'
        '"weight_exactness_failures":0,"weight_of_twisted_shifted_unit":0}}\n'
    ),
}


def fresh_process(command, hash_seed, settings=None):
    """The finished CLI process in a new interpreter, whose only ``SOERGEL_``
    variables are the given ``settings``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SOERGEL_")}
    env.update(settings or {})
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run(
        [sys.executable, "-c", "import sys; from soergelkit.cli import main; sys.exit(main())"]
        + command.split(),
        capture_output=True,
        env=env,
        timeout=300,
    )


def run_fresh(command, hash_seed):
    """Stdout of the CLI in a new interpreter, with no cap override."""
    proc = fresh_process(command, hash_seed)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_stdout(command):
    assert run_fresh(command, 0) == GOLDEN[command].encode()


def test_fresh_processes_agree_across_hash_seeds():
    for command in (
        "decompose --rank 4 --word 1,2,3,2,1",
        "selftest --seed 42",
        "tate --demo --seed 42 --cases 20",
        "koszul-square --rank 3 --cases 50",
    ):
        assert run_fresh(command, 1) == run_fresh(command, 2)



def test_tate_demo_runs_the_selftest_checks(monkeypatch):
    # a wrong truncation where criterion 7 looks it up fails both criterion 7
    # and the demo, so the demo runs the criterion's checks, not copies
    monkeypatch.setattr(selftest, "t_truncate_geq", lambda x, m: Complex({}))
    assert not selftest.criterion_7_tate_structures(42).passed
    code, out = run_cli(["tate", "--demo", "--seed", "3", "--cases", "5"])
    assert code == 1
    assert json.loads(out)["witnesses"]["collapse_breaks_t"] is False


def test_tate_demo_reads_witness_degrees_off_the_collapse(monkeypatch):
    # a collapse that lands one position too high moves the reported degree
    collapse = selftest.iota_collapse
    monkeypatch.setattr(selftest, "iota_collapse", lambda x: collapse(x).shift(-1))
    code, out = run_cli(["tate", "--demo", "--seed", "3", "--cases", "5"])
    assert code == 1
    witnesses = json.loads(out)["witnesses"]
    assert witnesses["t_degree_before_collapse"] == -2
    assert witnesses["t_degree_after_collapse"] == 1


def test_selftest_text_lines(monkeypatch):
    results = [
        selftest.CriterionResult(1, "first", True, {}),
        selftest.CriterionResult(12, "second", False, {}),
    ]
    monkeypatch.setattr(selftest, "run_battery", lambda seed: results)
    code, out = run_cli(["selftest", "--format", "text"])
    assert code == 1
    assert out == "[ 1] PASS  first\n[12] FAIL  second\npassed 1 of 2 criteria\n"


def test_tate_without_demo_exits_two(capsys):
    code, out = run_cli(["tate", "--seed", "3", "--cases", "10"])
    assert code == 2
    assert out == ""
    assert "--demo" in capsys.readouterr().err
