import gc
import io
import itertools
import json
import random
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sps import (
    Circuit, DoublingReport, Field, SpanBasis, ZeroOracle, build_chain, dumps_circuit,
    field_make, gen_family, gen_joined, gen_ks, loads_circuit, make_circuit,
)
from sps.circuit import _digest
from sps.cli import _build_parser, _load_circuit, main
from sps.errors import BoundViolationError
import sps.circuit
import sps.cli
from helpers import (
    count_calls, count_trials, load_bench, planted_triple, random_circuit, random_pair_identity,
    refuse_field_work, refuse_generator_work, refuse_oracle_work, spy_edge_passes,
)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_command(capsys):
    code, out, err = run_cli(["bound", "--k", "3", "--d", "4"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["m_bound"] == 17 and obj["rank_bound"] == 17
    assert "17" in err


@pytest.mark.parametrize("option, values, low", [
    ("--k", ("0", "2", "-5"), 3),  # chain and the bound need k >= 3
    ("--d", ("0", "-1"), 1),
])
def test_bound_refuses_k_below_3_and_d_below_1_at_parse_time(option, values, low, capsys):
    for value in values:
        argv = {"--k": "3", "--d": "4", option: value}
        with pytest.raises(SystemExit) as exc:
            main(["bound", *itertools.chain(*argv.items())])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert f"argument {option}: {option[2:]} must be >= {low}, got {value}" in err


@pytest.mark.parametrize("zeros", [110, 160, 200])
def test_bound_on_a_huge_k_exits_2_without_a_traceback(zeros, capsys):
    # from 10^103 the rank bound is inf, from 10^154 the chain bound too, and
    # C(k, 2) of a 201-digit k does not fit a float: an error line each time
    code, out, err = run_cli(["bound", "--k", "1" + "0" * zeros, "--d", "2"], capsys)
    assert (code, out, err) == (2, "", "error: --k is too large: the bound overflows a float\n")


def test_gen_and_check_pipe(tmp_path, capsys):
    path = tmp_path / "ks3.json"
    code, _, _ = run_cli(["gen", "ks", "--r", "3", "-o", str(path)], capsys)
    assert code == 0
    assert path.read_text().strip() == dumps_circuit(gen_ks(3))

    code, out, _ = run_cli(["check", str(path), "--exact"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["zero"] and rep["simple"] and rep["minimal"] and rep["rank"] == 3


def test_check_assert_zero_exit_code(tmp_path, capsys):
    nz = make_circuit(field_make(5), 2, [(1, [[1, 0]]), (1, [[0, 1]])])
    path = tmp_path / "nz.json"
    path.write_text(dumps_circuit(nz))
    code, out, _ = run_cli(["check", str(path), "--exact", "--assert-zero"], capsys)
    assert code == 1
    assert json.loads(out)["zero"] is False
    code, _, _ = run_cli(["check", str(path), "--exact"], capsys)
    assert code == 0


def test_chain_command_and_trace(tmp_path, capsys):
    path = tmp_path / "ks3.json"
    run_cli(["gen", "ks", "--r", "3", "-o", str(path)], capsys)
    code, out, err = run_cli(["chain", str(path), "--trace"], capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 4  # 3 rounds + summary
    assert lines[0]["round"] == 1 and lines[0]["ideal"] == [[1, 0, 0]]
    assert lines[-1]["m"] == 3 and lines[-1]["ok"] is True
    assert "m=3" in err


def test_chain_rejects_non_identity(tmp_path, capsys):
    nz = make_circuit(
        field_make(2), 3, [(1, [[1, 0, 0]]), (1, [[0, 1, 0]]), (1, [[0, 0, 1]])]
    )
    path = tmp_path / "nz.json"
    path.write_text(dumps_circuit(nz))
    code, _, err = run_cli(["chain", str(path)], capsys)
    assert code == 1
    assert "identity" in err or "zero" in err


def test_chain_exits_2_on_the_oracle_refusals_as_check_does(tmp_path, capsys):
    # x1 + i*x2 for i = 0..16 over GF(101): 17 terms, so minimality is refused
    coefs = [1] * 15 + [67, 19]
    k17 = make_circuit(field_make(101), 2, [(c, [[1, i]]) for i, c in enumerate(coefs)])
    # GF(3^2) with k = 6 and d = 32: too many monomials to expand, no lift
    bench = load_bench("instances")
    gf9 = loads_circuit(bench.canon(bench.joined_identity(sps, 3, 2, 3)))
    # xy + 2xy + 2xy over GF(5): an identity whose terms share the factors x and y
    nonsimple = make_circuit(field_make(5), 2, [(c, [[1, 0], [0, 1]]) for c in (1, 2, 2)])
    assert (k17.k, gf9.k, gf9.degree, nonsimple.k) == (17, 6, 32, 3)
    for name, c, message in (("k17", k17, "k <= 16"), ("gf9", gf9, "cannot lift")):
        path = tmp_path / f"{name}.json"
        path.write_text(dumps_circuit(c))
        for command in ("check", "chain"):
            code, out, err = run_cli([command, str(path)], capsys)
            assert (code, out) == (2, "") and message in err
            if name == "gf9":  # one refusal names every rung auto tried
                assert all(rung in err for rung in ("divisibility", "expansion", "random"))
    path = tmp_path / "nonsimple.json"
    path.write_text(dumps_circuit(nonsimple))
    code, out, _ = run_cli(["check", str(path)], capsys)
    assert code == 0 and json.loads(out)["simple"] is False
    code, out, err = run_cli(["chain", str(path)], capsys)
    assert (code, out) == (1, "") and "simple" in err


def test_chain_refuses_degree_0_before_any_oracle_work(tmp_path, capsys, monkeypatch):
    # 1 + 1 + 3 over GF(5): a zero, simple and minimal identity of degree 0,
    # which has no chain; its length bound would take log2(0)
    path = tmp_path / "deg0.json"
    path.write_text(dumps_circuit(make_circuit(field_make(5), 1, [(c, []) for c in (1, 1, 3)])))
    code, out, _ = run_cli(["check", str(path)], capsys)
    assert code == 0 and json.loads(out)["zero"] is json.loads(out)["minimal"] is True
    refuse_oracle_work(monkeypatch)
    code, out, err = run_cli(["chain", str(path)], capsys)
    assert (code, out) == (1, "") and "chains need term degree d >= 1" in err


def test_match_command(tmp_path, capsys):
    path = tmp_path / "ks3.json"
    run_cli(["gen", "ks", "--r", "3", "-o", str(path)], capsys)
    code, out, _ = run_cli(["match", str(path), "--ideal", "1,0,0"], capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    summary = lines[-1]
    assert summary["pairs"] == 3
    by_pair = {tuple(e["pair"]): e for e in lines[:-1]}
    assert by_pair[(1, 2)]["found"] is True
    assert by_pair[(1, 2)]["sc"] == 1


def test_doubling_command(tmp_path, capsys):
    lists = tmp_path / "tight.json"
    code, _, err = run_cli(["gen", "tight", "--s", "4", "-o", str(lists)], capsys)
    assert code == 0 and "4 of 4" in err
    code, out, err = run_cli(["doubling", "--lists", str(lists), "--trace"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "BOUND_OK" and rep["r"] == 4
    assert "round 2" in err


def test_doubling_checks_each_derived_edge_once(tmp_path, capsys, monkeypatch):
    lists = tmp_path / "tight6.json"
    assert run_cli(["gen", "tight", "--s", "6", "-o", str(lists)], capsys)[0] == 0
    slots, checked = spy_edge_passes(monkeypatch)
    code, out, _ = run_cli(["doubling", "--lists", str(lists)], capsys)
    derived = [edge for _, _, edge in slots]
    assert code == 0 and json.loads(out)["verdict"] == "BOUND_OK"
    assert None not in derived
    assert len(derived) == 6 * 16  # six matchings of 2^(6-2) edges each
    assert len(checked) == len(derived)


@pytest.mark.parametrize("argv", [
    ["ks", "--r", "40"],
    ["family", "--r", "30", "--i", "30"],
    ["tight", "--s", "40"],
    ["counter", "--d", "100000000"],
])
def test_gen_refuses_oversized_output_with_exit_2(argv, capsys, monkeypatch):
    refuse_generator_work(monkeypatch)
    code, out, err = run_cli(["gen", *argv], capsys)
    assert (code, out) == (2, "")
    assert "over budget" in err


def test_gen_counter_variants(capsys):
    code, out, _ = run_cli(["gen", "counter", "--d", "2"], capsys)
    assert code == 0
    both = json.loads(out)
    assert isinstance(both, list) and len(both) == 2
    code, out, _ = run_cli(["gen", "counter", "--d", "2", "--which", "nonsimple"], capsys)
    obj = json.loads(out)
    assert obj["n"] == 2 and len(obj["terms"]) == 2


def test_reports_byte_stable(tmp_path, capsys):
    path = tmp_path / "ks4.json"
    run_cli(["gen", "ks", "--r", "4", "-o", str(path)], capsys)
    _, out1, _ = run_cli(["check", str(path), "--random", "--trials", "10",
                          "--seed", "5"], capsys)
    _, out2, _ = run_cli(["check", str(path), "--random", "--trials", "10",
                          "--seed", "5"], capsys)
    assert out1 == out2
    _, t1, _ = run_cli(["chain", str(path), "--trace"], capsys)
    _, t2, _ = run_cli(["chain", str(path), "--trace"], capsys)
    assert t1 == t2


def test_usage_errors(tmp_path, capsys):
    code, _, err = run_cli(["check", str(tmp_path / "missing.json")], capsys)
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(["check", str(bad)], capsys)
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bound_violation_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    from sps.errors import BoundViolationError
    import sps.cli as cli

    path = tmp_path / "ks3.json"
    run_cli(["gen", "ks", "--r", "3", "-o", str(path)], capsys)

    def boom(circuit):
        raise BoundViolationError("synthetic violation")

    monkeypatch.setattr(cli, "build_chain", boom)
    code, out, err = run_cli(["chain", str(path)], capsys)
    assert code == 3
    assert json.loads(out)["ok"] is False
    assert "BOUND VIOLATION" in err


def test_doubling_contradiction_exits_3_after_its_report(tmp_path, capsys, monkeypatch):
    lists = _gen_file(tmp_path, capsys, ["tight", "--s", "4"], "tight4.json")
    digest = json.loads(run_cli(["doubling", "--lists", lists], capsys)[1])["digest"]
    report = DoublingReport("CONTRADICTION", 4, 4, 4, 4.0, 5, 0, (),
                            "green count failed to double in round 2")
    monkeypatch.setattr(sps.cli, "doubling_check", lambda u, v, ideals: report)
    code, out, err = run_cli(["doubling", "--lists", lists], capsys)
    assert code == 3
    obj = json.loads(out)
    assert (obj.pop("command"), obj.pop("digest")) == ("doubling", digest)
    assert obj == json.loads(json.dumps(asdict(report)))
    assert "BOUND VIOLATION: green count failed to double in round 2" in err


def test_false_checked_properties_exit_1_with_one_line_naming_them(tmp_path, capsys):
    # input that loads but fails a property the command checks: exit 1, the
    # stdout written before the check (none, or check's report) and one
    # stderr line with the message
    f2, f5 = field_make(2), field_make(5)
    circuits = {
        "unequal": make_circuit(f5, 2, [(1, [[1, 0], [0, 1]]), (1, [[1, 0]]), (1, [[0, 1]])]),
        "nonzero": make_circuit(f2, 3, [(1, [[1, 0, 0]]), (1, [[0, 1, 0]]), (1, [[0, 0, 1]])]),
        "shared": make_circuit(f5, 2, [(c, [[1, 0], [0, 1]]) for c in (1, 2, 2)]),  # xy + 2xy + 2xy
        "deg0": make_circuit(f5, 1, [(c, []) for c in (1, 1, 3)]),
        "nz": make_circuit(f5, 2, [(1, [[1, 0]]), (1, [[0, 1]])]),
    }
    lists = {
        "nomatch": ([[1, 0]], [[0, 1]], [[[1, 0]]]),
        "sizes": ([[1, 0]], [[0, 1], [1, 1]], []),
        "dependent": ([[1, 1]], [[1, 2]], [[[0, 1]], [[0, 2]]]),
    }
    path = {name: str(tmp_path / f"{name}.json") for name in [*circuits, *lists]}
    for name, c in circuits.items():
        (tmp_path / f"{name}.json").write_text(dumps_circuit(c))
    for name, (u, v, ideals) in lists.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"p": 5, "n": 2, "U": u, "V": v, "ideals": ideals}))
    for which in ("nonsimple", "nonminimal"):  # the nonsimple one has 2 terms
        path[which] = _gen_file(tmp_path, capsys, ["counter", "--d", "2", "--which", which],
                                f"{which}.json")
    _, report, _ = run_cli(["check", "--exact", path["nz"]], capsys)
    assert json.loads(report)["zero"] is False
    cases = [
        (["chain", path["nonsimple"]], "", "chains need top fanin k >= 3"),
        (["chain", path["unequal"]], "", "chains need equal term degrees"),
        (["chain", path["nonzero"]], "", "chains require an identity"),
        (["chain", path["shared"]], "", "chains require a simple circuit"),
        (["chain", path["nonminimal"]], "", "chains require a minimal circuit"),
        (["chain", path["deg0"]], "", "chains need term degree d >= 1"),
        (["doubling", "--lists", path["nomatch"]], "", "no matching between U and V by ideal 0"),
        (["doubling", "--lists", path["sizes"]], "", "nonempty lists of equal size"),
        (["doubling", "--lists", path["dependent"]], "", "ideals must be mutually orthogonal"),
        (["check", "--exact", "--assert-zero", path["nz"]], report, "circuit is not zero"),
    ]
    for argv, expected, message in cases:
        code, out, err = run_cli(argv, capsys)
        lines = err.splitlines()
        assert (code, out) == (1, expected), argv
        assert [line for line in lines if message in line] == lines[-1:], (argv, err)
        assert len(lines) == (2 if argv[0] == "check" else 1), (argv, err)  # check's summary


def test_main_pauses_the_collector_and_restores_it(tmp_path, capsys, monkeypatch):
    # the command runs with the cyclic collector paused; main leaves it as the
    # caller had it on every exit code, and on an exception main lets through
    ks3 = _gen_file(tmp_path, capsys, ["ks", "--r", "3"], "ks3.json")
    nz = tmp_path / "nz.json"
    nz.write_text(dumps_circuit(make_circuit(
        field_make(2), 3, [(1, [[1, 0, 0]]), (1, [[0, 1, 0]]), (1, [[0, 0, 1]])])))
    during = []

    def chain_with(error):
        def chain(circuit):
            during.append(gc.isenabled())
            raise error
        return chain

    runs = [(["bound", "--k", "3", "--d", "4"], 0, None), (["chain", str(nz)], 1, None),
            (["check", str(tmp_path / "missing.json")], 2, None),
            (["chain", ks3], 3, BoundViolationError("synthetic violation")),
            (["chain", ks3], None, RuntimeError("unexpected"))]
    collecting = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for argv, code, error in runs:
                if error is not None:
                    monkeypatch.setattr(sps.cli, "build_chain", chain_with(error))
                if code is None:
                    with pytest.raises(RuntimeError):
                        main(argv)
                else:
                    assert main(argv) == code
                monkeypatch.undo()
                assert gc.isenabled() is enabled
    finally:
        (gc.enable if collecting else gc.disable)()
    capsys.readouterr()
    assert during == [False] * 4


def test_commands_leave_no_cyclic_garbage(tmp_path, capsys):
    # the premise of the collector pause: a command, run after the cached
    # parser is built, leaves nothing for the cyclic collector to free
    ks4 = _gen_file(tmp_path, capsys, ["ks", "--r", "4"], "ks4.json")
    lists = _gen_file(tmp_path, capsys, ["tight", "--s", "4"], "tight4.json")
    runs = [["check", "--exact", ks4], ["check", "--random", ks4], ["check", ks4],
            ["chain", "--trace", ks4], ["doubling", "--lists", lists, "--trace"],
            ["match", ks4, "--ideal", "1,0,0,0"], ["gen", "ks", "--r", "4"]]
    assert main(["bound", "--k", "3", "--d", "4"]) == 0  # builds the cached parser
    collecting = gc.isenabled()
    gc.disable()
    try:
        for argv in runs:
            gc.collect()
            assert main(argv) == 0, argv
            assert gc.collect() == 0, argv
    finally:
        if collecting:
            gc.enable()
    capsys.readouterr()


def test_cli_subprocess_pipe():
    gen = subprocess.run(
        [sys.executable, "-m", "sps", "gen", "ks", "--r", "3"],
        capture_output=True, text=True, check=True,
    )
    check = subprocess.run(
        [sys.executable, "-m", "sps", "check", "--exact"],
        input=gen.stdout, capture_output=True, text=True,
    )
    assert check.returncode == 0
    assert json.loads(check.stdout)["zero"] is True


# stdout bytes pinned from the release before the JSON codec was merged into
# one module: a change in key order, separators or number formatting shows
# here even where the parsed values stay equal
PINNED_COUNTER_D2 = (
    '[{"e":1,"n":2,"p":5,"terms":[{"coef":1,"forms":[[1,0],[0,1]]},'
    '{"coef":4,"forms":[[1,0],[0,1]]}]},{"e":1,"n":6,"p":5,"terms":[{"coef":1,'
    '"forms":[[1,0,0,0,0,0],[0,1,0,0,0,0],[0,0,0,0,1,0]]},{"coef":4,"forms":'
    '[[1,0,0,0,0,0],[0,1,0,0,0,0],[0,0,0,0,1,0]]},{"coef":1,"forms":'
    '[[0,0,1,0,0,0],[0,0,0,1,0,0],[0,0,0,0,0,1]]},{"coef":4,"forms":'
    '[[0,0,1,0,0,0],[0,0,0,1,0,0],[0,0,0,0,0,1]]}]}]\n'
)
PINNED_TIGHT_S4 = (
    '{"U":[[0,0,0,1],[1,1,0,1],[1,0,1,1],[0,1,1,1]],"V":[[1,0,0,1],[0,1,0,1],'
    '[0,0,1,1],[1,1,1,1]],"claimed":4,"e":1,"ideals":[[[1,0,0,0]],[[0,1,0,0]],'
    '[[0,0,1,0]],[[1,1,1,2]]],"n":4,"p":5,"verified":4}\n'
)
PINNED_CHAIN_KS4 = (
    '{"Q":[1,2],"V_q_sizes":{"1":4,"2":4},"external":false,"green_rank":1,'
    '"ideal":[[1,0,0,0]],"round":1,"type":1}\n'
    '{"Q":[1,2],"V_q_sizes":{"1":4,"2":4},"external":false,"green_rank":2,'
    '"ideal":[[0,1,0,0]],"round":2,"type":1}\n'
    '{"Q":[1,2],"V_q_sizes":{"1":4,"2":4},"external":false,"green_rank":3,'
    '"ideal":[[0,0,1,0]],"round":3,"type":1}\n'
    '{"Q":[0,2],"V_q_sizes":{"0":0,"2":0},"external":true,"green_rank":4,'
    '"ideal":[[0,0,0,1]],"round":4,"type":3}\n'
    '{"N1":3,"N2":0,"N3":1,"bound":17,"command":"chain","d":4,'
    '"digest":"7509b0976730c8d1","k":3,"m":4,"n":4,"ok":true,"rank":4}\n'
)
PINNED_MATCH_KS3 = (
    '{"found":false,"pair":[0,1]}\n{"found":false,"pair":[0,2]}\n'
    '{"found":true,"ordered":true,"pair":[1,2],"sc":1}\n'
    '{"command":"match","digest":"ec2426d6eca0168a","found":1,"pairs":3}\n'
)
# plain edges and ordered edges at levels 2 and 3
PINNED_MATCH_KS5_DEEP = (
    '{"found":true,"ordered":false,"pair":[0,1]}\n'
    '{"found":true,"ordered":false,"pair":[0,2]}\n'
    '{"found":true,"ordered":true,"pair":[1,2],"sc":1}\n'
    '{"command":"match","digest":"14af70cd6215efd8","found":3,"pairs":3}\n'
)
# check --exact: an identity, a non-simple one, and one with a vanishing pair
PINNED_CHECK_KS4 = (
    '{"command":"check","d":4,"digest":"7509b0976730c8d1","e":1,"k":3,'
    '"minimal":true,"mode":"exact","n":4,"p":2,"rank":4,"seed":0,"simple":true,'
    '"zero":true}\n'
)
PINNED_CHECK_NONSIMPLE_D2 = (
    '{"command":"check","d":2,"digest":"1c93ade47ac71e36","e":1,"k":2,'
    '"minimal":true,"mode":"exact","n":2,"p":5,"rank":2,"seed":0,"simple":false,'
    '"zero":true}\n'
)
PINNED_CHECK_NONMINIMAL_D2 = (
    '{"command":"check","d":3,"digest":"c425f1c7ed7e95fc","e":1,"k":4,'
    '"minimal":false,"mode":"exact","n":6,"p":5,"rank":6,"seed":0,"simple":true,'
    '"zero":true}\n'
)
PINNED_CHECK_KS7 = (
    '{"command":"check","d":32,"digest":"1b7b4f4c2d0a16e0","e":1,"k":3,'
    '"minimal":true,"mode":"exact","n":7,"p":2,"rank":7,"seed":0,"simple":true,'
    '"zero":true}\n'
)
PINNED_DOUBLING_S4 = (
    '{"bound":4,"command":"doubling","d":4,"d_prime":4,"digest":"51261a17bdfbc197",'
    '"i0":4,"r":4,"reason":null,"rounds":[{"doubled":false,"green_U":1,"green_V":1,'
    '"must_double":false,"round":1},{"doubled":true,"green_U":2,"green_V":2,'
    '"must_double":true,"round":2},{"doubled":true,"green_U":4,"green_V":4,'
    '"must_double":true,"round":3},{"doubled":false,"green_U":4,"green_V":4,'
    '"must_double":false,"round":4}],"similar_pairs":0,"verdict":"BOUND_OK"}\n'
)
PINNED_BOUND_K4_D3 = (
    '{"command":"bound","d":3,"k":4,"m_bound":30.509775004326936,'
    '"rank_bound":61.01955000865387}\n'
)


def _gen_file(tmp_path, capsys, argv, name):
    path = tmp_path / name
    code, _, _ = run_cli(["gen", *argv, "-o", str(path)], capsys)
    assert code == 0
    return str(path)


@pytest.mark.parametrize("argv, expected", [
    (["gen", "counter", "--d", "2"], PINNED_COUNTER_D2),
    (["gen", "tight", "--s", "4"], PINNED_TIGHT_S4),
    (["bound", "--k", "4", "--d", "3"], PINNED_BOUND_K4_D3),
])
def test_stdout_bytes_pinned(argv, expected, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == expected


def test_stdout_bytes_pinned_on_files(tmp_path, capsys):
    ks4 = _gen_file(tmp_path, capsys, ["ks", "--r", "4"], "ks4.json")
    ks3 = _gen_file(tmp_path, capsys, ["ks", "--r", "3"], "ks3.json")
    ks5 = _gen_file(tmp_path, capsys, ["ks", "--r", "5"], "ks5.json")
    tight = _gen_file(tmp_path, capsys, ["tight", "--s", "4"], "tight.json")
    assert run_cli(["chain", ks4, "--trace"], capsys)[:2] == (0, PINNED_CHAIN_KS4)
    assert run_cli(["match", ks3, "--ideal", "1,0,0"], capsys)[:2] == (0, PINNED_MATCH_KS3)
    deep = "1,1,0,0,0;0,0,1,0,0;0,0,0,1,1"
    assert run_cli(["match", ks5, "--ideal", deep], capsys)[:2] == (0, PINNED_MATCH_KS5_DEEP)
    assert run_cli(["doubling", "--lists", tight], capsys)[:2] == (0, PINNED_DOUBLING_S4)
    checks = [(ks4, PINNED_CHECK_KS4)]
    for which, expected in (("nonsimple", PINNED_CHECK_NONSIMPLE_D2),
                            ("nonminimal", PINNED_CHECK_NONMINIMAL_D2)):
        path = _gen_file(tmp_path, capsys, ["counter", "--d", "2", "--which", which],
                         which + ".json")
        checks.append((path, expected))
    # random and auto reports differ from the exact ones only in mode and seed
    for path, expected in checks:
        assert run_cli(["check", path, "--exact"], capsys)[:2] == (0, expected)
        rand = expected.replace('"mode":"exact"', '"mode":"random"')
        rand = rand.replace('"seed":0', '"seed":7')
        argv = ["check", path, "--random", "--trials", "40", "--seed", "7"]
        assert run_cli(argv, capsys)[:2] == (0, rand)
        auto = expected.replace('"mode":"exact"', '"mode":"auto"')
        assert run_cli(["check", path], capsys)[:2] == (0, auto)


# check --exact on gen ks --r 8..11, (d, digest): answered by the
# divisibility rung, with check --random's bytes but for "mode"
PINNED_CHECK_KS_EXACT = {
    8: (64, "42322e243aa1920c"),
    9: (128, "f572d8a03c28222a"),
    10: (256, "2aa9e8ea3ba2967c"),
    11: (512, "6bbc1539ee6fdad2"),
}


def test_check_exact_answers_ks7_to_ks11_and_refuses_ks12(tmp_path, capsys):
    ks7 = _gen_file(tmp_path, capsys, ["ks", "--r", "7"], "ks7.json")
    assert run_cli(["check", ks7, "--exact"], capsys)[:2] == (0, PINNED_CHECK_KS7)
    for r, (d, digest) in PINNED_CHECK_KS_EXACT.items():
        path = _gen_file(tmp_path, capsys, ["ks", "--r", str(r)], f"ks{r}.json")
        expected = PINNED_CHECK_KS7.replace('"d":32', f'"d":{d}').replace(
            "1b7b4f4c2d0a16e0", digest).replace('"n":7', f'"n":{r}').replace(
            '"rank":7', f'"rank":{r}')
        assert run_cli(["check", path, "--exact"], capsys)[:2] == (0, expected)
        rand = expected.replace('"mode":"exact"', '"mode":"random"')
        assert run_cli(["check", path, "--random"], capsys)[:2] == (0, rand)
    # ks12: expansion bound ~1.0e26 and divisibility price 1025 * 3072 * 12
    ks12 = _gen_file(tmp_path, capsys, ["ks", "--r", "12"], "ks12.json")
    code, out, err = run_cli(["check", ks12, "--exact"], capsys)
    assert (code, out) == (2, "")
    assert "exact expansion bound" in err and "divisibility price 37785600" in err


def test_divisibility_rung_reduces_modulo_d_plus_1_forms(tmp_path, capsys, monkeypatch):
    # check --exact on ks6 (d = 16): 17 one-form ideals and the three pairs
    # over the zero ideal, no expansion
    ks6 = _gen_file(tmp_path, capsys, ["ks", "--r", "6"], "ks6.json")
    expansions = count_calls(monkeypatch, "_expand_terms")
    pairs = count_calls(monkeypatch, "pair_cancels_mod")
    code, out, _ = run_cli(["check", ks6, "--exact"], capsys)
    assert code == 0 and json.loads(out)["zero"] and json.loads(out)["minimal"]
    assert expansions == []
    assert len([form for _, _, form in pairs if form is not None]) == 17
    assert len([form for _, _, form in pairs if form is None]) == 3
    # the random and auto-random paths, and the chain-ks chains, never enter it
    paths = [_gen_file(tmp_path, capsys, ["ks", "--r", str(r)], f"ks{r}.json")
             for r in (9, 10, 12)]
    chains = [*map(gen_ks, (9, 10, 11)),
              *(gen_family(r, i, verify=False) for r in (4, 5) for i in (3, 4, 5))]
    rungs = count_calls(monkeypatch, "_divisibility_rung")
    for path in paths:
        assert run_cli(["check", path, "--random"], capsys)[0] == 0
        assert run_cli(["check", path], capsys)[0] == 0
    for circuit in chains:
        build_chain(circuit)
    assert rungs == []


def test_check_reads_both_verdicts_off_one_set_of_term_values(tmp_path, capsys,
                                                               monkeypatch):
    # gen counter --which nonminimal: k = 4, zero, with a vanishing pair
    path = _gen_file(tmp_path, capsys, ["counter", "--d", "2", "--which", "nonminimal"],
                     "nonminimal.json")
    expansions = count_calls(monkeypatch, "_expand_terms")
    assert run_cli(["check", path, "--exact"], capsys)[:2] == (0, PINNED_CHECK_NONMINIMAL_D2)
    assert len(expansions) == 1
    # zero needs all 40 trials; each is evaluated once, whatever the subsets
    trials = count_trials(monkeypatch)
    code, out, _ = run_cli(["check", path, "--random", "--trials", "40", "--seed", "7"],
                           capsys)
    assert code == 0 and json.loads(out)["minimal"] is False
    assert [seed for seed, _ in trials] == [f"7:{t}" for t in range(40)]
    assert len({state for _, state in trials}) == 40


# check --random where the coordinates make a full chunk of 8 and a partial
# one (ks10, n = 10) and exactly two full chunks (family 4 3, n = 16); the
# bytes are those of the coordinate-by-coordinate random kernel
PINNED_CHECK_RANDOM = {
    ("ks", "--r", "10"): (
        '{"command":"check","d":256,"digest":"2aa9e8ea3ba2967c","e":1,"k":3,'
        '"minimal":true,"mode":"random","n":10,"p":2,"rank":10,"seed":7,'
        '"simple":true,"zero":true}\n'
    ),
    ("family", "--r", "4", "--i", "3"): (
        '{"command":"check","d":16,"digest":"3bf0057a3fbad1ad","e":1,"k":6,'
        '"minimal":true,"mode":"random","n":16,"p":2,"rank":16,"seed":7,'
        '"simple":true,"zero":true}\n'
    ),
}


def test_check_random_bytes_pinned_and_one_plan_per_circuit(tmp_path, capsys,
                                                          monkeypatch):
    built = []
    compile_plan = sps.circuit._EvalPlan

    def recorded(circuit):
        built.append(compile_plan(circuit))
        return built[-1]

    monkeypatch.setattr(sps.circuit, "_EvalPlan", recorded)
    calls = count_calls(monkeypatch, "_term_values")
    trials = count_trials(monkeypatch)
    for gen_argv, expected in PINNED_CHECK_RANDOM.items():
        path = _gen_file(tmp_path, capsys, list(gen_argv), "c.json")
        built.clear()
        calls.clear()
        trials.clear()
        argv = ["check", path, "--random", "--trials", "40", "--seed", "7"]
        assert run_cli(argv, capsys)[:2] == (0, expected)
        # the zero verdict and every minimality subset read one plan's trials
        assert len(built) == 1 and [seed for seed, _ in trials] == [f"7:{t}" for t in range(40)]
        assert calls and all(plan is built[0] for plan, *_ in calls)


def test_check_refuses_more_than_16_terms_before_any_work(tmp_path, capsys, monkeypatch):
    refuse_oracle_work(monkeypatch)
    c = make_circuit(field_make(2), 1, [(1, [[1]])] * 17)
    path = tmp_path / "k17.json"
    path.write_text(dumps_circuit(c))
    for mode in (["--exact"], ["--random"], []):
        code, out, err = run_cli(["check", str(path), *mode], capsys)
        assert (code, out) == (2, "")
        assert "k <= 16" in err


def test_check_random_refuses_trials_above_the_cap_before_any_work(tmp_path, capsys,
                                                                   monkeypatch):
    # every evaluation field has |E| > 2d, so 128 trials already err below 2^-128
    path = _gen_file(tmp_path, capsys, ["ks", "--r", "4"], "ks4.json")
    code, out, _ = run_cli(["check", path, "--random", "--trials", "128"], capsys)
    assert code == 0 and json.loads(out)["zero"] is True
    code, out, _ = run_cli(["check", path, "--trials", "128"], capsys)
    assert code == 0 and json.loads(out)["zero"] is True
    refuse_oracle_work(monkeypatch)
    # refused when the arguments are parsed, in auto mode too, where this
    # small circuit would be answered exactly
    for mode in (["--random"], []):
        for trials in ("0", "129", "1000000000"):
            with pytest.raises(SystemExit) as exc:
                main(["check", path, *mode, "--trials", trials])
            out, err = capsys.readouterr()
            assert (exc.value.code, out) == (2, "")
            assert "trials must be in [1, 128]" in err


def test_check_random_draws_no_point_for_a_circuit_without_forms(tmp_path, capsys,
                                                                monkeypatch):
    # no coordinate of the point is read, so none is drawn, whatever n says
    path = tmp_path / "constant.json"
    path.write_text('{"p":2,"e":1,"n":100000,"terms":'
                    '[{"coef":1,"forms":[]},{"coef":1,"forms":[]}]}')
    draws = []
    rand_element = Field.rand_element

    def counted(self, rng):
        draws.append(self)
        return rand_element(self, rng)

    monkeypatch.setattr(Field, "rand_element", counted)
    tracemalloc.start()
    try:
        code, out, _ = run_cli(["check", "--random", str(path)], capsys)
        assert code == 0 and draws == []
        random_report = json.loads(out)
        code, out, _ = run_cli(["check", "--exact", str(path)], capsys)
        exact_report = json.loads(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and random_report["zero"] is exact_report["zero"] is True
    # nothing n-sized is built, the rank's free-column state included:
    # one empty list per coordinate would take about 10 MB here
    assert peak < 1 << 20


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    path = _gen_file(tmp_path, capsys, ["ks", "--r", "4"], "ks4.json")
    argv = ["check", "--random", "--seed", "3", path]
    alone = subprocess.run([sys.executable, "-m", "sps", *argv],
                           capture_output=True, text=True)
    _build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["check", "--trials", "0", path])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(argv, capsys)
    assert code == alone.returncode == 0 and out == alone.stdout


def _ks3_with(path, edit):
    obj = json.loads(dumps_circuit(gen_ks(3)))
    edit(obj)
    path.write_text(json.dumps(obj))
    return str(path)


def _set(key, value):
    def edit(obj):
        obj[key] = value
    return edit


def _set_coef(obj):
    obj["terms"][0]["coef"] = True


def _bool_coords(obj):
    obj["terms"][0]["forms"][0] = [True, False, False]


def _zero_dimension(obj):
    obj["n"] = 0
    for t in obj["terms"]:
        t["forms"] = []


_MALFORMED = {
    "p-float": _set("p", 5.9),
    "p-string": _set("p", "5"),
    "e-bool": _set("e", True),
    "coef-bool": _set_coef,
    "coords-bool": _bool_coords,
    "n-zero": _zero_dimension,
}


# check cases keep the bare edit name as their id
@pytest.mark.parametrize("argv, edit", [
    pytest.param(argv, edit, id=prefix + name)
    for prefix, argv in (("", ["check", "--exact"]), ("chain-", ["chain"]))
    for name, edit in _MALFORMED.items()
])
def test_check_rejects_non_integer_json(argv, edit, tmp_path, capsys):
    path = _ks3_with(tmp_path / "bad.json", edit)
    code, out, err = run_cli([argv[0], path, *argv[1:]], capsys)
    assert code == 2
    assert out == ""
    assert "error" in err


def test_doubling_rejects_non_integer_json(tmp_path, capsys):
    _gen_file(tmp_path, capsys, ["tight", "--s", "4"], "tight.json")
    obj = json.loads((tmp_path / "tight.json").read_text())
    obj["p"] = "5"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run_cli(["doubling", "--lists", str(bad)], capsys)
    assert code == 2
    assert out == ""
    assert "error" in err


def _embedded(vectors, e):
    """Prime-field vectors over GF(p^e): each element c as [c, 0, ..., 0]."""
    return [[[c] + [0] * (e - 1) for c in vec] for vec in vectors]


@pytest.mark.parametrize("s, p, e", [(4, 5, 2), (5, 5, 2), (4, 7, 2), (6, 5, 3)])
def test_doubling_over_an_extension_field_matches_the_prime_field(s, p, e, tmp_path, capsys):
    # gen tight's lists embedded into GF(p^e) give the prime-field report
    # field for field, but for the digest
    path = _gen_file(tmp_path, capsys, ["tight", "--s", str(s), "--p", str(p)], "tight.json")
    code, out, _ = run_cli(["doubling", "--lists", path], capsys)
    assert code == 0
    prime = json.loads(out)
    obj = json.loads((tmp_path / "tight.json").read_text())
    lifted = {**obj, "e": e, "U": _embedded(obj["U"], e), "V": _embedded(obj["V"], e),
              "ideals": [_embedded(g, e) for g in obj["ideals"]]}
    ext = tmp_path / "ext.json"
    ext.write_text(json.dumps(lifted))
    code, out, _ = run_cli(["doubling", "--lists", str(ext)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == prime["verdict"] == "BOUND_OK"
    assert report["digest"] != prime["digest"]
    assert {**report, "digest": None} == {**prime, "digest": None}


# GF(997^2)'s log, antilog and Zech tables take seconds to build
_LENGTH_2 = "extension elements serialize as length-2 arrays"


@pytest.mark.parametrize("argv, text, message", [
    (["check"], '{"p":997,"e":2,"n":1,"terms":[{"coef":"x","forms":[]}]}', _LENGTH_2),
    (["chain"], '{"p":997,"e":2,"n":1,"terms":[{"coef":[1,0],"forms":[[5]]}]}', _LENGTH_2),
    (["doubling", "--lists"], '{"p":997,"e":2,"n":1,"U":[[[1,0]]],"V":[[7]],"ideals":[]}',
     _LENGTH_2),
    (["doubling", "--lists"], '{"p":5,"n":2,"U":[[0,0]],"V":[[0,0]],"ideals":[[[1,0]]]}',
     'every form of "U" must be nonzero'),
    (["doubling", "--lists"], '{"p":997,"e":2,"n":1,"U":[[[1,0]]],"V":[[[0,0]]],"ideals":[]}',
     'every form of "V" must be nonzero'),
    (["check"], '{"p":997,"e":-1,"n":1,"terms":[{"coef":[],"forms":[]}]}',
     "extension degree must be >= 1, got -1"),
    (["check"], '{"p":997,"e":2,"n":2,"terms":[{"coef":[1,0],"forms":[[[0,0],[0,0]]]}]}',
     'every form of terms[0]["forms"] must be nonzero'),
    (["check"], '{"p":997,"e":2,"n":1,"terms":[{"coef":[0,0],"forms":[[[1,0]]]}]}',
     "terms[0] constant must be nonzero"),
    (["chain"], '{"p":997,"e":2,"n":1,"terms":[]}', "a circuit needs at least one term"),
    (["doubling", "--lists"],
     '{"p":997,"e":2,"n":2,"U":[[[1,0],[0,0]]],"V":[[[1,0],[0,0]]],"ideals":[[[[0,0],[0,0]]]]}',
     "every form of ideals[0] must be nonzero"),
], ids=["check", "chain", "doubling", "doubling-zero-form", "doubling-zero-form-ext",
        "check-e-negative", "check-zero-form", "check-zero-coef", "chain-no-terms",
        "doubling-zero-generator"])
def test_loader_checks_the_body_before_building_the_field(argv, text, message, tmp_path,
                                                          capsys, monkeypatch):
    path = tmp_path / "bad.json"
    path.write_text(text)
    refuse_field_work(monkeypatch)
    code, out, err = run_cli([*argv, str(path)], capsys)
    assert (code, out) == (2, "")
    assert message in err


# extension-field stdout pinned before elements became packed ints; inputs
# come from bench/instances.py's own field arithmetic, independent of sps
def _square_identity(bench, p, e, coef_is_generator=False):
    """(x + a y)(x - a y) - x^2 + a^2 y^2 over GF(p^e), a the generator, with
    x, y densified by a seeded change of variables; degree 2, so |F| > 2d.
    With coef_is_generator the first term is scaled by a: not an identity."""
    F = bench.GF(p, e)
    a = (0, 1) + (0,) * (e - 2)
    j = F.to_json
    obj = {"p": p, "e": e, "n": 2, "terms": [
        {"coef": j(a if coef_is_generator else F.one),
         "forms": [[j(F.one), j(a)], [j(F.one), j(F.neg(a))]]},
        {"coef": j(F.neg(F.one)), "forms": [[j(F.one), j(F.zero)]] * 2},
        {"coef": j(F.mul(a, a)), "forms": [[j(F.zero), j(F.one)]] * 2},
    ]}
    return bench.change_variables(obj, random.Random(1))


PINNED_EXTENSION_CHECKS = {
    # name: (d, digest, e, p, zero)
    "vp-2^3": (7, "acb305643c8692be", 3, 2, True),
    "vp-3^2": (8, "c2a3092db14d0ae9", 2, 3, True),
    "sq-2^3": (2, "28648797386d333b", 3, 2, True),
    "sq-3^2": (2, "19b949184ee8b924", 2, 3, True),
    "sq-2^3-scaled": (2, "a5d9fd8f2842af56", 3, 2, False),
    "sq-3^2-scaled": (2, "22b8590b2c3ad322", 2, 3, False),
}
PINNED_CHAIN_VP_2_3 = (
    '{"Q":[1,2],"V_q_sizes":{"1":7,"2":7},"external":false,"green_rank":1,'
    '"ideal":[[[0,0,1],[1,1,0]]],"round":1,"type":1}\n'
    '{"Q":[1,2],"V_q_sizes":{"1":0,"2":0},"external":true,"green_rank":2,'
    '"ideal":[[[1,0,0],[0,1,1]]],"round":2,"type":3}\n'
    '{"N1":1,"N2":0,"N3":1,"bound":19.42206476617281,"command":"chain","d":7,'
    '"digest":"acb305643c8692be","k":3,"m":2,"n":2,"ok":true,"rank":2}\n'
)
PINNED_CHAIN_VP_3_2 = (
    '{"Q":[1,2],"V_q_sizes":{"1":8,"2":8},"external":false,"green_rank":1,'
    '"ideal":[[[0,2],[2,2]]],"round":1,"type":1}\n'
    '{"Q":[1,2],"V_q_sizes":{"1":0,"2":0},"external":true,"green_rank":2,'
    '"ideal":[[[2,1],[1,2]]],"round":2,"type":3}\n'
    '{"N1":1,"N2":0,"N3":1,"bound":20,"command":"chain","d":8,'
    '"digest":"c2a3092db14d0ae9","k":3,"m":2,"n":2,"ok":true,"rank":2}\n'
)


def _extension_objs(bench) -> dict:
    """The circuits of PINNED_EXTENSION_CHECKS, by name, as JSON objects."""
    objs = {}
    for p, e in ((2, 3), (3, 2)):
        objs[f"vp-{p}^{e}"] = bench.change_variables(bench.vanishing_identity(p, e),
                                                     random.Random(1))
        objs[f"sq-{p}^{e}"] = _square_identity(bench, p, e)
        objs[f"sq-{p}^{e}-scaled"] = _square_identity(bench, p, e, coef_is_generator=True)
    return objs


def test_stdout_bytes_pinned_on_extension_fields(tmp_path, capsys):
    bench = load_bench("instances")
    objs = _extension_objs(bench)
    for name, (d, digest, e, p, zero) in PINNED_EXTENSION_CHECKS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(bench.canon(objs[name]))
        expected = (
            f'{{"command":"check","d":{d},"digest":"{digest}","e":{e},"k":3,'
            f'"minimal":true,"mode":"exact","n":2,"p":{p},"rank":2,"seed":0,'
            f'"simple":true,"zero":{str(zero).lower()}}}\n'
        )
        assert run_cli(["check", str(path), "--exact"], capsys)[:2] == (0, expected)
        auto = expected.replace('"mode":"exact"', '"mode":"auto"')
        assert run_cli(["check", str(path)], capsys)[:2] == (0, auto)
        argv = ["check", str(path), "--random", "--trials", "20", "--seed", "3"]
        if name.startswith("vp"):  # |F| <= 2d and no extension-field lift
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, "") and "cannot lift" in err
        else:
            rand = expected.replace('"mode":"exact"', '"mode":"random"')
            assert run_cli(argv, capsys)[:2] == (0, rand.replace('"seed":0', '"seed":3'))
    for name, expected in (("vp-2^3", PINNED_CHAIN_VP_2_3), ("vp-3^2", PINNED_CHAIN_VP_3_2)):
        path = str(tmp_path / f"{name}.json")
        assert run_cli(["chain", path, "--trace"], capsys)[:2] == (0, expected)


def _verdicts(oracle, circuit):
    """(zero, minimal) under the oracle, or None where it refuses."""
    try:
        values = oracle.term_values(circuit)
    except sps.circuit.OracleRefusalError:
        return None
    return values.is_zero(), values.is_minimal()


def test_auto_answers_whatever_one_mode_answers(tmp_path, capsys, monkeypatch):
    # the vanishing-product identity over GF(3^2) and GF(2^3) joined twice
    # (bounds 593,775 and 328,900: over auto_budget, within EXPANSION_BUDGET,
    # and random cannot lift them), PINNED_EXTENSION_CHECKS, and seeded
    # circuits over five fields with degrees up to 6, so random cannot lift
    # GF(2^3) or GF(3^2) at the top degrees; auto_budget 0 sends every circuit
    # past auto's first rung
    bench = load_bench("instances")
    joins = {f"vp-{p}^{e}-j2": bench.change_variables(bench.joined_identity(sps, p, e, 2),
                                                      random.Random(1))
             for p, e in ((3, 2), (2, 3))}
    corpus = [loads_circuit(bench.canon(obj))
              for obj in [*joins.values(), *_extension_objs(bench).values()]]
    rng = random.Random(20)
    for field in map(field_make, (2, 5, 7, 2, 3), (1, 1, 1, 3, 2)):
        for _ in range(6):
            n, d = rng.randrange(2, 4), rng.randrange(1, 7)
            pairs = [random_pair_identity(rng, field, n, d) for _ in range(2)]
            corpus += [random_circuit(rng, field, n, rng.randrange(2, 5), d, any_element=True),
                       planted_triple(rng, field, n, d),
                       Circuit(field, n, pairs[0].terms + pairs[1].terms)]
    fallbacks, seen = 0, set()
    for budget in (ZeroOracle.auto_budget, 0):
        monkeypatch.setattr(ZeroOracle, "auto_budget", budget)
        for seed, c in enumerate(corpus):
            exact = _verdicts(ZeroOracle("exact"), c)
            rand = _verdicts(ZeroOracle("random", seed=seed), c)
            answered = {exact, rand} - {None}
            assert len(answered) <= 1, c  # the modes that answer agree
            auto = _verdicts(ZeroOracle(seed=seed), c)
            assert auto == (answered.pop() if answered else None), c
            fallbacks += rand is None and exact is not None
            seen.add(auto)
    assert fallbacks >= 20 and {(True, True), (True, False), (False, True)} <= seen
    for name, obj in joins.items():
        path = tmp_path / f"{name}.json"
        path.write_text(bench.canon(obj))
        code, out, _ = run_cli(["check", str(path), "--exact"], capsys)
        auto = out.replace('"mode":"exact"', '"mode":"auto"')
        assert code == 0 and run_cli(["check", str(path)], capsys)[:2] == (0, auto)
        assert run_cli(["chain", str(path)], capsys)[0] == 0


# check --exact on vanishing-product identities joined on fresh variables,
# after a seeded change of variables: (p, e, joins) -> (digest16 of stdout,
# summed monomials of the expanded terms). The stdout is what the expansion
# over echelon rows printed, whose terms held 256,642, 43,491, 49,709 and
# 101,484 monomials; over the circuit's own forms a term is a product of
# per-block expansions.
PINNED_EXACT_JOINED = {
    (5, 1, 3): ("c0668ca302f77d1f", 2066),
    (7, 1, 2): ("c0e46108c830bf32", 1058),
    (2, 3, 2): ("c020c095fadc28c0", 1912),
    (3, 2, 2): ("de8ee53d392233c2", 1990),
}


@pytest.mark.parametrize("p, e, joins", PINNED_EXACT_JOINED)
def test_check_exact_on_joined_identities_bytes_and_work_pinned(p, e, joins, tmp_path,
                                                               capsys):
    bench = load_bench("instances")
    rng = random.Random(f"exact-pin:{p}^{e}-j{joins}")
    text = bench.canon(bench.change_variables(bench.joined_identity(sps, p, e, joins), rng))
    path = tmp_path / "joined.json"
    path.write_text(text)
    code, out, _ = run_cli(["check", str(path), "--exact"], capsys)
    digest, monomials = PINNED_EXACT_JOINED[p, e, joins]
    assert (code, bench.digest16(out)) == (0, digest)
    assert json.loads(out)["zero"] is True
    assert sum(map(len, sps.circuit._expand_terms(loads_circuit(text)))) == monomials


def test_joined_extension_identity_bytes_pinned():
    bench = load_bench("instances")
    base = loads_circuit(bench.canon(bench.vanishing_identity(3, 2)))
    text = dumps_circuit(gen_joined(base, base))
    assert bench.digest16(text) == "8ec93ed73cb698a0"
    assert text.startswith('{"e":2,"n":4,"p":3,"terms":[{"coef":[1,0],"forms":'
                           '[[[1,0],[0,2],[0,0],[0,0]],[[1,0],[0,1],[0,0],[0,0]],')


_DEEP = "[" * 200_000 + "]" * 200_000
_DEEP_TERMS = '{"e":1,"n":1,"p":2,"terms":' + "[" * 50_000 + "]" * 50_000 + "}"


@pytest.mark.parametrize("payload", [_DEEP, _DEEP_TERMS], ids=["array", "terms"])
@pytest.mark.parametrize("argv", [["check"], ["chain"], ["match", "--ideal", "1"]],
                         ids=lambda argv: argv[0])
def test_deeply_nested_json_on_stdin_exits_2(argv, payload):
    run = subprocess.run([sys.executable, "-m", "sps", *argv], input=payload,
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (2, "")
    assert "error:" in run.stderr and "Traceback" not in run.stderr


@pytest.mark.parametrize("payload", [
    _DEEP,
    '{"p":5,"n":1,"U":' + "[" * 50_000 + "]" * 50_000 + ',"V":[],"ideals":[]}',
], ids=["array", "U"])
def test_deeply_nested_doubling_lists_exit_2(payload, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(payload)
    run = subprocess.run([sys.executable, "-m", "sps", "doubling", "--lists", str(path)],
                         capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (2, "")
    assert "error:" in run.stderr and "Traceback" not in run.stderr


@pytest.mark.parametrize("mode", [[], ["--exact"]], ids=["auto", "exact"])
def test_check_builds_one_form_basis(mode, tmp_path, capsys, monkeypatch):
    path = _gen_file(tmp_path, capsys, ["ks", "--r", "6"], "ks6.json")
    builds = []
    from_vectors = SpanBasis.from_vectors.__func__

    def counted(cls, *args):
        builds.append(args)
        return from_vectors(cls, *args)

    monkeypatch.setattr(SpanBasis, "from_vectors", classmethod(counted))
    code, out, _ = run_cli(["check", *mode, path], capsys)
    assert code == 0 and json.loads(out)["zero"] is True
    assert len(builds) == 1  # shared by the cost bound, the expansion and the rank


_KS2 = '{"e":1,"n":2,"p":2,"terms":[{"coef":1,"forms":[[1,0]]},{"coef":1,"forms":[[1,1]]}]}'


@pytest.mark.parametrize("argv, text, message", [
    (["check"], _KS2.replace("[[1,0]]", "[5]"), 'terms[0]["forms"] must be an array of arrays'),
    (["check"], _KS2.replace("[[1,1]]", '"ab"'), 'terms[1]["forms"] must be an array of arrays'),
    (["chain"], '{"e":1,"n":2,"p":2,"terms":{"a":1}}', '"terms" must be an array'),
    (["match", "--ideal", "1,0"], _KS2.replace('{"coef":1,"forms":[[1,1]]}', "7"),
     'terms[1] must be an object with "coef" and "forms"'),
    (["check"], '{"e":1,"n":2,"p":2,"terms":[{"forms":[]}]}',
     'terms[0] must be an object with "coef" and "forms"'),
    (["check"], "[1]", "the input must be a JSON object"),
    (["doubling", "--lists"], "[1]", "the input must be a JSON object"),
    (["doubling", "--lists"], '{"p":5,"n":2,"U":5,"V":[],"ideals":[]}',
     '"U" must be an array of arrays'),
    (["doubling", "--lists"], '{"p":5,"n":2,"U":[[1,0]],"V":[[1,0]],"ideals":3}',
     '"ideals" must be an array'),
    (["doubling", "--lists"], '{"p":5,"n":2,"U":[[1,0]],"V":[[1,0]],"ideals":[[1,0]]}',
     "ideals[0] must be an array of arrays"),
], ids=["forms-int", "forms-string", "terms-object", "term-int", "term-no-coef",
        "check-array", "doubling-array", "U-int", "ideals-int", "ideal-vector"])
def test_malformed_structure_is_named_not_leaked(argv, text, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli([*argv, str(path)], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# GF(3^2) and GF(2^3) bodies with one fault in the second form of the second
# term; the whole-array check of the loader fails on each, and the element
# loop names the first bad element as it always did
_EXT_BODIES = {
    (3, 2): {"p": 3, "e": 2, "n": 2, "terms": [
        {"coef": [1, 0], "forms": [[[1, 0], [0, 1]], [[2, 1], [1, 1]]]},
        {"coef": [2, 0], "forms": [[[0, 1], [1, 0]], [[1, 2], [2, 0]]]}]},
    (2, 3): {"p": 2, "e": 3, "n": 2, "terms": [
        {"coef": [1, 0, 0], "forms": [[[1, 0, 0], [0, 1, 0]], [[1, 1, 0], [0, 0, 1]]]},
        {"coef": [1, 0, 0], "forms": [[[0, 1, 1], [1, 0, 0]], [[1, 0, 1], [1, 1, 1]]]}]},
}
_DIGITS = "extension element coefficients out of range"
_EXT_FAULTS = {  # name: (edit of the faulty form, message without "length-e")
    "bool-digit": (lambda f, p, e: f[0].__setitem__(0, True), _DIGITS),
    "float-digit": (lambda f, p, e: f[0].__setitem__(0, 1.0), _DIGITS),
    "digit-p": (lambda f, p, e: f[1].__setitem__(e - 1, p), _DIGITS),
    "negative-digit": (lambda f, p, e: f[1].__setitem__(0, -1), _DIGITS),
    "digit-count": (lambda f, p, e: f[0].append(0), None),
    "short-element": (lambda f, p, e: f[0].pop(), None),
    "int-element": (lambda f, p, e: f.__setitem__(1, 1), None),
    "form-length": (lambda f, p, e: f.append([1] + [0] * (e - 1)),
                    "form has 3 coordinates, expected 2"),
    "zero-form": (lambda f, p, e: f.__setitem__(slice(None), [[0] * e] * 2),
                  'every form of terms[1]["forms"] must be nonzero'),
    # two faults: the element loop names the first, a digit count
    "two-faults": (lambda f, p, e: f.__setitem__(slice(None), [[1] * (e + 1), [p] * e]), None),
}


@pytest.mark.parametrize("p, e", _EXT_BODIES, ids=["3^2", "2^3"])
@pytest.mark.parametrize("fault", _EXT_FAULTS)
def test_malformed_extension_bodies_exit_2_with_the_element_message(fault, p, e, tmp_path,
                                                                    capsys):
    text = json.dumps(_EXT_BODIES[p, e])
    assert loads_circuit(text).k == 2  # the body as given loads
    obj = json.loads(text)
    edit, message = _EXT_FAULTS[fault]
    edit(obj["terms"][1]["forms"][1], p, e)
    message = message or f"extension elements serialize as length-{e} arrays"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["check", str(path), "--exact"], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")



# a GF(5) body with one fault in the second form of the second term; the
# whole-array check fails on each, and the element pass names the element
_PRIME_BODY = {"p": 5, "e": 1, "n": 2, "terms": [
    {"coef": 1, "forms": [[1, 2], [3, 4]]}, {"coef": 4, "forms": [[2, 0], [1, 1]]}]}
_INTS = "prime-field elements serialize as ints"
_PRIME_FAULTS = {  # name: (edit of the faulty form, message)
    "short-vector": (lambda f: f.pop(), "form has 1 coordinates, expected 2"),
    "bool": (lambda f: f.__setitem__(0, True), _INTS),
    "float": (lambda f: f.__setitem__(0, 1.0), _INTS),
    "list": (lambda f: f.__setitem__(1, [1]), _INTS),
    "negative": (lambda f: f.__setitem__(1, -1), "element -1 out of range [0, 5)"),
    "element-p": (lambda f: f.__setitem__(0, 5), "element 5 out of range [0, 5)"),
}


@pytest.mark.parametrize("fault", _PRIME_FAULTS)
def test_malformed_prime_bodies_exit_2_with_the_element_message(fault, tmp_path, capsys):
    text = json.dumps(_PRIME_BODY)
    assert loads_circuit(text).k == 2  # the body as given loads
    obj = json.loads(text)
    edit, message = _PRIME_FAULTS[fault]
    edit(obj["terms"][1]["forms"][1])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["check", str(path), "--exact"], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# -- the digest: hashed from the input text when it is the canonical dump --

def _stdin_digest(text):
    """The digest check, chain and match report for text read from stdin."""
    with mock.patch("sys.stdin", io.StringIO(text)):
        return _load_circuit("-")[1]


def _reencoded_digest(text):
    return _digest(dumps_circuit(loads_circuit(text)))


def _spaced(draw, text):
    i = draw(st.sampled_from([i + 1 for i, ch in enumerate(text) if ch in ",:[{"]))
    return text[:i] + draw(st.sampled_from([" ", "\t", "\n", "\r\n"])) + text[i:]


def _escaped(draw, text):
    key = draw(st.sampled_from(["e", "n", "p", "terms", "coef", "forms"]))
    return text.replace(f'"{key}"', f'"\\u{ord(key[0]):04x}{key[1:]}"', 1)


def _signed(draw, text):
    zeros = [m.start() for m in re.finditer(r"(?<=[\[,])0(?=[,\]])", text)]
    assume(zeros)
    i = draw(st.sampled_from(zeros))
    return text[:i] + "-" + text[i:]


def _reordered(draw, text):
    obj = json.loads(text)
    top = draw(st.permutations(list(obj)))
    orders = [draw(st.permutations(list(t))) for t in obj["terms"]]
    assume(top != sorted(top) or any(order != sorted(order) for order in orders))
    terms = [{key: t[key] for key in order} for t, order in zip(obj["terms"], orders)]
    return json.dumps({key: terms if key == "terms" else obj[key] for key in top},
                      separators=(",", ":"))


def _duplicated(draw, text):
    obj = json.loads(text)
    if draw(st.booleans()):
        key = draw(st.sampled_from(["e", "n", "p"]))
        return '{"%s":%d,' % (key, obj[key]) + text[1:]
    coef = json.dumps(obj["terms"][0]["coef"], separators=(",", ":"))
    return text.replace('{"coef":', '{"coef":%s,"coef":' % coef, 1)


def _extended(draw, text):
    """An extra key, "e" in a term among them, with a value of any JSON type,
    floats among them."""
    key = draw(st.sampled_from(["e", "x", "coef", "forms2", "terms"]))
    value = draw(st.sampled_from(["1", "1.5", "1e5", "-0.0", '"s"', "[]", "{}", "null", "true"]))
    if draw(st.booleans()):
        return text.replace('{"coef":', '{"%s":%s,"coef":' % (key, value), 1)
    assume(key not in ("e", "terms"))  # a header key again is _duplicated's
    return text[:-1] + ',"%s":%s}' % (key, value)


_MUTATIONS = [_spaced, _escaped, _signed, _reordered, _duplicated, _extended]


@st.composite
def _near_canonical_texts(draw):
    """A random circuit's canonical dump over GF(2), GF(5) or GF(3^2), most
    with one of the mutations the canonical test refuses, then maybe one
    final newline."""
    field = draw(st.sampled_from([field_make(2), field_make(5), field_make(3, 2)]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n, k, d = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    text = dumps_circuit(random_circuit(rng, field, n, k, d))
    mutation = draw(st.sampled_from([None, *_MUTATIONS]))
    if mutation is not None:
        text = mutation(draw, text)
    return text + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(_near_canonical_texts())
def test_digest_of_near_canonical_texts_is_that_of_the_canonical_dump(text):
    assert _stdin_digest(text) == _reencoded_digest(text)


def test_canonical_texts_are_hashed_without_reencoding(monkeypatch):
    rng = random.Random(24)
    circuits = [gen_ks(5), random_circuit(rng, field_make(5), 3, 3, 2),
                random_circuit(rng, field_make(3, 2), 3, 3, 2)]
    calls = []
    monkeypatch.setattr(sps.circuit, "dumps_circuit", lambda c: calls.append(c) or dumps_circuit(c))
    for c in circuits:
        text = dumps_circuit(c)
        assert _stdin_digest(text) == _stdin_digest(text + "\n") == _digest(text)
    assert calls == []
    for c in circuits:  # a second final newline is not the dump: re-encoded
        text = dumps_circuit(c)
        assert _stdin_digest(text + "\n\n") == _digest(text)
    assert calls == circuits


def test_doubling_digest_is_that_of_the_canonical_lists_dump(tmp_path, capsys, monkeypatch):
    # doubling hashes its lists text as it stands when it is the canonical
    # dump in gen tight's layout; "claimed" and "verified" are checked by
    # nothing, so a 1e5 or a true there must be re-encoded, and so must a
    # canonical dump in another layout: without "e", or with an extra key
    path = tmp_path / "tight5.json"
    assert run_cli(["gen", "tight", "--s", "5", "-o", str(path)], capsys)[0] == 0
    text = path.read_text()
    obj = json.loads(text)
    claimed = '"claimed":%d' % obj["claimed"]
    dumps = sps.circuit.dumps_json
    variants = {
        "canonical": text,
        "padded": json.dumps(obj, indent=1, sort_keys=True) + "\n",
        "1e5": text.replace(claimed, '"claimed":1e5'),
        "true": text.replace(claimed, '"claimed":true'),
        "no-e": dumps({key: value for key, value in obj.items() if key != "e"}) + "\n",
        "extra-key": dumps({**obj, "x": 1}) + "\n",
    }
    assert all(variants[name] == dumps(json.loads(variants[name])) + "\n"
               for name in ("canonical", "no-e", "extra-key"))
    lists_dumps = []
    monkeypatch.setattr(sps.circuit, "dumps_json",
                        lambda o: lists_dumps.append("U" in o) or dumps(o))
    for name, variant in variants.items():
        assert variant != text or name == "canonical"
        path.write_text(variant)
        lists_dumps.clear()
        code, out, _ = run_cli(["doubling", "--lists", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["digest"] == _digest(dumps(json.loads(variant)))
        assert any(lists_dumps) == (name != "canonical")


_KS3 = dumps_circuit(gen_ks(3))


@pytest.mark.parametrize("text", [
    _KS3.replace(",", ", ", 1),
    " " + _KS3,
    _KS3.replace('"coef"', '"\\u0063oef"', 1),
    _KS3.replace("[1,0,0]", "[1,-0,0]", 1),
    _KS3.replace('{"e":1,"n":3,', '{"n":3,"e":1,', 1),
    '{"p":2,' + _KS3[1:],
    _KS3[:-1] + ',"x":1}',
    _KS3.replace('{"coef":', '{"e":1,"coef":', 1),
    _KS3[:-1] + ',"x":1.5}',
], ids=["whitespace", "leading-space", "escape", "minus-zero", "key-order", "duplicate-key",
        "extra-key", "e-in-term", "float"])
def test_each_near_canonical_class_is_reencoded(text, tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(sps.circuit, "dumps_circuit", lambda c: calls.append(c) or dumps_circuit(c))
    path = tmp_path / "ks3.json"
    path.write_text(text + "\n")
    code, out, _ = run_cli(["check", "--exact", str(path)], capsys)
    assert code == 0 and json.loads(out)["digest"] == _digest(_KS3)
    assert len(calls) == 1
