import json
import random
import subprocess
import sys
import tracemalloc

import pytest

from sps import (
    Field, SpanBasis, dumps_circuit, field_make, gen_joined, gen_ks, loads_circuit, make_circuit,
)
from sps.cli import _build_parser, main
import sps.circuit
import sps.matching
from helpers import (
    count_calls, load_bench, refuse_field_work, refuse_generator_work, refuse_oracle_work,
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
    derived, checked = [], []
    derive, check = sps.matching._derive_edge, sps.matching._check_edge

    def counted_derive(*args):
        edge = derive(*args)
        derived.append(edge)
        return edge

    def counted_check(*args):
        checked.append(args)
        return check(*args)

    monkeypatch.setattr(sps.matching, "_derive_edge", counted_derive)
    monkeypatch.setattr(sps.matching, "_check_edge", counted_check)
    code, out, _ = run_cli(["doubling", "--lists", str(lists)], capsys)
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

    def boom(circuit, oracle=None):
        raise BoundViolationError("synthetic violation")

    monkeypatch.setattr(cli, "build_chain", boom)
    code, out, err = run_cli(["chain", str(path)], capsys)
    assert code == 3
    assert json.loads(out)["ok"] is False
    assert "BOUND VIOLATION" in err


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


def test_check_exact_answers_ks7_and_refuses_ks8(tmp_path, capsys):
    ks7 = _gen_file(tmp_path, capsys, ["ks", "--r", "7"], "ks7.json")
    assert run_cli(["check", ks7, "--exact"], capsys)[:2] == (0, PINNED_CHECK_KS7)
    ks8 = _gen_file(tmp_path, capsys, ["ks", "--r", "8"], "ks8.json")
    code, out, err = run_cli(["check", ks8, "--exact"], capsys)
    assert (code, out) == (2, "")
    assert "exact expansion bound" in err


def test_check_reads_both_verdicts_off_one_set_of_term_values(tmp_path, capsys,
                                                               monkeypatch):
    # gen counter --which nonminimal: k = 4, zero, with a vanishing pair
    path = _gen_file(tmp_path, capsys, ["counter", "--d", "2", "--which", "nonminimal"],
                     "nonminimal.json")
    expansions = count_calls(monkeypatch, "_expand_terms")
    assert run_cli(["check", path, "--exact"], capsys)[:2] == (0, PINNED_CHECK_NONMINIMAL_D2)
    assert len(expansions) == 1
    # zero needs all 40 trials; each is evaluated once, whatever the subsets
    trials = count_calls(monkeypatch, "_term_values")
    code, out, _ = run_cli(["check", path, "--random", "--trials", "40", "--seed", "7"],
                           capsys)
    assert code == 0 and json.loads(out)["minimal"] is False
    states = [rng.getstate() for _, _, rng in trials]
    assert len(states) == 40 and len(set(states)) == 40


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
    trials = count_calls(monkeypatch, "_term_values")
    for gen_argv, expected in PINNED_CHECK_RANDOM.items():
        path = _gen_file(tmp_path, capsys, list(gen_argv), "c.json")
        built.clear()
        trials.clear()
        argv = ["check", path, "--random", "--trials", "40", "--seed", "7"]
        assert run_cli(argv, capsys)[:2] == (0, expected)
        # the zero verdict and every minimality subset read one plan's trials
        assert len(built) == 1 and len(trials) == 40
        assert all(plan is built[0] for plan, _, _ in trials)


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


# GF(997^2)'s log, antilog and Zech tables take seconds to build
_LENGTH_2 = "extension elements serialize as length-2 arrays"


@pytest.mark.parametrize("argv, text, message", [
    (["check"], '{"p":997,"e":2,"n":1,"terms":[{"coef":"x","forms":[]}]}', _LENGTH_2),
    (["chain"], '{"p":997,"e":2,"n":1,"terms":[{"coef":[1,0],"forms":[[5]]}]}', _LENGTH_2),
    (["doubling", "--lists"], '{"p":997,"e":2,"n":1,"U":[[[1,0]]],"V":[[7]],"ideals":[]}',
     _LENGTH_2),
    (["check"], '{"p":997,"e":-1,"n":1,"terms":[{"coef":[],"forms":[]}]}',
     "extension degree must be >= 1, got -1"),
], ids=["check", "chain", "doubling", "check-e-negative"])
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


def test_stdout_bytes_pinned_on_extension_fields(tmp_path, capsys):
    bench = load_bench("instances")
    objs = {}
    for p, e in ((2, 3), (3, 2)):
        objs[f"vp-{p}^{e}"] = bench.change_variables(bench.vanishing_identity(p, e),
                                                     random.Random(1))
        objs[f"sq-{p}^{e}"] = _square_identity(bench, p, e)
        objs[f"sq-{p}^{e}-scaled"] = _square_identity(bench, p, e, coef_is_generator=True)
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
