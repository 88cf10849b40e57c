import json
import subprocess
import sys

import numpy as np
import pytest

import pricebounds as pb
from pricebounds import cli, cpwa, market
from pricebounds.accp import LpContradictionError
from pricebounds.lp import ConditioningError
from pricebounds.cli import main, parse_payoff_spec, _sweep_strikes
from conftest import rng_for, random_box_instance


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    rng = rng_for(901)
    inst = random_box_instance(rng, 2, 4)
    path = tmp_path_factory.mktemp("cli") / "instance.json"
    path.write_text(json.dumps(inst.to_json_dict()))
    return str(path), inst


@pytest.fixture(scope="module")
def bad_chain_file(tmp_path_factory):
    chain = {"strikes": [1.0, 2.0],
             "call": {"bid": [0.45, 0.6], "ask": [0.5, 0.65]},
             "put": {"bid": [0.1, 0.3], "ask": [0.15, 0.35]},
             "xbar": 4.0}
    path = tmp_path_factory.mktemp("cli") / "chain.json"
    path.write_text(json.dumps(chain))
    return str(path)


def test_parse_payoff_specs():
    f = parse_payoff_spec("vanilla_call:asset=0,strike=2", 1)
    assert cpwa.evaluate(f, [5.0]) == 3.0
    g = parse_payoff_spec("call_on_max:assets=0+1,strike=1", 2)
    assert cpwa.evaluate(g, [0.0, 4.0]) == 3.0
    h = parse_payoff_spec("basket_call:weights=0.5+0.5,strike=1", 2)
    assert cpwa.evaluate(h, [2.0, 4.0]) == 2.0
    with pytest.raises(ValueError):
        parse_payoff_spec("vanilla_call:asset", 1)


def test_sweep_parsing():
    assert _sweep_strikes("1:3:1") == [1.0, 2.0, 3.0]
    assert _sweep_strikes("0:1:0.5") == [0.0, 0.5, 1.0]
    with pytest.raises(ValueError):
        _sweep_strikes("1:3")


def test_one_element_payoff_specs():
    """assets, weights and strikes are lists even with one entry, keys
    are stripped, and asset indices are integers."""
    f = parse_payoff_spec("call_on_max:assets=0,strike=5", 1)
    assert cpwa.evaluate(f, [7.0]) == 2.0
    g = parse_payoff_spec("basket_call:weights=1,strike=2", 1)
    assert cpwa.evaluate(g, [5.0]) == 3.0
    h = parse_payoff_spec("vanilla_call: asset=0, strike=2", 1)
    assert cpwa.evaluate(h, [5.0]) == 3.0
    k = parse_payoff_spec("best_of_calls:assets=1,strikes=2", 2)
    assert cpwa.evaluate(k, [9.0, 5.0]) == 3.0
    s = parse_payoff_spec("spread_call:long=1.0,short=0,strike=1", 2)
    assert cpwa.evaluate(s, [1.0, 4.0]) == 2.0


@pytest.mark.parametrize("spec", [
    "vanilla_call:asset=1.5,strike=2",  # not an integer
    "vanilla_call:asset=1,strike=2",  # out of range for d = 1
    "vanilla_call:asset=-1,strike=2",
    "call_on_max:assets=0+x,strike=2",
    "vanilla_call:asset=0,strike=1+2",  # strike is not a list
    "vanilla_call:strike=2",  # no asset
    "basket_call:strike=2"])
def test_bad_payoff_specs_raise_value_error(spec):
    with pytest.raises(ValueError):
        parse_payoff_spec(spec, 1)


def test_sweep_with_stop_below_start_is_rejected():
    assert _sweep_strikes("5:5:1") == [5.0]
    with pytest.raises(ValueError, match="start <= stop"):
        _sweep_strikes("5:1:1")


def test_one_element_spec_bounds_exit_codes(instance_file, tmp_path,
                                            capsys):
    path, _ = instance_file
    out = tmp_path / "one.csv"
    assert main(["bounds", "--instance", path,
                 "--payoff", "call_on_max:assets=0,strike=3",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[1].split(",")[-1] == "ok"
    assert main(["bounds", "--instance", path,
                 "--payoff", "vanilla_call:asset=2,strike=3"]) == 2
    assert main(["bounds", "--instance", path,
                 "--payoff", "call_on_max:assets=0,strike=3",
                 "--sweep", "5:1:1", "--out", str(out)]) == 2
    assert "start <= stop" in capsys.readouterr().err


def test_malformed_json_input_exits_2(tmp_path, capsys):
    """Each missing or ill-typed field is a usage error that names the
    field, not a traceback with exit 1."""
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    cases = [
        (["bounds", "--instance", write("d.json", {"d": 1}),
          "--payoff", "asset:asset=0"], "'domain'"),
        (["bounds", "--instance",
          write("g.json", {"d": 1, "domain": {"box": [10.0]}, "g": 5,
                           "bid": [], "ask": []}),
          "--payoff", "asset:asset=0"], "'g'"),
        (["detect", "--instance", write("list.json", [1, 2])],
         "'domain'"),
        (["detect", "--instance",
          write("nod.json", {"domain": {"halfspace": True}})], "'d'"),
        (["detect", "--chain", write("s.json", {"strikes": [1, 2]})],
         "'call.bid'"),
        (["repair", "--chain", write("s2.json", {"strikes": [1, 2]})],
         "'call.bid'"),
        (["repair", "--chain",
          write("ask.json", {"strikes": [1, 2],
                             "call": {"bid": [0.5, 0.2], "ask": "x"},
                             "put": {"bid": [0, 0], "ask": [1, 1]}})],
         "'call.ask'"),
    ]
    for argv, field in cases:
        assert main(argv) == 2, argv
        assert field in capsys.readouterr().err, argv


def test_bounds_csv(instance_file, tmp_path):
    path, inst = instance_file
    out = tmp_path / "bounds.csv"
    code = main(["bounds", "--instance", path,
                 "--payoff", "call_on_max:assets=0+1,strike=3",
                 "--algo", "both", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[:3] == ["strike", "LB", "UB"]
    assert "agreement" in header
    assert len(lines) == 3  # one row per algorithm
    for line in lines[1:]:
        cells = line.split(",")
        lb, ub = float(cells[1]), float(cells[2])
        assert lb <= ub + 1e-9
        agree = float(cells[header.index("agreement")])
        assert agree <= 2e-3 + 1e-9


def test_bounds_sweep_with_reference_quotes(instance_file, tmp_path):
    path, inst = instance_file
    out = tmp_path / "sweep.csv"
    code = main(["bounds", "--instance", path,
                 "--payoff", "vanilla_call:asset=0",
                 "--algo", "accp", "--sweep", "1:3:1",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4
    strikes = [float(l.split(",")[0]) for l in lines[1:]]
    assert strikes == [1.0, 2.0, 3.0]
    # quoted strikes get reference columns; UB non-increasing in strike
    ubs = [float(l.split(",")[2]) for l in lines[1:]]
    assert all(a >= b - 2e-3 for a, b in zip(ubs, ubs[1:]))
    for line in lines[1:]:
        cells = line.split(",")
        if cells[3]:
            k = float(cells[0])
            j = next(i for i, g in enumerate(inst.g)
                     if cpwa.to_json_dict(g) == cpwa.to_json_dict(
                         pb.vanilla_call(2, 0, k)))
            assert float(cells[3]) == pytest.approx(float(inst.bid[j]))
            assert float(cells[4]) == pytest.approx(float(inst.ask[j]))


def test_sweep_prices_and_prints_the_exact_strike(instance_file, tmp_path,
                                                  monkeypatch):
    """A swept strike is priced at the exact float, and printed with 9
    significant digits, not rounded to 6 (1.12346)."""
    path, _ = instance_file
    priced = []

    def solve_one(instance, f, **kwargs):
        priced.append(cpwa.to_json_dict(f))
        return {"ub": 1.0, "lb": 0.0, "lp_count": 0, "milp_count": 0,
                "status": "ok", "support": []}

    monkeypatch.setattr(cli, "solve_one", solve_one)
    out = tmp_path / "exact.csv"
    assert main(["bounds", "--instance", path,
                 "--payoff", "vanilla_call:asset=0,strike=9",
                 "--sweep", "1.1234567:1.1234567:1", "--out", str(out)]) == 0
    assert out.read_text().split("\n")[1].split(",")[0] == "1.1234567"
    assert priced == [cpwa.to_json_dict(pb.vanilla_call(2, 0, 1.1234567))]


@pytest.mark.parametrize("payoff", ["asset:asset=0",
                                    "best_of_calls:assets=0+1,strikes=1+2"])
def test_sweep_of_a_kind_without_a_strike_exits_2(instance_file, payoff,
                                                  capsys):
    """A sweep sets the payoff's strike; a kind without one is refused,
    not priced once per swept strike."""
    path, _ = instance_file
    assert main(["bounds", "--instance", path, "--payoff", payoff,
                 "--sweep", "1:3:1"]) == 2
    kind = payoff.partition(":")[0]
    assert "%r takes no strike" % kind in capsys.readouterr().err


def test_detect_exit_codes(instance_file, bad_chain_file, tmp_path):
    path, _ = instance_file
    assert main(["detect", "--instance", path,
                 "--out", str(tmp_path / "d1.json")]) == 0
    assert main(["detect", "--chain", bad_chain_file,
                 "--out", str(tmp_path / "d2.json")]) == 1
    strategy = json.loads((tmp_path / "d2.json").read_text())
    assert strategy["arbitrage_free"] is False
    assert strategy["cost"] < 0
    assert "strategy" in strategy


def test_repair_round_trip(bad_chain_file, tmp_path):
    out = tmp_path / "repaired.json"
    assert main(["repair", "--chain", bad_chain_file,
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    fixed = tmp_path / "chain_fixed.json"
    fixed.write_text(json.dumps(rep["chain"]))
    assert main(["detect", "--chain", str(fixed),
                 "--out", str(tmp_path / "d3.json")]) == 0
    assert sum(rep["certificate"]["probabilities"]) == pytest.approx(
        1.0, abs=1e-9)


def test_gen_market_and_measure(tmp_path):
    out = tmp_path / "mkt.json"
    assert main(["gen-market", "--preset", "random", "--d", "2",
                 "--seed", "3", "--samples", "4000",
                 "--out", str(out)]) == 0
    inst = pb.MarketInstance.from_json_dict(
        json.loads(out.read_text()))
    assert inst.dimension == 2
    assert inst.m == 22
    # different seed changes prices, same shape
    out2 = tmp_path / "mkt2.json"
    main(["gen-market", "--preset", "random", "--d", "2", "--seed",
          "4", "--samples", "4000", "--out", str(out2)])
    inst2 = pb.MarketInstance.from_json_dict(
        json.loads(out2.read_text()))
    assert inst2.m == inst.m
    assert not np.allclose(inst2.bid, inst.bid)
    # byte-identical reproduction under the same seed
    out3 = tmp_path / "mkt3.json"
    main(["gen-market", "--preset", "random", "--d", "2", "--seed",
          "3", "--samples", "4000", "--out", str(out3)])
    assert out.read_text() == out3.read_text()

    meas = tmp_path / "measure.json"
    assert main(["measure", "--instance", str(out), "--payoff",
                 "call_on_max:assets=0+1,strike=2",
                 "--epsilon", "0.01", "--out", str(meas)]) == 0
    m = json.loads(meas.read_text())
    assert sum(a["mass"] for a in m["atoms"]) == pytest.approx(
        1.0, abs=1e-9)
    assert m["value"] == pytest.approx(m["phi_lb"], abs=1e-6)


def test_usage_error_exit_code(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["bounds", "--instance", missing,
                 "--payoff", "vanilla_call:asset=0,strike=1"]) == 2


@pytest.mark.parametrize("exc", [
    RuntimeError("relaxed LP ended with status unbounded"),
    LpContradictionError("band [0, 1] is empty"),
    ConditioningError("dual simplex: certificate check failed")])
def test_solver_failure_exit_code(instance_file, monkeypatch, capsys, exc):
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, "solve_one", fail)
    path, _ = instance_file
    assert main(["bounds", "--instance", path,
                 "--payoff", "vanilla_call:asset=0,strike=1"]) == 3
    kind = ("numerical failure" if isinstance(exc, ConditioningError)
            else "solver failure")
    assert "%s: %s" % (kind, exc) in capsys.readouterr().err


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "pricebounds.cli",
                           "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen-market" in proc.stdout


def test_signed_exponents_in_payoff_specs():
    """Only list values are split on '+', and never on an exponent's
    sign."""
    f = parse_payoff_spec("vanilla_call:asset=0,strike=1e+0", 1)
    assert f.terms[0].pieces[0][1] == -1.0
    g = parse_payoff_spec("basket_call:weights=1e+0+2,strike=1", 2)
    assert g.terms[0].pieces[0][0].tolist() == [1.0, 2.0]
    with pytest.raises(ValueError, match="bad payoff parameter"):
        parse_payoff_spec("vanilla_call:asset=0,strike=1+2", 1)


def test_zero_lower_bound_is_printed_without_a_sign(tmp_path):
    """The negated payoff's upper bound is 0.0 here, and the lower bound
    is printed as 0, not -0."""
    inst = tmp_path / "one.json"
    out = tmp_path / "one.csv"
    assert main(["gen-market", "--preset", "random", "--d", "1",
                 "--samples", "2000", "--out", str(inst)]) == 0
    assert main(["bounds", "--instance", str(inst),
                 "--payoff", "call_on_max:assets=0,strike=5",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].split(",")[1] == "LB"
    assert lines[1].split(",")[1] == "0"


def test_parallel_sweep_writes_the_serial_cold_csv(tmp_path):
    """Swept strikes solved in two worker processes start cold, so the
    CSV equals the serial --no-warm-start one byte for byte: the instance
    and the payoffs reach the workers intact."""
    inst = tmp_path / "one.json"
    assert main(["gen-market", "--preset", "random", "--d", "1",
                 "--samples", "2000", "--out", str(inst)]) == 0
    sweep = ["bounds", "--instance", str(inst), "--payoff",
             "call_on_max:assets=0,strike=1", "--sweep", "1:3:1",
             "--algo", "both"]
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert main(sweep + ["--no-warm-start", "--out", str(serial)]) == 0
    assert main(sweep + ["--workers", "2", "--out", str(parallel)]) == 0
    assert len(serial.read_text().strip().split("\n")) == 7
    assert parallel.read_bytes() == serial.read_bytes()


def test_ecp_agrees_with_accp_on_the_random_two_asset_preset(tmp_path):
    """On the random two-asset preset at seed 1, ECP bounds the call on
    the max at K = 1, and both bounds agree with ACCP's within epsilon."""
    inst = tmp_path / "two.json"
    out = tmp_path / "two.csv"
    assert main(["gen-market", "--preset", "random", "--d", "2",
                 "--seed", "1", "--samples", "2000",
                 "--out", str(inst)]) == 0
    assert main(["bounds", "--instance", str(inst),
                 "--payoff", "call_on_max:assets=0+1,strike=1",
                 "--algo", "both", "--out", str(out)]) == 0
    header, ecp, accp = [line.split(",")
                         for line in out.read_text().strip().split("\n")]
    col = {name: i for i, name in enumerate(header)}
    assert [ecp[col["algorithm"]], accp[col["algorithm"]]] == ["ecp", "accp"]
    assert ecp[col["status"]] == accp[col["status"]] == "ok"
    for bound in ("LB", "UB"):
        assert abs(float(ecp[col[bound]]) - float(accp[col[bound]])) <= 1e-3
    assert float(ecp[col["LB"]]) <= float(ecp[col["UB"]])


def test_five_asset_upper_bound_takes_no_node(monkeypatch):
    """On the five-asset rung of 15 instruments (five_asset_family(1):
    the assets and the vanilla calls at K = 3 and 7) with the call on the
    max of all five at K = 3, ECP's bounds through solve_one at the CLI
    defaults solve every slack MILP without a branch-and-bound node.  The
    upper bound's slacks are short the call on the max alone, and are
    solved at their coordinatewise minimizers; the lower bound's are long
    it alone, each of its pieces on one asset, and are solved at the
    minimizers of their levels."""
    full = market.build_market(market.five_asset_family(1),
                               market.five_asset_instruments(
                                   ("assets", "vanilla")))
    idx = list(range(5)) + [5 + 10 * i + k - 1
                            for i in range(5) for k in (3, 7)]
    inst = pb.MarketInstance(dimension=5, domain=full.domain,
                             g=[full.g[j] for j in idx],
                             bid=full.bid[idx], ask=full.ask[idx])
    bounds, solve_ecp = [], cli.solve_ecp

    def recorded(*args):
        bounds.append(solve_ecp(*args))
        return bounds[-1]

    monkeypatch.setattr(cli, "solve_ecp", recorded)
    args = cli.build_parser().parse_args(
        ["bounds", "--instance", "-", "--payoff", "-"])
    r = cli.solve_one(inst, pb.call_on_max(5, list(range(5)), 3.0), "ecp",
                      args.epsilon, args.tau, args.delta, args.gamma,
                      args.zeta)
    assert r["status"] == "ok"
    up, low = bounds
    assert up.milp_count > 0 and up.milp_nodes == 0
    assert low.milp_count > 0 and low.milp_nodes == 0
