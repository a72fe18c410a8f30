import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cpgates
from cpgates.analysis import band_report, sequence_fidelity, tolerance_band
from cpgates import catalog, cli, iontrap
from cpgates.errors import ValidationError
from cpgates.cli import build_parser, main
from cpgates.seqio import read_sequence


def run(argv, capsys=None):
    return main(argv)


def test_catalog_entry_and_scan_round_trip(tmp_path, capsys):
    seq_path = tmp_path / "bb2.csv"
    assert main(["catalog", "--entry", "bb2", "--out", str(seq_path)]) == 0
    seq = read_sequence(seq_path)
    assert len(seq.gates) == 4
    out = tmp_path / "scan.csv"
    argv = ["scan", "--seq", str(seq_path), "--min", "-1", "--max", "1",
            "--steps", "201", "--out", str(out)]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "epsilon,fidelity,infidelity"
    assert len(lines) == 202
    mid = lines[101].split(",")
    assert abs(float(mid[0])) < 1e-12
    assert abs(float(mid[1]) - 1.0) < 1e-12


def test_byte_identical_outputs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    seq_path = tmp_path / "bb1.csv"
    main(["catalog", "--entry", "bb1", "--out", str(seq_path)])
    for path in (a, b):
        assert main(["scan", "--seq", str(seq_path), "--min", "-0.5", "--max", "0.5",
                     "--steps", "101", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        rc = main(["solve", "--family", "bb", "--order", "1",
                   "--theta-over-pi", "0.25", "--seed", "7", "--out", str(path)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_writes_log(tmp_path):
    out = tmp_path / "seq.csv"
    log = tmp_path / "solve.log"
    rc = main(["solve", "--family", "bb", "--order", "2", "--seed", "3",
               "--out", str(out), "--log", str(log)])
    assert rc == 0
    lines = log.read_text().splitlines()
    assert any(ln.startswith("restart=") and " iters=" in ln and " D=" in ln for ln in lines)
    # the three-gate stage is below rank 4 and is not built, so the log
    # starts at five gates; every stage has one stop-count line; the
    # sequence output does not change
    assert lines[0] == "stage gates=5 shape='half-pi chain' unknowns=4"
    assert sum(ln.startswith("stage-end ") for ln in lines) == sum(
        ln.startswith("stage gates=") for ln in lines)
    plain = tmp_path / "plain.csv"
    assert main(["solve", "--family", "bb", "--order", "2", "--seed", "3",
                 "--out", str(plain)]) == 0
    assert plain.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("orders", [["--family", "pb", "--order", "4", "--order2", "4"],
                                    ["--family", "bb", "--order", "-1"]],
                         ids=["below-rank", "negative"])
def test_solve_failing_validation_writes_no_log(tmp_path, orders):
    out, log = tmp_path / "x.csv", tmp_path / "x.log"
    assert main(["solve", *orders, "--log", str(log), "--out", str(out)]) == 1
    assert not out.exists() and not log.exists()


@pytest.mark.parametrize("order, order2, rank", [("4", "4", 13), ("2", "4", 10)])
def test_solve_with_every_stage_below_rank_exits_at_once(tmp_path, capsys, order, order2, rank):
    out = tmp_path / "x.csv"
    argv = ["solve", "--family", "pb", "--order", order, "--order2", order2, "--out", str(out)]
    t0 = time.perf_counter()
    # no stage reaches the rank: a validation error before any search
    assert main(argv) == 1
    assert time.perf_counter() - t0 < 1.0
    assert not out.exists()
    err = capsys.readouterr().err
    assert re.search(rf"error: PB\({order},{order2}\) has no ladder stage at the rank of its "
                     rf"residual conditions: the largest, 9 gates \(half-pi chain\), has 8 "
                     rf"unknowns and needs rank {rank}$", err, re.M)


def test_solve_nonconvergence_exit_code(tmp_path):
    # an impossible budget forces the non-convergence path
    rc = main(["solve", "--family", "bb", "--order", "3", "--seed", "0",
               "--stage-restarts", "1", "--max-iters", "2",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_band_and_order_reports(tmp_path, capsys):
    seq_path = tmp_path / "bb2.csv"
    main(["catalog", "--entry", "bb2", "--out", str(seq_path)])
    assert main(["band", "--seq", str(seq_path)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("band_low=")
    assert main(["order", "--seq", str(seq_path), "--wmin", "5e-3", "--wmax", "3e-2"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("order=")
    assert abs(float(text.split("=")[1]) - 6.0) < 0.3


def test_wrap_abs_doubles_gate_count(tmp_path):
    src = tmp_path / "bb1.csv"
    dst = tmp_path / "bb1_abs.csv"
    main(["catalog", "--entry", "bb1", "--out", str(src)])
    assert main(["wrap-abs", "--seq", str(src), "--out", str(dst)]) == 0
    wrapped = read_sequence(dst)
    assert len(wrapped.gates) == 6
    assert wrapped.family == "combined"


def test_validation_error_exit_code(tmp_path, capsys):
    assert main(["catalog", "--entry", "bb9"]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header,here\n")
    assert main(["band", "--seq", str(bad)]) == 1


def test_catalog_dump_has_source_column(capsys):
    assert main(["catalog", "--table", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "index,theta_over_pi,phi_over_pi,source"
    assert any("broadband n=3" in ln for ln in out)


#: ``catalog --table all`` stdout and ``catalog --entry`` bytes of every
#: entry at pi/4 and of the closed forms at 0.3*pi, keyed by the argv
#: joined by spaces; captured before the entries moved into one table per
#: phase form, and for the six tabulated entries again when the table
#: began to hold their refined phases.
GOLDEN_CATALOG = json.loads((Path(__file__).parent / "golden" / "catalog.json").read_text())


def test_catalog_outputs_match_golden(tmp_path, capsys):
    for key, expected in GOLDEN_CATALOG.items():
        argv = key.split()
        if "--entry" in argv:
            out = tmp_path / "entry.csv"
            assert main(argv + ["--out", str(out)]) == 0, key
            assert out.read_bytes() == expected.encode(), key
        else:
            capsys.readouterr()
            assert main(argv) == 0
            assert capsys.readouterr().out == expected
    names = [k.split()[2] for k in GOLDEN_CATALOG if k.startswith("catalog --entry")]
    assert len(set(names)) == 13


def test_verify_catalog_passes(capsys):
    assert main(["verify", "--catalog", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count("OK") == 12


#: stdout lines of ``verify --bands`` at pi/4, Table 1 then Table 2, and
#: the ``band --out`` bytes of ``catalog --entry bb2``: golden outputs of
#: the one-point march and bisection the batched search must reproduce,
#: and of the residual and fidelity checks beside them.
GOLDEN_VERIFY_BANDS = [
    "broadband n=1: gates=3 total_angle=1.25pi max_scaled_residual=2.356e-16 fidelity=1.000000000000 band=[-0.1090,+0.1090]  OK",
    "broadband n=2: gates=4 total_angle=2.25pi max_scaled_residual=3.143e-16 fidelity=1.000000000000 band=[-0.2203,+0.2203]  OK",
    "broadband n=3: gates=7 total_angle=3.25pi max_scaled_residual=3.347e-16 fidelity=1.000000000000 band=[-0.3022,+0.3022]  OK",
    "broadband n=4: gates=8 total_angle=3.75pi max_scaled_residual=2.926e-15 fidelity=1.000000000000 band=[-0.3664,+0.3664]  OK",
    "broadband n=5: gates=10 total_angle=4.75pi max_scaled_residual=5.213e-16 fidelity=1.000000000000 band=[-0.4144,+0.4144]  OK",
    "broadband n=6: gates=12 total_angle=5.75pi max_scaled_residual=1.350e-15 fidelity=1.000000000000 band=[-0.4536,+0.4536]  OK",
    "passband n1=1 n2=1: gates=3 total_angle=2.25pi max_scaled_residual=2.692e-16 fidelity=1.000000000000 band=[-0.0763,+0.0763]  OK",
    "passband n1=2 n2=1: gates=7 total_angle=3.25pi max_scaled_residual=8.309e-16 fidelity=1.000000000000 band=[-0.1532,+0.1532]  OK",
    "passband n1=1 n2=2: gates=7 total_angle=3.25pi max_scaled_residual=5.188e-16 fidelity=1.000000000000 band=[-0.0642,+0.0642]  OK",
    "passband n1=2 n2=2: gates=5 total_angle=4.25pi max_scaled_residual=1.808e-16 fidelity=1.000000000000 band=[-0.1412,+0.1412]  OK",
    "passband n1=1 n2=3: gates=9 total_angle=4.25pi max_scaled_residual=1.567e-15 fidelity=1.000000000000 band=[-0.0556,+0.0556]  OK",
    "passband n1=3 n2=3: gates=6 total_angle=5.75pi max_scaled_residual=2.773e-16 fidelity=1.000000000000 band=[-0.1808,+0.1808]  OK",
]
GOLDEN_BB2_BAND = b"band_low=-0.22034375000000017 band_high=0.22034375000000017 threshold=0.0001\n"


def test_band_outputs_match_golden(tmp_path, capsys):
    assert main(["verify", "--bands"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == GOLDEN_VERIFY_BANDS
    seq_path, band_path = tmp_path / "bb2.csv", tmp_path / "band.txt"
    assert main(["catalog", "--entry", "bb2", "--out", str(seq_path)]) == 0
    assert main(["band", "--seq", str(seq_path), "--out", str(band_path)]) == 0
    assert band_path.read_bytes() == GOLDEN_BB2_BAND


def test_iontrap_subcommand(tmp_path, capsys):
    config = tmp_path / "trap.txt"
    config.write_text(
        "g = 0.1767766952966369\ndelta = 1.0\ndelta_t = 2.0\nnmax = 25\nzeta2p = 0.25\n"
    )
    out = tmp_path / "gate.csv"
    assert main(["iontrap", "--config", str(config), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert len(lines[0].split(",")) == 8
    assert lines[4].startswith("leakage=")
    assert "fidelity=" in lines[4]
    fid = float(lines[4].split("fidelity=")[1])
    assert fid >= 1 - 1e-6


def test_every_subcommand_documents_pi_units():
    parser = build_parser()
    # the parser epilogue documents units globally; each subparser either
    # repeats it in an option help or inherits the program description
    assert "units of pi" in parser.description
    subparsers = parser._subparsers._group_actions[0].choices
    for name, sp in subparsers.items():
        text = sp.format_help()
        assert "pi" in text, name


#: every subcommand's option strings, in the order the parser declares
#: them: adding or removing a flag is a reviewed edit of this table
OPTIONS = {
    "solve": ["--family", "--order", "--order2", "--theta-over-pi", "--seed", "--tolerance",
              "--max-iters", "--stage-restarts", "--out", "--log", "--verbose"],
    "verify": ["--catalog", "--theta-over-pi", "--bands", "--orders"],
    "scan": ["--seq", "--theta-over-pi", "--min", "--max", "--steps", "--xi", "--identity-ref",
             "--out"],
    "band": ["--seq", "--theta-over-pi", "--threshold", "--out"],
    "order": ["--seq", "--theta-over-pi", "--wmin", "--wmax", "--xi", "--out"],
    "wrap-abs": ["--seq", "--out"],
    "iontrap": ["--config", "--seq", "--eps-g", "--analytic", "--out"],
    "catalog": ["--table", "--entry", "--theta-over-pi", "--out"],
}


def test_cli_option_list_is_pinned():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    found = {
        name: [s for action in sp._actions for s in action.option_strings
               if s not in ("-h", "--help")]
        for name, sp in subparsers.items()
    }
    assert found == OPTIONS


@pytest.mark.parametrize("threshold", ["nan", "2", "1e-16"])
def test_band_rejects_invalid_threshold(tmp_path, capsys, threshold):
    seq_path = tmp_path / "single.csv"
    main(["catalog", "--entry", "single", "--out", str(seq_path)])
    capsys.readouterr()
    assert main(["band", "--seq", str(seq_path), "--threshold", threshold]) == 1
    assert capsys.readouterr().out == ""


def test_band_notes_eps_limit_on_stderr(tmp_path, capsys):
    seq_path = tmp_path / "single.csv"
    main(["catalog", "--entry", "single", "--out", str(seq_path)])
    seq = read_sequence(seq_path)
    capsys.readouterr()
    # a single gate at pi/4 never loses 90% fidelity within |eps| <= 1.5
    assert main(["band", "--seq", str(seq_path), "--threshold", "0.9"]) == 0
    captured = capsys.readouterr()
    assert captured.out == band_report(tolerance_band(seq, 0.9)) + "\n"
    notes = [ln for ln in captured.err.splitlines() if ln.startswith("note:")]
    assert len(notes) == 1 and "eps_limit" in notes[0]
    assert main(["band", "--seq", str(seq_path)]) == 0
    assert "note:" not in capsys.readouterr().err


#: arguments besides ``--seq`` of the commands that read a target angle
TARGET_COMMANDS = {
    "scan": ["--min", "-0.5", "--max", "0.5", "--steps", "11"],
    "band": [],
    "order": [],
    "iontrap": ["--config", "@trap"],
}


@pytest.mark.parametrize("command, target", [
    (command, target) for command in TARGET_COMMANDS for target in ("target,nan,", "target,inf,")
] + [(command, "--theta-over-pi nan") for command in ("scan", "band", "order")])
def test_non_finite_target_angle_exit_code(tmp_path, capsys, command, target):
    config, seq_path = tmp_path / "trap.txt", tmp_path / "bb1.csv"
    config.write_text(TRAP_CONFIG)
    main(["catalog", "--entry", "bb1", "--out", str(seq_path)])
    argv = [command, "--seq", str(seq_path)] + [
        {"@trap": str(config)}.get(a, a) for a in TARGET_COMMANDS[command]]
    if target.startswith("target"):
        rows = [ln for ln in seq_path.read_text().splitlines() if not ln.startswith("target")]
        seq_path.write_text("\n".join(rows + [target]) + "\n")
    else:
        argv += target.split()
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "target angle must be finite" in captured.err


@pytest.mark.parametrize("command", ["scan", "order"])
def test_non_finite_xi_exit_code(tmp_path, capsys, command):
    seq_path = tmp_path / "bb1.csv"
    main(["catalog", "--entry", "bb1", "--out", str(seq_path)])
    argv = [command, "--seq", str(seq_path), "--xi", "nan"]
    if command == "scan":
        argv += ["--min", "-0.5", "--max", "0.5", "--steps", "11"]
    assert main(argv) == 1


@pytest.mark.parametrize("argv, named", [
    (["scan", "--min", "0", "--max", "inf", "--steps", "5"], "eps_min=0.0, eps_max=inf"),
    (["scan", "--min", "-1e308", "--max", "1e308", "--steps", "5"],
     "eps_min=-1e+308, eps_max=1e+308"),
    (["order", "--wmax", "inf"], "lo=0.001, hi=inf"),
])
def test_non_finite_bounds_fail_before_the_grid(tmp_path, argv, named):
    # an infinite bound, or a span that overflows, is rejected before
    # numpy builds the grid, so no RuntimeWarning reaches stderr
    seq_path = tmp_path / "bb1.csv"
    main(["catalog", "--entry", "bb1", "--out", str(seq_path)])
    done = _fresh_run("import sys; from cpgates.cli import main; sys.exit(main(sys.argv[1:]))",
                      *argv, "--seq", str(seq_path))
    assert (done.returncode, done.stdout) == (1, "")
    config, error = done.stderr.splitlines()
    assert config.startswith("config: ")
    assert error.startswith("error: ") and error.endswith(named)


TRAP_CONFIG = "g = 0.1767766952966369\ndelta = 1.0\ndelta_t = 2.0\nnmax = 25\n"


@pytest.mark.parametrize("rtol", ["nan", "inf", "0", "-1", "1e-15"])
@pytest.mark.parametrize("analytic", [False, True])
def test_iontrap_rejects_invalid_rtol(tmp_path, capsys, rtol, analytic):
    # The propagation is exact to rounding, so `iontrap` has no tolerance
    # option: any --rtol is a usage error, never a value silently ignored.
    config = tmp_path / "trap.txt"
    config.write_text(TRAP_CONFIG)
    argv = ["iontrap", "--config", str(config), "--rtol", rtol]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--analytic"] * analytic)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --rtol {rtol}" in captured.err


@pytest.mark.parametrize("eps_g", ["nan", "inf", "-3", "-1.000001"])
def test_iontrap_rejects_non_finite_eps_g(tmp_path, capsys, eps_g):
    # eps_g is checked up front, in its own name, on the bare gate and on
    # --seq, also for a sequence whose gates are all idle
    config, seq_path = tmp_path / "trap.txt", tmp_path / "idle.csv"
    config.write_text(TRAP_CONFIG)
    seq_path.write_text("index,theta_over_pi,phi_over_pi\n0,0,0.5\n")
    for seq in ([], ["--seq", str(seq_path)]):
        assert main(["iontrap", "--config", str(config), "--eps-g", eps_g] + seq) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"eps_g={float(eps_g)} must be finite and >= -1" in captured.err
        if eps_g.startswith("-"):
            # the same check reads the config file's eps_g
            config.write_text(TRAP_CONFIG + f"eps_g = {eps_g}\n")
            assert main(["iontrap", "--config", str(config)] + seq) == 1
            assert f"eps_g={float(eps_g)} must be" in capsys.readouterr().err
            config.write_text(TRAP_CONFIG)


#: the iontrap workload's trap config: g/delta = 1/sqrt(32), delta*T = 2 pi
WORKLOAD_TRAP = "g=0.17677669529663687\ndelta=1\ndelta_t=2\nnmax=25\n"


@pytest.mark.parametrize("entry", ["bb6", "pb33"])
def test_iontrap_routes_print_the_same_summary(tmp_path, capsys, entry):
    # the closed form's gate is the phonon identity exactly, so its leakage
    # is 0 like the numerical route's, not rounding noise above the floor
    config, seq_path = tmp_path / "trap.txt", tmp_path / f"{entry}.csv"
    config.write_text(WORKLOAD_TRAP)
    main(["catalog", "--entry", entry, "--out", str(seq_path)])
    lines = []
    for route in ([], ["--analytic"]):
        out = tmp_path / "gate.csv"
        assert main(["iontrap", "--config", str(config), "--seq", str(seq_path),
                     "--eps-g", "0.02", "--out", str(out)] + route) == 0
        lines.append(out.read_text().splitlines()[-1])
    assert lines[0] == lines[1]
    assert lines[0].startswith("leakage=0.000000e+00 ")


@pytest.mark.parametrize("line,value", [(1, "g = abc"), (4, "nmax = 25.7"), (2, "delta = nan")])
def test_iontrap_config_error_names_the_line(tmp_path, capsys, line, value):
    lines = TRAP_CONFIG.splitlines()
    lines[line - 1] = value
    config = tmp_path / "trap.txt"
    config.write_text("\n".join(lines) + "\n")
    assert main(["iontrap", "--config", str(config), "--analytic"]) == 1
    assert f"line {line}:" in capsys.readouterr().err


def test_iontrap_seq_with_zero_coupling(tmp_path, capsys):
    config = tmp_path / "trap.txt"
    config.write_text(TRAP_CONFIG.replace("0.1767766952966369", "0"))
    seq_path = tmp_path / "single.csv"
    main(["catalog", "--entry", "single", "--out", str(seq_path)])
    capsys.readouterr()
    assert main(["iontrap", "--config", str(config), "--seq", str(seq_path)]) == 1
    assert "g > 0" in capsys.readouterr().err
    # without a gate angle to reach, g = 0 is a valid (idle) pulse
    assert main(["iontrap", "--config", str(config)]) == 0


@pytest.mark.parametrize("extra", [
    ["--tolerance", "nan"],
    ["--tolerance", "inf"],
    ["--stage-restarts", "0"],
    ["--stage-restarts", "-3"],
    ["--max-iters", "0"],
    ["--max-iters", "-1"],
    ["--seed", "-1"],
])
def test_solve_rejects_invalid_budgets(tmp_path, capsys, extra):
    out = tmp_path / "seq.csv"
    argv = ["solve", "--family", "bb", "--order", "1", "--out", str(out)]
    assert main(argv + extra) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("orders", [
    ["--family", "bb", "--order", "-1"],
    ["--family", "pb", "--order", "-2", "--order2", "1"],
    ["--family", "pb", "--order", "1", "--order2", "-1"],
])
def test_solve_rejects_negative_orders(tmp_path, capsys, orders):
    out = tmp_path / "seq.csv"
    assert main(["solve", *orders, "--out", str(out)]) == 1
    assert "must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_solve_broadband_rejects_order2(tmp_path, capsys):
    # BB orders are one integer: a passband order is an error, not dropped
    out = tmp_path / "seq.csv"
    assert main(["solve", "--family", "bb", "--order", "1", "--order2", "2",
                 "--out", str(out)]) == 1
    assert "error: broadband solves take no --order2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("family", [
    ["--family", "bb", "--order", "1"],
    ["--family", "pb", "--order", "1", "--order2", "1"],
])
@pytest.mark.parametrize("theta", ["nan", "inf"])
def test_solve_rejects_non_finite_angle(tmp_path, capfd, family, theta):
    out = tmp_path / "seq.csv"
    assert main(["solve", *family, "--theta-over-pi", theta, "--out", str(out)]) == 1
    err = capfd.readouterr().err
    assert "must be finite" in err
    assert "DLASCL" not in err  # LAPACK never sees the angle
    assert not out.exists()


#: closed-form catalog entries, their labels and the |theta|/pi their
#: phases reach
CLOSED_FORM_REACH = [
    ("bb1", "BB1", 1), ("bb2", "BB2", 2), ("pb11", "PB(1,1)", 2),
    ("pb21", "PB(2,1)", 2), ("pb12", "PB(1,2)", 2), ("pb22", "PB(2,2)", 4),
]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("entry, label, reach", CLOSED_FORM_REACH)
def test_catalog_closed_form_reach(tmp_path, capsys, entry, label, reach, sign):
    edge, beyond = tmp_path / "edge.csv", tmp_path / "beyond.csv"
    argv = ["catalog", "--entry", entry, "--theta-over-pi"]
    assert main(argv + [repr(sign * reach), "--out", str(edge)]) == 0
    assert sequence_fidelity(read_sequence(edge)) >= 1 - 1e-12
    assert main(argv + [repr(sign * reach * (1 + 1e-9)), "--out", str(beyond)]) == 1
    err = capsys.readouterr().err
    bound = "pi" if reach == 1 else f"{reach}pi"
    assert label in err and f"|theta| <= {bound}" in err
    assert not beyond.exists()


def test_verify_rejects_angle_beyond_closed_form_reach(capsys):
    assert main(["verify", "--theta-over-pi", "1.5"]) == 1
    assert "BB1 has closed-form phases only for |theta| <= pi" in capsys.readouterr().err


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(catalog.NAMES))
def test_catalog_rejects_non_finite_target(tmp_path, capsys, name, theta):
    message = f"target theta must be finite, got {float(theta)}"
    with pytest.raises(ValidationError) as err:
        catalog.by_name(name, float(theta))
    assert str(err.value) == message
    out = tmp_path / "seq.csv"
    assert main(["catalog", "--entry", name, f"--theta-over-pi={theta}", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
    assert not out.exists()


@pytest.mark.parametrize("command", ["catalog", "verify"])
def test_tables_reject_non_finite_target(capsys, command):
    assert main([command, "--theta-over-pi", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "error: target theta must be finite, got nan"


def _fresh_run(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` run in a new interpreter on this cpgates, output captured."""
    src = str(Path(cpgates.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True)


def _fresh_python(code: str, *args: str) -> str:
    """Standard output of ``code`` run in a new interpreter on this cpgates."""
    done = _fresh_run(code, *args)
    done.check_returncode()
    return done.stdout.strip()


def test_cli_import_leaves_scipy_integrate_and_optimize_unloaded():
    code = ("import sys, cpgates.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    assert _fresh_python(code) == "[]"


#: the cpgates modules that importing the CLI and building its parser load
PARSER_MODULES = ["cpgates", "cpgates.cli", "cpgates.errors"]
#: the further modules each command loads: the ones it runs, and no other
COMMAND_MODULES = {
    "catalog": (["catalog"], "catalog gates linalg seqio"),
    "catalog-entry": (["catalog", "--entry", "bb1", "--out", "@out"], "catalog gates linalg seqio"),
    "scan": (["scan", "--seq", "@seq", "--min", "-1e-3", "--max", "1e-3", "--steps", "3"],
             "analysis gates linalg seqio"),
    "band": (["band", "--seq", "@seq"], "analysis gates linalg seqio"),
    "order": (["order", "--seq", "@seq"], "analysis gates linalg seqio"),
    "wrap-abs": (["wrap-abs", "--seq", "@seq", "--out", "@out"], "abserr gates linalg seqio"),
    "verify": (["verify", "--bands"], "analysis catalog derivatives gates linalg"),
    "solve": (["solve", "--family", "bb", "--order", "1", "--out", "@out"],
              "catalog derivatives gates linalg seqio solver"),
    "iontrap-analytic": (["iontrap", "--config", "@trap", "--analytic"],
                         "analysis gates iontrap linalg seqio"),
    "iontrap-seq": (["iontrap", "--config", "@trap", "--seq", "@seq", "--out", "@out"],
                    "analysis gates iontrap linalg seqio"),
}
_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'cpgates')"


def test_parser_loads_only_the_cli_and_its_errors():
    code = f"import sys, cpgates.cli; cpgates.cli.build_parser(); print({_LOADED})"
    assert _fresh_python(code) == str(PARSER_MODULES)


@pytest.mark.parametrize("argv, modules", COMMAND_MODULES.values(), ids=COMMAND_MODULES)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, modules):
    config, seq_path = tmp_path / "trap.txt", tmp_path / "bb1.csv"
    config.write_text(TRAP_CONFIG)
    main(["catalog", "--entry", "bb1", "--out", str(seq_path)])
    paths = {"@trap": str(config), "@seq": str(seq_path), "@out": str(tmp_path / "out.csv")}
    code = f"import sys; from cpgates.cli import main; code = main(sys.argv[1:]); print(code, {_LOADED})"
    printed = _fresh_python(code, *(paths.get(a, a) for a in argv))
    expected = sorted(PARSER_MODULES + [f"cpgates.{m}" for m in modules.split()])
    assert printed.splitlines()[-1] == f"0 {expected}"


def test_bare_import_resolves_every_public_name_and_submodule():
    submodules = sorted(p.stem for p in Path(cpgates.__file__).parent.glob("*.py")
                        if p.stem != "__init__")
    code = ("import json, sys, cpgates\n"
            f"bare = {_LOADED}\n"
            "star = {}\n"
            "exec('from cpgates import *', star)\n"
            "print(json.dumps([bare, sorted(star.keys() - {'__builtins__'}),\n"
            "                  [n for n in cpgates.__all__ if star[n] is not getattr(cpgates, n)],\n"
            "                  [getattr(cpgates, m).__name__ for m in sys.argv[1:]]]))")
    bare, star, unbound, modules = json.loads(_fresh_python(code, *submodules))
    assert bare == ["cpgates"]
    assert star == sorted(cpgates.__all__)
    assert unbound == []
    assert modules == [f"cpgates.{m}" for m in submodules]
    assert not hasattr(cpgates, "no_such_name")


def test_iontrap_composite_leaves_scipy_integrate_unloaded(tmp_path):
    # the numerical route diagonalises each pulse's Hamiltonian and never
    # integrates, so scipy.integrate's import time and memory stay unpaid
    config, seq_path = tmp_path / "trap.txt", tmp_path / "bb1.csv"
    config.write_text(TRAP_CONFIG)
    main(["catalog", "--entry", "bb1", "--out", str(seq_path)])
    code = ("import sys; from cpgates.cli import main; "
            "code = main(['iontrap', '--config', sys.argv[1], '--seq', sys.argv[2], "
            "'--out', sys.argv[3]]); "
            "print(code, 'scipy.integrate' in sys.modules)")
    out = _fresh_python(code, str(config), str(seq_path), str(tmp_path / "gate.csv"))
    assert out.splitlines()[-1] == "0 False"


def test_every_command_runs_without_scipy(tmp_path):
    # the runtime needs numpy alone: in an interpreter where `import scipy`
    # fails, every subcommand, both iontrap routes among them, exits 0 and
    # leaves no scipy module loaded
    config, seq_path, out = tmp_path / "trap.txt", tmp_path / "bb1.csv", tmp_path / "out.csv"
    config.write_text(TRAP_CONFIG)
    commands = [
        ["catalog"],
        ["catalog", "--entry", "bb1", "--out", seq_path],
        ["solve", "--family", "bb", "--order", "1", "--out", out],
        ["verify"],
        ["scan", "--seq", seq_path, "--min", "-1e-3", "--max", "1e-3", "--steps", "3"],
        ["band", "--seq", seq_path],
        ["order", "--seq", seq_path],
        ["wrap-abs", "--seq", seq_path, "--out", out],
        ["iontrap", "--config", config],
        ["iontrap", "--config", config, "--seq", seq_path, "--out", out],
        ["iontrap", "--config", config, "--seq", seq_path, "--analytic", "--out", out],
    ]
    code = ("import json, sys; sys.modules['scipy'] = None; from cpgates.cli import main; "
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
            "print(codes, [m for m, v in sys.modules.items() if m.startswith('scipy') and v])")
    printed = _fresh_python(code, json.dumps([[str(a) for a in argv] for argv in commands]))
    assert printed.splitlines()[-1] == f"{[0] * len(commands)} []"


@pytest.mark.parametrize("argv", [
    ["iontrap", "--config", "@trap", "--eps-g", "-2.8e-05"],
    ["scan", "--seq", "@seq", "--min", "-1e-3", "--max", "1e-3", "--steps", "3"],
    ["band", "--seq", "@seq", "--threshold", "1e-4"],
])
def test_float_options_take_exponent_forms(tmp_path, capsys, argv):
    # argparse's stock negative-number pattern has no exponent form, so
    # "-2.8e-05" used to be read as an option flag (exit 2)
    config, seq_path = tmp_path / "trap.txt", tmp_path / "bb1.csv"
    config.write_text(TRAP_CONFIG)
    main(["catalog", "--entry", "bb1", "--out", str(seq_path)])
    paths = {"@trap": str(config), "@seq": str(seq_path)}
    assert main([paths.get(a, a) for a in argv]) == 0


def test_iontrap_noise_leakage_prints_one_value(tmp_path, capsys):
    # the analytic and the integrated BB2 gate leak only rounding noise
    # (populations of about 1e-34 and 1e-41), which prints as one value
    config, seq_path = tmp_path / "trap.txt", tmp_path / "bb2.csv"
    config.write_text(TRAP_CONFIG)
    main(["catalog", "--entry", "bb2", "--out", str(seq_path)])
    fields = []
    for route in (["--analytic"], []):
        out = tmp_path / "gate.csv"
        assert main(["iontrap", "--config", str(config), "--seq", str(seq_path),
                     "--out", str(out)] + route) == 0
        fields.append(out.read_text().splitlines()[4].split()[0])
    assert fields == ["leakage=0.000000e+00"] * 2


def test_main_reuses_one_parser_without_leaking_values(tmp_path, capsys):
    assert build_parser() is not build_parser()
    paths = [tmp_path / f"{name}.csv" for name in ("seeded", "default", "zero")]
    for path, extra in zip(paths, (["--seed", "5"], [], ["--seed", "0"])):
        assert main(["solve", "--family", "bb", "--order", "1", "--out", str(path)] + extra) == 0
    # the run after --seed 5 reads the default seed 0 again
    configs = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("config:")]
    assert [ln.split(" seed=")[1].split()[0] for ln in configs] == ["5", "0", "0"]
    assert paths[1].read_bytes() == paths[2].read_bytes()
    assert cli._shared_parser() is cli._shared_parser()


@pytest.mark.parametrize("seq", [False, True])
@pytest.mark.parametrize("analytic", [False, True])
def test_iontrap_truncation_guard_exit_code(tmp_path, capsys, seq, analytic):
    # population starting at Fock level 20 of 22 reaches the top levels
    config, seq_path = tmp_path / "trap.txt", tmp_path / "single.csv"
    config.write_text("g = 0.15\ndelta = 1.0\nt = 4.0\nnmax = 22\nfock0 = 20\n")
    main(["catalog", "--entry", "single", "--out", str(seq_path)])
    capsys.readouterr()
    argv = ["iontrap", "--config", str(config), "--out", str(tmp_path / "gate.csv")]
    argv += ["--seq", str(seq_path)] * seq + ["--analytic"] * analytic
    assert main(argv) == 2
    assert "truncation guard:" in capsys.readouterr().err
    assert not (tmp_path / "gate.csv").exists()


IDLE_SEQUENCE = "index,theta_over_pi,phi_over_pi\n0,0,0.3\nterminal,,0.2\n"


@pytest.mark.parametrize("fock0", [24, 25])
def test_iontrap_idle_sequence_leaks_wholly_from_the_top_levels(tmp_path, capsys, fock0):
    # no pulse runs, so the composite is the phonon identity: an input in
    # the top two Fock levels stays there, and its population is all leakage
    config, seq_path = tmp_path / "trap.txt", tmp_path / "idle.csv"
    config.write_text(WORKLOAD_TRAP + f"fock0 = {fock0}\n")
    seq_path.write_text(IDLE_SEQUENCE)
    for route in ([], ["--analytic"]):
        out = tmp_path / "gate.csv"
        assert main(["iontrap", "--config", str(config), "--seq", str(seq_path),
                     "--out", str(out)] + route) == 0
        assert out.read_text().splitlines()[-1].startswith("leakage=1.000000e+00 ")


def test_iontrap_reads_ion_one_block_without_the_full_space(tmp_path, capsys, monkeypatch):
    # the qubit gate and the leakage come from ion 1's block: no full-space
    # operator is assembled, and np.kron builds nothing beyond 4x4 qubit gates
    config, seq_path = tmp_path / "trap.txt", tmp_path / "bb2.csv"
    config.write_text(WORKLOAD_TRAP)
    main(["catalog", "--entry", "bb2", "--out", str(seq_path)])
    kron, shapes = np.kron, []

    def recording_kron(a, b):
        out = kron(a, b)
        shapes.append(out.shape)
        return out

    def no_assembly(cfg, plus):
        raise AssertionError("cmd_iontrap assembled the full space")

    monkeypatch.setattr(iontrap, "_assemble", no_assembly)
    monkeypatch.setattr(np, "kron", recording_kron)
    for seq in ([], ["--seq", str(seq_path)]):
        for route in ([], ["--analytic"]):
            assert main(["iontrap", "--config", str(config), "--out", str(tmp_path / "gate.csv")]
                        + seq + route) == 0
    assert set(shapes) <= {(4, 4)}


def test_iontrap_seq_with_negative_detuning(tmp_path, capsys):
    # delta = -1 flips the sign of every two-pulse angle; the composite
    # shifts the spin phases to match and reaches BB1's fidelity at delta = +1
    seq_path = tmp_path / "bb1.csv"
    main(["catalog", "--entry", "bb1", "--out", str(seq_path)])
    fidelities = []
    for delta in ("1.0", "-1.0"):
        config, out = tmp_path / "trap.txt", tmp_path / "gate.csv"
        config.write_text(f"g = 0.1767766952966369\ndelta = {delta}\nt = 6.283185307179586\n"
                          "nmax = 25\n")
        argv = ["iontrap", "--config", str(config), "--seq", str(seq_path), "--eps-g", "0.03",
                "--out", str(out), "--analytic"]
        assert main(argv) == 0
        fidelities.append(float(out.read_text().split("fidelity=")[1]))
    assert fidelities[0] >= 1 - 1e-5
    assert abs(fidelities[0] - fidelities[1]) < 1e-11


def test_iontrap_seq_rejects_zeta2p(tmp_path, capsys):
    # with --seq, ion 2's spin phase is zeta1p plus each gate's phase, so a
    # nonzero zeta2p would be ignored: it is an error there, while the bare
    # two-pulse gate reads it
    seq_path = tmp_path / "bb1.csv"
    main(["catalog", "--entry", "bb1", "--out", str(seq_path)])
    bare = {}
    for zeta2p, code in (("0.0", 0), ("0.3", 1)):
        config = tmp_path / f"trap_{zeta2p}.txt"
        config.write_text(TRAP_CONFIG + f"zeta1p = 0.1\nzeta2p = {zeta2p}\n")
        argv = ["iontrap", "--config", str(config), "--analytic", "--out"]
        out = tmp_path / f"seq_{zeta2p}.csv"
        assert main(argv + [str(out), "--seq", str(seq_path)]) == code
        assert out.exists() == (code == 0)
        assert main(argv + [str(tmp_path / "bare.csv")]) == 0
        bare[zeta2p] = (tmp_path / "bare.csv").read_bytes()
    assert "error: zeta2p is not used with --seq" in capsys.readouterr().err
    assert bare["0.0"] != bare["0.3"]


#: sequences and trap configs the golden commands below read, by the
#: placeholder their argv uses; a sequence is the output of its command
GOLDEN_SEQUENCES = {
    "bb1": "catalog --entry bb1",
    "bb2_037": "catalog --entry bb2 --theta-over-pi 0.37",
    "pb22_031": "catalog --entry pb22 --theta-over-pi 0.31",
    "wrapabs": "wrap-abs --seq {bb1}",
}
GOLDEN_TRAPS = {
    "trap": TRAP_CONFIG,
    "trap_detuned": "g = 0.2\ndelta = -1.3\nt = 4.8\nnmax = 30\nzeta1p = 0.1\nzeta2p = 0.3\n"
                    "zeta1m = 0.2\nzeta2m = 0.45\neps_g = 0.01\n",
    # trap_detuned without zeta2p, which --seq rejects; the stored --seq
    # values were computed with zeta2p = 0.3, so that key was never read
    "trap_detuned_seq": "g = 0.2\ndelta = -1.3\nt = 4.8\nnmax = 30\nzeta1p = 0.1\n"
                        "zeta1m = 0.2\nzeta2m = 0.45\neps_g = 0.01\n",
}
#: ``--out`` bytes of scans and order fits, and the last line (leakage and
#: fidelity) of ``iontrap --out`` on both routes, keyed by the argv joined
#: by spaces; captured before the block embedding and the pulse builders
#: each got one implementation.
GOLDEN_CLI = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


def golden_cli_runner(tmp_path):
    """Write the golden commands' sequences and trap configs under
    ``tmp_path``, and return a function that runs a golden command by its
    key and returns its whole ``--out`` text."""
    paths = {}
    for name, command in GOLDEN_SEQUENCES.items():
        paths[name] = str(tmp_path / f"{name}.csv")
        argv = command.format(**paths).split()
        assert main(argv + ["--out", paths[name]]) == 0, command
    for name, text in GOLDEN_TRAPS.items():
        paths[name] = str(tmp_path / f"{name}.txt")
        Path(paths[name]).write_text(text)

    def run_key(key):
        out = tmp_path / "out.txt"
        assert main(key.format(**paths).split() + ["--out", str(out)]) == 0, key
        return out.read_text()

    return run_key


def golden_cli_outputs(tmp_path, keys):
    """Output of each golden command in ``keys``, as stored in GOLDEN_CLI."""
    run_key = golden_cli_runner(tmp_path)
    outputs = {}
    for key in keys:
        text = run_key(key)
        outputs[key] = text.splitlines()[-1] if key.startswith("iontrap") else text
    return outputs


def test_scan_order_and_iontrap_outputs_match_golden(tmp_path, capsys):
    assert golden_cli_outputs(tmp_path, GOLDEN_CLI) == GOLDEN_CLI


def test_iontrap_closed_form_matrix_matches_numerical_route(tmp_path, capsys):
    # GOLDEN_CLI keeps only the last line of an iontrap output, so the
    # matrix rows of the two routes are compared with each other here
    run_key = golden_cli_runner(tmp_path)
    analytic = [key for key in GOLDEN_CLI if key.endswith(" --analytic")]
    assert len(analytic) == 4
    for key in analytic:
        closed, numerical = (run_key(k).splitlines() for k in (key, key[: -len(" --analytic")]))
        assert closed[-1] == numerical[-1], key
        rows = [np.array([row.split(",") for row in lines[:-1]], dtype=float)
                for lines in (closed, numerical)]
        assert rows[0].shape == rows[1].shape == (4, 8), key
        assert np.max(np.abs(rows[0] - rows[1])) < 1e-13, key
