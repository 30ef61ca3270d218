"""Tests for the command-line interface: formatting, command wiring, exit
codes and output determinism."""

import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from xyswap.cli import emit_csv, emit_json, run
from xyswap.critical import CriticalResult
from xyswap.teleport import TeleportConfig, fidelity_closed_form
from xyswap.xychain import ChainParams, pair_metrics

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "table1_golden.csv"


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# serialization units


def test_emit_csv_empty():
    schema = [("a", "param"), ("b", "value")]
    assert emit_csv([], schema) == "a,b\n"


def test_emit_csv_formats_by_kind():
    schema = [("T", "param"), ("t3", "value")]
    text = emit_csv([(0.5, 0.438104)], schema, precision=5)
    assert text == "T,t3\n0.5,0.43810\n"


def test_emit_csv_value_formatting():
    schema = [("x", "value")]
    assert emit_csv([(float("nan"),)], schema, precision=3) == "x\nnan\n"
    # rounding may not leave a negative zero behind
    assert emit_csv([(-1e-12,)], schema, precision=3) == "x\n0.000\n"
    assert emit_csv([(2,)], [("n", "int")]) == "n\n2\n"
    assert emit_csv([(True,), (False,)], [("ok", "flag")]) == "ok\ntrue\nfalse\n"


def test_emit_csv_param_round_trips():
    schema = [("eta", "param")]
    text = emit_csv([(0.30000000000000004,)], schema)
    assert float(text.splitlines()[1]) == 0.30000000000000004


def test_emit_csv_rejects_ragged_rows():
    with pytest.raises(ValueError):
        emit_csv([(1.0, 2.0), (1.0,)], [("a", "param"), ("b", "param")])


def test_emit_csv_uses_lf_only():
    text = emit_csv([(1.0,)], [("a", "param")])
    assert "\r" not in text
    assert text.endswith("\n")
    assert not text.endswith(",\n")


def test_emit_json_shapes():
    schema = [("a", "param"), ("b", "value")]
    arr = json.loads(emit_json([(1.0, 2.0)], schema))
    assert arr == [{"a": 1.0, "b": 2.0}]
    obj = json.loads(emit_json([(1.0, 2.0)], schema, single=True))
    assert obj == {"a": 1.0, "b": 2.0}


def test_emit_json_nan_becomes_null():
    payload = json.loads(emit_json([(float("nan"),)], [("x", "value")]))
    assert payload == [{"x": None}]


# ---------------------------------------------------------------------------
# point commands


def test_metrics_json_matches_library(capsys):
    code, out, _ = _run(
        capsys, ["metrics", "--J", "1", "--gamma", "0.5", "--eta", "0.4", "--T", "0.8"]
    )
    assert code == 0
    payload = json.loads(out)
    m = pair_metrics(ChainParams(J=1.0, gamma=0.5, eta=0.4, T=0.8))
    assert payload["concurrence"] == pytest.approx(m.concurrence, abs=1e-15)
    assert payload["fef"] == pytest.approx(m.fef, abs=1e-15)
    for i in range(4):
        assert payload[f"lambda{i + 1}"] == pytest.approx(m.lambdas[i], abs=1e-15)
    assert payload["J"] == 1.0 and payload["T"] == 0.8


def test_metrics_at_zero_temperature_in_an_overflowing_field(capsys):
    for eta in ("1e155", "-1e155", "1e300", "-1e300"):
        code, out, err = _run(capsys, ["metrics", f"--eta={eta}", "--T", "0", "--gamma", "0.5"])
        assert code == 0, err
        payload = json.loads(out)
        assert all(math.isfinite(payload[k]) for k in ("concurrence", "fef", "lambda1"))


def test_state_rows_carry_unit_trace(capsys):
    code, out, _ = _run(capsys, ["state", "--T", "0.7", "--gamma", "0.3"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 16
    trace = sum(r["re"] for r in rows if r["row"] == r["col"])
    assert trace == pytest.approx(1.0, abs=1e-9)


def test_state_at_zero_temperature(capsys):
    code, out, _ = _run(capsys, ["state", "--T", "0", "--gamma", "0.0", "--eta", "0.0"])
    assert code == 0
    rows = {(r["row"], r["col"]): r for r in json.loads(out)}
    # singlet ground state: off-diagonal exchange coherence -1/2
    assert rows[(1, 1)]["re"] == pytest.approx(0.5, abs=1e-9)
    assert rows[(1, 2)]["re"] == pytest.approx(-0.5, abs=1e-9)


def test_swap_outcomes_zero_field_uniform(capsys):
    code, out, _ = _run(capsys, ["swap", "--T", "0.5", "--gamma", "0.7", "--eta", "0"])
    assert code == 0
    rows = json.loads(out)
    assert [r["outcome"] for r in rows] == list(range(8))
    for r in rows:
        assert r["probability"] == pytest.approx(0.125, abs=1e-10)


def test_swap_outcomes_field_polarized(capsys):
    # a transverse field polarizes the pairs, so outcomes are no longer
    # uniform, but sign partners i and 7 - i stay equally likely
    code, out, _ = _run(capsys, ["swap", "--T", "0.5", "--gamma", "0.7", "--eta", "1.1"])
    assert code == 0
    probs = [r["probability"] for r in json.loads(out)]
    assert sum(probs) == pytest.approx(1.0, abs=1e-10)
    assert max(probs) > 0.13
    for i in range(4):
        assert probs[i] == pytest.approx(probs[7 - i], abs=1e-12)


def test_fidelity_reports_tiny_difference(capsys):
    code, out, _ = _run(
        capsys,
        ["fidelity", "--J", "1", "--gamma", "1", "--eta", "0.8", "--T", "0.5"],
    )
    assert code == 0
    payload = json.loads(out)
    closed = fidelity_closed_form(
        ChainParams(J=1.0, gamma=1.0, eta=0.8, T=0.5),
        TeleportConfig(mu=math.pi / 4.0),
    )
    assert payload["phi_closed"] == pytest.approx(closed.phi_closed, abs=1e-15)
    assert abs(payload["difference"]) < 1e-9
    assert payload["mu"] == pytest.approx(math.pi / 4.0)


def test_critical_command(capsys):
    code, out, _ = _run(capsys, ["critical", "--kind", "3", "--gamma", "0", "--eta", "0.5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == 3
    assert payload["converged"] is True
    assert payload["t_over_j"] == pytest.approx(0.43810, abs=1e-4)


def test_critical_command_at_a_huge_field(capsys):
    # the default ceiling is about 4e197 J; the scan steps a hundredth of it
    code, out, _ = _run(capsys, ["critical", "--kind", "1", "--gamma", "0.5", "--eta", "1e200"])
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert payload["t_over_j"] == pytest.approx(2.1649552448366e197, rel=1e-9)


@pytest.mark.parametrize("command, extreme, unit", [
    *[(["critical", "--kind", kind, "--gamma", "0.9", "--eta", "0.9"], ["--J", j], ["--J", "1"])
      for kind in "123" for j in ("4e307", "1e-310")],
    (["metrics", "--gamma", "0.5", "--eta", "10"], ["--J", "1e308", "--T", "1e308"], ["--J", "1", "--T", "1"]),
    (["state", "--gamma", "0.5", "--eta", "10"], ["--J", "1e307", "--T", "1e307"], ["--J", "1", "--T", "1"]),
    (["state", "--gamma", "0.5", "--eta", "10"], ["--J", "1e308", "--T", "1e308"], ["--J", "1", "--T", "1"]),
])
def test_couplings_at_the_ends_of_the_double_range(capsys, caplog, command, extreme, unit):
    # every result depends on T / J alone: at the largest and the smallest
    # couplings each command answers quietly what it answers at J = 1, the
    # state included (it is formed in units of |J|)
    payloads = []
    for flags in (extreme, unit):
        with caplog.at_level(logging.WARNING):
            code, out, err = _run(capsys, command + flags)
        assert (code, err, caplog.records) == (0, "", [])
        payloads.append(json.loads(out))
    got, want = payloads
    if command[0] != "state":  # all but the echoed J and T
        for payload in payloads:
            payload.pop("J", None), payload.pop("T", None)
    assert got == want


def test_critical_nonconvergence_exit_code(capsys, monkeypatch):
    def fake(gamma, eta, J=1.0, *, t_hi=None):
        return CriticalResult(3, gamma, eta, math.nan, None, False)

    monkeypatch.setattr("xyswap.cli.t3_critical", fake)
    code, out, _ = _run(capsys, ["critical", "--kind", "3", "--gamma", "0", "--eta", "0.5"])
    assert code == 2
    payload = json.loads(out)
    assert payload["t_over_j"] is None
    assert payload["converged"] is False


# ---------------------------------------------------------------------------
# artifacts


def test_table_matches_golden_values(capsys):
    code, out, _ = _run(capsys, ["table1"])
    assert code == 0
    got = out.splitlines()
    want = GOLDEN.read_text().splitlines()
    assert len(got) == 3
    assert got[0] == want[0]
    for got_line, want_line in zip(got[1:], want[1:]):
        got_vals = [float(tok) for tok in got_line.split(",")]
        want_vals = [float(tok) for tok in want_line.split(",")]
        assert len(got_vals) == 10
        for g, w in zip(got_vals, want_vals):
            assert g == pytest.approx(w, abs=1e-4)


def test_table_is_deterministic(capsys):
    _, first, _ = _run(capsys, ["table1"])
    _, second, _ = _run(capsys, ["table1"])
    assert first == second


@pytest.mark.parametrize("command", ["table1", "fig1"])
def test_default_artifacts_match_stored_bytes(capsys, command):
    # the shipped artifacts with their defaults, stored once from a known-good
    # run: a change that moves any root by one printed digit changes the bytes
    code, out, _ = _run(capsys, [command])
    assert code == 0
    assert out.encode() == (DATA / f"{command}_default.csv").read_bytes()


@pytest.mark.parametrize("argv, stored", [
    (["metrics", "--J", "1", "--gamma", "0.5", "--eta", "0.4", "--T", "0.8"], "readme_metrics.csv"),
    (["state", "--T", "0.7", "--gamma", "0.3"], "readme_state.csv"),
    (["swap", "--T", "0.5", "--gamma", "0.7"], "readme_swap.csv"),
    (["fidelity", "--T", "0.5", "--gamma", "1", "--eta", "0.8", "--mu", "0.7853981633974483"],
     "readme_fidelity.csv"),
    (["critical", "--kind", "3", "--gamma", "0", "--eta", "0.5"], "readme_critical.csv"),
    (["table1", "--precision", "5"], "readme_table1.csv"),
    (["fig1", "--gammas", "0,0.3,0.6,1", "--eta-max", "2", "--steps", "80"], "fig1_default.csv"),
    # the README's swap has no field, where every outcome reads 0.125; a
    # field-polarised swap and a ground-state fidelity with six of the eight
    # outcomes impossible pin the swap itself, and fidelities at J, gamma < 0
    # and at J < 0 on the ground-state tie pin the swap at the parameters of
    # the positive sign frame
    (["swap", "--T", "0.5", "--gamma", "0.7", "--eta", "1.1"], "swap_field.csv"),
    (["fidelity", "--T", "0", "--gamma", "0", "--eta", "1.5"], "fidelity_cold.csv"),
    (["fidelity", "--J", "-1", "--gamma", "-0.5", "--eta", "0.8", "--T", "0.4"], "fidelity_flipped.csv"),
    (["fidelity", "--J", "-2", "--gamma", "0.6", "--eta", "-0.8", "--T", "0"], "fidelity_flipped_tie.csv"),
])
def test_readme_examples_match_stored_bytes(capsys, argv, stored):
    # the README's command-line examples and four swap checks in CSV, stored
    # once from a known-good run; JSON prints full doubles, whose last bits
    # may differ on another numpy or BLAS, so it is checked by parsed values
    # above
    code, out, _ = _run(capsys, argv + ["--format", "csv"])
    assert code == 0
    assert out.encode() == (DATA / stored).read_bytes()


def test_table_json_long_format(capsys):
    code, out, _ = _run(capsys, ["table1", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 10
    assert rows[4]["eta"] == 0.4
    assert rows[4]["t2_over_j"] == pytest.approx(1.07525, abs=1e-4)
    assert rows[4]["t3_over_j"] == pytest.approx(0.48371, abs=1e-4)
    for row in rows:
        assert row["t3_over_j"] < row["t2_over_j"]


def test_curves_shape_and_zero_tail(capsys):
    code, out, _ = _run(
        capsys, ["fig1", "--gammas", "0,0.6", "--eta-max", "2", "--steps", "10"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma,eta,t3_over_j"
    assert len(lines) == 1 + 2 * 11
    for line in lines[1:]:
        gamma, eta, t3 = line.split(",")
        # the isotropic curve terminates at eta = 1
        if float(gamma) == 0.0 and float(eta) >= 1.0:
            assert float(t3) == 0.0


def test_curves_flag_validation(capsys):
    for argv in (
        ["fig1", "--steps", "0"],
        ["fig1", "--eta-max", "-1"],
        ["fig1", "--gammas", ""],
        ["fig1", "--gammas", "0.3,oops"],
    ):
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        assert "error" in err


# ---------------------------------------------------------------------------
# shared flag handling


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "metrics.json"
    code, out, _ = _run(capsys, ["metrics", "--T", "1", "--out", str(target)])
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["T"] == 1.0


def test_out_file_uses_lf(tmp_path, capsys):
    target = tmp_path / "t.csv"
    code, _, _ = _run(capsys, ["table1", "--out", str(target)])
    assert code == 0
    raw = target.read_bytes()
    assert b"\r" not in raw


@pytest.mark.parametrize("argv, target", [
    (["table1"], "missing/x.csv"),  # FileNotFoundError
    (["metrics", "--T", "1"], "."),  # IsADirectoryError
])
def test_unwritable_out_path_exits_one_with_an_error_line(tmp_path, capsys, argv, target):
    path = str(tmp_path / target)
    code, out, err = _run(capsys, argv + ["--out", path])
    assert code == 1
    assert out == ""
    assert err.startswith("xyswap: error: ") and err.count("\n") == 1
    assert path in err


def test_usage_errors_exit_one(capsys):
    for argv in (
        ["metrics"],                      # missing required --T
        ["metrics", "--T", "1", "--bogus", "2"],
        ["no-such-command"],
        ["critical", "--gamma", "0"],     # missing required --kind
        ["critical", "--kind", "7", "--gamma", "0", "--eta", "0"],
        [],
    ):
        code, _, err = _run(capsys, argv)
        assert code == 1, argv
        assert err != ""


@pytest.mark.parametrize("flag, value", [("--eta", "-1e-3"), ("--J", "-2.5e-1"), ("--eta", "-1E+2")])
def test_negative_values_in_exponent_form_are_values(capsys, flag, value):
    # argparse's own negative-number pattern has no exponent, so it took
    # these values for options and exited 1 with "expected one argument"
    argv = ["metrics", "--T", "0.5", "--format", "csv"]
    spaced = _run(capsys, argv + [flag, value])
    assert spaced == _run(capsys, argv + [f"{flag}={value}"])
    assert spaced[0] == 0 and spaced[2] == ""


def test_domain_errors_exit_one_and_name_the_flag(capsys):
    code, out, err = _run(capsys, ["metrics", "--T", "1", "--gamma", "1.5"])
    assert code == 1
    assert out == ""
    assert "gamma" in err


def test_precision_bounds(capsys):
    for bad in ("-1", "18"):
        code, _, err = _run(capsys, ["table1", "--precision", bad])
        assert code == 1
        assert "precision" in err
    code, out, _ = _run(capsys, ["table1", "--precision", "5"])
    assert code == 0
    assert "1.13459" in out.splitlines()[1]


# ---------------------------------------------------------------------------
# installed entry points


def test_console_script_deterministic_bytes():
    cmd = ["xyswap", "table1", "--precision", "6"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.count(b"\n") == 3


_NO_CROSSING_JSON = b"""{
  "kind": 2,
  "gamma": 0.003,
  "eta": 1.0,
  "t_over_j": null,
  "converged": false
}
"""


@pytest.mark.parametrize("argv, code, stdout, stderr", [
    (["metrics", "--J", "1", "--gamma", "0.5", "--eta", "0.4", "--T", "0.8", "--format", "csv"], 0,
     (DATA / "readme_metrics.csv").read_bytes(), b""),
    (["table1"], 0, (DATA / "table1_default.csv").read_bytes(), b""),
    (["fig1"], 0, (DATA / "fig1_default.csv").read_bytes(), b""),
    (["fig1", "--out", "PATH"], 0, b"", b""),
    (["critical", "--kind", "2", "--gamma", "0.003", "--eta", "1"], 2, _NO_CROSSING_JSON,
     b"kind 2 margin positive at T = 0 but no crossing found above 1.0e-06 (gamma=0.003, eta=1)\n"),
    (["table1", "--precision", "99"], 1, b"", b"xyswap: error: --precision must lie in 0..17\n"),
], ids=["metrics", "table1", "fig1", "fig1-out", "critical-exit-2", "precision-exit-1"])
def test_module_invocation(tmp_path, argv, code, stdout, stderr):
    # a real `python -m xyswap` process, which ends through `main`'s flush
    # and hard exit: every byte written reaches the pipes and the --out file.
    # Without PYTHONUNBUFFERED the pipes buffer, so an unflushed write is lost.
    out_path = tmp_path / "fig1.csv"
    argv = [str(out_path) if arg == "PATH" else arg for arg in argv]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-m", "xyswap", *argv], capture_output=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)
    if "--out" in argv:
        assert out_path.read_bytes() == (DATA / "fig1_default.csv").read_bytes()


def test_importing_the_package_does_not_load_logging():
    # the solver loads `logging` on its first warning, not at import
    probe = "import sys; before = set(sys.modules); import xyswap; print('logging' in set(sys.modules) - before)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True)
    assert proc.stdout == b"False\n"


def test_profiled_module_invocation_still_prints_its_stats():
    # under a profile function `main` raises SystemExit instead of ending
    # the process, so cProfile gets to print its report
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "xyswap", "table1"], capture_output=True)
    table = (DATA / "table1_default.csv").read_bytes()
    assert proc.stdout.startswith(table)
    assert b"function calls" in proc.stdout[len(table):]
