"""End-to-end command line checks: exit codes, determinism, file round trips."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from matsec import SUITE_NAMES, SuiteResult, load_records, parse_instance, parse_schedule
from matsec import analysis, cli, instances, policies
from matsec.analysis import CASE_SUITES
from matsec.cli import FAMILIES, FIXTURES, INSTANCE_FLAGS, MAX_SIZE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- usage errors ---------------------------------------------------------------


class TestExitCodes:
    def test_policy_instance_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--instance", "triangle",
                               "--policy", "dynkin")
        assert code == 2
        assert "error:" in err

    def test_missing_instance_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--instance-file",
                               str(tmp_path / "nope.txt"))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("family, sized", [
        ("triangle", False), ("double-triangle", False), ("hat", True),
        ("modified-hat", True), ("uniform", True), ("random-graphic", False)])
    def test_n_grid_needs_sized_family(self, capsys, family, sized):
        code, out, err = run_cli(capsys, "sweep", "--instance", family, "--n-grid", "3",
                                 "--p-grid", "0.5", "--trials", "5")
        if sized:
            assert code == 0
            assert {row[1] for row in csv.reader(io.StringIO(out))} == {"n", "3"}
        else:
            assert (code, out) == (2, "")
            assert err.startswith("error:") and err.count("\n") == 1
            assert "n-grid" in err

    @pytest.mark.parametrize("argv, needle", [
        (("estimate", "--instance", "uniform", "--n", "5", "--k", "0",
          "--policy", "sample", "--trials", "5"), "optimum is empty"),
        (("sweep", "--instance", "hat", "--p-grid", "", "--trials", "5"), "--p-grid"),
        (("sweep", "--instance", "hat", "--n-grid", "", "--trials", "5"), "--n-grid"),
        (("estimate", "--instance", "random-graphic", "--vertices", "0",
          "--trials", "5"), "--vertices"),
        (("verify", "claw-blocker", "--trials", "-2"), "trials must be at least 1"),
        (("verify", "claw-blocker", "--trials", "0"), "trials must be at least 1"),
        (("verify", "equivalences", "--cases", "-1"), "cases must be at least 1"),
        (("verify", "mwb-lemmas", "--cases", "0"), "cases must be at least 1"),
        (("verify", "forbidden-consistency", "--n", "0", "--trials", "3"),
         "n must be at least 1"),
        (("verify", "matroid-axioms", "--cases", "2", "--trials", "7", "--p", "9"),
         "--trials does not apply"),
        (("verify", "mwb-lemmas", "--p", "0.3"), "--p does not apply"),
        (("verify", "equivalences", "--cases", "2", "--n", "3"), "--n does not apply"),
        (("verify", "claw-blocker", "--cases", "3", "--trials", "5"), "--cases does not apply"),
        (("verify", "forbidden-consistency", "--cases", "1"), "--cases does not apply"),
        (("simulate", "--instance", "uniform", "--n", "-2"), "n >= 0, got -2"),
        (("estimate", "--instance", "uniform", "--n", "-1", "--trials", "5"), "n >= 0"),
        (("sweep", "--instance-file", "hat.inst", "--n-grid", "2,3", "--trials", "5"),
         "--n-grid does not apply to --instance-file"),
        (("sweep", "--instance", "hat", "--instance-file", "hat.inst", "--n-grid", "2,3",
          "--trials", "5"), "--n-grid does not apply to --instance-file"),
        (("estimate", "--instance", "triangle", "--n", "9", "--k", "3", "--vertices", "0",
          "--trials", "5"), "error: --n does not apply to triangle"),
        (("estimate", "--instance", "triangle", "--policy", "sample", "--k", "3",
          "--trials", "5"), "error: --k does not apply to triangle"),
        (("estimate", "--instance", "hat", "--n", "2", "--vertices", "0", "--trials", "5"),
         "error: --vertices does not apply to hat"),
        (("estimate", "--instance-file", "hat.inst", "--k", "2", "--trials", "5"),
         "error: --k does not apply to --instance-file"),
        # files are written before stdout, so a bad output path prints no data
        (("simulate", "--instance", "hat", "--n", "2", "--out", "no_dir/t.jsonl"),
         "No such file or directory"),
        (("simulate", "--instance-file", "neg_vertices.inst"),
         "num_vertices must be nonnegative"),
        (("simulate", "--instance-file", "neg_edges.inst"),
         "edge count must be nonnegative, got -1"),
        (("replay", "hat-claw", "--out", "no_dir/x.jsonl"), "No such file or directory"),
        (("simulate", "--instance", "hat", "--n", "2", "--schedule-out", "no_dir/s"),
         "No such file or directory"),
        (("simulate", "--instance", "hat", "--n", "2", "--dump-instance", "no_dir/s"),
         "No such file or directory"),
        (("estimate", "--instance", "hat", "--n", "3", "--trials", "5", "--seed", "-1"),
         "error: --seed must be non-negative, got -1"),
        (("simulate", "--instance", "hat", "--n", "3", "--trial", "-1"),
         "error: --trial must be non-negative, got -1"),
        (("verify", "claw-blocker", "--trials", "5", "--seed", "-3"),
         "error: --seed must be non-negative, got -3"),
        # counts of 2**63 and up fail before anything is sized by them
        (("simulate", "--instance-file", "huge_elems.inst"), "error: missing elem lines"),
        (("simulate", "--instance-file", "huge_edges.inst"), "error: missing edge lines"),
        (("simulate", "--instance-file", "huge_vertices.inst"), "too large"),
        # a fixed schedule has no trial index, not even the default one
        (("simulate", "--instance-file", "hat.inst", "--schedule-file", "tri.sched",
          "--trial", "0"), "error: --trial does not apply to --schedule-file"),
        # sizes above MAX_SIZE stop before any list is sized by them
        (("simulate", "--instance-file", "big_vertices.inst"),
         "error: vertex count 4611686018427387904 is too large"),
        (("simulate", "--instance", "random-graphic", "--vertices", "4611686018427387904",
          "--edges", "1"), "error: --vertices 4611686018427387904 is too large"),
        (("estimate", "--instance", "uniform", "--n", "1000000000000"),
         "error: --n 1000000000000 is too large"),
        # verify's --n is capped too, before the suite builds hat_graph(n)
        (("verify", "claw-blocker", "--n", "1000000000"),
         "error: --n 1000000000 is too large (limit 100000)"),
        # Fraction would expand these to 10**999999999; the exponent is capped first
        (("estimate", "--instance-file", "exp_up.inst"),
         "error: weight exponent too large (limit 4300): 'elem 1 1e999999999'"),
        (("estimate", "--instance-file", "exp_down.inst"),
         "error: weight exponent too large (limit 4300): 'elem 1 1e-999999999'"),
        # 10**4300 has 4301 digits: such a weight could be parsed but not printed
        (("simulate", "--instance-file", "digits_up.inst", "--policy", "optimistic"),
         "error: weight has more than 4300 digits: 'elem 1 1e4300'"),
        (("simulate", "--instance-file", "digits_down.inst", "--policy", "optimistic"),
         "error: weight has more than 4300 digits: 'elem 1 1e-4300'"),
        # --n-grid sets n, so a --n beside it would be dropped
        (("sweep", "--instance", "hat", "--n", "3", "--n-grid", "2", "--trials", "5"),
         "error: --n does not apply with --n-grid"),
        (("estimate", "--instance", "hat", "--n", "3", "--trials", "5",
          "--out", "no_dir/x.json"), "No such file or directory"),
        (("sweep", "--instance", "hat", "--n", "3", "--trials", "5",
          "--out", "no_dir/x.csv"), "No such file or directory"),
    ])
    def test_bad_input_is_one_line_error(self, capsys, tmp_path, monkeypatch, argv, needle):
        # hat.inst is a triangle: its name must not make it a hat family
        (tmp_path / "hat.inst").write_text("matroid graphic 3 3\n"
                                           "edge 0 0 1 1\nedge 1 1 2 2\nedge 2 2 0 3\n")
        (tmp_path / "neg_vertices.inst").write_text("matroid graphic -1 0\n")
        (tmp_path / "neg_edges.inst").write_text("matroid graphic 2 -1\n")
        (tmp_path / "tri.sched").write_text("schedule 0 0.2\nschedule 1 0.5\nschedule 2 0.7\n")
        huge = "10000000000000000000"
        (tmp_path / "huge_elems.inst").write_text(f"matroid uniform {huge} 1\nelem 0 1\n")
        (tmp_path / "huge_edges.inst").write_text(f"matroid graphic 2 {huge}\nedge 0 0 1 1\n")
        (tmp_path / "huge_vertices.inst").write_text(f"matroid graphic {huge} 1\n"
                                                     "edge 0 0 1 1\n")
        (tmp_path / "big_vertices.inst").write_text(f"matroid graphic {2**62} 1\n"
                                                    "edge 0 0 1 1\n")
        for name, exponent in (("exp_up.inst", "999999999"), ("exp_down.inst", "-999999999"),
                               ("digits_up.inst", "4300"), ("digits_down.inst", "-4300")):
            (tmp_path / name).write_text(f"matroid uniform 2 1\nelem 0 1\nelem 1 1e{exponent}\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert needle in err

    @pytest.mark.parametrize("exponent, largest", [("4300", "4299"), ("-4300", "-4299")])
    def test_an_unprintable_weight_writes_no_dump(self, capsys, tmp_path, exponent, largest):
        inst, dump = tmp_path / "w.inst", tmp_path / "dump.inst"
        inst.write_text(f"matroid uniform 2 1\nelem 0 1\nelem 1 1e{exponent}\n")
        code, out, err = run_cli(capsys, "simulate", "--instance-file", str(inst),
                                 "--dump-instance", str(dump))
        assert (code, out) == (2, "")
        assert err == f"error: weight has more than 4300 digits: 'elem 1 1e{exponent}'\n"
        assert not dump.exists()
        inst.write_text(f"matroid uniform 2 1\nelem 0 1\nelem 1 1e{largest}\n")
        assert run_cli(capsys, "simulate", "--instance-file", str(inst),
                       "--dump-instance", str(dump))[0] == 0
        weights = parse_instance(io.StringIO(dump.read_text()))[1].weights
        assert weights[1] == Fraction(f"1e{largest}")

    @pytest.mark.parametrize("command, out", [("estimate", "no_dir/x.json"),
                                              ("sweep", "no_dir/x.csv")])
    def test_a_bad_out_path_stops_before_the_first_trial(self, capsys, tmp_path,
                                                         monkeypatch, command, out):
        def no_estimate(*args):
            raise AssertionError("an estimate ran before --out was opened")
        monkeypatch.setattr(analysis, "run_trial", no_estimate)
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run_cli(capsys, command, "--instance", "hat", "--n", "128",
                                    "--trials", "5000", "--out", out)
        assert (code, stdout) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "No such file or directory" in err

    @pytest.mark.parametrize("argv", [
        ("estimate", "--instance", "hat", "--n", "3", "--trials", "0"),
        ("estimate", "--instance", "hat", "--n", "3", "--p", "1.5"),
        ("estimate", "--instance", "uniform", "--n", "5", "--k", "0", "--policy", "sample"),
        ("sweep", "--instance", "hat", "--n", "3", "--trials", "0"),
        ("sweep", "--instance", "hat", "--n-grid", "2,3", "--p-grid", "0.5,-1"),
        ("sweep", "--instance", "uniform", "--n-grid", "4,5", "--k", "0", "--policy", "sample"),
        # a policy that cannot run on the instance is input too
        ("estimate", "--instance", "hat", "--n", "3", "--policy", "dynkin"),
        ("sweep", "--instance", "triangle", "--policy", "optimistic", "--trials", "5"),
    ])
    def test_bad_input_leaves_out_unopened(self, capsys, tmp_path, argv):
        out = tmp_path / "report.out"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    # argparse's own usage errors take the same one-line exit, with no usage dump
    @pytest.mark.parametrize("argv, needle", [
        ((), "required: command"),
        (("summon",), "invalid choice: 'summon'"),
        (("estimate", "--policy", "psychic"), "invalid choice: 'psychic'"),
        (("simulate", "--n", "x"), "invalid int value: 'x'"),
        (("simulate", "--bogus"), "unrecognized arguments: --bogus"),
        (("replay", "nope"), "invalid choice: 'nope'"),
        (("verify", "numerology"), "invalid choice: 'numerology'"),
        (("simulate", "--policy", "psychic"), "invalid choice: 'psychic'"),
        (("estimate", "--instance", "hat", "--n", "3", "--bound", "0.2"),
         "unrecognized arguments: --bound")])
    def test_usage_error_is_one_line_error(self, capsys, argv, needle):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    def test_help_exits_0_with_the_usage_on_stdout(self, capsys):
        code, out, err = run_cli(capsys, "-h")
        assert (code, err) == (0, "")
        assert out.startswith("usage: matsec")

    def test_size_limit_is_inclusive(self, capsys, tmp_path):
        for vertices, code in ((MAX_SIZE, 0), (MAX_SIZE + 1, 2)):
            assert run_cli(capsys, "simulate", "--instance", "random-graphic",
                           "--vertices", str(vertices), "--edges", "1")[0] == code
            path = tmp_path / f"v{vertices}.inst"
            path.write_text(f"matroid graphic {vertices} 1\nedge 0 0 1 1\n")
            assert run_cli(capsys, "simulate", "--instance-file", str(path))[0] == code

    def test_verify_size_limit_is_inclusive(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_suite", lambda name, **kw: seen.append(kw["n"])
                            or SuiteResult(name, 1))
        assert run_cli(capsys, "verify", "claw-blocker", "--n", str(MAX_SIZE))[0] == 0
        assert run_cli(capsys, "verify", "claw-blocker", "--n", str(MAX_SIZE + 1))[0] == 2
        assert seen == [MAX_SIZE]

    def test_k_must_match_a_uniform_instance_file(self, capsys, tmp_path):
        inst_path = tmp_path / "uni.inst"
        code, _, _ = run_cli(capsys, "simulate", "--instance", "uniform", "--n", "5",
                             "--k", "2", "--dump-instance", str(inst_path))
        assert code == 0
        for policy in ("optimistic", "sample"):     # whether or not the policy counts slots
            code, out, err = run_cli(capsys, "estimate", "--instance-file", str(inst_path),
                                     "--policy", policy, "--k", "3", "--trials", "5")
            assert (code, out) == (2, "")
            assert err == "error: k=3 does not match the 2-uniform instance\n"
        code, out, _ = run_cli(capsys, "estimate", "--instance-file", str(inst_path),
                               "--policy", "optimistic", "--k", "2", "--trials", "5")
        assert code == 0 and json.loads(out)["trials"] == 5

    def test_zero_denominator_weight(self, capsys, tmp_path):
        inst_path = tmp_path / "tri.inst"
        inst_path.write_text("matroid graphic 3 3\n"
                             "edge 0 0 1 1\nedge 1 1 2 1/0\nedge 2 2 0 3\n")
        code, out, err = run_cli(capsys, "simulate", "--instance-file", str(inst_path))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert "edge 1 1 2 1/0" in err

    @pytest.mark.parametrize("text", ["123", "abc", "-1"])
    def test_seed_comes_from_the_command_line_only(self, capsys, monkeypatch, text):
        # a seed in the environment, valid or not, leaves the bytes unchanged
        args = ("estimate", "--instance", "triangle", "--trials", "30")
        monkeypatch.delenv("MATSEC_SEED", raising=False)
        unset = run_cli(capsys, *args)
        assert unset[0] == 0
        monkeypatch.setenv("MATSEC_SEED", text)
        assert run_cli(capsys, *args)[:2] == unset[:2]


# -- the exit-code contract over generated argv ------------------------------

def mostly(valid, invalid):
    """Each valid value three times as likely as each invalid one, so most
    examples reach a policy and every rejection stays reachable."""
    return st.sampled_from([*valid] * 3 + [*invalid])


def sized(low, high):
    """A count or size flag: low..high, or one of the two values below low."""
    return mostly(map(str, range(low, high + 1)), (str(low - 2), str(low - 1)))


# policies for every family; the slot-count rules run on uniform instances only
ANY_FAMILY = ["virtual-msp", "greedy-framework", "sample-contracted"]
UNIFORM_ONLY = ["dynkin", "optimistic", "virtual-uniform"]
FLAGS = {
    "--instance": st.sampled_from(["triangle", "double-triangle", "hat", "modified-hat",
                                   "uniform", "random-graphic"]),
    "--n": sized(1, 4), "--k": sized(1, 2), "--vertices": sized(1, 4),
    "--edges": sized(0, 6), "--trial": sized(0, 3),
    # seeds of two and three 32-bit words too: the multi-word entropy path
    "--seed": sized(0, 3) | st.sampled_from(["4294967296", "18446744073709551623"]),
    "--p": mostly(["0.5", "0.25", "0", "1"], ["nan", "-0.5", "2"]),
    "--p-grid": mostly(["0.5"], ["0.5,nan", "", "2"]),
    "--n-grid": mostly(["2,3"], ["-1", "", "x"]),
}
OPTIONAL = {"simulate": ["--k", "--vertices", "--edges", "--seed", "--p", "--trial"],
            "estimate": ["--k", "--vertices", "--edges", "--seed", "--p"],
            "sweep": ["--k", "--vertices", "--edges", "--seed", "--p-grid", "--n-grid"],
            "verify": ["--n", "--seed", "--p"]}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(OPTIONAL)))
    if command == "verify":
        # each suite gets the count it reads, so no case runs a default of
        # thousands of trials
        suite = draw(st.sampled_from(SUITE_NAMES))
        count = "--cases" if suite in CASE_SUITES else "--trials"
        argv = [command, suite, count, draw(sized(1, 3))]
        # like the instance flags below: a case suite reads no --n or --p
        optional = ["--seed"] if suite in CASE_SUITES else OPTIONAL[command]
    else:
        # only the instance flags the family reads, so examples reach the policies
        instance = draw(FLAGS["--instance"])
        reads = FAMILIES[instance][1]
        valid, invalid = ANY_FAMILY, ["psychic"] + UNIFORM_ONLY
        if instance == "uniform":
            valid, invalid = ANY_FAMILY + UNIFORM_ONLY, ["psychic"]
        argv = [command, "--instance", instance, "--policy", draw(mostly(valid, invalid))]
        if "n" in reads:
            argv += ["--n", draw(FLAGS["--n"])]
        if command != "simulate":
            argv += ["--trials", draw(sized(1, 5))]
        optional = [flag for flag in OPTIONAL[command]
                    if flag[2:] not in INSTANCE_FLAGS or flag[2:] in reads]
    for flag in draw(st.lists(st.sampled_from(optional), max_size=3, unique=True)):
        argv += [flag, draw(FLAGS[flag])]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=cli_argv())
def test_any_argv_exits_0_1_or_2(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
        assert out.getvalue() == "", argv


# -- replay ---------------------------------------------------------------------


class TestReplay:
    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    def test_fixture_passes(self, capsys, fixture):
        code, out, _ = run_cli(capsys, "replay", fixture)
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_drift_fails_and_names_the_expected_row(self, capsys, monkeypatch):
        # flip one pinned verdict: the replay must flag exactly that row and fail
        build, policy, p, rows = FIXTURES["uniform-virtual-stream"]
        assert rows[3] == ("4", 0.55, "live", False, "2", False)
        flipped = rows[:3] + (("4", 0.55, "live", True, "2", False),) + rows[4:]
        monkeypatch.setitem(FIXTURES, "uniform-virtual-stream", (build, policy, p, flipped))
        code, out, _ = run_cli(capsys, "replay", "uniform-virtual-stream")
        lines = out.splitlines()
        assert code == 1
        assert lines[-1] == "FAIL"
        assert [ln for ln in lines if "<<" in ln] == [
            "  t=0.55  4        reject  kicked 2 (live)   << expected ('live', True, '2', False)"]

    def test_trace_export(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, _, _ = run_cli(capsys, "replay", "hat-claw", "--out", str(path))
        assert code == 0
        with open(path) as fp:
            records = load_records(fp)
        assert len(records) == 5
        assert sum(r.accepted for r in records) == 2

    def test_module_entry_point_exits_with_mains_code(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "matsec.cli", "replay", "triangle-sample"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "PASS"

    def test_separation_pair(self, capsys):
        _, out_sample, _ = run_cli(capsys, "replay", "triangle-sample")
        _, out_greedy, _ = run_cli(capsys, "replay", "triangle-greedy")
        assert "accepted: e1, e2" in out_sample
        assert "accepted: e2\n" in out_greedy


# -- simulate -------------------------------------------------------------------


class TestSimulate:
    def test_trace_on_stdout_summary_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--instance", "triangle",
                                 "--policy", "sample", "--seed", "4")
        assert code == 0
        records = load_records(io.StringIO(out))
        assert len(records) == 3
        assert "accepted" in err and "value" in err

    def test_reruns_are_byte_identical(self, capsys):
        args = ("simulate", "--instance", "hat", "--n", "4", "--seed", "9")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_schedule_round_trip(self, capsys, tmp_path):
        sched_path = tmp_path / "sched.txt"
        code, out1, _ = run_cli(capsys, "simulate", "--instance", "hat",
                                "--n", "3", "--seed", "2",
                                "--schedule-out", str(sched_path))
        assert code == 0
        with open(sched_path) as fp:
            parsed = parse_schedule(fp)
        assert len(parsed.order) == len(parsed.elements) == 7
        code, out2, _ = run_cli(capsys, "simulate", "--instance", "hat",
                                "--n", "3", "--schedule-file", str(sched_path))
        assert code == 0
        assert out1 == out2

    def test_dump_instance_round_trip(self, capsys, tmp_path):
        inst_path = tmp_path / "hat.inst"
        code, _, _ = run_cli(capsys, "simulate", "--instance", "hat", "--n", "2",
                             "--dump-instance", str(inst_path))
        assert code == 0
        with open(inst_path) as fp:
            base, weights = parse_instance(fp)
        assert weights.count == 5
        assert base.num_vertices == 4

    def test_instance_file_input(self, capsys, tmp_path):
        inst_path = tmp_path / "tri.inst"
        inst_path.write_text("matroid graphic 3 3\n"
                             "edge 0 0 1 1\nedge 1 1 2 2\nedge 2 2 0 3\n")
        code, out, _ = run_cli(capsys, "simulate",
                               "--instance-file", str(inst_path),
                               "--policy", "sample", "--seed", "0")
        assert code == 0
        assert len(load_records(io.StringIO(out))) == 3

    def test_out_file_moves_summary_to_stdout(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        code, out, err = run_cli(capsys, "simulate", "--instance", "triangle",
                                 "--out", str(path))
        assert code == 0
        assert "accepted" in out
        assert err == ""
        assert path.exists()


# -- estimate -------------------------------------------------------------------


class TestEstimate:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--instance", "triangle",
                               "--policy", "sample", "--trials", "50")
        assert code == 0
        obj = json.loads(out)
        assert obj["trials"] == 50
        assert set(obj["perElementAcceptFreq"]) == {"1", "2"}
        assert obj["analyticBound"] is None

    def test_reruns_are_byte_identical(self, capsys):
        args = ("estimate", "--instance", "hat", "--n", "3",
                "--trials", "120", "--seed", "6")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_hat_virtual_auto_bound(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--instance", "hat",
                               "--n", "3", "--policy", "virtual-msp",
                               "--trials", "40", "--p", "0.5")
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == ["trials", "perElementAcceptFreq", "minOverMwb",
                             "utilityRatioMean", "ciRadius3Sigma",
                             "analyticBound", "boundDirection"]
        assert obj["analyticBound"] == 0.25
        assert obj["boundDirection"] == "lower"

    def test_hat_bound_follows_the_instance_not_the_file_name(self, capsys, tmp_path):
        # a triangle saved as hat.inst is no hat graph: no bound in either command
        inst_path = tmp_path / "hat.inst"
        inst_path.write_text("matroid graphic 3 3\n"
                             "edge 0 0 1 1\nedge 1 1 2 2\nedge 2 2 0 3\n")
        code, out, _ = run_cli(capsys, "estimate", "--instance-file", str(inst_path),
                               "--p", "0.5", "--trials", "40")
        assert code == 0
        obj = json.loads(out)
        assert (obj["analyticBound"], obj["boundDirection"]) == (None, None)
        # the hat graph's own file keeps the stem in the CSV but gets no bound
        code, _, _ = run_cli(capsys, "simulate", "--instance", "hat", "--n", "2",
                             "--dump-instance", str(inst_path))
        assert code == 0
        code, out, _ = run_cli(capsys, "sweep", "--instance-file", str(inst_path),
                               "--p-grid", "0.5", "--trials", "20")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert {r[0] for r in rows} == {"hat"}
        assert {r[1] for r in rows} == {"5"}       # a file's size is its element count
        assert all(r[8] == "" for r in rows)

    def test_dynkin_auto_bound(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--instance", "uniform",
                               "--n", "6", "--k", "1", "--policy", "dynkin",
                               "--trials", "40", "--p", "0.4")
        assert code == 0
        obj = json.loads(out)
        assert obj["analyticBound"] == pytest.approx(0.4 * math.log(2.5), rel=1e-6)

    def test_dynkin200_bytes_are_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--instance", "uniform", "--n", "200",
                               "--k", "1", "--policy", "dynkin",
                               "--p", "0.36787944117144233", "--trials", "1000", "--seed", "0")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ec5c69e361ffab65d6e4172c319bd591740871b49d8caf377a715279e58fee3c")


# -- repeated in-process calls ------------------------------------------------------


class TestInProcessCalls:
    HAT = ("estimate", "--instance", "hat", "--trials", "50")

    def test_a_call_leaves_nothing_behind(self, capsys):
        code, first, _ = run_cli(capsys, *self.HAT)
        assert code == 0
        assert len(json.loads(first)["perElementAcceptFreq"]) == 6     # hat_graph(5): n = 5
        for argv, expected in [
                (("sweep", "--instance", "hat", "--n-grid", "3,4", "--trials", "20"), 0),
                (("estimate", "-h"), 0),
                (("estimate", "--instance", "hat", "--n", "3", "--p", "1.5"), 2)]:
            assert run_cli(capsys, *argv)[0] == expected
            assert run_cli(capsys, *self.HAT) == (0, first, "")

    def test_main_builds_its_parser_once(self, capsys, monkeypatch):
        assert run_cli(capsys, *self.HAT)[0] == 0       # the process's first call may build it
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)
        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        for argv in (self.HAT, ("replay", "triangle-sample"), ("estimate", "-h"), ("summon",)):
            run_cli(capsys, *argv)
        assert built == []

    @pytest.mark.parametrize("argv, starts, builds", [
        # one start per trial and cutoff, plus one empty-sample probe per bundle
        (("estimate", "--instance", "hat", "--n", "3", "--trials", "7"), 7 + 1, [3]),
        (("sweep", "--instance", "hat", "--n-grid", "2,3", "--p-grid", "0.25,0.5",
          "--trials", "7"), 2 * (7 * 2 + 1), [2, 3]),
        (("sweep", "--instance", "hat", "--p-grid", "0.5", "--trials", "7"), 7 + 1, [5]),
    ])
    def test_each_bundle_is_built_and_probed_once(self, capsys, monkeypatch, tmp_path,
                                                  argv, starts, builds):
        calls, built = [], []
        start, hat_graph = policies.VirtualMspPolicy.start, instances.hat_graph

        def counting_start(self, *args):
            calls.append(args)
            start(self, *args)
        monkeypatch.setattr(policies.VirtualMspPolicy, "start", counting_start)
        monkeypatch.setattr(instances, "hat_graph", lambda n: built.append(n) or hat_graph(n))
        out = tmp_path / "out"
        assert run_cli(capsys, *argv, "--policy", "virtual-msp", "--out", str(out))[0] == 0
        assert out.read_text()
        assert (len(calls), built) == (starts, builds)


# -- sweep ----------------------------------------------------------------------


class TestSweep:
    def read_rows(self, text):
        return list(csv.reader(io.StringIO(text)))

    def test_header_and_shape(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--instance", "triangle",
                               "--policy", "sample", "--trials", "30")
        assert code == 0
        rows = self.read_rows(out)
        assert rows[0] == ["instance", "n", "policy", "p", "trials",
                           "element", "freq", "ci", "bound"]
        assert len(rows) == 1 + 3 * 2    # default p grid x optimum size

    @pytest.mark.parametrize("instance, n", [
        (("--instance", "triangle"), "3"),
        (("--instance", "uniform", "--n", "4", "--k", "2"), "4"),
    ])
    def test_n_column_is_the_resolved_size(self, capsys, instance, n):
        code, out, _ = run_cli(capsys, "sweep", *instance, "--policy", "sample",
                               "--p-grid", "0.5", "--trials", "10")
        assert code == 0
        rows = self.read_rows(out)[1:]
        assert rows and {r[1] for r in rows} == {n}

    def test_n_grid_over_hat(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--instance", "hat",
                               "--n-grid", "2,3", "--p-grid", "0.5",
                               "--trials", "30")
        assert code == 0
        rows = self.read_rows(out)[1:]
        assert len(rows) == 3 + 4        # optimum sizes n+1 for each n
        hub_rows = [r for r in rows if r[5] == "e_inf"]
        assert len(hub_rows) == 2
        for row in hub_rows:
            assert float(row[8]) == pytest.approx(0.125)    # p^2 (1-p)
        top_rows = [r for r in rows if r[5].startswith("t_")]
        assert all(r[8] == "" for r in top_rows)

    @pytest.mark.parametrize("grid, message", [
        (("--n-grid", "64,100001"), "--n 100001 is too large (limit 100000)"),
        (("--n-grid", "2,0"), "hat graph needs n >= 1"),
        (("--n", "3", "--p-grid", "0.5,1.5"), "sampling cutoff p=1.5 outside [0, 1]"),
        (("--n-grid", "2,3", "--p-grid", "0.25,nan"), "sampling cutoff p=nan outside [0, 1]"),
    ])
    def test_whole_grid_is_checked_before_the_first_estimate(self, capsys, monkeypatch,
                                                             grid, message):
        def no_estimate(*args):
            raise AssertionError("an estimate ran before the grid was checked")
        monkeypatch.setattr(analysis, "run_trial", no_estimate)
        code, out, err = run_cli(capsys, "sweep", "--instance", "hat", *grid, "--trials", "5")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_hat_sweep_bytes_are_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--instance", "hat", "--n-grid", "3,6,12",
                               "--p-grid", "0.25,0.5", "--policy", "virtual-msp",
                               "--trials", "200", "--seed", "0")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "52ca304abce415e0b811d1c11613afacc9d71e85ed257a54f81fabb327caf3a4")

    def test_reruns_are_byte_identical(self, capsys):
        args = ("sweep", "--instance", "uniform", "--n", "4", "--k", "2",
                "--policy", "optimistic", "--trials", "40", "--seed", "2")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--instance", "triangle",
                               "--trials", "10", "--out", str(path))
        assert code == 0
        assert out == ""
        rows = self.read_rows(path.read_text())
        assert rows[0][0] == "instance"


# -- verify and certify -----------------------------------------------------------


class TestVerify:
    def test_passing_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "matroid-axioms", "--cases", "4")
        assert code == 0
        assert "0 failures" in out

    def test_equivalences_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "equivalences", "--cases", "10")
        assert code == 0

    def test_more_than_ten_failures_print_ten_and_a_count(self, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "check_claw_blocker", lambda trace, bundle: False)
        code, out, _ = run_cli(capsys, "verify", "claw-blocker", "--trials", "12")
        assert code == 1
        assert out.splitlines() == ["suite claw-blocker: 12 cases, 12 failures"] + [
            f"  trial {i}: hub edge not protected" for i in range(10)] + ["  ... and 2 more"]

    def test_forbidden_consistency_reports_gap(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "forbidden-consistency",
                               "--trials", "250", "--n", "5")
        assert code == 1
        assert "failures" in out
        assert "0 failures" not in out


class TestCertify:
    def test_stdout_bytes_are_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "certify")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "01f3ce079bed4ee2beb61bb84cc2a296ced2ddea0a018f29a62de41908254bbd")

    def test_stdout_json(self, capsys):
        code, out, err = run_cli(capsys, "certify")
        assert code == 0
        obj = json.loads(out)
        assert obj["checkedAssignments"] == 16
        assert len(obj["violations"]) == 16
        assert "checked 16 assignments" in err

    def test_a_surviving_assignment_is_incomplete(self, capsys, monkeypatch):
        cert = analysis.certify_no_size1_strong_fs()
        monkeypatch.setattr(cli, "certify_no_size1_strong_fs",
                            lambda: replace(cert, violations=cert.violations[1:]))
        code, out, err = run_cli(capsys, "certify")
        assert code == 1
        assert len(json.loads(out)["violations"]) == 15
        assert err.splitlines() == ["checked 16 assignments, 15 violated",
                                    "INCOMPLETE: some assignment survived"]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, out, _ = run_cli(capsys, "certify", "--out", str(path))
        assert code == 0
        assert "every size-1 blocked-set table fails" in out
        obj = json.loads(path.read_text())
        assert obj["checkedAssignments"] == 16
