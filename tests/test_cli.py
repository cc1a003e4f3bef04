"""Command-line behavior: exit codes, artifacts, determinism, round-trips."""
import gc
import json
import math
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from xml.dom import minidom

import pytest

import pulsesched
from pulsesched import WorkBudgetError, cli, ticks
from pulsesched.cli import main

SCENARIOS = Path(pulsesched.__file__).parent / "scenarios"


def run(argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_scenario1_random_metrics(self, tmp_path, capsys):
        assert run(["simulate", SCENARIOS / "scenario1_random.json", "--out", tmp_path]) == 0
        out = capsys.readouterr().out
        assert "min 20 A, max 100 A" in out
        doc = json.loads((tmp_path / "scenario1_random.metrics.json").read_text())
        assert doc == {"min_a": "20", "max_a": "100", "fluctuation_a": "80", "mean_a": "56"}

    def test_scenario2_staggered_metrics(self, tmp_path):
        assert run(["simulate", SCENARIOS / "scenario2_staggered.json", "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "scenario2_staggered.metrics.json").read_text())
        assert (doc["min_a"], doc["max_a"]) == ("40", "60")

    def test_single_load(self, tmp_path, capsys):
        sc = tmp_path / "one.json"
        sc.write_text(
            '{"loads": [{"id": 1, "amplitude_a": 7, "frequency_hz": 1, '
            '"duty_pct": 40, "phase_s": 0.1}]}'
        )
        assert run(["simulate", sc, "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "one.metrics.json").read_text())
        assert (doc["min_a"], doc["max_a"]) == ("0", "7")

    def test_csv_and_svg_flags(self, tmp_path):
        assert run(
            ["simulate", SCENARIOS / "scenario1_random.json", "--out", tmp_path, "--csv", "--svg"]
        ) == 0
        assert (tmp_path / "scenario1_random.waveform.csv").exists()
        assert (tmp_path / "scenario1_random.waveform.svg").exists()

    def test_missing_phase_exits_2(self, tmp_path):
        sc = tmp_path / "nophase.json"
        sc.write_text('{"loads": [{"id": 1, "amplitude_a": 7, "frequency_hz": 1, "duty_pct": 40}]}')
        assert run(["simulate", sc, "--out", tmp_path]) == 2

    def test_invalid_scenario_exits_2(self, tmp_path):
        sc = tmp_path / "bad.json"
        sc.write_text('{"loads": [{"id": 1, "amplitude_a": -7, "frequency_hz": 1, "duty_pct": 40}]}')
        assert run(["simulate", sc, "--out", tmp_path]) == 2

    def test_sweep_above_the_edge_budget_exits_3(self, tmp_path, capsys):
        # a 2 us load next to a coprime 10.000001 s load: 2 x 10000001 edges
        sc = tmp_path / "budget.json"
        sc.write_text(
            '{"loads": ['
            '{"id": 1, "amplitude_a": 1, "frequency_hz": 500000, "duty_pct": 50, "phase_s": 0},'
            '{"id": 2, "amplitude_a": 1, "frequency_hz": "1000000/10000001", '
            '"duty_pct": "100/10000001", "phase_s": 0}]}'
        )
        out = tmp_path / "out"
        assert run(["simulate", sc, "--out", out]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "edges" in captured.err
        assert captured.out == ""
        assert not out.exists()


# two always-on loads whose periods' LCM exceeds the 2^63 - 1 tick range
HYPERPERIOD_OVERFLOW = (
    '{"loads": ['
    '{"id": 1, "amplitude_a": 1, "frequency_hz": "1000000/999999999989", "duty_pct": "100", "phase_s": 0},'
    '{"id": 2, "amplitude_a": 1, "frequency_hz": "1000000/999999999959", "duty_pct": "100", "phase_s": 0}]}'
)


class TestHyperperiodOverflow:
    @pytest.mark.parametrize("command", ["simulate", "schedule"])
    def test_exits_3_with_an_error_line(self, tmp_path, capsys, command):
        sc = tmp_path / "overflow.json"
        sc.write_text(HYPERPERIOD_OVERFLOW)
        assert run([command, sc, "--out", tmp_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestSchedule:
    def test_scenario1_improves_to_ten_amp_band(self, tmp_path, capsys):
        assert run(["schedule", SCENARIOS / "scenario1_random.json", "--out", tmp_path]) == 0
        after = json.loads((tmp_path / "scenario1_random.metrics_after.json").read_text())
        assert (after["min_a"], after["max_a"]) == ("50", "60")
        rows = json.loads((tmp_path / "scenario1_random.schedule.json").read_text())["loads"]
        assert [r["id"] for r in rows] == list(range(1, 11))
        assert sum(r["role"] == "bin" for r in rows) == 6
        for r in rows:
            assert set(r) == {"id", "group", "role", "phase_s"}

    def test_scenario2_constant_fifty(self, tmp_path):
        assert run(["schedule", SCENARIOS / "scenario2_random.json", "--out", tmp_path]) == 0
        after = json.loads((tmp_path / "scenario2_random.metrics_after.json").read_text())
        assert after == {"min_a": "50", "max_a": "50", "fluctuation_a": "0", "mean_a": "50"}
        rows = json.loads((tmp_path / "scenario2_random.schedule.json").read_text())["loads"]
        assert {r["group"] for r in rows} == {1, 2}

    def test_round_trip_reproduces_after_metrics_bytes(self, tmp_path):
        assert run(["schedule", SCENARIOS / "scenario2_random.json", "--out", tmp_path]) == 0
        scheduled = tmp_path / "scenario2_random.scheduled.json"
        assert run(["simulate", scheduled, "--out", tmp_path]) == 0
        reported = (tmp_path / "scenario2_random.metrics_after.json").read_bytes()
        resimulated = (tmp_path / "scenario2_random.scheduled.metrics.json").read_bytes()
        assert reported == resimulated

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["schedule", SCENARIOS / "scenario1_random.json", "--out", out]) == 0
        for name in (
            "scenario1_random.schedule.json",
            "scenario1_random.scheduled.json",
            "scenario1_random.metrics_after.json",
        ):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_allow_partial_flag_accepted(self, tmp_path):
        code = run(
            ["schedule", SCENARIOS / "scenario2_random.json", "--out", tmp_path, "--allow-partial"]
        )
        assert code == 0

    def test_group_unrealizable_on_fewest_bins_is_scheduled_with_or_without_partial(
        self, tmp_path, capsys
    ):
        # periods 45, 45, 15, 30, 30, 30 ticks: one bin packs but no one-bin
        # placement realizes
        sc = tmp_path / "conflict.json"
        sc.write_text(
            '{"loads": ['
            '{"id": 1, "amplitude_a": 10, "frequency_hz": "200000/9", "duty_pct": "40/9"},'
            '{"id": 2, "amplitude_a": 10, "frequency_hz": "200000/9", "duty_pct": "20/3"},'
            '{"id": 3, "amplitude_a": 10, "frequency_hz": "200000/3", "duty_pct": 20},'
            '{"id": 4, "amplitude_a": 10, "frequency_hz": "100000/3", "duty_pct": 10},'
            '{"id": 5, "amplitude_a": 10, "frequency_hz": "100000/3", "duty_pct": "80/3"},'
            '{"id": 6, "amplitude_a": 10, "frequency_hz": "100000/3", "duty_pct": 20}]}'
        )
        outputs = []
        for extra, out in (([], tmp_path / "strict"), (["--allow-partial"], tmp_path / "partial")):
            assert run(["schedule", sc, "--out", out, *extra]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert captured.out.startswith("groups: 1, bin-type loads: 2\n")
            files_out = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            outputs.append((captured.out, files_out))
        assert outputs[0] == outputs[1]
        rows = json.loads((tmp_path / "strict" / "conflict.schedule.json").read_text())["loads"]
        assert [r["role"] for r in rows] == ["item", "item", "bin", "item", "item", "bin"]

    def test_phaseless_scenario_defaults_bins_to_zero(self, tmp_path):
        sc = tmp_path / "nophase.json"
        sc.write_text(
            '{"loads": ['
            '{"id": 1, "amplitude_a": 10, "frequency_hz": 1, "duty_pct": 50},'
            '{"id": 2, "amplitude_a": 10, "frequency_hz": 1, "duty_pct": 50}]}'
        )
        assert run(["schedule", sc, "--out", tmp_path]) == 0
        after = json.loads((tmp_path / "nophase.metrics_after.json").read_text())
        assert after["fluctuation_a"] == "0"


class TestErrorContract:
    def test_unlisted_scheduling_error_exits_3_without_traceback(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise WorkBudgetError("loads must share one period")

        monkeypatch.setattr(cli, "schedule_fleet", fail)
        assert run(["schedule", SCENARIOS / "scenario1_random.json", "--out", tmp_path]) == 3
        assert capsys.readouterr().err == "error: loads must share one period\n"

    def test_value_error_exits_3_without_traceback(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("Exceeds the limit (4300 digits) for integer string conversion")

        monkeypatch.setattr(cli, "schedule_fleet", fail)
        assert run(["schedule", SCENARIOS / "scenario1_random.json", "--out", tmp_path]) == 3
        err = capsys.readouterr().err
        assert err == "error: Exceeds the limit (4300 digits) for integer string conversion\n"

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["existing-file", "below-a-file"])
    def test_out_that_cannot_be_created_exits_3_naming_it(self, tmp_path, capsys, sub):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / sub if sub else blocker
        assert run(["simulate", SCENARIOS / "scenario1_random.json", "--out", out]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {str(out)!r}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_3_naming_stdout(self, tmp_path, buffered):
        """stdout is a pipe whose reader has closed: the run names stdout, removes its report,
        and Python's flush of stdout at exit prints no second error."""
        package_root = str(Path(pulsesched.__file__).parents[1])
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])),
        }
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        out = tmp_path / "out"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pulsesched.cli", "simulate",
                 str(SCENARIOS / "scenario1_random.json"), "--out", str(out)],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 3
        assert proc.stderr.decode() == "error: cannot write stdout: Broken pipe\n"
        assert not out.exists()  # its report removed, then the --out it created

    @pytest.mark.parametrize(
        "argv, blocked",
        [
            (["simulate"], "metrics.json"),
            (["schedule"], "metrics_after.json"),  # after three reports
            (["simulate", "--csv", "--svg"], "waveform.svg"),  # after the metrics and the CSV
        ],
        ids=["first", "last", "svg"],
    )
    def test_report_that_cannot_be_written_exits_3_printing_nothing(self, tmp_path, capsys, argv, blocked):
        """A directory in a report's place fails the run, which removes the reports it wrote."""
        out = tmp_path / "out"
        report = out / f"scenario1_random.{blocked}"
        report.mkdir(parents=True)
        (out / "unrelated.txt").write_text("kept")
        assert run([*argv, SCENARIOS / "scenario1_random.json", "--out", out]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        # the report, not the temp file, which is gone
        assert captured.err.startswith(f"error: cannot write '{report}': ")
        assert ".tmp" not in captured.err
        assert captured.err.count("\n") == 1
        assert sorted(p.name for p in out.iterdir()) == sorted([report.name, "unrelated.txt"])
        assert (out / "unrelated.txt").read_text() == "kept"

    @pytest.mark.parametrize("raw", ['"1e5000"', "1e5000", '"1e999999999"', "1e999999999"])
    def test_oversized_exponent_exits_2(self, tmp_path, capsys, raw):
        sc = tmp_path / "huge.json"
        sc.write_text(
            f'{{"loads": [{{"id": 1, "amplitude_a": {raw}, "frequency_hz": 1, "duty_pct": 40, "phase_s": 0}}]}}'
        )
        start = time.perf_counter()
        assert run(["simulate", sc, "--out", tmp_path]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "raw", ['"1' + "0" * 4000 + 'e300"', "1" + "0" * 4000 + "e300"], ids=["string", "number"]
    )
    def test_oversized_digit_count_exits_2_before_any_output(self, tmp_path, capsys, raw):
        sc = tmp_path / "long.json"
        sc.write_text(
            f'{{"loads": [{{"id": 1, "amplitude_a": {raw}, "frequency_hz": 10, "duty_pct": 50, "phase_s": 0}}]}}'
        )
        assert run(["simulate", sc, "--out", tmp_path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "digits" in err and err.count("\n") == 1

    def test_amplitude_at_both_bounds_simulates(self, tmp_path, capsys):
        raw = "9" * ticks.MAX_DIGITS + f"e{ticks.MAX_EXPONENT}"
        sc = tmp_path / "edge.json"
        sc.write_text(
            json.dumps(
                {
                    "loads": [
                        {"id": 1, "amplitude_a": raw, "frequency_hz": 10, "duty_pct": 50, "phase_s": 0},
                        {"id": 2, "amplitude_a": raw, "frequency_hz": 5, "duty_pct": 20, "phase_s": 0},
                    ]
                }
            )
        )
        assert run(["simulate", sc, "--out", tmp_path, "--csv", "--svg"]) == 0
        assert capsys.readouterr().err == ""
        minidom.parse(str(tmp_path / "edge.waveform.svg"))
        metrics = json.loads((tmp_path / "edge.metrics.json").read_text())
        assert metrics["max_a"] == str(2 * Fraction(raw))

    @staticmethod
    def thousand_digit_amplitudes(tmp_path, n: int) -> tuple[Path, int]:
        """A scenario of n equal-period loads whose amplitudes are 1/(10**999 + k), k = 1..n,
        each denominator of 1000 digits, within ticks.MAX_DIGITS; and their lcm's bit count."""
        dens = [10**999 + k for k in range(1, n + 1)]
        loads = [
            {"id": k, "amplitude_a": f"1/{d}", "frequency_hz": 1, "duty_pct": 50, "phase_s": 0}
            for k, d in enumerate(dens, 1)
        ]
        sc = tmp_path / f"amps{n}.json"
        sc.write_text(json.dumps({"loads": loads}))
        return sc, math.lcm(*dens).bit_length()

    @pytest.mark.parametrize("command", ["simulate", "schedule"])
    def test_amplitudes_past_the_denominator_budget_exit_3_at_once(self, tmp_path, capsys, command):
        sc, bits = self.thousand_digit_amplitudes(tmp_path, 11)
        assert bits == 36490
        out = tmp_path / "out"
        start = time.perf_counter()
        assert run([command, sc, "--out", out]) == 3
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err == (
            "error: a common denominator of the loads' amplitudes passes "
            f"{pulsesched.waveform.MAX_DENOMINATOR_BITS} bits\n"
        )
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "schedule"])
    def test_amplitudes_within_the_denominator_budget_run(self, tmp_path, capsys, command):
        sc, bits = self.thousand_digit_amplitudes(tmp_path, 10)
        assert bits == 33173 <= pulsesched.waveform.MAX_DENOMINATOR_BITS
        assert run([command, sc, "--out", tmp_path]) == 0
        assert capsys.readouterr().err == ""

    @staticmethod
    def csv_digit_limit_error() -> str:
        return (
            "error: the waveform CSV cannot print a level whose numerator or denominator has more than "
            f"{sys.get_int_max_str_digits()} digits\n"
        )

    @pytest.mark.parametrize("command", ["simulate", "schedule"])
    def test_csv_level_past_the_digit_limit_exits_3(self, tmp_path, capsys, command):
        """Ten loads of 1-50 Hz with amplitudes 1/(10**999 + k), within the denominator budget:
        their summed levels are ratios of up to 10^4 digits, which str() of an int refuses."""
        loads = [
            {"id": k, "amplitude_a": f"1/{10**999 + k}", "frequency_hz": f, "duty_pct": 50, "phase_s": 0}
            for k, f in enumerate((1, 2, 4, 5, 8, 10, 20, 25, 40, 50), 1)
        ]
        sc = tmp_path / "levels.json"
        sc.write_text(json.dumps({"loads": loads}))
        out = tmp_path / "out"
        assert run([command, sc, "--out", out / "deep", "--csv"]) == 3
        captured = capsys.readouterr()
        assert captured.err == self.csv_digit_limit_error()
        assert captured.out == ""
        # the reports written before the CSV are removed, then both directories the run created
        assert not out.exists()

    @pytest.mark.parametrize("n, written", [(4, True), (5, False)])
    def test_csv_refuses_only_a_level_past_the_digit_limit(self, tmp_path, capsys, n, written):
        """One period, all loads on together: the top level's denominator has 3996 digits
        for 4 loads, within the limit of 4300, and 4994 for 5, past it."""
        sc, _ = self.thousand_digit_amplitudes(tmp_path, n)
        assert sys.get_int_max_str_digits() == 4300
        assert run(["simulate", sc, "--out", tmp_path, "--csv"]) == (0 if written else 3)
        assert capsys.readouterr().err == ("" if written else self.csv_digit_limit_error())
        csv = tmp_path / f"amps{n}.waveform.csv"
        assert csv.exists() == written
        if written:
            top = Fraction(csv.read_text().splitlines()[1].split(",")[1])
            assert top == sum(Fraction(1, 10**999 + k) for k in range(1, n + 1))
            assert len(str(top.denominator)) == 3996

    def test_deeply_nested_json_exits_2_without_traceback(self, tmp_path, capsys):
        sc = tmp_path / "deep.json"
        sc.write_text('{"loads": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert run(["schedule", sc, "--out", tmp_path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_scenario_that_is_not_utf8_exits_2_naming_the_file(self, tmp_path, capsys):
        sc = tmp_path / "latin.json"
        sc.write_bytes(b'{"loads": [\xff\xfe]}')
        assert run(["simulate", sc, "--out", tmp_path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {sc}: not UTF-8") and err.count("\n") == 1

    def test_markup_in_the_scenario_name_keeps_the_svg_well_formed(self, tmp_path):
        sc = tmp_path / "a&b<c.json"
        shutil.copy(SCENARIOS / "scenario1_random.json", sc)
        assert run(["simulate", sc, "--out", tmp_path, "--svg"]) == 0
        minidom.parse(str(tmp_path / "a&b<c.waveform.svg"))

    def test_reports_are_utf8_under_an_ascii_locale(self, tmp_path):
        sc = tmp_path / "pulsé.json"
        shutil.copy(SCENARIOS / "scenario1_staggered.json", sc)
        package_root = str(Path(pulsesched.__file__).parents[1])
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])),
            "PYTHONUTF8": "0",
            "PYTHONCOERCECLOCALE": "0",
            "LC_ALL": "C",
        }
        proc = subprocess.run(
            [sys.executable, "-m", "pulsesched.cli", "simulate", sc, "--out", tmp_path, "--svg"],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        svg = (tmp_path / "pulsé.waveform.svg").read_bytes().decode("utf-8")
        assert "pulsé" in svg

    def test_stdout_that_cannot_encode_the_lines_exits_3_naming_stdout(self, tmp_path):
        sc = tmp_path / "accent.json"
        sc.write_text(
            '{"loads": [{"id": "\\u00e9", "amplitude_a": 10, "frequency_hz": 10, "duty_pct": 50,'
            ' "phase_s": 0, "voltage_v": 400, "soc_pct": 50}], "power": {"p_max_w": 100000}}'
        )
        package_root = str(Path(pulsesched.__file__).parents[1])
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])),
            "PYTHONUTF8": "0",
            "PYTHONCOERCECLOCALE": "0",
            "LC_ALL": "C",
        }
        env.pop("PYTHONIOENCODING", None)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "pulsesched.cli", "plan-power", sc, "--out", out],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 3
        assert proc.stdout == b""
        assert proc.stderr.decode() == (
            "error: cannot write stdout: 'ascii' codec can't encode character '\\xe9' "
            "in position 12: ordinal not in range(128)\n"
        )
        assert not out.exists()  # its report removed, then the --out it created


class TestPlanPower:
    def test_greedy_split(self, tmp_path):
        assert run(["plan-power", SCENARIOS / "power_demo.json", "--out", tmp_path]) == 0
        plan = json.loads((tmp_path / "power_demo.plan.json").read_text())
        assert plan["admitted"] == [1, 2]
        assert plan["postponed"] == [3]
        assert plan["scale"] == "1"

    @pytest.mark.parametrize("flag", ["--csv", "--svg"])
    def test_waveform_flags_are_a_usage_error(self, tmp_path, capsys, flag):
        # plan-power writes no waveform, so it takes no waveform flags
        with pytest.raises(SystemExit) as info:
            run(["plan-power", SCENARIOS / "power_demo.json", "--out", tmp_path, flag])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert gc.isenabled()  # main restores the collector on argparse's SystemExit too

    def test_amplitude_mode_scales_five_sixths(self, tmp_path):
        sc = tmp_path / "cap.json"
        sc.write_text(
            '{"loads": ['
            '{"id": 1, "amplitude_a": 2, "frequency_hz": 1, "duty_pct": 50, "voltage_v": 400, "soc_pct": 20},'
            '{"id": 2, "amplitude_a": 2, "frequency_hz": 1, "duty_pct": 50, "voltage_v": 400, "soc_pct": 50},'
            '{"id": 3, "amplitude_a": 2, "frequency_hz": 1, "duty_pct": 50, "voltage_v": 400, "soc_pct": 80}],'
            ' "power": {"p_max_w": 1000}}'
        )
        assert run(["plan-power", sc, "--out", tmp_path, "--mode", "amplitude"]) == 0
        plan = json.loads((tmp_path / "cap.plan.json").read_text())
        assert plan["admitted"] == [1, 2, 3]
        assert plan["scale"] == "0.833"
        derated = json.loads((tmp_path / "cap.derated.json").read_text())
        assert derated["loads"][0]["amplitude_a"] == "5/3"

    def test_duty_mode_off_the_tick_grid_exits_3(self, tmp_path, capsys):
        # 5/6 of a 250000-tick on-width is 625000/3 ticks, off the 1 us grid
        sc = tmp_path / "offgrid.json"
        sc.write_text(
            '{"loads": ['
            '{"id": 1, "amplitude_a": 2, "frequency_hz": 2, "duty_pct": 50, "voltage_v": 400, "soc_pct": 20},'
            '{"id": 2, "amplitude_a": 2, "frequency_hz": 2, "duty_pct": 50, "voltage_v": 400, "soc_pct": 50},'
            '{"id": 3, "amplitude_a": 2, "frequency_hz": 2, "duty_pct": 50, "voltage_v": 400, "soc_pct": 80}],'
            ' "power": {"p_max_w": 1000}}'
        )
        out = tmp_path / "out"
        assert run(["plan-power", sc, "--out", out, "--mode", "duty"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert not out.exists()

    def test_cap_below_smallest_load_exits_3(self, tmp_path):
        sc = tmp_path / "tiny.json"
        sc.write_text(
            '{"loads": [{"id": 1, "amplitude_a": 2, "frequency_hz": 1, "duty_pct": 50, '
            '"voltage_v": 400, "soc_pct": 20}], "power": {"p_max_w": 10}}'
        )
        assert run(["plan-power", sc, "--out", tmp_path]) == 3

    def test_socs_past_the_denominator_budget_exit_3(self, tmp_path, capsys):
        # eleven coprime SOC denominators of at most 1000 digits each, every one within the
        # scenario's digit bound, whose lcm has more than 10 * 1000 digits
        dens = []
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            e = 1
            while p ** (e + 1) < 10**999:
                e += 1
            dens.append(p**e)
        loads = [
            {"id": k, "amplitude_a": 2, "frequency_hz": 1, "duty_pct": 50, "voltage_v": 400,
             "soc_pct": f"1/{d}"}
            for k, d in enumerate(dens)
        ]
        sc = tmp_path / "socs.json"
        sc.write_text(json.dumps({"loads": loads, "power": {"p_max_w": 1000}}))
        out = tmp_path / "out"
        assert run(["plan-power", sc, "--out", out]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: a common denominator of the loads' SOCs passes {pulsesched.waveform.MAX_DENOMINATOR_BITS} bits\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_derated_amplitude_past_the_digit_limit_exits_3(self, tmp_path, capsys):
        """Ten 1 Hz loads of 1 V with amplitudes 1/(10**999 + k), de-rated to a cap of 1/10**999 W:
        each de-rated amplitude is a ratio over their common denominator of 10^4 digits."""
        loads = [
            {"id": k, "amplitude_a": f"1/{10**999 + k}", "voltage_v": 1, "soc_pct": 50,
             "frequency_hz": 1, "duty_pct": 100, "phase_s": 0}
            for k in range(1, 11)
        ]
        sc = tmp_path / "amps.json"
        sc.write_text(json.dumps({"loads": loads, "power": {"p_max_w": f"1/{10**999}"}}))
        out = tmp_path / "out"
        assert run(["plan-power", sc, "--out", out, "--mode", "amplitude"]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "error: the de-rated scenario cannot print an amplitude whose numerator or denominator "
            f"has more than {sys.get_int_max_str_digits()} digits\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_missing_soc_exits_4(self, tmp_path):
        sc = tmp_path / "nosoc.json"
        sc.write_text(
            '{"loads": [{"id": 1, "amplitude_a": 2, "frequency_hz": 1, "duty_pct": 50, '
            '"voltage_v": 400}], "power": {"p_max_w": 1000}}'
        )
        assert run(["plan-power", sc, "--out", tmp_path]) == 4

    def test_missing_cap_exits_2(self, tmp_path):
        sc = tmp_path / "nocap.json"
        sc.write_text(
            '{"loads": [{"id": 1, "amplitude_a": 2, "frequency_hz": 1, "duty_pct": 50, '
            '"voltage_v": 400, "soc_pct": 10}]}'
        )
        assert run(["plan-power", sc, "--out", tmp_path]) == 2


class TestOneProcess:
    def test_runs_in_sequence_match_fresh_runs_and_no_option_leaks(self, tmp_path, capsys):
        # one parser serves every call: each run must write and print what
        # a fresh process writes and prints for the same arguments
        demo = SCENARIOS / "power_demo.json"
        argvs = [
            ["plan-power", demo, "--mode", "amplitude"],
            ["plan-power", demo],
            ["schedule", SCENARIOS / "scenario1_random.json"],
            ["simulate", SCENARIOS / "scenario1_staggered.json", "--csv", "--svg"],
        ]
        package_root = str(Path(pulsesched.__file__).parents[1])
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])),
        }
        for k, argv in enumerate(argvs):
            here, fresh = tmp_path / f"here{k}", tmp_path / f"fresh{k}"
            assert run([*argv, "--out", here]) == 0
            stdout = capsys.readouterr().out
            proc = subprocess.run(
                [sys.executable, "-m", "pulsesched.cli", *map(str, argv), "--out", str(fresh)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            assert stdout == proc.stdout
            written = {f.name: f.read_bytes() for f in here.iterdir()}
            assert written == {f.name: f.read_bytes() for f in fresh.iterdir()}
        assert "power_demo.derated.json" in {f.name for f in (tmp_path / "here0").iterdir()}
        assert [f.name for f in (tmp_path / "here1").iterdir()] == ["power_demo.plan.json"]
        assert json.loads((tmp_path / "here1" / "power_demo.plan.json").read_text())["mode"] is None


    def test_a_run_makes_no_garbage_collection(self, tmp_path):
        """The collector is paused for the run: a de-rating plan on 1000 loads, which allocates
        some 10^4 containers, sets off no collection while it runs, and the collector is on
        again after it."""
        loads = [
            {"id": k, "amplitude_a": 1 + k % 7, "voltage_v": 400, "soc_pct": k % 100,
             "frequency_hz": (1, 2, 5, 10)[k % 4], "duty_pct": 50, "phase_s": 0}
            for k in range(1000)
        ]
        sc = tmp_path / "fleet.json"
        sc.write_text(json.dumps({"loads": loads, "power": {"p_max_w": 10**5}}))
        argv = ["plan-power", str(sc), "--out", str(tmp_path), "--mode", "amplitude"]
        assert gc.isenabled()
        # a collection now zeroes the generation counts, so the few allocations between here
        # and main's gc.disable() (get_stats' own list and dicts among them) cannot set one
        # off; get_stats reads the counts before it allocates, and the first allocation after
        # the run may set off the collection that the run's allocations have earned
        gc.collect()
        before = gc.get_stats()
        code = main(argv)
        after = gc.get_stats()
        assert code == 0
        assert sum(s["collections"] for s in after) == sum(s["collections"] for s in before)
        assert gc.isenabled()
        assert (tmp_path / "fleet.derated.json").exists()


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        exe = shutil.which("pulsesched")
        if exe is None:
            cmd = [sys.executable, "-m", "pulsesched.cli"]
        else:
            cmd = [exe]
        proc = subprocess.run(
            [*cmd, "simulate", str(SCENARIOS / "scenario1_staggered.json"), "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "min 50 A, max 60 A" in proc.stdout
