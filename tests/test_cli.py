"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import validate_trace


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_fast_flag(self):
        args = build_parser().parse_args(["fig5", "--fast"])
        assert args.fast is True

    def test_rounds_option(self):
        args = build_parser().parse_args(["table5", "--rounds", "12"])
        assert args.rounds == 12

    def test_shared_flags_spelled_identically(self):
        parser = build_parser()
        subs = parser._subparsers._group_actions[0].choices
        shared = {
            # Each subcommand carries every shared flag that is meaningful
            # for it, under the one canonical spelling.
            "table5": ("--seed", "--rounds", "--out"),
            "fig5": ("--seed", "--rounds", "--out"),
            "trace": ("--clients", "--seed", "--rounds", "--out"),
            "simulate": ("--clients", "--seed", "--rounds", "--out"),
        }
        for name, flags in shared.items():
            help_text = subs[name].format_help()
            for flag in flags:
                assert flag in help_text, f"{name} missing {flag}"


def _subcommands_with_out():
    subs = build_parser()._subparsers._group_actions[0].choices
    return sorted(
        name for name, sub in subs.items() if "--out" in sub._option_string_actions
    )


class TestCleanFailures:
    """Bad arguments exit 2 with one ``error:`` line, before any work; a
    run that cannot finish exits 1 with one ``error:`` line."""

    def test_every_result_writing_subcommand_is_covered(self):
        assert {"serve", "simulate", "table5", "trace"} <= set(
            _subcommands_with_out()
        )

    @pytest.mark.parametrize("command", _subcommands_with_out())
    def test_out_in_missing_directory_exits_2(self, command, tmp_path, capsys):
        out = tmp_path / "missing" / "result.json"
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--out", str(out)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"repro {command}: error: argument --out: "
            f"directory {out.parent} does not exist"
        ]
        assert not out.parent.exists()

    def test_out_naming_a_directory_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["table6", "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "is a directory" in capsys.readouterr().err

    def test_removed_perf_subcommand_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["perf"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: argument command: invalid choice: 'perf'")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--clients", "8", "--rounds", "1", "--out", "{missing}"),
            ("simulate", "--clients", "8", "--rounds", "1", "--cohort", "0"),
            ("simulate", "--clients", "8", "--rounds", "1", "--dropout", "2"),
            ("simulate", "--clients", "8", "--rounds", "1", "--policy", "bogus"),
        ],
    )
    def test_child_process_has_no_traceback(self, argv, tmp_path, spawn_repro):
        missing = str(tmp_path / "missing" / "report.json")
        result = spawn_repro(
            *(arg.format(missing=missing) for arg in argv), check=False
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith(f"repro {argv[0]}: error: ")

    def test_async_stall_exits_1_without_traceback(self, spawn_repro):
        result = spawn_repro(
            "simulate", "--clients", "200", "--rounds", "4", "--seed", "7",
            "--async", "--max-norm", "2", check=False,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "repro simulate: error: async pipeline stalled before commit 1: "
            "every client is quarantined or busy and no update is buffered"
        ]


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table5", "table6", "fig5", "fig6", "fig8"):
            assert name in out

    def test_table6(self, capsys):
        assert main(["table6"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "L2+L5" in out
        assert "MiB" in out

    def test_fig8(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "DarkneTZ" in out

    def test_fig5_fast(self, capsys):
        assert main(["fig5", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "ImageLoss" in out

    def test_fig6_fast(self, capsys):
        assert main(["fig6", "--fast"]) == 0
        assert "AUC" in capsys.readouterr().out

    def test_table5_fast(self, capsys):
        assert main(["table5", "--fast"]) == 0
        assert "MW=2" in capsys.readouterr().out

    def test_summary(self, capsys):
        assert main(["summary"]) == 0
        assert "GradSec" in capsys.readouterr().out


class TestTrace:
    """``repro trace`` emits schema-valid, properly nested, ordered JSON."""

    def run_trace(self, capsys, argv=("trace",)):
        assert main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)

    def test_emits_schema_valid_json(self, capsys):
        payload = self.run_trace(capsys)
        assert payload["schema"] == 1
        assert payload["command"] == "trace"
        assert payload["config"]["clients"] == 2
        validate_trace(payload["trace"])

    def test_span_structure_covers_the_round(self, capsys):
        payload = self.run_trace(capsys)
        spans = payload["trace"]["spans"]
        names = {span["name"] for span in spans}
        assert {"fl.round", "fl.client.train", "tee.smc"} <= names
        # Fake-clock timestamps: creation order is strictly increasing.
        starts = [span["start"] for span in spans]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)
        # Client training happens inside the round span.
        (round_span,) = [s for s in spans if s["name"] == "fl.round"]
        trains = [s for s in spans if s["name"] == "fl.client.train"]
        assert len(trains) == payload["config"]["clients"]
        for train in trains:
            assert train["parent_id"] == round_span["span_id"]

    def test_metrics_snapshot_included(self, capsys):
        payload = self.run_trace(capsys)
        counters = payload["metrics"]["counters"]
        assert "tee.smc.calls" in counters
        assert "fl.rounds" in counters
        assert sum(counters["fl.client.steps"].values()) == (
            payload["config"]["clients"] * payload["config"]["steps"]
        )

    def test_protect_option_changes_smc_attribution(self, capsys):
        payload = self.run_trace(capsys, ("trace", "--protect", "2"))
        assert payload["config"]["protected_layers"] == [2]
        smc = [
            s
            for s in payload["trace"]["spans"]
            if s["name"] == "tee.smc"
            and s["attributes"].get("command") == "forward_run"
        ]
        assert smc
        for span in smc:
            assert span["attributes"]["indices"] == [2]

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "trace.json"
        assert main(["trace", "--out", str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        payload = json.loads(target.read_text())
        validate_trace(payload["trace"])
