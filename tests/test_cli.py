"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.io.checkpoint import save_checkpoint


class TestSolve:
    def test_plain_output(self, capsys):
        assert main(["solve", "--sensors", "8"]) == 0
        out = capsys.readouterr().out
        assert "avg utility per slot" in out
        assert "0.64" in out  # 1 - 0.6^2 with 8 sensors over 4 slots

    def test_json_output(self, capsys):
        assert main(["solve", "--sensors", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "greedy"
        assert payload["schedule"]["kind"] == "periodic"
        assert payload["average_slot_utility"] == pytest.approx(0.64)

    def test_json_schedule_roundtrips(self, capsys):
        from repro.io.serialization import schedule_from_dict

        main(["solve", "--sensors", "6", "--json"])
        payload = json.loads(capsys.readouterr().out)
        schedule = schedule_from_dict(payload["schedule"])
        assert schedule.scheduled_sensors == frozenset(range(6))

    def test_lp_method(self, capsys):
        assert main(["solve", "--sensors", "6", "--method", "lp"]) == 0
        assert "lp_objective" in capsys.readouterr().out

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            main(["solve", "--method", "sorcery"])

    def test_hef_method(self, capsys):
        assert main(["solve", "--sensors", "8", "--method", "hef"]) == 0
        out = capsys.readouterr().out
        assert "method  : hef" in out
        assert "avg utility per slot" in out

    def test_hef_json_is_deterministic(self, capsys):
        args = ["solve", "--sensors", "10", "--method", "hef", "--json",
                "--no-cache"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        first.pop("solve_seconds", None)
        second.pop("solve_seconds", None)
        assert first == second

    def test_hef_rejects_dense_regime(self, capsys):
        assert main(
            ["solve", "--sensors", "8", "--rho", "0.5", "--method", "hef"]
        ) == 2
        assert "sparse" in capsys.readouterr().err


class TestSimulate:
    def test_greedy_plan_executes_cleanly(self, capsys):
        assert main(["simulate", "--sensors", "8", "--periods", "3"]) == 0
        out = capsys.readouterr().out
        assert "refused activations : 0" in out

    def test_scheduled_equals_achieved(self, capsys):
        main(["simulate", "--sensors", "8", "--periods", "2"])
        out = capsys.readouterr().out
        scheduled = next(
            line for line in out.splitlines() if "scheduled" in line
        ).split(":")[1]
        achieved = next(
            line for line in out.splitlines() if "achieved" in line
        ).split(":")[1]
        assert float(scheduled) == pytest.approx(float(achieved))


class TestCheckpointResume:
    def test_interrupted_run_resumes_to_same_result(self, capsys, tmp_path):
        """Kill a simulate run mid-way, resume from its checkpoint, and
        require the same achieved utility as the uninterrupted run."""
        ckpt = str(tmp_path / "run.ckpt")
        args = ["--sensors", "12", "--periods", "8", "--seed", "4"]

        assert main(["simulate", *args]) == 0
        full = capsys.readouterr().out

        assert (
            main(
                [
                    "simulate",
                    *args,
                    "--checkpoint",
                    ckpt,
                    "--checkpoint-every",
                    "5",
                    "--stop-after",
                    "13",
                ]
            )
            == 0
        )
        interrupted = capsys.readouterr().out
        assert "stopped after 13/32 slots" in interrupted

        assert main(["resume", "--checkpoint", ckpt]) == 0
        resumed = capsys.readouterr().out
        assert "resuming at slot 13/32" in resumed

        def achieved(out):
            return next(
                line for line in out.splitlines() if "achieved" in line
            )

        assert achieved(resumed) == achieved(full)

    def test_resume_of_finished_run_reports_and_exits(self, capsys, tmp_path):
        ckpt = str(tmp_path / "run.ckpt")
        main(
            [
                "simulate",
                "--sensors",
                "8",
                "--periods",
                "2",
                "--checkpoint",
                ckpt,
            ]
        )
        capsys.readouterr()
        assert main(["resume", "--checkpoint", ckpt]) == 0
        out = capsys.readouterr().out
        assert "resuming at slot 8/8" in out

    def test_stop_after_zero_still_writes_checkpoint(self, capsys, tmp_path):
        """The resume hint must never point at a file that was not
        written: --stop-after 0 skips the run loop entirely."""
        ckpt = str(tmp_path / "zero.ckpt")
        args = ["--sensors", "8", "--periods", "2"]
        assert (
            main(["simulate", *args, "--checkpoint", ckpt, "--stop-after", "0"])
            == 0
        )
        assert "stopped after 0/8" in capsys.readouterr().out
        assert main(["resume", "--checkpoint", ckpt]) == 0
        assert "resuming at slot 0/8" in capsys.readouterr().out

    def test_resume_missing_file_is_a_clean_error(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.ckpt")
        assert main(["resume", "--checkpoint", missing]) == 2
        assert "checkpoint not found" in capsys.readouterr().err

    def test_resume_corrupt_file_is_a_clean_error(self, capsys, tmp_path):
        path = tmp_path / "torn.ckpt"
        path.write_text("not json at all")
        assert main(["resume", "--checkpoint", str(path)]) == 2
        assert "cannot read checkpoint" in capsys.readouterr().err

    def test_resume_rejects_configless_checkpoint(self, capsys, tmp_path):
        path = tmp_path / "bare.ckpt"
        save_checkpoint({"kind": "engine-state"}, path)
        assert main(["resume", "--checkpoint", str(path)]) == 2
        assert "no rebuild config" in capsys.readouterr().err

    def test_resume_of_sharded_manifest_is_a_clean_error(self, capsys, tmp_path):
        path = tmp_path / "sharded.ckpt"
        config = {"sensors": 12, "rho": 3, "p": 0.4, "periods": 2,
                  "method": "greedy", "seed": 0, "shards": 2}
        save_checkpoint({"kind": "sharded-sim-state", "shards": 2}, path, config=config)
        assert main(["resume", "--checkpoint", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


class TestTrace:
    def test_csv_output(self, capsys):
        assert main(["trace", "--days", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("minute,light,voltage")
        assert len(lines) == 24 * 60 + 1

    def test_bad_weather_rejected(self, capsys):
        assert main(["trace", "--weather", "meteor"]) == 2
        assert "unknown weather" in capsys.readouterr().err


class TestSweep:
    def test_pivot_table(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--sensors",
                    "10",
                    "20",
                    "--methods",
                    "greedy",
                    "random",
                    "--repeats",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "greedy" in out and "random" in out
        assert "10" in out and "20" in out


class TestSweepRuntime:
    ARGS = [
        "sweep",
        "--sensors",
        "10",
        "--methods",
        "greedy",
        "random",
        "--repeats",
        "3",
    ]

    def run_sweep_stdout(self, capsys, extra):
        assert main(self.ARGS + extra) == 0
        return capsys.readouterr().out

    def test_jobs_output_matches_serial(self, capsys):
        serial = self.run_sweep_stdout(capsys, ["--no-cache"])
        parallel = self.run_sweep_stdout(capsys, ["--no-cache", "--jobs", "2"])
        assert parallel == serial

    def test_warm_cache_output_matches_cold(self, capsys):
        cold = self.run_sweep_stdout(capsys, [])
        warm = self.run_sweep_stdout(capsys, [])
        assert warm == cold

    def test_cache_diagnostics_on_stderr_not_stdout(self, capsys):
        assert main(self.ARGS) == 0
        captured = capsys.readouterr()
        assert "cache:" in captured.err
        assert "cache:" not in captured.out


class TestCacheCommand:
    def test_stats_on_empty_store(self, capsys, tmp_path):
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries   : 0" in out
        assert str(tmp_path) in out

    def test_solve_populates_store_and_stats_sees_it(self, capsys):
        assert main(["solve", "--sensors", "8"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries   : 1" in out

    def test_clear_empties_store(self, capsys):
        main(["solve", "--sensors", "8"])
        capsys.readouterr()
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        main(["cache", "stats"])
        assert "entries   : 0" in capsys.readouterr().out

    def test_no_cache_flag_skips_the_store(self, capsys):
        assert main(["solve", "--sensors", "8", "--no-cache"]) == 0
        capsys.readouterr()
        main(["cache", "stats"])
        assert "entries   : 0" in capsys.readouterr().out

    def test_repeat_solve_json_is_byte_identical_warm(self, capsys):
        assert main(["solve", "--sensors", "8", "--json"]) == 0
        cold = capsys.readouterr().out
        assert main(["solve", "--sensors", "8", "--json"]) == 0
        warm = capsys.readouterr().out
        assert warm == cold


class TestFigureJobs:
    def test_fig8a_jobs_matches_serial(self, capsys):
        assert main(["figure", "fig8a"]) == 0
        serial = capsys.readouterr().out
        assert main(["figure", "fig8a", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.sensors == 20
        assert args.rho == 3.0
        assert args.method == "greedy"

    def test_runtime_flags_default_off(self):
        sweep_args = build_parser().parse_args(["sweep"])
        assert sweep_args.jobs is None
        assert sweep_args.no_cache is False
        cache_args = build_parser().parse_args(["cache", "stats"])
        assert cache_args.cache_command == "stats"


class TestMetricsCommand:
    def test_prometheus_exposition_lists_the_full_catalog(self, capsys):
        from repro.obs.catalog import STANDARD_METRICS

        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        for kind, name, _labels, _help in STANDARD_METRICS:
            assert f"# TYPE {name} {kind}" in out

    def test_json_format(self, capsys):
        assert main(["metrics", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "repro-metrics"
        assert any(
            family["name"] == "repro_sim_slots_total"
            for family in payload["families"]
        )

    def test_exposition_reflects_prior_traffic_in_process(self, capsys):
        from repro.obs.registry import get_registry

        get_registry().reset()
        assert main(["solve", "--sensors", "8", "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert 'repro_solve_total{method="greedy"} 1' in out


class TestObservabilityFlags:
    def test_events_out_writes_slot_ordered_jsonl(self, capsys, tmp_path):
        from repro.obs.events import read_events

        path = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "simulate",
                    "--sensors",
                    "8",
                    "--periods",
                    "2",
                    "--events-out",
                    str(path),
                ]
            )
            == 0
        )
        records = read_events(path)
        assert records, "an instrumented simulate must emit events"
        slots = [r["slot"] for r in records if r["kind"] == "engine.slot"]
        assert slots == sorted(slots)
        assert len(slots) == 2 * 4  # two periods of T=4 slots

    def test_trace_out_writes_schema_tagged_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert (
            main(["solve", "--sensors", "8", "--trace-out", str(path)]) == 0
        )
        doc = json.loads(path.read_text())
        assert doc["kind"] == "repro-trace"
        assert doc["spans"][0]["name"] == "solve"
        assert doc["spans"][0]["id"] == "s000000"

    def test_flags_leave_no_sink_installed_afterwards(self, capsys, tmp_path):
        from repro.obs import events, tracing

        main(
            [
                "simulate",
                "--sensors",
                "8",
                "--periods",
                "1",
                "--events-out",
                str(tmp_path / "e.jsonl"),
                "--trace-out",
                str(tmp_path / "t.json"),
            ]
        )
        assert events.get_sink() is None
        assert tracing.current() is None


class TestCacheStatsObservability:
    def test_in_process_counters_printed_when_cache_was_exercised(
        self, capsys
    ):
        from repro.obs.registry import get_registry

        get_registry().reset()
        assert main(["solve", "--sensors", "8"]) == 0  # miss + store
        assert main(["solve", "--sensors", "8"]) == 0  # disk hit
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert (
            "in-process: 1 hits / 1 misses / 1 stores / 0 evictions" in out
        )

    def test_no_in_process_line_without_cache_traffic(self, capsys, tmp_path):
        from repro.obs.registry import get_registry

        get_registry().reset()
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        assert "in-process" not in capsys.readouterr().out

    def test_stats_with_missing_directory_is_clean(self, capsys, tmp_path):
        missing = tmp_path / "never" / "created"
        assert main(["cache", "stats", "--dir", str(missing)]) == 0
        out = capsys.readouterr().out
        assert "entries   : 0" in out
        assert "bytes     : 0" in out

    def test_stats_with_cache_dir_env_unset_uses_home_default(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out  # ~/.cache/repro/schedules
        assert "entries   : 0" in out


class TestInvalidInputAudit:
    """Every subcommand must reject invalid input with a nonzero exit
    and a one-line stderr message -- never a traceback.  This pins the
    ``main()`` error contract across the whole surface."""

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["solve", "--rho", "2.5"], "must be an integer"),
            (["solve", "--sensors", "-3"], "num_sensors"),
            (["simulate", "--rho", "2.5"], "must be an integer"),
            (
                ["resume", "--checkpoint", "/nonexistent/never.json"],
                "checkpoint not found",
            ),
            (["trace", "--weather", "tornado"], "unknown weather"),
            (
                [
                    "sweep",
                    "--rhos",
                    "2.5",
                    "--sensors",
                    "4",
                    "--repeats",
                    "1",
                    "--methods",
                    "greedy",
                ],
                "must be an integer",
            ),
            (["figure", "fig999"], "unknown figure"),
            (["serve", "--port", "99999"], "invalid port"),
            (["serve", "--max-queue", "0"], "max_queue"),
            (["serve", "--max-batch", "0"], "max_batch"),
        ],
    )
    def test_exits_nonzero_with_one_line_stderr(self, capsys, argv, fragment):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert fragment in captured.err
        assert "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["cache", "nuke"],
            ["metrics", "--format", "xml"],
            ["solve", "--method", "sorcery"],
            ["no-such-command"],
        ],
    )
    def test_argparse_rejections_exit_2_with_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        captured = capsys.readouterr()
        assert "usage:" in captured.err
        assert "Traceback" not in captured.err

    def test_unwritable_events_out_is_reported(self, capsys, tmp_path):
        # Parent "directory" is a regular file: the sink cannot create
        # or open the stream no matter the process's privileges.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        target = blocker / "events.jsonl"
        assert main(["solve", "--events-out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err


class TestSessionReplay:
    LOG = str(
        Path(__file__).resolve().parent.parent
        / "examples"
        / "data"
        / "session_deltas.jsonl"
    )

    def write_log(self, tmp_path, lines):
        path = tmp_path / "deltas.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        return str(path)

    def test_seeded_log_replays(self, capsys):
        assert main(["session", "replay", "--log", self.LOG, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "consistency=warm" in out
        assert "final period utility" in out
        assert "resolve=cold" in out  # the log includes structural deltas

    def test_json_report(self, capsys):
        assert (
            main(["session", "replay", "--log", self.LOG, "--no-cache", "--json"])
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "repro-session-replay"
        assert len(report["steps"]) == 9
        assert 0.0 < report["warm_fraction"] < 1.0
        assert report["final_utility"] == report["steps"][-1]["period_utility"]

    def test_malformed_log_exits_2(self, capsys, tmp_path):
        path = self.write_log(tmp_path, [{"kind": "bogus"}])
        assert main(["session", "replay", "--log", path]) == 2
        captured = capsys.readouterr()
        assert "session-create" in captured.err
        assert "Traceback" not in captured.err

    def test_invalid_delta_in_log_exits_2(self, capsys, tmp_path):
        path = self.write_log(
            tmp_path,
            [
                {
                    "kind": "session-create",
                    "problem": {
                        "num_sensors": 6,
                        "rho": 3,
                        "utility": {"p": 0.4},
                    },
                },
                {
                    "kind": "session-delta",
                    "delta": {"kind": "sensor-failed", "sensor": 99},
                },
            ],
        )
        assert main(["session", "replay", "--log", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_missing_log_exits_2(self, capsys):
        assert main(["session", "replay", "--log", "/nonexistent.jsonl"]) == 2
        assert capsys.readouterr().err.startswith("error:")

