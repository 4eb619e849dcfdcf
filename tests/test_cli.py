"""Command-line interface."""

import pytest

from repro.cli import _figure_registry, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["list-designs"],
            ["list-benchmarks"],
            ["list-experiments"],
            ["evaluate", "--mix", "mcf"],
            ["curve", "--design", "8m"],
            ["figure", "table1"],
            ["figure", "fig03", "--jobs", "4", "--cache-dir", "/tmp/x"],
            ["sweep", "--design", "4B", "--jobs", "2"],
            ["cache", "stats"],
            ["cache", "clear", "--cache-dir", "/tmp/x"],
            ["findings"],
            ["validate"],
            ["list-scenarios"],
            ["explore", "--scenario", "datacenter"],
            ["explore", "--scenario", "bursty", "--design", "4B,8m",
             "--ga", "2", "--budget", "0.3", "--jobs", "2"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)


class TestCommands:
    def test_list_designs(self, capsys):
        assert main(["list-designs"]) == 0
        out = capsys.readouterr().out
        assert "4B" in out and "1B15s" in out

    def test_list_benchmarks(self, capsys):
        assert main(["list-benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "libquantum" in out and "blackscholes" in out

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig15" in out and "ext-acs" in out

    def test_evaluate(self, capsys):
        assert main(["evaluate", "--design", "4B", "--mix", "mcf,tonto"]) == 0
        out = capsys.readouterr().out
        assert "STP" in out and "power" in out

    def test_evaluate_empty_mix(self, capsys):
        assert main(["evaluate", "--mix", " , "]) == 2

    def test_evaluate_no_smt_flag(self, capsys):
        assert main(["evaluate", "--mix", "mcf", "--no-smt"]) == 0
        assert "SMT             : off" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["validate", "--instructions", "0"], "--instructions must be >= 1"),
            (["validate", "--instructions", "-5"], "--instructions must be >= 1"),
            (["evaluate", "--mix", "nope"], "unknown benchmarks"),
            (["evaluate", "--design", "nope", "--mix", "mcf"], "not in this study"),
            (["evaluate", "--design", "4B", "--mix", ",".join(["mcf"] * 26)],
             "has 24 hardware threads, the mix has 26"),
            (["curve", "--max-threads", "0"], "--max-threads must be >= 1"),
            (["sweep", "--max-threads", "0", "--no-cache"],
             "--max-threads must be >= 1"),
        ],
        ids=[
            "validate-zero-instructions",
            "validate-negative-instructions",
            "evaluate-unknown-benchmark",
            "evaluate-unknown-design",
            "evaluate-more-threads-than-contexts",
            "curve-zero-max-threads",
            "sweep-zero-max-threads",
        ],
    )
    def test_bad_input_is_a_one_line_error(self, argv, message, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1

    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "datacenter" in out and "flash-crowd" in out

    def test_explore(self, capsys):
        assert main(
            ["explore", "--scenario", "flash-crowd", "--design", "4B,8m,20s",
             "--max-threads", "6", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "winner" in out and "full-grid" in out

    def test_explore_unknown_scenario(self, capsys):
        assert main(["explore", "--scenario", "nope", "--no-cache"]) == 2

    def test_explore_unknown_design(self, capsys):
        assert main(
            ["explore", "--scenario", "steady", "--design", "9Z",
             "--no-cache"]
        ) == 2

    def test_curve(self, capsys):
        assert main(["curve", "--design", "20s", "--max-threads", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 4

    def test_figure_table1(self, capsys):
        assert main(["figure", "table1"]) == 0
        assert "ROB size" in capsys.readouterr().out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_registry_covers_all_paper_figures(self):
        registry = _figure_registry()
        for fig in [f"fig{i:02d}" for i in range(1, 18)] + ["table1"]:
            assert fig in registry


class TestSweepAndCache:
    def test_sweep_writes_store_and_cache_stats_reads_it(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = [
            "sweep", "--design", "4B", "--max-threads", "2",
            "--jobs", "1", "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "mean STP" in cold.out
        assert "store hits=0" in cold.err

        # Warm run against the same cache dir: everything served from disk.
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out  # numerically identical table
        assert "(100%)" in warm.err

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        stats_out = capsys.readouterr().out
        assert "records" in stats_out and "100.0%" in stats_out

    def test_cache_stats_json(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["sweep", "--design", "8m", "--max-threads", "1",
              "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["store"]["records"] > 0
        assert payload["last_run"]["units_total"] > 0

    def test_cache_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["sweep", "--design", "8m", "--max-threads", "1",
              "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "evicted" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["store"]["records"] == 0

    def test_sweep_no_cache_flag(self, tmp_path, capsys):
        assert main(["sweep", "--design", "8m", "--max-threads", "1",
                     "--no-cache"]) == 0
        assert "mean STP" in capsys.readouterr().out

    def test_sweep_unknown_design(self, capsys):
        assert main(["sweep", "--design", "5Z", "--max-threads", "1",
                     "--no-cache"]) == 2
        assert "not in this study" in capsys.readouterr().err

    def test_sweep_empty_design_list(self, capsys):
        assert main(["sweep", "--design", " , ", "--no-cache"]) == 2

    def test_figure_with_engine_matches_serial(self, tmp_path, capsys):
        from repro.experiments.context import get_engine

        assert main(["figure", "fig02", "--json"]) == 0
        serial = capsys.readouterr().out
        cache_dir = str(tmp_path / "cache")
        assert main(["figure", "fig02", "--json", "--jobs", "2",
                     "--cache-dir", cache_dir]) == 0
        engine_run = capsys.readouterr()
        assert engine_run.out == serial
        assert "engine:" in engine_run.err
        # The figure command uninstalls its engine when done.
        assert get_engine() is None


class TestJsonExport:
    def test_figure_json(self, capsys):
        assert main(["figure", "fig02", "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "Figure 2"
        assert len(payload["rows"]) == 9

    def test_table_to_json_roundtrip(self):
        import json

        from repro.experiments.base import ExperimentTable

        t = ExperimentTable("X", "title", columns=["a", "b"])
        t.add_row(a=1, b=2.5)
        t.notes.append("n")
        data = json.loads(t.to_json())
        assert data["rows"] == [{"a": 1, "b": 2.5}]
        assert data["notes"] == ["n"]


@pytest.mark.slow
class TestReport:
    def test_report_restricted_set(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        from repro.experiments.report import generate_report

        text = generate_report(include=["table1", "fig02"])
        assert "Table 1" in text
        assert "Figure 2" in text
        assert "eleven findings" in text

    def test_report_unknown_experiment(self):
        from repro.experiments.report import generate_report

        import pytest as _pytest

        with _pytest.raises(ValueError, match="unknown experiments"):
            generate_report(include=["fig99"])
