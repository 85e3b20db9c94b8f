"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo(self):
        args = build_parser().parse_args(["demo"])
        assert args.command == "demo"

    def test_figure5_options(self):
        args = build_parser().parse_args(
            ["figure5", "--width", "2000", "--reps", "3", "--csv", "out.csv"]
        )
        assert args.width == 2000 and args.reps == 3 and args.csv == "out.csv"

    def test_ablation_choices(self):
        assert build_parser().parse_args(["ablation", "bus"]).which == "bus"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablation", "nope"])


class TestCommands:
    def test_demo_prints_paper_example(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "(10, 3)" in out  # input row
        assert "iterations : 3" in out
        assert "initial" in out  # the trace table

    def test_table1_runs(self, capsys):
        assert main(["table1", "--reps", "2"]) == 0
        out = capsys.readouterr().out
        assert "systolic_iterations" in out
        assert "2048" in out

    def test_table1_csv(self, tmp_path, capsys):
        csv = tmp_path / "t1.csv"
        assert main(["table1", "--reps", "1", "--csv", str(csv)]) == 0
        assert csv.exists()
        assert "width" in csv.read_text()

    def test_figure5_small(self, capsys):
        assert main(["figure5", "--width", "1000", "--reps", "1"]) == 0
        out = capsys.readouterr().out
        assert "error_fraction" in out
        assert "iterations" in out
        assert "|k1-k2|" in out  # the plot legend

    def test_ablation_bus(self, capsys):
        assert main(["ablation", "bus", "--reps", "1"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_ablation_compaction(self, capsys):
        assert main(["ablation", "compaction", "--reps", "1"]) == 0
        assert "mergeable_pairs" in capsys.readouterr().out

    def test_inspect(self, capsys):
        assert main(["inspect", "--size", "96", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out and "stage seconds" in out

    def test_verify_accepts_clean_run(self, capsys):
        assert main(["verify", "--width", "200", "--seed", "1"]) == 0
        assert "ACCEPTED" in capsys.readouterr().out

    def test_verify_rejects_faulty_run(self, capsys):
        assert main(["verify", "--width", "200", "--seed", "1", "--inject-fault"]) == 1
        assert "REJECTED" in capsys.readouterr().out

    def test_theory(self, capsys):
        assert main(["theory", "--width", "2000", "--reps", "2"]) == 0
        out = capsys.readouterr().out
        assert "predicted" in out and "p_transition" in out

    def test_rtl_area(self, capsys):
        assert main(["rtl", "area"]) == 0
        assert "total_gates" in capsys.readouterr().out

    def test_rtl_verilog(self, capsys):
        assert main(["rtl", "verilog"]) == 0
        out = capsys.readouterr().out
        assert "module systolic_xor_cell" in out and "endmodule" in out

    def test_profile_writes_validated_artifacts(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "prof"
        assert (
            main(
                [
                    "profile",
                    "--rows", "8",
                    "--width", "300",
                    "--out-dir", str(out_dir),
                    "--validate",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "convergence" in out
        assert "all documents conform" in out
        for name in ("metrics.json", "trace.json", "profile.json"):
            assert (out_dir / name).exists()
            json.loads((out_dir / name).read_text())
        prom = (out_dir / "metrics.prom").read_text()
        assert "# TYPE repro_rows_total counter" in prom
        assert 'repro_rows_total{engine="batched"} 8' in prom

        metrics = json.loads((out_dir / "metrics.json").read_text())
        names = {fam["name"] for fam in metrics["metrics"]}
        assert {
            "repro_rows_total",
            "repro_iterations_total",
            "repro_row_iterations",
        } <= names
        trace = json.loads((out_dir / "trace.json").read_text())
        span_names = {e["name"] for e in trace["traceEvents"]}
        assert {"image_diff", "row_batch", "step"} <= span_names


SERVE_SMALL = ["serve", "--height", "32", "--width", "32", "--frames", "4"]


class TestServeResilient:
    def test_plain_serve_reports_cache(self, capsys):
        assert main(SERVE_SMALL + ["--passes", "2"]) == 0
        out = capsys.readouterr().out
        assert "hit rate" in out
        assert "resilience:" not in out

    def test_resilient_serve_reports_policy_outcomes(self, capsys):
        assert main(SERVE_SMALL + ["--resilient"]) == 0
        out = capsys.readouterr().out
        assert "100.0% availability" in out
        assert "breaker state 0" in out

    def test_chaos_rate_implies_resilient_and_reports_injections(self, capsys):
        assert (
            main(SERVE_SMALL + ["--chaos-rate", "0.2", "--chaos-seed", "7"]) == 0
        )
        out = capsys.readouterr().out
        assert "resilient" in out
        assert "chaos:" in out and "faults injected" in out

    def test_min_availability_gate_fails_under_total_chaos(self, capsys):
        """Every engine batch faults and the retry budget is too small
        to absorb that, so the availability floor must turn the lost
        pairs into exit 1 (latency faults still serve, so availability
        lands between zero and the floor)."""
        exit_code = main(
            SERVE_SMALL
            + [
                "--chaos-rate", "1.0",
                "--max-retries", "1",
                "--min-availability", "0.9",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "ERROR: availability" in out
        assert "below required 90.0%" in out

    def test_min_availability_gate_passes_when_faults_absorbed(self, capsys):
        assert (
            main(
                SERVE_SMALL
                + [
                    "--chaos-rate", "0.2",
                    "--chaos-seed", "7",
                    "--max-shed", "0",
                    "--min-availability", "0.9",
                ]
            )
            == 0
        )
        assert "ERROR" not in capsys.readouterr().out


class TestServeTransports:
    """Every clip transport of ``repro serve`` at a tiny size: exit 0
    plus the summary line each run prints."""

    def test_in_process_stream(self, capsys):
        assert main(SERVE_SMALL + ["--stream", "--passes", "1"]) == 0
        out = capsys.readouterr().out
        assert "stream: 4 frames appended" in out
        assert "served 4 frames" in out

    def test_sharded_pairs(self, capsys):
        assert main(SERVE_SMALL + ["--passes", "1", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "served 3 frame pairs" in out
        assert "merged metrics:" in out

    def test_sharded_stream(self, capsys):
        assert (
            main(SERVE_SMALL + ["--passes", "1", "--workers", "2", "--stream"])
            == 0
        )
        out = capsys.readouterr().out
        assert "served 4 frames" in out
        assert "stream: 4 frames appended" in out

    @pytest.mark.parametrize(
        "extra, summary",
        [
            ([], "selftest: 3 frame pairs round-tripped over TCP"),
            (
                ["--stream", "--rekey-ratio", "0.5"],
                "selftest: 4 frames streamed over TCP, decoded byte-identical",
            ),
        ],
        ids=["pairs", "stream"],
    )
    def test_sharded_tcp_selftest(self, capsys, extra, summary):
        argv = SERVE_SMALL + [
            "--passes", "1", "--workers", "2",
            "--listen", "127.0.0.1:0", "--selftest",
        ]
        assert main(argv + extra) == 0
        out = capsys.readouterr().out
        assert summary in out
        assert "traced across" in out
