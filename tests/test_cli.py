"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.api.registry import hierarchy_names
from repro.cli import FIGURES, main
from repro.traffic.trace_io import (
    TraceReader,
    read_trace_csv,
    trace_version,
    write_trace_binary,
    write_trace_v2,
)
from repro.traffic.zipf import ZipfFlowGenerator


class TestDetect:
    def test_detect_prints_prefixes(self, capsys):
        exit_code = main(
            [
                "detect",
                "--workload",
                "chicago16",
                "--packets",
                "5000",
                "--hierarchy",
                "1d-bytes",
                "--theta",
                "0.2",
                "--algorithm",
                "mst",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "HHH prefixes" in out
        assert "prefix" in out

    def test_detect_with_batch_size_uses_the_batch_engine(self, capsys):
        exit_code = main(
            [
                "detect",
                "--workload",
                "chicago16",
                "--packets",
                "5000",
                "--hierarchy",
                "2d-bytes",
                "--theta",
                "0.2",
                "--algorithm",
                "rhhh",
                "--batch-size",
                "1024",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "HHH prefixes" in out

    def test_detect_with_shards_runs_the_worker_pool(self, capsys):
        # Exercises the full CLI -> spec -> Session -> ShardedHHH pool path
        # with real worker processes (the CI 2-worker smoke).
        exit_code = main(
            [
                "detect",
                "--workload",
                "chicago16",
                "--packets",
                "5000",
                "--hierarchy",
                "1d-bytes",
                "--theta",
                "0.2",
                "--algorithm",
                "rhhh",
                "--batch-size",
                "1024",
                "--shards",
                "2",
            ]
        )
        assert exit_code == 0
        assert "HHH prefixes" in capsys.readouterr().out

    def test_compare_with_shards_skips_unshardable_algorithms(self, capsys):
        # partial_ancestry keeps no per-node counter lattice: with --shards
        # it must be skipped with a clean message, not crash the run or
        # discard the other rows.
        exit_code = main(
            [
                "compare",
                "--workload",
                "chicago16",
                "--packets",
                "4000",
                "--hierarchy",
                "1d-bytes",
                "--theta",
                "0.2",
                "--algorithms",
                "mst",
                "partial_ancestry",
                "--batch-size",
                "1024",
                "--shards",
                "2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "mst" in captured.out
        assert "skipping partial_ancestry" in captured.err

    def test_detect_rejects_bad_shards(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "detect",
                    "--workload",
                    "chicago16",
                    "--packets",
                    "1000",
                    "--shards",
                    "0",
                ]
            )

    def test_print_spec_carries_shards(self, capsys):
        exit_code = main(
            ["detect", "--packets", "1000", "--shards", "3", "--print-spec"]
        )
        assert exit_code == 0
        assert '"shards": 3' in capsys.readouterr().out

    def test_detect_rejects_bad_batch_size(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "detect",
                    "--workload",
                    "chicago16",
                    "--packets",
                    "100",
                    "--batch-size",
                    "0",
                ]
            )

    def test_detect_from_binary_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.bin"
        write_trace_binary(path, ZipfFlowGenerator(num_flows=50, skew=1.3, seed=1).packets(2_000))
        exit_code = main(
            [
                "detect",
                "--trace",
                str(path),
                "--packets",
                "2000",
                "--hierarchy",
                "2d-bytes",
                "--theta",
                "0.2",
                "--algorithm",
                "mst",
            ]
        )
        assert exit_code == 0
        assert "HHH prefixes" in capsys.readouterr().out

    def test_detect_from_v2_trace_with_batch_and_ingest(self, tmp_path, capsys):
        path = tmp_path / "trace.v2"
        write_trace_v2(path, ZipfFlowGenerator(num_flows=50, skew=1.3, seed=1).packets(2_000))
        exit_code = main(
            [
                "detect",
                "--trace",
                str(path),
                "--packets",
                "2000",
                "--batch-size",
                "512",
                "--ingest",
                "3",
                "--theta",
                "0.2",
                "--algorithm",
                "mst",
            ]
        )
        assert exit_code == 0
        assert "HHH prefixes" in capsys.readouterr().out

    def test_print_spec_carries_trace_and_ingest(self, capsys):
        exit_code = main(
            [
                "detect",
                "--trace",
                "some/trace.v2",
                "--batch-size",
                "4096",
                "--ingest",
                "4",
                "--print-spec",
            ]
        )
        assert exit_code == 0
        spec = json.loads(capsys.readouterr().out)
        assert spec["trace"] == "some/trace.v2"
        assert spec["ingest"] == 4

    def test_ingest_without_trace_rejected(self):
        with pytest.raises(SystemExit):
            main(["detect", "--packets", "100", "--batch-size", "64", "--ingest", "2"])

    def test_compare_rejects_ingest(self, tmp_path):
        # compare materialises the stream once and shares it, so there is no
        # streaming feed to overlap; accepting --ingest would silently report
        # non-overlapped numbers as overlapped.
        trace = tmp_path / "t.v2"
        write_trace_v2(trace, ZipfFlowGenerator(num_flows=30, seed=1).packets(500))
        with pytest.raises(SystemExit, match="ingest"):
            main(
                ["compare", "--trace", str(trace), "--batch-size", "128",
                 "--ingest", "2", "--algorithms", "rhhh"]
            )


class TestCompare:
    def test_compare_prints_table(self, capsys):
        exit_code = main(
            [
                "compare",
                "--packets",
                "4000",
                "--hierarchy",
                "1d-bytes",
                "--algorithms",
                "rhhh",
                "mst",
                "--theta",
                "0.2",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "rhhh" in out and "mst" in out
        assert "recall" in out

    def test_compare_with_batch_size(self, capsys):
        exit_code = main(
            [
                "compare",
                "--packets",
                "4000",
                "--hierarchy",
                "2d-bytes",
                "--algorithms",
                "rhhh",
                "mst",
                "--theta",
                "0.2",
                "--batch-size",
                "1000",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "rhhh" in out and "mst" in out

    def test_compare_rejects_bad_batch_size(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "compare",
                    "--packets",
                    "100",
                    "--algorithms",
                    "rhhh",
                    "--batch-size",
                    "0",
                ]
            )


class TestTraceCommand:
    def test_generate_v2(self, tmp_path, capsys):
        out = tmp_path / "gen.v2"
        exit_code = main(
            [
                "trace", "generate", str(out),
                "--workload", "sanjose13",
                "--packets", "3000",
                "--num-flows", "200",
                "--chunk-size", "1024",
            ]
        )
        assert exit_code == 0
        assert "3,000 packets" in capsys.readouterr().out
        reader = TraceReader(out)
        assert reader.packet_count == 3000
        assert reader.chunk_sizes() == [1024, 1024, 952]

    def test_generate_is_reproducible(self, tmp_path):
        a, b = tmp_path / "a.v2", tmp_path / "b.v2"
        for out in (a, b):
            assert main(
                ["trace", "generate", str(out), "--workload", "sanjose13",
                 "--packets", "1000", "--num-flows", "100"]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_convert_v1_to_v2_and_back(self, tmp_path, capsys):
        v1 = tmp_path / "a.v1"
        packets = list(ZipfFlowGenerator(num_flows=30, skew=1.0, seed=3).packets(500))
        write_trace_binary(v1, packets)
        v2 = tmp_path / "a.v2"
        assert main(["trace", "convert", str(v1), str(v2)]) == 0
        assert trace_version(v2) == 2
        back = tmp_path / "b.v1"
        assert main(["trace", "convert", str(v2), str(back), "--format", "v1"]) == 0
        assert back.read_bytes() == v1.read_bytes()

    def test_convert_csv_input(self, tmp_path):
        csv_path = tmp_path / "a.csv"
        csv_path.write_text("src,dst\n1,2\n3,4\n")
        v2 = tmp_path / "a.v2"
        assert main(["trace", "convert", str(csv_path), str(v2)]) == 0
        assert TraceReader(v2).packet_count == 2

    def test_convert_to_csv(self, tmp_path):
        v2 = tmp_path / "a.v2"
        packets = list(ZipfFlowGenerator(num_flows=30, skew=1.0, seed=3).packets(100))
        write_trace_v2(v2, packets)
        out = tmp_path / "out.csv"
        assert main(["trace", "convert", str(v2), str(out), "--format", "csv"]) == 0
        assert read_trace_csv(out) == packets

    def test_inspect_prints_layout(self, tmp_path, capsys):
        v2 = tmp_path / "a.v2"
        write_trace_v2(v2, ZipfFlowGenerator(num_flows=30, seed=3).packets(100), chunk_size=40)
        assert main(["trace", "inspect", str(v2)]) == 0
        out = capsys.readouterr().out
        assert "v2-columnar" in out
        assert "100" in out

    def test_inspect_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["trace", "inspect", str(tmp_path / "nope.v2")]) == 1
        assert "error" in capsys.readouterr().err

    def test_convert_garbage_input_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\x00\x01\x02")
        assert main(["trace", "convert", str(bad), str(tmp_path / "out.v2")]) == 1
        assert "error" in capsys.readouterr().err

    def test_convert_in_place_is_refused(self, tmp_path, capsys):
        # Regression: the reader memory-maps the input while the writer
        # truncates the output; converting a trace onto itself used to
        # SIGBUS and destroy the file.
        v2 = tmp_path / "a.v2"
        packets = list(ZipfFlowGenerator(num_flows=30, skew=1.0, seed=3).packets(100))
        write_trace_v2(v2, packets)
        before = v2.read_bytes()
        assert main(["trace", "convert", str(v2), str(v2)]) == 1
        assert "same file" in capsys.readouterr().err
        assert v2.read_bytes() == before  # the trace survives untouched

    def test_convert_truncated_binary_reports_real_error(self, tmp_path, capsys):
        # Regression: a corrupt *binary* trace must surface its truncation
        # error, not fall back to the CSV parser (which used to crash with
        # UnicodeDecodeError on binary bytes).
        v2 = tmp_path / "a.v2"
        write_trace_v2(v2, ZipfFlowGenerator(num_flows=30, skew=1.0, seed=3).packets(500))
        v2.write_bytes(v2.read_bytes()[:-20])
        assert main(["trace", "convert", str(v2), str(tmp_path / "out.v2")]) == 1
        err = capsys.readouterr().err
        assert "truncated" in err or "declares" in err


class TestRunCommand:
    def test_run_spec_with_trace_and_ingest_overrides(self, tmp_path, capsys):
        trace = tmp_path / "t.v2"
        write_trace_v2(trace, ZipfFlowGenerator(num_flows=40, skew=1.2, seed=6).packets(2_000))
        spec_path = tmp_path / "spec.json"
        assert main(
            ["detect", "--packets", "2000", "--batch-size", "512",
             "--hierarchy", "2d-bytes", "--theta", "0.2", "--algorithm", "mst",
             "--print-spec"]
        ) == 0
        spec_path.write_text(capsys.readouterr().out)
        exit_code = main(
            ["run", "--spec", str(spec_path), "--trace", str(trace), "--ingest", "2"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "HHH prefixes" in out
        assert "2,000 packets" in out


class TestFigure:
    def test_figure_choices_cover_the_paper(self):
        assert {"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "convergence"} <= set(FIGURES)

    def test_fast_switch_figure(self, capsys):
        exit_code = main(["figure", "--name", "fig6"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "rhhh" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "--name", "fig99"])


class TestDistribCommand:
    def test_distrib_prints_prefixes_and_bandwidth(self, capsys):
        exit_code = main(
            [
                "distrib",
                "--workload",
                "chicago16",
                "--packets",
                "20000",
                "--hierarchy",
                "1d-bytes",
                "--theta",
                "0.1",
                "--switches",
                "4",
                "--top-k",
                "24",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "HHH prefixes" in out
        assert "bandwidth:" in out
        assert "snapshots" in out

    def test_distrib_with_simulated_faults_reports_loss(self, capsys):
        exit_code = main(
            [
                "distrib",
                "--workload",
                "chicago16",
                "--packets",
                "20000",
                "--hierarchy",
                "1d-bytes",
                "--theta",
                "0.1",
                "--switches",
                "4",
                "--transport",
                "simulated",
                "--drops",
                "2",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "quantified loss" in out

    def test_distrib_over_budget_exits_nonzero(self, capsys):
        exit_code = main(
            [
                "distrib",
                "--workload",
                "chicago16",
                "--packets",
                "20000",
                "--hierarchy",
                "1d-bytes",
                "--switches",
                "4",
                "--byte-budget",
                "16",
            ]
        )
        assert exit_code == 1
        assert "over budget" in capsys.readouterr().err

    def test_faults_require_the_simulated_transport(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "distrib",
                    "--workload",
                    "chicago16",
                    "--packets",
                    "2000",
                    "--drops",
                    "1",
                ]
            )


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_hierarchy_registry(self):
        assert set(hierarchy_names()) == {"1d-bytes", "1d-bits", "2d-bytes"}
