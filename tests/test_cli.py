"""Command-line driver: selection, output formats, check mode, exit codes."""

import re
from pathlib import Path

import pytest

from streambench.cli import (
    CSV_HEADER,
    DEFAULT_N,
    ENGINE_NAMES,
    ResultRow,
    _hex64,
    format_csv,
    format_md,
    run_cli,
)
from streambench.query import Terminal, build_query, ints_dataset
from streambench.suite import Benchmark

THREE_DECIMALS = re.compile(r"^\d+\.\d{3}$")
GOLDEN_DIR = Path(__file__).parent / "golden"


def lying_benchmark(name="sum", wrong=999_999_999):
    """A copy of `sum` whose baseline reports the wrong value."""
    return Benchmark(
        name,
        lambda: build_query("data", (), Terminal.SUM),
        lambda n: {"data": ints_dataset(range(n))},
        lambda datasets: wrong,
    )


class TestHexFormatting:
    def test_hex64(self):
        assert _hex64(0) == "0x0000000000000000"
        assert _hex64(161700) == "0x00000000000277a4"
        assert _hex64(-1) == "0xffffffffffffffff"
        assert _hex64(-(1 << 63)) == "0x8000000000000000"


class TestFormatting:
    def rows(self):
        return [ResultRow("sum", "pull", 100, 1, 2, 3,
                          1.23456, 0.5, 0.25, "0x00000000000277a4", 7, 8, 9)]

    def test_csv_header_is_pinned(self):
        assert CSV_HEADER == (
            "benchmark,engine,n,threads,warmup,iters,mean_ms,stddev_ms,ci95_ms,"
            "result_hex,control_dispatches,lambda_applies,closure_instantiations")

    def test_one_row_two_lines(self):
        text = format_csv(self.rows())
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER
        assert lines[1] == "sum,pull,100,1,2,3,1.235,0.500,0.250," \
                           "0x00000000000277a4,7,8,9"

    def test_md_mirrors_csv_cells(self):
        csv_cells = format_csv(self.rows()).strip().split("\n")[1].split(",")
        md_lines = format_md(self.rows()).strip().split("\n")
        assert md_lines[0] == "| " + " | ".join(CSV_HEADER.split(",")) + " |"
        assert set(md_lines[1].replace("|", "").split()) == {"---"}
        md_cells = [c.strip() for c in md_lines[2].strip("|").split("|")]
        assert md_cells == csv_cells


class TestTimingRuns:
    def run(self, argv, capsys):
        code = run_cli(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_single_bench_single_engine(self, capsys):
        code, out, err = self.run(
            ["--bench", "sumOfSquaresEven", "--engine", "pull",
             "--n", "100", "--warmup", "1", "--iters", "2"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        cells = lines[1].split(",")
        row = dict(zip(CSV_HEADER.split(","), cells))
        assert row["benchmark"] == "sumOfSquaresEven"
        assert row["engine"] == "pull"
        assert (row["n"], row["threads"]) == ("100", "1")
        assert (row["warmup"], row["iters"]) == ("1", "2")
        for col in ("mean_ms", "stddev_ms", "ci95_ms"):
            assert THREE_DECIMALS.match(row[col]), row[col]
        assert row["result_hex"] == _hex64(161700)
        # pull: source 201 + filter 101 + map 101 crossings; 150 applies
        assert row["control_dispatches"] == "403"
        assert row["lambda_applies"] == "150"
        assert row["closure_instantiations"] == "2"
        assert "# sink checksum:" in err

    def test_all_engines_row_order(self, capsys):
        code, out, _ = self.run(
            ["--bench", "sum", "--engine", "all",
             "--n", "64", "--warmup", "0", "--iters", "2"], capsys)
        assert code == 0
        lines = out.strip().split("\n")[1:]
        assert [line.split(",")[1] for line in lines] == list(ENGINE_NAMES)
        # every engine agrees on the value column
        assert len({line.split(",")[9] for line in lines}) == 1

    def test_all_benches_one_engine(self, capsys):
        code, out, _ = self.run(
            ["--bench", "all", "--engine", "baseline",
             "--n", "100", "--warmup", "0", "--iters", "2"], capsys)
        assert code == 0
        lines = out.strip().split("\n")[1:]
        assert [line.split(",")[0] for line in lines] == [
            "sum", "sumOfSquares", "sumOfSquaresEven", "cart", "refs"]

    def test_threads_column_reflects_flag(self, capsys):
        code, out, _ = self.run(
            ["--bench", "sum", "--engine", "push-par", "--threads", "3",
             "--n", "100", "--warmup", "0", "--iters", "2"], capsys)
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[3] == "3"

    def test_md_round_trips_csv_cells(self, capsys):
        argv = ["--bench", "refs", "--engine", "fused",
                "--n", "150", "--warmup", "0", "--iters", "3"]
        code, out_csv, _ = self.run(argv, capsys)
        assert code == 0
        csv_cells = out_csv.strip().split("\n")[1].split(",")
        code, out_md, err = self.run(argv + ["--format", "md"], capsys)
        assert code == 0
        md_row = out_md.strip().split("\n")[2]
        md_cells = [c.strip() for c in md_row.strip("|").split("|")]
        # timings differ between runs; everything else must round-trip
        stable = [i for i, name in enumerate(CSV_HEADER.split(","))
                  if name not in ("mean_ms", "stddev_ms", "ci95_ms")]
        assert [md_cells[i] for i in stable] == [csv_cells[i] for i in stable]
        for i, cell in enumerate(md_cells):
            if i not in stable:
                assert THREE_DECIMALS.match(cell)
        assert "fused optimize" in err  # optimize time reported, not timed

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "results.csv"
        code, out, _ = self.run(
            ["--bench", "sum", "--engine", "push", "--n", "50",
             "--warmup", "0", "--iters", "2", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        content = target.read_text()
        assert content.startswith(CSV_HEADER)
        assert "sum,push,50" in content

    def test_result_mismatch_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr("streambench.cli.define_suite",
                            lambda: (lying_benchmark(),))
        code, out, err = self.run(
            ["--bench", "sum", "--engine", "pull",
             "--n", "10", "--warmup", "0", "--iters", "2"], capsys)
        assert code == 1
        assert "result mismatch" in err


class TestCheckMode:
    def test_all_engines_pass(self, capsys):
        code = run_cli(["--bench", "sum", "--engine", "all",
                        "--n", "1000", "--check"])
        out = capsys.readouterr().out
        assert code == 0
        for engine in ENGINE_NAMES:
            assert f"check sum {engine}: ok" in out

    def test_check_runs_no_timing_table(self, capsys):
        code = run_cli(["--bench", "refs", "--engine", "fused",
                        "--n", "300", "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert CSV_HEADER not in out

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr("streambench.cli.define_suite",
                            lambda: (lying_benchmark(),))
        code = run_cli(["--bench", "sum", "--engine", "baseline",
                        "--n", "10", "--check"])
        captured = capsys.readouterr()
        assert code == 1
        assert "MISMATCH" in captured.err


class TestShowPlan:
    def test_cart_prints_nest_and_exits(self, capsys):
        code = run_cli(["--bench", "cart", "--show-plan"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# plan cart" in out
        assert ("loop0: for x0 in outer[0:len)\n"
                "loop1: for x1 in inner[0:len)\n"
                "body: (x1 * x0)\n"
                "acc: sum(init=0)") in out
        assert CSV_HEADER not in out

    def test_all_plans(self, capsys):
        code = run_cli(["--show-plan"])
        out = capsys.readouterr().out
        assert code == 0
        for bench in ("sum", "sumOfSquares", "sumOfSquaresEven", "cart", "refs"):
            assert f"# plan {bench}" in out


class TestShowSource:
    def test_generated_source_follows_each_plan(self, capsys):
        code = run_cli(["--bench", "refs", "--show-plan"])
        out = capsys.readouterr().out
        assert code == 0
        plan, source = out.split("# source refs\n")
        assert plan.endswith("acc: count(init=0)\n")
        assert source.startswith("def run(lo, hi):\n")
        assert "x0 = r.value" in source

    def test_every_plan_and_source_matches_the_golden_text(self, capsys):
        # generated code is pinned byte for byte: a rewrite of the optimizer
        # or the emitter that changes any of it must change this file too
        code = run_cli(["--bench", "all", "--show-plan"])
        assert code == 0
        golden = (GOLDEN_DIR / "show_plan_all.txt").read_text()
        assert capsys.readouterr().out == golden


class TestBadFlags:
    @pytest.mark.parametrize("argv", [
        ["--engine", "warp"],
        ["--bench", "sort"],
        ["--n", "0"],
        ["--n", "-5"],
        ["--iters", "1"],
        ["--warmup", "-1"],
        ["--threads", "0"],
        ["--split-threshold", "0"],
        ["--format", "xml"],
    ])
    def test_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2


class TestDefaults:
    def test_default_n_matches_documented_scale(self):
        assert DEFAULT_N == 10_000_000
