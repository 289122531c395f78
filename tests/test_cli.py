import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cliquestream as cs
from cliquestream import cli, oracle

from conftest import bridged_cliques_graph, random_graphs

BRIDGED_EDGE_LINES = "\n".join(
    f"{u} {v}" for u, v in bridged_cliques_graph().edges()
)


def run_cli(**kwargs):
    out, err = io.StringIO(), io.StringIO()
    rc = cli.run(cli.RunConfig(**kwargs), out=out, err=err)
    return rc, out.getvalue(), err.getvalue()


class TestParseEdgeList:
    def test_bridged_graph(self):
        g = cli.parse_edge_list(BRIDGED_EDGE_LINES)
        assert g.n == 8 and g.m == 16
        assert g == bridged_cliques_graph()

    def test_header_only(self):
        g = cli.parse_edge_list("n 3\n")
        assert g.n == 3 and g.m == 0

    def test_self_loop_dropped_and_counted(self):
        report = cli.IngestReport()
        g = cli.parse_edge_list("1 1\n1 2\n", report)
        assert g.m == 1
        assert report.self_loops_dropped == 1

    def test_duplicates_and_flips_counted(self):
        report = cli.IngestReport()
        g = cli.parse_edge_list("1 2\n2 1\n1 2\n", report)
        assert g.m == 1
        assert report.duplicates_dropped == 2

    def test_comments_and_blanks_ignored(self):
        g = cli.parse_edge_list("# a comment\n\n1 2  # trailing\n")
        assert g.m == 1

    def test_malformed_line_number(self):
        with pytest.raises(cli.ParseError, match="line 2"):
            cli.parse_edge_list("1 2\n1 two\n")

    def test_bad_ids(self):
        with pytest.raises(cli.ParseError):
            cli.parse_edge_list("0 2\n")
        with pytest.raises(cli.ParseError, match="declared"):
            cli.parse_edge_list("n 2\n1 3\n")
        # a header after the edges still bounds every id seen so far
        with pytest.raises(cli.ParseError, match="line 2: declared"):
            cli.parse_edge_list("1 5\nn 3\n")
        assert cli.parse_edge_list("1 2\nn 3\n").n == 3

    def test_empty_without_header(self):
        with pytest.raises(cli.ParseError):
            cli.parse_edge_list("")


class TestParseDimacs:
    def test_triangle(self):
        g = cli.parse_dimacs("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert g.n == 3 and g.m == 3

    def test_header_mismatch_warns(self):
        report = cli.IngestReport()
        g = cli.parse_dimacs("p edge 3 5\ne 1 2\n", report)
        assert g.m == 1
        assert report.warnings and "declares 5" in report.warnings[0]

    def test_missing_header(self):
        with pytest.raises(cli.ParseError):
            cli.parse_dimacs("e 1 2\n")

    def test_comment_lines_skipped(self):
        g = cli.parse_dimacs("c hi\np edge 2 1\ne 1 2\n")
        assert g.m == 1

    def test_unknown_line_rejected(self):
        with pytest.raises(cli.ParseError, match="line 2"):
            cli.parse_dimacs("p edge 2 1\nq 1 2\n")


class TestRoundTrip:
    def test_both_formats(self):
        for g in random_graphs(10, seed0=3000):
            assert cli.parse_edge_list(cli.to_edge_list(g)) == g
            assert cli.parse_dimacs(cli.to_dimacs(g)) == g


class TestRun:
    def test_plain_bridged(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(BRIDGED_EDGE_LINES)
        rc, out, _ = run_cli(input=str(path))
        lines = out.splitlines()
        assert rc == 0
        assert len(lines) == 5
        assert lines[0] == "1 2 3 4 5"

    def test_verify_50_random_seeds(self):
        for seed in range(50):
            rc, _, err = run_cli(input="gnp:12:0.5", seed=seed, verify=True)
            assert rc == 0, err
            assert "VERIFY PASS" in err

    def test_verify_both_modes(self, tmp_path):
        for k, g in enumerate(random_graphs(6, seed0=3100, n_hi=12)):
            path = tmp_path / f"g{k}.edges"
            path.write_text(cli.to_edge_list(g))
            for mode in ("plain", "strict"):
                rc, out, err = run_cli(input=str(path), mode=mode, verify=True)
                assert rc == 0, err
                assert "VERIFY PASS" in err
                assert len(out.splitlines()) == len(oracle.all_maximal_cliques(g))

    def test_first_truncates(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(BRIDGED_EDGE_LINES)
        rc, out, _ = run_cli(input=str(path), first=2)
        assert rc == 0
        assert len(out.splitlines()) == 2

    def test_first_with_verify_checks_prefix(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(BRIDGED_EDGE_LINES)
        rc, out, err = run_cli(input=str(path), first=3, verify=True)
        assert rc == 0
        assert "VERIFY PASS" in err

    def test_trace_csv(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(BRIDGED_EDGE_LINES)
        trace = tmp_path / "trace.csv"
        rc, _, _ = run_cli(input=str(path), mode="strict", trace=str(trace))
        assert rc == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == cli.TRACE_SCHEMA
        assert lines[1] == cli.TRACE_HEADER
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 5
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5]

    def test_generator_inputs(self):
        rc, out, _ = run_cli(input="complete:4")
        assert rc == 0 and out.strip() == "1 2 3 4"
        rc, out, _ = run_cli(input="moon-moser:6", verify=True)
        assert rc == 0 and len(out.splitlines()) == 9
        rc1, out1, _ = run_cli(input="gnp:10:0.5", seed=4)
        rc2, out2, _ = run_cli(input="gnp:10:0.5", seed=4)
        assert rc1 == rc2 == 0 and out1 == out2

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("complete:0", "at least 1"),
            ("gnp:0:.5", "at least 1"),
            ("moon-moser:0", "at least 1"),
            ("complete:-3", "at least 1"),
            ("gnp:5:1.5", "[0, 1]"),
            ("gnp:5:-0.1", "[0, 1]"),
            ("gnp:5:nan", "[0, 1]"),
            ("gnp:5", "gnp:N:P"),
            ("gnp:x:.5", "gnp:N:P"),
            ("complete:3:1", "complete:N"),
            ("moon-moser:", "moon-moser:N"),
        ],
    )
    def test_bad_generator_spec_exit_code(self, spec, message):
        rc, out, err = run_cli(input=spec)
        assert rc == 2 and out == ""
        assert err.startswith("error:") and message in err

    def test_generator_bounds_are_inclusive(self):
        assert run_cli(input="complete:1")[:2] == (0, "1\n")
        assert run_cli(input="gnp:3:0", seed=1)[1].splitlines() == ["1", "2", "3"]
        assert run_cli(input="gnp:3:1", seed=1)[1] == "1 2 3\n"

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("1 zebra\n")
        rc, _, err = run_cli(input=str(path))
        assert rc == 2 and "error" in err

    def test_missing_file_exit_code(self):
        rc, _, err = run_cli(input="/nonexistent/graph.edges")
        assert rc == 2

    def test_verify_file_past_oracle_limit(self, tmp_path):
        path = tmp_path / "big.edges"
        path.write_text("n 30\n1 2\n")
        rc, out, err = run_cli(input=str(path), verify=True)
        assert rc == 0 and len(out.splitlines()) == 29
        assert "VERIFY PASS: all 29 cliques" in err

    def test_verify_past_oracle_limit(self):
        rc, out, err = run_cli(input="gnp:300:0.03", seed=1, verify=True)
        assert rc == 0 and out
        assert err.startswith("VERIFY PASS")

    def test_unwritable_trace_path(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        # a missing directory, and a regular file where a directory should be
        for trace in (tmp_path / "missing" / "t.csv", afile / "t.csv"):
            assert cli.main(["--input", "complete:3", "--trace", str(trace)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:") and str(trace) in captured.err
            assert len(captured.err.splitlines()) == 1

    def test_trace_path_is_directory(self, tmp_path):
        rc, out, err = run_cli(input="complete:3", trace=str(tmp_path))
        assert rc == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_trace_with_first_has_one_row_per_line(self, tmp_path):
        trace = tmp_path / "trace.csv"
        rc, out, _ = run_cli(input="moon-moser:9", first=3, trace=str(trace))
        assert rc == 0 and len(out.splitlines()) == 3
        lines = trace.read_text().splitlines()
        assert lines[:2] == [cli.TRACE_SCHEMA, cli.TRACE_HEADER]
        assert [int(row.split(",")[0]) for row in lines[2:]] == [1, 2, 3]

    def test_strict_output_matches_plain_set(self, tmp_path):
        g = cs.Graph.gnp(12, 0.6, seed=31)
        path = tmp_path / "g.edges"
        path.write_text(cli.to_edge_list(g))
        _, plain_out, _ = run_cli(input=str(path))
        _, strict_out, _ = run_cli(input=str(path), mode="strict")
        assert sorted(plain_out.splitlines()) == sorted(strict_out.splitlines())

    def test_batch_and_kernel_flags(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(BRIDGED_EDGE_LINES)
        for kernel in ("rect", "bitset"):
            for batch in (1, 2, 64):
                rc, out, _ = run_cli(input=str(path), kernel=kernel, capacity=batch)
                assert rc == 0 and len(out.splitlines()) == 5

    def test_oversized_rect_graph_refused(self, tmp_path):
        # any batch runs: rect takes it in slices whose rows fit the budget
        rc, out, _ = run_cli(input="gnp:200:0.5", kernel="rect", first=3)
        assert rc == 0 and len(out.splitlines()) == 3
        trace = tmp_path / "t.csv"
        rc, out, err = run_cli(input="complete:1100", kernel="rect", trace=str(trace))
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "--kernel bitset" in err
        assert len(err.splitlines()) == 1 and not trace.exists()

    def test_retired_kernel_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--input", "complete:3", "--kernel", "naive"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestVerifyHelper:
    def test_fail_reports_counts(self, bridged):
        err = io.StringIO()
        emitted = {cs.VertexSet.of(1, 2, 3, 4, 5).bits}  # everything else missing
        ok = cli._verify(bridged, emitted, 1, prefix_only=False, err=err)
        assert not ok
        assert "missing=4" in err.getvalue()

    def test_duplicates_detected(self, bridged):
        err = io.StringIO()
        full = {c.bits for c in oracle.all_maximal_cliques(bridged)}
        ok = cli._verify(bridged, full, len(full) + 1, prefix_only=False, err=err)
        assert not ok
        assert "duplicates=1" in err.getvalue()

    def test_non_maximal_extra_detected(self, bridged):
        err = io.StringIO()
        full = {c.bits for c in oracle.all_maximal_cliques(bridged)}
        emitted = full | {cs.VertexSet.of(1, 2).bits}  # a clique inside K5
        ok = cli._verify(bridged, emitted, len(emitted), prefix_only=False, err=err)
        assert not ok
        assert "missing=0 extra=1 duplicates=0 non_maximal=1" in err.getvalue()


class TestMain:
    def test_argv_parsing(self, capsys):
        rc = cli.main(["--input", "complete:3"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1 2 3"

    def test_bad_first_value(self, capsys):
        rc = cli.main(["--input", "complete:3", "--first", "0"])
        assert rc == 2


class TestClosedPipe:
    def test_reader_closing_early_is_quiet(self):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "cliquestream", "--input", "moon-moser:27"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert head == [b"1 4 7 10 13 16 19 22 25\n", b"2 4 7 10 13 16 19 22 25\n"]
        assert err == ""
