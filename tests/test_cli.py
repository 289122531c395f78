import io
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cliquestream as cs
from cliquestream import cli, oracle

import reference
from conftest import bridged_cliques_graph, graphs, random_graphs

TOO_MANY = "vertices are more than 92681, the most whose adjacency rows fit 1 GiB"

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


# documents close to each grammar (edges, headers, comments) with junk
# mixed in: ids that are negative, past the vertex-count budget or not
# integers, tokens in the wrong place, and arbitrary text
SMALL = st.integers(1, 9).map(str)
IDS = st.one_of(*[SMALL] * 6, st.integers(-2, 2000).map(str), st.just("92682"))
JUNK = st.one_of(
    st.lists(
        st.one_of(IDS, st.sampled_from(["n", "p", "edge", "e", "c", "#", "1e3"])), max_size=5
    ).map(" ".join),
    st.text(max_size=12),
)
EDGE = st.tuples(IDS, IDS).map(" ".join)
EDGE_LINES = st.one_of(
    *[EDGE] * 6,
    IDS.map("n {}".format),
    st.text(max_size=8).map("# {}".format),
    JUNK,
)
DIMACS_LINES = st.one_of(
    *[EDGE.map("e {}".format)] * 6,
    st.text(max_size=8).map("c {}".format),
    JUNK,
)
DOCUMENTS = st.one_of(
    st.text(),
    st.lists(EDGE_LINES, max_size=8).map("\n".join),
    st.tuples(SMALL, st.lists(DIMACS_LINES, max_size=8)).map(
        lambda doc: "\n".join([f"p edge {doc[0]} 0", *doc[1]])
    ),
)


class TestOnePassIngestion:
    """Both parsers give the same rows and report counts as
    ``reference.from_edges`` on the pairs the file holds, with self-loops,
    repeats either way round, comments, an ``n`` header or not, and DIMACS
    edge counts that are off."""

    @staticmethod
    def document(rng, fmt):
        """A file's text and what it must parse to: n and its pairs, the
        declared edge count for DIMACS."""
        top = rng.randint(1, 20)
        pairs = []
        for _ in range(rng.randint(0 if fmt == "dimacs" else 1, 3 * top)):
            u, v = rng.randint(1, top), rng.randint(1, top)
            roll = rng.random()
            pairs.append((u, u) if roll < 0.1 else (u, v))
            if roll > 0.85:
                pairs.append((v, u))
            elif roll > 0.75:
                pairs.append((u, v))
        if fmt == "dimacs":
            lines = [f"e {u} {v}" for u, v in pairs]
            declared = max(0, len(pairs) + rng.choice([0, 0, -1, 2]))
            lines.insert(0, f"p edge {top} {declared}")
            comment = "c a note"
        else:
            lines = [f"{u} {v}" + ("  # trailing" if rng.random() < 0.2 else "") for u, v in pairs]
            declared = None
            seen = max(max(p) for p in pairs)
            if rng.random() < 0.5:
                top += rng.randint(0, 3)  # a header at any line, at or past every id
                lines.insert(rng.randint(0, len(lines)), f"n {top}")
            else:
                top = seen
            comment = "# a note"
        for _ in range(rng.randint(0, 3)):
            lines.insert(rng.randint(0, len(lines)), rng.choice([comment, "", "   "]))
        return "\n".join(lines) + rng.choice(["", "\n"]), top, pairs, declared

    @pytest.mark.parametrize("fmt", ["edges", "dimacs"])
    def test_rows_and_counts_match_from_edges(self, fmt):
        rng = random.Random(3000)
        parse = cli.parse_dimacs if fmt == "dimacs" else cli.parse_edge_list
        for _ in range(300):
            text, n, pairs, declared = self.document(rng, fmt)
            report = cli.IngestReport()
            g = parse(text, report)
            want = reference.from_edges(n, pairs)
            loops = sum(u == v for u, v in pairs)
            assert (g.n, g.adj, g.m) == (want.n, want.adj, want.m)
            assert report.self_loops_dropped == loops
            assert report.duplicates_dropped == len(pairs) - loops - want.m
            warning = f"header declares {declared} edges but {len(pairs)} were found"
            mismatch = declared is not None and declared != len(pairs)
            assert report.warnings == ([warning] if mismatch else [])


def ascii_decimal(token: str) -> int:
    """``int`` of an optional sign and ASCII digits alone."""
    if not re.fullmatch(r"[+-]?[0-9]+", token):
        raise ValueError(f"not an ASCII decimal: {token!r}")
    return int(token)


# Where the bulk readers and the line readers of ``reference`` part on
# purpose: the line readers take ids and header numbers with ``int``, which
# also reads digit separators ("1_0" is 10) and other scripts' digits ("١"
# is 1).  The bulk readers take ASCII decimal alone, so such a token is
# refused at its line; given ``ascii_decimal`` for ``int``, the line readers
# are the reference for everything else.
DIVERGENCES = [
    (cli.parse_edge_list, "1 1_0\n", "line 1: non-integer vertex id in '1 1_0'"),
    (cli.parse_edge_list, "n 3\n\u0661 2\n", "line 2: non-integer vertex id in '\u0661 2'"),
    (cli.parse_edge_list, "n 1_0\n", "line 1: bad vertex count '1_0'"),
    (cli.parse_dimacs, "p edge 3 1\ne 1 \u0663\n", "line 2: non-integer vertex id"),
    (cli.parse_dimacs, "p edge 1_0 0\n", "line 1: bad header numbers"),
]

# every break of str.splitlines and some of str.split's other whitespace
BREAKS = st.sampled_from(
    ["\n"] * 6 + ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
SPACES = st.sampled_from([" "] * 6 + ["  ", "\t", "\x1f", "\xa0", "\u2009", "\u3000"])
ODD_IDS = st.sampled_from(
    ["007", "+1", "+", "++1", "1+", "-1", "-0", "0", "1_0", "\u0661", "\u0663", "1e3",
     "0" * 20 + "2", str(2**63), str(2**64 + 3), "92682", "e", "n", "e1", "0e2", "2n"]
)
# ids a well-formed file may hold, alone or now and then with an odd token
GOOD_IDS = st.one_of(*[st.integers(1, 6).map(str)] * 8, st.sampled_from(["007", "+1", "0" * 20 + "3"]))
WORDS = st.one_of(*[GOOD_IDS] * 8, ODD_IDS)
FREE_TEXT = st.text(st.sampled_from("ab c#e\t\u00e9\u2028 1"), max_size=6)


@st.composite
def spaced(draw, tokens):
    """``tokens`` with drawn whitespace before, between and after them."""
    out = draw(st.sampled_from(["", "", "", " ", "\t "]))
    for i, token in enumerate(tokens):
        out += token + (draw(SPACES) if i < len(tokens) - 1 else draw(st.sampled_from(["", " "])))
    return out


def edge_list_lines(draw, words):
    kind = draw(st.sampled_from(["edge"] * 12 + ["header", "comment", "blank", "junk"]))
    if kind == "edge":
        line = draw(spaced([draw(words), draw(words)]))
        return line + draw(st.sampled_from(["", "", "#", " # note", "#1 2"]))
    if kind == "header":
        return draw(spaced(["n", draw(words)]))
    if kind == "comment":
        return "#" + draw(FREE_TEXT)
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t"]))
    if draw(st.booleans()):  # token counts that cancel out over two lines, or a glued 'n'
        return draw(st.sampled_from(["1\n2 3 4", "1 2 3\n4", "1 2n 6"]))
    return draw(spaced(draw(st.lists(words, max_size=4))))


def dimacs_lines(draw, words):
    kind = draw(st.sampled_from(["edge"] * 12 + ["header", "comment", "blank", "junk"]))
    if kind == "edge":
        return draw(spaced(["e", draw(words), draw(words)]))
    if kind == "header":
        return draw(spaced(["p", "edge", draw(words), draw(words)]))
    if kind == "comment":
        return "c" + draw(FREE_TEXT)
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t"]))
    if draw(st.booleans()):  # token counts that cancel out over two lines, or a glued 'e'
        return draw(st.sampled_from(["e 1 2 e", "e 3", "e 1\n2 e 3 4", "e", "e1 2 3", "2 3 e1"]))
    return draw(spaced(draw(st.lists(words, max_size=5))))


@st.composite
def files(draw, fmt):
    """A document in ``fmt``, close to well formed: mostly edges, some
    headers, comments, blank lines and junk, joined by drawn line breaks."""
    words = draw(st.sampled_from([GOOD_IDS, WORDS]))
    draw_line = edge_list_lines if fmt == "edges" else dimacs_lines
    lines = [draw_line(draw, words) for _ in range(draw(st.integers(0, 8)))]
    if fmt == "dimacs" and draw(st.integers(0, 3)):
        lines.insert(0, draw(spaced(["p", "edge", draw(st.sampled_from("6789")), draw(SMALL)])))
    text = "".join(line + draw(BREAKS) for line in lines)
    return text if draw(st.booleans()) else text[:-1]


class TestBulkReaderMatchesLineReader:
    """The bulk readers give the graph and report of the line readers of
    ``reference`` (ids read by ``ascii_decimal``), or refuse with the same
    message at the same line."""

    @staticmethod
    def outcome(parse, text, **kw):
        report = cli.IngestReport()
        try:
            g = parse(text, report, **kw)
        except cli.ParseError as exc:
            return str(exc)
        return g.n, g.adj, g.m, report

    def check(self, fmt, text):
        parse, line_reader = {
            "edges": (cli.parse_edge_list, reference.parse_edge_list),
            "dimacs": (cli.parse_dimacs, reference.parse_dimacs),
        }[fmt]
        want = self.outcome(line_reader, text, integer=ascii_decimal)
        assert self.outcome(parse, text) == want

    @pytest.mark.parametrize("fmt", ["edges", "dimacs"])
    @settings(max_examples=600, deadline=None)
    @given(data=st.data())
    def test_close_to_well_formed(self, fmt, data):
        self.check(fmt, data.draw(files(fmt)))

    @pytest.mark.parametrize(
        "fmt, text",
        [
            ("edges", "1\n2 3 4\n"),
            ("edges", "1 2 3\n4\n"),
            ("edges", "1 2n 6\n"),
            ("edges", "1 2\nn 3 4\n"),
            ("edges", "n 4 # four\n 1 +2\n\t3 004\r\n"),
            ("edges", "1 +\n"),
            ("edges", "1+ 2\n"),
            ("edges", "1 0e2\n"),
            ("dimacs", "p edge 5 2\ne 1 2 e\ne 3\n"),
            ("dimacs", "p edge 5 2\ne 1\n2 e 3 4\n"),
            ("dimacs", "p edge 5 1\ne1 2 3\n"),
            ("dimacs", "p edge 5 2\ne 1 2\n2 3 e1\n"),
            ("dimacs", "p edge 5 1\ne 2 0e1\n"),
            ("dimacs", "p edges 5 1\ne 1 2\n"),
            ("dimacs", "c x\n  p edge 3 1\n\te 1 +2\r\ncat\n"),
            ("dimacs", "p edge 3 1\ne + 2\n"),
        ],
    )
    def test_lines_that_fool_a_token_stream(self, fmt, text):
        self.check(fmt, text)

    @settings(max_examples=300, deadline=None)
    @given(text=DOCUMENTS)
    def test_fuzz_documents(self, text):
        self.check("edges", text)
        self.check("dimacs", text)

    def test_past_one_block_of_rows(self, monkeypatch):
        """Rows packed a block of rows at a time: two blocks at n = 300, one
        row a block, and blocks only where an edge is."""
        graphs = [
            cs.Graph.gnp(300, 0.05, seed=1),
            reference.from_edges(5000, [(1, 4999), (70, 71)]),
        ]
        for g in graphs:
            for text, fmt in ((cli.to_dimacs(g), "dimacs"), (reference.to_edge_list(g), "edges")):
                self.check(fmt, text)
        monkeypatch.setattr(cs.graph, "_BLOCK_BITS", 1)
        for g in [*graphs, *random_graphs(5, seed0=3100)]:
            assert cli.parse_dimacs(cli.to_dimacs(g)) == g
            flipped = "".join(f"{v} {u}\n" for u, v in g.edges())
            report = cli.IngestReport()
            assert cli.parse_edge_list(reference.to_edge_list(g) + flipped + "1 1\n", report) == g
            assert (report.self_loops_dropped, report.duplicates_dropped) == (1, g.m)

    def test_whitespace_is_what_str_split_and_splitlines_say(self):
        """Every ``str.isspace()`` character, as a separator and as a break,
        gives the outcome of the line readers of ``reference``."""
        for c in map(chr, range(sys.maxunicode + 1)):
            if c.isspace():
                self.check("edges", f"1{c}2\n2 3\n")
                self.check("edges", f"n 3\n1 2{c}2 3\n")
                self.check("dimacs", f"p edge 3 2\ne 1{c}2\ne 2 3\n")
                self.check("dimacs", f"p edge 3 2\ne 1 2{c}e 2 3\n")
                self.check("edges", f"1 1#{c}1 2\n")  # a comment ends where its line does
                self.check("dimacs", f"p edge 3 2\nc{c}e 1 2\ne 2 3\n")

    @pytest.mark.parametrize(
        "fmt, text",
        [
            ("edges", "n5 3\n1 2\n"),
            ("dimacs", "p edge 5 2\ne 1 2\n3 4\n"),
            ("dimacs", "p edge 5 1\ne \ne 1 2\n"),
            ("dimacs", "p edge 5 1\ne 1 2\ne\t\n"),
            ("dimacs", "p edge 5 1\ne \n3 4\n"),
            ("dimacs", "p edge 5 2\ne 1 2\ne \n3 4\n"),
            ("dimacs", "p edge 5 1\ne \t \n3 4\n"),
            ("dimacs", "p edge 3 2\ne  1 2\ne 2 3.5\n"),
            ("dimacs", "p edge 3 2\ne  1 2\ne 2 1_0\n"),
            ("dimacs", "p edge 3 2\ne  1 2\ne 2 3x\n"),
            ("edges", "n " + "9" * 5000 + "\n1 2\n"),
            ("dimacs", "p edge " + "9" * 5000 + " 1\ne 1 2\n"),
            ("dimacs", "p edge 5 " + "9" * 5000 + "\ne 1 2\n"),
        ],
    )
    def test_lines_the_bulk_readers_leave_to_the_line_rules(self, fmt, text):
        """A glued header word, a DIMACS ``u v`` line without its ``e``, an
        ``e`` line with nothing after it (alone or with such a ``u v`` line,
        whose pair it would stand in for), which a bulk read would take as a
        header, an id pair and a blank line, a header number of more digits
        than ``int`` reads, and a bad id in a file with an ``e`` followed by
        two separators, are refused as the line rules say."""
        self.check(fmt, text)

    def test_plain_ascii_files_skip_the_line_rules(self, monkeypatch):
        """The files ``to_dimacs`` and ``reference.to_edge_list`` write, past
        64 vertices and with isolated vertices, with CRLF breaks, tabs and
        comments or not, are read in bulk alone; a ``+`` id, a non-ASCII
        comment or an ``e`` followed by more than one separator leaves a file
        to the line rules, which read the same graph."""
        rng = random.Random(4040)
        files = []
        for n in (65, 130, 300):
            g = cs.Graph.gnp(n, 2 / n, seed=rng.randrange(1 << 30))
            assert not all(g.adj)  # an isolated vertex
            dimacs, edges = cli.to_dimacs(g), reference.to_edge_list(g)
            plain = [
                (cli.parse_dimacs, dimacs),
                (cli.parse_dimacs, "c a note\r\n" + dimacs.replace(" ", "\t").replace("\n", "\r\n")),
                (cli.parse_edge_list, edges),
                (cli.parse_edge_list, "# a note\r\n" + edges.replace(" ", "\t").replace("\n", " # e\r\n")),
            ]
            other = [
                (cli.parse_dimacs, dimacs.replace("\ne ", "\ne +")),
                (cli.parse_dimacs, "c caf\u00e9\n" + dimacs),
                (cli.parse_dimacs, dimacs.replace("\ne ", "\ne  ")),
                (cli.parse_dimacs, dimacs.replace("\ne ", "\ne \t")),
                (cli.parse_edge_list, edges.replace("\n", "\n+").removesuffix("+")),
                (cli.parse_edge_list, "# caf\u00e9\n" + edges),
            ]
            files.append((g, plain, other))

        def line_rules(text):
            raise AssertionError("read by the line rules")

        monkeypatch.setattr(cli, "_edge_list_lines", line_rules)
        monkeypatch.setattr(cli, "_dimacs_lines", line_rules)
        for g, plain, other in files:
            for parse, text in plain:
                assert parse(text) == g
            for parse, text in other:
                with pytest.raises(AssertionError, match="line rules"):
                    parse(text)
        monkeypatch.undo()
        for g, _, other in files:
            for parse, text in other:
                assert parse(text) == g

    @pytest.mark.parametrize("parse, text, message", DIVERGENCES)
    def test_intended_divergences(self, parse, text, message):
        line_reader = getattr(reference, parse.__name__)
        assert isinstance(line_reader(text), cs.Graph)
        with pytest.raises(cli.ParseError) as exc:
            parse(text)
        assert str(exc.value) == message
        with pytest.raises(cli.ParseError) as exc:
            line_reader(text, integer=ascii_decimal)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "parse, text",
        [
            (cli.parse_dimacs, "p edge 60000 2\ne 1 2\ne 59999 60000\n"),
            (cli.parse_edge_list, "n 60000\n1 2\n59999 60000\n"),
        ],
    )
    def test_huge_sparse_n_allocates_little(self, parse, text):
        """No n x n bool matrix (3.6 GB) and no n x n/8 buffer (450 MB): the
        rows of a sparse graph on 60,000 vertices peak under 2 MiB."""
        tracemalloc.start()
        try:
            g = parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (g.n, g.m) == (60000, 2)
        assert peak < 2 << 20


class TestRoundTrip:
    def test_both_formats(self):
        for g in random_graphs(10, seed0=3000):
            assert cli.parse_edge_list(reference.to_edge_list(g)) == g
            assert cli.parse_dimacs(cli.to_dimacs(g)) == g

    @settings(max_examples=100, deadline=None)
    @given(g=graphs(max_n=20))
    def test_both_formats_property(self, g):
        assert cli.parse_edge_list(reference.to_edge_list(g)) == g
        assert cli.parse_dimacs(cli.to_dimacs(g)) == g


class TestParserFuzz:
    """Any text yields a Graph or a ParseError, nothing else."""

    @settings(max_examples=300, deadline=None)
    @given(text=DOCUMENTS)
    def test_parsers_return_a_graph_or_refuse(self, text):
        for parse in (cli.parse_edge_list, cli.parse_dimacs):
            try:
                g = parse(text)
            except cli.ParseError:
                continue
            assert isinstance(g, cs.Graph)
            g.validate()

    @pytest.mark.parametrize(
        "parse, text, lineno",
        [
            (cli.parse_edge_list, "n 100000000\n1 2\n", 1),
            (cli.parse_edge_list, "1 2\n1 200000000\n", 2),
            (cli.parse_edge_list, "1 2\nn 100000000\n", 2),
            (cli.parse_dimacs, "c big\np edge 100000000 1\ne 1 2\n", 2),
        ],
    )
    def test_oversized_count_refused_before_the_graph(
        self, monkeypatch, parse, text, lineno
    ):
        def not_built(*args, **kwargs):
            raise AssertionError("graph construction reached")

        monkeypatch.setattr(cli.Graph, "_normalized", not_built)
        with pytest.raises(cli.ParseError, match=f"^line {lineno}: .*{TOO_MANY}$"):
            parse(text)


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
            path.write_text(reference.to_edge_list(g))
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

    def test_trace_bytes_are_header_and_rows(self, tmp_path):
        # each row is "{ordinal},{cost},{queue},{stack}\n", rebuilt here from
        # the library's own streams, over more rows than one 8 KiB buffer
        g = cs.Graph.complete_multipartite_triples(21)
        head = f"{cli.TRACE_SCHEMA}\n{cli.TRACE_HEADER}\n"
        strict = [
            (e.cost_units, e.queue_size, e.stack_cliques) for e in cs.run_strict(g, capacity=7)
        ]
        stats, cost, plain = cs.TraversalStats(), 0, []
        for e in cs.list_mc(g, capacity=7, stats=stats):
            cost += e.cost
            if e.kind == cs.CLIQUE_COLLECTED:
                plain.append((cost, 0, stats.stack_cliques))
                cost = 0
        for mode, rows in (("strict", strict), ("plain", plain)):
            trace = tmp_path / f"{mode}.csv"
            rc, _, _ = run_cli(input="moon-moser:21", mode=mode, capacity=7, trace=str(trace))
            want = head + "".join(f"{k},{c},{q},{s}\n" for k, (c, q, s) in enumerate(rows, 1))
            assert rc == 0 and len(rows) == 3**7 and len(want) > 1 << 13
            assert trace.read_bytes() == want.encode()

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
        path.write_text(reference.to_edge_list(g))
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

    def test_rect_lists_past_an_n_cubed_graph_matrix(self):
        # any batch runs: rect takes it in slices whose rows fit the budget
        rc, out, _ = run_cli(input="gnp:200:0.5", kernel="rect", first=3)
        assert rc == 0 and len(out.splitlines()) == 3
        # an explicit M_G at n = 1100 would take 1.2 GiB; rect builds only
        # its two n x n factors
        rc, out, err = run_cli(input="complete:1100", kernel="rect", verify=True)
        assert rc == 0 and err == "VERIFY PASS: all 1 cliques match the oracle\n"
        assert out == " ".join(map(str, range(1, 1101))) + "\n"

    def test_retired_kernel_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--input", "complete:3", "--kernel", "naive"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


def refusal_line(tmp_path, **kwargs) -> str:
    """Run a refused configuration with ``--trace``; check exit 2, empty
    stdout, no trace file and one stderr line, and return that line."""
    trace = tmp_path / "t.csv"
    rc, out, err = run_cli(trace=str(trace), **kwargs)
    assert rc == 2 and out == "" and not trace.exists()
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


class TestRefusals:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("n 3\nn 3\n", "line 2: duplicate 'n' header"),
            ("n 3 4\n", "line 1: expected 'n <count>'"),
            ("n three\n", "line 1: bad vertex count 'three'"),
            ("n 0\n", "line 1: vertex count must be at least 1"),
            ("1 2\n1 2 3\n", "line 2: expected 'u v', got '1 2 3'"),
            ("1 200000000\n", f"line 1: 200000000 {TOO_MANY}"),
        ],
    )
    def test_edge_list(self, tmp_path, text, message):
        path = tmp_path / "g.edges"
        path.write_text(text)
        assert refusal_line(tmp_path, input=str(path)) == f"error: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p edge 3 0\np edge 3 0\n", "line 2: duplicate problem header"),
            ("p edge 3\n", "line 1: expected 'p edge N M'"),
            ("p edge three 0\n", "line 1: bad header numbers"),
            ("p edge 0 0\n", "line 1: vertex count must be at least 1"),
            ("p edge 3 -2\ne 1 2\n", "line 1: edge count must be non-negative"),
            ("p edge 3 1\ne 1\n", "line 2: expected 'e u v'"),
            ("p edge 3 1\ne 1 x\n", "line 2: non-integer vertex id"),
            ("p edge 3 1\ne 1 4\n", "line 2: vertex id outside 1..3"),
            ("c no header\n", "missing 'p edge N M' header"),
            ("p edge 100000000 0\n", f"line 1: 100000000 {TOO_MANY}"),
        ],
    )
    def test_dimacs(self, tmp_path, text, message):
        path = tmp_path / "g.dimacs"
        path.write_text(text)
        assert refusal_line(tmp_path, input=str(path), fmt="dimacs") == f"error: {message}"

    @pytest.mark.parametrize(
        "spec",
        ["complete:0", "gnp:0:.5", "moon-moser:0", "complete:-3", "gnp:5:1.5", "gnp:5:-0.1", "gnp:5:nan"],
    )
    def test_bad_generator_parameter_has_one_refusal(self, tmp_path, spec):
        # the CLI refuses with the constructor's own message
        name, n, *p = spec.split(":")
        build = {
            "gnp": cs.Graph.gnp,
            "moon-moser": cs.Graph.complete_multipartite_triples,
            "complete": cs.Graph.complete,
        }[name]
        with pytest.raises(ValueError) as exc:
            build(int(n), *map(float, p))
        if int(n) < 1:
            assert str(exc.value) == "vertex count must be at least 1"
        else:
            assert str(exc.value) == f"edge probability must be in [0, 1], got {float(p[0])}"
        assert refusal_line(tmp_path, input=spec) == f"error: {exc.value}"

    def test_oversized_generator(self, tmp_path):
        line = refusal_line(tmp_path, input="complete:200000")
        assert line == f"error: 200000 {TOO_MANY}"

    def test_batch_zero(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        argv = ["--input", "complete:3", "--batch", "0", "--trace", str(trace)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not trace.exists()
        assert captured.err == "error: batch capacity must be at least 1\n"

    def test_first_zero(self, tmp_path):
        line = refusal_line(tmp_path, input="complete:3", first=0)
        assert line == "error: --first must be at least 1"

    @pytest.mark.parametrize("mode", ["plain", "strict"])
    def test_listing_refuses_before_the_root(self, tmp_path, monkeypatch, mode):
        def no_root(*args, **kwargs):
            raise AssertionError("root built for a refused run")

        monkeypatch.setattr(cs.delay_scheduler, "root", no_root)
        # rect's graph factors at n = 13,378 would pass their 1 GiB budget
        wide = tmp_path / "wide.edges"
        wide.write_text("n 13378\n")
        for kw, message in (
            ({"kernel": "fft"}, "unknown kernel 'fft'"),
            ({"capacity": 0}, "batch capacity must be at least 1"),
            ({"input": str(wide), "kernel": "rect"}, "(n <= 13377): use --kernel bitset"),
        ):
            kw = {"input": "complete:3", "mode": mode} | kw
            assert message in refusal_line(tmp_path, **kw)


class TestFormatClique:
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
    def test_matches_the_iterator_join(self, n):
        rng = random.Random(n)
        masks = [0, 1, (1 << n) - 1, 1 << (n - 1)]
        masks += [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(200)]
        labels = list(map(str, range(n + 1)))
        for bits in masks:
            c = cs.VertexSet(bits)
            assert cli._format_clique(c, labels) == " ".join(map(str, c))


class TestIngestionLines:
    def test_dimacs_input(self, tmp_path, bridged):
        path = tmp_path / "g.dimacs"
        path.write_text(cli.to_dimacs(bridged))
        rc, out, err = run_cli(input=str(path), fmt="dimacs", verify=True)
        assert rc == 0 and err == "VERIFY PASS: all 5 cliques match the oracle\n"
        assert sorted(out.splitlines()) == sorted(
            " ".join(map(str, c)) for c in oracle.all_maximal_cliques(bridged)
        )

    def test_edge_count_warning(self, tmp_path):
        path = tmp_path / "g.dimacs"
        path.write_text("p edge 3 5\ne 1 2\n")
        rc, out, err = run_cli(input=str(path), fmt="dimacs")
        assert rc == 0 and sorted(out.splitlines()) == ["1 2", "3"]
        assert err == "warning: header declares 5 edges but 1 were found\n"

    @pytest.mark.parametrize(
        "fmt, text",
        [("dimacs", "\ufeffp edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"), ("edges", "\ufeff1 2\n2 3\n1 3\n")],
    )
    def test_utf8_byte_order_mark(self, tmp_path, fmt, text):
        path = tmp_path / "g.txt"
        path.write_text(text, encoding="utf-8")
        assert run_cli(input=str(path), fmt=fmt) == (0, "1 2 3\n", "")

    def test_normalized_input_line(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 1\n1 2\n2 1\n")
        rc, out, err = run_cli(input=str(path))
        assert rc == 0 and out == "1 2\n"
        assert err == "normalized input: dropped 1 self-loops, 1 duplicate edges\n"

    def test_failed_verify_exits_1(self, monkeypatch):
        stream = cli.oracle.maximal_clique_masks

        def one_short(*args, **kwargs):
            masks = stream(*args, **kwargs)
            next(masks)
            return masks

        monkeypatch.setattr(cli.oracle, "maximal_clique_masks", one_short)
        rc, out, err = run_cli(input="moon-moser:6", verify=True)
        assert rc == 1 and len(out.splitlines()) == 9
        assert err.startswith("VERIFY FAIL: missing=0 extra=1 duplicates=0")


class TestVerifyHelper:
    """``cli._verify``, the set check of a ``--first`` prefix and of a whole
    run whose fingerprints disagree."""

    @staticmethod
    def verify_whole(g, emitted, count, err):
        """``cli._verify`` of a whole listing that printed ``count`` cliques,
        the distinct masks ``emitted``."""
        return cli._verify(g, cli.RunConfig(input=""), emitted, count, err)

    def test_fail_reports_counts(self, bridged):
        err = io.StringIO()
        emitted = {cs.VertexSet.of(1, 2, 3, 4, 5).bits}  # everything else missing
        ok = self.verify_whole(bridged, emitted, 1, err)
        assert not ok
        assert "missing=4" in err.getvalue()

    def test_duplicates_detected(self, bridged):
        err = io.StringIO()
        full = {c.bits for c in oracle.all_maximal_cliques(bridged)}
        ok = self.verify_whole(bridged, full, len(full) + 1, err)
        assert not ok
        assert "duplicates=1" in err.getvalue()

    def test_non_maximal_extra_detected(self, bridged):
        err = io.StringIO()
        full = {c.bits for c in oracle.all_maximal_cliques(bridged)}
        emitted = full | {cs.VertexSet.of(1, 2).bits}  # a clique inside K5
        ok = self.verify_whole(bridged, emitted, len(emitted), err)
        assert not ok
        assert "missing=0 extra=1 duplicates=0 non_maximal=1" in err.getvalue()


class TestVerifyBesideListing:
    """A whole ``--verify`` run draws one oracle mask per printed line and the
    rest after the last one, a ``--first`` prefix all of them after its last
    line, and the verdict is the one whole sets give."""

    FAULTS = (None, "missing", "duplicate", "non-maximal", "oracle-short", "oracle-sub")

    @staticmethod
    def faulty_run(monkeypatch, spec, seed, fault, at, **kwargs):
        """Run the CLI on a generator spec with ``fault`` injected at the
        oracle's ``at``-th clique ``c``: the listing skips ``c``, prints it
        twice or prints ``c`` less its last vertex after it, or the oracle
        drops ``c``, or (``oracle-sub``) yields ``c`` less its last vertex in
        its place while the listing prints both.  Returns the status, the
        printed masks, stderr, the oracle masks the run faced and the graph."""
        g = cli.generator_graph(spec, seed)
        reference = list(oracle.maximal_clique_masks(g, limit=g.n))
        target = reference[at]
        sub = target ^ (1 << (target.bit_length() - 1))
        real_emissions = cli._emissions

        def emissions(g, cfg, stats):
            for item in real_emissions(g, cfg, stats):
                hit = item[0].bits == target
                if not (hit and fault == "missing"):
                    yield item
                if hit and fault == "duplicate":
                    yield item
                if hit and fault in ("non-maximal", "oracle-sub"):
                    yield (cs.VertexSet(sub), *item[1:])

        monkeypatch.setattr(cli, "_emissions", emissions)
        if fault in ("oracle-short", "oracle-sub"):
            reference[at : at + 1] = [sub] if fault == "oracle-sub" else []
            monkeypatch.setattr(
                cli.oracle, "maximal_clique_masks", lambda g, limit: iter(reference)
            )
        rc, out, err = run_cli(input=spec, seed=seed, verify=True, **kwargs)
        printed = [cs.VertexSet.of(*map(int, line.split())).bits for line in out.splitlines()]
        return rc, printed, err, reference, g

    @pytest.mark.parametrize("kernel", cs.kernels.KERNELS)
    @pytest.mark.parametrize("mode", ["plain", "strict"])
    def test_verdict_matches_the_whole_set_check(self, monkeypatch, kernel, mode):
        for seed, spec in enumerate(["gnp:9:0.5", "gnp:12:0.4", "moon-moser:9", "gnp:14:0.7"]):
            total = len(list(oracle.maximal_clique_masks(cli.generator_graph(spec, seed))))
            for fault in self.FAULTS:
                for at in sorted({0, total // 2, total - 1}):
                    for first in (None, 1, total // 2 + 1, total, total + 2):
                        with monkeypatch.context() as m:
                            rc, printed, err, masks, g = self.faulty_run(
                                m, spec, seed, fault, at, kernel=kernel, mode=mode, first=first
                            )
                        expect = reference.verify_line(g, printed, first is not None, masks)
                        assert err == expect, (spec, fault, at, first)
                        assert rc == (0 if expect.startswith("VERIFY PASS") else 1)
                        if fault in ("oracle-short", "oracle-sub") and first is None:
                            assert expect.startswith("VERIFY FAIL: missing=0 extra=1 ")

    def test_one_reference_mask_per_printed_line(self, monkeypatch):
        stream = cli.oracle.maximal_clique_masks
        calls, drawn = [], []

        def counted(g, limit):
            calls.append(g.n)
            masks = stream(g, limit)

            def draws():
                for bits in masks:
                    drawn.append(bits)
                    yield bits

            return draws()

        class Lines(io.StringIO):
            """Records how many reference masks were drawn as each line is written."""

            def __init__(self):
                super().__init__()
                self.drawn_at = []

            def write(self, text):
                self.drawn_at.extend([len(drawn)] * text.count("\n"))
                return super().write(text)

        monkeypatch.setattr(cli.oracle, "maximal_clique_masks", counted)
        total = len(list(stream(cs.Graph.complete_multipartite_triples(12), 12)))
        for first, lines in ((None, total), (5, 5), (total, total)):
            for mode in ("plain", "strict"):
                calls.clear()
                drawn.clear()
                out, err = Lines(), io.StringIO()
                cfg = cli.RunConfig(input="moon-moser:12", mode=mode, first=first, verify=True)
                assert cli.run(cfg, out=out, err=err) == 0 and "VERIFY PASS" in err.getvalue()
                # a whole run's line k waits for no draw: k - 1 masks were drawn
                # before it; a prefix draws nothing before its last line
                assert out.drawn_at == (list(range(lines)) if first is None else [0] * lines)
                # one stream, every mask drawn once, none rebuilt: a whole run draws
                # it all, a prefix's tail stops at the last printed mask it matches
                assert calls == [12] and len(drawn) == len(set(drawn))
                text = out.getvalue().splitlines()
                printed = {sum(1 << int(v) - 1 for v in line.split()) for line in text}
                assert printed <= set(drawn) and drawn[-1] in printed
                assert len(drawn) == total or first == 5

    def test_a_prefix_stops_drawing_once_matched(self, monkeypatch):
        # --first 1 on moon-moser:30 draws the oracle only up to its one
        # printed mask, not the other 59,048 after it
        stream, drawn = cli.oracle.maximal_clique_masks, []

        def counted(g, limit):
            for bits in stream(g, limit):
                drawn.append(bits)
                yield bits

        g = cli.generator_graph("moon-moser:30", None)
        masks = list(stream(g, g.n))
        monkeypatch.setattr(cli.oracle, "maximal_clique_masks", counted)
        for mode in ("plain", "strict"):
            drawn.clear()
            out, err = io.StringIO(), io.StringIO()
            cfg = cli.RunConfig(input="moon-moser:30", mode=mode, first=1, verify=True)
            assert cli.run(cfg, out=out, err=err) == 0
            assert err.getvalue() == "VERIFY PASS: first 1 cliques match the oracle\n"
            first = sum(1 << int(v) - 1 for v in out.getvalue().split())
            assert drawn == masks[: masks.index(first) + 1] and len(drawn) < len(masks)


    @pytest.mark.parametrize("spec", ["moon-moser:12", "gnp:200:0.05"])
    def test_a_count_preserving_fault_fails(self, monkeypatch, spec):
        # one clique printed twice and another skipped: the counts agree, so
        # only the fingerprints see it, then the sets name it; past n = 126
        # the fingerprint folds digests, not masks
        g = cli.generator_graph(spec, 1)
        twice, skipped = list(oracle.maximal_clique_masks(g, limit=g.n))[1:3]
        real_emissions = cli._emissions

        def emissions(g, cfg, stats):
            for item in real_emissions(g, cfg, stats):
                if item[0].bits != skipped:
                    yield item
                if item[0].bits == twice:
                    yield item

        monkeypatch.setattr(cli, "_emissions", emissions)
        rc, out, err = run_cli(input=spec, seed=1, verify=True)
        assert len(out.splitlines()) == len(list(oracle.maximal_clique_masks(g, limit=g.n)))
        assert (rc, err) == (1, "VERIFY FAIL: missing=1 extra=0 duplicates=1 non_maximal=0\n")

    @pytest.mark.parametrize("kernel", cs.kernels.KERNELS)
    def test_memory_follows_the_stack(self, kernel):
        """A whole run under --verify holds no mask of the output: its peak
        stays within 64 KiB of the plain run's on Moon-Moser 24 (6,561 lines)."""

        class Sink:
            def write(self, text):
                return len(text)

        def peak(verify):
            cfg = cli.RunConfig(input="moon-moser:24", kernel=kernel, verify=verify)
            cli.run(cfg, out=Sink(), err=io.StringIO())  # first-call work is not the run's
            tracemalloc.start()
            try:
                assert cli.run(cfg, out=Sink(), err=io.StringIO()) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(True) - peak(False) < 64 << 10


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
