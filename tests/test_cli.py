import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import demkit.cli
import demkit.graph
from demkit import build, parse_edge_list, parse_expr, predicted_dem
from demkit.cli import MAX_GEN_ORDER, main
from demkit.exprs import MAX_NESTING

import oracles
from conftest import book

REFS = Path(__file__).resolve().parent.parent / "benchmarks" / "refs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDem:
    def test_book_json(self, capsys):
        code, out, _ = run(capsys, "dem", "gen=book:4")
        assert code == 0
        doc = json.loads(out)
        assert doc["dem"] == 2 and doc["witness"] == [0, 1]
        assert doc["n"] == 6 and doc["m"] == 9

    def test_rook_product(self, capsys):
        code, out, _ = run(capsys, "dem", "gen=cartesian(complete:3,complete:3)")
        assert code == 0
        assert json.loads(out)["dem"] == 6

    def test_all_min_sets(self, capsys):
        code, out, _ = run(capsys, "dem", "gen=cycle:4", "--all-min-sets")
        doc = json.loads(out)
        assert doc["all_minimum_sets"] == [[0, 2], [1, 3]]

    def test_greedy_flag(self, capsys):
        code, out, _ = run(capsys, "dem", "gen=complete:4", "--greedy")
        doc = json.loads(out)
        assert doc["greedy"] == [0, 1, 2] and doc["greedy_size"] == 3

    def test_greedy_reuses_the_matrix(self, capsys, bfs_sources):
        # the greedy set is the seed dem_number already computed: one
        # all-sources sweep, as without --greedy
        for fmt in ("json", "csv", "plain"):
            bfs_sources.clear()
            code, _, _ = run(capsys, "dem", "gen=cycle:24", "--greedy", "--format", fmt)
            assert code == 0 and bfs_sources == ["all"]

    def test_torus_past_the_cap(self, capsys):
        # C7 x C7 (49 vertices) closes within seconds with the layer bound
        spec = "cartesian(cycle:7|cycle:7)"
        start = time.perf_counter()
        code, out, _ = run(capsys, "dem", f"gen={spec}", "--max-n", "49")
        assert code == 0 and time.perf_counter() - start < 5
        doc = json.loads(out)
        predicted = predicted_dem(spec)
        assert predicted.rule.startswith("cycle x cycle")
        assert doc["dem"] == predicted.lower == predicted.upper == 14
        g = build(parse_expr(spec))
        chosen = set(doc["witness"])
        columns = oracles.monitor_columns(g.n, list(g.edges))
        assert len(chosen) == 14 and all(col & chosen for col in columns)

    def test_file_input(self, capsys, tmp_path):
        target = tmp_path / "triangle.txt"
        target.write_text("0 1\n1 2\n2 0\n")
        code, out, _ = run(capsys, "dem", str(target))
        assert code == 0 and json.loads(out)["dem"] == 2

    def test_plain_and_csv_formats(self, capsys):
        code, out, _ = run(capsys, "dem", "gen=book:2", "--format", "plain")
        assert code == 0 and "dem = 2" in out
        code, out, _ = run(capsys, "dem", "gen=book:2", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "n,m,dem,witness,nodes_explored"
        assert lines[1].startswith("4,5,2,0 1,")

    def test_cap_exceeded_is_usage_error(self, capsys):
        code, _, err = run(capsys, "dem", "gen=cycle:30")
        assert code == 2 and "cap" in err

    def test_enumeration_cap_applies_to_an_edgeless_graph(self, capsys):
        code, out, err = run(
            capsys, "dem", "gen=path:1", "--all-min-sets", "--enum-cap", "0"
        )
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert "enumeration cap 0" in err

    def test_max_n_flag_lifts_cap(self, capsys):
        code, out, _ = run(capsys, "dem", "gen=cycle:30", "--max-n", "30")
        assert code == 0 and json.loads(out)["dem"] == 2

    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("DEMKIT_MAX_N", "30")
        assert run(capsys, "dem", "gen=cycle:28")[0] == 0
        monkeypatch.setenv("DEMKIT_MAX_N", "10")
        assert run(capsys, "dem", "gen=cycle:12")[0] == 2
        monkeypatch.setenv("DEMKIT_MAX_N", "0")
        code, _, err = run(capsys, "dem", "gen=cycle:12")
        assert code == 0 and "ignoring bad DEMKIT_MAX_N='0'" in err


class TestGen:
    def test_round_trip(self, capsys):
        code, out, _ = run(capsys, "gen", "book:2")
        assert code == 0
        assert parse_edge_list(out) == book(2)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "graph.txt"
        code, out, _ = run(capsys, "gen", "cycle:5", "-o", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == "0 1\n0 4\n1 2\n2 3\n3 4\n"

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "gen", "pyramid:3")
        assert code == 2 and "pyramid" in err

    @staticmethod
    def _nested_joins(depth):
        return "join(" * depth + "path:1" + "|path:1)" * depth

    def test_deep_nesting_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "gen", self._nested_joins(1000))
        assert code == 2 and out == ""
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert f"more than {MAX_NESTING} deep" in err

    def test_nesting_at_the_limit_parses(self, capsys):
        # MAX_NESTING joins over single vertices build the complete graph
        code, out, _ = run(capsys, "gen", self._nested_joins(MAX_NESTING))
        n = MAX_NESTING + 1
        assert code == 0 and len(out.splitlines()) == n * (n - 1) // 2


class TestCover:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "cover", "gen=bipartite:2:3")
        doc = json.loads(out)
        assert code == 0 and doc["cover"] == 2 and doc["witness"] == [0, 1]


class TestVerify:
    def test_bounds_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bounds")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "instance,predicted,computed,verdict,rule"
        assert all(",pass," in line for line in lines[1:])

    def test_formulas_suite_reports_the_refuted_rule(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "formulas")
        assert code == 1
        failing = [l.split(",")[0] for l in out.splitlines() if ",fail," in l]
        assert failing == [
            "cartesian(book:2|book:2)",
            "cartesian(book:2|book:3)",
            "cartesian(cycle:4|book:2)",
            "cartesian(path:3|book:2)",
        ]

    def test_byte_identical_reports(self, capsys):
        _, first, _ = run(capsys, "verify", "--suite", "bounds", "--seed", "7")
        _, second, _ = run(capsys, "verify", "--suite", "bounds", "--seed", "7")
        assert first == second

    @pytest.mark.parametrize("seed", [0, 41])
    def test_all_suite_matches_the_committed_reference(self, capsys, seed):
        # the report rebuilt from the benchmark's reference rows: those every
        # seed shares plus the ones drawn from this seed, sorted by instance
        header, *rows = (REFS / "verify_fixed.csv").read_text().splitlines(keepends=True)
        for line in (REFS / "verify_seeded.tsv").read_text().splitlines(keepends=True):
            row_seed, row = line.split("\t", 1)
            if int(row_seed) == seed:
                rows.append(row)
        rows.sort(key=lambda row: row.split(",", 1)[0])
        code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", str(seed))
        assert code == 1
        assert out == header + "".join(rows)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "sharpness", "--format", "json")
        docs = json.loads(out)
        verdicts = {d["instance"]: d["verdict"] for d in docs}
        assert verdicts["sharp-upper(path:2|path:2)"] == "pass"
        assert verdicts["sharp-upper(book:2|book:2)"] == "fail"

    def test_plain_format_summarizes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bounds", "--format", "plain")
        assert code == 0 and "0 fail" in out.splitlines()[-1]

    def test_timings_column_is_opt_in(self, capsys):
        _, out, _ = run(capsys, "verify", "--suite", "bounds")
        assert "runtime" not in out.splitlines()[0]
        _, out, _ = run(capsys, "verify", "--suite", "bounds", "--timings")
        assert out.splitlines()[0].endswith(",runtime")


class TestCompare:
    def test_grid_rows(self, capsys):
        code, out, _ = run(
            capsys, "compare", "gen=cartesian(path:3|path:3)", "gen=path:5"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "graph,n,m,dem,dim,edim,dim_s"
        assert lines[1] == "cartesian(path:3|path:3),9,12,3,2,2,2"
        assert lines[2].startswith("path:5,5,4,1,1,1,")

    def test_cap_applies(self, capsys):
        code, _, err = run(capsys, "compare", "gen=cartesian(path:5|path:5)")
        assert code == 2 and "cap" in err

    def test_default_cap_covers_the_dimensions(self, capsys):
        code, out, _ = run(capsys, "compare", "gen=cartesian(path:4|path:4)")
        assert code == 0 and out.splitlines()[1].split(",")[3] == "4"


def _refuse(*args, **kwargs):
    raise AssertionError("built a graph past the cap")


class TestCapBeforeBuild:
    """Oversized inputs are refused from their vertex count, before a graph
    is built: exit status 2 and one line naming the cap."""

    @pytest.mark.parametrize("command", ["dem", "cover", "compare"])
    def test_family_expression(self, capsys, monkeypatch, command):
        monkeypatch.setattr(demkit.cli, "build", _refuse)
        code, out, err = run(capsys, command, "gen=path:300000")
        assert code == 2 and out == ""
        assert "cap" in err and err.count("\n") == 1

    def test_astronomical_order(self, capsys, monkeypatch):
        # 2^5000 has too many digits to print, and str() refuses it
        monkeypatch.setattr(demkit.cli, "build", _refuse)
        code, out, err = run(capsys, "dem", "gen=cartesian(hypercube:5000|path:2)")
        assert code == 2 and out == ""
        assert err == (
            "demkit: gen=cartesian(hypercube:5000|path:2): "
            "instance size 2^5001 or more exceeds cap 24\n"
        )

    def test_huge_hypercube_is_sized_in_little_memory(self, capsys, monkeypatch):
        # the order of hypercube:d saturates instead of taking d bits
        monkeypatch.setattr(demkit.cli, "build", _refuse)
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "dem", "gen=cartesian(hypercube:10000000|hypercube:10000000)"
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert "cap" in err and err.count("\n") == 1
        assert peak < 1 << 20

    @pytest.mark.parametrize("command", ["dem", "cover", "compare"])
    def test_edge_list(self, capsys, monkeypatch, tmp_path, command):
        target = tmp_path / "far.txt"
        target.write_text("0 1\n1 300000\n")
        monkeypatch.setattr(demkit.graph, "Graph", _refuse)
        code, out, err = run(capsys, command, str(target))
        assert code == 2 and out == ""
        assert "cap" in err and "300001" in err and err.count("\n") == 1

    def test_edge_list_at_the_cap(self, capsys, tmp_path):
        target = tmp_path / "triangle.txt"
        target.write_text("0 1\n1 2\n2 0\n")
        assert run(capsys, "dem", str(target), "--max-n", "3")[0] == 0
        code, _, err = run(capsys, "dem", str(target), "--max-n", "2")
        assert code == 2 and "cap" in err

    def test_gen_is_not_capped(self, capsys):
        code, out, _ = run(capsys, "gen", "path:30")
        assert code == 0 and len(out.splitlines()) == 29

    @pytest.mark.parametrize(
        "expr",
        ["path:99999999999999999999", "hypercube:40", f"path:{MAX_GEN_ORDER + 1}"],
    )
    def test_gen_refuses_an_order_past_its_guard(self, capsys, monkeypatch, expr):
        # gen builds no graph whose neighbour masks (n^2 bits) could exhaust
        # memory: such input is a usage error before anything is allocated
        monkeypatch.setattr(demkit.cli, "build", _refuse)
        code, out, err = run(capsys, "gen", expr)
        assert code == 2 and out == ""
        assert err.startswith(f"demkit: {expr}: ") and err.count("\n") == 1
        assert f"exceeds cap {MAX_GEN_ORDER}" in err

    def test_gen_builds_at_its_guard(self, capsys):
        code, out, _ = run(capsys, "gen", f"path:{MAX_GEN_ORDER}")
        assert code == 0 and len(out.splitlines()) == MAX_GEN_ORDER - 1


class TestUsageErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "dem", "no-such-file.txt")
        assert code == 2

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 zero\n")
        code, _, err = run(capsys, "dem", str(bad))
        assert code == 2 and "non-integer" in err

    def test_disconnected_file(self, capsys, tmp_path):
        bad = tmp_path / "split.txt"
        bad.write_text("0 1\n2 3\n")
        code, _, err = run(capsys, "dem", str(bad))
        assert code == 2 and "disconnected" in err

    @pytest.mark.parametrize(
        "expr", ["gen=path:2:seed=3", "gen=randconn:8:1/2:seed=1:seed=2"]
    )
    def test_misplaced_seed(self, capsys, monkeypatch, expr):
        # a seed on a deterministic kind, or a second seed, is refused
        # before anything is built
        monkeypatch.setattr(demkit.cli, "build", _refuse)
        code, out, err = run(capsys, "dem", expr)
        assert code == 2 and out == ""
        assert err.startswith("demkit: ") and "seed" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["dem", "cover", "compare"])
    def test_file_that_is_not_text(self, capsys, tmp_path, command):
        good = tmp_path / "good.txt"
        good.write_text("0 1\n")
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe0 1\n")
        files = [str(good), str(bad)] if command == "compare" else [str(bad)]
        code, out, err = run(capsys, command, *files)
        assert code == 2 and out == ""
        assert err.startswith(f"demkit: {bad}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file names are bytes")
    def test_output_of_a_report_naming_a_file_that_is_not_utf8(self, tmp_path):
        # compare's report carries the name as given; the output file holds
        # the bytes stdout prints, which passes such a name through
        name = os.fsencode(tmp_path) + b"/g\xff.txt"
        try:
            with open(name, "w") as fh:
                fh.write("0 1\n1 2\n")
        except OSError:
            pytest.skip("the filesystem refuses a name holding byte 0xff")
        target = tmp_path / "out.csv"
        command = ["compare", os.fsdecode(name), "--format", "csv"]
        env = dict(os.environ, PYTHONIOENCODING="utf-8:surrogateescape")
        src = str(Path(demkit.cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        runs = [
            subprocess.run(
                [sys.executable, "-m", "demkit.cli", *command, *extra],
                env=env,
                capture_output=True,
                timeout=60,
            )
            for extra in ([], ["--output", str(target)])
        ]
        assert [(p.returncode, p.stderr) for p in runs] == [(0, b""), (0, b"")]
        assert b"g\xff.txt" in runs[0].stdout and runs[1].stdout == b""
        assert target.read_bytes() == runs[0].stdout

    def test_report_that_cannot_be_encoded(self, capsys, monkeypatch, tmp_path):
        # a lone surrogate has no bytes: exit 2 naming the output file, and
        # no file is left behind
        monkeypatch.setattr(demkit.cli, "_csv", lambda rows: "\ud800\n")
        target = tmp_path / "out.csv"
        code, out, err = run(capsys, "compare", "gen=path:3", "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"demkit: {target}: ") and err.count("\n") == 1
        assert not target.exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--max-n", "-5"], "argument --max-n: expected an integer >= 1, got '-5'"),
            (["--max-n", "0"], "argument --max-n: expected an integer >= 1, got '0'"),
            (
                ["--all-min-sets", "--enum-cap", "-1"],
                "argument --enum-cap: expected an integer >= 0, got '-1'",
            ),
        ],
    )
    def test_caps_out_of_range_are_rejected_by_the_parser(self, capsys, flags, message):
        with pytest.raises(SystemExit) as exc:
            main(["dem", "gen=cycle:5", *flags])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.startswith("usage: demkit dem ") and err.endswith(f"error: {message}\n")


def test_import_skips_dataclasses_inspect_and_json():
    # every CLI process pays for what importing demkit.cli loads; -S keeps
    # site from preloading modules, and diffing sys.modules leaves out the
    # interpreter's own start-up
    probe = (
        "import sys; before = set(sys.modules); import demkit.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(demkit.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    added = set(proc.stdout.split())
    assert proc.returncode == 0 and "demkit.cli" in added, proc.stderr
    assert not added & {"dataclasses", "inspect", "json", "pathlib"}
