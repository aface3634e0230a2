import argparse
import json
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from knnrobust import (CertificationError, DataFormatError, DegeneratePairError, Query,
                       SolverError, cli, exact_1nn_lp)
from knnrobust.attack import CertificateKind, PerturbationCertificate
from knnrobust.cli import RobustnessReport, RunConfig, _check_bound_ordering, bench, main, run


@pytest.fixture
def fix_files(tmp_path):
    files = {}
    (tmp_path / "fixA.csv").write_text("1,-1\n2,3\n")
    (tmp_path / "fixA_query.csv").write_text("1,0\n")
    (tmp_path / "fixB.csv").write_text("1,1,1\n2,2,0\n")
    (tmp_path / "fixB_query.csv").write_text("1,0,0\n")
    (tmp_path / "fixC.csv").write_text("1,-0.5\n1,-1\n2,2\n2,3\n2,4\n")
    (tmp_path / "fixC_query.csv").write_text("1,0\n")
    # fixB with the mirror point (1, -1) in the query's class.
    (tmp_path / "fixD.csv").write_text("1,1,1\n1,1,-1\n2,2,0\n")
    (tmp_path / "fixD_query.csv").write_text("1,0,0\n")
    for name in ("fixA", "fixB", "fixC", "fixD"):
        files[name] = str(tmp_path / f"{name}.csv")
        files[name + "_q"] = str(tmp_path / f"{name}_query.csv")
    files["out"] = str(tmp_path / "report.json")
    files["dir"] = tmp_path
    return files


class TestRun:
    def test_exact_fix_a(self, fix_files):
        report = run(RunConfig(command="exact", data_path=fix_files["fixA"],
                               query_path=fix_files["fixA_q"], k=1))
        rec = report.queries[0]
        assert rec["epsilon"] == pytest.approx(1.0, abs=1e-9)
        assert rec["kind"] == "exact"
        assert report.aggregates["mean_epsilon"] == pytest.approx(1.0, abs=1e-9)

    def test_verify_k3_fix_c(self, fix_files):
        report = run(RunConfig(command="verify", data_path=fix_files["fixC"],
                               query_path=fix_files["fixC_q"], k=3))
        assert report.queries[0]["epsilon"] == pytest.approx(1.0, abs=1e-6)
        assert report.queries[0]["kind"] == "lower_bound"

    def test_attack_naive_fix_b(self, fix_files):
        report = run(RunConfig(command="attack", data_path=fix_files["fixB"],
                               query_path=fix_files["fixB_q"], k=1,
                               method="naive-1"))
        rec = report.queries[0]
        assert rec["epsilon"] == pytest.approx(1.0, abs=1e-6)
        assert rec["kind"] == "upper_bound"

    def test_exact_linf_norm(self, fix_files):
        # The target's two rows, (1, 1) and (1, -1) with b = -1, each bound the
        # max norm by 1/2 alone, where the LP starts; together they force 1.
        report = run(RunConfig(command="exact", data_path=fix_files["fixD"],
                               query_path=fix_files["fixD_q"], norm="linf"))
        assert report.queries[0]["epsilon"] == pytest.approx(1.0, abs=1e-9)
        assert report.queries[0]["stats"]["solver_iterations"] > 0     # the LP's pivots

    def test_round_trip(self, fix_files):
        report = run(RunConfig(command="exact", data_path=fix_files["fixA"],
                               query_path=fix_files["fixA_q"]))
        payload = json.loads(report.to_json())
        again = RobustnessReport.from_dict(payload)
        assert again.to_json() == report.to_json()

    @pytest.mark.parametrize("version", [0, 2, None])
    def test_other_schema_versions_rejected(self, version):
        payload = RobustnessReport(command="exact", config={}).to_dict()
        payload["schema_version"] = version
        with pytest.raises(DataFormatError, match=f"unsupported schema_version {version!r}"):
            RobustnessReport.from_dict(payload)

    def test_deterministic_without_timing(self, fix_files):
        cfg = RunConfig(command="exact", data_path=fix_files["fixA"],
                        query_path=fix_files["fixA_q"], omit_timing=True, seed=3)
        a = run(cfg).to_json()
        b = run(cfg).to_json()
        assert a == b

    def test_workers_match_serial(self, fix_files, tmp_path):
        rng = np.random.default_rng(5)
        cells = rng.choice(121, size=28, replace=False)
        pts = np.stack(np.unravel_index(cells, (11, 11)), axis=1) - 5
        data = tmp_path / "multi.csv"
        rows = ["%d,%.1f,%.1f" % (1 + i % 2, *pts[i]) for i in range(20)]
        data.write_text("\n".join(rows) + "\n")
        queries = tmp_path / "multi_q.csv"
        queries.write_text("\n".join("%d,%.1f,%.1f" % (1 + i % 2, *pts[20 + i])
                                     for i in range(8)) + "\n")
        base = dict(command="exact", data_path=str(data), query_path=str(queries),
                    omit_timing=True)
        serial = run(RunConfig(**base, workers=1)).to_dict()
        threaded = run(RunConfig(**base, workers=4)).to_dict()
        serial.pop("config")
        threaded.pop("config")
        assert serial == threaded

    def test_verifier_is_timed(self, fix_files):
        report = run(RunConfig(command="verify", data_path=fix_files["fixC"],
                               query_path=fix_files["fixC_q"], k=3))
        times = [rec["stats"]["wall_time"] for rec in report.queries]
        assert times and min(times) > 0.0
        assert report.aggregates["total_wall_time"] == sum(times)
        table = bench(RunConfig(command="bench", data_path=fix_files["fixC"],
                                query_path=fix_files["fixC_q"], methods=("verifier",)))
        assert table.queries[0]["stats"]["wall_time"] > 0.0

    def test_emit_deltas(self, fix_files):
        report = run(RunConfig(command="exact", data_path=fix_files["fixA"],
                               query_path=fix_files["fixA_q"], emit_deltas=True))
        assert report.queries[0]["delta"] == pytest.approx([1.0], abs=1e-8)


class TestBench:
    def test_fix_a_table(self, fix_files):
        cfg = RunConfig(command="bench", data_path=fix_files["fixA"],
                        query_path=fix_files["fixA_q"], k=1,
                        methods=("exact", "verifier", "naive-1"))
        report = bench(cfg)
        values = {row["method"]: row["mean_epsilon"] for row in report.table}
        assert values["exact"] == pytest.approx(1.0, abs=1e-6)
        assert values["verifier"] == pytest.approx(1.0, abs=1e-6)
        assert values["naive-1"] == pytest.approx(1.0, abs=1e-6)

    def test_bound_ordering_enforced(self, fix_files):
        cfg = RunConfig(command="bench", data_path=fix_files["fixC"],
                        query_path=fix_files["fixC_q"], k=1,
                        methods=("exact", "verifier", "qp-1", "qp-10", "naive-1", "mean"))
        report = bench(cfg)
        values = {row["method"]: row["mean_epsilon"] for row in report.table}
        assert values["verifier"] <= values["exact"] + 1e-9
        assert values["exact"] <= values["qp-10"] + 1e-9
        assert values["qp-10"] <= values["qp-1"] + 1e-9

    def test_table_at_small_scale(self, fix_files):
        # fix A scaled by 1e-6: every value is 1e-6.
        (fix_files["dir"] / "small.csv").write_text("1,-1e-6\n2,3e-6\n")
        cfg = RunConfig(command="bench", data_path=str(fix_files["dir"] / "small.csv"),
                        query_path=fix_files["fixA_q"], k=1,
                        methods=("exact", "verifier", "qp-1", "naive-1", "mean"))
        values = {row["method"]: row["mean_epsilon"] for row in bench(cfg).table}
        for value in values.values():
            assert value == pytest.approx(1e-6, rel=1e-8, abs=0.0)

    def test_ordering_slack_is_relative(self):
        # A lower bound 5% above the exact value is a violation at any scale.
        q = Query(np.zeros(1), 1)

        def records(epsilon, kind):
            return [(0, q, PerturbationCertificate(None, epsilon, kind, kind.value))]

        exact = records(1e-6, CertificateKind.EXACT)
        planted = {"exact": exact, "verifier": records(1.05e-6, CertificateKind.LOWER_BOUND)}
        with pytest.raises(CertificationError):
            _check_bound_ordering(planted, ["exact", "verifier"])
        tight = {"exact": exact, "verifier": records(1e-6, CertificateKind.LOWER_BOUND)}
        _check_bound_ordering(tight, ["exact", "verifier"])

    @pytest.mark.parametrize("low, high", [("qp-10", "qp-1"), ("qp-1", "naive-1")])
    def test_theorem_pairs_enforced(self, low, high):
        # Two upper bounds whose order is a theorem: the lower one 5% above the other.
        q = Query(np.zeros(1), 1)

        def records(epsilon):
            return [(0, q, PerturbationCertificate(None, epsilon, CertificateKind.UPPER_BOUND,
                                                   "attack"))]

        planted = {low: records(1.05), high: records(1.0)}
        with pytest.raises(CertificationError, match=f"{low}=1.05 > {high}=1"):
            _check_bound_ordering(planted, [low, high])
        _check_bound_ordering({low: records(1.0), high: records(1.0)}, [low, high])

    def test_nscr_sweep_emitted(self, fix_files):
        cfg = RunConfig(command="bench", data_path=fix_files["fixC"],
                        query_path=fix_files["fixC_q"], k=1,
                        methods=("exact",), nscr_sweep=(1, 2, 8))
        report = bench(cfg)
        assert [row["n_scr"] for row in report.sweep] == [1, 2, 8]

    def test_knn_default_rows(self, fix_files):
        cfg = RunConfig(command="bench", data_path=fix_files["fixC"],
                        query_path=fix_files["fixC_q"], k=3)
        report = bench(cfg)
        assert {row["method"] for row in report.table} == {
            "verifier", "qp-greedy", "naive-1", "mean"
        }


class TestMainExitCodes:
    def test_ok(self, fix_files, capsys):
        code = main(["exact", "--data", fix_files["fixA"],
                     "--queries", fix_files["fixA_q"], "--k", "1",
                     "--output", fix_files["out"]])
        assert code == 0
        payload = json.loads(Path(fix_files["out"]).read_text())
        assert payload["schema_version"] == 1
        assert payload["queries"][0]["epsilon"] == pytest.approx(1.0)

    def test_table_csv_written(self, fix_files, capsys):
        table = str(fix_files["dir"] / "table.csv")
        code = main(["bench", "--data", fix_files["fixA"],
                     "--queries", fix_files["fixA_q"],
                     "--methods", "exact,verifier",
                     "--table-csv", table])
        assert code == 0
        lines = Path(table).read_text().strip().splitlines()
        assert lines[0].startswith("method,")
        assert len(lines) == 3

    def test_config_error_exit_2(self, fix_files, capsys):
        code = main(["exact", "--data", fix_files["fixA"],
                     "--queries", fix_files["fixA_q"], "--k", "2"])
        assert code == 2

    @pytest.mark.parametrize("field", ["n_scr", "workers", "repeats"])
    def test_count_below_one_exit_2(self, fix_files, capsys, field):
        message = "n_scr, workers and repeats must all be >= 1"
        files = {"data_path": fix_files["fixA"], "query_path": fix_files["fixA_q"]}
        with pytest.raises(ValueError, match=message):
            RunConfig(command="bench", **files, **{field: 0})
        code = main(["bench", "--data", fix_files["fixA"], "--queries", fix_files["fixA_q"],
                     "--" + field.replace("_", "-"), "0"])
        assert code == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_io_error_exit_3(self, fix_files, capsys):
        code = main(["exact", "--data", str(fix_files["dir"] / "nope.csv"),
                     "--queries", fix_files["fixA_q"]])
        assert code == 3

    @pytest.mark.parametrize("command", ["exact", "verify"])
    def test_nonfinite_query_exit_3(self, fix_files, capsys, command):
        queries = fix_files["dir"] / "nan_q.csv"
        queries.write_text("1,0,nan\n")
        code = main([command, "--data", fix_files["fixB"], "--queries", str(queries)])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err.startswith(f"I/O error: {queries}: ")

    @pytest.mark.parametrize("command", ["exact", "verify"])
    def test_overflowing_distances_exit_3(self, fix_files, capsys, command):
        # Finite features whose squared distance overflows float64 once gave
        # "mean_epsilon": NaN from verify and exit 5 from exact.
        data = fix_files["dir"] / "huge.csv"
        data.write_text("1,0,0\n2,1e308,1e308\n")
        code = main([command, "--data", str(data), "--queries", fix_files["fixB_q"],
                     "--output", fix_files["out"]])
        out, err = capsys.readouterr()
        assert code == 3 and "nan" not in out.lower()
        assert err == "I/O error: squared distances from the query overflow float64\n"
        assert not Path(fix_files["out"]).exists()

    def test_greedy_with_every_same_class_point_dropped_exit_0(self, fix_files, capsys):
        # The refinement would drop both class-1 points; this once exited 2
        # with "all same-class points excluded".
        data = fix_files["dir"] / "greedy.csv"
        data.write_text("1,1,0,2\n1,-2,-3,0\n4,-1,-2,-1\n4,-2,0,0\n4,1,-3,-2\n"
                        "3,-1,0,2\n3,3,-3,-3\n2,2,-1,3\n2,-1,2,-1\n4,-3,3,-2\n")
        queries = fix_files["dir"] / "greedy_q.csv"
        queries.write_text("1,0,-2,3\n")
        code = main(["attack", "--data", str(data), "--queries", str(queries),
                     "--method", "qp-greedy", "--k", "5", "--output", fix_files["out"]])
        assert code == 0
        record = json.loads(Path(fix_files["out"]).read_text())["queries"][0]
        assert record["kind"] == "upper_bound" and record["epsilon"] > 0.0

    def test_query_dimension_checked_before_prediction(self, fix_files, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "knn_predict", lambda *args, **kwargs: calls.append(args))
        ds = cli.load_csv(fix_files["fixA"])
        queries = [Query(np.array([1.0]), 1), Query(np.array([1.0, 0.0]), 1)]
        cfg = RunConfig(command="exact", data_path=fix_files["fixA"],
                        query_path=fix_files["fixA_q"])
        with pytest.raises(DataFormatError, match="query dimension does not match the dataset"):
            cli._sample_queries(ds, queries, cfg)
        assert calls == []

    @pytest.mark.parametrize("command", ["exact", "bench"])
    @pytest.mark.parametrize("error, code, prefix", [
        (CertificationError("delta does not flip"), 5, "certification violation: "),
        (SolverError("no pivot row"), 4, "solver failure: "),
        (DegeneratePairError("points coincide"), 4, "error: "),
        (ValueError("unknown method"), 2, "configuration error: "),
    ], ids=["certification", "solver", "other library error", "value"])
    def test_errors_raised_mid_run(self, fix_files, capsys, monkeypatch, command, error,
                                   code, prefix):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "_run_method", fail)
        assert main([command, "--data", fix_files["fixA"], "--queries", fix_files["fixA_q"],
                     "--output", fix_files["out"]]) == code
        out, err = capsys.readouterr()
        assert out == "" and err == f"{prefix}{error}\n"
        assert not Path(fix_files["out"]).exists()

    def test_even_k_verify_error(self, fix_files, capsys):
        code = main(["verify", "--data", fix_files["fixC"],
                     "--queries", fix_files["fixC_q"], "--k", "4"])
        assert code == 2

    def test_exact_k3_rejected(self, fix_files, capsys):
        code = main(["exact", "--data", fix_files["fixC"],
                     "--queries", fix_files["fixC_q"], "--k", "3"])
        assert code == 2

    @pytest.mark.parametrize("method", ["exact", "verifier"])
    def test_attack_rejects_the_exact_and_lower_bound_methods(self, fix_files, capsys, method):
        code = main(["attack", "--data", fix_files["fixA"], "--queries", fix_files["fixA_q"],
                     "--method", method])
        assert code == 2
        assert capsys.readouterr().err == (
            f"configuration error: attack takes an upper-bound method, got {method!r}\n")

    @pytest.mark.parametrize("fields, message", [
        ({"command": "certify"}, "unknown command 'certify'"),
        ({"command": "exact", "norm": "l3"}, "norm must be l2, linf or l1, got 'l3'"),
        ({"command": "verify", "norm": "linf"}, "applies to the exact command only"),
        ({"command": "attack", "norm": "l1"}, "applies to the exact command only"),
        ({"command": "bench", "norm": "linf"}, "applies to the exact command only"),
    ])
    def test_config_rejects_commands_and_norms(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(data_path="d.csv", query_path="q.csv", **fields)


def _echo(**fields):
    """The report's ``config`` for a RunConfig with these fields, as JSON reads it back."""
    return json.loads(json.dumps(asdict(RunConfig(**fields))))


class TestMainFlags:
    def test_every_bench_flag_reaches_its_field(self, fix_files, capsys):
        d = fix_files["dir"]
        (d / "hdr.csv").write_text("label,x\n" + Path(fix_files["fixC"]).read_text())
        (d / "hdr_q.csv").write_text("label,x\n1,0\n")
        table = str(d / "table.csv")
        code = main(["bench", "--data-path", str(d / "hdr.csv"),
                     "--query-path", str(d / "hdr_q.csv"),
                     "--output-path", fix_files["out"], "--n-scr", "3",
                     "--workers", "2", "--seed", "7",
                     "--sample", "5", "--repeats", "2", "--emit-deltas", "--omit-timing",
                     "--no-screening", "--no-sorting", "--has-header",
                     "--methods", "exact, verifier",
                     "--nscr-sweep", "1,8", "--table-csv", table])
        assert code == 0
        payload = json.loads(Path(fix_files["out"]).read_text())
        assert payload["config"] == _echo(
            command="bench", data_path=str(d / "hdr.csv"), query_path=str(d / "hdr_q.csv"),
            output_path=fix_files["out"], n_scr=3, workers=2, seed=7,
            sample=5, repeats=2, emit_deltas=True, omit_timing=True, screening=False,
            sorting=False, has_header=True, methods=("exact", "verifier"),
            nscr_sweep=(1, 8), table_csv=table,
        )
        assert [row["method"] for row in payload["table"]] == ["exact", "verifier"]
        assert [entry["n_scr"] for entry in payload["sweep"]] == [1, 8]
        assert all("delta" in rec for rec in payload["queries"] if rec["method"] == "exact-1nn")

    def test_tolerance_flag_is_gone(self, fix_files, capsys):
        # The solver's tolerance is relative to each subproblem, so there is
        # no flag for it; argparse rejects the old one as a usage error.
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--data", fix_files["fixA"], "--queries", fix_files["fixA_q"],
                  "--tolerance", "1e-9"])
        assert exc.value.code == 2
        assert "--tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["exact", "verify", "attack", "bench"])
    def test_removed_flags_are_gone(self, fix_files, capsys, command):
        # qp-<m> and naive-<t> carry their counts and the validation inflation
        # is a constant; neither old flag is read as an abbreviation either.
        method = ["--method", "mean"] if command == "attack" else []
        for flag, value in (("--m", "3"), ("--inflation", "1e-8")):
            with pytest.raises(SystemExit) as exc:
                main([command, "--data", fix_files["fixA"], "--queries", fix_files["fixA_q"],
                      *method, flag, value])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("exact", "--repeats"),
        ("verify", "--norm"), ("verify", "--n-scr"), ("verify", "--no-screening"),
        ("verify", "--no-sorting"), ("verify", "--repeats"), ("verify", "--emit-deltas"),
        ("attack", "--norm"), ("attack", "--repeats"), ("attack", "--no-sorting"),
        ("bench", "--norm"),
    ])
    def test_unread_flags_are_usage_errors(self, fix_files, capsys, command, flag):
        # Each subcommand takes only the flags some path of it reads.
        value = {"--norm": ["l2"], "--n-scr": ["3"], "--repeats": ["2"]}.get(flag, [])
        method = ["--method", "qp-1"] if command == "attack" else []
        with pytest.raises(SystemExit) as exc:
            main([command, "--data", fix_files["fixA"], "--queries", fix_files["fixA_q"],
                  *method, flag, *value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_readme_lists_every_flag(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
        (subparsers,) = [action for action in cli._build_parser()._actions
                         if isinstance(action, argparse._SubParsersAction)]
        takes = {name: {flag for action in p._actions for flag in action.option_strings
                        if flag not in ("-h", "--help")}
                 for name, p in subparsers.choices.items()}
        assert named == set().union(*takes.values())
        # The flag x subcommand table lists exactly the flags each subparser takes.
        header, *rows = [line.strip("|").split("|") for line in section.splitlines()
                         if line.startswith("| ")]
        commands = [cell.strip(" `") for cell in header[1:]]
        table = {name: set() for name in commands}
        for cells in rows:
            for name, cell in zip(commands, cells[1:]):
                if cell.strip():
                    table[name] |= set(re.findall(r"--[a-z-]+", cells[0]))
        assert table == takes

    def test_short_spellings_and_defaults(self, fix_files, capsys):
        code = main(["attack", "--data", fix_files["fixC"], "--queries", fix_files["fixC_q"],
                     "--output", fix_files["out"], "--method", "mean", "--k", "3"])
        assert code == 0
        payload = json.loads(Path(fix_files["out"]).read_text())
        assert payload["config"] == _echo(
            command="attack", data_path=fix_files["fixC"], query_path=fix_files["fixC_q"],
            output_path=fix_files["out"], method="mean", k=3,
        )

    def test_attack_takes_counted_names_as_bench_does(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        cells = rng.choice(121, size=30, replace=False)
        pts = np.stack(np.unravel_index(cells, (11, 11)), axis=1) - 5
        rows = ["%d,%d,%d" % (1 + i % 3, *pts[i]) for i in range(30)]
        (tmp_path / "d.csv").write_text("\n".join(rows[:22]) + "\n")
        (tmp_path / "q.csv").write_text("\n".join(rows[22:]) + "\n")
        common = ["--data", str(tmp_path / "d.csv"), "--queries", str(tmp_path / "q.csv"),
                  "--omit-timing", "--output", str(tmp_path / "out.json")]

        def report(*flags):
            assert main([*flags, *common]) == 0
            return json.loads((tmp_path / "out.json").read_text())

        attacks = [report("attack", "--method", name) for name in ("qp-3", "naive-2")]
        table = report("bench", "--methods", "qp-3,naive-2")
        assert attacks[0]["queries"] and attacks[1]["queries"]
        assert table["queries"] == attacks[0]["queries"] + attacks[1]["queries"]
        assert table["table"] == [{"method": name, **a["aggregates"]}
                                  for name, a in zip(("qp-3", "naive-2"), attacks)]

    def test_norm_flag(self, fix_files, capsys):
        code = main(["exact", "--data", fix_files["fixB"], "--queries", fix_files["fixB_q"],
                     "--output", fix_files["out"], "--norm", "linf"])
        assert code == 0
        payload = json.loads(Path(fix_files["out"]).read_text())
        assert payload["config"] == _echo(
            command="exact", data_path=fix_files["fixB"], query_path=fix_files["fixB_q"],
            output_path=fix_files["out"], norm="linf",
        )

    def test_lp_norm_takes_the_pruning_flags(self, fix_files, capsys, monkeypatch):
        seen = {}

        def recorder(ds, q, norm, **kwargs):
            seen.update(kwargs, norm=norm)
            return exact_1nn_lp(ds, q, norm, **kwargs)

        monkeypatch.setattr(cli, "exact_1nn_lp", recorder)
        code = main(["exact", "--data", fix_files["fixB"], "--queries", fix_files["fixB_q"],
                     "--output", fix_files["out"], "--norm", "l1", "--n-scr", "3",
                     "--no-screening", "--no-sorting"])
        assert code == 0
        assert seen["norm"] == "l1" and seen["n_scr"] == 3
        assert seen["cfg"].screening_enabled is False and seen["sort_candidates"] is False

    @pytest.mark.parametrize("omit_timing", [False, True])
    def test_table_csv_header_and_rows(self, fix_files, capsys, omit_timing):
        table = str(fix_files["dir"] / "table.csv")
        code = main(["bench", "--data", fix_files["fixC"], "--queries", fix_files["fixC_q"],
                     "--methods", "exact,qp-1", "--table-csv", table,
                     "--output", fix_files["out"]] + (["--omit-timing"] if omit_timing else []))
        assert code == 0
        lines = Path(table).read_text().splitlines()
        header = ["method", "mean_epsilon", "count", "mean_subproblems_built",
                  "mean_subproblems_solved", "mean_subproblems_screened"]
        if not omit_timing:
            header.append("runtime_seconds")
        assert lines[0].split(",") == header
        rows = json.loads(Path(fix_files["out"]).read_text())["table"]
        assert lines[1:] == [",".join(str(row[c]) for c in header) for row in rows]
        assert [line.split(",")[:3] for line in lines[1:]] == [
            ["exact", "0.75", "1"], ["qp-1", "0.75", "1"]]

    def test_malformed_sweep_is_a_configuration_error(self, fix_files, capsys, monkeypatch):
        # Also empty lists, empty method names, sweep values below 1, unknown
        # method names, zero counts, counts spelled unlike their int and a
        # negative seed: all are rejected before any data is loaded.  A count
        # like "01" would run qp-1 under a table row named qp-01, where the
        # bound ordering check, which looks rows up by name, skips qp-1's pairs.
        def no_loading(*args):
            raise AssertionError("data loaded before the configuration was checked")

        monkeypatch.setattr(cli, "load_csv", no_loading)
        for flags in (["--nscr-sweep", "x"], ["--nscr-sweep", ""], ["--nscr-sweep", "0"],
                      ["--methods", ""], ["--methods", "exact,,verifier"],
                      ["--methods", "exact,bogus"], ["--methods", "qp-0"],
                      ["--methods", "naive-0"], ["--methods", "qp-01,qp-10,naive-1"],
                      ["--methods", "naive-01"], ["--methods", "qp-\u0661"],
                      ["--methods", "naive-\uff11"], ["--seed", "-1"]):
            code = main(["bench", "--data", fix_files["fixA"], "--queries", fix_files["fixA_q"],
                         *flags])
            assert code == 2, flags
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("configuration error:")
            assert "usage:" not in err

    @pytest.mark.parametrize("flags, message", [
        (["--methods", "exact,exact,verifier"],
         "methods lists an item twice: ('exact', 'exact', 'verifier')"),
        (["--nscr-sweep", "8,8"], "nscr_sweep lists an item twice: (8, 8)"),
    ])
    def test_repeated_list_item_is_a_configuration_error(self, fix_files, capsys, flags,
                                                         message):
        # A repeated method would print its table row twice and write each of
        # its query records twice; a repeated n_scr, its sweep entry twice.
        code = main(["bench", "--data", fix_files["fixC"], "--queries", fix_files["fixC_q"],
                     *flags])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"configuration error: {message}\n"

    def test_one_nn_rows_rejected_at_k_above_1(self, fix_files, capsys):
        # exact and qp-<m> certify the 1-NN classifier only, and the n_scr
        # sweep runs exact; a K=3 table must not list them as K=3 results.
        for flags in (["--methods", "qp-1,exact"], ["--methods", "verifier,qp"],
                      ["--nscr-sweep", "1,8"]):
            code = main(["bench", "--data", fix_files["fixC"], "--queries", fix_files["fixC_q"],
                         "--k", "3", *flags])
            assert code == 2, flags
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("configuration error:")
        assert main(["bench", "--data", fix_files["fixC"], "--queries", fix_files["fixC_q"],
                     "--k", "3", "--methods", "verifier,qp-greedy,naive-3,mean"]) == 0


class TestSampleQueries:
    @pytest.fixture
    def many(self, fix_files):
        """fixA with twelve queries: ten the 1-NN classifies right, two it does not."""
        path = fix_files["dir"] / "many_q.csv"
        xs = [-1.0, -0.8, -0.6, 2.5, -0.4, -0.2, 0.0, 0.2, 0.4, 2.9, 0.6, 0.8]
        path.write_text("".join(f"1,{x}\n" for x in xs))
        return cli.load_csv(fix_files["fixA"]), cli.load_queries(str(path)), str(path)

    def _sample(self, fix_files, many, **fields):
        ds, queries, path = many
        cfg = RunConfig(command="exact", data_path=fix_files["fixA"], query_path=path, **fields)
        return [index for index, _ in cli._sample_queries(ds, queries, cfg)]

    def test_all_correct_queries_when_the_sample_is_larger(self, fix_files, many):
        correct = [0, 1, 2, 4, 5, 6, 7, 8, 10, 11]
        assert self._sample(fix_files, many) == correct
        assert self._sample(fix_files, many, sample=10) == correct

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_seeded_subsample_in_index_order(self, fix_files, many, seed):
        correct = [0, 1, 2, 4, 5, 6, 7, 8, 10, 11]
        chosen = self._sample(fix_files, many, sample=4, seed=seed)
        assert len(chosen) == 4 and chosen == sorted(chosen)
        assert set(chosen) <= set(correct)
        picks = np.random.default_rng(seed).choice(len(correct), size=4, replace=False)
        assert chosen == [correct[i] for i in sorted(picks)]
        assert self._sample(fix_files, many, sample=4, seed=seed) == chosen

    def test_subsample_depends_on_the_seed(self, fix_files, many):
        samples = {tuple(self._sample(fix_files, many, sample=4, seed=seed))
                   for seed in range(5)}
        assert len(samples) > 1

    def test_report_lists_the_subsample(self, fix_files, many, capsys):
        _, _, path = many
        assert main(["exact", "--data", fix_files["fixA"], "--queries", path, "--sample", "3",
                     "--seed", "2", "--output", fix_files["out"]]) == 0
        report = json.loads(Path(fix_files["out"]).read_text())
        indices = [record["query_index"] for record in report["queries"]]
        assert indices == self._sample(fix_files, many, sample=3, seed=2)
        assert report["aggregates"]["count"] == 3
