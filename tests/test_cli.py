import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from knnrobust import CertificationError, DataFormatError, Query, cli, exact_1nn_lp
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
    for name in ("fixA", "fixB", "fixC"):
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
                               method="naive", m=1))
        rec = report.queries[0]
        assert rec["epsilon"] == pytest.approx(1.0, abs=1e-6)
        assert rec["kind"] == "upper_bound"

    def test_exact_linf_norm(self, fix_files):
        report = run(RunConfig(command="exact", data_path=fix_files["fixB"],
                               query_path=fix_files["fixB_q"], norm="linf"))
        assert report.queries[0]["epsilon"] == pytest.approx(0.5, abs=1e-9)
        assert report.queries[0]["stats"]["solver_iterations"] > 0     # the LP's pivots

    def test_round_trip(self, fix_files):
        report = run(RunConfig(command="exact", data_path=fix_files["fixA"],
                               query_path=fix_files["fixA_q"]))
        payload = json.loads(report.to_json())
        again = RobustnessReport.from_dict(payload)
        assert again.to_json() == report.to_json()

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
            assert value == pytest.approx(1e-6, rel=1e-8)

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

    def test_io_error_exit_3(self, fix_files, capsys):
        code = main(["exact", "--data", str(fix_files["dir"] / "nope.csv"),
                     "--queries", fix_files["fixA_q"]])
        assert code == 3

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

    def test_even_k_verify_error(self, fix_files, capsys):
        code = main(["verify", "--data", fix_files["fixC"],
                     "--queries", fix_files["fixC_q"], "--k", "4"])
        assert code == 2

    def test_exact_k3_rejected(self, fix_files, capsys):
        code = main(["exact", "--data", fix_files["fixC"],
                     "--queries", fix_files["fixC_q"], "--k", "3"])
        assert code == 2


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
                     "--output-path", fix_files["out"], "--m", "2", "--n-scr", "3",
                     "--workers", "2", "--seed", "7",
                     "--sample", "5", "--repeats", "2", "--emit-deltas", "--omit-timing",
                     "--no-screening", "--no-sorting", "--has-header",
                     "--inflation", "1e-8", "--methods", "exact, verifier",
                     "--nscr-sweep", "1,8", "--table-csv", table])
        assert code == 0
        payload = json.loads(Path(fix_files["out"]).read_text())
        assert payload["config"] == _echo(
            command="bench", data_path=str(d / "hdr.csv"), query_path=str(d / "hdr_q.csv"),
            output_path=fix_files["out"], m=2, n_scr=3, workers=2, seed=7,
            sample=5, repeats=2, emit_deltas=True, omit_timing=True, screening=False,
            sorting=False, has_header=True, inflation=1e-8, methods=("exact", "verifier"),
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

    def test_short_spellings_and_defaults(self, fix_files, capsys):
        code = main(["attack", "--data", fix_files["fixC"], "--queries", fix_files["fixC_q"],
                     "--output", fix_files["out"], "--method", "mean", "--k", "3"])
        assert code == 0
        payload = json.loads(Path(fix_files["out"]).read_text())
        assert payload["config"] == _echo(
            command="attack", data_path=fix_files["fixC"], query_path=fix_files["fixC_q"],
            output_path=fix_files["out"], method="mean", k=3,
        )

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
        # method names and zero counts: all are rejected before any data is
        # loaded.
        def no_loading(*args):
            raise AssertionError("data loaded before the configuration was checked")

        monkeypatch.setattr(cli, "load_csv", no_loading)
        for flags in (["--nscr-sweep", "x"], ["--nscr-sweep", ""], ["--nscr-sweep", "0"],
                      ["--methods", ""], ["--methods", "exact,,verifier"],
                      ["--methods", "exact,bogus"], ["--methods", "qp-0"],
                      ["--methods", "naive-0"]):
            code = main(["bench", "--data", fix_files["fixA"], "--queries", fix_files["fixA_q"],
                         *flags])
            assert code == 2, flags
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("configuration error:")
            assert "usage:" not in err

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
