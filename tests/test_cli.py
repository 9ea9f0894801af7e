"""Command-line front end: config layering, manifests, reruns, exit codes."""
import json
import math
import warnings

import numpy as np
import pytest

from fso_linklab import (
    BlockageConfig,
    MalagaParams,
    gk_cdf,
    malaga_blockage_pdf,
    SnrPoint,
    mixture_weights,
    outage_curve,
    outage_exact,
    required_gamma_n,
)
from fso_linklab.cli import main


def run(*argv):
    return main(list(argv))


def read_output(path):
    lines = path.read_text().splitlines()
    manifest = json.loads(lines[0][2:])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return manifest, header, rows


class TestPdfCommand:
    def test_writes_manifest_and_values(self, tmp_path):
        assert run("pdf", "--preset", "paper-figures", "--out-dir",
                   str(tmp_path), "--grid-lo", "0.5", "--grid-hi", "1.0",
                   "--grid-points", "3") == 0
        manifest, header, rows = read_output(tmp_path / "pdf.csv")
        assert manifest["subcommand"] == "pdf"
        assert manifest["outputs"] == ["pdf.csv"]
        assert header == ["x", "value"]
        assert len(rows) == 3
        ex = mixture_weights(
            MalagaParams(alpha=4.2, beta=3.0, rho=0.75, omega=0.2, xi=1.0))
        expect = malaga_blockage_pdf(0.75, ex, BlockageConfig(p_b=0.0))
        assert float(rows[1][1]) == pytest.approx(expect, rel=1e-12)

    def test_full_coupling_routes_to_degenerate_law(self, tmp_path):
        assert run("cdf", "--preset", "paper-figures", "--rho", "1.0",
                   "--p-b", "0.2", "--out-dir", str(tmp_path),
                   "--grid-lo", "0.5", "--grid-hi", "1.0",
                   "--grid-points", "2") == 0
        _, _, rows = read_output(tmp_path / "cdf.csv")
        expect = 0.2 + 0.8 * gk_cdf(0.5, 4.2, 3.0, 1.0)
        assert float(rows[0][1]) == pytest.approx(expect, rel=1e-12)

    def test_full_coupling_pdf_notes_the_atom(self, tmp_path):
        assert run("pdf", "--preset", "paper-figures", "--rho", "1.0",
                   "--p-b", "0.2", "--out-dir", str(tmp_path),
                   "--grid-points", "2") == 0
        manifest, _, _ = read_output(tmp_path / "pdf.csv")
        assert manifest["atom_at_zero"] == 0.2

    @pytest.mark.parametrize("flags, first", [
        ((), "0.0,inf"),
        (("--rho", "1.0", "--p-b", "1.0"), "0.0,0.0"),
    ], ids=["pb0", "rho1-pb1"])
    def test_density_at_the_origin_is_not_nan(self, flags, first, tmp_path):
        # alpha <= 1: the branch of zero weight is infinite at x = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("pdf", "--preset", "paper-figures", "--alpha", "0.8", *flags,
                       "--grid-lo", "0", "--grid-hi", "1", "--grid-points", "3",
                       "--out-dir", str(tmp_path)) == 0
        lines = (tmp_path / "pdf.csv").read_text().splitlines()
        assert lines[2] == first
        assert "nan" not in "".join(lines[2:])


    def test_huge_grid_end_exits_zero(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("pdf", "--preset", "paper-figures", "--grid-lo", "1",
                       "--grid-hi", "1e307", "--grid-points", "2",
                       "--out-dir", str(tmp_path)) == 0
        _, _, rows = read_output(tmp_path / "pdf.csv")
        assert float(rows[1][1]) == 0.0

class TestConfigLayering:
    def test_file_overrides_preset_and_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": 0.5, "p_b": 0.25}))
        assert run("pdf", "--preset", "paper-figures", "--config", str(cfg),
                   "--rho", "0.2", "--out-dir", str(tmp_path),
                   "--grid-points", "2") == 0
        manifest, _, _ = read_output(tmp_path / "pdf.csv")
        assert manifest["resolved"]["rho"] == 0.2   # flag wins
        assert manifest["resolved"]["p_b"] == 0.25  # file beats preset
        assert manifest["resolved"]["alpha"] == 4.2  # preset survives

    def test_unknown_preset_is_a_config_error(self, tmp_path, capsys):
        assert run("pdf", "--preset", "nope", "--out-dir", str(tmp_path)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    def test_unknown_config_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 4.2, "bogus": 1}))
        assert run("pdf", "--config", str(cfg), "--out-dir", str(tmp_path)) == 2
        assert "bogus" in json.loads(capsys.readouterr().err)["message"]

    def test_malformed_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run("pdf", "--config", str(cfg), "--out-dir", str(tmp_path)) == 2

    def test_missing_parameters(self, tmp_path, capsys):
        assert run("pdf", "--alpha", "4.2", "--out-dir", str(tmp_path)) == 2
        msg = json.loads(capsys.readouterr().err)["message"]
        assert "beta" in msg and "rho" in msg

    @pytest.mark.parametrize("command, preset, values", [
        ("pdf", "paper-figures", {"alpha": "abc"}),
        ("pdf", "paper-figures", {"alpha": "4.2"}),
        ("pdf", "paper-figures", {"normalize": "false"}),
        ("mc", "paper-figures", {"p_b": None}),
        ("beam", "beam-moderate", {"f0": [1]}),
        ("beam", "beam-moderate", {"f0": "abc"}),
        ("beam", "beam-moderate", {"obstacle_d": True}),
    ], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
    def test_config_value_of_the_wrong_type(self, command, preset, values,
                                            tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "out"
        assert run(command, "--preset", preset, "--config", str(cfg),
                   "--out-dir", str(out)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert next(iter(values)) in err["message"]
        assert list(out.iterdir()) == []

    def test_rerun_checks_the_manifest_types(self, tmp_path, capsys):
        assert run("pdf", "--preset", "paper-figures", "--grid-points", "2",
                   "--out-dir", str(tmp_path)) == 0
        path = tmp_path / "pdf.csv"
        manifest, _, _ = read_output(path)
        manifest["resolved"]["alpha"] = "abc"
        path.write_text("# " + json.dumps(manifest) + "\n")
        assert run("rerun", str(path), "--out-dir", str(tmp_path / "b")) == 2
        assert "alpha" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("key, value", [
        ("samples", "1e3"), ("gamma_db_list", ["abc"]), ("gof_alpha", "x"), ("bins", 6.5),
    ])
    def test_rerun_checks_the_run_key_types(self, key, value, tmp_path, capsys):
        # each exited 1 with a traceback, and bins = 6.5 ran with 6 bins
        assert run("mc", "--preset", "paper-figures", "--samples", "2000",
                   "--seed", "5", "--gof-alpha", "1e-9", "--out-dir", str(tmp_path)) == 0
        path = tmp_path / "mc.csv"
        lines = path.read_text().splitlines()
        manifest = json.loads(lines[0][2:])
        manifest["resolved"][key] = value
        path.write_text("# " + json.dumps(manifest) + "\n" + "\n".join(lines[1:]) + "\n")
        out = tmp_path / "b"
        assert run("rerun", str(path), "--out-dir", str(out)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and key in err["message"]
        assert list(out.iterdir()) == []


class TestExitCodes:
    def test_accuracy_failure_is_exit_3(self, tmp_path, capsys):
        code = run("mgf", "--preset", "paper-figures", "--rel-tol", "1e-16",
                   "--out-dir", str(tmp_path), "--grid-lo", "1e2",
                   "--grid-hi", "1e6", "--grid-points", "3")
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "accuracy"

    def test_pdf_budget_below_rounding_is_exit_3(self, tmp_path, capsys):
        # the density takes --rel-tol like the cdf and the transform
        code = run("pdf", "--preset", "paper-figures", "--rel-tol", "1e-16",
                   "--out-dir", str(tmp_path), "--grid-points", "3")
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "accuracy"
        assert not (tmp_path / "pdf.csv").exists()

    def test_gof_rejection_is_exit_4(self, tmp_path, capsys):
        code = run("mc", "--preset", "paper-figures", "--samples", "20000",
                   "--seed", "3", "--gof-alpha", "0.999999",
                   "--out-dir", str(tmp_path))
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "gof"
        # outputs are still written so the failure can be inspected
        summary = json.loads((tmp_path / "mc_summary.json").read_text())
        assert summary["gof"]["verdict"] == "FAIL"

    @pytest.mark.parametrize("alpha", ["nan", "2", "0"])
    def test_gof_level_outside_the_unit_interval_is_config_error(self, alpha, tmp_path,
                                                                 capsys):
        assert run("mc", "--preset", "paper-figures", "--samples", "1000",
                   "--gof-alpha", alpha, "--out-dir", str(tmp_path)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "gof_alpha" in err["message"]
        assert list(tmp_path.iterdir()) == []

    def test_usage_error_from_argparse(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("pdf", "--grid-scale", "cubic", "--out-dir", str(tmp_path))
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["pdf", "--preset", "paper-figures", "--alpha", "nan"],
        ["cdf", "--preset", "paper-figures", "--xi", "nan"],
        ["cdf", "--preset", "paper-figures", "--omega", "inf"],
        ["cdf", "--preset", "paper-figures", "--beta", "inf"],
        ["cdf", "--preset", "paper-figures", "--grid-hi", "inf"],
        ["mc", "--preset", "paper-figures", "--samples", "1000", "--alpha", "nan"],
        ["mc", "--preset", "paper-figures", "--samples", "1000", "--gamma-db-list", "20", "nan"],
        ["mc", "--preset", "paper-figures", "--samples", "1000", "--range-hi", "inf"],
        # a finite dB value whose SNR overflows a double
        ["outage", "--preset", "paper-figures", "--db-points", "2", "--db-hi", "5000"],
        ["mc", "--preset", "paper-figures", "--samples", "1000", "--gamma-db-list", "4000"],
        # a sweep that fails on a later rho leaves no earlier file behind
        ["outage", "--preset", "paper-figures", "--db-points", "3", "--rho-list", "0.5", "nan"],
        ["beam", "--preset", "beam-moderate", "--w0", "nan"],
        ["beam", "--preset", "beam-moderate", "--f0", "nan"],
    ], ids=" ".join)
    def test_non_finite_input_is_config_error(self, argv, tmp_path, capsys):
        assert run(*argv, "--out-dir", str(tmp_path)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert argv[-1] in err["message"]  # the message names the bad value
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["figure", "fig3a", "--stem", "foo"],
        ["beam", "--preset", "beam-moderate", "--rel-tol", "1e-9"],
    ], ids=" ".join)
    def test_flags_the_executor_ignores_are_not_offered(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out-dir", str(tmp_path))
        assert exc.value.code == 2

    def test_manifests_holding_the_dropped_flags_still_rerun(self, tmp_path):
        for argv, name, key, value in (
                (["figure", "fig2b"], "fig2b_moderate.csv", "stem", "foo"),
                (["beam", "--preset", "beam-moderate", "--length-points", "3"],
                 "beam.csv", "rel_tol", 1e-9)):
            first, again = tmp_path / key, tmp_path / f"again_{key}"
            assert run(*argv, "--out-dir", str(first)) == 0
            manifest, header, rows = read_output(first / name)
            manifest["resolved"][key] = value
            old = tmp_path / f"old_{name}"
            old.write_text("# " + json.dumps(manifest) + "\n")
            assert run("rerun", str(old), "--out-dir", str(again)) == 0
            assert read_output(again / name)[1:] == (header, rows)


class TestOutage:
    def test_sweep_writes_one_file_per_combination(self, tmp_path):
        assert run("outage", "--preset", "paper-figures",
                   "--rho-list", "0.5", "0.75", "--p-b-list", "0.0", "0.1",
                   "--db-lo", "20", "--db-hi", "40", "--db-points", "3",
                   "--out-dir", str(tmp_path)) == 0
        files = sorted(p.name for p in tmp_path.glob("outage_*.csv"))
        assert len(files) == 4
        manifest, header, rows = read_output(tmp_path / files[0])
        assert header == ["gamma_n_db", "p_out_exact", "p_out_asymptotic"]
        assert set(manifest["outputs"]) == set(files)
        # each file holds the rows of its (rho, p_b) run on its own
        for rho in ("0.5", "0.75"):
            for p_b in ("0.0", "0.1"):
                single = tmp_path / f"single_{rho}_{p_b}"
                assert run("outage", "--preset", "paper-figures", "--rho", rho,
                           "--p-b", p_b, "--db-lo", "20", "--db-hi", "40",
                           "--db-points", "3", "--out-dir", str(single)) == 0
                assert (read_output(tmp_path / f"outage_rho{rho}_pb{p_b}.csv")[1:]
                        == read_output(single / "outage.csv")[1:])

    def test_real_beta_sweep_equals_single_rho_runs(self, tmp_path):
        # 22 and 74 branches at rho 0.3 and 0.75: one call pads the shorter
        assert run("outage", "--preset", "paper-figures", "--beta", "2.5",
                   "--rho-list", "0.3", "0.75", "--p-b-list", "0", "0.1",
                   "--out-dir", str(tmp_path)) == 0
        for rho in ("0.3", "0.75"):
            for p_b in ("0", "0.1"):
                single = tmp_path / f"single_{rho}_{p_b}"
                assert run("outage", "--preset", "paper-figures", "--beta", "2.5",
                           "--rho", rho, "--p-b", p_b, "--out-dir", str(single)) == 0
                swept = tmp_path / f"outage_rho{float(rho)!r}_pb{float(p_b)!r}.csv"
                # every byte after the manifest line
                assert (swept.read_bytes().split(b"\n", 1)[1]
                        == (single / "outage.csv").read_bytes().split(b"\n", 1)[1])

    def test_real_beta_rows_match_pointwise_outage(self, tmp_path):
        # 74 branches; the 1.3 dB row is where np.power would move x an ulp
        assert run("outage", "--preset", "paper-figures", "--beta", "2.5",
                   "--p-b", "0.01", "--db-lo", "0.3", "--db-hi", "8.3",
                   "--db-points", "9", "--out-dir", str(tmp_path)) == 0
        _, _, rows = read_output(tmp_path / "outage.csv")
        ex = mixture_weights(
            MalagaParams(alpha=4.2, beta=2.5, rho=0.75, omega=0.2, xi=1.0))
        bl = BlockageConfig(p_b=0.01)
        dbs = np.linspace(0.3, 8.3, 9).tolist()
        assert 1.3 in dbs
        want = []
        for db in dbs:
            res = outage_exact(SnrPoint(gamma0=10.0 ** (db / 10.0)), ex, bl)
            want.append([repr(db), repr(res.exact), repr(res.asymptotic)])
        assert rows == want

    def test_exact_mode_drops_asymptotic_column(self, tmp_path):
        assert run("outage", "--preset", "paper-figures", "--mode", "exact",
                   "--db-points", "2", "--out-dir", str(tmp_path)) == 0
        _, header, _ = read_output(tmp_path / "outage.csv")
        assert header == ["gamma_n_db", "p_out_exact"]

    def test_thread_cap_does_not_change_output(self, tmp_path, monkeypatch):
        args = ("outage", "--preset", "paper-figures", "--db-lo", "0",
                "--db-hi", "60", "--db-points", "13")
        monkeypatch.setenv("FSO_LINKLAB_THREADS", "1")
        assert run(*args, "--out-dir", str(tmp_path / "serial")) == 0
        monkeypatch.setenv("FSO_LINKLAB_THREADS", "4")
        assert run(*args, "--out-dir", str(tmp_path / "pooled")) == 0
        serial = (tmp_path / "serial" / "outage.csv").read_bytes()
        pooled = (tmp_path / "pooled" / "outage.csv").read_bytes()
        assert serial == pooled

    def test_bad_thread_env_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FSO_LINKLAB_THREADS", "many")
        assert run("outage", "--preset", "paper-figures", "--db-points", "2",
                   "--out-dir", str(tmp_path)) == 2
        # also on subcommands that never build a pool
        assert run("pdf", "--preset", "paper-figures", "--grid-points", "2",
                   "--out-dir", str(tmp_path)) == 2


class TestBeam:
    def test_columns_and_classification(self, tmp_path):
        assert run("beam", "--preset", "beam-moderate", "--out-dir",
                   str(tmp_path), "--length-lo", "800", "--length-hi", "1600",
                   "--length-points", "3") == 0
        _, header, rows = read_output(tmp_path / "beam.csv")
        assert header == ["length", "w", "w_e", "rho0", "d_b", "d_c",
                          "blockage_class"]
        by_length = {float(r[0]): r for r in rows}
        assert by_length[1600.0][6] == "los"
        assert 0.155 <= float(by_length[1600.0][4]) <= 0.17

    def test_no_obstacle_drops_class_column(self, tmp_path):
        assert run("beam", "--w0", "0.01", "--lambda", "1550e-9",
                   "--cn2", "1e-14", "--length", "1600",
                   "--length-points", "2", "--out-dir", str(tmp_path)) == 0
        _, header, _ = read_output(tmp_path / "beam.csv")
        assert "blockage_class" not in header


class TestFigures:
    def test_fig2b_emits_both_links(self, tmp_path):
        assert run("figure", "fig2b", "--out-dir", str(tmp_path)) == 0
        assert (tmp_path / "fig2b_moderate.csv").exists()
        assert (tmp_path / "fig2b_strong.csv").exists()

    def test_fig5b_emits_exact_and_asymptotic(self, tmp_path):
        assert run("figure", "fig5b", "--out-dir", str(tmp_path)) == 0
        _, header, rows = read_output(tmp_path / "fig5b_exact.csv")
        assert header[0] == "gamma_n_db" and len(header) == 6
        # always-blocked sits above unblocked by the branch-gain ratio
        # (about 36x for this channel), both decaying at diversity 1/2
        last = rows[-1]
        assert 10.0 * float(last[1]) < float(last[5]) < 100.0 * float(last[1])

    def test_fig5a_exact_is_the_ratio_of_scalar_inversions(self, tmp_path):
        assert run("figure", "fig5a", "--out-dir", str(tmp_path)) == 0
        _, header, rows = read_output(tmp_path / "fig5a_exact.csv")
        assert header == ["p_b", "rho_0.25", "rho_0.5", "rho_0.75",
                          "rho_0.9", "rho_0.99"]
        for col, name in enumerate(header[1:], start=1):
            ex = mixture_weights(MalagaParams(alpha=4.2, beta=3.0,
                                              rho=float(name[4:]),
                                              omega=0.2, xi=1.0))
            ref = required_gamma_n(1e-3, ex, BlockageConfig(p_b=0.0))
            for row in rows:
                need = required_gamma_n(1e-3, ex, BlockageConfig(p_b=float(row[0])))
                assert row[col] == repr(10.0 * math.log10(need / ref))

    def test_fig4_cells_are_single_channel_curves(self, tmp_path):
        assert run("figure", "fig4", "--out-dir", str(tmp_path)) == 0
        dbs = np.linspace(0.0, 80.0, 81).tolist()
        gamma_n = [10.0 ** (db / 10.0) for db in dbs]
        for pick, kind in enumerate(("exact", "asym")):
            _, header, rows = read_output(tmp_path / f"fig4_{kind}.csv")
            assert [row[0] for row in rows] == [repr(db) for db in dbs]
            assert len(header) == 1 + 2 * 6
            for col, name in enumerate(header[1:], start=1):
                rho, p_b = (float(v) for v in name[3:].split("_pb"))
                ex = mixture_weights(MalagaParams(alpha=4.2, beta=3.0, rho=rho,
                                                  omega=0.2, xi=1.0))
                want = outage_curve(gamma_n, ex, BlockageConfig(p_b=p_b))[pick]
                assert [row[col] for row in rows] == [repr(v) for v in want.tolist()]

    def test_fig6_cells_are_single_blockage_curves(self, tmp_path):
        assert run("figure", "fig6", "--out-dir", str(tmp_path)) == 0
        _, header, rows = read_output(tmp_path / "fig6.csv")
        cells = [name[1:].split("db_pb") for name in header[1:]]
        dbs = sorted({float(db) for db, _ in cells})
        assert dbs == [40.0, 80.0, 120.0]
        gamma_n = [10.0 ** (db / 10.0) for db in dbs]
        for row in rows:
            ex = mixture_weights(MalagaParams(alpha=4.2, beta=3.0,
                                              rho=float(row[0]),
                                              omega=0.2, xi=1.0))
            curves = {}
            for (db, p_b), cell in zip(cells, row[1:]):
                if p_b not in curves:
                    curves[p_b] = outage_curve(
                        gamma_n, ex, BlockageConfig(p_b=float(p_b)))[0].tolist()
                assert cell == repr(curves[p_b][dbs.index(float(db))])

    def test_unconverged_inversion_is_exit_3(self, tmp_path, monkeypatch, capsys):
        import fso_linklab.outage as outage
        monkeypatch.setattr(outage, "_BRENT_MAXITER", 3)
        assert run("figure", "fig5a", "--out-dir", str(tmp_path)) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "accuracy"

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("figure", "fig99", "--out-dir", str(tmp_path))
        assert exc.value.code == 2


class TestMc:
    def test_summary_content(self, tmp_path):
        assert run("mc", "--preset", "paper-figures", "--p-b", "0.1",
                   "--samples", "50000", "--seed", "7", "--with-analytic",
                   "--gamma-db-list", "20", "40",
                   "--out-dir", str(tmp_path)) == 0
        manifest, header, rows = read_output(tmp_path / "mc.csv")
        assert header == ["bin_lo", "bin_hi", "count", "density",
                          "analytic_density"]
        summary = json.loads((tmp_path / "mc_summary.json").read_text())
        assert summary["count"] == 50000
        assert summary["gof"]["verdict"] == "PASS"
        assert set(summary["outage"]) == {"100.0", "10000.0"}
        assert 0.8 < summary["mean"] < 1.0
        total = sum(int(r[2]) for r in rows)
        assert total + summary["underflow"] + summary["overflow"] == 50000

    def test_thread_cap_does_not_change_output(self, tmp_path, monkeypatch):
        # 2.2e6 samples make three chunks: one lane at 1 thread, three at 4
        args = ("mc", "--preset", "paper-figures", "--p-b", "0.1",
                "--samples", "2200000", "--seed", "12", "--with-analytic")
        outputs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("FSO_LINKLAB_THREADS", threads)
            first = tmp_path / threads / "first"
            again = tmp_path / threads / "rerun"
            assert run(*args, "--out-dir", str(first)) == 0
            assert run("rerun", str(first / "mc.csv"), "--out-dir", str(again)) == 0
            outputs += [tuple((d / name).read_bytes()
                              for name in ("mc.csv", "mc_summary.json"))
                        for d in (first, again)]
        assert all(o == outputs[0] for o in outputs)

    @pytest.mark.parametrize("seed", ["-1", str(1 << 128)])
    def test_seed_outside_the_philox_key_is_config_error(self, seed, tmp_path, capsys):
        assert run("mc", "--preset", "paper-figures", "--samples", "2000",
                   "--seed", seed, "--out-dir", str(tmp_path)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "seed" in err["message"]
        assert list(tmp_path.iterdir()) == []

    def test_full_coupling_is_refused(self, tmp_path, capsys):
        # an atom at zero does not fit the chi-square cell layout
        assert run("mc", "--preset", "paper-figures", "--rho", "1",
                   "--samples", "1000", "--out-dir", str(tmp_path)) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"


class TestRerun:
    def test_pdf_rerun_is_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert run("pdf", "--preset", "paper-figures", "--p-b", "0.3",
                   "--grid-points", "20", "--out-dir", str(first)) == 0
        assert run("rerun", str(first / "pdf.csv"),
                   "--out-dir", str(second)) == 0
        assert (first / "pdf.csv").read_bytes() == (second / "pdf.csv").read_bytes()

    def test_mc_rerun_is_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert run("mc", "--preset", "paper-figures", "--samples", "30000",
                   "--seed", "99", "--out-dir", str(first)) == 0
        assert run("rerun", str(first / "mc.csv"),
                   "--out-dir", str(second)) == 0
        assert (first / "mc.csv").read_bytes() == (second / "mc.csv").read_bytes()
        assert ((first / "mc_summary.json").read_bytes()
                == (second / "mc_summary.json").read_bytes())

    def test_rerun_rejects_files_without_manifest(self, tmp_path, capsys):
        plain = tmp_path / "plain.csv"
        plain.write_text("x,value\n1,2\n")
        assert run("rerun", str(plain), "--out-dir", str(tmp_path)) == 2

    def test_outputs_stay_inside_the_output_directory(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        outdir = tmp_path / "out"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert run("figure", "fig2b", "--out-dir", str(outdir)) == 0
        assert list(workdir.iterdir()) == []
        assert len(list(outdir.iterdir())) == 2


# paper-figures as every fading manifest records it
PAPER = {"alpha": 4.2, "beta": 3.0, "rho": 0.75, "omega": 0.2, "xi": 1.0,
         "delta_phi": 0.0, "normalize": True, "epsilon": 1e-08, "p_b": 0.0}
GRID = {"grid_lo": 0.001, "grid_hi": 5.0, "grid_scale": "linear"}

# (argv, the resolved block the manifest must hold, the outputs it names)
MANIFEST_CASES = {
    "pdf": (["pdf", "--preset", "paper-figures", "--p-b", "0.1", "--grid-points", "5"],
            {**PAPER, **GRID, "p_b": 0.1, "grid_points": 5}, ["pdf.csv"]),
    "cdf": (["cdf", "--preset", "paper-figures", "--beta", "2.5", "--grid-points", "5",
             "--stem", "c", "--rel-tol", "1e-10"],
            {**PAPER, **GRID, "beta": 2.5, "grid_points": 5, "stem": "c",
             "rel_tol": 1e-10}, ["c.csv"]),
    "mgf": (["mgf", "--preset", "paper-figures", "--rho", "1", "--p-b", "0.1",
             "--normalize", "false", "--grid-points", "4"],
            {**PAPER, "rho": 1.0, "p_b": 0.1, "normalize": False, "grid_lo": 0.01,
             "grid_hi": 1e6, "grid_points": 4, "grid_scale": "log"}, ["mgf.csv"]),
    "outage": (["outage", "--preset", "paper-figures", "--rho-list", "0.5", "0.75",
                "--p-b-list", "0", "0.1", "--mode", "exact", "--db-points", "5"],
               {**PAPER, "db_lo": 0.0, "db_hi": 80.0, "db_points": 5, "mode": "exact",
                "rho_list": [0.5, 0.75], "p_b_list": [0.0, 0.1]},
               ["outage_rho0.5_pb0.0.csv", "outage_rho0.5_pb0.1.csv",
                "outage_rho0.75_pb0.0.csv", "outage_rho0.75_pb0.1.csv"]),
    # a repeated sweep entry names one file, written and listed once
    "outage-repeated-rho": (["outage", "--preset", "paper-figures", "--rho-list", "0.5",
                             "0.5", "--db-points", "3"],
                            {**PAPER, "db_lo": 0.0, "db_hi": 80.0, "db_points": 3,
                             "mode": "both", "rho_list": [0.5, 0.5]},
                            ["outage_rho0.5_pb0.0.csv"]),
    "beam": (["beam", "--preset", "beam-moderate", "--lambda", "1e-6",
              "--length-points", "3"],
             {"w0": 0.01, "f0": "inf", "lambda": 1e-06, "cn2": 1e-14, "length": 1600.0,
              "obstacle_d": 0.16, "length_lo": 100.0, "length_hi": 2400.0,
              "length_points": 3}, ["beam.csv"]),
    "beam-length-default": (
        ["beam", "--w0", "0.01", "--lambda", "1e-6", "--cn2", "1e-14",
         "--length-points", "3"],
        {"w0": 0.01, "lambda": 1e-06, "cn2": 1e-14, "length": 100.0, "length_lo": 100.0,
         "length_hi": 2400.0, "length_points": 3}, ["beam.csv"]),
    "figure": (["figure", "fig3a"], {**PAPER, "figure": "fig3a"}, ["fig3a.csv"]),
    "mc": (["mc", "--preset", "paper-figures", "--p-b", "0.1", "--samples", "20000",
            "--seed", "7", "--with-analytic", "--gamma-db-list", "20"],
           {**PAPER, "p_b": 0.1, "samples": 20000, "seed": 7, "bins": 64,
            "range_lo": 0.0, "range_hi": 8.0, "gamma_db_list": [20.0],
            "gof_alpha": 0.01, "with_analytic": True}, ["mc.csv", "mc_summary.json"]),
}


def manifest_of(path):
    if path.suffix == ".csv":
        return read_output(path)[0]
    return json.loads(path.read_text())["manifest"]


@pytest.mark.parametrize("case", sorted(MANIFEST_CASES))
def test_manifest_pins_resolved_and_every_output_reruns(case, tmp_path):
    argv, resolved, outputs = MANIFEST_CASES[case]
    first = tmp_path / "first"
    assert run(*argv, "--out-dir", str(first)) == 0
    assert sorted(p.name for p in first.iterdir()) == sorted(outputs)
    for name in outputs:
        manifest = manifest_of(first / name)
        assert manifest["resolved"] == resolved
        assert manifest["outputs"] == outputs
        # every written file, the mc JSON summary included, replays them all
        again = tmp_path / f"rerun_{name}"
        assert run("rerun", str(first / name), "--out-dir", str(again)) == 0
        for out in outputs:
            assert (again / out).read_bytes() == (first / out).read_bytes(), (name, out)


def test_calls_in_one_process_share_the_parser_safely(tmp_path):
    # main parses with one parser per process; a usage error and an mc run
    # between two passes of every manifest case change no byte written
    def every_case(root):
        written = {}
        for case, (argv, resolved, outputs) in sorted(MANIFEST_CASES.items()):
            assert run(*argv, "--out-dir", str(root / case)) == 0
            for name in outputs:
                assert manifest_of(root / case / name)["resolved"] == resolved
                written[case, name] = (root / case / name).read_bytes()
        return written

    first = every_case(tmp_path / "first")
    with pytest.raises(SystemExit) as exc:
        run("outage", "--mode", "nope", "--out-dir", str(tmp_path / "usage"))
    assert exc.value.code == 2
    assert run("mc", "--preset", "paper-figures", "--samples", "20000",
               "--gamma-db-list", "20", "--out-dir", str(tmp_path / "mc")) == 0
    assert every_case(tmp_path / "second") == first


def test_parser_defaults_are_immutable():
    # a default is handed to every parse of the shared parser as it is
    import argparse

    from fso_linklab.cli import build_parser

    parser = build_parser()
    (subcommands,) = [a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
    for p in (parser, *subcommands.choices.values()):
        for action in p._actions:
            assert isinstance(action.default, (type(None), bool, int, float, str, tuple)), (
                p.prog, action.dest, action.default)
