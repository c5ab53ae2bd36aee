"""Tests for configuration, orchestration, manifests, and the CLI."""
import itertools
import json
import math
import multiprocessing
import re
from pathlib import Path

import numpy as np
import pytest

from randpoly import experiment
from randpoly.cli import main as cli_main
from randpoly.config import ConfigError, ExperimentConfig
from randpoly.records import RECORDS, REQUIRED
from randpoly.experiment import (
    PRESETS,
    RunManifest,
    _config_hash,
    BOOTSTRAP_STAGE,
    _correlation_bootstrap_ci,
    _percentiles,
    _summarize_table,
    preset_config,
    run,
    verify,
)
from randpoly.rng import stream
from randpoly.stats import (
    ReplicationTable,
    numeric_rank,
    standardize,
    w1_bootstrap_se,
    w1_to_normal,
)


def tiny_raw(**overrides):
    raw = {
        "name": "tiny",
        "body": {"kind": "ball", "dim": 2, "radius": 1.0},
        "t_grid": [40.0, 80.0, 160.0],
        "n_reps": 40,
        "functionals": [{"type": "multivariate"}, {"type": "oracle"}],
        "seed": 3,
    }
    raw.update(overrides)
    return raw


class TestConfigValidation:
    def test_minimal_ok(self):
        cfg = ExperimentConfig.from_dict(tiny_raw())
        assert cfg.t_grid == (40.0, 80.0, 160.0)
        assert cfg.n_reps == (40, 40, 40)

    def test_missing_key(self):
        raw = tiny_raw()
        del raw["body"]
        with pytest.raises(ConfigError, match="body"):
            ExperimentConfig.from_dict(raw)

    def test_t_grid_must_increase(self):
        with pytest.raises(ConfigError, match="t_grid"):
            ExperimentConfig.from_dict(tiny_raw(t_grid=[100.0, 50.0]))

    def test_n_reps_minimum(self):
        with pytest.raises(ConfigError, match="n_reps"):
            ExperimentConfig.from_dict(tiny_raw(n_reps=1))

    def test_n_reps_per_t(self):
        cfg = ExperimentConfig.from_dict(tiny_raw(n_reps=[10, 20, 30]))
        assert cfg.n_reps == (10, 20, 30)
        with pytest.raises(ConfigError, match="n_reps"):
            ExperimentConfig.from_dict(tiny_raw(n_reps=[10, 20]))

    def test_nonsmooth_body_needs_flag(self):
        raw = tiny_raw(body={"kind": "cube", "dim": 2, "side": 1.0})
        with pytest.raises(ConfigError, match="smooth"):
            ExperimentConfig.from_dict(raw)
        raw["allow_nonsmooth"] = True
        assert ExperimentConfig.from_dict(raw).allow_nonsmooth

    def test_valuation_gate_enforced(self):
        raw = tiny_raw(functionals=[
            {"type": "valuation", "label": "mixed", "coeffs": [0, 1, -1]}
        ])
        with pytest.raises(ConfigError, match="gate"):
            ExperimentConfig.from_dict(raw)
        raw["allow_non_clt"] = True
        with pytest.warns(UserWarning, match="coefficient gate"):
            ExperimentConfig.from_dict(raw)  # allowed, but flagged

    def test_exact_mode_needs_low_dimension(self):
        raw = tiny_raw(body={"kind": "ball", "dim": 4, "radius": 1.0})
        with pytest.raises(ConfigError, match="mode"):
            ExperimentConfig.from_dict(raw)
        raw["mode"] = "mc"
        ExperimentConfig.from_dict(raw)

    def test_exact_mode_in_dim_4_runs_face_counts_and_oracle(self, tmp_path):
        # exact intrinsic volumes stop at dimension 3; face counts and the
        # oracle do not, and they read the same in both modes
        raw = tiny_raw(body={"kind": "ball", "dim": 4, "radius": 1.0},
                       t_grid=[50.0, 100.0, 200.0], n_reps=6,
                       functionals=[{"type": "f", "j": j} for j in range(4)]
                       + [{"type": "oracle"}])
        tables = {}
        for mode in ("exact", "mc"):
            manifest = run(dict(raw, mode=mode), outdir=tmp_path / mode)
            path = tmp_path / mode / "tiny" / "manifest.json"
            assert verify(path, quiet=True)["ok"]
            tables[mode] = [Path(e["csv"]).read_bytes()
                            for e in manifest.tables]
        assert tables["exact"] == tables["mc"]
        for record in ({"type": "intrinsic", "j": 1}, {"type": "wills"},
                       {"type": "valuation", "label": "v",
                        "coeffs": [0, 1, 0, 0, 0]},
                       {"type": "multivariate"}):
            with pytest.raises(ConfigError, match="exactly in dim 4") as exc:
                ExperimentConfig.from_dict(dict(raw, functionals=[record]))
            assert exc.value.path == "mode"

    def test_malliavin_t_must_be_on_grid(self):
        raw = tiny_raw(malliavin={"t": 99.0, "functional": "V_2"})
        with pytest.raises(ConfigError, match="t_grid"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("block", [
        {"functional": "V_1"}, {"functional": "V2"}, {"functional": "oracle"},
        {"multivariate": True},
    ])
    def test_malliavin_columns_must_exist(self, block):
        raw = tiny_raw(functionals=[{"type": "intrinsic", "j": 2}],
                       malliavin={"t": 80.0, **block})
        with pytest.raises(ConfigError, match="no table column") as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == "malliavin.functional"

    def test_malliavin_exact_volumes_need_low_dimension(self):
        raw = tiny_raw(body={"kind": "ball", "dim": 4, "radius": 1.0},
                       mode="mc", malliavin={"t": 80.0, "functional": "V_2"})
        with pytest.raises(ConfigError, match="exactly in dim 4") as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == "malliavin.functional"
        for functional in ("f_1", "oracle"):
            raw["malliavin"]["functional"] = functional
            ExperimentConfig.from_dict(raw)

    def test_valuation_label_may_not_shadow_a_column(self):
        raw = tiny_raw(functionals=[
            {"type": "valuation", "label": "V_2", "coeffs": [0, 1, 0]},
            {"type": "multivariate"},
        ])
        with pytest.raises(ConfigError, match="built-in column"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("command", ["run", "taus"])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_override_checked(self, tmp_path, capsys, command,
                                      workers):
        # both used to run quietly in one process
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw(
            t_grid=[60.0], n_reps=20,
            malliavin={"t": 60.0, "functional": "V_2", "n_outer": 4,
                       "n_inner": 4, "sampling": "plain"})))
        out = tmp_path / "out"
        argv = [command, str(cfg_path), "--out", str(out),
                "--workers", workers]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert "configuration error: workers: must be >= 1" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("label", [
        "half,perimeter", "half\nperimeter", "half_perimeter "])
    def test_valuation_label_must_fit_a_table_header(self, label):
        raw = tiny_raw(functionals=[
            {"type": "multivariate"},
            {"type": "valuation", "label": label, "coeffs": [0, 0.5, 0]},
        ])
        with pytest.raises(ConfigError, match="cannot head a table") as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == "functionals"
        assert "functionals[1]" in exc.value.message

    def test_repeated_valuation_label(self):
        raw = tiny_raw(functionals=[
            {"type": "valuation", "label": "a", "coeffs": [0, 1, 0]},
            {"type": "valuation", "label": "a", "coeffs": [0, 0, 1]},
        ])
        with pytest.raises(ConfigError, match="repeats with other"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("kind", ["intrinsic", "f"])
    def test_functional_without_index(self, kind):
        raw = tiny_raw(functionals=[{"type": "multivariate"}, {"type": kind}])
        with pytest.raises(ConfigError, match=r"functionals\[1\]") as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == "functionals"

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key") as exc:
            ExperimentConfig.from_dict(tiny_raw(n_dir=16))
        assert exc.value.path == "n_dir"

    def test_unknown_malliavin_key(self):
        raw = tiny_raw(malliavin={"t": 80.0, "functional": "V_2",
                                  "n_outter": 50})
        with pytest.raises(ConfigError, match="unknown key") as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == "malliavin.n_outter"

    @pytest.mark.parametrize("override, path", [
        ({"workers": [2]}, "workers"),
        ({"functionals": [{"type": "intrinsic", "j": None}]},
         "functionals[0].j"),
        ({"malliavin": [1]}, "malliavin"),
        ({"t_grid": "123"}, "t_grid"),
        ({"t_grid": [40.0, math.nan, 160.0]}, "t_grid[1]"),
        ({"t_grid": [40.0, 80.0, math.inf]}, "t_grid[2]"),
        ({"t_grid": [40.0, 80.0, 10**400]}, "t_grid[2]"),
        ({"functionals": [{"type": "valuation", "label": "a",
                           "coeffs": "012"}]}, "functionals[0].coeffs"),
        ({"functionals": [{"type": "valuation", "label": "a",
                           "coeffs": [0, True, 1]}]},
         "functionals[0].coeffs[1]"),
        ({"functionals": [{"type": "valuation", "label": 5,
                           "coeffs": [0, 1, 1]}]}, "functionals[0].label"),
        ({"body": {"kind": "ball", "dim": 2, "radius": True}}, "body.radius"),
        ({"body": {"kind": "ball", "dim": 2, "radius": "2"}}, "body.radius"),
        ({"body": {"kind": "ball", "dim": 2, "radius": math.nan}},
         "body.radius"),
        ({"malliavin": {"t": 80.0, "functional": "V_2", "c": math.nan}},
         "malliavin.c"),
        ({"seed": -1}, "seed"),  # a valid int, but no seed of the rng
        ({"outputs": 5}, "outputs"),
        # out of range, reported where they always were
        ({"t_grid": [40.0, -1.0, 160.0]}, "t_grid"),
        ({"n_reps": 1}, "n_reps[0]"),
        ({"body": {"kind": "ball", "dim": 2, "radius": -1.0}}, "body"),
    ], ids=["workers", "j", "malliavin", "t_grid_string", "t_grid_nan",
            "t_grid_inf", "t_grid_huge", "coeffs_string", "coeffs_bool", "label",
            "radius_bool", "radius_string", "radius_nan", "c_nan",
            "seed_negative", "outputs", "t_grid_negative", "n_reps_one",
            "radius_negative"])
    def test_wrong_json_type(self, override, path):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(tiny_raw(**override))
        assert exc.value.path == path

    @pytest.mark.parametrize("override, path", [
        ({"functionals": [{"type": "intrinsic", "j": 1.5}]},
         "functionals[0].j"),
        ({"n_reps": 2.9}, "n_reps"),
        ({"n_reps": [10, 20.5, 30]}, "n_reps[1]"),
        ({"workers": True}, "workers"),
        ({"seed": 1.5}, "seed"),
        ({"n_dirs": 100.5}, "n_dirs"),
        ({"malliavin": {"t": 80.0, "functional": "V_2", "n_outer": 50.5}},
         "malliavin.n_outer"),
        ({"malliavin": {"t": 80.0, "functional": "V_2", "n_inner": True}},
         "malliavin.n_inner"),
        ({"body": {"kind": "ball", "dim": 2.5}}, "body.dim"),
        ({"functionals": [{"type": "intrinsic", "j": "1"}]},
         "functionals[0].j"),
        ({"n_reps": "456"}, "n_reps"),
    ], ids=["j", "n_reps", "n_reps_list", "workers", "seed", "n_dirs",
            "n_outer", "n_inner", "dim", "j_string", "n_reps_string"])
    def test_non_integral_int(self, override, path):
        # int() would truncate these, or read a bool as 0 or 1
        with pytest.raises(ConfigError, match="expected int") as exc:
            ExperimentConfig.from_dict(tiny_raw(**override))
        assert exc.value.path == path

    def test_integral_float_is_an_int(self):
        cfg = ExperimentConfig.from_dict(tiny_raw(n_reps=40.0, seed=3.0))
        assert cfg.n_reps == (40, 40, 40) and cfg.seed == 3

    @pytest.mark.parametrize("override", [
        {"body": {"kind": ["ball"], "dim": 2}},
        {"functionals": [{"type": ["f"], "j": 1}]},
    ], ids=["body", "functional"])
    def test_kind_of_wrong_type(self, override):
        with pytest.raises(ConfigError, match=r"unknown (body kind|type) \["):
            ExperimentConfig.from_dict(tiny_raw(**override))

    def test_unknown_body_key(self):
        raw = tiny_raw(body={"kind": "ball", "dim": 2, "raduis": 3.0})
        with pytest.raises(ConfigError, match="'raduis'.*known: kind, dim, "
                                              "radius, center") as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == "body"

    def test_unknown_functional_key(self):
        raw = tiny_raw(functionals=[{"type": "f", "j": 1, "jj": 0}])
        with pytest.raises(ConfigError, match=r"functionals\[0\]: unknown "
                                              "key 'jj'.*known: type, j"):
            ExperimentConfig.from_dict(raw)

    ELLIPSE = {"kind": "ellipsoid", "dim": 2, "semi_axes": [1.0, 2.0]}

    @pytest.mark.parametrize("override, block, path", [
        ({"body": ELLIPSE}, {}, "malliavin.sampling"),
        ({"t_grid": [1.0, 80.0]}, {"t": 1.0}, "malliavin.t"),
        ({}, {"c": 100.0}, "malliavin.c"),
    ], ids=["ellipsoid", "t", "c"])
    def test_boundary_shell_checked_at_parse(self, override, block, path):
        # the shell sampler would raise only after every table is written
        raw = tiny_raw(**override, malliavin={"t": 80.0, "functional": "V_2",
                                              **block})
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(raw)
        assert exc.value.path == path
        raw["malliavin"]["sampling"] = "plain"
        assert ExperimentConfig.from_dict(raw).malliavin.sampling == "plain"

    @pytest.mark.parametrize("override, path", [
        ({"allow_nonsmooth": "false"}, "allow_nonsmooth"),
        ({"allow_non_clt": 0}, "allow_non_clt"),
        ({"malliavin": {"t": 80.0, "multivariate": "false"}},
         "malliavin.multivariate"),
    ], ids=["allow_nonsmooth", "allow_non_clt", "multivariate"])
    def test_boolean_keys_take_booleans_only(self, override, path):
        # bool("false") is True
        with pytest.raises(ConfigError, match="expected true or false") as exc:
            ExperimentConfig.from_dict(tiny_raw(**override))
        assert exc.value.path == path

    def test_readme_table_mirrors_records(self):
        """Each field of RECORDS has a row in the README's key table, its
        record and kind named in the first cell, and each row is a field."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        lines = readme.split("| Record | Key | Type | Default | Range |\n")[1]
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in itertools.takewhile(
                    lambda line: line.startswith("|"),
                    lines.splitlines()[1:])]
        fields = []
        for record, table in RECORDS.items():
            kinded = isinstance(next(iter(table.values())), dict)
            for kind, keys in table.items() if kinded else [(record, table)]:
                for key, f in keys.items():
                    default = (f.default if f.default is REQUIRED
                               else f"`{json.dumps(f.default)}`")
                    fields.append(({record, kind},
                                   [f"`{key}`", f.type, default, f.range]))

        def same(names, cells, row):
            return (row[1:] == cells
                    and names <= set(re.findall(r"\w+", row[0])))
        for names, cells in fields:
            assert any(same(names, cells, row) for row in rows), cells
        for row in rows:
            assert any(same(*field, row) for field in fields), row

    def test_file_errors_carry_path(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="bad.json"):
            ExperimentConfig.from_file(p)
        p2 = tmp_path / "invalid.json"
        p2.write_text(json.dumps(tiny_raw(t_grid=[2.0, 1.0])))
        with pytest.raises(ConfigError, match="invalid.json:t_grid"):
            ExperimentConfig.from_file(p2)


class TestRunAndManifest:
    def test_run_writes_everything(self, tmp_path):
        manifest = run(tiny_raw(), outdir=tmp_path)
        assert manifest.status == "completed"
        out = tmp_path / "tiny"
        assert (out / "manifest.json").exists()
        assert (out / "report.json").exists()
        assert (out / "plots" / "variance_vs_t.csv").exists()
        assert (out / "plots" / "w1_vs_t.csv").exists()
        assert len(manifest.tables) == 3
        for entry in manifest.tables:
            assert Path(entry["csv"]).exists()
            assert Path(entry["meta"]).exists()

    def test_rate_fits_emitted(self, tmp_path):
        run(tiny_raw(), outdir=tmp_path)
        report = json.loads((tmp_path / "tiny" / "report.json").read_text())
        assert "rate_fits" in report
        assert "slope" in report["rate_fits"]["V_2"]

    def test_rerun_identical_tables(self, tmp_path):
        m1 = run(tiny_raw(), outdir=tmp_path / "a")
        m2 = run(tiny_raw(), outdir=tmp_path / "b", workers=4)
        for e1, e2 in zip(m1.tables, m2.tables):
            assert Path(e1["csv"]).read_bytes() == Path(e2["csv"]).read_bytes()
            assert e1["sha256"] == e2["sha256"]

    def test_verify_clean_run(self, tmp_path):
        run(tiny_raw(), outdir=tmp_path)
        result = verify(tmp_path / "tiny" / "manifest.json", quiet=True)
        assert result["ok"]

    def test_verify_detects_tampering(self, tmp_path):
        run(tiny_raw(), outdir=tmp_path)
        csv = tmp_path / "tiny" / "table_t0.csv"
        lines = csv.read_text().splitlines()
        fields = lines[1].split(",")
        fields[1] = "9.9"
        lines[1] = ",".join(fields)
        csv.write_text("\n".join(lines) + "\n")
        result = verify(tmp_path / "tiny" / "manifest.json", quiet=True)
        assert not result["ok"]
        assert any("checksum" in c["name"] and not c["passed"]
                   for c in result["checks"])

    @pytest.mark.parametrize("key", ["rate_fits", "oracle_variance_ratio"])
    def test_verify_detects_deleted_report_block(self, tmp_path, key):
        run(tiny_raw(), outdir=tmp_path)
        path = tmp_path / "tiny" / "report.json"
        report = json.loads(path.read_text())
        del report[key]
        path.write_text(json.dumps(report))
        result = verify(tmp_path / "tiny" / "manifest.json", quiet=True)
        assert not result["ok"]
        failed = [c for c in result["checks"] if not c["passed"]]
        assert len(failed) == 1 and key in failed[0]["detail"]
        assert failed[0]["name"] == "report reproducible from tables"

    @pytest.mark.parametrize("how", ["file", "entry"])
    def test_verify_fails_without_report(self, tmp_path, how):
        run("smoke", outdir=tmp_path)
        path = tmp_path / "smoke" / "manifest.json"
        if how == "file":
            (tmp_path / "smoke" / "report.json").unlink()
        else:
            stored = json.loads(path.read_text())
            del stored["reports"]["report"]
            path.write_text(json.dumps(stored))
        result = verify(path, quiet=True)
        assert not result["ok"]
        failed = [c["name"] for c in result["checks"] if not c["passed"]]
        # the preset's assertion still runs, on an empty report
        assert failed == ["report exists", "assertion mean_close"]

    def test_verify_walks_only_unequal_keys(self, tmp_path, monkeypatch):
        run(tiny_raw(), outdir=tmp_path)
        walked = []
        compare = experiment._deep_compare
        monkeypatch.setattr(experiment, "_deep_compare",
                            lambda a, b, path="": walked.append(path)
                            or compare(a, b, path))
        path = tmp_path / "tiny" / "report.json"
        assert verify(path.with_name("manifest.json"), quiet=True)["ok"]
        assert walked == []
        report = json.loads(path.read_text())
        report["rate_fits"]["V_2"]["slope"] *= 1.0 + 1e-15
        path.write_text(json.dumps(report))
        assert verify(path.with_name("manifest.json"), quiet=True)["ok"]
        assert walked[0] == "rate_fits"

    def test_manifest_round_trip(self, tmp_path):
        run(tiny_raw(t_grid=[30.0], n_reps=10), outdir=tmp_path)
        path = tmp_path / "tiny" / "manifest.json"
        stored = json.loads(path.read_text())
        assert RunManifest.from_file(path).to_dict() == stored
        assert set(stored) == {"config", "config_hash", "version", "status",
                               "wall_seconds", "seeds", "tables", "reports",
                               "preset", "error"}

    @pytest.mark.parametrize("workers, message", [
        (0, "must be >= 1"), (-2, "must be >= 1"),
        (1.5, "expected int, not 1.5"), (True, "expected int, not True")])
    def test_workers_argument_checked(self, tmp_path, workers, message):
        # 0 and negative counts used to run quietly in one process
        expected = re.escape(f"workers: {message}")
        with pytest.raises(ConfigError, match=expected):
            run(tiny_raw(), outdir=tmp_path, workers=workers)
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_preserves_manifest(self, tmp_path, monkeypatch):
        import randpoly.experiment as exp

        def boom(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(exp, "_write_plot_data", boom)
        with pytest.raises(RuntimeError, match="injected"):
            run(tiny_raw(), outdir=tmp_path)
        manifest = json.loads(
            (tmp_path / "tiny" / "manifest.json").read_text()
        )
        assert manifest["status"] == "failed"
        assert "injected" in manifest["error"]

    def test_malliavin_block_report(self, tmp_path):
        raw = tiny_raw(
            t_grid=[60.0], n_reps=300,
            malliavin={"t": 60.0, "functional": "V_2", "n_outer": 60,
                       "n_inner": 4, "sampling": "boundary_shell", "c": 2.0},
        )
        run(raw, outdir=tmp_path)
        report = json.loads((tmp_path / "tiny" / "report.json").read_text())
        ms = report["malliavin_stein"]
        assert ms["bound"] >= 0 and "tau3" in ms and "se" in ms

    @pytest.mark.parametrize("functional", ["oracle", "perimeter"])
    def test_malliavin_bound_for_any_column(self, tmp_path, functional):
        raw = tiny_raw(
            t_grid=[60.0], n_reps=100,
            functionals=[{"type": "oracle"}, {"type": "valuation",
                          "label": "perimeter", "coeffs": [0, 2, 0]}],
            malliavin={"t": 60.0, "functional": functional, "n_outer": 20,
                       "n_inner": 4, "sampling": "boundary_shell"},
        )
        run(raw, outdir=tmp_path)
        report = json.loads((tmp_path / "tiny" / "report.json").read_text())
        ms = report["malliavin_stein"]
        assert ms["functional"] == functional
        assert math.isfinite(ms["bound"]) and ms["bound"] > 0

    @pytest.mark.parametrize("block", [
        {"functional": "V_2", "sampling": "boundary_shell"},
        {"multivariate": True, "sampling": "plain"},
    ])
    def test_malliavin_report_independent_of_workers(self, tmp_path, block):
        raw = tiny_raw(t_grid=[60.0], n_reps=60, malliavin={
            "t": 60.0, "n_outer": 12, "n_inner": 4, **block})
        for w in (1, 2):
            run(raw, outdir=tmp_path / f"w{w}", workers=w)
        one, two = (tmp_path / f"w{w}" / "tiny" / "report.json"
                    for w in (1, 2))
        assert "malliavin_stein" in json.loads(one.read_text())
        assert one.read_bytes() == two.read_bytes()


def bound_raw(multivariate=False):
    spec = {"multivariate": True} if multivariate else {"functional": "V_2"}
    return {
        "name": "bound", "body": {"kind": "ball", "dim": 2, "radius": 1.0},
        "t_grid": [500.0], "n_reps": 20,
        "functionals": [{"type": "multivariate"}], "mode": "exact",
        "seed": 1, "workers": 1,
        "malliavin": {"t": 500.0, "n_outer": 4, "n_inner": 8,
                      "sampling": "boundary_shell", "c": 2.0, **spec},
    }


class TestVerifyErrorTerms:
    """``verify`` checks the stored ``malliavin_stein`` block: the config's
    settings, finite nonnegative terms and standard errors, the bound those
    terms give, and a tau report's variance estimate."""

    CHECK = "error-term report consistent"

    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("error_terms")
        run(bound_raw(), outdir=out / "univariate")
        run(bound_raw(multivariate=True),
            outdir=out / "multivariate")
        return {kind: out / kind / "bound" / "report.json"
                for kind in ("univariate", "multivariate")}

    def verify_edited(self, path, edit):
        original = path.read_text()
        report = json.loads(original)
        edit(report)
        path.write_text(json.dumps(report))
        try:
            return verify(path.with_name("manifest.json"), quiet=True)
        finally:
            path.write_text(original)

    @pytest.mark.parametrize("kind", ["univariate", "multivariate"])
    def test_untouched_run_passes(self, reports, kind):
        result = verify(reports[kind].with_name("manifest.json"), quiet=True)
        assert result["ok"]
        assert [c["name"] for c in result["checks"]][-1] == self.CHECK

    # each edit names the field and what the failing check reports; None
    # moves the stored value by 1e-9 relative (the tolerance is 1e-12)
    @pytest.mark.parametrize("kind, field, value, detail", [
        ("univariate", "t", 250.0, "malliavin_stein.t: 250.0 != 500.0"),
        ("univariate", "n_outer", 5, "malliavin_stein.n_outer: 5 != 4"),
        ("univariate", "n_inner", 9, "malliavin_stein.n_inner: 9 != 8"),
        ("univariate", "sampling", "plain", "malliavin_stein.sampling"),
        ("univariate", "kind", "multivariate", "malliavin_stein.kind"),
        ("univariate", "functional", "V_1", "malliavin_stein.functional"),
        ("univariate", "tau1", -1.0, "no valid tau terms"),
        ("univariate", "tau2", math.nan, "no valid tau terms"),
        ("univariate", "tau3", -5.0, "no valid tau terms"),
        ("univariate", "se.tau1", math.inf, "no valid tau terms"),
        ("univariate", "se.tau2", -1e-3, "no valid tau terms"),
        ("univariate", "se.tau3", "0.1", "no valid tau terms"),
        ("univariate", "bound", 123.0, "malliavin_stein.bound: 123.0"),
        ("univariate", "bound", None, "malliavin_stein.bound"),
        ("univariate", "bound_se", 1.0, "malliavin_stein.bound_se"),
        ("univariate", "variance_estimate", None,
         "malliavin_stein.variance_estimate"),
        ("multivariate", "labels", ["V_1"], "malliavin_stein.labels"),
        ("multivariate", "gamma1", -1.0, "no valid gamma terms"),
        ("multivariate", "se.gamma3", math.nan, "no valid gamma terms"),
        ("multivariate", "bound", None, "malliavin_stein.bound"),
    ])
    def test_edited_field_fails(self, reports, kind, field, value, detail):
        def edit(report):
            block = report["malliavin_stein"]
            *parents, key = field.split(".")
            for p in parents:
                block = block[p]
            block[key] = block[key] * (1.0 + 1e-9) if value is None else value

        result = self.verify_edited(reports[kind], edit)
        failed = [c for c in result["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == [self.CHECK]
        assert detail in failed[0]["detail"]

    def test_missing_block_fails(self, reports):
        result = self.verify_edited(
            reports["univariate"], lambda r: r.pop("malliavin_stein"))
        failed = [c for c in result["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == [self.CHECK]

    def test_bound_within_tolerance_passes(self, reports):
        def edit(report):
            report["malliavin_stein"]["bound"] *= 1.0 + 1e-14

        assert self.verify_edited(reports["univariate"], edit)["ok"]


class TestSharedPool:
    """One process pool per run, gone when ``run`` returns or raises."""

    RAW = tiny_raw(t_grid=[60.0, 120.0], n_reps=24, malliavin={
        "t": 60.0, "functional": "V_2", "n_outer": 8, "n_inner": 4,
        "sampling": "boundary_shell"})

    @pytest.fixture
    def pools(self, monkeypatch):
        """The process pools started while the test runs."""
        import randpoly.rng as rng_module
        started = []

        class Counted(rng_module.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        monkeypatch.setattr(rng_module, "ProcessPoolExecutor", Counted)
        return started

    def test_one_pool_serves_the_run(self, tmp_path, pools):
        run(self.RAW, outdir=tmp_path, workers=2)
        assert len(pools) == 1
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_failed_run(self, tmp_path, monkeypatch,
                                             pools):
        def boom(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(experiment, "_derive_report", boom)
        with pytest.raises(RuntimeError, match="injected"):
            run(self.RAW, outdir=tmp_path, workers=2)
        manifest = json.loads(
            (tmp_path / "tiny" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert len(pools) == 1
        assert multiprocessing.active_children() == []

    def test_outputs_independent_of_workers(self, tmp_path):
        for w in (1, 2):
            run(self.RAW, outdir=tmp_path / f"w{w}", workers=w)
        one, two = (tmp_path / f"w{w}" / "tiny" for w in (1, 2))
        names = sorted(str(p.relative_to(one)) for p in one.rglob("*")
                       if p.is_file() and p.name != "manifest.json")
        assert {"table_t0.csv", "table_t1.csv", "report.json"} <= set(names)
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes()

    def test_one_pool_serves_the_taus_command(self, tmp_path, capsys, pools):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(self.RAW))
        assert cli_main(["taus", str(cfg_path), "--workers", "2"]) == 0
        assert "tau3" in capsys.readouterr().out
        assert len(pools) == 1
        assert multiprocessing.active_children() == []

    def test_map_blocks_outside_a_run_has_its_own_pool(self, pools):
        from randpoly.rng import map_blocks
        assert map_blocks(range, 10, 2) == [range(s, min(s + 2, 10))
                                            for s in range(0, 10, 2)]
        assert len(pools) == 1
        assert multiprocessing.active_children() == []


class TestCorrelationBootstrap:
    # Each row repeated three times is a resample with constant columns;
    # np.corrcoef gives -1.0 for every one of these rows, not NaN.
    ROWS = np.array([[0.7, 0.8], [0.8, 1.4], [1.4, 1.6]])

    def test_constant_resamples_dropped(self):
        # the other resamples have correlation 1 (two distinct rows, both
        # columns increasing) or 0.78 (all three rows)
        r = np.corrcoef(self.ROWS, rowvar=False)[0, 1]
        ci = _correlation_bootstrap_ci(self.ROWS, ["a", "b"], stream(1))
        lo, hi = ci["a.b"]
        assert r - 1e-12 <= lo <= hi <= 1.0 + 1e-12

    def test_constant_column_gives_nan(self):
        mat = np.column_stack([self.ROWS[:, 0], [0.1, 0.1, 0.1]])
        ci = _correlation_bootstrap_ci(mat, ["a", "b"], stream(1))
        assert all(math.isnan(v) for v in ci["a.b"])

    def test_single_column_has_no_pairs(self):
        assert _correlation_bootstrap_ci(self.ROWS[:, :1], ["a"],
                                         stream(1)) == {}

    def test_random_stream_unchanged(self):
        rng = stream(2)
        _correlation_bootstrap_ci(self.ROWS, ["a", "b"], rng, n_boot=50)
        ref = stream(2)
        for _ in range(50):
            ref.integers(0, 3, size=3)
        assert rng.random() == ref.random()


def per_draw_correlation_ci(mat, names, rng, n_boot=200):
    """Reference: one ``rng.integers`` call and one ``np.corrcoef`` call
    per resample."""
    n, m = mat.shape
    rows, cols = np.triu_indices(m, 1)
    draws = np.empty((n_boot, n), dtype=np.int64)
    samples = np.empty((n_boot, len(rows)))
    for b in range(n_boot):
        draws[b] = rng.integers(0, n, size=n)
        with np.errstate(invalid="ignore"):
            corr = np.corrcoef(mat[draws[b]], rowvar=False).reshape(m, m)
        samples[b] = corr[rows, cols]
    const = np.column_stack(
        [(c[draws] == c[draws[:, :1]]).all(axis=1) for c in mat.T]
    )
    samples[const[:, rows] | const[:, cols]] = math.nan
    out = {}
    for p, (i, j) in enumerate(zip(rows, cols)):
        col = samples[:, p]
        col = col[np.isfinite(col)]
        lo, hi = np.percentile(col, [2.5, 97.5]) if len(col) else (math.nan,
                                                                   math.nan)
        out[f"{names[i]}.{names[j]}"] = [float(lo), float(hi)]
    return out


class TestCorrelationBootstrapBitIdentity:
    """The stacked bootstrap gives the per-resample loop's values exactly,
    and leaves the generator in the same state."""

    @staticmethod
    def check(mat, n_boot=200, seed=5):
        names = [f"c{k}" for k in range(mat.shape[1])]
        rng, ref = stream(seed), stream(seed)
        got = _correlation_bootstrap_ci(mat, names, rng, n_boot=n_boot)
        want = per_draw_correlation_ci(mat, names, ref, n_boot=n_boot)
        # json.dumps writes each float by repr and NaN as NaN, so equal
        # strings mean bit-equal values
        assert json.dumps(got) == json.dumps(want)
        assert got.keys() == want.keys()
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("m", [1, 2, 9])
    @pytest.mark.parametrize("n", [2, 3, 20, 150])
    def test_random_tables(self, n, m):
        rng = stream(6, n, m)
        scales = 10.0 ** rng.uniform(-3, 3, size=m)
        self.check(rng.standard_normal((n, m)) * scales + rng.normal(size=m))

    @pytest.mark.parametrize("n", [3, 20, 150])
    def test_constant_column(self, n):
        mat = stream(7, n).standard_normal((n, 3))
        mat[:, 1] = 0.1
        self.check(mat)

    def test_column_constant_in_some_resamples(self):
        self.check(TestCorrelationBootstrap.ROWS)
        # a 0/1 column is constant in about one resample in 2^(n-1)
        rng = stream(8)
        mat = np.column_stack([rng.integers(0, 2, size=6) * 1.0,
                               rng.standard_normal((6, 2))])
        self.check(mat)

    @pytest.mark.parametrize("n", [3, 20, 150])
    def test_near_collinear_columns(self, n):
        rng = stream(9, n)
        a = rng.standard_normal(n)
        mat = np.column_stack([a, 3.0 * a + 1e-9 * rng.standard_normal(n),
                               -a + 1e-12 * rng.standard_normal(n),
                               rng.standard_normal(n)])
        self.check(mat)

    def test_crosses_the_block_cap(self):
        # 150 x 9 values per resample: 1000 resamples need two blocks
        n, m = 150, 9
        assert experiment._BOOT_BLOCK // (n * m) < 1000
        self.check(stream(10).standard_normal((n, m)), n_boot=1000)

    @pytest.mark.parametrize("block", [1, 7 * 20 * 3])
    def test_small_blocks(self, monkeypatch, block):
        monkeypatch.setattr(experiment, "_BOOT_BLOCK", block)
        self.check(stream(11).standard_normal((20, 3)), n_boot=50)


def nan_columns():
    """Six columns of 40 rows with 0, 5, 19 (21 values left), 39 (one
    value), 40 (none) and 7 NaNs, the last one with ties.  No entry is
    -0.0: a NaN-padded column may sort 0.0 and -0.0 in another order than
    the column without its NaNs does."""
    rng = stream(12, 0)
    x = rng.standard_normal((40, 6)) * 10.0 ** rng.uniform(-3, 3, size=6)
    x[:, 5] = np.round(x[:, 5]) + 0.0  # ties, and -0.0 becomes 0.0
    for col, n_nan in enumerate([0, 5, 19, 39, 40, 7]):
        x[rng.permutation(40)[:n_nan], col] = math.nan
    return x


@pytest.mark.parametrize("rows", [1, 2, 3, 21, 200, "nan"])
def test_percentiles_match_numpy(rows):
    """The one-sort percentiles equal ``np.percentile``'s bit for bit; at
    21 rows both virtual indices fall halfway between two values.  A
    column's NaNs are skipped, and a column of NaNs gives NaN."""
    if rows == "nan":
        x = nan_columns()
        want = np.array([np.percentile(c[~np.isnan(c)], [2.5, 97.5])
                         if (~np.isnan(c)).any() else [math.nan, math.nan]
                         for c in x.T]).T
    else:
        rng = stream(12, rows)
        x = rng.standard_normal((rows, 7)) * 10.0 ** rng.uniform(-3, 3,
                                                                 size=7)
        x[:, 5] = rng.normal(size=rows) * 10.0 ** rng.uniform(-8, 8,
                                                              size=rows)
        x[:, 6] = np.round(x[:, 6])  # ties
        want = np.percentile(x, [2.5, 97.5], axis=0)
    assert _percentiles(x, (2.5, 97.5)).tobytes() == want.tobytes()


def per_column_summary(table, seed):
    """Reference for ``_summarize_table``: one public 1-D call per column,
    and ``np.percentile`` per correlation pair."""
    names = [n for n in table.names if n != "n_points"]
    cols = {n: table.column(n) for n in names}
    varying = [n for n in names if cols[n].var(ddof=1) > 0.0]

    def variance_se(col):
        n = len(col)
        c = col - col.mean()
        m2, m4 = float((c**2).mean()), float((c**4).mean())
        return math.sqrt(max(m4 - m2 * m2 * (n - 3.0) / (n - 1.0), 0.0) / n)

    out = {
        "t": table.t, "n_reps": table.n_reps,
        "means": {n: float(cols[n].mean()) for n in names},
        "variances": {n: float(cols[n].var(ddof=1)) for n in names},
        "variance_se": {n: variance_se(cols[n]) for n in varying},
        "constant_columns": [n for n in names if n not in varying],
    }
    if varying:
        rng = stream(seed, BOOTSTRAP_STAGE, table.t_index)
        z = {n: standardize(cols[n]) for n in varying}
        mat = table.matrix(varying)
        corr = np.atleast_2d(np.corrcoef(mat, rowvar=False))
        rank, eig = numeric_rank(corr)
        out["w1_to_normal"] = {n: w1_to_normal(z[n]) for n in varying}
        out["w1_se"] = {n: w1_bootstrap_se(z[n], rng) for n in varying}
        out["correlation_columns"] = varying
        out["correlation"] = [[float(v) for v in row] for row in corr]
        out["correlation_ci"] = per_draw_correlation_ci(mat, varying, rng)
        out["rank_estimate"] = rank
        out["eigenvalues"] = [float(v) for v in eig]
    return out


class TestSummaryMatchesPerColumnCalls:
    """``_summarize_table`` works on the (columns x replications) array at
    once; every value equals the per-column public calls' bit for bit."""

    @staticmethod
    def check(columns, seed=13):
        n = len(next(iter(columns.values())))
        table = ReplicationTable(
            t=100.0, t_index=2, body={"kind": "ball", "dim": 2,
                                      "radius": 1.0},
            n_reps=n, seed=seed, columns={"n_points": np.full(n, 9.0),
                                          **columns})
        got = _summarize_table(table, seed)
        want = per_column_summary(table, seed)
        # json.dumps writes each float by repr and NaN as NaN
        assert json.dumps(got) == json.dumps(want)

    @pytest.mark.parametrize("n", [2, 150, 2000])
    def test_random_columns(self, n):
        rng = stream(14, n)
        scales = 10.0 ** rng.uniform(-3, 3, size=5)
        mat = rng.standard_normal((n, 5)) * scales + rng.normal(size=5)
        self.check({f"c{k}": mat[:, k].copy() for k in range(5)})

    @pytest.mark.parametrize("n", [2, 150, 2000])
    def test_constant_columns_and_constant_resamples(self, n):
        # a column that is constant, and one with a single 1.0 among zeros,
        # which is constant in many resamples (NaN correlations there)
        rng = stream(15, n)
        rare = np.zeros(n)
        rare[n // 2] = 1.0
        self.check({"a": rng.standard_normal(n), "const": np.full(n, 0.1),
                    "rare": rare, "b": rng.exponential(size=n)})

    def test_only_constant_columns(self):
        self.check({"a": np.full(5, 2.0), "b": np.zeros(5)})


GOLDEN = Path(__file__).parent / "data" / "reports"


@pytest.mark.parametrize("name", ["exact_d2", "mc_d4", "bound_f0",
                                  "gamma_d2", "exact_d3"])
def test_report_matches_golden_files(tmp_path, name):
    """``report.json`` and the plot CSVs of five small runs are byte-equal
    to stored copies, so any change in a summation order shows here;
    ``bound_f0`` and ``gamma_d2`` carry a univariate and a multivariate
    ``malliavin_stein`` block, and ``exact_d3`` holds the exact d = 3
    volumes and the Wills functional."""
    raw = json.loads((GOLDEN / name / "config.json").read_text())
    run(raw, outdir=tmp_path)
    want = sorted(p.relative_to(GOLDEN / name)
                  for p in (GOLDEN / name).rglob("*")
                  if p.is_file() and p.name != "config.json")
    assert len(want) == 5
    for rel in want:
        got = (tmp_path / name / rel).read_bytes()
        assert got == (GOLDEN / name / rel).read_bytes(), rel


def synthetic_summary(t, names, w1, rank=1):
    """A per-intensity summary with the keys the plot files and the preset
    assertions read; correlations are 0.9 off the diagonal."""
    m = len(names)
    corr = [[1.0 if i == j else 0.9 for j in range(m)] for i in range(m)]
    return {
        "t": t, "n_reps": 100,
        "means": {n: 1.0 for n in names},
        "variances": {n: 0.04 for n in names},
        "variance_se": {n: 0.005 for n in names},
        "w1_to_normal": dict(zip(names, w1)),
        "w1_se": {n: 0.01 for n in names},
        "correlation_columns": list(names),
        "correlation": corr,
        "correlation_ci": {f"{a}.{b}": [0.8, 0.95] for i, a in enumerate(names)
                           for b in names[i + 1:]},
        "rank_estimate": rank,
        "eigenvalues": [0.1 * m] * m,
    }


class TestPlotData:
    def test_correlation_rows_for_every_intensity(self, tmp_path):
        # the columns that vary differ between intensities (at t = 1.5 the
        # face counts vary too); each intensity keeps its row
        (tmp_path / "plots").mkdir()
        summaries = [
            synthetic_summary(1.5, ["V_1", "V_2", "f_0", "f_1"], [0.1] * 4),
            synthetic_summary(200.0, ["V_1", "V_2"], [0.1] * 2),
        ]
        experiment._write_plot_data(tmp_path, summaries)
        lines = (tmp_path / "plots" / "correlation_vs_t.csv").read_text() \
            .splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["t", "corr.V_1.V_2", "corr.V_1.V_2.lo",
                              "corr.V_1.V_2.hi"]
        assert len(header) == 1 + 3 * 6
        rows = [dict(zip(header, map(float, line.split(","))))
                for line in lines[1:]]
        assert [r["t"] for r in rows] == [1.5, 200.0]
        assert rows[1]["corr.V_1.V_2"] == 0.9
        assert rows[1]["corr.V_1.V_2.hi"] == 0.95
        assert math.isnan(rows[1]["corr.f_0.f_1"])
        assert rows[0]["corr.f_0.f_1"] == 0.9

    @staticmethod
    def read_plot(path):
        lines = path.read_text().splitlines()
        return lines[0].split(","), np.array(
            [[float(x) for x in line.split(",")] for line in lines[1:]])

    def test_ragged_summaries_pad_with_nan(self, tmp_path):
        # V_0 is constant at t = 200 only, f_0 varies at t = 200 only, and
        # at t = 400 nothing varies (no W1, correlation or eigenvalues); the
        # eigenvalue count differs between the intensities that have them
        (tmp_path / "plots").mkdir()
        nan = math.nan
        summaries = [
            synthetic_summary(1.5, ["V_1", "V_2"], [0.1, 0.2]),
            synthetic_summary(200.0, ["V_1", "V_2", "f_0"], [0.3, 0.4, 0.5]),
            {"t": 400.0, "n_reps": 100, "means": {"V_1": 1.0, "V_2": 1.0},
             "variances": {"V_1": 0.0, "V_2": 0.0}, "variance_se": {},
             "constant_columns": ["V_1", "V_2"]},
        ]
        summaries[1]["variances"]["V_0"] = 0.0
        summaries[0]["eigenvalues"] = [1.9, 0.1]
        summaries[1]["eigenvalues"] = [2.7, 0.2, 0.1]
        written = experiment._write_plot_data(tmp_path, summaries)
        plots = tmp_path / "plots"
        assert written == [str(plots / f"{name}_vs_t.csv") for name in
                           ("variance", "w1", "correlation", "eigenvalues")]
        cols = ["V_0", "V_1", "V_2", "f_0"]
        header, rows = self.read_plot(plots / "variance_vs_t.csv")
        assert header == ["t"] + [f"{c}.{end}" for c in cols
                                  for end in ("var", "se")]
        assert np.array_equal(rows, [
            [1.5, nan, nan, 0.04, 0.005, 0.04, 0.005, nan, nan],
            [200.0, 0.0, nan, 0.04, 0.005, 0.04, 0.005, 0.04, 0.005],
            [400.0, nan, nan, 0.0, nan, 0.0, nan, nan, nan],
        ], equal_nan=True)
        header, rows = self.read_plot(plots / "w1_vs_t.csv")
        assert header == ["t"] + [f"{c}.{end}" for c in cols
                                  for end in ("w1", "se")]
        assert np.array_equal(rows, [
            [1.5, nan, nan, 0.1, 0.01, 0.2, 0.01, nan, nan],
            [200.0, nan, nan, 0.3, 0.01, 0.4, 0.01, 0.5, 0.01],
            [400.0] + [nan] * 8,
        ], equal_nan=True)
        header, rows = self.read_plot(plots / "eigenvalues_vs_t.csv")
        assert header == ["t", "eig_1", "eig_2", "eig_3"]
        assert np.array_equal(rows, [[1.5, 1.9, 0.1, nan],
                                     [200.0, 2.7, 0.2, 0.1]], equal_nan=True)
        header, rows = self.read_plot(plots / "correlation_vs_t.csv")
        assert header == ["t"] + [f"corr.{pair}{end}" for pair in
                                  ("V_1.V_2", "V_1.f_0", "V_2.f_0")
                                  for end in ("", ".lo", ".hi")]
        assert np.array_equal(rows, [
            [1.5, 0.9, 0.8, 0.95] + [nan] * 6,
            [200.0] + [0.9, 0.8, 0.95] * 3,
        ], equal_nan=True)


class TestPresetAssertions:
    """Every assertion kind of the presets, on a synthetic report: a column
    ``a`` whose W1 falls over two intensities, and ``b`` whose W1 rises."""

    REPORT = {
        "summaries": [
            synthetic_summary(100.0, ["a", "b", "c"], [0.2, 0.1, 0.1], rank=2),
            synthetic_summary(400.0, ["a", "b", "c"], [0.1, 0.9, 0.1]),
        ],
        "rate_fits": {"a": {"slope": -1.6}},
        "oracle_variance_ratio": {"400.0": 1.02},
        "malliavin_stein": {"t": 400.0, "bound": 0.5, "bound_se": 0.01},
    }

    @pytest.mark.parametrize("assertion, passed", [
        ({"kind": "slope_range", "column": "a", "lo": -1.8, "hi": -1.5}, True),
        ({"kind": "slope_range", "column": "a", "lo": -1.5, "hi": -1.0}, False),
        ({"kind": "mean_close", "column": "a", "t": 100.0, "target": 1.05},
         True),  # within 4 standard errors of 0.02
        ({"kind": "mean_close", "column": "a", "t": 100.0, "target": 1.1,
          "se_mult": 4}, False),
        ({"kind": "w1_max", "column": "a", "t": 400.0, "max": 0.15}, True),
        ({"kind": "w1_max", "column": "a", "t": 400.0, "max": 0.05}, False),
        ({"kind": "w1_decreasing", "column": "a"}, True),
        ({"kind": "w1_decreasing", "column": "b"}, False),
        ({"kind": "ratio_range", "t": 400.0, "lo": 0.9, "hi": 1.1}, True),
        ({"kind": "ratio_range", "t": 400.0, "lo": 1.05, "hi": 1.1}, False),
        ({"kind": "rank_max", "t": 100.0, "max": 2}, True),
        ({"kind": "rank_max", "t": 100.0, "max": 1}, False),
        ({"kind": "corr_min", "t": 100.0, "columns": ["a", "c"], "min": 0.9},
         True),
        ({"kind": "corr_min", "t": 100.0, "columns": ["a", "b", "c"],
          "min": 0.95}, False),
        ({"kind": "bound_dominates_w1", "column": "a"}, True),
        ({"kind": "bound_dominates_w1", "column": "b"}, False),
    ], ids=lambda v: v if isinstance(v, bool) else v["kind"])
    def test_pass_and_fail(self, assertion, passed):
        name, ok, detail = experiment._evaluate_assertion(assertion,
                                                          self.REPORT)
        assert bool(ok) is passed, (name, detail)
        assert "missing data" not in detail

    @pytest.mark.parametrize("assertion", [
        {"kind": "slope_range", "column": "b", "lo": -2, "hi": 0},
        {"kind": "mean_close", "column": "a", "t": 50.0, "target": 1.0},
        {"kind": "w1_max", "column": "d", "t": 400.0, "max": 1.0},
        {"kind": "w1_decreasing", "column": "d"},
        {"kind": "ratio_range", "t": 100.0, "lo": 0.9, "hi": 1.1},
        {"kind": "rank_max", "t": 50.0, "max": 3},
        {"kind": "corr_min", "t": 100.0, "columns": ["a", "d"], "min": 0.0},
        {"kind": "bound_dominates_w1", "column": "d"},
    ], ids=lambda a: a["kind"])
    def test_missing_data_fails(self, assertion):
        name, ok, detail = experiment._evaluate_assertion(assertion,
                                                          self.REPORT)
        assert not ok and detail.startswith("missing data"), detail
        assert name == f"assertion {assertion['kind']}"
        _, ok, detail = experiment._evaluate_assertion(assertion, {})
        assert not ok and detail.startswith("missing data"), detail

    def test_unknown_kind_fails(self):
        assert experiment._evaluate_assertion({"kind": "nope"}, self.REPORT) \
            == ("assertion nope", False, "unknown assertion kind")


class TestPresets:
    def test_catalogue_nonempty(self):
        assert "smoke" in PRESETS and "theorem1" in PRESETS

    def test_all_preset_configs_valid(self):
        for name in PRESETS:
            cfg = preset_config(name)
            assert cfg.name == name

    # sha256 of each preset's canonical config; a run's manifest carries it
    CONFIG_HASHES = {
        "bound": "ee522328904c4a81f98116e37775cda6"
                 "435a0e2c205f87d2b445c03b5c059516",
        "clt_trend": "79c14c9dc74c171aeb1a62383e69f985"
                     "964e2cd04b74e0dca41a556c6d3e3ad2",
        "oracle": "52e2e2f9eedd735a095444b4f60d9e11"
                  "03ff6e86a76d3dec883d834020a1bf77",
        "smoke": "93319713a7b680c7131d7329e1a26bb0"
                 "d759055e78dec6c93a4049a68fe28fa0",
        "theorem1": "63ecaf98543743b95c9d79db54783b27"
                    "24a3061a164679fd8b6be6cd6f3c68d5",
        "theorem1_d3": "058497a3a0f92c8f1bf8ba821bb920c9"
                       "f78946a2919da9b8cca328ff041cf82d",
    }

    def test_config_hashes_pinned(self):
        assert sorted(self.CONFIG_HASHES) == sorted(PRESETS)
        for name, digest in self.CONFIG_HASHES.items():
            assert _config_hash(preset_config(name)) == digest, name

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("nope")

    def test_smoke_preset_assertions_pass(self, tmp_path):
        run("smoke", outdir=tmp_path)
        result = verify(tmp_path / "smoke" / "manifest.json", quiet=True)
        assert result["ok"], result["checks"]


class TestCLI:
    def test_presets_list(self, capsys):
        assert cli_main(["presets", "list"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "theorem1" in out

    def test_run_and_verify_round_trip(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw(t_grid=[30.0], n_reps=20)))
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path)]) == 0
        manifest = tmp_path / "tiny" / "manifest.json"
        assert cli_main(["verify", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out

    def test_verify_exit_code_on_failure(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw(t_grid=[30.0], n_reps=20)))
        cli_main(["run", str(cfg_path), "--out", str(tmp_path)])
        csv = tmp_path / "tiny" / "table_t0.csv"
        body = csv.read_text().replace(",", ",", 1)
        csv.write_text(body + "0,0,0,0,0,0,0\n")  # appended garbage row
        assert cli_main(["verify", str(tmp_path / "tiny" / "manifest.json")]) == 2

    @pytest.mark.parametrize("damage", ["header_only", "short_rows",
                                        "no_meta"])
    def test_verify_fails_on_an_incomplete_table(self, tmp_path, capsys,
                                                 damage):
        """A table cut off after its header, rows with too few fields, or
        a missing sidecar is a failed check, not a traceback."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw(t_grid=[30.0], n_reps=20)))
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path)]) == 0
        csv = tmp_path / "tiny" / "table_t0.csv"
        lines = csv.read_text().splitlines(keepends=True)
        if damage == "header_only":
            csv.write_text(lines[0])
        elif damage == "short_rows":
            csv.write_text(lines[0] + "".join(
                line.split(",", 1)[1] for line in lines[1:]))
        else:
            csv.with_suffix(".meta.json").unlink()
        capsys.readouterr()
        assert cli_main(["verify", str(tmp_path / "tiny" / "manifest.json")]) == 2
        out = capsys.readouterr().out
        assert "[FAIL] table table_t0.csv readable" in out

    @pytest.mark.parametrize("listed", [[], [1], [0, 1, 1]],
                             ids=["empty", "dropped", "duplicated"])
    def test_verify_fails_on_a_bad_table_list(self, tmp_path, capsys,
                                              listed):
        """A manifest whose tables do not list each t_index once, in order,
        fails that check (no report is derived from them) and exits 2;
        the untouched run passes it."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw(t_grid=[30.0, 60.0],
                                                n_reps=20)))
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path)]) == 0
        path = tmp_path / "tiny" / "manifest.json"
        name = "tables list each t_index once, in order"
        passed = {c["name"]: c["passed"]
                  for c in verify(path, quiet=True)["checks"]}
        assert passed[name] and all(passed.values())
        manifest = json.loads(path.read_text())
        tables = [manifest["tables"][i] for i in listed]
        path.write_text(json.dumps({**manifest, "tables": tables}))
        result = verify(path, quiet=True)
        assert not result["ok"]
        assert [c["passed"] for c in result["checks"]
                if c["name"] == name] == [False]
        capsys.readouterr()
        assert cli_main(["verify", str(path)]) == 2
        assert f"[FAIL] {name}" in capsys.readouterr().out

    @pytest.mark.parametrize("content", [{"config": {}}, [1, 2]])
    def test_malformed_manifest_exit_code(self, tmp_path, capsys, content):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(content))
        assert cli_main(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tables", [[{}], [{"csv": "table_t0.csv"}],
                                        ["table_t0.csv"], {}])
    def test_manifest_table_entry_without_keys(self, tmp_path, capsys,
                                               tables):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw(t_grid=[30.0], n_reps=20)))
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path)]) == 0
        path = tmp_path / "tiny" / "manifest.json"
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps({**manifest, "tables": tables}))
        capsys.readouterr()
        assert cli_main(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "tables entries" in err

    @pytest.mark.parametrize("text, message", [
        ("{oops", "invalid JSON: "), ("5", "not a run manifest")])
    def test_manifest_not_json_or_not_an_object(self, tmp_path, capsys,
                                                text, message):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        assert cli_main(["verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}")
        assert "Traceback" not in err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw(t_grid=[5.0, 1.0])))
        assert cli_main(["run", str(cfg_path)]) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("functional", [{"type": "intrinsic"},
                                            {"type": "f"}])
    def test_functional_without_index_exit_code(self, tmp_path, capsys,
                                                functional):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw(functionals=[functional])))
        assert cli_main(["run", str(cfg_path)]) == 1
        assert "functionals[0]" in capsys.readouterr().err

    def test_wrong_json_type_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw(workers=[2])))
        assert cli_main(["run", str(cfg_path)]) == 1
        assert "cfg.json:workers" in capsys.readouterr().err

    def test_non_integral_int_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw(n_reps=2.9)))
        assert cli_main(["run", str(cfg_path)]) == 1
        assert "cfg.json:n_reps: expected int" in capsys.readouterr().err

    def test_string_boolean_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw(
            body={"kind": "cube", "dim": 2}, allow_nonsmooth="false")))
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path)]) == 1
        assert "cfg.json:allow_nonsmooth" in capsys.readouterr().err
        assert not (tmp_path / "tiny").exists()

    def test_shell_on_ellipsoid_writes_no_table(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw(
            body=TestConfigValidation.ELLIPSE,
            malliavin={"t": 80.0, "functional": "V_2"})))
        assert cli_main(["run", str(cfg_path), "--out", str(tmp_path)]) == 1
        assert "cfg.json:malliavin.sampling" in capsys.readouterr().err
        assert not (tmp_path / "tiny").exists()

    @pytest.mark.parametrize("override, path", [
        ({"seed": -1}, "seed"),
        ({"functionals": [{"type": "valuation", "label": 5,
                           "coeffs": [0, 1, 1]}]}, "functionals[0].label"),
    ], ids=["seed", "label"])
    def test_bad_value_writes_nothing(self, tmp_path, capsys, override, path):
        # both used to fail only while running: a negative seed after the
        # manifest was written, an int label after the first table
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw(t_grid=[30.0], n_reps=20,
                                                **override)))
        out = tmp_path / "out"
        assert cli_main(["run", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"configuration error: {cfg_path}:{path}: " in err
        assert not out.exists()

    @pytest.mark.parametrize("label", [
        "half,perimeter", "half\nperimeter", "half_perimeter "])
    def test_unreadable_label_writes_nothing(self, tmp_path, capsys, label):
        # each used to complete a run whose tables verify could not read
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw(
            t_grid=[50.0], n_reps=4, seed=1, functionals=[
                {"type": "multivariate"},
                {"type": "valuation", "label": label, "coeffs": [0, 0.5, 0]},
            ])))
        out = tmp_path / "out"
        assert cli_main(["run", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"configuration error: {cfg_path}:functionals: " in err
        assert "cannot head a table column" in err
        assert not out.exists()

    def test_taus_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw(
            t_grid=[60.0], n_reps=200,
            malliavin={"t": 60.0, "functional": "V_2", "n_outer": 40,
                       "n_inner": 4, "sampling": "plain"},
        )))
        out_path = tmp_path / "taus.json"
        assert cli_main(["taus", str(cfg_path), "--out", str(out_path)]) == 0
        blob = json.loads(out_path.read_text())
        assert "malliavin_stein" in blob
        assert blob["malliavin_stein"]["tau3"] >= 0.0

    def test_taus_output_independent_of_workers(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw(
            t_grid=[60.0], n_reps=60,
            malliavin={"t": 60.0, "functional": "V_2", "n_outer": 12,
                       "n_inner": 4},
        )))
        outputs = []
        for w in ("1", "2"):
            assert cli_main(["taus", str(cfg_path), "--workers", w]) == 0
            outputs.append(capsys.readouterr().out)
        assert "tau3" in outputs[0] and outputs[0] == outputs[1]

    def test_taus_rejects_unknown_column(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw(
            t_grid=[60.0], malliavin={"t": 60.0, "functional": "V2"},
        )))
        assert cli_main(["taus", str(cfg_path)]) == 1
        assert "malliavin.functional" in capsys.readouterr().err


class TestEnvOutdir:
    def test_env_var_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RANDPOLY_OUTDIR", str(tmp_path / "envout"))
        raw = tiny_raw(t_grid=[30.0], n_reps=10)
        run(raw)
        assert (tmp_path / "envout" / "tiny" / "manifest.json").exists()
