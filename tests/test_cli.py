import json

import mpmath as mp
import pytest

import qpvi
from qpvi import cli, continuum, painleve, qseries, weyl

WEIGHT = ["--a", "0.3,0.2", "--b", "0.5", "--q", "0.5", "--prec", "128"]


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestParsing:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "qpvi" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    def test_complex_parsing(self):
        assert cli._parse_complex("1.5") == 1.5
        assert cli._parse_complex("1.5,-2") == complex(1.5, -2)
        from qpvi.errors import ConfigError
        with pytest.raises(ConfigError):
            cli._parse_complex("1,2,3")


class TestExitCodes:
    def test_domain_error_is_config(self, capsys):
        code, _ = run(capsys, ["verblunsky", "--a", "0.3", "--b", "0.5",
                               "--q", "1.5", "--N", "4", "--prec", "128"])
        assert code == 2

    def test_precision_floor(self, capsys):
        code, _ = run(capsys, ["verblunsky", *WEIGHT[:-2], "--prec", "32", "--N", "4"])
        assert code == 2

    def test_bad_orbit_window(self, capsys):
        code, _ = run(capsys, ["orbit", *WEIGHT, "--n-start", "0"])
        assert code == 2

    def test_orbit_validates_before_moments(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("moments computed before validation")
        monkeypatch.setattr(qseries, "moments", refuse)
        code, _ = run(capsys, ["orbit", "--b", "0"])
        assert code == 2


class TestMoments:
    def test_json_envelope(self, capsys):
        code, out = run(capsys, ["moments", *WEIGHT, "--N", "4"])
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"version", "config", "data"}
        assert doc["config"]["prec"] == 128
        assert doc["data"]["K"] == 14
        assert len(doc["data"]["c"]) == 29
        assert doc["data"]["c"][14] == [1.0, 0.0]

    def test_csv(self, capsys):
        code, out = run(capsys, ["moments", *WEIGHT, "--N", "4", "--K", "3",
                                 "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# qpvi ")
        assert lines[1] == "k,re_c,im_c"
        assert len(lines) == 9


class TestVerblunsky:
    def test_json(self, capsys):
        code, out = run(capsys, ["verblunsky", *WEIGHT, "--N", "4"])
        assert code == 0
        doc = json.loads(out)
        assert doc["data"]["N"] == 4
        assert len(doc["data"]["alpha"]) == 5
        assert len(doc["data"]["sigma"]) == 5
        a1 = doc["data"]["alpha"][1]
        assert abs(a1[0] + 0.421169964177008) < 1e-12
        assert abs(a1[1] + 0.3153201432919679) < 1e-12

    def test_q_near_one(self, capsys):
        code, out = run(capsys, ["verblunsky", "--q", "0.97", "--N", "8"])
        assert code == 0
        assert len(json.loads(out)["data"]["alpha"]) == 9

    def test_determinism(self, capsys):
        _, out1 = run(capsys, ["verblunsky", *WEIGHT, "--N", "4"])
        _, out2 = run(capsys, ["verblunsky", *WEIGHT, "--N", "4"])
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "v.csv"
        code, out = run(capsys, ["verblunsky", *WEIGHT, "--N", "3",
                                 "--format", "csv", "--out", str(path)])
        assert code == 0 and out == ""
        lines = path.read_text().splitlines()
        assert lines[1] == "n,re_alpha,im_alpha,sigma"
        assert len(lines) == 6


class TestLaxOrbit:
    def test_lax_json(self, capsys):
        code, out = run(capsys, ["lax", *WEIGHT, "--N", "3"])
        assert code == 0
        doc = json.loads(out)
        fits = doc["data"]
        assert sorted(fits) == ["1", "2", "3"]
        for f in fits.values():
            assert f["residual"] < 1e-25
            assert set(f) >= {"e11", "e12", "e21", "e22", "theta", "theta_star"}

    def test_orbit_stream(self, capsys):
        code, out = run(capsys, ["orbit", *WEIGHT, "--n-start", "2", "--steps", "2"])
        assert code == 0
        recs = [json.loads(line) for line in out.splitlines()]
        assert [r["n"] for r in recs] == [2, 3, 4]
        for r in recs:
            assert r["residuals"]["constraint"] < 1e-25
            assert r["residuals"]["factorization"] < 1e-25
        # consecutive parameter sets differ by one q-shift in kappa1
        assert abs(recs[1]["params"]["kappa1"][0]
                   - 0.5 * recs[0]["params"]["kappa1"][0]) < 1e-12


class TestWeylOde:
    def test_weyl_report(self, capsys):
        code, out = run(capsys, ["weyl", "--prec", "128", "--seed", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["data"]["lattice_checks"]["all"] is True
        assert doc["data"]["composite_max_rel_error"] < 1e-10
        assert len(doc["data"]["matrix"]) == 10

    def test_weyl_runs_at_requested_precision(self, capsys, monkeypatch):
        seen = set()
        composite = weyl.composite_map

        def spy(pt):
            seen.add(mp.mp.prec)
            return composite(pt)
        monkeypatch.setattr(weyl, "composite_map", spy)
        code, out = run(capsys, ["weyl", "--prec", "160", "--seed", "3"])
        assert code == 0
        assert json.loads(out)["config"]["prec"] == 160
        assert seen == {160}

    def test_ode_csv(self, capsys):
        code, out = run(capsys, ["ode", "--prec", "128", "--t1", "0.7",
                                 "--npoints", "5", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "t,re_u,im_u,re_v,im_v"
        assert len(lines) == 7

    def test_ode_env_precision(self, capsys, monkeypatch):
        monkeypatch.setenv("QPVI_PREC", "96")
        code, out = run(capsys, ["ode", "--t1", "0.7", "--npoints", "3"])
        assert code == 0
        assert json.loads(out)["config"]["prec"] == 96


def _refuse(*args, **kwargs):
    raise AssertionError("computation started before the request was validated")


class TestFormat:
    @pytest.mark.parametrize("argv", [["lax", *WEIGHT], ["orbit", *WEIGHT],
                                      ["weyl"], ["verify-all", *WEIGHT],
                                      ["ode", "--limit-check"]],
                             ids=["lax", "orbit", "weyl", "verify-all", "limit-check"])
    def test_csv_refused_where_output_is_json(self, capsys, monkeypatch, argv):
        for mod, name in ((qseries, "moments"), (weyl, "check_translation"),
                          (continuum, "discrete_orbit")):
            monkeypatch.setattr(mod, name, _refuse)
        code, out = run(capsys, [*argv, "--format", "csv"])
        assert code == 2 and out == ""


class TestLimitCheck:
    def test_three_decreasing_errors(self, capsys):
        code, out = run(capsys, ["ode", "--limit-check", "--prec", "128"])
        assert code == 0
        data = json.loads(out)["data"]
        errs = data["errors"]
        assert len(errs) == 3 and errs[0] > errs[1] > errs[2] > 0
        assert data["decreasing"] and data["fitted_order"] >= 0.8

    def test_runs_at_requested_precision(self, capsys, monkeypatch):
        seen = []
        orbit = continuum.discrete_orbit

        def spy(*args, **kwargs):
            seen.append(mp.mp.prec)
            return orbit(*args, **kwargs)
        monkeypatch.setattr(continuum, "discrete_orbit", spy)
        code, out = run(capsys, ["ode", "--limit-check", "--prec", "160"])
        assert code == 0
        assert json.loads(out)["config"]["prec"] == 160
        assert seen == [160, 160, 160]

    def test_window_across_singularity(self, capsys, monkeypatch):
        for mod in (qpvi, painleve, continuum):
            monkeypatch.setattr(mod, "phi_orbit", _refuse)
        code, out = run(capsys, ["ode", "--limit-check", "--t0", "1.2", "--t1", "0.8"])
        assert code == 2 and out == ""
