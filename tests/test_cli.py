import argparse
import json

import mpmath as mp
import pytest

import qpvi
from qpvi import cli, continuum, painleve, qseries, verify, weyl

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
        code, out = run(capsys, ["moments", *WEIGHT, "--K", "14"])
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"version", "config", "data"}
        assert doc["config"]["prec"] == 128
        assert doc["data"]["K"] == 14
        assert len(doc["data"]["c"]) == 29
        assert doc["data"]["c"][14] == [1.0, 0.0]

    def test_default_range(self, capsys):
        code, out = run(capsys, ["moments", *WEIGHT])
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["K"] == doc["data"]["K"] == 46 and "N" not in doc["config"]

    def test_csv(self, capsys):
        code, out = run(capsys, ["moments", *WEIGHT, "--K", "3", "--format", "csv"])
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


class TestVerifyAll:
    def test_complex_b_passes_every_check(self, capsys):
        # the default a with a non-real b: check 05 compares Theta*_n with
        # its closed form, whose constant term carries conj(b)
        code, out = run(capsys, ["verify-all", "--b", "0.2,0.6"])
        lines = out.splitlines()
        assert code == 0, out
        assert sum(line.startswith("[PASS]") for line in lines) == 13
        assert lines[-1] == "all 13 checks passed"

    def test_out_writes_the_printed_results(self, capsys, tmp_path):
        path = tmp_path / "checks.json"
        code, out = run(capsys, ["verify-all", "--out", str(path)])
        lines = out.splitlines()
        assert code == 0, out
        doc = json.loads(path.read_text())
        assert set(doc) == {"version", "config", "data"}
        results = doc["data"]["results"]
        assert doc["data"]["all_passed"] is True and len(results) == 13
        # names, values and verdicts round-trip to the printed lines
        assert [verify.CheckResult(**r).line() for r in results] == lines[:13]
        assert [r["index"] for r in results] == list(range(1, 14))
        assert all(r["passed"] for r in results)
        assert results[6]["name"] == "det A_n = -q^n V W"


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
        code, out = run(capsys, ["ode", "--t1", "0.7", "--npoints", "5", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "t,re_u,im_u,re_v,im_v"
        assert len(lines) == 7

    @pytest.mark.parametrize("argv", [["--v0", "0,0", "--npoints", "3"],
                                      ["--t1", "0.4", "--u0", "0.3,0", "--v0", "0.01,0"]],
                             ids=["v0-zero", "movable-pole"])
    def test_ode_numerical_failure(self, capsys, argv):
        code = cli.main(["ode", *argv])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("numerical failure:")

    def test_ode_too_few_points(self, capsys):
        code, out = run(capsys, ["ode", "--t1", "0.7", "--npoints", "1"])
        assert code == 2 and out == ""

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
                                      ["limit-check"]],
                             ids=["lax", "orbit", "weyl", "verify-all", "limit-check"])
    def test_csv_refused_where_output_is_json(self, capsys, monkeypatch, argv):
        for mod, name in ((qseries, "moments"), (weyl, "check_translation"),
                          (continuum, "discrete_orbit")):
            monkeypatch.setattr(mod, name, _refuse)
        # the JSON-only subcommands have no --format: argparse exits
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--format", "csv"])
        assert exc.value.code == 2 and capsys.readouterr().out == ""


class TestLimitCheck:
    def test_three_decreasing_errors(self, capsys):
        code, out = run(capsys, ["limit-check", "--prec", "128"])
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
        code, out = run(capsys, ["limit-check", "--prec", "160"])
        assert code == 0
        assert json.loads(out)["config"]["prec"] == 160
        assert seen == [160, 160, 160]

    def test_v0_zero_is_numerical_failure(self, capsys, monkeypatch):
        for mod in (qpvi, painleve, continuum):
            monkeypatch.setattr(mod, "phi_orbit", _refuse)
        code = cli.main(["limit-check", "--v0", "0,0"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("numerical failure:")

    def test_window_across_singularity(self, capsys, monkeypatch):
        for mod in (qpvi, painleve, continuum):
            monkeypatch.setattr(mod, "phi_orbit", _refuse)
        code, out = run(capsys, ["limit-check", "--t0", "1.2", "--t1", "0.8"])
        assert code == 2 and out == ""


LIMIT_FLAGS = {"--t0", "--t1", "--u0", "--v0", "--K2", "--Theta2", "--C1", "--C2", "--C3",
               "--C4"}

class TestBadInput:
    """Bad values are configuration errors, found before any computation."""

    @pytest.fixture(autouse=True)
    def refuse_work(self, monkeypatch):
        for mod, name in ((qseries, "moments"), (continuum, "integrate"),
                          (continuum, "limit_check"), (verify, "run_all")):
            monkeypatch.setattr(mod, name, _refuse)

    @staticmethod
    def config_error(capsys, argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("configuration error:")

    @pytest.mark.parametrize("argv", [["moments", "--a", "nan"], ["orbit", "--b", "nan,0"],
                                      ["verify-all", "--a", "nan"], ["ode", "--K2", "nan"],
                                      ["limit-check", "--K2", "nan"]],
                             ids=["moments", "orbit", "verify-all", "ode", "limit-check"])
    def test_nan_parameter(self, capsys, argv):
        self.config_error(capsys, argv)

    def test_env_precision_not_a_number(self, capsys, monkeypatch):
        monkeypatch.setenv("QPVI_PREC", "abc")
        self.config_error(capsys, ["verblunsky", "--N", "3"])


# the exact option set of each subcommand: a new or lost flag fails here
OPTIONS = {
    "moments": {"--a", "--b", "--q", "--K", "--prec", "--format", "--out"},
    "verblunsky": {"--a", "--b", "--q", "--N", "--prec", "--format", "--out"},
    "lax": {"--a", "--b", "--q", "--N", "--prec", "--out"},
    "orbit": {"--a", "--b", "--q", "--prec", "--n-start", "--steps", "--out"},
    "weyl": {"--prec", "--seed", "--out"},
    "ode": {"--format", "--out", "--npoints", *LIMIT_FLAGS},
    "limit-check": {"--prec", "--out", "--K1", *LIMIT_FLAGS},
    "verify-all": {"--a", "--b", "--q", "--prec", "--seed", "--out"},
}

# cheap base runs; a flag given twice takes its last value
BASE = {
    "moments": ["moments", "--K", "10", "--prec", "64"],
    "verblunsky": ["verblunsky", "--N", "3", "--prec", "64"],
    "lax": ["lax", "--N", "1", "--prec", "64"],
    "orbit": ["orbit", "--n-start", "2", "--steps", "1", "--prec", "64"],
    "weyl": ["weyl", "--prec", "64"],
    "ode": ["ode", "--t1", "0.7", "--npoints", "3"],
    "limit-check": ["limit-check", "--prec", "64"],
}

# (base, flag, value, other value): the two runs must give different data
FLAG_VALUES = [
    *((cmd, flag, v1, v2) for cmd in ("moments", "verblunsky", "lax", "orbit")
      for flag, v1, v2 in (("--a", "0.3,0.2", "0.2,0.3"), ("--b", "0.5", "0.4"),
                           ("--q", "0.5", "0.4"))),
    ("moments", "--K", "3", "4"),
    ("moments", "--prec", "53", "128"),
    ("verblunsky", "--N", "3", "4"), ("verblunsky", "--prec", "53", "128"),
    ("lax", "--N", "1", "2"), ("lax", "--prec", "64", "128"),
    ("orbit", "--n-start", "2", "3"), ("orbit", "--steps", "1", "2"),
    ("orbit", "--prec", "64", "128"),
    ("weyl", "--seed", "0", "1"), ("weyl", "--prec", "64", "128"),
    *((cmd, flag, v1, v2) for cmd in ("ode", "limit-check")
      for flag, v1, v2 in (("--t0", "0.8", "0.75"), ("--t1", "0.7", "0.6"),
                           ("--u0", "0.3,0.1", "0.3,0.2"), ("--v0", "1.2,-0.2", "1.1,-0.2"),
                           ("--K2", "-0.3", "-0.2"), ("--Theta2", "0.25", "0.3"),
                           *((f"--C{i}", "0.1", "0.05") for i in range(1, 5)))),
    ("ode", "--npoints", "3", "4"),
    # K1 drops out of the limit system, and the trajectory is double
    # precision: both act on the discrete orbits of the study alone
    ("limit-check", "--K1", "0.4", "0.5"),
    ("limit-check", "--prec", "64", "128"),
]


@pytest.mark.parametrize("cmd,flag", [(cmd, flag) for cmd in sorted(OPTIONS)
                                      for flag in sorted(OPTIONS[cmd] - {"--format", "--out"})])
def test_text_is_not_a_number(capsys, monkeypatch, cmd, flag):
    """Every numeric flag given text is a configuration error, found before
    any computation; argparse refuses the int and float flags itself."""
    for mod, name in ((qseries, "moments"), (continuum, "integrate"),
                      (continuum, "limit_check"), (verify, "run_all")):
        monkeypatch.setattr(mod, name, _refuse)
    try:
        code = cli.main([cmd, f"{flag}=abc"])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "configuration error" in captured.err and "Traceback" not in captured.err


def _subcommands():
    ap = cli.build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {a.option_strings[-1] for a in sp._actions
                   if not isinstance(a, argparse._HelpAction)}
            for name, sp in sub.choices.items()}


class TestContract:
    def test_option_sets(self):
        assert _subcommands() == OPTIONS
        assert sum(len(opts) for opts in OPTIONS.values()) == 62

    def test_every_value_flag_is_exercised(self):
        # --format and --out have their own tests, and verify-all's flags
        # are traced into run_all below
        covered = {(cmd, flag) for cmd, flag, _, _ in FLAG_VALUES}
        for cmd, opts in OPTIONS.items():
            if cmd == "verify-all":
                continue
            for flag in opts - {"--format", "--out"}:
                assert (cmd, flag) in covered, (cmd, flag)

    @pytest.mark.parametrize("cmd,flag,v1,v2", FLAG_VALUES,
                             ids=[f"{c}{f}" for c, f, _, _ in FLAG_VALUES])
    def test_value_changes_output(self, capsys, cmd, flag, v1, v2):
        def data(value):
            argv = [*BASE[cmd], flag, value]
            code, out = run(capsys, argv)
            if code != 0:
                return code
            return out if argv[0] == "orbit" else json.loads(out)["data"]
        assert data(v1) != data(v2)

    def test_verify_all_passes_its_flags(self, capsys, monkeypatch):
        seen = {}

        def spy(params, prec, seed):
            seen.update(a=params.a, b=params.b, q=params.q, prec=prec, seed=seed)
            return []
        monkeypatch.setattr(verify, "run_all", spy)
        code, _ = run(capsys, ["verify-all", "--a", "0.2,0.1", "--b", "0.4,-0.1",
                               "--q", "0.3", "--prec", "96", "--seed", "7"])
        assert code == 0
        assert seen.pop("prec") == 96 and seen.pop("seed") == 7
        expect = {"a": 0.2 + 0.1j, "b": 0.4 - 0.1j, "q": 0.3}
        assert all(abs(seen[k] - v) < 1e-15 for k, v in expect.items())

    def _params_of(self, capsys, monkeypatch, argv):
        """The weight `qpvi verify-all` hands to `verify.run_all`."""
        seen = []
        monkeypatch.setattr(verify, "run_all",
                            lambda params, prec, seed: seen.append(params) or [])
        code, _ = run(capsys, argv)
        assert code == 0
        return seen[0]

    def test_default_weight_is_the_reference(self, capsys, monkeypatch):
        params = self._params_of(capsys, monkeypatch, ["verify-all"])
        assert params == verify.VerificationContext().params

    def test_default_limit_is_the_reference(self, capsys, monkeypatch):
        seen = {}
        rep = continuum.LimitReport(eps=(0.01, 0.005), steps=(69, 138),
                                    errors=(2e-2, 1e-2), orders=(1.0,), fitted_order=1.0)
        monkeypatch.setattr(continuum, "limit_check",
                            lambda **kwargs: seen.update(kwargs) or rep)
        code, _ = run(capsys, ["limit-check"])
        assert code == 0
        with mp.workprec(seen["prec"]):
            lp, window = continuum.reference_limit()
        assert seen["lp"] == lp and seen["window"] == window

    def test_negative_real_part(self, capsys, monkeypatch):
        params = self._params_of(capsys, monkeypatch,
                                 ["verify-all", "--a=-0.2,0.1", "--b=-0.4,0.3"])
        assert abs(params.a - complex(-0.2, 0.1)) < 1e-15
        assert abs(params.b - complex(-0.4, 0.3)) < 1e-15
        # with a space, argparse takes the value for an option
        with pytest.raises(SystemExit):
            cli.main(["verify-all", "--b", "-0.4,0.3"])

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_precision_floor_everywhere(self, capsys, monkeypatch, command):
        for mod, name in ((qseries, "moments"), (weyl, "check_translation"),
                          (continuum, "integrate"), (continuum, "limit_check"),
                          (verify, "run_all")):
            monkeypatch.setattr(mod, name, _refuse)
        # `ode` has no --prec; it parses its flags at QPVI_PREC
        monkeypatch.setenv("QPVI_PREC", "20")
        argv = [command, "--prec", "20"] if "--prec" in OPTIONS[command] else [command]
        code, out = run(capsys, argv)
        assert code == 2 and out == ""

    def test_limit_gate_is_check_13s(self, capsys, monkeypatch, ctx):
        # a decreasing study of order 0.9 fails check 13 and the CLI alike
        rep = continuum.LimitReport(eps=(0.01, 0.005, 0.0025), steps=(69, 138, 277),
                                    errors=(4e-2, 2.2e-2, 1.2e-2), orders=(0.9, 0.9),
                                    fitted_order=0.9)
        monkeypatch.setattr(continuum, "limit_check", lambda **kwargs: rep)
        assert rep.decreasing and not rep.passed
        assert not verify.check_13_continuum(ctx).passed
        code, out = run(capsys, ["limit-check", "--prec", "64"])
        assert code == 3
        assert json.loads(out)["data"]["fitted_order"] == 0.9
