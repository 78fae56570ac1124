import json
import math
import os
import sys

import pytest

from laguerre_ops import lipschitz
from laguerre_ops.errors import ConfigError
from laguerre_ops.expansion import random_expansion
from laguerre_ops.harness import (
    SCENARIOS,
    ScenarioConfig,
    _TABLE,
    _refined_t_grid,
    check_pminusI_power,
    main,
    run_scenario,
)
from laguerre_ops.lipschitz import default_t_grid
from laguerre_ops.report import (
    BoundReport,
    CSV_HEADER,
    ReportRow,
    emit_report,
    parse_report,
    report_to_csv,
    report_to_json,
)


def make_report():
    rows = (
        ReportRow("t=0.5", 0.123456789012345678, 1.0),
        ReportRow("t=1", float("inf"), math.inf),
    )
    return BoundReport(
        scenario="demo",
        claim="example claim",
        config={"beta": 0.5, "alpha": [0.5]},
        rows=rows,
        max_ratio=0.25,
        passed=True,
        wall_time=1.5,
    )


class TestReportSerialization:
    def test_json_roundtrip(self):
        r = make_report()
        back = parse_report(report_to_json(r))
        assert back.same_results(r)
        # floats survive exactly through the 17-digit decimal strings
        assert back.rows[0].measured == r.rows[0].measured

    def test_csv_header_and_rows(self):
        text = report_to_csv(make_report())
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("demo,t=0.5,")

    def test_empty_rows_still_valid(self):
        r = BoundReport("demo", "c", {}, (), 0.0, True)
        doc = json.loads(report_to_json(r))
        assert doc["rows"] == []
        assert doc["summary"]["pass"] is True

    def test_emit_file(self, tmp_path):
        path = tmp_path / "r.json"
        emit_report(make_report(), path, "json")
        assert parse_report(path.read_text()).scenario == "demo"
        with pytest.raises(ConfigError):
            emit_report(make_report(), path, "yaml")

    @pytest.mark.parametrize("text", ["{}", "[]", "not json", '{"scenario": "demo", "rows": 5}'])
    def test_malformed_text_is_config_error(self, text):
        with pytest.raises(ConfigError):
            parse_report(text)

    @pytest.mark.parametrize("value", ['"no"', "1", "null"])
    def test_pass_that_is_not_a_json_bool_is_config_error(self, value):
        text = report_to_json(make_report()).replace('"pass": true', f'"pass": {value}')
        assert f'"pass": {value}' in text
        with pytest.raises(ConfigError, match="pass must be true or false"):
            parse_report(text)


class TestScenarioConfig:
    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="nope")

    def test_constraint_thm42(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="thm42", beta=0.5, lam=0.8)

    def test_constraint_thm44(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="thm44", beta=1.2, lam=0.5)

    @pytest.mark.parametrize("levels", [1, 11, 541, 542])
    def test_t_levels_accepted_iff_grid_times_are_normal(self, levels):
        # the largest t_levels whose dyadic and refined grids hold only
        # positive normal floats is 541; at 542 a midpoint underflows to 0
        times = default_t_grid(levels) + _refined_t_grid(levels)
        if min(times) >= sys.float_info.min:
            assert ScenarioConfig(scenario="thm31", t_levels=levels).t_levels == levels
        else:
            with pytest.raises(ConfigError):
                ScenarioConfig(scenario="thm31", t_levels=levels)

    def test_rejects_fields_the_scenario_does_not_read(self):
        # prop31 reads beta and degree, not lam or t_levels; a field the
        # runner never reads would be echoed in the report and ignored
        with pytest.raises(ConfigError, match="does not read lam, t_levels"):
            ScenarioConfig("prop31", lam=0.3, t_levels=3)
        for scenario in ("subordination", "kernel-mass", "lemma21", "fdiff-identities"):
            with pytest.raises(ConfigError):
                ScenarioConfig(scenario, beta=0.5)
        # the defaults, the fields a scenario reads, and d, alpha and seed pass
        ScenarioConfig("subordination", degree=6, t_levels=11)
        ScenarioConfig("prop31", beta=0.6, degree=3, seed=2)
        ScenarioConfig("thm31", beta=0.4, lam=0.5, degree=3, t_levels=4)
        ScenarioConfig("subordination", d=2, alpha=(0.5, 0.5), seed=4)

    @pytest.mark.parametrize("scenario, field", [
        (scenario, field) for scenario, entry in _TABLE.items()
        for field in ("beta", "lam", "degree", "t_levels") if field not in entry.reads])
    def test_each_unread_field_is_named(self, scenario, field):
        # a value other than the field's default, in a config that is valid otherwise
        value = {"beta": 0.5, "lam": 0.3, "degree": 3, "t_levels": 4}[field]
        with pytest.raises(ConfigError, match=f"^scenario {scenario} does not read {field}$"):
            ScenarioConfig(scenario, **{field: value})

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json('{"scenario": "subordination", "bogus": 1}')

    def test_from_json_rejects_x_points(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json('{"scenario": "prop31", "x_points": 24}')

    def test_from_json_roundtrip(self):
        cfg = ScenarioConfig.from_json(
            '{"scenario": "prop31", "alpha": [0.5], "seed": 3, "beta": 0.6}'
        )
        assert cfg.seed == 3 and cfg.beta == 0.6


class TestScenarios:
    def test_subordination_passes(self):
        r = run_scenario(ScenarioConfig(scenario="subordination"))
        assert r.passed
        assert all(row.measured <= 1e-8 for row in r.rows)

    def test_fdiff_passes(self):
        assert run_scenario(ScenarioConfig(scenario="fdiff-identities")).passed

    def test_prop31_passes(self):
        assert run_scenario(ScenarioConfig(scenario="prop31")).passed

    def test_spectral_vs_kernel_runs_at_configured_alpha(self):
        r = run_scenario(ScenarioConfig(scenario="spectral-vs-kernel", alpha=(-0.25,)))
        assert r.passed
        assert r.rows and all(",a=-0.25,k=" in row.point for row in r.rows)
        names = {row.point.split(",")[0] for row in r.rows}
        assert names == {"heat", "poisson", "potential", "integral", "derivative",
                         "bessel-derivative"}

    @pytest.mark.parametrize("alpha", [-0.5, -0.9, -0.99])
    def test_kernel_mass_negative_alpha(self, alpha):
        # each mass is the L1 rule's, whose panel at y = 0 is exact for y^alpha
        r = run_scenario(ScenarioConfig(scenario="kernel-mass", alpha=(alpha,)))
        assert r.passed
        assert all(row.measured <= 1e-9 for row in r.rows[:-1])
        assert r.extra["min_node_value"] >= 0.0

    @pytest.mark.parametrize("alpha", [-0.9, -0.99])
    def test_spectral_vs_kernel_negative_alpha(self, alpha):
        # the heat rule's Jacobi panel is exact for the y^alpha endpoint
        r = run_scenario(ScenarioConfig(scenario="spectral-vs-kernel", alpha=(alpha,)))
        assert r.passed

    def test_report_config_reruns(self):
        r = run_scenario(ScenarioConfig(scenario="prop33", beta=0.7))
        parsed = parse_report(report_to_json(r))
        assert parsed.config["beta"] == 0.7
        assert run_scenario(ScenarioConfig(**parsed.config)).same_results(r)

    def test_determinism(self):
        a = run_scenario(ScenarioConfig(scenario="subordination"))
        b = run_scenario(ScenarioConfig(scenario="subordination"))
        assert a.same_results(b)

    @pytest.mark.parametrize("scenario", ["prop31", "prop33", "pminusI", "thm31",
                                          "thm-frac-integral", "thm42", "thm33", "thm44"])
    def test_theorem_reads_every_seminorm_from_one_synthesis(self, scenario, monkeypatch):
        # every seminorm and sup a claim reads; for a theorem the input's and every
        # output's A_beta, on both t grids, and ||f||
        calls = []
        synthesize = lipschitz._synthesize
        monkeypatch.setattr(lipschitz, "_synthesize",
                            lambda *args: calls.append(args) or synthesize(*args))
        run_scenario(ScenarioConfig(scenario))
        assert len(calls) == 1

    def test_frac_integral_passes_on_its_row_names(self):
        r = run_scenario(ScenarioConfig("thm-frac-integral"))
        assert r.passed
        assert [row.point for row in r.rows] == ["integral,ratio", "integral,refined",
                                                 "integral,drift"]
        assert r.claim == _TABLE["thm-frac-integral"].claim

    def test_frac_integral_at_d2(self):
        r = run_scenario(ScenarioConfig("thm-frac-integral", d=2, alpha=(0.5, 0.5)))
        assert r.passed
        ratio, refined, drift = (row.measured for row in r.rows)
        assert 0.0 < ratio < math.inf and 0.0 < refined < math.inf
        assert drift == r.max_ratio <= 0.10

    def test_pminusI_report_has_the_rows_of_the_public_check(self):
        r = run_scenario(ScenarioConfig("pminusI"))
        params = ScenarioConfig("pminusI").params
        check = check_pminusI_power(random_expansion(params, 6, seed=0), params, 0.5)
        assert r.passed and r.rows == check.rows
        assert (r.claim, r.max_ratio) == (check.claim, check.max_ratio)
        assert check.scenario == r.scenario == "pminusI"

    def test_theorem_ratio_regression(self):
        with open(os.path.join(os.path.dirname(__file__), "fixtures",
                               "theorem_ratios.json")) as fh:
            fixture = json.load(fh)
        r = run_scenario(ScenarioConfig(scenario="thm42"))
        got = next(row.measured for row in r.rows if row.point == "derivative,ratio")
        assert got == pytest.approx(float(fixture["thm42:derivative"]), rel=1e-12)


class TestCli:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out.split()
        assert list(SCENARIOS) == out

    def test_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "sub.json"
        code = main(
            ["run", "--scenario", "subordination", "--out", str(out)]
        )
        assert code == 0
        report = parse_report(out.read_text())
        assert report.scenario == "subordination" and report.passed

    def test_run_csv(self, tmp_path):
        out = tmp_path / "sub.csv"
        code = main(
            ["run", "--scenario", "fdiff-identities", "--out", str(out),
             "--format", "csv"]
        )
        assert code == 0
        assert out.read_text().startswith(CSV_HEADER)

    def test_config_file(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"scenario": "prop31", "seed": 5}')
        assert main(["run", "--scenario", "prop31", "--config", str(cfgfile)]) == 0

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["run", "--scenario", "prop31", "--config", str(tmp_path / "missing.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "r.json"
        assert main(["run", "--scenario", "subordination", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""  # the path is checked before the run

    def test_scenario_mismatch_is_config_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"scenario": "prop31"}')
        code = main(
            ["run", "--scenario", "subordination", "--config", str(cfgfile)]
        )
        assert code == 2

    @pytest.mark.parametrize("d", [1, 2])
    def test_exit_codes(self, tmp_path, capsys, d):
        one_dimensional = {"kernel-mass", "spectral-vs-kernel", "lemma21"}
        cfgfile = tmp_path / "cfg.json"
        for scenario in SCENARIOS:
            cfgfile.write_text(json.dumps({"scenario": scenario, "d": d, "alpha": [0.5] * d}))
            code = main(["run", "--scenario", scenario, "--config", str(cfgfile)])
            assert code in (0, 1, 2), scenario
            if d == 2 and scenario in one_dimensional:
                assert code == 2, scenario

    @pytest.mark.parametrize(
        "doc",
        [
            {"scenario": "kernel-mass", "d": 2, "alpha": [0.5, 0.5]},
            {"scenario": "lemma21", "d": 2, "alpha": [0.5, 0.5]},
            {"scenario": "prop31", "d": 2},
            {"scenario": "spectral-vs-kernel", "d": 2, "alpha": [0.5, 0.5]},
            {"scenario": "prop33", "beta": 1.5},
            {"scenario": "prop31", "beta": -1},
            {"scenario": "prop31", "beta": 1e400},
            {"scenario": "thm31", "lam": math.nan},
            {"scenario": "thm44", "beta": math.inf},
            {"scenario": "thm31", "t_levels": 0},
            {"scenario": "thm31", "t_levels": 542},
            {"scenario": "thm31", "t_levels": 600},
            {"scenario": "thm31", "t_levels": 10**400},
            {"scenario": "prop31", "beta": 800},
            {"scenario": "thm44", "beta": 1e300},
            {"scenario": "thm31", "degree": -1},
            {"scenario": "subordination", "tolerances": {"abs": "x"}},
            {"scenario": "prop31", "alpha": 0.5},
            {"scenario": "prop31", "seed": -1},
            {"scenario": "prop31", "seed": 1.5},
            {"d": 1},
            "not json",
            "5",
            {"scenario": "prop31", "alpha": [math.nan]},
            {"scenario": "thm31", "alpha": [math.inf]},
            {"scenario": "prop31", "lam": 0.3},
            {"scenario": "prop33", "t_levels": 3},
            {"scenario": "subordination", "beta": 0.3},
            {"scenario": "fdiff-identities", "degree": 2},
            {"scenario": "pminusI", "beta": 1},
            {"scenario": "pminusI", "lam": 0.3},
        ],
    )
    def test_bad_config_is_config_error(self, tmp_path, capsys, doc):
        # a text document is run as prop31; every one exits 2 with "error:",
        # also where the run leaves an operator's domain (a DomainError)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        scenario = "prop31" if isinstance(doc, str) else doc.get("scenario", "prop31")
        assert main(["run", "--scenario", scenario, "--config", str(cfgfile)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
