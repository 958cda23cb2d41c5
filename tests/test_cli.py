import json
import re

import pytest

from higgsflow.cli import load_config, main


def run_cli(*argv):
    return main(list(argv))


def test_catalog_lists_scenarios(capsys):
    assert run_cli("catalog") == 0
    out = capsys.readouterr().out
    assert "nilpotent-r2" in out and "extension-sweep" in out
    assert run_cli("catalog", "--json") == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) >= 7


def test_validate_scenarios(capsys):
    assert run_cli("validate", "--scenario", "nilpotent-r2") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is True


def test_validate_unknown_scenario(capsys):
    assert run_cli("validate", "--scenario", "nope") == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"]


def test_unknown_scenario_error_is_the_bare_message(tmp_path, capsys):
    # the message of get_scenario's KeyError, without the quotes that
    # str() of a KeyError adds
    from higgsflow import scenario_catalog
    known = ", ".join(sorted(sc.name for sc in scenario_catalog()))
    assert run_cli("run", "--scenario", "nosuch", "--out-dir",
                   str(tmp_path)) == 2
    assert json.loads(capsys.readouterr().err)["error"] == \
        f"unknown scenario 'nosuch'; known scenarios: {known}"


def test_state_file_roundtrip_through_cli(tmp_path, capsys):
    from higgsflow import build_scenario, save_state
    snap = tmp_path / "state.snap"
    save_state(build_scenario("nilpotent-r2", N=16), snap)
    assert run_cli("validate", "--state-file", str(snap)) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True

    # missing files are a structured failure, not a traceback
    assert run_cli("validate", "--state-file", str(tmp_path / "nope.snap")) == 2
    assert json.loads(capsys.readouterr().err)["error"]


def test_run_flat_trivial_immediate_pass(tmp_path, capsys):
    code = run_cli("run", "--scenario", "flat-trivial-r1",
                   "--flow-kind", "donaldson", "--flow-T", "0.05",
                   "--flow-dt", "1e-2", "--target-epsilon", "1e-8",
                   "--out-dir", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["targets_ok"] is True
    assert summary["trace"]["final"]["ymh_energy"] == 0.0
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "certificate.json").exists()
    assert (tmp_path / "final_state.snap").exists()


def test_run_certificate_failure_exit_code(tmp_path):
    code = run_cli("run", "--scenario", "nilpotent-r2", "--N", "16",
                   "--flow-kind", "none", "--target-epsilon", "1e-3",
                   "--out-dir", str(tmp_path))
    assert code == 1
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["passed"] is False


def test_run_long_flow_reaches_flatness_target(tmp_path):
    code = run_cli("run", "--scenario", "nilpotent-r2", "--N", "16",
                   "--flow-kind", "donaldson", "--flow-T", "100",
                   "--flow-dt", "1e-3", "--target-epsilon", "0.05",
                   "--out-dir", str(tmp_path))
    assert code == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["passed"] and cert["eps_achieved"] < 0.05
    summary = json.loads((tmp_path / "summary.json").read_text())
    # polynomial decay: the fitted YMH exponent sits near -2
    assert summary["trace"]["decay_exponent_ymh"] == pytest.approx(-2.0, abs=0.3)


def test_adaptive_run_on_conformal_scenario_is_energy_monotone(tmp_path):
    code = run_cli("run", "--scenario", "conformal-r1", "--N", "64",
                   "--flow-T", "0.05", "--flow-dt", "1e-3",
                   "--out-dir", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["energy_monotone"] is True
    assert "rejected_by" not in summary
    # at n = 1 E = ||K||^2 holds pointwise: the defect is roundoff (2.0e-16)
    assert summary["energy_defect"] <= 1e-14


def test_zero_grid_resolution_is_rejected(capsys):
    assert run_cli("validate", "--scenario", "nilpotent-r2", "--N", "0") == 2
    err = json.loads(capsys.readouterr().err)
    assert "grid resolution must be even and >= 8" in err["error"]


def test_run_determinism_byte_identical(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code = run_cli("run", "--scenario", "nilpotent-r2", "--N", "16",
                       "--flow-kind", "ymh", "--flow-T", "0.25",
                       "--flow-dt", "1e-2", "--flow-fixed", "1",
                       "--target-epsilon", "10.0",
                       "--out-dir", str(d))
        assert code == 0
    assert (dirs[0] / "trace.csv").read_bytes() == (dirs[1] / "trace.csv").read_bytes()
    assert (dirs[0] / "final_state.snap").read_bytes() == \
        (dirs[1] / "final_state.snap").read_bytes()


def test_run_blowup_saves_last_healthy_snapshot(tmp_path, capsys, break_expm):
    # a step that blows up (its third predictor is planted non-finite) must
    # exit nonzero and leave the last healthy state on disk
    break_expm(float("nan"), first=5)
    code = run_cli("run", "--scenario", "conformal-r1",
                   "--flow-kind", "donaldson", "--flow-T", "20.0",
                   "--flow-dt", "0.5", "--flow-fixed", "1",
                   "--out-dir", str(tmp_path))
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert "blew up" in err["error"] and err["detail"]["reached_t"] > 0.0
    assert err["detail"]["reason"] == "breakdown"
    from higgsflow import load_state
    load_state(tmp_path / "last_healthy.snap")  # its metric is positive


@pytest.mark.parametrize("kind", ["donaldson", "ymh"])
def test_run_stopped_by_the_step_cap_exits_3_with_the_last_state(
        tmp_path, capsys, monkeypatch, kind):
    import higgsflow.flows
    from higgsflow import load_state
    monkeypatch.setattr(higgsflow.flows, "MAX_STEPS", 2)
    code = run_cli("run", "--scenario", "nilpotent-r2", "--N", "8",
                   "--flow-kind", kind, "--flow-T", "0.25",
                   "--flow-dt", "1e-2", "--out-dir", str(tmp_path))
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    # a stop at the cap keeps a healthy state: it is named, not a blowup
    assert err["error"].startswith("flow stopped at the step cap: step cap "
                                   "MAX_STEPS = 2 reached")
    assert err["detail"]["reason"] == "step_cap"
    assert 0.0 < err["detail"]["reached_t"] < 0.25
    assert (tmp_path / "trace.csv").exists()
    assert not (tmp_path / "summary.json").exists()
    load_state(tmp_path / "last_healthy.snap")  # its metric is positive


def test_run_lost_positivity_saves_the_last_healthy_state(tmp_path, capsys,
                                                          break_expm):
    from higgsflow import TorusBase, load_state, save_state
    from higgsflow.scenarios import random_valid_state
    snap = tmp_path / "start.snap"
    save_state(random_valid_state(TorusBase(1, 16), 3, seed=1, amplitude=0.3),
               snap)
    out = tmp_path / "out"
    # from the second step's result on, H' = 0: finite, not positive
    break_expm(0.0, first=4)
    code = run_cli("run", "--state-file", str(snap), "--flow-fixed", "1",
                   "--flow-dt", "0.02", "--flow-T", "0.8", "--out-dir", str(out))
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert "blew up" in err["error"] and err["detail"]["reached_t"] > 0.0
    assert (out / "trace.csv").exists()
    assert (out / "last_healthy.snap").read_bytes() != snap.read_bytes()
    load_state(out / "last_healthy.snap")  # its metric is positive


def test_n_is_not_an_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("validate", "--scenario", "nilpotent-r2", "--n", "2")
    assert excinfo.value.code == 2
    cfg = tmp_path / "n.cfg"
    cfg.write_text("scenario = nilpotent-r2\nn = 2\n")
    capsys.readouterr()
    assert run_cli("validate", "--config", str(cfg)) == 2
    assert "unknown key" in json.loads(capsys.readouterr().err)["error"]


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# donaldson run at desk scale\n"
        "scenario = nilpotent-r2\n"
        "N = 16\n"
        "flow.kind = donaldson\n"
        "flow.dt = 1e-2\n"
        "flow.T = 0.5\n"
        "target.epsilon = 10.0\n")
    out = tmp_path / "out"
    code = run_cli("run", "--config", str(cfg), "--out-dir", str(out),
                   "--flow-T", "0.25")
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["flow"]["T"] == 0.25  # flag overrides config


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario = nilpotent-r2\nbogus = 1\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_config(str(cfg))


def test_config_rejects_a_key_set_twice(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("scenario = nilpotent-r2\nflow.T = 0.004\n# comment\n"
                   "flow.T = 0.002\n")
    with pytest.raises(ValueError, match="key 'flow.T' is set twice, on lines 2 and 4"):
        load_config(str(cfg))
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(cfg), "--out-dir", str(out)) == 2
    assert "set twice" in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()


def test_sweep_rho_outputs(tmp_path, capsys):
    code = run_cli("sweep-rho", "--out-dir", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "rho_sweep.csv").read_text().splitlines()
    assert rows[0] == "rho,sup_a,sup_b1,sup_c1,sup_f"
    assert len(rows) == 6
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rho_sweep.csv",
                                                          "rho_sweep.json"]
    payload = json.loads((tmp_path / "rho_sweep.json").read_text())
    assert payload["passed"] is True
    assert abs(payload["fitted_slope"] - 2.0) < 0.2
    assert all(chk["passed"] for chk in payload["epsilon_checks"])


def test_verify_filtration_cli(tmp_path, capsys):
    code = run_cli("verify-filtration", "--scenario", "nilpotent-r2",
                   "--N", "16", "--target-epsilon", "1e-6",
                   "--out-dir", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "filtration.json").read_text())
    assert payload["passed"] is True
    out = capsys.readouterr().out
    assert "PASS" in out


def test_flow_equivalence_cli(tmp_path):
    code = run_cli("flow-equivalence", "--scenario", "nilpotent-r2",
                   "--N", "16", "--flow-T", "0.25", "--flow-dt", "1e-2",
                   "--tolerance", "1e-3", "--out-dir", str(tmp_path))
    assert code == 0
    payload = json.loads((tmp_path / "flow_equivalence.json").read_text())
    assert payload["max_norm_residual"] <= 1e-3
    # over both runs; at n = 1 it is roundoff (2.2e-16)
    assert payload["energy_defect"] <= 1e-14


@pytest.mark.parametrize("flag, value", [
    ("--flow-T", "nan"), ("--flow-T", "-1"), ("--flow-T", "inf"),
    ("--flow-dt", "nan"), ("--flow-dt", "-1"), ("--flow-dt", "0")])
@pytest.mark.parametrize("verb", ["run", "flow-equivalence"])
def test_bad_flow_T_or_dt_is_rejected_before_running(verb, flag, value, tmp_path,
                                                     capsys):
    out = tmp_path / "out"
    code = run_cli(verb, "--scenario", "nilpotent-r2", flag, value,
                   "--out-dir", str(out))
    assert code == 2
    name = flag.removeprefix("--flow-")
    assert f"{name} must be finite" in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()   # no last_healthy.snap, nothing else either


@pytest.mark.parametrize("verb, flag, value, rule", [
    *(("verify-filtration", "--target-epsilon", v, "finite and > 0")
      for v in ("nan", "inf", "-1", "0")),
    *(("run", "--target-epsilon", v, "finite and > 0") for v in ("nan", "0")),
    *(("validate", "--tolerance", v, "finite and >= 0") for v in ("nan", "-1")),
    *(("flow-equivalence", "--tolerance", v, "finite and >= 0")
      for v in ("nan", "-1")),
    *(("run", "--flow-fixed", v, "0 or 1") for v in ("2", "-3"))])
def test_bad_config_value_is_rejected_before_running(verb, flag, value, rule,
                                                     tmp_path, capsys):
    out = tmp_path / "out"
    args = [verb, "--scenario", "chain-r3" if verb == "verify-filtration"
            else "nilpotent-r2", flag, value]
    if verb != "validate":
        args += ["--out-dir", str(out)]
    assert run_cli(*args) == 2
    key = flag.removeprefix("--").replace("-", ".", 1)
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith(f"{key} must be {rule}, got ")
    assert not out.exists()


def test_flow_equivalence_blowup_is_a_json_reason(tmp_path, capsys, break_expm):
    from higgsflow import load_state
    args = ("flow-equivalence", "--scenario", "conformal-r1", "--flow-T",
            "2.0", "--flow-dt", "0.5")
    # the metric flow runs first, and both flows take as many exponentials,
    # counted in a whole check; the third step of each flow in turn is
    # planted non-finite
    calls = break_expm(float("nan"), first=10**9)
    assert run_cli(*args, "--out-dir", str(tmp_path / "whole")) in (0, 1)
    capsys.readouterr()
    for flow, first in (("donaldson", 5), ("ymh", len(calls) // 2 + 5)):
        break_expm(float("nan"), first=first)
        out = tmp_path / flow
        code = run_cli(*args, "--out-dir", str(out))
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert "blew up" in err["error"] and err["detail"]["reached_t"] > 0.0
        assert err["detail"]["reason"] == "breakdown"
        assert err["detail"]["flow"] == flow
        assert err["detail"]["snapshot"] == str(out / "last_healthy.snap")
        assert (out / "trace.csv").exists()
        assert not (out / "flow_equivalence.json").exists()
        load_state(out / "last_healthy.snap")  # its metric is positive


def test_verify_filtration_stopped_by_the_step_cap_exits_3(tmp_path, capsys,
                                                          monkeypatch):
    import higgsflow.flows
    from higgsflow import (HiggsBundleState, TorusBase, build_scenario,
                           load_state, save_state)
    from higgsflow.scenarios import random_valid_state
    # nilpotent-r2 under a random metric: its rank-1 quotients are not flat,
    # so verify-filtration flows the first one
    structure = build_scenario("nilpotent-r2", N=16).structure
    metric = random_valid_state(TorusBase(1, 16), 2, 3).metric
    snap = tmp_path / "start.snap"
    save_state(HiggsBundleState(structure, metric), snap)
    monkeypatch.setattr(higgsflow.flows, "MAX_STEPS", 2)
    out = tmp_path / "out"
    code = run_cli("verify-filtration", "--state-file", str(snap),
                   "--scenario", "nilpotent-r2", "--flow-T", "0.5",
                   "--target-epsilon", "1e-9", "--out-dir", str(out))
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"].startswith("flow stopped at the step cap")
    detail = err["detail"]
    assert detail["reason"] == "step_cap" and detail["level"] == 0
    assert 0.0 < detail["reached_t"] < 0.5
    assert (out / "trace.csv").exists()
    assert not (out / "filtration.json").exists()
    quotient = load_state(out / "last_healthy.snap")
    assert quotient.rank == 1


def test_sweep_rho_rejects_bad_input_with_a_json_reason(tmp_path, capsys):
    import numpy as np

    from higgsflow import (HiggsBundleState, HiggsStructure, MatrixFormField,
                           build_scenario, save_state)
    out = tmp_path / "out"
    for values, bad in (("2.0", "2.0"), ("nan,0.5", "nan")):
        assert run_cli("sweep-rho", "--rho-values", values, "--out-dir", str(out)) == 2
        assert f"(0, 1], got {bad}" in json.loads(capsys.readouterr().err)["error"]

    # phi = e21 dz does not leave the declared span(e1) invariant
    st = build_scenario("nilpotent-r2", N=16)
    phi = MatrixFormField(st.base, 1, 0, np.swapaxes(st.structure.phi.comps, -1, -2))
    snap = tmp_path / "lower.snap"
    save_state(HiggsBundleState(HiggsStructure(st.structure.a, phi), st.metric), snap)
    assert run_cli("sweep-rho", "--state-file", str(snap), "--scenario",
                   "nilpotent-r2", "--out-dir", str(out)) == 2
    assert "violates its invariants" in json.loads(capsys.readouterr().err)["error"]
    assert not out.exists()


def test_sweep_rho_rejects_a_sub_bundle_of_full_rank(tmp_path, capsys):
    from higgsflow import build_scenario, save_state
    # extension-sweep declares a rank-1 sub-bundle: all of a line bundle
    snap = tmp_path / "line.snap"
    save_state(build_scenario("conformal-r1"), snap)
    out = tmp_path / "out"
    assert run_cli("sweep-rho", "--state-file", str(snap), "--scenario",
                   "extension-sweep", "--out-dir", str(out)) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert "sub-bundle rank 1 must lie in [1, 1)" in err
    assert not out.exists()


def test_sweep_rho_fits_no_slope_to_one_repeated_rho(tmp_path):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("sweep-rho", "--rho-values", "0.5,0.5", "--out-dir", str(tmp_path))
    payload = json.loads((tmp_path / "rho_sweep.json").read_text())
    assert payload["fitted_slope"] is None
    # extension-sweep targets slope 2, which one distinct rho cannot show
    assert code == 1 and payload["passed"] is False


@pytest.mark.parametrize("verb", ["sweep-rho", "verify-filtration"])
def test_state_file_without_scenario_names_no_subbundle(verb, tmp_path, capsys):
    from higgsflow import build_scenario, save_state
    snap = tmp_path / "chain.snap"
    save_state(build_scenario("chain-r3", N=8), snap)
    out = tmp_path / "out"
    assert run_cli(verb, "--state-file", str(snap), "--out-dir", str(out)) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert "scenario names the declared sub-bundles" in err
    assert not out.exists()


def test_sweep_rho_state_file_keeps_the_scenario_targets(tmp_path):
    from higgsflow import TorusBase, save_state
    from higgsflow.scenarios import _extension_sweep
    snap = tmp_path / "gamma.snap"
    save_state(_extension_sweep(TorusBase(1, 32), gamma_amp=0.3), snap)
    out = tmp_path / "out"
    # a varying gamma makes the decay linear in rho: the slope-2 target fails
    assert run_cli("sweep-rho", "--state-file", str(snap), "--scenario",
                   "extension-sweep", "--out-dir", str(out)) == 1
    payload = json.loads((out / "rho_sweep.json").read_text())
    assert payload["slope_target"] == 2.0
    assert len(payload["epsilon_checks"]) == 3
    assert payload["passed"] is False


def test_default_sweep_rho_sweeps_once(tmp_path, monkeypatch, part11_builds):
    import higgsflow.cli
    import higgsflow.extensions
    counts = dict.fromkeys(("rho_sweep", "split_extension"), 0)
    for name in counts:
        original = getattr(higgsflow.extensions, name)

        def counting(*args, _fn=original, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in (higgsflow.cli, higgsflow.extensions):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    assert run_cli("sweep-rho", "--out-dir", str(tmp_path)) == 0
    assert counts == {"rho_sweep": 1, "split_extension": 1}
    # two factor curvatures, five swept rho, and the epsilon pair rho = 0.1
    assert part11_builds == [8]


VERB_KEYS = {
    "run": {"scenario", "state-file", "N", "flow-kind", "flow-dt", "flow-T",
            "flow-fixed", "target-epsilon", "out-dir"},
    "validate": {"scenario", "state-file", "N", "tolerance"},
    "sweep-rho": {"scenario", "state-file", "N", "rho-values", "out-dir"},
    "verify-filtration": {"scenario", "state-file", "N", "target-epsilon",
                          "flow-T", "flow-dt", "out-dir"},
    "flow-equivalence": {"scenario", "state-file", "N", "flow-T", "flow-dt",
                         "tolerance", "out-dir"},
}


@pytest.mark.parametrize("verb", sorted(VERB_KEYS))
def test_each_verb_takes_only_the_keys_it_reads(verb, tmp_path, monkeypatch,
                                                capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(verb, "--help")
    assert excinfo.value.code == 0
    flags = set(re.findall(r"--([A-Za-z][\w-]*)", capsys.readouterr().out))
    assert flags == VERB_KEYS[verb] | {"config", "help"}

    monkeypatch.chdir(tmp_path)
    for key in sorted(set().union(*VERB_KEYS.values()) - VERB_KEYS[verb]) \
            + ["seed"]:
        with pytest.raises(SystemExit) as excinfo:
            run_cli(verb, "--scenario", "nilpotent-r2", f"--{key}", "1")
        assert excinfo.value.code == 2, key
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("verb, argv, config, reason", [
    ("validate", [], "scenario = nilpotent-r2\nflow.T = 1\n",
     "'validate' does not read key 'flow.T'"),
    ("verify-filtration", [],
     "scenario = nilpotent-r2\nrho.values = 0.5\nflow.kind = ymh\n",
     "'verify-filtration' does not read key"),
    ("sweep-rho", [], "seed = 1\n", "unknown key 'seed'"),
    ("verify-filtration", ["--scenario", "nilpotent-r2", "--flow-T", "-1"],
     None, "T must be finite"),
    ("run", ["--state-file", "SNAP", "--N", "64"], None,
     "N contradicts state.file"),
    ("sweep-rho", ["--state-file", "SNAP", "--scenario", "nilpotent-r2"],
     "N = 8\n", "N contradicts state.file"),
    ("run", ["--state-file", "SNAP", "--scenario", "nilpotent-r2"], None,
     "scenario contradicts state.file"),
    ("validate", ["--state-file", "SNAP", "--scenario", "nilpotent-r2"], None,
     "scenario contradicts state.file"),
    ("flow-equivalence", ["--state-file", "SNAP"],
     "scenario = nilpotent-r2\n", "scenario contradicts state.file"),
    ("run", ["--scenario", "nilpotent-r2", "--flow-kind", "bogus"], None,
     "unknown flow kind 'bogus'"),
    ("run", [], "scenario = nilpotent-r2\nflow.kind = bogus\n",
     "unknown flow kind 'bogus'"),
])
def test_contradictory_config_exits_2_and_writes_nothing(
        verb, argv, config, reason, tmp_path, monkeypatch, capsys):
    from higgsflow import build_scenario, save_state
    snap = tmp_path / "state.snap"
    save_state(build_scenario("nilpotent-r2", N=16), snap)
    argv = [str(snap) if a == "SNAP" else a for a in argv]
    if config is not None:
        (tmp_path / "exp.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "exp.cfg")]
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert run_cli(verb, *argv) == 2
    assert reason in json.loads(capsys.readouterr().err)["error"]
    assert list(cwd.iterdir()) == []
