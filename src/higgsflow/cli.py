"""Configuration-driven experiment runner.

Verbs: run, catalog, validate, sweep-rho, verify-filtration,
flow-equivalence. A flat key = value config file can seed any verb's
options; explicit flags override config entries. Exit code 0 means every
configured target passed; failures print a machine-readable JSON reason to
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .diagnostics import flatness_certificate
from .extensions import rho_sweep, verify_filtration
from .flows import (FlowBlowup, check_flow_times, flow_equivalence_check,
                    run_donaldson_flow, run_ymh_flow)
from .geometry import validate_structure
from .scenarios import (build_scenario, get_scenario, scenario_catalog,
                        scenario_subbundles)
from .snapshots import load_state, save_state

CONFIG_KEYS = {
    "scenario": str, "state.file": str, "N": int,
    "flow.kind": str, "flow.dt": float, "flow.T": float, "flow.fixed": int,
    "target.epsilon": float, "out.dir": str, "seed": int,
    "rho.values": str, "tolerance": float,
}


def _fail(reason: str, detail: dict | None = None, code: int = 2) -> int:
    payload = {"error": reason}
    if detail:
        payload["detail"] = detail
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def load_config(path: str) -> dict:
    """Flat key = value text format; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key '{key}'")
        out[key] = CONFIG_KEYS[key](value)
    return out


def _merged(args, keys: dict) -> dict:
    cfg = dict(keys)
    if getattr(args, "config", None):
        cfg.update(load_config(args.config))
    for key in CONFIG_KEYS:
        flag = key.replace(".", "_")
        val = getattr(args, flag, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _json_dump(obj, path: Path) -> None:
    def default(x):
        if isinstance(x, (np.floating, np.integer)):
            return float(x)
        raise TypeError(f"not serializable: {type(x)}")
    path.write_text(json.dumps(obj, sort_keys=True, indent=1, default=default)
                    + "\n")


def _load_state_from(cfg):
    if cfg.get("state.file"):
        return load_state(cfg["state.file"]), None
    name = cfg.get("scenario")
    if not name:
        raise ValueError("config needs either scenario or state.file")
    return build_scenario(name, cfg.get("N")), get_scenario(name)


def _declared_subbundles(cfg, state):
    """The sub-bundles that the configured scenario declares, on state."""
    name = cfg.get("scenario")
    if not name:
        raise ValueError("a state file needs a scenario: the scenario names "
                         "the declared sub-bundles")
    subs = scenario_subbundles(name, state)
    if not subs:
        raise ValueError(f"scenario '{name}' declares no sub-bundle")
    return subs


def cmd_catalog(args) -> int:
    rows = [{"name": sc.name, "n": sc.n, "N": sc.N, "rank": sc.rank,
             "description": sc.description, "expects": sc.expects}
            for sc in scenario_catalog()]
    if args.json:
        print(json.dumps(rows, sort_keys=True, indent=1))
    else:
        for row in rows:
            print(f"{row['name']:22s} n={row['n']} N={row['N']} "
                  f"rank={row['rank']}  {row['description']}")
    return 0


def cmd_validate(args) -> int:
    try:
        cfg = _merged(args, {})
        state, _ = _load_state_from(cfg)
    except (ValueError, KeyError, OSError) as exc:
        return _fail(str(exc))
    tol = cfg.get("tolerance")
    report = validate_structure(state.structure, tol)
    print(json.dumps(report.as_dict(), sort_keys=True))
    return 0 if report.valid else 1


def cmd_run(args) -> int:
    try:
        cfg = _merged(args, {"flow.kind": "donaldson", "flow.dt": 1e-3,
                             "flow.T": 1.0, "flow.fixed": 0})
        check_flow_times(cfg["flow.T"], cfg["flow.dt"])
        state, scenario = _load_state_from(cfg)
        out_dir = Path(cfg.get("out.dir", "out"))
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ValueError, KeyError, OSError) as exc:
        return _fail(str(exc))

    kind = cfg["flow.kind"]
    T, dt = cfg["flow.T"], cfg["flow.dt"]
    fixed = bool(cfg.get("flow.fixed", 0))
    try:
        if kind == "donaldson":
            result = run_donaldson_flow(state, T, dt, fixed_dt=fixed)
        elif kind == "ymh":
            result = run_ymh_flow(state, T, dt, fixed_dt=fixed)
        elif kind == "none":
            result = None
        else:
            return _fail(f"unknown flow kind '{kind}'")
    except FlowBlowup as exc:
        save_state(exc.state, out_dir / "last_healthy.snap")
        exc.trace.write_csv(out_dir / "trace.csv")
        return _fail(f"flow blew up: {exc}",
                     {"snapshot": str(out_dir / "last_healthy.snap"),
                      "reached_t": exc.t}, code=3)
    except (RuntimeError, FloatingPointError, ValueError) as exc:
        save_state(state, out_dir / "last_healthy.snap")
        return _fail(f"flow failed: {exc}",
                     {"snapshot": str(out_dir / "last_healthy.snap")}, code=3)

    final_state = state if result is None else result.final
    summary = {"scenario": getattr(scenario, "name", None),
               "flow": {"kind": kind, "T": T, "dt": dt, "fixed": fixed}}
    if result is not None:
        result.trace.write_csv(out_dir / "trace.csv")
        summary["trace"] = result.trace.summary()
        summary["steps"] = result.steps
        summary["rejected_steps"] = result.rejected

    targets_ok = True
    eps = cfg.get("target.epsilon")
    if eps is not None:
        cert = flatness_certificate(final_state, eps)
        _json_dump(cert.as_dict(), out_dir / "certificate.json")
        print(cert.one_line())
        targets_ok &= cert.passed
    if result is not None and len(result.trace.t) >= 2:
        e = result.trace.ymh_energy
        slack = [1e-9 + 100.0 * d * d * (1.0 + max(e)) for d in result.trace.dt]
        monotone = all(e[k + 1] <= e[k] + slack[k] for k in range(len(e) - 1))
        phi0 = result.trace.phi_sup[0]
        phi_bound = all(p <= 100.0 * phi0 + 1e-12 for p in result.trace.phi_sup)
        summary["energy_monotone"] = monotone
        summary["phi_bounded"] = phi_bound
        targets_ok &= monotone and phi_bound

    save_state(final_state, out_dir / "final_state.snap")
    summary["targets_ok"] = bool(targets_ok)
    _json_dump(summary, out_dir / "summary.json")
    print(f"run {'PASS' if targets_ok else 'FAIL'}: artifacts in {out_dir}")
    return 0 if targets_ok else 1


def cmd_sweep_rho(args) -> int:
    try:
        cfg = _merged(args, {"rho.values": "0.5,0.25,0.125,0.0625,0.03125"})
        if not cfg.get("state.file"):
            cfg.setdefault("scenario", "extension-sweep")
        state, scenario = _load_state_from(cfg)
        subs = _declared_subbundles(cfg, state)
        rhos = [float(x) for x in cfg["rho.values"].split(",")]
        rows, slope = rho_sweep(state, subs[0], rhos)
        out_dir = Path(cfg.get("out.dir", "out"))
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ValueError, KeyError, OSError) as exc:
        return _fail(str(exc))

    with open(out_dir / "rho_sweep.csv", "w", newline="\n") as fh:
        fh.write("rho,sup_a,sup_b1,sup_c1,sup_f\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in
                              (row.rho, row.sup_a, row.sup_b1, row.sup_c1,
                               row.sup_f)) + "\n")
    with open(out_dir / "rho_supf.csv", "w", newline="\n") as fh:
        fh.write("rho,sup_f\n")
        for row in rows:
            fh.write("%.17g,%.17g\n" % (row.rho, row.sup_f))
    payload = {"rows": [row.as_dict() for row in rows], "fitted_slope": slope}
    ok = True
    expected = scenario.expects.get("slope") if scenario else None
    if expected is not None:
        ok = slope is not None and abs(slope - expected) <= 0.2
        payload["slope_target"] = expected
    for eps, rho in (scenario.expects.get("epsilon_rho_pairs", [])
                     if scenario else []):
        achieved = next((r.sup_f for r in rows if abs(r.rho - rho) < 1e-12), None)
        if achieved is None:
            rows_extra, _ = rho_sweep(state, subs[0], [rho])
            achieved = rows_extra[0].sup_f
        ok &= achieved < 3.0 * eps
        payload.setdefault("epsilon_checks", []).append(
            {"epsilon": eps, "rho": rho, "sup_f": achieved,
             "passed": achieved < 3.0 * eps})
    payload["passed"] = bool(ok)
    _json_dump(payload, out_dir / "rho_sweep.json")
    print(f"sweep-rho {'PASS' if ok else 'FAIL'}: slope="
          f"{slope if slope is not None else float('nan'):.4f}")
    return 0 if ok else 1


def cmd_verify_filtration(args) -> int:
    try:
        cfg = _merged(args, {"target.epsilon": 1e-6, "flow.T": 0.0,
                             "flow.dt": 1e-2})
        state, _ = _load_state_from(cfg)
        subs = _declared_subbundles(cfg, state)
        out_dir = Path(cfg.get("out.dir", "out"))
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ValueError, KeyError, OSError) as exc:
        return _fail(str(exc))
    try:
        report = verify_filtration(state, subs, cfg["target.epsilon"],
                                   flow_time=cfg["flow.T"],
                                   flow_dt=cfg["flow.dt"])
    except ValueError as exc:
        return _fail(f"filtration rejected: {exc}")
    _json_dump(report.as_dict(), out_dir / "filtration.json")
    for lv in report.levels:
        print(f"level {lv.index} (rank {lv.rank}): {lv.certificate.one_line()}")
    print(f"verify-filtration {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_flow_equivalence(args) -> int:
    try:
        cfg = _merged(args, {"flow.T": 1.0, "flow.dt": 1e-3,
                             "tolerance": 1e-3})
        check_flow_times(cfg["flow.T"], cfg["flow.dt"])
        state, _ = _load_state_from(cfg)
        out_dir = Path(cfg.get("out.dir", "out"))
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ValueError, KeyError, OSError) as exc:
        return _fail(str(exc))
    try:
        report = flow_equivalence_check(state, cfg["flow.T"], cfg["flow.dt"])
    except FlowBlowup as exc:
        return _fail(f"flow blew up: {exc}", {"reached_t": exc.t}, code=3)
    except ValueError as exc:
        return _fail(f"flow-equivalence failed: {exc}", code=3)
    _json_dump(report.as_dict(), out_dir / "flow_equivalence.json")
    tol = cfg["tolerance"]
    ok = report.max_norm_residual() <= tol
    print(f"flow-equivalence {'PASS' if ok else 'FAIL'}: max residual "
          f"{report.max_norm_residual():.3e} vs tol {tol:.1e}")
    return 0 if ok else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--scenario", dest="scenario")
    p.add_argument("--state-file", dest="state_file")
    p.add_argument("--N", dest="N", type=int)
    p.add_argument("--flow-kind", dest="flow_kind",
                   choices=["donaldson", "ymh", "none"])
    p.add_argument("--flow-dt", dest="flow_dt", type=float)
    p.add_argument("--flow-T", dest="flow_T", type=float)
    p.add_argument("--flow-fixed", dest="flow_fixed", type=int)
    p.add_argument("--target-epsilon", dest="target_epsilon", type=float)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--seed", dest="seed", type=int,
                   help="reserved: accepted, and unused by every verb")
    p.add_argument("--rho-values", dest="rho_values")
    p.add_argument("--tolerance", dest="tolerance", type=float)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="higgsflow",
        description="desk-scale experiments on Higgs bundle gradient flows")
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", help="list shipped scenarios")
    p_catalog.add_argument("--json", action="store_true")
    p_catalog.set_defaults(fn=cmd_catalog)

    for name, fn, desc in (
            ("run", cmd_run, "run a flow and certify the result"),
            ("validate", cmd_validate, "check structure validity residuals"),
            ("sweep-rho", cmd_sweep_rho, "scaled extension metric sweep"),
            ("verify-filtration", cmd_verify_filtration,
             "certify flat quotients of a declared filtration"),
            ("flow-equivalence", cmd_flow_equivalence,
             "compare the metric flow with the pair flow")):
        p = sub.add_parser(name, help=desc)
        _add_common(p)
        p.set_defaults(fn=fn)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
