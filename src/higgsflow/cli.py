"""Configuration-driven experiment runner.

Verbs: run, catalog, validate, sweep-rho, verify-filtration,
flow-equivalence. Each verb takes the config keys it reads, as flags or
from a flat key = value config file; explicit flags override config
entries. Exit code 0 means every configured target passed; failures print
a machine-readable JSON reason to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .diagnostics import flatness_certificate
from .extensions import assemble_filtration_metric, rho_sweep, verify_filtration
from .flows import (FlowBlowup, check_flow_times, flow_equivalence_check,
                    run_donaldson_flow, run_ymh_flow)
from .geometry import Curvature, validate_structure
from .scenarios import (build_scenario, get_scenario, scenario_catalog,
                        scenario_subbundles)
from .snapshots import load_state, save_state

CONFIG_KEYS = {
    "scenario": str, "state.file": str, "N": int,
    "flow.kind": str, "flow.dt": float, "flow.T": float, "flow.fixed": int,
    "target.epsilon": float, "out.dir": str, "rho.values": str,
    "tolerance": float,
}


def _fail(reason: str, detail: dict | None = None, code: int = 2) -> int:
    payload = {"error": reason}
    if detail:
        payload["detail"] = detail
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def _flow_stopped(exc: FlowBlowup, detail: dict, out_dir: Path | None = None) -> int:
    """Exit 3 naming why the flow stopped and the time it reached. With
    out_dir, the last accepted state and the partial trace are saved there."""
    if out_dir is not None:
        save_state(exc.state, out_dir / "last_healthy.snap")
        exc.trace.write_csv(out_dir / "trace.csv")
        detail["snapshot"] = str(out_dir / "last_healthy.snap")
    what = "stopped at the step cap" if exc.reason == "step_cap" else "blew up"
    return _fail(f"flow {what}: {exc}",
                 {**detail, "reached_t": exc.t, "reason": exc.reason}, code=3)


def load_config(path: str) -> dict:
    """Flat key = value text format, each key set once; '#' starts a comment."""
    out, line_of = {}, {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key '{key}'")
        if key in line_of:
            raise ValueError(f"{path}: key '{key}' is set twice, on lines "
                             f"{line_of[key]} and {lineno}")
        out[key], line_of[key] = CONFIG_KEYS[key](value), lineno
    return out


def _config(args) -> dict:
    """The verb's defaults, then the config file, then the flags, checked."""
    keys = VERBS[args.command][2]
    cfg = {key: default for key, default in keys.items() if default is not None}
    if args.config:
        loaded = load_config(args.config)
        for key in loaded:
            if key not in keys:
                raise ValueError(f"{args.config}: '{args.command}' does not "
                                 f"read key '{key}'")
        cfg.update(loaded)
    cfg.update((key, getattr(args, key)) for key in keys
               if getattr(args, key) is not None)
    if "flow.T" in keys:
        check_flow_times(cfg["flow.T"], cfg["flow.dt"])
    for key, rule, ok in (
            ("flow.fixed", "0 or 1", lambda v: v in (0, 1)),
            ("target.epsilon", "finite and > 0", lambda v: np.isfinite(v) and v > 0),
            ("tolerance", "finite and >= 0", lambda v: np.isfinite(v) and v >= 0)):
        if key in cfg and not ok(cfg[key]):
            raise ValueError(f"{key} must be {rule}, got {cfg[key]!r}")
    return cfg


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _load_state_from(cfg, declarations: bool = False):
    """The configured state and its scenario (None for a bare state file).

    A state file fixes its own grid, so N contradicts it. A scenario beside
    a state file only names its declarations (sub-bundles and targets), so
    only verbs that read them (declarations=True) accept the pair.
    """
    name, path = cfg.get("scenario"), cfg.get("state.file")
    if path:
        if "N" in cfg:
            raise ValueError("N contradicts state.file: the file fixes the grid")
        if name and not declarations:
            raise ValueError("scenario contradicts state.file: this verb reads "
                             "no scenario declarations for a state file")
        return load_state(path), get_scenario(name) if name else None
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


def cmd_validate(cfg) -> int:
    state, _ = _load_state_from(cfg)
    report = validate_structure(state.structure, cfg.get("tolerance"))
    print(json.dumps(asdict(report), sort_keys=True))
    return 0 if report.valid else 1


def cmd_run(cfg) -> int:
    kind, T, dt = cfg["flow.kind"], cfg["flow.T"], cfg["flow.dt"]
    if kind not in ("donaldson", "ymh", "none"):
        raise ValueError(f"unknown flow kind '{kind}'; known kinds: "
                         "donaldson, ymh, none")
    state, scenario = _load_state_from(cfg)
    out_dir = Path(cfg["out.dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    fixed = bool(cfg["flow.fixed"])
    # the runners are looked up by name at call time, so that wrappers bound
    # over the module's names (the benchmark's step counter) see the calls
    try:
        if kind == "donaldson":
            result = run_donaldson_flow(state, T, dt, fixed_dt=fixed)
        elif kind == "ymh":
            result = run_ymh_flow(state, T, dt, fixed_dt=fixed)
        else:
            result = None
    except FlowBlowup as exc:
        return _flow_stopped(exc, {}, out_dir)
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
        summary["energy_defect"] = result.trace.energy_defect()

    targets_ok = True
    eps = cfg.get("target.epsilon")
    if eps is not None:
        cert = flatness_certificate(final_state, eps)
        _json_dump(asdict(cert), out_dir / "certificate.json")
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


def cmd_sweep_rho(cfg) -> int:
    if not cfg.get("state.file"):
        cfg.setdefault("scenario", "extension-sweep")
    state, scenario = _load_state_from(cfg, declarations=True)
    subs = _declared_subbundles(cfg, state)
    rhos = [float(x) for x in cfg["rho.values"].split(",")]
    rows, slope = rho_sweep(state, subs[0], rhos)
    out_dir = Path(cfg["out.dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    with open(out_dir / "rho_sweep.csv", "w", newline="\n") as fh:
        fh.write("rho,sup_a,sup_b1,sup_c1,sup_f\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in
                              (row.rho, row.sup_a, row.sup_b1, row.sup_c1,
                               row.sup_f)) + "\n")
    payload = {"rows": [asdict(row) for row in rows], "fitted_slope": slope}
    ok = True
    expected = scenario.expects.get("slope")
    if expected is not None:
        ok = slope is not None and abs(slope - expected) <= 0.2
        payload["slope_target"] = expected
    for eps, rho in scenario.expects.get("epsilon_rho_pairs", []):
        achieved = next((r.sup_f for r in rows if abs(r.rho - rho) < 1e-12), None)
        if achieved is None:  # the one-level metric that rho_sweep assembles
            total = assemble_filtration_metric(state, subs[:1], rho)
            achieved = Curvature(total).sup_norm()
        ok &= achieved < 3.0 * eps
        payload.setdefault("epsilon_checks", []).append(
            {"epsilon": eps, "rho": rho, "sup_f": achieved,
             "passed": achieved < 3.0 * eps})
    payload["passed"] = bool(ok)
    _json_dump(payload, out_dir / "rho_sweep.json")
    print(f"sweep-rho {'PASS' if ok else 'FAIL'}: slope="
          f"{slope if slope is not None else float('nan'):.4f}")
    return 0 if ok else 1


def cmd_verify_filtration(cfg) -> int:
    state, _ = _load_state_from(cfg, declarations=True)
    subs = _declared_subbundles(cfg, state)
    out_dir = Path(cfg["out.dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        report = verify_filtration(state, subs, cfg["target.epsilon"],
                                   flow_time=cfg["flow.T"],
                                   flow_dt=cfg["flow.dt"])
    except FlowBlowup as exc:
        # the state and trace saved are those of the quotient's flow
        return _flow_stopped(exc, {"level": exc.level}, out_dir)
    except ValueError as exc:
        return _fail(f"filtration rejected: {exc}")
    _json_dump(asdict(report), out_dir / "filtration.json")
    for lv in report.levels:
        print(f"level {lv.index} (rank {lv.rank}): {lv.certificate.one_line()}")
    print(f"verify-filtration {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_flow_equivalence(cfg) -> int:
    state, _ = _load_state_from(cfg)
    out_dir = Path(cfg["out.dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        report = flow_equivalence_check(state, cfg["flow.T"], cfg["flow.dt"])
    except FlowBlowup as exc:
        # the state and trace saved are those of the flow that stopped
        return _flow_stopped(exc, {"flow": exc.flow}, out_dir)
    except ValueError as exc:
        return _fail(f"flow-equivalence failed: {exc}", code=3)
    _json_dump(report.as_dict(), out_dir / "flow_equivalence.json")
    tol = cfg["tolerance"]
    ok = report.max_norm_residual() <= tol
    print(f"flow-equivalence {'PASS' if ok else 'FAIL'}: max residual "
          f"{report.max_norm_residual():.3e} vs tol {tol:.1e}")
    return 0 if ok else 1


# the keys each verb reads, with their defaults (None: no default); flags,
# defaults and config checks all come from this table
_SOURCE = {"scenario": None, "state.file": None, "N": None}
VERBS = {
    "run": (cmd_run, "run a flow and certify the result",
            {**_SOURCE, "flow.kind": "donaldson", "flow.dt": 1e-3,
             "flow.T": 1.0, "flow.fixed": 0, "target.epsilon": None,
             "out.dir": "out"}),
    "validate": (cmd_validate, "check structure validity residuals",
                 {**_SOURCE, "tolerance": None}),
    "sweep-rho": (cmd_sweep_rho, "scaled extension metric sweep",
                  {**_SOURCE, "rho.values": "0.5,0.25,0.125,0.0625,0.03125",
                   "out.dir": "out"}),
    "verify-filtration": (cmd_verify_filtration,
                          "certify flat quotients of a declared filtration",
                          {**_SOURCE, "target.epsilon": 1e-6, "flow.T": 0.0,
                           "flow.dt": 1e-2, "out.dir": "out"}),
    "flow-equivalence": (cmd_flow_equivalence,
                         "compare the metric flow with the pair flow",
                         {**_SOURCE, "flow.T": 1.0, "flow.dt": 1e-3,
                          "tolerance": 1e-3, "out.dir": "out"}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="higgsflow",
        description="desk-scale experiments on Higgs bundle gradient flows")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("catalog", help="list shipped scenarios").add_argument(
        "--json", action="store_true")
    for verb, (_, desc, keys) in VERBS.items():
        p = sub.add_parser(verb, help=desc)
        p.add_argument("--config", help="flat key = value config file")
        for key, default in keys.items():
            p.add_argument("--" + key.replace(".", "-"), dest=key,
                           type=CONFIG_KEYS[key],
                           help=None if default is None else f"default {default}")

    args = parser.parse_args(argv)
    if args.command == "catalog":
        return cmd_catalog(args)
    try:
        return VERBS[args.command][0](_config(args))
    except KeyError as exc:  # str() of a KeyError quotes its message
        return _fail(str(exc.args[0]))
    except (ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
