"""Command line front end.

Subcommands map one-to-one onto the library entry points:

    layer              solve a single half-space layer problem
    coupled            march the coupled limit system
    naive              march the naive flux coupling
    epsilon-sweep      full-problem ladder vs the limit system
    stability          two-trajectory contraction check
    compare-couplings  limit vs naive on the same scenario

Each command reads an optional JSON config (defaults apply otherwise), writes
CSV/JSON outputs plus a manifest into --out, and exits 0 on success, 2 on a
configuration problem, 3 on a solver failure.  Outputs are deterministic for
a fixed config: floats are written in shortest round-trip form and the
manifest holds a hash of the resolved configuration, so reruns byte-match.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .coupling import InterfaceRecord, run_coupled, snapshot_distance, state_distance
from .errors import SOLVER_ERRORS, ConfigError
from .experiments import (
    _FIELD_TYPES,
    ScenarioConfig,
    build_coupled_initial,
    config_to_dict,
    run_convergence_study,
    scenario_dt,
    stability_study,
)
from .milne import LayerData, solve_layer
from .velocity import (
    DiscreteDistribution,
    flux_of,
    indicator_cell_average,
    indicator_cell_flux,
    maxwellian,
)

_CONFIG_KEYS = {f.name for f in fields(ScenarioConfig)}
# extra key -> its type, as a ScenarioConfig annotation; the layer_data block has its own check
_EXTRA_TYPES = {"log_every": "int", "pair_seed": "int", "slack": "float"}
_EXTRA_KEYS = {"layer_data", *_EXTRA_TYPES}
# layer_data.incoming kind -> the number keys that kind reads besides "kind"
_INCOMING_KEYS = {"maxwellian": ("u",), "indicator": ("lo", "hi", "height"), "zero": ()}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def parse_config(path: str | None) -> dict:
    """Load the JSON config; an unknown key or an extra of the wrong type, whatever the command, is an error."""
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError([f"config: cannot read {path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: {path} is not valid JSON: {exc}"]) from exc
    _check_keys(raw, "config", _CONFIG_KEYS | _EXTRA_KEYS)
    for key, kind in _EXTRA_TYPES.items():
        _number(raw, key, 0, kind)
    _check_layer_data(raw.get("layer_data", {}))
    if isinstance(raw.get("epsilons"), list):
        raw["epsilons"] = tuple(raw["epsilons"])
    return raw


def _check_keys(block, where: str, known: set[str]) -> None:
    """ConfigError unless block is a JSON object holding only known keys."""
    if not isinstance(block, dict):
        raise ConfigError([f"{where}: must be a JSON object, got {block!r}"])
    unknown = sorted(set(block) - known)
    if unknown:
        raise ConfigError([f"{where}: unknown key {k!r}" for k in unknown])


def _number(block: dict, key: str, default, kind: str = "float", least=None, where: str = ""):
    """block[key] (default when absent) as kind, "int" or "float"; see _FIELD_TYPES.

    A ConfigError unless the value passes kind's type rule and is at least
    least (when given); nothing is truncated or coerced.
    """
    name = f"{where}.{key}" if where else key
    value = block.get(key, default)
    accepts, what = _FIELD_TYPES[kind]
    if not accepts(value):
        raise ConfigError([f"{name}: must be {what}, got {value!r}"])
    if least is not None and value < least:
        raise ConfigError([f"{name}: must be at least {least}, got {value}"])
    return int(value) if kind == "int" else float(value)


def _check_layer_data(block) -> None:
    """ConfigError unless the layer_data block holds known keys and finite numbers."""
    _check_keys(block, "layer_data", {"flux", "incoming"})
    where = "layer_data.incoming"
    incoming = block.get("incoming", {})
    if not isinstance(incoming, dict):
        raise ConfigError([f"{where}: must be a JSON object, got {incoming!r}"])
    kind = incoming.get("kind", "maxwellian")
    if not isinstance(kind, str) or kind not in _INCOMING_KEYS:
        raise ConfigError([f"{where}.kind: unknown kind {kind!r}"])
    _check_keys(incoming, where, {"kind", *_INCOMING_KEYS[kind]})
    for key in _INCOMING_KEYS[kind]:
        _number(incoming, key, 0.0, where=where)
    _number(block, "flux", 0.0, where="layer_data")


def _incoming_from(block: dict, cfg: ScenarioConfig) -> DiscreteDistribution:
    """Build the half-range layer inflow described by the checked config block."""
    where = "layer_data.incoming"
    kind = block.get("kind", "maxwellian")
    vgrid = cfg.velocity_grid()
    if kind == "maxwellian":
        u = _number(block, "u", cfg.u_plus, where=where)
        if not 0.0 <= u <= vgrid.half_width:
            raise ConfigError([f"layer_data.incoming.u: must lie in [0, {vgrid.half_width}], got {u}"])
        return maxwellian(u, vgrid)
    if kind == "indicator":
        lo = _number(block, "lo", 0.0, where=where)
        hi = _number(block, "hi", cfg.u_plus, where=where)
        height = _number(block, "height", 1.0, where=where)
        if not 0.0 <= lo < hi <= vgrid.half_width:
            raise ConfigError([f"layer_data.incoming: need 0 <= lo < hi <= {vgrid.half_width}, got ({lo}, {hi})"])
        if not 0.0 <= height <= 1.0:
            raise ConfigError([f"layer_data.incoming.height: must lie in [0, 1], got {height}"])
        values = height * indicator_cell_average(lo, hi, vgrid)
        exact_flux = height * float(indicator_cell_flux(lo, hi, vgrid).sum())
        return DiscreteDistribution(vgrid, values, exact_flux - flux_of(values, vgrid))
    return DiscreteDistribution(vgrid, np.zeros(vgrid.n_cells))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, (float, np.floating)) else v for v in row])


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(
    out: Path, command: str, cfg: ScenarioConfig, raw: dict, outputs: list[str], error: str | None = None
) -> None:
    """manifest.json: the resolved config (scenario plus the extra keys given) and its hash."""
    resolved = config_to_dict(cfg)
    resolved["_extras"] = {k: raw[k] for k in sorted(_EXTRA_KEYS & set(raw))}
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    payload = {
        "command": command,
        "config": resolved,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "outputs": sorted(outputs),
        "status": "ok" if error is None else "FAILED",
    }
    if error is not None:
        payload["error"] = error
    _write_json(out / "manifest.json", payload)


def _field_csv_rows(centers: np.ndarray, values: np.ndarray):
    for x, row in zip(centers, values):
        yield [x, *row]


# every InterfaceRecord field but the returning slice, in declaration order
_INTERFACE_HEADER = [f.name for f in fields(InterfaceRecord) if f.name != "back_flux_values"]


def _interface_rows(log):
    for rec in log:
        row = [getattr(rec, name) for name in _INTERFACE_HEADER]
        yield ["" if v is None else v for v in row]


# -- subcommand bodies -----------------------------------------------------

def _cmd_layer(cfg: ScenarioConfig, raw: dict, out: Path) -> list[str]:
    block = raw.get("layer_data", {})
    incoming = _incoming_from(block.get("incoming", {}), cfg)
    flux = _number(block, "flux", cfg.u_plus**2 / 2.0, where="layer_data")
    data = LayerData(flux=flux, incoming=incoming)
    profile = solve_layer(data, cfg.layer_grid())
    vgrid = cfg.velocity_grid()
    header = ["y", *[f"xi_{c:+.6f}" for c in vgrid.centers]]
    _write_csv(out / "layer_profile.csv", header, _field_csv_rows(profile.grid.nodes, profile.values))
    _write_json(
        out / "layer_summary.json",
        {
            "classification": profile.classification.value,
            "u_infinity": profile.u_infinity,
            "flux": data.flux,
            "iterations": profile.iterations,
            "last_change": profile.last_change,
            "flux_at_wall": float(profile.flux_profile()[0]),
            "back_flux_mass": float(
                vgrid.dxi * np.abs(profile.values[0, ~vgrid.positive]).sum()
            ),
        },
    )
    return ["layer_profile.csv", "layer_summary.json"]


def _run_march(cfg: ScenarioConfig, raw: dict, out: Path, mode: str) -> list[str]:
    state = build_coupled_initial(cfg)
    layer_grid = cfg.layer_grid()
    dt, n_steps = scenario_dt(cfg)
    log_every = _number(raw, "log_every", 0, "int", least=0)
    try:
        final, snaps = run_coupled(state, dt, n_steps, layer_grid, mode=mode, log_every=log_every)
    except SOLVER_ERRORS as exc:
        # write what the march reached; main then marks the manifest FAILED
        prefix = exc.march_prefix
        failure = {"failed_step": prefix.failed_step, "failed_time": prefix.failed_time}
        _write_march(out, mode, dt, n_steps, prefix.state, prefix.snapshots, failure)
        raise
    return _write_march(out, mode, dt, n_steps, final, snaps, {})


def _write_march(out: Path, mode: str, dt: float, n_steps: int, final, snaps, extra: dict) -> list[str]:
    _write_csv(out / "interface_log.csv", _INTERFACE_HEADER, _interface_rows(final.trace_log))
    _write_csv(
        out / "kinetic_final.csv",
        ["x", *[f"xi_{c:+.6f}" for c in final.kinetic.velocity.centers]],
        _field_csv_rows(final.kinetic.space.centers, final.kinetic.values),
    )
    _write_csv(
        out / "fluid_final.csv",
        ["x", "u"],
        zip(final.fluid.grid.centers, final.fluid.values),
    )
    summary = {
        "mode": mode,
        "dt": dt,
        "n_steps": n_steps,
        "final_time": final.kinetic.time,
        "kinetic_mass": float(
            final.kinetic.space.dx * final.kinetic.velocity.dxi * final.kinetic.values.sum()
        ),
        "fluid_mass": float(final.fluid.grid.dx * final.fluid.values.sum()),
        "snapshots": len(snaps),
        **extra,
    }
    defects = [r.interface_defect for r in final.trace_log if not np.isnan(r.interface_defect)]
    if defects:
        summary["max_interface_defect"] = max(defects)
    if final.trace_log:
        summary["final_layer_class"] = final.trace_log[-1].layer_class or ""
    _write_json(out / "summary.json", summary)
    return ["interface_log.csv", "kinetic_final.csv", "fluid_final.csv", "summary.json"]


def _cmd_epsilon_sweep(cfg: ScenarioConfig, out: Path, jobs: int) -> list[str]:
    report = run_convergence_study(cfg, jobs=jobs)
    _write_json(out / "report.json", report.to_dict())
    header = ["eps", "kinetic_l1", "fluid_l1"]
    cols = [report.epsilons, report.kinetic_errors, report.fluid_errors]
    if report.layer_errors is not None:
        header.append("layer_l1")
        cols.append(report.layer_errors)
    if report.negative_mass is not None:
        header.append("negative_mass")
        cols.append(report.negative_mass)
    _write_csv(out / "errors.csv", header, zip(*cols))
    return ["report.json", "errors.csv"]


def _cmd_stability(cfg: ScenarioConfig, raw: dict, out: Path) -> list[str]:
    report = stability_study(
        cfg,
        pair_seed=_number(raw, "pair_seed", 0, "int", least=0),
        slack=_number(raw, "slack", 0.05, least=0.0),
        log_every=_number(raw, "log_every", 10, "int", least=1),
    )
    _write_json(
        out / "report.json",
        {
            "times": [float(t) for t in report.times],
            "distances": [float(d) for d in report.distances],
            "initial": report.initial,
            "peak_ratio": report.peak_ratio,
            "slack": report.slack,
            "ok": report.ok,
        },
    )
    _write_csv(out / "distances.csv", ["time", "distance"], zip(report.times, report.distances))
    return ["report.json", "distances.csv"]


def _cmd_compare(cfg: ScenarioConfig, raw: dict, out: Path) -> list[str]:
    layer_grid = cfg.layer_grid()
    dt, n_steps = scenario_dt(cfg)
    log_every = _number(raw, "log_every", max(1, n_steps // 50), "int", least=1)

    def march(mode: str):
        return run_coupled(build_coupled_initial(cfg), dt, n_steps, layer_grid, mode=mode, log_every=log_every)

    lim_final, lim_snaps = march("limit")
    # The naive exchange can blow up in finite time (the boundary flux
    # over-determines an outflow interface), so compare whatever prefix of
    # its trajectory exists.
    naive_error = None
    naive_time_reached = n_steps * dt
    try:
        nav_final, nav_snaps = march("naive")
    except SOLVER_ERRORS as exc:
        nav_snaps = exc.march_prefix.snapshots
        naive_time_reached = exc.march_prefix.failed_time
        naive_error = f"{type(exc).__name__}: {exc}"
    naive_failed = naive_error is not None
    rows = []
    for a, b in zip(lim_snaps, nav_snaps):
        rows.append([a.time, snapshot_distance(a, b), a.fluid_values[0], b.fluid_values[0]])
    _write_csv(
        out / "comparison.csv",
        ["time", "l1_distance", "limit_u_first_cell", "naive_u_first_cell"],
        rows,
    )
    tol_iface = 5.0 * (cfg.full_grid().dx + dt)
    if naive_failed:
        final_dist = rows[-1][1] if rows else float("nan")
        agrees = False
    else:
        final_dist = state_distance(lim_final, nav_final)
        agrees = final_dist <= 10.0 * tol_iface
    summary = {
        "final_distance": final_dist,
        "tol_iface": tol_iface,
        "agrees": agrees,
        "naive_failed": naive_failed,
        "naive_time_reached": naive_time_reached,
        "scenario": cfg.scenario,
    }
    if naive_failed:
        summary["naive_error"] = naive_error
    _write_json(out / "summary.json", summary)
    return ["comparison.csv", "summary.json"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgkcoupling",
        description="Kinetic/fluid coupling toolbox: half-space layers, the coupled limit system, and scale-limit experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("layer", "solve one half-space layer problem"),
        ("coupled", "march the coupled limit system"),
        ("naive", "march the naive flux coupling"),
        ("epsilon-sweep", "run the full-problem ladder against the limit system"),
        ("stability", "two-trajectory contraction check"),
        ("compare-couplings", "limit vs naive coupling on one scenario"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", default="out", help="output directory (created if missing)")
        p.add_argument("--verbose", action="store_true", help="print timing to stderr")
        if name == "epsilon-sweep":
            p.add_argument("--jobs", type=int, default=1, help="parallel workers for the ladder")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        raw = parse_config(args.config)
        cfg = ScenarioConfig(**{k: v for k, v in raw.items() if k in _CONFIG_KEYS})
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "layer":
            outputs = _cmd_layer(cfg, raw, out)
        elif args.command == "coupled":
            outputs = _run_march(cfg, raw, out, "limit")
        elif args.command == "naive":
            outputs = _run_march(cfg, raw, out, "naive")
        elif args.command == "epsilon-sweep":
            outputs = _cmd_epsilon_sweep(cfg, out, jobs=args.jobs)
        elif args.command == "stability":
            outputs = _cmd_stability(cfg, raw, out)
        else:
            outputs = _cmd_compare(cfg, raw, out)
        _write_manifest(out, args.command, cfg, raw, outputs + ["manifest.json"])
    except ConfigError as exc:
        for item in exc.items:
            print(f"config error: {item}", file=sys.stderr)
        return 2
    except SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        # flush whatever partial artifacts exist, marked as failed
        try:
            partial = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
            _write_manifest(out, args.command, cfg, raw, partial + ["manifest.json"], error=str(exc))
        except OSError:
            pass
        return 3
    if args.verbose:
        print(f"{args.command}: {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
