"""Command-line front end for simulations, grid solves, and comparisons.

Configuration comes from an INI file (``--config``) overridden by flags;
flags win.  Each setting is declared once, in ``_SETTINGS``, and a value
goes through the same parser whether it comes from the file or a flag.
Machine-readable output (a JSON summary, or CSV for ``compare`` and
``lq``) goes to stdout or to the requested file; a short human-readable
report always goes to stderr.  Exit codes: 0 success, 1 runtime failure,
2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import os
import sys
import time

import numpy as np

from . import lq
from .bellman import (
    CLOSED_FORM,
    CONTROL_MODES,
    GridSpec,
    ValueGrid,
    _interp_periodic,
    extract_policy,
    solve_backward,
    solve_dp,
)
from .filters import ModelParams
from .persist import atomic_write_text
from .trajectories import (
    ANGLE,
    MODEL_RECORDS,
    MODELS,
    constant_policy,
    lq_policy,
    model_from_id,
    model_record,
    run_batch,
    run_batches,
    simulate,
    zero_policy,
)

FLOAT_FMT = "%.17g"


class ConfigError(ValueError):
    """Bad configuration: wrong key, wrong value, missing requirement."""


# ---------------------------------------------------------------------------
# configuration resolution: defaults < INI file < flags


def _parse_model(text: str) -> str:
    if text in MODELS:
        return text
    try:
        return model_from_id(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_grid_model(vg: ValueGrid, path: str, model: str) -> None:
    if vg.spec.model != model:
        raise ConfigError(
            f"model mismatch: {path} holds {vg.spec.record.model_id}, "
            f"the run uses {model_record(model).model_id}"
        )


def _choice(options, label):
    def parse(text: str) -> str:
        if text not in options:
            raise ConfigError(f"{label} must be one of {options}, got {text!r}")
        return text

    return parse


def _typed(caster, label):
    def parse(text: str):
        try:
            return caster(text)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid {label}: {text!r}") from exc

    return parse


# key -> (INI section, or None for a flag only, parser, flag, help); every
# value, from the INI file or a flag, goes through `_parse_setting`, and the
# merged config is flat on the keys
_SETTINGS = {
    "model": ("model", _parse_model, "--model",
              " | ".join(rec.model_id for rec in MODEL_RECORDS.values())),
    "kappa_s_sq": ("model", float, "--kappa-s-sq", "observed-channel decay rate squared"),
    "alpha": ("model", float, "--alpha", "angle-model noise gain"),
    "horizon_T": ("model", float, "--horizon-t", "control horizon T"),
    "x0": ("run", str, "--x0", "initial state: 'px,py,pz' or a single angle"),
    "dt": ("run", float, "--dt", "Euler time step"),
    "n_paths": ("run", int, "--n-paths", "Monte Carlo sample size"),
    "seed": ("run", int, "--seed", "RNG seed"),
    "policy": ("run", str, "--policy", "zero | constant:<v> | lq-closed-form | grid:<path>"),
    "policies": ("run", str, "--policy", "policy to include (repeat; at least two)"),
    "n_nodes": ("grid", str, "--n-nodes", "nodes per axis, e.g. 21 or 21,21,21"),
    "n_steps": ("grid", int, "--n-steps", "backward time steps"),
    "control_box": ("grid", float, "--control-box", "clamp controls to [-box, box]"),
    "control_resolution": ("grid", int, "--control-resolution",
                           "control grid points per axis (exhaustive mode)"),
    "method": ("grid", _choice(("fd", "dp"), "method"), "--method", "grid solver: fd | dp"),
    "mode": ("grid", _choice(CONTROL_MODES, "mode"), "--mode",
             "dp minimization mode: " + " | ".join(CONTROL_MODES)),
    "json": ("output", str, "--output", "write the JSON summary here instead of stdout"),
    "csv": ("output", str, "--csv",
            "write CSV here (simulate: the seed's first path; lq: the mesh, not stdout)"),
    "table": ("output", str, "--table", "write the ranking CSV here instead of stdout"),
    "grid": ("output", str, "--grid", ".vgrid path solve writes or evaluate reads (required)"),
    "t": (None, str, "--t", "time mesh: 'lo:hi:n' or comma list"),
    "theta": (None, str, "--theta", "angle mesh: 'lo:hi:n' or comma list"),
}
_NOUNS = {float: "number", int: "integer"}

_DEFAULTS = {
    "kappa_s_sq": 0.5,
    "alpha": 0.5,
    "horizon_T": 1.0,
    "dt": 1e-3,
    "n_paths": 1000,
    "seed": 0,
    "method": "fd",
    "mode": CLOSED_FORM,
    "t": "0",
    "theta": "-2:2:81",
}

_MODEL_KEYS = ("model", "kappa_s_sq", "alpha", "horizon_T")
_RUN_KEYS = ("x0", "dt", "n_paths", "seed")
# subcommand -> (help, the keys it takes as flags); `main` looks each
# cmd_* function up by its module-global name at call time, so a wrapped
# one is the one called
_COMMANDS = {
    "simulate": ("Monte Carlo cost of one policy",
                 ("json", *_MODEL_KEYS, *_RUN_KEYS, "policy", "csv")),
    "solve": ("solve the backward equation onto a grid",
              ("json", *_MODEL_KEYS, "n_nodes", "n_steps", "control_box",
               "control_resolution", "method", "mode", "grid")),
    "evaluate": ("Monte Carlo cost of a solved grid policy",
                 ("json", *_MODEL_KEYS, *_RUN_KEYS, "grid")),
    "compare": ("rank policies under common random numbers",
                ("json", *_MODEL_KEYS, *_RUN_KEYS, "policies", "table")),
    "lq": ("closed-form value/control on a (t, theta) mesh",
           ("alpha", "horizon_T", "csv", "t", "theta")),
}


def _parse_setting(key: str, text: str):
    section, parse = _SETTINGS[key][:2]
    if parse in _NOUNS:
        parse = _typed(parse, f"{_NOUNS[parse]} for {section}.{key}")
    return parse(text.strip())


def _read_ini(path: str) -> dict:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    sections = sorted({entry[0] for entry in _SETTINGS.values()} - {None})
    out = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(
                f"unknown config section [{section}]; expected one of {sections}"
            )
        for key, raw in parser.items(section):
            if key not in _SETTINGS or _SETTINGS[key][0] != section:
                keys = sorted(k for k, entry in _SETTINGS.items() if entry[0] == section)
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]; expected one of {keys}"
                )
            out[key] = _parse_setting(key, raw)
    return out


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults, INI file, and flags; record which keys were given."""
    given = _read_ini(args.config) if args.config else {}
    for key in _COMMANDS[args.command][1]:
        text = getattr(args, key)
        if text is not None:
            given[key] = _parse_setting(key, ";".join(text) if key == "policies" else text)
    cfg = dict(_DEFAULTS)
    cfg.update(given)
    cfg["_given"] = frozenset(given)
    cfg["timings"] = not args.no_timings
    return cfg


def _check_output_dirs(cfg: dict, command: str) -> None:
    """Fail before any work unless every file the command writes has a directory."""
    for key in _COMMANDS[command][1]:
        if _SETTINGS[key][0] != "output" or (key == "grid" and command != "solve"):
            continue  # evaluate reads its grid
        if cfg.get(key):
            directory = os.path.dirname(os.path.abspath(cfg[key]))
            if not os.path.isdir(directory):
                raise ConfigError(f"output.{key}: directory {directory!r} does not exist")


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"{where} requires {key!r} (flag or config)")
    return cfg[key]


def _model_params(cfg: dict) -> ModelParams:
    return ModelParams(
        kappa_s_sq=cfg["kappa_s_sq"],
        alpha=cfg["alpha"],
        horizon_T=cfg["horizon_T"],
    )


def _parse_x0(cfg: dict, model: str):
    text = cfg.get("x0")
    if model == ANGLE:
        if text is None:
            return 1.0
        try:
            return float(text)
        except ValueError as exc:
            raise ConfigError(f"x0 for the angle model is one number, got {text!r}") from exc
    if text is None:
        return np.array([1.0, 0.0, 0.0])
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        vals = []
    if len(vals) != 3:
        raise ConfigError(f"x0 for qubit models is 'px,py,pz', got {text!r}")
    return np.array(vals)


def _parse_n_nodes(text: str):
    """One count (GridSpec applies it to every axis) or one per axis."""
    parts = [p for p in str(text).split(",") if p.strip()]
    try:
        counts = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"n_nodes must be integers, got {text!r}") from exc
    return counts[0] if len(counts) == 1 else counts


def _make_policy(policy_text: str, model: str, params: ModelParams):
    text = policy_text.strip()
    if text == "zero":
        return zero_policy(model)
    if text == "lq-closed-form":
        if model != ANGLE:
            raise ConfigError("policy 'lq-closed-form' applies to the angle model only")
        return lq_policy(params)
    if text.startswith("constant:"):
        vals = text[len("constant:"):]
        try:
            numbers = [float(v) for v in vals.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad constant policy {text!r}") from exc
        rec = model_record(model)
        if len(numbers) != rec.n_controls:
            raise ConfigError(
                f"constant policy for the {rec.model_id} model takes "
                f"{rec.n_controls} value(s), got {len(numbers)}"
            )
        return constant_policy(model, np.reshape(numbers, rec.control_shape))
    if text.startswith("grid:"):
        path = text[len("grid:"):]
        vg = ValueGrid.load(path)
        _check_grid_model(vg, path, model)
        return extract_policy(vg)
    raise ConfigError(
        f"unknown policy {policy_text!r}; expected zero, constant:<values>, "
        "lq-closed-form, or grid:<path>"
    )


# ---------------------------------------------------------------------------
# output plumbing


def _emit_json(summary: dict, cfg: dict) -> None:
    blob = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    path = cfg.get("json")
    if path:
        atomic_write_text(path, blob)
    else:
        sys.stdout.write(blob)


def _emit_table(rows) -> None:
    """Aligned key/value or columnar report on stderr."""
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for row in rows:
        line = "  ".join(str(c).ljust(w) for c, w in zip(row, widths))
        sys.stderr.write(line.rstrip() + "\n")


def _emit_stats(rows, stats) -> None:
    _emit_table(rows + [
        ("mean_cost", f"{stats.mean:.6g}"),
        ("stderr", f"{stats.stderr:.3g}"),
        ("n_paths", stats.n),
    ])


def _stat_summary(command: str, cfg: dict, model: str, x0, stats, extra) -> dict:
    summary = {
        "command": command,
        "model": model_record(model).model_id,
        "x0": list(np.atleast_1d(np.asarray(x0, dtype=float))),
        "mean_cost": stats.mean,
        "stderr": stats.stderr,
        "n_paths": stats.n,
        "seed": cfg["seed"],
        "dt": cfg["dt"],
        "horizon_T": cfg["horizon_T"],
    }
    summary.update(extra)
    return summary


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: dict) -> dict:
    model = _require(cfg, "model", "simulate")
    params = _model_params(cfg)
    x0 = _parse_x0(cfg, model)
    policy_text = cfg.get("policy", "zero")
    policy = _make_policy(policy_text, model, params)
    t0 = time.perf_counter()
    stats = run_batch(model, policy, x0, params, cfg["dt"], cfg["n_paths"], cfg["seed"])
    extra = {"policy": policy_text}
    if cfg.get("csv"):
        traj = simulate(model, policy, x0, params, cfg["dt"], seed=cfg["seed"])
        traj.to_csv(cfg["csv"])
        extra["csv"] = cfg["csv"]
    summary = _stat_summary("simulate", cfg, model, x0, stats, extra)
    if cfg["timings"]:
        summary["wall_time_s"] = time.perf_counter() - t0
    _emit_stats([("model", summary["model"]), ("policy", policy_text)], stats)
    return summary


def cmd_solve(cfg: dict) -> dict:
    if cfg["method"] == "fd" and "mode" in cfg["_given"]:
        raise ConfigError("grid.mode applies to --method dp only; fd takes the closed-form control")
    model = _require(cfg, "model", "solve")
    params = _model_params(cfg)
    grid_path = _require(cfg, "grid", "solve")
    n_nodes = _parse_n_nodes(_require(cfg, "n_nodes", "solve"))
    spec = GridSpec(
        model=model,
        n_nodes=n_nodes,
        n_steps=_require(cfg, "n_steps", "solve"),
        horizon_T=cfg["horizon_T"],
        control_box=cfg.get("control_box"),
        control_resolution=cfg.get("control_resolution"),
    )
    t0 = time.perf_counter()
    if cfg["method"] == "fd":
        vg = solve_backward(spec, params)
    else:
        vg = solve_dp(spec, params, mode=cfg["mode"])
    wall = time.perf_counter() - t0
    vg.save(grid_path)
    summary = {
        "command": "solve",
        "model": model_record(model).model_id,
        "method": cfg["method"],
        "control_mode": vg.control_mode,
        "grid": grid_path,
        "n_nodes": list(spec.n_nodes),
        "n_steps": spec.n_steps,
        "delta": spec.delta,
        "slices": spec.n_steps + 1,
        "value_min": float(np.nanmin(vg.values)),
        "value_max": float(np.nanmax(vg.values)),
    }
    if model == ANGLE:
        summary["j0_at_theta_1"] = float(_interp_periodic(vg.values[0], 1.0))
    if cfg["timings"]:
        summary["wall_time_s"] = wall
    _emit_table([
        ("model", summary["model"]),
        ("grid", grid_path),
        ("slices", summary["slices"]),
        ("value range", f"[{summary['value_min']:.6g}, {summary['value_max']:.6g}]"),
    ])
    return summary


def cmd_evaluate(cfg: dict) -> dict:
    grid_path = _require(cfg, "grid", "evaluate")
    vg = ValueGrid.load(grid_path)
    model = vg.spec.model
    given = cfg["_given"]
    if "model" in given:
        _check_grid_model(vg, grid_path, cfg["model"])
    for key, stored in (("kappa_s_sq", vg.kappa_s_sq), ("alpha", vg.alpha),
                        ("horizon_T", vg.spec.horizon_T)):
        if key in given and not abs(cfg[key] - stored) <= 1e-12:
            raise ConfigError(
                f"{key} mismatch: config says {cfg[key]!r}, "
                f"{grid_path} was solved with {stored!r}"
            )
    cfg = dict(cfg, kappa_s_sq=vg.kappa_s_sq, alpha=vg.alpha,
               horizon_T=vg.spec.horizon_T)
    params = _model_params(cfg)
    x0 = _parse_x0(cfg, model)
    policy = extract_policy(vg)
    t0 = time.perf_counter()
    stats = run_batch(model, policy, x0, params, cfg["dt"], cfg["n_paths"], cfg["seed"])
    summary = _stat_summary("evaluate", cfg, model, x0, stats, {"grid": grid_path})
    if cfg["timings"]:
        summary["wall_time_s"] = time.perf_counter() - t0
    _emit_stats([("grid", grid_path), ("model", summary["model"])], stats)
    return summary


def cmd_compare(cfg: dict) -> dict | None:
    model = _require(cfg, "model", "compare")
    params = _model_params(cfg)
    x0 = _parse_x0(cfg, model)
    texts = [p.strip() for p in cfg.get("policies", "").split(";") if p.strip()]
    if len(texts) < 2:
        raise ConfigError("compare needs at least two --policy entries")
    t0 = time.perf_counter()
    policies = [_make_policy(text, model, params) for text in texts]
    # common random numbers: every policy runs on the same noise draw
    stats = run_batches(model, policies, x0, params, cfg["dt"], cfg["n_paths"], cfg["seed"])
    rows = [(text, s.mean, s.stderr, s.n) for text, s in zip(texts, stats)]
    rows.sort(key=lambda r: r[1])
    buf = io.StringIO()
    buf.write("policy,mean,stderr,n\n")
    for text, mean, stderr, n in rows:
        buf.write(f"{text},{FLOAT_FMT % mean},{FLOAT_FMT % stderr},{n:d}\n")
    csv_blob = buf.getvalue()
    _emit_table([("policy", "mean", "stderr")] + [
        (text, f"{mean:.6g}", f"{stderr:.3g}") for text, mean, stderr, _ in rows
    ])
    if cfg.get("table"):
        atomic_write_text(cfg["table"], csv_blob)
    else:
        sys.stdout.write(csv_blob)
    if not (cfg.get("table") or cfg.get("json")):
        return None  # the CSV on stdout is the whole output
    summary = {
        "command": "compare",
        "model": model_record(model).model_id,
        "table": cfg.get("table"),
        "policies": [r[0] for r in rows],
        "best": rows[0][0],
        "n_paths": cfg["n_paths"],
        "seed": cfg["seed"],
    }
    if cfg["timings"]:
        summary["wall_time_s"] = time.perf_counter() - t0
    return summary


def _parse_mesh(text: str, label: str) -> np.ndarray:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{label} mesh is 'lo:hi:n' or comma-separated, got {text!r}")
        lo, hi, n = (_typed(float, label)(parts[0]), _typed(float, label)(parts[1]),
                     _typed(int, label)(parts[2]))
        if n < 1:
            raise ConfigError(f"{label} mesh needs at least one point")
        # the ends are checked first: linspace warns on an infinite end
        mesh = np.array([lo, hi])
        if np.isfinite(mesh).all():
            mesh = np.linspace(lo, hi, n)
    else:
        mesh = np.array([_typed(float, label)(v) for v in text.split(",")])
    if not np.isfinite(mesh).all():
        raise ConfigError(f"{label} mesh points must be finite, got {text!r}")
    return mesh


def cmd_lq(cfg: dict) -> None:
    params = _model_params(cfg)
    T = params.horizon_T
    ts = _parse_mesh(cfg["t"], "t")
    thetas = _parse_mesh(cfg["theta"], "theta")
    if (ts > T).any() or (ts < 0.0).any():
        raise ConfigError(f"t mesh must lie inside [0, {T}]")
    buf = io.StringIO()
    buf.write("t,theta,value,control\n")
    for t in ts:
        vals = lq.value(t, thetas, T, params.alpha)
        ctrls = lq.optimal_B(t, thetas, T)
        for theta, v, b in zip(thetas, vals, ctrls):
            buf.write(
                f"{FLOAT_FMT % t},{FLOAT_FMT % theta},{FLOAT_FMT % v},{FLOAT_FMT % b}\n"
            )
    if cfg.get("csv"):
        atomic_write_text(cfg["csv"], buf.getvalue())
        sys.stderr.write(f"wrote {ts.size * thetas.size} rows to {cfg['csv']}\n")
    else:
        sys.stdout.write(buf.getvalue())


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubitfeedback",
        description="Measurement-based qubit feedback: simulate, solve, compare.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, keys) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", help="INI file with [model]/[run]/[grid]/[output]")
        sub.add_argument("--no-timings", action="store_true",
                         help="omit wall-time fields for byte-stable output")
        for key in keys:
            flag, text = _SETTINGS[key][2:]
            if key in _DEFAULTS:
                text = f"{text} (default {_DEFAULTS[key]})"
            extra = {"action": "append", "metavar": "POLICY"} if key == "policies" else {}
            sub.add_argument(flag, dest=key, help=text, **extra)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        _check_output_dirs(cfg, args.command)
        summary = globals()[f"cmd_{args.command}"](cfg)
        if summary is not None:
            _emit_json(summary, cfg)
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
