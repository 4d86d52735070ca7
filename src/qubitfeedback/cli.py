"""Command-line front end for simulations, grid solves, and comparisons.

Configuration comes from an INI file (``--config``) overridden by flags;
flags win.  Each setting is declared once, in ``_SETTINGS``, and a value
goes through the same parser whether it comes from the file or a flag.
Machine-readable output (a JSON summary, or CSV for ``compare`` and
``lq``) goes through one writer, `_emit`, to stdout or atomically to the
requested file; a short human-readable report always goes to stderr.  A
JSON summary's ``wall_time_s`` times the whole command and is left out
under ``--no-timings``.  Exit codes: 0 success, 1 runtime failure, 2
configuration error.

The start state is read against the model's state shape before any
policy is built, so a bad ``--x0`` exits 2 before a grid is loaded.  Each
``--policy`` flag of ``compare`` is one policy; only the INI ``policies``
value is split, on ``;``.  One function, `_grid_policy`, turns a solved
``.vgrid`` into a policy for ``simulate``, ``compare`` and ``evaluate``
alike, and refuses a grid solved for another model, ``kappa_s_sq``,
``alpha`` or ``horizon_T`` than the run's; ``evaluate`` takes those from
its grid unless they are given.
"""

from __future__ import annotations

import argparse
import configparser
import functools
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
    _interp_slice,
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


def _policy_list(text: str) -> list:
    return [p.strip() for p in text.split(";") if p.strip()]


# key -> (INI section, or None for a flag only, parser, flag, help); every
# value, from the INI file or a flag, goes through `_parse_setting` (but for
# compare's repeated --policy), and the merged config is flat on the keys
_SETTINGS = {
    "model": ("model", _parse_model, "--model",
              " | ".join(rec.model_id for rec in MODEL_RECORDS.values())),
    "kappa_s_sq": ("model", float, "--kappa-s-sq", "observed-channel decay rate squared"),
    "alpha": ("model", float, "--alpha", "angle-model noise gain"),
    "horizon_T": ("model", float, "--horizon-t", "control horizon T"),
    "x0": ("run", _typed(lambda text: [float(v) for v in text.split(",")], "numbers for run.x0"),
           "--x0", "initial state: 'px,py,pz' or a single angle"),
    "dt": ("run", float, "--dt", "Euler time step"),
    "n_paths": ("run", int, "--n-paths", "Monte Carlo sample size"),
    "seed": ("run", int, "--seed", "RNG seed"),
    "policy": ("run", str, "--policy", "zero | constant:<v> | lq-closed-form | grid:<path>"),
    "policies": ("run", _policy_list, "--policy", "policy to include (repeat; at least two)"),
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
    """Merge defaults, the INI keys the command takes, and flags; record which were given."""
    keys = _COMMANDS[args.command][1]
    given = {k: v for k, v in (_read_ini(args.config) if args.config else {}).items() if k in keys}
    for key in keys:
        text = getattr(args, key)
        if text is not None:  # compare's --policy flags come as a list, one policy each
            given[key] = ([p.strip() for p in text] if key == "policies"
                          else _parse_setting(key, text))
    return {**_DEFAULTS, **given, "_given": frozenset(given)}


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
    return ModelParams(**{key: cfg[key] for key in _MODEL_KEYS[1:]})


def _parse_x0(cfg: dict, model: str) -> np.ndarray:
    """The start state in the model's state shape; by default 1 in the first
    coordinate and 0 elsewhere (theta = 1, or p = (1, 0, 0))."""
    rec = model_record(model)
    size = np.prod(rec.state_shape, dtype=int)
    vals = cfg.get("x0", [1.0] + [0.0] * (size - 1))
    if len(vals) != size:
        raise ConfigError(f"x0 for the {rec.model_id} model takes {size} value(s), got {len(vals)}")
    return np.reshape(vals, rec.state_shape)


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
        return _grid_policy(ValueGrid.load(path), path, model, params)
    raise ConfigError(
        f"unknown policy {policy_text!r}; expected zero, constant:<values>, "
        "lq-closed-form, or grid:<path>"
    )


def _grid_policy(vg: ValueGrid, path: str, model: str, params: ModelParams):
    """The feedback a solved grid stores, refused unless the grid was solved
    for the run's model and parameters: it is optimal only for those."""
    if vg.spec.model != model:
        raise ConfigError(
            f"model mismatch: {path} holds {vg.spec.record.model_id}, "
            f"the run uses {model_record(model).model_id}"
        )
    for key, stored in (("kappa_s_sq", vg.kappa_s_sq), ("alpha", vg.alpha),
                        ("horizon_T", vg.spec.horizon_T)):
        value = getattr(params, key)
        if not abs(value - stored) <= 1e-12:
            raise ConfigError(
                f"{key} mismatch: config says {value!r}, {path} was solved with {stored!r}"
            )
    return extract_policy(vg)


# ---------------------------------------------------------------------------
# output plumbing


def _emit(text: str, path) -> None:
    """A command's machine-readable output: atomically to ``path``, else to stdout."""
    if path:
        atomic_write_text(path, text)
    else:
        sys.stdout.write(text)


def _emit_table(rows) -> None:
    """Aligned key/value or columnar report on stderr."""
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for row in rows:
        line = "  ".join(str(c).ljust(w) for c, w in zip(row, widths))
        sys.stderr.write(line.rstrip() + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _run_policy(command: str, cfg: dict, build, label: dict) -> dict:
    """Cost of the policy ``build(model, params)`` over the seeded batch:
    `simulate` and `evaluate` differ only in how they build it.  Reports on
    stderr and returns the JSON summary, which carries ``label``."""
    model = _require(cfg, "model", command)
    params = _model_params(cfg)
    x0 = _parse_x0(cfg, model)
    policy = build(model, params)
    stats = run_batch(model, policy, x0, params, cfg["dt"], cfg["n_paths"], cfg["seed"])
    summary = {
        "command": command,
        "model": model_record(model).model_id,
        "x0": x0.ravel().tolist(),
        "mean_cost": stats.mean,
        "stderr": stats.stderr,
        "n_paths": stats.n,
        "seed": cfg["seed"],
        "dt": cfg["dt"],
        "horizon_T": cfg["horizon_T"],
        **label,
    }
    if cfg.get("csv"):
        traj = simulate(model, policy, x0, params, cfg["dt"], seed=cfg["seed"])
        traj.to_csv(cfg["csv"])
        summary["csv"] = cfg["csv"]
    _emit_table([("model", summary["model"]), *label.items(),
                 ("mean_cost", f"{stats.mean:.6g}"), ("stderr", f"{stats.stderr:.3g}"),
                 ("n_paths", stats.n)])
    return summary


def cmd_simulate(cfg: dict) -> dict:
    text = cfg.get("policy", "zero")
    return _run_policy("simulate", cfg, functools.partial(_make_policy, text), {"policy": text})


def cmd_solve(cfg: dict) -> dict:
    for key in ("mode", "control_resolution"):
        if cfg["method"] == "fd" and key in cfg["_given"]:
            raise ConfigError(f"grid.{key} applies to --method dp only; "
                              "fd takes the closed-form control")
    if cfg["mode"] == CLOSED_FORM and "control_resolution" in cfg["_given"]:
        raise ConfigError("grid.control_resolution applies to --mode exhaustive only")
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
    # the DP's interpolation error grows like h^2/delta; the slack keeps a grid
    # exactly at the bound (h = 0.1, delta = 0.01) quiet
    ratio = min(spec.spacings()) ** 2 / spec.delta if spec.n_steps else 0.0
    if cfg["method"] == "dp" and ratio > 1.0 + 1e-9:
        sys.stderr.write(f"warning: h^2/delta = {ratio:.3g} > 1 with the smallest spacing h; "
                         "the DP's interpolation error grows with it: use fewer steps or more nodes\n")
    if cfg["method"] == "fd":
        vg = solve_backward(spec, params)
    else:
        vg = solve_dp(spec, params, mode=cfg["mode"])
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
        summary["j0_at_theta_1"] = float(_interp_slice(spec._geometry, vg.values[0], 1.0))
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
    # the grid's model and parameters, unless given: `_grid_policy` then
    # refuses a given one that differs
    stored = {"model": vg.spec.model, "kappa_s_sq": vg.kappa_s_sq, "alpha": vg.alpha,
              "horizon_T": vg.spec.horizon_T}
    cfg = {**cfg, **{k: v for k, v in stored.items() if k not in cfg["_given"]}}
    return _run_policy("evaluate", cfg, functools.partial(_grid_policy, vg, grid_path),
                       {"grid": grid_path})


def cmd_compare(cfg: dict) -> dict | None:
    model = _require(cfg, "model", "compare")
    params = _model_params(cfg)
    x0 = _parse_x0(cfg, model)
    texts = cfg.get("policies", [])
    if len(texts) < 2:
        raise ConfigError("compare needs at least two --policy entries")
    policies = [_make_policy(text, model, params) for text in texts]
    # common random numbers: every policy runs on the same noise draw
    stats = run_batches(model, policies, x0, params, cfg["dt"], cfg["n_paths"], cfg["seed"])
    rows = [(text, s.mean, s.stderr, s.n) for text, s in zip(texts, stats)]
    rows.sort(key=lambda r: r[1])
    _emit_table([("policy", "mean", "stderr")] + [
        (text, f"{mean:.6g}", f"{stderr:.3g}") for text, mean, stderr, _ in rows
    ])
    lines = [f"{text},{FLOAT_FMT % mean},{FLOAT_FMT % stderr},{n:d}\n"
             for text, mean, stderr, n in rows]
    _emit("policy,mean,stderr,n\n" + "".join(lines), cfg.get("table"))
    if not (cfg.get("table") or cfg.get("json")):
        return None  # the CSV on stdout is the whole output
    return {
        "command": "compare",
        "model": model_record(model).model_id,
        "table": cfg.get("table"),
        "policies": [r[0] for r in rows],
        "best": rows[0][0],
        "n_paths": cfg["n_paths"],
        "seed": cfg["seed"],
    }


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
    rows = [f"{FLOAT_FMT % t},{FLOAT_FMT % theta},{FLOAT_FMT % v},{FLOAT_FMT % b}\n"
            for t in ts
            for theta, v, b in zip(thetas, lq.value(t, thetas, T, params.alpha),
                                   lq.optimal_B(t, thetas, T))]
    _emit("t,theta,value,control\n" + "".join(rows), cfg.get("csv"))
    if cfg.get("csv"):
        sys.stderr.write(f"wrote {len(rows)} rows to {cfg['csv']}\n")


# ---------------------------------------------------------------------------
# argument parsing


# built once: each argparse parser leaves some 900 objects in reference cycles
@functools.cache
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
        t0 = time.perf_counter()
        summary = globals()[f"cmd_{args.command}"](cfg)
        if summary is not None:
            if not args.no_timings:
                summary["wall_time_s"] = time.perf_counter() - t0
            _emit(json.dumps(summary, sort_keys=True, indent=2) + "\n", cfg.get("json"))
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
