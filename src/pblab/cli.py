"""Command line harness: reproducible experiments over the library.

Commands: pmf, approx, verify, sweep, distance, dependent, conditions.
Parameters come from an optional JSON config file plus flags; flags win.
Every run with the same effective config (seed included) emits byte
identical output: floats are fixed at 17 significant digits and files are
written atomically, so a failed run never leaves a partial file behind.

Exit codes: 0 success, 2 configuration or input errors, 3 violated
mathematical preconditions, 4 numerically untrustworthy alternating sums.
Errors are emitted to stderr as a one-object JSON report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields

from . import emit
from .asymptotics import (
    ApproxKind,
    approx_pmf,
    dehpfeif_report,
    verify_sandwich,
)
from .dependent import (
    RareSetSpec,
    check_scheme,
    load_model,
    ratio_report,
    validate_sample_budget,
)
from .errors import PblabError, ValidationError
from .exact import (
    Pmf,
    elementary_symmetric,
    pmf_bruteforce,
    pmf_dc,
    pmf_dp,
    pmf_inclusion_exclusion,
    prob_zero_log,
)
from .profiles import (
    BernoulliProfile,
    GrowthWindow,
    ProfileFamily,
    check_conditions,
    generate,
    load_profile,
    summarize,
)

COMMANDS = ("pmf", "approx", "verify", "sweep", "distance", "dependent", "conditions")
ENGINES = ("dp", "dc", "brute", "ie")
FORMATS = ("csv", "json")
PRECISIONS = ("float", "rational")

_KIND_NAMES = {
    "lambda": "lambda_form",
    "beta": "beta_form",
    "poisson": "poisson_form",
    "normal": "normal_local",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated experiment; every field checked before any computation."""

    command: str
    profile: str | None = None
    family: str | None = None
    n: int | None = None
    grid: tuple[int, ...] | None = None
    phi: str | None = None
    kind: str | None = None
    beta_cap: float | None = None
    k_max: int | None = None
    engine: str = "dp"
    precision: str = "float"
    seed: int = 0
    out: str | None = None
    format: str = "json"
    margin: float = 1e-9
    threshold: float = 0.1
    sample_budget: int = 2000
    model: str | None = None


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}
_DEFAULTS = {
    f.name: f.default for f in fields(ExperimentConfig) if f.name != "command"
}


def parse_family(spec: str) -> ProfileFamily:
    kind, _, rest = spec.partition(":")
    if not rest:
        raise ValidationError(f"family spec {spec!r} needs parameters after ':'")
    try:
        params = tuple(float(x) for x in rest.split(","))
    except ValueError as exc:
        raise ValidationError(f"cannot parse family parameters in {spec!r}") from exc
    return ProfileFamily(kind, params)


def parse_window(spec: str) -> GrowthWindow:
    kind, _, rest = spec.partition(":")
    try:
        params = tuple(float(x) for x in rest.split(",")) if rest else ()
    except ValueError as exc:
        raise ValidationError(f"cannot parse window parameters in {spec!r}") from exc
    if kind == "constant" and len(params) == 1:
        return GrowthWindow.constant(params[0])
    if kind in ("power", "power_of_lambda") and len(params) == 2:
        return GrowthWindow(kind, *params)
    raise ValidationError(
        f"window spec {spec!r} must be power:c,a or power_of_lambda:c,a or constant:c"
    )


def parse_kind(spec: str) -> ApproxKind:
    name, _, rest = spec.partition(":")
    if name == "poisson-limit":
        try:
            lam = float(rest)
        except ValueError as exc:
            raise ValidationError(f"poisson-limit needs a rate, got {spec!r}") from exc
        return ApproxKind.poisson_limit(lam)
    if rest:
        raise ValidationError(f"approximation kind {spec!r} takes no parameter")
    tag = _KIND_NAMES.get(name)
    if tag is None:
        raise ValidationError(
            f"unknown approximation kind {name!r}; "
            "use lambda|beta|poisson|poisson-limit:rate|normal"
        )
    return ApproxKind(tag)


def _parse_grid(value) -> tuple[int, ...]:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
        try:
            return tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ValidationError(f"cannot parse grid {value!r}") from exc
    if isinstance(value, (list, tuple)):
        try:
            return tuple(int(v) for v in value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"cannot parse grid {value!r}") from exc
    raise ValidationError(f"grid must be a comma list or array, got {value!r}")


def _load_config_file(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("config file must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys {sorted(unknown)}")
    file_command = data.pop("command", None)
    if file_command is not None and file_command != command:
        raise ValidationError(
            f"config file is for command {file_command!r}, invoked as {command!r}"
        )
    return data


def _coerce(name: str, value):
    if value is None:
        return None
    try:
        if name in ("n", "k_max", "seed", "sample_budget"):
            out = int(value)
            if isinstance(value, float) and value != out:
                raise ValueError
            return out
        if name in ("beta_cap", "margin", "threshold"):
            return float(value)
        if name == "grid":
            return _parse_grid(value)
        if name in ("profile", "family", "phi", "kind", "engine", "precision", "out", "format", "model"):
            if not isinstance(value, str):
                raise ValueError
            return value
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"config field {name!r} has invalid value {value!r}") from exc
    raise ValidationError(f"unknown config field {name!r}")


def build_config(command: str, flag_values: dict, config_path: str | None) -> ExperimentConfig:
    """Merge defaults, config file, and flags (flags win), then validate."""
    merged = dict(_DEFAULTS)
    if config_path:
        for key, value in _load_config_file(config_path, command).items():
            merged[key] = _coerce(key, value)
    for key, value in flag_values.items():
        if value is not None:
            merged[key] = _coerce(key, value)
    cfg = ExperimentConfig(command=command, **merged)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    if cfg.command not in COMMANDS:
        raise ValidationError(f"unknown command {cfg.command!r}")
    if cfg.engine not in ENGINES:
        raise ValidationError(f"engine must be one of {ENGINES}, got {cfg.engine!r}")
    if cfg.format not in FORMATS:
        raise ValidationError(f"format must be one of {FORMATS}, got {cfg.format!r}")
    if cfg.precision not in PRECISIONS:
        raise ValidationError(
            f"precision must be one of {PRECISIONS}, got {cfg.precision!r}"
        )
    if cfg.beta_cap is not None and not 0.0 < cfg.beta_cap < 1.0:
        raise ValidationError(f"beta_cap must lie in (0, 1), got {cfg.beta_cap!r}")
    if cfg.n is not None and cfg.n < 1:
        raise ValidationError("n must be >= 1")
    if cfg.k_max is not None and cfg.k_max < 0:
        raise ValidationError("k_max must be >= 0")
    if cfg.margin < 0.0:
        raise ValidationError("margin must be >= 0")
    if cfg.threshold <= 0.0:
        raise ValidationError("threshold must be > 0")
    validate_sample_budget(cfg.sample_budget)
    if cfg.profile is not None and cfg.family is not None:
        raise ValidationError("give either a profile file or a family, not both")
    # Parse eagerly so malformed specs fail before any computation.
    if cfg.family is not None:
        parse_family(cfg.family)
    if cfg.phi is not None:
        parse_window(cfg.phi)
    if cfg.kind is not None:
        parse_kind(cfg.kind)
    if cfg.grid is not None:
        if len(cfg.grid) < 2:
            raise ValidationError("grid needs at least two points")
        if any(b <= a for a, b in zip(cfg.grid, cfg.grid[1:])):
            raise ValidationError("grid must be strictly increasing")


def _resolve_profile(cfg: ExperimentConfig) -> BernoulliProfile:
    if cfg.profile is not None:
        return load_profile(cfg.profile)
    if cfg.family is not None:
        if cfg.n is None:
            raise ValidationError("a family needs --n to produce a profile")
        return generate(parse_family(cfg.family), cfg.n)
    raise ValidationError("command needs --profile or --family with --n")


def _deliver(cfg: ExperimentConfig, table: emit.Table, path: str | None = None) -> None:
    """Render in the configured format; write to path (default --out) or stdout."""
    text = emit.render_csv(table) if cfg.format == "csv" else emit.render_json(table)
    path = path or cfg.out
    if path:
        emit.atomic_write(path, text)
    else:
        sys.stdout.write(text)


def _slice_pmf(pmf: Pmf, k_max: int | None) -> Pmf:
    if k_max is None or k_max >= pmf.support_max:
        return pmf
    return Pmf(pmf.log_probs[: k_max + 1], pmf.n, pmf.provenance)


def _log_or_neg_inf(value: float) -> float:
    return math.log(value) if value > 0.0 else -math.inf


def _cmd_pmf(cfg: ExperimentConfig) -> None:
    profile = _resolve_profile(cfg)
    if cfg.k_max is not None and cfg.k_max > profile.n:
        raise ValidationError(f"k_max={cfg.k_max} exceeds n={profile.n}")
    if cfg.engine == "dp":
        pmf = pmf_dp(profile, cfg.k_max)
    elif cfg.engine == "dc":
        pmf = _slice_pmf(pmf_dc(profile), cfg.k_max)
    elif cfg.engine == "brute":
        pmf = _slice_pmf(pmf_bruteforce(profile), cfg.k_max)
    else:
        sums = elementary_symmetric(
            profile.probs, profile.n, high_precision=(cfg.precision == "rational")
        )
        k_hi = profile.n if cfg.k_max is None else cfg.k_max
        log_probs = [
            _log_or_neg_inf(pmf_inclusion_exclusion(sums, k, profile.n))
            for k in range(k_hi + 1)
        ]
        pmf = Pmf(log_probs, profile.n, "inclusion_exclusion")
    _deliver(cfg, emit.pmf_table(pmf, summarize(profile)))


def _cmd_approx(cfg: ExperimentConfig) -> None:
    if cfg.kind is None:
        raise ValidationError("approx needs --kind")
    kind = parse_kind(cfg.kind)
    profile = _resolve_profile(cfg)
    summary = summarize(profile)
    k_hi = profile.n if cfg.k_max is None else min(cfg.k_max, profile.n)
    p0 = prob_zero_log(profile)
    ks = list(range(k_hi + 1))
    log_vals = [approx_pmf(kind, summary, p0, k) for k in ks]
    _deliver(cfg, emit.approx_table(kind.spec_string(), summary, ks, log_vals))


def _cmd_verify(cfg: ExperimentConfig) -> None:
    if cfg.kind is None:
        raise ValidationError("verify needs --kind lambda|beta|poisson")
    if cfg.phi is None:
        raise ValidationError("verify needs --phi")
    kind = parse_kind(cfg.kind)
    window = parse_window(cfg.phi)
    profile = _resolve_profile(cfg)
    report = verify_sandwich(
        profile, kind, window, beta_cap=cfg.beta_cap, margin=cfg.margin
    )
    _deliver(cfg, emit.envelope_table(report))


def _cmd_distance(cfg: ExperimentConfig) -> None:
    profile = _resolve_profile(cfg)
    _deliver(cfg, emit.distance_table(dehpfeif_report(profile)))


def _cmd_conditions(cfg: ExperimentConfig) -> None:
    if cfg.family is None or cfg.grid is None:
        raise ValidationError("conditions needs --family and --grid")
    if cfg.phi is None:
        raise ValidationError("conditions needs --phi")
    family = parse_family(cfg.family)
    window = parse_window(cfg.phi)
    report = check_conditions(family, cfg.grid, window, threshold=cfg.threshold)
    _deliver(cfg, emit.conditions_table(report, family.spec_string()))


def _cmd_dependent(cfg: ExperimentConfig) -> None:
    if cfg.model is None:
        raise ValidationError("dependent needs --model (a model spec JSON file)")
    model = load_model(cfg.model)
    if cfg.profile is not None:
        indep = load_profile(cfg.profile)
    else:
        indep = BernoulliProfile(model.marginals)
    k_max = model.n if cfg.k_max is None else min(cfg.k_max, model.n)
    high_precision = cfg.precision == "rational"
    report = ratio_report(model, indep, k_max, high_precision)
    diagnostics = check_scheme(
        model,
        indep,
        RareSetSpec.empty(),
        max(1, k_max),
        sample_budget=cfg.sample_budget,
        seed=cfg.seed,
    )
    model_kind = type(model).__name__
    _deliver(
        cfg, emit.dependent_table(report, diagnostics, cfg.precision, model_kind, model.n)
    )


def _sweep_point(cfg: ExperimentConfig, family: ProfileFamily, n: int):
    """One grid point: its aggregate row and its own (envelope or distance) table."""
    profile = generate(family, n)
    summary = summarize(profile)
    row: tuple = (n, summary.lambda_n, summary.m_n, summary.sum_sq)
    if cfg.kind is not None:
        kind = parse_kind(cfg.kind)
        window = parse_window(cfg.phi or "")
        report = verify_sandwich(
            profile, kind, window, beta_cap=cfg.beta_cap, margin=cfg.margin
        )
        row += (report.max_abs_dev, report.violations, len(report.k_values))
        point = emit.envelope_table(report)
    else:
        report = dehpfeif_report(profile)
        point = emit.distance_table(report)
    if summary.lambda_n > 0.0 and summary.sum_sq > 0.0:
        # Without --kind the point's table is already this report.
        dist = report if cfg.kind is None else dehpfeif_report(profile)
        row += (dist.sup_cdf, dist.tv, dist.ratio)
    else:
        row += (None, None, None)
    return row, point


def _cmd_sweep(cfg: ExperimentConfig) -> None:
    if cfg.family is None or cfg.grid is None:
        raise ValidationError("sweep needs --family and --grid")
    if cfg.kind is not None and cfg.phi is None:
        raise ValidationError("sweep with --kind needs --phi")
    if cfg.kind is not None and parse_kind(cfg.kind).tag == "beta_form" and cfg.beta_cap is None:
        raise ValidationError(
            "sweep over a beta-form envelope needs an explicit --beta-cap "
            "(a per-n default would change meaning across the grid)"
        )
    family = parse_family(cfg.family)
    grid = list(cfg.grid)
    results = [_sweep_point(cfg, family, n) for n in grid]
    meta = {
        "command": "sweep",
        "family": family.spec_string(),
        "phi": cfg.phi,
        "kind": cfg.kind,
        "beta_cap": cfg.beta_cap,
        "grid": grid,
        "seed": cfg.seed,
    }
    aggregate = emit.sweep_table(meta, [row for row, _ in results], cfg.kind is not None)
    if not cfg.out:
        _deliver(cfg, aggregate)
        return
    os.makedirs(cfg.out, exist_ok=True)
    for n, (_, point) in zip(grid, results):
        _deliver(cfg, point, os.path.join(cfg.out, f"point_n{n}.{cfg.format}"))
    _deliver(cfg, aggregate, os.path.join(cfg.out, f"aggregate.{cfg.format}"))


_HANDLERS = {
    "pmf": _cmd_pmf,
    "approx": _cmd_approx,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "distance": _cmd_distance,
    "dependent": _cmd_dependent,
    "conditions": _cmd_conditions,
}


def run(cfg: ExperimentConfig) -> None:
    """Dispatch one validated experiment."""
    _HANDLERS[cfg.command](cfg)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pblab",
        description="Exact Bernoulli-sum distributions and their local approximations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("pmf", "exact distribution of the count by a selectable engine"),
        ("approx", "values of a named local approximant"),
        ("verify", "exact/approx ratios against the proved envelope"),
        ("sweep", "verify or distance across an n grid with per-point files"),
        ("distance", "Poisson distance and its first-order prediction"),
        ("dependent", "dependent-model PMF, ratios, and scheme diagnostics"),
        ("conditions", "family smallness diagnostics along an n grid"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--profile", help="profile file (one probability per line)")
        p.add_argument("--family", help="family spec, e.g. constant_total:2")
        p.add_argument("--n", type=int, help="row size for family-based profiles")
        p.add_argument("--grid", help="comma list of n values, e.g. 100,1000")
        p.add_argument("--phi", help="window spec, e.g. power:1,0.5")
        p.add_argument(
            "--kind", help="lambda|beta|poisson|poisson-limit:rate|normal"
        )
        p.add_argument("--beta-cap", dest="beta_cap", type=float, help="cap for the beta-form envelope")
        p.add_argument("--k-max", dest="k_max", type=int, help="largest k to evaluate")
        p.add_argument("--engine", choices=ENGINES, help="pmf engine (default dp)")
        p.add_argument("--precision", choices=PRECISIONS, help="float or rational")
        p.add_argument("--seed", type=int, help="seed for sampled diagnostics")
        p.add_argument("--out", help="output file (sweep: output directory)")
        p.add_argument("--format", choices=FORMATS, help="csv or json (default json)")
        p.add_argument("--margin", type=float, help="float tolerance for envelope checks")
        p.add_argument("--threshold", type=float, help="smallness cutoff for condition verdicts")
        p.add_argument(
            "--sample-budget", dest="sample_budget", type=int,
            help="tuples sampled per k when enumeration is too large",
        )
        p.add_argument("--model", help="dependent model spec JSON file")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    flag_values = {
        key: getattr(args, key)
        for key in _CONFIG_KEYS
        if key != "command" and hasattr(args, key)
    }
    try:
        cfg = build_config(args.command, flag_values, args.config)
        run(cfg)
    except PblabError as exc:
        sys.stderr.write(emit.render_json(emit.error_obj(exc)))
        return getattr(exc, "exit_code", 2)
    except OSError as exc:
        sys.stderr.write(emit.render_json(emit.error_obj(exc)))
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
