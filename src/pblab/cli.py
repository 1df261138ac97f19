"""Command line harness: reproducible experiments over the library.

Two tables state the whole input surface.  `_OPTIONS` gives each option
one converter, which turns a flag string and a JSON config-file value into
the same `ExperimentConfig` field.  `_COMMANDS` gives each command
(pmf, approx, verify, sweep, distance, dependent, conditions) its handler,
the options it reads and the options it requires.  A command accepts only
the options it reads, plus --out, --format and --config, as flags or as
config keys; flags win over the file, and a null config value counts as
not given.  An option read only in some combinations (--n with --family,
pmf's --precision rational with --engine ie, a sweep's --phi and
--beta-cap with --kind) exits 2 in any other.

`_validate_config` checks every value and every combination before any
computation, with the library's own rules: the spec strings of --family,
--phi and --kind go through ProfileFamily.parse, GrowthWindow.parse and
ApproxKind.parse, and --margin, --threshold and --sample-budget through
the checkers of the functions that read them.  Every run with the same
effective config (seed included) emits byte identical output: floats are
fixed at 17 significant digits and files are written atomically, so a
failed run never leaves a partial file behind.

Exit codes: 0 success, 2 configuration or input errors, 3 violated
mathematical preconditions, 4 numerically untrustworthy alternating sums.
Errors are emitted to stderr as a one-object JSON report; argparse's own
errors (an unknown command or flag) print its usage text instead.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import emit
from ._util import read_json
from .asymptotics import (
    APPROX_USAGE,
    ApproxKind,
    approx_pmf,
    check_margin,
    check_sandwich_kind,
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
from .exact import _check_k_max, pmf_bruteforce, pmf_dc, pmf_dp, pmf_ie, pmf_tree
from .profiles import (
    BernoulliProfile,
    GrowthWindow,
    ProfileFamily,
    check_conditions,
    check_grid,
    check_threshold,
    generate,
    load_profile,
)

ENGINES = ("dp", "tree", "dc", "brute", "ie")
FORMATS = ("csv", "json")
PRECISIONS = ("float", "rational")


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
    engine: str = "tree"
    precision: str = "float"
    seed: int = 0
    out: str | None = None
    format: str = "json"
    margin: float = 1e-9
    threshold: float = 0.1
    sample_budget: int = 2000
    model: str | None = None


_DEFAULTS = {
    f.name: f.default for f in fields(ExperimentConfig) if f.name != "command"
}


def _int(value) -> int:
    # A JSON true is a Python int; it is not a count.
    if isinstance(value, bool):
        raise TypeError(value)
    out = int(value)
    if isinstance(value, float) and value != out:
        raise ValueError(value)
    return out


def _float(value) -> float:
    if isinstance(value, bool):
        raise TypeError(value)
    return float(value)


def _str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(value)
    return value


def _choice(choices: tuple[str, ...]):
    def convert(value) -> str:
        if value not in choices:
            raise ValueError(value)
        return value
    return convert


def _grid(value) -> tuple[int, ...]:
    if isinstance(value, str):
        value = [p for p in value.split(",") if p.strip()]
    if not isinstance(value, list):
        raise TypeError(value)
    return tuple(_int(v) for v in value)


# option -> (converter of a flag string or a config-file value, help text)
_OPTIONS = {
    "profile": (_str, "profile file (one probability per line)"),
    "family": (_str, "family spec, e.g. constant_total:2"),
    "n": (_int, "row size for family-based profiles"),
    "grid": (_grid, "comma list of n values, e.g. 100,1000 (a JSON list in a config file)"),
    "phi": (_str, "window spec, e.g. power:1,0.5"),
    "kind": (_str, APPROX_USAGE),
    "beta_cap": (_float, "cap for the beta-form envelope"),
    "k_max": (_int, "largest k to evaluate"),
    "engine": (_choice(ENGINES), f"{'|'.join(ENGINES)}: the pmf engine (default tree)"),
    "precision": (_choice(PRECISIONS), f"{'|'.join(PRECISIONS)} (default float)"),
    "seed": (_int, "seed for sampled diagnostics"),
    "out": (_str, "output file (sweep: output directory)"),
    "format": (_choice(FORMATS), f"{'|'.join(FORMATS)} (default json)"),
    "margin": (_float, "float tolerance for envelope checks"),
    "threshold": (_float, "smallness cutoff for condition verdicts"),
    "sample_budget": (_int, "tuples sampled per k when enumeration is too large"),
    "model": (_str, "dependent model spec JSON file"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _load_config_file(path: str, command: str) -> dict:
    data = read_json(path, "config")
    if not isinstance(data, dict):
        raise ValidationError("config file must hold a JSON object")
    file_command = data.pop("command", None)
    if file_command is not None and file_command != command:
        raise ValidationError(
            f"config file is for command {file_command!r}, invoked as {command!r}"
        )
    unknown = set(data) - set(_reads(command))
    if unknown:
        raise ValidationError(f"unknown config keys {sorted(unknown)} for {command}")
    return data


def _coerce(name: str, value):
    convert, help_text = _OPTIONS[name]
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} has invalid value {value!r}; expected {help_text}") from exc


def build_config(command: str, flag_values: dict, config_path: str | None) -> ExperimentConfig:
    """Merge defaults, config file, and flags (flags win), then validate.

    A null config value or a None flag means "not given".
    """
    if command not in _COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    merged = dict(_DEFAULTS)
    for given in (_load_config_file(config_path, command) if config_path else {}, flag_values):
        merged.update((k, _coerce(k, v)) for k, v in given.items() if v is not None)
    cfg = ExperimentConfig(command=command, **merged)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    for name in _COMMANDS[cfg.command][3]:
        if getattr(cfg, name) is None:
            raise ValidationError(f"{cfg.command} needs {_flag(name)}")
    if cfg.beta_cap is not None and not 0.0 < cfg.beta_cap < 1.0:
        raise ValidationError(f"beta_cap must lie in (0, 1), got {cfg.beta_cap!r}")
    if cfg.n is not None and cfg.n < 1:
        raise ValidationError("n must be >= 1")
    if cfg.k_max is not None and cfg.k_max < 0:
        raise ValidationError("k_max must be >= 0")
    check_margin(cfg.margin)
    check_threshold(cfg.threshold)
    validate_sample_budget(cfg.sample_budget)
    if cfg.profile is not None and cfg.family is not None:
        raise ValidationError("give either a profile file or a family, not both")
    # Parse eagerly so malformed specs fail before any computation.
    if cfg.family is not None:
        ProfileFamily.parse(cfg.family)
    if cfg.phi is not None:
        GrowthWindow.parse(cfg.phi)
    kind = None if cfg.kind is None else ApproxKind.parse(cfg.kind)
    if kind is not None and cfg.command in ("verify", "sweep"):
        check_sandwich_kind(kind.tag, cfg.beta_cap)
    if cfg.grid is not None:
        check_grid(cfg.grid)
    # Options that only some combinations read; anywhere else they exit 2.
    if cfg.profile is not None and cfg.n is not None:
        raise ValidationError("--n applies to --family only, not to --profile")
    if cfg.command == "pmf" and cfg.precision == "rational" and cfg.engine != "ie":
        raise ValidationError(f"--precision rational applies to --engine ie only, not {cfg.engine}")
    if cfg.out == "":  # it would name no file, and the output would go to stdout
        raise ValidationError("--out must not be empty")
    if cfg.out:  # a sweep writes into a directory, any other command one file
        sweep = cfg.command == "sweep"
        if not sweep:
            emit.check_file_path(cfg.out)
        head = cfg.out  # its first existing ancestor ("" for the working directory)
        while head and not os.path.lexists(head):
            head = os.path.dirname(head)
        if head and not os.path.isdir(head) and (sweep or head != cfg.out):
            what = "it" if head == cfg.out else repr(head)
            into = "sweep files into" if sweep else "to"
            raise ValidationError(f"cannot write {into} {cfg.out!r}: {what} names a file")
    if cfg.command == "sweep":
        if kind is None:
            for name in ("phi", "beta_cap"):
                if getattr(cfg, name) is not None:
                    raise ValidationError(f"sweep reads {_flag(name)} only with --kind")
        elif cfg.phi is None:
            raise ValidationError("sweep with --kind needs --phi")
        elif kind.tag == "beta_form" and cfg.beta_cap is None:
            raise ValidationError(
                "sweep over a beta-form envelope needs an explicit --beta-cap "
                "(a per-n default would change meaning across the grid)"
            )
    # The commands that read --n build their row from --profile or --family with --n.
    if "n" in _COMMANDS[cfg.command][2] and cfg.profile is None:
        if cfg.family is None:
            raise ValidationError(f"{cfg.command} needs --profile or --family with --n")
        if cfg.n is None:
            raise ValidationError("a family needs --n to produce a profile")


def _resolve_profile(cfg: ExperimentConfig) -> BernoulliProfile:
    if cfg.profile is not None:
        return load_profile(cfg.profile)
    return generate(ProfileFamily.parse(cfg.family), cfg.n)


def _deliver(cfg: ExperimentConfig, table: emit.Table, path: str | None = None) -> None:
    """Render in the configured format; write to path (default --out) or stdout."""
    text = emit.render_csv(table) if cfg.format == "csv" else emit.render_json(table)
    path = path or cfg.out
    if path:
        emit.atomic_write(path, text)
    else:
        sys.stdout.write(text)


def _cmd_pmf(cfg: ExperimentConfig) -> None:
    profile = _resolve_profile(cfg)
    # Every engine applies _check_k_max, the rule approx and dependent share.
    # Built per call from this module's names, so a rebound name is the one called.
    engine = {"dp": pmf_dp, "tree": pmf_tree, "dc": pmf_dc, "brute": pmf_bruteforce,
              "ie": lambda p, k: pmf_ie(p, k, cfg.precision == "rational")}[cfg.engine]
    _deliver(cfg, emit.pmf_table(engine(profile, cfg.k_max), profile.summary))


def _cmd_approx(cfg: ExperimentConfig) -> None:
    kind = ApproxKind.parse(cfg.kind)
    profile = _resolve_profile(cfg)
    summary = profile.summary
    ks = np.arange(_check_k_max(cfg.k_max, profile.n) + 1)
    log_vals = approx_pmf(kind, summary, summary.alpha_n, ks)
    _deliver(cfg, emit.approx_table(kind.spec_string(), summary, ks, log_vals))


def _cmd_verify(cfg: ExperimentConfig) -> None:
    kind = ApproxKind.parse(cfg.kind)
    window = GrowthWindow.parse(cfg.phi)
    profile = _resolve_profile(cfg)
    report = verify_sandwich(
        profile, kind, window, beta_cap=cfg.beta_cap, margin=cfg.margin
    )
    _deliver(cfg, emit.envelope_table(report))


def _cmd_distance(cfg: ExperimentConfig) -> None:
    profile = _resolve_profile(cfg)
    _deliver(cfg, emit.distance_table(dehpfeif_report(profile)))


def _cmd_conditions(cfg: ExperimentConfig) -> None:
    family = ProfileFamily.parse(cfg.family)
    window = GrowthWindow.parse(cfg.phi)
    report = check_conditions(family, cfg.grid, window, threshold=cfg.threshold)
    _deliver(cfg, emit.conditions_table(report, family.spec_string()))


def _cmd_dependent(cfg: ExperimentConfig) -> None:
    model = load_model(cfg.model)
    if cfg.profile is not None:
        indep = load_profile(cfg.profile)
    else:
        indep = BernoulliProfile(model.marginals)
    k_max = _check_k_max(cfg.k_max, model.n)
    high_precision = cfg.precision == "rational"
    report = ratio_report(model, indep, k_max, high_precision)
    diagnostics = check_scheme(
        model,
        indep,
        RareSetSpec("empty"),
        max(1, k_max),
        sample_budget=cfg.sample_budget,
        seed=cfg.seed,
    )
    model_kind = type(model).__name__
    _deliver(
        cfg, emit.dependent_table(report, diagnostics, cfg.precision, model_kind, model.n)
    )


def _sweep_point(cfg: ExperimentConfig, family: ProfileFamily, kind, window, n: int):
    """One grid point: its row of the aggregate, as plain values, and its own table.

    The row is what emit.sweep_table reads.  The envelope columns come only
    with --kind, and the distances are None unless lambda_n and sum b^2 are
    positive.  No profile, summary or report outlives the call.
    """
    profile = generate(family, n)
    summary = profile.summary
    row = (n, summary.lambda_n, summary.m_n, summary.sum_sq)
    if kind is None:
        dist = dehpfeif_report(profile)
        point = emit.distance_table(dist)
    else:
        envelope = verify_sandwich(
            profile, kind, window, beta_cap=cfg.beta_cap, margin=cfg.margin
        )
        row += (envelope.max_abs_dev, envelope.violations, len(envelope.k_values))
        positive = summary.lambda_n > 0.0 and summary.sum_sq > 0.0
        dist = dehpfeif_report(profile) if positive else None
        point = emit.envelope_table(envelope)
    row += (None, None, None) if dist is None else (dist.sup_cdf, dist.tv, dist.ratio)
    return row, point


def _cmd_sweep(cfg: ExperimentConfig) -> None:
    kind = window = None
    if cfg.kind is not None:
        kind, window = ApproxKind.parse(cfg.kind), GrowthWindow.parse(cfg.phi)
    family = ProfileFamily.parse(cfg.family)
    grid = list(cfg.grid)
    rows, points = zip(*(_sweep_point(cfg, family, kind, window, n) for n in grid))
    meta = {
        "command": "sweep",
        "family": family.spec_string(),
        "phi": cfg.phi,
        "kind": cfg.kind,
        "beta_cap": cfg.beta_cap,
        "grid": grid,
        "seed": 0,  # a sweep draws nothing; the key keeps the aggregate's bytes
    }
    aggregate = emit.sweep_table(meta, rows, kind is not None)
    if not cfg.out:
        _deliver(cfg, aggregate)
        return
    for n, point in zip(grid, points):
        _deliver(cfg, point, os.path.join(cfg.out, f"point_n{n}.{cfg.format}"))
    _deliver(cfg, aggregate, os.path.join(cfg.out, f"aggregate.{cfg.format}"))


# command -> (handler, help text, options it reads besides --out and --format,
#             options it requires)
_COMMANDS = {
    "pmf": (_cmd_pmf, "exact distribution of the count by a selectable engine",
            ("profile", "family", "n", "k_max", "engine", "precision"), ()),
    "approx": (_cmd_approx, "values of a named local approximant",
               ("profile", "family", "n", "kind", "k_max"), ("kind",)),
    "verify": (_cmd_verify, "exact/approx ratios against the proved envelope",
               ("profile", "family", "n", "kind", "phi", "beta_cap", "margin"),
               ("kind", "phi")),
    "sweep": (_cmd_sweep, "verify or distance across an n grid with per-point files",
              ("family", "grid", "kind", "phi", "beta_cap", "margin"), ("family", "grid")),
    "distance": (_cmd_distance, "Poisson distance and its first-order prediction",
                 ("profile", "family", "n"), ()),
    "dependent": (_cmd_dependent, "dependent-model PMF, ratios, and scheme diagnostics",
                  ("model", "profile", "k_max", "precision", "seed", "sample_budget"),
                  ("model",)),
    "conditions": (_cmd_conditions, "family smallness diagnostics along an n grid",
                   ("family", "grid", "phi", "threshold"), ("family", "grid", "phi")),
}


def _reads(command: str) -> tuple[str, ...]:
    return (*_COMMANDS[command][2], "out", "format")


def run(cfg: ExperimentConfig) -> None:
    """Dispatch one validated experiment."""
    _COMMANDS[cfg.command][0](cfg)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pblab",
        description="Exact Bernoulli-sum distributions and their local approximations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, _, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        for name in _reads(command):
            p.add_argument(_flag(name), dest=name, help=_OPTIONS[name][1])
    return parser


def main(argv=None) -> int:
    try:
        args = vars(_parser().parse_args(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    command, config_path = args.pop("command"), args.pop("config")
    try:
        run(build_config(command, args, config_path))
    except (PblabError, OSError) as exc:
        sys.stderr.write(emit.render_json(emit.error_obj(exc)))
        return getattr(exc, "exit_code", 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
