"""Outside-in spans: wrap pblab's stage functions at every module binding.

The traced run imports pblab in process and replaces each stage-level
public function (and the BernoulliProfile constructor hook) wherever a
pblab module binds it, so a call made through pblab.cli, pblab.asymptotics
or pblab.dependent all land in the same span recorder.  Per-element
functions (joint, approx_pmf, envelope_thm*, log_factorial, fmt_float) are
left alone to keep the overhead small.  Nothing in the program changes;
uninstall restores every binding.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from checks import bh_band

# Layer -> stage functions defined in pblab.<layer>.
STAGES = {
    "cli": ("main",),
    "profiles": ("generate", "load_profile", "summarize", "check_conditions"),
    "exact": ("pmf_dp", "pmf_dc", "pmf_bruteforce", "elementary_symmetric",
              "prob_zero_log", "sup_cdf_distance", "tv_distance"),
    "asymptotics": ("verify_sandwich", "dehpfeif_report"),
    "dependent": ("load_model", "ratio_report", "check_scheme"),
    "emit": ("render_json", "pmf_obj", "pmf_csv", "approx_obj", "approx_csv",
             "envelope_obj", "envelope_csv", "conditions_obj", "conditions_csv",
             "distance_obj", "distance_csv", "dependent_obj", "dependent_csv",
             "sweep_obj", "sweep_csv", "error_obj", "atomic_write"),
}
PROFILE_BUILD = "profiles.BernoulliProfile"

PER_LAYER = {
    "exact.pmf_dp_s": "s", "exact.pmf_dp_cells": "count", "exact.pmf_dp_cells_per_s": "1/s",
    "exact.pmf_dc_s": "s", "exact.pmf_dc_calls": "count", "exact.pmf_dc_entries_per_s": "1/s",
    "exact.distance_s": "s", "exact.esym_s": "s", "exact.esym_rational_s": "s",
    "profiles.build_s": "s", "profiles.summarize_s": "s", "profiles.summarize_calls": "count",
    "asymptotics.verify_self_s": "s", "asymptotics.window_k": "count",
    "asymptotics.distance_self_s": "s",
    "dependent.check_scheme_s": "s", "dependent.b1_tuples": "count",
    "dependent.b1_tuples_per_s": "1/s", "dependent.b1_sampled_k": "count",
    "dependent.ratio_report_s": "s",
    "emit.render_s": "s", "emit.bytes": "bytes", "emit.mb_per_s": "MB/s",
    "emit.write_s": "s", "emit.files": "count",
    "cli.self_s": "s", "cli.process_s": "s",
    "exact.false_neg_inf": "count", "exact.log_p0_abs_err": "nats", "exact.mass_defect": "prob",
    "asymptotics.bh_band_share": "ratio", "trace.overhead": "ratio",
}


# What each span keeps from its call, for counters computed after the pass.
def _info_pmf_dp(args, kwargs, result):
    k_max = args[1] if len(args) > 1 else kwargs.get("k_max")
    return args[0], k_max


_INFO = {
    "exact.pmf_dp": _info_pmf_dp,
    "exact.pmf_dc": lambda args, kwargs, result: (args[0], result),
    "exact.elementary_symmetric": lambda args, kwargs, result: bool(
        args[2] if len(args) > 2 else kwargs.get("high_precision", False)),
    "asymptotics.verify_sandwich": lambda args, kwargs, result: len(result.k_values),
    "asymptotics.dehpfeif_report": lambda args, kwargs, result: (
        result.summary.lambda_n, result.summary.sum_sq, result.tv),
    "dependent.check_scheme": lambda args, kwargs, result: (
        sum(result.checked_counts), list(result.modes).count("sampled")),
    "emit.atomic_write": lambda args, kwargs, result: len(args[1].encode("utf-8")),
}


@dataclass
class Span:
    name: str
    op: int
    parent: int
    t0: float = 0.0
    t1: float = 0.0
    info: object = None
    children: list = field(default_factory=list)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Installs wrappers over pblab's stage functions and records spans."""

    def __init__(self):
        import pblab.cli  # noqa: F401  (imports every layer the CLI reaches)

        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.modules = {m: sys.modules[f"pblab.{m}"] for m in STAGES}
        self.missing = [f"{layer}.{f}" for layer, names in STAGES.items()
                        for f in names if not hasattr(self.modules[layer], f)]

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        info = _INFO.get(name)

        def wrapper(*args, **kwargs):
            span = Span(name, self.op, stack[-1] if stack else -1)
            idx = len(spans)
            spans.append(span)
            if stack:
                spans[stack[-1]].children.append(idx)
            stack.append(idx)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every binding of every stage function the program still has."""
        pblab_modules = [m for k, m in sys.modules.items() if k == "pblab" or k.startswith("pblab.")]
        for layer, names in STAGES.items():
            for fname in names:
                fn = getattr(self.modules[layer], fname, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for mod in pblab_modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._saved.append((mod, attr, val))
                            setattr(mod, attr, wrapper)
        cls = self.modules["profiles"].BernoulliProfile
        hook = cls.__dict__.get("__post_init__")
        if hook is not None:
            self._saved.append((cls, "__post_init__", hook))
            cls.__post_init__ = self._wrap(PROFILE_BUILD, hook)

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._saved):
            setattr(owner, attr, val)
        self._saved.clear()

    @property
    def main(self):
        return self.modules["cli"].main


def _outer_total(spans: list[Span], names) -> float:
    """Time covered by spans with these names, not counting nested repeats."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            total += s.dur
    return total


def _self_total(spans: list[Span], name: str) -> float:
    return sum(s.dur - sum(spans[c].dur for c in s.children) for s in spans if s.name == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def dc_health(spans: list[Span], prob_zero_log) -> list[tuple[int, int, int, float | None, float]]:
    """Per pmf_dc call: (op, n, false -inf entries, |log P(0) error|, |mass - 1|).

    P(V = k) > 0 for every k up to the number of nonzero entries, so a -inf
    there is false.  The log P(0) error is None when the engine gave -inf
    (counted as a false -inf instead); it is measured against prob_zero_log.
    """
    out = []
    for s in spans:
        if s.name != "exact.pmf_dc":
            continue
        profile, pmf = s.info
        probs = np.asarray(profile.probs, dtype=np.float64)
        lp = np.asarray(pmf.log_probs, dtype=np.float64)
        false_inf = int(np.isneginf(lp[: np.count_nonzero(probs) + 1]).sum())
        p0_err = abs(float(lp[0]) - prob_zero_log(profile)) if math.isfinite(lp[0]) else None
        mass = abs(math.fsum(np.exp(lp).tolist()) - 1.0)
        out.append((s.op, len(probs), false_inf, p0_err, mass))
    return out


def layer_metrics(spans: list[Span], health, stdout_bytes: int, process_s: float,
                  overhead: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see PER_LAYER); health is dc_health(spans)."""
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)
    get = lambda name: by.get(name, [])  # noqa: E731

    dp_s = _outer_total(spans, ["exact.pmf_dp"])
    cells = 0
    for s in get("exact.pmf_dp"):
        profile, k_max = s.info
        probs = np.asarray(profile.probs, dtype=np.float64)
        cells += int(np.count_nonzero(probs)) * ((len(probs) if k_max is None else k_max) + 1)
    dc_s = _outer_total(spans, ["exact.pmf_dc"])
    p0_errs = [h[3] for h in health if h[3] is not None]
    esym = get("exact.elementary_symmetric")
    check_s = _outer_total(spans, ["dependent.check_scheme"])
    b1 = sum(s.info[0] for s in get("dependent.check_scheme"))
    reports = [s.info for s in get("asymptotics.dehpfeif_report")]
    in_band = 0
    for lam, sum_sq, tv in reports:
        lo, hi = bh_band(lam, sum_sq)
        in_band += lo <= tv <= hi
    render_names = [f"emit.{f}" for f in STAGES["emit"] if f != "atomic_write"]
    render_s = _outer_total(spans, render_names)
    out_bytes = stdout_bytes + sum(s.info for s in get("emit.atomic_write"))
    return {
        "exact.pmf_dp_s": dp_s,
        "exact.pmf_dp_cells": cells,
        "exact.pmf_dp_cells_per_s": _ratio(cells, dp_s),
        "exact.pmf_dc_s": dc_s,
        "exact.pmf_dc_calls": len(get("exact.pmf_dc")),
        "exact.pmf_dc_entries_per_s": _ratio(sum(h[1] for h in health), dc_s),
        "exact.distance_s": _outer_total(spans, ["exact.tv_distance", "exact.sup_cdf_distance"]),
        "exact.esym_s": _outer_total(spans, ["exact.elementary_symmetric"]),
        "exact.esym_rational_s": sum(s.dur for s in esym if s.info),
        "profiles.build_s": _outer_total(
            spans, ["profiles.generate", "profiles.load_profile", PROFILE_BUILD]),
        "profiles.summarize_s": _outer_total(spans, ["profiles.summarize"]),
        "profiles.summarize_calls": len(get("profiles.summarize")),
        "asymptotics.verify_self_s": _self_total(spans, "asymptotics.verify_sandwich"),
        "asymptotics.window_k": sum(s.info for s in get("asymptotics.verify_sandwich")),
        "asymptotics.distance_self_s": _self_total(spans, "asymptotics.dehpfeif_report"),
        "dependent.check_scheme_s": check_s,
        "dependent.b1_tuples": b1,
        "dependent.b1_tuples_per_s": _ratio(b1, check_s),
        "dependent.b1_sampled_k": sum(s.info[1] for s in get("dependent.check_scheme")),
        "dependent.ratio_report_s": _self_total(spans, "dependent.ratio_report"),
        "emit.render_s": render_s,
        "emit.bytes": out_bytes,
        "emit.mb_per_s": _ratio(out_bytes / 1e6, render_s),
        "emit.write_s": _outer_total(spans, ["emit.atomic_write"]),
        "emit.files": len(get("emit.atomic_write")),
        "cli.self_s": _self_total(spans, "cli.main"),
        "cli.process_s": process_s,
        "exact.false_neg_inf": sum(h[2] for h in health),
        "exact.log_p0_abs_err": max(p0_errs, default=0.0),
        "exact.mass_defect": max((h[4] for h in health), default=0.0),
        "asymptotics.bh_band_share": _ratio(in_band, len(reports)),
        "trace.overhead": overhead,
    }
