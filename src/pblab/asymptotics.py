"""Local approximations to the count distribution and their error envelopes.

Three Poisson-type forms share the shape approx(k) = anchor * rate^k / k!,
and each is one (anchor, rate, rails) entry: approx_pmf's table gives its
anchor and rate, _sandwich_rails its (lower, upper, valid) rail columns.  Every
approximant and envelope takes an int array of k (a Python int is the 0-d
case) and returns arrays; exp, lgamma and the normal square are libm's,
mapped per entry, so each entry is bit for bit the scalar formula's.

* lambda_form: anchor P(V=0), rate lambda_n.  Two-sided envelope
  [1 - eps1, 1 + eps2] with eps1 = k^2 m/lambda, eps2 = km/(1-km).
* beta_form: anchor P(V=0), rate beta_n (odds sum).  One-sided: the true
  ratio never exceeds 1, and stays above 1 - k^2 beta/(lambda(1-beta))
  for any cap beta covering every entry.
* poisson_form: anchor e^(-lambda_n), rate lambda_n.  The zero-probability
  identity P(V=0) = e^alpha with -sum b^2 <= alpha + lambda <= 0 (valid for
  entries below 1/2) turns the lambda_form envelope into a fully explicit
  bracket around the plain Poisson pmf.

plus poisson_limit (anchor e^(-lam), rate lam for a fixed external rate,
no rails) and normal_local (the Gaussian density at integer points).
Envelope side conditions are explicit: the derivations need k*m < 1 and
eps1 < 1 at the working (n, k), which is what "n large enough" buys in the
limit.  Validity flags carry exactly that.

A note on the poisson_form bracket: combining the two ingredients above
gives e^(-sum b^2) * (1 - eps1) <= ratio <= 1 + eps2.  The wider display
lower = 1 - eps1, upper = e^(sum b^2) * (1 + eps2) keeps only its upper
half: at k = 0 the ratio IS P(V=0) e^lambda <= 1, which sits below 1 - eps1
= 1 whenever some b_i > 0.  envelope_thm3 reports that display as stated;
poisson_form_bracket reports the two-sided bracket that actually holds, and
the sandwich verifier uses the provable rails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import (as_count, as_counts, exact_sum, frozen_row, libm_exp, log_factorials,
                    spec_number)
from .errors import HypothesisError, ValidationError
from .exact import Pmf, PoissonRef, _product_coeffs, pmf_tree, poisson_distances
from .profiles import BernoulliProfile, GrowthWindow, ProfileSummary

# CLI name -> tag: the one vocabulary ApproxKind, its parse and its usage text read.
APPROX_NAMES = {"lambda": "lambda_form", "beta": "beta_form", "poisson": "poisson_form",
                "poisson-limit": "poisson_limit", "normal": "normal_local"}
APPROX_USAGE = "|".join(
    f"{name}:rate" if tag == "poisson_limit" else name for name, tag in APPROX_NAMES.items()
)
_SANDWICH_TAGS = ("lambda_form", "beta_form", "poisson_form")


@dataclass(frozen=True)
class ApproxKind:
    """A named approximant; poisson_limit carries its fixed rate.

    parse reads a CLI name (`poisson-limit:2`) or the tag spec_string writes (`poisson_limit:2`).
    """

    tag: str
    lam: float | None = None

    def __post_init__(self) -> None:
        if self.tag not in APPROX_NAMES.values():
            raise ValidationError(f"unknown approximation tag {self.tag!r}")
        if self.tag == "poisson_limit":
            if self.lam is None:
                raise ValidationError("poisson_limit needs a rate")
            lam = float(self.lam)
            if not (math.isfinite(lam) and lam > 0.0):
                raise ValidationError(f"poisson_limit rate must be finite > 0, got {lam!r}")
            object.__setattr__(self, "lam", lam)
        elif self.lam is not None:
            raise ValidationError(f"{self.tag} takes no rate parameter")

    @classmethod
    def parse(cls, spec: str) -> "ApproxKind":
        """The approximant a CLI name (APPROX_USAGE) or a report's tag names."""
        name, sep, rest = spec.partition(":")
        tag = APPROX_NAMES.get(name) or (name if name in APPROX_NAMES.values() else None)
        if tag is None:
            raise ValidationError(f"unknown approximation kind {name!r}; use {APPROX_USAGE}")
        if tag == "poisson_limit":
            try:
                lam = float(rest)
            except ValueError as exc:
                raise ValidationError(f"poisson-limit needs a rate, got {spec!r}") from exc
            return cls(tag, lam)
        if sep:  # a parameter, or an empty one, on a kind that takes none
            raise ValidationError(f"approximation kind {spec!r} takes no parameter")
        return cls(tag)

    def spec_string(self) -> str:
        if self.tag == "poisson_limit":
            return f"poisson_limit:{spec_number(self.lam)}"
        return self.tag


def approx_pmf(kind: ApproxKind, summary: ProfileSummary, p0_log: float, k) -> np.ndarray:
    """Log of the named approximant at each k of an int array (a scalar for a 0-d k).

    p0_log anchors the lambda and beta forms; passing the exact engine's own
    k=0 entry makes the ratio at k=0 equal 1 bit for bit.
    """
    ks = as_counts(k, "k")
    if kind.tag == "normal_local":
        if summary.var_n <= 0.0:
            raise HypothesisError("normal_local needs var_n > 0")
        var = summary.var_n
        square = np.float_power(ks - summary.lambda_n, 2.0)  # libm's pow, as d ** 2
        return (-0.5 * math.log(2.0 * math.pi * var) - square / (2.0 * var))[()]
    if kind.tag == "poisson_limit":  # ApproxKind checked its rate
        anchor, rate, name = -kind.lam, kind.lam, "lam"
    else:  # only the one summary scalar the form's rate is, so no other sum runs
        name = "beta_n" if kind.tag == "beta_form" else "lambda_n"
        rate = getattr(summary, name)
        anchor = -rate if kind.tag == "poisson_form" else p0_log
    if rate <= 0.0 and ks.any():
        raise HypothesisError(f"{kind.tag} needs {name} > 0 for k >= 1")
    log_rate = math.log(rate) if rate > 0.0 else 0.0
    return np.where(ks > 0, anchor + ks * log_rate - log_factorials(ks), anchor)[()]


def envelope_thm1(summary: ProfileSummary, k) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-sided envelope for the lambda form: the (eps1, eps2, valid) columns at k.

    ratio in [1 - eps1, 1 + eps2] with eps1 = k^2 m/lambda and
    eps2 = km/(1 - km), provable at finite n whenever km < 1 and eps1 < 1
    (those conditions also force km <= lambda, which the lower-bound product
    expansion needs).  k = 0 gives the exact ratio 1; eps2 is inf where km >= 1.
    """
    if summary.lambda_n <= 0.0:
        raise HypothesisError("envelope needs lambda_n > 0")
    ks = as_counts(k, "k")
    eps1 = ks * ks * summary.m_n / summary.lambda_n
    km = ks * summary.m_n
    with np.errstate(divide="ignore"):
        eps2 = np.where(km < 1.0, km / (1.0 - km), math.inf)
    return eps1, eps2[()], (km < 1.0) & (eps1 < 1.0)


def envelope_thm2(summary: ProfileSummary, beta_cap: float, k) -> tuple[np.ndarray, np.ndarray]:
    """One-sided envelope for the beta form: the (eps, valid) columns at k.

    eps = k^2 cap / (lambda (1 - cap)) bounds the shortfall of the ratio
    below 1; the ratio itself never exceeds 1.  The cap must dominate every
    entry (cap >= m_n suffices: the termwise odds bound only needs b <= cap)
    and stay below 1.
    """
    if summary.lambda_n <= 0.0:
        raise HypothesisError("envelope needs lambda_n > 0")
    ks = as_counts(k, "k")
    cap = float(beta_cap)
    if cap < summary.m_n or cap >= 1.0:
        raise HypothesisError(
            f"beta cap {cap!r} must satisfy m_n <= cap < 1 (m_n = {summary.m_n!r})"
        )
    eps = ks * ks * cap / (summary.lambda_n * (1.0 - cap))
    return eps, eps < 1.0


def envelope_thm3(summary: ProfileSummary, k) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stated display around the plain Poisson form: the (lower, upper, valid) columns.

    lower = 1 - eps1, upper = e^(sum b^2) (1 + eps2), inf where eps2 is inf
    or the product overflows.  Only the upper half is provable (see the
    module docstring).  Requires every entry below 1/2 (m_n < 1/2).
    """
    if summary.m_n >= 0.5:
        raise HypothesisError(f"poisson form bracket needs m_n < 1/2, got {summary.m_n!r}")
    eps1, eps2, valid = envelope_thm1(summary, k)
    grow = float(libm_exp(summary.sum_sq))
    with np.errstate(over="ignore"):
        return 1.0 - eps1, grow * (1.0 + eps2), valid


def poisson_form_bracket(summary: ProfileSummary, k) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Provable two-sided bracket for the plain Poisson form: (lower, upper, valid) columns.

    e^(-sum b^2) (1 - eps1) <= P(V=k) / (e^(-lambda) lambda^k / k!)
                            <= e^(sum b^2) (1 + eps2).

    The true upper factor is 1 + eps2 alone; the e^(sum b^2) slack keeps the
    pair symmetric with the stated display while remaining valid.  Requires
    m_n < 1/2 for the zero-probability bracket and the thm1 side conditions
    (carried in the flag) for the eps terms.
    """
    lower, upper, valid = envelope_thm3(summary, k)
    return math.exp(-summary.sum_sq) * lower, upper, valid


@dataclass(frozen=True)
class EnvelopeReport:
    """Exact-vs-approximant ratios over the window k = 0..k_hi with their proved rails.

    Stores the measured columns and the inputs, each column a read-only
    float64 array (validity_mask a bool one, marking the k where the side
    conditions hold).  Read-only properties of the columns: k_values, the
    ratios exp(log_exact - log_approx), violations, which counts rail
    breaches beyond margin among the valid k only, and max_abs_dev, the sup
    of |ratio - 1| over the whole window.
    """

    kind: str
    n: int
    window: str
    log_exact: np.ndarray
    log_approx: np.ndarray
    lower_env: np.ndarray
    upper_env: np.ndarray
    validity_mask: np.ndarray
    margin: float
    beta_cap: float | None = None

    def __post_init__(self) -> None:
        for name in ("log_exact", "log_approx", "lower_env", "upper_env", "validity_mask"):
            dtype = bool if name == "validity_mask" else np.float64
            object.__setattr__(self, name, frozen_row(getattr(self, name), name, dtype))

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(len(self.log_exact))

    @property
    def ratios(self) -> np.ndarray:
        return libm_exp(self.log_exact - self.log_approx)

    @property
    def violations(self) -> int:
        r, margin = self.ratios, self.margin
        past = (r < self.lower_env - margin) | (r > self.upper_env + margin)
        return int(np.count_nonzero(past & self.validity_mask))

    @property
    def max_abs_dev(self) -> float:
        return float(np.abs(self.ratios - 1.0).max())


def _sandwich_rails(tag: str, summary: ProfileSummary, cap: float | None, ks: np.ndarray):
    """The form's (lower, upper, valid) rail columns around its ratio at ks."""
    if tag == "lambda_form":
        eps1, eps2, valid = envelope_thm1(summary, ks)
        return 1.0 - eps1, 1.0 + eps2, valid
    if tag == "beta_form":
        # The upper half is unconditional; a nonpositive lower rail is simply
        # vacuous, so every k participates in violation counting.
        return 1.0 - envelope_thm2(summary, cap, ks)[0], np.ones(ks.shape), np.ones(ks.shape, bool)
    return poisson_form_bracket(summary, ks)


def check_sandwich_kind(tag: str, beta_cap: float | None) -> None:
    """The checks of verify_sandwich that need no row: a sandwich kind, and a cap for beta only."""
    if tag not in _SANDWICH_TAGS:
        raise ValidationError(f"sandwich verification applies to {_SANDWICH_TAGS}, not {tag!r}")
    if beta_cap is not None and tag != "beta_form":
        raise ValidationError(f"beta_cap applies to beta_form only, not {tag}")


def check_margin(margin: float) -> None:
    """The violation margin verify_sandwich reads must be >= 0 (written so NaN fails too)."""
    if not margin >= 0.0:
        raise ValidationError("margin must be >= 0")


def verify_sandwich(
    profile: BernoulliProfile,
    kind: ApproxKind,
    window: GrowthWindow,
    beta_cap: float | None = None,
    margin: float = 1e-9,
) -> EnvelopeReport:
    """Check one profile's exact/approx ratios against the proved envelope.

    Evaluates every integer k <= n with k^2 <= phi(n), the exact PMF coming
    from the product-tree engine (pmf_tree) in log domain, truncated at the
    window's top; pmf_dp stays the oracle it is checked against.  The
    approximant is anchored at the engine's own k=0 entry, so the ratio at
    k=0 is exactly 1 for the anchored forms.  A missing beta cap defaults
    to (m_n + 1)/2, halfway between the largest entry and 1; sweeps over n
    should fix an explicit cap instead so the envelope means the same thing
    at every n.  The rails are evaluated over the window before the engine
    runs, so a cap below m_n, or a poisson form with m_n >= 1/2, fails at
    once.  A ratio is a violation only past a rail by more than margin,
    which must be >= 0.
    With margin 0, a rail the ratio attains exactly (every flat row at
    k = 1 under the lambda form: ratio 1/(1-p) = 1 + eps2) is decided by
    the last bits of the exact value; hence the default 1e-9.
    """
    check_sandwich_kind(kind.tag, beta_cap)
    check_margin(margin)
    summary = profile.summary
    if summary.lambda_n <= 0.0:
        raise HypothesisError("sandwich verification needs lambda_n > 0")
    cap: float | None = None
    if kind.tag == "beta_form":
        cap = float(beta_cap) if beta_cap is not None else (summary.m_n + 1.0) / 2.0
    n = profile.n
    phi = window.value(n, summary.lambda_n)
    k_hi = n if phi >= (n + 1) ** 2 else math.isqrt(int(phi))
    ks = np.arange(k_hi + 1)
    lower_env, upper_env, mask = _sandwich_rails(kind.tag, summary, cap, ks)
    log_exact = pmf_tree(profile, k_hi).log_probs
    return EnvelopeReport(
        kind=kind.tag,
        n=n,
        window=window.spec_string(),
        log_exact=log_exact,
        log_approx=approx_pmf(kind, summary, float(log_exact[0]), ks),
        lower_env=lower_env,
        upper_env=upper_env,
        validity_mask=mask,
        margin=margin,
        beta_cap=cap,
    )


@dataclass(frozen=True)
class DistanceReport:
    """Observed Poisson distances; the prediction and the ratio are properties.

    Stores its input (the row's summary, of which it reads n, lambda_n and
    sum b^2 only) and both measured distances: sup_cdf is the supremum
    of CDF differences, tv the total-variation distance.  The read-only
    prediction (sum b^2 / lambda_n) / sqrt(2 pi e) is the first-order size
    of the TV distance, and ratio = tv / predicted.  The sup-CDF distance
    converges to half the same prediction: the signed pmf difference is, to
    first order, a discrete second derivative of the Poisson weights, and
    summing the positive part (TV) picks up twice the peak of its primitive
    (sup-CDF).  Both are reported so either trend can be inspected.
    """

    summary: ProfileSummary
    sup_cdf: float
    tv: float

    @property
    def predicted(self) -> float:
        return (self.summary.sum_sq / self.summary.lambda_n) / math.sqrt(2.0 * math.pi * math.e)

    @property
    def ratio(self) -> float:
        return self.tv / self.predicted


def dehpfeif_report(profile: BernoulliProfile) -> DistanceReport:
    """Distances to Poisson(lambda_n) with the first-order prediction.

    A tv/predicted ratio drifting toward 1 along a family is the
    empirical signature of the first-order asymptotic (see
    DistanceReport).  The distances need absolute accuracy only: pmf_dc's
    product cuts each of its fewer than 2n nodes at most twice, here where
    a tail bound reaches e^-c, c = log(4n) + 64 log 2, which drops at most
    2^-64 of mass in all; the root's band is tabulated as it comes.
    """
    summary = profile.summary
    if summary.lambda_n <= 0.0 or summary.sum_sq <= 0.0:
        raise HypothesisError("distance ratio needs lambda_n > 0 and sum_sq > 0")
    band = _product_coeffs(profile.probs, math.log(4.0 * profile.n) + 64.0 * math.log(2.0))
    ref = PoissonRef(summary.lambda_n)
    return DistanceReport(summary, *poisson_distances(*band, ref, complete=True))


def mmm_residual(
    profile: BernoulliProfile, k: int, c: float
) -> tuple[float, float, bool]:
    """Absolute-constant normal residual at one k: returns (lhs, rhs, holds).

    lhs = |B P(V=k) - (2 pi)^(-1/2) e^(-(k-lambda)^2 / (2 B^2))| with
    B = sqrt(var_n), the second term being B times the normal_local density
    at k; rhs = c * sum p q (p^2 + q^2) / B^3.  The constant c is the
    caller's to supply; nothing here estimates it.  Diagnostic only.
    """
    if c <= 0.0 or not math.isfinite(c):
        raise ValidationError("constant c must be finite and > 0")
    k = as_count(k, "k")
    summary = profile.summary
    # approx_pmf refuses a negative k, and var_n = 0 (a degenerate count).
    gauss = math.exp(approx_pmf(ApproxKind("normal_local"), summary, 0.0, k))
    b = math.sqrt(summary.var_n)
    pk = pmf_tree(profile, k).prob(k) if k <= profile.n else 0.0
    lhs = abs(b * pk - b * gauss)
    p = profile.probs
    q = 1.0 - p
    spread = exact_sum(p * q * (p * p + q * q))
    rhs = c * spread / (b * b * b)
    return lhs, rhs, lhs < rhs


def normal_local_report(profile: BernoulliProfile, k_values) -> tuple[Pmf, np.ndarray]:
    """Exact PMF plus the normal_local ratios at the requested k values, as a float64 array.

    The PMF comes from the product-tree engine (pmf_tree), truncated at the
    largest requested k; pmf_dp stays the log-domain oracle it is checked
    against.
    """
    if not np.size(k_values):
        raise ValidationError("k_values must be nonempty")
    ks = as_counts(k_values, "k")
    if ks.max() > profile.n:
        raise ValidationError("k_values must lie in 0..n")
    pmf = pmf_tree(profile, int(ks.max()))
    log_approx = approx_pmf(ApproxKind("normal_local"), profile.summary, 0.0, ks)
    return pmf, libm_exp(pmf.log_probs[ks] - log_approx)
