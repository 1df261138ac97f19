"""Local approximations to the count distribution and their error envelopes.

Three Poisson-type forms share the shape approx(k) = anchor * rate^k / k!:

* lambda_form: anchor P(V=0), rate lambda_n.  Two-sided envelope
  [1 - eps1, 1 + eps2] with eps1 = k^2 m/lambda, eps2 = km/(1-km).
* beta_form: anchor P(V=0), rate beta_n (odds sum).  One-sided: the true
  ratio never exceeds 1, and stays above 1 - k^2 beta/(lambda(1-beta))
  for any cap beta covering every entry.
* poisson_form: anchor e^(-lambda_n), rate lambda_n.  The zero-probability
  identity P(V=0) = e^alpha with -sum b^2 <= alpha + lambda <= 0 (valid for
  entries below 1/2) turns the lambda_form envelope into a fully explicit
  bracket around the plain Poisson pmf.

plus poisson_limit (a fixed external rate) and normal_local (the Gaussian
density at integer points).  Envelope side conditions are explicit: the
derivations need k*m < 1 and eps1 < 1 at the working (n, k), which is what
"n large enough" buys in the limit.  Validity flags carry exactly that.

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

from ._util import log_factorial
from .errors import HypothesisError, ValidationError
from .exact import Pmf, PoissonRef, pmf_dc, pmf_dp, sup_cdf_distance, tv_distance
from .profiles import BernoulliProfile, GrowthWindow, ProfileSummary, summarize

APPROX_TAGS = ("lambda_form", "beta_form", "poisson_form", "poisson_limit", "normal_local")
_SANDWICH_TAGS = ("lambda_form", "beta_form", "poisson_form")


@dataclass(frozen=True)
class ApproxKind:
    """A named approximant; poisson_limit carries its fixed rate."""

    tag: str
    lam: float | None = None

    def __post_init__(self) -> None:
        if self.tag not in APPROX_TAGS:
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
    def lambda_form(cls) -> "ApproxKind":
        return cls("lambda_form")

    @classmethod
    def beta_form(cls) -> "ApproxKind":
        return cls("beta_form")

    @classmethod
    def poisson_form(cls) -> "ApproxKind":
        return cls("poisson_form")

    @classmethod
    def poisson_limit(cls, lam: float) -> "ApproxKind":
        return cls("poisson_limit", lam)

    @classmethod
    def normal_local(cls) -> "ApproxKind":
        return cls("normal_local")

    def spec_string(self) -> str:
        if self.tag == "poisson_limit":
            return f"poisson_limit:{self.lam:g}"
        return self.tag


def approx_pmf(kind: ApproxKind, summary: ProfileSummary, p0_log: float, k: int) -> float:
    """Log of the named approximant at k.

    p0_log anchors the lambda and beta forms; passing the exact engine's own
    k=0 entry makes the ratio at k=0 equal 1 bit for bit.
    """
    if k < 0:
        raise ValidationError("k must be nonnegative")
    tag = kind.tag
    if tag == "lambda_form":
        if k == 0:
            return p0_log
        if summary.lambda_n <= 0.0:
            raise HypothesisError("lambda_form needs lambda_n > 0 for k >= 1")
        return p0_log + k * math.log(summary.lambda_n) - log_factorial(k)
    if tag == "beta_form":
        if k == 0:
            return p0_log
        if summary.beta_n <= 0.0:
            raise HypothesisError("beta_form needs beta_n > 0 for k >= 1")
        return p0_log + k * math.log(summary.beta_n) - log_factorial(k)
    if tag == "poisson_form":
        if k == 0:
            return -summary.lambda_n
        if summary.lambda_n <= 0.0:
            raise HypothesisError("poisson_form needs lambda_n > 0 for k >= 1")
        return -summary.lambda_n + k * math.log(summary.lambda_n) - log_factorial(k)
    if tag == "poisson_limit":
        lam = float(kind.lam)  # validated at construction
        return -lam + k * math.log(lam) - log_factorial(k)
    if summary.var_n <= 0.0:
        raise HypothesisError("normal_local needs var_n > 0")
    var = summary.var_n
    return -0.5 * math.log(2.0 * math.pi * var) - (k - summary.lambda_n) ** 2 / (2.0 * var)


def envelope_thm1(summary: ProfileSummary, k: int) -> tuple[float, float, bool]:
    """Two-sided envelope for the lambda form: returns (eps1, eps2, valid).

    ratio in [1 - eps1, 1 + eps2] with eps1 = k^2 m/lambda and
    eps2 = km/(1 - km), provable at finite n whenever km < 1 and eps1 < 1
    (those conditions also force km <= lambda, which the lower-bound product
    expansion needs).  k = 0 gives the exact ratio 1.
    """
    if summary.lambda_n <= 0.0:
        raise HypothesisError("envelope needs lambda_n > 0")
    if k < 0:
        raise ValidationError("k must be nonnegative")
    if k == 0:
        return 0.0, 0.0, True
    m = summary.m_n
    eps1 = k * k * m / summary.lambda_n
    km = k * m
    eps2 = km / (1.0 - km) if km < 1.0 else math.inf
    return eps1, eps2, (km < 1.0 and eps1 < 1.0)


def envelope_thm2(
    summary: ProfileSummary, beta_cap: float, k: int
) -> tuple[float, bool]:
    """One-sided envelope for the beta form: returns (eps, valid).

    eps = k^2 cap / (lambda (1 - cap)) bounds the shortfall of the ratio
    below 1; the ratio itself never exceeds 1.  The cap must dominate every
    entry (cap >= m_n suffices: the termwise odds bound only needs b <= cap)
    and stay below 1.
    """
    if summary.lambda_n <= 0.0:
        raise HypothesisError("envelope needs lambda_n > 0")
    if k < 0:
        raise ValidationError("k must be nonnegative")
    cap = float(beta_cap)
    if cap < summary.m_n or cap >= 1.0:
        raise HypothesisError(
            f"beta cap {cap!r} must satisfy m_n <= cap < 1 (m_n = {summary.m_n!r})"
        )
    if k == 0:
        return 0.0, True
    eps = k * k * cap / (summary.lambda_n * (1.0 - cap))
    return eps, eps < 1.0


def _upper_rail(summary: ProfileSummary, eps2: float) -> float:
    """e^(sum b^2) (1 + eps2); inf when eps2 is not finite or the product overflows."""
    if math.isfinite(eps2):
        try:
            return math.exp(summary.sum_sq) * (1.0 + eps2)
        except OverflowError:
            pass
    return math.inf


def envelope_thm3(summary: ProfileSummary, k: int) -> tuple[float, float, bool]:
    """The stated display around the plain Poisson form: (lower, upper, valid).

    lower = 1 - eps1, upper = e^(sum b^2) (1 + eps2).  The upper half is
    provable; the lower half is NOT attainable near k = 0 (see the module
    docstring), where the true ratio sits below 1 by the zero-probability
    identity.  poisson_form_bracket gives the two-sided bracket that holds.
    Requires every entry below 1/2 (m_n < 1/2).
    """
    if summary.m_n >= 0.5:
        raise HypothesisError(f"poisson form bracket needs m_n < 1/2, got {summary.m_n!r}")
    eps1, eps2, valid = envelope_thm1(summary, k)
    return 1.0 - eps1, _upper_rail(summary, eps2), valid


def poisson_form_bracket(summary: ProfileSummary, k: int) -> tuple[float, float, bool]:
    """Provable two-sided bracket for the plain Poisson form.

    e^(-sum b^2) (1 - eps1) <= P(V=k) / (e^(-lambda) lambda^k / k!)
                            <= e^(sum b^2) (1 + eps2).

    The true upper factor is 1 + eps2 alone; the e^(sum b^2) slack keeps the
    pair symmetric with the stated display while remaining valid.  Requires
    m_n < 1/2 for the zero-probability bracket and the thm1 side conditions
    (carried in the flag) for the eps terms.
    """
    if summary.m_n >= 0.5:
        raise HypothesisError(f"poisson form bracket needs m_n < 1/2, got {summary.m_n!r}")
    eps1, eps2, valid = envelope_thm1(summary, k)
    lower = math.exp(-summary.sum_sq) * (1.0 - eps1)
    return lower, _upper_rail(summary, eps2), valid


@dataclass(frozen=True)
class EnvelopeReport:
    """Exact-vs-approximant ratios over a window with their proved rails.

    validity_mask marks the k where the inequality's side conditions hold;
    violations counts rail breaches only among those k.  max_abs_dev is the
    sup of |ratio - 1| over the whole window, valid or not.
    """

    kind: str
    n: int
    window: str
    k_values: tuple[int, ...]
    log_exact: tuple[float, ...]
    log_approx: tuple[float, ...]
    ratios: tuple[float, ...]
    lower_env: tuple[float, ...]
    upper_env: tuple[float, ...]
    validity_mask: tuple[bool, ...]
    violations: int
    max_abs_dev: float
    margin: float
    beta_cap: float | None = None


def _window_k_hi(phi: float, n: int) -> int:
    k = int(math.floor(math.sqrt(phi)))
    while (k + 1) * (k + 1) <= phi:
        k += 1
    while k > 0 and k * k > phi:
        k -= 1
    return min(k, n)


def verify_sandwich(
    profile: BernoulliProfile,
    kind: ApproxKind,
    window: GrowthWindow,
    beta_cap: float | None = None,
    margin: float = 1e-9,
) -> EnvelopeReport:
    """Check one profile's exact/approx ratios against the proved envelope.

    Evaluates every integer k with k^2 <= phi(n), the exact PMF coming from
    the dp engine in log domain.  The approximant is anchored at the
    engine's own k=0 entry, so the ratio at k=0 is exactly 1 for the
    anchored forms.  A missing beta cap defaults to (m_n + 1)/2, halfway
    between the largest entry and 1; sweeps over n should fix an explicit
    cap instead so the envelope means the same thing at every n.
    """
    if kind.tag not in _SANDWICH_TAGS:
        raise ValidationError(
            f"sandwich verification applies to {_SANDWICH_TAGS}, not {kind.tag!r}"
        )
    summary = summarize(profile)
    if summary.lambda_n <= 0.0:
        raise HypothesisError("sandwich verification needs lambda_n > 0")
    cap: float | None = None
    if kind.tag == "beta_form":
        cap = float(beta_cap) if beta_cap is not None else (summary.m_n + 1.0) / 2.0
    elif beta_cap is not None:
        raise ValidationError(f"beta_cap applies to beta_form only, not {kind.tag}")
    if kind.tag == "poisson_form" and summary.m_n >= 0.5:
        raise HypothesisError(
            f"poisson form bracket needs m_n < 1/2, got {summary.m_n!r}"
        )
    phi = window.value(profile.n, summary.lambda_n)
    k_hi = _window_k_hi(phi, profile.n)
    log_exact = pmf_dp(profile, k_hi).log_probs.tolist()
    p0_log = log_exact[0]

    ks = tuple(range(k_hi + 1))
    log_approx = []
    ratios = []
    lower_env = []
    upper_env = []
    mask = []
    for k, le in enumerate(log_exact):
        la = approx_pmf(kind, summary, p0_log, k)
        log_approx.append(la)
        ratios.append(math.exp(le - la))
        if kind.tag == "lambda_form":
            eps1, eps2, valid = envelope_thm1(summary, k)
            lower_env.append(1.0 - eps1)
            upper_env.append(1.0 + eps2 if math.isfinite(eps2) else math.inf)
            mask.append(valid)
        elif kind.tag == "beta_form":
            eps, _ = envelope_thm2(summary, cap, k)
            lower_env.append(1.0 - eps)
            upper_env.append(1.0)
            # The upper half is unconditional; a nonpositive lower rail is
            # simply vacuous, so every k participates in violation counting.
            mask.append(True)
        else:
            lo, up, valid = poisson_form_bracket(summary, k)
            lower_env.append(lo)
            upper_env.append(up)
            mask.append(valid)
    violations = sum(
        1
        for r, lo, up, ok in zip(ratios, lower_env, upper_env, mask)
        if ok and (r < lo - margin or r > up + margin)
    )
    max_abs_dev = max(abs(r - 1.0) for r in ratios)
    return EnvelopeReport(
        kind=kind.tag,
        n=profile.n,
        window=window.spec_string(),
        k_values=ks,
        log_exact=tuple(log_exact),
        log_approx=tuple(log_approx),
        ratios=tuple(ratios),
        lower_env=tuple(lower_env),
        upper_env=tuple(upper_env),
        validity_mask=tuple(mask),
        violations=violations,
        max_abs_dev=max_abs_dev,
        margin=margin,
        beta_cap=cap,
    )


@dataclass(frozen=True)
class DistanceReport:
    """Observed Poisson distances, the first-order prediction, and the ratio.

    Carries both distance flavors.  sup_cdf is the supremum of CDF
    differences; tv is the total-variation distance.  The prediction
    (sum b^2 / lambda_n) / sqrt(2 pi e) is the first-order size of the
    total-variation distance, so ratio = tv / predicted.  The sup-CDF
    distance converges to half the same prediction: the signed pmf
    difference is, to first order, a discrete second derivative of the
    Poisson weights, and summing the positive part (TV) picks up twice
    the peak of its primitive (sup-CDF).  Both are reported so either
    trend can be inspected.
    """

    summary: ProfileSummary
    sup_cdf: float
    tv: float
    predicted: float
    ratio: float


def dehpfeif_report(profile: BernoulliProfile) -> DistanceReport:
    """Distances to Poisson(lambda_n) with the first-order prediction.

    A tv/predicted ratio drifting toward 1 along a family is the
    empirical signature of the first-order asymptotic (see
    DistanceReport).  Uses the divide-and-conquer engine: the full
    support is needed and it stays subquadratic for large n.
    """
    summary = summarize(profile)
    if summary.lambda_n <= 0.0 or summary.sum_sq <= 0.0:
        raise HypothesisError("distance ratio needs lambda_n > 0 and sum_sq > 0")
    pmf = pmf_dc(profile)
    ref = PoissonRef(summary.lambda_n)
    sup_cdf = sup_cdf_distance(pmf, ref)
    tv = tv_distance(pmf, ref)
    predicted = (summary.sum_sq / summary.lambda_n) / math.sqrt(2.0 * math.pi * math.e)
    return DistanceReport(summary, sup_cdf, tv, predicted, tv / predicted)


def dehpfeif_ratio(profile: BernoulliProfile) -> float:
    """Shorthand for dehpfeif_report(profile).ratio."""
    return dehpfeif_report(profile).ratio


def mmm_residual(
    profile: BernoulliProfile, k: int, c: float
) -> tuple[float, float, bool]:
    """Absolute-constant normal residual at one k: returns (lhs, rhs, holds).

    lhs = |B P(V=k) - (2 pi)^(-1/2) e^(-(k-lambda)^2 / (2 B^2))| with
    B = sqrt(var_n); rhs = c * sum p q (p^2 + q^2) / B^3.  The constant c
    is the caller's to supply; nothing here estimates it.  Diagnostic only.
    """
    if c <= 0.0 or not math.isfinite(c):
        raise ValidationError("constant c must be finite and > 0")
    if k < 0:
        raise ValidationError("k must be nonnegative")
    summary = summarize(profile)
    if summary.var_n <= 0.0:
        raise HypothesisError("normal residual needs var_n > 0 (nondegenerate count)")
    b = math.sqrt(summary.var_n)
    if k <= profile.n:
        pk = pmf_dp(profile, k).prob(k)
    else:
        pk = 0.0
    gauss = math.exp(-((k - summary.lambda_n) ** 2) / (2.0 * summary.var_n)) / math.sqrt(
        2.0 * math.pi
    )
    lhs = abs(b * pk - gauss)
    spread = math.fsum(
        p * (1.0 - p) * (p * p + (1.0 - p) * (1.0 - p)) for p in memoryview(profile.probs)
    )
    rhs = c * spread / (b * b * b)
    return lhs, rhs, lhs < rhs


def normal_local_report(profile: BernoulliProfile, k_values) -> tuple[Pmf, tuple[float, ...]]:
    """Exact PMF (dp) plus normal_local ratios at the requested k values."""
    summary = summarize(profile)
    ks = [int(k) for k in k_values]
    if not ks:
        raise ValidationError("k_values must be nonempty")
    if min(ks) < 0 or max(ks) > profile.n:
        raise ValidationError("k_values must lie in 0..n")
    pmf = pmf_dp(profile, max(ks))
    lps = pmf.log_probs.tolist()
    kind = ApproxKind.normal_local()
    ratios = tuple(math.exp(lps[k] - approx_pmf(kind, summary, lps[0], k)) for k in ks)
    return pmf, ratios
