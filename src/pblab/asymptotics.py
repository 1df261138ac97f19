"""Local approximations to the count distribution and their error envelopes.

Three Poisson-type forms share the shape approx(k) = anchor * rate^k / k!,
and each is one (anchor, rate, rails) entry: _poisson_type gives its anchor
and rate, _sandwich_rails its k -> (lower, upper, valid) rails.

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

import functools
import math
from dataclasses import dataclass

from ._util import log_factorial
from .errors import HypothesisError, ValidationError
from .exact import Pmf, PoissonRef, pmf_dc, pmf_tree, poisson_distances
from .profiles import BernoulliProfile, GrowthWindow, ProfileSummary

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


def _poisson_type(
    kind: ApproxKind, summary: ProfileSummary, p0_log: float
) -> tuple[float, float, str]:
    """(log anchor, rate, rate name) of a Poisson-type form."""
    if kind.tag == "lambda_form":
        return p0_log, summary.lambda_n, "lambda_n"
    if kind.tag == "beta_form":
        return p0_log, summary.beta_n, "beta_n"
    if kind.tag == "poisson_form":
        return -summary.lambda_n, summary.lambda_n, "lambda_n"
    return -kind.lam, kind.lam, "lam"  # poisson_limit: rate validated at construction


def approx_pmf(kind: ApproxKind, summary: ProfileSummary, p0_log: float, k: int) -> float:
    """Log of the named approximant at k.

    p0_log anchors the lambda and beta forms; passing the exact engine's own
    k=0 entry makes the ratio at k=0 equal 1 bit for bit.
    """
    if k < 0:
        raise ValidationError("k must be nonnegative")
    if kind.tag == "normal_local":
        if summary.var_n <= 0.0:
            raise HypothesisError("normal_local needs var_n > 0")
        var = summary.var_n
        return -0.5 * math.log(2.0 * math.pi * var) - (k - summary.lambda_n) ** 2 / (2.0 * var)
    anchor, rate, name = _poisson_type(kind, summary, p0_log)
    if k == 0:
        return anchor
    if rate <= 0.0:
        raise HypothesisError(f"{kind.tag} needs {name} > 0 for k >= 1")
    return anchor + k * math.log(rate) - log_factorial(k)


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
    """e^(sum b^2) (1 + eps2); inf when eps2 is inf or the product overflows."""
    try:
        return math.exp(summary.sum_sq) * (1.0 + eps2)
    except OverflowError:
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
    lower, upper, valid = envelope_thm3(summary, k)
    return math.exp(-summary.sum_sq) * lower, upper, valid


@dataclass(frozen=True)
class EnvelopeReport:
    """Exact-vs-approximant ratios over a window with their proved rails.

    Stores the measured columns and the inputs; validity_mask marks the k
    where the side conditions hold.  Read-only properties of the columns:
    violations counts rail breaches beyond margin among those k only, and
    max_abs_dev is the sup of |ratio - 1| over the whole window.
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
    margin: float
    beta_cap: float | None = None

    @property
    def violations(self) -> int:
        rows = zip(self.ratios, self.lower_env, self.upper_env, self.validity_mask)
        margin = self.margin
        return sum(1 for r, lo, up, ok in rows if ok and (r < lo - margin or r > up + margin))

    @property
    def max_abs_dev(self) -> float:
        return max(abs(r - 1.0) for r in self.ratios)


def _sandwich_rails(tag: str, summary: ProfileSummary, cap: float | None):
    """The form's k -> (lower, upper, valid) rails around its ratio."""
    if tag == "lambda_form":
        def rails(k: int) -> tuple[float, float, bool]:
            eps1, eps2, valid = envelope_thm1(summary, k)
            return 1.0 - eps1, 1.0 + eps2, valid
        return rails
    if tag == "beta_form":
        # The upper half is unconditional; a nonpositive lower rail is simply
        # vacuous, so every k participates in violation counting.
        return lambda k: (1.0 - envelope_thm2(summary, cap, k)[0], 1.0, True)
    return functools.partial(poisson_form_bracket, summary)


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
    at every n.  The rails are evaluated once at k = 0 before the engine
    runs, so a cap below m_n, or a poisson form with m_n >= 1/2, fails at
    once.  A ratio is a violation only past a rail by more than margin.
    With margin 0, a rail the ratio attains exactly (every flat row at
    k = 1 under the lambda form: ratio 1/(1-p) = 1 + eps2) is decided by
    the last bits of the exact value; hence the default 1e-9.
    """
    if kind.tag not in _SANDWICH_TAGS:
        raise ValidationError(
            f"sandwich verification applies to {_SANDWICH_TAGS}, not {kind.tag!r}"
        )
    summary = profile.summary
    if summary.lambda_n <= 0.0:
        raise HypothesisError("sandwich verification needs lambda_n > 0")
    cap: float | None = None
    if kind.tag == "beta_form":
        cap = float(beta_cap) if beta_cap is not None else (summary.m_n + 1.0) / 2.0
    elif beta_cap is not None:
        raise ValidationError(f"beta_cap applies to beta_form only, not {kind.tag}")
    rails = _sandwich_rails(kind.tag, summary, cap)
    rails(0)  # a cap below m_n, or m_n >= 1/2, raises here rather than after the engine
    n = profile.n
    phi = window.value(n, summary.lambda_n)
    k_hi = n if phi >= (n + 1) ** 2 else math.isqrt(int(phi))
    ks = tuple(range(k_hi + 1))
    log_exact = tuple(pmf_tree(profile, k_hi).log_probs.tolist())
    log_approx = tuple(approx_pmf(kind, summary, log_exact[0], k) for k in ks)
    ratios = tuple(math.exp(le - la) for le, la in zip(log_exact, log_approx))
    lower_env, upper_env, mask = zip(*(rails(k) for k in ks))
    return EnvelopeReport(
        kind=kind.tag,
        n=n,
        window=window.spec_string(),
        k_values=ks,
        log_exact=log_exact,
        log_approx=log_approx,
        ratios=ratios,
        lower_env=lower_env,
        upper_env=upper_env,
        validity_mask=mask,
        margin=margin,
        beta_cap=cap,
    )


@dataclass(frozen=True)
class DistanceReport:
    """Observed Poisson distances; the prediction and the ratio are properties.

    Stores the summary and both measured distances: sup_cdf is the supremum
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
    DistanceReport).  Uses the divide-and-conquer engine: the full
    support is needed and it stays subquadratic for large n.
    """
    summary = profile.summary
    if summary.lambda_n <= 0.0 or summary.sum_sq <= 0.0:
        raise HypothesisError("distance ratio needs lambda_n > 0 and sum_sq > 0")
    pmf = pmf_dc(profile)
    return DistanceReport(summary, *poisson_distances(pmf, PoissonRef(summary.lambda_n)))


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
    summary = profile.summary
    if summary.var_n <= 0.0:
        raise HypothesisError("normal residual needs var_n > 0 (nondegenerate count)")
    b = math.sqrt(summary.var_n)
    if k <= profile.n:
        pk = pmf_tree(profile, k).prob(k)
    else:
        pk = 0.0
    gauss = math.exp(-((k - summary.lambda_n) ** 2) / (2.0 * summary.var_n)) / math.sqrt(
        2.0 * math.pi
    )
    lhs = abs(b * pk - gauss)
    p = profile.probs
    q = 1.0 - p
    spread = math.fsum(memoryview(p * q * (p * p + q * q)))
    rhs = c * spread / (b * b * b)
    return lhs, rhs, lhs < rhs


def normal_local_report(profile: BernoulliProfile, k_values) -> tuple[Pmf, tuple[float, ...]]:
    """Exact PMF plus normal_local ratios at the requested k values.

    The PMF comes from the product-tree engine (pmf_tree), truncated at the
    largest requested k; pmf_dp stays the log-domain oracle it is checked
    against.
    """
    summary = profile.summary
    ks = [int(k) for k in k_values]
    if not ks:
        raise ValidationError("k_values must be nonempty")
    if min(ks) < 0 or max(ks) > profile.n:
        raise ValidationError("k_values must lie in 0..n")
    pmf = pmf_tree(profile, max(ks))
    lps = pmf.log_probs.tolist()
    kind = ApproxKind.normal_local()
    ratios = tuple(math.exp(lps[k] - approx_pmf(kind, summary, lps[0], k)) for k in ks)
    return pmf, ratios
