"""Acceptance gate: one test per shipped guarantee, AC-1 through AC-8.

Each test measures what the package promises (engine agreement, envelope
coverage, trend behavior, dependent-scheme accuracy, property invariants),
then writes a single `AC-x: PASS/FAIL` verdict line straight to the
terminal, bypassing pytest capture, before asserting.  Run with

    python3 -m pytest tests/test_acceptance.py -v

Every numeric tolerance here is a contract: loosening one is an API change.
The runtime ceilings assume an ordinary laptop-class machine.
"""

import math
import random
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pblab.asymptotics import (
    ApproxKind,
    approx_pmf,
    dehpfeif_report,
    normal_local_report,
    verify_sandwich,
)
from pblab.dependent import MixtureModel, pmf_dependent, ratio_report
from pblab.exact import (
    elementary_symmetric,
    pmf_bruteforce,
    pmf_dc,
    pmf_dp,
    pmf_inclusion_exclusion,
    prob_zero_log,
)
from pblab.profiles import (
    BernoulliProfile,
    GrowthWindow,
    ProfileFamily,
    generate,
    summarize,
)


@pytest.fixture
def announce(capfd):
    """Verdict lines must reach the console even under default capture."""

    def _announce(line: str) -> None:
        with capfd.disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()

    return _announce


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# ------------------------------------------------------------------- AC-1

def test_ac1_engines_match_bruteforce(announce):
    """50 seeded random rows, n <= 12: dp, divide-and-conquer, and the
    rational inclusion-exclusion route each match brute-force enumeration
    entrywise within 1e-12 absolute."""
    start = time.perf_counter()
    rng = random.Random(8128)
    worst = 0.0
    for _ in range(50):
        n = rng.randint(1, 12)
        profile = BernoulliProfile(tuple(rng.uniform(0.0, 0.9) for _ in range(n)))
        ref = pmf_bruteforce(profile).probs()
        sums = elementary_symmetric(profile.probs, n, high_precision=True)
        ie = np.array([pmf_inclusion_exclusion(sums, k, n) for k in range(n + 1)])
        for probs in (pmf_dp(profile).probs(), pmf_dc(profile).probs(), ie):
            worst = max(worst, float(np.abs(probs - ref).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    announce(
        f"AC-1: {_verdict(ok)} (50 seeded rows, max |engine - brute| = "
        f"{worst:.3g}, {elapsed:.2f}s)"
    )
    assert worst <= 1e-12
    assert elapsed < 10.0


# ------------------------------------------------------------------- AC-2

def test_ac2_engine_agreement_at_scale(announce):
    """One seeded row with n = 2048: dp and divide-and-conquer agree
    entrywise within 1e-10 and both normalize within 1e-9."""
    start = time.perf_counter()
    rng = random.Random(24601)
    profile = BernoulliProfile(tuple(rng.uniform(0.0, 0.9) for _ in range(2048)))
    dp = pmf_dp(profile).probs()
    dc = pmf_dc(profile).probs()
    gap = float(np.abs(dp - dc).max())
    norm_dp = abs(float(dp.sum()) - 1.0)
    norm_dc = abs(float(dc.sum()) - 1.0)
    elapsed = time.perf_counter() - start
    ok = gap <= 1e-10 and norm_dp <= 1e-9 and norm_dc <= 1e-9 and elapsed < 10.0
    announce(
        f"AC-2: {_verdict(ok)} (n=2048, max |dp - dc| = {gap:.3g}, "
        f"norm gaps {norm_dp:.3g}/{norm_dc:.3g}, {elapsed:.2f}s)"
    )
    assert gap <= 1e-10
    assert norm_dp <= 1e-9
    assert norm_dc <= 1e-9
    assert elapsed < 10.0


# ------------------------------------------------------------------- AC-3

def test_ac3_two_sided_envelope_fixed_mean(announce):
    """Rows with entries 2/n (mean fixed at 2), n in {1e2, 1e3, 1e4},
    window k^2 <= sqrt(n): wherever k*m_n <= 1/2 and k^2 m_n / lambda_n
    <= 1/2 the ratio sits in [1 - eps1 - 1e-9, 1 + eps2 + 1e-9]; the
    reported violation count is zero at every n and max_abs_dev strictly
    decreases along the grid."""
    start = time.perf_counter()
    family = ProfileFamily("constant_total", (2.0,))
    window = GrowthWindow("power", 1.0, 0.5)
    kind = ApproxKind("lambda_form")
    devs = []
    violations = []
    band_ok = True
    for n in (10**2, 10**3, 10**4):
        profile = generate(family, n)
        s = summarize(profile)
        report = verify_sandwich(profile, kind, window)
        devs.append(report.max_abs_dev)
        violations.append(report.violations)
        for i, k in enumerate(report.k_values):
            if k * s.m_n <= 0.5 and k * k * s.m_n / s.lambda_n <= 0.5:
                eps1 = k * k * s.m_n / s.lambda_n
                eps2 = k * s.m_n / (1.0 - k * s.m_n)
                r = report.ratios[i]
                if not (1.0 - eps1 - 1e-9 <= r <= 1.0 + eps2 + 1e-9):
                    band_ok = False
    elapsed = time.perf_counter() - start
    decreasing = devs[0] > devs[1] > devs[2]
    ok = band_ok and violations == [0, 0, 0] and decreasing and elapsed < 30.0
    announce(
        f"AC-3: {_verdict(ok)} (violations {violations}, max_abs_dev "
        f"{devs[0]:.3g} > {devs[1]:.3g} > {devs[2]:.3g}, {elapsed:.2f}s)"
    )
    assert band_ok
    assert violations == [0, 0, 0]
    assert decreasing
    assert elapsed < 30.0


# ------------------------------------------------------------------ AC-3b

def test_ac3b_one_sided_envelope_decaying_row(announce):
    """Rows b_i = 0.5 i^{-1/2} (largest entry exactly 0.5), cap 0.5,
    n in {1e3, 1e4}: the odds-product form is an upper bound for every
    k <= n within 1e-9 relative slack, the lower edge 1 - eps holds
    wherever eps < 1, and the windowed report (k^2 <= sqrt(lambda_n))
    counts zero violations."""
    start = time.perf_counter()
    family = ProfileFamily("index_power", (0.5, 0.5))
    kind = ApproxKind("beta_form")
    window = GrowthWindow("power_of_lambda", 1.0, 0.5)
    cap = 0.5
    upper_slack = math.log1p(1e-9)
    violations = []
    upper_ok = True
    lower_ok = True
    for n in (10**3, 10**4):
        profile = generate(family, n)
        s = summarize(profile)
        report = verify_sandwich(profile, kind, window, beta_cap=cap)
        violations.append(report.violations)
        pmf = pmf_dp(profile)
        p0 = prob_zero_log(profile)
        for k in range(n + 1):
            la = approx_pmf(kind, s, p0, k)
            le = pmf.log_probs[k]
            if le > la + upper_slack:
                upper_ok = False
            eps = k * k * cap / (s.lambda_n * (1.0 - cap))
            if eps < 1.0 and math.exp(le - la) < 1.0 - eps - 1e-9:
                lower_ok = False
    elapsed = time.perf_counter() - start
    ok = upper_ok and lower_ok and violations == [0, 0] and elapsed < 60.0
    announce(
        f"AC-3b: {_verdict(ok)} (upper bound holds for all k <= n at both "
        f"sizes: {upper_ok}, lower edge: {lower_ok}, windowed violations "
        f"{violations}, {elapsed:.2f}s)"
    )
    assert upper_ok
    assert lower_ok
    assert violations == [0, 0]
    assert elapsed < 60.0


# ------------------------------------------------------------------- AC-4

def test_ac4_certified_bracket_and_zero_class(announce):
    """Flat rows n^{-3/4}, n in {1e4, 1e5}, window k^2 <= sqrt(n): the
    certified ratio bracket around the Poisson form holds with zero
    violations, the zero-class identity -sum b^2 <= log(P(0)) + lambda_n
    <= 0 holds within 1e-12, and max_abs_dev shrinks from n=1e4 to 1e5."""
    start = time.perf_counter()
    family = ProfileFamily("row_power", (1.0, 0.75))
    window = GrowthWindow("power", 1.0, 0.5)
    kind = ApproxKind("poisson_form")
    devs = []
    violations = []
    zero_class_ok = True
    for n in (10**4, 10**5):
        profile = generate(family, n)
        s = summarize(profile)
        report = verify_sandwich(profile, kind, window)
        devs.append(report.max_abs_dev)
        violations.append(report.violations)
        log_ratio0 = s.alpha_n + s.lambda_n
        if not (-s.sum_sq - 1e-12 <= log_ratio0 <= 1e-12):
            zero_class_ok = False
    elapsed = time.perf_counter() - start
    ok = (
        violations == [0, 0]
        and zero_class_ok
        and devs[1] < devs[0]
        and elapsed < 60.0
    )
    announce(
        f"AC-4: {_verdict(ok)} (violations {violations}, zero-class identity "
        f"holds: {zero_class_ok}, max_abs_dev {devs[0]:.3g} -> {devs[1]:.3g}, "
        f"{elapsed:.2f}s)"
    )
    assert violations == [0, 0]
    assert zero_class_ok
    assert devs[1] < devs[0]
    assert elapsed < 60.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The two-sided display form of the Poisson-ratio lower edge, "
        "1 - eps1, omits the exp(-sum b^2) factor that the zero-class "
        "identity forces: at k = 0 it demands ratio >= 1 while "
        "log(ratio(0)) = alpha_n + lambda_n <= 0 with equality only for "
        "degenerate rows.  Kept as a faithful record of the narrower "
        "reading; the certified bracket above is the provable envelope."
    ),
)
def test_ac4_display_form_lower_edge(announce):
    """The uncorrected lower edge 1 - eps1 fails near k = 0 whenever
    sum b^2 > 0; this records how far short it falls at n = 1e4."""
    profile = generate(ProfileFamily("row_power", (1.0, 0.75)), 10**4)
    s = summarize(profile)
    report = verify_sandwich(
        profile, ApproxKind("poisson_form"), GrowthWindow("power", 1.0, 0.5)
    )
    below = 0
    for i, k in enumerate(report.k_values):
        if not report.validity_mask[i]:
            continue
        eps1 = k * k * s.m_n / s.lambda_n
        if report.ratios[i] < 1.0 - eps1 - 1e-9:
            below += 1
    announce(
        f"AC-4 (display-form lower edge): FAIL expected ({below} of "
        f"{len(report.k_values)} window ratios fall below 1 - eps1; "
        f"ratio(0) = {report.ratios[0]:.6f})"
    )
    assert below == 0


# ------------------------------------------------------------------- AC-5

def test_ac5_dependent_mixture_accuracy_and_trend(announce):
    """Mixture of a 0.3-row and a 0.4-row with weight 1/n, n in
    {8, 12, 16, 20}: the inclusion-exclusion PMF matches the closed-form
    mixture within 1e-9 (1e-12 in rational mode), and the worst ratio
    deviation against the 0.3-row over k <= 5 strictly decreases."""
    start = time.perf_counter()
    worst_float = 0.0
    worst_rational = 0.0
    devs = []
    for n in (8, 12, 16, 20):
        p = BernoulliProfile((0.3,) * n)
        q = BernoulliProfile((0.4,) * n)
        model = MixtureModel(1.0 / n, p, q)
        closed = model.closed_form_pmf().probs()
        for k in range(n + 1):
            worst_float = max(
                worst_float, abs(pmf_dependent(model, k) - closed[k])
            )
            worst_rational = max(
                worst_rational,
                abs(pmf_dependent(model, k, high_precision=True) - closed[k]),
            )
        devs.append(ratio_report(model, p, 5).max_abs_dev)
    elapsed = time.perf_counter() - start
    decreasing = all(a > b for a, b in zip(devs, devs[1:]))
    ok = (
        worst_float <= 1e-9
        and worst_rational <= 1e-12
        and decreasing
        and elapsed < 10.0
    )
    announce(
        f"AC-5: {_verdict(ok)} (closed-form gap {worst_float:.3g} float / "
        f"{worst_rational:.3g} rational, ratio devs "
        f"{' > '.join(f'{d:.4f}' for d in devs)}, {elapsed:.2f}s)"
    )
    assert worst_float <= 1e-9
    assert worst_rational <= 1e-12
    assert decreasing
    assert elapsed < 10.0


# ------------------------------------------------------------------- AC-6

def test_ac6_poisson_distance_ratio_trend(announce):
    """Flat rows n^{-1/3}, n in {1e3, 1e4, 1e5}: the observed-over-predicted
    total-variation ratio lies in [0.8, 1.2] at n = 1e5 and is strictly
    closer to 1 there than at n = 1e3."""
    start = time.perf_counter()
    family = ProfileFamily("row_power", (1.0, 1.0 / 3.0))
    ratios = {}
    for n in (10**3, 10**4, 10**5):
        ratios[n] = dehpfeif_report(generate(family, n)).ratio
    elapsed = time.perf_counter() - start
    in_band = 0.8 <= ratios[10**5] <= 1.2
    closer = abs(ratios[10**5] - 1.0) < abs(ratios[10**3] - 1.0)
    ok = in_band and closer and elapsed < 60.0
    announce(
        f"AC-6: {_verdict(ok)} (ratio {ratios[10**3]:.4f} -> "
        f"{ratios[10**4]:.4f} -> {ratios[10**5]:.4f}, band [0.8, 1.2] at "
        f"n=1e5: {in_band}, {elapsed:.2f}s)"
    )
    assert in_band
    assert closer
    assert elapsed < 60.0


# ------------------------------------------------------------------- AC-7

def test_ac7_normal_local_center_window(announce):
    """Fair-coin rows, n in {1e2, 1e3, 1e4}: the worst |exact/normal - 1|
    over |k - n/2| <= (n/4)^0.55 strictly decreases and is below 0.05 at
    n = 1e4; spot values at n=100, k=50 match the closed-form binomial
    and the density value 1/sqrt(50 pi)."""
    start = time.perf_counter()
    sups = []
    spot_exact = spot_normal = None
    for n in (10**2, 10**3, 10**4):
        profile = BernoulliProfile((0.5,) * n)
        radius = (n / 4.0) ** 0.55
        k_lo = math.ceil(n / 2 - radius)
        k_hi = math.floor(n / 2 + radius)
        ks = list(range(k_lo, k_hi + 1))
        pmf, ratios = normal_local_report(profile, ks)
        sups.append(max(abs(r - 1.0) for r in ratios))
        if n == 100:
            spot_exact = pmf.prob(50)
            spot_normal = spot_exact / ratios[ks.index(50)]
    elapsed = time.perf_counter() - start
    decreasing = sups[0] > sups[1] > sups[2]
    spot_ok = (
        abs(spot_exact - 0.0795892) < 5e-8 and abs(spot_normal - 0.0797885) < 5e-8
    )
    ok = decreasing and sups[2] < 0.05 and spot_ok and elapsed < 30.0
    announce(
        f"AC-7: {_verdict(ok)} (sup devs "
        f"{' > '.join(f'{s_:.3g}' for s_ in sups)}, spot exact "
        f"{spot_exact:.7f} / normal {spot_normal:.7f}, {elapsed:.2f}s)"
    )
    assert decreasing
    assert sups[2] < 0.05
    assert spot_ok
    assert elapsed < 30.0


# ------------------------------------------------------------------- AC-8

_PROP = settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_ROWS = st.lists(
    st.floats(min_value=0.01, max_value=0.9), min_size=1, max_size=16
)


@_PROP
@given(probs=_ROWS, seed=st.integers(0, 2**32 - 1))
def _prop_permutation_invariance(probs, seed):
    base = BernoulliProfile(tuple(probs))
    shuffled = list(probs)
    random.Random(seed).shuffle(shuffled)
    other = BernoulliProfile(tuple(shuffled))
    assert summarize(base) == summarize(other)
    gap = np.abs(pmf_dp(base).probs() - pmf_dp(other).probs()).max()
    assert gap <= 1e-14


@_PROP
@given(probs=st.lists(st.floats(min_value=0.05, max_value=0.9), min_size=1, max_size=14))
def _prop_complement_duality(probs):
    fwd = pmf_dp(BernoulliProfile(tuple(probs))).probs()
    rev = pmf_dp(BernoulliProfile(tuple(1.0 - b for b in probs))).probs()[::-1]
    assert np.abs(fwd - rev).max() <= 1e-12


def _check_scalar_grid():
    # -x - x^2 <= log(1 - x) <= -x on ten thousand midpoints of (0, 1/2).
    x = (np.arange(10_000) + 0.5) / 20_000.0
    lg = np.log1p(-x)
    assert np.all(-x - x * x <= lg)
    assert np.all(lg <= -x)


@_PROP
@given(probs=_ROWS)
def _prop_zero_class_anchoring(probs):
    profile = BernoulliProfile(tuple(probs))
    s = summarize(profile)
    p0 = prob_zero_log(profile)
    assert approx_pmf(ApproxKind("lambda_form"), s, p0, 0) == p0
    assert approx_pmf(ApproxKind("beta_form"), s, p0, 0) == p0
    assert approx_pmf(ApproxKind("poisson_form"), s, p0, 0) == -s.lambda_n


@_PROP
@given(
    probs=st.lists(st.floats(min_value=0.05, max_value=0.45), min_size=2, max_size=12),
    c1=st.integers(1, 16),
    c2=st.integers(1, 16),
)
def _prop_window_inclusion_monotone(probs, c1, c2):
    lo, hi = sorted((c1, c2))
    profile = BernoulliProfile(tuple(probs))
    kind = ApproxKind("lambda_form")
    dev_lo = verify_sandwich(profile, kind, GrowthWindow("constant", float(lo))).max_abs_dev
    dev_hi = verify_sandwich(profile, kind, GrowthWindow("constant", float(hi))).max_abs_dev
    assert dev_hi >= dev_lo


@_PROP
@given(
    pairs=st.lists(
        st.tuples(
            st.floats(min_value=0.05, max_value=0.9),
            st.floats(min_value=0.05, max_value=0.9),
        ),
        min_size=2,
        max_size=8,
    ),
    eps=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(0, 10**6),
)
def _prop_joint_monotone_under_inclusion(pairs, eps, seed):
    model = MixtureModel(
        eps,
        BernoulliProfile(tuple(a for a, _ in pairs)),
        BernoulliProfile(tuple(b for _, b in pairs)),
    )
    rng = random.Random(seed)
    t_size = rng.randint(1, len(pairs))
    bigger = rng.sample(range(len(pairs)), t_size)
    smaller = bigger[: rng.randint(0, t_size)]
    assert model.joint(bigger) <= model.joint(smaller)


def test_ac8_property_suites(announce):
    """Seeded property run, 5 suites x 200 cases plus a 10^4-point scalar
    grid: permutation invariance, complement duality, the scalar log
    sandwich, zero-class anchoring, window-inclusion monotonicity, and
    joint monotonicity for the mixture model."""
    start = time.perf_counter()
    suites = (
        _prop_permutation_invariance,
        _prop_complement_duality,
        _prop_zero_class_anchoring,
        _prop_window_inclusion_monotone,
        _prop_joint_monotone_under_inclusion,
    )
    try:
        for prop in suites:
            prop()
        _check_scalar_grid()
    except Exception as exc:
        announce(f"AC-8: FAIL ({type(exc).__name__}: {exc})")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    announce(
        f"AC-8: {_verdict(ok)} (1000 seeded property cases + 10000-point "
        f"scalar grid, {elapsed:.2f}s)"
    )
    assert elapsed < 60.0
