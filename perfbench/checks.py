"""Correctness checks for every benchmark op, and corruptions that must fail them.

Each check takes the op's parameters (as generated from the seed), the
stdout bytes, the files written under --out, and a per-pass context dict,
and returns a list of error strings; an empty list means the output is
correct.  References are computed here from the generated inputs by
closed forms (binomial PMFs for constant rows, row sums for families, the
two-component mixture PMF for dependent models), never by calling pblab.

CORRUPT maps each command to a function that perturbs one probability or
flips one verdict in a correct output; the self-test requires that every
check rejects its corrupted output.
"""

from __future__ import annotations

import csv
import io
import json
import math

# pmf_dp's log error measured at most 3e-11 relative at n = 10^6; 1e-9 leaves
# room for that without admitting an entry perturbed by 1e-6.
TOL_LOG = 1e-9
TOL_DEP = 5e-12  # dependent PMF against the mixture closed form
TOL_FORMULA = 1e-12  # quantities recomputed from the same closed formulas
TOL_MASS = 1e-9
EXHAUSTIVE_MAX = 10**6  # pblab.dependent enumerates B1 up to this many tuples
BH_C = 1.0 / 32.0  # Barbour-Hall lower-bound constant


def _num(x) -> float:
    # pblab renders non-finite floats as quoted strings ("inf", "-inf", "nan").
    return float(x)


def _close(a: float, b: float, tol: float) -> bool:
    return a == b or abs(a - b) <= tol * max(abs(a), abs(b))


def _expect(errors: list, ok: bool, message: str) -> None:
    if not ok:
        errors.append(message)


def binomial_log_pmf(nnz: int, v: float, k: int) -> float:
    """log P(k) for nnz Bernoulli(v) entries (any number of zero entries aside)."""
    return math.log(math.comb(nnz, k)) + k * math.log(v) + (nnz - k) * math.log1p(-v)


def poisson_binomial(ps, k_max: int) -> list[float]:
    """P(0..k_max) by the linear recurrence; convex updates keep n*eps accuracy."""
    f = [1.0] + [0.0] * k_max
    for i, p in enumerate(ps):
        q = 1.0 - p
        for k in range(min(i + 1, k_max), 0, -1):
            f[k] = f[k] * q + f[k - 1] * p
        f[0] *= q
    return f


def window_k_hi(phi: float, n: int) -> int:
    """Largest k with k^2 <= phi (equivalently k^2 <= floor(phi)), capped at n."""
    return min(math.isqrt(int(phi)), n)


def bh_band(lam: float, sum_sq: float) -> tuple[float, float]:
    """Barbour-Hall: (1/32) min(1, 1/lam) sum p^2 <= d_TV <= (1 - e^-lam)/lam sum p^2."""
    return BH_C * min(1.0, 1.0 / lam) * sum_sq, -math.expm1(-lam) / lam * sum_sq


def check_verify(params: dict, stdout: bytes, files: dict, ctx: dict) -> list[str]:
    """Rows against the closed-form binomial; envelopes recomputed; no violation."""
    errors: list[str] = []
    obj = json.loads(stdout)
    n, nnz, v, kind = params["n"], params["nnz"], params["v"], params["kind"]
    lam = math.fsum([v] * nnz)
    sum_sq = math.fsum([v * v] * nnz)
    k_hi = window_k_hi(params["phi_c"] * float(n) ** params["phi_a"], n)
    rows = obj["rows"]
    _expect(errors, obj["n"] == n, f"n={obj['n']} expected {n}")
    _expect(errors, obj["kind"] == f"{kind}_form", f"kind {obj['kind']!r}")
    _expect(errors, len(rows) == k_hi + 1, f"{len(rows)} rows, window has {k_hi + 1}")
    _expect(errors, obj["summary"]["k_count"] == len(rows), "k_count disagrees with rows")
    margin = obj["margin"]
    breaches = 0
    ratios = []
    for k, row in enumerate(rows):
        exact, approx, ratio = _num(row["exact"]), _num(row["approx"]), _num(row["ratio"])
        lower, upper = _num(row["lower_env"]), _num(row["upper_env"])
        ratios.append(ratio)
        _expect(errors, row["k"] == k, f"row {k} has k={row['k']}")
        ref = binomial_log_pmf(nnz, v, k)
        if not (exact > 0.0 and abs(math.log(exact) - ref) <= TOL_LOG * max(1.0, abs(ref))):
            errors.append(f"k={k}: exact {exact!r} against closed form exp({ref!r})")
            continue
        if kind == "poisson":
            log_approx = -lam + k * math.log(lam) - math.lgamma(k + 1.0)
        else:
            log_approx = math.log(_num(rows[0]["exact"])) + k * math.log(lam) - math.lgamma(k + 1.0)
        _expect(errors, _close(approx, math.exp(log_approx), 1e-9), f"k={k}: approx {approx!r}")
        _expect(errors, _close(ratio, exact / approx, 1e-9), f"k={k}: ratio {ratio!r} != exact/approx")
        eps1 = k * k * v / lam
        km = k * v
        eps2 = km / (1.0 - km) if km < 1.0 else math.inf
        valid = k == 0 or (km < 1.0 and eps1 < 1.0)
        if k == 0:
            eps1 = eps2 = 0.0
        if kind == "poisson":
            want_lo = math.exp(-sum_sq) * (1.0 - eps1)
            want_up = math.exp(sum_sq) * (1.0 + eps2)
        else:
            want_lo, want_up = 1.0 - eps1, 1.0 + eps2
        _expect(errors, _close(lower, want_lo, TOL_FORMULA), f"k={k}: lower_env {lower!r}")
        _expect(errors, _close(upper, want_up, TOL_FORMULA), f"k={k}: upper_env {upper!r}")
        _expect(errors, row["valid"] is valid, f"k={k}: valid={row['valid']!r}")
        if valid and not (lower - margin <= ratio <= upper + margin):
            breaches += 1
    summary = obj["summary"]
    _expect(errors, summary["violations"] == 0, f"violations={summary['violations']}")
    _expect(errors, breaches == 0, f"{breaches} ratios outside their envelope")
    if ratios:
        dev = max(abs(r - 1.0) for r in ratios)
        _expect(errors, _close(_num(summary["max_abs_dev"]), dev, TOL_FORMULA), "max_abs_dev")
    return errors


def check_conditions(params: dict, stdout: bytes, files: dict, ctx: dict) -> list[str]:
    """row_power rows recomputed per n; verdicts recomputed from the rows."""
    errors: list[str] = []
    obj = json.loads(stdout)
    c, a, phi_a = params["c"], params["a"], params["phi_a"]
    grid = params["grid"]
    _expect(errors, obj["grid"] == grid, f"grid {obj['grid']!r}")
    rows = obj["rows"]
    _expect(errors, [r["n"] for r in rows] == grid, "rows do not follow the grid")
    series: dict[str, list[float]] = {"m": [], "ss": [], "pm": [], "pl": [], "lam": []}
    for n, row in zip(grid, rows):
        v = c * float(n) ** -a
        lam = math.fsum([v] * n)
        sum_sq = math.fsum([v * v] * n)
        phi = 1.0 * float(n) ** phi_a
        want = {"m_n": v, "lambda_n": lam, "sum_sq": sum_sq, "phi": phi,
                "phi_m": phi * v, "phi_over_lambda": phi / lam}
        for key, value in want.items():
            _expect(errors, _close(_num(row[key]), value, TOL_FORMULA), f"n={n}: {key} {row[key]!r}")
        for key, value in zip(series, (v, sum_sq, phi * v, phi / lam, lam)):
            series[key].append(value)
    threshold = obj["threshold"]
    verdicts = obj["verdicts"]
    for name, key in (("a1_max_entry", "m"), ("a4_sum_sq", "ss"),
                      ("window_m", "pm"), ("window_over_lambda", "pl")):
        vals = series[key]
        got = verdicts[name]
        _expect(errors, got["decreasing"] is (vals[-1] < vals[0]), f"{name}.decreasing")
        _expect(errors, _close(_num(got["final"]), vals[-1], TOL_FORMULA), f"{name}.final")
        _expect(errors, got["below_threshold"] is (vals[-1] < threshold), f"{name}.below_threshold")
    lam = series["lam"]
    if math.isclose(lam[-1], lam[0], rel_tol=1e-9, abs_tol=1e-300):
        trend = "stable"
    else:
        trend = "increasing" if lam[-1] > lam[0] else "decreasing"
    _expect(errors, verdicts["lambda_trend"] == trend, f"lambda_trend {verdicts['lambda_trend']!r}")
    return errors


def _check_distance_obj(obj: dict, n: int, lam: float, sum_sq: float, where: str) -> list[str]:
    errors: list[str] = []
    sup_cdf, tv = _num(obj["sup_cdf_distance"]), _num(obj["tv_distance"])
    predicted = (sum_sq / lam) / math.sqrt(2.0 * math.pi * math.e)
    lo, hi = bh_band(lam, sum_sq)
    _expect(errors, obj["n"] == n, f"{where}: n={obj['n']}")
    _expect(errors, _close(_num(obj["lambda_n"]), lam, TOL_FORMULA), f"{where}: lambda_n")
    _expect(errors, _close(_num(obj["sum_sq"]), sum_sq, TOL_FORMULA), f"{where}: sum_sq")
    _expect(errors, _close(_num(obj["predicted"]), predicted, TOL_FORMULA), f"{where}: predicted")
    _expect(errors, _close(_num(obj["ratio"]), tv / predicted, TOL_FORMULA), f"{where}: ratio != tv/predicted")
    _expect(errors, 0.0 <= sup_cdf <= tv, f"{where}: sup_cdf {sup_cdf!r} not in [0, tv={tv!r}]")
    _expect(errors, lo <= tv <= hi, f"{where}: tv {tv!r} outside Barbour-Hall band [{lo!r}, {hi!r}]")
    return errors


def check_distance(params: dict, stdout: bytes, files: dict, ctx: dict) -> list[str]:
    """Row sums recomputed; ratio consistent; sup_cdf <= tv; TV inside Barbour-Hall."""
    return _check_distance_obj(json.loads(stdout), params["n"], params["lam"], params["sum_sq"], "distance")


def check_pmf_json(params: dict, stdout: bytes, files: dict, ctx: dict) -> list[str]:
    """Summary recomputed; prob == exp(log_prob); mass and mean; rows kept for the CSV twin."""
    errors: list[str] = []
    obj = json.loads(stdout)
    n = params["n"]
    _expect(errors, obj["n"] == n and obj["support_max"] == n, "n or support_max")
    for key, value in params["summary"].items():
        _expect(errors, _close(_num(obj["summary"][key]), value, TOL_FORMULA), f"summary.{key}")
    rows = [(r["k"], _num(r["prob"]), _num(r["log_prob"])) for r in obj["rows"]]
    ctx[params["key"]] = rows
    _expect(errors, [r[0] for r in rows] == list(range(n + 1)), "rows do not run over k = 0..n")
    bad = [k for k, p, lp in rows if p != math.exp(lp)]
    _expect(errors, not bad, f"prob != exp(log_prob) at k in {bad[:5]}")
    probs = [p for _, p, _ in rows]
    mass = math.fsum(probs)
    mean = math.fsum(k * p for k, p, _ in rows)
    lam = params["summary"]["lambda_n"]
    _expect(errors, abs(mass - 1.0) <= TOL_MASS, f"total mass {mass!r}")
    _expect(errors, abs(mean - lam) <= TOL_MASS * lam, f"mean {mean!r} against lambda {lam!r}")
    return errors


def check_pmf_csv(params: dict, stdout: bytes, files: dict, ctx: dict) -> list[str]:
    """The CSV carries the same numbers as the JSON of the same pmf."""
    reader = csv.reader(io.StringIO(stdout.decode("utf-8")))
    header = next(reader)
    if header != ["k", "prob", "log_prob"]:
        return [f"csv header {header!r}"]
    rows = [(int(k), float(p), float(lp)) for k, p, lp in reader]
    twin = ctx.get(params["key"])
    if twin is None:
        return ["no JSON output of the same pmf to compare with"]
    if rows != twin:
        diff = next(i for i, (x, y) in enumerate(zip(rows + [None], twin + [None])) if x != y)
        return [f"csv and json differ first at row {diff}"]
    return []


def check_sweep(params: dict, stdout: bytes, files: dict, ctx: dict) -> list[str]:
    """Aggregate rows equal the per-point files; each point inside Barbour-Hall."""
    errors: list[str] = []
    grid = params["grid"]
    want_files = {f"point_n{n}.json" for n in grid} | {"aggregate.json"}
    _expect(errors, set(files) == want_files, f"files {sorted(files)}")
    _expect(errors, stdout == b"", "sweep with --out wrote to stdout")
    if "aggregate.json" not in files:
        return errors
    agg = json.loads(files["aggregate.json"])
    _expect(errors, agg["command"] == "sweep" and agg["grid"] == grid, "aggregate meta")
    _expect(errors, [r["n"] for r in agg["rows"]] == grid, "aggregate rows do not follow the grid")
    for n, row in zip(grid, agg["rows"]):
        lam, sum_sq, m = params["points"][str(n)]
        _expect(errors, _close(_num(row["m_n"]), m, TOL_FORMULA), f"n={n}: m_n")
        name = f"point_n{n}.json"
        if name not in files:
            continue
        point = json.loads(files[name])
        errors += _check_distance_obj(point, n, lam, sum_sq, name)
        for agg_key, point_key in (("lambda_n", "lambda_n"), ("sum_sq", "sum_sq"),
                                   ("sup_cdf_distance", "sup_cdf_distance"),
                                   ("tv_distance", "tv_distance"), ("dehpfeif_ratio", "ratio")):
            _expect(errors, _num(row[agg_key]) == _num(point[point_key]),
                    f"n={n}: aggregate {agg_key} != {name} {point_key}")
    return errors


def check_dependent(params: dict, stdout: bytes, files: dict, ctx: dict) -> list[str]:
    """PMF against the mixture closed form; B2 = B3 = 1; exhaustive counts = C(n,k)."""
    errors: list[str] = []
    obj = json.loads(stdout)
    n, k_max, eps = params["n"], params["k_max"], params["eps"]
    p, q = params["p"], params["q"]
    marg = [(1.0 - eps) * a + eps * b for a, b in zip(p, q)]
    mix = [(1.0 - eps) * a + eps * b
           for a, b in zip(poisson_binomial(p, k_max), poisson_binomial(q, k_max))]
    ind = poisson_binomial(marg, k_max)
    _expect(errors, obj["n"] == n and obj["precision"] == params["precision"], "n or precision")
    _expect(errors, obj["omitted_k"] == [], f"omitted_k {obj['omitted_k']!r}")
    rows = obj["rows"]
    _expect(errors, [r["k"] for r in rows] == list(range(k_max + 1)), "rows do not run over 0..k_max")
    devs = []
    for row, want_dep, want_ind in zip(rows, mix, ind):
        k = row["k"]
        dep, indep, ratio = _num(row["dep_prob"]), _num(row["indep_prob"]), _num(row["ratio"])
        _expect(errors, _close(dep, want_dep, TOL_DEP), f"k={k}: dep_prob {dep!r} vs closed form {want_dep!r}")
        _expect(errors, _close(indep, want_ind, TOL_DEP), f"k={k}: indep_prob {indep!r} vs {want_ind!r}")
        _expect(errors, _close(ratio, dep / indep, TOL_FORMULA), f"k={k}: ratio != dep/indep")
        devs.append(abs(ratio - 1.0))
    if devs:
        _expect(errors, _close(_num(obj["max_abs_dev"]), max(devs), TOL_FORMULA), "max_abs_dev")
    diag = obj["diagnostics"]
    _expect(errors, [r["k"] for r in diag["rows"]] == list(range(1, k_max + 1)), "diagnostic rows")
    for row in diag["rows"]:
        k = row["k"]
        total = math.comb(n, k)
        exhaustive = total <= EXHAUSTIVE_MAX
        _expect(errors, _num(row["b2_ratio"]) == 1.0 and _num(row["b3_ratio"]) == 1.0,
                f"k={k}: B2/B3 not exactly 1")
        _expect(errors, row["mode"] == ("exhaustive" if exhaustive else "sampled"), f"k={k}: mode {row['mode']!r}")
        want_checked = total if exhaustive else diag["sample_budget"]
        _expect(errors, row["checked"] == want_checked, f"k={k}: checked {row['checked']} != {want_checked}")
        _expect(errors, row["zero_product"] is False, f"k={k}: zero_product")
        b1 = _num(row["b1_max_dev"])
        # k = 1 compares each marginal with itself.
        _expect(errors, math.isfinite(b1) and b1 >= 0.0 and (k > 1 or b1 == 0.0), f"k={k}: b1 {b1!r}")
    _expect(errors, _num(diag["b2_max_dev"]) == 0.0 and _num(diag["b3_max_dev"]) == 0.0, "B2/B3 max dev")
    return errors


CHECKS = {
    "verify": check_verify,
    "conditions": check_conditions,
    "distance": check_distance,
    "pmf_json": check_pmf_json,
    "pmf_csv": check_pmf_csv,
    "sweep": check_sweep,
    "dependent": check_dependent,
}


def run_check(cmd: str, params: dict, stdout: bytes, files: dict, ctx: dict) -> list[str]:
    """CHECKS[cmd], with unparseable or misshapen output reported as an error."""
    try:
        return CHECKS[cmd](params, stdout, files, ctx)
    except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
        return [f"unparseable output: {type(exc).__name__}: {exc}"]


def _perturb(x: float) -> float:
    return float(x) * (1.0 + 1e-6)


def _edit_json(data: bytes, edit) -> bytes:
    obj = json.loads(data)
    edit(obj)
    return json.dumps(obj).encode()


def _corrupt_verify(stdout, files):
    def edit(o):
        o["rows"][len(o["rows"]) // 2]["exact"] = _perturb(o["rows"][len(o["rows"]) // 2]["exact"])
    return _edit_json(stdout, edit), files


def _corrupt_conditions(stdout, files):
    def edit(o):
        v = o["verdicts"]["a1_max_entry"]
        v["decreasing"] = not v["decreasing"]
    return _edit_json(stdout, edit), files


def _corrupt_distance(stdout, files):
    def edit(o):
        o["tv_distance"] = _perturb(o["tv_distance"])
    return _edit_json(stdout, edit), files


def _corrupt_pmf_json(stdout, files):
    def edit(o):
        row = max(o["rows"], key=lambda r: _num(r["prob"]))
        row["prob"] = _perturb(row["prob"])
    return _edit_json(stdout, edit), files


def _corrupt_pmf_csv(stdout, files):
    lines = stdout.decode().split("\n")
    k, p, lp = lines[2].split(",")
    lines[2] = f"{k},{_perturb(float(p))!r},{lp}"
    return "\n".join(lines).encode(), files


def _corrupt_sweep(stdout, files):
    def edit(o):
        o["rows"][-1]["tv_distance"] = _perturb(o["rows"][-1]["tv_distance"])
    return stdout, dict(files, **{"aggregate.json": _edit_json(files["aggregate.json"], edit)})


def _corrupt_dependent(stdout, files):
    def edit(o):
        o["rows"][1]["dep_prob"] = _perturb(o["rows"][1]["dep_prob"])
    return _edit_json(stdout, edit), files


CORRUPT = {
    "verify": _corrupt_verify,
    "conditions": _corrupt_conditions,
    "distance": _corrupt_distance,
    "pmf_json": _corrupt_pmf_json,
    "pmf_csv": _corrupt_pmf_csv,
    "sweep": _corrupt_sweep,
    "dependent": _corrupt_dependent,
}
