"""Workloads: seeded inputs and the CLI invocations (ops) that make one pass.

Every profile file, family parameter and model file comes from the seed;
sizes do not, so the work per pass is the same on every seed.  Each
workload also carries one small probe op for every subcommand it does not
otherwise run, so that every workload reports every per-subcommand time:
a probe costs about one interpreter start, and the layers it reaches do
almost no work there, which is the no-change prediction for that layer.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

OUT_DIR = "{out}"  # placeholder in argv, replaced by a fresh directory per run

WHY = {
    "tail_window": (
        "truncated support, small output: verify at n=10^5, conditions to 10^6, dependent over 255k B1 "
        "tuples and rational triangles at n=100; pmf_dp, profiles, dependent work, pmf_dc and emit almost none"
    ),
    "full_support": (
        "full support, large outputs: distance at n=10^6, pmf --engine dc at 3e4 as 2.9 MB JSON and "
        "1.1 MB CSV, sweep with --out; pmf_dc, distances, emit and load_profile work, pmf_dp none"
    ),
}


@dataclass
class Op:
    """One CLI invocation; cmd names the per-subcommand metric it feeds."""

    name: str
    cmd: str
    argv: list[str]
    params: dict = field(default_factory=dict)
    every: int = 1  # runs in every every-th cycle over the op list

    @property
    def writes_dir(self) -> bool:
        return OUT_DIR in self.argv

    def argv_for(self, out_dir: str | None) -> list[str]:
        return [out_dir if a == OUT_DIR else a for a in self.argv]


def _write_lines(path: str, values) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{v!r}\n" for v in values))


def verify_poisson(name: str, rng: random.Random, n: int) -> Op:
    """Flat row c*n^-a under the Poisson form; window k^2 <= sqrt(n)."""
    c, a = rng.uniform(0.5, 2.0), rng.uniform(0.6, 0.75)
    argv = ["verify", "--family", f"row_power:{c!r},{a!r}", "--n", str(n),
            "--kind", "poisson", "--phi", "power:1,0.5"]
    params = {"kind": "poisson", "n": n, "nnz": n, "v": c * float(n) ** -a, "phi_c": 1.0, "phi_a": 0.5}
    return Op(name, "verify", argv, params)


def verify_lambda(name: str, rng: random.Random, work: str, n: int) -> Op:
    """Profile file with a seeded half of exact zeros, the rest one shared value."""
    zeros = set(rng.sample(range(n), n // 2))
    nnz = n - len(zeros)
    v = rng.uniform(30.0, 150.0) / nnz
    path = os.path.join(work, f"{name}.txt")
    _write_lines(path, (0.0 if i in zeros else v for i in range(n)))
    argv = ["verify", "--profile", path, "--kind", "lambda", "--phi", "power:1,0.5"]
    params = {"kind": "lambda", "n": n, "nnz": nnz, "v": v, "phi_c": 1.0, "phi_a": 0.5}
    return Op(name, "verify", argv, params)


def conditions(name: str, rng: random.Random, grid: list[int]) -> Op:
    c, a, phi_a = rng.uniform(0.5, 2.0), rng.uniform(0.4, 0.9), rng.uniform(0.25, 0.5)
    argv = ["conditions", "--family", f"row_power:{c!r},{a!r}",
            "--grid", ",".join(map(str, grid)), "--phi", f"power:1,{phi_a!r}"]
    return Op(name, "conditions", argv, {"c": c, "a": a, "phi_a": phi_a, "grid": grid})


def _index_power_sums(c: float, a: float, n: int) -> tuple[float, float, float]:
    values = [c * float(i) ** -a for i in range(1, n + 1)]
    return math.fsum(values), math.fsum(v * v for v in values), max(values)


def distance(name: str, n: int, c: float, a: float, every: int = 1) -> Op:
    lam, sum_sq, _ = _index_power_sums(c, a, n)
    argv = ["distance", "--family", f"index_power:{c!r},{a!r}", "--n", str(n)]
    return Op(name, "distance", argv, {"n": n, "lam": lam, "sum_sq": sum_sq}, every)


def pmf_pair(name: str, rng: random.Random, work: str, n: int) -> list[Op]:
    """pmf --engine dc of one heterogeneous profile file, as JSON and as CSV."""
    ps = [rng.uniform(0.0, 0.3) for _ in range(n)]
    path = os.path.join(work, f"{name}.txt")
    _write_lines(path, ps)
    summary = {
        "lambda_n": math.fsum(ps),
        "m_n": max(ps),
        "alpha_n": math.fsum(math.log1p(-p) for p in ps),
        "beta_n": math.fsum(p / (1.0 - p) for p in ps),
        "sum_sq": math.fsum(p * p for p in ps),
        "var_n": math.fsum(p * (1.0 - p) for p in ps),
    }
    params = {"n": n, "summary": summary, "key": name}
    base = ["pmf", "--engine", "dc", "--profile", path, "--format"]
    return [Op(f"{name}_json", "pmf_json", base + ["json"], params),
            Op(f"{name}_csv", "pmf_csv", base + ["csv"], params)]


def sweep(name: str, rng: random.Random, grid: list[int]) -> Op:
    """sweep without --kind (distance per point) writing files under --out."""
    c, a = rng.uniform(0.3, 0.9), rng.uniform(0.3, 0.8)
    points = {str(n): _index_power_sums(c, a, n) for n in grid}
    argv = ["sweep", "--family", f"index_power:{c!r},{a!r}",
            "--grid", ",".join(map(str, grid)), "--out", OUT_DIR]
    return Op(name, "sweep", argv, {"grid": grid, "points": points})


def dependent(name: str, rng: random.Random, work: str, n: int, k_max: int, precision: str) -> Op:
    eps = rng.uniform(0.02, 0.1)
    p = [rng.uniform(0.005, 0.05) for _ in range(n)]
    q = [rng.uniform(0.005, 0.05) for _ in range(n)]
    path = os.path.join(work, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"kind": "mixture", "eps": eps, "p": p, "q": q}, fh)
    argv = ["dependent", "--model", path, "--k-max", str(k_max), "--precision", precision]
    params = {"n": n, "k_max": k_max, "eps": eps, "p": p, "q": q, "precision": precision}
    return Op(name, "dependent", argv, params)


def _probes(rng: random.Random, work: str, cmds: set[str]) -> list[Op]:
    ops: list[Op] = []
    if "verify" in cmds:
        ops.append(verify_poisson("probe_verify", rng, 1000))
    if "conditions" in cmds:
        ops.append(conditions("probe_conditions", rng, [100, 1000]))
    if "distance" in cmds:
        ops.append(distance("probe_distance", 1000, rng.uniform(0.3, 0.9), rng.uniform(0.3, 0.8)))
    if "pmf" in cmds:
        ops += pmf_pair("probe_pmf", rng, work, 1000)
    if "sweep" in cmds:
        ops.append(sweep("probe_sweep", rng, [100, 1000]))
    if "dependent" in cmds:
        ops.append(dependent("probe_dependent", rng, work, 12, 3, "float"))
    return ops


def build_ops(workload: str, seed: int, work: str) -> list[Op]:
    """The op list of one pass, with its input files written under work.

    Sizes keep most ops near one second, so that a 60-second run holds
    eight or more runs of each: a shared host slows single runs by up to
    half, and the median of many rides that out.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tail_window":
        # The only workload that reaches dependent: B1 is exhaustive up to
        # k = 4 at n = 50, then sampled; the rational op builds two Fraction
        # triangles.  Like the verify ops, neither uses pmf_dc or emits much.
        ops = [verify_poisson("verify_poisson", rng, 100_000),
               verify_lambda("verify_lambda", rng, work, 100_000),
               conditions("conditions", rng, [10**e for e in range(2, 7)]),
               dependent("dependent_float", rng, work, 50, 6, "float"),
               dependent("dependent_rational", rng, work, 100, 4, "rational")]
        return ops + _probes(rng, work, {"distance", "pmf", "sweep"})
    if workload == "full_support":
        # The README family at 10^6 (lambda ~ 999) stays fixed: pmf_dc loses its
        # tail there, which the traced run reports through the health counters.
        # At 7 to 10 s it runs in every other cycle, leaving the rest of the
        # run to the shorter ops.
        ops = [distance("distance", 10**6, 0.5, 0.5, every=2),
               *pmf_pair("pmf", rng, work, 30_000),
               sweep("sweep", rng, [1000, 10_000, 30_000])]
        return ops + _probes(rng, work, {"verify", "conditions", "dependent"})
    raise ValueError(f"unknown workload {workload!r}")
