"""Validators of `magnet` outputs.

``check(cmd, data)`` returns a list of failure reasons for the bytes one
command wrote; an empty list means the output is correct.  Each validator
checks the format and row count, then values against the closed forms in
``law.py``: sample moments within ``Z_MAX`` exact standard errors, analytic
quantities within float-conditioning tolerances.  Byte identity across
thread counts and reruns is checked by the caller with :func:`same_bytes`.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

import law

#: Standard errors a sample moment may sit from its exact value.  Under the
#: normal limit a false alarm at 6 sigma has probability ~2e-9 per check.
Z_MAX = 6.0
REL_TOL = 1e-9
NORMAL_TOL = 1e-12  # absolute, on Phi evaluated by two erfc implementations
#: kl_reconcile residuals: far above the ~1e-12 double rounding leaves and far
#: below what a wrong formula gives.
KL_RESID_MAX = 1e-9

BOUND_HEADER = "n,delta,eta,term_clt,term_be,term_hoeffding,term_chernoff,total,vacuous"
REPORT_HEADER = "n,statistic,value,stderr,exact,pass"
#: Report rows per grid point and fixed trailing rows, by experiment kind.
REPORT_ROWS = {"bound_check": (8, 1), "zero_one_law": (1, 2), "kl_reconcile": (3, 0),
               "lognormal_ks": (6, 2), "degree_fit": (4, 0)}


def same_bytes(a: bytes, b: bytes, what: str) -> list[str]:
    if a == b:
        return []
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return [f"{what}: bytes differ at offset {at} ({len(a)} vs {len(b)} bytes)"]


def check(cmd, data: bytes) -> list[str]:
    try:
        text = data.decode("utf-8")
        return _VALIDATORS[cmd.check](text, cmd.info)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{cmd.key}: unparsable output ({type(exc).__name__}: {exc})"]


def _close(a: float, b: float, rel: float = REL_TOL, abs_: float = 0.0) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def _lines(text: str) -> list[str]:
    if not text.endswith("\n"):
        raise ValueError("output does not end with a newline")
    return text[:-1].split("\n")


def _csv(lines: list[str], header: str) -> list[list[str]]:
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    width = header.count(",") + 1
    if any(len(r) != width for r in rows):
        raise ValueError("row with wrong column count")
    return rows


def _regime(text: str, info: dict) -> list[str]:
    got = json.loads(text)
    rho = info["rho"]
    c = law.constants()
    want = {"rho": rho, "kappa": law.kappa(rho), "gamma0": c.gamma0, "gamma1": c.gamma1,
            "sigma0": c.sigma0, "sigma": c.sigma, "r": c.gamma1 / c.gamma0,
            "r_kl": c.gamma0 / c.gamma1, "log_gamma_bar": c.log_gamma_bar}
    fails = [f"regime: {k} = {got.get(k)!r}, closed form {v!r}"
             for k, v in want.items() if not _close(float(got[k]), v)]
    regime = "supercritical" if want["kappa"] > 0 else "subcritical"
    if got["regime"] != regime:
        fails.append(f"regime: {got['regime']!r} but kappa = {want['kappa']:.6g}")
    if set(got) != set(want) | {"regime"}:
        fails.append(f"regime: keys {sorted(got)}")
    return fails


def _pmf(text: str, info: dict) -> list[str]:
    n, d_max = info["n"], info["d_max"]
    l = law.attr_count(n, info["rho"])
    rows = _csv(_lines(text), "d,pmf,cdf")
    d = np.array([int(r[0]) for r in rows])
    pmf = np.array([float(r[1]) for r in rows])
    cdf = np.array([float(r[2]) for r in rows])
    fails = []
    if not np.array_equal(d, np.arange(len(rows))):
        fails.append("pmf: degrees are not 0, 1, 2, ...")
    if d_max is not None and len(rows) != d_max + 1:
        fails.append(f"pmf: {len(rows)} rows, expected d_max + 1 = {d_max + 1}")
    if d_max is None:
        # The default d_max is the 1 - 1e-9 quantile of the law.
        level = 1.0 - 1e-9
        if cdf[-1] < level - 1e-12 or (len(cdf) > 1 and cdf[-2] >= level + 1e-12):
            fails.append(f"pmf: last rows cdf {cdf[-2:].tolist()} do not bracket {level}")
    if np.any(pmf < 0) or np.any(np.diff(cdf) < 0) or np.any(cdf > 1.0):
        fails.append("pmf: negative pmf, decreasing cdf or cdf > 1")
    if np.max(np.abs(cdf - np.minimum(np.cumsum(pmf), 1.0))) > 1e-12:
        fails.append("pmf: cdf is not the running sum of pmf")
    if not _close(pmf[0], law.prob_zero(n, l)):
        fails.append(f"pmf: P(D=0) = {pmf[0]!r}, exact {law.prob_zero(n, l)!r}")
    tol = law.log_pmf_tolerance(n)
    for k in (len(rows) // 2, len(rows) - 1):
        if pmf[k] > 0 and abs(math.log(pmf[k]) - law.log_pmf(n, l, k)) > tol:
            fails.append(f"pmf: ln pmf({k}) off the exact law by more than {tol:.3g}")
    return fails


def _approx(text: str, info: dict) -> list[str]:
    n, rho = info["n"], info["rho"]
    rows = _csv(_lines(text), "n,t,cdf_exact,cdf_approx,abs_err")
    t = [int(r[1]) for r in rows]
    exact = np.array([float(r[2]) for r in rows])
    approx = [float(r[3]) for r in rows]
    fails = []
    if any(int(r[0]) != n for r in rows) or t != list(range(len(rows))):
        fails.append("approx: n column or t = 0, 1, 2, ... broken")
    if exact[-1] < 0.999 - 1e-9 or (len(exact) > 1 and exact[-2] >= 0.999 + 1e-9):
        fails.append("approx: rows do not end at the 0.999 quantile")
    if np.any(np.diff(exact) < 0) or exact.max() > 1.0:
        fails.append("approx: cdf_exact decreasing or above 1")
    if any(float(r[4]) != abs(float(r[2]) - float(r[3])) for r in rows):
        fails.append("approx: abs_err is not |cdf_exact - cdf_approx|")
    for k in (1, len(rows) // 2, len(rows) - 1):
        if not _close(approx[k], law.cdf_approx(t[k], n, rho), 0.0, NORMAL_TOL):
            fails.append(f"approx: cdf_approx({t[k]}) off the closed form")
    return fails


def _bound_record(rec: dict, n: int, rho: float) -> list[str]:
    want = law.bound_terms(n, rho, rec["delta"], rec["eta"])
    got = (rec["term_clt"], rec["term_be"], rec["term_hoeffding"], rec["term_chernoff"])
    fails = [f"bound: n={n} {name} = {g!r}, closed form {w!r}"
             for name, g, w in zip(("term_clt", "term_be", "term_hoeffding", "term_chernoff"),
                                   got, want) if not _close(g, w, abs_=1e-300)]
    if not _close(rec["total"], math.fsum(got)) or rec["vacuous"] != (rec["total"] >= 1.0):
        fails.append(f"bound: n={n} total or vacuous flag inconsistent with the terms")
    if not (0 < rec["delta"] < 1 and 0 < rec["eta"] < law.MU1):
        fails.append(f"bound: n={n} (delta, eta) outside the search domain")
    return fails


def _bound(text: str, info: dict) -> list[str]:
    if info["format"] == "json":
        recs = json.loads(text)
        for rec, n in zip(recs, info["grid"]):
            if rec["l"] != law.attr_count(n, info["rho"]) or rec["c_star"] != law.C_STAR:
                return [f"bound: n={n} l or c_star wrong"]
    else:
        names = BOUND_HEADER.split(",")
        recs = [dict(zip(names, [int(r[0])] + [float(x) for x in r[1:8]] + [r[8] == "true"]))
                for r in _csv(_lines(text), BOUND_HEADER)]
    if [r["n"] for r in recs] != list(info["grid"]):
        return [f"bound: rows for n = {[r['n'] for r in recs]}, expected {list(info['grid'])}"]
    return [f for rec in recs for f in _bound_record(rec, rec["n"], info["rho"])]


def _header_and_body(text: str, n_header: int) -> tuple[list[str], list[str]]:
    lines = _lines(text)
    return lines[:n_header], lines[n_header:]


def _degrees(text: str, info: dict) -> list[str]:
    n, count = info["n"], info["count"]
    head, body = _header_and_body(text, 4)
    method = "fullgraph" if info["mix"] == "fullgraph" else "direct"
    fails = []
    if not (head[0] == f"# magnet degrees method={method} count={count}"
            and head[2].startswith(f"# n={n} l={law.attr_count(n, info['rho'])} ")
            and head[3] == "degree"):
        fails.append(f"degrees: header {head!r}")
    if len(body) != count:
        return fails + [f"degrees: {len(body)} rows, expected {count}"]
    deg = np.loadtxt(io.StringIO("\n".join(body)), dtype=np.int64, ndmin=1)
    if deg.min() < 0 or deg.max() > n - 1:
        fails.append("degrees: draw outside [0, n-1]")
    mean, var = law.degree_moments(n, law.attr_count(n, info["rho"]))
    z = (deg.mean() - mean) / math.sqrt(var / count)
    if abs(z) > Z_MAX:
        fails.append(f"degrees: sample mean {deg.mean():.6g} is {z:.2f} standard errors "
                     f"from the exact mean {mean:.6g}")
    return fails


def _edges(text: str, info: dict) -> list[str]:
    n = info["n"]
    l = law.attr_count(n, info["rho"])
    head, body = _header_and_body(text, 3)
    fails = []
    if head[0] != "# magnet edge list" or not head[2].startswith(f"# n={n} l={l} "):
        fails.append(f"edges: header {head!r}")
    if body:
        e = np.loadtxt(io.StringIO("\n".join(body)), dtype=np.int64, delimiter="\t", ndmin=2)
        key = e[:, 0] * n + e[:, 1]
        if (e[:, 0].min() < 0 or e[:, 1].max() >= n or np.any(e[:, 0] >= e[:, 1])
                or np.any(np.diff(key) <= 0)):
            fails.append("edges: rows not u < v, in range, sorted and unique")
    mean, var = law.edge_count_moments(n, l)
    z = (len(body) - mean) / math.sqrt(var)
    if abs(z) > Z_MAX:
        fails.append(f"edges: {len(body)} edges is {z:.2f} standard deviations from the "
                     f"exact mean {mean:.6g}")
    return fails


def _report(text: str, info: dict) -> list[str]:
    kind, grid = info["kind"], info["grid"]
    lines = _lines(text)
    at = lines.index(REPORT_HEADER)
    prov = dict(ln[2:].split("=", 1) for ln in lines[1:at])
    fails = []
    if lines[0] != "# magnet experiment report" or prov.get("kind") != kind \
            or prov.get("seed") != str(info["seed"]) \
            or prov.get("n_grid") != " ".join(map(str, grid)):
        fails.append(f"report: provenance header {lines[:at]!r}")
    per_n, extra = REPORT_ROWS[kind]
    rows = _csv(lines[at:], REPORT_HEADER)
    if len(rows) != per_n * len(grid) + extra:
        return fails + [f"report: {len(rows)} rows, expected {per_n * len(grid) + extra}"]
    stat = {(int(r[0]), r[1]): float(r[2]) for r in rows}
    for n in grid:
        l = law.attr_count(n, 1.0)
        if kind == "zero_one_law" and not _close(stat[n, "p0"], law.prob_zero(n, l)):
            fails.append(f"report: p0 at n={n} off the exact law")
        if kind == "lognormal_ks":
            p0 = law.prob_zero(n, l)
            se = math.sqrt(p0 * (1 - p0) / info["draws"])
            if abs(stat[n, "zero_fraction"] - p0) > Z_MAX * se:
                fails.append(f"report: zero fraction at n={n} far from P(D=0) = {p0:.6g}")
        if kind == "degree_fit":
            for s in ("chisq_p_direct", "ks2_p"):
                if not stat[n, s] > 1e-6:
                    fails.append(f"report: {s} = {stat[n, s]:.3g} at n={n}")
            if not all(0.0 <= stat[n, s] <= 1.0 for s in ("tv_direct", "tv_fullgraph")):
                fails.append(f"report: TV outside [0, 1] at n={n}")
        if kind == "bound_check":
            terms = [stat[n, f"term_{t}"] for t in ("clt", "be", "hoeffding", "chernoff")]
            want = law.bound_terms(n, 1.0, stat[n, "delta_opt"], stat[n, "eta_opt"])
            if not all(_close(g, w, abs_=1e-300) for g, w in zip(terms, want)):
                fails.append(f"report: certificate terms at n={n} off the closed form")
    if kind == "kl_reconcile":
        # The identities hold exactly; the residuals are double rounding.
        # The report's own pass flag uses 1e-12 on the cdf residual, which
        # rounding alone exceeds for some of the random parameter sets.
        worst = max(float(r[2]) for r in rows)
        if not worst <= KL_RESID_MAX:
            fails.append(f"report: reconciliation residual {worst:.3g} > {KL_RESID_MAX}")
    return fails


_VALIDATORS = {"regime": _regime, "pmf": _pmf, "approx": _approx, "bound": _bound,
               "degrees": _degrees, "edges": _edges, "report": _report}
