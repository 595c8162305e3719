"""Four-term error certificates and the concentration bound.

Frozen term values at (n=1e6, rho=1, delta=0.5, eta=0.1, reference params)
come from a 40-digit recomputation of the closed forms; psi(1) = 2 ln 2 - 1.
"""

import math

import numpy as np
import pytest

from magnet import (
    C_STAR,
    GridSpec,
    InvalidParamsError,
    ModelParams,
    REFERENCE_PARAMS,
    RegimeError,
    Scaling,
    berry_esseen_bound,
    default_eta,
    derive_constants,
    optimize_bound,
    psi,
    ratio_concentration_bound,
    write_bound_csv,
)

P = REFERENCE_PARAMS
SC = Scaling(rho=1.0)

TERM_CLT = 0.5357608053784233
TERM_BE = 0.4040784317077918
TERM_HOEFFDING = 3.023134965822902
TERM_CHERNOFF = 1.918308102623774


def test_psi_fixed_points():
    assert psi(0.0) == 0.0
    assert psi(1.0) == pytest.approx(2 * math.log(2) - 1, rel=1e-15)
    assert psi(1.0) == pytest.approx(0.38629436111989062, rel=1e-14)
    arr = psi(np.array([0.0, 0.5, 1.0, 10.0]))
    assert arr[0] == 0.0 and arr[3] == pytest.approx(11 * math.log(11) - 10, rel=1e-15)


@pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 10.0])
def test_psi_dominates_quadratic_lower_bound(x):
    assert psi(x) >= x**2 / (2.0 * (1.0 + x))


def test_psi_domain():
    with pytest.raises(InvalidParamsError):
        psi(-1.0)
    with pytest.raises(InvalidParamsError):
        psi(np.array([0.5, -1.5]))
    assert psi(-0.5) > 0.0  # defined and positive on (-1, 0)


def test_certificate_terms_frozen_values():
    cert = berry_esseen_bound(P, 10**6, SC, delta=0.5, eta=0.1)
    assert cert.l == 14
    assert cert.term_clt == pytest.approx(TERM_CLT, rel=1e-12)
    assert cert.term_be == pytest.approx(TERM_BE, rel=1e-12)
    assert cert.term_hoeffding == pytest.approx(TERM_HOEFFDING, rel=1e-12)
    assert cert.term_chernoff == pytest.approx(TERM_CHERNOFF, rel=1e-12)
    assert cert.total == pytest.approx(
        TERM_CLT + TERM_BE + TERM_HOEFFDING + TERM_CHERNOFF, rel=1e-14
    )
    assert cert.vacuous  # total ~ 5.9


def test_certificate_structural_limits():
    # delta -> 0: the clt term collapses to the n/(n-1) sliver, chernoff -> 2
    tiny = berry_esseen_bound(P, 10**6, SC, delta=1e-12, eta=0.1)
    assert tiny.term_clt == pytest.approx(
        math.log1p(1.0 / (10**6 - 1))
        / math.sqrt(2 * math.pi * 0.047801322713392668 * 14),
        rel=1e-6,
    )
    assert tiny.term_chernoff == pytest.approx(2.0, rel=1e-9)
    # balanced attribute pmf: the be factor (mu1^2+mu0^2)/sqrt(mu1 mu0) is 1
    bal = ModelParams(q11=0.9, q10=0.3, q00=0.3, mu1=0.5)
    cert = berry_esseen_bound(bal, 10**6, SC, delta=0.5, eta=0.2)
    assert cert.term_be == pytest.approx(3.0 * C_STAR / math.sqrt(cert.l), rel=1e-14)


def test_default_eta_is_quarter_of_minority_mass():
    assert default_eta(P) == pytest.approx(0.1, rel=1e-15)
    assert default_eta(ModelParams(q11=0.5, q10=0.5, q00=0.6, mu1=0.2)) == pytest.approx(
        0.05, rel=1e-15
    )
    cert = berry_esseen_bound(P, 10**6, SC, delta=0.5)
    assert cert.eta == pytest.approx(0.1, rel=1e-15)


def test_certificate_validation():
    with pytest.raises(InvalidParamsError):
        berry_esseen_bound(P, 10**6, SC, delta=0.0)
    with pytest.raises(InvalidParamsError):
        berry_esseen_bound(P, 10**6, SC, delta=1.0)
    with pytest.raises(InvalidParamsError):
        berry_esseen_bound(P, 10**6, SC, delta=0.5, eta=0.6)  # >= mu1
    with pytest.raises(RegimeError):
        berry_esseen_bound(P, 10**6, Scaling(rho=2.0), delta=0.5)
    flat = ModelParams(q11=0.4, q10=0.4, q00=0.4, mu1=0.6)
    with pytest.raises(RegimeError):  # sigma = 0
        berry_esseen_bound(flat, 10**6, Scaling(rho=0.5), delta=0.5)


def test_optimizer_beats_hand_picked_witnesses():
    opt = optimize_bound(P, 10**6, SC)
    for delta, eta in ((0.5, 0.1), (0.3, 0.05), (0.9, 0.14), (0.05, 0.11)):
        probe = berry_esseen_bound(P, 10**6, SC, delta=delta, eta=eta)
        assert opt.total <= probe.total + 1e-12
    # deterministic: same grid, same answer
    again = optimize_bound(P, 10**6, SC)
    assert (opt.delta, opt.eta, opt.total) == (again.delta, again.eta, again.total)
    # witnesses live inside the searched grid
    g = GridSpec()
    assert g.delta_lo <= opt.delta <= g.delta_hi
    assert g.eta_lo_frac * 0.6 <= opt.eta <= g.eta_hi_frac * 0.6


def test_the_search_grid_is_fixed():
    # optimize_bound builds its own grid, so it takes no settings
    with pytest.raises(TypeError):
        GridSpec(n_delta=5)
    g = GridSpec()
    assert (g.n_delta, g.n_eta, g.delta_lo, g.delta_hi, g.eta_lo_frac, g.eta_hi_frac) == (
        200, 200, 1e-4, 1.0 - 1e-4, 1e-4, 1.0 - 1e-4)
    assert np.array_equal(g.deltas(), np.geomspace(1e-4, 1.0 - 1e-4, 200))
    assert np.array_equal(g.etas(0.6), 0.6 * np.geomspace(1e-4, 1.0 - 1e-4, 200))


def test_the_n_over_n_minus_1_sliver_vanishes_past_the_double_range():
    # 1 / (n - 1) on ints is correctly rounded and 0.0 for n - 1 past the
    # double range, so the clt term keeps only its delta part there
    cert = berry_esseen_bound(P, 10**400, SC, delta=0.5, eta=0.1)
    sigma = derive_constants(P).sigma
    assert cert.term_clt == math.log(1.5 / 0.5) / math.sqrt(2.0 * math.pi * sigma ** 2 * cert.l)


def test_optimized_total_decreases_from_desk_to_astronomical_n():
    t3 = optimize_bound(P, 10**3, SC).total
    t9 = optimize_bound(P, 10**9, SC).total
    assert t9 < t3


def test_certificate_becomes_informative_on_astronomical_scales():
    # The four terms only drop below 1 together when L is in the hundreds;
    # with a wide affinity ratio and a slow scaling that happens around
    # n ~ 1e145 (degrees there exceed any fixed-width integer, so this is
    # an analytic regime, not a samplable one).
    wide = ModelParams(q11=0.9, q10=0.3, q00=0.3, mu1=0.5)
    slow = Scaling(rho=0.3)
    n_huge = 10**145
    cert = berry_esseen_bound(wide, n_huge, slow, delta=0.3, eta=0.3)
    assert cert.l == 100
    assert not cert.vacuous
    assert cert.total < 0.25
    opt = optimize_bound(wide, n_huge, slow)
    assert opt.total <= cert.total
    assert not opt.vacuous


def test_chernoff_term_collapses_to_zero_past_overflow():
    cert = berry_esseen_bound(P, 10**310, Scaling(rho=0.01), delta=0.5, eta=0.1)
    assert cert.term_chernoff == 0.0
    assert math.isfinite(cert.total)


def test_ratio_bound_shares_terms_with_certificate():
    cert = berry_esseen_bound(P, 10**6, SC, delta=0.5, eta=0.1)
    rb = ratio_concentration_bound(P, 10**6, cert.l, delta=0.5, eta=0.1)
    assert rb == cert.term_hoeffding + cert.term_chernoff
    # the optimizer reports the certificate of its grid witness, field for field
    opt = optimize_bound(P, 10**6, SC)
    assert opt == berry_esseen_bound(P, 10**6, SC, opt.delta, opt.eta)


def test_ratio_bound_has_no_regime_or_delta_ceiling():
    # valid in the subcritical regime and for delta > 1
    val = ratio_concentration_bound(P, 100, 20, delta=2.5, eta=0.1)
    assert 0.0 < val
    with pytest.raises(InvalidParamsError):
        ratio_concentration_bound(P, 100, 20, delta=0.0, eta=0.1)
    with pytest.raises(InvalidParamsError):
        ratio_concentration_bound(P, 100, 20, delta=0.5, eta=0.7)


def test_ratio_bound_monotone_in_n_and_partially_in_l():
    # In n at fixed l the bound is monotone nonincreasing: only the
    # Chernoff inner grows with n.
    ns = [10**3, 10**4, 10**5, 10**6]
    vals_n = [ratio_concentration_bound(P, n, 10, delta=0.5, eta=0.1) for n in ns]
    assert all(b <= a + 1e-15 for a, b in zip(vals_n, vals_n[1:]))
    # In l at fixed n it is monotone only while the Hoeffding term
    # dominates; once (n-1)(...)^l drops to O(1) the Chernoff term revives
    # toward 2 and the total turns back up.  Both behaviors are real:
    vals_l = [ratio_concentration_bound(P, 10**6, l, delta=0.5, eta=0.35)
              for l in (2, 3, 4, 5, 6, 7)]
    assert all(b <= a + 1e-15 for a, b in zip(vals_l, vals_l[1:]))
    revived = ratio_concentration_bound(P, 10**6, 16, delta=0.5, eta=0.1)
    dominated = ratio_concentration_bound(P, 10**6, 8, delta=0.5, eta=0.1)
    assert revived > dominated  # non-monotone tail, by construction


def test_bound_csv_emission(tmp_path):
    certs = [
        berry_esseen_bound(P, n, SC, delta=0.5, eta=0.1) for n in (10**3, 10**6)
    ]
    path = tmp_path / "bounds.csv"
    write_bound_csv(str(path), certs)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == (
        "n,delta,eta,term_clt,term_be,term_hoeffding,term_chernoff,total,vacuous"
    )
    assert len(lines) == 3
    cells = lines[2].split(",")
    assert int(cells[0]) == 10**6
    assert float(cells[3]) == pytest.approx(TERM_CLT, rel=1e-15)
    assert cells[-1] == "true"
