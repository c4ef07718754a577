import dataclasses

import numpy as np
import pytest

from knockon import (
    InfeasibleBalanceError,
    InvalidParameterError,
    NoInterbankMarketError,
    RngStream,
    Topology,
    apply_surcharge,
    build_balance_sheets,
    compute_weights,
    gen_erdos_renyi,
    gen_preferential_attachment,
    validate,
)
from knockon.balance import BALANCE_CSV_HEADER, to_csv

from conftest import random_topology
from reference_impl import creditors_of


def amount(weights, creditor, debtor):
    """The loan amount on edge (creditor, debtor); 0.0 if absent."""
    cred, amt = creditors_of(weights, debtor)
    hit = np.flatnonzero(cred == creditor)
    return float(amt[hit[0]]) if hit.size else 0.0


def gini(values):
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    if v.sum() == 0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float((2 * ranks - n - 1).dot(v) / (n * v.sum()))


class TestComputeWeights:
    def test_two_bank_single_edge(self, two_bank_topology):
        wm = compute_weights(two_bank_topology, 0.0, 0.0, 0.1, 1.8)
        assert amount(wm, 0, 1) == pytest.approx(0.2, rel=1e-12)
        assert wm.loans[0] == pytest.approx(0.2, rel=1e-12)
        assert wm.borrowings[1] == pytest.approx(0.2, rel=1e-12)
        assert wm.loans[1] == 0.0
        assert wm.borrowings[0] == 0.0

    def test_complete_three_bank_equal_split(self):
        top = gen_erdos_renyi(3, 1.0, RngStream(1, 0))
        wm = compute_weights(top, 0.0, 0.0, 0.1, 1.8)
        assert np.allclose(wm.amounts, 0.2 / 6, rtol=1e-12)

    def test_star_with_borrower_power(self):
        top = Topology(3, np.array([[0, 1], [0, 2]]), "external")
        wm = compute_weights(top, 0.0, 1.0, 0.1, 1.8)
        assert amount(wm, 0, 1) == pytest.approx(0.1, rel=1e-12)
        assert amount(wm, 0, 2) == pytest.approx(0.1, rel=1e-12)

    def test_rejects_edgeless_topology(self):
        top = Topology(4, np.empty((0, 2), dtype=np.int64), "external")
        with pytest.raises(NoInterbankMarketError):
            compute_weights(top, 0.0, 0.0, 0.1, 1.0)

    def test_rejects_bad_loan_fraction(self, two_bank_topology):
        for bad in (0.0, 0.5, 0.7, -0.1, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError, match="Q"):
                compute_weights(two_bank_topology, 0.0, 0.0, bad, 1.0)

    def test_rejects_negative_powers(self, two_bank_topology):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError, match="power s"):
                compute_weights(two_bank_topology, bad, 0.0, 0.1, 1.0)
            with pytest.raises(InvalidParameterError, match="power t"):
                compute_weights(two_bank_topology, 0.0, bad, 0.1, 1.0)

    def test_equal_weights_when_powers_zero(self):
        gen = RngStream(21, 0).generator()
        for _ in range(10):
            top = random_topology(gen)
            wm = compute_weights(top, 0.0, 0.0, 0.2, 1.0)
            spread = wm.amounts.max() - wm.amounts.min()
            assert spread <= 1e-12 * wm.amounts.max()

    def test_conservation(self):
        gen = RngStream(22, 0).generator()
        for _ in range(25):
            top = random_topology(gen)
            q = float(gen.uniform(0.02, 0.48))
            wm = compute_weights(top, 2.0, 2.0, q, 1.0)
            expected = q / (1 - q)
            assert wm.amounts.sum() == pytest.approx(expected, rel=1e-9)
            assert wm.loans.sum() == pytest.approx(expected, rel=1e-9)
            assert wm.borrowings.sum() == pytest.approx(expected, rel=1e-9)

    def test_heterogeneity_raises_loan_concentration(self):
        top = gen_preferential_attachment(300, 0.01, RngStream(30, 0))
        flat = compute_weights(top, 0.0, 0.0, 0.1, 1.0)
        skewed = compute_weights(top, 2.0, 2.0, 0.1, 1.0)
        assert gini(skewed.loans) > gini(flat.loans)


class TestBuildBalanceSheets:
    def test_two_bank_example(self, two_bank_topology):
        wm = compute_weights(two_bank_topology, 0.0, 0.0, 0.1, 1.8)
        bs = build_balance_sheets(wm, 0.1, 0.05, 1.8)
        assert bs.external_assets == pytest.approx([0.8, 1.0], rel=1e-12)
        assert bs.assets == pytest.approx([1.0, 1.0], rel=1e-12)
        assert bs.net_worth == pytest.approx([0.05, 0.05], rel=1e-12)
        assert bs.deposits[1] == pytest.approx(0.75, rel=1e-12)
        assert bs.deposits[0] == pytest.approx(0.95, rel=1e-12)

    def test_symmetric_positions_share_external_equally(self):
        top = gen_erdos_renyi(3, 1.0, RngStream(1, 0))
        wm = compute_weights(top, 0.0, 0.0, 0.1, 1.8)
        bs = build_balance_sheets(wm, 0.1, 0.05, 1.8)
        assert np.all(bs.external_assets == 0.6)

    def test_capital_ratio_exact(self):
        gen = RngStream(23, 0).generator()
        for _ in range(10):
            top = random_topology(gen)
            ratio = float(gen.uniform(0.01, 0.9))
            wm = compute_weights(top, 1.0, 1.0, 0.1, 1.0)
            bs = build_balance_sheets(wm, 0.1, ratio, 1.0)
            assert np.all(bs.net_worth == ratio * bs.liabilities)

    def test_solvency_floor_holds_for_all_feasible_fractions(self):
        gen = RngStream(24, 0).generator()
        for _ in range(30):
            top = random_topology(gen)
            q = float(gen.uniform(0.02, 0.49))
            wm = compute_weights(top, 2.0, 0.5, q, 1.0)
            bs = build_balance_sheets(wm, q, 0.1, 1.0)
            assert np.all(
                bs.external_assets > bs.interbank_borrowings - bs.interbank_loans
            )

    def test_rejects_bad_ratio(self, two_bank_topology):
        wm = compute_weights(two_bank_topology, 0.0, 0.0, 0.1, 1.0)
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(InvalidParameterError, match="R"):
                build_balance_sheets(wm, 0.1, bad, 1.0)

    def test_rejects_inconsistent_totals(self, two_bank_topology):
        wm = compute_weights(two_bank_topology, 0.0, 0.0, 0.1, 1.0)
        with pytest.raises(InvalidParameterError, match="inconsistent"):
            build_balance_sheets(wm, 0.2, 0.05, 1.0)

    def test_infeasible_total_raises(self, two_bank_topology):
        wm = compute_weights(two_bank_topology, 0.0, 0.0, 0.1, 1.0)
        hacked = dataclasses.replace(
            wm, borrowings=wm.borrowings + 2.0, loans=wm.loans
        )
        with pytest.raises(InfeasibleBalanceError):
            build_balance_sheets(hacked, 0.1, 0.05, 1.0)


class TestSurcharge:
    def base_sheets(self):
        top = gen_erdos_renyi(50, 0.1, RngStream(31, 0))
        wm = compute_weights(top, 1.0, 1.0, 0.1, 1.0)
        return build_balance_sheets(wm, 0.1, 0.05, 1.0)

    def test_zero_ratio_is_identity(self):
        bs = self.base_sheets()
        assert apply_surcharge(bs, 0.0, 0.5) is bs

    def test_zero_fraction_is_identity(self):
        bs = self.base_sheets()
        assert apply_surcharge(bs, 0.025, 0.0) is bs

    def test_increment_formula(self):
        bs = self.base_sheets()
        out = apply_surcharge(bs, 0.025, 0.1)
        selected = np.flatnonzero(out.surcharge > 0)
        assert selected.size == 5
        factor = 0.025 / (1 - 0.05 - 0.025)
        assert out.surcharge[selected] == pytest.approx(
            factor * bs.assets[selected], rel=1e-12
        )
        # unit-asset cross-check: increment of a bank with A = 1 would be
        # 0.025 / 0.925 = 0.027027...
        assert factor == pytest.approx(0.0270270270, rel=1e-8)

    def test_biggest_banks_selected(self):
        bs = self.base_sheets()
        out = apply_surcharge(bs, 0.025, 0.1)
        chosen = np.flatnonzero(out.surcharge > 0)
        floor_assets = bs.assets[chosen].min()
        others = np.setdiff1d(np.arange(bs.n_banks), chosen)
        assert np.all(bs.assets[others] <= floor_assets + 1e-15)

    def test_tie_break_by_degree_then_index(self):
        top = Topology(4, np.array([[0, 1], [1, 0], [2, 3]]), "external")
        wm = compute_weights(top, 0.0, 0.0, 0.1, 1.0)
        bs = build_balance_sheets(wm, 0.1, 0.05, 1.0)
        # banks 0 and 1 share the largest assets and degree 2; bank 0 wins
        # by index
        out = apply_surcharge(bs, 0.02, 0.25)
        assert np.flatnonzero(out.surcharge > 0).tolist() == [0]

    def test_identities_preserved(self):
        bs = self.base_sheets()
        out = apply_surcharge(bs, 0.03, 0.2)
        assert np.array_equal(out.deposits, bs.deposits)
        assert np.allclose(out.liabilities, out.assets, rtol=1e-12)
        assert np.allclose(
            out.liabilities,
            out.net_worth + out.interbank_borrowings + out.deposits,
            rtol=1e-12,
        )
        assert validate(out).ok

    def test_rejects_excessive_ratio(self):
        bs = self.base_sheets()
        with pytest.raises(InvalidParameterError):
            apply_surcharge(bs, 0.95, 0.1)
        with pytest.raises(InvalidParameterError):
            apply_surcharge(bs, -0.01, 0.1)
        with pytest.raises(InvalidParameterError):
            apply_surcharge(bs, 0.02, 1.5)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError, match="R_s"):
                apply_surcharge(bs, bad, 0.1)
            with pytest.raises(InvalidParameterError, match="biggest_fraction"):
                apply_surcharge(bs, 0.02, bad)


class TestValidate:
    def test_clean_sheets_pass(self):
        gen = RngStream(25, 0).generator()
        for _ in range(10):
            top = random_topology(gen)
            wm = compute_weights(top, 1.0, 2.0, 0.15, 1.0)
            bs = build_balance_sheets(wm, 0.15, 0.08, 1.0)
            report = validate(bs)
            assert report.ok
            assert not report.warnings

    def test_halved_net_worth_reports_ratio_violation(self, two_bank_topology):
        wm = compute_weights(two_bank_topology, 0.0, 0.0, 0.1, 1.8)
        bs = build_balance_sheets(wm, 0.1, 0.05, 1.8)
        worth = bs.net_worth.copy()
        worth[0] *= 0.5
        broken = dataclasses.replace(bs, net_worth=worth)
        report = validate(broken)
        assert not report.ok
        assert any(
            v.check == "capital-ratio" and v.bank == 0 for v in report.violations
        )

    def test_negative_deposits_warn_only(self, two_bank_topology):
        wm = compute_weights(two_bank_topology, 0.0, 0.0, 0.1, 1.8)
        bs = build_balance_sheets(wm, 0.1, 0.9, 1.8)
        assert bs.deposits[1] < 0
        report = validate(bs)
        assert report.ok
        assert any(w.check == "negative-deposits" and w.bank == 1 for w in report.warnings)

    def test_report_renders(self, two_bank_topology):
        wm = compute_weights(two_bank_topology, 0.0, 0.0, 0.1, 1.8)
        bs = build_balance_sheets(wm, 0.1, 0.05, 1.8)
        assert str(validate(bs)) == "all identities hold"


class TestBalanceCsv:
    def test_header_and_values(self, two_bank_topology):
        wm = compute_weights(two_bank_topology, 0.0, 0.0, 0.1, 1.8)
        bs = build_balance_sheets(wm, 0.1, 0.05, 1.8)
        text = to_csv(bs)
        lines = text.strip().split("\n")
        assert lines[0] == BALANCE_CSV_HEADER
        assert len(lines) == 3
        row1 = lines[2].split(",")
        assert row1[0] == "1"
        assert float(row1[1]) == pytest.approx(1.0)
        assert float(row1[3]) == pytest.approx(0.2)
        assert float(row1[4]) == pytest.approx(0.05)
        assert float(row1[5]) == pytest.approx(0.75)
