import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knockon import (
    InvalidParameterError,
    LossRule,
    RngStream,
    Topology,
    build_balance_sheets,
    compute_weights,
    apply_surcharge,
    gen_erdos_renyi,
    initial_shock,
    propagate,
)
from knockon.cascade import cascade_results, propagate_grid

from conftest import random_topology
from reference_impl import ref_cascade, ref_sheets, ref_transmit_shares, ref_weights


def two_bank_setup(capital_ratio):
    top = Topology(2, np.array([[0, 1]]), "external")
    wm = compute_weights(top, 0.0, 0.0, 0.1, 1.8)
    bs = build_balance_sheets(wm, 0.1, capital_ratio, 1.8)
    return wm, bs


def random_instance(gen, n_max=40):
    top = random_topology(gen, n_max=n_max)
    q = float(gen.uniform(0.05, 0.45))
    wm = compute_weights(top, 1.0, 1.0, q, 1.0)
    return top, q, wm


class TestInitialShock:
    def test_full_external_asset(self):
        _, bs = two_bank_setup(0.05)
        state = initial_shock(bs, 1)
        assert state.distress.tolist() == [0.0, 1.0]
        assert not state.defaulted.any()
        assert state.round == 0
        assert state.initial_bank == 1

    def test_any_bank(self):
        _, bs = two_bank_setup(0.05)
        state = initial_shock(bs, 0)
        assert state.distress[0] == bs.external_assets[0]
        assert state.distress[1] == 0.0

    def test_surcharged_bank_carries_increment(self):
        top = gen_erdos_renyi(20, 0.2, RngStream(3, 0))
        wm = compute_weights(top, 0.0, 0.0, 0.1, 1.0)
        bs = apply_surcharge(build_balance_sheets(wm, 0.1, 0.05, 1.0), 0.025, 0.1)
        bank = int(np.flatnonzero(bs.surcharge > 0)[0])
        state = initial_shock(bs, bank)
        assert state.distress[bank] == bs.external_assets[bank]
        assert state.distress[bank] > bs.external_assets[bank] - bs.surcharge[bank]

    def test_index_out_of_range(self):
        _, bs = two_bank_setup(0.05)
        with pytest.raises(InvalidParameterError):
            initial_shock(bs, 2)
        with pytest.raises(InvalidParameterError):
            initial_shock(bs, -1)


class TestTransmitShares:
    def test_pro_rata_split(self):
        from knockon import WeightMatrix

        # two creditors holding 0.1 and 0.3 against the same debtor
        wm = WeightMatrix(
            n_banks=3,
            amounts=np.array([0.1, 0.3]),
            loans=np.array([0.1, 0.3, 0.0]),
            borrowings=np.array([0.0, 0.0, 0.4]),
            out_degree=np.array([1, 1, 0]),
            in_degree=np.array([0, 0, 2]),
            debtor_ptr=np.array([0, 0, 0, 2]),
            debtor_creditors=np.array([0, 1]),
            debtor_amounts=np.array([0.1, 0.3]),
        )
        shares = ref_transmit_shares(wm, 2, 1.0)
        assert shares == {0: pytest.approx(0.25), 1: pytest.approx(0.75)}

    def test_no_borrowings_empty(self):
        top = Topology(2, np.array([[0, 1]]), "external")
        wm = compute_weights(top, 0.0, 0.0, 0.1, 1.0)
        assert ref_transmit_shares(wm, 0, 0.5) == {}

    def test_single_creditor_full_residual(self):
        top = Topology(2, np.array([[0, 1]]), "external")
        wm = compute_weights(top, 0.0, 0.0, 0.1, 1.0)
        shares = ref_transmit_shares(wm, 1, 0.37)
        assert shares == {0: pytest.approx(0.37, rel=1e-12)}

    def test_shares_sum_to_residual(self):
        gen = RngStream(41, 0).generator()
        for _ in range(20):
            _, _, wm = random_instance(gen)
            debtor = int(gen.integers(wm.n_banks))
            residual = float(gen.uniform(0, 2))
            shares = ref_transmit_shares(wm, debtor, residual)
            if wm.borrowings[debtor] > 0:
                assert sum(shares.values()) == pytest.approx(residual, rel=1e-12)
            else:
                assert shares == {}

    def test_rejects_negative_residual(self):
        top = Topology(2, np.array([[0, 1]]), "external")
        wm = compute_weights(top, 0.0, 0.0, 0.1, 1.0)
        with pytest.raises(InvalidParameterError):
            ref_transmit_shares(wm, 1, -0.1)


class TestPropagateHandTraces:
    def test_two_bank_low_capital_amplified(self):
        wm, bs = two_bank_setup(0.05)
        result = propagate(bs, wm, initial_shock(bs, 1), LossRule.AMPLIFIED)
        assert result.n_defaults == 2
        assert result.rounds == 2
        assert result.default_set == ((1, 1), (0, 2))
        assert result.initial_bank == 1
        # bank 1 transmits max(1.0 - 0.05, 0.2) = 0.95 entirely to bank 0
        assert result.defaults[0].transmitted == pytest.approx(0.95, rel=1e-12)
        assert result.total_loss_transmitted == pytest.approx(0.95, rel=1e-12)

    def test_two_bank_high_capital_amplified(self):
        wm, bs = two_bank_setup(0.85)
        result = propagate(bs, wm, initial_shock(bs, 1), LossRule.AMPLIFIED)
        assert result.n_defaults == 1
        # transmitted max(1.0 - 0.85, 0.2) = 0.2 < 0.85, bank 0 survives
        assert result.defaults[0].transmitted == pytest.approx(0.2, rel=1e-12)

    def test_two_bank_low_capital_capped(self):
        wm, bs = two_bank_setup(0.05)
        result = propagate(bs, wm, initial_shock(bs, 1), LossRule.CAPPED)
        # min(0.95, 0.2) = 0.2 still sinks bank 0 at C = 0.05
        assert result.n_defaults == 2
        assert result.defaults[0].transmitted == pytest.approx(0.2, rel=1e-12)

    def test_initial_bank_survives(self):
        wm, bs = two_bank_setup(0.85)
        # bank 0 holds E = 0.8 < C = 0.85, the shock is absorbed
        result = propagate(bs, wm, initial_shock(bs, 0), LossRule.AMPLIFIED)
        assert result.n_defaults == 0
        assert result.default_set == ()
        assert result.rounds == 0

    def test_edgeless_single_default(self):
        # a bank with no creditors defaults alone and transmits nothing
        top = Topology(3, np.array([[1, 2]]), "external")
        wm = compute_weights(top, 0.0, 0.0, 0.1, 1.0)
        bs = build_balance_sheets(wm, 0.1, 0.2, 1.0)
        result = propagate(bs, wm, initial_shock(bs, 0), LossRule.AMPLIFIED)
        assert result.n_defaults == 1
        assert result.total_loss_transmitted == 0.0


class TestPropagateProperties:
    def test_default_once(self):
        gen = RngStream(42, 0).generator()
        for _ in range(30):
            top, q, wm = random_instance(gen)
            bs = build_balance_sheets(wm, q, float(gen.uniform(0.01, 0.3)), 1.0)
            bank = int(gen.integers(top.n_banks))
            result = propagate(bs, wm, initial_shock(bs, bank), LossRule.AMPLIFIED)
            banks = [b for b, _ in result.default_set]
            assert len(banks) == len(set(banks))
            assert result.n_defaults == len(result.default_set)

    def test_quiescence_is_idempotent(self):
        gen = RngStream(43, 0).generator()
        for _ in range(20):
            top, q, wm = random_instance(gen)
            bs = build_balance_sheets(wm, q, 0.05, 1.0)
            state = initial_shock(bs, int(gen.integers(top.n_banks)))
            first = propagate(bs, wm, state, LossRule.AMPLIFIED)
            again = propagate(bs, wm, state, LossRule.AMPLIFIED)
            assert again.n_defaults == 0
            assert again.rounds == 0
            assert state.round == first.rounds

    def test_delivered_shares_match_transmit_shares(self):
        # one-round check: every delivered amount agrees with the reference
        # pro-rata split restricted to surviving creditors
        gen = RngStream(44, 0).generator()
        top, q, wm = random_instance(gen)
        bs = build_balance_sheets(wm, q, 0.02, 1.0)
        bank = int(gen.integers(top.n_banks))
        state = initial_shock(bs, bank)
        result = propagate(bs, wm, state, LossRule.CAPPED)
        if result.n_defaults and wm.borrowings[bank] > 0:
            first = result.defaults[0]
            residual = min(
                bs.external_assets[bank] - bs.net_worth[bank],
                wm.borrowings[bank],
            )
            shares = ref_transmit_shares(wm, bank, float(residual))
            assert first.transmitted == pytest.approx(sum(shares.values()), rel=1e-9)

    def test_monotone_in_capital_ratio(self):
        gen = RngStream(45, 0).generator()
        grid = [0.01, 0.03, 0.06, 0.1, 0.2, 0.35]
        for _ in range(25):
            top, q, wm = random_instance(gen)
            bank = int(gen.integers(top.n_banks))
            for rule in (LossRule.AMPLIFIED, LossRule.CAPPED):
                counts = []
                for ratio in grid:
                    bs = build_balance_sheets(wm, q, ratio, 1.0)
                    counts.append(
                        propagate(bs, wm, initial_shock(bs, bank), rule).n_defaults
                    )
                assert all(a >= b for a, b in zip(counts, counts[1:])), counts

    def test_shares_to_defaulted_creditors_are_discarded(self):
        # ring of mutual exposures: once a creditor has defaulted, portions
        # aimed at it vanish instead of being redistributed
        top = Topology(3, np.array([[0, 1], [1, 0], [1, 2], [2, 1]]), "external")
        wm = compute_weights(top, 0.0, 0.0, 0.3, 1.0)
        bs = build_balance_sheets(wm, 0.3, 0.05, 1.0)
        result = propagate(bs, wm, initial_shock(bs, 1), LossRule.AMPLIFIED)
        assert result.n_defaults == 3
        by_bank = {e.bank: e for e in result.defaults}
        # bank 1 fails first and feeds both neighbors
        assert by_bank[1].round == 1
        assert by_bank[1].transmitted == pytest.approx(
            max(
                bs.external_assets[1] - bs.net_worth[1],
                wm.borrowings[1],
            ),
            rel=1e-12,
        )
        # banks 0 and 2 fail next; their only creditor (bank 1) is already
        # gone, so everything they would transmit is discarded
        assert by_bank[0].round == by_bank[2].round == 2
        assert by_bank[0].transmitted == 0.0
        assert by_bank[2].transmitted == 0.0
        assert result.total_loss_transmitted == pytest.approx(
            by_bank[1].transmitted, rel=1e-12
        )

    def test_capped_never_exceeds_amplified(self):
        gen = RngStream(46, 0).generator()
        for _ in range(30):
            top, q, wm = random_instance(gen)
            ratio = float(gen.uniform(0.01, 0.4))
            bs = build_balance_sheets(wm, q, ratio, 1.0)
            bank = int(gen.integers(top.n_banks))
            capped = propagate(bs, wm, initial_shock(bs, bank), LossRule.CAPPED)
            amp = propagate(bs, wm, initial_shock(bs, bank), LossRule.AMPLIFIED)
            assert capped.n_defaults <= amp.n_defaults

    def test_matches_reference_implementation(self):
        # spot check; the acceptance suite runs the full 200-graph sweep
        gen = RngStream(47, 0).generator()
        for _ in range(30):
            top = random_topology(gen, n_max=8)
            n = top.n_banks
            q = float(gen.uniform(0.05, 0.45))
            wm = compute_weights(top, 1.0, 2.0, q, 1.0)
            bs = build_balance_sheets(wm, q, 0.08, 1.0)
            bank = int(gen.integers(n))
            edges = [tuple(e) for e in top.edges.tolist()]
            weights = ref_weights(n, edges, 1.0, 2.0, q, 1.0)
            external, _, _, worth = ref_sheets(n, weights, 0.08, 1.0)
            for rule, tag in ((LossRule.AMPLIFIED, "amplified"), (LossRule.CAPPED, "capped")):
                mine = propagate(bs, wm, initial_shock(bs, bank), rule)
                want_count, want_order = ref_cascade(n, weights, external, worth, bank, tag)
                assert mine.n_defaults == want_count
                assert list(mine.default_set) == want_order


class TestPropagateGrid:
    def test_rejects_strided_state(self):
        wm, bs = two_bank_setup(0.05)
        state = initial_shock(bs, 1)
        state.distress = np.zeros(4)[::2]
        with pytest.raises(InvalidParameterError, match="contiguous"):
            propagate(bs, wm, state)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        density=st.floats(0.1, 0.9),
        loan_fraction=st.floats(0.05, 0.45),
        powers=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        ratios=st.lists(st.floats(0.005, 0.5), min_size=1, max_size=6, unique=True),
        rule=st.sampled_from(LossRule),
        data=st.data(),
    )
    def test_every_row_matches_reference(
        self, seed, n, density, loan_fraction, powers, ratios, rule, data
    ):
        top = gen_erdos_renyi(n, density, RngStream(seed, 0))
        assume(top.n_edges > 0)
        bank = data.draw(st.integers(0, n - 1))
        ratios = sorted(ratios)
        wm = compute_weights(top, *powers, loan_fraction, 1.0)
        bs = build_balance_sheets(wm, loan_fraction, ratios[0], 1.0)
        worth = np.array(ratios)[:, None] * bs.liabilities
        distress = np.zeros_like(worth)
        distress[:, bank] = bs.external_assets[bank]
        counts, log = propagate_grid(
            worth, distress, np.zeros(worth.shape, dtype=bool), wm, rule, collect=True
        )
        results = cascade_results(log, len(ratios), n, bank)

        weights = ref_weights(n, [tuple(e) for e in top.edges.tolist()], *powers, loan_fraction, 1.0)
        for ratio, count, result in zip(ratios, counts, results):
            external, _, _, ref_worth = ref_sheets(n, weights, ratio, 1.0)
            want_count, want_order = ref_cascade(n, weights, external, ref_worth, bank, rule.value)
            assert count == result.n_defaults == want_count
            assert list(result.default_set) == want_order

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 30),
        density=st.floats(0.05, 0.9),
        loan_fraction=st.floats(0.05, 0.45),
        ratios=st.lists(st.floats(0.005, 0.5), min_size=2, max_size=8, unique=True),
        rule=st.sampled_from(LossRule),
        data=st.data(),
    )
    def test_rows_in_any_order_match_one_call_per_row(
        self, seed, n, density, loan_fraction, ratios, rule, data
    ):
        """Each round scans only up to the last row that received distress;
        with the ratios unsorted, every row must still end bit-equal to a
        call on that row alone."""
        top = gen_erdos_renyi(n, density, RngStream(seed, 0))
        assume(top.n_edges > 0)
        bank = data.draw(st.integers(0, n - 1))
        wm = compute_weights(top, 0.0, 0.0, loan_fraction, 1.0)
        bs = build_balance_sheets(wm, loan_fraction, 0.5, 1.0)
        worth = np.array(ratios)[:, None] * bs.liabilities
        distress = np.zeros_like(worth)
        distress[:, bank] = bs.external_assets[bank]
        start = distress.copy()
        defaulted = np.zeros(worth.shape, dtype=bool)
        counts, log = propagate_grid(worth, distress, defaulted, wm, rule, collect=True)

        for g in range(len(ratios)):
            row_distress = start[g : g + 1].copy()
            row_defaulted = np.zeros((1, n), dtype=bool)
            row_counts, row_log = propagate_grid(
                worth[g : g + 1], row_distress, row_defaulted, wm, rule, collect=True
            )
            assert distress[g].tobytes() == row_distress[0].tobytes()
            assert np.array_equal(defaulted[g], row_defaulted[0])
            assert counts[g] == row_counts[0]
            rounds = []
            for hit, at_default, sent in log:
                mine = hit // n == g
                if mine.any():
                    rounds.append((hit[mine] - g * n, at_default[mine], sent[mine]))
            assert len(rounds) == len(row_log)
            for got, want in zip(rounds, row_log):
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
