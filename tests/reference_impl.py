"""Straight-line reference implementations used as independent oracles.

The balance-sheet and cascade references work on plain dicts and Python
floats, recomputing totals by brute force each round, so the fast array
engine is checked against an implementation that shares none of its code
paths.

The two topology generators walk ``knockon.netgen``'s draw order one
decision at a time: one geometric gap per homogeneous edge, one scalar
uniform per preferential-attachment decision. That draw order defines the
random stream every seed reproduces, so the vectorised generators must
yield equal topologies and leave the Generator at the same point. They read
the tuning constants from ``knockon.netgen`` at call time, so a test that
patches one (such as ``_REDRAW_LIMIT`` or ``_CHUNK``) patches both sides.
``ref_canonical_edges`` and ``ref_debtor_order`` are the ``np.lexsort``
orders the single-key sorts in ``Topology`` and ``compute_weights`` replace.

``ref_transmit_shares`` is the pro-rata split of one defaulter's residual
over its creditors, which the cascade engine performs in bulk;
``creditors_of`` reads one debtor's creditors from the weight matrix's
debtor-indexed CSR views.

``ref_replicate_grid`` is the original per-ratio replication, with the
original ``apply_surcharge`` and one-defaulter-at-a-time ``propagate`` loop:
one sheet, one shock and one cascade per capital ratio. The batched sweep
must give equal default counts and bit-equal default events.
"""

from __future__ import annotations

import math

import numpy as np

from knockon import netgen
from knockon.balance import BalanceSheetSet, build_balance_sheets, compute_weights
from knockon.cascade import CascadeResult, DefaultEvent, LossRule, initial_shock
from knockon.errors import InvalidParameterError


def ref_weights(n, edges, lender_power, borrower_power, loan_fraction, total_external):
    """Loan amount per edge by direct evaluation of the degree-weighted
    share formula. Returns a dict (creditor, debtor) -> amount."""
    out_deg = {i: 0 for i in range(n)}
    in_deg = {i: 0 for i in range(n)}
    for i, j in edges:
        out_deg[i] += 1
        in_deg[j] += 1
    bases = {}
    for i, j in edges:
        bases[(i, j)] = (float(out_deg[i]) ** lender_power) * (
            float(in_deg[j]) ** borrower_power
        )
    denom = math.fsum(bases.values())
    total_loans = loan_fraction / (1.0 - loan_fraction) * total_external
    return {pair: b / denom * total_loans for pair, b in bases.items()}


def ref_sheets(n, weights, capital_ratio, total_external):
    """Per-bank balance sheet quantities from a weight dict.

    Returns dicts: external, loans, borrowings, worth.
    """
    loans = {i: 0.0 for i in range(n)}
    borrowings = {i: 0.0 for i in range(n)}
    for (i, j), w in sorted(weights.items()):
        loans[i] += w
        borrowings[j] += w
    shortfall = {i: max(borrowings[i] - loans[i], 0.0) for i in range(n)}
    pool = total_external - math.fsum(shortfall.values())
    external = {i: shortfall[i] + pool / n for i in range(n)}
    worth = {i: capital_ratio * (external[i] + loans[i]) for i in range(n)}
    return external, loans, borrowings, worth


def ref_cascade(n, weights, external, worth, initial_bank, rule):
    """Synchronous-round cascade on dicts, recomputing borrowings and
    pro-rata shares from scratch every round.

    rule is "amplified" (transmit max(residual, borrowings)) or "capped"
    (transmit min(residual, borrowings)). Returns (default count, ordered
    list of (bank, round)).
    """
    distress = {i: 0.0 for i in range(n)}
    distress[initial_bank] = external[initial_bank]
    defaulted: set[int] = set()
    order: list[tuple[int, int]] = []
    round_no = 0
    while True:
        fresh = [
            j for j in range(n) if j not in defaulted and worth[j] <= distress[j]
        ]
        if not fresh:
            break
        round_no += 1
        for d in fresh:
            defaulted.add(d)
        for d in fresh:
            order.append((d, round_no))
            owed = math.fsum(w for (i, jj), w in sorted(weights.items()) if jj == d)
            if owed == 0.0:
                continue
            residual = distress[d] - worth[d]
            if rule == "amplified":
                outgoing = max(residual, owed)
            else:
                outgoing = min(residual, owed)
            for (i, jj), w in sorted(weights.items()):
                if jj == d and i not in defaulted:
                    distress[i] += w / owed * outgoing
    return len(order), order


def ref_gen_erdos_renyi(n_banks, density, rng):
    """Homogeneous topology walked one geometric gap at a time.

    Pairs are numbered row-major (creditor, then debtor skipping the
    creditor). Gaps are drawn in blocks of min(pairs left, ``_CHUNK``,
    ceil(mean + 4 sqrt(mean)) + 1), mean = density * pairs left, while pairs
    remain after the last included one; the rest of a block that passes the
    last pair is discarded. Python integers cannot wrap, so the gaps are not
    clipped."""
    n = int(n_banks)
    if n < 2:
        raise InvalidParameterError(f"n_banks must be at least 2, got {n_banks}")
    if not 0.0 <= density <= 1.0:
        raise InvalidParameterError(f"density must lie in [0, 1], got {density}")
    gen = netgen._as_generator(rng)
    total = n * (n - 1)
    edges = []
    pos = -1
    while density > 0.0 and pos < total - 1:
        left = total - 1 - pos
        mean = density * left
        block = min(left, netgen._CHUNK, math.ceil(mean + 4.0 * math.sqrt(mean)) + 1)
        for gap in gen.geometric(density, block).tolist():
            pos += gap
            if pos >= total:
                break
            creditor, offset = divmod(pos, n - 1)
            edges.append((creditor, offset if offset < creditor else offset + 1))
    return netgen.Topology(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2), netgen.HOMOGENEOUS)


def ref_gen_preferential_attachment(n_banks, density, rng):
    """Heterogeneous topology drawing one scalar uniform per decision."""
    n = int(n_banks)
    if n < 3:
        raise InvalidParameterError(f"n_banks must be at least 3, got {n_banks}")
    if not 0.0 < density <= 1.0:
        raise InvalidParameterError(f"density must lie in (0, 1], got {density}")
    if density * (n - 1) / 2.0 < 0.5:
        raise InvalidParameterError(
            f"density {density} is infeasible at n={n}: mean attachment "
            f"{density * (n - 1) / 2.0:.3f} is below 0.5"
        )
    gen = netgen._as_generator(rng)

    directed_target = density * n * (n - 1)
    max_links = n * (n - 1) / 2.0
    # Single-direction edges can realize at most half of the possible ordered
    # pairs; beyond that a matching share of relationships must be two-way.
    reciprocal = max(0.0, directed_target / max_links - 1.0)
    link_target = directed_target / (1.0 + reciprocal)

    seed_size = max(2, min(n, math.ceil(link_target / (n - 1)) + 1))
    budget = max(link_target - seed_size * (seed_size - 1) / 2.0, 0.0)
    arrivals = n - seed_size
    mean_per_arrival = budget / arrivals if arrivals else 0.0
    shift = netgen._ATTRACTIVENESS - mean_per_arrival

    degree = np.zeros(n, dtype=np.int64)
    degree[:seed_size] = seed_size - 1
    attach_w = np.full(n, netgen._ATTACH_FLOOR)
    attach_w[:seed_size] = np.maximum(degree[:seed_size] + shift, netgen._ATTACH_FLOOR)

    links: list[tuple[int, int]] = [
        (a, b) for a in range(seed_size) for b in range(a + 1, seed_size)
    ]

    for v in range(seed_size, n):
        remaining = n - v
        m_mean = max(budget, 0.0) / remaining
        m_lo = math.floor(m_mean)
        frac = m_mean - m_lo
        m = m_lo + (1 if gen.random() < frac else 0)
        m = min(m, v)
        if m > 0:
            cum = np.cumsum(attach_w[:v])
            total_w = float(cum[-1])
            chosen: set[int] = set()
            attempts = 0
            while len(chosen) < m and attempts < netgen._REDRAW_LIMIT:
                target = int(np.searchsorted(cum, gen.random() * total_w, side="right"))
                target = min(target, v - 1)
                if target in chosen:
                    attempts += 1
                    continue
                chosen.add(target)
            if len(chosen) < m:
                # Redraw limit hit under an extremely dominant hub: fill the
                # remainder by an explicit weighted draw without replacement.
                probs = attach_w[:v].copy()
                probs[list(chosen)] = 0.0
                probs /= probs.sum()
                extra = gen.choice(v, size=m - len(chosen), replace=False, p=probs)
                chosen.update(int(t) for t in extra)
            for target in sorted(chosen):
                links.append((target, v))
                degree[target] += 1
            degree[v] = m
            for target in chosen:
                attach_w[target] = max(degree[target] + shift, netgen._ATTACH_FLOOR)
        attach_w[v] = max(degree[v] + shift, netgen._ATTACH_FLOOR)
        budget -= m

    edges: list[tuple[int, int]] = []
    for incumbent, newcomer in links:
        if reciprocal > 0.0 and gen.random() < reciprocal:
            edges.append((incumbent, newcomer))
            edges.append((newcomer, incumbent))
        elif gen.random() < netgen._BORROW_FROM_INCUMBENT:
            edges.append((incumbent, newcomer))
        else:
            edges.append((newcomer, incumbent))
    edge_array = (
        np.asarray(edges, dtype=np.int64) if edges else np.empty((0, 2), dtype=np.int64)
    )
    return netgen.Topology(n, edge_array, netgen.HETEROGENEOUS)


def ref_canonical_edges(edges):
    """(creditor, debtor) pairs in lexicographic order, by ``np.lexsort``."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def ref_debtor_order(creditor, debtor):
    """Edge order of the debtor-major CSR: by debtor, then creditor."""
    return np.lexsort((creditor, debtor))


def creditors_of(weights, debtor: int) -> tuple[np.ndarray, np.ndarray]:
    """Creditor indices of ``debtor`` and the amounts they are owed."""
    lo, hi = weights.debtor_ptr[debtor], weights.debtor_ptr[debtor + 1]
    return weights.debtor_creditors[lo:hi], weights.debtor_amounts[lo:hi]


def ref_transmit_shares(weights, debtor: int, residual: float) -> dict[int, float]:
    """Pro-rata split of ``residual`` across the debtor's creditors.

    Creditor j receives ``amount(j, debtor) / borrowings(debtor) * residual``.
    Returns an empty mapping when the debtor has no borrowings.
    """
    if residual < 0.0:
        raise InvalidParameterError(f"residual must be non-negative, got {residual}")
    total = float(weights.borrowings[debtor])
    if total == 0.0:
        return {}
    creditors, amounts = creditors_of(weights, debtor)
    return {
        int(c): float(a) / total * residual for c, a in zip(creditors, amounts)
    }


def ref_apply_surcharge(sheets, surcharge_ratio, biggest_fraction):
    """Extra equity on the largest banks, one capital ratio at a time."""
    ratio = sheets.constants.capital_ratio
    if surcharge_ratio < 0.0 or ratio + surcharge_ratio >= 1.0:
        raise InvalidParameterError(
            f"surcharge ratio R_s must lie in [0, 1 - R), got {surcharge_ratio} with R={ratio}"
        )
    if not 0.0 <= biggest_fraction <= 1.0:
        raise InvalidParameterError(
            f"biggest_fraction must lie in [0, 1], got {biggest_fraction}"
        )
    n = sheets.n_banks
    count = int(np.floor(biggest_fraction * n + 1e-9))
    if surcharge_ratio == 0.0 or count == 0:
        return sheets

    order = np.lexsort((np.arange(n), -sheets.total_degree, -sheets.assets))
    selected = order[:count]
    increment = np.zeros(n)
    increment[selected] = (
        surcharge_ratio / (1.0 - ratio - surcharge_ratio) * sheets.assets[selected]
    )
    return BalanceSheetSet(
        external_assets=sheets.external_assets + increment,
        interbank_loans=sheets.interbank_loans.copy(),
        interbank_borrowings=sheets.interbank_borrowings.copy(),
        net_worth=sheets.net_worth + increment,
        deposits=sheets.deposits.copy(),
        assets=sheets.assets + increment,
        liabilities=sheets.liabilities + increment,
        surcharge=increment,
        total_degree=sheets.total_degree.copy(),
        constants=sheets.constants,
    )


def ref_propagate(sheets, weights, state, rule):
    """The cascade with a Python loop over each round's defaulters in
    ascending bank order, one creditor slice and one mask each."""
    rule = LossRule(rule)
    worth = sheets.net_worth
    distress = state.distress
    defaulted = state.defaulted
    borrowings = weights.borrowings

    events = []
    total_sent = 0.0
    rounds_run = 0

    while True:
        hit = np.flatnonzero(~defaulted & (worth <= distress))
        if hit.size == 0:
            break
        rounds_run += 1
        state.round += 1
        defaulted[hit] = True
        for d in hit:
            at_default = float(distress[d])
            owed = float(borrowings[d])
            delivered = 0.0
            if owed > 0.0:
                residual = at_default - float(worth[d])
                if rule is LossRule.AMPLIFIED:
                    outgoing = max(residual, owed)
                else:
                    outgoing = min(residual, owed)
                creditors, amounts = creditors_of(weights, int(d))
                live = ~defaulted[creditors]
                if np.any(live):
                    shares = amounts[live] / owed * outgoing
                    distress[creditors[live]] += shares
                    delivered = float(shares.sum())
            total_sent += delivered
            events.append(
                DefaultEvent(
                    bank=int(d), round=state.round,
                    distress=at_default, transmitted=delivered,
                )
            )

    return CascadeResult(
        initial_bank=state.initial_bank,
        n_defaults=len(events),
        rounds=rounds_run,
        total_loss_transmitted=total_sent,
        defaults=tuple(events),
    )


def ref_replicate_grid(cfg, gen):
    """One replication drawn from ``gen``: the topology, then the shocked
    bank, then one sheet, shock and cascade per grid ratio. Returns the
    cascade results in grid order."""
    if cfg.topology_kind == netgen.HOMOGENEOUS:
        topology = netgen.gen_erdos_renyi(cfg.n_banks, cfg.density, gen)
    else:
        topology = netgen.gen_preferential_attachment(cfg.n_banks, cfg.density, gen)
    bank = int(gen.integers(0, cfg.n_banks))
    weights = compute_weights(
        topology, cfg.lender_power, cfg.borrower_power, cfg.loan_fraction, cfg.total_external
    )
    results = []
    for ratio in cfg.capital_ratio_grid:
        sheets = build_balance_sheets(weights, cfg.loan_fraction, ratio, cfg.total_external)
        if cfg.surcharge is not None:
            sheets = ref_apply_surcharge(
                sheets, cfg.surcharge.surcharge_ratio, cfg.surcharge.biggest_fraction
            )
        results.append(ref_propagate(sheets, weights, initial_shock(sheets, bank), cfg.loss_rule))
    return results
