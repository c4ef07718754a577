"""Knock-on default propagation through a credit network.

A shock of a bank's full external asset value strikes one bank. In each
synchronous round, every live bank whose accumulated distress reaches its
net worth defaults; each new defaulter with outstanding borrowings then
sends distress to its creditors pro rata to their exposures. Shares aimed
at creditors that have already defaulted (including same-round defaulters)
are discarded, not redistributed. Rounds repeat until one produces no new
default. Each bank defaults at most once, so termination is guaranteed.

Two rules size the transmitted total for a defaulter with residual distress
``S - C`` and borrowings ``B``:

* ``CAPPED``: ``min(S - C, B)``. Creditors lose at most what they lent,
  i.e. zero recovery on exposures, never more.
* ``AMPLIFIED``: ``max(S - C, B)``. Creditors lose at least their full
  exposure; residuals beyond B are passed through undiminished, a
  deliberately pessimistic stress variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .balance import BalanceSheetSet, WeightMatrix
from .errors import InvalidParameterError


class LossRule(str, Enum):
    """How much distress a defaulted bank passes to its creditors."""

    AMPLIFIED = "amplified"
    CAPPED = "capped"


@dataclass
class ShockState:
    """Mutable working state of one cascade: accumulated distress per bank,
    default flags, the number of rounds already executed, and the bank the
    shock originally struck."""

    distress: np.ndarray
    defaulted: np.ndarray
    round: int = 0
    initial_bank: int = 0


@dataclass(frozen=True)
class DefaultEvent:
    bank: int
    round: int
    distress: float
    transmitted: float


@dataclass(frozen=True)
class CascadeResult:
    """Outcome of one :func:`propagate` call.

    ``n_defaults`` counts every bank defaulted during the call, the
    initially shocked bank included; it is 0 when the initial bank absorbs
    the shock. ``total_loss_transmitted`` sums the distress actually
    delivered to live creditors (discarded shares excluded).
    """

    initial_bank: int
    n_defaults: int
    rounds: int
    total_loss_transmitted: float
    defaults: tuple[DefaultEvent, ...]

    @property
    def default_set(self) -> tuple[tuple[int, int], ...]:
        return tuple((e.bank, e.round) for e in self.defaults)


def initial_shock(sheets: BalanceSheetSet, bank: int) -> ShockState:
    """Strike ``bank`` with its full external asset value (any surcharge
    increment included, since the surcharge is booked as external assets)."""
    n = sheets.n_banks
    if not 0 <= int(bank) < n:
        raise InvalidParameterError(f"bank index {bank} out of range 0..{n - 1}")
    distress = np.zeros(n)
    distress[int(bank)] = float(sheets.external_assets[int(bank)])
    return ShockState(
        distress=distress,
        defaulted=np.zeros(n, dtype=bool),
        round=0,
        initial_bank=int(bank),
    )


def propagate(
    sheets: BalanceSheetSet,
    weights: WeightMatrix,
    state: ShockState,
    rule: LossRule = LossRule.AMPLIFIED,
) -> CascadeResult:
    """Run the cascade to quiescence, advancing ``state`` in place.

    A live bank defaults when its net worth no longer strictly exceeds its
    accumulated distress. Calling propagate again on the final state yields
    zero further defaults. This is :func:`propagate_grid` on one row.
    """
    _, log = propagate_grid(
        sheets.net_worth[None, :], state.distress[None, :], state.defaulted[None, :],
        weights, rule, collect=True,
    )
    (result,) = cascade_results(log, 1, weights.n_banks, state.initial_bank, state.round)
    state.round += len(log)
    return result


def propagate_grid(
    worth: np.ndarray,
    distress: np.ndarray,
    defaulted: np.ndarray,
    weights: WeightMatrix,
    rule: LossRule = LossRule.AMPLIFIED,
    collect: bool = False,
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None]:
    """Run G cascades on one network to quiescence at once, advancing
    ``distress`` and ``defaulted`` in place.

    All three arrays are C-contiguous ``(G, n)``, one row per cascade (in a
    sweep, one per capital ratio). Each round marks every live bank whose
    distress reaches its net worth defaulted, then gathers their creditor
    slices and adds the live creditors' shares with ``np.add.at``, which
    adds in array order: every bank gets the same float additions, in the
    same order, as from a loop over the defaulters in ascending bank order.

    Returns the default count per row and, with ``collect``, a log of one
    (flat index, distress at default, distress delivered) array triple per
    round for :func:`cascade_results`.
    """
    if not (distress.flags.c_contiguous and defaulted.flags.c_contiguous):
        # reshape would copy, and the in-place updates would be lost
        raise InvalidParameterError("distress and defaulted must be C-contiguous arrays")
    pick = np.maximum if LossRule(rule) is LossRule.AMPLIFIED else np.minimum
    rows, n = worth.shape
    worth, distress, defaulted = worth.reshape(-1), distress.reshape(-1), defaulted.reshape(-1)
    ptr = weights.debtor_ptr
    counts = np.zeros(rows, dtype=np.int64)
    log: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = [] if collect else None

    while True:
        hit = np.flatnonzero(~defaulted & (worth <= distress))
        if hit.size == 0:
            return counts, log
        defaulted[hit] = True
        row, bank = np.divmod(hit, n)
        counts += np.bincount(row, minlength=rows)
        at_default = distress[hit]
        owed = weights.borrowings[bank]
        outgoing = pick(at_default - worth[hit], owed)
        # One entry per (defaulter, creditor) pair, defaulters in hit order.
        size = ptr[bank + 1] - ptr[bank]
        which = np.repeat(np.arange(hit.size), size)
        edge = np.arange(which.size)
        edge += (ptr[bank] - np.cumsum(size) + size)[which]
        target = weights.debtor_creditors[edge]
        target += (row * n)[which]
        live = ~defaulted[target]
        which, edge, target = which[live], edge[live], target[live]
        shares = weights.debtor_amounts[edge] / owed[which] * outgoing[which]
        np.add.at(distress, target, shares)
        if log is not None:
            bounds = np.searchsorted(which, np.arange(hit.size + 1)).tolist()
            sent = [shares[lo:hi].sum() for lo, hi in zip(bounds, bounds[1:])]
            log.append((hit, at_default, np.array(sent)))


def cascade_results(
    log: list, rows: int, n_banks: int, initial_bank: int, first_round: int = 0
) -> list[CascadeResult]:
    """One result per row of a :func:`propagate_grid` log, rounds numbered
    on from ``first_round``."""
    events: list[list[DefaultEvent]] = [[] for _ in range(rows)]
    for number, (hit, at_default, sent) in enumerate(log, start=first_round + 1):
        for flat, before, out in zip(hit.tolist(), at_default.tolist(), sent.tolist()):
            events[flat // n_banks].append(DefaultEvent(flat % n_banks, number, before, out))
    results = []
    for row in events:
        # cumsum adds one by one in default order, as a running total would.
        total = float(np.cumsum([e.transmitted for e in row])[-1]) if row else 0.0
        rounds = row[-1].round - first_round if row else 0
        results.append(CascadeResult(initial_bank, len(row), rounds, total, tuple(row)))
    return results
