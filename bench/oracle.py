"""Straight-line re-derivation of one replication's default counts.

Loan weights, balance sheets, the capital surcharge and the cascade are
recomputed here with Python floats and lists. Nothing is imported from
``knockon.balance`` or ``knockon.cascade``, so a fault shared by those
modules and this file would have to be written twice. Only the topology and
the shocked bank come from the program, because they are random draws.

Every sum runs in the order the model document fixes (edges in canonical
creditor-then-debtor order), so the results are those of the model up to
the rounding of the external-asset pool.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Market:
    """Per-bank quantities of one topology at one scenario, any ratio."""

    def __init__(self, n, edges, s, t, q, e_total, surcharge_ratio, biggest_fraction):
        self.n = n
        self.e_total = e_total
        out_deg = [0] * n
        in_deg = [0] * n
        for i, j in edges:
            out_deg[i] += 1
            in_deg[j] += 1
        base = [float(out_deg[i]) ** s * float(in_deg[j]) ** t for i, j in edges]
        denom = math.fsum(base)
        total_loans = q / (1.0 - q) * e_total
        self.loans = [0.0] * n
        self.borrowings = [0.0] * n
        # creditors[j]: (creditor, amount) pairs of debtor j, creditor ascending.
        self.creditors = [[] for _ in range(n)]
        for (i, j), b in zip(edges, base):
            amount = b / denom * total_loans
            self.loans[i] += amount
            self.borrowings[j] += amount
            self.creditors[j].append((i, amount))
        for pairs in self.creditors:
            pairs.sort()
        shortfall = [max(self.borrowings[k] - self.loans[k], 0.0) for k in range(n)]
        pool = e_total - math.fsum(shortfall)
        self.external = [shortfall[k] + pool / n for k in range(n)]
        self.assets = [self.external[k] + self.loans[k] for k in range(n)]
        self.degree = [out_deg[k] + in_deg[k] for k in range(n)]
        self.surcharge_ratio = surcharge_ratio
        # floor(f * n) in exact decimal arithmetic, as the model states it.
        self.surcharged = math.floor(Fraction(repr(biggest_fraction)) * n)
        ranked = sorted(range(n), key=lambda k: (-self.assets[k], -self.degree[k], k))
        self.biggest = ranked[: self.surcharged] if surcharge_ratio > 0.0 else []

    def sheets(self, ratio):
        """External assets and net worth of every bank at capital ratio R."""
        external = list(self.external)
        worth = [ratio * a for a in self.assets]
        for k in self.biggest:
            extra = self.surcharge_ratio / (1.0 - ratio - self.surcharge_ratio) * self.assets[k]
            external[k] += extra
            worth[k] += extra
        return external, worth

    def cascade(self, ratio, bank, amplified):
        """Default count, and the distress delivered to live creditors,
        after shocking ``bank`` with its external assets."""
        external, worth = self.sheets(ratio)
        n = self.n
        distress = [0.0] * n
        distress[bank] = external[bank]
        dead = [False] * n
        count = 0
        delivered = []
        while True:
            fresh = [k for k in range(n) if not dead[k] and worth[k] <= distress[k]]
            if not fresh:
                return count, math.fsum(delivered)
            count += len(fresh)
            for d in fresh:
                dead[d] = True
            for d in fresh:
                owed = self.borrowings[d]
                if owed <= 0.0:
                    continue
                residual = distress[d] - worth[d]
                sent = max(residual, owed) if amplified else min(residual, owed)
                for i, amount in self.creditors[d]:
                    if not dead[i]:
                        share = amount / owed * sent
                        distress[i] += share
                        delivered.append(share)
