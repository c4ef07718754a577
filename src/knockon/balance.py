"""Balance-sheet construction from a topology and two global constants.

Loan amounts are degree-weighted shares of a fixed interbank total: with
lender power ``s`` and borrower power ``t``, the edge (i, j) carries weight
proportional to ``out_degree(i)**s * in_degree(j)**t`` (zero powers mean
equal amounts on every edge), normalized over all edges so the amounts sum
to ``loan_fraction / (1 - loan_fraction) * total_external``.

Each bank's external asset is its net interbank borrowing (floored at zero)
plus an equal share of what remains of the external total, which keeps every
bank solvent at construction time. Assets equal liabilities; net worth is a
fixed ratio of liabilities; deposits absorb the remainder. A capital
surcharge adds equity to the largest banks, booked against extra external
assets so interbank positions are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleBalanceError, InvalidParameterError, NoInterbankMarketError
from .netgen import Topology, degree_stats

#: Relative tolerance used by :func:`validate` and consistency checks.
VALIDATION_RTOL = 1e-9

BALANCE_CSV_HEADER = "bank,E,I,B,C,D,A,surcharge"


@dataclass(frozen=True)
class WeightMatrix:
    """Per-edge loan amounts plus per-bank totals.

    ``amounts[k]`` is carried by the topology's edge ``edges[k] = (i, j)``:
    the amount bank j borrows from bank i. ``loans[i]`` sums bank i's
    lending over its debtors and ``borrowings[j]`` sums bank j's borrowing
    over its creditors. The debtor-indexed CSR views let a cascade look up
    a failed bank's creditors in one slice.
    """

    n_banks: int
    amounts: np.ndarray
    loans: np.ndarray
    borrowings: np.ndarray
    out_degree: np.ndarray
    in_degree: np.ndarray
    debtor_ptr: np.ndarray
    debtor_creditors: np.ndarray
    debtor_amounts: np.ndarray


@dataclass(frozen=True)
class SheetConstants:
    """Scenario constants echoed on every balance-sheet set."""

    loan_fraction: float
    capital_ratio: float
    total_external: float


@dataclass(frozen=True)
class BalanceSheetSet:
    """Per-bank sheets: external assets E, interbank loans I, borrowings B,
    net worth C, deposits D, assets A and liabilities L, plus any surcharge
    capital already folded into E, C, A and L. I and B are the weight
    matrix's own ``loans`` and ``borrowings`` arrays, not copies."""

    external_assets: np.ndarray
    interbank_loans: np.ndarray
    interbank_borrowings: np.ndarray
    net_worth: np.ndarray
    deposits: np.ndarray
    assets: np.ndarray
    liabilities: np.ndarray
    surcharge: np.ndarray
    total_degree: np.ndarray
    constants: SheetConstants

    @property
    def n_banks(self) -> int:
        return int(self.external_assets.shape[0])


@dataclass(frozen=True)
class Violation:
    check: str
    bank: int | None
    magnitude: float
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    warnings: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok and not self.warnings:
            return "all identities hold"
        lines = [f"VIOLATION {v.check} bank={v.bank} |err|={v.magnitude:.3e}: {v.message}"
                 for v in self.violations]
        lines += [f"warning {w.check} bank={w.bank}: {w.message}" for w in self.warnings]
        return "\n".join(lines)


def check_market(
    loan_fraction: float, lender_power: float, borrower_power: float, total_external: float
) -> None:
    """Raise InvalidParameterError unless :func:`compute_weights` accepts these constants."""
    if not 0.0 < loan_fraction < 0.5:
        raise InvalidParameterError(f"loan fraction Q must lie in (0, 0.5), got {loan_fraction}")
    for name, power in (("s", lender_power), ("t", borrower_power)):
        if not 0.0 <= power < np.inf:
            raise InvalidParameterError(f"power {name} must be finite and >= 0, got {power}")
    if not 0.0 < total_external < np.inf:
        raise InvalidParameterError(
            f"total external assets E must be finite and positive, got {total_external}"
        )


def compute_weights(
    topology: Topology,
    lender_power: float,
    borrower_power: float,
    loan_fraction: float,
    total_external: float,
) -> WeightMatrix:
    """Assign a loan amount to every edge of the topology.

    The interbank total is ``loan_fraction / (1 - loan_fraction)`` times the
    external total, split across edges proportionally to
    ``out_degree(creditor)**lender_power * in_degree(debtor)**borrower_power``
    (0**0 evaluates to 1, so zero powers give equal amounts). Raises
    InvalidParameterError when the powers are so large that the sum of those
    products overflows float64.
    """
    check_market(loan_fraction, lender_power, borrower_power, total_external)
    if topology.n_edges == 0:
        raise NoInterbankMarketError("topology has no edges, no interbank market exists")

    stats = degree_stats(topology)
    creditor = topology.edges[:, 0]
    debtor = topology.edges[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        base = np.power(stats.out_degree[creditor].astype(float), lender_power) * np.power(
            stats.in_degree[debtor].astype(float), borrower_power
        )
        base_total = base.sum()
    if not np.isfinite(base_total):
        raise InvalidParameterError(
            f"loan shares overflow float64 with powers s={lender_power} and "
            f"t={borrower_power} on this topology"
        )
    total_loans = loan_fraction / (1.0 - loan_fraction) * total_external
    amounts = base / base_total * total_loans

    n = topology.n_banks
    loans = np.bincount(creditor, weights=amounts, minlength=n)
    borrowings = np.bincount(debtor, weights=amounts, minlength=n)

    order = np.argsort(debtor * n + creditor)
    counts = np.bincount(debtor, minlength=n)
    debtor_ptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)

    return WeightMatrix(
        n_banks=n,
        amounts=amounts,
        loans=loans,
        borrowings=borrowings,
        out_degree=stats.out_degree,
        in_degree=stats.in_degree,
        debtor_ptr=debtor_ptr,
        debtor_creditors=creditor[order],
        debtor_amounts=amounts[order],
    )


def build_balance_sheets(
    weights: WeightMatrix,
    loan_fraction: float,
    capital_ratio: float,
    total_external: float,
) -> BalanceSheetSet:
    """Complete every bank's sheet around the given loan amounts.

    External assets are net borrowings (floored at zero) plus an equal share
    of the remaining external total; with loan_fraction below 0.5 that share
    is strictly positive, so every bank starts solvent. Net worth is
    ``capital_ratio`` times liabilities and deposits take up the rest.
    """
    if not 0.0 < capital_ratio < 1.0:
        raise InvalidParameterError(
            f"capital ratio R must lie in (0, 1), got {capital_ratio}"
        )
    expected_total = loan_fraction / (1.0 - loan_fraction) * total_external
    got_total = float(weights.amounts.sum())
    if abs(got_total - expected_total) > VALIDATION_RTOL * max(abs(expected_total), 1e-300):
        raise InvalidParameterError(
            "weight matrix is inconsistent with Q and E: total loan amount "
            f"{got_total!r} vs expected {expected_total!r}"
        )

    shortfall = np.maximum(weights.borrowings - weights.loans, 0.0)
    pool = total_external - float(shortfall.sum())
    if pool <= 0.0:
        raise InfeasibleBalanceError(
            "total external assets cannot cover net interbank borrowings "
            f"(shortfall sum {shortfall.sum()!r} vs E {total_external!r})"
        )
    n = weights.n_banks
    external = shortfall + pool / n
    assets = external + weights.loans
    liabilities = assets.copy()
    net_worth = capital_ratio * liabilities
    deposits = liabilities - net_worth - weights.borrowings

    return BalanceSheetSet(
        external_assets=external,
        interbank_loans=weights.loans,
        interbank_borrowings=weights.borrowings,
        net_worth=net_worth,
        deposits=deposits,
        assets=assets,
        liabilities=liabilities,
        surcharge=np.zeros(n),
        total_degree=(weights.out_degree + weights.in_degree).astype(np.int64),
        constants=SheetConstants(
            loan_fraction=float(loan_fraction),
            capital_ratio=float(capital_ratio),
            total_external=float(total_external),
        ),
    )


def check_surcharge(top_ratio: float, surcharge_ratio: float, biggest_fraction: float) -> None:
    """Raise InvalidParameterError unless the surcharge is valid up to ratio ``top_ratio``."""
    if not (surcharge_ratio >= 0.0 and top_ratio + surcharge_ratio < 1.0):
        raise InvalidParameterError(
            f"surcharge ratio R_s must lie in [0, 1 - R), got {surcharge_ratio} with R={top_ratio}"
        )
    if not 0.0 <= biggest_fraction <= 1.0:
        raise InvalidParameterError(f"biggest_fraction must lie in [0, 1], got {biggest_fraction}")


def surcharge_increments(
    sheets: BalanceSheetSet, capital_ratios, surcharge_ratio: float, biggest_fraction: float
) -> np.ndarray:
    """The extra equity a capital surcharge gives each bank.

    The ``floor(biggest_fraction * n)`` banks with the largest assets (ties
    broken by larger total degree, then lower index) each gain
    ``surcharge_ratio / (1 - R - surcharge_ratio)`` times their assets at
    capital ratio R. ``sheets`` must not carry a surcharge yet; its assets
    do not depend on R. Returns a ``(len(capital_ratios), n)`` array of
    increments, one row per ratio, zero for every bank not surcharged.
    """
    ratios = np.asarray(capital_ratios, dtype=float)
    check_surcharge(float(ratios.max()), surcharge_ratio, biggest_fraction)
    n = sheets.n_banks
    # The 1e-9 nudge keeps floor() from losing an exactly-representable
    # product to float rounding (e.g. 0.1 * 30 -> 2.9999...).
    count = int(np.floor(biggest_fraction * n + 1e-9))
    selected = np.lexsort((np.arange(n), -sheets.total_degree, -sheets.assets))[:count]
    assets = np.bincount(selected, weights=sheets.assets[selected], minlength=n)
    factor = surcharge_ratio / (1.0 - ratios - surcharge_ratio)
    return factor[:, None] * assets


def apply_surcharge(
    sheets: BalanceSheetSet, surcharge_ratio: float, biggest_fraction: float
) -> BalanceSheetSet:
    """Impose extra equity on the largest banks (see
    :func:`surcharge_increments`), booked against additional external
    assets; deposits and interbank positions are unchanged."""
    increment = surcharge_increments(
        sheets, [sheets.constants.capital_ratio], surcharge_ratio, biggest_fraction
    )[0]
    if not increment.any():
        return sheets
    return replace(
        sheets,
        external_assets=sheets.external_assets + increment,
        net_worth=sheets.net_worth + increment,
        assets=sheets.assets + increment,
        liabilities=sheets.liabilities + increment,
        surcharge=increment,
    )


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= VALIDATION_RTOL * max(abs(a), abs(b), 1e-300)


def validate(sheets: BalanceSheetSet) -> ValidationReport:
    """Check every sheet identity and report violations with magnitudes.

    An empty violation list means all identities hold within relative
    tolerance 1e-9. Negative deposits are reported as warnings only; they
    occur at high capital ratios and play no role in cascade dynamics.
    """
    c = sheets.constants
    violations: list[Violation] = []
    warnings: list[Violation] = []

    def per_bank(check: str, lhs: np.ndarray, rhs: np.ndarray, message: str) -> None:
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
        err = np.abs(lhs - rhs)
        for bank in np.flatnonzero(err > VALIDATION_RTOL * scale):
            violations.append(
                Violation(check, int(bank), float(err[bank]), message)
            )

    per_bank(
        "assets-composition",
        sheets.assets,
        sheets.external_assets + sheets.interbank_loans,
        "A must equal E + I",
    )
    per_bank("balanced", sheets.liabilities, sheets.assets, "L must equal A")
    per_bank(
        "liability-split",
        sheets.liabilities,
        sheets.net_worth + sheets.interbank_borrowings + sheets.deposits,
        "L must equal C + B + D",
    )
    pre_worth = sheets.net_worth - sheets.surcharge
    pre_liab = sheets.liabilities - sheets.surcharge
    per_bank(
        "capital-ratio",
        pre_worth,
        c.capital_ratio * pre_liab,
        "pre-surcharge net worth must be R times liabilities",
    )

    slack = (sheets.external_assets - sheets.surcharge) - (
        sheets.interbank_borrowings - sheets.interbank_loans
    )
    for bank in np.flatnonzero(slack <= 0.0):
        violations.append(
            Violation(
                "solvency-floor",
                int(bank),
                float(-slack[bank]),
                "external assets must exceed net interbank borrowing",
            )
        )

    total_loans = float(sheets.interbank_loans.sum())
    total_borrow = float(sheets.interbank_borrowings.sum())
    expected = c.loan_fraction / (1.0 - c.loan_fraction) * c.total_external
    if not _close(total_loans, expected):
        violations.append(
            Violation("loan-conservation", None, abs(total_loans - expected),
                      "sum of loans must equal Q/(1-Q) * E")
        )
    if not _close(total_borrow, total_loans):
        violations.append(
            Violation("loan-conservation", None, abs(total_borrow - total_loans),
                      "sum of borrowings must equal sum of loans")
        )
    total_external = float(sheets.external_assets.sum())
    expected_external = c.total_external + float(sheets.surcharge.sum())
    if not _close(total_external, expected_external):
        violations.append(
            Violation("external-conservation", None,
                      abs(total_external - expected_external),
                      "sum of external assets must equal E plus surcharge total")
        )

    for bank in np.flatnonzero(sheets.deposits < 0.0):
        warnings.append(
            Violation("negative-deposits", int(bank), float(-sheets.deposits[bank]),
                      "deposits are negative at this capital ratio")
        )

    return ValidationReport(tuple(violations), tuple(warnings))


def to_csv(sheets: BalanceSheetSet) -> str:
    """Render the sheet set as CSV with columns bank,E,I,B,C,D,A,surcharge."""
    lines = [BALANCE_CSV_HEADER]
    for k in range(sheets.n_banks):
        row = [
            sheets.external_assets[k], sheets.interbank_loans[k],
            sheets.interbank_borrowings[k], sheets.net_worth[k],
            sheets.deposits[k], sheets.assets[k], sheets.surcharge[k],
        ]
        lines.append(f"{k}," + ",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"
