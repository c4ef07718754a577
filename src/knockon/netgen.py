"""Synthesis of random credit-network topologies.

An edge is an ordered pair ``(i, j)`` meaning bank ``j`` borrows from bank
``i``, so ``i`` is the creditor and ``j`` the debtor. Topologies are simple
directed graphs: both orientations of a pair may coexist, self-loops and
duplicate edges may not.

Two generators are provided. :func:`gen_erdos_renyi` includes every ordered
pair independently with a fixed probability and yields near-uniform degrees
(a homogeneous market). :func:`gen_preferential_attachment` grows an
undirected relationship graph vertex by vertex, attaching newcomers
preferentially to well-connected incumbents, then orients each relationship
as a credit edge, mostly newcomer-borrows-from-incumbent; its out-degree
distribution is heavy tailed (a heterogeneous market where a few old banks
lend to much of the market). It draws each link's candidate target from one
vectorised uniform, as a copy of an earlier link's target or a fresh pick
by a static weight, and resolves only copies and repeated targets one at a
time.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from os import PathLike

import numpy as np

from .errors import InvalidParameterError, ParseError

HOMOGENEOUS = "homogeneous"
HETEROGENEOUS = "heterogeneous"
EXTERNAL = "external"

_KINDS = (HOMOGENEOUS, HETEROGENEOUS, EXTERNAL)

#: Version of the generators' draw order, recorded in every sweep manifest.
#: Any change that alters a topology drawn from a given stream bumps it.
GENERATOR_VERSION = 3

# Attachment weight of an existing vertex is max(k + _ATTRACTIVENESS -
# m_mean, _ATTACH_FLOOR) plus the links it has received since, where k is
# its degree on arrival and m_mean is the mean link count per arriving
# vertex. With a constant attractiveness the tail exponent of the degree
# distribution is 2 + _ATTRACTIVENESS / m_mean, so dense large markets
# approach the inverse-square tail while sparse small ones stay milder; 4.0
# keeps the out-degree survival slope inside [-1.5, -0.6] at the scales
# this package simulates.
_ATTRACTIVENESS = 4.0
_ATTACH_FLOOR = 1e-9
_REDRAW_LIMIT = 512

# The uniforms the preferential-attachment generator draws at a time for
# redrawing repeated targets.
_SPARE = 256

# The most gaps the homogeneous generator draws in one block, which bounds
# its memory whatever n(n-1) is.
_CHUNK = 1 << 16

#: The most banks a topology may have. A block of :func:`gen_erdos_renyi`
#: adds at most _CHUNK gaps, each clipped to n(n-1) + 1, to a last pair of
#: at most n(n-1) - 1, so its running sum never exceeds
#: _CHUNK * (n(n-1) + 1) + n(n-1) - 1. This is the largest n for which that
#: bound is below 2**63; every key creditor * n + debtor < n**2 fits too.
MAX_BANKS = 11_863_193

# Probability that a credit relation created during growth runs from the
# incumbent to the newcomer (the newcomer borrows). Most small banks enter
# the market as borrowers from established lenders; the bias keeps borrower
# concentration bounded, which is what lets higher capital ratios contain
# knock-on defaults at all.
_BORROW_FROM_INCUMBENT = 0.91


@dataclass(frozen=True)
class RngStream:
    """Reproducible random substream keyed by (master_seed, stream_index).

    Distinct stream indices under one master seed yield statistically
    independent generators, so replications can run in any order or in
    parallel without affecting results.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= int(self.master_seed) < 2**64:
            raise InvalidParameterError(
                f"master_seed must be a 64-bit unsigned integer, got {self.master_seed}"
            )
        if int(self.stream_index) < 0:
            raise InvalidParameterError(
                f"stream_index must be non-negative, got {self.stream_index}"
            )

    def generator(self) -> np.random.Generator:
        """A fresh generator deterministically derived from the key pair."""
        return np.random.default_rng(
            np.random.SeedSequence([int(self.master_seed), int(self.stream_index)])
        )


def _check_bank_count(n_banks: int, least: int) -> None:
    if not least <= int(n_banks) <= MAX_BANKS:
        raise InvalidParameterError(
            f"n_banks must be at least {least} and at most {MAX_BANKS}, got {n_banks}"
        )


def _as_generator(rng: RngStream | np.random.Generator) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise InvalidParameterError(f"rng must be an RngStream or numpy Generator, got {type(rng)!r}")


@dataclass(frozen=True, eq=False)
class Topology:
    """A simple directed credit graph on banks ``0 .. n_banks - 1``.

    ``edges`` is an ``(m, 2)`` int array of (creditor, debtor) pairs held in
    canonical lexicographic order, which makes equal edge sets compare equal
    and file exports byte-stable.
    """

    n_banks: int
    edges: np.ndarray
    kind: str

    def __post_init__(self):
        _check_bank_count(self.n_banks, 1)
        n = int(self.n_banks)
        if self.kind not in _KINDS:
            raise InvalidParameterError(f"unknown topology kind {self.kind!r}")
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise InvalidParameterError("edge endpoint outside 0..n_banks-1")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise InvalidParameterError("self-loops are not allowed")
            # One int64 key per edge orders edges as (creditor, debtor) pairs.
            key = edges[:, 0] * n + edges[:, 1]
            if np.all(key[1:] > key[:-1]):
                # Already canonical; copied so the caller's array is not shared.
                edges = edges.copy()
            else:
                order = np.argsort(key)
                if np.any(np.diff(key[order]) == 0):
                    raise InvalidParameterError("duplicate edges are not allowed")
                edges = edges[order]
        object.__setattr__(self, "n_banks", n)
        object.__setattr__(self, "edges", edges)

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self.n_banks == other.n_banks
            and self.kind == other.kind
            and self.edges.shape == other.edges.shape
            and bool(np.all(self.edges == other.edges))
        )


@dataclass(frozen=True)
class DegreeStats:
    """Per-bank out-degrees (debtor counts), in-degrees (creditor counts)
    and the realized edge density."""

    out_degree: np.ndarray
    in_degree: np.ndarray
    density: float


def degree_stats(topology: Topology) -> DegreeStats:
    """Count each bank's debtors and creditors and the realized density.

    The out-degree of bank i is the number of banks borrowing from it; the
    in-degree is the number of banks it borrows from. Density is the number
    of edges over the ``n (n - 1)`` possible ordered pairs, which equals the
    mean degree divided by ``n - 1``.
    """
    n = topology.n_banks
    out_degree = np.bincount(topology.edges[:, 0], minlength=n).astype(np.int64)
    in_degree = np.bincount(topology.edges[:, 1], minlength=n).astype(np.int64)
    density = topology.n_edges / (n * (n - 1)) if n > 1 else 0.0
    return DegreeStats(out_degree=out_degree, in_degree=in_degree, density=density)


def gen_erdos_renyi(
    n_banks: int, density: float, rng: RngStream | np.random.Generator
) -> Topology:
    """Sample a homogeneous topology: every ordered pair independently.

    The ordered pairs are numbered in row-major order (creditor, then
    debtor skipping the creditor itself). Rather than one uniform per pair,
    the gaps between consecutive included pairs are drawn, each geometric
    with success probability ``density`` (Batagelj and Brandes, "Efficient
    generation of large random networks", Phys. Rev. E 71, 036113, 2005),
    so the cost is about one draw per edge. The draw order is part of the
    reproducibility contract (generator version 2). While ``left > 0``
    pairs remain after the last included one, ``gen.geometric(density, k)``
    draws a block of ``k = min(left, _CHUNK, ceil(mean + 4 sqrt(mean)) + 1)``
    gaps, where ``mean = density * left``. Their running sum from the last
    included pair gives the next pairs; the gaps past the last pair are
    discarded. Nothing is drawn at density 0. The generator is left just
    past the last block.

    Args:
        n_banks: number of banks, from 2 to :data:`MAX_BANKS`.
        density: inclusion probability for each of the n(n-1) ordered pairs.
        rng: an RngStream, or a Generator to draw from in sequence.

    Returns:
        A Topology of kind "homogeneous".
    """
    check_erdos_renyi(n_banks, density)
    n = int(n_banks)
    gen = _as_generator(rng)
    total = n * (n - 1)
    found = [np.empty(0, dtype=np.int64)]
    last = -1
    while density > 0.0 and last < total - 1:
        left = total - 1 - last
        # The expected edge count among the pairs left plus four standard
        # deviations: one block almost always reaches the last pair.
        mean = density * left
        block = min(left, _CHUNK, math.ceil(mean + 4.0 * math.sqrt(mean)) + 1)
        gaps = gen.geometric(density, block)
        # A tiny density draws gaps near 2**63. Any gap above n(n-1) passes
        # the last pair, so clipping it to n(n-1) + 1 changes no pair and
        # keeps the running sum from wrapping.
        np.minimum(gaps, total + 1, out=gaps)
        flat = np.cumsum(gaps)
        flat += last
        found.append(flat[: flat.searchsorted(total)])
        last = int(flat[-1])
    flat = np.concatenate(found)
    creditor = flat // (n - 1)
    offset = flat % (n - 1)
    debtor = offset + (offset >= creditor)
    return Topology(n, np.column_stack([creditor, debtor]), HOMOGENEOUS)


def check_erdos_renyi(n_banks: int, density: float) -> None:
    """Raise InvalidParameterError unless :func:`gen_erdos_renyi` accepts these parameters."""
    _check_bank_count(n_banks, 2)
    if not 0.0 <= density <= 1.0:
        raise InvalidParameterError(f"density p must lie in [0, 1], got {density}")


def check_preferential_attachment(n_banks: int, density: float) -> None:
    """Raise InvalidParameterError unless :func:`gen_preferential_attachment`
    can realise ``density`` on ``n_banks`` banks."""
    _check_bank_count(n_banks, 3)
    n = int(n_banks)
    check_erdos_renyi(n, density)
    if density * (n - 1) / 2.0 < 0.5:
        raise InvalidParameterError(
            f"density {density} is infeasible at n={n}: mean attachment "
            f"{density * (n - 1) / 2.0:.3f} is below 0.5"
        )


def gen_preferential_attachment(
    n_banks: int, density: float, rng: RngStream | np.random.Generator
) -> Topology:
    """Sample a heterogeneous topology by growth with preferential attachment.

    An undirected relationship graph grows from a small clique, one vertex at
    a time. Each arrival links to existing vertices chosen with probability
    increasing in their current degree, drawing its link count from a running
    budget so that the expected directed edge count matches
    ``density * n (n - 1)`` exactly. Each relationship then becomes a
    directed credit edge: usually the newcomer borrowing from the incumbent,
    sometimes the reverse, and, at densities above what single-direction
    edges can realize, both directions at once. Out-degrees (lending
    relationships) are heavy tailed with survival-curve slope near -1 on
    log-log axes at large scales; a few old banks lend to a large share of
    the market.

    Vertex u's attachment weight is a constant ``a_u`` plus the count
    ``r_u`` of arrival links it has received, so one candidate is drawn from
    an exact two-part mixture: copy the target of a uniformly chosen earlier
    arrival link, or pick u in proportion to ``a_u`` (the copy model of
    Kleinberg et al., COCOON 1999; the edge-skipping idea of Batagelj and
    Brandes, Phys. Rev. E 71, 036113, 2005). The draw order is part of the
    reproducibility contract (generator version 3):

    1. ``gen.random(n - seed_size)``: arrival v takes ``m_v = floor(b) + 1``
       links if its uniform is below the fraction of ``b``, the running
       budget over the arrivals left, else ``floor(b)``; at most v.
    2. The weights are ``a_u = max(seed_size - 1 + shift, _ATTACH_FLOOR)``
       in the seed clique and ``max(m_u + shift, _ATTACH_FLOOR)`` after it.
       Arrival v sees ``R_v`` earlier arrival links and ``A_v``, the sum of
       ``a_u`` over u < v.
    3. ``gen.random(L)``, one uniform u per arrival link in arrival order.
       With ``x = u * (R_v + A_v)``, the candidate is the final target of
       arrival link ``floor(x)`` if ``x < R_v``, else the first u whose
       running sum of ``a`` exceeds ``x - R_v``, at most ``v - 1``.
    4. A candidate the arrival already links to is redrawn from the same
       mixture, with uniforms served in order from ``gen.random(_SPARE)``
       blocks drawn when needed. After ``_REDRAW_LIMIT`` repeats in one
       arrival, ``gen.choice(v, rest, replace=False, p)`` fills its
       remaining links, with p proportional to ``a_u + r_u`` and zero on the
       targets taken.
    5. ``gen.random(k)`` over the k relationships, seed clique first, then
       arrival links in order: below ``_BORROW_FROM_INCUMBENT`` the
       newcomer borrows. When relationships may be reciprocal it is a
       ``(k, 2)`` block: the first column below the reciprocal share gives
       both directions, else the second column decides as above.

    Args:
        n_banks: number of banks, from 3 to :data:`MAX_BANKS`.
        density: target edge density of the directed graph, in (0, 1]. The
            implied mean undirected attachment count ``density * (n - 1) / 2``
            must be at least 0.5.
        rng: an RngStream, or a Generator to draw from in sequence.

    Returns:
        A Topology of kind "heterogeneous".
    """
    check_preferential_attachment(n_banks, density)
    n = int(n_banks)
    gen = _as_generator(rng)

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
    shift = _ATTRACTIVENESS - mean_per_arrival

    counts = []
    for v, u in zip(range(seed_size, n), gen.random(arrivals).tolist()):
        m_mean = (budget if budget > 0.0 else 0.0) / (n - v)
        m = int(m_mean)
        if u < m_mean - m:
            m += 1
        if m > v:
            m = v
        counts.append(m)
        budget -= m

    m_arr = np.asarray(counts, dtype=np.int64)
    attach = np.empty(n)
    attach[:seed_size] = max(seed_size - 1 + shift, _ATTACH_FLOOR)
    attach[seed_size:] = np.maximum(m_arr + shift, _ATTACH_FLOOR)
    cum = attach.cumsum()

    # Arrival v's first link and the total weight R_v + A_v it draws from.
    first = np.zeros(n, dtype=np.int64)
    first[seed_size:] = np.cumsum(m_arr) - m_arr
    scale = first + np.concatenate(([0.0], cum[:-1]))
    owner = np.repeat(np.arange(seed_size, n), m_arr)
    earlier = first[owner]
    x = gen.random(owner.size) * scale[owner]
    fresh = np.minimum(cum.searchsorted(x - earlier, side="right"), owner - 1)
    # A copy of arrival link k is held as ~k until the pass below resolves it.
    targets = np.where(x < earlier, ~x.astype(np.int64), fresh).tolist()

    # One pass in link order resolves copies and redraws repeats: taken[u]
    # is the last arrival that linked to u.
    cum_list = cum.tolist()
    first_list = first.tolist()
    scale_list = scale.tolist()
    taken = [-1] * n
    repeats = [0] * n
    spare: list[float] = []
    for j, v in enumerate(owner.tolist()):
        target = targets[j]
        if target < 0:
            target = targets[~target]
        while taken[target] == v:
            lo = first_list[v]
            repeats[v] += 1
            if repeats[v] == _REDRAW_LIMIT:
                # Redraw limit hit, as on dense markets whose constant
                # weights sit at the floor: fill the arrival's remaining
                # links by an explicit weighted draw without replacement.
                # They are distinct and new to v, so the pass takes them as
                # they stand.
                weights = attach[:v] + np.bincount(
                    np.asarray(targets[:lo], dtype=np.int64), minlength=v
                )
                weights[targets[lo:j]] = 0.0
                rest = lo + counts[v - seed_size] - j
                picks = gen.choice(v, size=rest, replace=False, p=weights / weights.sum())
                targets[j : j + rest] = picks.tolist()
                target = targets[j]
                break
            if not spare:
                spare = gen.random(_SPARE).tolist()[::-1]
            y = spare.pop() * scale_list[v]
            if y < lo:
                target = targets[int(y)]
            else:
                target = min(bisect.bisect_right(cum_list, y - lo), v - 1)
        taken[target] = v
        targets[j] = target

    pairs = np.concatenate(
        (
            np.column_stack(np.triu_indices(seed_size, 1)),
            np.column_stack((np.asarray(targets, dtype=np.int64), owner)),
        )
    )
    if reciprocal == 0.0:
        lend = gen.random(len(pairs)) < _BORROW_FROM_INCUMBENT
        edge_array = np.where(lend[:, None], pairs, pairs[:, ::-1])
    else:
        draws = gen.random((len(pairs), 2))
        both = draws[:, 0] < reciprocal
        lend = draws[:, 1] < _BORROW_FROM_INCUMBENT
        edge_array = np.concatenate((pairs[both | lend], pairs[both | ~lend][:, ::-1]))
    return Topology(n, edge_array, HETEROGENEOUS)


def write_edge_list(topology: Topology, path: str | PathLike) -> None:
    """Write a topology as text: a ``N <count>`` header line, then one
    ``creditor debtor`` pair per line in canonical order."""
    lines = [f"N {topology.n_banks}"]
    lines.extend(f"{int(i)} {int(j)}" for i, j in topology.edges)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_edge_list(path: str | PathLike) -> Topology:
    """Parse an edge-list file written by :func:`write_edge_list`.

    Raises ParseError for a file that cannot be read as ASCII text and,
    with a line number, for malformed input; InvalidParameterError for
    semantic problems (self-loops, duplicates, out-of-range endpoints).
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    if not raw:
        raise ParseError(f"{path}: empty file, expected a 'N <count>' header")
    head = raw[0].split()
    if len(head) != 2 or head[0] != "N":
        raise ParseError(f"{path}:1: expected header 'N <count>', got {raw[0]!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise ParseError(f"{path}:1: bank count {head[1]!r} is not an integer") from None
    pairs = []
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'creditor debtor', got {line!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-integer bank index in {line!r}") from None
    edges = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return Topology(n, edges, EXTERNAL)
