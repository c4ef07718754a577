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
lend to much of the market).
"""

from __future__ import annotations

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
GENERATOR_VERSION = 2

# Attachment weight of an existing vertex with degree k is
# max(k + _ATTRACTIVENESS - m_mean, _ATTACH_FLOOR), where m_mean is the mean
# link count per arriving vertex. With a constant attractiveness the tail
# exponent of the degree distribution is 2 + _ATTRACTIVENESS / m_mean, so
# dense large markets approach the inverse-square tail while sparse small
# ones stay milder; 4.0 keeps the out-degree survival slope inside
# [-1.5, -0.6] at the scales this package simulates.
_ATTRACTIVENESS = 4.0
_ATTACH_FLOOR = 1e-9
_REDRAW_LIMIT = 512

# The most gaps the homogeneous generator draws in one block, which bounds
# its memory whatever n(n-1) is, and the chunk in which the
# preferential-attachment generator replays its uniforms.
_CHUNK = 1 << 16
# How far the preferential-attachment generator draws ahead of its needs.
_BLOCK = 4096

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
        n = int(self.n_banks)
        if n < 1:
            raise InvalidParameterError(f"n_banks must be at least 1, got {n}")
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
        n_banks: number of banks, at least 2.
        density: inclusion probability for each of the n(n-1) ordered pairs.
        rng: an RngStream, or a Generator to draw from in sequence.

    Returns:
        A Topology of kind "homogeneous".
    """
    n = int(n_banks)
    if n < 2:
        raise InvalidParameterError(f"n_banks must be at least 2, got {n_banks}")
    if not 0.0 <= density <= 1.0:
        raise InvalidParameterError(f"density must lie in [0, 1], got {density}")
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


def check_preferential_attachment(n_banks: int, density: float) -> None:
    """Raise InvalidParameterError unless :func:`gen_preferential_attachment`
    can realise ``density`` on ``n_banks`` banks."""
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


class _UniformBlocks:
    """The scalar uniforms of a Generator, drawn ahead in blocks.

    ``gen.random(k)`` yields the same doubles as ``k`` calls of
    ``gen.random()``, so serving draws from a block keeps the stream.
    :meth:`sync` hands back the read-ahead: it leaves ``gen`` exactly past
    the draws consumed so far, by restoring the state saved before the first
    block and drawing the consumed count again. That keeps any buffered
    32-bit half-word in the bit generator as it was, which
    ``bit_generator.advance`` would discard.
    """

    def __init__(self, gen: np.random.Generator):
        self.gen = gen
        self._reset()

    def _reset(self) -> None:
        self._saved: dict | None = None
        self._drawn = 0
        self._block = np.empty(0)
        self._list: list[float] = []
        self._pos = 0

    def _fill(self, k: int) -> None:
        if self._saved is None:
            self._saved = self.gen.bit_generator.state
        fresh = self.gen.random(max(k, _BLOCK))
        self._drawn += fresh.size
        self._block = np.concatenate((self._block[self._pos:], fresh))
        self._list = self._block.tolist()
        self._pos = 0

    def scalar(self) -> float:
        if self._pos == len(self._list):
            self._fill(1)
        self._pos += 1
        return self._list[self._pos - 1]

    def vector(self, k: int) -> np.ndarray:
        if self._pos + k > len(self._list):
            self._fill(k)
        self._pos += k
        return self._block[self._pos - k : self._pos]

    def sync(self) -> None:
        if self._saved is not None:
            consumed = self._drawn - (len(self._list) - self._pos)
            self.gen.bit_generator.state = self._saved
            for start in range(0, consumed, _CHUNK):
                self.gen.random(min(_CHUNK, consumed - start))
        self._reset()


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

    The draw order is part of the reproducibility contract: per arrival one
    uniform for its link count, then one per candidate target until enough
    distinct ones are found (a ``gen.choice`` fills in after
    ``_REDRAW_LIMIT`` repeats); then per relationship one uniform for its
    direction, or two when it may be reciprocal. Uniforms are drawn ahead in
    blocks, but the generator is left just past the ones used, as if each
    had been drawn alone.

    Args:
        n_banks: number of banks, at least 3.
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

    degree = [seed_size - 1] * seed_size + [0] * arrivals
    attach_w = np.full(n, _ATTACH_FLOOR)
    attach_w[:seed_size] = max(seed_size - 1 + shift, _ATTACH_FLOOR)

    links: list[tuple[int, int]] = [
        (a, b) for a in range(seed_size) for b in range(a + 1, seed_size)
    ]

    draws = _UniformBlocks(gen)
    for v in range(seed_size, n):
        m_mean = max(budget, 0.0) / (n - v)
        m_lo = math.floor(m_mean)
        m = m_lo + (1 if draws.scalar() < m_mean - m_lo else 0)
        m = min(m, v)
        if m > 0:
            cum = attach_w[:v].cumsum()
            total_w = float(cum[-1])
            # Searching all but the last partial sum puts a draw that rounds
            # up to total_w on the last incumbent, v - 1.
            head = cum[:-1]
            chosen: set[int] = set()
            attempts = 0
            while len(chosen) < m and attempts < _REDRAW_LIMIT:
                # Neither bound can be reached before the k-th draw, so a
                # one-at-a-time loop would have made all k of them.
                k = min(m - len(chosen), _REDRAW_LIMIT - attempts)
                targets = head.searchsorted(draws.vector(k) * total_w, side="right")
                for target in targets.tolist():
                    if target in chosen:
                        attempts += 1
                    else:
                        chosen.add(target)
            if len(chosen) < m:
                # Redraw limit hit under an extremely dominant hub: fill the
                # remainder by an explicit weighted draw without replacement.
                draws.sync()
                probs = attach_w[:v].copy()
                probs[list(chosen)] = 0.0
                probs /= probs.sum()
                extra = gen.choice(v, size=m - len(chosen), replace=False, p=probs)
                chosen.update(int(t) for t in extra)
            for target in sorted(chosen):
                links.append((target, v))
                degree[target] += 1
                attach_w[target] = max(degree[target] + shift, _ATTACH_FLOOR)
            degree[v] = m
        attach_w[v] = max(degree[v] + shift, _ATTACH_FLOOR)
        budget -= m

    if reciprocal == 0.0:
        draws.sync()
        pairs = np.asarray(links, dtype=np.int64)
        lend = gen.random(len(links)) < _BORROW_FROM_INCUMBENT
        edge_array = np.where(lend[:, None], pairs, pairs[:, ::-1])
    else:
        edges: list[tuple[int, int]] = []
        for incumbent, newcomer in links:
            if draws.scalar() < reciprocal:
                edges.append((incumbent, newcomer))
                edges.append((newcomer, incumbent))
            elif draws.scalar() < _BORROW_FROM_INCUMBENT:
                edges.append((incumbent, newcomer))
            else:
                edges.append((newcomer, incumbent))
        draws.sync()
        edge_array = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
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

    Raises ParseError with a line number for malformed input and
    InvalidParameterError for semantic problems (self-loops, duplicates,
    out-of-range endpoints).
    """
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read().splitlines()
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
