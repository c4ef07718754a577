from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knockon import (
    InvalidParameterError,
    ParseError,
    RngStream,
    Topology,
    compute_weights,
    degree_stats,
    gen_erdos_renyi,
    gen_preferential_attachment,
    read_edge_list,
    write_edge_list,
)
from knockon import netgen
from conftest import time_limit
from reference_impl import (
    ref_canonical_edges,
    ref_debtor_order,
    ref_gen_erdos_renyi,
    ref_gen_preferential_attachment,
)

ER_MEAN_EDGES = 500 * 499 * 0.005          # 1247.5
ER_SIGMA = (500 * 499 * 0.005 * 0.995) ** 0.5


def shuffled(edges, seed):
    return edges[np.random.default_rng(seed).permutation(len(edges))]


def pair_index(topology):
    """Row-major number of each edge among the n(n-1) ordered pairs."""
    n = topology.n_banks
    creditor, debtor = topology.edges[:, 0], topology.edges[:, 1]
    return creditor * (n - 1) + debtor - (debtor > creditor)


class TestTopologyValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidParameterError, match="self-loop"):
            Topology(3, np.array([[1, 1]]), "external")

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InvalidParameterError, match="duplicate"):
            Topology(3, np.array([[0, 1], [0, 1]]), "external")

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError, match="endpoint"):
            Topology(3, np.array([[0, 3]]), "external")

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidParameterError, match="kind"):
            Topology(3, np.array([[0, 1]]), "scale-free")

    def test_canonical_order_and_equality(self):
        a = Topology(3, np.array([[2, 0], [0, 1]]), "external")
        b = Topology(3, np.array([[0, 1], [2, 0]]), "external")
        assert a == b
        assert a.edges[0].tolist() == [0, 1]

    def test_both_directions_may_coexist(self):
        t = Topology(2, np.array([[0, 1], [1, 0]]), "external")
        assert t.n_edges == 2

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([[0, 1], [1, 3]], "endpoint"),
            ([[-1, 1], [0, 1]], "endpoint"),
            ([[0, 1], [2, 2]], "self-loop"),
            ([[2, 2], [0, 1]], "self-loop"),
            # endpoints are checked first, then self-loops, then duplicates
            ([[1, 1], [0, 3]], "endpoint"),
            ([[0, 1], [0, 1], [2, 2]], "self-loop"),
        ],
    )
    def test_error_messages(self, edges, message):
        with pytest.raises(InvalidParameterError, match=message):
            Topology(3, np.array(edges), "external")

    def test_edges_do_not_alias_input(self):
        edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
        t = Topology(3, edges, "external")
        edges[0] = [2, 0]
        assert t.edges.tolist() == [[0, 1], [1, 2]]


class TestBankCountBound:
    def test_largest_bank_count_returns_promptly(self):
        with time_limit(10):
            t = gen_erdos_renyi(netgen.MAX_BANKS, 1e-12, RngStream(3, 0))
        assert t.n_banks == netgen.MAX_BANKS
        assert np.all(np.diff(pair_index(t)) > 0)

    @pytest.mark.parametrize("n", [netgen.MAX_BANKS + 1, 3_037_000_499, 4_000_000_000])
    def test_oversized_bank_count_rejected(self, n):
        # Above MAX_BANKS the homogeneous generator's int64 running sum of
        # gaps, or its clip at n(n-1) + 1, can overflow.
        with time_limit(10):
            for generate in (gen_erdos_renyi, gen_preferential_attachment):
                with pytest.raises(InvalidParameterError, match="at most"):
                    generate(n, 1e-18, RngStream(3, 0))
            with pytest.raises(InvalidParameterError, match="at most"):
                Topology(n, np.empty((0, 2), dtype=np.int64), "external")


def external_edges(n, m, seed):
    """Up to ``m`` distinct random non-loop pairs, in random order."""
    gen = np.random.default_rng(seed)
    pairs = gen.integers(0, n, size=(m, 2))
    pairs = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)
    return shuffled(pairs, seed)


class TestCanonicalKey:
    """Topology sorts on one int64 key per edge and compute_weights on
    another; both must give the np.lexsort orders they replace."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: gen_erdos_renyi(300, 0.05, RngStream(4, 0)),
            lambda: gen_preferential_attachment(300, 0.05, RngStream(4, 1)),
            lambda: gen_preferential_attachment(30, 0.7, RngStream(4, 2)),
            lambda: Topology(300, external_edges(300, 4000, 5), "external"),
            lambda: Topology(2, np.array([[1, 0], [0, 1]]), "external"),
        ],
        ids=["homogeneous", "heterogeneous", "reciprocal", "external", "two-bank"],
    )
    def test_shuffled_edges_match_lexsort(self, make):
        top = make()
        assert np.array_equal(top.edges, ref_canonical_edges(top.edges))
        for seed in range(4):
            edges = shuffled(top.edges, seed)
            again = Topology(top.n_banks, edges, top.kind)
            assert np.array_equal(again.edges, ref_canonical_edges(edges))
            weights = compute_weights(again, 1.0, 2.0, 0.1, 1.0)
            creditor, debtor = again.edges[:, 0], again.edges[:, 1]
            order = ref_debtor_order(creditor, debtor)
            ptr = np.concatenate(([0], np.cumsum(np.bincount(debtor, minlength=top.n_banks))))
            assert np.array_equal(weights.debtor_ptr, ptr)
            assert np.array_equal(weights.debtor_creditors, creditor[order])
            assert np.array_equal(weights.debtor_amounts, weights.amounts[order])

    def test_edge_list_in_any_order(self, tmp_path):
        top = gen_erdos_renyi(80, 0.1, RngStream(6, 0))
        path = tmp_path / "net.edges"
        lines = [f"{i} {j}" for i, j in shuffled(top.edges, 1).tolist()]
        path.write_text("\n".join([f"N {top.n_banks}", *lines]) + "\n")
        assert np.array_equal(read_edge_list(path).edges, top.edges)

    @pytest.mark.parametrize("order", ["sorted", "shuffled"])
    def test_duplicates_raise(self, order):
        top = gen_erdos_renyi(60, 0.1, RngStream(2, 0))
        for at in (0, 17, top.n_edges - 1):
            edges = np.insert(top.edges, at, top.edges[at], axis=0)
            if order == "shuffled":
                edges = shuffled(edges, at)
            with pytest.raises(InvalidParameterError, match="duplicate"):
                Topology(60, edges, "external")

    def test_duplicate_among_shuffled_pairs(self):
        with pytest.raises(InvalidParameterError, match="duplicate"):
            Topology(3, np.array([[0, 1], [1, 0], [2, 1], [0, 1]]), "external")


class TestRngStream:
    def test_rejects_negative_seed(self):
        with pytest.raises(InvalidParameterError):
            RngStream(-1, 0)

    def test_rejects_negative_stream(self):
        with pytest.raises(InvalidParameterError):
            RngStream(1, -2)

    def test_streams_differ(self):
        a = RngStream(7, 0).generator().random(4)
        b = RngStream(7, 1).generator().random(4)
        assert not np.allclose(a, b)

    def test_same_key_reproduces(self):
        a = RngStream(7, 3).generator().random(4)
        b = RngStream(7, 3).generator().random(4)
        assert np.array_equal(a, b)


class TestErdosRenyi:
    def test_zero_probability_gives_empty_graph(self):
        t = gen_erdos_renyi(5, 0.0, RngStream(1, 0))
        assert t.n_edges == 0
        assert t.kind == "homogeneous"

    def test_certain_edge_gives_complete_graph(self):
        t = gen_erdos_renyi(4, 1.0, RngStream(1, 0))
        assert t.n_edges == 12
        assert {(int(i), int(j)) for i, j in t.edges} == {
            (i, j) for i in range(4) for j in range(4) if i != j
        }

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            gen_erdos_renyi(1, 0.5, RngStream(1, 0))
        with pytest.raises(InvalidParameterError):
            gen_erdos_renyi(10, 1.5, RngStream(1, 0))
        with pytest.raises(InvalidParameterError):
            gen_erdos_renyi(10, -0.1, RngStream(1, 0))

    def test_edge_count_near_binomial_mean(self):
        # verified over 1000 seeds in the acceptance suite; spot-check here
        for k in range(25):
            t = gen_erdos_renyi(500, 0.005, RngStream(42, k))
            assert abs(t.n_edges - ER_MEAN_EDGES) <= 4 * ER_SIGMA

    def test_determinism(self):
        a = gen_erdos_renyi(200, 0.01, RngStream(9, 4))
        b = gen_erdos_renyi(200, 0.01, RngStream(9, 4))
        assert a == b

    @pytest.mark.parametrize("density", [5e-324, 1e-300, 1e-18])
    @pytest.mark.parametrize("n", [2, 300, 100_000])
    def test_tiny_density_returns_promptly(self, n, density):
        # Gaps near 2**63 must not wrap the running sum around.
        with time_limit(10):
            for k in range(20):
                t = gen_erdos_renyi(n, density, RngStream(3, k))
                assert t.n_banks == n and t.kind == "homogeneous"
                assert t.n_edges <= 1
                assert np.all((t.edges >= 0) & (t.edges < n))

    def test_zero_probability_draws_nothing(self):
        gen = np.random.default_rng(5)
        gen.integers(0, 10)
        state = gen.bit_generator.state
        assert gen_erdos_renyi(50, 0.0, gen).n_edges == 0
        assert gen.bit_generator.state == state

    def test_certain_edge_over_several_blocks(self):
        n = 300  # 89,700 pairs, more than one block of netgen._CHUNK gaps
        t = gen_erdos_renyi(n, 1.0, RngStream(1, 0))
        assert t.n_edges == n * (n - 1)
        assert np.array_equal(pair_index(t), np.arange(n * (n - 1)))

    def test_first_and_last_pair_reachable(self):
        n = 7
        first = last = both = 0
        for k in range(200):
            pairs = {tuple(e) for e in gen_erdos_renyi(n, 0.2, RngStream(10, k)).edges.tolist()}
            first += (0, 1) in pairs
            last += (n - 1, n - 2) in pairs
            both += (0, 1) in pairs and (n - 1, n - 2) in pairs
        assert first > 0 and last > 0 and both > 0

    def test_pair_inclusion_frequency(self):
        hits = 0
        seeds = 1000
        for k in range(seeds):
            t = gen_erdos_renyi(50, 0.1, RngStream(6, k))
            if any((i, j) == (3, 7) for i, j in t.edges.tolist()):
                hits += 1
        sigma = (seeds * 0.1 * 0.9) ** 0.5
        assert abs(hits - seeds * 0.1) <= 5 * sigma


class TestErdosRenyiDistribution:
    """The gap sampler against its definition: each ordered pair is an edge
    with probability p, independently of the others."""

    @pytest.mark.parametrize("density", [0.05, 0.3, 0.6])
    def test_pairs_independent_with_probability_p(self, density):
        n, draws = 12, 3000
        hit = np.zeros((draws, n * (n - 1)), dtype=bool)
        for k in range(draws):
            hit[k, pair_index(gen_erdos_renyi(n, density, RngStream(8, k)))] = True
        counts = hit.sum(axis=0)
        sigma = (draws * density * (1 - density)) ** 0.5
        assert np.all(np.abs(counts - draws * density) <= 5 * sigma), counts
        # Neighbours in the row-major numbering, n - 2 of them across a row
        # boundary, such as (0, n-1) and (1, 0).
        both = (hit[:, :-1] & hit[:, 1:]).sum(axis=0)
        joint = density * density
        sigma = (draws * joint * (1 - joint)) ** 0.5
        assert np.all(np.abs(both - draws * joint) <= 5 * sigma), both


class TestPreferentialAttachment:
    def test_saturated_density_gives_complete_graph(self):
        t = gen_preferential_attachment(3, 1.0, RngStream(1, 0))
        assert t.n_edges == 6
        assert t.kind == "heterogeneous"

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            gen_preferential_attachment(2, 0.5, RngStream(1, 0))
        with pytest.raises(InvalidParameterError):
            gen_preferential_attachment(100, 0.0, RngStream(1, 0))
        with pytest.raises(InvalidParameterError, match="infeasible"):
            gen_preferential_attachment(100, 0.002, RngStream(1, 0))

    def test_determinism(self):
        a = gen_preferential_attachment(300, 0.01, RngStream(11, 2))
        b = gen_preferential_attachment(300, 0.01, RngStream(11, 2))
        assert a == b

    def test_density_within_30_percent(self):
        for k in range(25):
            t = gen_preferential_attachment(500, 0.005, RngStream(13, k))
            density = t.n_edges / (500 * 499)
            assert 0.0035 < density < 0.0065

    def test_density_mean_within_5_percent(self):
        total = 0.0
        seeds = 300
        for k in range(seeds):
            t = gen_preferential_attachment(500, 0.005, RngStream(12345, k))
            total += t.n_edges / (500 * 499)
        assert abs(total / seeds - 0.005) <= 0.05 * 0.005

    def test_hub_dominates_median(self):
        t = gen_preferential_attachment(500, 0.005, RngStream(77, 0))
        g = degree_stats(t).out_degree
        assert g.max() >= 10 * max(float(np.median(g)), 1.0)


def assert_same_stream(generate, reference, n, density, seeds, shared=False):
    """The generator yields the reference's topology and leaves the
    Generator where the reference does: the shocked-bank draw that follows
    a topology in a replication, and the draw after it, agree."""
    for k in seeds:
        if shared:
            # A Generator that already drew, as conftest.random_topology's is;
            # integers() leaves a buffered 32-bit half-word behind.
            ours, theirs = np.random.default_rng(k), np.random.default_rng(k)
            ours.integers(0, 10)
            theirs.integers(0, 10)
        else:
            ours, theirs = RngStream(2024, k).generator(), RngStream(2024, k).generator()
        assert generate(n, density, ours) == reference(n, density, theirs), (n, density, k)
        assert ours.integers(0, n) == theirs.integers(0, n), (n, density, k)
        assert ours.random() == theirs.random(), (n, density, k)


class TestSameStreamAsReference:
    @pytest.mark.parametrize(
        "n, density, seeds",
        [
            (500, 0.005, 40),
            (500, 0.05, 6),
            (30, 0.7, 60),   # reciprocal relationships
            (12, 1.0, 60),
            (3, 1.0, 20),
            (3, 0.5, 20),
        ],
    )
    def test_preferential_attachment(self, n, density, seeds):
        assert_same_stream(
            gen_preferential_attachment, ref_gen_preferential_attachment,
            n, density, range(seeds),
        )
        assert_same_stream(
            gen_preferential_attachment, ref_gen_preferential_attachment,
            n, density, range(4), shared=True,
        )

    @pytest.mark.parametrize("n, density", [(500, 0.05), (30, 0.7), (12, 1.0)])
    def test_preferential_attachment_fallback(self, monkeypatch, n, density):
        # At the default limit the gen.choice fallback never fires; at 1 it
        # fires on the first repeated target.
        monkeypatch.setattr(netgen, "_REDRAW_LIMIT", 1)
        assert_same_stream(
            gen_preferential_attachment, ref_gen_preferential_attachment,
            n, density, range(8),
        )
        assert_same_stream(
            gen_preferential_attachment, ref_gen_preferential_attachment,
            n, density, range(3), shared=True,
        )

    @pytest.mark.parametrize(
        "n, density",
        [
            (2, 0.5),
            (40, 0.1),
            (256, 0.02),
            (257, 0.02),
            (700, 0.01),
            (300, 0.0),         # draws nothing
            (30, 1.0),          # one gap per pair
            (300, 1.0),         # 89,700 gaps: a full block of 2**16 and a short one
            (40, 0.4),          # numpy draws p >= 1/3 by search, not inversion
            (2000, 0.0025),
            (40, 1e-300),       # gaps clipped to n(n-1) + 1
            (500, 1e-18),
        ],
    )
    def test_erdos_renyi(self, n, density):
        assert_same_stream(gen_erdos_renyi, ref_gen_erdos_renyi, n, density, range(6))
        assert_same_stream(
            gen_erdos_renyi, ref_gen_erdos_renyi, n, density, range(3), shared=True
        )

    @pytest.mark.parametrize("n, density", [(2, 0.5), (12, 0.5), (40, 0.1), (30, 1.0)])
    def test_erdos_renyi_small_blocks(self, monkeypatch, n, density):
        # Blocks of at most 5 gaps, so most topologies take several.
        monkeypatch.setattr(netgen, "_CHUNK", 5)
        assert_same_stream(gen_erdos_renyi, ref_gen_erdos_renyi, n, density, range(10))
        assert_same_stream(
            gen_erdos_renyi, ref_gen_erdos_renyi, n, density, range(3), shared=True
        )


class TestDegreeStats:
    def test_complete_graph(self):
        t = gen_erdos_renyi(4, 1.0, RngStream(1, 0))
        stats = degree_stats(t)
        assert stats.out_degree.tolist() == [3, 3, 3, 3]
        assert stats.in_degree.tolist() == [3, 3, 3, 3]
        assert stats.density == 1.0

    def test_empty_graph(self):
        t = Topology(6, np.empty((0, 2), dtype=np.int64), "external")
        stats = degree_stats(t)
        assert stats.out_degree.tolist() == [0] * 6
        assert stats.in_degree.tolist() == [0] * 6
        assert stats.density == 0.0

    def test_single_edge(self):
        t = Topology(3, np.array([[0, 1]]), "external")
        stats = degree_stats(t)
        assert stats.out_degree.tolist() == [1, 0, 0]
        assert stats.in_degree.tolist() == [0, 1, 0]
        assert stats.density == 1 / 6

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 30),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32),
    )
    def test_degree_identities(self, n, density, seed):
        t = gen_erdos_renyi(n, density, RngStream(seed, 0))
        stats = degree_stats(t)
        assert int(stats.out_degree.sum()) == t.n_edges
        assert int(stats.in_degree.sum()) == t.n_edges
        assert np.all(t.edges[:, 0] != t.edges[:, 1]) or t.n_edges == 0
        # density equals mean degree over n-1, as an exact rational identity
        assert Fraction(int(stats.out_degree.sum()), n) / (n - 1) == Fraction(
            t.n_edges, n * (n - 1)
        )
        assert stats.density == t.n_edges / (n * (n - 1))


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        t = gen_erdos_renyi(40, 0.1, RngStream(3, 0))
        path = tmp_path / "net.edges"
        write_edge_list(t, path)
        back = read_edge_list(path)
        assert back.kind == "external"
        assert back.n_banks == t.n_banks
        assert np.array_equal(back.edges, t.edges)

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        write_edge_list(gen_erdos_renyi(30, 0.2, RngStream(5, 1)), a)
        write_edge_list(gen_erdos_renyi(30, 0.2, RngStream(5, 1)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_format(self, tmp_path):
        path = tmp_path / "net.edges"
        write_edge_list(Topology(3, np.array([[0, 1]]), "external"), path)
        assert path.read_text() == "N 3\n0 1\n"

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("N 3\n0 1\n0 x\n")
        with pytest.raises(ParseError, match=":3"):
            read_edge_list(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n")
        with pytest.raises(ParseError, match="header"):
            read_edge_list(path)

    def test_semantic_errors_surface(self, tmp_path):
        path = tmp_path / "loop.edges"
        path.write_text("N 3\n1 1\n")
        with pytest.raises(InvalidParameterError, match="self-loop"):
            read_edge_list(path)
