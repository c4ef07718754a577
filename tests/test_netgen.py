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
    degree_stats,
    gen_erdos_renyi,
    gen_preferential_attachment,
    read_edge_list,
    write_edge_list,
)
from knockon import netgen
from reference_impl import ref_gen_erdos_renyi, ref_gen_preferential_attachment

ER_MEAN_EDGES = 500 * 499 * 0.005          # 1247.5
ER_SIGMA = (500 * 499 * 0.005 * 0.995) ** 0.5


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

    def test_pair_inclusion_frequency(self):
        hits = 0
        seeds = 1000
        for k in range(seeds):
            t = gen_erdos_renyi(50, 0.1, RngStream(6, k))
            if any((i, j) == (3, 7) for i, j in t.edges.tolist()):
                hits += 1
        sigma = (seeds * 0.1 * 0.9) ** 0.5
        assert abs(hits - seeds * 0.1) <= 5 * sigma


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
            (40, 0.1),          # one chunk
            (256, 0.02),        # 256 * 255 pairs, just under one chunk of 2**16
            (257, 0.02),        # 257 * 256 = 2**16 + 256: a full chunk and a short one
            (700, 0.01),        # several chunks
            (300, 0.0),
            (30, 1.0),
        ],
    )
    def test_erdos_renyi(self, n, density):
        assert_same_stream(gen_erdos_renyi, ref_gen_erdos_renyi, n, density, range(6))
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
