"""Tests for repro.cluster.topology: placement and group links."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterSpec, _group_link, standard_cluster


class TestClusterSpec:
    def test_num_gpus(self):
        assert ClusterSpec(num_nodes=8, gpus_per_node=8).num_gpus == 64

    def test_rejects_nonpositive_nodes(self):
        with pytest.raises(ValueError, match="num_nodes"):
            ClusterSpec(num_nodes=0)

    def test_node_of(self):
        cluster = ClusterSpec(num_nodes=2, gpus_per_node=8)
        assert cluster.node_of(0) == 0
        assert cluster.node_of(7) == 0
        assert cluster.node_of(8) == 1
        assert cluster.node_of(15) == 1

    def test_node_of_rejects_out_of_range(self):
        cluster = ClusterSpec(num_nodes=1, gpus_per_node=8)
        with pytest.raises(ValueError, match="rank"):
            cluster.node_of(8)

    def test_contiguous_group(self):
        cluster = ClusterSpec(num_nodes=2, gpus_per_node=8)
        assert cluster.contiguous_group(4, 4) == (4, 5, 6, 7)

    def test_contiguous_group_rejects_overflow(self):
        cluster = ClusterSpec(num_nodes=1, gpus_per_node=8)
        with pytest.raises(ValueError, match="out of range"):
            cluster.contiguous_group(6, 4)

    def test_nodes_spanned(self):
        cluster = ClusterSpec(num_nodes=2, gpus_per_node=8)
        assert cluster.nodes_spanned((0, 1, 2, 3)) == 1
        assert cluster.nodes_spanned((6, 7, 8, 9)) == 2


class TestGroupLinks:
    def test_intra_node_degree_gets_nvlink(self):
        cluster = standard_cluster(64)
        link = cluster.link_for_degree(8)
        assert link.bandwidth == cluster.network.intra_node.bandwidth

    def test_cross_node_degree_gets_shared_ib(self):
        cluster = standard_cluster(64)
        link = cluster.link_for_degree(16)
        assert link.bandwidth < cluster.network.intra_node.bandwidth / 4

    def test_degree_bandwidth_monotone_nonincreasing(self):
        cluster = standard_cluster(64)
        degrees = [1, 2, 4, 8, 16, 32, 64]
        bandwidths = [cluster.link_for_degree(d).bandwidth for d in degrees]
        for earlier, later in zip(bandwidths, bandwidths[1:]):
            assert later <= earlier + 1e-9

    def test_rejects_degree_exceeding_cluster(self):
        with pytest.raises(ValueError, match="exceeds cluster size"):
            standard_cluster(8).link_for_degree(16)

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="at least one rank"):
            standard_cluster(8).group_link(())


class TestLinkForDegreeMemo:
    @pytest.mark.parametrize("num_gpus", [4, 16, 64])
    def test_matches_uncached_canonical_group(self, num_gpus):
        cluster = standard_cluster(num_gpus)
        for degree in range(1, num_gpus + 1):
            expected = cluster.group_link(cluster.contiguous_group(0, degree))
            assert cluster.link_for_degree(degree) == expected
            # A second, cached lookup returns the same link.
            assert cluster.link_for_degree(degree) == expected

    @pytest.mark.parametrize("degree", [0, -1, 9, 64])
    def test_validation_runs_on_every_call(self, degree):
        cluster = standard_cluster(8)
        cluster.link_for_degree(8)
        for __ in range(2):
            with pytest.raises(ValueError):
                cluster.link_for_degree(degree)

    def test_equal_clusters_share_entries(self):
        first = ClusterSpec(num_nodes=3, gpus_per_node=8)
        second = ClusterSpec(num_nodes=3, gpus_per_node=8)
        assert first is not second and first == second
        for degree in (1, 8, 12, 24):
            assert first.link_for_degree(degree) is second.link_for_degree(degree)


@st.composite
def cluster_and_ranks(draw):
    """A cluster shape and a sorted rank set: contiguous or scattered,
    inside one node or across several."""
    cluster = ClusterSpec(
        num_nodes=draw(st.integers(1, 8)),
        gpus_per_node=draw(st.sampled_from([1, 2, 4, 6, 8])),
    )
    ranks = draw(
        st.sets(st.integers(0, cluster.num_gpus - 1), min_size=1, max_size=64)
    )
    return cluster, tuple(sorted(ranks))


class TestGroupLinkMemo:
    @given(case=cluster_and_ranks())
    @settings(max_examples=200, deadline=None)
    def test_matches_uncached_scan(self, case):
        cluster, ranks = case
        expected = _group_link.__wrapped__(cluster, ranks)
        assert cluster.group_link(ranks) == expected
        # A second, cached lookup (and an equal cluster) agree.
        assert cluster.group_link(ranks) == expected
        twin = ClusterSpec(
            num_nodes=cluster.num_nodes, gpus_per_node=cluster.gpus_per_node
        )
        assert twin.group_link(list(ranks)) == expected

    @pytest.mark.parametrize("ranks", [(), (8,), (0, 8), (-1, 0), (3, 99)])
    def test_validation_runs_on_every_call(self, ranks):
        cluster = standard_cluster(8)
        cluster.group_link(tuple(range(8)))
        for __ in range(2):
            with pytest.raises(ValueError):
                cluster.group_link(ranks)

    def test_multi_node_group_uses_busiest_node(self):
        cluster = standard_cluster(16)
        scattered = (0, 1, 2, 9)  # three members on node 0, one on node 1
        expected = cluster.network.group_link(
            group_gpus_per_node=3, spans_nodes=2, total_nodes=2
        )
        assert cluster.group_link(scattered) == expected
        assert cluster.group_link(scattered) == expected


class TestStandardCluster:
    def test_paper_shape(self):
        cluster = standard_cluster(64)
        assert cluster.num_nodes == 8
        assert cluster.gpus_per_node == 8

    def test_single_partial_node(self):
        cluster = standard_cluster(4)
        assert cluster.num_nodes == 1
        assert cluster.gpus_per_node == 4

    def test_rejects_non_multiple_of_eight(self):
        with pytest.raises(ValueError, match="multiple of 8"):
            standard_cluster(12)

    def test_total_memory_budget(self):
        cluster = standard_cluster(8)
        assert cluster.total_memory_budget() == pytest.approx(
            8 * cluster.gpu.usable_memory_bytes
        )
