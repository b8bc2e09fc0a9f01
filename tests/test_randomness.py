"""Randomness module tests: frozen generator vectors, stream coupling,
graph materialization, and the canonical graph file format."""

import re
import tracemalloc

import numpy as np
import pytest

from dfs_frontier import randomness
from dfs_frontier.errors import ConfigError, StreamExhausted
from dfs_frontier.oracle import enumeration_cases, trial_cases
from dfs_frontier.randomness import (BitStream, FixedBits, Graph,
                                     Xoshiro256StarStar, materialize_graph,
                                     pair_count, read_graph_file, splitmix64,
                                     write_graph_file)
from dfs_frontier.reference_engine import run_reference

# Vectors frozen from an independent C build of the public-domain splitmix64
# and xoshiro256** reference code (Blackman & Vigna), printed with %016llX
# and %.17g. The seed-0 splitmix64 outputs also match the values published
# with the reference sources.
SPLITMIX_VECTORS = {
    0: (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
        0x06C45D188009454F, 0xF88BB8A8724C81EC),
    1: (0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67,
        0xF893A2EEFB32555E, 0x71C18690EE42C90B),
    42: (0xBDD732262FEB6E95, 0x28EFE333B266F103,
         0x47526757130F9F52, 0x581CE1FF0E4AE394),
    123456789: (0x223C74D93DEB7679, 0x7A91DD183971EE2E,
                0x310E0831409AFDE5, 0x851E061616A5BEE5),
    2**64 - 1: (0xE4D971771B652C20, 0xE99FF867DBF682C9,
                0x382FF84CB27281E9, 0x6D1DB36CCBA982D2),
}

XOSHIRO_VECTORS = {
    0: (0x99EC5F36CB75F2B4, 0xBF6E1F784956452A, 0x1A5F849D4933E6E0,
        0x6AA594F1262D2D2C, 0xBBA5AD4A1F842E59, 0xFFEF8375D9EBCACA,
        0x6C160DEED2F54C98, 0x8920AD648FC30A3F),
    1: (0xB3F2AF6D0FC710C5, 0x853B559647364CEA, 0x92F89756082A4514,
        0x642E1C7BC266A3A7, 0xB27A48E29A233673, 0x24C123126FFDA722,
        0x123004EF8DF510E6, 0x61954DCC47B1E89D),
    42: (0x15780B2E0C2EC716, 0x6104D9866D113A7E, 0xAE17533239E499A1,
         0xECB8AD4703B360A1, 0xFDE6DC7FE2EC5E64, 0xC50DA53101795238,
         0xB82154855A65DDB2, 0xD99A2743EBE60087),
    123456789: (0xD1EEA10C836F0CC2, 0xE1BB9DFA08F02548, 0x1503F3B726A1B888,
                0x88BF5A022CF9D5C2, 0xDE0F231C26906FE1, 0x7BF14DF7468F6BD5,
                0x5A0E9D6A14C72B3F, 0xA6D8390AA53D505C),
    2**64 - 1: (0x8F5520D52A7EAD08, 0xC476A018CAA1802D, 0x81DE31C0D260469E,
                0xBF658D7E065F3C2F, 0x913593FDA1BCA32A, 0xBB535E93941BA525,
                0x5ECDA415C3C6DFDE, 0xC487398FC9DE9AE2),
}

DOUBLE_VECTORS = {
    0: (0.60126299941790484, 0.74777409254723981,
        0.10301998939503632, 0.4165890778296456),
    1: (0.70292183315885048, 0.52043661993885693,
        0.5741057000197225, 0.39132860204190445),
    42: (0.083862971059882163, 0.37898025066266861,
         0.68004341102813937, 0.92469294532538759),
    123456789: (0.82004744105818983, 0.8817690596997072,
                0.082091552939011048, 0.53416979363553385),
    2**64 - 1: (0.55989270405052116, 0.7674350796247662,
                0.50729666669428841, 0.74764332129268218),
}


class TestSplitmix64:
    def test_frozen_vectors(self):
        for seed, expected in SPLITMIX_VECTORS.items():
            state = seed
            outs = []
            for _ in range(4):
                state, out = splitmix64(state)
                outs.append(out)
            assert tuple(outs) == expected, f"seed {seed}"

    def test_outputs_are_64_bit(self):
        state = 2**64 - 1
        for _ in range(100):
            state, out = splitmix64(state)
            assert 0 <= out < 2**64
            assert 0 <= state < 2**64


class TestXoshiro256StarStar:
    def test_frozen_vectors(self):
        for seed, expected in XOSHIRO_VECTORS.items():
            rng = Xoshiro256StarStar(seed)
            got = tuple(rng.next_u64() for _ in range(8))
            assert got == expected, f"seed {seed}"

    def test_frozen_doubles(self):
        # Bit-exact: double = (u64 >> 11) * 2**-53, same arithmetic as the
        # C oracle.
        for seed, expected in DOUBLE_VECTORS.items():
            rng = Xoshiro256StarStar(seed)
            got = tuple((rng.next_u64() >> 11) * 2**-53 for _ in range(4))
            assert got == expected, f"seed {seed}"

    def test_double_range(self):
        rng = Xoshiro256StarStar(7)
        for _ in range(1000):
            u = (rng.next_u64() >> 11) * 2**-53
            assert 0.0 <= u < 1.0

    def test_distinct_seeds_distinct_streams(self):
        a = [Xoshiro256StarStar(1).next_u64() for _ in range(4)]
        b = [Xoshiro256StarStar(2).next_u64() for _ in range(4)]
        assert a != b


class TestBitStream:
    def test_bit_and_skip_agree(self):
        # The coupling invariant: both consumption patterns read the same
        # pending gap, so success positions coincide exactly.
        for p in (0.03, 0.3, 0.9):
            ref = BitStream(777, p)
            bits = [ref.next_bit() for _ in range(10000)]
            expected = [i for i, b in enumerate(bits) if b]
            skipper = BitStream(777, p)
            got = []
            while skipper.cursor < 10000:
                k = skipper.skip_to_next_success(limit=10000 - skipper.cursor)
                if k is None:
                    break
                got.append(skipper.cursor - 1)
            assert got == expected, f"p={p}"

    def test_mixed_consumption_hits_same_successes(self):
        p = 0.2
        ref = BitStream(9, p)
        ref_bits = [ref.next_bit() for _ in range(2000)]
        mixed = BitStream(9, p)
        seen = []
        while mixed.cursor < 1500:
            for _ in range(7):
                if mixed.next_bit():
                    seen.append(mixed.cursor - 1)
            k = mixed.skip_to_next_success(limit=300)
            if k is not None:
                seen.append(mixed.cursor - 1)
        expected = [i for i, b in enumerate(ref_bits[:mixed.cursor]) if b]
        assert seen == expected

    def test_gap_mean(self):
        # Geometric gap: E[k] = (1-p)/p = 7/3 at p = 0.3, var = (1-p)/p^2;
        # 20000 draws give sigma_mean ~ 0.0197, tolerance is 4 sigma.
        s = BitStream(31337, 0.3)
        draws = [s.skip_to_next_success() for _ in range(20000)]
        mean = sum(draws) / len(draws)
        assert abs(mean - 7.0 / 3.0) < 0.08

    def test_bit_mean(self):
        # 10^6 fair bits: sigma of the mean is 5e-4, tolerance 4 sigma.
        s = BitStream(555, 0.5)
        ones = sum(s.next_bit() for _ in range(1_000_000))
        assert abs(ones / 1_000_000 - 0.5) < 0.002

    def test_p_one_always_succeeds(self):
        s = BitStream(1, 1.0)
        assert [s.next_bit() for _ in range(10)] == [1] * 10
        assert s.skip_to_next_success() == 0
        assert s.cursor == 11

    def test_p_zero_never_succeeds(self):
        s = BitStream(1, 0.0)
        assert [s.next_bit() for _ in range(100)] == [0] * 100
        assert s.skip_to_next_success(limit=50) is None
        assert s.cursor == 150
        with pytest.raises(ConfigError):
            s.skip_to_next_success()

    def test_tiny_p_gap_is_infinite(self):
        # Below p ~ 2e-307 the gap quotient overflows to infinity: the
        # stream behaves as at p = 0 instead of raising OverflowError.
        s = BitStream(1, 1e-310)
        assert s.next_bit() == 0
        assert s.skip_to_next_success(limit=50) is None
        with pytest.raises(ConfigError):
            s.skip_to_next_success()
        res = run_reference(10, BitStream(1, 1e-310))
        assert res.report.dfs_query_total == 45
        assert res.report.giant_size == 1

    def test_cursor_counts_both_patterns(self):
        s = BitStream(5, 0.4)
        s.next_bit()
        s.next_bit()
        k = s.skip_to_next_success()
        assert s.cursor == 2 + k + 1

    def test_invalid_p_rejected(self):
        with pytest.raises(ConfigError):
            BitStream(0, -0.1)
        with pytest.raises(ConfigError):
            BitStream(0, 1.5)

    def test_fixed_bits_exhaustion(self):
        s = FixedBits([1, 0, 1])
        assert [s.next_bit() for _ in range(3)] == [1, 0, 1]
        with pytest.raises(StreamExhausted):
            s.next_bit()


class TestGraph:
    def test_from_edges_normalizes(self):
        g = Graph.from_edges(4, [(2, 0), (1, 3), (0, 1)])
        assert g.edges() == [(0, 1), (0, 2), (1, 3)]
        assert g.m == 3

    def test_rejects_duplicates_and_loops(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_neighbors_sorted_and_degrees(self):
        g = Graph.from_edges(5, [(0, 3), (0, 1), (2, 3), (3, 4)])
        assert g.neighbors(3).tolist() == [0, 2, 4]
        assert len(g.neighbors(3)) == 3
        assert len(g.neighbors(1)) == 1
        assert 0 in g.neighbors(3) and 2 not in g.neighbors(1)

    def test_rejects_malformed_csr(self):
        # Graph takes edges, never a CSR. Arrays in the (n, indptr, nbrs)
        # form read as endpoints of unequal length, or with len(nbrs) >= n
        # as an endpoint, so each raises, valid CSR or not.
        cases = [(2, [0, 1, 1], [1]),         # row 1 does not mirror row 0
                 (3, [0, 1, 2, 2], [1, 0]),   # the CSR of the edge (0, 1)
                 (3, [0, 1, 2, 2], [-1, 0]),  # label below 0
                 (3, [0, 1, 2, 2], [1, 3]),   # label n
                 (3, [0, 2, 1, 2], [1, 0]),   # indptr decreases
                 (3, [0, 1, 2, 3], [1, 0]),   # indptr[-1] != len(nbrs)
                 (3, [1, 1, 2, 2], [1, 0]),   # indptr[0] != 0
                 (3, [0, 1, 2], [1, 0])]      # indptr of the wrong shape
        for n, indptr, nbrs in cases:
            with pytest.raises(ValueError):
                Graph(n, np.array(indptr), np.array(nbrs))

    def test_every_graph_is_simple(self):
        # Rows strictly ascending, no self-loop, rows that mirror, and m the
        # number of upper entries, on every graph the oracle checks.
        for label, g, _stride in (*enumeration_cases(), *trial_cases(56)):
            rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
            in_row = rows[1:] == rows[:-1]
            assert (np.diff(g.nbrs)[in_row] > 0).all(), label
            assert (g.nbrs != rows).all(), label
            pairs = set(zip(rows.tolist(), g.nbrs.tolist()))
            assert pairs == {(w, v) for v, w in pairs}, label
            assert g.m == int((g.nbrs > rows).sum()), label
        g = Graph(3, [0], [1])
        assert g.m == 1 and g.edges() == [(0, 1)]
        assert g.indptr.dtype == g.nbrs.dtype == np.int32

    def test_edge_arrays_are_int32(self):
        eu, ev = Graph.from_edges(4, [(0, 3), (1, 2)]).edge_arrays()
        assert eu.dtype == ev.dtype == np.int32
        assert list(zip(eu.tolist(), ev.tolist())) == [(0, 3), (1, 2)]

    def test_equality(self):
        a = Graph.from_edges(3, [(0, 1)])
        b = Graph.from_edges(3, [(1, 0)])
        c = Graph.from_edges(3, [(0, 2)])
        assert a == b
        assert a != c


WRAPS = 2**32 + 1     # 1 once cast to int32


class TestInt32Labels:
    """Labels are range-checked in the dtype they arrive in, before the
    cast to int32, and sizes past 2**31 are refused up front."""

    def test_graph_rejects_float_and_wrapping_labels(self):
        # A float would slip past the range check; an unsigned label past
        # 2**32 would wrap to 1.
        for eu, ev in (([0], [1.0]), ([0.0], [1])):
            with pytest.raises(ValueError, match="integers"):
                Graph(3, eu, ev)
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, np.array([0], dtype=np.uint64),
                  np.array([WRAPS], dtype=np.uint64))

    @pytest.mark.parametrize("native", [True, False])
    def test_from_edge_arrays_rejects_wrapping_label(self, python_loops,
                                                     native):
        build = Graph.from_edge_arrays
        if not native:
            build = lambda *a: python_loops(Graph.from_edge_arrays, *a)
        for eu, ev in (([0], [WRAPS]), ([WRAPS - 1], [1])):
            with pytest.raises(ValueError):
                build(3, np.array(eu), np.array(ev))

    def test_read_graph_file_rejects_wrapping_label(self, tmp_path):
        # 2**64 does not fit int64 either.
        for label in (WRAPS, 2**64):
            path = tmp_path / "wraps.txt"
            path.write_text(f"3 1\n0 {label}\n")
            with pytest.raises(ValueError):
                read_graph_file(str(path))
            with pytest.raises(ValueError):
                Graph.from_edges(3, [(0, label)])

    def test_lex_key_does_not_wrap(self):
        # In int32, 99,998 * n + 99,999 and 69,998 * n + 99,999 wrap to
        # keys that rise, so this unsorted pair would pass and the sorted
        # one fail.
        n = 10**5
        with pytest.raises(ValueError, match="lex-sorted"):
            Graph.from_edge_arrays(n, [99_998, 69_998], [99_999, 99_999])
        g = Graph.from_edge_arrays(n, [69_998, 99_998], [99_999, 99_999])
        assert g.edges() == [(69_998, 99_999), (99_998, 99_999)]

    def test_size_cap_before_allocating(self):
        # Zero-stride views stand for inputs of 2**30 edges and 2**31
        # entries without holding them.
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError):
                materialize_graph(2**31, 1e-12, 1)
            with pytest.raises(ConfigError):
                materialize_graph(50_000, 1.0, 1)    # n (n - 1) > 2**31
            with pytest.raises(ConfigError):
                Graph.from_edge_arrays(2**31, [], [])
            ends = np.broadcast_to(np.int32(0), (2**30,))
            with pytest.raises(ConfigError):
                Graph.from_edge_arrays(3, ends, ends)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_read_graph_file_refuses_size_before_allocating(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text(f"3 {2**30}\n0 1\n")
        with pytest.raises(ValueError, match="edge count"):
            read_graph_file(str(path))


class TestMaterializeGraph:
    def test_p_zero_empty(self):
        g = materialize_graph(100, 0.0, 1)
        assert g.m == 0

    def test_p_one_complete(self, python_loops):
        # K_n: every pair present in lexicographic order, no generator
        # draws needed, with or without the native kernel.
        for n in (0, 1, 2, 3, 6, 50):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for g in (materialize_graph(n, 1.0, 1),
                      python_loops(materialize_graph, n, 1.0, 1)):
                assert g.m == pair_count(n)
                assert g.edges() == pairs

    def test_deterministic_in_seed(self):
        a = materialize_graph(500, 0.01, 99)
        b = materialize_graph(500, 0.01, 99)
        c = materialize_graph(500, 0.01, 100)
        assert a == b
        assert a != c

    def test_matches_explicit_skip_loop(self):
        # The inlined gap loop must be observationally identical to driving
        # BitStream.skip_to_next_success over the pair space.
        n, p, seed = 200, 0.05, 4242
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        stream = BitStream(seed, p)
        edges = []
        while stream.cursor < len(pairs):
            k = stream.skip_to_next_success(limit=len(pairs) - stream.cursor)
            if k is None:
                break
            edges.append(pairs[stream.cursor - 1])
        g = materialize_graph(n, p, seed)
        assert g.edges() == edges
        assert g.m > 0

    def test_edge_count_band(self):
        # n = 1e5 at p = 1.1e-5: E[m] = C(n,2) p ~ 54999.45, sigma ~ 234.5;
        # the band is +/- 4 sigma.
        g = materialize_graph(100_000, 1.1e-5, 20260817)
        assert 54061 <= g.m <= 55938

    @pytest.mark.parametrize("eu, ev", [([2], [1]), ([0, 0], [1, 1])])
    def test_drawn_graph_is_checked(self, python_loops, monkeypatch, eu, ev):
        # A swapped or repeated pair from the draw never reaches a run.
        monkeypatch.setattr(randomness, "_gap_edges", lambda n, p, seed: (
            np.array(eu, dtype=np.int32), np.array(ev, dtype=np.int32)))
        with pytest.raises(ValueError, match="lex-sorted"):
            materialize_graph(3, 0.5, 1)
        with pytest.raises(ValueError, match="lex-sorted"):
            python_loops(materialize_graph, 3, 0.5, 1)

    def test_small_n_edge_cases(self):
        assert materialize_graph(0, 0.5, 1).m == 0
        assert materialize_graph(1, 0.5, 1).m == 0
        with pytest.raises(ConfigError):
            materialize_graph(10, 1.2, 1)


class TestGraphFile:
    def test_round_trip(self, tmp_path):
        g = materialize_graph(60, 0.1, 3)
        path = str(tmp_path / "g.txt")
        write_graph_file(g, path)
        assert read_graph_file(path) == g

    def test_empty_graph_round_trip(self, tmp_path):
        g = Graph.from_edges(4, [])
        path = str(tmp_path / "empty.txt")
        write_graph_file(g, path)
        back = read_graph_file(path)
        assert back == g and back.n == 4

    def test_rejects_malformed(self, tmp_path):
        cases = {
            "bad_header.txt": "3\n",
            "orientation.txt": "3 1\n2 1\n",
            "out_of_range.txt": "3 1\n0 3\n",
            "unsorted.txt": "4 2\n1 2\n0 1\n",
            "duplicate.txt": "3 2\n0 1\n0 1\n",
            "trailing.txt": "3 1\n0 1\n0 2\n",
        }
        for name, text in cases.items():
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(ValueError, match=re.escape(str(path))):
                read_graph_file(str(path))

    @pytest.mark.parametrize("text", ["x 1\n0 1\n", "3 1\n0 1.5\n",
                                      "-1 0\n"])
    def test_errors_name_the_file(self, tmp_path, text):
        # A header that is not an integer, an edge line that is not, and a
        # negative vertex count.
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_graph_file(str(path))
