"""Tests for the streaming k6/mase trace-ingestion pipeline.

Covers the docs/traces.md contract: lossless round-trips (property-based),
typed malformed-input diagnostics, deterministic GPU splitting, stable
content digests, chunk-size independence, and the bounded-memory
guarantee (a million-access gzip trace ingested in a subprocess must hold
its peak RSS under a fixed bound).
"""

import gzip
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.presets import baseline_config
from repro.workloads.errors import TraceFormatError
from repro.workloads.ingest import (
    SPLIT_POLICIES,
    assign_gpus,
    default_trace_name,
    ingest_trace,
    sniff_format,
    synthesize_k6_trace,
    trace_digest,
    write_k6_trace,
)


def write_lines(path: Path, lines: list[str]) -> Path:
    text = "\n".join(lines) + ("\n" if lines else "")
    if path.suffix == ".gz":
        with gzip.open(path, "wt") as handle:
            handle.write(text)
    else:
        path.write_text(text)
    return path


# -- format sniffing ---------------------------------------------------------


class TestSniffFormat:
    def test_filename_prefix_wins(self, tmp_path):
        k6 = write_lines(tmp_path / "k6_foo.trc", ["0x1000 P_MEM_RD 5"])
        mase = write_lines(tmp_path / "mase_foo.trc", ["0x1000 READ 5"])
        assert sniff_format(k6) == "k6"
        assert sniff_format(mase) == "mase"

    def test_command_column_fallback(self, tmp_path):
        k6 = write_lines(tmp_path / "anything.trc", ["# c", "0x1000 P_MEM_WR 5"])
        mase = write_lines(tmp_path / "other.trc", ["0x2000 IFETCH 9"])
        assert sniff_format(k6) == "k6"
        assert sniff_format(mase) == "mase"

    def test_undecidable_raises(self, tmp_path):
        weird = write_lines(tmp_path / "x.trc", ["0x1000 FROB 5"])
        with pytest.raises(TraceFormatError, match="format"):
            sniff_format(weird)


# -- property-based round trip ----------------------------------------------


record_st = st.tuples(
    st.integers(0, 1 << 40),      # byte address
    st.booleans(),                # is_write
    st.integers(1, 2_000),        # cycle gap to the next record
)


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(records=st.lists(record_st, min_size=1, max_size=300),
           compress=st.booleans())
    def test_synthetic_to_k6_and_back(self, records, compress, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("roundtrip")
        addresses = np.array([r[0] for r in records], dtype=np.uint64)
        writes = np.array([r[1] for r in records], dtype=bool)
        cycles = np.cumsum([r[2] for r in records]).astype(np.int64)
        path = tmp_path / ("t.trc.gz" if compress else "t.trc")
        write_k6_trace(path, addresses, writes, cycles)

        result = ingest_trace(path, num_gpus=2, num_cus=4, scale=1.0)
        stats = result.stats
        assert stats.format == "k6"
        assert stats.compressed == compress
        assert stats.records == len(records)
        assert stats.writes == int(writes.sum())
        assert stats.reads == len(records) - int(writes.sum())
        assert stats.min_cycle == int(cycles[0])
        assert stats.max_cycle == int(cycles[-1])
        assert stats.non_monotonic == 0
        assert sum(stats.per_gpu_records) == len(records)
        expected_pages = np.unique(addresses >> np.uint64(12))
        assert stats.unique_pages == len(expected_pages)
        assert np.array_equal(
            result.workload.footprints[1], expected_pages.astype(np.int64)
        )

    def test_repeat_collapse_counts_runs_not_records(self, tmp_path):
        # 100 records on one page = one run; memory scales with runs.
        path = write_lines(
            tmp_path / "k6_runs.trc",
            [f"0x5000 P_MEM_RD {cycle}" for cycle in range(1, 101)],
        )
        result = ingest_trace(path, num_gpus=1, num_cus=1)
        assert result.stats.records == 100
        assert result.stats.runs == 1

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = write_lines(
            tmp_path / "k6_c.trc",
            ["# header", "", "; note", "// also", "0x1000 P_MEM_RD 5"],
        )
        stats = ingest_trace(path).stats
        assert stats.records == 1
        assert stats.lines == 5


# -- malformed input ---------------------------------------------------------


class TestDiagnostics:
    def test_malformed_line_names_line_and_text(self, tmp_path):
        path = write_lines(
            tmp_path / "k6_bad.trc",
            ["0x1000 P_MEM_RD 5", "garbage line here"],
        )
        with pytest.raises(TraceFormatError) as excinfo:
            ingest_trace(path)
        message = str(excinfo.value)
        assert "line 2" in message
        assert "garbage line here" in message
        assert excinfo.value.line == 2

    def test_unknown_command_rejected(self, tmp_path):
        path = write_lines(tmp_path / "k6_cmd.trc", ["0x1000 P_MEM_EAT 5"])
        with pytest.raises(TraceFormatError, match="P_MEM_EAT"):
            ingest_trace(path, fmt="k6")

    def test_truncated_gzip(self, tmp_path):
        path = tmp_path / "k6_trunc.trc.gz"
        synthesize_k6_trace(path, accesses=5_000, seed=3)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceFormatError, match="truncated|corrupt"):
            ingest_trace(path, fmt="k6")

    def test_empty_file(self, tmp_path):
        path = write_lines(tmp_path / "k6_empty.trc", [])
        with pytest.raises(TraceFormatError, match="no records|empty"):
            ingest_trace(path, fmt="k6")

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError):
            ingest_trace(tmp_path / "nope.trc", fmt="k6")


# -- splitting ---------------------------------------------------------------


class TestSplitting:
    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("split") / "k6_split.trc.gz"
        synthesize_k6_trace(path, accesses=20_000, footprint_pages=512, seed=5)
        return path

    @pytest.mark.parametrize("split", SPLIT_POLICIES)
    def test_policies_conserve_records(self, trace, split):
        result = ingest_trace(trace, num_gpus=4, split=split)
        assert sum(result.stats.per_gpu_records) == result.stats.records

    @pytest.mark.parametrize("split", SPLIT_POLICIES)
    def test_deterministic_across_config_seeds(self, trace, split):
        # Ingestion has no stochastic step: two differently-seeded
        # configs must produce bit-identical workloads.
        results = [
            ingest_trace(trace, config=baseline_config().derive(seed=seed),
                         split=split)
            for seed in (0, 1)
        ]
        a, b = (r.workload for r in results)
        assert len(a.placements) == len(b.placements)
        for pa, pb in zip(a.placements, b.placements):
            assert pa.gpu_id == pb.gpu_id
            for sa, sb in zip(pa.streams, pb.streams):
                assert np.array_equal(sa.vpns, sb.vpns)
                assert np.array_equal(sa.gaps, sb.gaps)
                assert np.array_equal(sa.repeats, sb.repeats)

    def test_address_hash_is_position_independent(self):
        vpns = np.arange(100, dtype=np.int64)
        both = assign_gpus("address-hash", np.concatenate([vpns, vpns]),
                           num_gpus=4)
        assert np.array_equal(both[:100], both[100:])

    def test_contiguous_block_groups_neighbours(self):
        vpns = np.arange(1024, dtype=np.int64)
        gpus = assign_gpus("contiguous-block", vpns, num_gpus=2,
                           block_pages=512)
        assert set(gpus[:512]) == {0}
        assert set(gpus[512:]) == {1}

    def test_unknown_policy_rejected(self, trace):
        with pytest.raises(ValueError, match="split"):
            ingest_trace(trace, split="modulo-17")


# -- digests and determinism -------------------------------------------------


class TestDigest:
    def test_stable_across_paths(self, tmp_path):
        a = tmp_path / "a.trc.gz"
        synthesize_k6_trace(a, accesses=2_000, seed=1)
        b = tmp_path / "b.trc.gz"
        b.write_bytes(a.read_bytes())
        assert trace_digest(a) == trace_digest(b)

    def test_synthesis_is_byte_identical_across_seconds(self, tmp_path):
        # The gzip header's mtime must not stamp the wall clock, or a
        # re-synthesised fixture gets a new digest and misses the cache.
        first, second = tmp_path / "1", tmp_path / "2"
        first.mkdir()
        second.mkdir()
        a = synthesize_k6_trace(first / "k6_same.trc.gz", accesses=500, seed=4)
        time.sleep(1.1)
        b = synthesize_k6_trace(second / "k6_same.trc.gz", accesses=500, seed=4)
        assert a.read_bytes() == b.read_bytes()
        assert trace_digest(a) == trace_digest(b)

    def test_changes_with_content(self, tmp_path):
        path = tmp_path / "a.trc"
        write_lines(path, ["0x1000 P_MEM_RD 5"])
        before = trace_digest(path)
        write_lines(path, ["0x1000 P_MEM_RD 5", "0x2000 P_MEM_WR 6"])
        assert trace_digest(path) != before

    def test_chunk_size_independent_ingest(self, tmp_path):
        path = tmp_path / "k6_chunks.trc.gz"
        synthesize_k6_trace(path, accesses=10_000, seed=9)
        small = ingest_trace(path, chunk_records=97)
        large = ingest_trace(path)
        for pa, pb in zip(small.workload.placements, large.workload.placements):
            for sa, sb in zip(pa.streams, pb.streams):
                assert np.array_equal(sa.vpns, sb.vpns)
                assert np.array_equal(sa.gaps, sb.gaps)
                assert np.array_equal(sa.repeats, sb.repeats)
        assert small.stats.runs == large.stats.runs


class TestNaming:
    def test_default_trace_name_strips_suffixes(self):
        assert default_trace_name("dir/k6_app.trc.gz") == "k6_app"
        assert default_trace_name("weird name!.mase") == "weird_name"


# -- bounded memory ----------------------------------------------------------


RSS_SCRIPT = """
import resource, sys
sys.path.insert(0, {src!r})
from repro.workloads.ingest import ingest_trace
result = ingest_trace({path!r}, num_gpus=4, num_cus=64)
assert result.stats.records == {accesses}, result.stats.records
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

#: Peak-RSS bound for ingesting a million-access gzip trace.  The
#: interpreter + numpy alone cost ~60–150 MiB; the chunked reader must
#: not add more than runs-proportional state on top (docs/traces.md).
RSS_BOUND_MIB = 512


@pytest.mark.slow
class TestBoundedMemory:
    def test_million_access_trace_bounded_rss(self, tmp_path):
        path = tmp_path / "k6_big.trc.gz"
        accesses = 1_000_000
        synthesize_k6_trace(path, accesses=accesses, footprint_pages=8192,
                            seed=2)
        src = str(Path(__file__).resolve().parents[2] / "src")
        script = RSS_SCRIPT.format(src=src, path=str(path), accesses=accesses)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, check=True)
        peak_kib = int(proc.stdout.strip())
        assert peak_kib < RSS_BOUND_MIB * 1024, (
            f"peak RSS {peak_kib / 1024:.0f} MiB exceeds the "
            f"{RSS_BOUND_MIB} MiB ingestion bound"
        )
