"""Tests for the streaming k6/mase trace-ingestion pipeline.

Covers the docs/traces.md contract: lossless round-trips (property-based),
typed malformed-input diagnostics, deterministic GPU splitting, stable
content digests, chunk-size independence, and the bounded-memory
guarantee (a million-access gzip trace ingested in a subprocess must hold
its peak RSS under a fixed bound).
"""

import gzip
import hashlib
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.presets import baseline_config
from repro.workloads import ingest
from repro.workloads.errors import TraceFormatError
from repro.workloads.ingest import (
    SPLIT_POLICIES,
    TraceChunk,
    _parse_block,
    _parse_lines,
    _text_lines,
    assign_gpus,
    default_trace_name,
    ingest_trace,
    iter_trace_chunks,
    sniff_format,
    synthesize_k6_trace,
    trace_digest,
    write_k6_trace,
)
from repro.workloads.trace_files import _FORMATS, _open_text


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

    @pytest.mark.parametrize("chunk_records", [None, 10, 3])
    def test_lines_count_record_less_chunks(self, tmp_path, chunk_records):
        path = write_lines(
            tmp_path / "k6_tail.trc",
            ["0x1000 P_MEM_RD 5", "0x2000 P_MEM_WR 6"]
            + [f"# note {i}" for i in range(30)] + [""] * 5,
        )
        kwargs = {} if chunk_records is None else {"chunk_records": chunk_records}
        stats = ingest_trace(path, **kwargs).stats
        assert stats.records == 2
        assert stats.lines == 37


# -- the array parser against the per-line reference -----------------------


def reference_chunks(path, *, fmt, page_shift, chunk_records):
    """The per-line reference: text-mode lines, ``chunk_records`` at a
    time, each through the per-line parser."""
    line_no = 0
    with _open_text(path) as handle:
        while True:
            try:
                lines = list(islice(handle, chunk_records))
            except (EOFError, OSError) as exc:
                raise TraceFormatError(
                    "truncated or corrupt compressed trace",
                    path=str(path), line=line_no + 1, cause=exc,
                ) from exc
            if not lines:
                return
            vpns, writes, cycles = _parse_lines(
                lines, path=path, fmt=fmt, page_shift=page_shift, line_no=line_no
            )
            line_no += len(lines)
            if vpns:
                yield TraceChunk(
                    np.asarray(vpns, dtype=np.int64),
                    np.asarray(writes, dtype=bool),
                    np.asarray(cycles, dtype=np.int64),
                    last_line=line_no,
                )


def outcome(chunks):
    """Every chunk as plain data up to the first error, then the error."""
    seen = []
    try:
        for chunk in chunks:
            assert chunk.vpns.dtype == np.int64 and chunk.cycles.dtype == np.int64
            assert chunk.writes.dtype == bool
            seen.append((chunk.vpns.tolist(), chunk.writes.tolist(),
                         chunk.cycles.tolist(), chunk.last_line))
    except TraceFormatError as exc:
        return seen, (str(exc), exc.line, exc.text)
    return seen, None


@st.composite
def numeral(draw, *, hex_ok, wide):
    """A non-negative numeral: decimal, or ``0x``/``0X`` hex in mixed case,
    with leading zeros; if ``wide``, now and then past int64."""
    narrow = st.integers(0, 1 << 40)
    value = draw(st.one_of(narrow, st.integers(0, (1 << 64) - 1)) if wide else narrow)
    zeros = "0" * draw(st.integers(0, 3))
    if hex_ok and draw(st.booleans()):
        digits = zeros + format(value, "x")
        flips = draw(st.lists(st.booleans(), min_size=len(digits), max_size=len(digits)))
        digits = "".join(c.upper() if up else c for c, up in zip(digits, flips))
        return draw(st.sampled_from(["0x", "0X"])) + digits
    return zeros + str(value)


SPACE = st.text(alphabet=" \t", min_size=1, max_size=3)


@st.composite
def record_line(draw, fmt, wide):
    """A well-formed k6/mase record with spaces or tabs around its fields."""
    fields = [draw(numeral(hex_ok=True, wide=wide)),
              draw(st.sampled_from(sorted(_FORMATS[fmt]))),
              draw(numeral(hex_ok=False, wide=wide))]
    lead = draw(st.sampled_from(["", " ", "\t"]))
    trail = draw(st.sampled_from(["", " ", "\t "]))
    return (lead + draw(SPACE).join(fields) + trail).encode()


#: Lines outside the array grammar; ``CMD`` stands for a command of the
#: trace's format.
OTHER_LINES = [
    b"# comment", b"; note", b"// also", b"", b"   ", b"\t",
    b"0x1000 CMD 5\r0x2000 CMD 6",                    # a lone \r ends a line
    b"+4096 CMD 7", b"1_000 CMD 8", b"0x_1f CMD 9",    # int() accepts these
    b"0x10 CMD 1_0",
    b"0x10\xc2\xa0CMD 5", b"0x10\x1fCMD 5",           # str.split() splits here
    b"0x10 CMD 5 \xc3\xa9", b"\xff\xfe", b"0x10 \x00CMD 5",
    b"0x10 CMD", b"0x10 CMD 5 6",
    b"0x10 P_MEM_EAT 5", b"0x10 READ 5", b"0x10 WRITE 5", b"0x10 P_MEM_RD 5",
    b"0x1g CMD 5", b"12ab CMD 5", b"0x CMD 5", b"0x10 CMD 0x5",
    b"-5 CMD 5", b"0x10 CMD -1", b"-0 CMD 0",
    b"12345678901234567890 CMD 5", b"0x10 CMD 12345678901234567890",
    b"0x00000000000000000001000 CMD 0000000000000000000005",
]


def other_line(fmt):
    command = sorted(_FORMATS[fmt])[0].encode()
    return st.sampled_from([line.replace(b"CMD", command) for line in OTHER_LINES])


@st.composite
def trace_text(draw, fmt, *, other, wide=True):
    lines = draw(st.lists(record_line(fmt, wide), max_size=30))
    if other:
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(other_line(fmt)))
    newline = draw(st.sampled_from([b"\n", b"\r\n"]))
    text = newline.join(lines)
    if lines and draw(st.booleans()):
        text += newline
    return text


def write_bytes(path: Path, data: bytes, compress: bool) -> Path:
    if compress:
        with gzip.GzipFile(path, "wb", mtime=0) as handle:
            handle.write(data)
    else:
        path.write_bytes(data)
    return path


class TestParsePaths:
    """``iter_trace_chunks`` parses chunks as arrays and falls back to the
    per-line parser; both must match a text-mode per-line reference."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), fmt=st.sampled_from(["k6", "mase"]),
           other=st.booleans(), compress=st.booleans(),
           chunk_records=st.sampled_from([1, 2, 3, 7, 64]),
           page_shift=st.sampled_from([0, 12]),
           read_bytes=st.sampled_from([1, 2, 5, 64, 1 << 16]))
    def test_matches_per_line_reference(self, data, fmt, other, compress, chunk_records,
                                        page_shift, read_bytes, tmp_path_factory):
        text = data.draw(trace_text(fmt, other=other))
        path = write_bytes(tmp_path_factory.mktemp("paths") / "t.trc", text, compress)
        if compress and data.draw(st.booleans(), label="truncate"):
            stored = path.read_bytes()
            path.write_bytes(stored[: data.draw(st.integers(0, len(stored) - 1))])
        kwargs = {"fmt": fmt, "page_shift": page_shift, "chunk_records": chunk_records}
        # Small reads split blocks, "\r\n" pairs and the gzip stream anywhere.
        with mock.patch.object(ingest, "_READ_BYTES", read_bytes):
            got = outcome(iter_trace_chunks(path, **kwargs))
        assert got == outcome(reference_chunks(path, **kwargs))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), fmt=st.sampled_from(["k6", "mase"]))
    def test_plain_records_take_the_array_path(self, data, fmt):
        text = data.draw(trace_text(fmt, other=False, wide=False))
        lines = _text_lines(text)
        expected = _parse_lines(lines, path=Path("t"), fmt=fmt, page_shift=12, line_no=0)
        parsed = _parse_block(text, fmt, 12)
        assert parsed is not None
        assert [column.tolist() for column in parsed] == list(expected)


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

    @pytest.mark.parametrize("line", [
        "0x100000000000000000000 P_MEM_RD 5",     # its page needs 69 bits
        "0x1000 P_MEM_RD 9223372036854775808",    # cycle 2**63
    ])
    def test_number_beyond_int64_rejected(self, tmp_path, line):
        path = write_lines(tmp_path / "k6_big.trc", ["0x1000 P_MEM_RD 4", line])
        with pytest.raises(TraceFormatError, match="int64") as excinfo:
            ingest_trace(path)
        assert excinfo.value.line == 2
        assert excinfo.value.text == line

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

    def test_synthesised_records_are_pinned(self, tmp_path):
        # The decompressed text of a seeded synthesis is pinned, so a
        # faster writer (or another gzip level) cannot change the records.
        path = synthesize_k6_trace(tmp_path / "k6.trc.gz", accesses=5_000, seed=7)
        text = gzip.decompress(path.read_bytes())
        assert hashlib.sha256(text).hexdigest() == (
            "0a5b4a4932ff9cf48e2f1e8915df267d9a5396a0cf0b3687785aa47bb5964f26"
        )

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
        assert small.stats.to_dict() == large.stats.to_dict()
        assert np.array_equal(small.workload.footprints[1], large.workload.footprints[1])


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
