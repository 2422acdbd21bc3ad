"""Differential test of the Local TLB Tracker's cuckoo partitions.

:class:`LocalTLBTracker` hashes each key once per tracker (the GPU
partitions share one :class:`CuckooHashing`), caches the fingerprint
mixes, and draws cuckoo relocations by rejection sampling over
``getrandbits``.  The oracle below is the plain object model those
shortcuts must reproduce: ``_splitmix64`` on every operation, one filter
per GPU probed separately, and ``Random.choice``/``Random.randrange`` for
the kicks.  Both must agree on every bucket (order included: it decides
future kicks and deletes), every query, :class:`TrackerStats`, and each
partition's :class:`CuckooFilterStats`.

The repo's draws equal ``choice``/``randrange`` because CPython's
private ``Random._randbelow`` redraws ``n.bit_length()`` bits while the
value is ``>= n``.  An interpreter that changes that fails
``test_tracker_matches_object_model`` here, by name; the simulator's own
draws, and so its goldens, do not move.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system import TrackerConfig
from repro.core.tracker import LocalTLBTracker, TrackerStats
from repro.structures import cuckoo_filter
from repro.structures.cuckoo_filter import (
    CuckooFilter,
    CuckooFilterStats,
    CuckooHashing,
    _splitmix64,
)


class OracleFilter:
    """The cuckoo filter as a plain object model."""

    def __init__(self, num_entries, bucket_size, fingerprint_bits, seed):
        self.num_buckets = num_entries // bucket_size
        self.bucket_size = bucket_size
        self.max_kicks = 64
        self.fp_mask = (1 << fingerprint_bits) - 1
        self.buckets = [[] for _ in range(self.num_buckets)]
        self.rng = random.Random(seed)
        self.stats = CuckooFilterStats()

    def _fingerprint(self, pid, vpn):
        fp = (_splitmix64((pid << 48) ^ vpn) >> 40) & self.fp_mask
        return fp if fp != 0 else 1

    def _index_pair(self, pid, vpn, fp):
        i1 = _splitmix64((pid << 48) ^ vpn) % self.num_buckets
        return i1, self._alt_index(i1, fp)

    def _alt_index(self, index, fp):
        return (index ^ _splitmix64(fp)) % self.num_buckets

    def insert(self, pid, vpn):
        fp = self._fingerprint(pid, vpn)
        i1, i2 = self._index_pair(pid, vpn, fp)
        self.stats.insertions += 1
        for index in (i1, i2):
            if len(self.buckets[index]) < self.bucket_size:
                self.buckets[index].append(fp)
                return True
        index = self.rng.choice((i1, i2))
        for _ in range(self.max_kicks):
            slot = self.rng.randrange(self.bucket_size)
            fp, self.buckets[index][slot] = self.buckets[index][slot], fp
            index = self._alt_index(index, fp)
            if len(self.buckets[index]) < self.bucket_size:
                self.buckets[index].append(fp)
                return True
        self.stats.displaced += 1
        return False

    def contains(self, pid, vpn):
        fp = self._fingerprint(pid, vpn)
        i1, i2 = self._index_pair(pid, vpn, fp)
        self.stats.queries += 1
        found = fp in self.buckets[i1] or fp in self.buckets[i2]
        if found:
            self.stats.positives += 1
        return found

    def delete(self, pid, vpn):
        fp = self._fingerprint(pid, vpn)
        i1, i2 = self._index_pair(pid, vpn, fp)
        for index in (i1, i2):
            if fp in self.buckets[index]:
                self.buckets[index].remove(fp)
                self.stats.deletions += 1
                return True
        self.stats.failed_deletions += 1
        return False


class OracleTracker:
    """The tracker as a plain object model: one filter per GPU, each an
    equal share of the budget rounded down to a power-of-two bucket count."""

    def __init__(self, config, num_gpus, seed):
        per_gpu = max(config.bucket_size, config.total_entries // num_gpus)
        buckets = 1
        while buckets * 2 * config.bucket_size <= per_gpu:
            buckets *= 2
        per_gpu = buckets * config.bucket_size
        self.filters = [
            OracleFilter(per_gpu, config.bucket_size, config.fingerprint_bits, seed + g)
            for g in range(num_gpus)
        ]
        self.stats = TrackerStats()

    def register(self, gpu_id, pid, vpn):
        self.stats.registrations += 1
        self.filters[gpu_id].insert(pid, vpn)

    def unregister(self, gpu_id, pid, vpn):
        self.stats.unregistrations += 1
        self.filters[gpu_id].delete(pid, vpn)

    def query(self, pid, vpn):
        self.stats.queries += 1
        positives = [g for g, f in enumerate(self.filters) if f.contains(pid, vpn)]
        if positives:
            self.stats.positives += 1
            if len(positives) > 1:
                self.stats.multi_positives += 1
        return positives

    def clear(self, gpu_id=None):
        for g, filt in enumerate(self.filters):
            if gpu_id is None or g == gpu_id:
                for bucket in filt.buckets:
                    bucket.clear()


#: (total_entries, bucket_size, fingerprint_bits, num_gpus).  Tiny filters
#: over a key domain three times their capacity, so register streams fill
#: both candidate buckets and take the relocation path.  Bucket size 3
#: makes ``randrange(3)`` reject the draw 3; 100 over 3 GPUs is the uneven
#: partition sizing (33 slots rounded down to 32, eight buckets of four),
#: and 36 over 2 GPUs rounds nine buckets of two down to eight.
GEOMETRIES = [
    (8, 1, 4, 2),
    (16, 2, 4, 2),
    (36, 2, 5, 2),
    (12, 3, 4, 2),
    (16, 4, 3, 2),
    (100, 4, 6, 3),
]


@st.composite
def scenarios(draw):
    total, bucket_size, bits, num_gpus = draw(st.sampled_from(GEOMETRIES))
    domain = 3 * total
    # Long streams, mostly registers, rare shootdowns: short or
    # clear-heavy streams never fill a bucket pair, so never reach a kick.
    names = ["register"] * 14 + ["unregister"] * 4 + ["query"] * 4 + [
        "clear", "clear_all"
    ]
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(names),
                st.integers(0, num_gpus - 1),
                st.integers(1, 2),
                st.integers(0, domain),
            ),
            min_size=2 * total,
            max_size=4 * total,
        )
    )
    config = TrackerConfig(
        total_entries=total,
        bucket_size=bucket_size,
        fingerprint_bits=bits,
        kind="cuckoo",
    )
    return config, num_gpus, domain, ops, draw(st.integers(0, 7))


def buckets_of(tracker, gpu_id):
    return [list(bucket) for bucket in tracker._filters[gpu_id]._buckets]


@given(scenario=scenarios())
@settings(max_examples=150, deadline=None)
def test_tracker_matches_object_model(scenario):
    config, num_gpus, domain, ops, seed = scenario
    tracker = LocalTLBTracker(config, num_gpus=num_gpus, seed=seed)
    oracle = OracleTracker(config, num_gpus, seed)
    for op, gpu_id, pid, vpn in ops:
        if op == "query":
            assert tracker.query(pid, vpn) == oracle.query(pid, vpn)
        elif op == "clear":
            tracker.clear(gpu_id)
            oracle.clear(gpu_id)
        elif op == "clear_all":
            tracker.clear()
            oracle.clear()
        else:
            getattr(tracker, op)(gpu_id, pid, vpn)
            getattr(oracle, op)(gpu_id, pid, vpn)
        for g in range(num_gpus):
            assert buckets_of(tracker, g) == oracle.filters[g].buckets
    # Post-state queries agree across the whole key domain.
    for pid in (1, 2):
        for vpn in range(domain + 1):
            assert tracker.query(pid, vpn) == oracle.query(pid, vpn)
    assert tracker.stats == oracle.stats
    for g in range(num_gpus):
        assert tracker._filters[g].stats == oracle.filters[g].stats


def test_partition_sizing():
    # 100 entries over 3 GPUs with bucket size 4 → 32 slots per partition
    # (rounded down to a bucket multiple), all sharing one key geometry.
    config = TrackerConfig(total_entries=100, bucket_size=4,
                           fingerprint_bits=6, kind="cuckoo")
    tracker = LocalTLBTracker(config, num_gpus=3, seed=0)
    assert [f.capacity for f in tracker._filters] == [32, 32, 32]
    assert all(f.hashing is tracker._hashing for f in tracker._filters)
    assert tracker._hashing.num_buckets == 8


@pytest.mark.parametrize(("num_gpus", "buckets"), [(3, 128), (4, 128), (5, 64),
                                                   (6, 64), (8, 64), (16, 32)])
def test_partitions_round_down_to_a_power_of_two(num_gpus, buckets):
    # The paper's 2048-entry budget: 170, 102 and 85 buckets at 3, 5 and
    # 6 GPUs would strand relocated fingerprints, so each partition keeps
    # the largest power of two that fits its share.
    tracker = LocalTLBTracker(TrackerConfig(), num_gpus=num_gpus, seed=0)
    assert tracker._hashing.num_buckets == buckets
    assert all(f.num_buckets == buckets for f in tracker._filters)


@pytest.mark.parametrize("num_buckets", [0, 3, 6, 170])
def test_non_power_of_two_bucket_count_rejected(num_buckets):
    with pytest.raises(ValueError, match="power of two"):
        CuckooHashing(num_buckets, fingerprint_bits=5)
    if num_buckets:
        with pytest.raises(ValueError, match="power of two"):
            CuckooFilter(num_entries=2 * num_buckets, bucket_size=2)


@st.composite
def filled_partitions(draw):
    """A tracker geometry plus a stream of distinct keys that fills one
    partition to 95% of its slots."""
    num_gpus = draw(st.integers(1, 16))
    bucket_size = draw(st.integers(1, 8))
    total = draw(st.integers(bucket_size * num_gpus, 4096))
    bits = draw(st.integers(2, 12))
    config = TrackerConfig(total_entries=total, bucket_size=bucket_size,
                           fingerprint_bits=bits, kind="cuckoo")
    gpu = draw(st.integers(0, num_gpus - 1))
    return config, num_gpus, gpu, draw(st.integers(0, 7))


@given(case=filled_partitions())
@settings(max_examples=120, deadline=None)
def test_inserted_keys_stay_findable_unless_displaced(case):
    # Partial-key cuckoo hashing guarantees every stored fingerprint sits
    # in one of its key's two buckets; only a relocation chain that runs
    # out of kicks (``displaced``) may lose a key.
    config, num_gpus, gpu, seed = case
    tracker = LocalTLBTracker(config, num_gpus=num_gpus, seed=seed)
    partition = tracker._filters[gpu]
    keys = [(1 + vpn % 3, vpn) for vpn in range(partition.capacity * 95 // 100)]
    for pid, vpn in keys:
        tracker.register(gpu, pid, vpn)
    lost = sum(gpu not in tracker.query(pid, vpn) for pid, vpn in keys)
    assert lost <= partition.stats.displaced


def test_each_key_and_fingerprint_is_mixed_once(monkeypatch):
    # The object model mixed the key twice per filter per operation, and
    # each fingerprint again per index pair; the shared geometry mixes
    # each key once and each fingerprint once, for the tracker's lifetime.
    calls = []

    def counting(x):
        calls.append(x)
        return _splitmix64(x)

    monkeypatch.setattr(cuckoo_filter, "_splitmix64", counting)
    tracker = LocalTLBTracker(TrackerConfig(), num_gpus=4, seed=0)
    keys = [(pid, vpn) for pid in (1, 2) for vpn in range(300)]
    for _ in range(3):
        for g, (pid, vpn) in enumerate(keys):
            tracker.register(g % 4, pid, vpn)
            tracker.query(pid, vpn)
            tracker.unregister(g % 4, pid, vpn)
    fingerprints = {tracker._hashing.locate(pid, vpn)[0] for pid, vpn in keys}
    assert len(calls) == len(keys) + len(fingerprints)


def test_relocation_never_calls_choice_or_randrange(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("tracker drew through Random.choice/randrange")

    monkeypatch.setattr(random.Random, "choice", forbidden)
    monkeypatch.setattr(random.Random, "randrange", forbidden)
    config = TrackerConfig(total_entries=16, bucket_size=3,
                           fingerprint_bits=4, kind="cuckoo")
    tracker = LocalTLBTracker(config, num_gpus=2, seed=0)
    for vpn in range(200):
        tracker.register(vpn % 2, 1, vpn)
    assert sum(f.stats.displaced for f in tracker._filters) > 0
