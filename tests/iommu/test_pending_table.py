"""Unit tests for the pending-request table."""

import pytest

from repro.gpu.ats import ATSRequest
from repro.iommu.pending_table import PendingTable
from repro.structures.tlb import pack_key

KEY = pack_key(1, 5)


def req(gpu=0, pid=1, vpn=5):
    return ATSRequest(gpu_id=gpu, pid=pid, vpn=vpn, issue_time=0)


def test_create_and_get():
    table = PendingTable()
    entry = table.create(KEY, req(), 0)
    assert table.get(KEY) is entry
    assert KEY in table
    assert len(table) == 1


def test_double_create_rejected():
    table = PendingTable()
    table.create(KEY, req(), 0)
    with pytest.raises(KeyError, match=r"\(1, 5\)"):
        table.create(KEY, req(gpu=1), 0)


def test_maybe_remove_requires_served_and_resolved():
    table = PendingTable()
    entry = table.create(KEY, req(), 0)
    entry.walk_pending = True
    table.maybe_remove(entry)
    assert KEY in table  # not served
    entry.served = True
    table.maybe_remove(entry)
    assert KEY in table  # walk still in flight
    entry.walk_pending = False
    table.maybe_remove(entry)
    assert KEY not in table


def test_resolved_property():
    table = PendingTable()
    entry = table.create(KEY, req(), 0)
    assert entry.resolved
    entry.remote_pending = True
    assert not entry.resolved
    entry.remote_pending = False
    entry.fault_pending = True
    assert not entry.resolved


def test_diagnostics_describe_the_live_entry():
    table = PendingTable()
    first = table.create(KEY, req(), 7)
    first.served = True
    table.maybe_remove(first)
    table.create(KEY, req(), 9)
    assert table.describe() == [
        {
            "key": (1, 5),
            "waiters": 1,
            "walk_pending": False,
            "remote_pending": False,
            "fault_pending": False,
            "served": False,
            "created_at": 9,
        }
    ]
