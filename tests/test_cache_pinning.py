"""Unit tests for cache pinning and reservations (SRM semantics)."""

import pytest

from repro.cache.lru import LRUPolicy
from repro.cache.state import CacheState
from repro.core.bundle import FileBundle
from repro.errors import CacheCapacityError, ConfigError, PolicyError, UnknownFileError


class TestPinning:
    def test_pin_blocks_eviction(self):
        c = CacheState(10)
        c.load("a", 5)
        c.pin("a")
        with pytest.raises(PolicyError):
            c.evict("a")

    def test_unpin_allows_eviction(self):
        c = CacheState(10)
        c.load("a", 5)
        c.pin("a")
        c.unpin("a")
        assert c.evict("a") == 5

    def test_pins_are_reference_counted(self):
        c = CacheState(10)
        c.load("a", 5)
        c.pin("a")
        c.pin("a")
        c.unpin("a")
        assert c.is_pinned("a")
        with pytest.raises(PolicyError):
            c.evict("a")
        c.unpin("a")
        assert not c.is_pinned("a")

    def test_pin_requires_resident(self):
        with pytest.raises(UnknownFileError):
            CacheState(10).pin("ghost")

    def test_unpin_requires_pinned(self):
        c = CacheState(10)
        c.load("a", 1)
        with pytest.raises(UnknownFileError):
            c.unpin("a")

    def test_pinned_files_view(self):
        c = CacheState(10)
        c.load("a", 1)
        c.load("b", 1)
        c.pin("b")
        assert c.pinned_files() == {"b"}


class TestReservations:
    def test_reserve_release_cycle(self):
        c = CacheState(10)
        c.reserve(6)
        assert c.reserved == 6
        assert c.available == 4
        c.release(6)
        assert c.available == 10

    def test_reserve_respects_capacity(self):
        c = CacheState(10)
        c.load("a", 5)
        c.reserve(5)
        with pytest.raises(CacheCapacityError):
            c.reserve(1)

    def test_release_validation(self):
        c = CacheState(10)
        c.reserve(3)
        with pytest.raises(ConfigError):
            c.release(4)
        with pytest.raises(ConfigError):
            c.release(-1)

    def test_negative_reserve_rejected(self):
        with pytest.raises(ConfigError):
            CacheState(10).reserve(-1)

    def test_loads_may_consume_reserved_space(self):
        # reserve() limits *other* reservations; the reserving job's own
        # load consumes the physical free space as usual.
        c = CacheState(10)
        c.reserve(10)
        c.load("a", 10)
        assert c.used == 10


class TestPolicyRespectsPins:
    def test_per_file_policy_skips_pinned_victims(self):
        sizes = {f"f{i}": 10 for i in range(5)}
        p, c = LRUPolicy(), CacheState(30)
        p.bind(c, sizes)
        for n in ("f0", "f1", "f2"):
            missing = c.missing(FileBundle([n]))
            p.on_request(FileBundle([n]))
            for f in missing:
                c.load(f, sizes[f])
            p.on_serviced(FileBundle([n]), frozenset(missing), False)
        c.pin("f0")  # the LRU victim is pinned
        dec = p.on_request(FileBundle(["f3"]))
        assert dec.evicted == {"f1"}
        assert "f0" in c

    def test_all_pinned_raises(self):
        sizes = {"a": 10, "b": 10}
        p, c = LRUPolicy(), CacheState(10)
        p.bind(c, sizes)
        c.load("a", 10)
        c.pin("a")
        with pytest.raises(PolicyError):
            p.on_request(FileBundle(["b"]))

    @pytest.mark.parametrize("name", ["lru", "landlord", "optbundle"])
    def test_blocked_start_changes_nothing(self, name):
        from repro.cache.registry import make_policy

        # f0 is evictable, but f1+f2 are pinned: 20 bytes of room for a
        # 30-byte bundle, so the start is blocked before any eviction
        sizes = {f"f{i}": 10 for i in range(6)}
        p, c = make_policy(name), CacheState(40)
        p.bind(c, sizes)
        for n in ("f0", "f1", "f2"):
            b = FileBundle([n])
            missing = c.missing(b)
            p.on_request(b)
            for f in missing:
                c.load(f, sizes[f])
            p.on_serviced(b, frozenset(missing), False)
        c.pin("f1")
        c.pin("f2")
        blocked = FileBundle(["f3", "f4", "f5"])
        assert p.blocked_by_pins(blocked)
        before = c.export_state()
        with pytest.raises((PolicyError, CacheCapacityError)):
            p.on_request(blocked)
        assert c.export_state() == before
        # an oversized bundle is unserviceable, not blocked
        assert not p.blocked_by_pins(FileBundle([f"f{i}" for i in range(6)]))
        c.unpin("f1")
        c.unpin("f2")
        assert not p.blocked_by_pins(blocked)
        assert len(p.on_request(blocked).evicted) == 2

    def test_optbundle_respects_pins(self):
        from repro.cache.optbundle_policy import OptFileBundlePolicy

        sizes = {f"f{i}": 10 for i in range(5)}
        p, c = OptFileBundlePolicy(), CacheState(30)
        p.bind(c, sizes)
        for n in ("f0", "f1", "f2"):
            b = FileBundle([n])
            missing = c.missing(b)
            p.on_request(b)
            for f in missing:
                c.load(f, sizes[f])
            p.on_serviced(b, frozenset(missing), False)
        c.pin("f0")
        c.pin("f1")
        dec = p.on_request(FileBundle(["f3"]))
        assert dec.evicted == {"f2"}


class TestMultiSlotSRM:
    def test_processing_overlaps_staging(self):
        """With 2 slots, job2's staging overlaps job1's compute phase."""
        from repro.core.request import Request, RequestStream
        from repro.grid.network import NetworkLink
        from repro.grid.srm import SRMConfig, run_timed_simulation
        from repro.types import FileCatalog
        from repro.workload.trace import Trace

        sizes = {"a": 100, "b": 100, "c": 100}
        stream = RequestStream(
            [
                Request(0, FileBundle(["a"]), arrival_time=0.0),
                Request(1, FileBundle(["b"]), arrival_time=0.0),
            ]
        )
        trace = Trace(FileCatalog(sizes), stream)

        def run(slots):
            return run_timed_simulation(
                trace,
                SRMConfig(
                    cache_size=300,
                    policy="lru",
                    n_drives=2,
                    mount_latency=1.0,
                    drive_bandwidth=100.0,
                    link=NetworkLink(bandwidth=100.0, latency=0.0),
                    processing_time=10.0,
                    service_slots=slots,
                ),
            )

        serial = run(1)
        overlapped = run(2)
        assert overlapped.makespan < serial.makespan
        assert overlapped.jobs == serial.jobs == 2

    def test_pins_defer_conflicting_starts(self):
        """A job blocked by pins waits and then completes correctly."""
        from repro.core.request import Request, RequestStream
        from repro.grid.network import NetworkLink
        from repro.grid.srm import SRMConfig, run_timed_simulation
        from repro.types import FileCatalog
        from repro.workload.trace import Trace

        sizes = {"a": 100, "b": 100, "c": 100}
        stream = RequestStream(
            [
                Request(0, FileBundle(["a", "b"]), arrival_time=0.0),
                Request(1, FileBundle(["c"]), arrival_time=0.1),
            ]
        )
        trace = Trace(FileCatalog(sizes), stream)
        result = run_timed_simulation(
            trace,
            SRMConfig(
                cache_size=200,  # job2 must evict, but a,b are pinned
                policy="lru",
                n_drives=2,
                mount_latency=1.0,
                drive_bandwidth=100.0,
                link=NetworkLink(bandwidth=100.0, latency=0.0),
                processing_time=5.0,
                service_slots=2,
            ),
        )
        assert result.jobs == 2
