"""Unit tests for replica catalog and site selection."""

import pytest

from repro.errors import ConfigError, UnknownFileError
from repro.grid.network import NetworkLink
from repro.grid.site import DataGridSite, ReplicaCatalog
from repro.grid.srm import SRMConfig, run_timed_simulation
from repro.sim.engine import EventEngine
from repro.core.bundle import FileBundle
from repro.core.request import Request, RequestStream
from repro.types import FileCatalog
from repro.workload.trace import Trace


def two_sites(engine):
    slow = DataGridSite.build(
        engine,
        "slow",
        mount_latency=100.0,
        drive_bandwidth=10.0,
        link=NetworkLink(bandwidth=10.0, latency=1.0),
    )
    fast = DataGridSite.build(
        engine,
        "fast",
        mount_latency=1.0,
        drive_bandwidth=1000.0,
        link=NetworkLink(bandwidth=1000.0, latency=0.01),
    )
    return slow, fast


class TestReplicaCatalog:
    def test_duplicate_site_rejected(self):
        e = EventEngine()
        rc = ReplicaCatalog()
        slow, _ = two_sites(e)
        rc.add_site(slow)
        with pytest.raises(ConfigError):
            rc.add_site(slow)

    def test_replica_requires_known_site(self):
        rc = ReplicaCatalog()
        with pytest.raises(ConfigError):
            rc.add_replica("f", "ghost")

    def test_locations_and_idempotent_add(self):
        e = EventEngine()
        rc = ReplicaCatalog()
        slow, fast = two_sites(e)
        rc.add_site(slow)
        rc.add_site(fast)
        rc.add_replica("f", "slow")
        rc.add_replica("f", "slow")
        assert rc.locations("f") == ["slow"]
        assert rc.locations("ghost") == []

    def test_best_source_picks_fast_site(self):
        e = EventEngine()
        rc = ReplicaCatalog()
        slow, fast = two_sites(e)
        rc.add_site(slow)
        rc.add_site(fast)
        rc.add_replica("f", "slow")
        rc.add_replica("f", "fast")
        assert rc.best_source("f", 1000).name == "fast"

    def test_best_source_single_location(self):
        e = EventEngine()
        rc = ReplicaCatalog()
        slow, fast = two_sites(e)
        rc.add_site(slow)
        rc.add_site(fast)
        rc.add_replica("f", "slow")
        assert rc.best_source("f", 10).name == "slow"

    def test_no_replica_raises(self):
        rc = ReplicaCatalog()
        with pytest.raises(UnknownFileError):
            rc.best_source("f", 10)

    def test_site_lookup(self):
        e = EventEngine()
        rc = ReplicaCatalog()
        slow, _ = two_sites(e)
        rc.add_site(slow)
        assert rc.site("slow") is slow
        with pytest.raises(ConfigError):
            rc.site("nope")


class TestReplicatedSRM:
    def test_replicated_run_completes(self):
        sizes = {"a": 100, "b": 100}
        stream = RequestStream(
            [
                Request(0, FileBundle(["a"]), arrival_time=0.0),
                Request(1, FileBundle(["a", "b"]), arrival_time=1.0),
            ]
        )
        trace = Trace(FileCatalog(sizes), stream)

        engine = EventEngine()
        # run_timed_simulation builds its own engine, so construct replicas
        # bound to a fresh engine through the function under test instead:
        from repro.grid.srm import StorageResourceManager

        rc = ReplicaCatalog()
        slow, fast = two_sites(engine)
        rc.add_site(slow)
        rc.add_site(fast)
        for f in sizes:
            rc.add_replica(f, "slow")
            rc.add_replica(f, "fast")
        srm = StorageResourceManager(
            engine,
            sizes,
            SRMConfig(cache_size=500, policy="lru", processing_time=0.1),
            replicas=rc,
        )
        for request in trace:
            engine.schedule_at(request.arrival_time, lambda r=request: srm.submit(r))
        engine.run()
        assert srm.result().jobs == 2
        # the fast site should have served the retrievals
        assert fast.mss.retrievals == 2
        assert slow.mss.retrievals == 0
