"""Property-based tests for cache/simulator/workload invariants."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bundle import FileBundle
from repro.core.request import Request, RequestStream
from repro.sim.simulator import SimulationConfig, simulate_trace
from repro.types import FileCatalog
from repro.utils.rng import derive_rng
from repro.workload.distributions import zipf_weights
from repro.workload.trace import Trace

POLICIES = ("lru", "lfu", "fifo", "landlord", "gdsf", "size", "optbundle")


@st.composite
def small_traces(draw):
    n_files = draw(st.integers(3, 8))
    sizes = {f"f{i}": draw(st.integers(1, 20)) for i in range(n_files)}
    n_jobs = draw(st.integers(1, 25))
    bundles = []
    for _ in range(n_jobs):
        k = draw(st.integers(1, min(3, n_files)))
        files = draw(
            st.lists(
                st.integers(0, n_files - 1), min_size=k, max_size=k, unique=True
            )
        )
        bundles.append([f"f{i}" for i in files])
    stream = RequestStream(
        Request(i, FileBundle(b)) for i, b in enumerate(bundles)
    )
    return Trace(FileCatalog(sizes), stream)


@given(small_traces(), st.sampled_from(POLICIES), st.integers(10, 60))
@settings(max_examples=80, deadline=None)
def test_simulation_preserves_cache_invariants(trace, policy, cache_size):
    result = simulate_trace(
        trace,
        SimulationConfig(
            cache_size=cache_size, policy=policy, check_invariants=True
        ),
    )
    m = result.metrics
    assert m.jobs + m.unserviceable == len(trace)
    assert 0.0 <= m.request_hit_ratio <= 1.0
    assert m.byte_miss_ratio >= 0.0
    assert m.bytes_demand_loaded <= m.bytes_requested


@given(small_traces(), st.sampled_from(POLICIES))
@settings(max_examples=40, deadline=None)
def test_big_cache_only_cold_misses(trace, policy):
    """With a cache larger than all files, every re-request is a hit."""
    total = trace.catalog.total_bytes()
    result = simulate_trace(
        trace, SimulationConfig(cache_size=total + 1, policy=policy)
    )
    distinct_bytes = sum(
        trace.catalog.size_of(f) for f in trace.stream.file_ids()
    )
    assert result.metrics.bytes_demand_loaded == distinct_bytes


@given(small_traces())
@settings(max_examples=50, deadline=None)
def test_trace_roundtrip(trace):
    again = Trace.load_lines(trace.dump_lines())
    assert again.bundles() == trace.bundles()
    assert again.catalog.as_dict() == trace.catalog.as_dict()
    assert json.dumps(again.meta) == json.dumps(trace.meta)


@given(st.integers(1, 200), st.floats(0.0, 3.0))
@settings(max_examples=50, deadline=None)
def test_zipf_weights_properties(n, alpha):
    w = zipf_weights(n, alpha)
    assert len(w) == n
    assert abs(w.sum() - 1.0) < 1e-9
    assert all(a >= b - 1e-12 for a, b in zip(w, w[1:]))  # non-increasing


@given(st.integers(0, 2**32 - 1), st.text(max_size=10))
@settings(max_examples=50, deadline=None)
def test_rng_streams_reproducible(seed, name):
    a = derive_rng(seed, name).random(3)
    b = derive_rng(seed, name).random(3)
    assert (a == b).all()


@st.composite
def bundle_sequences(draw):
    n_files = draw(st.integers(3, 7))
    sizes = {f"f{i}": draw(st.integers(1, 12)) for i in range(n_files)}
    n = draw(st.integers(1, 20))
    seq = []
    for _ in range(n):
        k = draw(st.integers(1, min(3, n_files)))
        files = draw(
            st.lists(
                st.integers(0, n_files - 1), min_size=k, max_size=k, unique=True
            )
        )
        seq.append(FileBundle([f"f{i}" for i in files]))
    return sizes, seq


@given(bundle_sequences(), st.integers(15, 60))
@settings(max_examples=60, deadline=None)
def test_planner_invariants_over_random_sequences(data, capacity):
    """OptFileBundle planner: capacity respected, bundle resident after plan."""
    from repro.core.optfilebundle import OptFileBundlePlanner
    from repro.errors import CacheCapacityError

    sizes, seq = data
    planner = OptFileBundlePlanner(capacity, sizes)
    resident: set = set()
    for bundle in seq:
        try:
            plan = planner.plan(bundle, resident, sum(sizes[f] for f in resident))
        except CacheCapacityError:
            assert bundle.size_under(sizes) > capacity
            continue
        resident -= plan.evict
        resident |= plan.load | plan.prefetch
        planner.commit(plan)
        assert bundle.files <= resident
        assert sum(sizes[f] for f in resident) <= capacity
        assert planner.history.resident_view() == resident


@given(bundle_sequences(), st.integers(15, 60))
@settings(max_examples=60, deadline=None)
def test_landlord_credit_invariant(data, capacity):
    """Landlord: effective credits of resident files stay within [0, 1]."""
    from repro.cache.landlord import LandlordPolicy
    from repro.cache.state import CacheState

    sizes, seq = data
    policy = LandlordPolicy()
    cache = CacheState(capacity)
    policy.bind(cache, sizes)
    for bundle in seq:
        if bundle.size_under(sizes) > capacity:
            continue
        missing = cache.missing(bundle)
        policy.on_request(bundle)
        for f in missing:
            cache.load(f, sizes[f])
        policy.on_serviced(bundle, frozenset(missing), not missing)
        for f in cache.residents():
            assert -1e-9 <= policy.credit(f) <= 1.0 + 1e-9


@given(bundle_sequences(), st.integers(20, 60), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_timed_srm_conservation(data, capacity, slots):
    """Timed SRM: all serviceable jobs complete; cache stays within bounds."""
    from repro.core.request import Request, RequestStream
    from repro.grid.srm import SRMConfig, run_timed_simulation
    from repro.types import FileCatalog
    from repro.workload.trace import Trace

    sizes, seq = data
    stream = RequestStream(
        Request(i, b, arrival_time=float(i)) for i, b in enumerate(seq)
    )
    trace = Trace(FileCatalog(sizes), stream)
    result = run_timed_simulation(
        trace,
        SRMConfig(
            cache_size=capacity,
            policy="lru",
            n_drives=2,
            mount_latency=0.5,
            drive_bandwidth=50.0,
            processing_time=0.2,
            service_slots=slots,
        ),
    )
    oversized = sum(1 for b in seq if b.size_under(sizes) > capacity)
    assert result.jobs == len(seq) - oversized
    assert result.unserviceable == oversized
