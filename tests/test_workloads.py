"""Unit tests for workload generators and the suite catalog."""

import hashlib

import pytest

from repro.sim import CACHELINE, Machine, spr_config
from repro.sim.address import PAGE_SIZE
from repro.workloads import (
    APPLICATIONS,
    GUPS,
    HotColdAccess,
    MBW,
    PhasedWorkload,
    PointerChase,
    RandomAccess,
    SequentialStream,
    SoftwarePrefetchStream,
    Workload,
    ZipfAccess,
    build_app,
    suite_names,
    throttled,
)


def addresses(workload):
    return [op.address for op in workload.ops()]


# sha256 of each generator's op stream at fixed inputs: address, flags
# and gap of every op together with their Python types.  num_ops of 4100
# and 5000 cross a 4096-op batch; the first input repeats each line three
# times and wraps its working set.
VPN = 1 << 20
PINNED_STREAMS = {
    "seq-apl3-wrap": (
        lambda: SequentialStream(
            num_ops=5000, working_set_bytes=1 << 16, read_ratio=0.7,
            gap=1.5, accesses_per_line=3, seed=4, vpn_base=VPN),
        5000, "e2dfdc797d34f3a94d3a66f4dd4c2f62083c020a96752bdbfa3eb7c66b2675b0"),
    "seq-stride": (
        lambda: SequentialStream(num_ops=37, stride=256, read_ratio=0.5,
                                 seed=2, vpn_base=VPN),
        37, "80415179dda7930a3065db38f43f9b46b6612071e633bf7d3218555e3cdebb49"),
    "random": (
        lambda: RandomAccess(num_ops=5000, working_set_bytes=1 << 20,
                             read_ratio=0.8, seed=7, vpn_base=VPN),
        5000, "4bf0dbb12f27a6f888417e80ca946d0b07a0646c29a231340d711b54a22f3d4a"),
    "random-dependent": (
        lambda: RandomAccess(num_ops=4100, working_set_bytes=1 << 18,
                             read_ratio=0.6, dependent=True, seed=9,
                             vpn_base=VPN),
        4100, "4244fa65bc85eb76e36da8d1fd6a9cd4697bbd675a479e0dc38d5a70827affba"),
    "chase": (
        lambda: PointerChase(num_ops=300, working_set_bytes=1 << 18, seed=3,
                             vpn_base=VPN),
        300, "e6fb2645d73bf962b446b14b9a4c758787a193127dc7ee7f3705b1a3ce4c7f42"),
    "zipf": (
        lambda: ZipfAccess(num_ops=5000, working_set_bytes=1 << 20,
                           theta=0.8, read_ratio=0.9, seed=5, vpn_base=VPN),
        5000, "0b793b3b1c495d99696d7a515e62d41e97f0c5919ecd43d475f9f36f2f05b8c6"),
    "hotcold": (
        lambda: HotColdAccess(num_ops=4100, working_set_bytes=3 << 16,
                              seed=6, vpn_base=VPN),
        4100, "8d35e66f159d5599534a5961dd8159a141ea4ae6f183ee4b779f125edd34c124"),
    "swpf": (
        lambda: SoftwarePrefetchStream(
            num_ops=5000, working_set_bytes=1 << 20, prefetch_distance_ops=8,
            seed=8, vpn_base=VPN),
        9992, "6764a12841691266be069820d850039adeb4c0637be960985ea10f60f9aeb1f1"),
}


def op_stream_digest(ops):
    digest = hashlib.sha256()
    count = 0
    for op in ops:
        fields = (op.address, op.is_store, op.gap, op.dependent,
                  op.software_prefetch)
        digest.update(repr([(type(v).__name__, v) for v in fields]).encode())
        count += 1
    return count, digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
def test_op_stream_is_pinned(name):
    make, count, sha = PINNED_STREAMS[name]
    workload = make()
    assert op_stream_digest(workload.ops()) == (count, sha)
    # What the simulator runs: the same ops, replayed from a reseed.
    assert op_stream_digest(iter(workload)) == (count, sha)


def test_streams_are_deterministic():
    a = SequentialStream(num_ops=100, seed=5)
    b = SequentialStream(num_ops=100, seed=5, vpn_base=a.vpn_base)
    assert [
        (op.address, op.is_store) for op in a.ops()
    ] == [(op.address, op.is_store) for op in b.ops()]


def test_stream_replays_identically():
    w = RandomAccess(num_ops=50, seed=9)
    first = addresses(w)
    second = addresses(w)
    assert first == second


def test_sequential_addresses_advance_by_stride():
    w = SequentialStream(num_ops=10, stride=128, read_ratio=1.0)
    addrs = addresses(w)
    for a, b in zip(addrs, addrs[1:]):
        assert b - a == 128


def test_addresses_stay_inside_working_set():
    for workload in (
        SequentialStream(num_ops=300, working_set_bytes=1 << 16),
        RandomAccess(num_ops=300, working_set_bytes=1 << 16),
        ZipfAccess(num_ops=300, working_set_bytes=1 << 16),
        HotColdAccess(num_ops=300, working_set_bytes=1 << 16),
    ):
        base = workload.base_address
        for address in addresses(workload):
            assert base <= address < base + workload.working_set_bytes


def test_read_ratio_respected():
    w = RandomAccess(num_ops=2000, read_ratio=0.7, seed=3)
    stores = sum(op.is_store for op in w.ops())
    assert 0.2 < stores / 2000 < 0.4


def test_pointer_chase_is_dependent_loads():
    w = PointerChase(num_ops=50)
    ops = list(w.ops())
    assert all(op.dependent for op in ops)
    assert not any(op.is_store for op in ops)


def test_zipf_is_skewed():
    w = ZipfAccess(num_ops=5000, working_set_bytes=1 << 22, theta=0.99, seed=1)
    from collections import Counter
    counts = Counter(op.address for op in w.ops())
    top_share = sum(c for _a, c in counts.most_common(50)) / 5000
    assert top_share > 0.3  # heavy head


def test_hotcold_concentrates_on_hot_set():
    w = HotColdAccess(
        num_ops=4000, working_set_bytes=1 << 20, hot_fraction=0.25,
        hot_probability=0.9, seed=2,
    )
    hot_limit = w.base_address + (1 << 18)
    hot = sum(1 for a in addresses(w) if a < hot_limit)
    assert hot / 4000 > 0.8


def test_swpf_stream_emits_prefetches_ahead():
    w = SoftwarePrefetchStream(num_ops=100, prefetch_distance_ops=4)
    ops = list(w.ops())
    prefetches = [op for op in ops if op.software_prefetch]
    loads = [op for op in ops if not op.software_prefetch]
    assert len(loads) == 100
    assert len(prefetches) == 96
    # Each prefetch address appears later as a demand load.
    demand_addrs = {op.address for op in loads}
    assert all(op.address in demand_addrs for op in prefetches)


def test_phased_workload_concatenates():
    p1 = SequentialStream(name="p1", num_ops=10)
    p2 = RandomAccess(name="p2", num_ops=15)
    w = PhasedWorkload("combo", [p1, p2])
    assert w.num_ops == 25
    assert len(list(w.ops())) == 25
    # Phases share the parent's region.
    assert p1.vpn_base == w.vpn_base == p2.vpn_base


def test_throttled_stretches_gaps():
    base = SequentialStream(num_ops=20, gap=2.0)
    slow = throttled(base, 0.5)
    base_gaps = [op.gap for op in base.ops()]
    slow_gaps = [op.gap for op in slow.ops()]
    assert all(s > b for s, b in zip(slow_gaps, base_gaps))
    with pytest.raises(ValueError):
        throttled(base, 0.0)


def test_install_binds_all_pages():
    m = Machine(spr_config())
    w = SequentialStream(num_ops=10, working_set_bytes=3 * PAGE_SIZE)
    w.install(m, m.cxl_node.node_id)
    for i in range(w.num_pages):
        node = m.address_space.page_node(w.vpn_base + i)
        assert node is not None and node.node_id == m.cxl_node.node_id


def test_install_interleaved_ratio():
    m = Machine(spr_config())
    w = SequentialStream(num_ops=10, working_set_bytes=100 * PAGE_SIZE)
    w.install_interleaved(m, m.local_node.node_id, m.cxl_node.node_id, 0.8)
    local = sum(
        1
        for i in range(w.num_pages)
        if m.address_space.page_node(w.vpn_base + i).node_id
        == m.local_node.node_id
    )
    assert local == 80


def test_distinct_workloads_get_distinct_regions():
    a = SequentialStream(num_ops=1)
    b = SequentialStream(num_ops=1)
    assert a.vpn_base != b.vpn_base


def test_workload_validation():
    with pytest.raises(ValueError):
        SequentialStream(num_ops=0)
    with pytest.raises(ValueError):
        RandomAccess(working_set_bytes=0)
    with pytest.raises(ValueError):
        SequentialStream(num_ops=1, read_ratio=1.5)


# -- catalog -----------------------------------------------------------------


def test_catalog_covers_all_suites():
    suites = {spec.suite for spec in APPLICATIONS.values()}
    assert suites == {"SPEC CPU2017", "PARSEC", "SPLASH2X", "GAPBS", "YCSB"}
    assert len(APPLICATIONS) >= 70


def test_every_app_builds_and_generates():
    for name in suite_names():
        workload = build_app(name, num_ops=30)
        ops = list(workload.ops())
        # SW-prefetch apps interleave hint ops on top of the demand stream.
        demand = [op for op in ops if not op.software_prefetch]
        assert len(demand) == 30, name


def test_build_app_unknown_raises():
    with pytest.raises(KeyError):
        build_app("999.nonexistent")


def test_working_sets_scale_with_table6():
    lbm = APPLICATIONS["519.lbm_r"]
    leela = APPLICATIONS["541.leela_r"]
    assert lbm.working_set_bytes() > leela.working_set_bytes()


def test_gups_and_mbw_defaults():
    g = GUPS(num_ops=100)
    stores = sum(op.is_store for op in g.ops())
    assert 20 <= stores <= 80  # read-modify-write mix
    m = MBW(num_ops=100)
    assert sum(op.is_store for op in m.ops()) > 20
