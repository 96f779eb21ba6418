"""Unit tests for the address space and page migration."""

import pytest

from repro.sim.address import (
    AddressSpace,
    NodeKind,
    NumaNode,
    PAGE_SIZE,
    build_address_space,
)

GIB = 1 << 30


def two_node_space():
    return AddressSpace(
        [
            NumaNode(0, NodeKind.LOCAL_DDR, 0, GIB),
            NumaNode(1, NodeKind.CXL, GIB, GIB),
        ]
    )


def test_node_lookup_by_address():
    space = two_node_space()
    assert space.node_of(0).node_id == 0
    assert space.node_of(GIB - 1).node_id == 0
    assert space.node_of(GIB).node_id == 1
    assert space.is_cxl(GIB + 4096)
    assert not space.is_cxl(4096)


def test_address_outside_nodes_raises():
    space = two_node_space()
    with pytest.raises(KeyError):
        space.node_of(2 * GIB)


def test_overlapping_nodes_rejected():
    with pytest.raises(ValueError):
        AddressSpace(
            [
                NumaNode(0, NodeKind.LOCAL_DDR, 0, GIB),
                NumaNode(1, NodeKind.CXL, GIB // 2, GIB),
            ]
        )


def test_duplicate_node_ids_rejected():
    with pytest.raises(ValueError):
        AddressSpace(
            [
                NumaNode(0, NodeKind.LOCAL_DDR, 0, GIB),
                NumaNode(0, NodeKind.CXL, GIB, GIB),
            ]
        )


def test_unaligned_base_rejected():
    with pytest.raises(ValueError):
        NumaNode(0, NodeKind.LOCAL_DDR, 100, GIB)


def test_alloc_and_translate():
    space = two_node_space()
    space.alloc_pages(1, 4, vpn_base=1000)
    physical = space.translate(1000 * PAGE_SIZE + 17)
    assert space.is_cxl(physical)
    assert physical % PAGE_SIZE == 17
    # Consecutive pages are contiguous frames.
    second = space.translate(1001 * PAGE_SIZE)
    assert second == space.translate(1000 * PAGE_SIZE) + PAGE_SIZE


def test_translate_unmapped_is_identity():
    space = two_node_space()
    assert space.translate(12345) == 12345


def test_migration_moves_page_between_nodes():
    space = two_node_space()
    space.alloc_pages(1, 1, vpn_base=7)
    assert space.page_node(7).kind is NodeKind.CXL
    space.migrate_page(7, 0)
    assert space.page_node(7).kind is NodeKind.LOCAL_DDR
    physical = space.translate(7 * PAGE_SIZE + 5)
    assert space.node_of(physical).node_id == 0


def test_migrating_unmapped_page_raises():
    space = two_node_space()
    with pytest.raises(KeyError):
        space.migrate_page(99, 0)


def test_alloc_exhaustion():
    space = AddressSpace([NumaNode(0, NodeKind.LOCAL_DDR, 0, 2 * PAGE_SIZE)])
    space.alloc_pages(0, 2, vpn_base=0)
    with pytest.raises(MemoryError):
        space.alloc_pages(0, 1, vpn_base=10)


def test_alloc_pages_maps_each_page_to_the_next_free_frame():
    space = two_node_space()
    expected = {}
    for node_id, pages, vpn_base, frame in ((1, 5, 1000, GIB), (0, 3, 7, 0),
                                            (1, 2, 2000, GIB + 5 * PAGE_SIZE),
                                            (0, 0, 9, 3 * PAGE_SIZE)):
        space.alloc_pages(node_id, pages, vpn_base=vpn_base)
        for i in range(pages):
            expected[vpn_base + i] = frame + i * PAGE_SIZE
    assert list(space.mapped_pages().items()) == list(expected.items())
    with pytest.raises(MemoryError):
        space.alloc_pages(0, GIB // PAGE_SIZE, vpn_base=5000)
    assert space.mapped_pages() == expected
    assert space.free_bytes(0) == GIB - 3 * PAGE_SIZE


def test_free_bytes_decreases_with_allocation():
    space = two_node_space()
    before = space.free_bytes(0)
    space.alloc_pages(0, 10, vpn_base=0)
    assert space.free_bytes(0) == before - 10 * PAGE_SIZE


def test_build_address_space_defaults():
    space = build_address_space(local_gb=1, cxl_gb=1)
    kinds = [n.kind for n in space.nodes]
    assert kinds == [NodeKind.LOCAL_DDR, NodeKind.CXL]
    assert len(space.cxl_nodes) == 1
    assert len(space.local_nodes) == 1


def test_build_address_space_with_remote():
    space = build_address_space(local_gb=1, cxl_gb=1, remote_gb=1)
    kinds = [n.kind for n in space.nodes]
    assert NodeKind.REMOTE_DDR in kinds
    assert len(space.nodes) == 3
