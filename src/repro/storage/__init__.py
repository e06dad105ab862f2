"""Storage substrate: pages, buffer pool, B-trees and record stores.

This package is the reproduction's replacement for the Berkeley DB storage
manager used by the paper's Java testbed.  It provides file-backed (or
in-memory) paged storage with exact physical-I/O accounting, checksummed
pages, write-ahead logging with crash recovery, a buffer pool with
pluggable replacement policies, a B+tree access method, the two record
layouts the testbed needs (tid-keyed relations and portioned partition
data), each relation's element-keyed posting index, and a
fault-injection subsystem for proving the reliability properties.
"""

from .buffer import BufferPool, BufferStats, REPLACEMENT_POLICIES
from .catalog import CATALOG_META_PAGE, Catalog
from .btree import BTree
from .faults import (
    CrashSimulator,
    FaultInjectingDiskManager,
    InjectedIOError,
    SimulatedCrash,
    flip_bit,
)
from .pager import (
    DEFAULT_PAGE_SIZE,
    PAGE_HEADER_SIZE,
    DiskManager,
    FileDiskManager,
    InMemoryDiskManager,
    IOStats,
    decode_page,
    encode_page,
)
from .partition_store import PartitionStore
from .posting_index import PostingIndex
from .relation_store import DEFAULT_PAYLOAD_SIZE, RelationStore
from .wal import WALDiskManager, WriteAheadLog

__all__ = [
    "BufferPool",
    "BufferStats",
    "Catalog",
    "CATALOG_META_PAGE",
    "CrashSimulator",
    "REPLACEMENT_POLICIES",
    "BTree",
    "DEFAULT_PAGE_SIZE",
    "PAGE_HEADER_SIZE",
    "DiskManager",
    "FaultInjectingDiskManager",
    "FileDiskManager",
    "InjectedIOError",
    "InMemoryDiskManager",
    "IOStats",
    "PartitionStore",
    "PostingIndex",
    "DEFAULT_PAYLOAD_SIZE",
    "RelationStore",
    "SimulatedCrash",
    "WALDiskManager",
    "WriteAheadLog",
    "decode_page",
    "encode_page",
    "flip_bit",
]
