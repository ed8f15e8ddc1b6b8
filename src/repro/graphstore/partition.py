"""Root routing for the sharded graph store.

The paper stores causal edges in Apache Titan, a *distributed* graph
store external to the application.  :class:`~repro.graphstore.sharded.ShardedGraphStore`
reproduces the distribution by placing each causal graph in one of N
independent stores, chosen by a deterministic hash of the graph's root
uid; this module is that hash.
"""

from __future__ import annotations

import zlib

from repro.errors import GraphStoreError
from repro.lang.message import MessageUid


class HashPartitioner:
    """Maps message uids to ``count`` partitions with a stable (non-salted) hash.

    ``zlib.crc32`` is used instead of :func:`hash` because Python salts
    string hashes per process; determinism across runs is required for
    reproducible simulations.
    """

    def __init__(self, count: int) -> None:
        if count < 1:
            raise GraphStoreError(f"partition count must be >= 1, got {count}")
        self.count = int(count)

    def partition_of(self, uid: MessageUid) -> int:
        """Partition index for ``uid`` (stable across processes).

        The crc of the uid triple is intrinsic to the uid, so it is
        computed once and cached on the uid itself — the sharded store
        routes the same root uid once per message of its graph.
        """
        crc = uid._crc
        if crc is None:
            key = f"{uid.address}/{uid.process_id}/{uid.seq}".encode("utf-8")
            crc = zlib.crc32(key)
            object.__setattr__(uid, "_crc", crc)
        return crc % self.count
