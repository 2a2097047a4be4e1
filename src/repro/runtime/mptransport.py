"""Transport of the multiprocess backend: how a runtime value crosses a
process boundary and how a worker keeps what it received.

The driver (:mod:`repro.runtime.mpexec`) calls :func:`encode_value`, the
worker (:mod:`repro.runtime.mpworker`) calls :func:`decode_value`.
Dense blocks move zero-copy through ``multiprocessing.shared_memory``
(the driver creates the segment, copies once and unlinks it when the
operator completes — on Linux existing mappings stay valid — and
workers attach a read-only ndarray view); CSR blocks,
``CompressedMatrix`` values and scalars take the pickle fallback.
:class:`_BlockCache` is the worker-side LRU that makes locality
possible: partition blocks stay cached under the key the driver names
them by, until the LRU evicts them or the driver says to drop them.
"""

from __future__ import annotations

from collections import OrderedDict
from multiprocessing import shared_memory as mp_shm

import numpy as np

from repro.runtime.matrix import MatrixBlock

#: Dense blocks below this ship via pickle: segment setup dominates.
_SHM_MIN_BYTES = 1 << 14


def _approx_bytes(value) -> float:
    size = getattr(value, "size_bytes", None)
    return float(size) if size is not None else 8.0


def encode_value(value, segments: list | None = None,
                 force_shm: bool = False):
    """Encode one runtime value for shipment to a worker.

    Dense :class:`MatrixBlock` payloads at or above ``_SHM_MIN_BYTES``
    (or with ``force_shm``) move through a shared-memory segment; the
    created segment is appended to ``segments`` so the driver can
    unlink it once the operator completes.  Everything else — CSR
    blocks, ``CompressedMatrix``, scalars — is shipped by value over
    the pipe (the pickle fallback).  Returns
    ``(descriptor, shm_bytes, pickle_bytes)``.
    """
    if isinstance(value, MatrixBlock) and not value.is_sparse:
        arr = value.to_dense()
        if force_shm or arr.nbytes >= _SHM_MIN_BYTES:
            seg = mp_shm.SharedMemory(create=True, size=max(1, arr.nbytes))
            view = np.ndarray(arr.shape, dtype=np.float64, buffer=seg.buf)
            view[:] = arr
            if segments is not None:
                segments.append(seg)
            return ("shm", seg.name, arr.shape), float(arr.nbytes), 0.0
    return ("raw", value), 0.0, _approx_bytes(value)


def _attach_shm(name: str) -> mp_shm.SharedMemory:
    """Attach to a driver-created segment without registering it with
    the resource tracker (the driver owns unlinking; a second
    registration collapses in the tracker's name set, so the paired
    driver/worker unregisters would double-remove and spam KeyErrors)."""
    try:
        return mp_shm.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # Python < 3.13: no track= parameter
        from multiprocessing import resource_tracker

        orig_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return mp_shm.SharedMemory(name=name, create=False)
        finally:
            resource_tracker.register = orig_register


def decode_value(desc):
    """Decode one shipped value; returns ``(value, segment | None)``.

    Shared-memory blocks come back as a read-only zero-copy view; the
    returned segment object must stay referenced for as long as the
    value is alive (cache entries hold the pair together).
    """
    if desc[0] == "shm":
        _, name, shape = desc
        seg = _attach_shm(name)
        arr = np.ndarray(shape, dtype=np.float64, buffer=seg.buf)
        arr.setflags(write=False)
        return MatrixBlock(arr), seg
    return desc[1], None


class _BlockCache:
    """Per-worker LRU block cache (locality), bounded in bytes."""

    def __init__(self, cap_bytes: float):
        self.cap = cap_bytes
        self.entries: OrderedDict = OrderedDict()  # wkey -> (value, seg, nbytes)
        self.bytes = 0.0

    def get(self, wkey):
        entry = self.entries.get(wkey)
        if entry is None:
            return None
        self.entries.move_to_end(wkey)
        return entry[0]

    def put(self, wkey, value, seg) -> list:
        """Insert or replace; returns the keys evicted to make room.

        The driver ships a block under a key this cache already holds
        only after it forgot the location, so the shipped block
        supersedes the cached one.
        """
        if wkey in self.entries:
            self._drop(wkey)
        nbytes = _approx_bytes(value)
        evicted = []
        while self.entries and self.bytes + nbytes > self.cap:
            old_key = next(iter(self.entries))
            self._drop(old_key)
            evicted.append(old_key)
        self.entries[wkey] = (value, seg, nbytes)
        self.bytes += nbytes
        return evicted

    def _drop(self, wkey) -> None:
        _, seg, nbytes = self.entries.pop(wkey)
        self.bytes -= nbytes
        if seg is not None:
            try:
                seg.close()
            except BufferError:
                pass  # a live view still pins the mapping

    def drop(self, wkeys) -> None:
        """Drop the blocks the driver retired; keys are opaque here."""
        for wkey in wkeys:
            if wkey in self.entries:
                self._drop(wkey)
