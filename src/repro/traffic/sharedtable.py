"""Zero-copy transport of :class:`FlowTable` columns between processes.

The sharded interval pipeline moves whole per-interval flow tables from
worker processes back to the parent.  Pickling a 20k-row table costs a
serialize + copy + deserialize round trip per interval per shard; a
:class:`SharedFlowTable` instead places every column back-to-back in one
``multiprocessing.shared_memory`` block and pickles only the metadata
(block name, per-column dtype and offset).  The receiving process maps
the block and builds a :class:`FlowTable` whose columns are NumPy views
*into* the mapping — no row data is ever copied through a pipe.

Lifecycle contract (single-producer, single-consumer):

- the producer calls :meth:`from_table`, which copies the columns into a
  fresh block exactly once.  With ``transfer=True`` the producer also
  unregisters the block from its own ``resource_tracker`` so a worker
  exiting does not tear the segment down under the consumer;
- the handle is pickled (a few hundred bytes) to the consumer;
- the consumer calls :meth:`table`, uses the view, then calls
  :meth:`close` + :meth:`unlink` when done.  After ``unlink`` the block
  name is gone and the handle is dead.

Tables carrying an explicit ``src_mac`` column are rejected: object
arrays hold Python references and cannot live in shared memory.  (The
generators never set ``src_mac``; record-ingested tables do.)
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory
from typing import Optional

import numpy as np

from .flowtable import COLUMNS, FlowTable

#: Byte alignment of each column within the block.  Eight bytes keeps the
#: float64/int64 columns naturally aligned regardless of the packed
#: uint16/uint8 columns preceding them.
_ALIGN = 8


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedFlowTable:
    """A picklable handle to a :class:`FlowTable` stored in shared memory.

    Only metadata crosses process boundaries; the column payload lives in
    a single named ``SharedMemory`` block that both sides map directly.
    """

    __slots__ = ("shm_name", "rows", "layout", "nbytes", "_shm", "_table")

    def __init__(
        self,
        shm_name: Optional[str],
        rows: int,
        layout: tuple[tuple[str, str, int], ...],
        nbytes: int,
    ) -> None:
        self.shm_name = shm_name
        self.rows = rows
        #: ``(column_name, dtype_str, byte_offset)`` per column.
        self.layout = layout
        #: Total payload size of the block (0 for an empty table).
        self.nbytes = nbytes
        self._shm: Optional[shared_memory.SharedMemory] = None
        self._table: Optional[FlowTable] = None

    # ------------------------------------------------------------------
    # Construction (producer side)
    # ------------------------------------------------------------------
    @classmethod
    def from_table(
        cls, table: FlowTable, *, transfer: bool = False, name: Optional[str] = None
    ) -> "SharedFlowTable":
        """Copy ``table``'s columns into a fresh shared-memory block.

        ``transfer=True`` declares that ownership of the block passes to
        another process (the normal worker → parent direction): the
        producer's resource tracker forgets the block, so only the
        consumer's eventual :meth:`unlink` destroys it.  ``name`` names
        the block (a random name by default), which lets the consumer
        destroy it with :func:`unlink_block` even if the producer dies
        before the handle arrives.
        """
        if table.src_mac is not None:
            raise ValueError(
                "tables with an explicit src_mac column cannot be shared "
                "(object arrays hold process-local references)"
            )
        rows = len(table)
        layout: list[tuple[str, str, int]] = []
        offset = 0
        for column_name in COLUMNS:
            column = getattr(table, column_name)
            offset = _aligned(offset)
            layout.append((column_name, column.dtype.str, offset))
            offset += column.nbytes
        handle = cls(None, rows, tuple(layout), offset)
        if rows == 0:
            return handle
        shm = shared_memory.SharedMemory(create=True, size=offset, name=name)
        try:
            for column_name, dtype, start in handle.layout:
                column = getattr(table, column_name)
                view = np.ndarray(rows, dtype=np.dtype(dtype), buffer=shm.buf, offset=start)
                view[:] = column
            if transfer:
                _untrack(shm)
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        handle.shm_name = shm.name
        handle._shm = shm
        return handle

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def table(self) -> FlowTable:
        """The :class:`FlowTable` view into the shared block (zero-copy).

        The returned table's columns alias the mapping — they stay valid
        only until :meth:`close`.  Calling again returns the same view.
        """
        if self._table is not None:
            return self._table
        if self.rows == 0 or self.shm_name is None:
            self._table = FlowTable.empty()
            return self._table
        if self._shm is None:
            self._shm = shared_memory.SharedMemory(name=self.shm_name)
        columns = {
            name: np.ndarray(
                self.rows, dtype=np.dtype(dtype), buffer=self._shm.buf, offset=start
            )
            for name, dtype, start in self.layout
        }
        # Same-dtype np.asarray in the FlowTable constructor passes the
        # views through untouched, so this construction copies nothing.
        self._table = FlowTable(**columns)
        return self._table

    def close(self) -> None:
        """Drop this process's mapping (views become invalid)."""
        self._table = None
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def unlink(self) -> None:
        """Destroy the block.  Call once, from the consuming side."""
        if self.shm_name is None:
            return
        shm = self._shm
        if shm is None:
            try:
                shm = shared_memory.SharedMemory(name=self.shm_name)
            except FileNotFoundError:
                self.shm_name = None
                return
        self._table = None
        self._shm = None
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        self.shm_name = None

    def release(self) -> None:
        """Close and unlink in one call (the consumer's epilogue)."""
        self.close()
        self.unlink()

    # ------------------------------------------------------------------
    # Pickling — metadata only
    # ------------------------------------------------------------------
    def __getstate__(self):
        return (self.shm_name, self.rows, self.layout, self.nbytes)

    def __setstate__(self, state) -> None:
        self.shm_name, self.rows, self.layout, self.nbytes = state
        self._shm = None
        self._table = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedFlowTable(name={self.shm_name!r}, rows={self.rows}, "
            f"nbytes={self.nbytes})"
        )


#: Column layout of a :class:`SharedMemberTable` block, in storage order.
_MEMBER_COLUMNS: tuple[tuple[str, str], ...] = (
    ("asn", "<i8"),
    ("port_capacity_bps", "<f8"),
    ("pop", "<i2"),
    ("honors_rtbh", "|b1"),
)


class SharedMemberTable:
    """A picklable handle to a member population stored in shared memory.

    The sharded city-scale pipeline hands every worker the same member
    population; re-deriving it per shard runtime costs tens of thousands
    of ``IxpMember`` constructions per worker start.  This handle packs
    the population's variable attributes (ASN, port capacity, PoP index,
    RTBH compliance) into one shared block the parent creates once and
    every worker maps zero-copy; the derivable attributes (name, MAC,
    route-server flag, prefixes) follow the
    :func:`~repro.ixp.topology.make_member_population` conventions, which
    :meth:`from_members` validates at pack time so reconstruction is
    attribute-for-attribute exact.

    Lifecycle mirrors :class:`SharedFlowTable`, with the parent as both
    producer and eventual destroyer: workers only attach (CPython's
    resource tracker registers segments on ``create=True`` only, so a
    worker exiting never tears the block down) and the parent calls
    :meth:`release` when the run ends.
    """

    __slots__ = ("shm_name", "rows", "base_asn", "nbytes", "_shm", "_columns")

    def __init__(self, shm_name: Optional[str], rows: int, base_asn: int, nbytes: int) -> None:
        self.shm_name = shm_name
        self.rows = rows
        self.base_asn = base_asn
        self.nbytes = nbytes
        self._shm: Optional[shared_memory.SharedMemory] = None
        self._columns: Optional[dict[str, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Construction (parent side)
    # ------------------------------------------------------------------
    @classmethod
    def from_members(
        cls, members, base_asn: int = 65000, *, transfer: bool = False
    ) -> "SharedMemberTable":
        """Pack a generated member population into a shared block.

        ``members`` must follow the ``make_member_population`` shape —
        ascending ASNs from ``base_asn``, ``member-<index>`` names,
        derived MACs, route-server peering, no declared prefixes — since
        only the variable columns cross the process boundary; anything
        else is rejected rather than silently reconstructed wrong.
        """
        from ..ixp.member import default_mac  # local: traffic package imports first
        from ..ixp.shard import pop_index

        members = list(members)
        for row, member in enumerate(members):
            expected_asn = base_asn + row
            if (
                member.asn != expected_asn
                or member.name != f"member-{row}"
                or member.mac != default_mac(member.asn)
                or not member.uses_route_server
                or member.prefixes
            ):
                raise ValueError(
                    f"member at row {row} does not follow the generated-"
                    f"population conventions (expected AS{expected_asn} "
                    f"'member-{row}' with derived attributes)"
                )
        rows = len(members)
        layout = cls._layout(rows)
        nbytes = 0 if rows == 0 else max(start + rows * np.dtype(dtype).itemsize
                                         for _, dtype, start in layout)
        handle = cls(None, rows, base_asn, nbytes)
        if rows == 0:
            return handle
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        try:
            columns = {
                name: np.ndarray(rows, dtype=np.dtype(dtype), buffer=shm.buf, offset=start)
                for name, dtype, start in layout
            }
            columns["asn"][:] = [member.asn for member in members]
            columns["port_capacity_bps"][:] = [
                member.port_capacity_bps for member in members
            ]
            columns["pop"][:] = [pop_index(member.pop) for member in members]
            columns["honors_rtbh"][:] = [member.honors_rtbh for member in members]
            if transfer:
                _untrack(shm)
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        handle.shm_name = shm.name
        handle._shm = shm
        return handle

    @staticmethod
    def _layout(rows: int) -> tuple[tuple[str, str, int], ...]:
        layout: list[tuple[str, str, int]] = []
        offset = 0
        for name, dtype in _MEMBER_COLUMNS:
            offset = _aligned(offset)
            layout.append((name, dtype, offset))
            offset += rows * np.dtype(dtype).itemsize
        return tuple(layout)

    # ------------------------------------------------------------------
    # Consumption (any process)
    # ------------------------------------------------------------------
    def _mapped(self) -> dict[str, np.ndarray]:
        if self._columns is not None:
            return self._columns
        if self.rows == 0 or self.shm_name is None:
            self._columns = {
                name: np.empty(0, dtype=np.dtype(dtype))
                for name, dtype in _MEMBER_COLUMNS
            }
            return self._columns
        if self._shm is None:
            self._shm = shared_memory.SharedMemory(name=self.shm_name)
        self._columns = {
            name: np.ndarray(
                self.rows, dtype=np.dtype(dtype), buffer=self._shm.buf, offset=start
            )
            for name, dtype, start in self._layout(self.rows)
        }
        return self._columns

    def asn_array(self) -> np.ndarray:
        """The population's ASNs, ascending (a view into the mapping)."""
        return self._mapped()["asn"]

    def members(self) -> list:
        """Materialise the full population as :class:`~repro.ixp.member.IxpMember`."""
        return self._build(range(self.rows))

    def members_for(self, asns) -> list:
        """Materialise only the members owning ``asns`` (any order kept).

        One ``searchsorted`` over the ascending ASN column resolves the
        rows; unknown ASNs raise ``KeyError``.
        """
        wanted = np.asarray(list(asns), dtype=np.int64)
        if len(wanted) == 0:
            return []
        known = self._mapped()["asn"]
        rows = np.searchsorted(known, wanted)
        rows = np.minimum(rows, max(self.rows - 1, 0))
        missing = known[rows] != wanted if self.rows else np.ones(len(wanted), bool)
        if bool(np.any(missing)):
            raise KeyError(
                f"AS{int(wanted[missing][0])} is not in the shared member table"
            )
        return self._build(rows.tolist())

    def _build(self, rows) -> list:
        from ..ixp.member import IxpMember  # local: avoid a package import cycle

        columns = self._mapped()
        capacities = columns["port_capacity_bps"]
        pops = columns["pop"]
        honors = columns["honors_rtbh"]
        asns = columns["asn"]
        return [
            IxpMember(
                asn=int(asns[row]),
                name=f"member-{int(asns[row]) - self.base_asn}",
                port_capacity_bps=float(capacities[row]),
                pop=f"pop-{int(pops[row])}",
                honors_rtbh=bool(honors[row]),
            )
            for row in rows
        ]

    def close(self) -> None:
        """Drop this process's mapping (array views become invalid)."""
        self._columns = None
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def unlink(self) -> None:
        """Destroy the block.  Call once, from the owning (parent) side."""
        if self.shm_name is None:
            return
        shm = self._shm
        if shm is None:
            try:
                shm = shared_memory.SharedMemory(name=self.shm_name)
            except FileNotFoundError:
                self.shm_name = None
                return
        self._columns = None
        self._shm = None
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        self.shm_name = None

    def release(self) -> None:
        """Close and unlink in one call (the parent's epilogue)."""
        self.close()
        self.unlink()

    # ------------------------------------------------------------------
    # Pickling — metadata only
    # ------------------------------------------------------------------
    def __getstate__(self):
        return (self.shm_name, self.rows, self.base_asn, self.nbytes)

    def __setstate__(self, state) -> None:
        self.shm_name, self.rows, self.base_asn, self.nbytes = state
        self._shm = None
        self._columns = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedMemberTable(name={self.shm_name!r}, rows={self.rows}, "
            f"base_asn={self.base_asn})"
        )


def unlink_block(name: str) -> None:
    """Destroy the shared-memory block ``name``; a missing block is skipped."""
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Unregister ``shm`` from this process's resource tracker.

    CPython's tracker unlinks every registered segment when the creating
    process exits — correct for forgotten blocks, wrong for blocks whose
    ownership moved to the parent.  Unregistering is best-effort: on
    platforms without a POSIX tracker this is a no-op.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - platform-dependent
        pass
