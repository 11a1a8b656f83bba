"""Order-preserving AXI ID remapping (the ``axi_id_remap`` algorithm).

Every XP egress rewrites transaction IDs into its own fixed-width ID
space so that XP ports stay isomorphic ("ID remappers to ensure
isomorphic XP ports", §II).  Two properties must hold:

* **Uniqueness** — concurrent transactions from different sources never
  share a remapped ID (responses must be routable back).
* **Order preservation** — AXI requires same-ID transactions to stay
  ordered, so while a (source port, original ID) pair has transactions in
  flight, new transactions from the same pair *reuse the same remapped
  ID* (and therefore stay ordered downstream) instead of taking a fresh
  one.

When the pool of ``2**id_width`` IDs is exhausted the remapper refuses to
allocate, which backpressures the AW/AR arbiter — exactly the stall the
RTL exhibits, and one of the reasons Table I's ID width matters for
performance.
"""

from __future__ import annotations


class IdRemapper:
    """Tracks in-flight remapped IDs for one XP egress and one direction."""

    __slots__ = ("n_ids", "_free", "_by_key", "_table", "_n_used",
                 "max_in_flight")

    def __init__(self, id_width: int):
        if id_width < 1:
            raise ValueError(f"id_width must be >= 1, got {id_width}")
        self.n_ids = 1 << id_width
        self._free = list(range(self.n_ids - 1, -1, -1))  # pop() yields 0 first
        self._by_key: dict[tuple[int, int], int] = {}
        # rid -> [src_port, orig_id, refcount] | None.  A dense list, not
        # a dict: the per-beat response lookup indexes it on the hottest
        # path of a loaded mesh.
        self._table: list[list | None] = [None] * self.n_ids
        self._n_used = 0
        self.max_in_flight = 0  # high-water mark, for area/ablation reporting

    def in_flight(self) -> int:
        """Number of remapped IDs currently allocated."""
        return self._n_used

    def acquire(self, src_port: int, orig_id: int) -> int | None:
        """Allocate (or reuse) a remapped ID for one more transaction.

        Returns None when the pool is exhausted and the key has nothing
        in flight — the caller must stall.
        """
        key = (src_port, orig_id)
        rid = self._by_key.get(key)
        if rid is not None:
            self._table[rid][2] += 1
            return rid
        if not self._free:
            return None
        rid = self._free.pop()
        self._by_key[key] = rid
        self._table[rid] = [src_port, orig_id, 1]
        self._n_used += 1
        if self._n_used > self.max_in_flight:
            self.max_in_flight = self._n_used
        return rid

    def release(self, rid: int) -> tuple[int, int]:
        """Retire one transaction on ``rid``; free the ID at refcount 0."""
        entry = self._table[rid]
        if entry is None:
            raise KeyError(rid)
        entry[2] -= 1
        if entry[2] < 0:
            raise AssertionError(f"double release of remapped id {rid}")
        src_port, orig_id = entry[0], entry[1]
        if entry[2] == 0:
            self._table[rid] = None
            self._n_used -= 1
            del self._by_key[(src_port, orig_id)]
            self._free.append(rid)
        return src_port, orig_id
