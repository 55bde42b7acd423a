"""Dynamic hardware counters collected by both simulator backends.

The static model in :mod:`repro.sim.timing` *predicts* memory transactions
and bank conflicts from affine access forms; this module *measures* them
while a kernel actually runs, using the very same primitives — 64-byte
half-warp segments from :mod:`repro.ir.segments` and the 16-bank
serialization rule from :func:`repro.sim.timing.bank_serialization` — so a
measured/predicted drift means the model's trip counts, guard fractions,
or coalescing verdicts are wrong, not that the two sides define a
"transaction" differently.

Counters (per launch):

* per global array: loads/stores (thread-element granularity), memory
  transactions per half-warp segment, bytes moved (64 B per transaction);
* per shared array: accesses and bank-conflict serialization cycles
  (degree minus one per half-warp instruction);
* per access site: the same, attributed to the printed source expression;
* barriers (thread arrivals), branch evaluations/taken (the dynamic
  guard-masked lane fraction), divergent half-warp branch instances.

Cross-backend bit-equality is a hard contract.  The vectorized backend
executes each access site once for all lanes under a mask, so its
half-warp instances are simply the active lanes grouped by half-warp id.
The lockstep interpreter runs thread-at-a-time, so it must *reconstruct*
those instances: events are keyed by ``(site, loop-path, half-warp)``
where the loop path is the stack of structural loop iteration counters —
two threads' events land in the same instance exactly when the vectorized
backend would have them active in the same masked evaluation, even under
lane-divergent guards and ragged loop bounds.  Both keyings feed the same
per-group arithmetic (:meth:`ProfileCollector._finish_access_group`), so
agreement is exact, not approximate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ir.segments import HALF_WARP, segments_for_addresses
from repro.lang.astnodes import (
    ArrayRef,
    AssignStmt,
    Block,
    DeclStmt,
    ExprStmt,
    ForStmt,
    IfStmt,
    Kernel,
    ReturnStmt,
    Stmt,
    SyncStmt,
    WhileStmt,
    walk_exprs,
)
from repro.obs.envelope import make_envelope
from repro.sim.interp import LaunchConfig
from repro.sim.timing import bank_serialization

#: Envelope schema tag for serialized profiles.
PROFILE_SCHEMA = "repro.profile/1"

#: Bytes one coalesced segment transaction moves (SEGMENT_ELEMS words).
SEGMENT_BYTES = 64

#: Shared-memory banks in the conflict model (GT200/G80: 16, 32-bit wide).
SHARED_BANKS = 16


# ---------------------------------------------------------------------------
# Counter records
# ---------------------------------------------------------------------------

@dataclass
class ArrayCounters:
    """Dynamic traffic of one global array."""

    loads: int = 0                 # thread-element load executions
    stores: int = 0
    load_transactions: int = 0     # half-warp segment transactions
    store_transactions: int = 0

    @property
    def transactions(self) -> int:
        return self.load_transactions + self.store_transactions

    @property
    def bytes_moved(self) -> int:
        return self.transactions * SEGMENT_BYTES

    def to_dict(self) -> Dict[str, int]:
        return {"loads": self.loads, "stores": self.stores,
                "load_transactions": self.load_transactions,
                "store_transactions": self.store_transactions,
                "bytes": self.bytes_moved}


@dataclass
class SharedCounters:
    """Dynamic traffic of one shared array."""

    loads: int = 0
    stores: int = 0
    conflict_cycles: int = 0       # extra cycles: (degree - 1) per half warp

    def to_dict(self) -> Dict[str, int]:
        return {"loads": self.loads, "stores": self.stores,
                "conflict_cycles": self.conflict_cycles}


@dataclass
class SiteCounters:
    """Dynamic counters of one array-reference site in the kernel source."""

    index: int                     # pre-order position among profiled sites
    array: str
    space: str                     # 'global' | 'shared'
    label: str                     # printed source expression
    loads: int = 0
    stores: int = 0
    instances: int = 0             # half-warp instruction instances
    transactions: int = 0          # global sites
    conflict_cycles: int = 0       # shared sites

    @property
    def coalesced(self) -> Optional[bool]:
        """Whether every half-warp instance took one transaction."""
        if self.space != "global" or self.instances == 0:
            return None
        return self.transactions == self.instances

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "index": self.index, "array": self.array, "space": self.space,
            "label": self.label, "loads": self.loads, "stores": self.stores,
            "instances": self.instances,
        }
        if self.space == "global":
            out["transactions"] = self.transactions
            out["coalesced"] = self.coalesced
        else:
            out["conflict_cycles"] = self.conflict_cycles
        return out


@dataclass
class KernelProfile:
    """All dynamic counters of one kernel launch, backend-tagged."""

    backend: str
    kernel: str
    grid: Tuple[int, int]
    block: Tuple[int, int]
    global_arrays: Dict[str, ArrayCounters] = field(default_factory=dict)
    shared_arrays: Dict[str, SharedCounters] = field(default_factory=dict)
    sites: List[SiteCounters] = field(default_factory=list)
    barriers: int = 0              # per-thread barrier arrivals
    branch_evals: int = 0          # per-thread if-condition evaluations
    branch_taken: int = 0
    divergent_branches: int = 0    # half-warp instances with mixed outcome

    # -- aggregate views -----------------------------------------------------

    @property
    def global_transactions(self) -> int:
        return sum(c.transactions for c in self.global_arrays.values())

    @property
    def global_bytes(self) -> int:
        return sum(c.bytes_moved for c in self.global_arrays.values())

    @property
    def shared_conflict_cycles(self) -> int:
        return sum(c.conflict_cycles for c in self.shared_arrays.values())

    @property
    def guard_fraction(self) -> float:
        """Dynamic fraction of if evaluations that took the then-branch."""
        if self.branch_evals == 0:
            return 1.0
        return self.branch_taken / self.branch_evals

    # -- serialization / comparison -------------------------------------------

    def counters_dict(self) -> Dict[str, object]:
        """Every counter, deterministically ordered, without the backend tag."""
        return {
            "kernel": self.kernel,
            "grid": list(self.grid),
            "block": list(self.block),
            "global_transactions": self.global_transactions,
            "global_bytes": self.global_bytes,
            "shared_conflict_cycles": self.shared_conflict_cycles,
            "barriers": self.barriers,
            "branch_evals": self.branch_evals,
            "branch_taken": self.branch_taken,
            "divergent_branches": self.divergent_branches,
            "guard_fraction": round(self.guard_fraction, 9),
            "global_arrays": {name: self.global_arrays[name].to_dict()
                              for name in sorted(self.global_arrays)},
            "shared_arrays": {name: self.shared_arrays[name].to_dict()
                              for name in sorted(self.shared_arrays)},
            "sites": [s.to_dict() for s in self.sites],
        }

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"backend": self.backend}
        out.update(self.counters_dict())
        return out

    def to_envelope(self, **meta) -> Dict[str, object]:
        return make_envelope(PROFILE_SCHEMA, **meta, profile=self.to_dict())

    def first_mismatch(self, other: "KernelProfile") -> Optional[str]:
        """Dotted path + values of the first differing counter, or None."""
        return _first_diff(self.counters_dict(), other.counters_dict(), "")


def _first_diff(a: object, b: object, path: str) -> Optional[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                return f"{sub}: only in one profile"
            found = _first_diff(a[key], b[key], sub)
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            found = _first_diff(x, y, f"{path}[{i}]")
            if found:
                return found
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


# ---------------------------------------------------------------------------
# Collector
# ---------------------------------------------------------------------------

class _Site:
    __slots__ = ("index", "array", "space", "label", "lanes", "counters")

    def __init__(self, index: int, array: str, space: str, label: str,
                 lanes: int):
        self.index = index
        self.array = array
        self.space = space
        self.label = label
        self.lanes = lanes
        self.counters = SiteCounters(index=index, array=array, space=space,
                                     label=label)


class ProfileCollector:
    """Accumulates dynamic counters for one launch, fed by either backend.

    The lockstep interpreter calls :meth:`access` / :meth:`branch` /
    :meth:`sync` once per thread event, tagging each with the thread's
    structural loop path; the vectorized backend calls the ``*_lanes``
    variants once per masked evaluation.  :meth:`finalize` flushes the
    lockstep pending groups and returns the :class:`KernelProfile`.
    """

    def __init__(self, kernel: Kernel, config: LaunchConfig,
                 banks: int = SHARED_BANKS):
        self.kernel = kernel
        self.config = config
        self.banks = banks
        bx, by = config.block
        self._tpb = bx * by
        self._hw_per_block = max(1, -(-self._tpb // HALF_WARP))

        # Space and vector-lane tables, from params and declarations.
        self._space: Dict[str, str] = {}
        self._elem_lanes: Dict[str, int] = {}
        for p in kernel.array_params():
            self._space[p.name] = "global"
            self._elem_lanes[p.name] = p.type.lanes
        for decl in _walk_decls(kernel.body):
            if decl.is_array:
                self._space[decl.name] = "shared" if decl.shared else "local"
                self._elem_lanes[decl.name] = decl.type.lanes

        # Site table: every global/shared ArrayRef, in pre-order.
        self._sites: List[_Site] = []
        self._site_of: Dict[int, _Site] = {}
        from repro.lang.printer import print_expr
        for ref in _walk_array_refs(kernel.body):
            name = ref.base.name
            space = self._space.get(name)
            if space not in ("global", "shared"):
                continue
            site = _Site(len(self._sites), name, space,
                         print_expr(ref), self._elem_lanes.get(name, 1))
            self._sites.append(site)
            self._site_of[id(ref)] = site

        # Aggregates.
        self.global_arrays: Dict[str, ArrayCounters] = {
            name: ArrayCounters() for name, space in self._space.items()
            if space == "global"}
        self.shared_arrays: Dict[str, SharedCounters] = {
            name: SharedCounters() for name, space in self._space.items()
            if space == "shared"}
        self.barriers = 0
        self.branch_evals = 0
        self.branch_taken = 0
        self.divergent_branches = 0

        # Lockstep pending groups, flushed in finalize().
        self._pending_access: Dict[Tuple, List[int]] = {}
        self._pending_branch: Dict[Tuple, List[int]] = {}

        self._lane_hw_cache: Optional[np.ndarray] = None

    # -- geometry --------------------------------------------------------------

    def halfwarp_of_lane(self, lane: int) -> int:
        """Half-warp id of a launch-linear lane (never spans blocks)."""
        block, in_block = divmod(lane, self._tpb)
        return block * self._hw_per_block + in_block // HALF_WARP

    def _lane_hw(self) -> np.ndarray:
        if self._lane_hw_cache is None:
            lane = np.arange(self.config.total_threads, dtype=np.int64)
            block, in_block = np.divmod(lane, self._tpb)
            self._lane_hw_cache = (block * self._hw_per_block
                                   + in_block // HALF_WARP)
        return self._lane_hw_cache

    # -- lockstep (per-thread event) entry points ------------------------------

    def access(self, space: str, array: str, addr: int, is_store: bool,
               site: ArrayRef, path: Tuple[int, ...], lane: int) -> None:
        if space == "local":
            return
        entry = self._site_of.get(id(site))
        self._tally(entry, array, space, is_store, 1)
        key = (id(site), array, space, is_store, path,
               self.halfwarp_of_lane(lane))
        self._pending_access.setdefault(key, []).append(int(addr))

    def branch(self, site: IfStmt, path: Tuple[int, ...], lane: int,
               taken: bool) -> None:
        self.branch_evals += 1
        if taken:
            self.branch_taken += 1
        key = (id(site), path, self.halfwarp_of_lane(lane))
        pair = self._pending_branch.setdefault(key, [0, 0])
        pair[0 if taken else 1] += 1

    def sync(self, lane: int) -> None:
        self.barriers += 1

    # -- vectorized (masked batch) entry points --------------------------------

    def access_lanes(self, space: str, array: str, addrs: np.ndarray,
                     mask: np.ndarray, is_store: bool,
                     site: ArrayRef) -> None:
        if space == "local":
            return
        active = np.nonzero(mask)[0]
        if active.size == 0:
            return
        entry = self._site_of.get(id(site))
        self._tally(entry, array, space, is_store, int(active.size))
        hws = self._lane_hw()[active]
        group_addrs = addrs[active]
        order = np.argsort(hws, kind="stable")
        hws = hws[order]
        group_addrs = group_addrs[order]
        cuts = np.nonzero(np.diff(hws))[0] + 1
        for chunk in np.split(group_addrs, cuts):
            self._finish_access_group(entry, array, space, is_store,
                                      [int(a) for a in chunk])

    def branch_lanes(self, site: IfStmt, mask: np.ndarray,
                     cond: np.ndarray) -> None:
        active = np.nonzero(mask)[0]
        if active.size == 0:
            return
        taken = cond[active] != 0
        self.branch_evals += int(active.size)
        self.branch_taken += int(taken.sum())
        hws = self._lane_hw()[active]
        order = np.argsort(hws, kind="stable")
        hws = hws[order]
        taken = taken[order]
        cuts = np.nonzero(np.diff(hws))[0] + 1
        for chunk in np.split(taken, cuts):
            if chunk.any() and not chunk.all():
                self.divergent_branches += 1

    def sync_lanes(self, mask: np.ndarray) -> None:
        self.barriers += int(mask.sum())

    # -- shared per-group arithmetic -------------------------------------------

    def _tally(self, entry: Optional[_Site], array: str, space: str,
               is_store: bool, n: int) -> None:
        if space == "global":
            counters = self.global_arrays.setdefault(array, ArrayCounters())
            if is_store:
                counters.stores += n
            else:
                counters.loads += n
        else:
            counters = self.shared_arrays.setdefault(array, SharedCounters())
            if is_store:
                counters.stores += n
            else:
                counters.loads += n
        if entry is not None:
            if is_store:
                entry.counters.stores += n
            else:
                entry.counters.loads += n

    def _finish_access_group(self, entry: Optional[_Site], array: str,
                             space: str, is_store: bool,
                             addrs: List[int]) -> None:
        """Charge one half-warp instruction instance.

        ``addrs`` are the linear element addresses the instance's active
        threads issued — the identical arithmetic runs for both backends,
        which is what makes cross-backend equality exact.
        """
        if space == "global":
            lanes = self._elem_lanes.get(array, 1)
            trans = len(segments_for_addresses(array, addrs, lanes))
            counters = self.global_arrays.setdefault(array, ArrayCounters())
            if is_store:
                counters.store_transactions += trans
            else:
                counters.load_transactions += trans
            if entry is not None:
                entry.counters.instances += 1
                entry.counters.transactions += trans
        else:
            extra = bank_serialization(addrs, self.banks) - 1
            counters = self.shared_arrays.setdefault(array, SharedCounters())
            counters.conflict_cycles += extra
            if entry is not None:
                entry.counters.instances += 1
                entry.counters.conflict_cycles += extra

    # -- finalize --------------------------------------------------------------

    def finalize(self, backend: str) -> KernelProfile:
        """Flush pending lockstep groups and snapshot the profile."""
        for key, addrs in self._pending_access.items():
            site_id, array, space, is_store = key[0], key[1], key[2], key[3]
            self._finish_access_group(self._site_of.get(site_id), array,
                                      space, is_store, addrs)
        self._pending_access.clear()
        for pair in self._pending_branch.values():
            if pair[0] and pair[1]:
                self.divergent_branches += 1
        self._pending_branch.clear()
        return KernelProfile(
            backend=backend,
            kernel=self.kernel.name,
            grid=self.config.grid,
            block=self.config.block,
            global_arrays=self.global_arrays,
            shared_arrays=self.shared_arrays,
            sites=[s.counters for s in self._sites],
            barriers=self.barriers,
            branch_evals=self.branch_evals,
            branch_taken=self.branch_taken,
            divergent_branches=self.divergent_branches,
        )


# ---------------------------------------------------------------------------
# AST walks (sites and declarations, pre-order)
# ---------------------------------------------------------------------------

def _stmt_exprs(stmt: Stmt):
    if isinstance(stmt, DeclStmt):
        if stmt.init is not None:
            yield stmt.init
    elif isinstance(stmt, AssignStmt):
        yield stmt.target
        yield stmt.value
    elif isinstance(stmt, ExprStmt):
        yield stmt.expr
    elif isinstance(stmt, IfStmt):
        yield stmt.cond
    elif isinstance(stmt, ForStmt):
        if stmt.cond is not None:
            yield stmt.cond
    elif isinstance(stmt, WhileStmt):
        yield stmt.cond


def _stmt_children(stmt: Stmt):
    if isinstance(stmt, IfStmt):
        yield from stmt.then_body
        yield from stmt.else_body
    elif isinstance(stmt, ForStmt):
        if stmt.init is not None:
            yield stmt.init
        yield from stmt.body
        if stmt.update is not None:
            yield stmt.update
    elif isinstance(stmt, WhileStmt):
        yield from stmt.body
    elif isinstance(stmt, Block):
        yield from stmt.body


def _walk_stmts(stmts):
    for stmt in stmts:
        yield stmt
        yield from _walk_stmts(_stmt_children(stmt))


def _walk_decls(stmts):
    for stmt in _walk_stmts(stmts):
        if isinstance(stmt, DeclStmt):
            yield stmt


def _walk_array_refs(stmts):
    for stmt in _walk_stmts(stmts):
        for expr in _stmt_exprs(stmt):
            for e in walk_exprs(expr):
                if isinstance(e, ArrayRef):
                    yield e
