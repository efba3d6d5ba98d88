"""Content-addressed solver-query cache.

The checker asks the solver thousands of structurally identical questions:
the synthetic corpora instantiate the same snippet templates under many
function names, and a warm rerun over an unchanged corpus repeats every
query verbatim.  This module gives those queries a *content address* — a
SHA-256 over the canonical, alpha-renamed serialization of the query's term
DAG — so that a verdict computed once can be replayed for every structurally
identical query, across functions, across work units, and (via the JSONL
persistence layer) across runs.

Four design points matter:

* **Alpha-renaming.**  Variable names embed the function name
  (``f.arg.len``, ``f.div.3``), so two instances of the same template never
  share names.  The canonical form renames variables to ``v0, v1, ...`` in
  first-visit order, which is deterministic for a fixed term structure.
* **Commutative canonicalization.**  The term manager orders commutative
  operands by creation order, so structurally identical queries built
  through different histories (``a + b`` vs. ``b + a`` in the source) would
  otherwise serialize differently.  The canonical form orders commutative
  operands by a name-free structural color instead, so such queries — and
  the whole-function clusters built on the same idea in
  :mod:`repro.cluster` — share one key.  Colors only pick an order; the
  key still hashes the full serialization, so a different coloring can
  only turn hits into misses, never replay a wrong verdict.
* **DAG-aware serialization.**  Terms are hash-consed DAGs with heavy
  sharing; the serializer emits each distinct node once and refers to it by
  index, so the canonical form stays linear in DAG size.
* **Budget-qualified UNKNOWN.**  SAT and UNSAT verdicts are valid under any
  budget, but a timeout observed under a small budget says nothing about a
  larger one.  Each entry records the budget it was computed under, and an
  ``unknown`` verdict is only replayed when the cached budget covers the
  requested one — which is exactly what lets the engine's timeout-escalation
  retries re-solve instead of replaying a stale timeout.

The cache sits *above* the incremental solving layer: every logical query —
batched into an incremental context or not — is content-addressed over the
full term set it is equivalent to (base + deltas + definitions), looked up
first, and only solved (incrementally) on a miss.  A hit therefore skips
both bit-blasting and CDCL; a miss pays the (assumption-based, mostly
pre-encoded) incremental solve and stores the verdict.  See docs/SOLVER.md
for the layer diagram.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.solver.terms import COMMUTATIVE_OPS, Op, Term

#: Cache verdict values (mirrors :class:`repro.solver.solver.CheckResult`).
VERDICT_SAT = "sat"
VERDICT_UNSAT = "unsat"
VERDICT_UNKNOWN = "unknown"

_VERDICTS = (VERDICT_SAT, VERDICT_UNSAT, VERDICT_UNKNOWN)


def _color(payload: str) -> int:
    """Deterministic 64-bit structural hash (process- and run-independent)."""
    return int.from_bytes(
        hashlib.blake2b(payload.encode("utf-8"), digest_size=8).digest(), "big")


_COLOR_MASK = (1 << 64) - 1
#: Multipliers of splitmix64's finalizer, the bijective 64-bit mixer below.
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: Odd step that folds an ordered sequence of 64-bit words into one.
_STEP = 0x9E3779B97F4A7C15
#: Role of a commutative node's operands in the downward context (the
#: other operators use the operand position 0, 1, 2, ... instead).
_SHARED_ROLE = _color("ctx:commutative")
_ROOT_ROLE = _color("root")

#: ``(seed, commutative)`` of each static node part seen so far: the seed
#: is the blake2b color of ``(op, sort, attrs)``.  Variables are keyed
#: without their name and constants are not memoised, so the table is
#: bounded by the operator/sort/attribute combinations the encoder emits (a
#: few dozen on the corpus), not by the number of queries keyed.
_STATIC: Dict[tuple, Tuple[int, bool]] = {}

_VAR, _CONST = Op.VAR, Op.CONST
#: ``COMMUTATIVE_OPS`` by operator value: a string hashes natively, an
#: ``Enum`` member through a Python-level ``__hash__``.
_SHARED_OPS = frozenset(op.value for op in COMMUTATIVE_OPS)


def _mix(word: int) -> int:
    """splitmix64's finalizer: a bijection on 64-bit words."""
    word = (word ^ (word >> 30)) * _MIX1 & _COLOR_MASK
    word = (word ^ (word >> 27)) * _MIX2 & _COLOR_MASK
    return word ^ (word >> 31)


def _static(term: Term) -> Tuple[int, bool]:
    """A node's name-free static part as ``(blake2b seed, commutative)``."""
    op, sort = term.op, term.sort
    if op is _CONST:
        return _color(f"const:{term.attrs[0]}:{sort.kind}{sort.width}"), False
    key = (op._value_, sort.kind, sort.width, () if op is _VAR else term.attrs)
    static = _STATIC.get(key)
    if static is None:
        static = _STATIC[key] = (_color(repr(key)), key[0] in _SHARED_OPS)
    return static


def _canonical_colors(terms: Sequence[Term]) -> Dict[int, int]:
    """Name-free structural colors for every node of a query's term DAG.

    ``TermManager`` normalizes commutative operands by *creation order*
    (tid), so two structurally identical queries built through different
    construction histories — ``a + b`` in one translation unit, ``b + a`` in
    another — can disagree about operand order.  The colors computed here
    depend only on structure, never on names or tids, and are used solely to
    pick a canonical operand order for commutative nodes.  The schedule is
    Weisfeiler-Lehman colour refinement:

    * an upward pass hashes each node from its static part (operator,
      attributes, sort) and its child colors (commutative children as a
      sorted multiset), so variables collapse to their sort;
    * two refinement rounds then alternate a downward pass — each node
      absorbs the multiset of contexts it occurs in: its root index, or its
      parent's color under one shared role for commutative operands and the
      operand position otherwise — with an upward re-hash that folds the
      context in.  This tells apart same-shaped subterms (e.g. the ``x``
      and ``y`` of ``(x + y) - x``, or the ``sext(x)`` and ``sext(y)``
      above them) by how the rest of the query uses them.

    Colors are 64-bit integers mixed arithmetically: an odd-multiplier fold
    of the words, then splitmix64's finalizer.  The only cryptographic hash
    a node costs is the blake2b seed of its static part, memoised per
    static part in ``_STATIC`` (constants excepted, which keeps the table
    bounded).  Nothing depends on ``hash()`` of a string, so colors are the
    same in every process and run.  A context is a sum mod 2**64 of mixed
    words, i.e. a hash of the multiset of the node's occurrences.

    Color collisions are harmless for soundness — they only fall back to the
    original operand order, they never change what the serialization says.
    """
    reached: Dict[int, Term] = {}
    stack = list(terms)
    while stack:
        term = stack.pop()
        if term.tid not in reached:
            reached[term.tid] = term
            stack.extend(term.args)
    # A term is always created after its operands, so ascending tids put
    # children before parents.
    tids = sorted(reached)
    index = {tid: node for node, tid in enumerate(tids)}
    kids: List[tuple] = []          # child positions of every node
    seeds: List[int] = []
    shared: List[bool] = []
    for tid in tids:
        term = reached[tid]
        args = term.args
        if not args:
            kids.append(())
        elif len(args) == 1:
            kids.append((index[args[0].tid],))
        elif len(args) == 2:
            kids.append((index[args[0].tid], index[args[1].tid]))
        else:
            kids.append(tuple([index[a.tid] for a in args]))
        seed, commutative = _static(term)
        seeds.append(seed)
        shared.append(commutative)
    count = len(tids)
    mask, step, mix1, mix2 = _COLOR_MASK, _STEP, _MIX1, _MIX2

    def upward(context: List[int]) -> List[int]:
        # The fold is only reduced mod 2**64 once per node: arithmetic mod
        # 2**64 gives the same word whether it masks each step or the end.
        colors = [0] * count
        for node in range(count):
            word = seeds[node] ^ (context[node] & mask)
            children = kids[node]
            if len(children) == 1:
                word = word * step + colors[children[0]]
            elif len(children) == 2:
                first, second = colors[children[0]], colors[children[1]]
                if first > second and shared[node]:
                    first, second = second, first
                word = (word * step + first) * step + second
            elif children:
                child = [colors[c] for c in children]
                if shared[node]:
                    child.sort()
                for color in child:
                    word = word * step + color
            word &= mask
            word = (word ^ (word >> 30)) * mix1 & mask
            word = (word ^ (word >> 27)) * mix2 & mask
            colors[node] = word ^ (word >> 31)
        return colors

    colors = upward([0] * count)
    for _ in range(2):               # two refinement rounds suffice in practice
        context = [0] * count
        for position, root in enumerate(terms):
            context[index[root.tid]] += _mix(_ROOT_ROLE + position)
        for node in range(count - 1, -1, -1):    # parents before children
            children = kids[node]
            if not children:
                continue
            mine = (colors[node] * step + context[node]) & mask
            if shared[node]:
                word = mine ^ _SHARED_ROLE
                word = (word ^ (word >> 30)) * mix1 & mask
                word = (word ^ (word >> 27)) * mix2 & mask
                word ^= word >> 31
                for child in children:
                    context[child] += word
            else:
                for position, child in enumerate(children):
                    word = (mine + position) & mask
                    word = (word ^ (word >> 30)) * mix1 & mask
                    word = (word ^ (word >> 27)) * mix2 & mask
                    context[child] += word ^ (word >> 31)
        colors = upward(context)
    return dict(zip(tids, colors))


def canonical_query_key(terms: Sequence[Term]) -> str:
    """Content address of a query: SHA-256 of its canonical serialization.

    The serialization walks the term DAG bottom-up, assigns every distinct
    node a sequential index, alpha-renames variables in first-visit order,
    and lists the operands of commutative operators in a canonical,
    structure-derived order (see :func:`_canonical_colors`).  Two queries
    receive the same key iff their term DAGs are structurally identical up
    to variable naming and commutative operand order — both of which
    preserve semantics, so replaying a verdict across equal keys is sound.
    """
    return _serialized_key(terms, _canonical_colors(terms))


def _serialized_key(terms: Sequence[Term], colors: Dict[int, int]) -> str:
    """SHA-256 of the serialization whose commutative order ``colors`` picks.

    Operands of a commutative node are listed by ascending color; equal
    colors keep the term manager's order (the sort is stable).
    """
    color = colors.__getitem__
    rename: Dict[str, str] = {}
    memo: Dict[int, str] = {}
    nodes: List[str] = []
    for root in terms:
        stack: List[tuple] = [(root, None)]
        while stack:
            term, args = stack.pop()
            if term.tid in memo:
                continue
            if args is None:
                args = term.args
                if len(args) > 1 and term.op._value_ in _SHARED_OPS:
                    if len(args) > 2:
                        args = sorted(args, key=lambda a: color(a.tid))
                    elif color(args[0].tid) > color(args[1].tid):
                        args = (args[1], args[0])
                # Reversed push so the canonically-first operand is visited
                # (and therefore alpha-renamed) first.
                pending = [(arg, None) for arg in reversed(args)
                           if arg.tid not in memo] if args else None
                if pending:
                    stack.append((term, args))
                    stack.extend(pending)
                    continue
            op, sort = term.op, term.sort
            if op is _VAR:
                text = "bool" if sort.kind == "bool" else f"bv{sort.width}"
                alias = rename.setdefault(term.attrs[0], f"v{len(rename)}")
                node = f"var:{alias}:{text}"
            elif op is _CONST:
                text = "bool" if sort.kind == "bool" else f"bv{sort.width}"
                node = f"const:{term.attrs[0]}:{text}"
            else:
                node = f"{op._value_}:{','.join(map(str, term.attrs))}:" \
                       + ",".join([memo[a.tid] for a in args])
            memo[term.tid] = f"n{len(nodes)}"
            nodes.append(node)
    roots = ",".join(memo[t.tid] for t in terms)
    blob = ";".join(nodes) + "|" + roots
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CacheEntry:
    """One cached verdict, qualified by the budget it was computed under."""

    key: str
    verdict: str
    timeout: Optional[float] = None
    max_conflicts: Optional[int] = None
    elapsed: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {"key": self.key, "verdict": self.verdict,
                "timeout": self.timeout, "max_conflicts": self.max_conflicts,
                "elapsed": round(self.elapsed, 6)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CacheEntry":
        return cls(key=str(data["key"]), verdict=str(data["verdict"]),
                   timeout=data.get("timeout"),
                   max_conflicts=data.get("max_conflicts"),
                   elapsed=float(data.get("elapsed", 0.0)))

    def budget_covers(self, timeout: Optional[float],
                      max_conflicts: Optional[int]) -> bool:
        """True if this entry's budget is at least the requested budget."""
        if self.timeout is not None and (timeout is None or self.timeout < timeout):
            return False
        if self.max_conflicts is not None and \
                (max_conflicts is None or self.max_conflicts < max_conflicts):
            return False
        return True

    def replaces(self, existing: Optional["CacheEntry"]) -> bool:
        """The merge rule: may this entry overwrite ``existing``?

        A definitive verdict is never downgraded, and an ``unknown`` only
        replaces another ``unknown`` whose budget its own covers.
        """
        if existing is None:
            return True
        if existing.verdict != VERDICT_UNKNOWN:
            return False
        return self.verdict != VERDICT_UNKNOWN or \
            self.budget_covers(existing.timeout, existing.max_conflicts)


@contextlib.contextmanager
def _advisory_lock(path: str):
    """Exclusive advisory file lock guarding cache-file rewrites.

    Serializes flushes from *cooperating* processes — the checking daemon
    and batch CLI runs pointed at one ``cache_path`` — via ``flock`` on a
    sidecar ``<path>.lock`` file.  On platforms without ``fcntl`` the lock
    degrades to a no-op; the atomic temp-file rename in :meth:`flush` still
    guarantees readers never observe a torn file, only that two
    simultaneous writers may each publish a complete (last-wins) file.
    """
    try:
        import fcntl
    except ImportError:                       # non-POSIX: rename-only safety
        yield
        return
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "a+", encoding="utf-8") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


class SolverQueryCache:
    """In-process LRU of solver verdicts, persistable to disk as JSONL.

    The cache is shared by every :class:`~repro.core.queries.QueryEngine`
    a checker run creates.  ``flush()`` *merges* entries added since the
    last flush into the JSONL file at ``path`` — under an advisory file
    lock, rewriting via a same-directory temp file and an atomic rename —
    so a long-running daemon and concurrent batch CLI runs can safely
    share one cache file: no interleaved or torn records, no lost entries,
    definitive verdicts never downgraded.  A fresh cache constructed with
    the same ``path`` starts warm.
    """

    def __init__(self, capacity: int = 100_000,
                 path: Optional[str] = None) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.path = path
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._unflushed: List[CacheEntry] = []
        if path is not None:
            self.load(path)

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookup / store -----------------------------------------------------------

    def lookup(self, key: str, timeout: Optional[float] = None,
               max_conflicts: Optional[int] = None) -> Optional[str]:
        """Return the cached verdict for ``key``, or None on a miss.

        An ``unknown`` verdict only counts as a hit when it was computed
        under a budget at least as large as the requested one.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.verdict == VERDICT_UNKNOWN and \
                not entry.budget_covers(timeout, max_conflicts):
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry.verdict

    def store(self, key: str, verdict: str, timeout: Optional[float] = None,
              max_conflicts: Optional[int] = None, elapsed: float = 0.0) -> None:
        """Record a verdict computed under the given budget."""
        if verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        existing = self._entries.get(key)
        if existing is not None and existing.verdict != VERDICT_UNKNOWN:
            # A definitive verdict never gets downgraded.
            self._entries.move_to_end(key)
            return
        entry = CacheEntry(key=key, verdict=verdict, timeout=timeout,
                           max_conflicts=max_conflicts, elapsed=elapsed)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self._unflushed.append(entry)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    # -- merging across processes ---------------------------------------------------

    def drain_new_entries(self) -> List[Dict[str, object]]:
        """Entries added since the last drain/flush, as JSON-ready dicts.

        Worker processes call this after each work unit so the parent can
        absorb their discoveries into the authoritative cache.
        """
        drained = [entry.as_dict() for entry in self._unflushed]
        self._unflushed = []
        return drained

    def absorb(self, entries: Iterable[Dict[str, object]]) -> int:
        """Merge entries drained from another cache; returns how many were new."""
        added = 0
        for data in entries:
            entry = CacheEntry.from_dict(data)
            if not entry.replaces(self._entries.get(entry.key)):
                continue
            self._entries[entry.key] = entry
            self._entries.move_to_end(entry.key)
            self._unflushed.append(entry)
            added += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return added

    def snapshot(self) -> List[Dict[str, object]]:
        """All current entries as JSON-ready dicts (for seeding workers)."""
        return [entry.as_dict() for entry in self._entries.values()]

    def seed(self, entries: Iterable[Dict[str, object]]) -> None:
        """Load entries without marking them dirty (worker bootstrap).

        Entries merge under the same rule as :meth:`absorb`, so a file
        holding a definitive verdict and a later ``unknown`` for one key
        (appended or concatenated cache files) keeps the definitive one.
        """
        for data in entries:
            entry = CacheEntry.from_dict(data)
            if entry.replaces(self._entries.get(entry.key)):
                self._entries[entry.key] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    # -- disk persistence ------------------------------------------------------------

    def load(self, path: str) -> int:
        """Read a JSONL cache file; silently tolerates a missing file."""
        if not os.path.exists(path):
            return 0
        loaded = 0
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError:
                    continue          # torn line from an interrupted flush
                if "key" not in data or data.get("verdict") not in _VERDICTS:
                    continue
                self.seed((data,))
                loaded += 1
        return loaded

    def flush(self, path: Optional[str] = None) -> int:
        """Merge entries added since the last flush into the JSONL file.

        Concurrent-writer safe: the whole read-merge-rewrite runs under an
        exclusive advisory lock (``<path>.lock``), re-reads entries other
        processes published since this cache loaded, merges this cache's
        unflushed entries on top under the merge rule of
        :meth:`CacheEntry.replaces` (definitive verdicts win over
        ``unknown``; an ``unknown`` only replaces another under a budget at
        least as large), writes the result to a same-directory temp file, and
        atomically renames it into place.  Readers therefore always see a
        complete file, and cooperating writers never lose each other's
        entries.  Returns how many of this cache's entries were merged in.
        """
        target = path if path is not None else self.path
        if target is None or not self._unflushed:
            self._unflushed = []
            return 0
        directory = os.path.dirname(target)
        if directory:
            os.makedirs(directory, exist_ok=True)
        written = 0
        with _advisory_lock(target + ".lock"):
            merged: "OrderedDict[str, CacheEntry]" = OrderedDict()
            if os.path.exists(target):
                with open(target, "r", encoding="utf-8") as handle:
                    for line in handle:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            data = json.loads(line)
                        except json.JSONDecodeError:
                            continue       # pre-lock legacy torn line
                        if "key" not in data or \
                                data.get("verdict") not in _VERDICTS:
                            continue
                        entry = CacheEntry.from_dict(data)
                        if entry.replaces(merged.get(entry.key)):
                            merged[entry.key] = entry
            for entry in self._unflushed:
                if not entry.replaces(merged.get(entry.key)):
                    continue
                merged[entry.key] = entry
                written += 1
            fd, temp_path = tempfile.mkstemp(
                prefix=os.path.basename(target) + ".",
                suffix=".tmp", dir=directory or ".")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    for entry in merged.values():
                        handle.write(json.dumps(entry.as_dict()) + "\n")
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(temp_path, target)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(temp_path)
                raise
        self._unflushed = []
        return written

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats_dict(self) -> Dict[str, object]:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses, "hit_rate": round(self.hit_rate, 4)}
