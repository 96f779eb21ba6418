"""Cache-coherence directory (snoop filter).

Intel's CHA pairs each LLC slice with a Snoop Filter that tracks which
cores may hold a line and in what aggregate state (section 2.2).  The
MESIF-like protocol means an LLC miss can still be served on-socket by a
core-to-core snoop (HitM / forward), which the CHA PMU classifies by
source.  We keep a directory per socket: line -> (owners, state).

The directory is deliberately precise (no false sharing of SF entries, no
capacity evictions) - the paper's counters do not expose SF conflict
behaviour, so modelling it would add noise without a comparable signal.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from .cache import MESIF

# Enum member lookups are attribute calls on CPython 3.11; the hot
# paths use these module-level aliases instead.
_MODIFIED = MESIF.MODIFIED
_EXCLUSIVE = MESIF.EXCLUSIVE
_SHARED = MESIF.SHARED
_INVALID = MESIF.INVALID


class DirectoryEntry:
    """One line's sharers, aggregate state and M holder."""

    __slots__ = ("owners", "state", "dirty_owner")

    def __init__(self) -> None:
        self.owners: Set[int] = set()             # core ids with a copy
        self.state = _INVALID
        self.dirty_owner: Optional[int] = None    # core holding M


class SnoopResult:
    """Outcome of a directory consult for one request."""

    __slots__ = ("served_by_core", "had_modified", "invalidated", "was_shared")

    def __init__(
        self,
        served_by_core: Optional[int] = None,
        had_modified: bool = False,
        invalidated: int = 0,
        was_shared: bool = False,
    ) -> None:
        self.served_by_core = served_by_core
        self.had_modified = had_modified
        self.invalidated = invalidated
        self.was_shared = was_shared

    @property
    def hit(self) -> bool:
        return self.served_by_core is not None


#: The outcome of every consult that snoops no other core; callers only
#: read a result, so one instance serves them all.
_NO_SNOOP = SnoopResult()


class Directory:
    """Per-socket coherence directory consulted by the CHA."""

    __slots__ = ("socket", "_entries", "transitions")

    def __init__(self, socket: int = 0) -> None:
        self.socket = socket
        self._entries: Dict[int, DirectoryEntry] = {}
        # Coherence event meters (feed the CHA PMU's state-machine counters).
        self.transitions: Dict[str, int] = {}

    def _note(self, transition: str) -> None:
        self.transitions[transition] = self.transitions.get(transition, 0) + 1

    def entry(self, line: int) -> Optional[DirectoryEntry]:
        return self._entries.get(line)

    # -- request handling ---------------------------------------------------

    def read(self, line: int, requester: int) -> SnoopResult:
        """A DRd/prefetch consults the directory after missing the LLC.

        If some other core holds the line, it is snooped and the data is
        forwarded (F/M state per MESIF); the requester is added as a sharer.
        """
        entry = self._entries.get(line)
        if entry is None or not entry.owners:
            if entry is None:
                entry = DirectoryEntry()
                self._entries[line] = entry
            entry.owners = {requester}
            entry.state = _EXCLUSIVE
            self._note("I->E")
            return _NO_SNOOP
        owners = entry.owners
        if requester in owners and len(owners) == 1:
            # Sole-owner re-read: no snoop, no state change (hot path).
            return _NO_SNOOP
        result = SnoopResult()
        others = owners - {requester}
        if others:
            forwarder = min(others)
            result.served_by_core = forwarder
            result.had_modified = entry.dirty_owner is not None
            result.was_shared = len(owners) > 1
            if entry.state is _MODIFIED:
                self._note("M->S")
            elif entry.state is _EXCLUSIVE:
                self._note("E->F")
            entry.state = _SHARED
            entry.dirty_owner = None
        owners.add(requester)
        return result

    def read_for_ownership(self, line: int, requester: int) -> SnoopResult:
        """An RFO invalidates all other copies and grants E to requester."""
        entry = self._entries.get(line)
        if entry is None:
            entry = DirectoryEntry()
            self._entries[line] = entry
        elif requester in entry.owners and len(entry.owners) == 1:
            # Sole owner upgrading: no snoop; state resets to E as below.
            entry.state = _EXCLUSIVE
            entry.dirty_owner = None
            self._note("I->E")
            return _NO_SNOOP
        result = SnoopResult()
        others = entry.owners - {requester}
        if others:
            result.served_by_core = min(others)
            result.had_modified = entry.dirty_owner is not None
            result.invalidated = len(others)
            result.was_shared = True
            if entry.state is _SHARED:
                self._note("S->I")
            elif entry.state is _MODIFIED:
                self._note("M->I")
            else:
                self._note("E->I")
        entry.owners = {requester}
        entry.state = _EXCLUSIVE
        entry.dirty_owner = None
        self._note("I->E" if not others else "E->E")
        return result

    def mark_modified(self, line: int, owner: int) -> None:
        """The owning core's store retired: line is now M."""
        entry = self._entries.setdefault(line, DirectoryEntry())
        entry.owners = {owner}
        if entry.state is not _MODIFIED:
            self._note(f"{entry.state.value}->M")
        entry.state = _MODIFIED
        entry.dirty_owner = owner

    def drop(self, line: int, owner: int) -> bool:
        """A private-cache eviction removed ``owner``'s copy.

        Returns True when the dropped copy was dirty (needs write-back).
        """
        entry = self._entries.get(line)
        if entry is None or owner not in entry.owners:
            return False
        entry.owners.discard(owner)
        was_dirty = entry.dirty_owner == owner
        if was_dirty:
            entry.dirty_owner = None
            self._note("M->I")
        if not entry.owners:
            entry.state = _INVALID
        return was_dirty

    def sharers(self, line: int) -> Set[int]:
        entry = self._entries.get(line)
        return set(entry.owners) if entry else set()

    def __len__(self) -> int:
        return sum(1 for e in self._entries.values() if e.owners)
