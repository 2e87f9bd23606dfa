"""Page table entries.

A :class:`PageTableEntry` carries exactly the bits the paper's protocol
reads and writes (Figures 8 and 9): ``present``, ``writable`` and ``dirty``.
"""


class PageTableEntry:
    """Placement metadata for one virtual page."""

    __slots__ = ("present", "writable", "dirty")

    def __init__(self, present=False, writable=False, dirty=False):
        self.present = present
        self.writable = writable
        self.dirty = dirty

    @property
    def permission(self):
        """Symbolic permission: '0' absent, 'R' read-only, 'W' writable.

        Matches the state names used in the paper's concurrent-fault
        analysis (Section 4.1).
        """
        if not self.present:
            return "0"
        return "W" if self.writable else "R"

    def __eq__(self, other):
        if not isinstance(other, PageTableEntry):
            return NotImplemented
        return (
            self.present == other.present
            and self.writable == other.writable
            and self.dirty == other.dirty
        )

    def __repr__(self):
        return (
            f"PTE(present={self.present}, writable={self.writable}, dirty={self.dirty})"
        )
