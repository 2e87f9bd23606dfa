"""Materialised vectors: typed arrays living in simulated memory.

A :class:`Vector` is the unit of data flow between operators (MonetDB's
BAT): a region of the process address space holding ``length`` elements.
Reading/writing a vector goes through an execution context so the platform
charges the appropriate cost.
"""

import numpy as np


class Vector:
    """A typed, materialised column of values in a memory region."""

    __slots__ = ("region", "length")

    def __init__(self, region, length=None):
        self.region = region
        self.length = len(region.array) if length is None else int(length)

    @classmethod
    def materialize(cls, ctx, process, name, values):
        """Allocate a region and write ``values`` into it (charged)."""
        values = np.asarray(values)
        region = process.alloc_array(process.unique_name(name), values.copy())
        # Materialisation writes the fresh pages (write-allocate).
        ctx.touch_seq(region, 0, len(values), write=True)
        return cls(region, len(values))

    def __len__(self):
        return self.length

    def read(self, ctx):
        """Sequential read of the whole vector."""
        return ctx.load_slice(self.region, 0, self.length)

    def gather(self, ctx, indices):
        """Random reads at ``indices``."""
        return ctx.gather(self.region, indices)

    def __repr__(self):
        return f"Vector({self.region.name!r}, length={self.length}, dtype={self.region.array.dtype})"
