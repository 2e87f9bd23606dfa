"""The disaggregation fabric.

Models a reliable, FIFO RDMA network (the paper uses LITE's two-sided RPC
over one-sided writes). The network only computes costs and counts traffic;
delivery ordering is guaranteed by the discrete-event scheduler, matching
the paper's assumption that "RPC messages are received and handled in FIFO
order (enforced using reliable RDMA connections)".
"""


class Network:
    """Cost model of the RDMA fabric connecting the resource pools."""

    def __init__(self, config, stats, injector=None):
        self.config = config
        self.stats = stats
        #: Optional :class:`~repro.faults.injector.FaultInjector`; when set,
        #: messages may pay extra congestion latency (DELAY faults).
        self.injector = injector

    def message_ps(self, nbytes=0, now=None):
        """Charge one message of ``nbytes`` payload; return its cost.

        ``now`` (virtual send time) lets the fault injector apply
        time-windowed congestion delays; without it only always-on delay
        faults apply.
        """
        self.stats.rpc_messages += 1
        self.stats.network_bytes += int(nbytes)
        cost = self.config.net_message_ps(nbytes)
        if self.injector is not None:
            extra = self.injector.message_delay_ps(now)
            if extra > 0:
                self.stats.messages_delayed += 1
                cost += extra
        return cost

    def pages_in_ps(self, npages, batch):
        """Charge fetching ``npages`` from memory pool to compute pool in
        fault requests of ``batch`` pages each, the last one possibly
        partial.

        Each request is a request/response pair costing
        ``remote_fault_ps`` of its pages, so the charge is ``npages //
        batch`` full requests plus one for the remainder. ``batch=1`` is a
        single-page fault per page; ``batch=npages`` is one prefetch batch.
        Zero pages cost nothing.
        """
        full, rest = divmod(npages, batch)
        config = self.config
        self.stats.remote_pages_in += npages
        self.stats.network_bytes += npages * config.page_size
        self.stats.rpc_messages += 2 * (full + (rest > 0))
        cost = full * config.remote_fault_ps(batch)
        if rest:
            cost += config.remote_fault_ps(rest)
        return cost

    def pages_out_ps(self, npages, batch):
        """Charge writing ``npages`` back from compute pool to memory pool
        in messages of ``batch`` pages each, the last one possibly partial.

        Each message costs ``page_writeback_ps`` of its pages. ``batch=1``
        is a single-page write-back per page; ``batch=npages`` is one
        message. Zero pages cost nothing.
        """
        full, rest = divmod(npages, batch)
        config = self.config
        self.stats.remote_pages_out += npages
        self.stats.network_bytes += npages * config.page_size
        self.stats.rpc_messages += full + (rest > 0)
        cost = full * config.page_writeback_ps(batch)
        if rest:
            cost += config.page_writeback_ps(rest)
        return cost

    def coherence_message_ps(self, with_page=False):
        """Charge one coherence-protocol message (Section 4.1).

        ``with_page`` adds a 4 KiB page transfer (ownership migration).
        """
        self.stats.coherence_messages += 1
        cost = self.config.coherence_msg_ps
        if with_page:
            self.stats.network_bytes += self.config.page_size
            cost += self.config.transfer_ps(self.config.page_size)
        return cost
