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

    def message_ns(self, nbytes=0, now=None):
        """Charge one message of ``nbytes`` payload; return its cost.

        ``now`` (virtual send time) lets the fault injector apply
        time-windowed congestion delays; without it only always-on delay
        faults apply.
        """
        self.stats.rpc_messages += 1
        self.stats.network_bytes += int(nbytes)
        cost = self.config.net_message_ns(nbytes)
        if self.injector is not None:
            extra = self.injector.message_delay_ns(now)
            if extra > 0.0:
                self.stats.messages_delayed += 1
                cost += extra
        return cost

    def roundtrip_ns(self, request_bytes=0, response_bytes=0, now=None):
        """Charge a request/response pair; return total cost."""
        return self.message_ns(request_bytes, now=now) + self.message_ns(
            response_bytes, now=now
        )

    def pages_in_ns(self, npages, batched=True):
        """Charge fetching ``npages`` from memory pool to compute pool.

        ``batched`` pages travel in one fault-sized request (prefetching);
        otherwise each page pays full latency.
        """
        self.stats.remote_pages_in += npages
        page = self.config.page_size
        self.stats.network_bytes += npages * page
        self.stats.rpc_messages += 2 if batched else 2 * npages
        if batched:
            return self.config.remote_fault_ns(npages)
        return npages * self.config.single_fault_ns

    def page_faults_ns(self, npages):
        """Charge ``npages`` single-page fetches, one request each.

        Counts the traffic of ``npages`` calls of ``pages_in_ns(1)`` at
        once and returns the cost of *one* of them, for the caller to add
        once per page (as :meth:`page_writebacks_ns` does).
        """
        self.stats.remote_pages_in += npages
        self.stats.network_bytes += npages * self.config.page_size
        self.stats.rpc_messages += 2 * npages
        return self.config.single_fault_ns

    def pages_out_ns(self, npages, batched=True):
        """Charge writing ``npages`` back from compute pool to memory pool."""
        self.stats.remote_pages_out += npages
        page = self.config.page_size
        self.stats.network_bytes += npages * page
        self.stats.rpc_messages += 1 if batched else npages
        if batched:
            return self.config.page_writeback_ns(npages)
        return npages * self.config.single_writeback_ns

    def page_writebacks_ns(self, npages):
        """Charge ``npages`` single-page write-backs, one message each.

        Counts the traffic of ``npages`` calls of ``pages_out_ns(1)`` at
        once and returns the cost of *one* of them. A caller adds it once
        per page, so that its running total rounds exactly as those calls'
        would.
        """
        self.stats.remote_pages_out += npages
        self.stats.network_bytes += npages * self.config.page_size
        self.stats.rpc_messages += npages
        return self.config.single_writeback_ns

    def coherence_message_ns(self, with_page=False):
        """Charge one coherence-protocol message (Section 4.1).

        ``with_page`` adds a 4 KiB page transfer (ownership migration).
        """
        self.stats.coherence_messages += 1
        cost = self.config.coherence_msg_ns
        if with_page:
            self.stats.network_bytes += self.config.page_size
            cost += self.config.page_size / self.config.net_bandwidth_bytes_per_ns
        return cost
