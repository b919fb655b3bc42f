//! Protocol-independent DRAM controller.

use tsocc_mem::MainMemory;
use tsocc_sim::{Counter, Cycle};

use crate::iface::{same_type, CacheController};
use crate::msg::{Agent, Msg, NetMsg};
use crate::outbox::Outbox;

/// A memory controller servicing line reads and writebacks from L2
/// tiles with a fixed access latency.
///
/// The paper's Table 2 lists 120–230 cycle memory latency; the spread
/// there comes from NUCA distance, which our mesh already models, so the
/// controller itself charges a flat array latency.
///
/// # Examples
///
/// ```
/// use tsocc_coherence::{Agent, CacheController, MemCtrl, Msg};
/// use tsocc_mem::{Addr, MainMemory};
/// use tsocc_sim::Cycle;
///
/// let mut mc = MemCtrl::new(0, MainMemory::new(), 100);
/// let line = Addr::new(0x40).line();
/// mc.handle_message(Cycle::ZERO, Agent::L2(3), Msg::MemRead { line });
/// assert_eq!(mc.next_event(), Cycle::new(100));
/// let mut out = Vec::new();
/// mc.drain_outbox(Cycle::new(99), &mut out);
/// assert!(out.is_empty());
/// mc.drain_outbox(Cycle::new(100), &mut out);
/// assert_eq!(out.len(), 1);
/// assert_eq!(out[0].dst, Agent::L2(3));
/// ```
#[derive(Debug)]
pub struct MemCtrl {
    id: usize,
    memory: MainMemory,
    latency: u64,
    outbox: Outbox,
    /// Reads and writes serviced.
    pub reads: Counter,
    /// Writebacks absorbed.
    pub writes: Counter,
}

impl MemCtrl {
    /// Creates controller `id` over `memory` with the given access
    /// latency in cycles.
    pub fn new(id: usize, memory: MainMemory, latency: u64) -> Self {
        MemCtrl {
            id,
            memory,
            latency,
            outbox: Outbox::new(),
            reads: Counter::new(),
            writes: Counter::new(),
        }
    }

    /// This controller's agent identity.
    pub fn agent(&self) -> Agent {
        Agent::Mem(self.id)
    }

    /// Read access to the backing memory (for result checking).
    pub fn memory(&self) -> &MainMemory {
        &self.memory
    }

    /// Mutable access to the backing memory (for program loading).
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.memory
    }
}

impl CacheController for MemCtrl {
    fn handle_message(&mut self, now: Cycle, src: Agent, msg: Msg) {
        match msg {
            Msg::MemRead { line } => {
                self.reads.inc();
                let data = self.memory.read_line(line);
                self.outbox.push(
                    now + self.latency,
                    NetMsg {
                        src: self.agent(),
                        dst: src,
                        msg: Msg::MemData { line, data },
                    },
                );
            }
            Msg::MemWrite { line, data } => {
                self.writes.inc();
                self.memory.write_line(line, data);
            }
            other => panic!("memory controller received {other:?} from {src}"),
        }
    }

    fn tick(&mut self, _now: Cycle) {}

    fn drain_outbox(&mut self, now: Cycle, out: &mut Vec<NetMsg>) {
        self.outbox.drain_ready_into(now, out);
    }

    fn is_quiescent(&self) -> bool {
        self.outbox.is_empty()
    }

    fn next_event(&self) -> Cycle {
        // Purely reactive: acts only when a queued response matures.
        self.outbox.next_ready()
    }

    fn copy_from(&mut self, src: &dyn CacheController) {
        let src: &MemCtrl = same_type(src);
        let MemCtrl {
            id,
            memory,
            latency,
            outbox,
            reads,
            writes,
        } = self;
        *id = src.id;
        memory.copy_from(&src.memory);
        *latency = src.latency;
        outbox.copy_from(&src.outbox);
        *reads = src.reads;
        *writes = src.writes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsocc_mem::{Addr, LineData};

    #[test]
    fn read_returns_written_data() {
        let mut mem = MainMemory::new();
        mem.write_word(Addr::new(0x40), 99);
        let mut mc = MemCtrl::new(0, mem, 10);
        let line = Addr::new(0x40).line();
        mc.handle_message(Cycle::ZERO, Agent::L2(1), Msg::MemRead { line });
        assert_eq!(mc.next_event(), Cycle::new(10));
        let mut out = Vec::new();
        mc.drain_outbox(Cycle::new(10), &mut out);
        assert_eq!(mc.next_event(), Cycle::MAX);
        match &out[0].msg {
            Msg::MemData { data, .. } => assert_eq!(data.read_word(0), 99),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(mc.reads.get(), 1);
    }

    #[test]
    fn writeback_updates_memory_without_reply() {
        let mut mc = MemCtrl::new(0, MainMemory::new(), 10);
        let line = Addr::new(0x80).line();
        let mut data = LineData::zeroed();
        data.write_word(1, 5);
        mc.handle_message(Cycle::ZERO, Agent::L2(0), Msg::MemWrite { line, data });
        let mut out = Vec::new();
        mc.drain_outbox(Cycle::new(1000), &mut out);
        assert!(out.is_empty());
        assert_eq!(mc.memory().read_word(Addr::new(0x88)), 5);
        assert_eq!(mc.writes.get(), 1);
        assert!(mc.is_quiescent());
    }

    #[test]
    fn a_copy_carries_memory_responses_and_counters() {
        let mut mc = MemCtrl::new(0, MainMemory::new(), 10);
        let line = Addr::new(0x80).line();
        let mut data = LineData::zeroed();
        data.write_word(0, 5);
        mc.handle_message(Cycle::ZERO, Agent::L2(0), Msg::MemWrite { line, data });
        mc.handle_message(Cycle::ZERO, Agent::L2(1), Msg::MemRead { line });
        let mut copy = MemCtrl::new(0, MainMemory::new(), 10);
        copy.copy_from(&mc);
        assert_eq!((copy.reads.get(), copy.writes.get()), (1, 1));
        assert_eq!(copy.memory().read_word(Addr::new(0x80)), 5);
        let (mut sent, mut sent_copy) = (Vec::new(), Vec::new());
        mc.drain_outbox(Cycle::new(10), &mut sent);
        copy.drain_outbox(Cycle::new(10), &mut sent_copy);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent_copy, sent);
    }

    #[test]
    #[should_panic]
    fn unexpected_message_panics() {
        let mut mc = MemCtrl::new(0, MainMemory::new(), 10);
        let line = Addr::new(0).line();
        mc.handle_message(Cycle::ZERO, Agent::L1(0), Msg::GetS { line });
    }
}
