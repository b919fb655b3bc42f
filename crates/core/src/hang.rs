//! Structured hang diagnosis: what was the machine waiting for when a
//! run deadlocked or timed out?
//!
//! [`crate::System::hang_report`] snapshots every controller's
//! outstanding work (via [`tsocc_coherence::CacheController::probe`])
//! and the in-flight network messages, derives a **wait-for graph**
//! over the controllers, and searches it for a cycle — the classic
//! deadlock witness. For a request wedged by a held MSHR the cycle
//! reads `L1#c -> L2#home -> L1#c`, naming the blocked line on every
//! edge.
//!
//! The report is plain data (no I/O here). The litmus runner
//! (`tsocc_workloads::run_litmus`) returns it with a hung iteration's
//! run error, and [`HangReport::summary`] renders it as one line.

use tsocc_coherence::CtrlProbe;
use tsocc_mem::LineAddr;

/// One L1 controller with outstanding work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct L1Hang {
    /// The core whose L1 this is.
    pub core: usize,
    /// The controller's outstanding-work snapshot.
    pub probe: CtrlProbe,
}

/// One L2 tile with outstanding work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct L2Hang {
    /// The tile index.
    pub tile: usize,
    /// The controller's outstanding-work snapshot.
    pub probe: CtrlProbe,
}

/// One in-flight network message at hang time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetHang {
    /// Scheduled arrival cycle.
    pub at: u64,
    /// Destination router.
    pub dst: usize,
    /// Message kind (e.g. `"Data"`, `"InvAck"`).
    pub kind: &'static str,
    /// The line the message concerns, when it has one.
    pub line: Option<LineAddr>,
}

/// One wait-for edge: `from` cannot make progress on `line` until `to`
/// acts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitEdge {
    /// Waiting controller (`"L1#i"` / `"L2#t"`).
    pub from: String,
    /// The controller it waits on.
    pub to: String,
    /// The blocked line.
    pub line: LineAddr,
}

/// A structured snapshot of a hung machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HangReport {
    /// Simulated cycle at which the hang was declared.
    pub at_cycle: u64,
    /// Cores that had not halted.
    pub cores_unfinished: usize,
    /// Controllers with outstanding work.
    pub busy_controllers: usize,
    /// L1s with outstanding work (MSHRs, parked writebacks, queued
    /// outbox messages), ascending core id.
    pub l1s: Vec<L1Hang>,
    /// L2 tiles with outstanding work (busy transaction chains, replay
    /// queues), ascending tile id.
    pub l2s: Vec<L2Hang>,
    /// In-flight mesh messages, sorted by arrival cycle, then
    /// destination, kind and line — every field, so the order does not
    /// depend on how the mesh stores them (a hung machine has few; a
    /// timeout may have many).
    pub in_flight: Vec<NetHang>,
    /// The wait-for graph: every derived edge, deterministic order.
    pub edges: Vec<WaitEdge>,
    /// A wait-for cycle, if one exists: the deadlock witness, as the
    /// closed edge path. Empty when no cycle was found (e.g. the hang
    /// is a lost message rather than a circular wait).
    pub cycle: Vec<WaitEdge>,
}

impl HangReport {
    /// The smallest blocked line address over every MSHR, parked
    /// writeback and busy transaction — a deterministic one-line
    /// summary for error messages.
    pub fn first_blocked_line(&self) -> Option<LineAddr> {
        let l1 = self
            .l1s
            .iter()
            .flat_map(|h| h.probe.mshr_lines.iter().chain(h.probe.wb_lines.iter()))
            .copied();
        let l2 = self
            .l2s
            .iter()
            .flat_map(|h| h.probe.busy.iter().map(|b| b.line));
        l1.chain(l2).min()
    }

    /// One-line human summary (the full structure is for programmatic
    /// checks such as [`HangReport::first_blocked_line`]).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "hang at cycle {}: {} cores unfinished, {} busy controllers, \
             {} L1(s) and {} L2(s) with outstanding work, {} message(s) in flight",
            self.at_cycle,
            self.cores_unfinished,
            self.busy_controllers,
            self.l1s.len(),
            self.l2s.len(),
            self.in_flight.len(),
        );
        if let Some(edge) = self.cycle.first() {
            s.push_str(&format!(
                "; wait-for cycle of {} edge(s) on {}",
                self.cycle.len(),
                edge.line
            ));
        }
        s
    }
}

/// Builds the wait-for edge list and finds a cycle. Nodes are dense
/// indices: L1s `0..n_cores`, L2s `n_cores..n_cores + n_tiles`.
///
/// Edges:
/// - `L1#i -> L2#home(X)` for every MSHR or parked writeback on line
///   `X` (the miss or eviction cannot finish until the home tile
///   responds);
/// - `L2#t -> L1#j` for every busy transaction on line `X` at tile `t`
///   where L1 `j` also has `X` outstanding (the directory is blocked
///   on that L1's unblock / data / ack).
pub(crate) fn wait_graph(
    n_cores: usize,
    l1s: &[L1Hang],
    l2s: &[L2Hang],
    home_tile: impl Fn(LineAddr) -> usize,
) -> (Vec<WaitEdge>, Vec<WaitEdge>) {
    let name = |node: usize| {
        if node < n_cores {
            format!("L1#{node}")
        } else {
            format!("L2#{}", node - n_cores)
        }
    };
    // (from, to, line), deduplicated, deterministic order.
    let mut raw: Vec<(usize, usize, LineAddr)> = Vec::new();
    for h in l1s {
        for &line in h.probe.mshr_lines.iter().chain(h.probe.wb_lines.iter()) {
            raw.push((h.core, n_cores + home_tile(line), line));
        }
    }
    for h in l2s {
        for b in &h.probe.busy {
            for l1 in l1s {
                if l1
                    .probe
                    .mshr_lines
                    .iter()
                    .chain(l1.probe.wb_lines.iter())
                    .any(|&x| x == b.line)
                {
                    raw.push((n_cores + h.tile, l1.core, b.line));
                }
            }
        }
    }
    raw.sort_unstable_by_key(|&(f, t, l)| (f, t, l));
    raw.dedup();

    // DFS cycle search over the dense node ids.
    let n_nodes = raw.iter().map(|&(f, t, _)| f.max(t) + 1).max().unwrap_or(0);
    let mut adj: Vec<Vec<(usize, LineAddr)>> = vec![Vec::new(); n_nodes];
    for &(f, t, l) in &raw {
        adj[f].push((t, l));
    }
    // 0 = unvisited, 1 = on stack, 2 = done.
    let mut color = vec![0u8; n_nodes];
    let mut cycle_path: Vec<(usize, usize, LineAddr)> = Vec::new();
    fn dfs(
        u: usize,
        adj: &[Vec<(usize, LineAddr)>],
        color: &mut [u8],
        path: &mut Vec<(usize, usize, LineAddr)>,
        cycle: &mut Vec<(usize, usize, LineAddr)>,
    ) -> bool {
        color[u] = 1;
        for &(v, l) in &adj[u] {
            if color[v] == 1 {
                // Found: the cycle is the path suffix from v, plus the
                // closing edge.
                let start = path.iter().position(|&(f, _, _)| f == v).unwrap_or(0);
                cycle.extend(path[start..].iter().copied());
                cycle.push((u, v, l));
                return true;
            }
            if color[v] == 0 {
                path.push((u, v, l));
                if dfs(v, adj, color, path, cycle) {
                    return true;
                }
                path.pop();
            }
        }
        color[u] = 2;
        false
    }
    let mut path = Vec::new();
    for u in 0..n_nodes {
        if color[u] == 0 && dfs(u, &adj, &mut color, &mut path, &mut cycle_path) {
            break;
        }
    }

    let edges = raw
        .iter()
        .map(|&(f, t, l)| WaitEdge {
            from: name(f),
            to: name(t),
            line: l,
        })
        .collect();
    let cycle = cycle_path
        .iter()
        .map(|&(f, t, l)| WaitEdge {
            from: name(f),
            to: name(t),
            line: l,
        })
        .collect();
    (edges, cycle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsocc_coherence::{BusyProbe, CtrlProbe};

    fn l1(core: usize, mshr: &[u64]) -> L1Hang {
        L1Hang {
            core,
            probe: CtrlProbe {
                mshr_lines: mshr.iter().map(|&l| LineAddr::new(l)).collect(),
                ..CtrlProbe::default()
            },
        }
    }

    fn l2(tile: usize, busy: &[u64]) -> L2Hang {
        L2Hang {
            tile,
            probe: CtrlProbe {
                busy: busy
                    .iter()
                    .map(|&l| BusyProbe {
                        line: LineAddr::new(l),
                        need_unblock: true,
                        need_owner_data: false,
                        queued: 0,
                    })
                    .collect(),
                ..CtrlProbe::default()
            },
        }
    }

    #[test]
    fn mutual_wait_is_a_cycle_naming_the_line() {
        // L1#1 waits on L2#0 for line 0x80; L2#0's transaction on 0x80
        // waits on L1#1 — the held-MSHR deadlock shape.
        let (edges, cycle) = wait_graph(
            2,
            &[l1(1, &[0x80])],
            &[l2(0, &[0x80])],
            |_| 0, // every line homes at tile 0
        );
        assert_eq!(edges.len(), 2);
        assert!(!cycle.is_empty(), "must find the 2-cycle");
        assert!(cycle.iter().all(|e| e.line == LineAddr::new(0x80)));
        let nodes: Vec<&str> = cycle.iter().map(|e| e.from.as_str()).collect();
        assert!(
            nodes.contains(&"L1#1") && nodes.contains(&"L2#0"),
            "{nodes:?}"
        );
    }

    #[test]
    fn acyclic_wait_reports_no_cycle() {
        // L1#0 waits on L2#1, but the tile is not busy: a lost-message
        // hang, not a circular wait.
        let (edges, cycle) = wait_graph(2, &[l1(0, &[0x40])], &[], |_| 1);
        assert_eq!(edges.len(), 1);
        assert!(cycle.is_empty());
    }
}
