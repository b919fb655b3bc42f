//! The paper's Table 3 benchmark suite as synthetic kernels.
//!
//! Each kernel reproduces the *sharing pattern* of its namesake (see
//! the substitution note in the [`crate`] docs): the private/shared
//! access mix, the synchronization style (barriers, locks, pipelines,
//! transactions) and the pathologies the paper highlights (false
//! sharing in non-contiguous `lu`, the write-miss-heavy permutation of
//! `radix`, the SharedRO-dominated `raytrace`/`blackscholes`).

use tsocc_isa::{Asm, Program, Reg};

use crate::layout::Layout;
use crate::stm;
use crate::sync::{self, Barrier};

/// Workload size multiplier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Milliseconds-scale runs for unit tests (factor 1).
    Tiny,
    /// Default figure-harness scale (factor 4).
    Small,
    /// Longer runs that amortize cold misses (factor 20).
    Full,
}

impl Scale {
    /// The iteration multiplier.
    pub fn factor(self) -> u64 {
        match self {
            Scale::Tiny => 1,
            Scale::Small => 4,
            Scale::Full => 20,
        }
    }

    /// The lowercase name command lines and artifacts spell this scale
    /// with (`tiny`, `small`, `full`).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }

    /// The scale called `name` (exactly as [`Scale::name`] spells it).
    pub fn from_name(name: &str) -> Option<Scale> {
        [Scale::Tiny, Scale::Small, Scale::Full]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// A ready-to-run multi-threaded workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name as the paper spells it (Figure 3's x axis).
    pub name: String,
    /// One program per thread.
    pub programs: Vec<Program>,
    /// Initial memory words (address, value).
    pub init: Vec<(u64, u64)>,
}

/// The sixteen benchmarks of Table 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Benchmark {
    Blackscholes,
    Canneal,
    Dedup,
    Fluidanimate,
    X264,
    Fft,
    LuCont,
    LuNonCont,
    Radix,
    Raytrace,
    WaterNsq,
    Bayes,
    Genome,
    Intruder,
    Ssca2,
    Vacation,
}

impl Benchmark {
    /// All benchmarks in the paper's figure order.
    pub const ALL: [Benchmark; 16] = [
        Benchmark::Blackscholes,
        Benchmark::Canneal,
        Benchmark::Dedup,
        Benchmark::Fluidanimate,
        Benchmark::X264,
        Benchmark::Fft,
        Benchmark::LuCont,
        Benchmark::LuNonCont,
        Benchmark::Radix,
        Benchmark::Raytrace,
        Benchmark::WaterNsq,
        Benchmark::Bayes,
        Benchmark::Genome,
        Benchmark::Intruder,
        Benchmark::Ssca2,
        Benchmark::Vacation,
    ];

    /// The paper's display name.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::Blackscholes => "blackscholes",
            Benchmark::Canneal => "canneal",
            Benchmark::Dedup => "dedup",
            Benchmark::Fluidanimate => "fluidanimate",
            Benchmark::X264 => "x264",
            Benchmark::Fft => "fft",
            Benchmark::LuCont => "lu (cont.)",
            Benchmark::LuNonCont => "lu (non-cont.)",
            Benchmark::Radix => "radix",
            Benchmark::Raytrace => "raytrace",
            Benchmark::WaterNsq => "water-nsq",
            Benchmark::Bayes => "bayes",
            Benchmark::Genome => "genome",
            Benchmark::Intruder => "intruder",
            Benchmark::Ssca2 => "ssca2",
            Benchmark::Vacation => "vacation",
        }
    }

    /// Which suite the benchmark comes from (Table 3's row groups).
    pub fn suite(&self) -> &'static str {
        match self {
            Benchmark::Blackscholes
            | Benchmark::Canneal
            | Benchmark::Dedup
            | Benchmark::Fluidanimate
            | Benchmark::X264 => "PARSEC",
            Benchmark::Fft
            | Benchmark::LuCont
            | Benchmark::LuNonCont
            | Benchmark::Radix
            | Benchmark::Raytrace
            | Benchmark::WaterNsq => "SPLASH-2",
            Benchmark::Bayes
            | Benchmark::Genome
            | Benchmark::Intruder
            | Benchmark::Ssca2
            | Benchmark::Vacation => "STAMP",
        }
    }

    /// Builds the workload for `n_threads` threads at the given scale.
    ///
    /// # Panics
    ///
    /// Panics if `n_threads == 0`.
    pub fn build(&self, n_threads: usize, scale: Scale, seed: u64) -> Workload {
        assert!(n_threads > 0, "need at least one thread");
        let f = scale.factor();
        let programs = match self {
            Benchmark::Blackscholes => blackscholes(n_threads, f, seed),
            Benchmark::Canneal => canneal(n_threads, f, seed),
            Benchmark::Dedup => dedup(n_threads, f),
            Benchmark::Fluidanimate => fluidanimate(n_threads, f),
            Benchmark::X264 => x264(n_threads, f),
            Benchmark::Fft => fft(n_threads, f),
            Benchmark::LuCont => lu(n_threads, f, true),
            Benchmark::LuNonCont => lu(n_threads, f, false),
            Benchmark::Radix => radix(n_threads, f, seed),
            Benchmark::Raytrace => raytrace(n_threads, f, seed),
            Benchmark::WaterNsq => water_nsq(n_threads, f),
            Benchmark::Bayes => stamp(n_threads, StampShape::bayes(f), seed),
            Benchmark::Genome => stamp(n_threads, StampShape::genome(f), seed),
            Benchmark::Intruder => stamp(n_threads, StampShape::intruder(f), seed),
            Benchmark::Ssca2 => stamp(n_threads, StampShape::ssca2(f), seed),
            Benchmark::Vacation => stamp(n_threads, StampShape::vacation(f), seed),
        };
        Workload {
            name: self.name().to_string(),
            programs,
            init: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------
// shared code-generation helpers
// ---------------------------------------------------------------------

/// Emits a 64-bit LCG step on `state` and leaves `out = (state >> 33)
/// % modulus` (a pseudo-random index).
fn lcg_index(a: &mut Asm, state: Reg, out: Reg, modulus: u64) {
    a.muli(state, state, 6364136223846793005);
    a.addi(state, state, 1442695040888963407);
    a.shri(out, state, 33);
    a.remi(out, out, modulus);
}

/// Emits a counted loop: `body(asm)` executed `n` times using `ctr` as
/// the counter.
fn counted_loop<F>(a: &mut Asm, ctr: Reg, n: u64, mut body: F)
where
    F: FnMut(&mut Asm),
{
    a.movi(ctr, 0);
    let top = a.new_label();
    a.bind(top);
    body(a);
    a.addi(ctr, ctr, 1);
    a.blt_imm(ctr, n, top);
}

// ---------------------------------------------------------------------
// PARSEC
// ---------------------------------------------------------------------

/// blackscholes: embarrassingly parallel option pricing — large private
/// compute, a read-only parameter table, one barrier at the end.
fn blackscholes(n: usize, f: u64, seed: u64) -> Vec<Program> {
    let mut layout = Layout::new();
    let params = layout.words(128); // 16 lines, read-only
    let bar = Barrier::alloc(&mut layout);
    let outs: Vec<u64> = (0..n).map(|_| layout.words(64)).collect();
    let iters = 48 * f;
    (0..n)
        .map(|t| {
            let mut a = Asm::new();
            a.movi(Reg::R16, seed ^ (t as u64) << 8 | 1);
            counted_loop(&mut a, Reg::R1, iters, |a| {
                // Two read-only parameter loads per option.
                lcg_index(a, Reg::R16, Reg::R17, 128);
                a.shli(Reg::R17, Reg::R17, 3);
                a.load(Reg::R2, Reg::R17, params);
                lcg_index(a, Reg::R16, Reg::R17, 128);
                a.shli(Reg::R17, Reg::R17, 3);
                a.load(Reg::R3, Reg::R17, params);
                // Private compute, then a private result store.
                a.add(Reg::R4, Reg::R2, Reg::R3);
                a.delay(24);
                a.remi(Reg::R18, Reg::R1, 64);
                a.shli(Reg::R18, Reg::R18, 3);
                a.store(Reg::R4, Reg::R18, outs[t]);
            });
            sync::barrier_wait(&mut a, bar, n as u64);
            a.halt();
            a.finish()
        })
        .collect()
}

/// canneal: lock-free random element swaps — fine-grained migratory
/// sharing with poor locality.
fn canneal(n: usize, f: u64, seed: u64) -> Vec<Program> {
    let mut layout = Layout::new();
    let elems = 64u64;
    let grid = layout.padded_words(elems);
    let bar = Barrier::alloc(&mut layout);
    let iters = 32 * f;
    (0..n)
        .map(|t| {
            let mut a = Asm::new();
            a.movi(Reg::R16, seed ^ ((t as u64 + 3) << 16) | 1);
            counted_loop(&mut a, Reg::R1, iters, |a| {
                // Pick a random element, swap our token into it, keep
                // the displaced value as the next token (migratory RMW).
                lcg_index(a, Reg::R16, Reg::R17, elems);
                a.muli(Reg::R17, Reg::R17, 64);
                a.swap(Reg::R2, Reg::R17, grid, Reg::R2);
                a.delay(8);
            });
            sync::barrier_wait(&mut a, bar, n as u64);
            a.halt();
            a.finish()
        })
        .collect()
}

/// dedup: a pipeline of stages connected by flag-handshake slots —
/// pure producer-consumer sharing.
fn dedup(n: usize, f: u64) -> Vec<Program> {
    let mut layout = Layout::new();
    let items = 24 * f;
    // queues[k] connects stage k -> k+1; one line per item slot.
    let queues: Vec<u64> = (0..n.saturating_sub(1).max(1))
        .map(|_| layout.lines(items))
        .collect();
    (0..n)
        .map(|t| {
            let mut a = Asm::new();
            if t == 0 {
                // Source stage: produce items.
                counted_loop(&mut a, Reg::R1, items, |a| {
                    a.addi(Reg::R2, Reg::R1, 100);
                    a.delay(12);
                    a.muli(Reg::R17, Reg::R1, 64);
                    a.add(Reg::R17, Reg::R17, Reg::R0);
                    // slot = queues[0] + i*64
                    a.store(Reg::R2, Reg::R17, queues[0]); // data
                    a.movi(Reg::R3, 1);
                    a.store(Reg::R3, Reg::R17, queues[0] + 8); // flag
                });
            } else {
                let in_q = queues[t - 1];
                let out_q = if t < n - 1 { Some(queues[t]) } else { None };
                counted_loop(&mut a, Reg::R1, items, |a| {
                    a.muli(Reg::R17, Reg::R1, 64);
                    // Spin on the input slot's flag.
                    let spin = a.new_label();
                    a.bind(spin);
                    a.load(Reg::R4, Reg::R17, in_q + 8);
                    a.beq(Reg::R4, Reg::R0, spin);
                    a.load(Reg::R2, Reg::R17, in_q);
                    a.delay(16); // stage work (hashing/compression)
                    if let Some(out) = out_q {
                        a.addi(Reg::R2, Reg::R2, 1);
                        a.store(Reg::R2, Reg::R17, out);
                        a.movi(Reg::R3, 1);
                        a.store(Reg::R3, Reg::R17, out + 8);
                    }
                });
            }
            a.halt();
            a.finish()
        })
        .collect()
}

/// fluidanimate: per-cell locks with neighbour updates — a high lock
/// rate and neighbour sharing.
fn fluidanimate(n: usize, f: u64) -> Vec<Program> {
    let mut layout = Layout::new();
    let cells = 2 * n as u64;
    // Each cell is one line: [value, lock].
    let grid = layout.lines(cells);
    let bar = Barrier::alloc(&mut layout);
    let iters = 16 * f;
    (0..n)
        .map(|t| {
            let mut a = Asm::new();
            let my = [2 * t as u64, 2 * t as u64 + 1];
            counted_loop(&mut a, Reg::R1, iters, |a| {
                for &c in &my {
                    let nb = (c + 2) % cells;
                    let cell = grid + c * 64;
                    let nb_cell = grid + nb * 64;
                    // Lock the neighbour, exchange values.
                    sync::lock_acquire(a, nb_cell + 8);
                    a.load_abs(Reg::R2, nb_cell);
                    a.load_abs(Reg::R3, cell);
                    a.add(Reg::R3, Reg::R3, Reg::R2);
                    a.store_abs(Reg::R3, cell);
                    a.addi(Reg::R2, Reg::R2, 1);
                    a.store_abs(Reg::R2, nb_cell);
                    sync::lock_release(a, nb_cell + 8);
                    a.delay(10);
                }
            });
            sync::barrier_wait(&mut a, bar, n as u64);
            a.halt();
            a.finish()
        })
        .collect()
}

/// x264: wavefront pipeline — each row waits for the previous row's
/// progress counter to run ahead (motion-vector dependency).
fn x264(n: usize, f: u64) -> Vec<Program> {
    let mut layout = Layout::new();
    let progress = layout.padded_words(n as u64);
    let blocks = 24 * f;
    (0..n)
        .map(|t| {
            let mut a = Asm::new();
            counted_loop(&mut a, Reg::R1, blocks, |a| {
                if t > 0 {
                    // Wait until the previous row is 2 blocks ahead (or
                    // done).
                    let prev = progress + (t as u64 - 1) * 64;
                    a.addi(Reg::R2, Reg::R1, 2);
                    // need = min(i+2, blocks): the previous row ends at
                    // `blocks`, so don't wait for progress past it.
                    a.movi(Reg::R30, blocks);
                    let no_clamp = a.new_label();
                    a.blt(Reg::R2, Reg::R30, no_clamp);
                    a.mov(Reg::R2, Reg::R30);
                    a.bind(no_clamp);
                    let spin = a.new_label();
                    a.bind(spin);
                    a.load_abs(Reg::R3, prev);
                    a.blt(Reg::R3, Reg::R2, spin);
                }
                a.delay(28); // encode one macroblock row segment
                a.addi(Reg::R4, Reg::R1, 1);
                a.store_abs(Reg::R4, progress + t as u64 * 64);
            });
            a.halt();
            a.finish()
        })
        .collect()
}

// ---------------------------------------------------------------------
// SPLASH-2
// ---------------------------------------------------------------------

/// fft: alternating private butterfly phases and all-to-all transpose
/// phases separated by barriers.
fn fft(n: usize, f: u64) -> Vec<Program> {
    let mut layout = Layout::new();
    let lines_per = 8u64;
    let parts: Vec<u64> = (0..n).map(|_| layout.lines(lines_per)).collect();
    let bar = Barrier::alloc(&mut layout);
    let phases = 2 * f;
    (0..n)
        .map(|t| {
            let mut a = Asm::new();
            counted_loop(&mut a, Reg::R1, phases, |a| {
                // Butterfly phase: private read-modify-write over our
                // partition.
                counted_loop(a, Reg::R2, lines_per, |a| {
                    a.muli(Reg::R17, Reg::R2, 64);
                    a.load(Reg::R3, Reg::R17, parts[t]);
                    a.addi(Reg::R3, Reg::R3, 1);
                    a.store(Reg::R3, Reg::R17, parts[t]);
                    a.delay(6);
                });
                sync::barrier_wait(a, bar, n as u64);
                // Transpose phase: read one line from every other
                // partition.
                for j in 1..n {
                    let other = parts[(t + j) % n];
                    let line_idx = (t as u64) % lines_per;
                    a.load_abs(Reg::R4, other + line_idx * 64);
                    a.add(Reg::R5, Reg::R5, Reg::R4);
                }
                sync::barrier_wait(a, bar, n as u64);
            });
            a.halt();
            a.finish()
        })
        .collect()
}

/// lu: blocked factorization. `contiguous` allocates each thread's
/// block on its own lines; the non-contiguous variant interleaves
/// threads' words within lines, producing the paper's false-sharing
/// case (§5, "the version which does not eliminate false-sharing
/// performs significantly better with TSO-CC").
fn lu(n: usize, f: u64, contiguous: bool) -> Vec<Program> {
    let mut layout = Layout::new();
    let words_per = 32u64;
    let bar = Barrier::alloc(&mut layout);
    // Contiguous: each thread's block is words_per consecutive words.
    // Non-contiguous: thread t owns words t, t+n, t+2n, ... of one big
    // array — neighbouring threads share every line.
    let base = layout.words(words_per * n as u64);
    let word_addr = |t: usize, i: u64| -> u64 {
        if contiguous {
            base + (t as u64 * words_per + i) * 8
        } else {
            base + (i * n as u64 + t as u64) * 8
        }
    };
    let steps = 4 * f;
    (0..n)
        .map(|t| {
            let mut a = Asm::new();
            counted_loop(&mut a, Reg::R1, steps, |a| {
                // Pivot owner updates its block first.
                let owner = 0usize; // pivot block rotates in real lu; keep 0 for read sharing
                if t == owner {
                    for i in 0..words_per {
                        a.load_abs(Reg::R2, word_addr(owner, i));
                        a.addi(Reg::R2, Reg::R2, 1);
                        a.store_abs(Reg::R2, word_addr(owner, i));
                    }
                }
                sync::barrier_wait(a, bar, n as u64);
                // Everyone reads the pivot block and updates their own.
                if t != owner {
                    for i in (0..words_per).step_by(4) {
                        a.load_abs(Reg::R3, word_addr(owner, i));
                        a.add(Reg::R4, Reg::R4, Reg::R3);
                    }
                    for i in 0..words_per {
                        a.load_abs(Reg::R5, word_addr(t, i));
                        a.add(Reg::R5, Reg::R5, Reg::R4);
                        a.store_abs(Reg::R5, word_addr(t, i));
                    }
                }
                a.delay(12);
                sync::barrier_wait(a, bar, n as u64);
            });
            a.halt();
            a.finish()
        })
        .collect()
}

/// radix: parallel histogram via fetch-adds, then a permutation phase
/// writing into other threads' output regions — the paper's
/// write-miss-heavy case (Figure 5).
fn radix(n: usize, f: u64, seed: u64) -> Vec<Program> {
    let mut layout = Layout::new();
    let buckets = 32u64;
    let hist = layout.padded_words(buckets);
    let bar = Barrier::alloc(&mut layout);
    let outs: Vec<u64> = (0..n).map(|_| layout.words(64)).collect();
    let keys = 32 * f;
    (0..n)
        .map(|t| {
            let mut a = Asm::new();
            a.movi(Reg::R16, seed ^ ((t as u64 + 11) << 24) | 1);
            a.movi(Reg::R10, 1);
            // Histogram phase: contended fetch-adds on bucket counters.
            counted_loop(&mut a, Reg::R1, keys, |a| {
                lcg_index(a, Reg::R16, Reg::R17, buckets);
                a.muli(Reg::R17, Reg::R17, 64);
                a.fetch_add(Reg::R2, Reg::R17, hist, Reg::R10);
            });
            sync::barrier_wait(&mut a, bar, n as u64);
            // Read back the histogram (shared reads).
            counted_loop(&mut a, Reg::R1, buckets, |a| {
                a.muli(Reg::R17, Reg::R1, 64);
                a.load(Reg::R3, Reg::R17, hist);
                a.add(Reg::R4, Reg::R4, Reg::R3);
            });
            sync::barrier_wait(&mut a, bar, n as u64);
            // Permutation phase: scatter keys into other threads'
            // output regions (remote write misses).
            a.movi(Reg::R16, seed ^ ((t as u64 + 29) << 24) | 1);
            counted_loop(&mut a, Reg::R1, keys, |a| {
                lcg_index(a, Reg::R16, Reg::R17, n as u64);
                // out base = outs[r17]; pick slot i % 64.
                a.remi(Reg::R18, Reg::R1, 64);
                a.shli(Reg::R18, Reg::R18, 3);
                // Compute target base via a chain of conditional
                // copies (no indirect tables in the IR).
                for (r, out) in outs.iter().enumerate() {
                    let skip = a.new_label();
                    a.bne_imm(Reg::R17, r as u64, skip);
                    a.addi(Reg::R19, Reg::R18, *out);
                    a.bind(skip);
                }
                a.store(Reg::R4, Reg::R19, 0);
            });
            sync::barrier_wait(&mut a, bar, n as u64);
            a.halt();
            a.finish()
        })
        .collect()
}

/// raytrace: a big read-only scene plus a fetch-add work queue —
/// SharedRO-dominated reads (Figure 6's read-hit (SharedRO) bars).
fn raytrace(n: usize, f: u64, seed: u64) -> Vec<Program> {
    let mut layout = Layout::new();
    let scene_words = 256u64;
    let scene = layout.words(scene_words);
    let ticket = layout.line();
    let outs: Vec<u64> = (0..n).map(|_| layout.words(32)).collect();
    let tiles = 24 * f * n as u64 / 2;
    (0..n)
        .map(|t| {
            let mut a = Asm::new();
            a.movi(Reg::R16, seed ^ ((t as u64 + 5) << 20) | 1);
            a.movi(Reg::R10, 1);
            let done = a.new_label();
            let grab = a.new_label();
            a.bind(grab);
            a.fetch_add(Reg::R1, Reg::R0, ticket, Reg::R10);
            a.movi(Reg::R30, tiles);
            a.bge(Reg::R1, Reg::R30, done);
            // Trace: sample the read-only scene.
            for _ in 0..6 {
                lcg_index(&mut a, Reg::R16, Reg::R17, scene_words);
                a.shli(Reg::R17, Reg::R17, 3);
                a.load(Reg::R2, Reg::R17, scene);
                a.add(Reg::R3, Reg::R3, Reg::R2);
            }
            a.delay(30);
            a.remi(Reg::R18, Reg::R1, 32);
            a.shli(Reg::R18, Reg::R18, 3);
            a.store(Reg::R3, Reg::R18, outs[t]);
            a.jump(grab);
            a.bind(done);
            a.halt();
            a.finish()
        })
        .collect()
}

/// water-nsq: O(n²) force reads over other molecules with per-molecule
/// locks, then a private update phase — mostly private with bursts of
/// locking.
fn water_nsq(n: usize, f: u64) -> Vec<Program> {
    let mut layout = Layout::new();
    // One line per molecule: [value, lock].
    let mols = layout.lines(n as u64);
    let bar = Barrier::alloc(&mut layout);
    let steps = 4 * f;
    (0..n)
        .map(|t| {
            let mut a = Asm::new();
            counted_loop(&mut a, Reg::R1, steps, |a| {
                // Force phase: read every other molecule; lock/update a
                // quarter of them.
                for j in 0..n {
                    if j == t {
                        continue;
                    }
                    let mol = mols + j as u64 * 64;
                    a.load_abs(Reg::R2, mol);
                    a.add(Reg::R3, Reg::R3, Reg::R2);
                    if j % 4 == t % 4 {
                        sync::lock_acquire(a, mol + 8);
                        a.load_abs(Reg::R4, mol);
                        a.addi(Reg::R4, Reg::R4, 1);
                        a.store_abs(Reg::R4, mol);
                        sync::lock_release(a, mol + 8);
                    }
                }
                sync::barrier_wait(a, bar, n as u64);
                // Private update of our own molecule.
                let mine = mols + t as u64 * 64;
                a.load_abs(Reg::R5, mine);
                a.add(Reg::R5, Reg::R5, Reg::R3);
                a.store_abs(Reg::R5, mine);
                a.delay(20);
                sync::barrier_wait(a, bar, n as u64);
            });
            a.halt();
            a.finish()
        })
        .collect()
}

// ---------------------------------------------------------------------
// STAMP (over the NOrec-style STM)
// ---------------------------------------------------------------------

/// Shape of a STAMP benchmark's transactions.
///
/// Reads are uniform over the whole `table`; writes target only its
/// first `hot` lines. This mirrors real STAMP structure: transactions
/// traverse large, mostly-clean data structures (which decay to
/// SharedRO under TSO-CC) and mutate a few hot nodes.
#[derive(Clone, Copy, Debug)]
struct StampShape {
    /// Shared table size in padded words (read footprint).
    table: u64,
    /// Writes land in the first `hot` lines of the table.
    hot: u64,
    /// Reads per transaction.
    reads: u64,
    /// Writes per transaction.
    writes: u64,
    /// Compute cycles inside the transaction.
    compute: u32,
    /// Transactions per thread.
    txns: u64,
}

impl StampShape {
    /// bayes: long transactions with large read footprints.
    fn bayes(f: u64) -> Self {
        StampShape {
            table: 256,
            hot: 24,
            reads: 10,
            writes: 4,
            compute: 50,
            txns: 6 * f,
        }
    }
    /// genome: medium transactions over a large hash-segment space.
    fn genome(f: u64) -> Self {
        StampShape {
            table: 512,
            hot: 32,
            reads: 6,
            writes: 2,
            compute: 20,
            txns: 10 * f,
        }
    }
    /// intruder: short transactions on a hot table — high abort rate.
    fn intruder(f: u64) -> Self {
        StampShape {
            table: 16,
            hot: 8,
            reads: 4,
            writes: 3,
            compute: 8,
            txns: 14 * f,
        }
    }
    /// ssca2: tiny low-conflict transactions over a big graph.
    fn ssca2(f: u64) -> Self {
        StampShape {
            table: 1024,
            hot: 256,
            reads: 2,
            writes: 2,
            compute: 5,
            txns: 20 * f,
        }
    }
    /// vacation: medium tree-lookup-like transactions.
    fn vacation(f: u64) -> Self {
        StampShape {
            table: 384,
            hot: 24,
            reads: 8,
            writes: 2,
            compute: 25,
            txns: 8 * f,
        }
    }
}

/// Generic STAMP kernel: `txns` transactions per thread over a shared
/// table, each reading `reads` random words, computing, and committing
/// `writes` random words under the NOrec-style global sequence lock.
fn stamp(n: usize, shape: StampShape, seed: u64) -> Vec<Program> {
    let mut layout = Layout::new();
    let glb = layout.line();
    let table = layout.padded_words(shape.table);
    let bar = Barrier::alloc(&mut layout);
    (0..n)
        .map(|t| {
            let mut a = Asm::new();
            a.movi(Reg::R16, seed ^ ((t as u64 + 17) << 12) | 1);
            counted_loop(&mut a, Reg::R1, shape.txns, |a| {
                // Save the PRNG state so the read phase is deterministic
                // across NOrec validation and abort re-execution.
                a.mov(Reg::R19, Reg::R16);
                stm::txn_execute(
                    a,
                    glb,
                    shape.compute,
                    |a, dest| {
                        a.mov(Reg::R16, Reg::R19);
                        a.movi(dest, 0);
                        for _ in 0..shape.reads {
                            lcg_index(a, Reg::R16, Reg::R17, shape.table);
                            a.muli(Reg::R17, Reg::R17, 64);
                            a.load(Reg::R3, Reg::R17, table);
                            a.add(dest, dest, Reg::R3);
                        }
                    },
                    |a| {
                        // Write set, replayed under the sequence lock;
                        // writes go to the hot region only, and table
                        // values only grow (monotonic counters), so the
                        // summed validation cannot alias.
                        for _ in 0..shape.writes {
                            lcg_index(a, Reg::R16, Reg::R18, shape.hot);
                            a.muli(Reg::R18, Reg::R18, 64);
                            a.load(Reg::R4, Reg::R18, table);
                            a.addi(Reg::R4, Reg::R4, 1);
                            a.store(Reg::R4, Reg::R18, table);
                        }
                    },
                );
            });
            sync::barrier_wait(&mut a, bar, n as u64);
            a.halt();
            a.finish()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_build_for_various_thread_counts() {
        for b in Benchmark::ALL {
            for n in [1, 2, 4, 8] {
                let w = b.build(n, Scale::Tiny, 1);
                assert_eq!(w.programs.len(), n, "{}", b.name());
                assert!(w.programs.iter().all(|p| !p.is_empty()), "{}", b.name());
            }
        }
    }

    #[test]
    fn names_and_suites_match_table3() {
        assert_eq!(Benchmark::ALL.len(), 16);
        let parsec = Benchmark::ALL
            .iter()
            .filter(|b| b.suite() == "PARSEC")
            .count();
        let splash = Benchmark::ALL
            .iter()
            .filter(|b| b.suite() == "SPLASH-2")
            .count();
        let stamp = Benchmark::ALL
            .iter()
            .filter(|b| b.suite() == "STAMP")
            .count();
        assert_eq!((parsec, splash, stamp), (5, 6, 5));
        assert_eq!(Benchmark::LuNonCont.name(), "lu (non-cont.)");
    }

    #[test]
    fn scale_factors_are_monotonic() {
        assert!(Scale::Tiny.factor() < Scale::Small.factor());
        assert!(Scale::Small.factor() < Scale::Full.factor());
    }

    #[test]
    fn scale_names_round_trip_and_reject_the_rest() {
        for scale in [Scale::Tiny, Scale::Small, Scale::Full] {
            assert_eq!(Scale::from_name(scale.name()), Some(scale));
        }
        for bad in ["tnyi", "Small", "", "tiny "] {
            assert_eq!(Scale::from_name(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn lu_variants_differ_in_layout_only() {
        let cont = Benchmark::LuCont.build(4, Scale::Tiny, 1);
        let non = Benchmark::LuNonCont.build(4, Scale::Tiny, 1);
        // Same program shape, different address streams.
        assert_eq!(cont.programs.len(), non.programs.len());
        assert_ne!(cont.programs[1], non.programs[1]);
    }

    #[test]
    fn single_threaded_kernels_run_on_reference_vm() {
        use std::collections::HashMap;
        use tsocc_isa::refvm::run_ref;
        // Kernels without cross-thread waits must terminate single-
        // threaded on the reference interpreter.
        for b in [
            Benchmark::Blackscholes,
            Benchmark::Canneal,
            Benchmark::Raytrace,
            Benchmark::Ssca2,
        ] {
            let w = b.build(1, Scale::Tiny, 3);
            let mut mem = HashMap::new();
            run_ref(&w.programs[0], &mut mem, 2_000_000)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        }
    }
}
