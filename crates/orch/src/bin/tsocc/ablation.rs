//! `tsocc ablation`: sweeps over TSO-CC's design parameters (§4.2's
//! design-space exploration, beyond the seven headline configurations):
//!
//! - `Bmaxacc`: the Shared-line access budget (the paper fixed 4 bits =
//!   16 hits after its own exploration),
//! - `Bts`: timestamp width, small enough here to force resets,
//! - write-group size, trading reset frequency against acquire-detection
//!   precision,
//! - decay threshold for the Shared→SharedRO transition.
//!
//! ```text
//! tsocc ablation [--cores N] [--seed N] [--json PATH]
//! ```
//!
//! Defaults: 16 cores, seed 7. `--json` additionally writes every row
//! as a machine-readable `tsocc-ablation/v1` report. A `--cores` value
//! the machine cannot honour exits 2 before anything runs.

use tsocc::{ConfigError, SystemConfig};
use tsocc_bench::cli::Cli;
use tsocc_bench::json;
use tsocc_proto::{TsParams, TsoCcConfig};
use tsocc_protocols::Protocol;
use tsocc_workloads::{run_workload, Benchmark, Scale};

pub const ABOUT: &str = "ablation sweeps over TSO-CC's design parameters";

/// The Table 2 machine with `n_cores` cores that the benchmark rows run
/// on.
fn machine(protocol: Protocol, n_cores: usize, seed: u64) -> Result<SystemConfig, ConfigError> {
    let mut cfg = SystemConfig::builder()
        .cores(n_cores)
        .protocol(protocol)
        .build()?;
    cfg.seed = seed;
    Ok(cfg)
}

fn run(protocol: Protocol, n_cores: usize, bench: Benchmark, seed: u64) -> tsocc::RunStats {
    let w = bench.build(n_cores, Scale::Small, seed);
    let cfg = machine(protocol, n_cores, seed).expect("vetted before the first row");
    run_workload(&w, cfg).expect("terminates")
}

/// One ablation row, printed as it is produced and collected for the
/// optional JSON report.
fn row(
    rows: &mut Vec<String>,
    ablation: &str,
    bench: &str,
    param: &str,
    value: &str,
    s: &tsocc::RunStats,
) {
    rows.push(
        json::Object::new()
            .str("ablation", ablation)
            .str("bench", bench)
            .str("param", param)
            .str("value", value)
            .u64("cycles", s.cycles)
            .u64("flits", s.total_flits())
            .u64("read_miss_shared", s.l1.read_miss_shared.get())
            .u64("read_hit_sharedro", s.l1.read_hit_sharedro.get())
            .u64("ts_resets", s.l1.ts_resets.get())
            .u64("selfinv_events", s.l1.selfinv_total())
            .u64("decays", s.l2.decays.get())
            .build(),
    );
}

pub fn main(args: Vec<String>) {
    let args = Cli::new("tsocc ablation", ABOUT)
        .opt("--cores", "N", "core count (default 16)")
        .opt("--seed", "N", "base simulation seed (default 7)")
        .opt(
            "--json",
            "PATH",
            "also write a tsocc-ablation/v1 JSON report",
        )
        .parse(args);
    let n = args.usize("--cores").unwrap_or(16);
    let seed = args.u64("--seed").unwrap_or(7);
    // Every benchmark row runs a TSO-CC variant on the same machine, and
    // the variants share one shape check.
    let tsocc = Protocol::TsoCc(TsoCcConfig::default());
    if let Err(e) = machine(tsocc, n, seed) {
        args.fail(format!("--cores {n} on {}: {e}", tsocc.name()));
    }
    let mut rows: Vec<String> = Vec::new();

    println!("== Ablation 1: Shared-line access budget (max_acc), x264 wavefront ==");
    println!(
        "{:<12} {:>10} {:>12} {:>14}",
        "max_acc", "cycles", "flits", "rd-miss(S)"
    );
    for max_acc in [0u64, 1, 4, 16, 64, 256] {
        let cfg = TsoCcConfig {
            max_acc,
            ..TsoCcConfig::realistic(12, 3)
        };
        let s = run(Protocol::TsoCc(cfg), n, Benchmark::X264, seed);
        println!(
            "{:<12} {:>10} {:>12} {:>14}",
            max_acc,
            s.cycles,
            s.total_flits(),
            s.l1.read_miss_shared.get()
        );
        row(
            &mut rows,
            "max_acc",
            "x264",
            "max_acc",
            &max_acc.to_string(),
            &s,
        );
    }

    println!("\n== Ablation 2: timestamp width (forces resets), canneal ==");
    println!(
        "{:<12} {:>10} {:>12} {:>10} {:>12}",
        "ts_bits", "cycles", "flits", "resets", "selfinv"
    );
    for ts_bits in [4u32, 6, 9, 12, 31] {
        let cfg = TsoCcConfig {
            write_ts: Some(TsParams {
                ts_bits,
                write_group_bits: 0,
            }),
            ..TsoCcConfig::realistic(12, 3)
        };
        let s = run(Protocol::TsoCc(cfg), n, Benchmark::Canneal, seed);
        println!(
            "{:<12} {:>10} {:>12} {:>10} {:>12}",
            ts_bits,
            s.cycles,
            s.total_flits(),
            s.l1.ts_resets.get(),
            s.l1.selfinv_total()
        );
        row(
            &mut rows,
            "ts_bits",
            "canneal",
            "ts_bits",
            &ts_bits.to_string(),
            &s,
        );
    }

    println!("\n== Ablation 3: write-group size at fixed 6-bit timestamps, fft ==");
    println!(
        "{:<12} {:>10} {:>10} {:>12}",
        "group", "cycles", "resets", "selfinv"
    );
    for wg_bits in [0u32, 1, 3, 5] {
        let cfg = TsoCcConfig {
            write_ts: Some(TsParams {
                ts_bits: 6,
                write_group_bits: wg_bits,
            }),
            ..TsoCcConfig::realistic(12, 3)
        };
        let s = run(Protocol::TsoCc(cfg), n, Benchmark::Fft, seed);
        println!(
            "{:<12} {:>10} {:>10} {:>12}",
            1u64 << wg_bits,
            s.cycles,
            s.l1.ts_resets.get(),
            s.l1.selfinv_total()
        );
        row(
            &mut rows,
            "write_group",
            "fft",
            "group_size",
            &(1u64 << wg_bits).to_string(),
            &s,
        );
    }

    println!("\n== Ablation 4: Shared->SharedRO decay threshold (write-once/read-many kernel) ==");
    println!(
        "{:<12} {:>10} {:>10} {:>16}",
        "decay", "cycles", "decays", "SRO read hits"
    );
    for decay in [None, Some(16u64), Some(64), Some(256), Some(4096)] {
        let cfg = TsoCcConfig {
            decay_writes: decay,
            ..TsoCcConfig::realistic(12, 0)
        };
        // Small caches force evictions, which is how the L2's last-seen
        // timestamp table learns that writers have moved on (decay is
        // driven by that table, §3.4).
        let sys_cfg = SystemConfig::builder()
            .small()
            .cores(2)
            .protocol(Protocol::TsoCc(cfg))
            .build()
            .expect("valid config");
        let s = run_workload(&decay_workload(), sys_cfg).expect("terminates");
        let label = decay.map_or("off".to_string(), |d| d.to_string());
        println!(
            "{:<12} {:>10} {:>10} {:>16}",
            label,
            s.cycles,
            s.l2.decays.get(),
            s.l1.read_hit_sharedro.get()
        );
        row(
            &mut rows,
            "decay",
            "decay-synthetic",
            "decay_writes",
            &label,
            &s,
        );
    }

    if let Some(path) = args.str("--json") {
        let doc = json::Object::new()
            .str("schema", "tsocc-ablation/v1")
            .u64("cores", n as u64)
            .u64("seed", seed)
            .u64("rows_total", rows.len() as u64)
            .raw("rows", json::array(rows))
            .build();
        std::fs::write(path, doc + "\n").expect("write ablation report");
        eprintln!("wrote {path}");
    }
}

/// The decay pattern: one line written once, then read repeatedly while
/// the writer streams writes elsewhere (advancing its timestamp past
/// the line's by more than the decay threshold).
fn decay_workload() -> tsocc_workloads::Workload {
    use tsocc_isa::{Asm, Reg};
    let hot = 0x4000u64;
    let stop = 0x4040u64;
    let mut writer = Asm::new();
    writer.movi(Reg::R1, 7);
    writer.store_abs(Reg::R1, hot);
    // Stream of private writes: conflict misses in the tiny L1 push
    // PutMs (and thus fresh timestamps) to the L2.
    writer.movi(Reg::R2, 0);
    let top = writer.new_label();
    writer.bind(top);
    writer.remi(Reg::R17, Reg::R2, 8);
    writer.muli(Reg::R17, Reg::R17, 0x200);
    writer.store(Reg::R2, Reg::R17, 0x10000);
    writer.addi(Reg::R2, Reg::R2, 1);
    writer.blt_imm(Reg::R2, 600, top);
    writer.movi(Reg::R3, 1);
    writer.store_abs(Reg::R3, stop);
    writer.halt();
    // Reader: hammer the hot line; its Shared copy keeps expiring until
    // the L2 decays the line to SharedRO, after which hits are free.
    let mut reader = Asm::new();
    let rtop = reader.new_label();
    reader.bind(rtop);
    reader.load_abs(Reg::R1, hot);
    reader.load_abs(Reg::R2, stop);
    reader.beq(Reg::R2, Reg::R0, rtop);
    reader.halt();
    tsocc_workloads::Workload {
        name: "decay-synthetic".to_string(),
        programs: vec![writer.finish(), reader.finish()],
        init: Vec::new(),
    }
}
