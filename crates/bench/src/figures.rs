//! Textual renderings of every table and figure in the paper.
//!
//! Each `print_*` function emits the same rows/series the paper plots,
//! as aligned text tables (normalized against MESI where the paper
//! normalizes).

use tsocc::RunStats;
use tsocc_coherence::SelfInvCause;

use crate::json::Value;
use tsocc_proto::{StorageModel, TsoCcConfig};
use tsocc_sim::stats::geometric_mean;
use tsocc_workloads::Benchmark;

use crate::sweep::Sweep;

fn header(cols: &[String]) {
    print!("{:<16}", "benchmark");
    for c in cols {
        print!(" {c:>16}");
    }
    println!();
}

/// Per-benchmark normalized metric table with a gmean row — the shape
/// of Figures 3, 4 and 8.
fn print_normalized<F>(sweep: &Sweep, title: &str, metric: F)
where
    F: Fn(&RunStats) -> f64,
{
    println!("\n== {title} (normalized to MESI; lower is better) ==");
    let configs = Sweep::config_names();
    header(&configs);
    let mut per_config: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    for bench in Sweep::bench_names() {
        let base = metric(sweep.get(bench, "MESI")).max(1e-12);
        print!("{bench:<16}");
        for (i, cfg) in configs.iter().enumerate() {
            let v = metric(sweep.get(bench, cfg)) / base;
            per_config[i].push(v);
            print!(" {v:>16.3}");
        }
        println!();
    }
    print!("{:<16}", "gmean");
    for vals in &per_config {
        print!(" {:>16.3}", geometric_mean(vals));
    }
    println!();
}

/// Figure 3: normalized execution times.
pub fn print_fig3(sweep: &Sweep) {
    print_normalized(sweep, "Figure 3: execution time", |s| s.cycles as f64);
}

/// Figure 4: normalized network traffic (total flits).
pub fn print_fig4(sweep: &Sweep) {
    print_normalized(sweep, "Figure 4: network traffic (total flits)", |s| {
        s.total_flits() as f64
    });
}

/// Figure 8: normalized RMW latency.
pub fn print_fig8(sweep: &Sweep) {
    print_normalized(sweep, "Figure 8: RMW latency", |s| {
        s.rmw_latency.mean().max(1e-12)
    });
}

/// Figure 5: L1 cache misses (% of accesses) broken down by the state
/// the miss hit (Invalid / Shared / SharedRO, read vs write).
pub fn print_fig5(sweep: &Sweep) {
    println!("\n== Figure 5: L1 cache miss breakdown (% of L1 accesses) ==");
    println!("columns: Rd(Inv) Wr(Inv) Rd(Shared) Wr(Shared) Wr(SharedRO) | total");
    for bench in Sweep::bench_names() {
        println!("{bench}:");
        for cfg in Sweep::config_names() {
            let s = sweep.get(bench, &cfg);
            let acc = s.l1.accesses().max(1) as f64;
            let pct = |c: u64| 100.0 * c as f64 / acc;
            println!(
                "  {:<16} {:>6.2} {:>6.2} {:>9.2} {:>9.2} {:>11.2} | {:>6.2}",
                cfg,
                pct(s.l1.read_miss_invalid.get()),
                pct(s.l1.write_miss_invalid.get()),
                pct(s.l1.read_miss_shared.get()),
                pct(s.l1.write_miss_shared.get()),
                pct(s.l1.write_miss_sharedro.get()),
                100.0 * s.l1_miss_rate(),
            );
        }
    }
}

/// Figure 6: L1 hits and misses (% of accesses), hits split by state.
pub fn print_fig6(sweep: &Sweep) {
    println!("\n== Figure 6: L1 hits & misses (% of L1 accesses) ==");
    println!("columns: RdMiss WrMiss RdHit(Shared) RdHit(SharedRO) RdHit(Priv) WrHit(Priv)");
    for bench in Sweep::bench_names() {
        println!("{bench}:");
        for cfg in Sweep::config_names() {
            let s = sweep.get(bench, &cfg);
            let acc = s.l1.accesses().max(1) as f64;
            let pct = |c: u64| 100.0 * c as f64 / acc;
            println!(
                "  {:<16} {:>6.2} {:>6.2} {:>13.2} {:>15.2} {:>11.2} {:>11.2}",
                cfg,
                pct(s.l1.read_misses()),
                pct(s.l1.write_misses()),
                pct(s.l1.read_hit_shared.get()),
                pct(s.l1.read_hit_sharedro.get()),
                pct(s.l1.read_hit_private.get()),
                pct(s.l1.write_hit_private.get()),
            );
        }
    }
}

/// The TSO-CC configurations shown in Figures 7 and 9.
fn tsocc_configs() -> Vec<String> {
    Sweep::config_names()
        .into_iter()
        .filter(|c| c.starts_with("TSO-CC"))
        .collect()
}

/// Figure 7: percentage of L1 data responses that triggered
/// self-invalidation, split by trigger.
pub fn print_fig7(sweep: &Sweep) {
    println!("\n== Figure 7: L1 self-invalidations triggered by data responses (% of misses) ==");
    println!("columns: invalid-ts p.acquire(non-SRO) p.acquire(SRO) | total");
    for bench in Sweep::bench_names() {
        println!("{bench}:");
        for cfg in tsocc_configs() {
            let s = sweep.get(bench, &cfg);
            let misses = (s.l1.read_misses() + s.l1.write_misses()).max(1) as f64;
            let pct =
                |c: SelfInvCause| 100.0 * s.l1.selfinv_events[c.index()].get() as f64 / misses;
            println!(
                "  {:<16} {:>10.2} {:>18.2} {:>14.2} | {:>6.2}",
                cfg,
                pct(SelfInvCause::InvalidTs),
                pct(SelfInvCause::AcquireNonSro),
                pct(SelfInvCause::AcquireSro),
                100.0 * s.selfinv_rate_per_miss(),
            );
        }
    }
}

/// Figure 9: breakdown of self-invalidation causes (% of events).
pub fn print_fig9(sweep: &Sweep) {
    println!("\n== Figure 9: breakdown of L1 self-invalidation cause (% of events) ==");
    println!("columns: invalid-ts p.acquire(non-SRO) p.acquire(SRO) fence");
    for bench in Sweep::bench_names() {
        println!("{bench}:");
        for cfg in tsocc_configs() {
            let s = sweep.get(bench, &cfg);
            let fr = s.selfinv_cause_fractions();
            println!(
                "  {:<16} {:>10.1} {:>18.1} {:>14.1} {:>6.1}",
                cfg,
                100.0 * fr[0].1,
                100.0 * fr[1].1,
                100.0 * fr[2].1,
                100.0 * fr[3].1,
            );
        }
    }
}

/// Figure 2: coherence storage overhead (MB) vs core count.
pub fn print_fig2() {
    println!("\n== Figure 2: coherence storage overhead (MB) vs core count ==");
    let configs: Vec<(String, Option<TsoCcConfig>)> = vec![
        ("MESI".into(), None),
        ("TSO-CC-4-12-3".into(), Some(TsoCcConfig::realistic(12, 3))),
        ("TSO-CC-4-12-0".into(), Some(TsoCcConfig::realistic(12, 0))),
        ("TSO-CC-4-9-3".into(), Some(TsoCcConfig::realistic(9, 3))),
        ("TSO-CC-4-basic".into(), Some(TsoCcConfig::basic())),
    ];
    print!("{:<8}", "cores");
    for (name, _) in &configs {
        print!(" {name:>16}");
    }
    println!();
    for n in [8usize, 16, 32, 48, 64, 96, 128] {
        let model = StorageModel::paper(n);
        print!("{n:<8}");
        for (_, cfg) in &configs {
            let bits = match cfg {
                None => model.mesi_bits(),
                Some(c) => model.tsocc_bits(c),
            };
            print!(" {:>16.2}", StorageModel::to_mb(bits));
        }
        println!();
    }
    for n in [32usize, 128] {
        let model = StorageModel::paper(n);
        println!(
            "reduction vs MESI at {n} cores: TSO-CC-4-12-3 {:.0}%  TSO-CC-4-basic {:.0}%  (paper: 38%/82% and 75% at 32)",
            100.0 * model.reduction_vs_mesi(&TsoCcConfig::realistic(12, 3)),
            100.0 * model.reduction_vs_mesi(&TsoCcConfig::basic()),
        );
    }
}

/// Table 1: TSO-CC storage requirement breakdown for one configuration.
pub fn print_table1() {
    println!("\n== Table 1: TSO-CC per-structure storage (TSO-CC-4-12-3, 32 cores) ==");
    let n = 32u64;
    let cfg = TsoCcConfig::realistic(12, 3);
    let ts = cfg.write_ts.expect("realistic config has timestamps");
    let (bts, bwg, bep, bacc) = (ts.ts_bits as u64, ts.write_group_bits as u64, 3u64, 4u64);
    let owner = 5u64; // log2(32)
    println!("L1 per node:");
    println!("  current timestamp        {bts:>6} bits");
    println!("  write-group counter      {bwg:>6} bits");
    println!("  current epoch-id         {bep:>6} bits");
    println!("  ts_L1[{n}]                {:>6} bits", n * bts);
    println!("  epoch_ids_L1[{n}]         {:>6} bits", n * bep);
    println!("  ts_L2[{n}] (SharedRO opt) {:>6} bits", n * bts);
    println!("  epoch_ids_L2[{n}]         {:>6} bits", n * bep);
    println!("L1 per line:");
    println!("  access counter b.acnt    {bacc:>6} bits");
    println!("  last-written ts b.ts     {bts:>6} bits");
    println!("L2 per tile:");
    println!("  ts_L1[{n}]                {:>6} bits", n * bts);
    println!("  epoch_ids_L1[{n}]         {:>6} bits", n * bep);
    println!("  SharedRO ts + epoch + flags {:>3} bits", bts + bep + 2);
    println!("L2 per line:");
    println!("  timestamp b.ts           {bts:>6} bits");
    println!("  b.owner                  {owner:>6} bits  (vs {n}-bit MESI sharing vector)");
    let model = StorageModel::paper(32);
    println!(
        "total: {:.2} MB vs MESI {:.2} MB ({:.0}% reduction)",
        StorageModel::to_mb(model.tsocc_bits(&cfg)),
        StorageModel::to_mb(model.mesi_bits()),
        100.0 * model.reduction_vs_mesi(&cfg),
    );
}

/// Table 2: system parameters.
pub fn print_table2(opts: &crate::SweepOpts) {
    println!("\n== Table 2: system parameters ==");
    println!(
        "Core count & frequency   {} (in-order + 32-entry FIFO write buffer) @ 2GHz",
        opts.n_cores
    );
    println!("Write buffer entries     32, FIFO");
    println!("L1 D-cache (private)     32KB, 64B lines, 4-way, 3-cycle hit");
    println!(
        "L2 cache (NUCA, shared)  1MB x {} tiles, 64B lines, 16-way, ~30-80 cycle",
        opts.n_cores
    );
    println!("Memory                   ~150-230 cycles (4 controllers at mesh corners)");
    println!("On-chip network          2D mesh, XY routing, 16B flits, 3 vnets");
}

/// Table 3: benchmarks and their input parameters.
pub fn print_table3() {
    println!("\n== Table 3: benchmarks (synthetic kernels; see the tsocc_workloads crate docs) ==");
    for suite in ["PARSEC", "SPLASH-2", "STAMP"] {
        println!("{suite}:");
        for b in Benchmark::ALL.iter().filter(|b| b.suite() == suite) {
            println!("  {}", b.name());
        }
    }
}

/// The three protocol families whose divergence-with-scale the
/// `separation` figure tracks: full-vector MESI, the coarse-vector
/// compromise, and the paper's TSO-CC in its realistic configuration.
const SEPARATION_CONFIGS: [&str; 3] = ["MESI", "MESI-P4-G4", "TSO-CC-4-12-3"];

/// Where the committed sweep artifact lives: a repo-root invocation
/// finds `BENCH_sweep.json` in the working directory; anything else
/// (tests, odd CWDs) falls back to the copy next to this crate's
/// workspace root.
fn sweep_artifact_path() -> String {
    let local = "BENCH_sweep.json";
    if std::path::Path::new(local).exists() {
        return local.to_string();
    }
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json").to_string()
}

/// The separation figure: execution time and network traffic versus
/// core count for the three protocol families, read from the
/// **committed** `BENCH_sweep.json` (no simulation runs — this renders
/// the artifact CI already pins, so the figure is reproducible from
/// the repo alone).
///
/// # Errors
///
/// The artifact is missing, unparseable, or lacks one of the three
/// configurations.
pub fn print_separation(path: &str) -> Result<(), String> {
    let doc = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read sweep artifact {path}: {e}"))?;
    let v = crate::json::parse(&doc).map_err(|e| format!("{path}: {e}"))?;
    let bench = v.get("bench").and_then(Value::as_str).unwrap_or("?");
    let scale = v.get("scale").and_then(Value::as_str).unwrap_or("?");
    let points = v
        .get("points")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no points array"))?;

    // (config -> core count -> (cycles, flits)), core counts sorted.
    let mut cores: Vec<u64> = Vec::new();
    let mut series: Vec<Vec<(u64, u64)>> = vec![Vec::new(); SEPARATION_CONFIGS.len()];
    for p in points {
        let config = p.get("config").and_then(Value::as_str).unwrap_or("");
        let Some(slot) = SEPARATION_CONFIGS.iter().position(|c| *c == config) else {
            continue;
        };
        let n = p.get("n_cores").and_then(Value::as_u64).unwrap_or(0);
        let cycles = p.get("cycles").and_then(Value::as_u64).unwrap_or(0);
        let flits = p.get("flits").and_then(Value::as_u64).unwrap_or(0);
        if !cores.contains(&n) {
            cores.push(n);
        }
        series[slot].push((n, cycles));
        // Flits ride in the high half so one vec carries both metrics.
        series[slot].push((n | 1 << 63, flits));
    }
    cores.sort_unstable();
    for (slot, config) in SEPARATION_CONFIGS.iter().enumerate() {
        if series[slot].is_empty() {
            return Err(format!("{path}: no rows for configuration {config}"));
        }
    }
    let lookup = |slot: usize, key: u64| -> u64 {
        series[slot]
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };

    for (title, tag) in [
        ("execution time (cycles)", 0u64),
        ("network traffic (total flits)", 1 << 63),
    ] {
        println!("\n== Separation: {title} vs cores ({bench}, {scale}) ==");
        print!("{:<8}", "cores");
        for config in SEPARATION_CONFIGS {
            print!(" {config:>16}");
        }
        println!(" {:>16}", "TSO-CC/MESI");
        for &n in &cores {
            print!("{n:<8}");
            let base = lookup(0, n | tag).max(1);
            for slot in 0..SEPARATION_CONFIGS.len() {
                print!(" {:>16}", lookup(slot, n | tag));
            }
            println!(" {:>16.3}", lookup(2, n | tag) as f64 / base as f64);
        }
        // The curve itself, one bar row per (core count, config),
        // scaled to the largest value in the block.
        let max = cores
            .iter()
            .flat_map(|&n| (0..SEPARATION_CONFIGS.len()).map(move |s| (s, n)))
            .map(|(s, n)| lookup(s, n | tag))
            .max()
            .unwrap_or(1)
            .max(1);
        for &n in &cores {
            for (slot, config) in SEPARATION_CONFIGS.iter().enumerate() {
                let value = lookup(slot, n | tag);
                let width = ((value as f64 / max as f64) * 48.0).round() as usize;
                let lead = if slot == 0 {
                    format!("{n:>4}")
                } else {
                    "    ".into()
                };
                println!(
                    "{lead} | {config:<14} {:<48} {value}",
                    "#".repeat(width.max(1))
                );
            }
        }
    }
    Ok(())
}

/// Every selection `tsocc figures` accepts.
pub const SELECTIONS: [&str; 13] = [
    "table1",
    "table2",
    "table3",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "separation",
    "all",
];

/// Runs the benchmark sweep at most once across a render batch.
fn ensure_sweep(sweep: &mut Option<Sweep>, opts: crate::SweepOpts) -> &Sweep {
    if sweep.is_none() {
        *sweep = Some(Sweep::run(opts));
    }
    sweep.as_ref().expect("just filled")
}

/// Renders several figures or tables in order (`all` is every one of
/// them), sharing **one** benchmark sweep across all of them and
/// running it only when a selection needs it (the sweep dominates the
/// cost, so `figures fig3 fig5` must not run it twice). Every
/// selection is validated before any work starts; an unrecognized one
/// is an error listing the valid selections.
pub fn render_all<S: AsRef<str>>(selections: &[S], opts: crate::SweepOpts) -> Result<(), String> {
    for s in selections {
        if !SELECTIONS.contains(&s.as_ref()) {
            return Err(format!(
                "unknown selection {:?}; expected one of {}",
                s.as_ref(),
                SELECTIONS.join(", ")
            ));
        }
    }
    let mut sweep: Option<Sweep> = None;
    for selection in selections {
        match selection.as_ref() {
            "table1" => print_table1(),
            "table2" => print_table2(&opts),
            "table3" => print_table3(),
            "fig2" => print_fig2(),
            "fig3" => print_fig3(ensure_sweep(&mut sweep, opts)),
            "fig4" => print_fig4(ensure_sweep(&mut sweep, opts)),
            "fig5" => print_fig5(ensure_sweep(&mut sweep, opts)),
            "fig6" => print_fig6(ensure_sweep(&mut sweep, opts)),
            "fig7" => print_fig7(ensure_sweep(&mut sweep, opts)),
            "fig8" => print_fig8(ensure_sweep(&mut sweep, opts)),
            "fig9" => print_fig9(ensure_sweep(&mut sweep, opts)),
            "separation" => print_separation(&sweep_artifact_path())?,
            "all" => {
                print_table2(&opts);
                print_table3();
                print_table1();
                print_fig2();
                let sweep = ensure_sweep(&mut sweep, opts);
                print_fig3(sweep);
                print_fig4(sweep);
                print_fig5(sweep);
                print_fig6(sweep);
                print_fig7(sweep);
                print_fig8(sweep);
                print_fig9(sweep);
                print_separation(&sweep_artifact_path())?;
            }
            _ => unreachable!("validated above"),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepOpts;
    use tsocc_workloads::Scale;

    /// A tiny two-benchmark sweep so the printers can be smoke-tested.
    fn mini_sweep() -> Sweep {
        let opts = SweepOpts {
            n_cores: 4,
            scale: Scale::Tiny,
            seed: 3,
            threads: 0,
        };
        // Reuse one cheap run per config for every benchmark to keep
        // the test fast; printers only need the keys.
        let per_config: Vec<_> = tsocc_protocols::Protocol::paper_configs()
            .into_iter()
            .map(|p| (p.name(), Sweep::run_one(Benchmark::Fft, p, opts)))
            .collect();
        let mut results = std::collections::BTreeMap::new();
        for bench in Benchmark::ALL {
            for (name, stats) in &per_config {
                results.insert((bench.name().to_string(), name.clone()), stats.clone());
            }
        }
        Sweep { opts, results }
    }

    #[test]
    fn printers_do_not_panic() {
        let sweep = mini_sweep();
        print_fig3(&sweep);
        print_fig4(&sweep);
        print_fig5(&sweep);
        print_fig6(&sweep);
        print_fig7(&sweep);
        print_fig8(&sweep);
        print_fig9(&sweep);
        print_fig2();
        print_table1();
        print_table2(&sweep.opts);
        print_table3();
    }

    #[test]
    fn separation_renders_the_committed_artifact() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
        print_separation(path).expect("committed artifact renders");
        assert!(print_separation("/nonexistent.json").is_err());
    }
}
