//! Validates that each synthetic kernel actually produces the sharing
//! pattern the `tsocc_workloads::kernels` docs claim for it — the
//! property that makes the Figure 3–9 comparisons meaningful.

use tsocc::{RunStats, SystemConfig};
use tsocc_proto::TsoCcConfig;
use tsocc_protocols::Protocol;
use tsocc_workloads::{run_workload, Benchmark, Scale};

fn run(bench: Benchmark, protocol: Protocol) -> RunStats {
    let n = 8;
    let w = bench.build(n, Scale::Small, 23);
    let cfg = SystemConfig::builder()
        .cores(n)
        .protocol(protocol)
        .build()
        .expect("valid config");
    run_workload(&w, cfg).unwrap_or_else(|e| panic!("{}: {e}", bench.name()))
}

fn tsocc() -> Protocol {
    Protocol::TsoCc(TsoCcConfig::realistic(12, 3))
}

#[test]
fn blackscholes_is_compute_dominated_with_high_hit_rate() {
    let s = run(Benchmark::Blackscholes, tsocc());
    assert!(
        s.l1_miss_rate() < 0.10,
        "embarrassingly parallel kernel must hit nearly always ({:.3})",
        s.l1_miss_rate()
    );
}

#[test]
fn canneal_is_write_miss_dominated() {
    let s = run(Benchmark::Canneal, tsocc());
    assert!(
        s.l1.write_misses() + s.l1.rmw_miss.get() > s.l1.read_misses(),
        "migratory swap kernel: write/RMW misses {}+{} must dominate read misses {}",
        s.l1.write_misses(),
        s.l1.rmw_miss.get(),
        s.l1.read_misses()
    );
}

#[test]
fn raytrace_reads_are_sharedro_dominated_under_tsocc() {
    let s = run(Benchmark::Raytrace, tsocc());
    assert!(
        s.l1.read_hit_sharedro.get() > s.l1.read_hit_shared.get(),
        "read-only scene must be served from SharedRO ({} vs {})",
        s.l1.read_hit_sharedro.get(),
        s.l1.read_hit_shared.get()
    );
}

#[test]
fn lu_noncont_false_shares_lines_under_mesi() {
    // Under MESI, false sharing shows up as write misses to Shared
    // lines (upgrades that ping-pong).
    let cont = run(Benchmark::LuCont, Protocol::Mesi);
    let non = run(Benchmark::LuNonCont, Protocol::Mesi);
    assert!(
        non.l1.write_miss_shared.get() > 2 * cont.l1.write_miss_shared.get(),
        "interleaved layout must multiply upgrade misses ({} vs {})",
        non.l1.write_miss_shared.get(),
        cont.l1.write_miss_shared.get()
    );
}

#[test]
fn stamp_kernels_exercise_rmw_commits() {
    for b in [Benchmark::Intruder, Benchmark::Ssca2, Benchmark::Vacation] {
        let s = run(b, tsocc());
        assert!(
            s.rmw_latency.count() > 0,
            "{}: NOrec commits must CAS the sequence lock",
            b.name()
        );
    }
}

#[test]
fn x264_spins_produce_shared_expiry_misses_under_tsocc() {
    let s = run(Benchmark::X264, tsocc());
    assert!(
        s.l1.read_miss_shared.get() > 0,
        "wavefront spins must exhaust the Shared access budget"
    );
}

#[test]
fn barrier_kernels_issue_rmws_on_every_protocol() {
    for protocol in [Protocol::Mesi, tsocc()] {
        let s = run(Benchmark::Fft, protocol);
        assert!(
            s.rmw_latency.count() > 0 || s.l1.rmw_hit.get() > 0,
            "{}: barriers use fetch-add arrivals",
            protocol.name()
        );
    }
}

#[test]
fn protocols_agree_on_instruction_counts_for_data_independent_kernels() {
    // blackscholes' per-thread work is data-independent; only the final
    // barrier's spin iterations (and which thread arrives last) vary
    // with protocol timing, so instruction counts agree within a small
    // tolerance.
    let a = run(Benchmark::Blackscholes, Protocol::Mesi).instructions as f64;
    let b = run(Benchmark::Blackscholes, tsocc()).instructions as f64;
    let ratio = a.max(b) / a.min(b);
    assert!(ratio < 1.02, "instruction counts diverged: {a} vs {b}");
}

#[test]
fn dedup_pipeline_forwards_every_item() {
    // The pipeline's correctness is data-dependent: a dropped handoff
    // would deadlock (flag never set) rather than finish.
    for protocol in [Protocol::Mesi, tsocc()] {
        let s = run(Benchmark::Dedup, protocol);
        assert!(s.cycles > 0, "{}", protocol.name());
    }
}
