//! Criterion versions of the paper's figure measurements at miniature
//! scale, one group per figure family, so `cargo bench` exercises every
//! measurement path quickly. The full-scale numbers come from
//! `cargo run --release -p tsocc-orch --bin tsocc -- figures all`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tsocc::SystemConfig;
use tsocc_proto::TsoCcConfig;
use tsocc_protocols::Protocol;
use tsocc_workloads::{run_workload, Benchmark, Scale};

const CORES: usize = 4;

fn run(bench: Benchmark, protocol: Protocol) -> tsocc::RunStats {
    let w = bench.build(CORES, Scale::Tiny, 3);
    let cfg = SystemConfig::builder()
        .small()
        .cores(CORES)
        .protocol(protocol)
        .build()
        .expect("valid config");
    run_workload(&w, cfg).expect("terminates")
}

/// Figure 3 family: execution time, MESI vs best TSO-CC.
fn bench_fig3_execution_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_execution_time");
    for protocol in [
        Protocol::Mesi,
        Protocol::TsoCc(TsoCcConfig::realistic(12, 3)),
    ] {
        group.bench_function(format!("fft/{}", protocol.name()), |b| {
            b.iter(|| black_box(run(Benchmark::Fft, protocol).cycles))
        });
    }
    group.finish();
}

/// Figure 4 family: network traffic.
fn bench_fig4_traffic(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_network_traffic");
    for protocol in [
        Protocol::Mesi,
        Protocol::TsoCc(TsoCcConfig::cc_shared_to_l2()),
        Protocol::TsoCc(TsoCcConfig::realistic(12, 3)),
    ] {
        group.bench_function(format!("x264/{}", protocol.name()), |b| {
            b.iter(|| black_box(run(Benchmark::X264, protocol).total_flits()))
        });
    }
    group.finish();
}

/// Figures 5-7/9 family: the miss/self-invalidation statistics path.
fn bench_fig7_selfinv(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_selfinv_stats");
    for protocol in [
        Protocol::TsoCc(TsoCcConfig::basic()),
        Protocol::TsoCc(TsoCcConfig::noreset()),
    ] {
        group.bench_function(format!("canneal/{}", protocol.name()), |b| {
            b.iter(|| {
                let s = run(Benchmark::Canneal, protocol);
                black_box((s.l1.selfinv_total(), s.selfinv_rate_per_miss()))
            })
        });
    }
    group.finish();
}

/// Figure 8 family: RMW latency over the STM commit path.
fn bench_fig8_rmw(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_rmw_latency");
    for protocol in [
        Protocol::Mesi,
        Protocol::TsoCc(TsoCcConfig::realistic(12, 3)),
    ] {
        group.bench_function(format!("intruder/{}", protocol.name()), |b| {
            b.iter(|| black_box(run(Benchmark::Intruder, protocol).rmw_latency.mean()))
        });
    }
    group.finish();
}

/// Figure 2 / Table 1 family: the storage model (pure computation).
fn bench_fig2_storage_model(c: &mut Criterion) {
    use tsocc_proto::StorageModel;
    c.bench_function("fig2_storage_model_sweep", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for n in [16usize, 32, 64, 128] {
                let m = StorageModel::paper(n);
                acc ^= m.mesi_bits();
                acc ^= m.tsocc_bits(&TsoCcConfig::realistic(12, 3));
                acc ^= m.tsocc_bits(&TsoCcConfig::basic());
            }
            black_box(acc)
        })
    });
}

criterion_group!(
    benches,
    bench_fig3_execution_time,
    bench_fig4_traffic,
    bench_fig7_selfinv,
    bench_fig8_rmw,
    bench_fig2_storage_model
);
criterion_main!(benches);
