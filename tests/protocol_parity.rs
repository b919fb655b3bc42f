//! Integration smoke test for the protocol-factory seam: MESI, the
//! limited-pointer MESI-coarse directory and TSO-CC, constructed
//! through the open [`ProtocolFactory`] API (not the `Protocol` enum),
//! must agree on the final architectural state of a small deterministic
//! program, and on litmus verdicts.
//!
//! [`ProtocolFactory`]: tsocc_coherence::ProtocolFactory

use tsocc::{FaultPlan, System, SystemConfig};
use tsocc_coherence::ProtocolHandle;
use tsocc_conform::{litmus_suite, run_litmus};
use tsocc_isa::{Asm, Program, Reg};
use tsocc_mem::Addr;
use tsocc_mesi::MesiFactory;
use tsocc_mesi_coarse::{MesiCoarseConfig, MesiCoarseFactory};
use tsocc_proto::{TsoCcConfig, TsoCcFactory};

/// The factories under test, built directly — the way an out-of-tree
/// protocol crate would register, with no `Protocol` enum involved.
fn factories() -> Vec<(&'static str, ProtocolHandle)> {
    vec![
        ("mesi", MesiFactory.into()),
        (
            "mesi-coarse-p1-g2",
            MesiCoarseFactory::new(MesiCoarseConfig::new(1, 2)).into(),
        ),
        (
            "tsocc-basic",
            TsoCcFactory::new(TsoCcConfig::basic()).into(),
        ),
        (
            "tsocc-4-12-3",
            TsoCcFactory::new(TsoCcConfig::realistic(12, 3)).into(),
        ),
    ]
}

/// Two cores: core 0 increments a shared counter and fills an array;
/// core 1 spins for the handshake flag, then reads the array back and
/// stores a checksum. Fences before halting drain every dirty line to
/// a coherent final memory state.
fn deterministic_programs() -> Vec<Program> {
    let base = 0x2_0000u64;
    let n = 24u64;
    let flag = 0x3_0000u64;
    let out = 0x3_0040u64;

    let mut p0 = Asm::new();
    p0.movi(Reg::R1, 0);
    let fill = p0.new_label();
    p0.bind(fill);
    p0.muli(Reg::R2, Reg::R1, 64);
    p0.addi(Reg::R2, Reg::R2, base);
    p0.addi(Reg::R3, Reg::R1, 100);
    p0.store(Reg::R3, Reg::R2, 0);
    p0.addi(Reg::R1, Reg::R1, 1);
    p0.blt_imm(Reg::R1, n, fill);
    p0.movi(Reg::R4, 1);
    p0.store_abs(Reg::R4, flag);
    p0.fence();
    p0.halt();

    let mut p1 = Asm::new();
    let spin = p1.new_label();
    p1.bind(spin);
    p1.load_abs(Reg::R1, flag);
    p1.beq(Reg::R1, Reg::R0, spin);
    p1.movi(Reg::R1, 0);
    p1.movi(Reg::R5, 0);
    let sum = p1.new_label();
    p1.bind(sum);
    p1.muli(Reg::R2, Reg::R1, 64);
    p1.addi(Reg::R2, Reg::R2, base);
    p1.load(Reg::R3, Reg::R2, 0);
    p1.add(Reg::R5, Reg::R5, Reg::R3);
    p1.addi(Reg::R1, Reg::R1, 1);
    p1.blt_imm(Reg::R1, n, sum);
    p1.store_abs(Reg::R5, out);
    p1.fence();
    p1.halt();

    vec![p0.finish(), p1.finish()]
}

#[test]
fn factories_agree_on_final_memory_state() {
    let base = 0x2_0000u64;
    let n = 24u64;
    let out = 0x3_0040u64;
    let expected_sum: u64 = (0..n).map(|i| i + 100).sum();

    let mut final_states: Vec<(&'static str, Vec<u64>)> = Vec::new();
    for (label, factory) in factories() {
        let cfg = SystemConfig::builder()
            .small()
            .cores(2)
            .protocol(factory)
            .build()
            .expect("valid config");
        let mut sys = System::new(cfg, deterministic_programs());
        let stats = sys
            .run(5_000_000)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(stats.cycles > 0, "{label}");

        // The consumer's checksum proves it read every element through
        // the protocol under test.
        assert_eq!(
            sys.core(1).thread().reg(Reg::R5),
            expected_sum,
            "{label}: consumer checksum"
        );

        // Both programs fence before halting, so DRAM holds the final
        // architectural memory state.
        let mut words: Vec<u64> = (0..n)
            .map(|i| sys.read_mem_word(Addr::new(base + i * 64)))
            .collect();
        words.push(sys.read_mem_word(Addr::new(out)));
        final_states.push((label, words));
    }

    let (ref_label, ref_words) = &final_states[0];
    for (label, words) in &final_states[1..] {
        assert_eq!(
            words, ref_words,
            "{label} final memory diverges from {ref_label}"
        );
    }
}

#[test]
fn factories_agree_on_litmus_verdicts() {
    for (label, factory) in factories() {
        for test in litmus_suite() {
            let report = run_litmus(&test, factory.clone(), 20, 0xDEC0DE, FaultPlan::none())
                .unwrap_or_else(|(e, hang)| {
                    panic!(
                        "{label}: litmus {} hung: {e}; {}",
                        test.name,
                        hang.summary()
                    )
                });
            assert!(
                report.passed(),
                "{label}: litmus {} saw a forbidden outcome: {:?}",
                test.name,
                report.outcomes
            );
        }
    }
}
