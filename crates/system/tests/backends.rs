//! Cross-backend end-to-end tests: every memory backend built by the
//! `nmpic_mem::BackendConfig::build` factory must drive the full adapter
//! stack to byte-identical gathered data, and the SpMV systems must
//! verify on every backend.

use nmpic_axi::{ElemSize, PackRequest};
use nmpic_core::{
    run_indirect_stream, stream_memory_size, AdapterConfig, IndirectStreamUnit, StreamOptions,
};
use nmpic_mem::{BackendConfig, BackendKind, Memory};
use nmpic_sparse::{by_name, Sell};
use nmpic_system::{golden_x, SpmvEngine, SystemKind};

/// Every backend kind the factory can produce, including the acceptance
/// sweep `hbm x{2, 4, 8}`.
fn all_backends() -> Vec<BackendConfig> {
    vec![
        BackendConfig::ideal(),
        BackendConfig::hbm(),
        BackendConfig::interleaved(2),
        BackendConfig::interleaved(4),
        BackendConfig::interleaved(8),
    ]
}

/// Drives one full indirect gather against a factory-built backend and
/// returns the gathered element stream.
fn gather_on(
    backend: &BackendConfig,
    cfg: &AdapterConfig,
    indices: &[u32],
    vec_len: usize,
) -> Vec<u64> {
    let mut chan = backend.build(Memory::new(stream_memory_size(indices.len(), vec_len)));
    let mem = chan.memory_mut();
    let idx_base = mem.alloc_array(indices.len() as u64, 4);
    let elem_base = mem.alloc_array(vec_len as u64, 8);
    mem.write_u32_slice(idx_base, indices);
    for i in 0..vec_len as u64 {
        mem.write_u64(
            elem_base + 8 * i,
            i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xBEEF,
        );
    }

    let req = PackRequest::Indirect {
        idx_base,
        idx_size: ElemSize::B4,
        count: indices.len() as u64,
        elem_base,
        elem_size: ElemSize::B8,
    };
    let mut got = Vec::new();
    IndirectStreamUnit::new(cfg.clone())
        .run_burst(&mut *chan, req, |beat| {
            assert_eq!(beat.elem_size, ElemSize::B8);
            got.extend(beat.elements());
        })
        .expect("fresh unit");
    got
}

/// The acceptance property: `IdealChannel` and `HbmChannel` on 1, 2, 4
/// and 8 channels all run behind the same factory, and the gathered
/// data is byte-identical across every backend.
#[test]
fn gather_is_byte_identical_across_backends() {
    let spec = by_name("G3_circuit").expect("suite matrix");
    let csr = spec.build_capped(5_000);
    let sell = Sell::from_csr_default(&csr);
    let indices = sell.col_idx();
    for adapter in [AdapterConfig::mlp(64), AdapterConfig::mlp_nc()] {
        let reference = gather_on(&BackendConfig::hbm(), &adapter, indices, csr.cols());
        assert_eq!(reference.len(), indices.len());
        for backend in all_backends() {
            let got = gather_on(&backend, &adapter, indices, csr.cols());
            assert_eq!(
                got,
                reference,
                "{} gather differs on {}",
                adapter.variant_name(),
                backend.label()
            );
        }
    }
}

/// The stream harness verifies against its golden model on every backend
/// and reports DRAM stats only where DRAM exists.
#[test]
fn stream_harness_runs_on_every_backend() {
    let indices: Vec<u32> = (0..1500u32).map(|k| (k * 37) % 700).collect();
    for backend in all_backends() {
        let kind = backend.kind;
        let opts = StreamOptions { backend };
        let r = run_indirect_stream(&AdapterConfig::mlp(256), &indices, 700, &opts);
        assert!(r.verified, "{kind}");
        assert_eq!(r.elements, indices.len() as u64, "{kind}");
        assert!(r.indir_gbps > 0.0, "{kind}");
        if kind == BackendKind::Ideal {
            assert_eq!(r.row_hit_rate, 0.0, "ideal channel models no rows");
        } else {
            assert!(r.row_hit_rate > 0.0, "{kind} should see row hits");
        }
    }
}

/// Both SpMV system models run and verify end to end on every backend.
#[test]
fn spmv_systems_verify_on_every_backend() {
    let spec = by_name("HPCG").expect("suite matrix");
    let csr = spec.build_capped(6_000);
    for backend in all_backends() {
        let label = backend.label();
        let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
        let base = SpmvEngine::builder()
            .backend(backend.clone())
            .system(SystemKind::Base)
            .build()
            .prepare(&csr)
            .run(&x);
        assert!(base.verified, "base on {label}");
        let pack = SpmvEngine::builder()
            .backend(backend.clone())
            .system(SystemKind::Pack(AdapterConfig::mlp(256)))
            .build()
            .prepare(&csr)
            .run(&x);
        assert!(pack.verified, "pack on {label}");
        assert!(pack.cycles > 0 && base.cycles > 0);
    }
}

/// More channels never slow the pack system down (same matrix, same
/// adapter, wider memory).
#[test]
fn pack_spmv_benefits_from_channels() {
    let spec = by_name("af_shell10").expect("suite matrix");
    let csr = spec.build_capped(12_000);
    let x: Vec<f64> = (0..csr.cols()).map(golden_x).collect();
    let run = |backend: BackendConfig| {
        SpmvEngine::builder()
            .backend(backend)
            .system(SystemKind::Pack(AdapterConfig::mlp_nc()))
            .build()
            .prepare(&csr)
            .run(&x)
    };
    let one = run(BackendConfig::hbm());
    let four = run(BackendConfig::interleaved(4));
    assert!(one.verified && four.verified);
    assert!(
        four.cycles < one.cycles,
        "pack0 is DRAM-bound, 4 channels must help: {} vs {}",
        four.cycles,
        one.cycles
    );
}
