//! The durability layer's contract, tested at workspace level:
//!
//! 1. **kill -9 → restore → resume** — a warm, fault-injected engine is
//!    frozen mid-stream into an actual file, the process state
//!    is dropped (nothing survives but the bytes), and the restored
//!    engine — at a *different* thread count and observability config —
//!    must finish the stream **bit-identically** to an engine that was
//!    never interrupted. Cache warmth and the RNG cursor have to survive
//!    the disk; the churn epoch needs no storage, because each query's
//!    epoch follows from its RNG index.
//! 2. **Decoder totality** — every truncation, single-byte mutation,
//!    and forged section-table entry of a valid snapshot decodes to a
//!    typed [`StoreError`] or a valid value, never a panic and never an
//!    allocation beyond the bytes actually present. Same discipline for
//!    the traffic log, whose truncated tail must additionally read as
//!    the durable prefix, exactly.
//!
//! Case counts come from `PROPTEST_CASES`, thread counts from
//! `NAV_TEST_THREADS` ([`nav_par::test_threads`]) — both pinned in CI.

use navigability::core::trial::PairStats;
use navigability::core::uniform::UniformScheme;
use navigability::core::{FailurePlan, FaultConfig};
use navigability::engine::{AdmissionPolicy, Engine, EngineConfig, QueryBatch};
use navigability::obs::ObsConfig;
use navigability::par::test_threads;
use navigability::prelude::*;
use navigability::store::{read_record_log, RecordWriter, Snapshot, StoreError};
use proptest::prelude::*;

/// A small connected world: G(n, p) with components bridged.
fn world(n: usize, seed: u64) -> Graph {
    let mut rng = seeded_rng(seed);
    let g = navigability::gen::random::gnp(n, 6.0 / n as f64, &mut rng).expect("gnp");
    navigability::graph::components::connect_components(g).0
}

/// Serving knobs with the fault layer fully on: link drops plus a
/// 3-epoch churn plan short enough that streams cross epoch boundaries,
/// so a snapshot that loses the RNG cursor cannot pass.
fn serving_cfg(seed: u64) -> EngineConfig {
    EngineConfig {
        seed,
        threads: 1,
        cache_bytes: 1 << 20,
        admission: AdmissionPolicy::Segmented,
        fault: FaultConfig {
            drop_prob: 0.2,
            plan: Some(FailurePlan::new(seed ^ 0xd00d, 3, 4, 0.15)),
        },
        ..EngineConfig::default()
    }
}

/// A deterministic pair stream over `g` (targets repeat, so the cache
/// actually warms).
fn pair_stream(g: &Graph, len: usize) -> Vec<(NodeId, NodeId)> {
    let n = g.num_nodes() as u64;
    (0..len as u64)
        .map(|i| {
            (
                ((i * 13 + 3) % n) as NodeId,
                ((i * 5 + 1) % 7 % n) as NodeId,
            )
        })
        .collect()
}

fn identical(a: &[PairStats], b: &[PairStats]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bits_eq(y))
}

/// A uniform-scheme engine over `g`.
fn engine(g: &Graph, seed: u64) -> Engine {
    Engine::new(g.clone(), Box::new(UniformScheme), serving_cfg(seed))
}

/// A valid snapshot's bytes — the corpus every totality property
/// mutates: a warm engine with faults on and resident rows in both row
/// widths of the cache.
fn warm_snapshot_bytes(seed: u64) -> Vec<u8> {
    let g = world(40, seed ^ 0x5eed);
    let mut front = engine(&g, seed);
    let pairs = pair_stream(&g, 8);
    front
        .serve(&QueryBatch::from_pairs(&pairs, 2))
        .expect("serve");
    Snapshot::capture(&front)
        .expect("uniform scheme snapshots")
        .encode()
}

// --- 1. the kill -9 contract ----------------------------------------------

#[test]
fn kill_dash_nine_then_restore_resumes_the_stream_bit_identically() {
    let g = world(64, 11);
    let seed = 29u64;
    let pairs = pair_stream(&g, 24);

    // The reference: one engine serves the whole stream, uninterrupted.
    let mut uninterrupted = engine(&g, seed);
    let mut reference = Vec::new();
    for chunk in pairs.chunks(5) {
        reference.extend(
            uninterrupted
                .serve(&QueryBatch::from_pairs(chunk, 3))
                .expect("serve")
                .answers,
        );
    }

    // The victim serves the first 10 queries, snapshots to a real file,
    // and then "dies": every in-memory structure is dropped. Only the
    // file survives the kill.
    let mut victim = engine(&g, seed);
    let mut resumed = Vec::new();
    for chunk in pairs[..10].chunks(5) {
        resumed.extend(
            victim
                .serve(&QueryBatch::from_pairs(chunk, 3))
                .expect("serve")
                .answers,
        );
    }
    let path = std::env::temp_dir().join(format!("nav-store-kill9-{}.snap", std::process::id()));
    std::fs::write(
        &path,
        Snapshot::capture(&victim).expect("snapshot").encode(),
    )
    .expect("write snapshot");
    drop(victim);

    // Restore from disk at a different thread count and with tracing on
    // — both answer-invisible by contract — and finish the stream.
    let bytes = std::fs::read(&path).expect("read snapshot");
    let _ = std::fs::remove_file(&path);
    let snap = Snapshot::decode(&bytes).expect("snapshot decodes");
    let mut restored = snap
        .restore(
            test_threads(),
            ObsConfig {
                stages: true,
                trace_every: 4,
                trace_capacity: 8,
            },
        )
        .expect("snapshot restores");
    assert_eq!(restored.queries_served(), 10, "RNG cursor survived");
    assert!(
        restored.cache_stats().resident_rows > 0,
        "the restored cache must come back warm"
    );
    for chunk in pairs[10..].chunks(5) {
        resumed.extend(
            restored
                .serve(&QueryBatch::from_pairs(chunk, 3))
                .expect("serve")
                .answers,
        );
    }
    assert!(
        identical(&resumed, &reference),
        "kill -9 → restore → resume diverged from the uninterrupted stream"
    );
}

// --- 2. decoder totality ---------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn snapshot_decode_rejects_every_truncation(
        seed in 0u64..4,
        cut_seed in 0usize..100_000,
    ) {
        let bytes = warm_snapshot_bytes(seed);
        let cut = cut_seed % bytes.len();
        prop_assert!(
            Snapshot::decode(&bytes[..cut]).is_err(),
            "a {cut}-byte prefix of a {}-byte snapshot decoded",
            bytes.len()
        );
    }

    #[test]
    fn mutated_snapshots_never_panic_or_overallocate(
        seed in 0u64..4,
        pos_seed in 0usize..100_000,
        byte in 0u8..=255,
    ) {
        // Single-byte corruption anywhere in a valid snapshot must
        // yield Ok(decoded) or a typed error — decode is total. And a
        // plausibly sized decode must survive restore (which re-checks
        // contact ranges and rebuilds the graph through the validating
        // builder) without panicking either.
        let mut bytes = warm_snapshot_bytes(seed);
        let pos = pos_seed % bytes.len();
        bytes[pos] = byte;
        match Snapshot::decode(&bytes) {
            Ok(snap) => {
                // Guard restore against corrupted *sizes* — a forged
                // node count may legally decode (it is just a u64), but
                // building a billion-node CSR is not a useful property
                // to test. Everything else corrupted must surface as a
                // clean Result.
                if snap.num_nodes <= 1 << 12 && snap.edges.len() <= 1 << 14 {
                    let _ = snap.restore(1, ObsConfig::default());
                }
            }
            Err(e) => {
                // Errors must render (diagnosability is part of the
                // contract: a corrupt file names its broken field).
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }

    #[test]
    fn forged_section_table_entries_never_panic_or_overallocate(
        entry in 0usize..4,
        forge_len in 0u8..2,
        value in 0u64..u64::MAX,
    ) {
        // The section table is the decoder's trust boundary: offsets and
        // lengths are attacker-controlled u64s. Any forged value must
        // hit the checked-add / bounds checks, not an allocation or a
        // slice panic.
        let mut bytes = warm_snapshot_bytes(1);
        let at = 8 + 20 * entry + if forge_len == 1 { 12 } else { 4 };
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        match Snapshot::decode(&bytes) {
            Ok(snap) => prop_assert!(snap.num_nodes <= u32::MAX as usize),
            Err(
                StoreError::BadMagic
                | StoreError::UnsupportedVersion(_)
                | StoreError::Truncated(_)
                | StoreError::Malformed(_)
                | StoreError::UnsupportedScheme(_)
                | StoreError::Graph(_),
            ) => {}
        }
    }

    #[test]
    fn record_log_truncations_keep_exactly_the_durable_prefix(
        entries in proptest::collection::vec(
            (
                proptest::collection::vec(0u8..=255, 0..48),
                proptest::collection::vec(0u8..=255, 0..48),
            ),
            0..8,
        ),
        cut_seed in 0usize..100_000,
    ) {
        // The log's whole point: after a kill mid-write, the reader
        // returns every complete entry, in order, byte-for-byte — and
        // treats the ragged tail as absent, not as an error.
        let mut w = RecordWriter::new(Vec::new()).expect("header");
        for (req, resp) in &entries {
            w.append(req, resp).expect("append");
        }
        prop_assert_eq!(w.entries(), entries.len() as u64);
        let log = w.into_inner();
        let cut = 8 + cut_seed % (log.len() - 8 + 1);
        let got = read_record_log(&log[..cut]).expect("tail truncation is not an error");
        prop_assert!(got.len() <= entries.len());
        for (e, (req, resp)) in got.iter().zip(&entries) {
            prop_assert_eq!(&e.request, req);
            prop_assert_eq!(&e.response, resp);
        }
    }

    #[test]
    fn mutated_record_logs_never_panic(
        entries in proptest::collection::vec(
            (
                proptest::collection::vec(0u8..=255, 0..32),
                proptest::collection::vec(0u8..=255, 0..32),
            ),
            1..6,
        ),
        pos_seed in 0usize..100_000,
        byte in 0u8..=255,
    ) {
        // Corrupting a length field can merge, split, or orphan entries
        // — all of which must read as some shorter valid log or a typed
        // header error, bounded by the bytes present.
        let mut w = RecordWriter::new(Vec::new()).expect("header");
        for (req, resp) in &entries {
            w.append(req, resp).expect("append");
        }
        let mut log = w.into_inner();
        let pos = pos_seed % log.len();
        log[pos] = byte;
        match read_record_log(&log) {
            Ok(got) => prop_assert!(got.len() <= log.len() / 8 + 1),
            Err(
                StoreError::BadMagic
                | StoreError::UnsupportedVersion(_)
                | StoreError::Truncated(_)
                | StoreError::Malformed(_)
                | StoreError::UnsupportedScheme(_)
                | StoreError::Graph(_),
            ) => {}
        }
    }
}
