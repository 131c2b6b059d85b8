//! Seeded-determinism regression tests for the `nav-engine gen` workload
//! pipeline: the rendered file and the expanded zipfian query stream are
//! pure functions of the spec, and both are pinned here — against the
//! exact bytes — so format or generator drift cannot land silently.

use navigability::engine::workload::{
    parse_workload, render_workload, render_workload_full, zipf_queries, FaultSpec, GraphSpec,
    ZipfSpec,
};

fn gen_spec() -> (GraphSpec, ZipfSpec) {
    (
        GraphSpec {
            family: "gnp".into(),
            n: 4096,
            seed: 42,
        },
        ZipfSpec {
            count: 100_000,
            theta: 1.1,
            seed: 7,
            hot: 1024,
        },
    )
}

/// FNV-1a over the expanded query stream — one stable fingerprint for
/// 100k queries.
fn stream_hash(queries: &[navigability::engine::Query]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for q in queries {
        for b in
            q.s.to_le_bytes()
                .into_iter()
                .chain(q.t.to_le_bytes())
                .chain((q.trials as u64).to_le_bytes())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[test]
fn rendered_workload_file_is_byte_identical() {
    // Exactly what `nav-engine gen` writes for the default CLI parameters
    // — the golden bytes of the `nav-workload v1` format.
    let (graph, zipf) = gen_spec();
    let text = render_workload(&graph, 8, 512, &zipf);
    assert_eq!(
        text,
        "nav-workload v1\ngraph gnp 4096 42\ntrials 8\nbatch 512\nzipf 100000 1.1 7 1024\n"
    );
    // Rendering is pure: same spec, same bytes, every time.
    assert_eq!(text, render_workload(&graph, 8, 512, &zipf));
}

#[test]
fn zipf_expansion_is_pinned() {
    // The parse-time zipf expansion is part of the file format: a
    // workload file names `(count, theta, seed, hot)` and *means* this
    // exact query stream. Lock its fingerprint.
    let (graph, zipf) = gen_spec();
    let queries = zipf_queries(graph.n, &zipf, 8);
    assert_eq!(queries.len(), 100_000);
    assert_eq!(stream_hash(&queries), PINNED_STREAM_HASH);
    // And the full gen -> parse pipeline lands on the same stream.
    let spec = parse_workload(&render_workload(&graph, 8, 512, &zipf)).expect("valid");
    assert_eq!(stream_hash(&spec.queries), PINNED_STREAM_HASH);
}

/// The fingerprint of the `gnp 4096` default stream. If an intentional
/// generator change lands, update this constant *in the same commit* and
/// say so in the log — every previously generated workload file changes
/// meaning with it.
const PINNED_STREAM_HASH: u64 = 17310200778369204009;

/// The fingerprint of the scale-smoke stream: the same zipf parameters
/// expanded over an `n = 10^5` id space (the `scale-bench --quick`
/// graph size). Pinned separately from the 4096 stream because the
/// node-count clamp is part of the expansion: hot-set truncation and
/// rejection behave differently at large `n`.
const PINNED_SCALE_STREAM_HASH: u64 = 13617300153548124487;

#[test]
fn zipf_expansion_is_pinned_at_scale_n() {
    let zipf = ZipfSpec {
        count: 100_000,
        theta: 1.1,
        seed: 7,
        hot: 1024,
    };
    let queries = zipf_queries(100_000, &zipf, 8);
    assert_eq!(queries.len(), 100_000);
    assert!(queries.iter().all(|q| q.s < 100_000 && q.t < 100_000));
    assert_eq!(stream_hash(&queries), PINNED_SCALE_STREAM_HASH);
}

#[test]
fn sharded_workload_file_is_byte_identical() {
    // The golden bytes older `gen --shards 4` runs wrote: one extra
    // `shards` line between `batch` and `zipf`. It is range-checked and
    // ignored, so the file parses to the same spec as the one without it.
    let (graph, zipf) = gen_spec();
    let sharded =
        "nav-workload v1\ngraph gnp 4096 42\ntrials 8\nbatch 512\nshards 4\nzipf 100000 1.1 7 1024\n";
    let single = render_workload(&graph, 8, 512, &zipf);
    assert_eq!(single, sharded.replace("shards 4\n", ""));
    let spec = parse_workload(sharded).expect("valid");
    assert_eq!(stream_hash(&spec.queries), PINNED_STREAM_HASH);
    assert_eq!(spec, parse_workload(&single).expect("valid"));
    for bad in ["shards 0", "shards 256"] {
        let text = single.replace("batch 512", &format!("batch 512\n{bad}"));
        assert!(parse_workload(&text).is_err(), "{bad} must be rejected");
    }
}

#[test]
fn fault_workload_file_is_byte_identical() {
    // The golden bytes of a faulty workload: the `fault` directive lands
    // between `batch` and `zipf`, with the drop probability rendered
    // exactly (no rounding — 0.125 stays 0.125, not 0.13). A fault-free
    // spec keeps the historical bytes, so every previously generated
    // file parses unchanged.
    let (graph, zipf) = gen_spec();
    let fault = Some(FaultSpec {
        drop_prob: 0.125,
        epochs: 3,
    });
    let text = render_workload_full(&graph, 8, 512, fault, &zipf);
    assert_eq!(
        text,
        "nav-workload v1\ngraph gnp 4096 42\ntrials 8\nbatch 512\nfault 0.125 3\nzipf 100000 1.1 7 1024\n"
    );
    let spec = parse_workload(&text).expect("valid");
    assert_eq!(spec.fault, fault);
    // The fault directive only tags the stream — the queries themselves
    // are byte-for-byte the pinned fault-free expansion.
    assert_eq!(stream_hash(&spec.queries), PINNED_STREAM_HASH);
    // No fault: `render_workload_full` collapses to the historical bytes.
    let plain = render_workload_full(&graph, 8, 512, None, &zipf);
    assert_eq!(plain, render_workload(&graph, 8, 512, &zipf));
    assert_eq!(parse_workload(&plain).expect("valid").fault, None);
}

#[test]
fn parse_roundtrip_is_deterministic_for_small_specs() {
    let graph = GraphSpec {
        family: "path".into(),
        n: 64,
        seed: 3,
    };
    let zipf = ZipfSpec {
        count: 500,
        theta: 1.3,
        seed: 9,
        hot: 16,
    };
    let text = render_workload(&graph, 4, 32, &zipf);
    let a = parse_workload(&text).expect("valid");
    let b = parse_workload(&text).expect("valid");
    assert_eq!(a, b);
    assert_eq!(a.queries, zipf_queries(64, &zipf, 4));
    // Different zipf seeds must not collide (the format is not ignoring
    // the seed field).
    let other = render_workload(&graph, 4, 32, &ZipfSpec { seed: 10, ..zipf });
    let c = parse_workload(&other).expect("valid");
    assert_ne!(a.queries, c.queries);
}
