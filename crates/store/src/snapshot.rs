//! The versioned snapshot format and its capture/restore endpoints.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "NAVS"  u16 version  u16 section_count
//! section table: section_count × { u16 id, u16 reserved, u64 offset, u64 len }
//! section bodies (offsets are file-absolute)
//! ```
//!
//! Sections: `GRAPH` (node count + edge list, enough to rebuild the CSR
//! deterministically), `SCHEME` (a tag, plus the explicit contact table
//! for realized schemes — the joint draw itself, never the distribution
//! it came from), `CONFIG` (every answer-determining engine knob; thread
//! count and observability are restore-time parameters because they are
//! answer-invisible by contract), `STATE` (the engine's lifetime query
//! and batch counters, then a `u16` record count and that many records
//! of resident rows with their SLRU tier), and `WIDTH` (the engine's
//! MS-BFS lane width — one byte, defaulting to 64 lanes when absent so
//! pre-width snapshots restore unchanged). Readers skip unknown section
//! ids, so the format can grow sections without a version bump; a
//! version bump means the header itself changed.
//!
//! Each `STATE` record is a `u64` served counter, a reserved `u64` and a
//! `u32` row count, then the rows. Writers emit one record holding every
//! resident row in cache order, with 0 in both `u64` slots. Older
//! writers called the section `SHARDS` and emitted one record per shard
//! label `k` (rows keyed `s` mod `k` in record `s`, a churn epoch in the
//! reserved slot). Readers still accept any record count in `1..=255`,
//! merge every record's rows, in record order, into the one cache, and
//! skip each record's two `u64` slots. Rows that no longer fit are
//! rejected by the cache's normal admission control.

use crate::cursor::Cur;
use crate::StoreError;
use nav_core::ball::BallScheme;
use nav_core::faulty::{FailurePlan, FaultConfig};
use nav_core::realization::Realization;
use nav_core::sampler::SamplerMode;
use nav_core::scheme::AugmentationScheme;
use nav_core::uniform::{NoAugmentation, UniformScheme};
use nav_engine::{AdmissionPolicy, Engine, EngineConfig, EngineState};
use nav_graph::distance::DistRowBuf;
use nav_graph::msbfs::LaneWidth;
use nav_graph::{GraphBuilder, NodeId};
use nav_obs::ObsConfig;
use std::sync::Arc;

/// First bytes of a snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"NAVS";

/// Format version this module writes and reads.
pub const SNAPSHOT_VERSION: u16 = 1;

const SEC_GRAPH: u16 = 1;
const SEC_SCHEME: u16 = 2;
const SEC_CONFIG: u16 = 3;
const SEC_STATE: u16 = 4;
const SEC_WIDTH: u16 = 5;

/// Sentinel in a serialized contact table for "no long-range link".
const NO_CONTACT: u32 = u32::MAX;

/// Row flags in the `STATE` section.
const FLAG_PROTECTED: u8 = 1 << 0;
const FLAG_WIDE: u8 = 1 << 1;

/// The augmentation scheme a snapshot carries. Distributional schemes
/// serialize as a tag (they are pure functions of the graph), while a
/// realized scheme serializes its actual per-node joint draw — restoring
/// from the tag alone would re-roll every link and break bit-identical
/// replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchemeSpec {
    /// No augmentation (`nav_core::uniform::NoAugmentation`).
    None,
    /// The uniform scheme (`nav_core::uniform::UniformScheme`).
    Uniform,
    /// The Theorem-4 ball scheme, rebuilt from the graph
    /// (`nav_core::ball::BallScheme::new`).
    Ball,
    /// A fixed realization: entry `u` is node `u`'s long-range contact.
    Realized(Vec<Option<NodeId>>),
}

impl SchemeSpec {
    /// Captures a serving engine's scheme. Any scheme exposing an
    /// explicit contact table snapshots as [`SchemeSpec::Realized`];
    /// the known distributional schemes snapshot by name; anything else
    /// is refused rather than silently re-rolled at restore.
    pub fn capture(scheme: &dyn AugmentationScheme) -> Result<Self, StoreError> {
        if let Some(table) = scheme.contact_table() {
            return Ok(SchemeSpec::Realized(table));
        }
        match scheme.name().as_str() {
            "none" => Ok(SchemeSpec::None),
            "uniform" => Ok(SchemeSpec::Uniform),
            "ball(thm4)" => Ok(SchemeSpec::Ball),
            other => Err(StoreError::UnsupportedScheme(other.to_string())),
        }
    }

    /// Builds a boxed scheme for serving `g`. Each call produces an
    /// identical scheme, so a restored engine samples exactly as the
    /// captured one did.
    pub fn build(&self, g: &nav_graph::Graph) -> Box<dyn AugmentationScheme + Send> {
        match self {
            SchemeSpec::None => Box::new(NoAugmentation),
            SchemeSpec::Uniform => Box::new(UniformScheme),
            SchemeSpec::Ball => Box::new(BallScheme::new(g)),
            SchemeSpec::Realized(table) => Box::new(Realization::from_contacts(table.clone())),
        }
    }

    fn tag(&self) -> u8 {
        match self {
            SchemeSpec::None => 0,
            SchemeSpec::Uniform => 1,
            SchemeSpec::Ball => 2,
            SchemeSpec::Realized(_) => 3,
        }
    }
}

/// A decoded (or about-to-be-encoded) snapshot of a serving engine: the
/// construction inputs plus the warm state. See the module docs for the
/// byte layout and [`Snapshot::capture`] / [`Snapshot::restore`] /
/// [`Snapshot::encode`] / [`Snapshot::decode`] for the four endpoints.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Number of nodes of the served graph.
    pub num_nodes: usize,
    /// The graph's undirected edge list (each edge once), enough to
    /// rebuild the CSR deterministically.
    pub edges: Vec<(NodeId, NodeId)>,
    /// The augmentation scheme.
    pub scheme: SchemeSpec,
    /// Master RNG seed ([`EngineConfig::seed`]).
    pub seed: u64,
    /// Row-cache byte capacity ([`EngineConfig::cache_bytes`]).
    pub cache_bytes: usize,
    /// Cache replacement policy ([`EngineConfig::admission`]).
    pub admission: AdmissionPolicy,
    /// Per-step sampling backend ([`EngineConfig::sampler`]).
    pub sampler: SamplerMode,
    /// Fault injection config ([`EngineConfig::fault`]) — the churn plan
    /// travels with the snapshot so a restored engine keeps flipping
    /// epochs on the same schedule.
    pub fault: FaultConfig,
    /// MS-BFS lane width ([`EngineConfig::width`]). Travels with the
    /// snapshot because batched-mode answers are reproducible only at
    /// the width that produced them; snapshots written before the
    /// `WIDTH` section existed restore at the 64-lane default.
    pub width: LaneWidth,
    /// The engine's lifetime counters and resident rows
    /// ([`Engine::export_state`]).
    pub state: EngineState,
}

impl Snapshot {
    /// Freezes a serving engine into a snapshot: graph, scheme, the
    /// answer-determining config, lifetime counters, and
    /// resident rows. The engine is not disturbed. Errors only when the
    /// scheme cannot be represented ([`StoreError::UnsupportedScheme`]).
    pub fn capture(engine: &Engine) -> Result<Self, StoreError> {
        let g = engine.graph();
        let cfg = engine.config();
        Ok(Snapshot {
            num_nodes: g.num_nodes(),
            edges: g.edge_list(),
            scheme: SchemeSpec::capture(engine.scheme())?,
            seed: cfg.seed,
            cache_bytes: cfg.cache_bytes,
            admission: cfg.admission,
            sampler: cfg.sampler,
            fault: cfg.fault,
            width: cfg.width,
            state: engine.export_state(),
        })
    }

    /// Rehydrates a serving engine. `threads` and `obs` are restore-time
    /// parameters — both are answer-invisible by the engine's
    /// determinism contract, so a snapshot taken at one thread count
    /// restores at any other without changing a bit. Rows are re-admitted
    /// as they were exported, so a restored cache is warm in whatever
    /// churn epoch the stream resumes in.
    pub fn restore(&self, threads: usize, obs: ObsConfig) -> Result<Engine, StoreError> {
        if let SchemeSpec::Realized(table) = &self.scheme {
            if table.len() != self.num_nodes {
                return Err(StoreError::Malformed("contact table length != node count"));
            }
            if table
                .iter()
                .flatten()
                .any(|&c| (c as usize) >= self.num_nodes)
            {
                return Err(StoreError::Malformed("contact out of node range"));
            }
        }
        let g = GraphBuilder::from_edges(self.num_nodes, self.edges.iter().copied())?;
        let cfg = EngineConfig {
            seed: self.seed,
            threads,
            cache_bytes: self.cache_bytes,
            sampler: self.sampler,
            admission: self.admission,
            fault: self.fault,
            width: self.width,
            obs,
        };
        let scheme = self.scheme.build(&g);
        let mut engine = Engine::new(g, scheme, cfg);
        engine.import_state(self.state.clone());
        Ok(engine)
    }

    /// Serializes to the versioned section-table format.
    pub fn encode(&self) -> Vec<u8> {
        let graph = self.encode_graph();
        let scheme = self.encode_scheme();
        let config = self.encode_config();
        let state = self.encode_state();
        let width = [self.width.words() as u8];
        let sections: [(u16, &[u8]); 5] = [
            (SEC_GRAPH, &graph),
            (SEC_SCHEME, &scheme),
            (SEC_CONFIG, &config),
            (SEC_STATE, &state),
            (SEC_WIDTH, &width),
        ];
        // Header: magic(4) + version(2) + count(2), then 20 bytes per
        // table entry (id + reserved + offset + len).
        let table_len = 8 + 20 * sections.len();
        let total: usize = table_len + sections.iter().map(|(_, b)| b.len()).sum::<usize>();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u16(&mut out, SNAPSHOT_VERSION);
        put_u16(&mut out, sections.len() as u16);
        let mut offset = table_len as u64;
        for (id, body) in &sections {
            put_u16(&mut out, *id);
            put_u16(&mut out, 0); // reserved
            put_u64(&mut out, offset);
            put_u64(&mut out, body.len() as u64);
            offset += body.len() as u64;
        }
        for (_, body) in &sections {
            out.extend_from_slice(body);
        }
        out
    }

    fn encode_graph(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(16 + 8 * self.edges.len());
        put_u64(&mut b, self.num_nodes as u64);
        put_u64(&mut b, self.edges.len() as u64);
        for &(u, v) in &self.edges {
            put_u32(&mut b, u);
            put_u32(&mut b, v);
        }
        b
    }

    fn encode_scheme(&self) -> Vec<u8> {
        let mut b = vec![self.scheme.tag()];
        if let SchemeSpec::Realized(table) = &self.scheme {
            put_u64(&mut b, table.len() as u64);
            for &c in table {
                put_u32(&mut b, c.unwrap_or(NO_CONTACT));
            }
        }
        b
    }

    fn encode_config(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64);
        put_u64(&mut b, self.seed);
        put_u64(&mut b, self.cache_bytes as u64);
        b.push(match self.admission {
            AdmissionPolicy::Lru => 0,
            AdmissionPolicy::Segmented => 1,
        });
        b.push(match self.sampler {
            SamplerMode::Scalar => 0,
            SamplerMode::Batched => 1,
        });
        put_u64(&mut b, self.fault.drop_prob.to_bits());
        match self.fault.plan {
            None => b.push(0),
            Some(plan) => {
                b.push(1);
                put_u64(&mut b, plan.seed());
                put_u32(&mut b, plan.epochs());
                put_u64(&mut b, plan.period());
                put_u64(&mut b, plan.down_frac().to_bits());
            }
        }
        b
    }

    fn encode_state(&self) -> Vec<u8> {
        let rows = &self.state.rows;
        let mut b = Vec::new();
        put_u64(&mut b, self.state.served);
        put_u64(&mut b, self.state.batches);
        put_u16(&mut b, 1); // one record (see the module docs)
        put_u64(&mut b, 0); // record served
        put_u64(&mut b, 0); // reserved
        put_u32(&mut b, rows.len().min(u32::MAX as usize) as u32);
        for (key, row, protected) in rows {
            put_u32(&mut b, *key);
            let mut flags = 0u8;
            if *protected {
                flags |= FLAG_PROTECTED;
            }
            if !row.is_narrow() {
                flags |= FLAG_WIDE;
            }
            b.push(flags);
            put_u32(&mut b, row.len().min(u32::MAX as usize) as u32);
            match row.as_ref() {
                DistRowBuf::Narrow(v) => {
                    for &d in v {
                        b.extend_from_slice(&d.to_le_bytes());
                    }
                }
                DistRowBuf::Wide(v) => {
                    for &d in v {
                        put_u32(&mut b, d);
                    }
                }
            }
        }
        b
    }

    /// Deserializes a snapshot. Total over arbitrary bytes: truncation,
    /// bit flips, forged section offsets/lengths, and forged element
    /// counts all return a [`StoreError`] — counts are validated against
    /// the bytes that actually remain before any allocation, and every
    /// decoded value that could make [`Snapshot::restore`] panic
    /// (drop probabilities, churn-plan parameters, scheme tags) is
    /// range-checked here.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut cur = Cur::new(bytes);
        if cur.take(4, "snapshot magic")? != SNAPSHOT_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = cur.u16("snapshot version")?;
        if version != SNAPSHOT_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let section_count = cur.u16("section count")? as usize;
        let mut graph = None;
        let mut scheme = None;
        let mut config = None;
        let mut state = None;
        let mut width = None;
        for _ in 0..section_count {
            let id = cur.u16("section id")?;
            cur.u16("section reserved")?;
            let offset = cur.u64("section offset")?;
            let len = cur.u64("section length")?;
            let end = offset
                .checked_add(len)
                .ok_or(StoreError::Malformed("section range overflows"))?;
            if end > bytes.len() as u64 {
                return Err(StoreError::Truncated("section body"));
            }
            let body = &bytes[offset as usize..end as usize];
            let slot = match id {
                SEC_GRAPH => &mut graph,
                SEC_SCHEME => &mut scheme,
                SEC_CONFIG => &mut config,
                SEC_STATE => &mut state,
                SEC_WIDTH => &mut width,
                // Unknown sections are future format growth: skip them.
                _ => continue,
            };
            if slot.replace(body).is_some() {
                return Err(StoreError::Malformed("duplicate section"));
            }
        }
        let (num_nodes, edges) =
            decode_graph(graph.ok_or(StoreError::Malformed("missing graph section"))?)?;
        let scheme = decode_scheme(scheme.ok_or(StoreError::Malformed("missing scheme section"))?)?;
        let (seed, cache_bytes, admission, sampler, fault) =
            decode_config(config.ok_or(StoreError::Malformed("missing config section"))?)?;
        let state = decode_state(state.ok_or(StoreError::Malformed("missing state section"))?)?;
        // Absent on snapshots written before the section existed: those
        // engines always ran 64-lane MS-BFS, so the default is exact.
        let width = width.map_or(Ok(LaneWidth::default()), decode_width)?;
        Ok(Snapshot {
            num_nodes,
            edges,
            scheme,
            seed,
            cache_bytes,
            admission,
            sampler,
            fault,
            width,
            state,
        })
    }
}

fn decode_graph(body: &[u8]) -> Result<(usize, Vec<(NodeId, NodeId)>), StoreError> {
    let mut cur = Cur::new(body);
    let n = cur.u64("node count")?;
    if n > u32::MAX as u64 {
        return Err(StoreError::Malformed("node count exceeds NodeId range"));
    }
    let m = cur.u64("edge count")? as usize;
    if cur.remaining() / 8 < m {
        return Err(StoreError::Truncated("edge list"));
    }
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let u = cur.u32("edge endpoint")?;
        let v = cur.u32("edge endpoint")?;
        edges.push((u, v));
    }
    cur.done("trailing bytes in graph section")?;
    Ok((n as usize, edges))
}

fn decode_scheme(body: &[u8]) -> Result<SchemeSpec, StoreError> {
    let mut cur = Cur::new(body);
    let spec = match cur.u8("scheme tag")? {
        0 => SchemeSpec::None,
        1 => SchemeSpec::Uniform,
        2 => SchemeSpec::Ball,
        3 => {
            let len = cur.u64("contact table length")? as usize;
            if cur.remaining() / 4 < len {
                return Err(StoreError::Truncated("contact table"));
            }
            let mut table = Vec::with_capacity(len);
            for _ in 0..len {
                let c = cur.u32("contact")?;
                table.push((c != NO_CONTACT).then_some(c));
            }
            SchemeSpec::Realized(table)
        }
        _ => return Err(StoreError::Malformed("unknown scheme tag")),
    };
    cur.done("trailing bytes in scheme section")?;
    Ok(spec)
}

fn decode_width(body: &[u8]) -> Result<LaneWidth, StoreError> {
    let mut cur = Cur::new(body);
    let width = match cur.u8("lane width")? {
        1 => LaneWidth::W64,
        2 => LaneWidth::W128,
        4 => LaneWidth::W256,
        _ => return Err(StoreError::Malformed("unknown lane width")),
    };
    cur.done("trailing bytes in width section")?;
    Ok(width)
}

type ConfigFields = (u64, usize, AdmissionPolicy, SamplerMode, FaultConfig);

fn decode_config(body: &[u8]) -> Result<ConfigFields, StoreError> {
    let mut cur = Cur::new(body);
    let seed = cur.u64("seed")?;
    let cache_bytes = usize::try_from(cur.u64("cache bytes")?)
        .map_err(|_| StoreError::Malformed("cache bytes exceed usize"))?;
    let admission = match cur.u8("admission policy")? {
        0 => AdmissionPolicy::Lru,
        1 => AdmissionPolicy::Segmented,
        _ => return Err(StoreError::Malformed("unknown admission policy")),
    };
    let sampler = match cur.u8("sampler mode")? {
        0 => SamplerMode::Scalar,
        1 => SamplerMode::Batched,
        _ => return Err(StoreError::Malformed("unknown sampler mode")),
    };
    let drop_prob = cur.f64("drop probability")?;
    // Range-check here so a decoded snapshot can never make the engine's
    // construction-time validation panic (NaN fails the contains check).
    if !(0.0..=1.0).contains(&drop_prob) {
        return Err(StoreError::Malformed("drop probability outside [0, 1]"));
    }
    let plan = match cur.u8("plan presence")? {
        0 => None,
        1 => {
            let plan_seed = cur.u64("plan seed")?;
            let epochs = cur.u32("plan epochs")?;
            let period = cur.u64("plan period")?;
            let down_frac = cur.f64("plan down fraction")?;
            if epochs == 0 || period == 0 || !(0.0..=1.0).contains(&down_frac) {
                return Err(StoreError::Malformed("invalid failure plan"));
            }
            Some(FailurePlan::new(plan_seed, epochs, period, down_frac))
        }
        _ => return Err(StoreError::Malformed("invalid plan presence byte")),
    };
    cur.done("trailing bytes in config section")?;
    Ok((
        seed,
        cache_bytes,
        admission,
        sampler,
        FaultConfig { drop_prob, plan },
    ))
}

fn decode_state(body: &[u8]) -> Result<EngineState, StoreError> {
    let mut cur = Cur::new(body);
    let served = cur.u64("engine served")?;
    let batches = cur.u64("engine batches")?;
    // Older writers emitted one record per shard label (module docs).
    let records = cur.u16("record count")? as usize;
    if !(1..=255).contains(&records) {
        return Err(StoreError::Malformed("shard count outside 1..=255"));
    }
    let mut rows = Vec::new();
    for _ in 0..records {
        // Both ignored (see the module docs).
        cur.u64("record served")?;
        cur.u64("record reserved")?;
        let row_count = cur.u32("row count")? as usize;
        // A row entry is at least 9 header bytes, so a forged count must
        // exceed what the bytes can hold before any allocation happens.
        if cur.remaining() / 9 < row_count {
            return Err(StoreError::Truncated("cache rows"));
        }
        rows.reserve(row_count);
        for _ in 0..row_count {
            let key = cur.u32("row key")?;
            let flags = cur.u8("row flags")?;
            if flags & !(FLAG_PROTECTED | FLAG_WIDE) != 0 {
                return Err(StoreError::Malformed("unknown row flags"));
            }
            let len = cur.u32("row length")? as usize;
            let wide = flags & FLAG_WIDE != 0;
            let width = if wide { 4 } else { 2 };
            if cur.remaining() / width < len {
                return Err(StoreError::Truncated("row values"));
            }
            let row = if wide {
                let mut v = Vec::with_capacity(len);
                for _ in 0..len {
                    v.push(cur.u32("row value")?);
                }
                DistRowBuf::Wide(v)
            } else {
                let mut v = Vec::with_capacity(len);
                for _ in 0..len {
                    let b = cur.take(2, "row value")?;
                    v.push(u16::from_le_bytes([b[0], b[1]]));
                }
                DistRowBuf::Narrow(v)
            };
            rows.push((key, Arc::new(row), flags & FLAG_PROTECTED != 0));
        }
    }
    cur.done("trailing bytes in state section")?;
    Ok(EngineState {
        served,
        batches,
        rows,
    })
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use nav_engine::QueryBatch;
    use nav_graph::Graph;

    fn path(n: usize) -> Graph {
        GraphBuilder::from_edges(n, (0..n as NodeId - 1).map(|u| (u, u + 1))).unwrap()
    }

    fn warm_engine() -> Engine {
        let cfg = EngineConfig {
            seed: 42,
            threads: 1,
            cache_bytes: 1 << 20,
            admission: AdmissionPolicy::Segmented,
            fault: FaultConfig {
                drop_prob: 0.1,
                plan: Some(FailurePlan::new(7, 3, 64, 0.1)),
            },
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(path(48), Box::new(UniformScheme), cfg);
        let pairs: Vec<(NodeId, NodeId)> = (0..10).map(|i| (i, 47 - (i % 4))).collect();
        engine.serve(&QueryBatch::from_pairs(&pairs, 3)).unwrap();
        engine
    }

    /// The byte offset of section `id`'s body and the index of its table
    /// entry.
    fn section(bytes: &[u8], id: u16) -> (usize, usize) {
        let count = u16::from_le_bytes([bytes[6], bytes[7]]) as usize;
        (0..count)
            .map(|i| (i, &bytes[8 + 20 * i..8 + 20 * (i + 1)]))
            .find(|(_, e)| u16::from_le_bytes([e[0], e[1]]) == id)
            .map(|(i, e)| (u64::from_le_bytes(e[4..12].try_into().unwrap()) as usize, i))
            .unwrap()
    }

    /// The answers of `engine` to the batch every replay test resumes
    /// with.
    fn resume(engine: &mut Engine) -> Vec<nav_core::trial::PairStats> {
        let next: Vec<(NodeId, NodeId)> = (0..6).map(|i| (i * 5, 40 + i)).collect();
        engine
            .serve(&QueryBatch::from_pairs(&next, 4))
            .unwrap()
            .answers
    }

    fn identical(a: &[nav_core::trial::PairStats], b: &[nav_core::trial::PairStats]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bits_eq(y))
    }

    fn snapshots_eq(a: &Snapshot, b: &Snapshot) -> bool {
        // Arc rows make derived equality awkward; byte equality of the
        // canonical encoding is the same statement.
        a.encode() == b.encode()
    }

    /// `engine`'s encoded snapshot with its `STATE` table entry pointed
    /// at `body`, appended after the other sections.
    fn with_state_body(engine: &Engine, body: &[u8]) -> Vec<u8> {
        let mut bytes = Snapshot::capture(engine).unwrap().encode();
        let entry = 8 + 20 * section(&bytes, SEC_STATE).1;
        let end = bytes.len() as u64;
        bytes[entry + 4..entry + 12].copy_from_slice(&end.to_le_bytes());
        bytes[entry + 12..entry + 20].copy_from_slice(&(body.len() as u64).to_le_bytes());
        bytes.extend_from_slice(body);
        bytes
    }

    #[test]
    fn encode_decode_roundtrip_is_identity() {
        let engine = warm_engine();
        let snap = Snapshot::capture(&engine).unwrap();
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert!(snapshots_eq(&snap, &back));
        assert_eq!(back.num_nodes, 48);
        assert_eq!(back.state.served, 10);
        assert_eq!(back.state.batches, 1);
        assert_eq!(back.admission, AdmissionPolicy::Segmented);
        // One record, rows in cache order.
        let count = section(&bytes, SEC_STATE).0 + 16;
        assert_eq!(bytes[count..count + 2], 1u16.to_le_bytes());
        let keys = |rows: &[(NodeId, Arc<DistRowBuf>, bool)]| -> Vec<NodeId> {
            rows.iter().map(|r| r.0).collect()
        };
        assert_eq!(back.state.rows.len(), 4);
        assert_eq!(keys(&back.state.rows), keys(&engine.export_state().rows));
    }

    #[test]
    fn restore_continues_the_stream_bit_identically() {
        let mut uninterrupted = warm_engine();
        let snap = Snapshot::capture(&warm_engine()).unwrap();
        let mut restored = snap.restore(2, ObsConfig::default()).unwrap();
        assert_eq!(restored.queries_served(), 10);
        assert_eq!(restored.metrics().batches, 1);
        assert!(identical(
            &resume(&mut uninterrupted),
            &resume(&mut restored)
        ));
        // The restored cache is warm: the repeated hot targets hit.
        assert!(restored.cache_stats().hits > 0);
    }

    #[test]
    fn lane_width_survives_the_snapshot_and_defaults_when_absent() {
        let cfg = EngineConfig {
            seed: 11,
            threads: 1,
            width: LaneWidth::W256,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(path(48), Box::new(UniformScheme), cfg);
        let pairs: Vec<(NodeId, NodeId)> = (0..8).map(|i| (i, 40 + (i % 4))).collect();
        engine.serve(&QueryBatch::from_pairs(&pairs, 2)).unwrap();
        let snap = Snapshot::capture(&engine).unwrap();
        assert_eq!(snap.width, LaneWidth::W256);
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back.width, LaneWidth::W256);
        let restored = back.restore(1, ObsConfig::default()).unwrap();
        assert_eq!(restored.config().width, LaneWidth::W256);

        // A pre-width snapshot (no WIDTH section) restores at 64 lanes:
        // strip the section by rewriting the table without its entry.
        let count = u16::from_le_bytes([bytes[6], bytes[7]]) as usize;
        let mut stripped = bytes[..6].to_vec();
        put_u16(&mut stripped, (count - 1) as u16);
        for i in 0..count {
            let e = &bytes[8 + 20 * i..8 + 20 * (i + 1)];
            let id = u16::from_le_bytes([e[0], e[1]]);
            if id == SEC_WIDTH {
                continue;
            }
            stripped.extend_from_slice(e);
        }
        // Offsets in the kept entries still point into `bytes`' body
        // layout, so append the original bodies at the original offsets
        // by padding the removed table entry's 20 bytes.
        stripped.extend_from_slice(&[0u8; 20][..]);
        stripped.extend_from_slice(&bytes[8 + 20 * count..]);
        let old = Snapshot::decode(&stripped).unwrap();
        assert_eq!(old.width, LaneWidth::W64);

        // A corrupt width byte is refused, not defaulted.
        let mut bad = bytes.clone();
        let widx = bytes.len() - 1; // WIDTH is the last, 1-byte section
        bad[widx] = 3;
        assert!(matches!(
            Snapshot::decode(&bad).unwrap_err(),
            StoreError::Malformed("unknown lane width")
        ));
    }

    #[test]
    fn nonzero_reserved_shard_slot_restores_and_replays_bit_identically() {
        // Older writers stored the shard's churn epoch in the u64 after
        // its lifetime counter (past the 18-byte section header): forge it.
        let bytes = Snapshot::capture(&warm_engine()).unwrap().encode();
        let slot = section(&bytes, SEC_STATE).0 + 18 + 8;
        let mut old = bytes.clone();
        old[slot..slot + 8].copy_from_slice(&2u64.to_le_bytes());

        let snap = Snapshot::decode(&old).unwrap();
        assert_eq!(snap.encode(), bytes, "writers put 0 in the slot");
        let mut restored = snap.restore(1, ObsConfig::default()).unwrap();
        assert!(identical(
            &resume(&mut warm_engine()),
            &resume(&mut restored)
        ));
        assert!(restored.cache_stats().hits > 0, "restored rows serve");
    }

    #[test]
    fn multi_record_shards_section_restores_into_one_engine() {
        // An older k-shard front wrote one record per shard, each with
        // its own served counter and reserved slot. Forge such a 3-record
        // section by hand from the engine's rows, point the table at it,
        // and restore: one engine, one cache.
        let engine = warm_engine();
        let state = engine.export_state();
        let mut body = Vec::new();
        put_u64(&mut body, state.served);
        put_u64(&mut body, state.batches);
        put_u16(&mut body, 3);
        for s in 0..3u32 {
            let rows: Vec<_> = state.rows.iter().filter(|r| r.0 % 3 == s).collect();
            put_u64(&mut body, 7); // a shard-local counter, ignored
            put_u64(&mut body, 2); // an old churn epoch, ignored
            put_u32(&mut body, rows.len() as u32);
            for (key, row, protected) in rows {
                put_u32(&mut body, *key);
                body.push(if *protected { FLAG_PROTECTED } else { 0 });
                put_u32(&mut body, row.len() as u32);
                for v in 0..row.len() {
                    body.extend_from_slice(&(row.get(v) as u16).to_le_bytes());
                }
            }
        }
        let snap = Snapshot::decode(&with_state_body(&engine, &body)).unwrap();
        assert_eq!(snap.state.served, 10);
        assert_eq!(snap.state.rows.len(), state.rows.len());
        let mut restored = snap.restore(1, ObsConfig::default()).unwrap();
        assert_eq!(restored.cache_stats().resident_rows, state.rows.len());
        assert!(identical(
            &resume(&mut warm_engine()),
            &resume(&mut restored)
        ));
        assert!(restored.cache_stats().hits > 0, "merged rows serve");
    }

    #[test]
    fn oversized_shard_counts_are_refused_with_a_typed_error() {
        // A forged count is refused before any record is read or any
        // engine built; the old writers' whole range still decodes.
        let engine = warm_engine();
        let bytes = Snapshot::capture(&engine).unwrap().encode();
        let count = section(&bytes, SEC_STATE).0 + 16;
        for k in [0u16, 256, u16::MAX] {
            let mut bad = bytes.clone();
            bad[count..count + 2].copy_from_slice(&k.to_le_bytes());
            assert!(matches!(
                Snapshot::decode(&bad).unwrap_err(),
                StoreError::Malformed("shard count outside 1..=255")
            ));
        }
        let mut body = Vec::new();
        put_u64(&mut body, 10);
        put_u64(&mut body, 1);
        put_u16(&mut body, 255);
        for _ in 0..255 {
            body.extend_from_slice(&[0u8; 20]); // served, reserved, no rows
        }
        let snap = Snapshot::decode(&with_state_body(&engine, &body)).unwrap();
        assert!(snap.state.rows.is_empty());
    }

    #[test]
    fn realized_scheme_snapshots_its_joint_draw() {
        let g = path(32);
        let table: Vec<Option<NodeId>> = (0..32u32).map(|u| Some((u * 7) % 32)).collect();
        let real = Realization::from_contacts(table.clone());
        let cfg = EngineConfig {
            seed: 5,
            threads: 1,
            ..EngineConfig::default()
        };
        let engine = Engine::new(g, Box::new(real), cfg);
        let snap = Snapshot::capture(&engine).unwrap();
        assert_eq!(snap.scheme, SchemeSpec::Realized(table.clone()));
        let back = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(back.scheme, SchemeSpec::Realized(table));
        let restored = back.restore(1, ObsConfig::default()).unwrap();
        assert_eq!(restored.scheme_name(), "realized");
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let snap = Snapshot::capture(&warm_engine()).unwrap();
        let mut bytes = snap.encode();
        // Append a section body and splice a table entry for an unknown
        // id by re-encoding with one extra table slot: simplest is to
        // rewrite the file: header with count+1, shifted offsets.
        let body_extra = b"future-section-payload";
        let old_count = u16::from_le_bytes([bytes[6], bytes[7]]) as usize;
        let old_table = 8 + 20 * old_count;
        let mut out = bytes[..6].to_vec();
        put_u16(&mut out, (old_count + 1) as u16);
        for i in 0..old_count {
            let e = &bytes[8 + 20 * i..8 + 20 * (i + 1)];
            let id = u16::from_le_bytes([e[0], e[1]]);
            let off = u64::from_le_bytes(e[4..12].try_into().unwrap());
            put_u16(&mut out, id);
            put_u16(&mut out, 0);
            put_u64(&mut out, off + 20); // one extra table entry shifts bodies
            put_u64(&mut out, u64::from_le_bytes(e[12..].try_into().unwrap()));
        }
        put_u16(&mut out, 999); // unknown id
        put_u16(&mut out, 0);
        put_u64(&mut out, (bytes.len() + 20) as u64);
        put_u64(&mut out, body_extra.len() as u64);
        out.extend_from_slice(&bytes[old_table..]);
        out.extend_from_slice(body_extra);
        bytes = out;
        let back = Snapshot::decode(&bytes).unwrap();
        assert!(snapshots_eq(&snap, &back));
    }

    #[test]
    fn header_damage_is_rejected() {
        let bytes = Snapshot::capture(&warm_engine()).unwrap().encode();
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Snapshot::decode(&bad).unwrap_err(),
            StoreError::BadMagic
        ));
        let mut newer = bytes.clone();
        newer[4] = 9;
        assert!(matches!(
            Snapshot::decode(&newer).unwrap_err(),
            StoreError::UnsupportedVersion(_)
        ));
        assert!(Snapshot::decode(&bytes[..7]).is_err());
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        let bytes = Snapshot::capture(&warm_engine()).unwrap().encode();
        for cut in 0..bytes.len() {
            assert!(
                Snapshot::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }
}
