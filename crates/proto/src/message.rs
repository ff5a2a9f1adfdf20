//! Protocol messages and their binary encoding.

use crate::wire::{
    get_bytes, get_f64, get_string, get_u16, get_u32, get_u64, get_u8, put_bytes, put_string,
    ProtoError,
};
use bytes::{BufMut, BytesMut};
use swala_cache::{CacheKey, EntryMeta, NodeId};
use swala_obs::{HeatEntry, HistogramSnapshot, MetricSnapshot, MetricValue, BUCKETS};

const TAG_HELLO: u8 = 0x01;
const TAG_INSERT: u8 = 0x02;
const TAG_DELETE: u8 = 0x03;
const TAG_FETCH_REQ: u8 = 0x04;
const TAG_FETCH_HIT: u8 = 0x05;
const TAG_FETCH_MISS: u8 = 0x06;
const TAG_SYNC_REQ: u8 = 0x07;
const TAG_SYNC_REPLY: u8 = 0x08;
// 0x09 and 0x0a (a ping nobody sent and its pong) are retired, not
// reused, like 0x0e below.
const TAG_INVALIDATE: u8 = 0x0b;
const TAG_BATCH: u8 = 0x0c;
const TAG_NODE_DOWN: u8 = 0x0d;
// 0x0e is retired, not reused: a frame still carrying it is rejected as
// an unknown tag rather than misread.
const TAG_DIR_LOOKUP: u8 = 0x0f;
const TAG_STATS_PULL: u8 = 0x10;
const TAG_STATS_SNAPSHOT: u8 = 0x11;
const TAG_DIR_ANSWER: u8 = 0x12;

/// Metric-kind bytes inside a [`Message::StatsSnapshot`] payload.
const KIND_COUNTER: u8 = 0;
const KIND_GAUGE: u8 = 1;
const KIND_HISTOGRAM: u8 = 2;

/// One node's observability state, as carried by
/// [`Message::StatsSnapshot`]: the full metrics registry (counters,
/// gauges, raw histogram buckets) plus the hot-key sketch contents.
/// Histogram buckets travel sparse (index, count) so a mostly-empty
/// 304-bucket layout costs a handful of pairs, and they are *raw*
/// per-bucket counts — the receiver re-merges them with
/// [`HistogramSnapshot::merge`], which is exact.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    pub node: NodeId,
    pub metrics: Vec<MetricSnapshot>,
    pub hotkeys: Vec<HeatEntry>,
}

/// Everything Swala nodes say to each other.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// First message on a notice link: identifies the sender.
    Hello { node: NodeId },
    /// "I just cached this" — apply to the sender's table (§4.2:
    /// sent on every insert to each of the key's other homes, applied
    /// asynchronously).
    InsertNotice { meta: EntryMeta },
    /// "I dropped this" (eviction, expiry or explicit invalidation).
    DeleteNotice { owner: NodeId, key: CacheKey },
    /// "Send me the body you advertise for this key." `trace` is the
    /// requester's trace id, so the owner's spans correlate with the
    /// requester's; `None` encodes byte-identically to the pre-telemetry
    /// wire format, and a decoder ignores the absence, so mixed-version
    /// clusters interoperate.
    FetchRequest { key: CacheKey, trace: Option<u64> },
    /// Fetch succeeded.
    FetchHit { content_type: String, body: Vec<u8> },
    /// Fetch found nothing — the requester experienced a false hit.
    FetchMiss,
    /// "Send me your whole local table" (join-time directory sync).
    SyncRequest,
    /// Full local table of `node`.
    SyncReply {
        node: NodeId,
        entries: Vec<EntryMeta>,
    },
    /// "Drop this entry if you own it" — application-driven
    /// invalidation (§4.2's planned stronger consistency, after \[12\]).
    /// The owner removes the entry and broadcasts the deletion.
    Invalidate { key: CacheKey },
    /// "I have quarantined this node" — directory repair broadcast. The
    /// sender declared `node` dead after consecutive fetch failures and
    /// evicted its directory entries; receivers do the same so the whole
    /// cluster stops taking false hits on a corpse. Fire-and-forget like
    /// the other notices: a lost `NodeDown` costs extra false hits, never
    /// correctness.
    NodeDown { node: NodeId },
    /// Several notices coalesced into one frame by a peer link's writer
    /// thread. Sub-messages are length-prefixed; nesting a `Batch` inside
    /// a `Batch` is a protocol violation, as is batching any message that
    /// requires a reply (fetch/sync/lookup/stats).
    Batch(Vec<Message>),
    /// Reply to a [`Message::DirLookup`]: the home's entry for the key
    /// (naming its owner), or `None` when nobody caches it.
    DirAnswer { meta: Option<EntryMeta> },
    /// "You are this key's home node: who caches it?" Answered with a
    /// [`Message::DirAnswer`]. `trace` follows the same optional-trailer
    /// convention as `FetchRequest`. Requires a reply, so it is illegal
    /// inside a `Batch`.
    DirLookup { key: CacheKey, trace: Option<u64> },
    /// "Send me your metrics snapshot" — the stats-federation pull.
    /// Served by the cache daemon from its telemetry handle; answered
    /// with a [`Message::StatsSnapshot`]. Requires a reply, so it is
    /// illegal inside a `Batch`. `trace` follows the same
    /// optional-trailer convention as `FetchRequest`.
    StatsPull { trace: Option<u64> },
    /// Reply to [`Message::StatsPull`]: the node's registry and hot-key
    /// sketch as plain values (see [`NodeStats`]).
    StatsSnapshot(NodeStats),
}

impl Message {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(64);
        match self {
            Message::Hello { node } => {
                buf.put_u8(TAG_HELLO);
                buf.put_u16(node.0);
            }
            Message::InsertNotice { meta } => {
                buf.put_u8(TAG_INSERT);
                encode_meta(&mut buf, meta);
            }
            Message::DeleteNotice { owner, key } => {
                buf.put_u8(TAG_DELETE);
                buf.put_u16(owner.0);
                put_string(&mut buf, key.as_str());
            }
            Message::FetchRequest { key, trace } => {
                buf.put_u8(TAG_FETCH_REQ);
                put_string(&mut buf, key.as_str());
                if let Some(id) = trace {
                    buf.put_u8(1);
                    buf.put_u64(*id);
                }
            }
            Message::FetchHit { content_type, body } => {
                buf.put_u8(TAG_FETCH_HIT);
                put_string(&mut buf, content_type);
                put_bytes(&mut buf, body);
            }
            Message::FetchMiss => buf.put_u8(TAG_FETCH_MISS),
            Message::SyncRequest => buf.put_u8(TAG_SYNC_REQ),
            Message::SyncReply { node, entries } => {
                buf.put_u8(TAG_SYNC_REPLY);
                buf.put_u16(node.0);
                buf.put_u32(entries.len() as u32);
                for e in entries {
                    encode_meta(&mut buf, e);
                }
            }
            Message::Invalidate { key } => {
                buf.put_u8(TAG_INVALIDATE);
                put_string(&mut buf, key.as_str());
            }
            Message::NodeDown { node } => {
                buf.put_u8(TAG_NODE_DOWN);
                buf.put_u16(node.0);
            }
            Message::Batch(msgs) => {
                buf.put_u8(TAG_BATCH);
                // Encoding is total; the *decoder* rejects nesting, so a
                // hand-built nested batch cannot crash a receiver.
                buf.put_u32(msgs.len() as u32);
                for m in msgs {
                    put_bytes(&mut buf, &m.encode());
                }
            }
            Message::DirAnswer { meta } => {
                buf.put_u8(TAG_DIR_ANSWER);
                match meta {
                    Some(m) => {
                        buf.put_u8(1);
                        encode_meta(&mut buf, m);
                    }
                    None => buf.put_u8(0),
                }
            }
            Message::DirLookup { key, trace } => {
                buf.put_u8(TAG_DIR_LOOKUP);
                put_string(&mut buf, key.as_str());
                if let Some(id) = trace {
                    buf.put_u8(1);
                    buf.put_u64(*id);
                }
            }
            Message::StatsPull { trace } => {
                buf.put_u8(TAG_STATS_PULL);
                if let Some(id) = trace {
                    buf.put_u8(1);
                    buf.put_u64(*id);
                }
            }
            Message::StatsSnapshot(stats) => {
                buf.put_u8(TAG_STATS_SNAPSHOT);
                encode_node_stats(&mut buf, stats);
            }
        }
        buf.into()
    }

    /// Decode from a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Message, ProtoError> {
        let mut r = payload;
        let tag = get_u8(&mut r)?;
        let msg = match tag {
            TAG_HELLO => Message::Hello {
                node: NodeId(get_u16(&mut r)?),
            },
            TAG_INSERT => Message::InsertNotice {
                meta: decode_meta(&mut r)?,
            },
            TAG_DELETE => Message::DeleteNotice {
                owner: NodeId(get_u16(&mut r)?),
                key: CacheKey::new(get_string(&mut r)?),
            },
            TAG_FETCH_REQ => {
                let key = CacheKey::new(get_string(&mut r)?);
                // Optional trailer: old senders stop here.
                let trace = if r.is_empty() {
                    None
                } else {
                    match get_u8(&mut r)? {
                        0 => None,
                        _ => Some(get_u64(&mut r)?),
                    }
                };
                Message::FetchRequest { key, trace }
            }
            TAG_FETCH_HIT => Message::FetchHit {
                content_type: get_string(&mut r)?,
                body: get_bytes(&mut r)?,
            },
            TAG_FETCH_MISS => Message::FetchMiss,
            TAG_SYNC_REQ => Message::SyncRequest,
            TAG_SYNC_REPLY => {
                let node = NodeId(get_u16(&mut r)?);
                let n = get_u32(&mut r)? as usize;
                let mut entries = Vec::with_capacity(room_for::<EntryMeta>(n, r));
                for _ in 0..n {
                    entries.push(decode_meta(&mut r)?);
                }
                Message::SyncReply { node, entries }
            }
            TAG_INVALIDATE => Message::Invalidate {
                key: CacheKey::new(get_string(&mut r)?),
            },
            TAG_NODE_DOWN => Message::NodeDown {
                node: NodeId(get_u16(&mut r)?),
            },
            TAG_BATCH => {
                let n = get_u32(&mut r)? as usize;
                let mut msgs = Vec::with_capacity(room_for::<Message>(n, r));
                for _ in 0..n {
                    let sub = get_bytes(&mut r)?;
                    if sub.first() == Some(&TAG_BATCH) {
                        return Err(ProtoError::NestedBatch);
                    }
                    msgs.push(Message::decode(&sub)?);
                }
                Message::Batch(msgs)
            }
            TAG_DIR_ANSWER => Message::DirAnswer {
                meta: match get_u8(&mut r)? {
                    0 => None,
                    _ => Some(decode_meta(&mut r)?),
                },
            },
            TAG_DIR_LOOKUP => {
                let key = CacheKey::new(get_string(&mut r)?);
                let trace = if r.is_empty() {
                    None
                } else {
                    match get_u8(&mut r)? {
                        0 => None,
                        _ => Some(get_u64(&mut r)?),
                    }
                };
                Message::DirLookup { key, trace }
            }
            TAG_STATS_PULL => {
                let trace = if r.is_empty() {
                    None
                } else {
                    match get_u8(&mut r)? {
                        0 => None,
                        _ => Some(get_u64(&mut r)?),
                    }
                };
                Message::StatsPull { trace }
            }
            TAG_STATS_SNAPSHOT => Message::StatsSnapshot(decode_node_stats(&mut r)?),
            t => return Err(ProtoError::UnknownTag(t)),
        };
        Ok(msg)
    }

    /// Encode a `DirLookup` without cloning the key (the pooled
    /// home-node exchange's request side).
    pub fn encode_dir_lookup(key: &CacheKey, trace: Option<u64>) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(32 + key.as_str().len());
        buf.put_u8(TAG_DIR_LOOKUP);
        put_string(&mut buf, key.as_str());
        if let Some(id) = trace {
            buf.put_u8(1);
            buf.put_u64(id);
        }
        buf.into()
    }

    /// Encode a `FetchRequest` without cloning the key.
    pub fn encode_fetch_request(key: &CacheKey, trace: Option<u64>) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(32 + key.as_str().len());
        buf.put_u8(TAG_FETCH_REQ);
        put_string(&mut buf, key.as_str());
        if let Some(id) = trace {
            buf.put_u8(1);
            buf.put_u64(id);
        }
        buf.into()
    }

    /// Encode an `Invalidate` without cloning the key.
    pub fn encode_invalidate(key: &CacheKey) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(16 + key.as_str().len());
        buf.put_u8(TAG_INVALIDATE);
        put_string(&mut buf, key.as_str());
        buf.into()
    }

    /// Encode everything of a `FetchHit` *except* the body bytes.
    ///
    /// `prefix ++ body` is byte-identical to
    /// `Message::FetchHit { content_type, body }.encode()`, so the daemon
    /// can send a cached body with
    /// [`write_frame_split`](crate::wire::write_frame_split) instead of
    /// copying it into a reply buffer; the decoder is unchanged.
    pub fn encode_fetch_hit_prefix(content_type: &str, body_len: usize) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(16 + content_type.len());
        buf.put_u8(TAG_FETCH_HIT);
        put_string(&mut buf, content_type);
        buf.put_u32(body_len as u32);
        buf.into()
    }
}

/// Assemble already-encoded message payloads into one `Batch` frame
/// payload, byte-identical to `Message::Batch(msgs).encode()`. The writer
/// threads use this so a broadcast is encoded exactly once, not once per
/// link per flush.
pub fn encode_batch<T: AsRef<[u8]>>(parts: &[T]) -> Vec<u8> {
    let total: usize = parts.iter().map(|p| p.as_ref().len() + 4).sum();
    let mut buf = BytesMut::with_capacity(5 + total);
    buf.put_u8(TAG_BATCH);
    buf.put_u32(parts.len() as u32);
    for p in parts {
        put_bytes(&mut buf, p.as_ref());
    }
    buf.into()
}

fn encode_node_stats(buf: &mut BytesMut, stats: &NodeStats) {
    buf.put_u16(stats.node.0);
    buf.put_u32(stats.metrics.len() as u32);
    for m in &stats.metrics {
        put_string(buf, &m.name);
        put_string(buf, &m.help);
        match &m.label {
            Some((k, v)) => {
                buf.put_u8(1);
                put_string(buf, k);
                put_string(buf, v);
            }
            None => buf.put_u8(0),
        }
        match &m.value {
            MetricValue::Counter(v) => {
                buf.put_u8(KIND_COUNTER);
                buf.put_u64(*v);
            }
            MetricValue::Gauge(v) => {
                buf.put_u8(KIND_GAUGE);
                buf.put_u64(*v as u64);
            }
            MetricValue::Histogram(s) => {
                buf.put_u8(KIND_HISTOGRAM);
                buf.put_u64(s.count);
                buf.put_u64(s.sum);
                buf.put_u64(s.max);
                let nonzero = s.buckets.iter().filter(|&&c| c > 0).count();
                buf.put_u16(nonzero as u16);
                for (i, &c) in s.buckets.iter().enumerate().filter(|(_, &c)| c > 0) {
                    buf.put_u16(i as u16);
                    buf.put_u64(c);
                }
            }
        }
    }
    buf.put_u32(stats.hotkeys.len() as u32);
    for h in &stats.hotkeys {
        put_string(buf, &h.key);
        buf.put_u64(h.count);
        buf.put_u64(h.error);
        buf.put_u64(h.cost_us);
    }
}

/// Items of `T` to reserve for a declared count of `n` still to decode
/// from `rest`: never more bytes than `rest` holds, so a hostile count
/// reserves nothing the frame does not back.
fn room_for<T>(n: usize, rest: &[u8]) -> usize {
    n.min(rest.len() / std::mem::size_of::<T>())
}

fn decode_node_stats(r: &mut &[u8]) -> Result<NodeStats, ProtoError> {
    let node = NodeId(get_u16(r)?);
    let n_metrics = get_u32(r)? as usize;
    let mut metrics = Vec::with_capacity(room_for::<MetricSnapshot>(n_metrics, r));
    for _ in 0..n_metrics {
        let name = get_string(r)?;
        let help = get_string(r)?;
        let label = match get_u8(r)? {
            0 => None,
            _ => Some((get_string(r)?, get_string(r)?)),
        };
        let value = match get_u8(r)? {
            KIND_COUNTER => MetricValue::Counter(get_u64(r)?),
            KIND_GAUGE => MetricValue::Gauge(get_u64(r)? as i64),
            KIND_HISTOGRAM => {
                let count = get_u64(r)?;
                let sum = get_u64(r)?;
                let max = get_u64(r)?;
                let nonzero = get_u16(r)? as usize;
                let mut buckets = vec![0u64; BUCKETS];
                for _ in 0..nonzero {
                    let idx = get_u16(r)? as usize;
                    if idx >= BUCKETS {
                        return Err(ProtoError::Invalid("histogram bucket index"));
                    }
                    buckets[idx] = get_u64(r)?;
                }
                MetricValue::Histogram(HistogramSnapshot {
                    count,
                    sum,
                    max,
                    buckets,
                })
            }
            _ => return Err(ProtoError::Invalid("metric kind")),
        };
        metrics.push(MetricSnapshot {
            name,
            help,
            label,
            value,
        });
    }
    let n_hot = get_u32(r)? as usize;
    let mut hotkeys = Vec::with_capacity(room_for::<HeatEntry>(n_hot, r));
    for _ in 0..n_hot {
        hotkeys.push(HeatEntry {
            key: get_string(r)?,
            count: get_u64(r)?,
            error: get_u64(r)?,
            cost_us: get_u64(r)?,
        });
    }
    Ok(NodeStats {
        node,
        metrics,
        hotkeys,
    })
}

fn encode_meta(buf: &mut BytesMut, m: &EntryMeta) {
    put_string(buf, m.key.as_str());
    buf.put_u16(m.owner.0);
    buf.put_u64(m.size);
    put_string(buf, &m.content_type);
    buf.put_u64(m.exec_micros);
    match m.expires_unix {
        Some(e) => {
            buf.put_u8(1);
            buf.put_u64(e);
        }
        None => buf.put_u8(0),
    }
    buf.put_u64(m.created_unix);
    buf.put_u64(m.hits);
    buf.put_u64(m.last_access_seq);
    buf.put_u64(m.insert_seq);
    buf.put_u64(m.gds_credit.to_bits());
}

fn decode_meta(r: &mut &[u8]) -> Result<EntryMeta, ProtoError> {
    let key = CacheKey::new(get_string(r)?);
    let owner = NodeId(get_u16(r)?);
    let size = get_u64(r)?;
    let content_type = get_string(r)?;
    let exec_micros = get_u64(r)?;
    let expires_unix = match get_u8(r)? {
        0 => None,
        _ => Some(get_u64(r)?),
    };
    let created_unix = get_u64(r)?;
    let hits = get_u64(r)?;
    let last_access_seq = get_u64(r)?;
    let insert_seq = get_u64(r)?;
    let gds_credit = get_f64(r)?;
    Ok(EntryMeta {
        key,
        owner,
        size,
        content_type,
        exec_micros,
        expires_unix,
        created_unix,
        hits,
        last_access_seq,
        insert_seq,
        gds_credit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_meta() -> EntryMeta {
        let mut m = EntryMeta::new(
            CacheKey::new("/cgi-bin/adl?id=42&ms=1000"),
            NodeId(3),
            2048,
            "text/html",
            1_000_000,
            Some(std::time::Duration::from_secs(300)),
            17,
        );
        m.hits = 5;
        m.gds_credit = 488.28125;
        m
    }

    #[test]
    fn all_variants_roundtrip() {
        let messages = vec![
            Message::Hello { node: NodeId(7) },
            Message::InsertNotice {
                meta: sample_meta(),
            },
            Message::DeleteNotice {
                owner: NodeId(1),
                key: CacheKey::new("/cgi-bin/x?q=1"),
            },
            Message::FetchRequest {
                key: CacheKey::new("/cgi-bin/y"),
                trace: None,
            },
            Message::FetchRequest {
                key: CacheKey::new("/cgi-bin/y"),
                trace: Some(0x0003_dead_beef_0042),
            },
            Message::FetchHit {
                content_type: "text/html".into(),
                body: b"payload".to_vec(),
            },
            Message::FetchMiss,
            Message::SyncRequest,
            Message::SyncReply {
                node: NodeId(2),
                entries: vec![sample_meta(), sample_meta()],
            },
            Message::Invalidate {
                key: CacheKey::new("/cgi-bin/stale?x=1"),
            },
            Message::NodeDown { node: NodeId(9) },
            Message::DirAnswer {
                meta: Some(sample_meta()),
            },
            Message::DirAnswer { meta: None },
            Message::DirLookup {
                key: CacheKey::new("/cgi-bin/z?q=3"),
                trace: None,
            },
            Message::DirLookup {
                key: CacheKey::new("/cgi-bin/z?q=3"),
                trace: Some(0x0003_dead_beef_0042),
            },
        ];
        for msg in messages {
            let decoded = Message::decode(&msg.encode()).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    fn sample_node_stats() -> NodeStats {
        let hist = swala_obs::Histogram::new();
        hist.record(17);
        hist.record(90_000);
        hist.record(12_000_000);
        NodeStats {
            node: NodeId(5),
            metrics: vec![
                MetricSnapshot {
                    name: "swala_requests".into(),
                    help: "Requests served".into(),
                    label: None,
                    value: MetricValue::Counter(12345),
                },
                MetricSnapshot {
                    name: "swala_mem_bytes".into(),
                    help: "Resident body bytes".into(),
                    label: None,
                    value: MetricValue::Gauge(-7),
                },
                MetricSnapshot {
                    name: "swala_us".into(),
                    help: "Latency by outcome".into(),
                    label: Some(("outcome".into(), "local-mem".into())),
                    value: MetricValue::Histogram(hist.snapshot()),
                },
            ],
            hotkeys: vec![
                HeatEntry {
                    key: "/cgi-bin/hot?id=1".into(),
                    count: 400,
                    error: 3,
                    cost_us: 9_000_000,
                },
                HeatEntry {
                    key: "/cgi-bin/warm".into(),
                    count: 12,
                    error: 0,
                    cost_us: 0,
                },
            ],
        }
    }

    #[test]
    fn stats_messages_roundtrip() {
        let messages = vec![
            Message::StatsPull { trace: None },
            Message::StatsPull {
                trace: Some(0x0003_dead_beef_0042),
            },
            Message::StatsSnapshot(sample_node_stats()),
            Message::StatsSnapshot(NodeStats {
                node: NodeId(0),
                metrics: Vec::new(),
                hotkeys: Vec::new(),
            }),
        ];
        for msg in messages {
            let decoded = Message::decode(&msg.encode()).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn truncated_stats_snapshot_rejected() {
        let full = Message::StatsSnapshot(sample_node_stats()).encode();
        for cut in [1, 3, 8, full.len() / 2, full.len() - 1] {
            assert!(Message::decode(&full[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn stats_snapshot_rejects_impossible_fields() {
        // A histogram bucket index past the layout's end must error
        // (Invalid), never index out of bounds.
        let mut frame = Message::StatsSnapshot(NodeStats {
            node: NodeId(1),
            metrics: vec![MetricSnapshot {
                name: "h".into(),
                help: "h".into(),
                label: None,
                value: MetricValue::Histogram(swala_obs::Histogram::new().snapshot()),
            }],
            hotkeys: Vec::new(),
        })
        .encode();
        // The frame ends with the empty histogram's u16 nonzero-bucket
        // count followed by the u32 hotkey count: patch nonzero to 1 and
        // splice in a (index, count) pair whose index is out of range.
        let hotkeys_u32 = frame.split_off(frame.len() - 4);
        let nonzero_at = frame.len() - 2;
        frame[nonzero_at..].copy_from_slice(&1u16.to_be_bytes());
        frame.extend_from_slice(&(BUCKETS as u16).to_be_bytes());
        frame.extend_from_slice(&1u64.to_be_bytes());
        frame.extend_from_slice(&hotkeys_u32);
        assert!(matches!(
            Message::decode(&frame),
            Err(ProtoError::Invalid(_))
        ));
    }

    #[test]
    fn truncated_dir_answer_rejected() {
        let full = Message::DirAnswer {
            meta: Some(sample_meta()),
        }
        .encode();
        for cut in [1, 3, 8, full.len() / 2, full.len() - 1] {
            assert!(Message::decode(&full[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn retired_tags_are_unknown() {
        // 0x09/0x0a were Ping/Pong, 0x0e a directory update.
        for tag in [0x09, 0x0a, 0x0e] {
            assert!(matches!(
                Message::decode(&[tag, 0, 1]),
                Err(ProtoError::UnknownTag(t)) if t == tag
            ));
        }
    }

    #[test]
    fn dir_lookup_borrowed_encoder_matches_owned() {
        let key = CacheKey::new("/cgi-bin/home?me=1");
        for trace in [None, Some(23u64)] {
            assert_eq!(
                Message::encode_dir_lookup(&key, trace),
                Message::DirLookup {
                    key: key.clone(),
                    trace
                }
                .encode()
            );
        }
    }

    #[test]
    fn meta_without_ttl_roundtrips() {
        let mut m = sample_meta();
        m.expires_unix = None;
        let msg = Message::InsertNotice { meta: m.clone() };
        match Message::decode(&msg.encode()).unwrap() {
            Message::InsertNotice { meta } => assert_eq!(meta, m),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            Message::decode(&[0x7f]),
            Err(ProtoError::UnknownTag(0x7f))
        ));
        assert!(Message::decode(&[]).is_err());
    }

    #[test]
    fn truncated_payload_rejected() {
        let full = Message::InsertNotice {
            meta: sample_meta(),
        }
        .encode();
        for cut in [1, 5, full.len() / 2, full.len() - 1] {
            assert!(Message::decode(&full[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn empty_sync_reply() {
        let msg = Message::SyncReply {
            node: NodeId(0),
            entries: vec![],
        };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn batch_roundtrips_and_matches_preencoded_form() {
        let msgs = vec![
            Message::InsertNotice {
                meta: sample_meta(),
            },
            Message::DeleteNotice {
                owner: NodeId(1),
                key: CacheKey::new("/cgi-bin/x?q=1"),
            },
            Message::Hello { node: NodeId(4) },
        ];
        let batch = Message::Batch(msgs.clone());
        assert_eq!(Message::decode(&batch.encode()).unwrap(), batch);
        // The writer-thread fast path produces identical bytes.
        let parts: Vec<Vec<u8>> = msgs.iter().map(Message::encode).collect();
        assert_eq!(super::encode_batch(&parts), batch.encode());
    }

    #[test]
    fn empty_batch_roundtrips() {
        let b = Message::Batch(vec![]);
        assert_eq!(Message::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn nested_batch_rejected() {
        let inner = Message::Batch(vec![Message::NodeDown { node: NodeId(3) }]);
        let nested = super::encode_batch(&[inner.encode()]);
        assert!(matches!(
            Message::decode(&nested),
            Err(ProtoError::NestedBatch)
        ));
    }

    #[test]
    fn truncated_batch_rejected() {
        let full = Message::Batch(vec![
            Message::InsertNotice {
                meta: sample_meta(),
            },
            Message::NodeDown { node: NodeId(3) },
        ])
        .encode();
        for cut in [1, 4, 6, full.len() / 2, full.len() - 1] {
            assert!(Message::decode(&full[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn traceless_fetch_request_matches_pre_telemetry_bytes() {
        // A `trace: None` request must encode exactly as the older
        // protocol did (tag + length-prefixed key, nothing after), so an
        // un-upgraded peer sees no trailing garbage.
        let key = CacheKey::new("/cgi-bin/y?q=7");
        let mut legacy = vec![TAG_FETCH_REQ];
        legacy.extend_from_slice(&(key.as_str().len() as u32).to_be_bytes());
        legacy.extend_from_slice(key.as_str().as_bytes());
        assert_eq!(
            Message::FetchRequest {
                key: key.clone(),
                trace: None
            }
            .encode(),
            legacy
        );
        // And a legacy frame decodes with `trace: None`.
        assert_eq!(
            Message::decode(&legacy).unwrap(),
            Message::FetchRequest { key, trace: None }
        );
    }

    #[test]
    fn traced_fetch_request_roundtrips_id() {
        let key = CacheKey::new("/cgi-bin/t");
        let msg = Message::FetchRequest {
            key,
            trace: Some(u64::MAX),
        };
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn borrowed_encoders_match_owned_encoding() {
        let key = CacheKey::new("/cgi-bin/fetch?me=1");
        for trace in [None, Some(17u64)] {
            assert_eq!(
                Message::encode_fetch_request(&key, trace),
                Message::FetchRequest {
                    key: key.clone(),
                    trace
                }
                .encode()
            );
        }
        assert_eq!(
            Message::encode_invalidate(&key),
            Message::Invalidate { key }.encode()
        );
        // The split fetch-hit prefix concatenated with the body must be
        // byte-identical to the owned encoding (decoder stays unchanged).
        let body = b"cached-result-bytes".to_vec();
        let mut split = Message::encode_fetch_hit_prefix("text/html", body.len());
        split.extend_from_slice(&body);
        assert_eq!(
            split,
            Message::FetchHit {
                content_type: "text/html".into(),
                body,
            }
            .encode()
        );
    }

    #[test]
    fn the_largest_cacheable_result_fits_one_fetch_frame() {
        // The owner sends a cached result as one FetchHit frame, so the
        // cache's size limit must leave room for the reply's prefix,
        // however the limit is split between content type and body.
        let content_type = "application/x-".to_string() + &"long".repeat(4096);
        let body = vec![7u8; swala_cache::MAX_CACHED_RESULT - content_type.len()];
        let prefix = Message::encode_fetch_hit_prefix(&content_type, body.len());
        assert!(prefix.len() + body.len() <= crate::wire::MAX_FRAME);
        let mut frame = Vec::new();
        crate::wire::write_frame_split(&mut frame, &prefix, &body).unwrap();
        assert_eq!(
            Message::decode(&frame[4..]).unwrap(),
            Message::FetchHit { content_type, body }
        );
    }

    #[test]
    fn large_body_fetch_hit() {
        let body = vec![0xabu8; 1 << 20];
        let msg = Message::FetchHit {
            content_type: "application/octet-stream".into(),
            body,
        };
        let decoded = Message::decode(&msg.encode()).unwrap();
        assert_eq!(decoded, msg);
    }
}
