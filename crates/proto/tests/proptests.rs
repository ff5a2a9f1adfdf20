//! Property tests for the wire protocol: encode/decode is a bijection on
//! the message set, the decoder never panics on arbitrary bytes, and the
//! fault seams (truncated replies, partial server writes) always map to
//! clean `Unreachable` outcomes — never a panic, never a wrong body.

use proptest::prelude::*;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;
use swala_cache::{CacheKey, EntryMeta, NodeId};
use swala_obs::{HeatEntry, Histogram, MetricSnapshot, MetricValue};
use swala_proto::reader::Script;
use swala_proto::{
    read_frame, write_frame, Dialer, FaultStream, FetchOutcome, FetchPool, FrameRead, Message,
    NodeStats, PatientReader, RetryPolicy, StreamFault,
};

fn key_strategy() -> impl Strategy<Value = CacheKey> {
    "[a-z0-9/?&=._-]{1,64}".prop_map(|s| CacheKey::new(format!("/{s}")))
}

fn meta_strategy() -> impl Strategy<Value = EntryMeta> {
    (
        key_strategy(),
        0u16..16,
        any::<u64>(),
        "[a-z/+-]{1,24}",
        any::<u64>(),
        proptest::option::of(any::<u64>()),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
    )
        .prop_map(
            |(key, owner, size, ct, exec, expires, created, hits, last, ins, credit)| EntryMeta {
                key,
                owner: NodeId(owner),
                size,
                content_type: ct.into(),
                exec_micros: exec,
                expires_unix: expires,
                created_unix: created,
                hits,
                last_access_seq: last,
                insert_seq: ins,
                // f64 from u32 keeps NaN out (NaN breaks PartialEq).
                gds_credit: credit as f64 / 7.0,
            },
        )
}

fn metric_strategy() -> impl Strategy<Value = MetricSnapshot> {
    let value = prop_oneof![
        any::<u64>().prop_map(MetricValue::Counter),
        any::<i64>().prop_map(MetricValue::Gauge),
        proptest::collection::vec(any::<u64>(), 0..40).prop_map(|vs| {
            let h = Histogram::new();
            for v in vs {
                h.record(v);
            }
            MetricValue::Histogram(h.snapshot())
        }),
    ];
    (
        "[a-z][a-z0-9_]{0,24}",
        "[ -~]{0,40}",
        proptest::option::of(("[a-z][a-z0-9_]{0,8}", "[ -~]{0,16}")),
        value,
    )
        .prop_map(|(name, help, label, value)| MetricSnapshot {
            name,
            help,
            label,
            value,
        })
}

fn heat_strategy() -> impl Strategy<Value = HeatEntry> {
    (
        "[a-z0-9/?&=._-]{1,32}",
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(key, count, err, cost_us)| HeatEntry {
            key,
            // Space-saving invariant: error never exceeds count.
            error: if count == 0 { 0 } else { err % count },
            count,
            cost_us,
        })
}

fn node_stats_strategy() -> impl Strategy<Value = NodeStats> {
    (
        0u16..64,
        proptest::collection::vec(metric_strategy(), 0..8),
        proptest::collection::vec(heat_strategy(), 0..16),
    )
        .prop_map(|(node, metrics, hotkeys)| NodeStats {
            node: NodeId(node),
            metrics,
            hotkeys,
        })
}

fn message_strategy() -> impl Strategy<Value = Message> {
    prop_oneof![
        (0u16..64).prop_map(|n| Message::Hello { node: NodeId(n) }),
        meta_strategy().prop_map(|meta| Message::InsertNotice { meta }),
        (0u16..64, key_strategy()).prop_map(|(n, key)| Message::DeleteNotice {
            owner: NodeId(n),
            key
        }),
        (0u16..64).prop_map(|n| Message::NodeDown { node: NodeId(n) }),
        (key_strategy(), proptest::option::of(any::<u64>()))
            .prop_map(|(key, trace)| Message::FetchRequest { key, trace }),
        (
            "[a-z/]{1,16}",
            proptest::collection::vec(any::<u8>(), 0..2048)
        )
            .prop_map(|(content_type, body)| Message::FetchHit { content_type, body }),
        Just(Message::FetchMiss),
        Just(Message::SyncRequest),
        (0u16..64, proptest::collection::vec(meta_strategy(), 0..8)).prop_map(|(n, entries)| {
            Message::SyncReply {
                node: NodeId(n),
                entries,
            }
        }),
        proptest::option::of(any::<u64>()).prop_map(|trace| Message::StatsPull { trace }),
    ]
}

proptest! {
    #[test]
    fn batch_roundtrip(msgs in proptest::collection::vec(message_strategy(), 0..12)) {
        let batch = Message::Batch(msgs);
        let decoded = Message::decode(&batch.encode()).unwrap();
        prop_assert_eq!(decoded, batch);
    }

    #[test]
    fn truncated_batch_rejected_never_panics(
        msgs in proptest::collection::vec(message_strategy(), 1..6),
        cut_frac in 0.0f64..1.0,
    ) {
        let full = Message::Batch(msgs).encode();
        // Cut strictly inside the payload: every truncation must error,
        // none may panic.
        let cut = 1 + ((full.len() - 2) as f64 * cut_frac) as usize;
        prop_assert!(Message::decode(&full[..cut]).is_err());
    }

    #[test]
    fn nested_batch_always_rejected(msgs in proptest::collection::vec(message_strategy(), 0..4)) {
        let nested = Message::Batch(vec![Message::Batch(msgs)]);
        prop_assert!(matches!(
            Message::decode(&nested.encode()),
            Err(swala_proto::ProtoError::NestedBatch)
        ));
    }

    #[test]
    fn message_roundtrip(msg in message_strategy()) {
        let decoded = Message::decode(&msg.encode()).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    /// The notices an insert announces are encoded straight into their
    /// shared frames, byte for byte as the owned messages encode.
    #[test]
    fn notice_frames_equal_the_owned_encoding(meta in meta_strategy(), owner in 0u16..16) {
        prop_assert_eq!(
            &*Message::insert_notice_frame(&meta),
            &Message::InsertNotice { meta: meta.clone() }.encode()[..]
        );
        let owner = NodeId(owner);
        prop_assert_eq!(
            &*Message::delete_notice_frame(owner, &meta.key),
            &Message::DeleteNotice { owner, key: meta.key.clone() }.encode()[..]
        );
    }

    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Message::decode(&bytes);
    }

    /// The stats-federation snapshot frame is a bijection on arbitrary
    /// registries: counters, gauges, sparse histogram buckets, labels
    /// and hot-key entries all round-trip exactly.
    #[test]
    fn stats_snapshot_roundtrip(stats in node_stats_strategy()) {
        let msg = Message::StatsSnapshot(stats);
        let decoded = Message::decode(&msg.encode()).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    /// Every strict truncation of a StatsSnapshot frame errors — never
    /// panics, never yields a half-parsed snapshot (the cluster scraper
    /// degrades to a partial view instead).
    #[test]
    fn truncated_stats_snapshot_rejected_never_panics(
        stats in node_stats_strategy(),
        cut_frac in 0.0f64..1.0,
    ) {
        let full = Message::StatsSnapshot(stats).encode();
        let cut = 1 + ((full.len() - 2) as f64 * cut_frac) as usize;
        prop_assert!(Message::decode(&full[..cut]).is_err());
    }

    #[test]
    fn framed_stream_roundtrip(msgs in proptest::collection::vec(message_strategy(), 0..10)) {
        let mut wire = Vec::new();
        for m in &msgs {
            write_frame(&mut wire, &m.encode()).unwrap();
        }
        let mut r = &wire[..];
        let mut out = Vec::new();
        while let Some(frame) = read_frame(&mut r).unwrap() {
            out.push(Message::decode(&frame).unwrap());
        }
        prop_assert_eq!(out, msgs);
    }

    #[test]
    fn frame_reader_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut r = &bytes[..];
        while let Ok(Some(_)) = read_frame(&mut r) {}
    }

    /// The patient reader against `read_frame` as the oracle: whatever
    /// the split points, wherever reads time out, whether or not a frame
    /// fits the buffer, and even over garbage, the same payloads come out
    /// in the same order and the stream ends the same way — a clean close
    /// or an error at the torn tail.
    #[test]
    fn patient_reader_matches_read_frame_at_every_split(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 0..6),
        garbage in proptest::collection::vec(any::<u8>(), 0..12),
        cuts in proptest::collection::vec(0usize..1300, 0..12),
        timeouts in proptest::collection::vec(0usize..16, 0..6),
        capacity in 4usize..128,
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        wire.extend_from_slice(&garbage);

        let mut oracle = &wire[..];
        let mut expected = Vec::new();
        let expected_end = loop {
            match read_frame(&mut oracle) {
                Ok(Some(frame)) => expected.push(frame),
                Ok(None) => break true,
                Err(_) => break false,
            }
        };

        let mut cuts: Vec<usize> = cuts.into_iter().filter(|&c| c < wire.len()).collect();
        cuts.extend([0, wire.len()]);
        cuts.sort_unstable();
        cuts.dedup();
        let mut steps: Vec<Option<Vec<u8>>> =
            cuts.windows(2).map(|w| Some(wire[w[0]..w[1]].to_vec())).collect();
        for at in timeouts {
            steps.insert(at.min(steps.len()), None);
        }
        let mut reader = PatientReader::with_capacity(capacity, Script::new(steps));
        let mut got = Vec::new();
        let got_end = loop {
            match reader.read_frame(Duration::from_secs(3600), || false) {
                Ok(FrameRead::Frame(frame)) => got.push(frame.into_owned()),
                Ok(FrameRead::Idle) => {}
                Ok(FrameRead::Closed) => break true,
                Err(_) => break false,
            }
        };
        prop_assert_eq!(got, expected);
        prop_assert_eq!(got_end, expected_end);
    }
}

/// Serve one fetch session: read the request frame, write exactly
/// `reply_bytes` to the socket, close.
fn one_shot_raw_server(reply_bytes: Vec<u8>) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        use std::io::Write;
        let (mut s, _) = listener.accept().unwrap();
        let _ = read_frame(&mut s).unwrap();
        let _ = s.write_all(&reply_bytes);
    });
    (addr, handle)
}

/// The complete wire image of a `FetchHit` reply frame.
fn fetch_hit_frame(content_type: &str, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(
        &mut out,
        &Message::FetchHit {
            content_type: content_type.to_string(),
            body: body.to_vec(),
        }
        .encode(),
    )
    .unwrap();
    out
}

// Socket-per-case properties: keep the case count low.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A reply truncated at any byte position by the fault dialer either
    /// arrives whole (`Hit` with the exact body) or maps to
    /// `Unreachable` — never a panic, never a corrupted `Hit`, and never
    /// a spurious `Gone` (truncation must not be mistaken for the §4.2
    /// false-hit protocol answer).
    #[test]
    fn truncated_fetch_reply_is_unreachable_or_exact_hit(
        content_type in "[a-z/+-]{1,16}",
        body in proptest::collection::vec(any::<u8>(), 0..1024),
        cut_frac in 0.0f64..1.2,
    ) {
        let frame = fetch_hit_frame(&content_type, &body);
        let cut = (frame.len() as f64 * cut_frac) as usize;
        let (addr, h) = one_shot_raw_server(frame.clone());
        let dialer: Dialer = Arc::new(move |_peer, a, t| {
            FaultStream::connect(a, t, StreamFault::TruncateReads(cut))
        });
        let (out, attempts) = FetchPool::new(dialer, 1).fetch(
            NodeId(1),
            addr,
            &CacheKey::new("/cgi-bin/p?x=1"),
            Duration::from_secs(2),
            &RetryPolicy::no_retry(),
            None,
        );
        prop_assert_eq!(attempts, 1);
        if cut >= frame.len() {
            prop_assert_eq!(out, FetchOutcome::Hit { content_type, body });
        } else {
            prop_assert!(matches!(out, FetchOutcome::Unreachable(_)), "{:?}", out);
        }
        h.join().unwrap();
    }

    /// A server that writes only a strict prefix of its reply frame (it
    /// crashed mid-write) always yields `Unreachable` on a clean dialer.
    #[test]
    fn partial_server_write_maps_to_unreachable(
        body in proptest::collection::vec(any::<u8>(), 1..1024),
        cut_frac in 0.0f64..1.0,
    ) {
        let frame = fetch_hit_frame("text/html", &body);
        // Strictly inside the frame: the final byte is never delivered.
        let cut = ((frame.len() - 1) as f64 * cut_frac) as usize;
        let (addr, h) = one_shot_raw_server(frame[..cut].to_vec());
        let dialer: Dialer =
            Arc::new(|_peer, a, t| FaultStream::connect(a, t, StreamFault::None));
        let (out, _) = FetchPool::new(dialer, 1).fetch(
            NodeId(1),
            addr,
            &CacheKey::new("/cgi-bin/p?x=2"),
            Duration::from_secs(2),
            &RetryPolicy::no_retry(),
            None,
        );
        prop_assert!(matches!(out, FetchOutcome::Unreachable(_)), "{:?}", out);
        h.join().unwrap();
    }

    /// Directory-sync replies truncated at any byte error out cleanly;
    /// the caller keeps its cold directory instead of panicking or
    /// loading a half-parsed snapshot.
    #[test]
    fn truncated_sync_reply_errors_cleanly(
        entries in proptest::collection::vec(meta_strategy(), 0..6),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut frame = Vec::new();
        write_frame(
            &mut frame,
            &Message::SyncReply { node: NodeId(3), entries }.encode(),
        )
        .unwrap();
        let cut = ((frame.len() - 1) as f64 * cut_frac) as usize;
        let (addr, h) = one_shot_raw_server(frame[..cut].to_vec());
        let dialer: Dialer =
            Arc::new(|_peer, a, t| FaultStream::connect(a, t, StreamFault::None));
        let result = FetchPool::new(dialer, 1).sync(NodeId(3), addr, Duration::from_secs(2));
        prop_assert!(result.is_err());
        h.join().unwrap();
    }
}
