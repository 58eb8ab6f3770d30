//! Property tests of the wire codec: every frame kind roundtrips
//! bit-exactly through encode → (arbitrarily fragmented) decode, and the
//! decoder rejects truncated, oversized, and garbage input with an error
//! — never a panic — mirroring the overflow-safe section checks the
//! `SubgraphSnapshot` codec gets in `spade-core`. A snapshot section is
//! decoded and validated at the frame boundary, so a damaged one either
//! fails the frame or decodes to exactly the bytes that arrived.

use proptest::prelude::*;
use spade_core::{CandidateRegion, SubgraphSnapshot};
use spade_graph::VertexId;
use spade_net::{
    write_batch, write_replicate, BootstrapChunk, DetectionReply, FrameDecoder, MetricsReply,
    StatsReply, WireError, WireFrame,
};

fn v(i: u32) -> VertexId {
    VertexId(i)
}

/// One arbitrary frame of any kind, request or reply.
fn arb_frame() -> impl Strategy<Value = WireFrame> {
    let batch =
        collection::vec((0u32..100_000, 0u32..100_000, 0.0f64..1e6), 0..64).prop_map(|edges| {
            WireFrame::Batch { edges: edges.into_iter().map(|(s, d, w)| (v(s), v(d), w)).collect() }
        });
    let batch_budget =
        (0u32..u32::MAX, collection::vec((0u32..100_000, 0u32..100_000, 0.0f64..1e6), 0..64))
            .prop_map(|(budget_us, edges)| WireFrame::BatchBudget {
                budget_us,
                edges: edges.into_iter().map(|(s, d, w)| (v(s), v(d), w)).collect(),
            });
    let detection = (0u64..1_000_000, 0.0f64..1e9, 0u64..u64::MAX)
        .prop_map(|(size, density, updates)| (size, density, updates));
    let detection = (detection, collection::vec(0u32..u32::MAX, 0..128)).prop_map(
        |((size, density, updates_applied), members)| {
            WireFrame::Detection(DetectionReply {
                size,
                density,
                updates_applied,
                members: members.into_iter().map(v).collect(),
            })
        },
    );
    let stats = (
        (0u64..100, 0u64..1 << 40, 0u64..1 << 20, 0u64..1 << 20),
        (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 30, 0u64..1 << 30),
        (0.0f64..1e7, collection::vec(0u64..1 << 20, 0..32)),
    )
        .prop_map(
            |(
                (shards, updates_applied, queue_depth, connections),
                (frames, edges_accepted, busy_replies, malformed_frames),
                (uptime_secs, shard_queue_depths),
            )| {
                WireFrame::StatsReply(StatsReply {
                    shards,
                    updates_applied,
                    queue_depth,
                    connections,
                    frames,
                    edges_accepted,
                    busy_replies,
                    malformed_frames,
                    uptime_secs,
                    shard_queue_depths,
                })
            },
        );
    let metrics_reply =
        (0u32..16, collection::vec(32u8..127, 0..400)).prop_map(|(version, raw)| {
            WireFrame::MetricsReply(MetricsReply {
                version,
                exposition: String::from_utf8(raw).expect("printable ASCII"),
            })
        });
    // Protocol-v3 shard-server operations and their replies.
    let replicate = (
        0u32..64,
        0u64..u64::MAX,
        collection::vec((0u32..100_000, 0u32..100_000, 0.0f64..1e6), 0..64),
    )
        .prop_map(|(owner, seq, edges)| WireFrame::Replicate {
            owner,
            seq,
            edges: edges.into_iter().map(|(s, d, w)| (v(s), v(d), w)).collect(),
        });
    let region_reply = (
        (0usize..1 << 30, 0.0f64..1e9, 0u64..u64::MAX, 0u64..u64::MAX),
        collection::vec(0u32..u32::MAX, 0..128),
        arb_snapshot(),
    )
        .prop_map(|((size, density, updates_applied, epoch), members, snapshot)| {
            WireFrame::RegionReply(CandidateRegion {
                size,
                density,
                updates_applied,
                epoch,
                members: members.into_iter().map(v).collect(),
                snapshot,
            })
        });
    let bootstrap_chunk = (
        0u32..64,
        0u64..u64::MAX,
        (0u8..2).prop_map(|b| b == 1),
        collection::vec((0u32..100_000, 0u32..100_000, 0.0f64..1e6), 0..64),
    )
        .prop_map(|(owner, through, done, edges)| {
            WireFrame::BootstrapChunk(BootstrapChunk {
                owner,
                through,
                done,
                edges: edges.into_iter().map(|(s, d, w)| (v(s), v(d), w)).collect(),
            })
        });
    prop_oneof![
        8 => batch,
        3 => batch_budget,
        1 => (0u32..16).prop_map(|hops| WireFrame::Region { hops }),
        1 => replicate,
        1 => (0u32..64, 0u64..u64::MAX)
            .prop_map(|(owner, after)| WireFrame::Bootstrap { owner, after }),
        1 => region_reply,
        1 => bootstrap_chunk,
        1 => Just(WireFrame::Flush),
        1 => Just(WireFrame::Detect),
        1 => Just(WireFrame::Stats),
        1 => Just(WireFrame::Shutdown),
        1 => Just(WireFrame::Metrics),
        2 => (0u64..u64::MAX).prop_map(|accepted| WireFrame::Ack { accepted }),
        2 => detection,
        1 => stats,
        1 => metrics_reply,
        1 => collection::vec(32u8..127, 0..100).prop_map(|raw| WireFrame::Error {
            message: String::from_utf8(raw).expect("printable ASCII"),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Encode → decode is the identity for every frame kind, regardless
    /// of how the byte stream fragments.
    #[test]
    fn arbitrary_frames_roundtrip_under_arbitrary_fragmentation(
        frames in collection::vec(arb_frame(), 1..8),
        chunk in 1usize..97,
    ) {
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&f.encode());
        }
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        for piece in bytes.chunks(chunk) {
            decoder.extend(piece);
            while let Some(frame) = decoder.next_frame().expect("valid stream") {
                got.push(frame);
            }
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(decoder.buffered(), 0);
    }

    /// The borrowed-slice writers the client and router ship edge runs
    /// through emit exactly the bytes of the owning frame's `encode` —
    /// one codec, whichever way a producer holds its edges.
    #[test]
    fn borrowed_writers_match_the_owning_frames_byte_for_byte(
        raw in collection::vec((0u32..u32::MAX, 0u32..u32::MAX, 0.0f64..1e9), 0..64),
        budget_us in 0u32..u32::MAX,
        owner in 0u32..64,
        seq in 0u64..u64::MAX,
    ) {
        let edges: Vec<_> = raw.into_iter().map(|(s, d, w)| (v(s), v(d), w)).collect();
        let (mut plain, mut budgeted, mut replicated) = (Vec::new(), Vec::new(), Vec::new());
        write_batch(&mut plain, None, &edges).expect("Vec write");
        write_batch(&mut budgeted, Some(budget_us), &edges).expect("Vec write");
        write_replicate(&mut replicated, owner, seq, &edges).expect("Vec write");
        prop_assert_eq!(plain, WireFrame::Batch { edges: edges.clone() }.encode());
        prop_assert_eq!(
            budgeted,
            WireFrame::BatchBudget { budget_us, edges: edges.clone() }.encode()
        );
        prop_assert_eq!(replicated, WireFrame::Replicate { owner, seq, edges }.encode());
    }

    /// The reactor's per-connection buffer handoff: bytes arrive in
    /// arbitrary read-sized chunks across readiness events, and each
    /// simulated wakeup drains at most a fixed frame budget before
    /// yielding (leftovers stay buffered in the decoder until the next
    /// wakeup, exactly like a budget-exhausted event-loop cycle). The
    /// decoded stream must be identical to one contiguous read — no
    /// frame lost, reordered, or fabricated at any chunk/budget split.
    #[test]
    fn interleaved_wakeup_drains_decode_identically_to_a_contiguous_read(
        frames in collection::vec(arb_frame(), 1..10),
        chunks in collection::vec(1usize..129, 1..48),
        budget in 1usize..5,
    ) {
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&f.encode());
        }

        // Reference: one contiguous delivery, fully drained.
        let mut contiguous = FrameDecoder::new();
        contiguous.extend(&bytes);
        let mut want = Vec::new();
        while let Some(frame) = contiguous.next_frame().expect("valid stream") {
            want.push(frame);
        }

        // Simulated reactor: chunk sizes cycle through `chunks`; each
        // wakeup extends with one chunk, then drains at most `budget`
        // frames before the next readiness event.
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        let mut offset = 0usize;
        let mut wakeup = 0usize;
        while offset < bytes.len() {
            let take = chunks[wakeup % chunks.len()].min(bytes.len() - offset);
            decoder.extend(&bytes[offset..offset + take]);
            offset += take;
            wakeup += 1;
            for _ in 0..budget {
                match decoder.next_frame().expect("valid stream") {
                    Some(frame) => got.push(frame),
                    None => break,
                }
            }
        }
        // Post-EOF wakeups with no new bytes, still budget-capped —
        // the half-closed-connection drain path.
        loop {
            let before = got.len();
            for _ in 0..budget {
                match decoder.next_frame().expect("valid stream") {
                    Some(frame) => got.push(frame),
                    None => break,
                }
            }
            if got.len() == before {
                break;
            }
        }

        prop_assert_eq!(got, want);
        prop_assert_eq!(decoder.buffered(), 0);
    }

    /// Any truncation of a valid frame either waits for more bytes or
    /// fails cleanly on a later feed — it never yields a wrong frame and
    /// never panics.
    #[test]
    fn truncated_frames_never_decode_to_a_frame(
        frame in arb_frame(),
        cut_back in 1usize..64,
    ) {
        let bytes = frame.encode();
        let cut = bytes.len().saturating_sub(cut_back).max(1);
        let mut decoder = FrameDecoder::new();
        decoder.extend(&bytes[..cut]);
        // With part of the frame missing the decoder must hold, not
        // fabricate.
        prop_assert!(matches!(decoder.next_frame(), Ok(None)));
        // Feeding the remainder completes the original frame exactly.
        decoder.extend(&bytes[cut..]);
        prop_assert_eq!(decoder.next_frame().expect("completed"), Some(frame));
    }

    /// Arbitrary garbage bytes never panic the decoder: every outcome is
    /// a decoded frame, a clean "need more bytes", or an error.
    #[test]
    fn garbage_bytes_never_panic_the_decoder(
        garbage in collection::vec(0u8..=255u8, 0..400),
    ) {
        let mut decoder = FrameDecoder::new();
        decoder.extend(&garbage);
        loop {
            match decoder.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(
                    WireError::Oversized(_)
                    | WireError::BadOpcode(_)
                    | WireError::Corrupt(_)
                    | WireError::Unexpected(_)
                    | WireError::Io(_),
                ) => break,
            }
        }
    }

    /// A length prefix beyond the frame bound is rejected before the
    /// body arrives (no multi-megabyte allocation on hostile input).
    #[test]
    fn oversized_prefixes_are_rejected_immediately(
        len in (spade_net::MAX_FRAME_BYTES as u32 + 1)..u32::MAX,
    ) {
        let mut decoder = FrameDecoder::new();
        decoder.extend(&len.to_le_bytes());
        prop_assert!(matches!(decoder.next_frame(), Err(WireError::Oversized(_))));
    }

    /// The repair handoff end to end: an arbitrary [`SubgraphSnapshot`]
    /// crosses the wire inside a `RegionReply` frame under arbitrary
    /// fragmentation and arrives **bit-identical** — the decoded value
    /// equals the original, weights compared bit for bit by re-encoding.
    /// This is the invariant that makes the over-the-wire repair pass
    /// exact: no weight is perturbed, no edge dropped, no vertex
    /// reordered by transport.
    #[test]
    fn snapshot_handoff_roundtrips_bit_identically(
        snapshot in arb_snapshot(),
        chunk in 1usize..97,
    ) {
        let frame = region_frame(snapshot.clone());
        let bytes = frame.encode();
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        for piece in bytes.chunks(chunk) {
            decoder.extend(piece);
            while let Some(f) = decoder.next_frame().expect("valid stream") {
                got.push(f);
            }
        }
        prop_assert_eq!(got.len(), 1);
        let region = match got.pop().expect("one frame") {
            WireFrame::RegionReply(region) => region,
            other => panic!("decoded to a different frame kind: {other:?}"),
        };
        prop_assert_eq!(&region.snapshot, &snapshot, "snapshot perturbed in transit");
        prop_assert_eq!(region.snapshot.encode(), snapshot.encode(), "weights differ in bits");
        prop_assert_eq!(region.updates_applied, 3);
    }

    /// A snapshot section damaged in transit — one flipped byte, cut
    /// short, or followed by extra bytes, its length word and the frame's
    /// kept consistent — inside a `RegionReply` frame: the decoder either
    /// fails the frame with an error or yields a snapshot whose
    /// re-encoding is byte-identical to the section that arrived. It never panics and never hands over a different value.
    #[test]
    fn damaged_snapshot_sections_fail_the_frame_or_decode_exactly(
        snapshot in arb_snapshot(),
        damage in arb_damage(),
    ) {
        let frame = region_frame(snapshot);
        let bytes = frame.encode();
        let len = section_of(&frame).expect("a snapshot frame").encoded_len();
        // The section is the payload's tail, behind its u32 length word.
        let (head, section) = bytes.split_at(bytes.len() - len);
        let mut section = section.to_vec();
        match damage {
            Damage::Flip { at, mask } => section[at % len] ^= mask,
            Damage::Truncate { by } => section.truncate(len - by.min(len)),
            Damage::Trail { extra } => section.extend_from_slice(&extra),
        }
        let mut payload = head[4..head.len() - 4].to_vec();
        payload.extend_from_slice(&(section.len() as u32).to_le_bytes());
        payload.extend_from_slice(&section);
        let mut damaged = (payload.len() as u32).to_le_bytes().to_vec();
        damaged.extend_from_slice(&payload);

        let mut decoder = FrameDecoder::new();
        decoder.extend(&damaged);
        match decoder.next_frame() {
            Err(_) => {}
            Ok(Some(got)) => {
                prop_assert_eq!(got.kind(), frame.kind());
                let decoded = section_of(&got).expect("same kind").encode();
                prop_assert_eq!(decoded, section, "a damaged section decoded to another value");
            }
            Ok(None) => prop_assert!(false, "a whole frame neither decoded nor failed"),
        }
    }

    /// Corrupting any single byte of the snapshot payload (or truncating
    /// it) never panics downstream: the wire layer either rejects the
    /// frame or delivers bytes whose snapshot decode fails cleanly — a
    /// flipped byte can reach the application only as a *valid* snapshot
    /// whose floats differ, never as UB or a panic.
    #[test]
    fn corrupted_snapshot_payloads_fail_cleanly(
        snapshot in arb_snapshot(),
        flip in 0usize..10_000,
        value in 0u8..=255u8,
    ) {
        let mut encoded = snapshot.encode();
        let idx = flip % encoded.len();
        encoded[idx] = value;
        // The snapshot codec itself must reject structural corruption
        // without panicking; the wire layer relies on it at the boundary.
        let _ = SubgraphSnapshot::decode(&encoded);
        let truncated = &encoded[..encoded.len() - 1];
        prop_assert!(SubgraphSnapshot::decode(truncated).is_err());
    }
}

/// An arbitrary structurally-valid snapshot: strictly increasing vertex
/// ids (the codec's canonical order) and edges whose endpoints are all
/// members.
fn arb_snapshot() -> impl Strategy<Value = SubgraphSnapshot> {
    (
        collection::vec((0u32..1_000_000, 0.0f64..1e6), 1..40),
        collection::vec((0usize..1 << 16, 0usize..1 << 16, 0.0f64..1e6), 0..120),
    )
        .prop_map(|(verts, raw)| {
            let mut vertices: Vec<(VertexId, f64)> =
                verts.into_iter().map(|(id, w)| (VertexId(id), w)).collect();
            vertices.sort_unstable_by_key(|&(id, _)| id);
            vertices.dedup_by_key(|&mut (id, _)| id);
            let n = vertices.len();
            let edges = raw
                .into_iter()
                .map(|(a, b, w)| (a % n, b % n, w))
                .filter(|&(a, b, _)| a != b)
                .map(|(a, b, w)| (vertices[a].0, vertices[b].0, w))
                .collect();
            SubgraphSnapshot { vertices, edges }
        })
}

/// How a snapshot section is damaged in transit.
#[derive(Clone, Debug)]
enum Damage {
    /// XOR one byte (position taken modulo the section length).
    Flip { at: usize, mask: u8 },
    /// Drop the last `by` bytes (at most all of them).
    Truncate { by: usize },
    /// Append bytes after the snapshot's last edge.
    Trail { extra: Vec<u8> },
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        2 => (0usize..10_000, 1u8..=255u8).prop_map(|(at, mask)| Damage::Flip { at, mask }),
        1 => (1usize..64).prop_map(|by| Damage::Truncate { by }),
        1 => collection::vec(0u8..=255u8, 1..16).prop_map(|extra| Damage::Trail { extra }),
    ]
}

/// A `RegionReply` carrying `snapshot`.
fn region_frame(snapshot: SubgraphSnapshot) -> WireFrame {
    WireFrame::RegionReply(CandidateRegion {
        size: 1,
        density: 2.5,
        members: vec![snapshot.vertices[0].0].into(),
        updates_applied: 3,
        epoch: 4,
        snapshot,
    })
}

/// The snapshot a snapshot-bearing frame carries.
fn section_of(frame: &WireFrame) -> Option<&SubgraphSnapshot> {
    match frame {
        WireFrame::RegionReply(region) => Some(&region.snapshot),
        _ => None,
    }
}
