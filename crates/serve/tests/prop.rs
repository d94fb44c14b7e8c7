//! Property tests for the wire protocol: arbitrary frames round-trip
//! exactly, and no mutilation of the byte stream — truncation, padding,
//! oversized length prefixes, or plain byte soup — ever panics the
//! decoder. Total decoding is what lets a poisoned connection die alone
//! instead of taking the server with it.

use livephase_serve::wire::{
    decode_payload, encode, encode_payload, read_frame, DecodeError, ErrorCode, Frame,
    FrameDecoder, FrameError, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use proptest::collection;
use proptest::prelude::*;

/// Protocol strings: printable ASCII, comfortably under the u16 length cap.
fn arb_string() -> impl Strategy<Value = String> {
    collection::vec(32u8..127, 0usize..32)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ascii"))
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::VersionMismatch),
        Just(ErrorCode::Malformed),
        Just(ErrorCode::Busy),
        Just(ErrorCode::IdleTimeout),
        Just(ErrorCode::BadConfig),
        Just(ErrorCode::Protocol),
        Just(ErrorCode::ShuttingDown),
        Just(ErrorCode::SlowConsumer),
    ]
}

fn arb_frame() -> BoxedStrategy<Frame> {
    prop_oneof![
        (0u16..=u16::MAX, 0u64..=u64::MAX, arb_string(), arb_string()).prop_map(
            |(version, client_id, platform, predictor)| Frame::Hello {
                version,
                client_id,
                platform,
                predictor,
            }
        ),
        (0u16..=u16::MAX, 0u32..=u32::MAX, 0u8..=u8::MAX).prop_map(
            |(version, shard, op_points)| Frame::HelloAck {
                version,
                shard,
                op_points,
            }
        ),
        (
            0u32..=u32::MAX,
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            0u64..=u64::MAX
        )
            .prop_map(|(pid, uops, mem_trans, tsc_delta)| Frame::Sample {
                pid,
                uops,
                mem_trans,
                tsc_delta,
            }),
        (0u32..=u32::MAX, 0u8..=u8::MAX, 0u16..=u16::MAX).prop_map(
            |(pid, op_point, confidence)| Frame::Decision {
                pid,
                op_point,
                confidence,
            }
        ),
        (arb_error_code(), arb_string()).prop_map(|(code, message)| Frame::Error { code, message }),
        Just(Frame::Goodbye),
        Just(Frame::MetricsRequest),
        arb_string().prop_map(|text| Frame::Metrics { text }),
    ]
    .boxed()
}

proptest! {
    /// Every frame survives encode → decode unchanged, both as a bare
    /// payload and through the length-prefixed stream reader.
    #[test]
    fn arbitrary_frames_round_trip(frame in arb_frame()) {
        let payload = encode_payload(&frame);
        prop_assert_eq!(decode_payload(&payload).as_ref(), Ok(&frame));
        let mut cursor = std::io::Cursor::new(encode(&frame));
        prop_assert_eq!(read_frame(&mut cursor).unwrap(), frame);
    }

    /// Any strict prefix of a valid payload is rejected — with an error,
    /// never a panic. (Every field of every frame is mandatory, so a
    /// truncated body can never alias a shorter valid frame.)
    #[test]
    fn truncated_payloads_are_rejected(frame in arb_frame(), fraction in 0.0f64..1.0) {
        let payload = encode_payload(&frame);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let cut = ((payload.len() as f64) * fraction) as usize;
        prop_assume!(cut < payload.len());
        prop_assert!(decode_payload(&payload[..cut]).is_err());
    }

    /// Trailing garbage after a complete frame is rejected: the protocol
    /// only grows through new tags and the version field, never through
    /// silently ignored suffix bytes.
    #[test]
    fn padded_payloads_are_rejected(frame in arb_frame(), pad in collection::vec(0u8..=u8::MAX, 1usize..16)) {
        let mut payload = encode_payload(&frame);
        let expect_trailing = DecodeError::TrailingBytes(pad.len());
        payload.extend_from_slice(&pad);
        prop_assert_eq!(decode_payload(&payload), Err(expect_trailing));
    }

    /// A length prefix beyond `MAX_FRAME_BYTES` is refused before any
    /// payload byte is read or allocated.
    #[test]
    fn oversized_length_prefixes_are_rejected(excess in 1u64..=u64::from(u32::MAX) - MAX_FRAME_BYTES as u64) {
        #[allow(clippy::cast_possible_truncation)]
        let len = (MAX_FRAME_BYTES as u64 + excess) as u32;
        let bytes = len.to_le_bytes().to_vec();
        let mut cursor = std::io::Cursor::new(bytes);
        match read_frame(&mut cursor) {
            Err(FrameError::Decode(DecodeError::BadLength(n))) => {
                prop_assert_eq!(n, len as usize);
            }
            other => panic!("expected BadLength, got {other:?}"),
        }
    }

    /// Arbitrary byte soup never panics the payload decoder.
    #[test]
    fn byte_soup_never_panics(bytes in collection::vec(0u8..=u8::MAX, 0usize..256)) {
        let _ = decode_payload(&bytes);
    }

    /// The version constant is what `Hello` round-trips today; a bump
    /// must be deliberate (and handled in the server's handshake).
    #[test]
    fn version_field_is_carried_verbatim(client_id in 0u64..=u64::MAX) {
        let frame = Frame::Hello {
            version: PROTOCOL_VERSION,
            client_id,
            platform: "pentium_m".into(),
            predictor: "gpht:8:128".into(),
        };
        match decode_payload(&encode_payload(&frame)) {
            Ok(Frame::Hello { version, .. }) => prop_assert_eq!(version, PROTOCOL_VERSION),
            other => panic!("expected Hello, got {other:?}"),
        }
    }

    /// The incremental decoder fed one byte at a time yields exactly the
    /// frames of the corpus, in order — resumable decoding is
    /// byte-identical to one-shot decoding however the stream fragments.
    #[test]
    fn incremental_decoder_matches_one_shot_byte_at_a_time(
        corpus in collection::vec(arb_frame(), 1usize..8),
    ) {
        let stream: Vec<u8> = corpus.iter().flat_map(encode).collect();
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for byte in &stream {
            decoder.feed(std::slice::from_ref(byte));
            while let Some(frame) = decoder.next_frame().expect("valid corpus") {
                // Every frame except one delivered whole in the very
                // first byte must have waited on at least one resume.
                prop_assert!(stream.len() == 1 || decoder.last_resumes() >= 1);
                decoded.push(frame);
            }
        }
        prop_assert_eq!(decoded, corpus);
        prop_assert_eq!(decoder.buffered(), 0, "nothing left buffered");
    }

    /// The same corpus chopped into arbitrary chunk sizes decodes to the
    /// same frames as feeding it whole.
    #[test]
    fn incremental_decoder_is_chunking_invariant(
        corpus in collection::vec(arb_frame(), 1usize..8),
        cuts in collection::vec(1usize..64, 0usize..32),
    ) {
        let stream: Vec<u8> = corpus.iter().flat_map(encode).collect();

        // One-shot: the whole stream in a single feed.
        let mut one_shot = FrameDecoder::new();
        one_shot.feed(&stream);
        let mut expected = Vec::new();
        while let Some(frame) = one_shot.next_frame().expect("valid corpus") {
            expected.push(frame);
        }
        prop_assert_eq!(expected.as_slice(), corpus.as_slice());

        // Chunked: cut points from the random cut list, remainder last.
        let mut chunked = FrameDecoder::new();
        let mut decoded = Vec::new();
        let mut rest = stream.as_slice();
        for cut in cuts {
            if rest.is_empty() {
                break;
            }
            let take = cut.min(rest.len());
            chunked.feed(&rest[..take]);
            rest = &rest[take..];
            while let Some(frame) = chunked.next_frame().expect("valid corpus") {
                decoded.push(frame);
            }
        }
        chunked.feed(rest);
        while let Some(frame) = chunked.next_frame().expect("valid corpus") {
            decoded.push(frame);
        }
        prop_assert_eq!(decoded, expected);
        prop_assert_eq!(chunked.buffered(), 0);
    }

    /// Incremental byte soup never panics the decoder: it either waits
    /// for more bytes or reports a typed error, and after the first
    /// error every subsequent call keeps failing (no livelock, no UB on
    /// a poisoned stream).
    #[test]
    fn incremental_byte_soup_never_panics(
        chunks in collection::vec(collection::vec(0u8..=u8::MAX, 0usize..64), 0usize..16),
    ) {
        let mut decoder = FrameDecoder::new();
        let mut errored = false;
        for chunk in &chunks {
            decoder.feed(chunk);
            loop {
                match decoder.next_frame() {
                    Ok(Some(_)) => prop_assert!(!errored, "no frames after an error"),
                    Ok(None) => break,
                    Err(_) => {
                        errored = true;
                        break;
                    }
                }
            }
        }
    }
}
