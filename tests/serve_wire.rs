//! The wire protocol, attacked from both sides: property-fuzzed codecs
//! (round-trips are lossless; arbitrary corruption yields a typed
//! [`WireError`], never a panic) and a real TCP loop — a [`serve_tcp`]
//! front-end over a live server, with logits checked bit-identical to
//! direct [`CompiledNet::infer`], pipelined FIFO responses, typed remote
//! errors, and a malformed frame that does **not** desync the stream.

use std::io::Write;
use std::sync::{Arc, OnceLock};

use apnn_tc::bitpack::{BitTensor4, Encoding, Layout, Tensor4};
use apnn_tc::nn::NetPrecision;
use apnn_tc::serve::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
};
use apnn_tc::serve::{
    serve_tcp, ModelKey, PlanRegistry, Request, RetryClient, ServeConfig, ServeError, Server,
    WireClient, WireError,
};
use proptest::prelude::*;

const BATCH: usize = 3;
const SEED: u64 = 2021;

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *seed >> 33
}

fn image(seed: u64, h: usize, w: usize, c: usize, bits: u32) -> BitTensor4 {
    let mut s = seed;
    let codes = Tensor4::<u32>::from_fn(1, c, h, w, Layout::Nhwc, |_, _, _, _| {
        lcg(&mut s) as u32 % (1 << bits)
    });
    BitTensor4::from_tensor(&codes, bits, Encoding::ZeroOne)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Request round-trips preserve every field and every image code, for
    /// arbitrary shapes, bit widths, tenants, deadlines and priorities.
    #[test]
    fn request_codec_is_lossless(
        seed in any::<u64>(),
        id in any::<u64>(),
        h in 1usize..6,
        w in 1usize..6,
        c in 1usize..5,
        bits in 1u32..=8,
        version in proptest::option::of(1u32..5),
        tenant_seed in any::<u64>(),
        tenant_len in 0usize..13,
        deadline in proptest::option::of(0u64..1_000),
        priority in any::<i32>(),
    ) {
        let tenant: String = (0..tenant_len)
            .map(|i| (b'a' + ((tenant_seed >> (i * 5)) % 26) as u8) as char)
            .collect();
        let mut key = ModelKey::new("AlexNet-Tiny", NetPrecision::Apnn { w: 2, a: 2 });
        if let Some(v) = version {
            key = key.at_version(v);
        }
        let mut req = Request::new(key, image(seed, h, w, c, bits))
            .tenant(tenant.clone())
            .priority(priority);
        if let Some(d) = deadline {
            req = req.deadline(d);
        }
        let payload = encode_request(id, &req);
        let (rid, back) = decode_request(&payload).unwrap();
        prop_assert_eq!(rid, id);
        prop_assert_eq!(back.model_key(), req.model_key());
        // The builder maps empty tenants to the default lane; the codec
        // must agree with whatever the builder stored.
        prop_assert_eq!(back.tenant_label(), req.tenant_label());
        prop_assert_eq!(back.deadline_ticks(), deadline);
        prop_assert_eq!(back.priority_value(), priority);
        let (a, b) = (req.image_ref(), back.image_ref());
        prop_assert_eq!(a.shape(), b.shape());
        prop_assert_eq!(a.bits(), b.bits());
        for hh in 0..h {
            for ww in 0..w {
                for cc in 0..c {
                    prop_assert_eq!(a.get_code(0, hh, ww, cc), b.get_code(0, hh, ww, cc));
                }
            }
        }
    }

    /// Response round-trips are lossless for arbitrary logits.
    #[test]
    fn response_codec_is_lossless(
        id in any::<u64>(),
        logits in proptest::collection::vec(any::<i32>(), 0..40),
    ) {
        let case = Ok(logits);
        let (rid, back) = decode_response(&encode_response(id, &case)).unwrap();
        prop_assert_eq!(rid, id);
        prop_assert_eq!(back, case);
    }

    /// Arbitrary corruption — truncation plus byte flips at any offset —
    /// decodes to a typed error or a (different) valid message, never a
    /// panic. The codecs are total functions over byte strings.
    #[test]
    fn corrupted_payloads_never_panic(
        seed in any::<u64>(),
        cut in any::<u64>(),
        flips in proptest::collection::vec((any::<u64>(), any::<u8>()), 0..8),
    ) {
        let req = Request::new(
            ModelKey::new("AlexNet-Tiny", NetPrecision::w1a2()),
            image(seed, 4, 4, 3, 8),
        )
        .tenant("t")
        .deadline(9);
        let mut payload = encode_request(7, &req);
        let keep = (cut as usize) % (payload.len() + 1);
        payload.truncate(keep);
        for (at, val) in flips {
            if payload.is_empty() {
                break;
            }
            let at = (at as usize) % payload.len();
            payload[at] ^= val;
        }
        // Either outcome is fine; what matters is that both decoders are
        // total — no panic, no unbounded allocation.
        let _ = decode_request(&payload);
        let _ = decode_response(&payload);
    }
}

/// The image range check runs on a whole decoded row: a code at
/// `2^bits` placed last in a middle row — after codes that pass — is the
/// same typed error a per-code check gave, and the largest in-range code
/// at that spot decodes to itself.
#[test]
fn out_of_range_code_last_in_a_middle_row_is_a_typed_error() {
    let (h, w, c) = (5, 4, 3);
    for bits in 1u32..=8 {
        let req = Request::new(
            ModelKey::new("AlexNet-Tiny", NetPrecision::w1a2()),
            image(u64::from(bits), h, w, c, bits),
        );
        let payload = encode_request(3, &req);
        // Codes are the payload's last `h·w·c` u32s; row 2's last is here.
        let at = payload.len() - h * w * c * 4 + (3 * w * c - 1) * 4;
        let with_code = |code: u32| {
            let mut p = payload.clone();
            p[at..at + 4].copy_from_slice(&code.to_le_bytes());
            decode_request(&p)
        };
        assert_eq!(
            with_code(1 << bits).err(),
            Some(WireError::BadValue {
                context: "image code out of range for bit width"
            }),
            "bits={bits}"
        );
        let top = (1 << bits) - 1;
        let (_, back) = with_code(top).unwrap();
        assert_eq!(
            back.image_ref().get_code(0, 2, w - 1, c - 1),
            top,
            "bits={bits}"
        );
    }
}

struct Fixture {
    server: Arc<Server>,
    key: ModelKey,
    input: BitTensor4,
    reference: Vec<Vec<i32>>,
}

/// One shared server + TCP fixture per process (plans compile once).
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let server = Arc::new(Server::new(
            PlanRegistry::zoo(BATCH, SEED),
            ServeConfig {
                queue_capacity: 32,
                max_batch_delay: 1,
                workers: 2,
                intra_batch_threads: 1,
            },
        ));
        let key = ModelKey::new("AlexNet-Tiny", NetPrecision::w1a2());
        let plan = server.registry().get(&key).unwrap();
        let mut seed = 0xFEED;
        let codes = Tensor4::<u32>::from_fn(6, 3, 32, 32, Layout::Nhwc, |_, _, _, _| {
            (lcg(&mut seed) as u32) % 256
        });
        let input = BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne);
        let reference = (0..6)
            .map(|i| plan.infer(&input.batch_slice(i, 1)))
            .collect();
        Fixture {
            server,
            key,
            input,
            reference,
        }
    })
}

#[test]
fn tcp_round_trip_matches_direct_inference() {
    let fix = fixture();
    let handle = serve_tcp(Arc::clone(&fix.server), "127.0.0.1:0").unwrap();
    let mut client = WireClient::connect(handle.addr()).unwrap();
    // One-shot inference, bit-identical through the socket.
    for i in 0..3 {
        let req = Request::new(fix.key.clone(), fix.input.batch_slice(i, 1)).tenant("net");
        assert_eq!(client.infer(&req).unwrap(), fix.reference[i]);
    }
    // Pipelined: three in flight, FIFO responses with matching ids.
    let ids: Vec<u64> = (0..3)
        .map(|i| {
            client
                .send(&Request::new(fix.key.clone(), fix.input.batch_slice(i, 1)))
                .unwrap()
        })
        .collect();
    for (i, want_id) in ids.into_iter().enumerate() {
        let (id, result) = client.recv().unwrap();
        assert_eq!(id, want_id, "responses arrive in submission order");
        assert_eq!(result.unwrap(), fix.reference[i]);
    }
    handle.shutdown();
}

#[test]
fn remote_errors_arrive_typed() {
    let fix = fixture();
    let handle = serve_tcp(Arc::clone(&fix.server), "127.0.0.1:0").unwrap();
    let mut client = WireClient::connect(handle.addr()).unwrap();
    // Unknown model: the server's typed refusal crosses the wire intact.
    let missing = Request::new(
        ModelKey::new("NoSuchNet", NetPrecision::w1a2()),
        fix.input.batch_slice(0, 1),
    );
    assert_eq!(
        client.infer(&missing),
        Err(ServeError::UnknownModel("NoSuchNet".into()))
    );
    // Unknown pinned version, structurally preserved.
    let bad_version = Request::new(fix.key.clone().at_version(9), fix.input.batch_slice(0, 1));
    assert_eq!(
        client.infer(&bad_version),
        Err(ServeError::UnknownVersion {
            model: fix.key.model.clone(),
            version: 9,
        })
    );
    // A zero-tick deadline expires in queue; Expired crosses the wire with
    // its diagnosis intact.
    let doomed = Request::new(fix.key.clone(), fix.input.batch_slice(0, 1))
        .tenant("net")
        .deadline(0);
    match client.infer(&doomed) {
        Ok(_) => {} // a worker may legitimately win the race at deadline 0
        Err(ServeError::Expired { tenant, .. }) => assert_eq!(tenant, "net"),
        Err(e) => panic!("unexpected error: {e}"),
    }
    handle.shutdown();
}

#[test]
fn malformed_frame_gets_typed_error_without_desync() {
    let fix = fixture();
    let handle = serve_tcp(Arc::clone(&fix.server), "127.0.0.1:0").unwrap();
    // Hand-crafted frames over a raw socket, decoded with the public codec.
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let good = Request::new(fix.key.clone(), fix.input.batch_slice(2, 1));
    // Frame 1: well-framed garbage (impossible spec kind) with a readable
    // id. Frame 2: a valid request, written back-to-back before any
    // response is read.
    let mut bad = encode_request(41, &good);
    let spec_kind_at = 1 + 8 + 2 + fix.key.model.len();
    bad[spec_kind_at] = 250;
    write_frame(&mut stream, &bad).unwrap();
    write_frame(&mut stream, &encode_request(42, &good)).unwrap();
    // Response 1: the typed wire error, correlated to id 41.
    let payload = read_frame(&mut stream).unwrap().expect("error response");
    let (id, result) = decode_response(&payload).unwrap();
    assert_eq!(id, 41);
    assert!(
        matches!(result, Err(ServeError::Wire(WireError::Remote(_)))),
        "{result:?}"
    );
    // Response 2: the stream stayed in sync — the valid request serves.
    let payload = read_frame(&mut stream).unwrap().expect("valid response");
    let (id, result) = decode_response(&payload).unwrap();
    assert_eq!(id, 42);
    assert_eq!(result.unwrap(), fix.reference[2]);
    handle.shutdown();
}

#[test]
fn two_frames_in_one_write_both_get_replies_in_order() {
    let fix = fixture();
    let handle = serve_tcp(Arc::clone(&fix.server), "127.0.0.1:0").unwrap();
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    // Both requests leave in one write, so the server's buffered reader
    // typically gets them from one `read(2)` and must carry the second
    // frame over in its buffer.
    let cases = [(7u64, 1), (8, 3)];
    let mut both = Vec::new();
    for (id, i) in cases {
        let req = Request::new(fix.key.clone(), fix.input.batch_slice(i, 1));
        write_frame(&mut both, &encode_request(id, &req)).unwrap();
    }
    stream.write_all(&both).unwrap();
    for (id, i) in cases {
        let payload = read_frame(&mut stream).unwrap().expect("a reply");
        let (rid, result) = decode_response(&payload).unwrap();
        assert_eq!(rid, id);
        assert_eq!(result.unwrap(), fix.reference[i]);
    }
    handle.shutdown();
}

#[test]
fn reconnect_resubmission_is_deduplicated_not_reexecuted() {
    let fix = fixture();
    let handle = serve_tcp(Arc::clone(&fix.server), "127.0.0.1:0").unwrap();
    let retries_before = fix.server.stats().client_retries;
    let req = Request::new(fix.key.clone(), fix.input.batch_slice(4, 1)).tenant("idem");
    // Connection 1: announce an identity, run request id 1 to completion.
    let mut c1 = WireClient::connect(handle.addr()).unwrap();
    c1.hello(0xA11CE).unwrap();
    c1.send_as(1, &req).unwrap();
    let (id, result) = c1.recv().unwrap();
    assert_eq!(id, 1);
    assert_eq!(result.unwrap(), fix.reference[4]);
    drop(c1); // the connection dies — exactly what a retrying client sees
              // Connection 2: same identity, same id. The server must re-deliver
              // the original request's result, never execute a second time.
    let mut c2 = WireClient::connect(handle.addr()).unwrap();
    c2.hello(0xA11CE).unwrap();
    c2.send_as(1, &req).unwrap();
    let (id, result) = c2.recv().unwrap();
    assert_eq!(id, 1);
    assert_eq!(result.unwrap(), fix.reference[4]);
    fix.server.wait_idle();
    let stats = fix.server.stats();
    let t = stats.tenant("idem").unwrap();
    assert_eq!(
        t.submitted, 1,
        "the resubmission never re-entered the queue"
    );
    assert_eq!(t.completed, 1, "executed exactly once");
    assert!(
        stats.client_retries > retries_before,
        "the dedup hit is surfaced in ServeStats::client_retries"
    );
    handle.shutdown();
}

#[test]
fn retry_client_serves_bit_identical_logits_without_spurious_retries() {
    let fix = fixture();
    let handle = serve_tcp(Arc::clone(&fix.server), "127.0.0.1:0").unwrap();
    let mut client = RetryClient::connect(handle.addr()).unwrap();
    for i in 0..3 {
        let req = Request::new(fix.key.clone(), fix.input.batch_slice(i, 1)).tenant("retry");
        assert_eq!(client.infer(&req).unwrap(), fix.reference[i]);
    }
    assert_eq!(client.retries(), 0, "healthy path never retries");
    // A server-side refusal is an *answer*, not a transport failure: it
    // must surface immediately, not burn the retry budget.
    let missing = Request::new(
        ModelKey::new("NoSuchNet", NetPrecision::w1a2()),
        fix.input.batch_slice(0, 1),
    );
    assert_eq!(
        client.infer(&missing),
        Err(ServeError::UnknownModel("NoSuchNet".into()))
    );
    assert_eq!(client.retries(), 0);
    handle.shutdown();
}

#[test]
fn oversized_frame_closes_the_connection() {
    let fix = fixture();
    let handle = serve_tcp(Arc::clone(&fix.server), "127.0.0.1:0").unwrap();
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    // Announce a payload over the cap: the server must drop the
    // connection (the frame boundary is untrustworthy) rather than
    // allocate.
    stream
        .write_all(&(64 * 1024 * 1024u32).to_le_bytes())
        .unwrap();
    stream.flush().unwrap();
    let err = read_frame(&mut stream);
    assert!(
        matches!(err, Ok(None) | Err(WireError::Io(_))),
        "server closed the stream: {err:?}"
    );
    handle.shutdown();
}
