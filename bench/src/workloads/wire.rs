//! The three wire workloads: a client speaking the frame protocol over
//! its own `TcpStream`s to a `serve_tcp` front-end on loopback.
//!
//! * `wire_closed_tiny` — closed loop, one connection with eight requests
//!   in flight, a plan that executes in microseconds, backpressure.
//! * `wire_open_steady` — open loop (paced sender + receiver thread on one
//!   connection) at `STEADY_RATE_HZ` over the zoo mix, backpressure.
//! * `wire_open_overload` — the same driver at `OVERLOAD_RATE_HZ`, two
//!   tenants under shedding + WFQ, with queue deadlines.
//!
//! Replies come back in submission order per connection, so the client
//! matches them to requests by position and checks the echoed id.

use std::collections::VecDeque;
use std::hint::black_box;
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use apnn_bitpack::BitTensor4;
use apnn_nn::layer::LayerSpec as L;
use apnn_nn::{NetPrecision, Network};
use apnn_serve::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
};
use apnn_serve::{
    serve_tcp, ModelKey, PlanRegistry, QueuePolicy, Request, ServeConfig, ServeError, ServeStats,
    Server, TcpServeHandle, WireError, DEFAULT_TENANT,
};

use super::exec_zoo::oracle;
use super::{time_us, Cfg, Outcome, PrepCounters, Window};
use crate::awake::KeepAwake;
use crate::env::{nproc, parallelism};
use crate::gen::{self, fnv64, Arrival, Rng};
use crate::json::Value;
use crate::spec::{
    metric_slug, BATCH, IMAGES, MIX, OVERLOAD_DEADLINE_TICKS, OVERLOAD_RATE_HZ, PLAN_SEED, SLO_MS,
    STEADY_RATE_HZ, TENANTS,
};
use crate::stats::percentile;
use crate::trace::Trace;

const TINY_MODEL: &str = "Tiny-Conv";
/// Per-tenant queue bound of the overload workload's shedding admission.
const SHED_BOUND: usize = 16;
/// The closed loop records spans for one request in this many.
const CLOSED_SPAN_STRIDE: u64 = 64;

/// Every wire workload drives one connection.
#[derive(Clone, Copy)]
enum Load {
    /// Keep `depth` requests in flight.
    Closed { depth: usize },
    /// A paced sender and a receiver thread.
    Open { rate_hz: f64 },
}

#[derive(Clone, Copy)]
pub struct Spec {
    name: &'static str,
    load: Load,
    /// Shedding + WFQ + deadlines over two tenants, instead of
    /// backpressure under the default tenant.
    overload: bool,
    /// Run the windows under [`KeepAwake`]: the load leaves the cores
    /// mostly idle.
    keep_awake: bool,
}

pub fn spec_for(name: &str) -> Spec {
    match name {
        "wire_closed_tiny" => Spec {
            name: "wire_closed_tiny",
            load: Load::Closed { depth: 8 },
            overload: false,
            keep_awake: false,
        },
        "wire_open_steady" => Spec {
            name: "wire_open_steady",
            load: Load::Open {
                rate_hz: STEADY_RATE_HZ,
            },
            overload: false,
            keep_awake: true,
        },
        "wire_open_overload" => Spec {
            name: "wire_open_overload",
            load: Load::Open {
                rate_hz: OVERLOAD_RATE_HZ,
            },
            overload: true,
            keep_awake: false,
        },
        other => unreachable!("`{other}` is not a wire workload"),
    }
}

/// One conv + one linear on a 3x8x8 input. The 4x4 stride-4 filter makes
/// it four windows, so it executes in a few microseconds and the serve
/// tier is ~all of a request's cost.
fn tiny_net() -> Network {
    Network::new(TINY_MODEL, 3, 8, 8)
        .push(L::conv("conv1", 8, 4, 4, 0))
        .push(L::Relu)
        .push(L::QuantizeActs)
        .push(L::Flatten)
        .push(L::linear("fc2", 10))
}

struct Class {
    /// Tail of its per-layer metric names.
    slug: &'static str,
    key: ModelKey,
    /// `requests[tenant][image]`, built once; sending only encodes them.
    requests: Vec<Vec<Request>>,
}

pub struct State {
    // Field order is drop order: the client socket, then the listener,
    // then the server (whose drop joins the workers).
    conn: TcpStream,
    _listener: TcpServeHandle,
    server: Arc<Server>,
    classes: Vec<Class>,
    class_share: Vec<u64>,
    tenants: Vec<&'static str>,
    tenant_share: Vec<u64>,
    images: Vec<BitTensor4>,
    pack_us: f64,
}

pub fn setup(spec: Spec, seed: u64) -> State {
    let tiny = matches!(spec.load, Load::Closed { .. });
    let codes = gen::image_codes(&mut Rng::new(seed, 1), IMAGES, 3, if tiny { 8 } else { 32 });
    let t = Instant::now();
    let images: Vec<BitTensor4> = codes.iter().map(gen::pack).collect();
    let pack_us = t.elapsed().as_secs_f64() * 1e6 / IMAGES as f64;

    let registry = PlanRegistry::zoo(BATCH, PLAN_SEED);
    registry.register(TINY_MODEL, tiny_net);
    let (tenants, tenant_share, policy): (Vec<&str>, Vec<u64>, QueuePolicy) = if spec.overload {
        (
            TENANTS.iter().map(|t| t.0).collect(),
            TENANTS.iter().map(|t| t.2).collect(),
            TENANTS
                .iter()
                .fold(QueuePolicy::shedding(SHED_BOUND), |p, t| p.weight(t.0, t.1)),
        )
    } else {
        (vec![DEFAULT_TENANT], vec![100], QueuePolicy::backpressure())
    };
    let config = ServeConfig {
        // One worker for the microsecond plan: two of them race for jobs
        // on the two cores the client and the socket threads also need,
        // which tripled the run-to-run spread (11 % against 4 %) and
        // lowered the rate. `wire_open_overload` keeps the workers' own
        // contention measured.
        workers: if tiny { 1 } else { parallelism() },
        intra_batch_threads: 1,
        ..ServeConfig::default()
    };
    let server = Arc::new(Server::with_policy(registry, config, policy));

    let models: Vec<(&str, &'static str, u64)> = if tiny {
        vec![(TINY_MODEL, "tiny", 100)]
    } else {
        MIX.iter()
            .map(|&(m, share)| (m, metric_slug(m), share))
            .collect()
    };
    let classes: Vec<Class> = models
        .iter()
        .map(|&(model, slug, _)| {
            let key = ModelKey::new(model, NetPrecision::w1a2());
            server
                .registry()
                .get(&key)
                .unwrap_or_else(|e| panic!("{model} does not compile: {e}"));
            let requests = tenants
                .iter()
                .map(|&tenant| {
                    images
                        .iter()
                        .map(|img| {
                            let r = Request::new(key.clone(), img.clone()).tenant(tenant);
                            if spec.overload {
                                r.deadline(OVERLOAD_DEADLINE_TICKS)
                            } else {
                                r
                            }
                        })
                        .collect()
                })
                .collect();
            Class {
                slug,
                key,
                requests,
            }
        })
        .collect();

    let handle = serve_tcp(Arc::clone(&server), "127.0.0.1:0").expect("bind a loopback port");
    let mut conn = TcpStream::connect(handle.addr()).expect("connect to the listener");
    conn.set_nodelay(true).expect("TCP_NODELAY");

    // Warm every plan's workspace pool: a pipelined burst per class keeps
    // both workers busy on it at once.
    for class in &classes {
        let burst = SHED_BOUND.min(2 * BATCH);
        for i in 0..burst {
            let req = &class.requests[0][i % IMAGES];
            write_frame(&mut conn, &encode_request(i as u64, req)).expect("warm-up send");
        }
        for _ in 0..burst {
            recv(&mut conn)
                .and_then(|(_, logits)| logits.map_err(|e| WireError::Remote(e.to_string())))
                .expect("warm-up reply");
        }
    }

    State {
        conn,
        _listener: handle,
        server,
        class_share: models.iter().map(|m| m.2).collect(),
        classes,
        tenants,
        tenant_share,
        images,
        pack_us,
    }
}

type Reply = (u64, Result<Vec<i32>, ServeError>);

fn recv(stream: &mut TcpStream) -> Result<Reply, WireError> {
    let payload = read_frame(stream)?.ok_or(WireError::Closed)?;
    decode_response(&payload)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The echoed id and every logit match the oracle.
    Ok,
    /// Shed or expired: a by-design refusal, not a failure.
    Refused,
    /// Wrong id, wrong logits, or any other error.
    Failed,
}

/// What the sender knows about one request.
struct Sent {
    id: u64,
    class: usize,
    tenant: usize,
    image: usize,
    /// When the request was due (open loop) or its send began (closed).
    due: Instant,
    /// Send began / frame encoded / frame written.
    stamps: [Instant; 3],
}

/// What one client thread saw over one window. Replies fold in as they
/// arrive, so the client holds one number per request, not a record.
#[derive(Default)]
struct Part {
    attempted: u64,
    failed: u64,
    /// Correct replies within the limit, per tenant.
    good: Vec<u64>,
    /// Latency of each correct reply, and (open loop only: the closed
    /// loop has one class) its model class.
    lat_ms: Vec<f32>,
    lat_class: Vec<u8>,
    /// How late each send began, ms (open loop only).
    lag_ms: Vec<f64>,
    trace: Trace,
}

impl Part {
    fn new(tenants: usize) -> Part {
        Part {
            good: vec![0; tenants],
            ..Part::default()
        }
    }

    fn absorb(&mut self, other: Part) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (g, o) in self.good.iter_mut().zip(&other.good) {
            *g += o;
        }
        self.lat_ms.extend(other.lat_ms);
        self.lat_class.extend(other.lat_class);
        self.lag_ms.extend(other.lag_ms);
        self.trace.absorb(other.trace);
    }
}

/// How a window judges and records replies.
#[derive(Clone, Copy)]
struct Rules<'a> {
    cfg: &'a Cfg,
    /// Record spans for every `n`th request of this window (0: none). The
    /// closed loop answers tens of thousands of requests a second, so it
    /// is sampled; the open loops record every request.
    span_stride: u64,
    open: bool,
    /// Latency limit a correct reply must meet to count as work.
    limit_ms: f64,
    tenants: usize,
}

struct Client<'a> {
    classes: &'a [Class],
    /// `expected[class][image]`.
    expected: &'a [Vec<Vec<i32>>],
}

impl Client<'_> {
    fn send(&self, stream: &mut TcpStream, id: u64, due: Instant, a: &Arrival) -> Option<Sent> {
        let t0 = Instant::now();
        let payload = encode_request(id, &self.classes[a.class].requests[a.tenant][a.image]);
        let t1 = Instant::now();
        write_frame(stream, &payload).ok()?;
        Some(Sent {
            id,
            class: a.class,
            tenant: a.tenant,
            image: a.image,
            due,
            stamps: [t0, t1, Instant::now()],
        })
    }

    /// Read the next reply (replies are FIFO per connection, so it is
    /// `sent`'s), check it against the oracle and fold it into `part`.
    fn finish(&self, stream: &mut TcpStream, sent: Sent, rules: Rules, part: &mut Part) {
        let frame = read_frame(stream);
        let read = Instant::now();
        let reply = frame.and_then(|f| decode_response(&f.ok_or(WireError::Closed)?));
        let verdict = match reply {
            Ok((id, Ok(logits)))
                if id == sent.id && logits == self.expected[sent.class][sent.image] =>
            {
                Verdict::Ok
            }
            Ok((id, Err(ServeError::Shed { .. } | ServeError::Expired { .. })))
                if id == sent.id =>
            {
                Verdict::Refused
            }
            _ => Verdict::Failed,
        };
        let decoded = Instant::now();

        part.attempted += 1;
        match verdict {
            Verdict::Failed => part.failed += 1,
            Verdict::Refused => {}
            Verdict::Ok => {
                let ms = decoded.duration_since(sent.due).as_secs_f32() * 1e3;
                part.lat_ms.push(ms);
                if rules.open {
                    part.lat_class.push(sent.class as u8);
                }
                if f64::from(ms) <= rules.limit_ms {
                    part.good[sent.tenant] += 1;
                }
            }
        }
        if rules.open {
            part.lag_ms
                .push(sent.stamps[0].duration_since(sent.due).as_secs_f64() * 1e3);
        }
        if rules.span_stride != 0 && sent.id.is_multiple_of(rules.span_stride) {
            let [t0, t1, t2] = sent.stamps.map(|t| rules.cfg.ns(t));
            let (read, decoded) = (rules.cfg.ns(read), rules.cfg.ns(decoded));
            let root = part
                .trace
                .push("client.request", t0, decoded, None, sent.id);
            part.trace
                .push("client.encode", t0, t1, Some(root), sent.id);
            part.trace.push("client.write", t1, t2, Some(root), sent.id);
            part.trace
                .push("client.wait", t2, read, Some(root), sent.id);
            part.trace
                .push("client.decode", read, decoded, Some(root), sent.id);
        }
    }

    /// One closed-loop window: keep `depth` requests in flight until
    /// `until`, then drain.
    fn closed(
        &self,
        stream: &mut TcpStream,
        depth: usize,
        until: Instant,
        rng: &mut Rng,
        next_id: &mut u64,
        rules: Rules,
    ) -> Part {
        let mut in_flight: VecDeque<Sent> = VecDeque::new();
        let mut part = Part::new(rules.tenants);
        let mut broken = false;
        loop {
            while !broken && in_flight.len() < depth && Instant::now() < until {
                let a = Arrival {
                    due_ns: 0,
                    class: 0,
                    tenant: 0,
                    image: rng.below(IMAGES as u64) as usize,
                };
                *next_id += 1;
                match self.send(stream, *next_id, Instant::now(), &a) {
                    Some(sent) => in_flight.push_back(sent),
                    None => {
                        // A request that could not be sent has failed.
                        part.attempted += 1;
                        part.failed += 1;
                        broken = true;
                    }
                }
            }
            match in_flight.pop_front() {
                Some(sent) => self.finish(stream, sent, rules, &mut part),
                None => return part,
            }
        }
    }

    /// One open-loop window: this thread sends each arrival when it is
    /// due, a second thread reads the replies.
    fn open(
        &self,
        stream: &mut TcpStream,
        arrivals: &[Arrival],
        horizon: Duration,
        first_id: u64,
        rules: Rules,
    ) -> Part {
        let mut reader = stream.try_clone().expect("clone the client socket");
        let (tx, rx) = mpsc::channel::<Sent>();
        std::thread::scope(|s| {
            let receiver = s.spawn(move || {
                let mut part = Part::new(rules.tenants);
                for sent in rx {
                    self.finish(&mut reader, sent, rules, &mut part);
                }
                part
            });
            let start = Instant::now();
            let mut unsent = 0;
            for (i, a) in arrivals.iter().enumerate() {
                let due = start + Duration::from_nanos(a.due_ns);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                match self.send(stream, first_id + i as u64, due, a) {
                    Some(sent) => tx.send(sent).expect("receiver outlives the sender"),
                    None => {
                        // The connection broke: everything still due fails.
                        unsent = (arrivals.len() - i) as u64;
                        break;
                    }
                }
            }
            drop(tx);
            // The schedule runs its full length even when its last arrival
            // comes early, so every window offers load for the same time.
            if let Some(rest) = (start + horizon).checked_duration_since(Instant::now()) {
                std::thread::sleep(rest);
            }
            let mut part = receiver.join().expect("receiver thread");
            part.attempted += unsent;
            part.failed += unsent;
            part
        })
    }
}

pub fn run(spec: Spec, cfg: &Cfg) -> Outcome {
    let mut state = setup(spec, cfg.seed);
    let setup_s = cfg.t0.elapsed().as_secs_f64();
    let setup_end = PrepCounters::now();

    let expected: Vec<Vec<Vec<i32>>> = state
        .classes
        .iter()
        .map(|c| {
            let plan = state
                .server
                .registry()
                .get(&c.key)
                .expect("compiled in set-up");
            oracle(&plan, &state.images)
        })
        .collect();
    let client = Client {
        classes: &state.classes,
        expected: &expected,
    };
    let open = matches!(spec.load, Load::Open { .. });

    // Stream 2 draws the open-loop schedules, stream 20 the closed loop's
    // images.
    let mut sched_rng = Rng::new(cfg.seed, 2);
    let mut image_rng = Rng::new(cfg.seed, 20);
    let mut next_id = 0u64;

    // One window of load; returns it folded for the end-to-end numbers
    // and adds its detail to `total`.
    let mut window = |traced: bool, secs: f64, total: &mut Part| -> Window {
        let rules = Rules {
            cfg,
            span_stride: match (traced, open) {
                (false, _) => 0,
                (true, true) => 1,
                (true, false) => CLOSED_SPAN_STRIDE,
            },
            open,
            limit_ms: if open { SLO_MS } else { f64::INFINITY },
            tenants: state.tenants.len(),
        };
        let start = Instant::now();
        let mut part = match spec.load {
            Load::Closed { depth } => client.closed(
                &mut state.conn,
                depth,
                start + Duration::from_secs_f64(secs),
                &mut image_rng,
                &mut next_id,
                rules,
            ),
            Load::Open { rate_hz } => {
                let arrivals = gen::schedule(
                    &mut sched_rng,
                    rate_hz,
                    secs,
                    &state.class_share,
                    &state.tenant_share,
                    IMAGES,
                );
                let first = next_id;
                next_id += arrivals.len() as u64;
                client.open(
                    &mut state.conn,
                    &arrivals,
                    Duration::from_secs_f64(secs),
                    first,
                    rules,
                )
            }
        };
        // Both loops end after `secs` and after the last reply: a late
        // reply stretches the window, nothing shrinks it.
        let mut win = Window::empty(traced);
        win.elapsed_s = start.elapsed().as_secs_f64();
        win.work = part.good.iter().sum::<u64>() as f64;
        win.lat_ms = std::mem::take(&mut part.lat_ms);
        if open && !traced {
            // Kept a second time for the per-class medians; an open loop
            // has few enough requests for that not to show in memory.
            part.lat_ms = win.lat_ms.clone();
        } else {
            part.lat_class.clear();
        }
        total.absorb(part);
        win
    };

    let awake = spec.keep_awake.then(|| KeepAwake::start(nproc()));
    let tenants = state.tenants.len();
    window(false, cfg.warm_up_seconds(), &mut Part::new(tenants));

    let mut total = Part::new(tenants);
    let before = state.server.stats();
    let hot_start = PrepCounters::now();
    let windows: Vec<Window> = cfg
        .windows()
        .into_iter()
        .map(|(traced, secs)| window(traced, secs, &mut total))
        .collect();
    let hot_end = PrepCounters::now();
    let idle_spinners = awake.map_or(0, KeepAwake::stop);
    state.server.wait_idle();
    let after = state.server.stats();

    let mut out = Outcome::from_windows(setup_s, total.attempted, total.failed, &windows);
    let lag_p99 = if open {
        percentile(&total.lag_ms, 0.99)
    } else {
        0.0
    };
    // A generator that ran late measured itself, not the server.
    let valid = lag_p99 <= SLO_MS / 4.0;
    out.info.push(("valid", Value::Bool(valid)));
    out.info
        .push(("idle_spinners", Value::Num(idle_spinners as f64)));
    if !valid {
        eprintln!(
            "apnn-benchmark: {}: the sender ran {lag_p99:.1} ms late at p99 (limit {} ms); \
             this run is invalid, not slow",
            spec.name,
            SLO_MS / 4.0
        );
    }
    out.info.push((
        "logits_fnv64",
        Value::str(format!(
            "{:016x}",
            fnv64(expected.iter().flatten().flatten().copied())
        )),
    ));

    if cfg.trace {
        let creates = PrepCounters::report(setup_end, hot_start, hot_end, &mut out);
        out.layer("serve.pool.workspace_creates_hot", creates as f64);
        out.layer("bitpack.pack_tensor_us", state.pack_us);
        out.layer("client.sched_lag_p99_ms", lag_p99);
        serve_layers(&before, &after, &mut out);
        if open {
            let good: u64 = total.good.iter().sum();
            out.layer("client.slo_ok_share", good as f64 / total.attempted as f64);
            for (i, class) in state.classes.iter().enumerate() {
                let lat: Vec<f64> = total
                    .lat_ms
                    .iter()
                    .zip(&total.lat_class)
                    .filter(|(_, c)| **c as usize == i)
                    .map(|(ms, _)| f64::from(*ms))
                    .collect();
                out.layer(
                    format!("client.latency_p50_ms.{}", class.slug),
                    percentile(&lat, 0.50),
                );
            }
        }
        if spec.overload {
            out.layer(
                "serve.queue.gold_bronze_goodput_ratio",
                total.good[0] as f64 / total.good[1] as f64,
            );
        }
        if !open {
            probes(cfg, &mut state, &expected, &mut out, &mut total.trace);
        }
    }
    out.trace = total.trace;
    out
}

/// `ServeStats` deltas across the timed windows.
fn serve_layers(before: &ServeStats, after: &ServeStats, out: &mut Outcome) {
    let fill_before = |fill: usize| {
        before
            .batch_fill
            .iter()
            .find(|(f, _)| *f == fill)
            .map_or(0, |(_, c)| *c)
    };
    let (mut reqs, mut batches) = (0u64, 0u64);
    for &(fill, count) in &after.batch_fill {
        let d = count - fill_before(fill);
        reqs += fill as u64 * d;
        batches += d;
    }
    out.layer("serve.queue.mean_fill", reqs as f64 / batches as f64);
    out.layer("serve.queue.batches", batches as f64);
    out.layer("serve.queue.p50_ticks", after.p50_latency_ticks as f64);
    out.layer("serve.queue.p99_ticks", after.p99_latency_ticks as f64);
    out.layer(
        "serve.queue.expired",
        (after.expired - before.expired) as f64,
    );
    for (tenant, _, _) in TENANTS {
        if let Some(a) = after.tenant(tenant) {
            let (sub0, shed0) = before
                .tenant(tenant)
                .map_or((0, 0), |b| (b.submitted, b.shed));
            out.layer(
                format!("serve.queue.shed_share.{tenant}"),
                (a.shed - shed0) as f64 / (a.submitted - sub0) as f64,
            );
        }
    }
    out.layer(
        "serve.pool.checkouts",
        (after.workspace_checkouts - before.workspace_checkouts) as f64,
    );
    out.layer(
        "serve.pool.contended",
        (after.workspace_contended - before.workspace_contended) as f64,
    );
    out.layer("serve.registry.compiles", after.plan_compiles as f64);
    out.layer("serve.registry.hits", after.plan_hits as f64);
    out.layer("serve.worker_restarts", after.worker_restarts as f64);
    out.layer("serve.poisoned", after.poisoned as f64);
    out.layer("serve.failed", after.failed as f64);
}

/// Isolated calls into the serve layer, on the tiny plan's real frames:
/// the four codec functions alone, then one request at a time in-process
/// and over TCP. The gap between the two round trips is the socket and
/// the per-connection threads.
fn probes(
    cfg: &Cfg,
    state: &mut State,
    expected: &[Vec<Vec<i32>>],
    out: &mut Outcome,
    trace: &mut Trace,
) {
    let probe_start = Instant::now();
    let class = &state.classes[0];
    let req = &class.requests[0][0];
    let reply: Result<Vec<i32>, ServeError> = Ok(expected[0][0].clone());
    let request_frame = encode_request(7, req);
    let response_frame = encode_response(7, &reply);
    out.layer("serve.wire.request_bytes", (request_frame.len() + 4) as f64);
    out.layer(
        "serve.wire.response_bytes",
        (response_frame.len() + 4) as f64,
    );
    out.layer(
        "serve.wire.encode_request_us",
        time_us(5, 2000, || {
            drop(black_box(encode_request(7, black_box(req))))
        }),
    );
    out.layer(
        "serve.wire.decode_request_us",
        time_us(5, 2000, || {
            drop(black_box(decode_request(black_box(&request_frame))))
        }),
    );
    out.layer(
        "serve.wire.encode_response_us",
        time_us(5, 2000, || {
            drop(black_box(encode_response(7, black_box(&reply))))
        }),
    );
    out.layer(
        "serve.wire.decode_response_us",
        time_us(5, 2000, || {
            drop(black_box(decode_response(black_box(&response_frame))))
        }),
    );

    let plan = state.server.registry().get(&class.key).expect("compiled");
    let (mut ws, mut logits) = (plan.workspace(), Vec::new());
    out.layer(
        "nn.infer_b1_us.tiny",
        time_us(5, 2000, || {
            plan.infer_into(black_box(&state.images[0]), &mut ws, &mut logits)
        }),
    );

    let server = &state.server;
    out.layer(
        "serve.inproc_rtt_us.tiny",
        time_us(5, 1000, || {
            let ticket = server.submit_request(req.clone()).expect("admitted");
            black_box(ticket.wait().expect("served"));
        }),
    );
    let conn = &mut state.conn;
    out.layer(
        "serve.wire_rtt_us.tiny",
        time_us(5, 1000, || {
            write_frame(conn, &encode_request(7, req)).expect("probe send");
            black_box(recv(conn).expect("probe reply").1.expect("served"));
        }),
    );
    trace.push(
        "probe.serve",
        cfg.ns(probe_start),
        cfg.ns(Instant::now()),
        None,
        0,
    );
}
