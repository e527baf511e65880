//! The redesigned request/response surface: [`Request`] builders in,
//! cancellable [`Ticket`]s out.
//!
//! A positional `(key, image)` pair has no place to say *who* is asking
//! (tenant), *how long* the answer is worth waiting for (deadline), or
//! *how much* the caller cares (priority) — exactly the dimensions a
//! network-facing serve tier schedules on. [`Request`] is the one
//! submission type: a builder over `(key, image)` carrying tenant,
//! deadline-in-ticks and priority, consumed by
//! [`crate::Server::submit_request`] — the only way in.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use apnn_bitpack::BitTensor4;

use crate::registry::ModelKey;
use crate::ServeError;

/// The default tenant every request without an explicit
/// [`Request::tenant`] is accounted under.
pub const DEFAULT_TENANT: &str = "default";

/// One inference request: which plan, whose traffic, how urgent.
///
/// ```no_run
/// # use apnn_serve::{ModelKey, Request};
/// # use apnn_nn::NetPrecision;
/// # let image: apnn_bitpack::BitTensor4 = unimplemented!();
/// let req = Request::new(ModelKey::new("VGG-Variant-Tiny", NetPrecision::w1a2()), image)
///     .tenant("analytics")
///     .deadline(64) // expire after 64 further submissions
///     .priority(1); // outranks priority-0 work when shedding
/// ```
#[derive(Debug, Clone)]
pub struct Request {
    pub(crate) key: ModelKey,
    pub(crate) image: BitTensor4,
    pub(crate) tenant: String,
    pub(crate) deadline: Option<u64>,
    pub(crate) priority: i32,
}

impl Request {
    /// A request for `key` carrying one packed `image`, under the
    /// [`DEFAULT_TENANT`], with no deadline and priority 0.
    pub fn new(key: ModelKey, image: BitTensor4) -> Self {
        Request {
            key,
            image,
            tenant: DEFAULT_TENANT.to_string(),
            deadline: None,
            priority: 0,
        }
    }

    /// Account this request under `tenant` (fair-queueing lane, per-tenant
    /// stats, per-tenant shed bounds).
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Expire the request once `ticks` further submissions have arrived
    /// without it being dispatched. Expired work is dropped *before* it
    /// occupies a batch slot; its ticket resolves to
    /// [`ServeError::Expired`]. Deadlines are measured on the server's
    /// submission-tick clock, so expiry is deterministic given a traffic
    /// trace — a request in an otherwise idle server never expires (the
    /// liveness backstop dispatches it instead).
    pub fn deadline(mut self, ticks: u64) -> Self {
        self.deadline = Some(ticks);
        self
    }

    /// Shedding rank: when a tenant's bounded queue overflows, the oldest
    /// request with priority ≤ the incoming one is shed first; an incoming
    /// request outranked by everything queued is shed itself. Higher is
    /// more important; the default is 0.
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// The model key this request targets.
    pub fn model_key(&self) -> &ModelKey {
        &self.key
    }

    /// The tenant label this request is accounted under.
    pub fn tenant_label(&self) -> &str {
        &self.tenant
    }

    /// The expiry deadline in ticks, if any.
    pub fn deadline_ticks(&self) -> Option<u64> {
        self.deadline
    }

    /// The shedding priority.
    pub fn priority_value(&self) -> i32 {
        self.priority
    }

    /// The packed request image.
    pub fn image_ref(&self) -> &BitTensor4 {
        &self.image
    }
}

/// How the server admits work when queues are full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Block submitters while the global queue holds
    /// `ServeConfig::queue_capacity` requests (the PR 2 behaviour — no
    /// silent drops, callers absorb the pushback).
    Backpressure,
    /// Bounded **per-tenant** queues of `per_tenant` requests. An arriving
    /// request that finds its tenant's queue full sheds the oldest queued
    /// request whose priority does not exceed its own
    /// (oldest-sheddable-first); if everything queued outranks it, the
    /// arrival itself is shed. Submission never blocks — the overload
    /// answer is a typed [`ServeError::Shed`], not latency.
    Shed {
        /// Per-tenant queue bound.
        per_tenant: usize,
    },
}

/// Queue scheduling policy: admission mode plus per-tenant weights for the
/// weighted-fair-queueing dispatcher. Lives outside [`crate::ServeConfig`]
/// so the PR 2 config struct (and every test constructing it literally)
/// keeps compiling unchanged.
#[derive(Debug, Clone)]
pub struct QueuePolicy {
    /// Admission mode (default: [`Admission::Backpressure`]).
    pub admission: Admission,
    /// `(tenant, weight)` pairs for the WFQ dispatcher; unlisted tenants
    /// weigh 1. A weight-3 tenant is served ~3 requests for every 1 of a
    /// weight-1 tenant when both lanes are backlogged.
    pub weights: Vec<(String, u32)>,
}

impl Default for QueuePolicy {
    fn default() -> Self {
        QueuePolicy {
            admission: Admission::Backpressure,
            weights: Vec::new(),
        }
    }
}

impl QueuePolicy {
    /// The PR 2 behaviour: global bounded queue, blocking backpressure,
    /// every tenant at weight 1.
    pub fn backpressure() -> Self {
        QueuePolicy::default()
    }

    /// Load-shedding admission with `per_tenant` queue bounds.
    pub fn shedding(per_tenant: usize) -> Self {
        QueuePolicy {
            admission: Admission::Shed { per_tenant },
            weights: Vec::new(),
        }
    }

    /// Set `tenant`'s WFQ weight (≥ 1; 0 is clamped to 1).
    pub fn weight(mut self, tenant: impl Into<String>, weight: u32) -> Self {
        self.weights.push((tenant.into(), weight.max(1)));
        self
    }

    pub(crate) fn weight_of(&self, tenant: &str) -> u32 {
        self.weights
            .iter()
            .find(|(t, _)| t == tenant)
            .map(|&(_, w)| w.max(1))
            .unwrap_or(1)
    }
}

/// Completion handle for one submitted request.
///
/// Cloneable; every clone resolves to the same slot. A ticket resolves
/// exactly once, to one of: the request's logits, [`ServeError::Shed`],
/// [`ServeError::Expired`], [`ServeError::Cancelled`], or
/// [`ServeError::ExecutionFailed`].
#[derive(Clone)]
pub struct Ticket {
    inner: Arc<TicketInner>,
}

pub(crate) struct TicketInner {
    slot: Mutex<Option<Result<Vec<i32>, ServeError>>>,
    ready: Condvar,
    /// The server's submission-tick clock, shared so
    /// [`Ticket::wait_deadline`] can observe tick advancement without
    /// holding any server lock.
    clock: Arc<AtomicU64>,
}

impl Ticket {
    pub(crate) fn new(clock: Arc<AtomicU64>) -> (Ticket, Arc<TicketInner>) {
        let inner = Arc::new(TicketInner {
            slot: Mutex::new(None),
            ready: Condvar::new(),
            clock,
        });
        (
            Ticket {
                inner: Arc::clone(&inner),
            },
            inner,
        )
    }

    /// Block until the request resolves (logits or a typed error).
    pub fn wait(&self) -> Result<Vec<i32>, ServeError> {
        let mut slot = self.inner.slot.lock().unwrap_or_else(|e| e.into_inner());
        while slot.is_none() {
            slot = self
                .inner
                .ready
                .wait(slot)
                .unwrap_or_else(|e| e.into_inner());
        }
        slot.as_ref().unwrap().clone()
    }

    /// Block until the request resolves **or** the server's tick clock
    /// advances `ticks` past its value at call time — `None` means the
    /// deadline passed first (the request itself stays queued; pair with
    /// [`Request::deadline`] to also drop the work server-side).
    ///
    /// Like the batcher's liveness backstop, a stalled clock (no further
    /// submissions) is bounded in wall time: the wait gives up after
    /// ~`10ms × (1 + ticks)`, capped at ~2s, so `wait_deadline` never
    /// blocks forever on an idle server.
    pub fn wait_deadline(&self, ticks: u64) -> Option<Result<Vec<i32>, ServeError>> {
        let start = self.inner.clock.load(Ordering::Acquire);
        let budget = Duration::from_millis(10 * (1 + ticks.min(200)));
        let t0 = std::time::Instant::now();
        let mut slot = self.inner.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = slot.as_ref() {
                return Some(result.clone());
            }
            let advanced = self
                .inner
                .clock
                .load(Ordering::Acquire)
                .saturating_sub(start);
            if advanced >= ticks.max(1) || t0.elapsed() >= budget {
                return None;
            }
            let (g, _) = self
                .inner
                .ready
                .wait_timeout(slot, Duration::from_millis(1))
                .unwrap_or_else(|e| e.into_inner());
            slot = g;
        }
    }

    /// Non-blocking, non-consuming peek: `Some` once the result is in.
    /// Repeated calls keep returning the same resolution — `try_get` then
    /// `wait` observe one consistent result.
    pub fn try_get(&self) -> Option<Result<Vec<i32>, ServeError>> {
        self.inner
            .slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Has the ticket resolved (to anything)?
    pub fn is_done(&self) -> bool {
        self.inner
            .slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    /// Cancel the request: resolves the ticket to
    /// [`ServeError::Cancelled`] if it has not already resolved, and marks
    /// the queued work for removal before it occupies a batch slot.
    /// Returns `true` if the cancellation won (the request had not yet
    /// resolved). A request already picked into an executing batch still
    /// runs, but its result is discarded — first resolution wins.
    pub fn cancel(&self) -> bool {
        self.inner.deliver(Err(ServeError::Cancelled))
    }
}

impl TicketInner {
    /// First delivery wins: the panic-recovery and cancellation paths may
    /// offer results to tickets that already resolved. Returns whether
    /// this delivery won.
    pub(crate) fn deliver(&self, result: Result<Vec<i32>, ServeError>) -> bool {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(result);
            self.ready.notify_all();
            true
        } else {
            false
        }
    }

    /// Has anything been delivered? (Cancelled-before-dispatch requests
    /// are swept out of the queue by this flag.)
    pub(crate) fn is_terminal(&self) -> bool {
        self.slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> Arc<AtomicU64> {
        Arc::new(AtomicU64::new(0))
    }

    #[test]
    fn ticket_resolves_once_first_delivery_wins() {
        let (ticket, inner) = Ticket::new(clock());
        assert!(!ticket.is_done());
        assert!(inner.deliver(Ok(vec![1, 2, 3])));
        assert!(!inner.deliver(Err(ServeError::Cancelled)));
        assert_eq!(ticket.wait().unwrap(), vec![1, 2, 3]);
        assert_eq!(ticket.try_get().unwrap().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn cancel_wins_only_before_resolution() {
        let (ticket, _inner) = Ticket::new(clock());
        assert!(ticket.cancel());
        assert!(!ticket.cancel(), "second cancel loses");
        assert!(matches!(ticket.wait(), Err(ServeError::Cancelled)));

        let (ticket, inner) = Ticket::new(clock());
        inner.deliver(Ok(vec![7]));
        assert!(!ticket.cancel(), "cancel after delivery loses");
        assert_eq!(ticket.wait().unwrap(), vec![7]);
    }

    #[test]
    fn wait_deadline_observes_tick_advancement() {
        let c = clock();
        let (ticket, inner) = Ticket::new(Arc::clone(&c));
        // Clock advances past the deadline with no delivery: None.
        c.fetch_add(5, Ordering::Release);
        assert!(ticket.wait_deadline(2).is_none());
        // Delivered: Some, regardless of clock.
        inner.deliver(Ok(vec![9]));
        assert_eq!(ticket.wait_deadline(1).unwrap().unwrap(), vec![9]);
    }

    #[test]
    fn wait_deadline_stalled_clock_hits_wall_backstop() {
        let (ticket, _inner) = Ticket::new(clock());
        let t0 = std::time::Instant::now();
        assert!(ticket.wait_deadline(3).is_none());
        // Backstop is ~10ms × 4; generous upper bound for a loaded machine.
        assert!(t0.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn request_builder_carries_every_field() {
        use apnn_bitpack::{BitTensor4, Encoding};
        use apnn_nn::NetPrecision;
        let img = BitTensor4::zeros(1, 2, 2, 3, 8, Encoding::ZeroOne);
        let req = Request::new(ModelKey::new("M", NetPrecision::w1a2()), img)
            .tenant("acme")
            .deadline(16)
            .priority(-2);
        assert_eq!(req.tenant_label(), "acme");
        assert_eq!(req.deadline_ticks(), Some(16));
        assert_eq!(req.priority_value(), -2);
        assert_eq!(req.model_key().model, "M");
        assert_eq!(req.image_ref().shape(), (1, 2, 2, 3));
    }

    #[test]
    fn policy_weights_default_and_clamp() {
        let p = QueuePolicy::shedding(8).weight("a", 3).weight("b", 0);
        assert_eq!(p.weight_of("a"), 3);
        assert_eq!(p.weight_of("b"), 1, "zero weight clamps to 1");
        assert_eq!(p.weight_of("unlisted"), 1);
        assert_eq!(p.admission, Admission::Shed { per_tenant: 8 });
        assert_eq!(QueuePolicy::default().admission, Admission::Backpressure);
    }
}
