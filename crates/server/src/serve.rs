//! The serving substrate: everything a TCP front end speaking the
//! [`stream_wire`] protocol needs before it sees a request. Both the
//! single-node [`Server`](crate::Server) and the cluster router are
//! [`FrontEnd`]s over this one module; they differ only in where their
//! answers come from.
//!
//! One acceptor blocks in `accept` and keeps the books on capacity: it
//! hands each connection to a free pooled handler, else to a thread on
//! the capped overflow lane, and at the lane's cap (or when `accept` runs
//! out of descriptors) blocks until some connection finishes. Finished
//! connections report back over one channel, so nothing polls on a
//! timer. Handlers check the drain before every read. DESIGN.md §8 has
//! the full thread model and drain contract.

use ss_trace::Phase;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use stream_telemetry::{Counter, Gauge};
use stream_wire::{
    ErrorCode, Frame, InspectReport, ServerInfo, TraceContext, WireError, INSPECT_EVENTS,
    INSPECT_METRICS, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};

/// Hard cap on concurrently-live overflow handler threads (beyond the
/// fixed pool). Past it the acceptor waits for a pooled handler or an
/// overflow thread to finish.
pub const OVERFLOW_HANDLERS_MAX: usize = 64;

/// One front end's request handling, plugged into the substrate.
pub trait FrontEnd: Send + Sync + 'static {
    /// State one handler thread owns across the connections it serves
    /// (the router's per-shard sessions; nothing for a server).
    type Handler: Send + 'static;

    /// Names the process in drain and handshake errors, and prefixes the
    /// connection metrics (`{ROLE}_connections`, `{ROLE}_frames_total`…).
    const ROLE: &'static str;

    /// Schema and limits advertised in HELLO_ACK.
    fn info(&self) -> ServerInfo;

    /// Whether shutdown has begun: checked after every accept and before
    /// every read.
    fn draining(&self) -> bool;

    /// Builds the state for handler slot `slot`: `0..handler_threads`
    /// for the pool, `handler_threads + i` for overflow lane slot `i`.
    /// No two live handlers ever share a slot.
    fn handler(&self, slot: usize) -> Self::Handler;

    /// Answers one request on a negotiated session. `span` is the
    /// request's Handler span context (present when the frame carried a
    /// trace context); downstream work parents its spans under it.
    fn serve_frame(
        &self,
        handler: &mut Self::Handler,
        conn: &mut Conn<'_>,
        frame: Frame,
        span: Option<TraceContext>,
    ) -> Flow;
}

/// What the substrate does after [`FrontEnd::serve_frame`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Read the next request.
    Continue,
    /// Close the connection (any reply is already sent).
    Close,
    /// The client said GOODBYE: echo it and close.
    Goodbye,
    /// The client sent a frame only a server sends: reject it with a
    /// protocol error and close.
    Unexpected,
}

/// Socket knobs every connection is served under.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Read timeout; also the tick at which idle connections notice a
    /// drain.
    pub read_timeout: Duration,
    /// Write timeout.
    pub write_timeout: Duration,
    /// Largest accepted frame payload, in bytes.
    pub max_payload: u32,
}

/// Connection-level metrics, registered once per role.
struct ConnMetrics {
    connections: Arc<Gauge>,
    accepted: Arc<Counter>,
    frames_rx: Arc<Counter>,
    frames_tx: Arc<Counter>,
    bytes_rx: Arc<Counter>,
    bytes_tx: Arc<Counter>,
    decode_errors: Arc<Counter>,
    thread_panics: Arc<Counter>,
}

impl ConnMetrics {
    fn register(role: &str) -> Self {
        let r = stream_telemetry::global();
        let name = |metric: &str| format!("{role}_{metric}");
        ConnMetrics {
            connections: r.gauge(&name("connections")),
            accepted: r.counter(&name("connections_total")),
            frames_rx: r.counter_with(&name("frames_total"), &[("dir", "rx")]),
            frames_tx: r.counter_with(&name("frames_total"), &[("dir", "tx")]),
            bytes_rx: r.counter_with(&name("bytes_total"), &[("dir", "rx")]),
            bytes_tx: r.counter_with(&name("bytes_total"), &[("dir", "tx")]),
            decode_errors: r.counter(&name("decode_errors_total")),
            thread_panics: r.counter(&name("thread_panics_total")),
        }
    }
}

/// One client connection, as a front end sees it while answering: every
/// reply goes through it, and it gates the v3 vocabulary on the
/// protocol the session negotiated.
pub struct Conn<'a> {
    sock: TcpStream,
    /// Reusable payload buffer: grows to the largest payload the
    /// connection has seen, so steady-state ingest allocates nothing
    /// per frame.
    scratch: Vec<u8>,
    max_payload: u32,
    protocol: u16,
    /// The current request's trace context, echoed on every reply so the
    /// client can pair its Request span with the Handler span.
    ctx: Option<TraceContext>,
    metrics: Option<&'a ConnMetrics>,
}

impl Conn<'_> {
    /// Sends one frame; `false` means the connection is broken.
    fn send(&mut self, frame: &Frame) -> bool {
        match frame.write_to_traced(&mut self.sock, self.ctx) {
            Ok(n) => {
                if let Some(m) = self.metrics {
                    m.frames_tx.inc();
                    m.bytes_tx.add(n as u64);
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Sends `frame` as the request's reply: [`Flow::Continue`] when it
    /// went out, [`Flow::Close`] when the connection broke.
    pub fn reply(&mut self, frame: &Frame) -> Flow {
        if self.send(frame) {
            Flow::Continue
        } else {
            Flow::Close
        }
    }

    /// Sends a typed ERROR frame.
    pub fn send_error(&mut self, code: ErrorCode, message: &str) {
        let _ = self.send(&Frame::Error {
            code,
            message: message.to_string(),
        });
    }

    /// Gate for the v3 cluster/replication vocabulary: `true` on a v3
    /// session; otherwise replies with a protocol error naming
    /// `request` and returns `false` (the caller closes).
    pub fn require_v3(&mut self, request: &str) -> bool {
        if self.protocol >= 3 {
            return true;
        }
        self.send_error(
            ErrorCode::Protocol,
            &format!("{request} requires a protocol-v3 session"),
        );
        false
    }
}

/// Binds `addr` (port 0 for an ephemeral port), spawns a pool of
/// `handler_threads` handlers and the acceptor, and starts serving
/// `front`. Zero handlers is an [`io::ErrorKind::InvalidInput`] error.
/// On a spawn failure the threads already running exit on their own
/// (their channel sender is dropped).
pub fn start<A: ToSocketAddrs, F: FrontEnd>(
    addr: A,
    handler_threads: usize,
    front: Arc<F>,
    limits: Limits,
) -> io::Result<Serving<F>> {
    if handler_threads == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "handler_threads must be at least 1",
        ));
    }
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        front,
        limits,
        metrics: stream_telemetry::ENABLED.then(|| ConnMetrics::register(F::ROLE)),
        handler_threads,
    });
    let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
    let (freed_tx, freed_rx) = mpsc::channel::<Freed>();
    // ss-analyze: allow(a4-blocking-hot-path) -- accept-path hand-off, taken once per connection (not per frame); contention is bounded by the handler count
    let conn_rx = Arc::new(Mutex::new(conn_rx));
    let handlers = (0..handler_threads)
        .map(|slot| {
            let shared = shared.clone();
            let conn_rx = conn_rx.clone();
            let freed = freed_tx.clone();
            std::thread::Builder::new()
                .name(format!("ss-handler{slot}"))
                .spawn(move || {
                    let mut state = shared.front.handler(slot);
                    loop {
                        // Poisoning needs a panic while holding the
                        // lock, and `recv` does not panic; recover
                        // anyway rather than cascade.
                        let next = conn_rx
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .recv();
                        let Ok(sock) = next else {
                            return; // the acceptor is gone
                        };
                        serve_connection(&shared, &mut state, sock);
                        let _ = freed.send(Freed::Pooled);
                    }
                })
        })
        .collect::<io::Result<Vec<_>>>()?;
    let acceptor = {
        let shared = shared.clone();
        let books = Capacity {
            pooled_free: handler_threads,
            slots: Vec::new(),
            free_slots: Vec::new(),
            freed: freed_tx.clone(),
            panicked: false,
        };
        std::thread::Builder::new()
            .name("ss-acceptor".to_string())
            .spawn(move || accept_loop(&shared, &listener, books, &conn_tx, &freed_rx))?
    };
    Ok(Serving {
        shared,
        local_addr,
        acceptor,
        handlers,
        wake: freed_tx,
    })
}

/// State every substrate thread shares.
struct Shared<F: FrontEnd> {
    front: Arc<F>,
    limits: Limits,
    metrics: Option<ConnMetrics>,
    handler_threads: usize,
}

/// A front end being served. Stop it with [`Serving::join`].
pub struct Serving<F: FrontEnd> {
    shared: Arc<Shared<F>>,
    local_addr: SocketAddr,
    acceptor: JoinHandle<Capacity>,
    handlers: Vec<JoinHandle<()>>,
    /// Wakes an acceptor that is waiting for capacity.
    wake: Sender<Freed>,
}

impl<F: FrontEnd> Serving<F> {
    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops serving once the front end reports [`FrontEnd::draining`]:
    /// wakes the acceptor, then joins it, the pool and the overflow lane.
    /// Each joined thread has finished its in-flight request. Returns
    /// the first thread family that panicked (`"acceptor"` or
    /// `"connection handler"`); every panic is counted into
    /// `{ROLE}_thread_panics_total` and dumps the flight recorder.
    pub fn join(self) -> Option<&'static str> {
        let _ = self.wake.send(Freed::Drain);
        wake(self.local_addr, self.shared.limits.write_timeout);
        let metrics = self.shared.metrics.as_ref();
        let books = join_thread(metrics, self.acceptor, "acceptor-panic");
        let mut panicked = books.is_none().then_some("acceptor");
        let (slots, lane_panicked) = books.map_or((Vec::new(), false), |b| (b.slots, b.panicked));
        if lane_panicked {
            panicked.get_or_insert("connection handler");
        }
        for h in self.handlers.into_iter().chain(slots.into_iter().flatten()) {
            if join_thread(metrics, h, "handler-panic").is_none() {
                panicked.get_or_insert("connection handler");
            }
        }
        panicked
    }
}

/// Joins `handle`; a panic is counted and dumps the flight recorder
/// under `dump`. `None` means the thread panicked.
fn join_thread<T>(metrics: Option<&ConnMetrics>, handle: JoinHandle<T>, dump: &str) -> Option<T> {
    let joined = handle.join().ok();
    if joined.is_none() {
        if let Some(m) = metrics {
            m.thread_panics.inc();
        }
        let _ = ss_trace::postmortem(dump);
    }
    joined
}

/// Unblocks an acceptor parked in `accept` with one loopback connect to
/// its own port. A failed connect is harmless: it only fails when the
/// listen backlog is full, and then `accept` returns anyway.
fn wake(mut addr: SocketAddr, patience: Duration) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, patience);
}

/// Capacity coming back to the acceptor.
enum Freed {
    /// A pooled handler finished its connection.
    Pooled,
    /// Overflow lane slot `.0`'s thread finished (or never started).
    Lane(usize),
    /// [`Serving::join`]: stop waiting, the front end is draining.
    Drain,
}

/// Reports its lane slot free when the lane thread ends, panic included.
struct LaneSlot {
    freed: Sender<Freed>,
    slot: usize,
}

impl Drop for LaneSlot {
    fn drop(&mut self) {
        let _ = self.freed.send(Freed::Lane(self.slot));
    }
}

/// The acceptor's books: free pooled handlers and the overflow lane.
/// Only the acceptor hands out capacity, so they need no lock; they go
/// to [`Serving::join`] when it returns.
struct Capacity {
    /// Pooled handlers that are free and not yet handed a connection.
    pooled_free: usize,
    /// Lane slot `i` serves as handler slot `handler_threads + i`.
    slots: Vec<Option<JoinHandle<()>>>,
    /// Lane slots whose thread has finished (or never started).
    free_slots: Vec<usize>,
    /// Where lane threads report their slot free.
    freed: Sender<Freed>,
    /// A reaped overflow thread had panicked.
    panicked: bool,
}

impl Capacity {
    /// Books one report; `false` once the drain has begun.
    fn note(&mut self, freed: Freed) -> bool {
        match freed {
            Freed::Pooled => self.pooled_free += 1,
            Freed::Lane(slot) => self.free_slots.push(slot),
            Freed::Drain => return false,
        }
        true
    }

    /// Blocks for the next report; `false` once the drain has begun.
    fn wait(&mut self, freed: &Receiver<Freed>) -> bool {
        freed.recv().is_ok_and(|f| self.note(f))
    }

    /// Connections being served right now.
    fn busy(&self, handler_threads: usize) -> usize {
        (handler_threads + self.slots.len())
            .saturating_sub(self.pooled_free + self.free_slots.len())
    }

    /// Serves `sock` on a free pooled handler, else on a free or new lane
    /// slot; hands it back at the lane's cap.
    fn place<F: FrontEnd>(
        &mut self,
        shared: &Arc<Shared<F>>,
        sock: TcpStream,
        conn_tx: &Sender<TcpStream>,
    ) -> Result<(), TcpStream> {
        if self.pooled_free > 0 {
            self.pooled_free -= 1;
            // Fails only if every pooled handler has panicked.
            let _ = conn_tx.send(sock);
            return Ok(());
        }
        let slot = match self.free_slots.pop() {
            Some(slot) => slot,
            None if self.slots.len() < OVERFLOW_HANDLERS_MAX => {
                self.slots.push(None);
                self.slots.len() - 1
            }
            None => return Err(sock),
        };
        let Some(entry) = self.slots.get_mut(slot) else {
            return Ok(());
        };
        // The slot's previous thread has reported; joining it makes sure
        // its per-handler state is gone before the slot's identity is
        // reused.
        if let Some(old) = entry.take() {
            self.panicked |= join_thread(shared.metrics.as_ref(), old, "handler-panic").is_none();
        }
        let state = shared.front.handler(shared.handler_threads + slot);
        let release = LaneSlot {
            freed: self.freed.clone(),
            slot,
        };
        let thread_shared = shared.clone();
        // A failed spawn drops the closure, and with it `release`: the
        // slot is reported free and the peer sees a reset.
        let spawned = std::thread::Builder::new()
            .name(format!("ss-overflow{slot}"))
            .spawn(move || {
                let _release = release;
                let mut state = state; // dropped before the slot is reported
                serve_connection(&thread_shared, &mut state, sock);
            });
        *entry = spawned.ok();
        Ok(())
    }
}

/// Accept failures that persist until a descriptor or buffer is freed
/// (EMFILE, ENFILE, ENOBUFS, ENOMEM). Every other accept error
/// (ECONNABORTED, EPROTO, EINTR, …) concerns that one attempt.
fn out_of_resources(e: &io::Error) -> bool {
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    const ENOBUFS: i32 = if cfg!(target_os = "linux") { 105 } else { 55 };
    e.kind() == io::ErrorKind::OutOfMemory
        || (cfg!(unix) && matches!(e.raw_os_error(), Some(ENFILE | EMFILE | ENOBUFS)))
}

/// The acceptor: blocks in `accept` and places each connection (see
/// [`Capacity::place`]) until the front end drains.
fn accept_loop<F: FrontEnd>(
    shared: &Arc<Shared<F>>,
    listener: &TcpListener,
    mut books: Capacity,
    conn_tx: &Sender<TcpStream>,
    freed: &Receiver<Freed>,
) -> Capacity {
    loop {
        let accepted = listener.accept();
        if shared.front.draining() {
            break;
        }
        while let Ok(f) = freed.try_recv() {
            if !books.note(f) {
                return books;
            }
        }
        let mut sock = match accepted {
            Ok((sock, _)) => sock,
            // The pending connection stays in the backlog, so retrying
            // at once would fail again: wait for one of ours to finish.
            // With none being served nothing here can free a
            // descriptor, and the retry is all there is.
            Err(e) if out_of_resources(&e) && books.busy(shared.handler_threads) > 0 => {
                if books.wait(freed) {
                    continue;
                }
                break;
            }
            Err(_) => continue,
        };
        if let Some(m) = &shared.metrics {
            m.accepted.inc();
        }
        // At the lane's cap, wait for a pooled handler or a lane thread
        // to finish, whichever comes first.
        while let Err(back) = books.place(shared, sock, conn_tx) {
            sock = back;
            if !books.wait(freed) {
                return books;
            }
        }
    }
    books
}

/// Serves one connection to completion: socket setup, HELLO, then
/// strict request/reply until GOODBYE, error, disconnect, or drain.
fn serve_connection<F: FrontEnd>(shared: &Shared<F>, handler: &mut F::Handler, sock: TcpStream) {
    let limits = shared.limits;
    if sock.set_nodelay(true).is_err()
        || sock.set_read_timeout(Some(limits.read_timeout)).is_err()
        || sock.set_write_timeout(Some(limits.write_timeout)).is_err()
    {
        return;
    }
    let metrics = shared.metrics.as_ref();
    let mut conn = Conn {
        sock,
        scratch: Vec::new(),
        max_payload: limits.max_payload,
        protocol: 0,
        ctx: None,
        metrics,
    };
    if let Some(m) = metrics {
        m.connections.add(1);
    }
    let front = &*shared.front;
    if handshake(front, &mut conn) {
        while let Some(frame) = next_frame(front, &mut conn) {
            // The request's Handler span: child of the client's Request
            // span when the frame carried a trace context.
            let ctx = conn.ctx;
            let handler_span =
                ctx.map(|c| ss_trace::span(Phase::Handler, c.trace_id, c.span_id, 0));
            let span = ctx.map(|c| TraceContext {
                trace_id: c.trace_id,
                span_id: handler_span
                    .as_ref()
                    .map_or(c.span_id, ss_trace::SpanGuard::id),
            });
            match front.serve_frame(handler, &mut conn, frame, span) {
                Flow::Continue => continue,
                Flow::Close => {}
                Flow::Goodbye => {
                    let _ = conn.send(&Frame::Goodbye);
                }
                Flow::Unexpected => {
                    conn.send_error(ErrorCode::Protocol, "unexpected frame for a client to send")
                }
            }
            break;
        }
    }
    if let Some(m) = metrics {
        m.connections.add(-1);
    }
}

/// HELLO negotiation: the first frame must offer a protocol version in
/// the accepted range, and the session then speaks the *offered*
/// version, so a v2 client never sees (and may not send) the v3 cluster
/// vocabulary. Out-of-range offers get the typed UNSUPPORTED_VERSION
/// code so mixed fleets fail loud at rollout.
fn handshake<F: FrontEnd>(front: &F, conn: &mut Conn<'_>) -> bool {
    match next_frame(front, conn) {
        Some(Frame::Hello { protocol, .. }) => {
            if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&protocol) {
                conn.send_error(
                    ErrorCode::UnsupportedVersion,
                    &format!(
                        "protocol {protocol} unsupported ({} speaks \
                         {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION})",
                        F::ROLE
                    ),
                );
                return false;
            }
            conn.protocol = protocol;
            conn.send(&Frame::HelloAck(front.info()))
        }
        Some(_) => {
            conn.send_error(ErrorCode::Protocol, "expected HELLO");
            false
        }
        None => false,
    }
}

/// Reads the next frame, riding out idle read ticks; `None` means the
/// connection is done (closed, errored, or the front end is draining).
fn next_frame<F: FrontEnd>(front: &F, conn: &mut Conn<'_>) -> Option<Frame> {
    loop {
        // Checked before every read, not just on idle ticks: a peer that
        // never goes quiet (a replication poll loop, a tight producer)
        // must not starve the drain. The request already processed has
        // finished; this refuses the *next* one.
        if front.draining() {
            conn.ctx = None;
            conn.send_error(
                ErrorCode::ShuttingDown,
                &format!("{} draining; reconnect later", F::ROLE),
            );
            return None;
        }
        match Frame::read_traced_from_with_scratch(
            &mut conn.sock,
            conn.max_payload,
            &mut conn.scratch,
        ) {
            Ok((frame, n, ctx)) => {
                if let Some(m) = conn.metrics {
                    m.frames_rx.inc();
                    m.bytes_rx.add(n as u64);
                }
                conn.ctx = ctx;
                return Some(frame);
            }
            Err(WireError::Idle) => {}
            Err(WireError::Closed | WireError::Io(_)) => return None,
            Err(decode_err) => {
                // Header/CRC/payload-shape failures: the stream may no
                // longer sit at a frame boundary, so report and close.
                if let Some(m) = conn.metrics {
                    m.decode_errors.inc();
                }
                conn.ctx = None;
                conn.send_error(ErrorCode::Protocol, &decode_err.to_string());
                return None;
            }
        }
    }
}

/// The INSPECT sections every front end can answer: uptime since
/// `started`, the metrics registry (empty with telemetry compiled out),
/// and the flight recorder's last `last_events` events.
pub fn inspect_report(started: Instant, sections: u8, last_events: u32) -> InspectReport {
    let mut report = InspectReport {
        uptime_ns: started.elapsed().as_nanos() as u64,
        ..InspectReport::default()
    };
    if sections & INSPECT_METRICS != 0 && stream_telemetry::ENABLED {
        report.metrics_json = stream_telemetry::global().render_json_lines();
    }
    if sections & INSPECT_EVENTS != 0 {
        report.events = ss_trace::recent_events(last_events as usize)
            .iter()
            .map(|e| stream_wire::WireSpanEvent {
                ts_ns: e.ts_ns,
                trace_id: e.trace_id,
                span_id: e.span_id,
                parent_id: e.parent_id,
                phase: e.phase,
                kind: e.kind,
                thread: e.thread,
                arg: e.arg,
            })
            .collect();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every handler slot the substrate builds state for.
    #[derive(Default)]
    struct Slots(Mutex<Vec<usize>>);

    impl FrontEnd for Slots {
        type Handler = ();
        const ROLE: &'static str = "serve_test";
        fn info(&self) -> ServerInfo {
            ServerInfo {
                domain_log2: 8,
                dyadic: false,
                tables: 1,
                buckets: 1,
                seed: 0,
                max_batch: 1,
                queue_limit: 1,
            }
        }
        fn draining(&self) -> bool {
            false
        }
        fn handler(&self, slot: usize) {
            self.0.lock().unwrap().push(slot);
        }
        fn serve_frame(
            &self,
            _: &mut (),
            _: &mut Conn<'_>,
            _: Frame,
            _: Option<TraceContext>,
        ) -> Flow {
            Flow::Unexpected
        }
    }

    fn serve(handler_threads: usize) -> (Arc<Slots>, Serving<Slots>) {
        let front = Arc::new(Slots::default());
        let limits = Limits {
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_payload: 1 << 16,
        };
        let serving = start("127.0.0.1:0", handler_threads, front.clone(), limits).unwrap();
        (front, serving)
    }

    /// Connects and sends HELLO; the reply is read with `patience`.
    fn hello_within(addr: SocketAddr, patience: Duration) -> (TcpStream, Result<Frame, WireError>) {
        let mut sock = TcpStream::connect(addr).unwrap();
        let client = "t".to_string();
        Frame::Hello {
            protocol: PROTOCOL_VERSION,
            client,
        }
        .write_to(&mut sock)
        .unwrap();
        sock.set_read_timeout(Some(patience)).unwrap();
        let reply = Frame::read_from(&mut sock, 1 << 16).map(|(f, _)| f);
        (sock, reply)
    }

    fn hello(addr: SocketAddr) -> TcpStream {
        let (sock, reply) = hello_within(addr, Duration::from_secs(5));
        assert!(matches!(reply, Ok(Frame::HelloAck(_))), "{reply:?}");
        sock
    }

    #[test]
    fn connections_spill_only_when_every_pooled_handler_is_busy() {
        let (front, serving) = serve(4);
        let built = || {
            let mut v = front.0.lock().unwrap().clone();
            v.sort_unstable();
            v
        };
        // Back-to-back connects, each held open, all land in the pool;
        // only the fifth finds it busy and spills to lane slot 0.
        let _pooled: Vec<TcpStream> = (0..4).map(|_| hello(serving.local_addr())).collect();
        assert_eq!(built(), [0, 1, 2, 3]);
        let _spilled = hello(serving.local_addr());
        assert_eq!(built(), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_full_lane_admits_again_once_its_connections_close() {
        // Pin the only pooled handler for good, then fill every lane slot.
        let (_, serving) = serve(1);
        let addr = serving.local_addr();
        let _pinned = hello(addr);
        let lane: Vec<TcpStream> = (0..OVERFLOW_HANDLERS_MAX).map(|_| hello(addr)).collect();
        // One more waits in the backlog: nothing can take it yet...
        let (mut extra, reply) = hello_within(addr, Duration::from_millis(200));
        assert!(matches!(reply, Err(WireError::Idle)), "{reply:?}");
        // ...until the lane's connections close, pooled handler or not.
        drop(lane);
        extra
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let reply = Frame::read_from(&mut extra, 1 << 16);
        assert!(matches!(reply, Ok((Frame::HelloAck(_), _))), "{reply:?}");
    }
}
