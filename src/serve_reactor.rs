//! The serve transport (see the [`crate::serve`] module docs, "Transport").
//!
//! One reactor thread owns every socket through a [`crate::reactor::Poller`]:
//! it accepts, reads complete request lines, answers the cheap inline verbs
//! (`STATS`, `QUIT`, `SHUTDOWN`, malformed `VOLUME` headers) on the spot,
//! and hands CPU-bound work to the worker pool over an SPMC job queue.
//! Workers execute through [`crate::serve::execute_line`] and
//! [`crate::serve::execute_volume`] and push finished reply buffers to a
//! completion box that wakes the reactor through a [`Waker`].
//!
//! Ordering guarantee: a connection has **at most one job in flight**, and
//! consecutive worker-verb lines are folded into one job executed in order,
//! so pipelined requests are always answered in issue order — byte-identical
//! to sending them one at a time.
//!
//! Backpressure: a connection whose outbound buffer crosses
//! [`HIGH_WATER`] stops being read (its read interest is dropped) until the
//! buffer drains below [`LOW_WATER`]; a client that stops reading its
//! replies therefore stops being served instead of ballooning memory, and
//! a write stalled past the configured write timeout is connection death.
//!
//! There is no poll tick anywhere: idle cutoffs and write stalls are
//! computed deadlines fed to the poller's wait, and shutdown rides the
//! existing listener poke.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::reactor::{Event, Poller, Waker};
use crate::serve::{
    begin_shutdown, err_reply, execute_line, execute_volume, push_line, shed_connection,
    stats_reply, RequestClock, Scratch, Shared, VOLUME_USAGE,
};

/// Poller token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the completion-box waker.
const TOKEN_WAKER: u64 = 1;
/// First connection token; connection `i` registers as `TOKEN_BASE + i`.
const TOKEN_BASE: u64 = 2;

/// Outbound bytes at which a connection stops being read (backpressure).
const HIGH_WATER: usize = 256 * 1024;
/// Outbound bytes at which a backpressured connection resumes reading.
const LOW_WATER: usize = 64 * 1024;
/// Inbound buffer cap: a client cannot buffer more than this un-parsed.
const INBUF_HIGH_WATER: usize = 1024 * 1024;
/// Most consecutive pipelined worker lines folded into one job — amortizes
/// the queue handoff without letting one connection monopolize a worker.
const JOB_BATCH: usize = 64;
/// Size of the reusable read buffer.
const READ_CHUNK: usize = 64 * 1024;

/// One unit of CPU-bound work handed to the pool.
enum WorkItem {
    /// Consecutive worker-verb request lines, executed in order.
    Lines(Vec<String>),
    /// A `VOLUME` request whose counted corpus was already read off the
    /// wire by the reactor.
    Volume {
        request: String,
        corpus: Vec<String>,
    },
}

/// A job tagged with its connection slot and the slot's generation at
/// dispatch time — a completion whose generation no longer matches (the
/// connection died and the slot was reused) is dropped on the floor.
struct Job {
    conn: usize,
    generation: u64,
    item: WorkItem,
}

/// Finished reply bytes headed back to one connection's outbound buffer.
struct Completion {
    conn: usize,
    generation: u64,
    bytes: Vec<u8>,
}

/// The SPMC job queue between the reactor and the worker pool.
struct JobQueue {
    state: Mutex<JobState>,
    ready: Condvar,
}

#[derive(Default)]
struct JobState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    fn new() -> Self {
        Self {
            state: Mutex::new(JobState::default()),
            ready: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
    }

    /// Blocks for the next job; `None` once the queue is closed **and**
    /// drained, so no accepted work is ever dropped.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        drop(state);
        self.ready.notify_all();
    }
}

/// Where workers park finished replies; the waker kicks the reactor out of
/// its poller wait to collect them.
struct CompletionBox {
    finished: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl CompletionBox {
    fn push(&self, completion: Completion) {
        let mut finished = self.finished.lock().unwrap_or_else(|e| e.into_inner());
        finished.push(completion);
        drop(finished);
        // Unconditional: pending wakes coalesce into one event, and a
        // missed wakeup would strand a reply until the next unrelated event.
        self.waker.wake();
    }

    fn drain(&self) -> Vec<Completion> {
        self.waker.drain();
        let mut finished = self.finished.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *finished)
    }
}

/// Protocol state of one connection.
enum ConnState {
    /// Between requests; complete lines in `pending` advance the machine.
    Idle,
    /// A `VOLUME` header arrived; collecting its counted corpus lines.
    AwaitingCorpus {
        request: String,
        remaining: usize,
        corpus: Vec<String>,
    },
    /// A job is queued or running; replies for it will arrive as one
    /// completion. At most one per connection — that is the ordering
    /// guarantee.
    InFlight,
}

/// One admitted connection.
struct Conn {
    stream: TcpStream,
    generation: u64,
    /// Raw bytes read but not yet split into lines.
    inbuf: Vec<u8>,
    /// Complete lines (trailing `\r`/`\n` stripped) not yet consumed.
    pending: VecDeque<String>,
    /// Reply bytes not yet written to the socket.
    outbuf: Vec<u8>,
    state: ConnState,
    /// Last complete line parsed (or last completion) — the idle clock.
    last_activity: Instant,
    /// When the current write stall began, if one is in progress.
    write_stalled_since: Option<Instant>,
    /// The client half-closed its sending side.
    read_eof: bool,
    /// Close once the outbound buffer drains and no job is in flight.
    closing: bool,
    /// Reading is paused because `outbuf` crossed the high-water mark.
    paused: bool,
    /// Interest currently registered with the poller (read, write).
    interest: (bool, bool),
}

/// Is this request line one the worker pool executes (as opposed to the
/// inline `STATS`/`QUIT`/`SHUTDOWN` and the corpus-reading `VOLUME`)?
fn is_worker_verb(request: &str) -> bool {
    let verb = request
        .split_whitespace()
        .next()
        .unwrap_or_default()
        .to_ascii_uppercase();
    !matches!(verb.as_str(), "STATS" | "QUIT" | "SHUTDOWN" | "VOLUME")
}

/// Splits every complete line out of `inbuf` into `pending`, stripping
/// trailing `\r`s. `false` means the bytes were not UTF-8 — connection
/// death.
fn parse_lines(conn: &mut Conn) -> bool {
    let mut start = 0;
    while let Some(offset) = conn.inbuf[start..].iter().position(|&b| b == b'\n') {
        let end = start + offset;
        let mut slice = &conn.inbuf[start..end];
        while let [head @ .., b'\r'] = slice {
            slice = head;
        }
        let Ok(text) = std::str::from_utf8(slice) else {
            return false;
        };
        conn.pending.push_back(text.to_owned());
        conn.last_activity = Instant::now();
        start = end + 1;
    }
    conn.inbuf.drain(..start);
    true
}

/// Writes as much of `outbuf` as the socket accepts right now. Starts (or
/// clears) the write-stall clock; any hard error is connection death.
fn flush(conn: &mut Conn) -> io::Result<()> {
    let mut written = 0;
    let result = loop {
        if written == conn.outbuf.len() {
            break Ok(());
        }
        match (&conn.stream).write(&conn.outbuf[written..]) {
            Ok(0) => break Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                written += n;
                conn.write_stalled_since = None;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if conn.write_stalled_since.is_none() {
                    conn.write_stalled_since = Some(Instant::now());
                }
                break Ok(());
            }
            Err(e) => break Err(e),
        }
    };
    conn.outbuf.drain(..written);
    if conn.outbuf.is_empty() {
        conn.write_stalled_since = None;
    }
    result
}

/// What one state-machine step decided (returned out of the borrow of the
/// connection so the caller can touch the queue).
enum Step {
    /// Hand this work to the pool; the connection is now `InFlight`.
    Dispatch(WorkItem),
    /// A request was handled inline (or consumed); keep advancing.
    Continue,
    /// Nothing more can happen until new bytes or a completion arrive.
    Stop,
}

/// Advances one connection's protocol state machine by a single request
/// (or corpus chunk). Inline verbs reply straight into `outbuf`; worker
/// verbs fold consecutive lines into one [`WorkItem::Lines`] job.
fn advance_step(shared: &Arc<Shared>, conn: &mut Conn, processed: &mut u64) -> Step {
    if conn.closing {
        return Step::Stop;
    }
    match &mut conn.state {
        ConnState::InFlight => Step::Stop,
        ConnState::AwaitingCorpus {
            remaining, corpus, ..
        } => {
            while *remaining > 0 {
                let Some(line) = conn.pending.pop_front() else {
                    return Step::Stop; // need more bytes off the wire
                };
                corpus.push(line);
                *remaining -= 1;
            }
            let ConnState::AwaitingCorpus {
                request, corpus, ..
            } = std::mem::replace(&mut conn.state, ConnState::InFlight)
            else {
                unreachable!("matched AwaitingCorpus above");
            };
            Step::Dispatch(WorkItem::Volume { request, corpus })
        }
        ConnState::Idle => {
            let Some(line) = conn.pending.pop_front() else {
                return Step::Stop;
            };
            let request = line.trim();
            if request.is_empty() {
                return Step::Continue;
            }
            shared.requests.fetch_add(1, Ordering::Relaxed);
            *processed += 1;
            let verb = request
                .split_whitespace()
                .next()
                .unwrap_or_default()
                .to_ascii_uppercase();
            match verb.as_str() {
                "STATS" => {
                    let reply = stats_reply(shared);
                    push_line(&mut conn.outbuf, &reply);
                    Step::Continue
                }
                "QUIT" => {
                    push_line(&mut conn.outbuf, "OK BYE");
                    conn.closing = true;
                    conn.pending.clear();
                    Step::Stop
                }
                "SHUTDOWN" => {
                    push_line(&mut conn.outbuf, "OK BYE");
                    conn.closing = true;
                    conn.pending.clear();
                    begin_shutdown(shared);
                    Step::Stop
                }
                "VOLUME" => {
                    let mut tokens = request.split_whitespace();
                    tokens.next();
                    match (tokens.next(), tokens.next().map(str::parse::<usize>)) {
                        (Some(_), Some(Ok(count))) => {
                            conn.state = ConnState::AwaitingCorpus {
                                request: request.to_owned(),
                                remaining: count,
                                corpus: Vec::new(),
                            };
                            Step::Continue
                        }
                        // A malformed header promised no corpus lines, so
                        // the usage error is safe to answer inline.
                        _ => {
                            push_line(&mut conn.outbuf, &err_reply(VOLUME_USAGE));
                            Step::Continue
                        }
                    }
                }
                _ => {
                    // Fold the run of consecutive worker-verb lines into
                    // one job: one queue handoff, replies in order.
                    let mut batch = vec![request.to_owned()];
                    while batch.len() < JOB_BATCH {
                        let Some(next) = conn.pending.front() else {
                            break;
                        };
                        let trimmed = next.trim();
                        if trimmed.is_empty() {
                            conn.pending.pop_front();
                            continue;
                        }
                        if !is_worker_verb(trimmed) {
                            break;
                        }
                        let owned = trimmed.to_owned();
                        conn.pending.pop_front();
                        shared.requests.fetch_add(1, Ordering::Relaxed);
                        *processed += 1;
                        batch.push(owned);
                    }
                    conn.state = ConnState::InFlight;
                    Step::Dispatch(WorkItem::Lines(batch))
                }
            }
        }
    }
}

/// Looks up the connection slot a poller event points at, tolerating an
/// out-of-range token or a vacant slot by returning `None` — the event
/// loop's lookups must degrade to a connection close, never a panic,
/// because the reactor thread runs outside the per-request `catch_unwind`.
fn event_conn(conns: &mut [Option<Conn>], index: usize) -> Option<&mut Conn> {
    conns.get_mut(index).and_then(Option::as_mut)
}

/// What a timer sweep decided for one connection.
enum TimerAction {
    None,
    /// Flush whatever the timer queued (the idle courtesy line) and maybe
    /// close.
    Finish,
    /// Hard close right now (write stall, mid-corpus idle).
    Close,
}

/// The reactor: the event loop's whole mutable world.
struct Reactor {
    poller: Poller,
    listener: Option<TcpListener>,
    shared: Arc<Shared>,
    queue: Arc<JobQueue>,
    completions: Arc<CompletionBox>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Monotonic generation stamped onto every admitted connection.
    generation: u64,
    draining: bool,
    events: Vec<Event>,
    read_buf: Vec<u8>,
}

/// Spawns the reactor thread and its worker pool over an already-bound
/// listener. Returns the reactor handle (joins once fully drained) and the
/// worker handles.
pub(crate) fn spawn(
    listener: TcpListener,
    shared: Arc<Shared>,
) -> io::Result<(JoinHandle<()>, Vec<JoinHandle<()>>)> {
    listener.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    let waker = Waker::new()?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
    poller.register(waker.fd(), TOKEN_WAKER, true, false)?;
    let queue = Arc::new(JobQueue::new());
    let completions = Arc::new(CompletionBox {
        finished: Mutex::new(Vec::new()),
        waker,
    });
    let workers = (0..shared.workers.max(1))
        .map(|_| {
            let queue = Arc::clone(&queue);
            let completions = Arc::clone(&completions);
            let shared = Arc::clone(&shared);
            thread::spawn(move || worker_loop(&queue, &completions, &shared))
        })
        .collect();
    let reactor = Reactor {
        poller,
        listener: Some(listener),
        shared,
        queue,
        completions,
        conns: Vec::new(),
        free: Vec::new(),
        generation: 0,
        draining: false,
        events: Vec::new(),
        read_buf: vec![0; READ_CHUNK],
    };
    let handle = thread::spawn(move || reactor.run());
    Ok((handle, workers))
}

/// One pool worker: pops jobs, executes them through the verb core with
/// per-request panic containment, and posts the reply bytes back.
fn worker_loop(queue: &JobQueue, completions: &CompletionBox, shared: &Arc<Shared>) {
    let mut scratch = Scratch::default();
    while let Some(job) = queue.pop() {
        let mut out = Vec::new();
        match job.item {
            WorkItem::Lines(lines) => {
                for line in &lines {
                    let clock = RequestClock::new(shared.limits.request_deadline);
                    contain(&mut out, |out| {
                        execute_line(line, shared, &mut scratch, &clock, out);
                    });
                }
            }
            WorkItem::Volume { request, corpus } => {
                contain(&mut out, |out| {
                    execute_volume(&request, corpus, shared, out)
                });
            }
        }
        completions.push(Completion {
            conn: job.conn,
            generation: job.generation,
            bytes: out,
        });
    }
}

/// Appends one request's reply to `out` through `execute`. A request that
/// panics yields exactly one `ERR` line instead, and the connection (and
/// worker) survive.
fn contain(out: &mut Vec<u8>, execute: impl FnOnce(&mut Vec<u8>)) {
    let before = out.len();
    if catch_unwind(AssertUnwindSafe(|| execute(&mut *out))).is_err() {
        out.truncate(before);
        push_line(out, &err_reply("internal error: request panicked"));
    }
}

impl Reactor {
    fn run(mut self) {
        loop {
            if !self.draining && self.shared.shutting_down.load(Ordering::SeqCst) {
                self.start_drain();
            }
            if self.draining && self.conns.iter().all(Option::is_none) {
                break;
            }
            let timeout = self.next_timeout();
            let mut events = std::mem::take(&mut self.events);
            events.clear();
            match self.poller.wait(&mut events, timeout) {
                Ok(_) => {
                    self.shared.wakeups.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    // The wait only fails on programming errors; log and
                    // back off instead of spinning a hot loop on one.
                    eprintln!("sdd-serve: poller wait failed: {e}");
                    thread::sleep(Duration::from_millis(100));
                }
            }
            for event in events.iter().copied() {
                match event.token {
                    TOKEN_LISTENER => self.on_listener(),
                    TOKEN_WAKER => self.on_completions(),
                    token => self.on_conn_event(token, event.readable, event.writable),
                }
            }
            self.events = events;
            self.check_timers();
        }
        // Drained: let the workers finish queued jobs and exit.
        self.queue.close();
    }

    /// Accepts everything the listener has ready, shedding past the
    /// connection cap and dropping post-shutdown arrivals (the poke).
    fn on_listener(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.shutting_down.load(Ordering::SeqCst) {
                        drop(stream); // the shutdown poke, or a raced client
                        continue;
                    }
                    if self.shared.active.load(Ordering::SeqCst)
                        >= self.shared.limits.max_connections
                    {
                        shed_connection(&stream, &self.shared);
                        continue;
                    }
                    self.admit(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let index = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let token = TOKEN_BASE + index as u64;
        if self
            .poller
            .register(stream.as_raw_fd(), token, true, false)
            .is_err()
        {
            self.free.push(index);
            return;
        }
        self.generation += 1;
        self.shared.active.fetch_add(1, Ordering::SeqCst);
        self.shared.accepted.fetch_add(1, Ordering::Relaxed);
        self.conns[index] = Some(Conn {
            stream,
            generation: self.generation,
            inbuf: Vec::new(),
            pending: VecDeque::new(),
            outbuf: Vec::new(),
            state: ConnState::Idle,
            last_activity: Instant::now(),
            write_stalled_since: None,
            read_eof: false,
            closing: false,
            paused: false,
            interest: (true, false),
        });
    }

    /// Collects finished worker replies into their connections' outbound
    /// buffers and advances each (pipelined requests buffered behind the
    /// completed one run now).
    fn on_completions(&mut self) {
        for completion in self.completions.drain() {
            let index = completion.conn;
            let matched = self
                .conns
                .get_mut(index)
                .and_then(Option::as_mut)
                .is_some_and(|conn| {
                    if conn.generation != completion.generation {
                        return false; // the connection died; slot was reused
                    }
                    conn.outbuf.extend_from_slice(&completion.bytes);
                    conn.state = ConnState::Idle;
                    conn.last_activity = Instant::now();
                    true
                });
            if matched {
                self.advance(index, true);
                self.finish(index);
            }
        }
    }

    fn on_conn_event(&mut self, token: u64, readable: bool, writable: bool) {
        let index = usize::try_from(token - TOKEN_BASE).unwrap_or(usize::MAX);
        if event_conn(&mut self.conns, index).is_none() {
            return; // stale event for a connection closed this batch
        }
        if writable {
            let alive = match event_conn(&mut self.conns, index) {
                Some(conn) => flush(conn).is_ok(),
                // A slot live at the top of this function but vacant now is
                // a slab invariant violation. This thread runs outside the
                // per-request catch_unwind, so it must never panic: log,
                // close the slot, and keep serving everyone else.
                None => {
                    eprintln!("sdd-serve: connection slot {index} vanished mid-event; closing it");
                    false
                }
            };
            if !alive {
                self.close_conn(index);
                return;
            }
        }
        if readable && !self.fill_in(index) {
            self.close_conn(index);
            return;
        }
        self.advance(index, false);
        self.finish(index);
    }

    /// Reads everything the socket has (up to the inbound cap), splitting
    /// complete lines as they land. `false` is connection death.
    fn fill_in(&mut self, index: usize) -> bool {
        loop {
            let Some(conn) = self.conns[index].as_mut() else {
                return false;
            };
            if conn.read_eof || conn.paused || conn.closing || conn.inbuf.len() >= INBUF_HIGH_WATER
            {
                return true;
            }
            match (&conn.stream).read(&mut self.read_buf) {
                Ok(0) => {
                    conn.read_eof = true;
                    return true;
                }
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&self.read_buf[..n]);
                    if !parse_lines(conn) {
                        return false; // not UTF-8
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Runs the state machine until it dispatches, blocks, or runs dry,
    /// then accounts the pipelining counter: every request consumed beyond
    /// the first of a read burst — and *every* request consumed on the
    /// completion path — was answered from bytes buffered behind an
    /// earlier request.
    fn advance(&mut self, index: usize, from_completion: bool) {
        let mut processed: u64 = 0;
        loop {
            let step = {
                let Some(conn) = self.conns[index].as_mut() else {
                    return;
                };
                advance_step(&self.shared, conn, &mut processed)
            };
            match step {
                Step::Dispatch(item) => {
                    let generation = self.conns[index].as_ref().map_or(0, |conn| conn.generation);
                    self.queue.push(Job {
                        conn: index,
                        generation,
                        item,
                    });
                    break;
                }
                Step::Continue => {}
                Step::Stop => break,
            }
        }
        let pipelined = if from_completion {
            processed
        } else {
            processed.saturating_sub(1)
        };
        if pipelined > 0 {
            self.shared
                .pipelined
                .fetch_add(pipelined, Ordering::Relaxed);
        }
    }

    /// Post-event housekeeping: eager flush, backpressure transitions,
    /// close-when-done, and poller interest reconciliation.
    fn finish(&mut self, index: usize) {
        let close = {
            let Some(conn) = self.conns[index].as_mut() else {
                return;
            };
            if flush(conn).is_err() {
                true
            } else {
                if !conn.paused && conn.outbuf.len() >= HIGH_WATER {
                    conn.paused = true;
                    self.shared
                        .backpressure_stalls
                        .fetch_add(1, Ordering::Relaxed);
                } else if conn.paused && conn.outbuf.len() <= LOW_WATER {
                    conn.paused = false;
                }
                let in_flight = matches!(conn.state, ConnState::InFlight);
                let awaiting = matches!(conn.state, ConnState::AwaitingCorpus { .. });
                let out_pending = !conn.outbuf.is_empty();
                // Close when the client died mid-corpus, when a draining
                // connection has nothing left to flush or finish, or at a
                // fully-drained EOF.
                if (conn.read_eof && awaiting) || (conn.closing && !out_pending && !in_flight) {
                    true
                } else {
                    conn.read_eof
                        && !in_flight
                        && !out_pending
                        && conn.pending.is_empty()
                        && conn.inbuf.is_empty()
                }
            }
        };
        if close {
            self.close_conn(index);
        } else {
            self.update_interest(index);
        }
    }

    fn update_interest(&mut self, index: usize) {
        let Some(conn) = self.conns[index].as_mut() else {
            return;
        };
        let want_read =
            !conn.read_eof && !conn.closing && !conn.paused && conn.inbuf.len() < INBUF_HIGH_WATER;
        let want_write = !conn.outbuf.is_empty();
        if (want_read, want_write) != conn.interest {
            let token = TOKEN_BASE + index as u64;
            if self
                .poller
                .reregister(conn.stream.as_raw_fd(), token, want_read, want_write)
                .is_ok()
            {
                conn.interest = (want_read, want_write);
            }
        }
    }

    fn close_conn(&mut self, index: usize) {
        if let Some(conn) = self.conns[index].take() {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.free.push(index);
            self.shared.active.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Enters shutdown: release the port immediately, discard buffered
    /// input everywhere, finish in-flight jobs, flush pending replies,
    /// close everything else now.
    fn start_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        for index in 0..self.conns.len() {
            let close_now = {
                let Some(conn) = self.conns[index].as_mut() else {
                    continue;
                };
                conn.closing = true;
                conn.pending.clear();
                conn.inbuf.clear();
                !matches!(conn.state, ConnState::InFlight) && conn.outbuf.is_empty()
            };
            if close_now {
                self.close_conn(index);
            } else {
                self.update_interest(index);
            }
        }
    }

    /// The earliest pending deadline (idle cutoff or write stall) across
    /// every connection — how long the poller may sleep.
    fn next_timeout(&self) -> Option<Duration> {
        fn merge(deadline: &mut Option<Instant>, candidate: Instant) {
            *deadline = Some(deadline.map_or(candidate, |current| current.min(candidate)));
        }
        let mut deadline: Option<Instant> = None;
        for conn in self.conns.iter().flatten() {
            if !matches!(conn.state, ConnState::InFlight) && !conn.closing {
                merge(
                    &mut deadline,
                    conn.last_activity + self.shared.limits.idle_timeout,
                );
            }
            if let Some(since) = conn.write_stalled_since {
                merge(&mut deadline, since + self.shared.limits.write_timeout);
            }
        }
        deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Fires expired deadlines: idle connections get the courtesy `ERR`
    /// line and a drain-then-close, mid-corpus stalls and write timeouts
    /// are connection death.
    fn check_timers(&mut self) {
        let now = Instant::now();
        for index in 0..self.conns.len() {
            let action = {
                let Some(conn) = self.conns[index].as_mut() else {
                    continue;
                };
                let write_timed_out = conn
                    .write_stalled_since
                    .is_some_and(|s| now.duration_since(s) >= self.shared.limits.write_timeout);
                if write_timed_out {
                    TimerAction::Close
                } else if !matches!(conn.state, ConnState::InFlight)
                    && !conn.closing
                    && now.duration_since(conn.last_activity) >= self.shared.limits.idle_timeout
                {
                    if matches!(conn.state, ConnState::Idle) {
                        push_line(
                            &mut conn.outbuf,
                            &err_reply("idle timeout: no complete request within the limit"),
                        );
                        conn.closing = true;
                        conn.pending.clear();
                        TimerAction::Finish
                    } else {
                        TimerAction::Close // mid-corpus slow-loris: silent
                    }
                } else {
                    TimerAction::None
                }
            };
            match action {
                TimerAction::Close => self.close_conn(index),
                TimerAction::Finish => self.finish(index),
                TimerAction::None => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_queue_is_fifo_and_drains_after_close() {
        let queue = JobQueue::new();
        for i in 0..3 {
            queue.push(Job {
                conn: i,
                generation: i as u64,
                item: WorkItem::Lines(vec![]),
            });
        }
        queue.close();
        // Close means "no new work", never "drop queued work".
        assert_eq!(queue.pop().map(|j| j.conn), Some(0));
        assert_eq!(queue.pop().map(|j| j.conn), Some(1));
        assert_eq!(queue.pop().map(|j| j.conn), Some(2));
        assert!(queue.pop().is_none());
    }

    #[test]
    fn vacant_or_out_of_range_event_slot_is_not_a_panic() {
        // Regression: the event loop used to re-index the slab with
        // `expect("checked above")` after its vacancy guard — an invariant
        // violation there would have killed the whole server, since the
        // reactor thread runs outside the per-request catch_unwind. Every
        // event-loop slot lookup now funnels through `event_conn`, which
        // must answer `None` for vacant and out-of-range slots alike.
        let mut conns: Vec<Option<Conn>> = vec![None, None];
        assert!(event_conn(&mut conns, 0).is_none());
        assert!(event_conn(&mut conns, 1).is_none());
        assert!(event_conn(&mut conns, 2).is_none());
        assert!(event_conn(&mut conns, usize::MAX).is_none());
    }

    #[test]
    fn verb_classification_routes_inline_verbs_to_the_reactor() {
        for inline in [
            "STATS",
            "quit",
            "Shutdown",
            "VOLUME d 3",
            "volume d 3 seed=1",
        ] {
            assert!(!is_worker_verb(inline), "{inline}");
        }
        for worker in ["DIAG d 01", "LOAD d p", "BATCH d 01 10", "PANIC", "bogus"] {
            assert!(is_worker_verb(worker), "{worker}");
        }
    }
}
