//! `serve` workload: an in-process `serve::serve` with the default config
//! (reactor, `mmap auto`, one worker per core) holding the s953-profile
//! diagnostic-set dictionary, driven over loopback with noisy `DIAG`
//! observations in two phases against the same server.
//!
//! - Open loop: seeded Poisson arrivals at a fixed rate, one connection per
//!   core, a sender paced by `thread::sleep` and a receiver waiting on the
//!   repository's `reactor::Poller`. Each request is timed from its due
//!   time, so a stall also delays the requests queued behind it; the phase
//!   reports the generator's lateness and the backlog a tenth of the way in
//!   and at its end.
//! - Closed loop: one blocking client per core, each keeping a fixed
//!   number of requests in flight and sending the next as a reply arrives.
//!   Its latency and throughput are the gated figures: a closed loop offers
//!   less load to a slower host, so its figures scale with the host's speed
//!   instead of swinging with how close a fixed rate sits to saturation.
//!   With several requests in flight the server always has work queued;
//!   with one, the cores idle between requests and the rate moved with how
//!   fast the host woke them.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use same_different::atpg::AtpgOptions;
use same_different::dict::diagnose::match_signatures_masked_into;
use same_different::dict::{
    replace_baselines, select_baselines, Procedure1Options, SameDifferentDictionary,
};
use same_different::logic::{MaskedBitVec, Prng};
use same_different::reactor::Poller;
use same_different::serve::{serve, ServeConfig, ServerHandle};
use same_different::sim::CorruptionModel;
use same_different::store::{self, StoredDictionary};
use same_different::Experiment;

use crate::measure::{self, Summary};
use crate::trace::Tracer;
use crate::{Outcome, FLIP_RATE, MASK_RATE};

/// ISCAS'89 profile of the served dictionary's netlist.
const PROFILE: &str = "s953";
/// Generator, ATPG and Procedure 1 seed of the served dictionary.
const PROFILE_SEED: u64 = 1;
/// Registry name of the served dictionary.
const DICT: &str = "sd";
/// Distinct observations per run; requests draw from them.
const OBSERVATIONS: usize = 2048;
/// Open-loop arrival rate, requests per second: well below the saturation
/// rate of a 2-core host, so the latency is that of a loaded but stable
/// server.
const FIXED_RATE: f64 = 4000.0;
/// The latency limit on the open loop's p99, seconds; a backlog that grows
/// by more than a limit's worth of arrivals also misses it.
const LIMIT_S: f64 = 0.010;
/// Shares of `--seconds` given to the open and the closed loop.
const OPEN_SHARE: f64 = 0.2;
const CLOSED_SHARE: f64 = 0.75;
/// Closed-loop percentiles are medians over slices of this many
/// consecutive replies of each slice's percentile, so a host stall confined
/// to a few slices moves neither. A slice of 500 leaves ten replies beyond
/// p95 but not p99: on a contended 2-vCPU host the median of p99 over
/// slices of 2,000 spread by 11 % to 143 % between sets of ten runs, while
/// p50 spread by 7–9 %.
const CLOSED_SLICE: usize = 500;
/// The closed-loop rate is the median over windows of this many seconds of
/// each window's correct replies per second, so a stall confined to a few
/// windows does not move it, as it does not move the sliced latency.
const RATE_WINDOW: f64 = 0.5;
/// Closed-loop requests each client keeps in flight on its connection.
/// On a contended 2-vCPU host, with one in flight the rate spread by
/// 16–24 % between runs, with eight by 6–13 % over sets of ten seeds.
const WINDOW: usize = 8;
/// How long the open-loop receiver waits for stragglers after the last send.
const GRACE: Duration = Duration::from_secs(3);
/// Sequential requests for the unloaded round trip, and in-process replays.
const UNLOADED: usize = 400;

/// One generated observation with its ground truth.
struct Observation {
    /// The `DIAG` request line, newline included.
    request: String,
    /// The fault injected into the device.
    fault: usize,
    /// The in-process diagnosis's best set, joined with commas.
    best: String,
}

/// Generated inputs.
pub struct Inputs {
    path: PathBuf,
    dictionary: SameDifferentDictionary,
    observations: Vec<Observation>,
    seed: u64,
    shape: String,
}

/// Builds the served dictionary and the seeded observations.
pub fn prepare(seed: u64, dir: &Path) -> Inputs {
    let jobs = measure::jobs();
    let exp = Experiment::iscas89(PROFILE, PROFILE_SEED).expect("known profile");
    let tests = exp.diagnostic_tests(&AtpgOptions {
        seed: PROFILE_SEED,
        ..AtpgOptions::default()
    });
    let matrix = exp.simulate_jobs(&tests.tests, jobs);
    let mut selection = select_baselines(
        &matrix,
        &Procedure1Options {
            seed: PROFILE_SEED,
            jobs,
            ..Procedure1Options::default()
        },
    );
    replace_baselines(&matrix, &mut selection.baselines);
    let dictionary = SameDifferentDictionary::build(&matrix, &selection.baselines);
    let path = dir.join("serve.sddb");
    store::save(&path, &StoredDictionary::SameDifferent(dictionary.clone()))
        .expect("write the served dictionary");

    let mut rng = Prng::seed_from_u64(measure::mix(seed, 1));
    let mut scratch = Vec::new();
    let observations = (0..OBSERVATIONS)
        .map(|k| {
            let fault = rng.gen_range(0..matrix.fault_count());
            let mut responses: Vec<MaskedBitVec> = (0..matrix.test_count())
                .map(|t| MaskedBitVec::from_known(matrix.response(t, matrix.class(t, fault))))
                .collect();
            CorruptionModel::clean()
                .with_mask_rate(MASK_RATE)
                .with_flip_rate(FLIP_RATE)
                .with_seed(measure::mix(seed, 2 + k as u64))
                .degrade(&mut responses);
            let text: Vec<String> = responses.iter().map(MaskedBitVec::to_string).collect();
            let encoded = dictionary
                .encode_observed_masked(&responses)
                .expect("generated observations fit the dictionary");
            match_signatures_masked_into(dictionary.signatures(), &encoded, &mut scratch)
                .expect("non-empty dictionary");
            Observation {
                request: format!("DIAG {DICT} {}\n", text.join("/")),
                fault,
                best: best_set(&scratch),
            }
        })
        .collect();
    Inputs {
        path,
        shape: format!(
            "input profile={PROFILE} faults={} tests={} outputs={} observations={OBSERVATIONS} mask={MASK_RATE} flip={FLIP_RATE}",
            matrix.fault_count(),
            matrix.test_count(),
            matrix.output_count()
        ),
        dictionary,
        observations,
        seed,
    }
}

/// The ranking's best set (every candidate tied at the lowest mismatch
/// count), formatted as the `best=` field of a `DIAG` reply.
fn best_set(ranking: &[same_different::dict::diagnose::ScoredCandidate]) -> String {
    let min = ranking.first().map_or(0, |c| c.mismatches);
    let best: Vec<String> = ranking
        .iter()
        .take_while(|c| c.mismatches == min)
        .map(|c| c.fault.to_string())
        .collect();
    best.join(",")
}

/// Seeded Poisson arrivals at `rate` per second over `[0, seconds)`, as
/// offsets in seconds, each with the observation it sends.
pub fn poisson(seed: u64, rate: f64, seconds: f64, pool: usize) -> Vec<(f64, usize)> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t, rng.gen_range(0..pool)));
    }
}

/// The outcome of a run of requests: per request its latency, or infinity
/// when the reply was missing, not `OK DIAG`, or disagreed with the
/// in-process oracle.
#[derive(Default)]
struct Replies {
    latency: Vec<f64>,
    /// Correct replies whose best set holds the injected fault.
    top_hits: usize,
    failures: Vec<String>,
}

impl Replies {
    fn failed(&self) -> usize {
        self.latency.iter().filter(|l| l.is_infinite()).count()
    }

    /// Checks `reply` to `observation`, due or sent at `from`, arrived at
    /// `at`.
    fn record(&mut self, reply: &str, observation: &Observation, from: Instant, at: Instant) {
        match check_reply(reply, observation) {
            Ok(hit) => {
                self.top_hits += usize::from(hit);
                self.latency
                    .push(at.saturating_duration_since(from).as_secs_f64());
            }
            Err(why) => {
                self.failures.push(why);
                self.latency.push(f64::INFINITY);
            }
        }
    }

    fn absorb(&mut self, other: Replies) {
        self.latency.extend(other.latency);
        self.top_hits += other.top_hits;
        self.failures.extend(other.failures);
    }
}

/// The open loop's own validity figures.
struct OpenLoop {
    replies: Replies,
    /// How late each send ran against its due time, seconds.
    lateness: Vec<f64>,
    /// Outstanding requests a tenth of the way into the schedule and when
    /// the last request was sent.
    outstanding: (usize, usize),
}

/// Sends `schedule` (offset, observation) to `addr` over one connection
/// per core, request `i` on connection `i % connections`, so the `k`-th
/// reply on connection `c` answers request `c + k * connections`.
fn open_loop(addr: SocketAddr, inputs: &Inputs, schedule: &[(f64, usize)]) -> OpenLoop {
    let connections = measure::jobs();
    let mut replies = Replies::default();
    let streams: Vec<TcpStream> = match (0..connections)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect::<std::io::Result<_>>()
    {
        Ok(streams) => streams,
        Err(e) => {
            replies.failures.push(format!("open-loop connect: {e}"));
            return OpenLoop {
                replies,
                lateness: Vec::new(),
                outstanding: (0, 0),
            };
        }
    };
    let received = AtomicUsize::new(0);
    // `usize::MAX` until the sender is done, then the number it sent.
    let sent_total = AtomicUsize::new(usize::MAX);
    let start = Instant::now() + Duration::from_millis(20);
    let due = |offset: f64| start + Duration::from_secs_f64(offset);

    let mut lateness = Vec::with_capacity(schedule.len());
    let mut outstanding = (0, 0);
    let (arrivals, failures) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(&streams, &received, &sent_total, schedule.len()));
        let mut sent = 0usize;
        for (index, &(offset, obs)) in schedule.iter().enumerate() {
            let when = due(offset);
            let now = Instant::now();
            if when > now {
                std::thread::sleep(when - now);
            }
            lateness.push(Instant::now().saturating_duration_since(when).as_secs_f64());
            if index == schedule.len() / 10 {
                outstanding.0 = sent - received.load(Ordering::SeqCst);
            }
            if (&streams[index % connections])
                .write_all(inputs.observations[obs].request.as_bytes())
                .is_err()
            {
                break;
            }
            sent += 1;
        }
        outstanding.1 = sent - received.load(Ordering::SeqCst);
        sent_total.store(sent, Ordering::SeqCst);
        receiver.join().expect("receiver thread")
    });

    replies.failures.extend(failures);
    let sent = sent_total.load(Ordering::SeqCst);
    for (index, arrival) in arrivals.into_iter().take(sent).enumerate() {
        let (offset, obs) = schedule[index];
        match arrival {
            Some((line, at)) => replies.record(&line, &inputs.observations[obs], due(offset), at),
            None => {
                replies
                    .failures
                    .push(format!("no reply to request {index}"));
                replies.latency.push(f64::INFINITY);
            }
        }
    }
    OpenLoop {
        replies,
        lateness,
        outstanding,
    }
}

/// The open-loop receiver: reads reply lines from every connection as the
/// poller reports them readable, until every sent request is answered or
/// the grace period after the last send ends. Returns each of the
/// `requests` requests' reply line and arrival time, and transport
/// failures.
#[allow(clippy::type_complexity)]
fn receive(
    streams: &[TcpStream],
    received: &AtomicUsize,
    sent_total: &AtomicUsize,
    requests: usize,
) -> (Vec<Option<(String, Instant)>>, Vec<String>) {
    let mut arrivals: Vec<Option<(String, Instant)>> = (0..requests).map(|_| None).collect();
    let mut failures = Vec::new();
    let mut poller = match Poller::new() {
        Ok(poller) => poller,
        Err(e) => return (arrivals, vec![format!("poller: {e}")]),
    };
    for (conn, stream) in streams.iter().enumerate() {
        if let Err(e) = poller.register(stream.as_raw_fd(), conn as u64, true, false) {
            return (arrivals, vec![format!("poller register: {e}")]);
        }
    }
    let mut buffers: Vec<Vec<u8>> = vec![Vec::new(); streams.len()];
    // The request the next reply on each connection answers.
    let mut next: Vec<usize> = (0..streams.len()).collect();
    let mut open = streams.len();
    let mut chunk = vec![0u8; 64 << 10];
    let mut events = Vec::new();
    let mut finished_at: Option<Instant> = None;
    loop {
        let sent = sent_total.load(Ordering::SeqCst);
        if sent != usize::MAX {
            if received.load(Ordering::SeqCst) >= sent {
                break;
            }
            if finished_at.get_or_insert_with(Instant::now).elapsed() > GRACE {
                break;
            }
        }
        if open == 0 {
            break;
        }
        events.clear();
        if let Err(e) = poller.wait(&mut events, Some(Duration::from_millis(20))) {
            failures.push(format!("poller wait: {e}"));
            break;
        }
        for event in &events {
            let conn = event.token as usize;
            let n = match (&streams[conn]).read(&mut chunk) {
                Ok(0) | Err(_) => {
                    failures.push(format!("open-loop connection {conn} dropped"));
                    let _ = poller.deregister(streams[conn].as_raw_fd());
                    open -= 1;
                    continue;
                }
                Ok(n) => n,
            };
            let at = Instant::now();
            buffers[conn].extend_from_slice(&chunk[..n]);
            while let Some(end) = buffers[conn].iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = buffers[conn].drain(..=end).collect();
                let request = next[conn];
                next[conn] += streams.len();
                match arrivals.get_mut(request) {
                    Some(slot) => {
                        let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                        *slot = Some((text, at));
                        received.fetch_add(1, Ordering::SeqCst);
                    }
                    None => failures.push(format!("unrequested reply on connection {conn}")),
                }
            }
        }
    }
    (arrivals, failures)
}

/// Runs one blocking client per core against `addr` for `seconds`, each
/// sending a seeded sequence of observations with [`WINDOW`] requests in
/// flight: a new request goes out as each reply arrives. Returns the
/// replies, client by client in order, each correct reply's arrival (seconds
/// into the phase), and the phase's wall time.
fn closed_loop(addr: SocketAddr, inputs: &Inputs, seconds: f64) -> (Replies, Vec<f64>, f64) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let clients: Vec<(Replies, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..measure::jobs())
            .map(|client| {
                scope.spawn(move || {
                    let mut replies = Replies::default();
                    let mut done = Vec::new();
                    let mut control = match Control::connect(addr) {
                        Ok(control) => control,
                        Err(e) => {
                            replies.failures.push(format!("closed-loop connect: {e}"));
                            replies.latency.push(f64::INFINITY);
                            return (replies, done);
                        }
                    };
                    let mut rng =
                        Prng::seed_from_u64(measure::mix(inputs.seed, 200 + client as u64));
                    // Requests in flight on this connection, oldest first.
                    let mut in_flight: VecDeque<(Instant, usize)> = VecDeque::new();
                    loop {
                        while in_flight.len() < WINDOW && Instant::now() < deadline {
                            let k = rng.gen_range(0..OBSERVATIONS);
                            in_flight.push_back((Instant::now(), k));
                            if let Err(e) = control.write(&inputs.observations[k].request) {
                                replies.failures.push(format!("closed-loop send: {e}"));
                                break;
                            }
                        }
                        let Some((sent, k)) = in_flight.pop_front() else {
                            break;
                        };
                        match control.read() {
                            Ok(reply) => {
                                let at = Instant::now();
                                replies.record(reply, &inputs.observations[k], sent, at);
                                if replies.latency.last().is_some_and(|l| l.is_finite()) {
                                    done.push((at - started).as_secs_f64());
                                }
                            }
                            Err(e) => {
                                replies.failures.push(format!("closed-loop reply: {e}"));
                                replies.latency.extend(std::iter::repeat_n(
                                    f64::INFINITY,
                                    1 + in_flight.len(),
                                ));
                                break;
                            }
                        }
                    }
                    (replies, done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut all = Replies::default();
    let mut done = Vec::new();
    for (replies, arrivals) in clients {
        all.absorb(replies);
        done.extend(arrivals);
    }
    (all, done, wall)
}

/// Checks a `DIAG` reply against the in-process oracle; returns whether
/// the injected fault is in the reply's best set.
fn check_reply(line: &str, observation: &Observation) -> Result<bool, String> {
    if !line.starts_with("OK DIAG ") {
        return Err(format!("not OK DIAG: {}", truncate(line)));
    }
    let best = field(line, "best").ok_or_else(|| format!("no best= in {}", truncate(line)))?;
    if best != observation.best {
        return Err(format!(
            "best={best} but in-process best={}",
            observation.best
        ));
    }
    Ok(best
        .split(',')
        .any(|f| f.parse::<usize>().ok() == Some(observation.fault)))
}

fn truncate(line: &str) -> &str {
    &line[..line.len().min(120)]
}

/// The value of a `key=value` token in a reply line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split(' ')
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
}

/// A blocking request/reply connection. Each request goes out in one write
/// with Nagle off, so a round trip measures the server, not a delayed ACK.
struct Control {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Control {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            stream,
            reader,
            reply: String::new(),
        })
    }

    /// Sends one request line, newline included.
    fn write(&mut self, request: &str) -> std::io::Result<()> {
        self.stream.write_all(request.as_bytes())
    }

    /// Reads one reply line, without its newline.
    fn read(&mut self) -> std::io::Result<&str> {
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.reply.trim_end())
    }

    /// Sends one request line, newline included, and reads one reply.
    fn send(&mut self, request: &str) -> std::io::Result<&str> {
        self.write(request)?;
        self.read()
    }

    /// Sends one request line without its newline and reads one reply.
    fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.send(&format!("{line}\n")).map(str::to_owned)
    }
}

/// Numeric `key=value` fields of a `STATS` reply.
fn stats(client: &mut Control) -> BTreeMap<String, f64> {
    let reply = client.request("STATS").unwrap_or_default();
    reply
        .split(' ')
        .filter_map(|token| {
            let (key, value) = token.split_once('=')?;
            Some((key.to_owned(), value.parse().ok()?))
        })
        .collect()
}

/// Starts a server, loads the dictionary and answers the first `DIAG`
/// (which carries the deferred mapped decode). Returns the handle, the
/// control client, the `load_us=` of the `LOAD` reply and the set-up time.
fn start(inputs: &Inputs) -> Result<(ServerHandle, Control, f64, f64), String> {
    let begin = Instant::now();
    let handle = serve(&ServeConfig {
        workers: measure::jobs(),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let mut client = Control::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let load = client
        .request(&format!("LOAD {DICT} {}", inputs.path.display()))
        .map_err(|e| format!("LOAD: {e}"))?;
    let first = &inputs.observations[0];
    let reply = client
        .send(&first.request)
        .map(str::to_owned)
        .map_err(|e| format!("DIAG: {e}"))?;
    let seconds = begin.elapsed().as_secs_f64();
    if !load.starts_with("OK LOADED") {
        return Err(format!("LOAD replied {}", truncate(&load)));
    }
    check_reply(&reply, first)?;
    let load_us = field(&load, "load_us")
        .and_then(|v| v.parse().ok())
        .unwrap_or(f64::NAN);
    Ok((handle, client, load_us, seconds))
}

fn stop(handle: ServerHandle, mut client: Control) {
    let _ = client.request("SHUTDOWN");
    handle.wait();
}

/// Runs the workload once.
pub fn run(inputs: &Inputs, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    out.line(inputs.shape.clone());

    // Set-up: bind, LOAD, first DIAG — repeated; the last server stays up.
    let mut setups = Vec::with_capacity(measure::SETUP_REPEATS);
    let mut load_us = Vec::with_capacity(measure::SETUP_REPEATS);
    let mut live = None;
    for repeat in 0..measure::SETUP_REPEATS {
        std::thread::sleep(measure::SETUP_GAP);
        let id = tracer.enter("serve.setup", repeat as u64);
        let started = start(inputs);
        tracer.exit(id);
        out.attempted += 1;
        match started {
            Ok((handle, client, load, seconds)) => {
                setups.push(seconds);
                load_us.push(load);
                if let Some((handle, client)) = live.replace((handle, client)) {
                    stop(handle, client);
                }
            }
            Err(e) => {
                out.failed += 1;
                out.check(format!("set-up {repeat}: {e}"), false);
            }
        }
    }
    let Some((handle, mut client)) = live else {
        return out;
    };
    let addr = handle.addr();
    let rss_reset = measure::reset_peak_rss();
    let before = stats(&mut client);

    // Open loop at the fixed rate.
    let schedule = poisson(
        measure::mix(inputs.seed, 3),
        FIXED_RATE,
        OPEN_SHARE * seconds,
        OBSERVATIONS,
    );
    let open = open_loop(addr, inputs, &schedule);
    let fixed = Summary::of(&open.replies.latency);
    let mut sorted = open.replies.latency.clone();
    sorted.sort_by(f64::total_cmp);
    let fixed_p99 = if sorted.is_empty() {
        f64::NAN
    } else {
        measure::percentile(&sorted, 990)
    };
    let (backlog_start, backlog_end) = open.outstanding;
    let backlog_grew = backlog_end > backlog_start + (FIXED_RATE * LIMIT_S) as usize;
    out.line(format!(
        "open loop {FIXED_RATE} req/s for {:.1} s: n={} p50={:.3} ms p99={:.3} ms failed={} outstanding start={backlog_start} end={backlog_end} generator lateness median={:.1} us max={:.1} us; p99 <= {} ms with no growing backlog: {}",
        OPEN_SHARE * seconds,
        fixed.n,
        fixed.p50 * 1e3,
        fixed_p99 * 1e3,
        open.replies.failed(),
        measure::median(&open.lateness) * 1e6,
        open.lateness.iter().copied().fold(0.0, f64::max) * 1e6,
        LIMIT_S * 1e3,
        if fixed_p99 <= LIMIT_S && !backlog_grew {
            "met"
        } else {
            "missed"
        }
    ));

    // Closed loop: one blocking client per core.
    let (closed, done, wall) = closed_loop(addr, inputs, CLOSED_SHARE * seconds);
    let peak_rss = measure::peak_rss_mb();
    let after = stats(&mut client);
    let latency = Summary::sliced(&closed.latency, CLOSED_SLICE);
    let whole = Summary::of(&closed.latency);
    let completed = closed.latency.len() - closed.failed();
    let rate = measure::windowed_rate(&done, RATE_WINDOW, CLOSED_SHARE * seconds);
    out.line(format!(
        "closed loop {} clients for {wall:.3} s: n={} failed={} whole-run p50={:.3} ms {}={:.3} ms rate={:.1}/s",
        measure::jobs(),
        whole.n,
        closed.failed(),
        whole.p50 * 1e3,
        whole.tail_label(),
        whole.tail * 1e3,
        completed as f64 / wall
    ));

    let mut replies = open.replies;
    replies.absorb(closed);
    let requests = replies.latency.len();
    out.attempted += requests as u64;
    out.failed += replies.failed() as u64;
    out.check(
        format!(
            "every reply is OK DIAG with the in-process best set ({} failed{})",
            replies.failures.len(),
            replies
                .failures
                .first()
                .map_or(String::new(), |f| format!("; first: {f}"))
        ),
        replies.failures.is_empty(),
    );
    let diagnosed = requests - replies.failed();

    out.e2e("setup_s", measure::median(&setups));
    out.e2e("peak_rss_mb", peak_rss);
    out.e2e("p50_ms", latency.p50 * 1e3);
    out.e2e("rate_per_s", rate);
    out.line(format!(
        "p50_ms and tail_ms ({}) are closed-loop DIAG round trips, medians over slices of {CLOSED_SLICE} replies; rate_per_s is closed-loop correct replies per second, the median over {RATE_WINDOW} s windows",
        latency.tail_label()
    ));
    if !rss_reset {
        out.line("note peak_rss_mb covers the whole process: the peak mark could not be reset");
    }
    out.detail("tail_ms", latency.tail * 1e3, "ms", "lower");
    out.detail("open_p50_ms", fixed.p50 * 1e3, "ms", "lower");
    out.detail("open_p99_ms", fixed_p99 * 1e3, "ms", "lower");
    out.detail(
        "top_hit_ratio",
        replies.top_hits as f64 / diagnosed.max(1) as f64,
        "ratio",
        "higher, exact",
    );

    if tracer.on() {
        layers(&mut out, inputs, &mut client, tracer, fixed.p50);
        out.attempted += UNLOADED as u64;
        out.layer("store.load_us", measure::median(&load_us));
        let stat =
            |stats: &BTreeMap<String, f64>, key: &str| stats.get(key).copied().unwrap_or(0.0);
        let delta = |key: &str| stat(&after, key) - stat(&before, key);
        let per_request = requests.max(1) as f64;
        out.layer("serve.wakeups_per_req", delta("wakeups") / per_request);
        out.layer("serve.pipelined_ratio", delta("pipelined") / per_request);
        out.layer("serve.backpressure_stalls", delta("backpressure_stalls"));
        out.layer("serve.busy", delta("busy"));
    }
    stop(handle, client);
    out
}

/// Per-layer numbers from in-process replay of the same observations and
/// from the unloaded round trip.
fn layers(
    out: &mut Outcome,
    inputs: &Inputs,
    client: &mut Control,
    tracer: &mut Tracer,
    fixed_p50: f64,
) {
    let dictionary = &inputs.dictionary;
    let mut scratch = Vec::new();
    let mut parse = Vec::with_capacity(UNLOADED);
    let mut encode = Vec::with_capacity(UNLOADED);
    let mut score = Vec::with_capacity(UNLOADED);
    let mut rtt = Vec::with_capacity(UNLOADED);
    for k in 0..UNLOADED {
        let observation = &inputs.observations[k % OBSERVATIONS];
        let (reply, seconds) = tracer.time("serve.rtt", k as u64, || {
            client.send(&observation.request).map(str::to_owned)
        });
        rtt.push(seconds);
        if reply.map_or(true, |r| check_reply(&r, observation).is_err()) {
            out.failed += 1;
        }
        let line = observation.request.trim_end();
        let obs = line.rsplit(' ').next().unwrap_or_default();
        let (responses, s) = tracer.time("logic.parse", k as u64, || {
            obs.split('/')
                .map(str::parse::<MaskedBitVec>)
                .collect::<Result<Vec<_>, _>>()
        });
        parse.push(s);
        let responses = responses.expect("generated observations parse");
        let (encoded, s) = tracer.time("core.encode", k as u64, || {
            dictionary.encode_observed_masked(&responses)
        });
        encode.push(s);
        let encoded = encoded.expect("generated observations fit the dictionary");
        let (_, s) = tracer.time("core.score", k as u64, || {
            match_signatures_masked_into(dictionary.signatures(), &encoded, &mut scratch)
        });
        score.push(s);
    }
    let bytes = std::fs::read(&inputs.path).unwrap_or_default();
    let decode: Vec<f64> = (0..20)
        .map(|k| tracer.time("store.decode", k, || store::decode(&bytes)).1)
        .collect();
    let us = |samples: &[f64]| measure::median(samples) * 1e6;
    let (parse, encode, score, rtt) = (us(&parse), us(&encode), us(&score), us(&rtt));
    out.layer("logic.parse_us", parse);
    out.layer("core.encode_us", encode);
    out.layer("core.score_us", score);
    out.layer("store.decode_us", us(&decode));
    out.layer("serve.rtt_us", rtt);
    out.layer("serve.transport_us", rtt - parse - encode - score);
    out.layer("serve.wait_ms", fixed_p50 * 1e3 - rtt / 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seed_deterministic() {
        let a = poisson(9, 4000.0, 2.0, 100);
        assert_eq!(a, poisson(9, 4000.0, 2.0, 100));
        assert_ne!(a, poisson(10, 4000.0, 2.0, 100));
        // Arrivals rise within the window, and their count is near
        // rate × seconds (8000, standard deviation ≈ 89).
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(a
            .iter()
            .all(|&(t, obs)| (0.0..2.0).contains(&t) && obs < 100));
        assert!((7600..8400).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn fields_and_replies_parse() {
        let observation = Observation {
            request: String::new(),
            fault: 7,
            best: "3,7".to_owned(),
        };
        let reply = "OK DIAG quality=ranked known=10 distance=1 best=3,7 top=3:1:0.9,7:1:0.9";
        assert_eq!(field(reply, "best"), Some("3,7"));
        assert_eq!(check_reply(reply, &observation), Ok(true));
        assert!(check_reply("ERR nope", &observation).is_err());
        let wrong = reply.replace("best=3,7", "best=3");
        assert!(check_reply(&wrong, &observation).is_err());
    }

    #[test]
    fn replies_count_a_failed_check_as_infinitely_late() {
        let observation = Observation {
            request: String::new(),
            fault: 7,
            best: "7".to_owned(),
        };
        let t = Instant::now();
        let mut replies = Replies::default();
        replies.record("OK DIAG best=7", &observation, t, t);
        replies.record("OK BUSY", &observation, t, t);
        assert_eq!(replies.latency, [0.0, f64::INFINITY]);
        assert_eq!((replies.failed(), replies.top_hits), (1, 1));
        assert_eq!(replies.failures.len(), 1);
    }
}
