//! A concurrent diagnosis service over TCP — the tester-floor deployment
//! shape: one precomputed dictionary, thousands of diagnosis queries per
//! lot.
//!
//! The server speaks a line-delimited text protocol (one request per line,
//! space-separated tokens; replies start with `OK` or `ERR`):
//!
//! ```text
//! LOAD <name> <path>        open a dictionary (.sddb binary, .sddm shard
//!                           manifest, or v1 text) and register it
//! RELOAD <name>             re-open the artifact <name> was loaded from
//!                           (after `sdd patch`), keeping every resident
//!                           shard the patch left unchanged
//! DIAG <name> <obs>         diagnose one observation against <name>
//! BATCH <name> <obs>...     diagnose many; replies `OK BATCH <count>`
//!                           then one result line per observation
//! VOLUME <name> <lines> [seed=N] [threshold=F] [budget_ms=N]
//!                           volume diagnosis: the client streams <lines>
//!                           corpus lines (text or JSONL, see
//!                           `sdd_volume::corpus`) right after the request;
//!                           the server replies `OK VOLUME <lines>`, one
//!                           verdict-prefixed JSON record per corpus
//!                           record, then `OK SUMMARY <json>`
//! STATS                     registry and traffic counters
//! QUIT                      close this connection
//! SHUTDOWN                  drain in-flight requests and stop the server
//! ```
//!
//! Observations are ternary (`0`/`1`/`X`), matching what corrupted tester
//! datalogs actually contain: a pass/fail dictionary takes one `k`-bit
//! signature token; same/different and full dictionaries take `k`
//! slash-separated `m`-bit output responses (`01X/1X0/...`). Every query is
//! routed through the masked-diagnosis ladder
//! ([`sdd_core::diagnose`]) and reports where it landed
//! (`exact`, `consistent`, `ranked`) alongside the ranked candidates.
//!
//! `LOAD` opens every artifact through one opener,
//! [`ShardedReader::open_with`]: a `.sddm` manifest is a set of shard
//! files, and a whole `.sddb` or v1 text file is a set of one shard, the
//! file itself. Every name is therefore the same kind of registry entry —
//! a reader and one residency slot per shard — and `DIAG`, `BATCH` and
//! `VOLUME` diagnose it through the one loop every surface shares,
//! [`sdd_volume::diagnose_source`].
//!
//! `LOAD` validates the artifact (a manifest, or a whole `.sddb`'s header
//! and payload checksum) and reads no shard; a v1 text file carries no
//! checksum, so `LOAD` validates it by parsing it, and the parse stays
//! resident. Shards load lazily on the first request that needs them,
//! under the request deadline, in cone-priority order (shards whose
//! recorded output cone intersects the observation's failing outputs
//! first; a whole file records no cone). Every shard is still *scored* on
//! every query — signatures compare against shard-global baselines, so a
//! fault outside the failing cone can still be the best candidate, and
//! skipping it would break the bit-identical merge. A malformed
//! observation is refused before any shard loads.
//!
//! The registry keeps its footprint bounded under a configurable memory
//! cap with least-recently-used eviction at shard granularity: an evicted
//! shard — a whole dictionary's one shard included — goes cold but stays
//! registered, and the next request that needs it loads it again from its
//! file. `STATS` reports per-shard residency for shard sets.
//!
//! # Failure domains and the reply contract
//!
//! Every reply line starts with one of four verdicts, and infrastructure
//! failures degrade the verdict instead of killing the connection or the
//! worker:
//!
//! * `OK` — the request was served against complete evidence. `OK BUSY`
//!   is the overload shed: a connection accepted past
//!   [`ServeConfig::max_connections`] gets the one-line refusal and is
//!   closed, so excess clients queue at their end, not inside the pool.
//! * `PARTIAL` — a sharded `DIAG`/`BATCH` item answered from the shards
//!   that could be loaded, because some shard was missing, corrupt, or cut
//!   off by the per-request deadline (which bounds every shard load, the
//!   first one included). The reply carries
//!   `covered=<faults>/<total>` and a `degraded=<shard>:<reason>,...` list;
//!   the ranking is bit-identical to diagnosing the explicit
//!   sub-dictionary of the shards that *were* resident (a missing shard is
//!   just another form of masked evidence).
//! * `ERR` — a typed per-request failure (bad syntax, unknown dictionary,
//!   shape mismatch, every shard unavailable). The connection stays open.
//! * A stalled client is bounded, not trusted: a connection with no
//!   complete request within [`ServeConfig::idle_timeout`] is closed
//!   (slow-loris cutoff), and a write stalled past
//!   [`ServeConfig::write_timeout`] is connection death, never a wedged
//!   worker.
//!
//! # Transport
//!
//! One event-driven readiness loop ([`crate::reactor`]: epoll on Linux,
//! `poll(2)` on other unix targets) owns every socket: accept, read,
//! write, and the idle/write-stall timers. Complete request lines are
//! handed to the worker pool over an SPMC queue; workers execute the
//! CPU-bound diagnosis and push reply bytes to per-connection outbound
//! buffers the reactor drains on writability. Clients may **pipeline**:
//! many requests written in one burst are answered in order,
//! byte-identical to issuing them sequentially. A connection whose
//! outbound buffer passes the high-water mark stops being read until it
//! drains (write backpressure), so a slow reader can never balloon server
//! memory.
//!
//! `STATS` names the transport (`backend=reactor`) and reports its traffic
//! counters (`accepted=`, `wakeups=`, `backpressure_stalls=`,
//! `pipelined=`).

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sdd_core::diagnose::NoisyDiagnosisReport;
use sdd_core::Budget;
use sdd_logic::{BitVec, MaskedBitVec, SddError};
use sdd_store::{DictBytes, DictionaryKind, MmapMode, ShardedReader, StoredDictionary};
use sdd_volume::engine::TOP_CANDIDATES;
use sdd_volume::shard::ShardObservation;
use sdd_volume::{diagnose_source, quality_name, Shape, ShardSource, VolumeOptions, WireSink};

/// How the server is bound and provisioned.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, e.g. `127.0.0.1:4017` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Registry memory cap in bytes; least-recently-used dictionaries are
    /// evicted when loading would exceed it.
    pub memory_cap: usize,
    /// Connections served concurrently before the reactor starts shedding
    /// newcomers with a one-line `OK BUSY` refusal.
    pub max_connections: usize,
    /// How long a reply write may stall; a connection whose client stops
    /// reading for this long is closed.
    pub write_timeout: Duration,
    /// A connection with no *complete* request line for this long is closed
    /// (`ERR idle timeout ...`) — the slow-loris cutoff that keeps stalled
    /// clients from holding connection slots.
    pub idle_timeout: Duration,
    /// Optional wall-clock budget per request. It bounds every shard load
    /// of a `DIAG`, the first one included (a whole dictionary's cold load
    /// is a shard load): a request that runs out answers `PARTIAL` from the
    /// shards already resident (or `ERR` when none is), and remaining
    /// `BATCH` items answer `ERR deadline`. `None` means unbounded.
    pub request_deadline: Option<Duration>,
    /// How dictionary files are brought into memory: mapped zero-copy
    /// images ([`MmapMode::Auto`] maps on Linux, reads elsewhere) or owned
    /// buffers. `LOAD` validates a binary file through this mode and
    /// decodes nothing; the first request that needs a shard (a whole
    /// file's one shard included) loads it the same way, and a mapped
    /// shard's eviction is an `munmap`. Verdict bytes are identical in
    /// every mode.
    pub mmap: MmapMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            memory_cap: 64 << 20,
            max_connections: 256,
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(600),
            request_deadline: None,
            mmap: MmapMode::Auto,
        }
    }
}

/// One loaded artifact: the reader it was opened through and one residency
/// slot per shard. A whole `.sddb` or v1 text file opens as a set of one
/// shard, so every name is the same kind of entry.
struct Entry {
    reader: Arc<ShardedReader>,
    /// One slot per shard; `resident: None` until the first request that
    /// needs the shard loads it (or after eviction).
    slots: Vec<ShardSlot>,
    /// Microseconds the `LOAD` spent opening the artifact — surfaced per
    /// dictionary in `STATS` so slow loads are visible.
    load_us: u64,
}

impl Entry {
    /// Decoded-resident bytes across the entry's shards.
    fn bytes(&self) -> usize {
        self.slots.iter().map(|s| s.bytes).sum()
    }
}

/// Residency state of one shard. The reader itself is a few hundred bytes
/// and is not counted against the memory cap; only resident decoded shard
/// payloads are — a shard's mapped image is page cache, tracked separately.
#[derive(Default)]
struct ShardSlot {
    resident: Option<Arc<StoredDictionary>>,
    /// The shard file's mapped image, kept alongside the decoded form so
    /// `STATS` can report mapped bytes; eviction drops both, and dropping
    /// the image *is* the `munmap`.
    image: Option<DictBytes>,
    bytes: usize,
    last_used: u64,
    /// How many times this shard has been (re)loaded from disk — zero means
    /// the shard has never been needed.
    loads: u64,
}

impl ShardSlot {
    fn mapped_bytes(&self) -> usize {
        match &self.image {
            Some(image) if image.is_mapped() => image.len(),
            _ => 0,
        }
    }
}

/// The dictionary registry: named artifacts under a memory cap with
/// least-recently-used eviction at shard granularity. A whole dictionary's
/// one shard and every shard of a set are peer eviction units — a cold
/// query against one design evicts the stalest *shard* elsewhere, not
/// necessarily a whole design.
struct Registry {
    cap: usize,
    inner: Mutex<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    entries: HashMap<String, Entry>,
    /// The artifact path each name was `LOAD`ed from — what `RELOAD`
    /// re-opens after an in-place patch. Kept beside the entries (not in
    /// them) so replacing an entry mid-request cannot lose its provenance.
    paths: HashMap<String, String>,
    bytes: usize,
    clock: u64,
    evictions: u64,
}

impl RegistryInner {
    /// Evicts least-recently-used resident shards until the total fits
    /// `cap`. The shard named by `keep` is never evicted: an entry larger
    /// than the cap alone is admitted, because refusing it would make the
    /// service useless for that design.
    ///
    /// Only decoded-resident bytes count against the cap, so only they are
    /// evictable. An evicted shard drops its decoded form and its mapped
    /// image together — that drop is the `munmap` — and its entry stays
    /// registered: the next request that needs the shard loads it from
    /// disk again. A whole dictionary is evicted the same way.
    fn evict_over_cap(&mut self, cap: usize, keep: (&str, usize)) {
        while self.bytes > cap {
            let victim = self
                .entries
                .iter()
                .flat_map(|(name, entry)| {
                    entry
                        .slots
                        .iter()
                        .enumerate()
                        .filter(|(_, slot)| slot.resident.is_some())
                        .map(move |(index, slot)| (slot.last_used, name, index))
                })
                .filter(|&(_, name, index)| (name.as_str(), index) != keep)
                .min()
                .map(|(_, name, index)| (name.clone(), index));
            let Some((name, index)) = victim else {
                break;
            };
            if let Some(entry) = self.entries.get_mut(&name) {
                let slot = &mut entry.slots[index];
                slot.resident = None;
                slot.image = None; // the munmap
                self.bytes -= slot.bytes;
                slot.bytes = 0;
            }
            self.evictions += 1;
        }
    }
}

impl Registry {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            inner: Mutex::new(RegistryInner::default()),
        }
    }

    /// Locks the registry, recovering from poisoning: every mutation keeps
    /// the accounting consistent before releasing the lock, so the state a
    /// panicking worker left behind is safe to reuse — wedging every
    /// subsequent request on an `expect` would turn one bad request into a
    /// full outage.
    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers (or replaces) the artifact `reader` opened under `name`,
    /// reading no shard. Returns the new entry's resident bytes and how
    /// many resident shards it kept.
    ///
    /// A `LOAD` starts every slot cold, so a shard damaged on disk cannot
    /// hide behind a warm copy. A `RELOAD` (`reload`) carries over every
    /// slot whose record is unchanged (same file name, checksum, and fault
    /// range): after an in-place patch, only the rewritten shards — or the
    /// rewritten whole file — go cold. A v1 text file carries no checksum,
    /// so opening it parsed it; that parse becomes its resident shard.
    fn install(
        &self,
        name: &str,
        mut reader: ShardedReader,
        load_us: u64,
        reload: bool,
    ) -> (usize, usize) {
        let parsed = reader.take_parsed();
        let records = &reader.manifest().shards;
        let mut slots: Vec<ShardSlot> = records.iter().map(|_| ShardSlot::default()).collect();
        let mut kept = 0;
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(old) = inner.entries.get_mut(name).filter(|_| reload) {
            let old_records = &old.reader.manifest().shards;
            for (slot, record) in slots.iter_mut().zip(records) {
                let unchanged = old_records.iter().position(|old| {
                    old.file == record.file
                        && old.payload_checksum == record.payload_checksum
                        && old.fault_range() == record.fault_range()
                });
                if let Some(index) = unchanged {
                    // Taking the slot keeps its resident bytes counted in
                    // `inner.bytes`: they move to the new entry unchanged.
                    *slot = std::mem::take(&mut old.slots[index]);
                    kept += usize::from(slot.resident.is_some());
                }
            }
        }
        let slot = &mut slots[0];
        let parsed = parsed.filter(|_| slot.resident.is_none());
        let grew = parsed.is_some();
        if let Some(dictionary) = parsed {
            slot.bytes = dictionary.approx_bytes();
            slot.resident = Some(Arc::new(dictionary));
            slot.last_used = clock;
            slot.loads += 1;
            inner.bytes += slot.bytes;
        }
        let entry = Entry {
            reader: Arc::new(reader),
            slots,
            load_us,
        };
        let bytes = entry.bytes();
        if let Some(old) = inner.entries.insert(name.to_owned(), entry) {
            inner.bytes -= old.bytes();
        }
        if grew {
            inner.evict_over_cap(self.cap, (name, 0));
        }
        (bytes, kept)
    }

    /// Records the artifact path `name` was loaded from, for `RELOAD`.
    fn record_path(&self, name: &str, path: &str) {
        self.lock().paths.insert(name.to_owned(), path.to_owned());
    }

    /// The artifact path `name` was loaded from, if it ever loaded.
    fn source_path(&self, name: &str) -> Option<String> {
        self.lock().paths.get(name).cloned()
    }

    /// The reader registered under `name`, if any.
    fn reader(&self, name: &str) -> Option<Arc<ShardedReader>> {
        self.lock().entries.get(name).map(|e| Arc::clone(&e.reader))
    }

    /// Fetches one resident shard of the shard set `reader` opened and
    /// marks it most-recently-used; `None` when the shard is cold or
    /// evicted, or the entry no longer holds `reader` (a `RELOAD` or `LOAD`
    /// swapped it, so its slot `index` may cover other faults).
    fn resident_shard(
        &self,
        name: &str,
        reader: &Arc<ShardedReader>,
        index: usize,
    ) -> Option<Arc<StoredDictionary>> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let entry = inner
            .entries
            .get_mut(name)
            .filter(|e| Arc::ptr_eq(&e.reader, reader))?;
        let slot = entry.slots.get_mut(index)?;
        let dictionary = slot.resident.as_ref().map(Arc::clone)?;
        slot.last_used = clock;
        Some(dictionary)
    }

    /// Makes a freshly-loaded shard resident (shard file I/O happens in the
    /// worker, outside this lock), then evicts until the total fits the
    /// cap — the shard just inserted is never its own victim. The shard is
    /// cached only while the entry still holds `reader`, the shard set it
    /// was loaded through: if a `RELOAD` or `LOAD` swapped the entry
    /// mid-request, the shard serves this request uncached.
    fn insert_shard(
        &self,
        name: &str,
        reader: &Arc<ShardedReader>,
        index: usize,
        dictionary: StoredDictionary,
        image: DictBytes,
    ) -> Arc<StoredDictionary> {
        let bytes = dictionary.approx_bytes();
        let dictionary = Arc::new(dictionary);
        // Only a mapping is worth retaining (it is page cache, and
        // dropping it later is the munmap); an owned image would just
        // double the shard's heap next to its decoded form.
        let image = image.is_mapped().then_some(image);
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let Some(slot) = inner
            .entries
            .get_mut(name)
            .filter(|e| Arc::ptr_eq(&e.reader, reader))
            .and_then(|e| e.slots.get_mut(index))
        else {
            return dictionary;
        };
        let replaced = std::mem::replace(&mut slot.bytes, bytes);
        slot.resident = Some(Arc::clone(&dictionary));
        slot.image = image;
        slot.last_used = clock;
        slot.loads += 1;
        inner.bytes -= replaced;
        inner.bytes += bytes;
        inner.evict_over_cap(self.cap, (name, index));
        dictionary
    }

    fn stats(&self) -> RegistryStats {
        let inner = self.lock();
        let mut entries: Vec<StatsEntry> = inner
            .entries
            .iter()
            .map(|(name, entry)| StatsEntry {
                name: name.clone(),
                bytes: entry.bytes(),
                load_us: entry.load_us,
                mode: if entry.reader.mode().wants_map() {
                    "mapped"
                } else {
                    "owned"
                },
                mapped: entry.slots.iter().map(ShardSlot::mapped_bytes).sum(),
                // A whole file's one shard is reported by its entry alone.
                shards: if entry.reader.is_whole() {
                    Vec::new()
                } else {
                    entry
                        .slots
                        .iter()
                        .map(|s| ShardStat {
                            status: match (&s.resident, s.loads) {
                                (Some(_), _) => "resident",
                                (None, 0) => "cold",
                                (None, _) => "evicted",
                            },
                            bytes: s.bytes,
                        })
                        .collect()
                },
            })
            .collect();
        entries.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        let total_shards = entries.iter().map(|e| e.shards.len()).sum();
        let resident_shards = entries
            .iter()
            .flat_map(|e| &e.shards)
            .filter(|s| s.status == "resident")
            .count();
        RegistryStats {
            dicts: inner.entries.len(),
            bytes: inner.bytes,
            mapped: entries.iter().map(|e| e.mapped).sum(),
            evictions: inner.evictions,
            resident_shards,
            total_shards,
            entries,
        }
    }
}

/// A consistent snapshot of the registry for `STATS`.
struct RegistryStats {
    dicts: usize,
    /// Decoded-resident bytes — the quantity the memory cap bounds.
    bytes: usize,
    /// Mapped image bytes across every entry — page cache the kernel can
    /// reclaim, deliberately outside the cap.
    mapped: usize,
    evictions: u64,
    /// Resident shards across every sharded entry.
    resident_shards: usize,
    /// Total shards across every sharded entry.
    total_shards: usize,
    /// Per dictionary, sorted by name.
    entries: Vec<StatsEntry>,
}

struct StatsEntry {
    name: String,
    bytes: usize,
    load_us: u64,
    /// `"mapped"` when the entry's bytes come from a mapping (or, for a
    /// sharded entry, its shards load through one), else `"owned"`.
    mode: &'static str,
    /// Mapped image bytes currently held for this entry.
    mapped: usize,
    /// Empty for whole dictionaries; per-shard residency otherwise.
    shards: Vec<ShardStat>,
}

struct ShardStat {
    status: &'static str,
    bytes: usize,
}

/// State shared by the reactor and every worker.
pub(crate) struct Shared {
    registry: Registry,
    pub(crate) shutting_down: AtomicBool,
    pub(crate) requests: AtomicU64,
    diagnoses: AtomicU64,
    /// Connections refused with `OK BUSY` under overload.
    busy: AtomicU64,
    /// Sharded diagnoses answered with a degraded `PARTIAL` verdict.
    partial: AtomicU64,
    /// Connections currently admitted.
    pub(crate) active: AtomicUsize,
    /// Connections the reactor accepted.
    pub(crate) accepted: AtomicU64,
    /// Returns from the reactor's poller wait.
    pub(crate) wakeups: AtomicU64,
    /// Transitions into write backpressure — a connection whose outbound
    /// buffer crossed the high-water mark and stopped being read.
    pub(crate) backpressure_stalls: AtomicU64,
    /// Requests answered from bytes that were already buffered behind an
    /// earlier request on the same connection — the pipelining win.
    pub(crate) pipelined: AtomicU64,
    addr: SocketAddr,
    /// Size of the worker pool, reported by `STATS`.
    pub(crate) workers: usize,
    /// How `LOAD` brings dictionary files into memory, copied out of
    /// [`ServeConfig::mmap`].
    mmap: MmapMode,
    /// Connection and request limits, copied out of [`ServeConfig`].
    pub(crate) limits: Limits,
}

/// The failure-domain knobs every connection handler consults.
pub(crate) struct Limits {
    pub(crate) max_connections: usize,
    pub(crate) write_timeout: Duration,
    pub(crate) idle_timeout: Duration,
    pub(crate) request_deadline: Option<Duration>,
}

/// Wall-clock budget of one in-flight request — the serving analog of the
/// construction-time [`Budget`]. Shard loads and batch items check it
/// between units of work and degrade (`PARTIAL` / `ERR deadline`) instead
/// of overrunning.
pub(crate) struct RequestClock {
    start: Instant,
    budget: Budget,
}

impl RequestClock {
    pub(crate) fn new(limit: Option<Duration>) -> Self {
        Self {
            start: Instant::now(),
            budget: limit.map_or_else(Budget::unlimited, Budget::deadline),
        }
    }

    fn expired(&self) -> bool {
        !self.budget.allows(0, self.start.elapsed())
    }
}

/// A running server: its bound address and the handles needed to stop it.
///
/// Obtained from [`serve`]; dropping the handle does **not** stop the
/// server — call [`shutdown`](Self::shutdown) or send `SHUTDOWN` over a
/// connection, then [`wait`](Self::wait).
pub struct ServerHandle {
    shared: Arc<Shared>,
    reactor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Requests the same graceful shutdown a `SHUTDOWN` command does:
    /// stop accepting, finish in-flight requests, release the port.
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Blocks until the server has fully drained and every thread exited.
    pub fn wait(self) {
        let _ = self.reactor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// Flags the shutdown and pokes the reactor loose from its wait with a
/// throwaway connection: the listener turns readable.
pub(crate) fn begin_shutdown(shared: &Shared) {
    if !shared.shutting_down.swap(true, Ordering::SeqCst) {
        let _ = TcpStream::connect(shared.addr);
    }
}

/// Binds the listener and spawns the reactor and its worker pool.
///
/// Returns once the port is bound; serving continues in the background
/// until a `SHUTDOWN` request (or [`ServerHandle::shutdown`]) drains it.
///
/// # Errors
///
/// [`SddError::Io`] when the address cannot be bound or the reactor
/// cannot be set up.
pub fn serve(config: &ServeConfig) -> Result<ServerHandle, SddError> {
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| SddError::io(config.addr.clone(), &e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| SddError::io(config.addr.clone(), &e))?;
    let shared = Arc::new(Shared {
        registry: Registry::new(config.memory_cap),
        shutting_down: AtomicBool::new(false),
        requests: AtomicU64::new(0),
        diagnoses: AtomicU64::new(0),
        busy: AtomicU64::new(0),
        partial: AtomicU64::new(0),
        active: AtomicUsize::new(0),
        accepted: AtomicU64::new(0),
        wakeups: AtomicU64::new(0),
        backpressure_stalls: AtomicU64::new(0),
        pipelined: AtomicU64::new(0),
        addr,
        workers: config.workers.max(1),
        mmap: config.mmap,
        limits: Limits {
            max_connections: config.max_connections.max(1),
            write_timeout: config.write_timeout,
            idle_timeout: config.idle_timeout,
            request_deadline: config.request_deadline,
        },
    });
    let (reactor, workers) = crate::serve_reactor::spawn(listener, Arc::clone(&shared))
        .map_err(|e| SddError::io("serve reactor", &e))?;
    Ok(ServerHandle {
        shared,
        reactor,
        workers,
    })
}

/// A worker's reusable buffer for the parsed per-test responses of the
/// current request.
pub(crate) type Scratch = Vec<MaskedBitVec>;

/// Refuses one connection under overload: a one-line `OK BUSY` reply, then
/// the stream drops closed. The client saw an explicit verdict and can
/// retry with backoff; the worker pool never saw the connection.
///
/// The write is a **single non-blocking attempt**: the refusal line always
/// fits a fresh socket's empty send buffer, and a client too slow (or too
/// hostile) to have one ready forfeits the courtesy line instead of
/// stalling admission — shedding must never cost more than one syscall.
pub(crate) fn shed_connection(stream: &TcpStream, shared: &Shared) {
    shared.busy.fetch_add(1, Ordering::Relaxed);
    if let Err(e) = stream.set_nonblocking(true) {
        eprintln!("sdd-serve: set_nonblocking (shed) failed: {e}");
    }
    let line = format!(
        "OK BUSY active={} max={}\n",
        shared.active.load(Ordering::SeqCst),
        shared.limits.max_connections,
    );
    let _ = (&*stream).write(line.as_bytes());
}

/// Appends one complete protocol line (newline-terminated) to a reply
/// buffer.
pub(crate) fn push_line(out: &mut Vec<u8>, line: &str) {
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
}

/// Executes one **worker verb** request line — `LOAD`, `RELOAD`, `DIAG`,
/// `BATCH`, the env-gated `PANIC` test hook, or an unknown verb —
/// appending the complete reply line(s) to `out`.
///
/// The reactor's workers call it once per pipelined request. The reactor
/// routes the inline verbs (`STATS`, `QUIT`, `SHUTDOWN`) and the
/// corpus-reading `VOLUME` verb elsewhere, so they never reach here.
/// `PANIC` really panics — containment is the caller's `catch_unwind`.
pub(crate) fn execute_line(
    request: &str,
    shared: &Arc<Shared>,
    scratch: &mut Scratch,
    clock: &RequestClock,
    out: &mut Vec<u8>,
) {
    let mut tokens = request.split_whitespace();
    let verb = tokens.next().unwrap_or_default().to_ascii_uppercase();
    match verb.as_str() {
        "LOAD" => {
            let reply = match (tokens.next(), tokens.next(), tokens.next()) {
                (Some(name), Some(path), None) => load_reply(name, path, shared, false),
                _ => err_reply("usage: LOAD <name> <path>"),
            };
            push_line(out, &reply);
        }
        "RELOAD" => {
            let reply = match (tokens.next(), tokens.next()) {
                (Some(name), None) => match shared.registry.source_path(name) {
                    Some(path) => load_reply(name, &path, shared, true),
                    None => err_reply(&format!(
                        "unknown dictionary {name:?}: RELOAD needs a prior LOAD"
                    )),
                },
                _ => err_reply("usage: RELOAD <name>"),
            };
            push_line(out, &reply);
        }
        "DIAG" => {
            let reply = match (tokens.next(), tokens.next(), tokens.next()) {
                (Some(name), Some(obs), None) => diag_reply(name, obs, shared, scratch, clock),
                _ => err_reply("usage: DIAG <dict> <observation>"),
            };
            push_line(out, &reply);
        }
        "BATCH" => match tokens.next() {
            Some(name) => {
                let observations: Vec<&str> = tokens.collect();
                if observations.is_empty() {
                    // An empty batch is a malformed request, not zero work:
                    // replying `OK BATCH 0` would hide a truncated datalog.
                    push_line(
                        out,
                        &err_reply("empty batch: BATCH needs at least one observation"),
                    );
                } else {
                    push_line(out, &format!("OK BATCH {}", observations.len()));
                    for (index, obs) in observations.iter().enumerate() {
                        // The counted-lines contract holds even when the
                        // request deadline expires mid-batch: remaining
                        // items get explicit `ERR deadline` result lines,
                        // never a truncated reply.
                        let reply = if clock.expired() {
                            err_reply("deadline: request budget exhausted before this item")
                        } else {
                            diag_reply(name, obs, shared, scratch, clock)
                        };
                        push_line(out, &format!("{index} {reply}"));
                    }
                }
            }
            None => push_line(out, &err_reply("usage: BATCH <dict> <obs>...")),
        },
        // Test hook: deliberately panics a worker mid-request so the
        // panic-containment path is exercisable end-to-end. Inert unless
        // the operator opts in via the environment.
        "PANIC" if std::env::var_os("SDD_SERVE_TEST_PANIC").is_some() => {
            panic!("PANIC requested with SDD_SERVE_TEST_PANIC set");
        }
        other => {
            push_line(out, &err_reply(&format!("unknown command {other:?}")));
        }
    }
}

/// Formats the complete `OK STATS ...` reply line — registry snapshot,
/// traffic counters, transport counters, and per-dictionary residency.
pub(crate) fn stats_reply(shared: &Shared) -> String {
    let stats = shared.registry.stats();
    let mut reply = format!(
        "OK STATS workers={} dicts={} bytes={} mapped={} cap={} requests={} diags={} evictions={} busy={} partial={} active={} backend=reactor accepted={} wakeups={} backpressure_stalls={} pipelined={}",
        shared.workers,
        stats.dicts,
        stats.bytes,
        stats.mapped,
        shared.registry.cap,
        shared.requests.load(Ordering::Relaxed),
        shared.diagnoses.load(Ordering::Relaxed),
        stats.evictions,
        shared.busy.load(Ordering::Relaxed),
        shared.partial.load(Ordering::Relaxed),
        shared.active.load(Ordering::SeqCst),
        shared.accepted.load(Ordering::Relaxed),
        shared.wakeups.load(Ordering::Relaxed),
        shared.backpressure_stalls.load(Ordering::Relaxed),
        shared.pipelined.load(Ordering::Relaxed),
    );
    if stats.total_shards > 0 {
        reply.push_str(&format!(
            " shards={}/{}",
            stats.resident_shards, stats.total_shards
        ));
    }
    for entry in &stats.entries {
        reply.push_str(&format!(
            " dict={}:{}:{}us:mode={}:mapped={}",
            entry.name, entry.bytes, entry.load_us, entry.mode, entry.mapped
        ));
        for (index, shard) in entry.shards.iter().enumerate() {
            reply.push_str(&format!(
                " shard={}.{index}:{}:{}",
                entry.name, shard.status, shard.bytes
            ));
        }
    }
    reply
}

pub(crate) fn err_reply(message: &str) -> String {
    // Replies are single lines; scrub any newline an error message carries.
    format!("ERR {}", message.replace('\n', " "))
}

/// Opens the artifact at `path` in the server's mmap mode and registers it
/// under `name`, reading no shard (a v1 text file, which carries no
/// checksum, is parsed). With `reload` set this is `RELOAD`: every resident shard
/// whose record is unchanged stays resident — the one shard of an
/// unchanged whole file included — and only rewritten shards go cold.
fn load_reply(name: &str, path: &str, shared: &Arc<Shared>, reload: bool) -> String {
    let start = Instant::now();
    // The opener validates a binary header's declared payload length
    // against the file length *before* buffering or mapping, so a corrupt
    // header claiming a huge payload cannot make the server allocate it,
    // and a truncated file can never SIGBUS a mapped read.
    let reader = match ShardedReader::open_with(path, shared.mmap) {
        Ok(reader) => reader,
        Err(e) => return err_reply(&e.to_string()),
    };
    let m = reader.manifest();
    let (kind, faults, tests, shards) = (m.kind.name(), m.faults, m.tests, reader.shard_count());
    let whole = reader.is_whole();
    // A whole binary file was validated through a mapping of this length.
    let mapped = (whole && reader.mode().wants_map())
        .then(|| sdd_store::HEADER_LEN + m.shards[0].payload_len);
    let load_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    let (bytes, kept) = shared.registry.install(name, reader, load_us, reload);
    shared.registry.record_path(name, path);
    if !whole {
        return if reload {
            format!(
                "OK RELOADED {name} kind={kind} faults={faults} tests={tests} shards={shards} kept={kept} load_us={load_us}"
            )
        } else {
            format!(
                "OK LOADED {name} kind={kind} faults={faults} tests={tests} bytes={bytes} load_us={load_us} shards={shards}"
            )
        };
    }
    let verb = if reload { "RELOADED" } else { "LOADED" };
    let mut reply = format!(
        "OK {verb} {name} kind={kind} faults={faults} tests={tests} bytes={bytes} load_us={load_us}"
    );
    if let Some(mapped) = mapped {
        reply.push_str(&format!(" mode=mapped mapped={mapped}"));
    }
    if reload {
        reply.push_str(&format!(" kept={kept}"));
    }
    reply
}

fn diag_reply(
    name: &str,
    obs: &str,
    shared: &Arc<Shared>,
    scratch: &mut Scratch,
    clock: &RequestClock,
) -> String {
    let Some(source) = resolve(name, shared) else {
        return err_reply(&format!("no dictionary loaded as {name:?}"));
    };
    shared.diagnoses.fetch_add(1, Ordering::Relaxed);
    diag_line(&source, obs, shared, scratch, clock).unwrap_or_else(|e| err_reply(&e.to_string()))
}

/// The dictionary registered under `name`, as the [`ShardSource`] every
/// diagnosis verb runs on; `None` when nothing is registered.
fn resolve<'a>(name: &'a str, shared: &'a Arc<Shared>) -> Option<RegistrySource<'a>> {
    let reader = shared.registry.reader(name)?;
    Some(RegistrySource {
        name,
        reader,
        shared,
    })
}

/// Diagnoses one observation through [`diagnose_source`], under the
/// request's deadline, and formats the reply line. Whatever could not join
/// the merge — a missing or corrupt shard, or one the deadline cut off —
/// turns the verdict `PARTIAL`, with `covered=<faults>/<total>` and a
/// `degraded=<shard>:<reason>,...` list; the ranking is then bit-identical
/// to diagnosing the sub-dictionary of the shards that did join.
fn diag_line(
    source: &dyn ShardSource,
    obs: &str,
    shared: &Shared,
    scratch: &mut Scratch,
    clock: &RequestClock,
) -> Result<String, SddError> {
    let signature: MaskedBitVec;
    let observation = if source.shape().kind == DictionaryKind::PassFail {
        signature = obs.parse()?;
        ShardObservation::Signature(&signature)
    } else {
        scratch.clear();
        for token in obs.split('/') {
            scratch.push(token.parse()?);
        }
        ShardObservation::Responses(scratch)
    };
    let diagnosis = diagnose_source(source, observation, &clock.budget, clock.start)
        .map_err(|unserved| unserved.error)?;
    let fields = report_fields(&diagnosis.report);
    if diagnosis.degraded.is_empty() {
        return Ok(format!("OK DIAG {fields}"));
    }
    shared.partial.fetch_add(1, Ordering::Relaxed);
    let degraded: Vec<String> = diagnosis
        .degraded
        .iter()
        .map(|(shard, reason)| format!("{shard}:{reason}"))
        .collect();
    Ok(format!(
        "PARTIAL DIAG {fields} covered={}/{} degraded={}",
        diagnosis.covered,
        source.fault_count(),
        degraded.join(","),
    ))
}

/// Fetches one shard: the resident copy when warm, else loads the shard
/// file (I/O outside the registry lock) and makes it resident. Under a
/// mapped mode the shard's image rides along into the registry slot, so
/// evicting the slot later is the `munmap`.
fn fetch_shard(
    name: &str,
    reader: &Arc<ShardedReader>,
    index: usize,
    shared: &Arc<Shared>,
) -> Result<Arc<StoredDictionary>, SddError> {
    if let Some(dictionary) = shared.registry.resident_shard(name, reader, index) {
        return Ok(dictionary);
    }
    let (image, dictionary) = reader.load_shard_with_image(index)?;
    Ok(shared
        .registry
        .insert_shard(name, reader, index, dictionary, image))
}

/// The serve-side [`ShardSource`]: shards fetch lazily through the LRU
/// registry, so a warm shard costs a registry hit and a cold one loads
/// (and may evict elsewhere) — exactly the `DIAG` economics, applied per
/// device. Cones come from the manifest's per-shard records; a whole file
/// records none.
struct RegistrySource<'a> {
    name: &'a str,
    reader: Arc<ShardedReader>,
    shared: &'a Arc<Shared>,
}

impl ShardSource for RegistrySource<'_> {
    fn shape(&self) -> Shape {
        self.reader.manifest().into()
    }
    fn fault_count(&self) -> usize {
        self.reader.manifest().faults
    }
    fn shard_count(&self) -> usize {
        self.reader.shard_count()
    }
    fn fault_start(&self, shard: usize) -> usize {
        self.reader.manifest().shards[shard].fault_start
    }
    fn fetch(&self, shard: usize) -> Result<Arc<StoredDictionary>, SddError> {
        fetch_shard(self.name, &self.reader, shard, self.shared)
    }
    fn resident(&self, shard: usize) -> Option<Arc<StoredDictionary>> {
        self.shared
            .registry
            .resident_shard(self.name, &self.reader, shard)
    }
    fn fault_cone(&self, fault: usize) -> Option<&BitVec> {
        self.reader.fault_cone(fault)
    }
}

/// The usage line a malformed `VOLUME` header is answered with.
pub(crate) const VOLUME_USAGE: &str =
    "usage: VOLUME <dict> <lines> [seed=N] [threshold=F] [budget_ms=N]";

/// Serves one `VOLUME` request whose counted corpus lines the reactor
/// already read off the wire: a worker streams them through
/// [`sdd_volume::run`] against the named dictionary and appends the
/// complete framed reply to `out`. The reply is `OK VOLUME <lines>`, one
/// verdict-prefixed JSON record per corpus record, then
/// `OK SUMMARY <json>` — stripping the verdict tokens recovers the exact
/// JSONL report the `sdd volume` CLI writes for the same corpus.
///
/// A failure after the count was known (bad option, unknown dictionary)
/// has still consumed the corpus and yields a single `ERR` line, so the
/// line protocol stays in sync for the next request.
pub(crate) fn execute_volume(
    request: &str,
    corpus: Vec<String>,
    shared: &Arc<Shared>,
    out: &mut Vec<u8>,
) {
    let mut tokens = request.split_whitespace();
    let _verb = tokens.next();
    let (name, count) = match (tokens.next(), tokens.next().map(str::parse::<usize>)) {
        (Some(name), Some(Ok(count))) => (name, count),
        // The reactor answers malformed headers inline and never buffers a
        // corpus for them; this arm is a defensive byte-identical fallback.
        _ => return push_line(out, &err_reply(VOLUME_USAGE)),
    };
    // The per-device budget (not per-request — a corpus is long-running by
    // design) defaults to the configured request deadline.
    let mut options = VolumeOptions {
        budget: shared
            .limits
            .request_deadline
            .map_or_else(Budget::unlimited, Budget::deadline),
        ..VolumeOptions::default()
    };
    for token in tokens {
        let applied = match token.split_once('=') {
            Some(("seed", v)) => v.parse().map(|seed| options.seed = seed).is_ok(),
            Some(("threshold", v)) => v.parse().map(|t| options.threshold = t).is_ok(),
            Some(("budget_ms", v)) => v
                .parse()
                .map(|ms| options.budget = Budget::deadline(Duration::from_millis(ms)))
                .is_ok(),
            _ => false,
        };
        if !applied {
            return push_line(out, &err_reply(&format!("bad option {token:?}")));
        }
    }
    let Some(source) = resolve(name, shared) else {
        return push_line(
            out,
            &err_reply(&format!("no dictionary loaded as {name:?}")),
        );
    };
    push_line(out, &format!("OK VOLUME {count}"));
    let mut lines = corpus
        .into_iter()
        .map(|line| -> io::Result<String> { Ok(line) });
    // The engine's only I/O is the in-memory corpus and sink, so `run`
    // cannot fail here; the `ERR` arm keeps the contract visible anyway.
    match sdd_volume::run(&source, &mut lines, &mut WireSink(&mut *out), &options) {
        Ok(summary) => {
            shared
                .diagnoses
                .fetch_add(summary.devices as u64, Ordering::Relaxed);
            shared
                .partial
                .fetch_add(summary.partial as u64, Ordering::Relaxed);
        }
        Err(e) => push_line(out, &err_reply(&e.to_string())),
    }
}

/// Formats the field tail of a diagnosis reply:
/// `quality=<q> known=<b> distance=<d> best=<i,j> top=<f:miss:conf,...>`.
/// The caller prepends the verdict (`OK DIAG` or `PARTIAL DIAG`).
fn report_fields(report: &NoisyDiagnosisReport) -> String {
    let best: Vec<String> = report.best.iter().map(ToString::to_string).collect();
    let top: Vec<String> = report
        .ranking
        .iter()
        .take(TOP_CANDIDATES)
        .map(|c| format!("{}:{}:{:.4}", c.fault, c.mismatches, c.confidence))
        .collect();
    format!(
        "quality={} known={} distance={} best={} top={}",
        quality_name(report.quality),
        report.known,
        report.distance(),
        best.join(","),
        top.join(","),
    )
}

/// A minimal blocking client for the line protocol — what the smoke tests,
/// examples, and one-off scripts drive the server with.
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running server, with Nagle's algorithm off so a
    /// request goes out without waiting for the server's delayed ACK.
    ///
    /// # Errors
    ///
    /// Propagates the connect error.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream),
        })
    }

    /// Writes the request and its newline in one write.
    fn send(&mut self, request: &str) -> io::Result<()> {
        let stream = self.reader.get_mut();
        stream.write_all(format!("{request}\n").as_bytes())?;
        stream.flush()
    }

    fn receive(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_owned())
    }

    /// Sends one request line and reads one reply line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, including the server closing mid-reply.
    pub fn request(&mut self, request: &str) -> io::Result<String> {
        self.send(request)?;
        self.receive()
    }

    /// Sends a `BATCH` request and reads the counted multi-line reply,
    /// returning one result line per observation.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a non-`OK BATCH` first line comes back as
    /// [`io::ErrorKind::InvalidData`] carrying the server's reply.
    pub fn batch(&mut self, dictionary: &str, observations: &[&str]) -> io::Result<Vec<String>> {
        self.send(&format!("BATCH {dictionary} {}", observations.join(" ")))?;
        let head = self.receive()?;
        let count: usize = head
            .strip_prefix("OK BATCH ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, head.clone()))?;
        (0..count).map(|_| self.receive()).collect()
    }

    /// Streams `corpus` through the serve `VOLUME` verb and returns the
    /// reply lines: one verdict-prefixed JSON record per corpus record,
    /// closed by the `OK SUMMARY <json>` line (always the last element).
    /// `options` is the raw option tail (e.g. `"seed=7 threshold=0.05"`),
    /// or empty.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a non-`OK VOLUME` header comes back as
    /// [`io::ErrorKind::InvalidData`] carrying the server's reply.
    pub fn volume(
        &mut self,
        dictionary: &str,
        corpus: &[&str],
        options: &str,
    ) -> io::Result<Vec<String>> {
        let mut payload = format!("VOLUME {dictionary} {}", corpus.len());
        if !options.is_empty() {
            payload.push(' ');
            payload.push_str(options);
        }
        payload.push('\n');
        for line in corpus {
            payload.push_str(line);
            payload.push('\n');
        }
        let stream = self.reader.get_mut();
        stream.write_all(payload.as_bytes())?;
        stream.flush()?;
        let head = self.receive()?;
        if head.strip_prefix("OK VOLUME ").is_none() {
            return Err(io::Error::new(io::ErrorKind::InvalidData, head));
        }
        let mut lines = Vec::new();
        loop {
            let line = self.receive()?;
            let done = line.starts_with("OK SUMMARY ");
            lines.push(line);
            if done {
                return Ok(lines);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_core::PassFailDictionary;
    use std::ops::Range;
    use std::path::{Path, PathBuf};

    fn pf() -> StoredDictionary {
        StoredDictionary::PassFail(PassFailDictionary::build(
            &sdd_core::example::paper_example(),
        ))
    }

    /// A fresh scratch directory for one test.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sdd-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Saves the paper example as the whole file `dir/<stem>.sddb`, opened.
    fn whole(dir: &Path, stem: &str) -> ShardedReader {
        let path = dir.join(format!("{stem}.sddb"));
        sdd_store::save(&path, &pf()).unwrap();
        ShardedReader::open(&path).unwrap()
    }

    /// Writes the paper example as the shard set `dir/<stem>.sddm`, opened.
    fn shard_set(dir: &Path, stem: &str, ranges: &[Range<usize>]) -> ShardedReader {
        let path = dir.join(format!("{stem}.sddm"));
        sdd_store::write_sharded(&path, &pf(), ranges, None).unwrap();
        ShardedReader::open(&path).unwrap()
    }

    /// The reader registered under `name`, fetched as a request does.
    fn reader(registry: &Registry, name: &str) -> Arc<ShardedReader> {
        registry.reader(name).expect("registered")
    }

    /// Loads shard `index` of `name` through the reader the entry holds and
    /// makes it resident, as a request's cold fetch does.
    fn warm(registry: &Registry, name: &str, index: usize) {
        let reader = reader(registry, name);
        let (image, dictionary) = reader.load_shard_with_image(index).unwrap();
        registry.insert_shard(name, &reader, index, dictionary, image);
    }

    fn is_resident(registry: &Registry, name: &str) -> bool {
        registry
            .resident_shard(name, &reader(registry, name), 0)
            .is_some()
    }

    #[test]
    fn registry_evicts_least_recently_used_under_cap() {
        let dir = scratch("lru");
        let one = pf().approx_bytes();
        let registry = Registry::new(2 * one);
        for (name, load_us) in [("a", 11), ("b", 22)] {
            registry.install(name, whole(&dir, name), load_us, false);
            warm(&registry, name, 0);
        }
        assert!(is_resident(&registry, "a"), "a is now most recently used");
        registry.install("c", whole(&dir, "c"), 33, false);
        warm(&registry, "c", 0); // over cap: evicts b, the LRU entry
        let stats = registry.stats();
        assert_eq!((stats.dicts, stats.evictions), (3, 1));
        assert!(stats.bytes <= 2 * one);
        let summary: Vec<(&str, usize, u64)> = stats
            .entries
            .iter()
            .map(|e| (e.name.as_str(), e.bytes, e.load_us))
            .collect();
        assert_eq!(
            summary,
            vec![("a", one, 11), ("b", 0, 22), ("c", one, 33)],
            "per-dictionary stats are sorted by name and keep load times"
        );
        assert!(
            !is_resident(&registry, "b"),
            "b was evicted, and stays registered cold"
        );
        assert!(is_resident(&registry, "a") && is_resident(&registry, "c"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn registry_admits_an_oversized_dictionary_alone() {
        let dir = scratch("oversized");
        let registry = Registry::new(1); // cap smaller than any dictionary
        registry.install("big", whole(&dir, "big"), 0, false);
        warm(&registry, "big", 0);
        let stats = registry.stats();
        assert_eq!(
            (stats.bytes, stats.evictions),
            (pf().approx_bytes(), 0),
            "sole resident dictionary is never evicted"
        );
        registry.install("bigger", whole(&dir, "bigger"), 0, false);
        warm(&registry, "bigger", 0);
        let stats = registry.stats();
        assert_eq!(
            (stats.bytes, stats.evictions),
            (pf().approx_bytes(), 1),
            "previous dictionary made room"
        );
        assert!(!is_resident(&registry, "big") && is_resident(&registry, "bigger"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replacing_a_dictionary_does_not_leak_accounting() {
        let dir = scratch("replace");
        let one = pf().approx_bytes();
        let registry = Registry::new(10 * one);
        registry.install("a", whole(&dir, "a"), 5, false);
        warm(&registry, "a", 0);
        registry.install("a", whole(&dir, "a"), 7, false);
        warm(&registry, "a", 0);
        let stats = registry.stats();
        assert_eq!((stats.dicts, stats.bytes, stats.evictions), (1, one, 0));
        assert_eq!(
            stats.entries[0].load_us, 7,
            "reload refreshes the load time"
        );
        // A RELOAD of the unchanged file keeps the resident shard, and its
        // bytes, exactly once.
        assert_eq!(registry.install("a", whole(&dir, "a"), 9, true), (one, 1));
        assert!(is_resident(&registry, "a"));
        assert_eq!(registry.stats().bytes, one);
        // A LOAD starts cold.
        assert_eq!(registry.install("a", whole(&dir, "a"), 9, false), (0, 0));
        assert_eq!(registry.stats().bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poisoned_registry_lock_recovers() {
        let dir = scratch("poison");
        let registry = Arc::new(Registry::new(64 << 20));
        registry.install("a", whole(&dir, "a"), 1, false);
        let poisoner = Arc::clone(&registry);
        // Panic while holding the registry lock, the way a crashing worker
        // mid-insert would.
        let result = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("deliberate poison");
        })
        .join();
        assert!(result.is_err(), "the poisoning thread panicked");
        assert!(registry.inner.is_poisoned(), "the mutex really is poisoned");
        // Every entry point must keep working.
        warm(&registry, "a", 0);
        assert!(is_resident(&registry, "a"));
        registry.install("b", whole(&dir, "b"), 2, false);
        let stats = registry.stats();
        assert_eq!(stats.dicts, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_slots_evict_at_shard_granularity() {
        let dir = scratch("shard-lru");
        let probe = shard_set(&dir, "paper", &[0..2, 2..4]);
        let b0 = probe.load_shard(0).unwrap().approx_bytes();
        let b1 = probe.load_shard(1).unwrap().approx_bytes();

        // Cap fits one shard but not both.
        let registry = Registry::new(b0.max(b1));
        registry.install("paper", probe, 9, false);
        let stats = registry.stats();
        assert_eq!((stats.resident_shards, stats.total_shards), (0, 2));
        assert_eq!(stats.bytes, 0, "a cold manifest costs nothing");
        assert_eq!(stats.entries[0].shards[0].status, "cold");

        warm(&registry, "paper", 0);
        let stats = registry.stats();
        assert_eq!((stats.resident_shards, stats.evictions), (1, 0));

        // Loading the second shard evicts the first — shard granularity,
        // not the whole entry.
        warm(&registry, "paper", 1);
        let stats = registry.stats();
        assert_eq!((stats.resident_shards, stats.total_shards), (1, 2));
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries[0].shards[0].status, "evicted");
        assert_eq!(stats.entries[0].shards[1].status, "resident");
        let reader = reader(&registry, "paper");
        assert!(registry.resident_shard("paper", &reader, 0).is_none());
        assert!(registry.resident_shard("paper", &reader, 1).is_some());
        assert!(
            !reader.is_whole(),
            "the entry itself survives shard eviction"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_decode_racing_a_reload_is_not_cached_under_the_new_image() {
        let dir = scratch("decode-race");
        let registry = Registry::new(64 << 20);
        registry.install("a", whole(&dir, "a"), 1, false);
        let old = reader(&registry, "a");
        assert!(!is_resident(&registry, "a"), "a whole LOAD starts cold");
        let (image, d0) = old.load_shard_with_image(0).unwrap();
        // A RELOAD swaps in a new reader while a DIAG decodes the old one.
        registry.install("a", whole(&dir, "a"), 2, true);
        let served = registry.insert_shard("a", &old, 0, d0, image);
        assert_eq!(served.fault_count(), pf().fault_count(), "still served");
        let new = reader(&registry, "a");
        assert!(!Arc::ptr_eq(&new, &old));
        assert!(
            !is_resident(&registry, "a"),
            "the reloaded entry must stay cold, not adopt the old decode"
        );
        assert_eq!(registry.stats().bytes, 0);
        // A decode through the reader the entry holds is cached as before.
        warm(&registry, "a", 0);
        assert!(is_resident(&registry, "a"));
        assert_eq!(registry.stats().bytes, pf().approx_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_shard_loaded_through_a_reloaded_manifest_is_not_cached() {
        let dir = scratch("reload");
        let registry = Registry::new(64 << 20);
        registry.install("paper", shard_set(&dir, "old", &[0..2, 2..4]), 0, false);
        let old = reader(&registry, "paper");
        let (image, d0) = old.load_shard_with_image(0).unwrap();
        // A RELOAD lands while the request loads the old shard 0 (faults
        // 0..2); the new manifest's slot 0 covers faults 0..1 only.
        registry.install("paper", shard_set(&dir, "new", &[0..1, 1..4]), 0, true);
        let served = registry.insert_shard("paper", &old, 0, d0, image);
        assert_eq!(served.fault_count(), 2, "the request keeps its own shard");
        let stats = registry.stats();
        assert_eq!((stats.resident_shards, stats.bytes), (0, 0), "cold");
        // Once the new slot 0 is warm, the old reader still cannot see it.
        warm(&registry, "paper", 0);
        let new = reader(&registry, "paper");
        let warm = registry.resident_shard("paper", &new, 0);
        assert_eq!(warm.map(|d| d.fault_count()), Some(1));
        assert!(registry.resident_shard("paper", &old, 0).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_shard_racing_a_whole_load_does_not_resurrect_the_shard_set() {
        let dir = scratch("whole-race");
        let registry = Registry::new(64 << 20);
        registry.install("paper", shard_set(&dir, "paper", &[0..2, 2..4]), 0, false);
        let sharded = reader(&registry, "paper");
        let (image, d0) = sharded.load_shard_with_image(0).unwrap();
        // A whole-file LOAD replaces the name while the shard loads.
        registry.install("paper", whole(&dir, "flat"), 0, false);
        registry.insert_shard("paper", &sharded, 0, d0, image);
        assert!(
            reader(&registry, "paper").is_whole(),
            "the whole LOAD stands"
        );
        assert!(!is_resident(&registry, "paper"), "and stays cold");
        let stats = registry.stats();
        assert_eq!((stats.dicts, stats.bytes), (1, 0));
        assert_eq!(stats.total_shards, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn client_disables_nagle_on_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        assert!(client.reader.get_ref().nodelay().unwrap());
    }

    #[test]
    fn diagnose_formats_the_ladder() {
        let dir = scratch("ladder");
        let path = dir.join("pf.sddb");
        sdd_store::save(&path, &pf()).unwrap();
        let handle = serve(&ServeConfig::default()).unwrap();
        let mut scratch = Scratch::default();
        let mut execute = |request: &str| {
            let mut out = Vec::new();
            let clock = RequestClock::new(None);
            execute_line(request, &handle.shared, &mut scratch, &clock, &mut out);
            String::from_utf8(out).unwrap()
        };
        let reply = execute(&format!("LOAD pf {}", path.display()));
        assert!(reply.starts_with("OK LOADED pf kind=pass-fail"), "{reply}");
        let reply = execute("DIAG pf 01");
        assert!(reply.starts_with("OK DIAG quality=exact"), "{reply}");
        assert!(reply.contains("best=0 "), "{reply}");
        let reply = execute("DIAG pf 0X");
        assert!(reply.contains("quality=consistent"), "{reply}");
        // A width mismatch is a typed error naming the dictionary's width,
        // not a panic.
        let reply = execute("DIAG pf 011");
        assert_eq!(
            reply,
            "ERR observed signature: width 3 does not match expected 2\n"
        );
        handle.shutdown();
        handle.wait();
        std::fs::remove_dir_all(&dir).ok();
    }
}
