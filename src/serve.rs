//! A concurrent diagnosis service over TCP — the tester-floor deployment
//! shape: one precomputed dictionary, thousands of diagnosis queries per
//! lot.
//!
//! The server speaks a line-delimited text protocol (one request per line,
//! space-separated tokens; replies start with `OK` or `ERR`):
//!
//! ```text
//! LOAD <name> <path>        load a dictionary (.sddb binary, .sddm shard
//!                           manifest, or v1 text)
//! RELOAD <name>             re-open the artifact <name> was loaded from
//!                           (after `sdd patch`); a sharded entry keeps
//!                           every resident shard the patch left unchanged
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
//! Loaded dictionaries live in a registry with least-recently-used eviction
//! under a configurable memory cap, so a box serving many designs keeps its
//! footprint bounded. Each worker thread reuses one diagnosis scratch
//! buffer across requests, keeping the hot path allocation-light.
//!
//! Loading a `.sddm` shard manifest registers the shard set without reading
//! any shard: shards load lazily on the first `DIAG` that needs them, in
//! cone-priority order (shards whose recorded output cone intersects the
//! observation's failing outputs first). Every shard is still *scored* on
//! every query — signatures compare against shard-global baselines, so a
//! fault outside the failing cone can still be the best candidate, and
//! skipping it would break the bit-identical merge. The LRU registry evicts
//! at shard granularity, and `STATS` reports per-shard residency.
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
//!   off by the per-request deadline. The reply carries
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
//! # Transport backends
//!
//! Two interchangeable transports serve the identical protocol, selected by
//! [`ServeConfig::backend`]:
//!
//! * [`ServeBackend::Reactor`] (the default on Linux via
//!   [`ServeBackend::Auto`]) — one event-driven readiness loop
//!   ([`crate::reactor`]) owns every socket: accept, read, write, and the
//!   idle/write-stall timers. Complete request lines are handed to the
//!   worker pool over an SPMC queue; workers execute the CPU-bound
//!   diagnosis and push reply bytes to per-connection outbound buffers the
//!   reactor drains on writability. Clients may **pipeline**: many requests
//!   written in one burst are answered in order, byte-identical to issuing
//!   them sequentially. A connection whose outbound buffer passes the
//!   high-water mark stops being read until it drains (write
//!   backpressure), so a slow reader can never balloon server memory.
//! * [`ServeBackend::Threaded`] — the portable fallback: each worker owns
//!   one connection at a time and blocks on it, polling every 100 ms
//!   (`POLL_INTERVAL`) to honor shutdown and idle limits. It serves the
//!   same byte-for-byte protocol (pipelined bursts included — the kernel
//!   socket buffer holds them) and runs everywhere.
//!
//! `STATS` reports which backend is live (`backend=`) plus the reactor
//! traffic counters (`accepted=`, `wakeups=`, `backpressure_stalls=`,
//! `pipelined=`); the threaded backend reports zeros for those so parsers
//! stay uniform.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use sdd_core::diagnose::{match_signatures_masked_into, MatchQuality, ScoredCandidate};
use sdd_core::Budget;
use sdd_logic::{BitVec, MaskedBitVec, SddError};
use sdd_store::{DictBytes, DictionaryKind, MmapMode, SddbReader, ShardedReader, StoredDictionary};
use sdd_volume::{
    error_token, quality_name, FetchError, ShardSource, VolumeOptions, WholeSource, WireSink,
};

use crate::shard::{self, ShardObservation};

/// Which transport drives the sockets (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeBackend {
    /// The epoll reactor where supported ([`crate::reactor::supported`]),
    /// else the threaded transport. The right choice almost always.
    #[default]
    Auto,
    /// Force the portable blocking worker-pool transport.
    Threaded,
    /// Force the epoll reactor; [`serve`] fails with a typed error on
    /// platforms without it.
    Reactor,
}

impl ServeBackend {
    /// Parses the `--backend` CLI token.
    ///
    /// # Errors
    ///
    /// [`SddError::Invalid`] for anything but `auto`/`threaded`/`reactor`.
    pub fn parse(token: &str) -> Result<Self, SddError> {
        match token.to_ascii_lowercase().as_str() {
            "auto" => Ok(Self::Auto),
            "threaded" => Ok(Self::Threaded),
            "reactor" => Ok(Self::Reactor),
            other => Err(SddError::invalid(format!(
                "unknown serve backend {other:?} (expected auto, threaded, or reactor)"
            ))),
        }
    }
}

/// How the server is bound and provisioned.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, e.g. `127.0.0.1:4017` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Registry memory cap in bytes; least-recently-used dictionaries are
    /// evicted when loading would exceed it.
    pub memory_cap: usize,
    /// Connections served concurrently before the acceptor starts shedding
    /// newcomers with a one-line `OK BUSY` refusal.
    pub max_connections: usize,
    /// Per-write socket timeout; a reply write that stalls this long is
    /// connection death, never a wedged worker.
    pub write_timeout: Duration,
    /// A connection with no *complete* request line for this long is closed
    /// (`ERR idle timeout ...`) — the slow-loris cutoff that keeps stalled
    /// clients from pinning pool workers.
    pub idle_timeout: Duration,
    /// Optional wall-clock budget per request. A sharded `DIAG` that runs
    /// out mid-load answers `PARTIAL` from the shards already resident;
    /// remaining `BATCH` items answer `ERR deadline`. `None` means
    /// unbounded.
    pub request_deadline: Option<Duration>,
    /// Which transport drives the sockets (see the module docs).
    pub backend: ServeBackend,
    /// How `LOAD` brings dictionary files into memory: mapped zero-copy
    /// images ([`MmapMode::Auto`] maps on Linux, reads elsewhere) or owned
    /// buffers. Mapped binary dictionaries register their validated image
    /// and defer decoding to the first `DIAG`; mapped shard eviction is an
    /// `munmap`. Verdict bytes are identical in every mode.
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
            backend: ServeBackend::Auto,
            mmap: MmapMode::Auto,
        }
    }
}

/// How many ranked candidates a `DIAG` reply includes in its `top=` field.
const TOP_CANDIDATES: usize = 5;

/// Read timeout the **threaded** backend uses to re-check the shutdown flag
/// on idle connections. The reactor backend has no poll tick at all —
/// shutdown, idle cutoffs, and write stalls are epoll wakeups with computed
/// deadlines.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// One loaded dictionary — whole, or a lazily-populated shard set.
enum Entry {
    Whole {
        /// The decoded form. `None` while only the mapped image is held:
        /// a mapped `LOAD` validates and checksums the file but defers
        /// decoding to the first `DIAG`, and eviction of an image-backed
        /// entry drops only this (the image re-decodes from warm pages).
        dictionary: Option<Arc<StoredDictionary>>,
        /// The validated byte image the decode runs from — present only
        /// when it is a mapping, which costs page cache rather than heap
        /// and is therefore not counted against the memory cap.
        image: Option<Arc<DictBytes>>,
        /// Decoded-resident bytes counted against the cap (zero while the
        /// entry is image-only).
        bytes: usize,
        last_used: u64,
        /// Microseconds the `LOAD` spent reading, decoding, and inserting —
        /// surfaced per dictionary in `STATS` so slow loads are visible.
        load_us: u64,
    },
    Sharded {
        reader: Arc<ShardedReader>,
        /// One slot per manifest shard; `resident: None` until the first
        /// `DIAG` that needs the shard loads it (or after eviction).
        slots: Vec<ShardSlot>,
        /// Microseconds the `LOAD` spent reading the manifest.
        load_us: u64,
    },
}

/// Residency state of one shard. The manifest itself is a few hundred bytes
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

/// What [`Registry::get`] found under a name.
enum Fetched {
    Whole(Arc<StoredDictionary>),
    /// A mapped dictionary whose decode is deferred (or was evicted): the
    /// caller decodes from the image outside the registry lock and makes
    /// the result resident via [`Registry::insert_decoded`].
    WholeCold(Arc<DictBytes>),
    Sharded(Arc<ShardedReader>),
    Missing,
}

/// The dictionary registry: named dictionaries under a memory cap with
/// least-recently-used eviction. Whole dictionaries and individual resident
/// shards are peer eviction units — a cold query against one design evicts
/// the stalest *shard* elsewhere, not necessarily a whole design.
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
    /// Evicts least-recently-used units until the total fits `cap`. The
    /// unit named by `keep` (a whole dictionary, or one shard of one) is
    /// never evicted: an entry larger than the cap alone is admitted,
    /// because refusing it would make the service useless for that design.
    ///
    /// Only decoded-resident bytes count against the cap, so only they are
    /// evictable: an image-backed whole dictionary keeps its mapping (page
    /// cache, free to re-decode from) and sheds just the decoded form,
    /// while an owned whole dictionary is removed outright. A shard drops
    /// both its decoded form and its mapped image — that drop is the
    /// `munmap`, and a later fetch maps the file afresh.
    fn evict_over_cap(&mut self, cap: usize, keep: (&str, Option<usize>)) {
        while self.bytes > cap {
            let victim = self
                .entries
                .iter()
                .flat_map(|(name, entry)| -> Vec<(u64, String, Option<usize>)> {
                    match entry {
                        Entry::Whole {
                            last_used,
                            dictionary,
                            ..
                        } => dictionary
                            .is_some()
                            .then(|| (*last_used, name.clone(), None))
                            .into_iter()
                            .collect(),
                        Entry::Sharded { slots, .. } => slots
                            .iter()
                            .enumerate()
                            .filter(|(_, s)| s.resident.is_some())
                            .map(|(i, s)| (s.last_used, name.clone(), Some(i)))
                            .collect(),
                    }
                })
                .filter(|(_, name, slot)| (name.as_str(), *slot) != keep)
                .min();
            let Some((_, name, slot)) = victim else {
                break;
            };
            match slot {
                None => {
                    let image_backed = matches!(
                        self.entries.get(&name),
                        Some(Entry::Whole { image: Some(_), .. })
                    );
                    if image_backed {
                        if let Some(Entry::Whole {
                            dictionary, bytes, ..
                        }) = self.entries.get_mut(&name)
                        {
                            *dictionary = None;
                            self.bytes -= *bytes;
                            *bytes = 0;
                        }
                    } else if let Some(Entry::Whole { bytes, .. }) = self.entries.remove(&name) {
                        self.bytes -= bytes;
                    }
                }
                Some(index) => {
                    if let Some(Entry::Sharded { slots, .. }) = self.entries.get_mut(&name) {
                        let slot = &mut slots[index];
                        slot.resident = None;
                        slot.image = None; // the munmap
                        self.bytes -= slot.bytes;
                        slot.bytes = 0;
                    }
                }
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

    /// Inserts (or replaces) a whole, decoded, owned dictionary, then
    /// evicts until the total fits the cap.
    fn insert(&self, name: &str, dictionary: StoredDictionary, load_us: u64) -> usize {
        let bytes = dictionary.approx_bytes();
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let old = inner.entries.insert(
            name.to_owned(),
            Entry::Whole {
                dictionary: Some(Arc::new(dictionary)),
                image: None,
                bytes,
                last_used: clock,
                load_us,
            },
        );
        inner.bytes -= old.map_or(0, |e| entry_bytes(&e));
        inner.bytes += bytes;
        inner.evict_over_cap(self.cap, (name, None));
        bytes
    }

    /// Registers (or replaces) a whole dictionary by its validated mapped
    /// image alone — no decode, no cap pressure. The first `DIAG` decodes
    /// through [`Fetched::WholeCold`] + [`insert_decoded`]
    /// (Self::insert_decoded); until then the dictionary costs page cache
    /// only. Returns the resident decoded byte count — always zero here.
    fn insert_image(&self, name: &str, image: DictBytes, load_us: u64) -> usize {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let old = inner.entries.insert(
            name.to_owned(),
            Entry::Whole {
                dictionary: None,
                image: Some(Arc::new(image)),
                bytes: 0,
                last_used: clock,
                load_us,
            },
        );
        inner.bytes -= old.map_or(0, |e| entry_bytes(&e));
        0
    }

    /// Makes the decoded form of an image-backed whole dictionary resident
    /// (the decode ran in the worker, outside this lock), then evicts
    /// until the total fits the cap. If the entry was replaced mid-request
    /// the decode still serves this request; it is just not cached.
    fn insert_decoded(&self, name: &str, dictionary: StoredDictionary) -> Arc<StoredDictionary> {
        let bytes = dictionary.approx_bytes();
        let dictionary = Arc::new(dictionary);
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(Entry::Whole {
            dictionary: resident,
            bytes: entry_bytes,
            last_used,
            image: Some(_),
            ..
        }) = inner.entries.get_mut(name)
        {
            let replaced = std::mem::replace(entry_bytes, bytes);
            *resident = Some(Arc::clone(&dictionary));
            *last_used = clock;
            inner.bytes -= replaced;
            inner.bytes += bytes;
            inner.evict_over_cap(self.cap, (name, None));
        }
        dictionary
    }

    /// Registers (or replaces) a sharded dictionary by its manifest. No
    /// shard is read here — slots start cold and populate on demand.
    fn insert_manifest(&self, name: &str, reader: ShardedReader, load_us: u64) -> usize {
        let slots = (0..reader.shard_count())
            .map(|_| ShardSlot::default())
            .collect();
        let mut inner = self.lock();
        let old = inner.entries.insert(
            name.to_owned(),
            Entry::Sharded {
                reader: Arc::new(reader),
                slots,
                load_us,
            },
        );
        inner.bytes -= old.map_or(0, |e| entry_bytes(&e));
        0
    }

    /// Records the artifact path `name` was loaded from, for `RELOAD`.
    fn record_path(&self, name: &str, path: &str) {
        self.lock().paths.insert(name.to_owned(), path.to_owned());
    }

    /// The artifact path `name` was loaded from, if it ever loaded.
    fn source_path(&self, name: &str) -> Option<String> {
        self.lock().paths.get(name).cloned()
    }

    /// Replaces a sharded entry with a re-opened manifest, carrying over
    /// every resident slot whose manifest record is unchanged (same file
    /// name, checksum, and fault range) — after an in-place patch, only
    /// the rewritten shards go cold. Returns how many resident shards
    /// survived the swap.
    fn reload_manifest(&self, name: &str, reader: ShardedReader, load_us: u64) -> usize {
        let new_records = reader.manifest().shards.clone();
        let mut slots: Vec<ShardSlot> = new_records.iter().map(|_| ShardSlot::default()).collect();
        let mut kept = 0;
        let mut inner = self.lock();
        if let Some(Entry::Sharded {
            reader: old_reader,
            slots: old_slots,
            ..
        }) = inner.entries.get_mut(name)
        {
            let old_records = &old_reader.manifest().shards;
            for (index, record) in new_records.iter().enumerate() {
                let unchanged = old_records.iter().position(|old| {
                    old.file == record.file
                        && old.payload_checksum == record.payload_checksum
                        && old.fault_start == record.fault_start
                        && old.fault_count == record.fault_count
                });
                if let Some(old_index) = unchanged {
                    // Taking the slot keeps its resident bytes counted in
                    // `inner.bytes`: they move to the new entry unchanged.
                    let slot = std::mem::take(&mut old_slots[old_index]);
                    if slot.resident.is_some() {
                        kept += 1;
                    }
                    slots[index] = slot;
                }
            }
        }
        let old = inner.entries.insert(
            name.to_owned(),
            Entry::Sharded {
                reader: Arc::new(reader),
                slots,
                load_us,
            },
        );
        inner.bytes -= old.map_or(0, |e| entry_bytes(&e));
        kept
    }

    /// Fetches whatever is registered under `name`, marking a whole
    /// dictionary most-recently-used (shards are touched individually). An
    /// image-backed entry whose decoded form is absent comes back as
    /// [`Fetched::WholeCold`] for the caller to decode outside the lock.
    fn get(&self, name: &str) -> Fetched {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.entries.get_mut(name) {
            Some(Entry::Whole {
                dictionary,
                image,
                last_used,
                ..
            }) => {
                *last_used = clock;
                match (dictionary, &image) {
                    (Some(dictionary), _) => Fetched::Whole(Arc::clone(dictionary)),
                    (None, Some(image)) => Fetched::WholeCold(Arc::clone(image)),
                    // Unreachable by construction (an entry always holds a
                    // decoded form, an image, or both), but a typed miss
                    // beats a panic inside the registry lock.
                    (None, None) => Fetched::Missing,
                }
            }
            Some(Entry::Sharded { reader, .. }) => Fetched::Sharded(Arc::clone(reader)),
            None => Fetched::Missing,
        }
    }

    /// Fetches one resident shard and marks it most-recently-used; `None`
    /// when the shard is cold, evicted, or the entry is gone.
    fn resident_shard(&self, name: &str, index: usize) -> Option<Arc<StoredDictionary>> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.entries.get_mut(name) {
            Some(Entry::Sharded { slots, .. }) => {
                let slot = slots.get_mut(index)?;
                let dictionary = slot.resident.as_ref().map(Arc::clone)?;
                slot.last_used = clock;
                Some(dictionary)
            }
            _ => None,
        }
    }

    /// Makes a freshly-loaded shard resident (shard file I/O happens in the
    /// worker, outside this lock), then evicts until the total fits the
    /// cap — the shard just inserted is never its own victim. If the entry
    /// was evicted or replaced mid-request, it is re-registered from
    /// `reader` so the load is not wasted.
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
        if !matches!(inner.entries.get(name), Some(Entry::Sharded { .. })) {
            let slots = (0..reader.shard_count())
                .map(|_| ShardSlot::default())
                .collect();
            inner.entries.insert(
                name.to_owned(),
                Entry::Sharded {
                    reader: Arc::clone(reader),
                    slots,
                    load_us: 0,
                },
            );
        }
        if let Some(Entry::Sharded { slots, .. }) = inner.entries.get_mut(name) {
            if let Some(slot) = slots.get_mut(index) {
                let replaced = std::mem::replace(&mut slot.bytes, bytes);
                slot.resident = Some(Arc::clone(&dictionary));
                slot.image = image;
                slot.last_used = clock;
                slot.loads += 1;
                inner.bytes -= replaced;
            }
        }
        inner.bytes += bytes;
        inner.evict_over_cap(self.cap, (name, Some(index)));
        dictionary
    }

    fn stats(&self) -> RegistryStats {
        let inner = self.lock();
        let mut entries: Vec<StatsEntry> = inner
            .entries
            .iter()
            .map(|(name, e)| match e {
                Entry::Whole {
                    bytes,
                    load_us,
                    image,
                    ..
                } => StatsEntry {
                    name: name.clone(),
                    bytes: *bytes,
                    load_us: *load_us,
                    mode: if image.is_some() { "mapped" } else { "owned" },
                    mapped: image.as_ref().map_or(0, |i| i.len()),
                    shards: Vec::new(),
                },
                Entry::Sharded {
                    slots,
                    load_us,
                    reader,
                } => StatsEntry {
                    name: name.clone(),
                    bytes: slots.iter().map(|s| s.bytes).sum(),
                    load_us: *load_us,
                    mode: if reader.mode().wants_map() {
                        "mapped"
                    } else {
                        "owned"
                    },
                    mapped: slots.iter().map(ShardSlot::mapped_bytes).sum(),
                    shards: slots
                        .iter()
                        .map(|s| ShardStat {
                            status: match (&s.resident, s.loads) {
                                (Some(_), _) => "resident",
                                (None, 0) => "cold",
                                (None, _) => "evicted",
                            },
                            bytes: s.bytes,
                        })
                        .collect(),
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

fn entry_bytes(entry: &Entry) -> usize {
    match entry {
        Entry::Whole { bytes, .. } => *bytes,
        Entry::Sharded { slots, .. } => slots.iter().map(|s| s.bytes).sum(),
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

/// State shared by the transport (acceptor or reactor) and every worker.
pub(crate) struct Shared {
    registry: Registry,
    pub(crate) shutting_down: AtomicBool,
    pub(crate) requests: AtomicU64,
    diagnoses: AtomicU64,
    /// Connections refused with `OK BUSY` under overload.
    busy: AtomicU64,
    /// Sharded diagnoses answered with a degraded `PARTIAL` verdict.
    partial: AtomicU64,
    /// Connections currently admitted (queued or in a worker).
    pub(crate) active: AtomicUsize,
    /// Connections accepted by the reactor (threaded reports zero).
    pub(crate) accepted: AtomicU64,
    /// Reactor `epoll_wait` returns (threaded reports zero).
    pub(crate) wakeups: AtomicU64,
    /// Transitions into write backpressure — a connection whose outbound
    /// buffer crossed the high-water mark and stopped being read
    /// (threaded reports zero).
    pub(crate) backpressure_stalls: AtomicU64,
    /// Requests answered from bytes that were already buffered behind an
    /// earlier request on the same connection — the pipelining win
    /// (threaded reports zero).
    pub(crate) pipelined: AtomicU64,
    addr: SocketAddr,
    /// Size of the worker pool, reported by `STATS`.
    pub(crate) workers: usize,
    /// Which transport is live, reported by `STATS` as `backend=`.
    backend: &'static str,
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
/// construction-time [`Budget`]. Sharded shard-loads and batch items check
/// it between units of work and degrade (`PARTIAL` / `ERR deadline`)
/// instead of overrunning.
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
    acceptor: Option<JoinHandle<()>>,
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
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Flags the shutdown and pokes the transport loose from its wait with a
/// throwaway connection (the threaded acceptor's `accept()` returns; the
/// reactor's listener turns readable).
pub(crate) fn begin_shutdown(shared: &Shared) {
    if !shared.shutting_down.swap(true, Ordering::SeqCst) {
        let _ = TcpStream::connect(shared.addr);
    }
}

/// Binds the listener and spawns the transport (reactor or
/// acceptor-plus-workers, per [`ServeConfig::backend`]).
///
/// Returns once the port is bound; serving continues in the background
/// until a `SHUTDOWN` request (or [`ServerHandle::shutdown`]) drains it.
///
/// # Errors
///
/// [`SddError::Io`] when the address cannot be bound;
/// [`SddError::Invalid`] when [`ServeBackend::Reactor`] is forced on a
/// platform without epoll.
pub fn serve(config: &ServeConfig) -> Result<ServerHandle, SddError> {
    let backend = match config.backend {
        ServeBackend::Auto => {
            if crate::reactor::supported() {
                ServeBackend::Reactor
            } else {
                ServeBackend::Threaded
            }
        }
        ServeBackend::Reactor if !crate::reactor::supported() => {
            return Err(SddError::invalid(
                "the reactor backend needs epoll; this platform has none (use --backend threaded)",
            ));
        }
        explicit => explicit,
    };
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
        backend: match backend {
            ServeBackend::Reactor => "reactor",
            _ => "threaded",
        },
        mmap: config.mmap,
        limits: Limits {
            max_connections: config.max_connections.max(1),
            write_timeout: config.write_timeout,
            idle_timeout: config.idle_timeout,
            request_deadline: config.request_deadline,
        },
    });

    if backend == ServeBackend::Reactor {
        let (reactor, workers) = crate::serve_reactor::spawn(listener, Arc::clone(&shared))
            .map_err(|e| SddError::io("epoll reactor", &e))?;
        return Ok(ServerHandle {
            shared,
            acceptor: Some(reactor),
            workers,
        });
    }

    let (sender, receiver) = mpsc::channel::<TcpStream>();
    let receiver = Arc::new(Mutex::new(receiver));
    let workers = (0..shared.workers)
        .map(|_| {
            let receiver = Arc::clone(&receiver);
            let shared = Arc::clone(&shared);
            thread::spawn(move || worker_loop(&receiver, &shared))
        })
        .collect();

    let acceptor = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if shared.shutting_down.load(Ordering::SeqCst) {
                            break; // the poke, or a client that raced it
                        }
                        // Shed before queueing: a connection past the cap
                        // gets an explicit one-line refusal instead of
                        // waiting unbounded behind stalled peers.
                        if shared.active.load(Ordering::SeqCst) >= shared.limits.max_connections {
                            shed_connection(&stream, &shared);
                            continue;
                        }
                        shared.active.fetch_add(1, Ordering::SeqCst);
                        if sender.send(stream).is_err() {
                            shared.active.fetch_sub(1, Ordering::SeqCst);
                            break;
                        }
                    }
                    Err(_) => {
                        if shared.shutting_down.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                }
            }
            // Dropping the sender lets workers drain the queue and exit.
        })
    };

    Ok(ServerHandle {
        shared,
        acceptor: Some(acceptor),
        workers,
    })
}

/// Per-worker reusable buffers: the ranked-candidate scratch the masked
/// matcher fills and the parsed per-test responses of the current request.
#[derive(Default)]
pub(crate) struct Scratch {
    ranking: Vec<ScoredCandidate>,
    responses: Vec<MaskedBitVec>,
}

fn worker_loop(receiver: &Arc<Mutex<mpsc::Receiver<TcpStream>>>, shared: &Arc<Shared>) {
    let mut scratch = Scratch::default();
    loop {
        let stream = {
            // A worker that panicked mid-request poisons nothing the queue
            // depends on — recover the receiver and keep serving.
            let guard = receiver.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        match stream {
            Ok(stream) => {
                handle_connection(stream, shared, &mut scratch);
                shared.active.fetch_sub(1, Ordering::SeqCst);
            }
            Err(_) => break, // acceptor gone and queue drained
        }
    }
}

/// Logs (one stderr line) a failed socket option instead of silently
/// discarding it — a box where `SO_RCVTIMEO` cannot be set is a box where
/// stalled clients pin workers, and that must be visible in triage.
fn warn_socket(what: &str, result: io::Result<()>) {
    if let Err(e) = result {
        eprintln!("sdd-serve: {what} failed: {e}");
    }
}

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
    warn_socket("set_nonblocking (shed)", stream.set_nonblocking(true));
    let line = format!(
        "OK BUSY active={} max={}\n",
        shared.active.load(Ordering::SeqCst),
        shared.limits.max_connections,
    );
    let _ = (&*stream).write(line.as_bytes());
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>, scratch: &mut Scratch) {
    // Socket-option failures are survivable (the connection just loses its
    // stall protection) but must not be silent — see `warn_socket`.
    warn_socket(
        "set_read_timeout",
        stream.set_read_timeout(Some(POLL_INTERVAL)),
    );
    warn_socket(
        "set_write_timeout",
        stream.set_write_timeout(Some(shared.limits.write_timeout)),
    );
    let mut writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut last_complete = Instant::now();
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return; // in-flight request finished; drop the connection
        }
        match reader.read_line(&mut line) {
            Ok(0) => return, // client closed
            Ok(_) => {
                let request = line.trim().to_owned();
                line.clear();
                if request.is_empty() {
                    continue;
                }
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let clock = RequestClock::new(shared.limits.request_deadline);
                // One panicking request must not take the worker (and its
                // queued connections) down with it: catch the unwind, tell
                // the client, and keep serving. The scratch buffers are
                // cleared at the start of every parse, so reusing them
                // after a panic is safe.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    respond(&request, shared, scratch, &mut reader, &mut writer, &clock)
                }));
                match outcome {
                    Ok(Ok(ConnectionFate::Keep)) => {}
                    Ok(Ok(ConnectionFate::Close)) => return,
                    // Client went away mid-reply, or the write timed out
                    // (`WouldBlock`/`TimedOut` from `SO_SNDTIMEO`): either
                    // way the connection is dead; the worker is not.
                    Ok(Err(_)) => return,
                    Err(_) => {
                        let reply = err_reply("internal error: request panicked");
                        if writeln!(writer, "{reply}")
                            .and_then(|()| writer.flush())
                            .is_err()
                        {
                            return;
                        }
                    }
                }
                last_complete = Instant::now();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Idle poll tick; a partial line stays buffered. A client
                // that dribbles bytes without ever finishing a request —
                // the slow-loris shape — is cut off at the idle limit so
                // it cannot pin a pool worker forever.
                if last_complete.elapsed() >= shared.limits.idle_timeout {
                    let _ = writeln!(
                        writer,
                        "{}",
                        err_reply("idle timeout: no complete request within the limit")
                    );
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

enum ConnectionFate {
    Keep,
    Close,
}

/// Parses one request line, writes the reply line(s), and says whether the
/// connection stays open. `VOLUME` is the one verb that also *reads*: its
/// corpus lines stream in on `reader` right behind the request line.
///
/// The inline verbs (`STATS`, `QUIT`, `SHUTDOWN`) and streaming `VOLUME`
/// are handled here; every worker verb goes through [`execute_line`], the
/// execution core both transports share.
fn respond(
    request: &str,
    shared: &Arc<Shared>,
    scratch: &mut Scratch,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    clock: &RequestClock,
) -> io::Result<ConnectionFate> {
    let mut tokens = request.split_whitespace();
    let verb = tokens.next().unwrap_or_default().to_ascii_uppercase();
    match verb.as_str() {
        "VOLUME" => volume_reply(&mut tokens, shared, reader, writer)?,
        "STATS" => writeln!(writer, "{}", stats_reply(shared))?,
        "QUIT" => {
            writeln!(writer, "OK BYE")?;
            writer.flush()?;
            return Ok(ConnectionFate::Close);
        }
        "SHUTDOWN" => {
            writeln!(writer, "OK BYE")?;
            writer.flush()?;
            begin_shutdown(shared);
            return Ok(ConnectionFate::Close);
        }
        _ => {
            let mut out = Vec::new();
            execute_line(request, shared, scratch, clock, &mut out);
            writer.write_all(&out)?;
        }
    }
    writer.flush()?;
    Ok(ConnectionFate::Keep)
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
/// This is the execution core both transports share: the threaded backend
/// buffers through it before writing, and the reactor's workers call it
/// once per pipelined request. The caller routes the inline verbs
/// (`STATS`, `QUIT`, `SHUTDOWN`) and the corpus-reading `VOLUME` verb, so
/// they never reach here. `PANIC` really panics — containment is the
/// caller's `catch_unwind`.
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
                (Some(name), Some(path), None) => load_reply(name, path, shared),
                _ => err_reply("usage: LOAD <name> <path>"),
            };
            push_line(out, &reply);
        }
        "RELOAD" => {
            let reply = match (tokens.next(), tokens.next()) {
                (Some(name), None) => reload_reply(name, shared),
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
        "OK STATS workers={} dicts={} bytes={} mapped={} cap={} requests={} diags={} evictions={} busy={} partial={} active={} backend={} accepted={} wakeups={} backpressure_stalls={} pipelined={}",
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
        shared.backend,
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

fn load_reply(name: &str, path: &str, shared: &Arc<Shared>) -> String {
    let start = Instant::now();
    // `read_dictionary_bytes` validates the header-declared payload length
    // against the actual file length *before* buffering or mapping, so a
    // corrupt header claiming a huge payload cannot make the server
    // allocate it, and a truncated file can never SIGBUS a mapped read.
    let bytes = match sdd_store::read_dictionary_bytes(path, shared.mmap) {
        Ok(bytes) => bytes,
        Err(e) => return err_reply(&e.to_string()),
    };
    if sdd_store::is_manifest(&bytes) {
        // A shard manifest registers the set without touching any shard
        // file — shards load lazily on the first DIAG that needs them,
        // inheriting the server's byte-ownership mode.
        return match ShardedReader::open_with(path, shared.mmap) {
            Ok(reader) => {
                let m = reader.manifest();
                let (kind, faults, tests, shards) =
                    (m.kind.name(), m.faults, m.tests, reader.shard_count());
                let load_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
                let resident = shared.registry.insert_manifest(name, reader, load_us);
                shared.registry.record_path(name, path);
                format!(
                    "OK LOADED {name} kind={kind} faults={faults} tests={tests} bytes={resident} load_us={load_us} shards={shards}"
                )
            }
            Err(e) => err_reply(&e.to_string()),
        };
    }
    if bytes.is_mapped() && sdd_store::is_binary(&bytes) {
        // Mapped load: checksum the image now (faulting every page, so
        // corruption surfaces at LOAD exactly as in owned mode) but defer
        // the decode to the first DIAG. The registry keeps the mapping;
        // resident decoded bytes are 0 until a request warms the entry.
        return match SddbReader::open(&bytes) {
            Ok(reader) => {
                let (kind, faults, tests) = (reader.kind().name(), reader.faults(), reader.tests());
                let mapped = bytes.len();
                let load_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
                let resident = shared.registry.insert_image(name, bytes, load_us);
                shared.registry.record_path(name, path);
                format!(
                    "OK LOADED {name} kind={kind} faults={faults} tests={tests} bytes={resident} load_us={load_us} mode=mapped mapped={mapped}"
                )
            }
            Err(e) => err_reply(&e.to_string()),
        };
    }
    let dictionary = if sdd_store::is_binary(&bytes) {
        sdd_store::decode(&bytes)
    } else {
        sdd_store::read_same_different_auto(&bytes).map(StoredDictionary::SameDifferent)
    };
    match dictionary {
        Ok(d) => {
            let kind = d.kind().name();
            let (faults, tests) = (d.fault_count(), d.test_count());
            let load_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            let resident = shared.registry.insert(name, d, load_us);
            shared.registry.record_path(name, path);
            format!(
                "OK LOADED {name} kind={kind} faults={faults} tests={tests} bytes={resident} load_us={load_us}"
            )
        }
        Err(e) => err_reply(&e.to_string()),
    }
}

/// Re-opens the artifact a dictionary was loaded from — the post-patch
/// refresh path. A sharded entry keeps every resident shard whose manifest
/// record is byte-for-byte unchanged (only patched shards go cold); a
/// whole dictionary is simply re-loaded through [`load_reply`].
fn reload_reply(name: &str, shared: &Arc<Shared>) -> String {
    let Some(path) = shared.registry.source_path(name) else {
        return err_reply(&format!(
            "unknown dictionary {name:?}: RELOAD needs a prior LOAD"
        ));
    };
    let start = Instant::now();
    let bytes = match sdd_store::read_dictionary_bytes(&path, MmapMode::Off) {
        Ok(bytes) => bytes,
        Err(e) => return err_reply(&e.to_string()),
    };
    if sdd_store::is_manifest(&bytes) {
        return match ShardedReader::open_with(&path, shared.mmap) {
            Ok(reader) => {
                let m = reader.manifest();
                let (kind, faults, tests, shards) =
                    (m.kind.name(), m.faults, m.tests, reader.shard_count());
                let load_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
                let kept = shared.registry.reload_manifest(name, reader, load_us);
                format!(
                    "OK RELOADED {name} kind={kind} faults={faults} tests={tests} shards={shards} kept={kept} load_us={load_us}"
                )
            }
            Err(e) => err_reply(&e.to_string()),
        };
    }
    // Whole files replace their entry outright: the artifact was rewritten
    // atomically as one image, so there is no sibling to keep.
    let reply = load_reply(name, &path, shared);
    match reply.strip_prefix("OK LOADED") {
        Some(rest) => format!("OK RELOADED{rest} kept=0"),
        None => reply,
    }
}

fn diag_reply(
    name: &str,
    obs: &str,
    shared: &Arc<Shared>,
    scratch: &mut Scratch,
    clock: &RequestClock,
) -> String {
    match shared.registry.get(name) {
        Fetched::Whole(dictionary) => {
            shared.diagnoses.fetch_add(1, Ordering::Relaxed);
            match diagnose(&dictionary, obs, scratch) {
                Ok(reply) => reply,
                Err(e) => err_reply(&e.to_string()),
            }
        }
        Fetched::WholeCold(image) => {
            shared.diagnoses.fetch_add(1, Ordering::Relaxed);
            match fetch_whole(name, &image, shared)
                .and_then(|dictionary| diagnose(&dictionary, obs, scratch))
            {
                Ok(reply) => reply,
                Err(e) => err_reply(&e.to_string()),
            }
        }
        Fetched::Sharded(reader) => {
            shared.diagnoses.fetch_add(1, Ordering::Relaxed);
            match diagnose_sharded_reply(name, &reader, obs, shared, scratch, clock) {
                Ok(reply) => reply,
                Err(e) => err_reply(&e.to_string()),
            }
        }
        Fetched::Missing => err_reply(&format!("no dictionary loaded as {name:?}")),
    }
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
    if let Some(dictionary) = shared.registry.resident_shard(name, index) {
        return Ok(dictionary);
    }
    let (image, dictionary) = reader.load_shard_with_image(index)?;
    Ok(shared
        .registry
        .insert_shard(name, reader, index, dictionary, image))
}

/// Decodes a cold image-backed whole dictionary and makes the decoded form
/// resident — the warm-up path behind [`Fetched::WholeCold`]. The image
/// was checksummed at `LOAD`; `revalidate` re-checks the mapped file's
/// length first so an in-place truncation since then surfaces as a typed
/// [`SddError::Truncated`], never a fault on a vanished page.
fn fetch_whole(
    name: &str,
    image: &DictBytes,
    shared: &Arc<Shared>,
) -> Result<Arc<StoredDictionary>, SddError> {
    image.revalidate()?;
    let dictionary = sdd_store::decode(image.as_slice())?;
    Ok(shared.registry.insert_decoded(name, dictionary))
}

/// Do two cone bitmaps share an output?
fn cone_intersects(a: &BitVec, b: &BitVec) -> bool {
    a.as_words().zip(b.as_words()).any(|(x, y)| x & y != 0)
}

/// The typed failure when *no* shard of a sharded dictionary could serve a
/// request — degradation has nothing left to degrade to.
fn all_shards_failed(count: usize, last: Option<SddError>) -> SddError {
    match last {
        Some(e) => SddError::invalid(format!("all {count} shards unavailable; last error: {e}")),
        None => SddError::invalid(format!(
            "request deadline exceeded before any of {count} shards loaded"
        )),
    }
}

/// Diagnoses against a sharded dictionary: loads shards lazily in
/// cone-priority order, scores *every available* shard (cones only order
/// loading — see the module docs), and merges the rankings into the same
/// reply the unsharded dictionary would produce.
///
/// Availability is where degradation enters: a shard that is missing,
/// corrupt, or cut off by the request deadline is dropped from the merge
/// and recorded, and the reply verdict becomes `PARTIAL` with
/// `covered=<faults>/<total>` and a `degraded=<shard>:<reason>,...` list.
/// Because [`shard::diagnose_sharded`] merges any consistent shard subset,
/// the degraded ranking is bit-identical to diagnosing the explicit
/// sub-dictionary of the shards that did load.
fn diagnose_sharded_reply(
    name: &str,
    reader: &Arc<ShardedReader>,
    obs: &str,
    shared: &Arc<Shared>,
    scratch: &mut Scratch,
    clock: &RequestClock,
) -> Result<String, SddError> {
    let manifest = reader.manifest();
    let count = reader.shard_count();
    // Parse once, in the shape the manifest kind expects.
    let signature: Option<MaskedBitVec> = match manifest.kind {
        sdd_store::DictionaryKind::PassFail => Some(obs.parse()?),
        _ => {
            parse_responses(obs, &mut scratch.responses)?;
            None
        }
    };
    // Per-shard fate this request: a shard that fails is probed once and
    // remembered, not retried by every later step.
    let mut failures: Vec<Option<&'static str>> = vec![None; count];
    let mut last_error: Option<SddError> = None;
    // Cone-priority order: load shards whose recorded cone intersects the
    // observation's failing outputs first. Pass/fail observations carry no
    // per-output information, so they keep index order.
    let mut order: Vec<usize> = (0..count).collect();
    if signature.is_none() {
        // Failing outputs need one reference dictionary (shards share
        // per-test output dimensions); prefer a warm shard, else the first
        // cold one that still loads.
        let mut reference = (0..count).find_map(|i| shared.registry.resident_shard(name, i));
        if reference.is_none() {
            for (index, failure) in failures.iter_mut().enumerate() {
                match fetch_shard(name, reader, index, shared) {
                    Ok(d) => {
                        reference = Some(d);
                        break;
                    }
                    Err(e) => {
                        *failure = Some(error_token(&e));
                        last_error = Some(e);
                    }
                }
            }
        }
        let Some(reference) = reference else {
            return Err(all_shards_failed(count, last_error));
        };
        let failing = shard::failing_outputs(&reference, &scratch.responses)?;
        if failing.any() {
            order.sort_by_key(|&i| (!cone_intersects(&manifest.shards[i].cone, &failing), i));
        }
    }
    let mut fetched: Vec<(usize, Arc<StoredDictionary>)> = Vec::with_capacity(count);
    for index in order {
        if failures[index].is_some() {
            continue;
        }
        let fault_start = manifest.shards[index].fault_start;
        if clock.expired() {
            // Out of time: shards already resident still join the merge (a
            // registry hit is a lock and a clone, not I/O); cold shards
            // become degraded coverage instead of a blown deadline.
            match shared.registry.resident_shard(name, index) {
                Some(d) => fetched.push((fault_start, d)),
                None => failures[index] = Some("deadline"),
            }
            continue;
        }
        match fetch_shard(name, reader, index, shared) {
            Ok(d) => fetched.push((fault_start, d)),
            Err(e) => {
                failures[index] = Some(error_token(&e));
                last_error = Some(e);
            }
        }
    }
    if fetched.is_empty() {
        return Err(all_shards_failed(count, last_error));
    }
    fetched.sort_unstable_by_key(|&(fault_start, _)| fault_start);
    let shards: Vec<(usize, &StoredDictionary)> = fetched
        .iter()
        .map(|(fault_start, d)| (*fault_start, d.as_ref()))
        .collect();
    let observation = match &signature {
        Some(signature) => ShardObservation::Signature(signature),
        None => ShardObservation::Responses(&scratch.responses),
    };
    let report = shard::diagnose_sharded(&shards, observation)?;
    let fields = report_fields(report.quality, report.known, &report.ranking);
    let degraded: Vec<String> = failures
        .iter()
        .enumerate()
        .filter_map(|(index, failure)| failure.map(|reason| format!("{index}:{reason}")))
        .collect();
    if degraded.is_empty() {
        return Ok(format!("OK DIAG {fields}"));
    }
    shared.partial.fetch_add(1, Ordering::Relaxed);
    let covered: usize = fetched.iter().map(|(_, d)| d.fault_count()).sum();
    Ok(format!(
        "PARTIAL DIAG {fields} covered={covered}/{total} degraded={}",
        degraded.join(","),
        total = manifest.faults,
    ))
}

/// Corpus lines of an in-flight `VOLUME` request, pulled from the
/// connection under the same poll/idle discipline as request lines: a
/// partial line stays buffered across poll ticks, a shutdown or stall
/// mid-corpus surfaces as a transport error — which aborts the request and
/// the connection, never wedges the worker.
struct WireLines<'a> {
    reader: &'a mut BufReader<TcpStream>,
    shared: &'a Shared,
    remaining: usize,
    line: String,
    last_line: Instant,
}

impl<'a> WireLines<'a> {
    fn new(reader: &'a mut BufReader<TcpStream>, shared: &'a Shared, count: usize) -> Self {
        Self {
            reader,
            shared,
            remaining: count,
            line: String::new(),
            last_line: Instant::now(),
        }
    }
}

impl Iterator for WireLines<'_> {
    type Item = io::Result<String>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                return Some(Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "server shutting down mid-corpus",
                )));
            }
            match self.reader.read_line(&mut self.line) {
                Ok(0) => {
                    return Some(Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "client closed mid-corpus",
                    )))
                }
                Ok(_) => {
                    self.remaining -= 1;
                    self.last_line = Instant::now();
                    let text = self.line.trim_end_matches(['\r', '\n']).to_owned();
                    self.line.clear();
                    return Some(Ok(text));
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    // Poll tick; any partial line stays buffered in `line`.
                    if self.last_line.elapsed() >= self.shared.limits.idle_timeout {
                        return Some(Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "idle timeout mid-corpus",
                        )));
                    }
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

/// The serve-side [`ShardSource`]: shards fetch lazily through the LRU
/// registry, so a warm shard costs a registry hit and a cold one loads
/// (and may evict elsewhere) — exactly the `DIAG` economics, applied per
/// device. Cones come from the manifest's per-shard records.
struct RegistrySource<'a> {
    name: &'a str,
    reader: Arc<ShardedReader>,
    shared: &'a Arc<Shared>,
}

impl ShardSource for RegistrySource<'_> {
    fn kind(&self) -> DictionaryKind {
        self.reader.manifest().kind
    }
    fn tests(&self) -> usize {
        self.reader.manifest().tests
    }
    fn outputs(&self) -> usize {
        self.reader.manifest().outputs
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
    fn fetch(&self, shard: usize) -> Result<Arc<StoredDictionary>, FetchError> {
        fetch_shard(self.name, &self.reader, shard, self.shared).map_err(|e| FetchError::from(&e))
    }
    fn resident(&self, shard: usize) -> Option<Arc<StoredDictionary>> {
        self.shared.registry.resident_shard(self.name, shard)
    }
    fn fault_cone(&self, fault: usize) -> Option<&BitVec> {
        let shards = &self.reader.manifest().shards;
        // Shards tile the fault list in ascending order: the owning shard
        // is the last one starting at or before `fault`.
        let index = shards
            .partition_point(|s| s.fault_start <= fault)
            .checked_sub(1)?;
        Some(&shards[index].cone)
    }
}

/// Serves one `VOLUME` request: reads the counted corpus lines off the
/// connection and streams them through [`sdd_volume::run`] against the
/// named dictionary. The reply is `OK VOLUME <lines>`, one
/// verdict-prefixed JSON record per corpus record, then
/// `OK SUMMARY <json>` — stripping the verdict tokens recovers the exact
/// JSONL report the `sdd volume` CLI writes for the same corpus.
///
/// A request that fails *after* the count is known (unknown dictionary,
/// bad option) still drains its corpus lines before the `ERR` reply, so
/// the line protocol stays in sync for the next request.
/// The usage line both `VOLUME` executors reply with on a malformed header.
pub(crate) const VOLUME_USAGE: &str =
    "usage: VOLUME <dict> <lines> [seed=N] [threshold=F] [budget_ms=N]";

/// The `VOLUME` defaults for this server: the per-device budget (not
/// per-request — a corpus is long-running by design) starts from the
/// configured request deadline.
pub(crate) fn default_volume_options(shared: &Shared) -> VolumeOptions {
    VolumeOptions {
        budget: shared
            .limits
            .request_deadline
            .map_or_else(Budget::unlimited, Budget::deadline),
        ..VolumeOptions::default()
    }
}

/// Applies one `key=value` option token of a `VOLUME` request; `false`
/// means the token is unknown or unparsable (an `ERR bad option` to the
/// caller).
pub(crate) fn apply_volume_option(options: &mut VolumeOptions, token: &str) -> bool {
    match token.split_once('=') {
        Some(("seed", v)) => v.parse().map(|seed| options.seed = seed).is_ok(),
        Some(("threshold", v)) => v.parse().map(|t| options.threshold = t).is_ok(),
        Some(("budget_ms", v)) => v
            .parse()
            .map(|ms| options.budget = Budget::deadline(Duration::from_millis(ms)))
            .is_ok(),
        _ => false,
    }
}

fn volume_reply(
    tokens: &mut std::str::SplitWhitespace<'_>,
    shared: &Arc<Shared>,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
) -> io::Result<()> {
    let (name, count) = match (tokens.next(), tokens.next().map(str::parse::<usize>)) {
        (Some(name), Some(Ok(count))) => (name, count),
        _ => return writeln!(writer, "{}", err_reply(VOLUME_USAGE)),
    };
    // Drains the already-promised corpus lines, then reports the failure.
    let drain = |reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, reply: String| {
        for line in WireLines::new(reader, shared, count) {
            line?;
        }
        writeln!(writer, "{reply}")
    };
    let mut options = default_volume_options(shared);
    for token in tokens {
        if !apply_volume_option(&mut options, token) {
            return drain(reader, writer, err_reply(&format!("bad option {token:?}")));
        }
    }
    let source: Box<dyn ShardSource + '_> = match shared.registry.get(name) {
        Fetched::Whole(dictionary) => Box::new(WholeSource::from_arc(dictionary)),
        Fetched::WholeCold(image) => match fetch_whole(name, &image, shared) {
            Ok(dictionary) => Box::new(WholeSource::from_arc(dictionary)),
            Err(e) => return drain(reader, writer, err_reply(&e.to_string())),
        },
        Fetched::Sharded(shard_reader) => Box::new(RegistrySource {
            name,
            reader: shard_reader,
            shared,
        }),
        Fetched::Missing => {
            return drain(
                reader,
                writer,
                err_reply(&format!("no dictionary loaded as {name:?}")),
            )
        }
    };
    writeln!(writer, "OK VOLUME {count}")?;
    let mut lines = WireLines::new(reader, shared, count);
    let mut buffered = io::BufWriter::new(&mut *writer);
    let summary = sdd_volume::run(
        source.as_ref(),
        &mut lines,
        &mut WireSink(&mut buffered),
        &options,
    )?;
    buffered.flush()?;
    drop(buffered);
    shared
        .diagnoses
        .fetch_add(summary.devices as u64, Ordering::Relaxed);
    shared
        .partial
        .fetch_add(summary.partial as u64, Ordering::Relaxed);
    Ok(())
}

/// Executes one `VOLUME` request whose corpus lines were already buffered
/// off the wire — the reactor path, where the event loop collects the
/// counted lines and a worker runs the engine — appending the complete
/// framed reply to `out`.
///
/// Wire bytes match the threaded streaming path exactly: a failure after
/// the count was known (bad option, unknown dictionary) has consumed the
/// corpus and yields a single `ERR` line, success yields
/// `OK VOLUME <n>`, the verdict-prefixed records, and `OK SUMMARY`.
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
    let mut options = default_volume_options(shared);
    for token in tokens {
        if !apply_volume_option(&mut options, token) {
            return push_line(out, &err_reply(&format!("bad option {token:?}")));
        }
    }
    let source: Box<dyn ShardSource + '_> = match shared.registry.get(name) {
        Fetched::Whole(dictionary) => Box::new(WholeSource::from_arc(dictionary)),
        Fetched::WholeCold(image) => match fetch_whole(name, &image, shared) {
            Ok(dictionary) => Box::new(WholeSource::from_arc(dictionary)),
            Err(e) => return push_line(out, &err_reply(&e.to_string())),
        },
        Fetched::Sharded(shard_reader) => Box::new(RegistrySource {
            name,
            reader: shard_reader,
            shared,
        }),
        Fetched::Missing => {
            return push_line(
                out,
                &err_reply(&format!("no dictionary loaded as {name:?}")),
            );
        }
    };
    push_line(out, &format!("OK VOLUME {count}"));
    let mut lines = corpus
        .into_iter()
        .map(|line| -> io::Result<String> { Ok(line) });
    // The engine's only I/O is the in-memory corpus and sink, so `run`
    // cannot fail here; the `ERR` arm keeps the contract visible anyway.
    match sdd_volume::run(
        source.as_ref(),
        &mut lines,
        &mut WireSink(&mut *out),
        &options,
    ) {
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

/// Routes one observation through the masked-diagnosis ladder of the named
/// dictionary kind, reusing the worker's scratch buffers.
fn diagnose(
    dictionary: &StoredDictionary,
    obs: &str,
    scratch: &mut Scratch,
) -> Result<String, SddError> {
    match dictionary {
        StoredDictionary::PassFail(d) => {
            let observed: MaskedBitVec = obs.parse()?;
            let (quality, known) =
                match_signatures_masked_into(d.signatures(), &observed, &mut scratch.ranking)?;
            Ok(format_report(quality, known, &scratch.ranking))
        }
        StoredDictionary::SameDifferent(d) => {
            parse_responses(obs, &mut scratch.responses)?;
            let observed = d.encode_observed_masked(&scratch.responses)?;
            let (quality, known) =
                match_signatures_masked_into(d.signatures(), &observed, &mut scratch.ranking)?;
            Ok(format_report(quality, known, &scratch.ranking))
        }
        StoredDictionary::Full(d) => {
            parse_responses(obs, &mut scratch.responses)?;
            let report = d.diagnose_masked(&scratch.responses)?;
            Ok(format_report(report.quality, report.known, &report.ranking))
        }
    }
}

/// Parses `01X/1X0/...` into the reusable per-test response buffer.
fn parse_responses(obs: &str, responses: &mut Vec<MaskedBitVec>) -> Result<(), SddError> {
    responses.clear();
    for token in obs.split('/') {
        responses.push(token.parse()?);
    }
    Ok(())
}

/// Formats the shared field tail of a diagnosis reply:
/// `quality=<q> known=<b> distance=<d> best=<i,j> top=<f:miss:conf,...>`.
/// The caller prepends the verdict (`OK DIAG` or `PARTIAL DIAG`).
fn report_fields(quality: MatchQuality, known: usize, ranking: &[ScoredCandidate]) -> String {
    let distance = ranking.first().map_or(0, |c| c.mismatches);
    let best: Vec<String> = ranking
        .iter()
        .take_while(|c| c.mismatches == distance)
        .map(|c| c.fault.to_string())
        .collect();
    let top: Vec<String> = ranking
        .iter()
        .take(TOP_CANDIDATES)
        .map(|c| format!("{}:{}:{:.4}", c.fault, c.mismatches, c.confidence))
        .collect();
    format!(
        "quality={} known={known} distance={distance} best={} top={}",
        quality_name(quality),
        best.join(","),
        top.join(","),
    )
}

/// Formats a complete-evidence ranked diagnosis as a single `OK DIAG` line.
fn format_report(quality: MatchQuality, known: usize, ranking: &[ScoredCandidate]) -> String {
    format!("OK DIAG {}", report_fields(quality, known, ranking))
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

    fn pf() -> StoredDictionary {
        StoredDictionary::PassFail(PassFailDictionary::build(
            &sdd_core::example::paper_example(),
        ))
    }

    fn is_whole(fetched: &Fetched) -> bool {
        matches!(fetched, Fetched::Whole(_))
    }

    #[test]
    fn registry_evicts_least_recently_used_under_cap() {
        let one = pf().approx_bytes();
        let registry = Registry::new(2 * one);
        registry.insert("a", pf(), 11);
        registry.insert("b", pf(), 22);
        assert!(is_whole(&registry.get("a")), "a is now most recently used");
        registry.insert("c", pf(), 33); // over cap: evicts b, the LRU entry
        let stats = registry.stats();
        assert_eq!((stats.dicts, stats.evictions), (2, 1));
        assert!(stats.bytes <= 2 * one);
        let summary: Vec<(&str, usize, u64)> = stats
            .entries
            .iter()
            .map(|e| (e.name.as_str(), e.bytes, e.load_us))
            .collect();
        assert_eq!(
            summary,
            vec![("a", one, 11), ("c", one, 33)],
            "per-dictionary stats are sorted by name and keep load times"
        );
        assert!(
            matches!(registry.get("b"), Fetched::Missing),
            "b was evicted"
        );
        assert!(is_whole(&registry.get("a")) && is_whole(&registry.get("c")));
    }

    #[test]
    fn registry_admits_an_oversized_dictionary_alone() {
        let registry = Registry::new(1); // cap smaller than any dictionary
        registry.insert("big", pf(), 0);
        let stats = registry.stats();
        assert_eq!(
            (stats.dicts, stats.evictions),
            (1, 0),
            "sole entry is never evicted"
        );
        registry.insert("bigger", pf(), 0);
        let stats = registry.stats();
        assert_eq!(
            (stats.dicts, stats.evictions),
            (1, 1),
            "previous entry made room"
        );
    }

    #[test]
    fn replacing_a_dictionary_does_not_leak_accounting() {
        let one = pf().approx_bytes();
        let registry = Registry::new(10 * one);
        registry.insert("a", pf(), 5);
        registry.insert("a", pf(), 7);
        let stats = registry.stats();
        assert_eq!((stats.dicts, stats.bytes, stats.evictions), (1, one, 0));
        assert_eq!(
            stats.entries[0].load_us, 7,
            "reload refreshes the load time"
        );
    }

    #[test]
    fn poisoned_registry_lock_recovers() {
        let registry = Arc::new(Registry::new(64 << 20));
        registry.insert("a", pf(), 1);
        let poisoner = Arc::clone(&registry);
        // Panic while holding the registry lock, the way a crashing worker
        // mid-insert would.
        let result = thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("deliberate poison");
        })
        .join();
        assert!(result.is_err(), "the poisoning thread panicked");
        assert!(registry.inner.is_poisoned(), "the mutex really is poisoned");
        // Every entry point must keep working.
        assert!(is_whole(&registry.get("a")));
        registry.insert("b", pf(), 2);
        let stats = registry.stats();
        assert_eq!(stats.dicts, 2);
    }

    #[test]
    fn shard_slots_evict_at_shard_granularity() {
        let dir = std::env::temp_dir().join(format!("sdd-serve-shard-lru-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest_path = dir.join("paper.sddm");
        sdd_store::write_sharded(&manifest_path, &pf(), &[0..2, 2..4], None).unwrap();
        let reader = Arc::new(ShardedReader::open(&manifest_path).unwrap());
        let b0 = reader.load_shard(0).unwrap().approx_bytes();
        let b1 = reader.load_shard(1).unwrap().approx_bytes();

        // Cap fits one shard but not both.
        let registry = Registry::new(b0.max(b1));
        registry.insert_manifest("paper", ShardedReader::open(&manifest_path).unwrap(), 9);
        let stats = registry.stats();
        assert_eq!((stats.resident_shards, stats.total_shards), (0, 2));
        assert_eq!(stats.bytes, 0, "a cold manifest costs nothing");
        assert_eq!(stats.entries[0].shards[0].status, "cold");

        let d0 = reader.load_shard(0).unwrap();
        registry.insert_shard("paper", &reader, 0, d0, DictBytes::Owned(Vec::new()));
        let stats = registry.stats();
        assert_eq!((stats.resident_shards, stats.evictions), (1, 0));

        // Loading the second shard evicts the first — shard granularity,
        // not the whole entry.
        let d1 = reader.load_shard(1).unwrap();
        registry.insert_shard("paper", &reader, 1, d1, DictBytes::Owned(Vec::new()));
        let stats = registry.stats();
        assert_eq!((stats.resident_shards, stats.total_shards), (1, 2));
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries[0].shards[0].status, "evicted");
        assert_eq!(stats.entries[0].shards[1].status, "resident");
        assert!(registry.resident_shard("paper", 0).is_none());
        assert!(registry.resident_shard("paper", 1).is_some());
        assert!(
            matches!(registry.get("paper"), Fetched::Sharded(_)),
            "the entry itself survives shard eviction"
        );
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
        let mut scratch = Scratch::default();
        let d = pf();
        let reply = diagnose(&d, "01", &mut scratch).unwrap();
        assert!(reply.starts_with("OK DIAG quality=exact"), "{reply}");
        assert!(reply.contains("best=0"), "{reply}");
        let reply = diagnose(&d, "0X", &mut scratch).unwrap();
        assert!(reply.contains("quality=consistent"), "{reply}");
        // Width mismatch is an ERR-able typed error, not a panic.
        assert!(diagnose(&d, "011", &mut scratch).is_err());
    }
}
