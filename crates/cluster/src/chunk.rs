//! Chunked journal persistence: the journal streams through fixed-size
//! sealed chunks behind a [`ChunkProvider`], so a month-long run's
//! decision history is bounded in memory and replayable from storage.
//!
//! A sealed chunk is a line-oriented text block: one index header
//! followed by one line per event. Times are serialized as the hex of
//! their IEEE-754 bits, so a chunk round-trips *bit-exactly* — replaying
//! a stored stream folds to the same digest the live run produced.
//!
//! # Examples
//!
//! ```
//! use quasar_cluster::chunk::{ChunkProvider, MemoryChunks, SealedChunk};
//! use quasar_cluster::journal::JournalEvent;
//! use quasar_workloads::WorkloadId;
//!
//! let chunk = SealedChunk {
//!     index: 0,
//!     events: vec![(1.5, JournalEvent::Completed { workload: WorkloadId(7) })],
//! };
//! let mut store = MemoryChunks::new();
//! store.store(&chunk).unwrap();
//! assert_eq!(store.load(0).unwrap().unwrap(), chunk);
//! ```

use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;

use quasar_workloads::{NodeResources, WorkloadId};

use crate::journal::JournalEvent;
use crate::server::ServerId;

/// Schema tag carried by every sealed chunk's header line.
pub const CHUNK_SCHEMA: &str = "quasar.journal.chunk.v1";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one serialized event line (without trailing newline) into a
/// running FNV-1a digest. A `\n` byte is folded after the line so the
/// digest is a digest of the byte stream, independent of how lines are
/// grouped into chunks.
pub fn fold_line(mut digest: u64, line: &str) -> u64 {
    for byte in line.bytes().chain(std::iter::once(b'\n')) {
        digest ^= byte as u64;
        digest = digest.wrapping_mul(FNV_PRIME);
    }
    digest
}

/// The FNV-1a offset basis — the digest of an empty stream.
pub fn digest_seed() -> u64 {
    FNV_OFFSET
}

pub(crate) fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

pub(crate) fn parse_bits(s: &str) -> io::Result<f64> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| bad(format!("bad f64 bits: {s:?}")))
}

pub(crate) fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

pub(crate) fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> io::Result<T> {
    s.parse()
        .map_err(|_| bad(format!("bad {what} field: {s:?}")))
}

/// Serializes one `(time, event)` pair as a single line (no newline).
///
/// Format: `<time bits> <kind> <fields...>`, all space-separated; floats
/// travel as hex bit patterns.
pub fn serialize_event(at_s: f64, event: &JournalEvent) -> String {
    let mut line = format!("{} {}", bits(at_s), event.kind());
    match event {
        JournalEvent::Placed {
            workload,
            nodes,
            cores,
            delay_s,
        } => {
            let _ = write!(
                line,
                " {} {} {} {}",
                workload.0,
                nodes,
                cores,
                bits(*delay_s)
            );
        }
        JournalEvent::Evicted { workload, requeued } => {
            let _ = write!(line, " {} {}", workload.0, u8::from(*requeued));
        }
        JournalEvent::NodeAdded {
            workload,
            server,
            resources,
        }
        | JournalEvent::NodeResized {
            workload,
            server,
            resources,
        } => {
            let _ = write!(
                line,
                " {} {} {} {}",
                workload.0,
                server.0,
                resources.cores,
                bits(resources.memory_gb)
            );
        }
        JournalEvent::NodeRemoved { workload, server } => {
            let _ = write!(line, " {} {}", workload.0, server.0);
        }
        JournalEvent::ParamsSet { workload } | JournalEvent::Completed { workload } => {
            let _ = write!(line, " {}", workload.0);
        }
        JournalEvent::IsolationSet { workload, isolated } => {
            let _ = write!(line, " {} {}", workload.0, u8::from(*isolated));
        }
        JournalEvent::QosEpisode {
            workload,
            cause,
            start_s,
            duration_s,
            peak_depth,
        } => {
            let _ = write!(
                line,
                " {} {} {} {} {}",
                workload.0,
                cause.as_str(),
                bits(*start_s),
                bits(*duration_s),
                bits(*peak_depth)
            );
        }
    }
    line
}

/// Parses one line produced by [`serialize_event`].
///
/// # Errors
///
/// Fails with `InvalidData` on unknown kinds or malformed fields.
pub fn parse_event(line: &str) -> io::Result<(f64, JournalEvent)> {
    let mut f = line.split(' ');
    let mut next = |what: &str| f.next().ok_or_else(|| bad(format!("missing {what}")));
    let at_s = parse_bits(next("time")?)?;
    let kind = next("kind")?;
    let event = match kind {
        "placed" => JournalEvent::Placed {
            workload: WorkloadId(parse_num(next("workload")?, "workload")?),
            nodes: parse_num(next("nodes")?, "nodes")?,
            cores: parse_num(next("cores")?, "cores")?,
            delay_s: parse_bits(next("delay")?)?,
        },
        "evicted" => JournalEvent::Evicted {
            workload: WorkloadId(parse_num(next("workload")?, "workload")?),
            requeued: parse_num::<u8>(next("requeued")?, "requeued")? != 0,
        },
        "node_added" | "node_resized" => {
            let workload = WorkloadId(parse_num(next("workload")?, "workload")?);
            let server = ServerId(parse_num(next("server")?, "server")?);
            let resources = NodeResources::try_new(
                parse_num(next("cores")?, "cores")?,
                parse_bits(next("memory")?)?,
            )
            .map_err(|e| bad(e.to_string()))?;
            if kind == "node_added" {
                JournalEvent::NodeAdded {
                    workload,
                    server,
                    resources,
                }
            } else {
                JournalEvent::NodeResized {
                    workload,
                    server,
                    resources,
                }
            }
        }
        "node_removed" => JournalEvent::NodeRemoved {
            workload: WorkloadId(parse_num(next("workload")?, "workload")?),
            server: ServerId(parse_num(next("server")?, "server")?),
        },
        "params_set" => JournalEvent::ParamsSet {
            workload: WorkloadId(parse_num(next("workload")?, "workload")?),
        },
        "isolation_set" => JournalEvent::IsolationSet {
            workload: WorkloadId(parse_num(next("workload")?, "workload")?),
            isolated: parse_num::<u8>(next("isolated")?, "isolated")? != 0,
        },
        "completed" => JournalEvent::Completed {
            workload: WorkloadId(parse_num(next("workload")?, "workload")?),
        },
        "qos_episode" => {
            let workload = WorkloadId(parse_num(next("workload")?, "workload")?);
            let cause_tag = next("cause")?;
            let cause = crate::qos::QosCause::parse(cause_tag)
                .ok_or_else(|| bad(format!("unknown qos cause: {cause_tag:?}")))?;
            JournalEvent::QosEpisode {
                workload,
                cause,
                start_s: parse_bits(next("start")?)?,
                duration_s: parse_bits(next("duration")?)?,
                peak_depth: parse_bits(next("depth")?)?,
            }
        }
        other => return Err(bad(format!("unknown event kind: {other:?}"))),
    };
    Ok((at_s, event))
}

/// A fixed slice of the journal stream, sealed and ready for storage.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedChunk {
    /// Position of this chunk in the stream (0-based, contiguous).
    pub index: u64,
    /// The `(time, event)` pairs, in record order. Never empty.
    pub events: Vec<(f64, JournalEvent)>,
}

impl SealedChunk {
    /// Time of the first event in the chunk.
    pub fn first_s(&self) -> f64 {
        self.events.first().map(|(t, _)| *t).unwrap_or(f64::NAN)
    }

    /// Time of the last event in the chunk.
    pub fn last_s(&self) -> f64 {
        self.events.last().map(|(t, _)| *t).unwrap_or(f64::NAN)
    }

    /// Renders the chunk as its stored text form: an index header line
    /// (`quasar.journal.chunk.v1 index=N events=M first=<bits>
    /// last=<bits>`) followed by one event line each.
    pub fn serialize(&self) -> String {
        let mut out = format!(
            "{CHUNK_SCHEMA} index={} events={} first={} last={}\n",
            self.index,
            self.events.len(),
            bits(self.first_s()),
            bits(self.last_s()),
        );
        for (t, e) in &self.events {
            out.push_str(&serialize_event(*t, e));
            out.push('\n');
        }
        out
    }

    /// Parses a chunk from its stored text form, validating the header
    /// against the body.
    ///
    /// # Errors
    ///
    /// Fails with `InvalidData` on schema mismatch, malformed lines, or
    /// a header that disagrees with the events that follow.
    pub fn parse(text: &str) -> io::Result<SealedChunk> {
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| bad("empty chunk".into()))?;
        let mut fields = header.split(' ');
        if fields.next() != Some(CHUNK_SCHEMA) {
            return Err(bad(format!("bad chunk schema in header: {header:?}")));
        }
        let mut field = |name: &str| -> io::Result<&str> {
            let f = fields
                .next()
                .ok_or_else(|| bad(format!("missing header field {name}")))?;
            f.strip_prefix(name)
                .and_then(|f| f.strip_prefix('='))
                .ok_or_else(|| bad(format!("expected header field {name}, got {f:?}")))
        };
        let index: u64 = parse_num(field("index")?, "index")?;
        let count: usize = parse_num(field("events")?, "events")?;
        let first = parse_bits(field("first")?)?;
        let last = parse_bits(field("last")?)?;
        let events: Vec<(f64, JournalEvent)> = lines.map(parse_event).collect::<io::Result<_>>()?;
        let chunk = SealedChunk { index, events };
        if chunk.events.len() != count
            || chunk.first_s().to_bits() != first.to_bits()
            || chunk.last_s().to_bits() != last.to_bits()
        {
            return Err(bad(format!(
                "chunk header disagrees with body: {header:?} vs {} events [{}, {}]",
                chunk.events.len(),
                chunk.first_s(),
                chunk.last_s(),
            )));
        }
        Ok(chunk)
    }
}

/// Storage backend for sealed journal chunks.
///
/// Providers own durability and lookup; the journal owns sealing and
/// digests. Implementations must store chunks retrievably by their
/// stream index.
pub trait ChunkProvider: Send {
    /// Persists a sealed chunk.
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    fn store(&mut self, chunk: &SealedChunk) -> io::Result<()>;

    /// Loads the chunk at `index`, or `None` past the end of the stream.
    ///
    /// # Errors
    ///
    /// Propagates storage failures and corrupt-chunk parse errors.
    fn load(&self, index: u64) -> io::Result<Option<SealedChunk>>;

    /// Number of chunks stored.
    fn count(&self) -> u64;
}

/// In-memory provider: keeps every chunk in its serialized text form
/// (so store→load still exercises the full parse path). For tests and
/// short runs.
#[derive(Debug, Default)]
pub struct MemoryChunks {
    chunks: Vec<String>,
}

impl MemoryChunks {
    /// An empty in-memory chunk store.
    pub fn new() -> MemoryChunks {
        MemoryChunks::default()
    }
}

impl ChunkProvider for MemoryChunks {
    fn store(&mut self, chunk: &SealedChunk) -> io::Result<()> {
        if chunk.index != self.chunks.len() as u64 {
            return Err(bad(format!(
                "chunk {} stored out of order (have {})",
                chunk.index,
                self.chunks.len()
            )));
        }
        self.chunks.push(chunk.serialize());
        Ok(())
    }

    fn load(&self, index: u64) -> io::Result<Option<SealedChunk>> {
        match self.chunks.get(index as usize) {
            Some(text) => SealedChunk::parse(text).map(Some),
            None => Ok(None),
        }
    }

    fn count(&self) -> u64 {
        self.chunks.len() as u64
    }
}

/// File-backed provider: one `chunk-NNNNNNNN.qjc` text file per chunk
/// in a directory. Memory use is one open chunk regardless of run
/// length.
#[derive(Debug)]
pub struct FileChunks {
    dir: PathBuf,
    count: u64,
}

impl FileChunks {
    /// Opens (creating if needed) a chunk directory, resuming the count
    /// from the files already present.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or scanned.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<FileChunks> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut count = 0;
        while dir.join(chunk_file(count)).exists() {
            count += 1;
        }
        Ok(FileChunks { dir, count })
    }

    /// The directory chunks are stored in.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }
}

fn chunk_file(index: u64) -> String {
    format!("chunk-{index:08}.qjc")
}

impl ChunkProvider for FileChunks {
    fn store(&mut self, chunk: &SealedChunk) -> io::Result<()> {
        if chunk.index != self.count {
            return Err(bad(format!(
                "chunk {} stored out of order (have {})",
                chunk.index, self.count
            )));
        }
        std::fs::write(self.dir.join(chunk_file(chunk.index)), chunk.serialize())?;
        self.count += 1;
        Ok(())
    }

    fn load(&self, index: u64) -> io::Result<Option<SealedChunk>> {
        let path = self.dir.join(chunk_file(index));
        match std::fs::read_to_string(&path) {
            Ok(text) => SealedChunk::parse(&text).map(Some),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn count(&self) -> u64 {
        self.count
    }
}

/// Replays every chunk in a provider, folding each event line into a
/// digest exactly as the live stream did. Equal digests mean the stored
/// stream is byte-identical to the one the run journaled.
///
/// # Errors
///
/// Propagates provider load failures.
pub fn replay_digest(provider: &dyn ChunkProvider) -> io::Result<u64> {
    let mut digest = FNV_OFFSET;
    let mut events = 0u64;
    for index in 0..provider.count() {
        let chunk = provider
            .load(index)
            .and_then(|c| c.ok_or_else(|| bad(format!("missing chunk {index}"))))?;
        for (t, e) in &chunk.events {
            digest = fold_line(digest, &serialize_event(*t, e));
            events += 1;
        }
    }
    let _ = events;
    Ok(digest)
}

/// Replays every chunk into one flat `(time, event)` stream.
///
/// # Errors
///
/// Propagates provider load failures.
pub fn replay(provider: &dyn ChunkProvider) -> io::Result<Vec<(f64, JournalEvent)>> {
    let mut out = Vec::new();
    for index in 0..provider.count() {
        let chunk = provider
            .load(index)
            .and_then(|c| c.ok_or_else(|| bad(format!("missing chunk {index}"))))?;
        out.extend(chunk.events);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<(f64, JournalEvent)> {
        vec![
            (
                0.1 + 0.2, // deliberately non-representable sum
                JournalEvent::Placed {
                    workload: WorkloadId(3),
                    nodes: 2,
                    cores: 16,
                    delay_s: 30.5,
                },
            ),
            (
                1.0,
                JournalEvent::Evicted {
                    workload: WorkloadId(3),
                    requeued: true,
                },
            ),
            (
                2.0,
                JournalEvent::NodeAdded {
                    workload: WorkloadId(4),
                    server: ServerId(1),
                    resources: NodeResources::new(4, 7.3),
                },
            ),
            (
                3.0,
                JournalEvent::NodeRemoved {
                    workload: WorkloadId(4),
                    server: ServerId(1),
                },
            ),
            (
                4.0,
                JournalEvent::NodeResized {
                    workload: WorkloadId(4),
                    server: ServerId(2),
                    resources: NodeResources::new(8, 16.0),
                },
            ),
            (
                5.0,
                JournalEvent::ParamsSet {
                    workload: WorkloadId(4),
                },
            ),
            (
                6.0,
                JournalEvent::IsolationSet {
                    workload: WorkloadId(4),
                    isolated: false,
                },
            ),
            (
                7.0,
                JournalEvent::Completed {
                    workload: WorkloadId(3),
                },
            ),
            (
                8.0,
                JournalEvent::QosEpisode {
                    workload: WorkloadId(3),
                    cause: crate::qos::QosCause::QueueWait,
                    start_s: 2.5,
                    duration_s: 4.5,
                    peak_depth: 0.625,
                },
            ),
        ]
    }

    #[test]
    fn every_event_kind_round_trips_bitwise() {
        for (t, e) in sample_events() {
            let line = serialize_event(t, &e);
            let (t2, e2) = parse_event(&line).unwrap();
            assert_eq!(t.to_bits(), t2.to_bits(), "time bits for {line}");
            assert_eq!(e, e2, "event for {line}");
        }
    }

    #[test]
    fn invalid_node_resources_are_invalid_data_not_a_panic() {
        for line in [
            "0 node_added 1 2 0 0",
            "0 node_added 1 2 4 fff8000000000000",
            "0 node_resized 1 2 4 0",
        ] {
            let err = parse_event(line).expect_err(line);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{line}");
        }
    }

    #[test]
    fn sealed_chunk_round_trips_through_text() {
        let chunk = SealedChunk {
            index: 5,
            events: sample_events(),
        };
        let text = chunk.serialize();
        assert!(text.starts_with("quasar.journal.chunk.v1 index=5 events=9 "));
        let parsed = SealedChunk::parse(&text).unwrap();
        assert_eq!(parsed, chunk);
    }

    #[test]
    fn header_body_disagreement_is_rejected() {
        let chunk = SealedChunk {
            index: 0,
            events: sample_events(),
        };
        let mut text = chunk.serialize();
        // Drop the last event line; the header still claims 9 events.
        text.truncate(text.trim_end().rfind('\n').unwrap() + 1);
        assert!(SealedChunk::parse(&text).is_err());
    }

    #[test]
    fn memory_provider_round_trips_and_orders() {
        let mut store = MemoryChunks::new();
        let a = SealedChunk {
            index: 0,
            events: sample_events(),
        };
        store.store(&a).unwrap();
        assert!(
            store
                .store(&SealedChunk {
                    index: 7,
                    events: sample_events(),
                })
                .is_err(),
            "out-of-order store must fail"
        );
        assert_eq!(store.count(), 1);
        assert_eq!(store.load(0).unwrap().unwrap(), a);
        assert!(store.load(1).unwrap().is_none());
    }

    #[test]
    fn file_provider_persists_and_reopens() {
        let dir = std::env::temp_dir().join(format!("quasar-chunks-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = FileChunks::open(&dir).unwrap();
        for index in 0..3 {
            store
                .store(&SealedChunk {
                    index,
                    events: sample_events(),
                })
                .unwrap();
        }
        assert_eq!(store.count(), 3);
        // Reopen resumes the count from disk.
        let reopened = FileChunks::open(&dir).unwrap();
        assert_eq!(reopened.count(), 3);
        assert_eq!(reopened.load(2).unwrap().unwrap().index, 2);
        let live: u64 = {
            let mut d = digest_seed();
            for _ in 0..3 {
                for (t, e) in sample_events() {
                    d = fold_line(d, &serialize_event(t, &e));
                }
            }
            d
        };
        assert_eq!(replay_digest(&reopened).unwrap(), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn digest_is_chunk_boundary_independent() {
        let events = sample_events();
        let mut one = MemoryChunks::new();
        one.store(&SealedChunk {
            index: 0,
            events: events.clone(),
        })
        .unwrap();
        let mut many = MemoryChunks::new();
        for (i, (t, e)) in events.iter().enumerate() {
            many.store(&SealedChunk {
                index: i as u64,
                events: vec![(*t, e.clone())],
            })
            .unwrap();
        }
        assert_eq!(
            replay_digest(&one).unwrap(),
            replay_digest(&many).unwrap(),
            "digest covers the line stream, not the chunking"
        );
    }
}
