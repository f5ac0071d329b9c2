//! The lock order of the platform, in one table.
//!
//! A lock built with `parking_lot::Mutex::ranked` / `RwLock::ranked`
//! takes its rank from here; a thread may acquire it only while every
//! lock it holds ranks strictly below. Every other lock is a leaf
//! (`new`): nothing is acquired while one is held. All shards of one
//! plane share a rank, so a thread holds at most one of them at a time.
//! Debug builds check the order on every acquisition (DESIGN §13).

/// The ops plane's sample in progress: a tick reads the whole platform
/// (controller registries, both shard planes, the pending queue, the
/// trace ring) while it holds the plane's tick.
pub const OPS_SAMPLE: u32 = 0;
/// The pending access-request queue: a decision checks the request
/// against the event catalog while it holds the queue.
pub const PENDING: u32 = 5;
/// The controller's routing table, a journal lock (storage is written
/// under it). A publish holds its read guard from the route's
/// authorisation through the bus admission, the audit batch, the index
/// insert and the send; a re-authorisation holds its write guard across
/// the PDP and the registry, the detachments' audit batch and the bus
/// closes; a subscribe across its audit record and the bus attach.
pub const ROUTES: u32 = 10;
/// The controller's control journal: a policy or consent change commits
/// its audit record, then applies to the PDP or the consent registry,
/// while it holds the journal.
pub const CONTROL: u32 = 15;
/// The policy decision point.
pub const PDP: u32 = 20;
/// The actor registry, read under the PDP's guard.
pub const ACTORS: u32 = 30;
/// The event catalog.
pub const CATALOG: u32 = 35;
/// The consent registry.
pub const CONSENT: u32 = 40;
/// The registry of producer gateways.
pub const GATEWAYS: u32 = 45;
/// An events-index shard, taken under `PDP` → `ACTORS` by an inquiry.
pub const INDEX_SHARD: u32 = 50;
/// A producer's Local Cooperation Gateway.
pub const GATEWAY: u32 = 60;
/// An audit shard.
pub const AUDIT_SHARD: u32 = 70;
/// The broker's state, taken under `ROUTES` (→ `PDP` → `ACTORS`).
pub const BUS: u32 = 80;
/// The flight recorder's ring, held while it reads the trace ring.
pub const OPS_RECORDER: u32 = 90;
