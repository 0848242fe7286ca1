//! **ASAP** — the Advertisement-based Search Algorithm for unstructured P2P
//! systems (the paper's contribution, §III).
//!
//! Instead of pulling content locations with query floods, every node
//! *pushes* a synopsis of its shared content — an **ad** `(I, C, T, v)`:
//! identity, a Bloom-filter content summary, topic set and version — to
//! potentially interested peers, which selectively cache ads whose topics
//! overlap their interests. A search then runs **locally**: the requester
//! scans its ad cache for filters containing every query term and sends a
//! one-hop *content confirmation* to each matching ad's source. If the local
//! lookup comes up dry (or confirmations fail), the node requests ads from
//! neighbors within `h` hops (default 1) and retries — the same process a
//! freshly joined node uses to warm its cache.
//!
//! Three ad-forwarding schemes mirror the paper's variants:
//! ASAP(FLD) floods ads with TTL 6; ASAP(RW) uses 5 walkers and ASAP(GSA)
//! budgeted dispersal, both with a total per-delivery budget of
//! `topics × M₀` (`M₀ = 3,000`).
//!
//! Full ads carry the whole filter; **patch ads** carry changed bit
//! positions (issued on content change, consistent via the version number);
//! **refresh ads** carry no content and keep cached entries alive. A cacher
//! that detects a version gap repairs it with a direct full-ad fetch from
//! the source.

pub mod ad;
pub mod checkpoint;
pub mod config;
pub mod delivery;
pub mod protocol;
pub mod repository;
pub mod retry;
pub mod search;
pub mod superpeer;

pub use ad::{AdPayload, AdSnapshot, AsapMsg, Forwarding};
pub use config::{AsapConfig, DeliveryKind};
pub use protocol::Asap;
pub use repository::AdRepository;
pub use retry::{Backoff, RobustnessConfig};
pub use superpeer::SuperAsap;
