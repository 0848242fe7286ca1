//! The `asapd` daemon runtime: one process hosting a whole node population
//! on the sim engine, paced by the wall clock and driven over a control
//! socket.
//!
//! Where [`crate::loopback`] replays a pinned workload trace for digest
//! equivalence, the daemon's "trace" arrives live: text commands on a Unix
//! domain socket (`join`, `leave`, `advertise`, `search`, `query`, `stats`,
//! `peers`, `quit`) are validated here and become
//! [`TraceEvent`]s applied through [`Simulation::apply_event`] — the same
//! engine, on the same [`Framed`] carrier, the loopback uses. The daemon
//! itself keeps only pacing (virtual time follows the OS clock through a
//! [`VirtualClock`]; `run_until(clock.now_us())` dispatches what is due)
//! and the control socket.
//!
//! The one deliberate nondeterminism boundary (and why the daemon makes no
//! digest claim — see DESIGN.md §7) is wall-clock pacing: command arrival
//! times, and therefore query issue and send timestamps, come from
//! [`VirtualClock::now_us`]. Given those timestamps the run is the
//! engine's: events dispatch in `(time, seq)` order.
//!
//! The control protocol is line-oriented: one command in, one `ok ...` or
//! `err ...` line out, so `nc -U`/scripts can drive a node population
//! interactively. A command line is capped at 4 KiB (`MAX_LINE`), and a
//! verb given more or fewer words than it takes is answered
//! `err usage: …` without acting (`VERBS`).

use crate::clock::VirtualClock;
use crate::loopback::{Framed, Loopback};
use asap_overlay::{OverlayConfig, OverlayKind, PeerId};
use asap_sim::{Carrier, CheckpointProtocol, Simulation, Transport};
use asap_topology::{PhysicalNetwork, TransitStubConfig};
use asap_workload::{DocId, QuerySpec, TraceEvent, WorkloadConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// How the daemon builds and paces its world.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Node population size (≥ 4; the reduced workload generator's floor).
    pub peers: usize,
    /// World seed: topology, overlay, content model, placement.
    pub seed: u64,
    /// Virtual-per-wall clock speed factor (see [`VirtualClock`]).
    pub speed: u32,
    /// Control-socket path; an existing file there is replaced.
    pub socket: PathBuf,
}

/// Idle wait cap: how long the event loop blocks for a command when no
/// queued event comes due sooner.
const IDLE_WAIT: Duration = Duration::from_millis(50);

/// Longest accepted control line, bytes (newline excluded). Ample for the
/// eight verbs; caps what a client that never sends `\n` can make the
/// daemon buffer.
const MAX_LINE: usize = 4096;

/// A control command and the channel its one-line response goes back on.
type Command = (String, mpsc::Sender<String>);

/// Run a daemon until a `quit` command (or the listener dies). Owns the
/// calling thread; the control listener runs on background threads. The
/// protocol is built from the generated content model (ASAP's ad tables
/// are model-sized), so callers pass a constructor, not an instance.
pub fn run_daemon<P, F>(cfg: &DaemonConfig, make_protocol: F) -> std::io::Result<()>
where
    P: CheckpointProtocol,
    F: FnOnce(&asap_workload::ContentModel) -> P,
{
    let phys = PhysicalNetwork::generate(&TransitStubConfig::reduced(cfg.seed));
    // One scripted query satisfies the generator's floor; the trace is then
    // dropped — the operator *is* the trace.
    let mut workload = asap_workload::generate(&WorkloadConfig::reduced(cfg.peers, 1, cfg.seed));
    workload.trace.events.clear();
    let overlay = OverlayConfig::new(OverlayKind::Random, cfg.peers, cfg.seed).build();
    let protocol = make_protocol(&workload.model);
    let sim = Loopback::new(
        &phys,
        &workload,
        overlay,
        OverlayKind::Random,
        protocol,
        cfg.seed,
    )
    // A daemon has no end of trace: never cut events off at a horizon.
    .horizon_grace(u64::MAX)
    .build();

    let _ = std::fs::remove_file(&cfg.socket);
    let listener = UnixListener::bind(&cfg.socket)?;
    let (cmd_tx, cmd_rx) = mpsc::channel::<Command>();
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let tx = cmd_tx.clone();
            thread::spawn(move || serve_connection(stream, &tx));
        }
    });

    let clock = VirtualClock::new(cfg.speed);
    let mut daemon = Daemon {
        sim,
        next_query_id: 0,
    };
    loop {
        daemon.sim.run_until(clock.now_us());
        let wait = match daemon.sim.next_event_us() {
            Some(t) => clock.wall_until(t).min(IDLE_WAIT),
            None => IDLE_WAIT,
        };
        match cmd_rx.recv_timeout(wait) {
            Ok((line, reply)) => {
                let (response, quit) = daemon.handle_command(&line, clock.now_us());
                let _ = reply.send(response);
                if quit {
                    break;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    let _ = std::fs::remove_file(&cfg.socket);
    Ok(())
}

/// One control connection: line in, line out, until EOF.
fn serve_connection(stream: UnixStream, tx: &mpsc::Sender<Command>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    serve_lines(BufReader::new(stream), write_half, tx);
}

/// The connection loop over any reader/writer pair. Reads are capped one
/// byte past [`MAX_LINE`], so an over-long line is detected — answered
/// with `err line too long` and the connection closed — without ever
/// buffering more than the cap.
fn serve_lines(mut reader: impl BufRead, mut writer: impl Write, tx: &mpsc::Sender<Command>) {
    let mut line = Vec::new();
    loop {
        line.clear();
        match (&mut reader)
            .take(MAX_LINE as u64 + 1)
            .read_until(b'\n', &mut line)
        {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        } else if line.len() > MAX_LINE {
            let _ = writeln!(writer, "err line too long");
            break;
        }
        let Ok(command) = std::str::from_utf8(&line) else {
            if writeln!(writer, "err invalid utf-8").is_err() {
                break;
            }
            continue;
        };
        let (reply_tx, reply_rx) = mpsc::channel();
        if tx.send((command.to_string(), reply_tx)).is_err() {
            break;
        }
        let Ok(response) = reply_rx.recv() else { break };
        if writeln!(writer, "{response}").is_err() {
            break;
        }
    }
}

/// Each verb with the least and the most arguments it takes, and the usage
/// line a command with any other count is answered with.
const VERBS: [(&str, usize, usize, &str); 8] = [
    ("stats", 0, 0, "stats"),
    ("peers", 0, 0, "peers"),
    ("quit", 0, 0, "quit"),
    ("join", 1, 1, "join <peer>"),
    ("leave", 1, 1, "leave <peer>"),
    ("query", 1, 1, "query <id>"),
    ("advertise", 1, 2, "advertise <peer> [<doc>]"),
    ("search", 1, 2, "search <peer> [<doc>]"),
];

/// `C` is [`Framed`] outside tests, which substitute a carrier that fails.
struct Daemon<'a, P: CheckpointProtocol, C: Carrier<P::Msg> = Framed<P>> {
    sim: Simulation<'a, P, C>,
    next_query_id: u32,
}

impl<'a, P: CheckpointProtocol, C: Carrier<P::Msg>> Daemon<'a, P, C> {
    /// Execute one control command arriving at virtual time `now_us`;
    /// returns `(response_line, quit)`.
    fn handle_command(&mut self, line: &str, now_us: u64) -> (String, bool) {
        let mut words = line.split_whitespace();
        let verb = words.next().unwrap_or("");
        let args: Vec<&str> = words.collect();
        if let Some(&(_, min, max, usage)) = VERBS.iter().find(|v| v.0 == verb) {
            if !(min..=max).contains(&args.len()) {
                return (format!("err usage: {usage}"), false);
            }
        }
        let ctx = self.sim.ctx();
        let response = match verb {
            // `wire_errors` is frames dropped because they failed to
            // decode: anything but 0 means the codec regressed.
            "stats" => Ok(format!(
                "ok now_us={} alive={} sent={} answered={}/{} wire_errors={}",
                now_us.max(ctx.now_us()),
                ctx.alive_count(),
                ctx.messages_sent(),
                ctx.ledger.num_succeeded(),
                ctx.ledger.num_queries(),
                ctx.wire_errors(),
            )),
            "peers" => Ok(self.peers_line()),
            "join" => self.parse_peer(&args, 0).and_then(|p| {
                if self.sim.ctx().alive(p) {
                    return Err(format!("peer {} already alive", p.0));
                }
                self.sim.apply_event(now_us, TraceEvent::Join(p));
                Ok(format!("ok join peer={}", p.0))
            }),
            "leave" => self.parse_live_peer(&args).map(|p| {
                self.sim.apply_event(now_us, TraceEvent::Leave(p));
                format!("ok leave peer={}", p.0)
            }),
            "advertise" => self.cmd_advertise(&args, now_us),
            "search" => self.cmd_search(&args, now_us),
            "query" => match args.first().and_then(|s| s.parse::<u32>().ok()) {
                Some(id) if !ctx.ledger.is_registered(id) => Err(format!("unknown query id={id}")),
                Some(id) => Ok(if ctx.ledger.is_answered(id) {
                    format!("ok answered id={id}")
                } else {
                    format!("ok pending id={id}")
                }),
                None => Err("usage: query <id>".to_string()),
            },
            "quit" => return ("ok bye".to_string(), true),
            "" => Err("empty command".to_string()),
            other => Err(format!("unknown command {other}")),
        };
        match response {
            Ok(line) => (line, false),
            Err(e) => (format!("err {e}"), false),
        }
    }

    fn peers_line(&self) -> String {
        let ctx = self.sim.ctx();
        let mut alive = String::new();
        let mut offline = String::new();
        for i in 0..ctx.num_peers() {
            let slot = if ctx.alive(PeerId(i as u32)) {
                &mut alive
            } else {
                &mut offline
            };
            if !slot.is_empty() {
                slot.push(',');
            }
            slot.push_str(&i.to_string());
        }
        format!("ok alive={alive} offline={offline}")
    }

    fn parse_peer(&self, args: &[&str], idx: usize) -> Result<PeerId, String> {
        let raw = args.get(idx).ok_or_else(|| "missing peer id".to_string())?;
        let id: u32 = raw.parse().map_err(|_| format!("bad peer id {raw}"))?;
        if (id as usize) < self.sim.ctx().num_peers() {
            Ok(PeerId(id))
        } else {
            Err(format!("peer {id} out of range"))
        }
    }

    /// The first argument as a peer that is currently alive.
    fn parse_live_peer(&self, args: &[&str]) -> Result<PeerId, String> {
        let p = self.parse_peer(args, 0)?;
        if self.sim.ctx().alive(p) {
            Ok(p)
        } else {
            Err(format!("peer {} is offline", p.0))
        }
    }

    /// `advertise <peer> [<doc>]` — share a document (default: the first
    /// one the peer does not hold yet) as a trace `AddDocument`.
    fn cmd_advertise(&mut self, args: &[&str], now_us: u64) -> Result<String, String> {
        let peer = self.parse_live_peer(args)?;
        let ctx = self.sim.ctx();
        let doc = match args.get(1) {
            Some(raw) => self.parse_doc(raw)?,
            None => (0..ctx.model.num_docs() as u32)
                .map(DocId)
                .find(|&d| !ctx.content.peer_has_doc(peer, d))
                .ok_or_else(|| "peer already holds every document".to_string())?,
        };
        if ctx.content.peer_has_doc(peer, doc) {
            return Err(format!("peer {} already holds doc {}", peer.0, doc.0));
        }
        self.sim
            .apply_event(now_us, TraceEvent::AddDocument { peer, doc });
        Ok(format!("ok advertise peer={} doc={}", peer.0, doc.0))
    }

    /// `search <peer> [<doc>]` — issue a query for a target document
    /// (default: the lowest-id document some *other* live peer holds — the
    /// least first document over those peers, each list being sorted),
    /// with the document's own keywords as the conjunctive terms.
    fn cmd_search(&mut self, args: &[&str], now_us: u64) -> Result<String, String> {
        let requester = self.parse_live_peer(args)?;
        let ctx = self.sim.ctx();
        let target = match args.get(1) {
            Some(raw) => self.parse_doc(raw)?,
            None => (0..ctx.num_peers() as u32)
                .map(PeerId)
                .filter(|&p| p != requester && ctx.alive(p))
                .filter_map(|p| ctx.content.peer_docs(p).first().copied())
                .min()
                .ok_or_else(|| "no live remote holder of any document".to_string())?,
        };
        let id = self.next_query_id;
        self.next_query_id += 1;
        let spec = QuerySpec {
            id,
            requester,
            terms: ctx.model.doc(target).keywords.to_vec(),
            target,
        };
        self.sim.apply_event(now_us, TraceEvent::Query(spec));
        Ok(format!("ok search id={id} target={}", target.0))
    }

    fn parse_doc(&self, raw: &str) -> Result<DocId, String> {
        let id: u32 = raw.parse().map_err(|_| format!("bad doc id {raw}"))?;
        if (id as usize) < self.sim.ctx().model.num_docs() {
            Ok(DocId(id))
        } else {
            Err(format!("doc {id} out of range"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::PackedFrame;
    use asap_metrics::MsgClass;
    use asap_search::{BaselineMsg, Flooding, FloodingConfig};
    use asap_sim::SimBuilder;
    use asap_workload::Workload;

    /// [`Framed`], except that every `NTH` frame has a body bit flipped on
    /// its way into the queue (none has for `NTH` = 0: the count starts at 1).
    struct Flipping<const NTH: u64> {
        inner: Framed<Flooding>,
        packed: u64,
    }

    impl<const NTH: u64> Default for Flipping<NTH> {
        fn default() -> Self {
            Self {
                inner: Framed::default(),
                packed: 0,
            }
        }
    }

    impl<const NTH: u64> Carrier<BaselineMsg> for Flipping<NTH> {
        type Packed = PackedFrame;

        fn pack(
            &mut self,
            from: PeerId,
            to: PeerId,
            class: MsgClass,
            bytes: usize,
            msg: BaselineMsg,
        ) -> PackedFrame {
            let mut frame = self.inner.pack(from, to, class, bytes, msg);
            self.packed += 1;
            if self.packed.is_multiple_of(NTH) {
                frame.as_bytes_mut()[20] ^= 1;
            }
            frame
        }

        fn unpack(&mut self, packed: PackedFrame) -> Option<BaselineMsg> {
            self.inner.unpack(packed)
        }
    }

    /// The world `run_daemon` builds for `peers` at seed 1: the topology
    /// and a workload whose trace is dropped.
    fn world(peers: usize) -> (PhysicalNetwork, Workload) {
        let phys = PhysicalNetwork::generate(&TransitStubConfig::reduced(1));
        let mut workload = asap_workload::generate(&WorkloadConfig::reduced(peers, 1, 1));
        workload.trace.events.clear();
        (phys, workload)
    }

    /// A flooding daemon over `world`'s output, on carrier `C`.
    fn flooding_daemon<'a, C: Carrier<BaselineMsg>>(
        phys: &'a PhysicalNetwork,
        workload: &'a Workload,
    ) -> Daemon<'a, Flooding, C> {
        let peers = workload.model.num_peers();
        let overlay = OverlayConfig::new(OverlayKind::Random, peers, 1).build();
        let protocol = Flooding::new(FloodingConfig::default());
        let sim = SimBuilder::new(phys, workload, overlay, OverlayKind::Random, protocol, 1)
            .horizon_grace(u64::MAX)
            .build();
        Daemon {
            sim,
            next_query_id: 0,
        }
    }

    /// Search from the first live peer on a 12-peer flooding daemon whose
    /// carrier is `Flipping<NTH>`, let the flood settle, and return the
    /// `stats` reply with the engine's own count of dropped frames.
    fn stats_after_a_search<const NTH: u64>() -> (String, u64) {
        let (phys, workload) = world(12);
        let mut daemon: Daemon<'_, Flooding, Flipping<NTH>> = flooding_daemon(&phys, &workload);
        let requester = daemon.sim.ctx().alive_peers()[0].0;
        let (reply, _) = daemon.handle_command(&format!("search {requester}"), 1_000);
        assert!(reply.starts_with("ok search id=0"), "{reply}");
        daemon.sim.run_until(60_000_000);
        let (stats, quit) = daemon.handle_command("stats", 60_000_000);
        assert!(!quit);
        (stats, daemon.sim.ctx().wire_errors())
    }

    #[test]
    fn query_tells_a_never_issued_id_from_a_pending_and_an_answered_one() {
        let (phys, workload) = world(12);
        let mut daemon: Daemon<'_, Flooding> = flooding_daemon(&phys, &workload);
        let unknown = |d: &mut Daemon<'_, Flooding>, id: u32| {
            let (reply, quit) = d.handle_command(&format!("query {id}"), 1_000);
            assert!(!quit);
            assert_eq!(reply, format!("err unknown query id={id}"));
        };
        unknown(&mut daemon, 0);
        let requester = daemon.sim.ctx().alive_peers()[0].0;
        let (reply, _) = daemon.handle_command(&format!("search {requester}"), 1_000);
        assert!(reply.starts_with("ok search id=0"), "{reply}");
        assert_eq!(daemon.handle_command("query 0", 1_000).0, "ok pending id=0");
        unknown(&mut daemon, 1);
        unknown(&mut daemon, u32::MAX);
        daemon.sim.run_until(60_000_000);
        assert_eq!(
            daemon.handle_command("query 0", 60_000_000).0,
            "ok answered id=0"
        );
        unknown(&mut daemon, 1);
    }

    /// The definition `search`'s default target stands in for: the lowest
    /// document some live peer other than `requester` holds.
    fn lowest_live_remote_document(
        daemon: &Daemon<'_, Flooding>,
        requester: PeerId,
    ) -> Option<DocId> {
        let ctx = daemon.sim.ctx();
        (0..ctx.model.num_docs() as u32).map(DocId).find(|&d| {
            (0..ctx.num_peers() as u32)
                .map(PeerId)
                .any(|h| h != requester && ctx.alive(h) && ctx.content.peer_has_doc(h, d))
        })
    }

    /// The target a default `search` from `requester` picks.
    fn default_target(daemon: &mut Daemon<'_, Flooding>, requester: PeerId) -> DocId {
        let (reply, _) = daemon.handle_command(&format!("search {}", requester.0), 1_000);
        let target = reply.rsplit_once(" target=").expect("an ok search reply").1;
        DocId(target.parse().expect("a document id"))
    }

    #[test]
    fn default_search_target_is_the_lowest_document_a_live_remote_peer_holds() {
        let (phys, workload) = world(40);
        let mut daemon: Daemon<'_, Flooding> = flooding_daemon(&phys, &workload);
        let ctx = daemon.sim.ctx();
        let lowest = (0..ctx.num_peers() as u32)
            .map(PeerId)
            .filter_map(|p| ctx.content.peer_docs(p).first().map(|&d| (d, p)))
            .min()
            .expect("some peer holds a document");
        let (d0, owner) = lowest;
        let holders = (0..ctx.num_peers() as u32)
            .filter(|&p| ctx.content.peer_has_doc(PeerId(p), d0))
            .count();
        assert_eq!(holders, 1, "the lowest document must have one holder here");
        assert!(ctx.alive(owner), "its holder must start online");
        let other = *ctx
            .alive_peers()
            .iter()
            .find(|&&p| p != owner)
            .expect("a second live peer");

        // The lowest holder is someone else, online: its document.
        assert_eq!(default_target(&mut daemon, other), d0);
        // The lowest holder is the requester: the next document.
        let want = lowest_live_remote_document(&daemon, owner).expect("a remote holder");
        assert!(want > d0);
        assert_eq!(default_target(&mut daemon, owner), want);
        // The lowest holder is offline.
        let (reply, _) = daemon.handle_command(&format!("leave {}", owner.0), 1_000);
        assert_eq!(reply, format!("ok leave peer={}", owner.0));
        let want = lowest_live_remote_document(&daemon, other).expect("a remote holder");
        assert!(want > d0);
        assert_eq!(default_target(&mut daemon, other), want);
    }

    /// A 12-peer flooding daemon and its first live peer.
    fn with_daemon(check: impl FnOnce(&mut Daemon<'_, Flooding>, u32)) {
        let (phys, workload) = world(12);
        let mut daemon: Daemon<'_, Flooding> = flooding_daemon(&phys, &workload);
        let first = daemon.sim.ctx().alive_peers()[0].0;
        check(&mut daemon, first);
    }

    /// `line` is answered with `usage` and does not quit.
    fn refused(daemon: &mut Daemon<'_, Flooding>, line: &str, usage: &str) {
        let reply = daemon.handle_command(line, 1_000);
        assert_eq!(reply, (format!("err usage: {usage}"), false), "{line}");
    }

    #[test]
    fn stats_takes_no_argument() {
        with_daemon(|d, _| refused(d, "stats x", "stats"));
    }

    #[test]
    fn peers_takes_no_argument() {
        with_daemon(|d, _| refused(d, "peers x", "peers"));
    }

    #[test]
    fn quit_with_an_argument_does_not_quit() {
        with_daemon(|d, _| {
            refused(d, "quit now", "quit");
            assert_eq!(d.handle_command("quit", 1_000), ("ok bye".into(), true));
        });
    }

    #[test]
    fn join_takes_one_peer() {
        with_daemon(|d, p| {
            assert_eq!(
                d.handle_command(&format!("leave {p}"), 1_000).0,
                format!("ok leave peer={p}")
            );
            refused(d, &format!("join {p} 4"), "join <peer>");
            refused(d, "join", "join <peer>");
            assert!(!d.sim.ctx().alive(PeerId(p)), "the refused join joined");
        });
    }

    #[test]
    fn leave_takes_one_peer() {
        with_daemon(|d, p| {
            refused(d, &format!("leave {p} 4"), "leave <peer>");
            assert!(d.sim.ctx().alive(PeerId(p)), "the refused leave left");
        });
    }

    #[test]
    fn query_takes_one_id() {
        with_daemon(|d, p| {
            assert!(d
                .handle_command(&format!("search {p}"), 1_000)
                .0
                .starts_with("ok search id=0"));
            refused(d, "query 0 1", "query <id>");
            assert_eq!(d.handle_command("query 0", 1_000).0, "ok pending id=0");
        });
    }

    #[test]
    fn advertise_takes_a_peer_and_at_most_one_document() {
        with_daemon(|d, p| {
            let peer = PeerId(p);
            let ctx = d.sim.ctx();
            let doc = (0..ctx.model.num_docs() as u32)
                .map(DocId)
                .find(|&doc| !ctx.content.peer_has_doc(peer, doc))
                .expect("a document the peer lacks");
            refused(
                d,
                &format!("advertise {p} {} x", doc.0),
                "advertise <peer> [<doc>]",
            );
            assert!(
                !d.sim.ctx().content.peer_has_doc(peer, doc),
                "the refused advertise shared"
            );
        });
    }

    #[test]
    fn search_takes_a_peer_and_at_most_one_document() {
        with_daemon(|d, p| {
            refused(d, &format!("search {p} 0 x"), "search <peer> [<doc>]");
            assert_eq!(
                d.sim.ctx().ledger.num_queries(),
                0,
                "the refused search was issued"
            );
        });
    }

    #[test]
    fn stats_reports_no_wire_errors_on_a_healthy_carrier() {
        let (stats, dropped) = stats_after_a_search::<0>();
        assert_eq!(dropped, 0);
        assert!(stats.starts_with("ok now_us=60000000 alive="), "{stats}");
        assert!(stats.ends_with(" answered=1/1 wire_errors=0"), "{stats}");
    }

    #[test]
    fn stats_counts_every_frame_that_failed_to_decode() {
        let (stats, dropped) = stats_after_a_search::<3>();
        assert!(
            dropped > 0,
            "no corrupted frame was ever delivered: {stats}"
        );
        assert!(
            stats.ends_with(&format!(" wire_errors={dropped}")),
            "{stats}"
        );
    }

    #[test]
    fn over_long_control_line_is_rejected_with_a_bounded_read() {
        // A client that never sends a newline: 1 MiB of 'a'.
        let total = 1u64 << 20;
        let mut reader = BufReader::with_capacity(64, std::io::repeat(b'a').take(total));
        let mut reply = Vec::new();
        let (tx, rx) = mpsc::channel::<Command>();
        serve_lines(&mut reader, &mut reply, &tx);
        assert_eq!(reply, b"err line too long\n");
        assert!(rx.try_recv().is_err(), "no command reaches the daemon");
        // Bounded: the connection consumed the cap (+1 probe byte, + at
        // most one BufReader refill), never the whole stream.
        let consumed = total - reader.get_ref().limit();
        assert!(
            consumed <= MAX_LINE as u64 + 1 + 64,
            "read {consumed} bytes of an over-long line"
        );
    }

    #[test]
    fn a_line_of_exactly_the_cap_is_served() {
        let mut input = vec![b'x'; MAX_LINE];
        input.push(b'\n');
        let mut reply = Vec::new();
        let (tx, rx) = mpsc::channel::<Command>();
        let daemon = thread::spawn(move || {
            let (line, reply) = rx.recv().expect("one command");
            reply
                .send(format!("ok {}", line.len()))
                .expect("client waits");
        });
        serve_lines(&input[..], &mut reply, &tx);
        daemon.join().expect("daemon side");
        assert_eq!(reply, format!("ok {MAX_LINE}\n").into_bytes());
    }

    #[test]
    fn a_non_utf8_line_is_answered_and_the_connection_keeps_serving() {
        let input = b"\xff\nstats\n";
        let mut reply = Vec::new();
        let (tx, rx) = mpsc::channel::<Command>();
        let daemon = thread::spawn(move || {
            rx.iter()
                .map(|(line, reply)| {
                    reply.send(format!("ok {line}")).expect("client waits");
                    line
                })
                .collect::<Vec<String>>()
        });
        serve_lines(&input[..], &mut reply, &tx);
        drop(tx);
        let seen = daemon.join().expect("daemon side");
        assert_eq!(seen, ["stats"], "the bad line never reaches the daemon");
        assert_eq!(reply, b"err invalid utf-8\nok stats\n");
    }
}
