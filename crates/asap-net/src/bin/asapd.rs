//! `asapd` — a minimal ASAP search daemon: the sim engine on the framed
//! wire carrier, paced against the wall clock.
//!
//! Hosts a whole node population in one process (see
//! [`asap_net::daemon`]) and exposes a
//! line-oriented control protocol on a Unix domain socket:
//!
//! ```text
//! asapd --nodes 16 --socket /tmp/asapd.sock --algo flooding --speed 50
//! printf 'stats\n' | nc -U /tmp/asapd.sock
//! ```
//!
//! Commands: `peers`, `join <p>`, `leave <p>`, `advertise <p> [doc]`,
//! `search <p> [doc]`, `query <id>`, `stats`, `quit`.
//!
//! `--demo` runs the end-to-end smoke sequence CI pins: spawn the daemon,
//! connect as a client, cycle a node through leave and join, advertise a
//! document on it, search for that document from another node, and poll
//! until the query resolves — all in a few wall seconds at the default
//! `--speed`. It exits non-zero unless the query resolved and `stats`
//! reports `wire_errors=0`. A stdout that closes early (`asapd --demo |
//! head -3`) ends the demo at that line: it quits the daemon and exits 0.

use asap_core::{Asap, AsapConfig};
use asap_net::daemon::{run_daemon, DaemonConfig};
use asap_search::{Flooding, FloodingConfig, Gsa, GsaConfig, RandomWalk, RandomWalkConfig};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::thread;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Algo {
    Flooding,
    RandomWalk,
    Gsa,
    AsapRw,
}

impl Algo {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "flooding" | "fld" => Some(Self::Flooding),
            "random-walk" | "rw" => Some(Self::RandomWalk),
            "gsa" => Some(Self::Gsa),
            "asap" | "asap-rw" => Some(Self::AsapRw),
            _ => None,
        }
    }
}

struct Opts {
    cfg: DaemonConfig,
    algo: Algo,
    demo: bool,
}

const USAGE: &str = "usage: asapd [--nodes N] [--seed S] [--speed X] [--socket PATH] \
                     [--algo flooding|random-walk|gsa|asap-rw] [--demo]";

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        cfg: DaemonConfig {
            peers: 8,
            seed: 1,
            speed: 50,
            socket: PathBuf::from("/tmp/asapd.sock"),
        },
        algo: Algo::Flooding,
        demo: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--nodes" => {
                opts.cfg.peers = value("--nodes")?
                    .parse()
                    .map_err(|_| "--nodes: not a number".to_string())?;
                if opts.cfg.peers < 4 {
                    return Err("--nodes must be at least 4".into());
                }
            }
            "--seed" => {
                opts.cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed: not a number".to_string())?;
            }
            "--speed" => {
                opts.cfg.speed = value("--speed")?
                    .parse()
                    .map_err(|_| "--speed: not a number".to_string())?;
            }
            "--socket" => opts.cfg.socket = PathBuf::from(value("--socket")?),
            "--algo" => {
                let raw = value("--algo")?;
                opts.algo = Algo::parse(&raw).ok_or_else(|| format!("unknown algo {raw}"))?;
            }
            "--demo" => opts.demo = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn serve(cfg: &DaemonConfig, algo: Algo) -> std::io::Result<()> {
    match algo {
        Algo::Flooding => run_daemon(cfg, |_| Flooding::new(FloodingConfig::default())),
        Algo::RandomWalk => run_daemon(cfg, |_| RandomWalk::new(RandomWalkConfig::default())),
        Algo::Gsa => run_daemon(cfg, |_| Gsa::new(GsaConfig::default())),
        Algo::AsapRw => run_daemon(cfg, |model| Asap::new(AsapConfig::rw(), model)),
    }
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if opts.demo {
        return demo(opts);
    }
    // The banner is for a reader; a closed stdout does not stop the daemon.
    let _ = writeln!(
        std::io::stdout(),
        "asapd: {} nodes, algo {:?}, speed {}x, socket {}",
        opts.cfg.peers,
        opts.algo,
        opts.cfg.speed,
        opts.cfg.socket.display()
    );
    match serve(&opts.cfg, opts.algo) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("asapd: {e}");
            ExitCode::FAILURE
        }
    }
}

// --- demo client ----------------------------------------------------------

/// A line-oriented control client.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(path: &PathBuf, timeout: Duration) -> std::io::Result<Self> {
        let deadline = Instant::now() + timeout;
        loop {
            match UnixStream::connect(path) {
                Ok(stream) => {
                    let writer = stream.try_clone()?;
                    return Ok(Self {
                        reader: BufReader::new(stream),
                        writer,
                    });
                }
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn roundtrip(&mut self, command: &str) -> std::io::Result<String> {
        writeln!(self.writer, "{command}")?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        Ok(line.trim_end().to_string())
    }
}

/// Pull `key=value` out of an `ok ...` response line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
}

/// Why the demo stopped before its end.
enum Stop {
    /// A step failed: the demo exits non-zero.
    Failed(String),
    /// Stdout closed (`asapd --demo | head -3`): no one reads the rest.
    Unheard,
}

impl From<String> for Stop {
    fn from(msg: String) -> Self {
        Self::Failed(msg)
    }
}

/// One progress line; a closed stdout ends the demo.
fn say(out: &mut impl Write, line: std::fmt::Arguments<'_>) -> Result<(), Stop> {
    writeln!(out, "{line}").map_err(|_| Stop::Unheard)
}

fn demo(opts: Opts) -> ExitCode {
    let cfg = opts.cfg.clone();
    let algo = opts.algo;
    let daemon = thread::spawn(move || serve(&cfg, algo));
    let mut client = match Client::connect(&opts.cfg.socket, Duration::from_secs(5)) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("demo: connect: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = run_demo(&mut client, &mut std::io::stdout().lock());
    // The quit command stops the daemon loop, so the thread can be joined.
    let _ = client.roundtrip("quit");
    match outcome {
        Ok(()) | Err(Stop::Unheard) => match daemon.join() {
            Ok(Ok(())) => ExitCode::SUCCESS,
            Ok(Err(e)) => {
                eprintln!("demo: daemon failed: {e}");
                ExitCode::FAILURE
            }
            Err(_) => {
                eprintln!("demo: daemon panicked");
                ExitCode::FAILURE
            }
        },
        Err(Stop::Failed(msg)) => {
            eprintln!("demo: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run_demo(client: &mut Client, out: &mut impl Write) -> Result<(), Stop> {
    let fail = |what: &str, e: std::io::Error| format!("{what}: {e}");

    // Where is everyone? The daemon starts every node online.
    let peers = client.roundtrip("peers").map_err(|e| fail("peers", e))?;
    let alive: Vec<u32> = field(&peers, "alive")
        .unwrap_or("")
        .split(',')
        .filter_map(|s| s.parse().ok())
        .collect();
    // Exercise churn: cycle the last live node through leave → join.
    let Some(&publisher) = alive.last() else {
        return Err(format!("no live peers in: {peers}").into());
    };
    for cmd in [format!("leave {publisher}"), format!("join {publisher}")] {
        let r = client.roundtrip(&cmd).map_err(|e| fail(&cmd, e))?;
        if !r.starts_with("ok") {
            return Err(format!("{cmd} failed: {r}").into());
        }
    }
    say(
        out,
        format_args!("demo: node {publisher} rejoined the overlay"),
    )?;

    // Publish a fresh document on the just-rejoined node...
    let ad = client
        .roundtrip(&format!("advertise {publisher}"))
        .map_err(|e| fail("advertise", e))?;
    let doc = field(&ad, "doc").ok_or_else(|| format!("advertise failed: {ad}"))?;
    say(
        out,
        format_args!("demo: node {publisher} now shares doc {doc}"),
    )?;

    // ...and search for it from a different node.
    let requester = alive
        .iter()
        .find(|&&p| p != publisher)
        .ok_or_else(|| "need two live peers".to_string())?;
    // Search, then poll; an unanswered query is re-issued (ASAP needs its
    // warmup ad wave to propagate before a search can route, and a failed
    // query stays failed — retrying is the realistic client behavior).
    let deadline = Instant::now() + Duration::from_secs(8);
    let mut answered_id = None;
    'attempts: while Instant::now() < deadline {
        let sr = client
            .roundtrip(&format!("search {requester} {doc}"))
            .map_err(|e| fail("search", e))?;
        let id = field(&sr, "id")
            .ok_or_else(|| format!("search failed: {sr}"))?
            .to_string();
        say(
            out,
            format_args!("demo: node {requester} searching for doc {doc} (query {id})"),
        )?;
        let attempt_ends = (Instant::now() + Duration::from_millis(1_500)).min(deadline);
        while Instant::now() < attempt_ends {
            let q = client
                .roundtrip(&format!("query {id}"))
                .map_err(|e| fail("query", e))?;
            if q.starts_with("ok answered") {
                answered_id = Some(id);
                break 'attempts;
            }
            thread::sleep(Duration::from_millis(30));
        }
    }
    let Some(id) = answered_id else {
        return Err("no search attempt resolved before the deadline"
            .to_string()
            .into());
    };
    let stats = client.roundtrip("stats").map_err(|e| fail("stats", e))?;
    // A frame that fails to decode is dropped, not fatal: the search above
    // can resolve around it, so the count is checked in its own right.
    if field(&stats, "wire_errors") != Some("0") {
        return Err(format!("frames failed to decode: {stats}").into());
    }
    say(out, format_args!("demo: query {id} answered; {stats}"))
}
