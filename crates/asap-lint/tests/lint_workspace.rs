//! The committed `lint.toml` applied to the real workspace must report
//! zero violations — this is the same invariant CI's `cargo lint` job
//! enforces, kept here so `cargo test` alone catches regressions.

use std::path::Path;

use asap_lint::{analysis, lint_workspace, lint_workspace_unit, LintConfig};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives at <root>/crates/asap-lint")
}

#[test]
fn workspace_is_lint_clean_under_committed_config() {
    let root = workspace_root();
    let cfg_text =
        std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml at workspace root");
    let cfg = LintConfig::parse(&cfg_text).expect("committed lint.toml parses");
    let report = lint_workspace(root, &cfg).expect("workspace walk succeeds");
    assert!(
        report.files_scanned > 40,
        "walker found only {} files — skip list too aggressive?",
        report.files_scanned
    );
    if !report.is_clean() {
        for rendered in &report.rendered {
            eprintln!("{rendered}");
        }
        panic!(
            "{} lint violation(s) in the workspace (see above)",
            report.diagnostics.len()
        );
    }
}

/// The wire decoder is reached only through the generic `C::unpack` in the
/// engine's dispatch, which name-based resolution cannot follow — it is in
/// R4's scope because `Carrier` is a root trait. If that ever stops being
/// true (trait renamed, root dropped, unpack no longer calling the
/// decoder) the decoder would silently leave panic-reachability; this pins
/// it inside, down to the checksum and the filter decode a filter-bearing
/// frame goes through (`BloomFilter`'s `Codec` impl, a root as well). The
/// public decoders share the carrier's validator and are roots of their
/// own in `lint.toml`.
#[test]
fn wire_decoder_is_in_the_panic_reachable_set() {
    assert_panic_reachable(&[
        "Framed::unpack",
        "read_whole_frame",
        "read_frame",
        "decode_frame_exact",
        "decode_frame",
        "checksum",
        "BloomFilter::pull",
    ]);
}

/// Every event of every run goes through the calendar queue, and a panic in
/// its placement or cursor arithmetic would be reachable from
/// `Simulation::run` on whatever schedule first hits it. The queue's
/// internals carry distinctive names so the by-name resolver pins them
/// individually: if `step` stops calling `pop`, or one of these is renamed
/// into a name the graph cannot tell apart, this fails instead of R4
/// silently shrinking.
#[test]
fn event_queue_is_in_the_panic_reachable_set() {
    assert_panic_reachable(&[
        "EventQueue::pop",
        "EventQueue::peek_time",
        "EventQueue::push",
        "EventQueue::enqueue_scheduled",
        "EventQueue::fill_slot",
        "EventQueue::release_slot",
        "EventQueue::place_key",
        "EventQueue::next_occupied_bucket",
        "EventQueue::advance_cursor",
        "EventQueue::locate_head",
        "EventQueue::remove_head",
        "EventKey::cmp",
    ]);
}

/// The flood, walk and GSA strategies exist once, in `asap_sim::spread`,
/// and both the query baselines and ad delivery reach them from protocol
/// hooks — so R4 must still see the moved code, by name.
#[test]
fn dissemination_kernel_is_in_the_panic_reachable_set() {
    assert_panic_reachable(&[
        "fan_out",
        "walk_next",
        "pick_front",
        "disperse",
        "Dispersal::shares",
    ]);
}

/// Every send pays one latency query: `Ctx::latency_us` reads two peer
/// coordinates and hands them to the pair formula in `asap-topology`. The
/// formula lives in another crate and answers 4–16 M sends a run, so R4
/// must see it, down to the table lookups, by name.
#[test]
fn latency_path_is_in_the_panic_reachable_set() {
    assert_panic_reachable(&[
        "Ctx::latency_us",
        "PhysicalNetwork::coord_latency_us",
        "LatencyOracle::coord_latency_us",
        "LatencyOracle::transit_pair",
        "LatencyOracle::stub_pair_hops",
    ]);
}

/// Every content change of a run goes through `ContentState::add`/`remove`,
/// and every match check through `peer_matches`: a binary-searched edit of
/// the peer's sorted list (`Edits::insert_held`/`remove_held`, shared with
/// the trace generator's `Holdings`), which copies the model's initial list
/// on the peer's first edit (`Edits::copy_on_write`), and a signature
/// update or rebuild. ASAP then rebuilds the peer's own filter from what it
/// holds (`Asap::on_content_change` → `own_filter`). R4 must see that path,
/// by name, so it stays free of new `unwrap`/`expect`. `ContentState` keeps
/// no holder rows, but the by-name resolver still sends every `.add(`/
/// `.remove(` in `Simulation::change_content`/`apply_trace` to
/// `Holdings::add`/`remove` as well, so the holder rows' copy-on-write edit
/// and the CSR row lookup of the initial holders (`InitialHolders::row`)
/// stay pinned inside R4 too, and with them the `expect` in
/// `Holdings::remove` (allowed by its pragma).
#[test]
fn content_change_path_is_in_the_panic_reachable_set() {
    assert_panic_reachable(&[
        "ContentState::add",
        "ContentState::remove",
        "ContentState::peer_matches",
        "Edits::insert_held",
        "Edits::remove_held",
        "Edits::copy_on_write",
        "Signature::add",
        "Signature::of",
        "Signature::may_hold",
        "Holdings::add",
        "Holdings::remove",
        "InitialHolders::row",
        "Asap::on_content_change",
        "own_filter",
    ]);
}

/// Every interested hop of an ad delivery updates a cache: a full or patch
/// ad goes through `AdRepository::{insert_full, apply_patch}`, which take
/// and give back filter slots in the protocol's `FilterStore`
/// (`acquire`, `release`, and `reassign` for an overwrite) and grow the cache's
/// vectors by an eighth (`reserve_one`); a refresh ad, most hops of all,
/// goes through `apply_refresh`; each finds its entry with the rank
/// lookup `position`. A resume rebuilds the store from the checkpoint's
/// filter table (`from_filters`) and hands each node's own filter the
/// store's equal one (`shared`). R4 must see that path, by name, so the
/// slot and search arithmetic stay free of new `unwrap`/`expect`.
#[test]
fn ad_cache_path_is_in_the_panic_reachable_set() {
    assert_panic_reachable(&[
        "AdRepository::insert_full",
        "AdRepository::apply_patch",
        "AdRepository::apply_refresh",
        "AdRepository::position",
        "AdRepository::remove_at",
        "FilterStore::acquire",
        "FilterStore::release",
        "FilterStore::reassign",
        "FilterStore::shared",
        "FilterStore::from_filters",
        "reserve_one",
    ]);
}

/// Every next-hop draw for queries and for ads is made inside
/// `asap_sim::spread`. A `.rng()` in a baseline or in ad delivery means a
/// strategy is being hand-rolled beside the kernel again — the copies this
/// guard keeps from growing back.
#[test]
fn next_hop_draws_stay_inside_the_kernel() {
    let root = workspace_root();
    let mut files = vec![root.join("crates/asap-core/src/delivery.rs")];
    let search =
        std::fs::read_dir(root.join("crates/asap-search/src")).expect("asap-search sources");
    files.extend(search.map(|e| e.expect("readable dir entry").path()));
    files.retain(|p| p.extension().is_some_and(|x| x == "rs"));
    assert!(files.len() > 5, "only {} files to scan", files.len());
    for file in &files {
        let text = std::fs::read_to_string(file).expect("source file reads");
        if let Some(i) = text.lines().position(|l| l.contains(".rng()")) {
            let at = format!("{}:{}", file.display(), i + 1);
            panic!("{at}: draws from the decision stream outside asap_sim::spread");
        }
    }
}

/// Each name matches at least one call-graph node, and every node it
/// matches is reachable from R4's roots under the committed `lint.toml`.
fn assert_panic_reachable(names: &[&str]) {
    let root = workspace_root();
    let cfg_text =
        std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml at workspace root");
    let cfg = LintConfig::parse(&cfg_text).expect("committed lint.toml parses");
    let graph = lint_workspace_unit(root, &cfg)
        .expect("workspace walk succeeds")
        .graph;
    let seen = graph.reach(&analysis::panic_roots(&graph, &cfg), |_| false);
    for name in names {
        let nodes = graph.match_pattern(name);
        assert!(!nodes.is_empty(), "`{name}` is gone from the call graph");
        assert!(
            nodes.iter().all(|&n| seen[n]),
            "`{name}` fell out of R4 panic-reachability"
        );
    }
}
