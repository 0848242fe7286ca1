//! End-to-end algorithm benchmarks at tiny scale: one full trace replay per
//! iteration, comparing the wall-clock weight of each search scheme.

use asap_bench::runner::{run_cell_spec, RunSpec, World};
use asap_bench::{AlgoKind, Scale};
use asap_overlay::OverlayKind;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_search(c: &mut Criterion) {
    let world = World::build(Scale::Tiny, 11);
    let spec = RunSpec::figures();
    let mut group = c.benchmark_group("search-replay-tiny");
    group.sample_size(10);
    for algo in [AlgoKind::RandomWalk, AlgoKind::Gsa, AlgoKind::AsapRw] {
        group.bench_function(algo.label(), |b| {
            b.iter(|| black_box(run_cell_spec(&world, algo, OverlayKind::Random, &spec).summary))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
