//! Hub scaling: sequential `Hub` vs `AsyncHub` fan-out with a worker per
//! shard, swept over shard count × query count on one shared stock
//! stream.
//!
//! This is the smoke-level companion to `experiments async` (which
//! serves the same count mix on 32+ logical shards and records
//! `BENCH_async.json`): small enough to run in a bench pass, shaped the
//! same so regressions in either hub's fan-out loop show up here first.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sap_bench::{count_query_mix, run_async, run_sequential, serve, serve_async, Feed, Stream};
use sap_stream::generators::{Dataset, Workload};
use sap_stream::{AsyncHub, Hub};

const LEN: usize = 2_000;
const CHUNK: usize = 500;

fn bench_hub_scaling(c: &mut Criterion) {
    let data = Dataset::Stock.generate(LEN, 7);
    let feed = Feed::new(Stream::Count(&data), CHUNK);
    let mut group = c.benchmark_group("hub_scaling");
    group.measurement_time(std::time::Duration::from_secs(1));
    for queries in [100usize, 1_000] {
        let mix = count_query_mix(queries);
        let regs = || mix.iter().map(|(algo, spec)| algo.count(*spec));
        group.bench_function(
            BenchmarkId::new(format!("sequential/q{queries}"), "1"),
            |b| b.iter(|| run_sequential(&mut serve(Hub::new(), regs()), &feed).updates),
        );
        for shards in [1usize, 2, 4, 8] {
            group.bench_function(BenchmarkId::new(format!("async/q{queries}"), shards), |b| {
                b.iter(|| {
                    let mut hub = serve_async(AsyncHub::new(shards, shards), regs());
                    run_async(&mut hub, &feed).updates
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_hub_scaling);
criterion_main!(benches);
